"""Authorization updates and churn — the scalability-critical path (§VIII).

"Any change in the backend database (e.g., policy addition, subject
removal) related to Level 2 or 3 should be immediately synchronized to
affected subjects/objects on the ground." The *updating overhead* —
defined by the paper as the number of affected subjects and objects — is
the metric Table I compares across ID-ACL, ABE and Argus.

This module actually *performs* Argus's updates against the live issued
credentials (so a revoked subject really does fail her next discovery in
the protocol tests) and reports the overhead of each operation. The
ID-ACL and ABE counterparts live in :mod:`repro.baselines`; the
closed-form comparison is in :mod:`repro.analysis.scalability`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.attributes.model import AttributeSet
from repro.attributes.predicate import Predicate
from repro.backend.registration import Backend, ObjectCredentials, SubjectCredentials
from repro.backend.updatewire import UpdateBatcher, UpdateMessage
from repro.pki.profile import Profile, sign_profile


@dataclass(frozen=True)
class UpdateReport:
    """The ground-network cost of one backend update.

    ``overhead`` counts notified ground entities, matching the paper's
    definition; the backend itself is free (it is the origin).
    """

    operation: str
    target: str
    notified_subjects: frozenset[str] = frozenset()
    notified_objects: frozenset[str] = frozenset()
    details: str = ""

    @property
    def overhead(self) -> int:
        return len(self.notified_subjects) + len(self.notified_objects)


@dataclass
class ChurnEngine:
    """Applies §II-C(4) churn operations to a live backend.

    When constructed with a ``wire`` batcher, removal operations also
    stage their wire-protocol pushes (revocations, rekeys, LKH streams)
    and flush them — one signed message per recipient — after each
    operation, or once per burst inside :meth:`batch`.
    """

    backend: Backend
    wire: UpdateBatcher | None = None
    log: list[UpdateReport] = field(default_factory=list)
    #: The messages produced by the most recent wire flush.
    last_wire_flush: list[UpdateMessage] = field(default_factory=list)
    _burst_depth: int = 0

    @contextmanager
    def batch(self) -> Iterator["ChurnEngine"]:
        """Coalesce a churn burst into one wire flush per recipient.

        Operations inside the ``with`` block stage wire pushes without
        flushing; leaving the outermost block flushes once.
        """
        self._burst_depth += 1
        try:
            yield self
        finally:
            self._burst_depth -= 1
            self._flush_wire()

    def _flush_wire(self) -> None:
        if self.wire is not None and self._burst_depth == 0:
            messages = self.wire.flush()
            if messages:
                self.last_wire_flush = messages

    # -- subjects ---------------------------------------------------------------------

    def add_subject(
        self,
        subject_id: str,
        attributes: AttributeSet | dict,
        sensitive_attributes: tuple[str, ...] = (),
        region: str | None = None,
    ) -> tuple[SubjectCredentials, UpdateReport]:
        """Register a newcomer.

        Argus overhead: the newcomer contacts the backend once for her
        attribute profile; **no object needs updating** (§VIII: overhead
        1, vs N for ID-based ACLs).
        """
        creds = self.backend.register_subject(
            subject_id,
            attributes,
            sensitive_attributes=sensitive_attributes,
            region=region,
        )
        report = UpdateReport(
            operation="add_subject",
            target=creds.subject_id,
            notified_subjects=frozenset({creds.subject_id}),
            details="newcomer fetched credentials; no object updated",
        )
        self.log.append(report)
        return creds, report

    def remove_subject(self, subject_id: str) -> UpdateReport:
        """Revoke a subject (§VIII's Level 2 bottleneck, overhead N).

        The backend notifies every object the subject could access to add
        her ID to its revocation list; her secret groups are rekeyed and
        the new keys pushed to the remaining fellows (overhead gamma - 1
        per group).
        """
        accessible = self.backend.database.objects_accessible_by(subject_id)
        notified_objects: set[str] = set()
        for record in accessible:
            notified_objects.add(record.object_id)
            issued = self.backend.issued_objects.get(record.object_id)
            if issued is not None:
                issued.revoked_subjects.add(subject_id)
                issued.resumption_epoch += 1
            if self.wire is not None:
                self.wire.add_revocation(record.object_id, subject_id)

        notified_subjects: set[str] = set()
        for rekey in self.backend.groups.remove_everywhere(subject_id):
            self._distribute_group_key(rekey.group_id)
            self._stage_rekey_wire(rekey)
            notified_subjects |= set(rekey.notified_subjects)
            notified_objects |= set(rekey.notified_objects)

        self.backend.database.remove_subject(subject_id)
        # Not pop: on a restored backend, pop decodes the record it returns.
        if subject_id in self.backend.issued_subjects:
            del self.backend.issued_subjects[subject_id]
        report = UpdateReport(
            operation="remove_subject",
            target=subject_id,
            notified_subjects=frozenset(notified_subjects),
            notified_objects=frozenset(notified_objects),
            details=f"revocation pushed to {len(notified_objects)} objects",
        )
        self.log.append(report)
        self._flush_wire()
        return report

    # -- objects ----------------------------------------------------------------------

    def add_object(
        self,
        object_id: str,
        attributes: AttributeSet | dict,
        level: int = 1,
        functions: tuple[str, ...] = (),
        variants: list[tuple[Predicate | str, tuple[str, ...]]] | None = None,
        covert_functions: dict[str, tuple[str, ...]] | None = None,
        sensitive_attributes: tuple[str, ...] = (),
        region: str | None = None,
    ) -> tuple[ObjectCredentials, UpdateReport]:
        """Install a device; only the device itself is provisioned (overhead 1)."""
        creds = self.backend.register_object(
            object_id,
            attributes,
            level=level,
            functions=functions,
            variants=variants,
            covert_functions=covert_functions,
            sensitive_attributes=sensitive_attributes,
            region=region,
        )
        report = UpdateReport(
            operation="add_object",
            target=creds.object_id,
            notified_objects=frozenset({creds.object_id}),
            details="device provisioned at install time",
        )
        self.log.append(report)
        return creds, report

    def remove_object(self, object_id: str) -> UpdateReport:
        """Decommission a device; rekey any secret groups it was in."""
        notified_subjects: set[str] = set()
        notified_objects: set[str] = {object_id}
        for rekey in self.backend.groups.remove_everywhere(object_id):
            self._distribute_group_key(rekey.group_id)
            self._stage_rekey_wire(rekey)
            notified_subjects |= set(rekey.notified_subjects)
            notified_objects |= set(rekey.notified_objects)
        self.backend.database.remove_object(object_id)
        if object_id in self.backend.issued_objects:
            del self.backend.issued_objects[object_id]
        report = UpdateReport(
            operation="remove_object",
            target=object_id,
            notified_subjects=frozenset(notified_subjects),
            notified_objects=frozenset(notified_objects),
        )
        self.log.append(report)
        self._flush_wire()
        return report

    # -- policies ----------------------------------------------------------------------

    def add_policy_with_variant(
        self,
        policy_id: str,
        subject_pred,
        object_pred,
        functions: tuple[str, ...],
        rights: tuple[str, ...] = (),
    ) -> UpdateReport:
        """Add a visibility policy and push the new PROF variant.

        The beta objects matching the policy's object predicate each
        receive a new signed PROF variant (§VIII: overhead beta).
        """
        policy = self.backend.add_policy(policy_id, subject_pred, object_pred, rights)
        notified: set[str] = set()
        for record in self.backend.database.objects_matching(policy.object_pred):
            if record.level not in (2, 3):
                continue
            issued = self.backend.issued_objects.get(record.object_id)
            if issued is None:
                continue
            from repro.backend.registration import ObjectVariant

            prof = sign_profile(
                Profile(
                    record.object_id,
                    record.attributes,
                    functions,
                    variant=f"policy-{policy_id}",
                ),
                self.backend.root_key,
            )
            issued.level2_variants.append(ObjectVariant(policy.subject_pred, prof))
            issued.resumption_epoch += 1
            notified.add(record.object_id)
        report = UpdateReport(
            operation="add_policy",
            target=policy_id,
            notified_objects=frozenset(notified),
            details=f"variant pushed to {len(notified)} objects (beta)",
        )
        self.log.append(report)
        return report

    def remove_policy(self, policy_id: str) -> UpdateReport:
        """Remove a policy; affected objects drop the matching variant."""
        policy = self.backend.database.remove_policy(policy_id)
        notified: set[str] = set()
        variant_name = f"policy-{policy_id}"
        for issued in self.backend.issued_objects.values():
            before = len(issued.level2_variants)
            issued.level2_variants = [
                v for v in issued.level2_variants if v.profile.variant != variant_name
            ]
            if len(issued.level2_variants) != before:
                issued.resumption_epoch += 1
                notified.add(issued.object_id)
        report = UpdateReport(
            operation="remove_policy",
            target=policy_id,
            notified_objects=frozenset(notified),
        )
        self.log.append(report)
        return report

    # -- internals ---------------------------------------------------------------------

    def _stage_rekey_wire(self, rekey) -> None:
        """Stage one rekey's wire pushes into the batcher, if attached.

        LKH rekeys stage their O(log gamma) update stream for a single
        group broadcast; flat rekeys fall back to one per-fellow
        ECIES-wrapped push (coalesced per recipient by the batcher).
        """
        if self.wire is None:
            return
        if rekey.strategy == "lkh" and rekey.updates:
            self.wire.add_lkh(rekey.group_id, rekey.updates)
            return
        group = self.backend.groups.groups[rekey.group_id]
        for subject_id in rekey.notified_subjects:
            creds = self.backend.issued_subjects.get(subject_id)
            if creds is not None:
                self.wire.add_rekey(
                    subject_id, creds.signing_key.public_key,
                    rekey.group_id, group.key, group.key_version,
                )
        for object_id in rekey.notified_objects:
            creds_o = self.backend.issued_objects.get(object_id)
            if creds_o is not None:
                self.wire.add_rekey(
                    object_id, creds_o.signing_key.public_key,
                    rekey.group_id, group.key, group.key_version,
                )

    def _distribute_group_key(self, group_id: str) -> None:
        """Push a rekeyed group key to every issued fellow's credentials."""
        group = self.backend.groups.groups[group_id]
        for subject_id in group.subject_members:
            creds = self.backend.issued_subjects.get(subject_id)
            if creds is not None and group_id in creds.group_keys:
                creds.group_keys[group_id] = group.key
        for object_id in group.object_members:
            creds_o = self.backend.issued_objects.get(object_id)
            if creds_o is not None and group_id in creds_o.level3_variants:
                _, prof = creds_o.level3_variants[group_id]
                creds_o.level3_variants[group_id] = (group.key, prof)
                creds_o.resumption_epoch += 1

    # -- accounting --------------------------------------------------------------------

    def total_overhead(self) -> int:
        return sum(report.overhead for report in self.log)
