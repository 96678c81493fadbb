"""CP-ABE-based Level 2 discovery — the paper's ABE baseline (§VIII, §IX-B).

"At bootstrapping, the backend issues S with a set of keys, each
corresponding to her one attribute; also, the backend issues O with ABE
ciphertexts — PROF_{O,i} encrypted using policy pred_i. The PROF_{O,i}
ciphertext can be decrypted only if S has all the attributes to meet
pred_i."

Discovery is cheap for objects (they just return pre-computed
ciphertexts) but decryption is pairing-heavy for subjects (Fig. 6(c):
~1 s per policy attribute), and **revocation is the killer**: revoking
one subject's attribute forces re-encrypting every ciphertext whose
policy mentions it (ξ_o N) and re-keying every *other* subject holding
it (ξ_s (alpha - 1)) — Table I's ≈10N.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.abe import (
    AbeCiphertext,
    AbeError,
    AbeSecretKey,
    CpAbe,
    policy_of_attributes,
)
from repro.crypto import abe as abe_mod
from repro.pki.profile import Profile


class AbeSystemError(Exception):
    pass


@dataclass
class AbeCiphertextRecord:
    """One deployed ciphertext: a PROF variant locked to a policy."""

    object_id: str
    policy_attributes: tuple[str, ...]
    header: AbeCiphertext
    body: bytes
    plaintext_profile: Profile  # kept by the backend for re-encryption
    reencryptions: int = 0


@dataclass
class AbeSubjectState:
    subject_id: str
    attributes: set[str]
    key: AbeSecretKey
    rekeys: int = 0


@dataclass(frozen=True)
class AbeUpdateReport:
    operation: str
    subject_id: str
    reencrypted_objects: frozenset[str]
    rekeyed_subjects: frozenset[str]

    @property
    def overhead(self) -> int:
        """xi_o * N + xi_s * (alpha - 1) in the paper's notation."""
        return len(self.reencrypted_objects) + len(self.rekeyed_subjects)


class AbeSystem:
    """The backend view of a CP-ABE deployment."""

    def __init__(self) -> None:
        self.scheme = CpAbe()
        self.pk, self._mk = self.scheme.setup()
        self.subjects: dict[str, AbeSubjectState] = {}
        self.ciphertexts: list[AbeCiphertextRecord] = []
        self.log: list[AbeUpdateReport] = []
        #: Attribute-revocation versions: revoking attribute a bumps
        #: version[a], so new keys/ciphertexts use the label "a#vN" and
        #: the revoked subject's old key stops matching anything.
        self._versions: dict[str, int] = {}

    def _versioned(self, attributes: set[str] | tuple[str, ...]) -> set[str]:
        return {f"{a}#v{self._versions.get(a, 0)}" for a in attributes}

    # -- provisioning ------------------------------------------------------------

    def add_subject(self, subject_id: str, attributes: set[str]) -> AbeUpdateReport:
        """Enroll a subject: one keygen, nothing else touched (overhead 1)."""
        if subject_id in self.subjects:
            raise AbeSystemError(f"duplicate subject {subject_id!r}")
        key = self.scheme.keygen(self._mk, self._versioned(attributes))
        self.subjects[subject_id] = AbeSubjectState(subject_id, set(attributes), key)
        report = AbeUpdateReport(
            "add_subject", subject_id,
            reencrypted_objects=frozenset(),
            rekeyed_subjects=frozenset({subject_id}),
        )
        self.log.append(report)
        return report

    def deploy_variant(
        self, object_id: str, profile: Profile, policy_attributes: list[str]
    ) -> AbeCiphertextRecord:
        """Encrypt one PROF variant under an AND-policy and hand it to the object."""
        header, body = abe_mod.encrypt_bytes(
            self.scheme, self.pk, profile.to_bytes(),
            policy_of_attributes(sorted(self._versioned(tuple(policy_attributes)))),
        )
        record = AbeCiphertextRecord(
            object_id=object_id,
            policy_attributes=tuple(sorted(policy_attributes)),
            header=header,
            body=body,
            plaintext_profile=profile,
        )
        self.ciphertexts.append(record)
        return record

    # -- discovery -----------------------------------------------------------------

    def discover(self, subject_id: str) -> list[Profile]:
        """Try to decrypt every deployed ciphertext with the subject's key."""
        state = self._subject(subject_id)
        found: list[Profile] = []
        for record in self.ciphertexts:
            try:
                plaintext = abe_mod.decrypt_bytes(
                    self.scheme, self.pk, state.key, record.header, record.body
                )
            except (AbeError, Exception):
                continue
            found.append(Profile.from_bytes(plaintext))
        return found

    # -- revocation (the expensive path) ------------------------------------------------

    def remove_subject(self, subject_id: str) -> AbeUpdateReport:
        """Globally revoke the subject's attributes (§VIII "ABE").

        i) re-encrypt every ciphertext whose policy mentions any of her
        attributes and redeliver to its object; ii) regenerate those
        attributes' keys for every *other* subject owning them.
        """
        state = self.subjects.pop(subject_id, None)
        if state is None:
            raise AbeSystemError(f"unknown subject {subject_id!r}")
        revoked_attrs = state.attributes
        for attr in revoked_attrs:
            self._versions[attr] = self._versions.get(attr, 0) + 1

        reencrypted: set[str] = set()
        for record in self.ciphertexts:
            if revoked_attrs & set(record.policy_attributes):
                header, body = abe_mod.encrypt_bytes(
                    self.scheme, self.pk,
                    record.plaintext_profile.to_bytes(),
                    policy_of_attributes(
                        sorted(self._versioned(record.policy_attributes))
                    ),
                )
                record.header, record.body = header, body
                record.reencryptions += 1
                reencrypted.add(record.object_id)

        rekeyed: set[str] = set()
        for other in self.subjects.values():
            if revoked_attrs & other.attributes:
                other.key = self.scheme.keygen(self._mk, self._versioned(other.attributes))
                other.rekeys += 1
                rekeyed.add(other.subject_id)

        report = AbeUpdateReport(
            "remove_subject", subject_id,
            reencrypted_objects=frozenset(reencrypted),
            rekeyed_subjects=frozenset(rekeyed),
        )
        self.log.append(report)
        return report

    def _subject(self, subject_id: str) -> AbeSubjectState:
        try:
            return self.subjects[subject_id]
        except KeyError:
            raise AbeSystemError(f"unknown subject {subject_id!r}") from None
