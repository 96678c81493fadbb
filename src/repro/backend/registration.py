"""Bootstrapping: registration and credential issuance (§IV-A).

"A subject or object X must first register at the backend out-of-band …
The backend adds its information to the database, and issues a private
key K_X^pri, public key certificate (CERT) and possibly multiple
attribute profiles (PROF) to X. The admin's public key is also loaded
onto the subject device or object."

The :class:`Backend` facade models the *hierarchy* of admin servers
(§II-A): a root CA plus per-region intermediate CAs; entity certificates
chain leaf → intermediate → root, and verifiers hold only the root key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attributes.model import AttributeSet
from repro.attributes.predicate import Predicate, parse_predicate
from repro.backend.database import (
    BackendDatabase,
    DatabaseError,
    ObjectRecord,
    Policy,
    SubjectRecord,
)
from repro.backend.groups import GroupManager, SecretGroup
from repro.crypto.ecdsa import DEFAULT_STRENGTH, SigningKey, VerifyingKey, generate_signing_key
from repro.pki.certificate import CertificateChain, issue_certificate
from repro.pki.profile import Profile, sign_profile

ROOT_ID = "admin-root"


@dataclass
class SubjectCredentials:
    """Everything a subject device leaves bootstrapping with."""

    subject_id: str
    strength: int
    signing_key: SigningKey
    cert_chain: CertificateChain
    profile: Profile
    #: Real secret-group keys, keyed by group id (empty for most users).
    group_keys: dict[str, bytes]
    #: The unique cover-up key every subject holds (§VI-B).
    coverup_key: bytes
    admin_public: VerifyingKey
    root_id: str = ROOT_ID

    def discovery_keys(self) -> list[tuple[str, bytes]]:
        """Keys to try in turn for Level 3 discovery (§VI-C).

        Real group keys first, then the cover-up key — a subject with no
        sensitive attribute still "discovers" with the cover-up key so
        her traffic is indistinguishable from a fellow's.
        """
        keys = sorted(self.group_keys.items())
        keys.append(("coverup", self.coverup_key))
        return keys


@dataclass(frozen=True)
class ObjectVariant:
    """A Level 2 PROF variant: predicate on subject attributes -> profile."""

    predicate: Predicate
    profile: Profile


@dataclass
class ObjectCredentials:
    """Everything an object leaves bootstrapping with.

    The object "gets its secrecy level defined (1, 2, or 3) and must keep
    that to itself" (§IV-A) — level never appears on the wire.
    """

    object_id: str
    level: int
    strength: int
    signing_key: SigningKey
    cert_chain: CertificateChain
    #: Signed public profile (the Level 1 RES1 payload; also the fallback
    #: "outward face" identity of higher-level objects).
    public_profile: Profile
    #: Level 2: ordered {pred_i -> PROF_{O,i}} variants; first match wins.
    level2_variants: list[ObjectVariant] = field(default_factory=list)
    #: Level 3: group id -> (group key, covert PROF variant).
    level3_variants: dict[str, tuple[bytes, Profile]] = field(default_factory=dict)
    #: IDs of revoked subjects, pushed by the backend (attribute-based
    #: ACL + revocation list; §VIII "Argus").
    revoked_subjects: set[str] = field(default_factory=set)
    admin_public: VerifyingKey | None = None
    root_id: str = ROOT_ID
    #: Bumped by every backend push that changes what this object would
    #: serve (policy add/remove, revocation, group rekey).  Resumption
    #: tickets embed the epoch they were issued under; a mismatch makes
    #: the object reject the ticket, forcing the subject back through the
    #: full handshake against the fresh state
    #: (:mod:`repro.protocol.resumption`).
    resumption_epoch: int = 0


class Backend:
    """The admin's server hierarchy: CA, database, groups, issuance."""

    def __init__(
        self,
        strength: int = DEFAULT_STRENGTH,
        regions: tuple[str, ...] = ("campus",),
        rekey_strategy: str = "lkh",
    ) -> None:
        """*rekey_strategy* picks how secret groups rekey on churn:
        ``"lkh"`` (O(log gamma) messages, default) or ``"flat"`` (the
        paper's literal gamma - 1 fan-out).
        """
        self.strength = strength
        self.database = BackendDatabase()
        self.groups = GroupManager(strategy=rekey_strategy)
        self.root_key = generate_signing_key(strength)
        self._serial = 0
        # Intermediate CAs — one per region of the server hierarchy.
        self._intermediates: dict[str, tuple[SigningKey, CertificateChain]] = {}
        for region in regions:
            self._add_region(region)
        self._default_region = regions[0]
        # Live credential registries, so policy updates can be *pushed*
        # to affected ground entities (the updating-overhead path).
        self.issued_subjects: dict[str, SubjectCredentials] = {}
        self.issued_objects: dict[str, ObjectCredentials] = {}

    # -- CA hierarchy -------------------------------------------------------------

    @property
    def admin_public(self) -> VerifyingKey:
        return self.root_key.public_key

    def _add_region(self, region: str) -> None:
        key = generate_signing_key(self.strength)
        cert = issue_certificate(
            ROOT_ID, self.root_key, f"admin-{region}", key.public_key,
            serial=self._next_serial(),
        )
        self._intermediates[region] = (key, CertificateChain((cert,)))

    def _next_serial(self) -> int:
        self._serial += 1
        return self._serial

    def add_subregion(self, parent: str, name: str) -> None:
        """Grow the server hierarchy: a new admin server under *parent*.

        §II-A: the backend "is not a single server, but a hierarchy of
        servers run by the admin … it realizes a chain of trust". Chains
        issued from a sub-region are one certificate longer; verifiers
        still hold only the root key, and the ChainVerifier cache keeps
        warm handshakes at one signature verification regardless of
        depth.
        """
        if name in self._intermediates:
            raise DatabaseError(f"region {name!r} already exists")
        if parent not in self._intermediates:
            raise DatabaseError(f"unknown parent region {parent!r}")
        parent_key, parent_chain = self._intermediates[parent]
        key = generate_signing_key(self.strength)
        cert = issue_certificate(
            f"admin-{parent}", parent_key, f"admin-{name}", key.public_key,
            serial=self._next_serial(),
        )
        self._intermediates[name] = (
            key, CertificateChain((cert, *parent_chain.certificates))
        )

    def _issue_chain(
        self,
        entity_id: str,
        public: VerifyingKey,
        region: str,
        not_before: int = 0,
        not_after: int = 2**40,
    ) -> CertificateChain:
        if region not in self._intermediates:
            raise DatabaseError(f"unknown region {region!r}")
        inter_key, inter_chain = self._intermediates[region]
        leaf = issue_certificate(
            f"admin-{region}", inter_key, entity_id, public,
            serial=self._next_serial(),
            not_before=not_before, not_after=not_after,
        )
        return CertificateChain((leaf, *inter_chain.certificates))

    def reissue_certificate(
        self,
        entity_id: str,
        not_before: int = 0,
        not_after: int = 2**40,
        region: str | None = None,
    ) -> CertificateChain:
        """Renew an issued entity's certificate chain (key unchanged).

        Enterprises run short-lived certificates; expiry is the passive
        backstop behind active revocation. Renewal reuses the entity's
        key pair and just issues a fresh leaf with a new validity window.
        """
        creds = self.issued_subjects.get(entity_id) or self.issued_objects.get(entity_id)
        if creds is None:
            raise DatabaseError(f"no issued credentials for {entity_id!r}")
        chain = self._issue_chain(
            entity_id, creds.signing_key.public_key,
            region or self._default_region, not_before, not_after,
        )
        creds.cert_chain = chain
        return chain

    # -- policies -------------------------------------------------------------------

    def add_policy(
        self,
        policy_id: str,
        subject_pred: Predicate | str,
        object_pred: Predicate | str,
        rights: tuple[str, ...] = (),
    ) -> Policy:
        policy = Policy(
            policy_id=policy_id,
            subject_pred=self._pred(subject_pred),
            object_pred=self._pred(object_pred),
            rights=rights,
        )
        self.database.add_policy(policy)
        return policy

    def add_sensitive_policy(
        self, subject_attribute: str, object_attribute: str
    ) -> SecretGroup:
        """Create the secret group connecting two sensitive attributes."""
        existing = self.groups.group_for_attributes(subject_attribute, object_attribute)
        if existing is not None:
            return existing
        return self.groups.create_group(subject_attribute, object_attribute)

    @staticmethod
    def _pred(pred: Predicate | str) -> Predicate:
        return parse_predicate(pred) if isinstance(pred, str) else pred

    # -- registration -------------------------------------------------------------------

    def register_subject(
        self,
        subject_id: str,
        attributes: AttributeSet | dict,
        sensitive_attributes: tuple[str, ...] = (),
        region: str | None = None,
    ) -> SubjectCredentials:
        attrs = attributes if isinstance(attributes, AttributeSet) else AttributeSet(attributes)
        record = SubjectRecord(
            subject_id=subject_id,
            attributes=attrs,
            sensitive_attributes=frozenset(sensitive_attributes),
        )
        self.database.add_subject(record)

        signing_key = generate_signing_key(self.strength)
        chain = self._issue_chain(subject_id, signing_key.public_key, region or self._default_region)
        profile = sign_profile(Profile(subject_id, attrs), self.root_key)

        group_keys: dict[str, bytes] = {}
        for sensitive in sensitive_attributes:
            for group in self.groups.groups_for_subject_attribute(sensitive):
                group_keys[group.group_id] = self.groups.enroll_subject(
                    group.group_id, subject_id
                )

        creds = SubjectCredentials(
            subject_id=subject_id,
            strength=self.strength,
            signing_key=signing_key,
            cert_chain=chain,
            profile=profile,
            group_keys=group_keys,
            coverup_key=self.groups.coverup_key(subject_id),
            admin_public=self.admin_public,
        )
        self.issued_subjects[subject_id] = creds
        return creds

    def register_object(
        self,
        object_id: str,
        attributes: AttributeSet | dict,
        level: int = 1,
        functions: tuple[str, ...] = (),
        variants: list[tuple[Predicate | str, tuple[str, ...]]] | None = None,
        covert_functions: dict[str, tuple[str, ...]] | None = None,
        sensitive_attributes: tuple[str, ...] = (),
        region: str | None = None,
    ) -> ObjectCredentials:
        """Register an object and issue its level-appropriate credentials.

        * ``variants`` (Level 2 and 3): ``[(subject predicate, functions)]``
          pairs; the backend signs one PROF variant per entry.
        * ``covert_functions`` (Level 3): sensitive object attribute ->
          covert service functions; the backend enrolls the object into
          the matching secret groups and signs one covert PROF per group.
        """
        attrs = attributes if isinstance(attributes, AttributeSet) else AttributeSet(attributes)
        if level in (2, 3) and not variants:
            raise DatabaseError(f"a Level {level} object needs at least one PROF variant")
        if level == 3 and not covert_functions:
            raise DatabaseError("a Level 3 object needs covert variants")
        if level != 3 and covert_functions:
            raise DatabaseError("covert variants are only meaningful at Level 3")

        record = ObjectRecord(
            object_id=object_id,
            attributes=attrs,
            level=level,
            functions=functions,
            sensitive_attributes=frozenset(sensitive_attributes),
        )
        self.database.add_object(record)

        signing_key = generate_signing_key(self.strength)
        chain = self._issue_chain(object_id, signing_key.public_key, region or self._default_region)
        public_profile = sign_profile(Profile(object_id, attrs, functions), self.root_key)

        level2_variants: list[ObjectVariant] = []
        for i, (pred, funcs) in enumerate(variants or []):
            prof = sign_profile(
                Profile(object_id, attrs, tuple(funcs), variant=f"v{i}"), self.root_key
            )
            level2_variants.append(ObjectVariant(self._pred(pred), prof))

        level3_variants: dict[str, tuple[bytes, Profile]] = {}
        for sensitive, funcs in (covert_functions or {}).items():
            matched = False
            for group in self.groups.groups_for_object_attribute(sensitive):
                key = self.groups.enroll_object(group.group_id, object_id)
                prof = sign_profile(
                    Profile(
                        object_id, attrs, tuple(funcs),
                        variant=f"covert-{group.group_id}",
                    ),
                    self.root_key,
                )
                level3_variants[group.group_id] = (key, prof)
                matched = True
            if not matched:
                raise DatabaseError(
                    f"no secret group exists for object attribute {sensitive!r}; "
                    "call add_sensitive_policy first"
                )

        creds = ObjectCredentials(
            object_id=object_id,
            level=level,
            strength=self.strength,
            signing_key=signing_key,
            cert_chain=chain,
            public_profile=public_profile,
            level2_variants=level2_variants,
            level3_variants=level3_variants,
            admin_public=self.admin_public,
        )
        self.issued_objects[object_id] = creds
        return creds
