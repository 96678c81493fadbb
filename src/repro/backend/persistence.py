"""Provisioning snapshots: export/import the backend's full state.

Real enterprise deployments provision devices from files; this module
serializes a live :class:`~repro.backend.registration.Backend` — CA
keys, database records, policies, secret groups, and every issued
credential — to JSON, and restores it to a working backend whose
credentials still interoperate (the round-trip tests run a discovery on
the restored state).

Private keys serialize as unencrypted PKCS8 PEM: the snapshot's at-rest
protection is a deployment concern outside the protocol (§VII threat
model assumes well-protected key storage).

A restored backend decodes each issued credential the first time it is
read (:class:`_SnapshotCredentials`): an object host that loads the
campus snapshot to serve its own objects never parses the subjects'
keys, chains and profiles.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator, MutableMapping
from typing import Any

from repro.attributes.model import AttributeSet
from repro.attributes.predicate import parse_predicate
from repro.backend.database import ObjectRecord, Policy, SubjectRecord
from repro.backend.groups import SecretGroup
from repro.backend.registration import (
    Backend,
    ObjectCredentials,
    ObjectVariant,
    SubjectCredentials,
)
from repro.crypto.ecdsa import SigningKey, VerifyingKey
from repro.pki.certificate import CertificateChain
from repro.pki.profile import Profile

FORMAT_VERSION = 1


class PersistenceError(Exception):
    pass


Credentials = SubjectCredentials | ObjectCredentials


class _SnapshotCredentials(MutableMapping):
    """``issued_subjects`` / ``issued_objects`` of a restored backend.

    Keeps each snapshot record as read and decodes it into credentials
    the first time it is read (``[id]``, ``get``, ``values``, ``items``,
    and ``pop``, which returns it); membership tests, ``len``, iteration
    and ``del`` decode nothing.  A corrupted record raises at that first
    read.  Iteration order is the snapshot's; a decoded record keeps its
    place.
    """

    def __init__(
        self, records: dict[str, dict], decode: Callable[[str, dict], Credentials]
    ) -> None:
        #: id -> credentials, or the snapshot record not yet decoded
        self._items: dict[str, Credentials | dict] = dict(records)
        self._decode = decode

    def __getitem__(self, key: str) -> Credentials:
        value = self._items[key]
        if isinstance(value, dict):
            value = self._items[key] = self._decode(key, value)
        return value

    def __setitem__(self, key: str, value: Credentials) -> None:
        self._items[key] = value

    def __delitem__(self, key: str) -> None:
        del self._items[key]

    def __contains__(self, key: object) -> bool:
        return key in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


# -- export ---------------------------------------------------------------------


def export_backend(backend: Backend) -> dict[str, Any]:
    """Snapshot the entire backend as a JSON-serializable dict."""
    return {
        "format": FORMAT_VERSION,
        "strength": backend.strength,
        "serial": backend._serial,
        "rekey_strategy": backend.groups.strategy,
        "lkh_trees": {
            group_id: tree.to_dict()
            for group_id, tree in backend.groups.trees.items()
        },
        "root_key_pem": backend.root_key.to_pem().decode(),
        "intermediates": {
            region: {
                "key_pem": key.to_pem().decode(),
                "chain_hex": chain.to_bytes().hex(),
            }
            for region, (key, chain) in backend._intermediates.items()
        },
        "default_region": backend._default_region,
        "subjects": [
            {
                "subject_id": r.subject_id,
                "attributes": r.attributes.to_bytes().hex(),
                "sensitive": sorted(r.sensitive_attributes),
                "revoked": r.revoked,
            }
            for r in backend.database.subjects.values()
        ],
        "objects": [
            {
                "object_id": r.object_id,
                "attributes": r.attributes.to_bytes().hex(),
                "level": r.level,
                "functions": list(r.functions),
                "sensitive": sorted(r.sensitive_attributes),
                "revoked": r.revoked,
            }
            for r in backend.database.objects.values()
        ],
        "policies": [
            {
                "policy_id": p.policy_id,
                "subject_pred": str(p.subject_pred),
                "object_pred": str(p.object_pred),
                "rights": list(p.rights),
            }
            for p in backend.database.policies.values()
        ],
        "groups": [
            {
                "group_id": g.group_id,
                "subject_attribute": g.subject_attribute,
                "object_attribute": g.object_attribute,
                "key_hex": g.key.hex(),
                "subject_members": sorted(g.subject_members),
                "object_members": sorted(g.object_members),
                "key_version": g.key_version,
            }
            for g in backend.groups.groups.values()
        ],
        "coverup_keys": {
            sid: key.hex() for sid, key in backend.groups._coverup_keys.items()
        },
        "group_counter": backend.groups._counter,
        "issued_subjects": {
            sid: _export_subject_creds(creds)
            for sid, creds in backend.issued_subjects.items()
        },
        "issued_objects": {
            oid: _export_object_creds(creds)
            for oid, creds in backend.issued_objects.items()
        },
    }


def _export_subject_creds(creds: SubjectCredentials) -> dict[str, Any]:
    return {
        "strength": creds.strength,
        "key_pem": creds.signing_key.to_pem().decode(),
        "chain_hex": creds.cert_chain.to_bytes().hex(),
        "profile_hex": creds.profile.to_bytes().hex(),
        "group_keys": {gid: key.hex() for gid, key in creds.group_keys.items()},
        "coverup_hex": creds.coverup_key.hex(),
    }


def _export_object_creds(creds: ObjectCredentials) -> dict[str, Any]:
    return {
        "level": creds.level,
        "strength": creds.strength,
        "key_pem": creds.signing_key.to_pem().decode(),
        "chain_hex": creds.cert_chain.to_bytes().hex(),
        "public_profile_hex": creds.public_profile.to_bytes().hex(),
        "level2_variants": [
            {"predicate": str(v.predicate), "profile_hex": v.profile.to_bytes().hex()}
            for v in creds.level2_variants
        ],
        "level3_variants": {
            gid: {"key_hex": key.hex(), "profile_hex": prof.to_bytes().hex()}
            for gid, (key, prof) in creds.level3_variants.items()
        },
        "revoked_subjects": sorted(creds.revoked_subjects),
    }


# -- import ---------------------------------------------------------------------


def import_backend(snapshot: dict[str, Any]) -> Backend:
    """Rebuild a working backend from a snapshot dict."""
    if snapshot.get("format") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported snapshot format {snapshot.get('format')!r}"
        )
    backend = Backend.__new__(Backend)
    backend.strength = snapshot["strength"]
    backend.root_key = SigningKey.from_pem(snapshot["root_key_pem"].encode())
    backend._serial = snapshot["serial"]
    backend._intermediates = {
        region: (
            SigningKey.from_pem(entry["key_pem"].encode()),
            CertificateChain.from_bytes(bytes.fromhex(entry["chain_hex"])),
        )
        for region, entry in snapshot["intermediates"].items()
    }
    backend._default_region = snapshot["default_region"]

    from repro.backend.database import BackendDatabase
    from repro.backend.groups import GroupManager

    # Older snapshots carry a "sharding" block; every record is in the
    # snapshot itself, so they all load into the one table.
    backend.database = BackendDatabase()
    for entry in snapshot["subjects"]:
        backend.database.add_subject(SubjectRecord(
            subject_id=entry["subject_id"],
            attributes=AttributeSet.from_bytes(bytes.fromhex(entry["attributes"])),
            sensitive_attributes=frozenset(entry["sensitive"]),
            revoked=entry["revoked"],
        ))
    for entry in snapshot["objects"]:
        backend.database.add_object(ObjectRecord(
            object_id=entry["object_id"],
            attributes=AttributeSet.from_bytes(bytes.fromhex(entry["attributes"])),
            level=entry["level"],
            functions=tuple(entry["functions"]),
            sensitive_attributes=frozenset(entry["sensitive"]),
            revoked=entry["revoked"],
        ))
    for entry in snapshot["policies"]:
        backend.database.add_policy(Policy(
            policy_id=entry["policy_id"],
            subject_pred=parse_predicate(entry["subject_pred"]),
            object_pred=parse_predicate(entry["object_pred"]),
            rights=tuple(entry["rights"]),
        ))

    from repro.backend.lkh import LKHTree

    backend.groups = GroupManager(strategy=snapshot.get("rekey_strategy", "lkh"))
    backend.groups._counter = snapshot["group_counter"]
    trees = snapshot.get("lkh_trees", {})
    for entry in snapshot["groups"]:
        group = SecretGroup(
            group_id=entry["group_id"],
            subject_attribute=entry["subject_attribute"],
            object_attribute=entry["object_attribute"],
            key=bytes.fromhex(entry["key_hex"]),
            subject_members=set(entry["subject_members"]),
            object_members=set(entry["object_members"]),
            key_version=entry["key_version"],
        )
        tree_entry = trees.get(group.group_id)
        backend.groups.adopt(
            group,
            tree=LKHTree.from_dict(tree_entry) if tree_entry is not None else None,
        )
    backend.groups._coverup_keys = {
        sid: bytes.fromhex(h) for sid, h in snapshot["coverup_keys"].items()
    }

    # The decoders hold the admin key, not the backend: a caller that
    # keeps only ``issued_objects`` does not keep the whole backend alive.
    admin_public = backend.admin_public
    backend.issued_subjects = _SnapshotCredentials(
        snapshot["issued_subjects"],
        lambda sid, entry: _import_subject_creds(sid, entry, admin_public),
    )
    backend.issued_objects = _SnapshotCredentials(
        snapshot["issued_objects"],
        lambda oid, entry: _import_object_creds(oid, entry, admin_public),
    )
    return backend


def _import_subject_creds(
    subject_id: str, entry: dict, admin_public: VerifyingKey
) -> SubjectCredentials:
    return SubjectCredentials(
        subject_id=subject_id,
        strength=entry["strength"],
        signing_key=SigningKey.from_pem(entry["key_pem"].encode()),
        cert_chain=CertificateChain.from_bytes(bytes.fromhex(entry["chain_hex"])),
        profile=Profile.from_bytes(bytes.fromhex(entry["profile_hex"])),
        group_keys={gid: bytes.fromhex(h) for gid, h in entry["group_keys"].items()},
        coverup_key=bytes.fromhex(entry["coverup_hex"]),
        admin_public=admin_public,
    )


def _import_object_creds(
    object_id: str, entry: dict, admin_public: VerifyingKey
) -> ObjectCredentials:
    return ObjectCredentials(
        object_id=object_id,
        level=entry["level"],
        strength=entry["strength"],
        signing_key=SigningKey.from_pem(entry["key_pem"].encode()),
        cert_chain=CertificateChain.from_bytes(bytes.fromhex(entry["chain_hex"])),
        public_profile=Profile.from_bytes(bytes.fromhex(entry["public_profile_hex"])),
        level2_variants=[
            ObjectVariant(
                parse_predicate(v["predicate"]),
                Profile.from_bytes(bytes.fromhex(v["profile_hex"])),
            )
            for v in entry["level2_variants"]
        ],
        level3_variants={
            gid: (
                bytes.fromhex(v["key_hex"]),
                Profile.from_bytes(bytes.fromhex(v["profile_hex"])),
            )
            for gid, v in entry["level3_variants"].items()
        },
        revoked_subjects=set(entry["revoked_subjects"]),
        admin_public=admin_public,
    )


# -- file helpers ------------------------------------------------------------------


def save_backend(backend: Backend, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(export_backend(backend), handle, indent=1)


def load_backend(path: str) -> Backend:
    with open(path, encoding="utf-8") as handle:
        return import_backend(json.load(handle))
