"""Provisioning snapshots: export/import round-trips to working state."""

import pytest

from repro.backend import Backend, BackendDatabase, ChurnEngine, SubjectCredentials
from repro.backend import persistence
from repro.backend.persistence import (
    PersistenceError,
    export_backend,
    import_backend,
    load_backend,
    save_backend,
)
from repro.protocol import discover


@pytest.fixture
def live_backend():
    backend = Backend()
    backend.add_sensitive_policy("sensitive:s", "sensitive:serves-s")
    backend.add_policy("p1", "position=='staff'", "type=='multimedia'", ("play",))
    backend.register_subject("alice", {"position": "staff"})
    backend.register_subject("sam", {"position": "staff"}, ("sensitive:s",))
    backend.register_object(
        "m1", {"type": "multimedia"}, level=2, functions=("play",),
        variants=[("position=='staff'", ("play",))],
    )
    backend.register_object(
        "k1", {"type": "kiosk"}, level=3, functions=("mag",),
        variants=[("true", ("mag",))],
        covert_functions={"sensitive:serves-s": ("flyer",)},
    )
    backend.register_object("t1", {"type": "thermometer"}, level=1, functions=("read",))
    return backend


class TestRoundtrip:
    def test_snapshot_is_json_serializable(self, live_backend):
        import json

        blob = json.dumps(export_backend(live_backend))
        assert "alice" in blob

    def test_database_restored(self, live_backend):
        restored = import_backend(export_backend(live_backend))
        assert set(restored.database.subjects) == {"alice", "sam"}
        assert set(restored.database.objects) == {"m1", "k1", "t1"}
        assert set(restored.database.policies) == {"p1"}
        assert len(restored.groups.groups) == 1

    def test_restored_credentials_discover(self, live_backend):
        """The acid test: restored credentials still run the protocol."""
        restored = import_backend(export_backend(live_backend))
        sam = restored.issued_subjects["sam"]
        fleet = list(restored.issued_objects.values())
        result = discover(sam, fleet)
        levels = {s.object_id: s.level_seen for s in result.services}
        assert levels == {"t1": 1, "m1": 2, "k1": 3}

    def test_cross_snapshot_interop(self, live_backend):
        """Credentials exported before and after a snapshot interoperate:
        the restored kiosk accepts the ORIGINAL sam's keys."""
        restored = import_backend(export_backend(live_backend))
        original_sam = live_backend.issued_subjects["sam"]
        fleet = list(restored.issued_objects.values())
        result = discover(original_sam, fleet)
        assert any(s.level_seen == 3 for s in result.services)

    def test_churn_works_after_restore(self, live_backend):
        restored = import_backend(export_backend(live_backend))
        churn = ChurnEngine(restored)
        report = churn.remove_subject("alice")
        assert report.overhead >= 1
        # new registrations keep working (serial counter restored)
        creds = restored.register_subject("newbie", {"position": "staff"})
        assert creds.cert_chain.verify(creds.root_id, restored.admin_public)

    def test_file_helpers(self, live_backend, tmp_path):
        path = str(tmp_path / "snapshot.json")
        save_backend(live_backend, path)
        restored = load_backend(path)
        assert set(restored.issued_objects) == {"m1", "k1", "t1"}

    def test_revocation_list_persisted(self, live_backend):
        churn = ChurnEngine(live_backend)
        churn.remove_subject("alice")
        restored = import_backend(export_backend(live_backend))
        assert "alice" in restored.issued_objects["m1"].revoked_subjects

    def test_legacy_sharding_block_loads_into_one_table(self, live_backend):
        """Snapshots written by the removed sharded backend carry a
        "sharding" block; every record still loads into the one table."""
        snapshot = export_backend(live_backend)
        assert "sharding" not in snapshot
        snapshot["sharding"] = {"shards": 4, "routing_attribute": "department"}
        restored = import_backend(snapshot)
        assert type(restored.database) is BackendDatabase
        assert set(restored.database.subjects) == {"alice", "sam"}
        assert set(restored.database.objects) == {"m1", "k1", "t1"}
        assert set(restored.database.policies) == {"p1"}
        result = discover(
            restored.issued_subjects["sam"], list(restored.issued_objects.values())
        )
        levels = {s.object_id: s.level_seen for s in result.services}
        assert levels == {"t1": 1, "m1": 2, "k1": 3}

    def test_bad_format_rejected(self):
        with pytest.raises(PersistenceError):
            import_backend({"format": 99})


@pytest.fixture
def decoded(monkeypatch):
    """The ids a restored backend decodes, per kind, in order."""
    seen = {"subjects": [], "objects": []}
    for kind, name in (
        ("subjects", "_import_subject_creds"),
        ("objects", "_import_object_creds"),
    ):
        real = getattr(persistence, name)

        def spy(entity_id, *args, real=real, ids=seen[kind]):
            ids.append(entity_id)
            return real(entity_id, *args)

        monkeypatch.setattr(persistence, name, spy)
    return seen


@pytest.fixture
def snapshot_path(live_backend, tmp_path):
    path = str(tmp_path / "snapshot.json")
    save_backend(live_backend, path)
    return path


class TestDecodeOnAccess:
    def test_load_decodes_no_credentials(self, snapshot_path, decoded):
        restored = load_backend(snapshot_path)
        assert decoded == {"subjects": [], "objects": []}
        assert restored.database.subjects.keys() == {"alice", "sam"}

    def test_len_membership_and_iteration_decode_nothing(self, snapshot_path, decoded):
        restored = load_backend(snapshot_path)
        subjects = restored.issued_subjects
        assert len(subjects) == 2
        assert "alice" in subjects and "nobody" not in subjects
        assert list(subjects) == ["alice", "sam"]
        assert sorted(restored.issued_objects) == ["k1", "m1", "t1"]
        assert set(subjects.keys()) == {"alice", "sam"}
        assert decoded == {"subjects": [], "objects": []}

    def test_a_read_decodes_exactly_that_record_once(self, snapshot_path, decoded):
        restored = load_backend(snapshot_path)
        sam = restored.issued_subjects["sam"]
        assert decoded["subjects"] == ["sam"]
        assert restored.issued_subjects["sam"] is sam
        assert restored.issued_subjects.get("alice").subject_id == "alice"
        assert restored.issued_subjects.get("nobody") is None
        assert decoded == {"subjects": ["sam", "alice"], "objects": []}

    def test_pop_returns_decoded_credentials(self, snapshot_path):
        restored = load_backend(snapshot_path)
        creds = restored.issued_subjects.pop("alice")
        assert isinstance(creds, SubjectCredentials)
        assert "alice" not in restored.issued_subjects

    def test_decoded_record_keeps_its_place(self, snapshot_path):
        restored = load_backend(snapshot_path)
        order = list(restored.issued_objects)
        restored.issued_objects["m1"]
        assert list(restored.issued_objects) == order

    def test_remove_subject_decodes_no_subject(self, snapshot_path, decoded):
        restored = load_backend(snapshot_path)
        accessible = {
            r.object_id for r in restored.database.objects_accessible_by("alice")
        }
        ChurnEngine(restored).remove_subject("alice")
        assert decoded["subjects"] == []
        # Only the objects whose revocation lists change are decoded.
        assert sorted(decoded["objects"]) == sorted(accessible)
        assert "alice" not in restored.issued_subjects
        assert "alice" in restored.issued_objects["m1"].revoked_subjects

    def test_export_of_a_loaded_backend_is_unchanged(self, live_backend, snapshot_path):
        assert export_backend(load_backend(snapshot_path)) == export_backend(live_backend)

    def test_corrupted_key_raises_at_first_read(self, live_backend):
        snapshot = export_backend(live_backend)
        snapshot["issued_subjects"]["alice"]["key_pem"] = "not a key"
        with pytest.raises(ValueError) as decoding:
            persistence._import_subject_creds(
                "alice", snapshot["issued_subjects"]["alice"], live_backend.admin_public
            )
        restored = import_backend(snapshot)
        assert restored.issued_subjects["sam"].subject_id == "sam"
        with pytest.raises(decoding.type):
            restored.issued_subjects["alice"]
