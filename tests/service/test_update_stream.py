"""The live update plane: stop-and-wait pushes, LKH streams, outages.

All fleets here are private to the module — applying updates mutates
the credentials (that is what updates are for), so nothing session-
scoped may be used.
"""

import asyncio

from repro.backend.updatewire import UpdatePublisher, UpdateReceiver
from repro.experiments.common import make_level_fleet
from repro.net.faults import (
    Fault,
    FaultKind,
    FaultLayer,
    FaultSchedule,
    burst_loss_schedule,
)
from repro.net.run import RetryPolicy
from repro.service import update_stream
from repro.service.chaos import ChaosProxy
from repro.service.daemon import ObjectServiceDaemon
from repro.service.update_stream import UpdateStreamPusher

#: Loopback-tuned: quick retries, but patient enough for lossy runs.
PUSH_RETRY = RetryPolicy(max_retries=8, base_timeout_s=0.05, backoff=1.5,
                         give_up_s=5.0)


def _receiver_for(creds, backend, **kwargs):
    return UpdateReceiver(
        creds.object_id, backend.admin_public, object_creds=creds, **kwargs
    )


class TestInOrderStream:
    def test_stream_applies_in_publish_order(self):
        subject, objects, backend = make_level_fleet(1, level=2)
        receiver = _receiver_for(objects[0], backend)
        publisher = UpdatePublisher(backend.root_key)
        messages = [
            publisher.revoke_subject(objects[0].object_id, f"intruder-{i}")
            for i in range(3)
        ]

        async def scenario():
            async with ObjectServiceDaemon(
                objects[0], update_receiver=receiver
            ) as daemon:
                async with UpdateStreamPusher(retry=PUSH_RETRY) as pusher:
                    delivered = await pusher.push_all(daemon.address, messages)
                return delivered, dict(daemon.stats), dict(pusher.stats)

        delivered, stats, push_stats = asyncio.run(scenario())
        assert delivered == 3
        assert stats["updates_applied"] == 3
        assert push_stats["pushes_acked"] == 3
        assert receiver.last_sequence == messages[-1].sequence
        assert {f"intruder-{i}" for i in range(3)} <= objects[0].revoked_subjects

    def test_lost_ack_duplicate_is_reacked_not_reapplied(self):
        subject, objects, backend = make_level_fleet(1, level=2)
        receiver = _receiver_for(objects[0], backend)
        message = UpdatePublisher(backend.root_key).revoke_subject(
            objects[0].object_id, "intruder"
        )

        async def scenario():
            async with ObjectServiceDaemon(
                objects[0], update_receiver=receiver
            ) as daemon:
                async with UpdateStreamPusher(retry=PUSH_RETRY) as pusher:
                    # Push the same sequence twice — the wire-level shape
                    # of a lost ACK followed by the pusher's retry.
                    first = await pusher.push(daemon.address, message)
                    second = await pusher.push(daemon.address, message)
                return first, second, dict(daemon.stats)

        first, second, stats = asyncio.run(scenario())
        assert first and second
        assert stats["updates_applied"] == 1
        assert stats["updates_reacked"] == 1
        assert len(receiver.errors) == 0


class TestOversizedPush:
    def test_push_past_one_datagram_is_refused_unsent(self, monkeypatch):
        """A bundle grows with its churn burst; one that cannot ride a
        single datagram is refused, never split or streamed."""
        subject, objects, backend = make_level_fleet(1, level=2)
        receiver = _receiver_for(objects[0], backend)
        message = UpdatePublisher(backend.root_key).revoke_subject(
            objects[0].object_id, "intruder"
        )
        monkeypatch.setattr(
            update_stream, "MAX_DATAGRAM", len(message.to_bytes()) - 1
        )

        async def scenario():
            async with ObjectServiceDaemon(
                objects[0], update_receiver=receiver
            ) as daemon:
                async with UpdateStreamPusher(retry=PUSH_RETRY) as pusher:
                    delivered = await pusher.push(daemon.address, message)
                return delivered, dict(daemon.stats), dict(pusher.stats)

        delivered, stats, push_stats = asyncio.run(scenario())
        assert delivered is False
        assert push_stats == {"pushes_oversized": 1}
        assert stats.get("frames_in", 0) == 0
        assert receiver.last_sequence == 0


class TestLkhStreamUnderChaos:
    def test_lossy_rekey_stream_applies_exactly_once(self):
        """Two LKH removals through a lossy, duplicating proxy.

        The §VIII wire path, chaos-tested: MemberState replay must land
        exactly once per broadcast despite lost pushes, lost ACKs and
        fault-duplicated frames.
        """
        subject, objects, backend = make_level_fleet(3, level=3)
        group = backend.groups.groups_of_subject(subject.subject_id)[0]
        gid = group.group_id
        # Provision the daemon's device state BEFORE any removal — the
        # whole point is advancing it via the published stream.
        state = backend.groups.member_state(gid, objects[0].object_id)
        receiver = _receiver_for(
            objects[0], backend, lkh_members={gid: state}
        )
        # ONE shared publisher across the stream: sequences must be
        # strictly increasing end to end or the receiver calls staleness.
        publisher = UpdatePublisher(backend.root_key)
        messages = []
        for evicted in (objects[1], objects[2]):
            report = backend.groups.remove_member(gid, evicted.object_id)
            messages.append(publisher.lkh_rekey(gid, list(report.updates)))
        schedule = FaultSchedule(
            burst_loss_schedule(0.2, seed=5).entries
            + (Fault(FaultKind.DUPLICATION, severity=0.5,
                     extra_delay_s=0.005),),
            seed=5,
        )

        async def scenario():
            async with ObjectServiceDaemon(
                objects[0], update_receiver=receiver
            ) as daemon:
                proxy = ChaosProxy(
                    daemon.address, FaultLayer(schedule, seed=5),
                    objects[0].object_id,
                )
                await proxy.start()
                try:
                    async with UpdateStreamPusher(retry=PUSH_RETRY) as pusher:
                        delivered = await pusher.push_all(
                            proxy.address, messages
                        )
                    await asyncio.sleep(0.1)  # drain trailing duplicates
                finally:
                    await proxy.close()
                return delivered, dict(daemon.stats)

        delivered, stats = asyncio.run(scenario())
        assert delivered == 2
        assert stats["updates_applied"] == 2
        assert receiver.last_sequence == messages[-1].sequence
        assert [str(e) for e in receiver.errors] == []
        # The device converged on the post-eviction group key.
        final_group = backend.groups.groups_of_subject(subject.subject_id)[0]
        assert objects[0].level3_variants[gid][0] == final_group.key


class TestBackendOutage:
    def test_push_defers_through_outage_window(self):
        subject, objects, backend = make_level_fleet(1, level=2)
        receiver = _receiver_for(objects[0], backend)
        message = UpdatePublisher(backend.root_key).revoke_subject(
            objects[0].object_id, "intruder"
        )
        schedule = FaultSchedule(
            (Fault(FaultKind.BACKEND_OUTAGE, start_s=0.0, stop_s=0.3),),
        )

        async def scenario():
            loop = asyncio.get_running_loop()
            epoch = loop.time()
            async with ObjectServiceDaemon(
                objects[0], update_receiver=receiver
            ) as daemon:
                async with UpdateStreamPusher(
                    retry=PUSH_RETRY, schedule=schedule,
                    now_fn=lambda: loop.time() - epoch,
                ) as pusher:
                    acked = await pusher.push(daemon.address, message)
                    elapsed = loop.time() - epoch
                return acked, elapsed, dict(pusher.stats), dict(daemon.stats)

        acked, elapsed, push_stats, stats = asyncio.run(scenario())
        assert acked
        # Nothing left the pusher while the plane was down.
        assert elapsed >= 0.25
        assert push_stats["pushes_deferred"] > 0
        assert stats["updates_applied"] == 1


class TestCrashAbort:
    def test_push_all_aborts_on_dark_daemon_then_recovers(self):
        subject, objects, backend = make_level_fleet(1, level=2)
        receiver = _receiver_for(objects[0], backend)
        publisher = UpdatePublisher(backend.root_key)
        messages = [
            publisher.revoke_subject(objects[0].object_id, f"intruder-{i}")
            for i in range(2)
        ]
        impatient = RetryPolicy(max_retries=1, base_timeout_s=0.05,
                                backoff=1.5, give_up_s=0.4)

        async def scenario():
            async with ObjectServiceDaemon(
                objects[0], update_receiver=receiver
            ) as daemon:
                daemon.crash()
                async with UpdateStreamPusher(retry=impatient) as pusher:
                    # Aborts at the FIRST failure: delivering past a gap
                    # would poison the stale-sequence re-ACK invariant.
                    dark = await pusher.push_all(daemon.address, messages)
                    daemon.restart()
                    recovered = await pusher.push_all(daemon.address, messages)
                    return dark, recovered, dict(pusher.stats), dict(daemon.stats)

        dark, recovered, push_stats, stats = asyncio.run(scenario())
        assert dark == 0
        assert push_stats["pushes_given_up"] == 1
        assert recovered == 2
        assert stats["updates_applied"] == 2


class TestCloseInFlight:
    def test_close_ends_a_pending_push_as_given_up(self):
        subject, objects, backend = make_level_fleet(1, level=2)
        message = UpdatePublisher(backend.root_key).revoke_subject(
            objects[0].object_id, "intruder"
        )

        async def scenario():
            async with ObjectServiceDaemon(objects[0]) as daemon:
                daemon.crash()  # never ACKs
                pusher = await UpdateStreamPusher(retry=PUSH_RETRY).start()
                push = asyncio.ensure_future(pusher.push(daemon.address, message))
                await asyncio.sleep(0.01)
                await pusher.close()
                acked = await asyncio.wait_for(push, 1.0)
                return acked, dict(pusher.stats)

        acked, push_stats = asyncio.run(scenario())
        assert acked is False
        assert push_stats["pushes_given_up"] == 1
