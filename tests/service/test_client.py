"""SubjectServiceClient against live daemons: cold and warm paths."""

import asyncio
from contextlib import AsyncExitStack

from repro.protocol.subject import SubjectEngine
from repro.protocol.versions import Version
from repro.service.client import SubjectServiceClient
from repro.service.daemon import ObjectServiceDaemon

from .conftest import FAST_PHASE1_S, FAST_RETRY


async def _fleet_daemons(stack: AsyncExitStack, objects, **kwargs):
    daemons = [
        await stack.enter_async_context(ObjectServiceDaemon(o, **kwargs))
        for o in objects
    ]
    return daemons, [d.address for d in daemons]


def make_client(creds, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("phase1_timeout_s", FAST_PHASE1_S)
    return SubjectServiceClient(creds, **kwargs)


class TestColdDiscovery:
    def test_level2_full_handshakes(self, level2_fleet):
        subject, objects, _ = level2_fleet

        async def scenario():
            async with AsyncExitStack() as stack:
                _, endpoints = await _fleet_daemons(stack, objects)
                async with make_client(subject) as client:
                    found = await client.discover(
                        endpoints, rounds=3, allow_resume=False
                    )
            assert len(found) == len(objects)
            for addr, service in found.items():
                # The staff variant of the Level 2 profile.
                assert service.functions == ("play", "cast")
                assert client.object_at[addr] == service.object_id
            assert {s.object_id for s in found.values()} == {
                o.object_id for o in objects
            }
            assert client.stats.exchanges_given_up == 0
            return client

        client = asyncio.run(scenario())
        assert client.stats.rounds >= 1

    def test_level1_short_form(self, level1_fleet):
        subject, objects, _ = level1_fleet

        async def scenario():
            async with AsyncExitStack() as stack:
                _, endpoints = await _fleet_daemons(stack, objects)
                async with make_client(subject) as client:
                    found = await client.discover(
                        endpoints, rounds=3, allow_resume=False
                    )
            assert len(found) == len(objects)
            for service in found.values():
                assert service.functions == ("read_temperature",)
                assert service.level_seen == 1

        asyncio.run(scenario())


class TestWarmResumption:
    def test_second_discover_resumes_every_endpoint(self, level2_fleet):
        subject, objects, _ = level2_fleet

        async def scenario():
            async with AsyncExitStack() as stack:
                _, endpoints = await _fleet_daemons(stack, objects)
                async with make_client(subject) as client:
                    cold = await client.discover(endpoints, rounds=3)
                    assert len(cold) == len(objects)
                    rounds_after_cold = client.stats.rounds
                    warm = await client.discover(endpoints, rounds=3)
            assert len(warm) == len(objects)
            # Every endpoint settled on the 2-message warm path: no new
            # full-handshake rounds were needed.
            assert client.stats.resumptions == len(objects)
            assert client.stats.resumption_fallbacks == 0
            assert client.stats.rounds == rounds_after_cold
            for addr in warm:
                assert warm[addr].object_id == cold[addr].object_id

        asyncio.run(scenario())


class TestRetrySemantics:
    def test_give_up_counted_once_per_exchange_live(self, level2_fleet):
        subject, objects, _ = level2_fleet

        async def scenario():
            # One token, never refilled: the daemon answers QUE1 and
            # then sheds every QUE2 (original and retransmissions).
            async with ObjectServiceDaemon(
                objects[0], peer_burst_limit=1, peer_refill_per_s=0.0
            ) as daemon:
                async with make_client(subject) as client:
                    found = await client.discover(
                        [daemon.address], rounds=1, allow_resume=False
                    )
            assert found == {}
            # Every retry fired, but the *exchange* is one give-up.
            assert client.stats.retransmissions == FAST_RETRY.max_retries
            assert client.stats.exchanges_given_up == 1
            assert daemon.stats["frames_shed"] >= 1

        asyncio.run(scenario())

    def test_duplicate_res2_answers_retransmission(self, level2_fleet):
        subject, objects, _ = level2_fleet

        async def scenario():
            async with ObjectServiceDaemon(objects[0]) as daemon:
                engine = SubjectEngine(subject, Version.V3_0)
                peer = "c"
                res1_raw = daemon.dispatch(
                    engine.start_round().to_bytes(), peer
                )
                from repro.protocol.messages import parse_message

                que2 = engine.handle_res1(parse_message(res1_raw), "o")
                first = daemon.dispatch(que2.to_bytes(), peer)
                again = daemon.dispatch(que2.to_bytes(), peer)
                assert first is not None
                assert first == again  # byte-identical cached RES2

        asyncio.run(scenario())


class TestClose:
    def test_close_ends_an_open_round(self, level2_fleet):
        subject, objects, _ = level2_fleet

        async def scenario():
            async with ObjectServiceDaemon(objects[0]) as daemon:
                daemon.crash()  # silent: the round waits out phase 1
                client = await make_client(subject, phase1_timeout_s=30.0).start()
                discovery = asyncio.ensure_future(
                    client.discover([daemon.address], rounds=1, allow_resume=False)
                )
                await asyncio.sleep(0.01)
                await client.close()
                return await asyncio.wait_for(discovery, 1.0), client.stats

        found, stats = asyncio.run(scenario())
        assert found == {}
        assert stats.exchanges_given_up == 0  # a phase-1 wait is no give-up
