"""The live service path — byte parity, chaos gates, latency baseline.

``python benchmarks/bench_service.py`` runs the loopback measurements
and writes ``BENCH_service.json``.  The committed gates (asserted by the
test functions here, seed-pinned and exact):

* every frame captured off the live socket path re-serializes
  byte-identically (``parse(raw).to_bytes() == raw``) and is exactly
  the size the sans-IO engines produce for the same credentials — the
  transport adds zero bytes, so §IX-A's accounting transfers verbatim;
* the captured exchange totals equal the paper's nominal numbers:
  228 B (Level 1), 2088 B (Level 2/3), 656 B (resumed);
* a small live chaos run (20% burst loss, pinned seed) still completes
  every discovery — the smoke version of the tier gates in
  ``tests/service/test_chaos_gates.py``.

Latency numbers (cold vs resumed handshake wall-clock, and the
simulator's modelled makespan for the same fleet) go only into the
baseline JSON — never asserted, they are machine-dependent.
"""

import asyncio
import json
import platform
import statistics
import time
from pathlib import Path

from repro.analysis.overhead import exchange_totals
from repro.experiments.common import make_level_fleet
from repro.net.faults import FaultLayer, burst_loss_schedule
from repro.net.run import RetryPolicy, simulate_discovery
from repro.protocol.messages import (
    parse_message,
    resumed_exchange_nominal,
)
from repro.service.chaos import SUBJECT_NODE, ServiceChaosHarness
from repro.service.client import SubjectServiceClient
from repro.service.daemon import ObjectServiceDaemon

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

BENCH_RETRY = RetryPolicy(base_timeout_s=0.06, give_up_s=1.5)
CHAOS_LOSS = 0.20
CHAOS_SEED = 0
#: The smoke run's seed, on a one-object fleet.  A lone link carries the
#: exchange serially (QUE1, RES1, QUE2, RES2), and this seed is the
#: smallest whose burst-loss draws on that link deliver the first two
#: frames and drop the third: the QUE2, which only the QUE2 retry can
#: recover (test_smoke_schedule_drops_the_que2).
SMOKE_CHAOS_SEED = 0


def _capture_live(level: int, *, resume: bool = False) -> dict:
    """One live loopback discovery; returns per-message frame captures.

    ``{"QUE1": [raw, ...], ...}`` — every frame the client actually put
    on (or took off) the wire, classified by parsed type.
    """
    subject, objects, _ = make_level_fleet(1, level=level)
    frames: dict[str, list[bytes]] = {}

    def tap(_direction, raw, _addr):
        name = type(parse_message(raw)).__name__
        frames.setdefault(name, []).append(raw)

    async def scenario():
        async with ObjectServiceDaemon(objects[0]) as daemon:
            client = SubjectServiceClient(
                subject, retry=BENCH_RETRY, phase1_timeout_s=0.5,
                on_frame=tap,
            )
            async with client:
                found = await client.discover(
                    [daemon.address], rounds=3, allow_resume=False
                )
                assert len(found) == 1
                if resume:
                    service = await client.resume(daemon.address)
                    assert service is not None

    asyncio.run(scenario())
    return frames


def _sans_io_lens(level: int) -> dict:
    """The same exchange driven engine-to-engine, sizes only."""
    from repro.protocol.subject import SubjectEngine
    from repro.protocol.versions import Version

    subject, objects, _ = make_level_fleet(1, level=level)
    daemon = ObjectServiceDaemon(objects[0], clock=lambda: 0.0)
    engine = SubjectEngine(subject, Version.V3_0)
    que1_raw = engine.start_round().to_bytes()
    res1_raw = daemon.dispatch(que1_raw, "bench")
    lens = {"Que1": len(que1_raw)}
    res1 = parse_message(res1_raw)
    lens[type(res1).__name__] = len(res1_raw)
    if level == 1:
        return lens
    que2_raw = engine.handle_res1(res1, "o").to_bytes()
    res2_raw = daemon.dispatch(que2_raw, "bench")
    service = engine.handle_res2(parse_message(res2_raw), "o")
    lens["Que2"] = len(que2_raw)
    lens["Res2"] = len(res2_raw)
    rque_raw = engine.start_resumption(service.object_id).to_bytes()
    rres_raw = daemon.dispatch(rque_raw, "bench")
    lens["Rque"] = len(rque_raw)
    lens["Rres"] = len(rres_raw)
    return lens


# -- gates (run under pytest; exact assertions) --------------------------------


def test_live_frames_roundtrip_byte_identical():
    frames = _capture_live(2, resume=True)
    for name, raws in frames.items():
        for raw in raws:
            assert parse_message(raw).to_bytes() == raw, name


def test_live_lens_match_sans_io():
    """The socket path adds zero bytes over the sans-IO engines."""
    live = {
        name: {len(raw) for raw in raws}
        for name, raws in _capture_live(2, resume=True).items()
    }
    sans_io = _sans_io_lens(2)
    for name, size in sans_io.items():
        assert live[name] == {size}, (name, live[name], size)


def test_live_totals_match_section_ix_a():
    """§IX-A parity, both halves of it.

    The *accounting* half: the nominal totals derive to exactly the
    paper's numbers (228/2088/656 B) — that is §IX-A reproduced.  The
    *transport* half: the live frame totals equal the sans-IO encodings
    byte for byte, so the simulator's accounting transfers to the
    socket path with zero transport-added delta.  (Our concrete
    encodings differ from the paper's per-field budgets in both
    directions — compact certs, richer tickets — so live == nominal is
    not the invariant; live == engine-output is.)
    """
    totals = exchange_totals()
    assert totals == {"level1": 228, "level23": 2088}
    assert resumed_exchange_nominal() == 656

    level1 = _capture_live(1)
    lens1 = _sans_io_lens(1)
    live1 = sum(len(r) for rs in level1.values() for r in rs)
    assert live1 == sum(lens1.values())

    level2 = _capture_live(2, resume=True)
    lens2 = _sans_io_lens(2)
    full = sum(
        len(level2[name][0]) for name in ("Que1", "Res1", "Que2", "Res2")
    )
    resumed = len(level2["Rque"][0]) + len(level2["Rres"][0])
    assert full == sum(
        lens2[n] for n in ("Que1", "Res1", "Que2", "Res2")
    )
    assert resumed == lens2["Rque"] + lens2["Rres"]


def test_smoke_schedule_drops_the_que2():
    """The smoke seed's schedule, replayed over one serial exchange."""
    layer = FaultLayer(
        burst_loss_schedule(CHAOS_LOSS, seed=SMOKE_CHAOS_SEED),
        seed=SMOKE_CHAOS_SEED,
    )
    # The link's own names: each link draws from its own stream.
    node = make_level_fleet(1, level=2)[1][0].object_id
    hops = [(SUBJECT_NODE, node), (node, SUBJECT_NODE), (SUBJECT_NODE, node)]
    dropped = [layer.frame_fate(src, dst, 0.0).dropped for src, dst in hops]
    assert dropped == [False, False, True]  # QUE1, RES1 delivered; QUE2 lost


def test_live_chaos_gate(request):
    """≥99% live completion under 20% burst loss; --smoke shrinks it."""
    if request.config.getoption("--smoke"):
        result = chaos_gate(fleet=1, seeds=(SMOKE_CHAOS_SEED,))
    else:
        result = chaos_gate()
    assert result["completion_ratio"] >= 0.99, result
    assert result["frames_dropped"] > 0, result
    assert result["retransmissions"] > 0, result


# -- measurements for the baseline ---------------------------------------------


def chaos_gate(fleet: int = 3, seeds=(0, 1, 2)) -> dict:
    """Live burst-loss completion, pinned seeds; exact and replayable."""
    subject, objects, _ = make_level_fleet(fleet, level=2)
    completed = total = retransmissions = frames_dropped = 0
    for seed in seeds:
        async def run(seed=seed):
            schedule = burst_loss_schedule(CHAOS_LOSS, seed=seed)
            async with ServiceChaosHarness(schedule, seed=seed) as harness:
                for creds in objects:
                    await harness.add_object(creds)
                await harness.start()
                client = SubjectServiceClient(
                    subject, retry=BENCH_RETRY, seed=seed,
                    phase1_timeout_s=0.3,
                )
                async with client:
                    found = await client.discover(
                        harness.endpoints(), rounds=12, allow_resume=False
                    )
                dropped = sum(
                    proxy.counters["frames_dropped"]
                    for proxy in harness.proxies.values()
                )
                return len(found), client.stats.retransmissions, dropped

        found, retx, dropped = asyncio.run(run())
        completed += found
        total += fleet
        retransmissions += retx
        frames_dropped += dropped
    return {
        "burst_loss": CHAOS_LOSS,
        "fleet": fleet,
        "seeds": list(seeds),
        "completed": completed,
        "total": total,
        "completion_ratio": completed / total,
        "retransmissions": retransmissions,
        "frames_dropped": frames_dropped,
    }


def live_latency(samples: int = 20) -> dict:
    """Cold vs resumed handshake wall-clock over loopback (medians)."""
    subject, objects, _ = make_level_fleet(1, level=2)

    async def scenario():
        cold, resumed = [], []
        loop = asyncio.get_running_loop()
        async with ObjectServiceDaemon(objects[0]) as daemon:
            for _ in range(samples):
                client = SubjectServiceClient(
                    subject, retry=BENCH_RETRY, phase1_timeout_s=0.5
                )
                async with client:
                    t0 = loop.time()
                    found = await client.discover(
                        [daemon.address], rounds=3, allow_resume=False
                    )
                    cold.append(loop.time() - t0)
                    assert len(found) == 1
                    t0 = loop.time()
                    service = await client.resume(daemon.address)
                    resumed.append(loop.time() - t0)
                    assert service is not None
        return cold, resumed

    cold, resumed = asyncio.run(scenario())
    return {
        "samples": samples,
        "cold_median_ms": round(statistics.median(cold) * 1000, 3),
        "resumed_median_ms": round(statistics.median(resumed) * 1000, 3),
        "cold_max_ms": round(max(cold) * 1000, 3),
        "resumed_max_ms": round(max(resumed) * 1000, 3),
    }


def simulated_latency() -> dict:
    """The simulator's modelled makespan for the same 1-object fleet."""
    subject, objects, _ = make_level_fleet(1, level=2)
    timeline = simulate_discovery(subject, objects, seed=CHAOS_SEED)
    return {"modelled_makespan_s": round(timeline.total_time, 6)}


def byte_parity() -> dict:
    level2 = _capture_live(2, resume=True)
    lens1, lens2 = _sans_io_lens(1), _sans_io_lens(2)
    live = {
        "level1": sum(
            len(r) for rs in _capture_live(1).values() for r in rs
        ),
        "level23": sum(
            len(level2[n][0]) for n in ("Que1", "Res1", "Que2", "Res2")
        ),
        "resumed": len(level2["Rque"][0]) + len(level2["Rres"][0]),
    }
    sans_io = {
        "level1": sum(lens1.values()),
        "level23": sum(lens2[n] for n in ("Que1", "Res1", "Que2", "Res2")),
        "resumed": lens2["Rque"] + lens2["Rres"],
    }
    return {
        # §IX-A as derived from the field budgets: the paper's numbers.
        "nominal": {**exchange_totals(), "resumed": resumed_exchange_nominal()},
        # What actually crossed the loopback socket, and what the
        # engines emitted: equal, so the transport adds zero bytes.
        "live": live,
        "sans_io": sans_io,
        "transport_delta": {
            key: live[key] - sans_io[key] for key in live
        },
        "per_message_live": {
            name: len(raws[0]) for name, raws in sorted(level2.items())
        },
    }


def write_baseline(path: Path = BASELINE_PATH, samples: int = 20) -> dict:
    baseline = {
        "generated_by": "benchmarks/bench_service.py",
        "generated_on": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "byte_parity": byte_parity(),
        "chaos_gate": chaos_gate(),
        "latency": {
            "live_loopback": live_latency(samples),
            "simulated": simulated_latency(),
        },
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


if __name__ == "__main__":
    print(json.dumps(write_baseline(), indent=2))
