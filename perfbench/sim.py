"""sim-lossy: the discrete-event simulator under seeded burst loss.

One ``net.run.simulate_discovery`` per subject over the campus's
objects, with a 20% Gilbert-Elliott ``burst_loss_schedule``, the chaos matrix's
``RetryPolicy`` (``experiments.fault_recovery.RECOVERY``) and a round
budget large enough that every exchange completes.  Simulated time is
calibrated (op meters priced on the paper's devices), so every
completion time, give-up and
retransmission is a pure function of the seed: the run prints a digest
of them, and a subject simulated again later in the run must reproduce
its first digest exactly.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from repro.crypto import meter
from repro.net.faults import burst_loss_schedule
from repro.experiments.fault_recovery import RECOVERY
from repro.net.run import simulate_discovery
from repro.net.simulator import Simulator
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine

import campus as campus_mod
import live
import report
import spans
from campus import Expected

BURST_LOSS = 0.20
SUBJECTS = 64
SETUP_REPEATS = 3
#: Round budget in simulated time.  Under 20% burst loss the completion
#: times of a 24-object fleet have a long tail (the latest seen: 58 s
#: of simulated time, after 29 rounds; the chaos matrix's 12 rounds /
#: 30 s left about 0.5% of exchanges incomplete).  A budget far past
#: that tail costs no wall time unless it is used, and makes a missing
#: exchange a regression rather than bad luck.
MAX_ROUNDS = 150
DEADLINE_S = 300.0

OBJECT_ENTRY_POINTS = ("handle_que1", "handle_que2", "handle_rque", "tick")
SUBJECT_ENTRY_POINTS = (
    "start_round", "handle_res1_level1", "handle_res1", "handle_res2",
    "start_resumption", "handle_rres", "tick",
)


@dataclass
class SimBlock:
    wall_s: float
    completed: int
    object_s: float
    subject_s: float
    steal_share: float
    discoveries: int


def _side_timers() -> dict[str, float]:
    """Accumulate wall time inside each side's engine entry points (the
    two sides share this process, so this is how their CPU is split)."""
    spent = {"object": 0.0, "subject": 0.0}
    perf = time.perf_counter

    def timed(fn, side):
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[side] += perf() - t0

        return wrapper

    for cls, names, side in (
        (ObjectEngine, OBJECT_ENTRY_POINTS, "object"),
        (SubjectEngine, SUBJECT_ENTRY_POINTS, "subject"),
    ):
        for name in names:
            setattr(cls, name, timed(cls.__dict__[name], side))
    return spent


class SimLossy:
    name = "sim-lossy"

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.trace_dir = workdir / "traces"
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self):
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            campus = campus_mod.provision_campus(self.seed, self.workdir)
            objects = campus_mod.reload_objects(campus)
            times.append(time.perf_counter() - t0)
        return campus, [objects[o] for o in sorted(objects)], times

    def run(self) -> report.Outcome:
        campus, objects, setup_times = self.setup()
        floor_us = campus_mod.crypto_floor_us()
        subjects = self.rng.sample(campus.subjects(), SUBJECTS)
        campus_mod.ground_truth(campus, subjects, per_round=True)
        self.campus, self.objects, self.subjects = campus, objects, subjects
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        #: discovery index -> digest of its simulated timeline
        self.digests: dict[int, str] = {}
        self.position = 0
        if not self.trace:
            spent = _side_timers()
            window = self.window(self.seconds, spent=spent)
            self.replay_check()
            return self.e2e_outcome(window, setup_times, floor_us)
        untraced = self.window(self.seconds / 2)
        log = spans.SpanLog()
        meter.enable()
        spans.install_common(log)
        events = {"n": 0}
        run = Simulator.run

        def counted_run(sim, *args, **kwargs):
            try:
                return run(sim, *args, **kwargs)
            finally:
                events["n"] += getattr(sim, "_events_processed", 0)

        Simulator.run = counted_run
        spans.wrap(log, Simulator, "run", "net.sim")
        log.recording = True
        meter.reset()
        events["n"] = 0
        traced = self.window(self.seconds / 2, log)
        log.recording = False
        traced["meter"] = report.op_counts(meter.global_meter())
        traced["events"] = events["n"]
        traced["spans"] = log.snapshot()
        self.replay_check()
        log.write(self.trace_dir / f"{self.name}-generator.json", "generator")
        return self.trace_outcome(untraced, traced, floor_us)

    # -- one simulated discovery ----------------------------------------------------

    def simulate(self, index: int, log: spans.SpanLog | None):
        sid = self.subjects[index % len(self.subjects)]
        creds = self.campus.backend.issued_subjects[sid]
        run_seed = (self.seed << 16) + index
        if log is not None:
            log.request = index
        t0 = time.perf_counter()
        timeline = simulate_discovery(
            creds,
            self.objects,
            seed=run_seed,
            retry=RECOVERY,
            faults=burst_loss_schedule(BURST_LOSS, seed=run_seed),
            max_rounds=MAX_ROUNDS,
            deadline_s=DEADLINE_S,
        )
        elapsed = time.perf_counter() - t0
        if log is not None:
            index_span = log.open(log.intern("bench.check"))
        try:
            completed = self.check(index, sid, timeline)
        finally:
            if log is not None:
                log.close(index_span)
        return elapsed, completed, timeline

    def check(self, index: int, sid: str, timeline) -> int:
        truth = self.campus.round_truth[sid]
        seen = {
            s.object_id: Expected(s.level_seen, tuple(s.functions))
            for s in timeline.services
        }
        completed = 0
        for oid, expected in truth.items():
            if seen.get(oid) == expected and oid in timeline.completion:
                completed += 1
            else:
                self._fail(f"{sid}: {oid} seen {seen.get(oid)} expected {expected}")
        self.attempted += len(truth)
        digest = hashlib.sha256(repr((
            sid,
            sorted(timeline.completion.items()),
            timeline.exchanges_given_up,
            timeline.retransmissions,
            timeline.messages_lost,
        )).encode()).hexdigest()
        first = self.digests.setdefault(index, digest)
        if first != digest:
            self._fail(f"{sid}: simulated again with a different timeline")
        return completed

    def replay_check(self) -> None:
        """Simulate the first and last discovery of the first pass again
        (untimed): the same seed must give the same timeline."""
        for index in (0, len(self.subjects) - 1):
            self.simulate(index, None)

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def window(self, seconds: float, log: spans.SpanLog | None = None,
               spent: dict[str, float] | None = None) -> dict:
        """Simulate discoveries for *seconds*, and at least one per subject.

        The window is cut into blocks of ``seconds / BLOCKS`` (see
        ``live.BLOCKS``) recording wall time, stolen CPU and, when *spent*
        is given, each side's engine time.
        """
        spent = spent if spent is not None else {"object": 0.0, "subject": 0.0}
        cpus = os.sched_getaffinity(0)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        times, completed = [], 0
        retransmissions = lost = given_up = 0
        blocks: list[SimBlock] = []
        mark = (t0, 0, dict(spent), live.steal_s(cpus), 0)
        while (
            time.perf_counter() - t0 < seconds
            or self.position < len(self.subjects)
        ):
            elapsed, done, timeline = self.simulate(self.position, log)
            self.position += 1
            times.append(elapsed)
            completed += done
            retransmissions += timeline.retransmissions
            lost += timeline.messages_lost
            given_up += timeline.exchanges_given_up
            now = time.perf_counter()
            if now - t0 >= (len(blocks) + 1) * seconds / live.BLOCKS:
                stolen = live.steal_s(cpus)
                blocks.append(SimBlock(
                    wall_s=now - mark[0],
                    completed=completed - mark[1],
                    object_s=spent["object"] - mark[2]["object"],
                    subject_s=spent["subject"] - mark[2]["subject"],
                    steal_share=(stolen - mark[3]) / ((now - mark[0]) * len(cpus)),
                    discoveries=len(times) - mark[4],
                ))
                mark = (now, completed, dict(spent), stolen, len(times))
        return {
            "times": times,
            "completed": completed,
            "wall_s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - cpu0,
            "retransmissions": retransmissions,
            "lost": lost,
            "given_up": given_up,
            "blocks": blocks,
        }

    # -- outcomes -------------------------------------------------------------------

    def digest(self) -> str:
        """Digest of the first pass: one discovery per subject."""
        return hashlib.sha256(
            "".join(self.digests[i] for i in range(len(self.subjects))).encode()
        ).hexdigest()

    def _lines(self, window: dict) -> list[str]:
        lines = [
            f"simulated discoveries: {len(window['times'])} samples, "
            f"{window['completed']} exchanges in {window['wall_s']:.2f} s; "
            f"{window['retransmissions']} retransmissions, {window['given_up']} "
            f"given up, {window['lost']} frames lost",
            f"sim digest (seed {self.seed}, {len(self.subjects)} subjects, "
            f"{BURST_LOSS:.0%} burst loss): {self.digest()}",
            f"correctness: {self.attempted} exchanges checked, {self.failed} wrong",
        ]
        lines.extend(f"  wrong: {why}" for why in self.failures)
        lines.append(f"failed_ratio: {report.ratio(self.failed, self.attempted):.6f}")
        return lines

    def e2e_outcome(self, window, setup_times, floor_us) -> report.Outcome:
        """Latency percentiles over every simulated discovery (the p90
        needs them all); rate and per-side time over the quiet blocks,
        as in the live workloads."""
        times_ms = [t * 1000 for t in window["times"]]
        quiet = report.quiet_blocks(window["blocks"])
        n = sum(b.completed for b in quiet)
        m = {
            "setup_s": statistics.median(setup_times),
            "discovery_p50_ms": statistics.median(times_ms),
            "discovery_p90_ms": report.percentile(times_ms, 90),
            "exchanges_per_s": n / sum(b.wall_s for b in quiet),
            "object_cpu_us_per_exchange": sum(b.object_s for b in quiet) * 1e6 / n,
            "subject_cpu_us_per_exchange": sum(b.subject_s for b in quiet) * 1e6 / n,
            "object_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines = [
            f"set-up runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}",
            "blocks (stolen share / discoveries / exchanges per s): " + "; ".join(
                f"{b.steal_share:.1%}/{b.discoveries}/{b.completed / b.wall_s:.0f}"
                + ("*" if b in quiet else "")
                for b in window["blocks"]
            ),
        ]
        lines += self._lines(window)
        lines.append(f"crypto floor: {floor_us:.1f} us (3 ECDSA verifies + 1 ECDH derive)")
        return report.Outcome(self.failed == 0, self.attempted, self.failed, m, lines)

    def trace_outcome(self, untraced, traced, floor_us) -> report.Outcome:
        m = report.zero_layers()
        lines = self._lines(traced)
        n = traced["completed"]
        totals = traced["spans"]
        cpu = traced["cpu_s"]
        report.common_layers(m, [totals], n, cpu, floor_us)
        counts = traced["meter"]
        hits, misses = counts.get("ecdh_pool_hit", 0), counts.get("ecdh_pool_miss", 0)
        m["crypto.keypool.hit_ratio"] = report.ratio(hits, hits + misses)
        per = 1e6 / max(n, 1)
        m["protocol.object.self_us"] = report.self_seconds(totals, "protocol.object") * per
        m["protocol.subject.self_us"] = report.self_seconds(totals, "protocol.subject") * per
        frames = report.span_count(totals, "protocol.object")
        m["protocol.object.tick_us_per_frame"] = report.ratio(
            report.self_seconds(totals, "protocol.object.tick") * 1e6, frames)
        accept = counts.get("resumption_accept", 0)
        m["protocol.resumption.accept_ratio"] = report.ratio(
            accept, accept + counts.get("resumption_reject", 0))
        sim_s = totals.get("net.sim", (0, 0.0, 0.0))[1]
        engines = sum(
            totals.get(name, (0, 0.0, 0.0))[1]
            for name in ("protocol.object", "protocol.object.tick", "protocol.subject")
        )
        m["net.sim.events_per_exchange"] = traced["events"] / max(n, 1)
        m["net.sim.engine_share"] = report.ratio(engines, sim_s)
        m["net.retransmissions_per_exchange"] = traced["retransmissions"] / max(n, 1)
        m["net.frames_lost"] = traced["lost"]
        m["protocol.res2_retransmit.count"] = counts.get("res2_retransmit", 0)
        m["trace.overhead_ratio"] = report.ratio(
            statistics.median(traced["times"]), statistics.median(untraced["times"])
        )
        lines.append(f"overhead ratio {m['trace.overhead_ratio']:.3f}")
        report.reconcile(m, {"simulator": totals}, n, cpu, lines)
        return report.Outcome(self.failed == 0, self.attempted, self.failed, m, lines)
