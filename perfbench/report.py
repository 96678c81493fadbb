"""Turn measured windows into the metrics ``BENCHMARK.json`` names.

End-to-end metrics come from an untraced window.  Per-layer metrics come
from a traced window and are per completed exchange unless the name
says otherwise; layer times are *self* times, so they add up.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import spans

#: Trace reconciliation tolerance: per-layer self times plus
#: ``trace.unattributed_us`` must cover the measured CPU per exchange to
#: within this share, or the run says the trace does not reconcile.
RECONCILE_TOLERANCE = 0.10

END_TO_END_UNITS = {
    "setup_s": "s",
    "discovery_p50_ms": "ms",
    "discovery_p90_ms": "ms",
    "exchanges_per_s": "1/s",
    "object_cpu_us_per_exchange": "us",
    "subject_cpu_us_per_exchange": "us",
    "object_peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "crypto.ecdsa_verify.calls": "count",
    "crypto.ecdsa_verify.us": "us",
    "crypto.ecdsa_sign.us": "us",
    "crypto.ecdh.us": "us",
    "crypto.keypool.hit_ratio": "ratio",
    "crypto.hmac.calls": "count",
    "crypto.hmac.us": "us",
    "crypto.aead.us": "us",
    "crypto.floor_us": "us",
    "crypto.floor_ratio": "ratio",
    "pki.chain_verify.us": "us",
    "pki.chain_cache.hit_ratio": "ratio",
    "pki.profile_verify.us": "us",
    "pki.profile_cache.object_hit_ratio": "ratio",
    "pki.profile_cache.subject_hit_ratio": "ratio",
    "attributes.predicate_eval.us": "us",
    "protocol.codec.us": "us",
    "protocol.object.self_us": "us",
    "protocol.subject.self_us": "us",
    "protocol.object.tick_us_per_frame": "us",
    "protocol.resumption.accept_ratio": "ratio",
    "service.object_share": "ratio",
    "service.subject_share": "ratio",
    "service.dispatch_share": "ratio",
    "service.frames_per_exchange": "count",
    "service.bytes_per_exchange": "B",
    "service.retransmissions": "count",
    "service.exchanges_given_up": "count",
    "service.frames_shed": "count",
    "service.wire_errors": "count",
    "backend.churn_share": "ratio",
    "backend.update_apply_share": "ratio",
    "backend.update_messages_per_op": "count",
    "backend.update_bytes_per_op": "B",
    "backend.lkh.keys_derived_per_op": "count",
    "net.sim.events_per_exchange": "count",
    "net.sim.engine_share": "ratio",
    "net.retransmissions_per_exchange": "count",
    "net.frames_lost": "count",
    "protocol.res2_retransmit.count": "count",
    "trace.unattributed_us": "us",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    lines: list[str] = field(default_factory=list)

    def result(self, trace: bool) -> dict:
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }


def op_counts(tally) -> dict[str, int]:
    """An OpMeter's counts summed over strengths ({} without a meter)."""
    out: dict[str, int] = {}
    if tally is not None:
        for (op, _strength), n in tally.counts.items():
            out[op] = out.get(op, 0) + n
    return out


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_seconds(totals: dict, name: str) -> float:
    return totals.get(name, (0, 0.0, 0.0))[2]


def span_count(totals: dict, name: str) -> int:
    return totals.get(name, (0, 0.0, 0.0))[0]


def _layer(totals: dict, layer: str) -> float:
    return sum(agg[2] for name, agg in totals.items() if spans.layer_of(name) == layer)


def zero_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_UNITS}


def common_layers(m: dict, sides: list[dict], n: int, cpu_s: float, floor_us: float) -> None:
    """Crypto, pki, attributes and codec metrics over the span totals of
    every process (*sides*); *n* completed exchanges, *cpu_s* their CPU."""
    per = 1e6 / n if n else 0.0

    def both(name):
        return sum(self_seconds(t, name) for t in sides)

    m["crypto.ecdsa_verify.calls"] = sum(span_count(t, "crypto.ecdsa_verify") for t in sides) / max(n, 1)
    m["crypto.ecdsa_verify.us"] = both("crypto.ecdsa_verify") * per
    m["crypto.ecdsa_sign.us"] = both("crypto.ecdsa_sign") * per
    m["crypto.ecdh.us"] = (both("crypto.ecdh_gen") + both("crypto.ecdh_derive")) * per
    m["crypto.hmac.calls"] = sum(span_count(t, "crypto.hmac") for t in sides) / max(n, 1)
    m["crypto.hmac.us"] = both("crypto.hmac") * per
    m["crypto.aead.us"] = both("crypto.aead") * per
    m["crypto.floor_us"] = floor_us
    public_key = (
        both("crypto.ecdsa_verify") + both("crypto.ecdsa_sign")
        + both("crypto.ecdh_gen") + both("crypto.ecdh_derive")
    )
    m["crypto.floor_ratio"] = ratio(public_key, cpu_s)
    m["pki.chain_verify.us"] = both("pki.chain_verify") * per
    m["pki.profile_verify.us"] = both("pki.profile_verify") * per
    m["attributes.predicate_eval.us"] = both("attributes.predicate_eval") * per
    m["protocol.codec.us"] = both("protocol.codec") * per


def reconcile(m: dict, sides: dict[str, dict], n: int, cpu_s: float, lines: list[str]) -> None:
    """Layer self times of every process (*sides*: process -> span
    totals) against the measured CPU; prints the verdict."""
    attributed = sum(sum(spans.layer_self_seconds(t).values()) for t in sides.values())
    unattributed = cpu_s - attributed
    m["trace.unattributed_us"] = unattributed * 1e6 / max(n, 1)
    ok = abs(unattributed) <= RECONCILE_TOLERANCE * cpu_s
    lines.append(
        f"trace: measured CPU {cpu_s * 1e6 / max(n, 1):.1f} us/exchange, "
        f"layers {attributed * 1e6 / max(n, 1):.1f}, unattributed "
        f"{m['trace.unattributed_us']:.1f} ({ratio(unattributed, cpu_s):+.1%}); "
        f"tolerance {RECONCILE_TOLERANCE:.0%}: "
        + ("reconciles" if ok else "DOES NOT reconcile")
    )
    for process, totals in sides.items():
        layers = spans.layer_self_seconds(totals)
        lines.append(
            f"  {process} layers (us/exchange): "
            + ", ".join(f"{k} {v * 1e6 / max(n, 1):.1f}" for k, v in layers.items() if v)
        )


#: A block is quiet when the hypervisor stole at most this share of the
#: benchmark's cores during it.
QUIET_STEAL = 0.05


def quiet_blocks(blocks: list) -> list:
    """The blocks with at most QUIET_STEAL stolen; if fewer than half are,
    the least-stolen half (ties to the earlier block).  Window order."""
    quiet = [b for b in blocks if b.steal_share <= QUIET_STEAL]
    if len(quiet) >= len(blocks) / 2:
        return quiet
    ranked = sorted(range(len(blocks)), key=lambda i: (blocks[i].steal_share, i))
    return [blocks[i] for i in sorted(ranked[: max(1, len(blocks) // 2)])]


# -- live workloads ----------------------------------------------------------------


def _e2e_live(workload, window, setup_times) -> tuple[dict, list[str]]:
    blocks = [b for b in window.blocks if b.completed]
    quiet = quiet_blocks(blocks)
    times = [(d.end - d.start) * 1000 for b in quiet for d in b.discoveries]
    n = sum(b.completed for b in quiet)
    m = {
        "setup_s": statistics.median(setup_times),
        # The host switches between a fast and a slow speed every few
        # seconds; the median of all samples jumps between the two as the
        # fast share crosses one half, the blocks' medians weighted by
        # their discoveries follow the share smoothly.
        "discovery_p50_ms": sum(
            statistics.median((d.end - d.start) * 1000 for d in b.discoveries)
            * len(b.discoveries)
            for b in quiet
        ) / len(times),
        "discovery_p90_ms": percentile(times, 90),
        "exchanges_per_s": n / sum(b.wall_s for b in quiet),
        "object_cpu_us_per_exchange": sum(b.fleet_cpu_s for b in quiet) * 1e6 / n,
        "subject_cpu_us_per_exchange": sum(b.gen_cpu_s for b in quiet) * 1e6 / n,
        "object_peak_rss_mb": window.fleet["rss_mb"],
    }
    lines = [
        f"set-up runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}",
        f"discoveries: {len(window.discoveries)} in {window.wall_s:.2f} s; figures pool "
        f"the {len(quiet)} of {len(blocks)} blocks marked *, the quiet ones: "
        f"{len(times)} samples, {n} exchanges",
        "blocks (stolen share / discoveries / exchanges per s): " + "; ".join(
            f"{b.steal_share:.1%}/{len(b.discoveries)}/{b.completed / b.wall_s:.0f}"
            + ("*" if b in quiet else "")
            for b in blocks
        ),
        f"daemon host: {window.fleet['buckets']} per-peer buckets, "
        f"stats {window.fleet['stats']}",
        f"clients: {window.clients}",
    ]
    return m, lines


def window_ops(workload, window) -> list:
    """Churn ops due inside *window* (none outside churn-under-load)."""
    return [op for op in workload.load.rekeys if op.due >= window.start and op.acked]


def _churn_lines(workload, window, m, lines) -> None:
    ops = window_ops(workload, window)
    if not ops:
        return
    rekey = [(op.acked - op.due) * 1000 for op in ops]
    late = [(op.executed - op.due) * 1000 for op in ops]
    lines.append(
        f"churn: {len(ops)} ops ({sum(op.group is not None for op in ops)} group departures); "
        f"rekey_p50_ms {statistics.median(rekey):.2f}, rekey_p90_ms "
        f"{percentile(rekey, 90):.2f} ({len(rekey)} samples); writer lateness "
        f"p50 {statistics.median(late):.2f} ms, max {max(late):.2f} ms"
    )


def exchange_sizes(sizes: dict) -> str:
    """The sans-IO byte totals of each kind of exchange on this campus
    (the live frames were checked against these, frame by frame)."""

    def kinds(name):
        return sorted({v for (n, _), v in sizes.items() if n == name})

    que1, rque = sizes[("Que1", "")], sizes.get(("Rque", ""), 0)
    que2 = kinds("Que2") or [0]
    full = sorted({que1 + r1 + q2 + r2 for r1 in kinds("Res1") for q2 in que2 for r2 in kinds("Res2")})
    return (
        f"sans-IO exchange bytes: Level 1 {'/'.join(str(que1 + r) for r in kinds('Res1Level1'))}, "
        f"Level 2/3 {min(full)}-{max(full)}, resumed "
        f"{'/'.join(str(rque + r) for r in kinds('Rres'))}"
    )


def _finish(workload, load, m, lines) -> Outcome:
    bad_frames = load.check_frames()
    lines.append(exchange_sizes(load.campus.sizes))
    failed = load.failed
    lines.append(
        f"correctness: {load.attempted} exchanges checked, {load.failed} wrong, "
        f"{bad_frames} frames off their sans-IO length; rekey-overlap Level 2 "
        f"faces accepted: {load.overlap_accepted} (+{load.overlap_resumed} resumed)"
    )
    lines.extend(f"  wrong: {why}" for why in load.failures)
    failed += bad_frames
    lines.append(f"failed_ratio: {ratio(failed, load.attempted):.6f}")
    return Outcome(failed == 0, load.attempted, failed, m, lines)


def live_outcome(workload, load, window, setup_times, floor_us) -> Outcome:
    m, lines = _e2e_live(workload, window, setup_times)
    lines.append(f"crypto floor: {floor_us:.1f} us (3 ECDSA verifies + 1 ECDH derive)")
    _churn_lines(workload, window, m, lines)
    return _finish(workload, load, m, lines)


def live_trace_outcome(workload, load, untraced, traced, setup_times, floor_us) -> Outcome:
    m = zero_layers()
    lines: list[str] = []
    n = traced.completed
    fleet = traced.fleet
    gen, obj = traced.gen_spans, fleet["spans"]
    cpu = traced.gen_cpu_s + fleet["cpu_s"]
    common_layers(m, [gen, obj], n, cpu, floor_us)
    hits = traced.gen_pool[0] + fleet["pool_hits"]
    misses = traced.gen_pool[1] + fleet["pool_misses"]
    m["crypto.keypool.hit_ratio"] = ratio(hits, hits + misses)
    chain = fleet["chain"]
    m["pki.chain_cache.hit_ratio"] = ratio(chain.get("hits", 0), chain.get("hits", 0) + chain.get("misses", 0))
    m["pki.profile_cache.object_hit_ratio"] = ratio(
        fleet["meter"].get("profile_verify_cached", 0), span_count(obj, "pki.profile_verify"))
    m["pki.profile_cache.subject_hit_ratio"] = ratio(
        traced.gen_meter.get("profile_verify_cached", 0), span_count(gen, "pki.profile_verify"))
    per = 1e6 / max(n, 1)
    m["protocol.object.self_us"] = self_seconds(obj, "protocol.object") * per
    m["protocol.subject.self_us"] = self_seconds(gen, "protocol.subject") * per
    stats = fleet["stats"]
    m["protocol.object.tick_us_per_frame"] = ratio(
        self_seconds(obj, "protocol.object.tick") * 1e6, stats.get("frames_in", 0))
    accept = fleet["meter"].get("resumption_accept", 0)
    reject = fleet["meter"].get("resumption_reject", 0)
    m["protocol.resumption.accept_ratio"] = ratio(accept, accept + reject)
    m["service.object_share"] = ratio(_layer(obj, "service"), fleet["cpu_s"])
    m["service.subject_share"] = ratio(_layer(gen, "service"), traced.gen_cpu_s)
    m["service.dispatch_share"] = ratio(self_seconds(obj, "service.dispatch"), fleet["cpu_s"])
    m["service.frames_per_exchange"] = len(traced.frames) / max(n, 1)
    m["service.bytes_per_exchange"] = sum(f[3] for f in traced.frames) / max(n, 1)
    clients = traced.clients
    m["service.retransmissions"] = clients.get("retransmissions", 0)
    m["service.exchanges_given_up"] = clients.get("exchanges_given_up", 0)
    m["service.frames_shed"] = stats.get("frames_shed", 0)
    m["service.wire_errors"] = stats.get("wire_errors", 0) + clients.get("wire_errors", 0)
    m["backend.churn_share"] = ratio(_layer(gen, "backend"), traced.gen_cpu_s)
    m["backend.update_apply_share"] = ratio(_layer(obj, "backend"), fleet["cpu_s"])
    ops = window_ops(workload, traced)
    if ops:
        m["backend.update_messages_per_op"] = statistics.mean(op.messages for op in ops)
        m["backend.update_bytes_per_op"] = statistics.mean(op.bytes for op in ops)
        m["backend.lkh.keys_derived_per_op"] = statistics.mean(op.keys_derived for op in ops)
        lines.append(
            f"backend per op: churn_op.us {self_seconds(gen, 'backend.churn_op') * 1e6 / len(ops):.1f}, "
            f"update_apply.us {self_seconds(obj, 'backend.update_apply') * 1e6 / len(ops):.1f}, "
            f"update_push.us_per_op {statistics.mean(op.push_s for op in ops) * 1e6:.1f}"
        )
        _churn_lines(workload, traced, m, lines)
    m["protocol.res2_retransmit.count"] = fleet["meter"].get("res2_retransmit", 0)

    def median_wall(window):
        # The median discovery: unmoved by the traced window's first
        # contacts and by churn's timer-bound stalls.
        return statistics.median(d.end - d.start for d in window.discoveries)

    m["trace.overhead_ratio"] = ratio(median_wall(traced), median_wall(untraced))
    lines.append(
        f"traced window: {len(traced.discoveries)} discoveries, {n} exchanges; "
        f"dispatch {ratio(self_seconds(obj, 'service.dispatch') * 1e6, stats.get('frames_in', 0)):.1f} us/frame; "
        f"overhead ratio {m['trace.overhead_ratio']:.3f}"
    )
    reconcile(m, {"generator": gen, "daemon host": obj}, n, cpu, lines)
    return _finish(workload, load, m, lines)
