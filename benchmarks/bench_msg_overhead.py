"""§IX-A — message overhead: byte accounting + serialization throughput."""

import pytest

from repro.analysis.overhead import exchange_totals
from repro.experiments.msg_overhead import capture_exchange
from repro.protocol.messages import parse_message


def test_bench_nominal_accounting(benchmark):
    totals = benchmark(exchange_totals)
    assert totals == {"level1": 228, "level23": 2088}
    benchmark.extra_info["paper"] = {"level1": 228, "level23": 2088}


def test_bench_full_exchange_capture(benchmark):
    """The full 4-way handshake, wall time, plus actual wire sizes."""
    capture = benchmark(capture_exchange)
    benchmark.extra_info["actual_bytes"] = {
        "QUE1": len(capture.que1.to_bytes()),
        "RES1": len(capture.res1.to_bytes()),
        "QUE2": len(capture.que2.to_bytes()),
        "RES2": len(capture.res2.to_bytes()),
    }


def test_bench_message_parse(benchmark):
    """Wire-format parse throughput (objects parse every QUE2 they get)."""
    que2 = capture_exchange().que2
    raw = que2.to_bytes()
    parsed = benchmark(parse_message, raw)
    assert parsed == que2
