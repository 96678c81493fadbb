#!/usr/bin/env python3
"""Profile a discovery round: where does the time actually go?

Per the optimize-last discipline: measure before touching anything.
Run:  python benchmarks/profile_discovery.py [--objects N] [--level L]

Findings on the reference run (20 Level 2 objects, 5 rounds):
>80 % of wall time sits inside OpenSSL (`ECPublicKey.verify`,
`ECPrivateKey.exchange`, signing) — i.e. in the cryptography the
protocol *requires* — and the verify count is exactly 6 per handshake
(3 per side), matching §IX-B's op accounting. Python-side overhead
(serialization, predicate evaluation, transcript handling) is noise, so
there is nothing worth optimizing above the primitives.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats

from repro.experiments.common import make_level_fleet
from repro.protocol.discovery import run_round
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine


def profile_discovery(n_objects: int = 20, level: int = 2, rounds: int = 5) -> str:
    subject_creds, object_creds, _ = make_level_fleet(n_objects, level)
    subject = SubjectEngine(subject_creds)
    objects = {c.object_id: ObjectEngine(c) for c in object_creds}
    run_round(subject, objects)  # warm-up: chain caches

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(rounds):
        run_round(subject, objects)
    profiler.disable()

    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(20)
    return stream.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/profile_discovery.py",
        description="cProfile the discovery hot path.",
    )
    parser.add_argument(
        "--objects", type=int, default=20, metavar="N",
        help="fleet size: objects per round",
    )
    parser.add_argument(
        "--level", type=int, default=2, choices=(1, 2, 3),
        help="object visibility level",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="profiled discovery rounds",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    print(profile_discovery(args.objects, args.level, args.rounds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
