"""Argus benchmark: one command per workload.

    python3 perfbench/run.py --workload cold-campus --seed 1 --seconds 10 --trace 0

Run from the repository root.  It builds nothing: it imports ``repro``
from ``src/``.  Human-readable lines go to stdout first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

WORKLOAD_NAMES = ("cold-campus", "warm-return", "churn-under-load", "sim-lossy")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import live
    import report
    import sim

    # Both processes share one core: the daemon host inherits this
    # affinity.  On a shared host, every frame that crossed between two
    # cores waited for the other virtual CPU to be woken: wall-clock
    # figures then swung by 50-80% between runs of the same code, against
    # 6-8% with one core.  With one discovery in flight the two sides
    # mostly take turns anyway.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workloads = {**live.WORKLOADS, sim.SimLossy.name: sim.SimLossy}
    out_dir = Path(".perfbench")
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        workload = workloads[args.workload](
            args.seed, args.seconds, bool(args.trace), Path(scratch)
        )
        workload.trace_dir = out_dir / "traces"
        outcome = workload.run()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in outcome.lines:
        print(line)
    units = report.PER_LAYER_UNITS if args.trace else report.END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name} = {outcome.metrics[name]:.6g} {unit}")
    print(json.dumps(outcome.result(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
