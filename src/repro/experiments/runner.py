"""Run every experiment and emit the full paper-vs-measured report.

``python -m repro.experiments.runner`` regenerates all of §IX; the same
entry point produces the body of EXPERIMENTS.md.

The ~20 experiments are independent of one another (each builds its own
backend and fleet), so ``--jobs N`` fans them out across a process pool.
Section *ordering* is deterministic regardless of completion order — the
report is assembled in request order — so parallel output is identical
to sequential output for deterministic experiments. Per-experiment
wall-clock timings are printed to **stderr** (the report on stdout stays
comparable across modes). ``--sequential`` is the escape hatch that
forces in-process, one-at-a-time execution no matter what ``--jobs``
says; ``--list`` prints the available experiment names.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from types import MappingProxyType

from repro.experiments import (
    capacity,
    concurrent_subjects,
    fault_recovery,
    mixed_fleet,
    multi_group,
    radio_comparison,
    resumption,
    security_report,
    timing_attack,
    scalability_sweep,
    version_overhead,
    fig6a,
    fig6b,
    fig6c,
    fig6d,
    fig6e,
    fig6f,
    fig6g,
    fig6h,
    headline,
    msg_overhead,
    table1,
)

# Read-only registry: ``_run_one`` dereferences it inside pool workers,
# so it must stay immutable across fork (POOL-SAFETY).
ALL = MappingProxyType({
    "table1": lambda: table1.run(),
    "fig6a": lambda: fig6a.run().render(),
    "fig6b": lambda: fig6b.run().render(),
    "fig6c": lambda: fig6c.run().render(),
    "fig6d": lambda: fig6d.run().render(),
    "fig6e": lambda: fig6e.run().render(),
    "fig6f": lambda: fig6f.run().render(),
    "fig6g": lambda: fig6g.run().render(),
    "fig6h": lambda: fig6h.run().render(),
    "msg_overhead": lambda: msg_overhead.run().render(),
    "headline": lambda: headline.run().render(),
    # extension (not a paper figure): channel contention across subjects
    "concurrent_subjects": lambda: concurrent_subjects.run().render(),
    # §VIII parameter sweeps beyond the single Table I point
    "scalability_sweep": lambda: scalability_sweep.run(),
    # §VI "Overhead of Extensions": the version ladder's cost deltas
    "version_overhead": lambda: version_overhead.run().render(),
    # extension: §II-A's radio diversity quantified
    "radio_comparison": lambda: radio_comparison.run().render(),
    # extension: the RQUE/RRES fast path vs the full handshake
    "resumption": lambda: resumption.run().render(),
    # the 3-in-1 concurrency claim on a mixed fleet
    "mixed_fleet": lambda: mixed_fleet.run().render(),
    # §VI-C: one round per secret group, cost per sensitive attribute
    "multi_group": lambda: multi_group.run().render(),
    # §VII Case 9 quantified: attack accuracy vs jitter
    "timing_attack": lambda: timing_attack.run().render(),
    # extension: max fleet size within a latency budget
    "capacity": lambda: capacity.run().render(),
    # extension: chaos matrix — completion under injected faults
    "fault_recovery": lambda: fault_recovery.run().render(),
    # §VII executed end to end as one scorecard
    "security_report": lambda: security_report.run().render(),
})


def _run_one(name: str) -> tuple[str, float]:
    """Render one experiment section; module-level so it pickles to workers."""
    t0 = time.perf_counter()
    section = ALL[name]()
    return section, time.perf_counter() - t0


def validate_names(names: list[str]) -> list[str]:
    """The subset of *names* that are not known experiments."""
    return [name for name in names if name not in ALL]


#: Below this many experiments, process-pool startup outweighs the overlap.
MIN_PARALLEL_EXPERIMENTS = 3


def effective_jobs(jobs: int, n_experiments: int) -> int:
    """The job count actually worth using; falls back to sequential.

    A process pool only pays off with real parallel hardware and enough
    work to amortize worker startup: on a single-CPU host the workers
    time-slice one core and the pool is pure overhead (the
    ``speedup < 1`` regression BENCH_headline.json caught).  The
    decision is logged to stderr so report output stays comparable.
    """
    if jobs <= 1:
        return jobs
    cpus = os.cpu_count() or 1
    if cpus <= 1:
        print(
            f"runner: --jobs {jobs} requested but only {cpus} CPU available; "
            "falling back to sequential",
            file=sys.stderr,
        )
        return 1
    if n_experiments < MIN_PARALLEL_EXPERIMENTS:
        print(
            f"runner: only {n_experiments} experiment(s) selected "
            f"(< {MIN_PARALLEL_EXPERIMENTS}); falling back to sequential",
            file=sys.stderr,
        )
        return 1
    return jobs


def run_all_timed(
    selected: list[str] | None = None, jobs: int = 1
) -> tuple[list[str], list[float]]:
    """Run experiments; returns (sections, per-experiment seconds).

    Both lists follow the order of *selected* (or registry order) — a
    process pool changes completion order, never report order.  ``jobs``
    above 1 is a *request*: :func:`effective_jobs` drops back to
    sequential when a pool cannot win.
    """
    names = list(selected) if selected else list(ALL)
    for name in names:
        if name not in ALL:
            raise KeyError(f"unknown experiment {name!r}; choose from {sorted(ALL)}")
    jobs = effective_jobs(jobs, len(names))
    if jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            results = list(pool.map(_run_one, names))
    else:
        results = [_run_one(name) for name in names]
    return [section for section, _ in results], [elapsed for _, elapsed in results]


def run_all(selected: list[str] | None = None, jobs: int = 1) -> str:
    sections, _ = run_all_timed(selected, jobs)
    return "\n\n".join(sections)


def _print_timings(names: list[str], seconds: list[float], total: float) -> None:
    width = max(len(n) for n in names)
    print("\nPer-experiment wall-clock", file=sys.stderr)
    for name, elapsed in zip(names, seconds):
        print(f"  {name.ljust(width)}  {elapsed:8.3f}s", file=sys.stderr)
    print(f"  {'TOTAL'.ljust(width)}  {total:8.3f}s", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate the paper-vs-measured experiment report.",
    )
    parser.add_argument("names", nargs="*", help="experiment names (default: all)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run experiments in an N-process pool (0 = one per CPU; default 1)",
    )
    parser.add_argument(
        "--sequential", action="store_true",
        help="force in-process sequential execution (overrides --jobs)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_names",
        help="list available experiment names and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    if args.list_names:
        print("\n".join(sorted(ALL)))
        return 0
    unknown = validate_names(args.names)
    if unknown:
        print(
            f"unknown experiment{'s' if len(unknown) > 1 else ''}: "
            + ", ".join(sorted(unknown)),
            file=sys.stderr,
        )
        print("available experiments:", file=sys.stderr)
        for name in sorted(ALL):
            print(f"  {name}", file=sys.stderr)
        return 2
    jobs = 1 if args.sequential else args.jobs
    if jobs == 0:
        jobs = os.cpu_count() or 1
    names = args.names or list(ALL)
    t0 = time.perf_counter()
    sections, seconds = run_all_timed(names, jobs)
    total = time.perf_counter() - t0
    print("\n\n".join(sections))
    _print_timings(names, seconds, total)
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; not an error.
        raise SystemExit(0) from None
