"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — the three-level discovery walkthrough (no arguments).
* ``experiments [name ...]`` — regenerate paper tables/figures
  (default: all; see ``--list``).
* ``simulate`` — one discovery-time simulation with chosen level,
  object count, hops, loss rate.
* ``campus`` — generate a synthetic enterprise and print its
  visibility statistics.
* ``table1`` — the updating-overhead comparison at chosen (N, alpha).
* ``lint`` — protocol-invariant static analysis over the tree
  (docs/static-analysis.md); non-zero exit on new findings.
* ``serve`` — run one object's live service daemon (UDP) from a
  provisioning snapshot (docs/service.md).
* ``discover`` — run a subject's live discovery against daemon
  endpoints from the same snapshot.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro import Backend, discover

    backend = Backend()
    backend.add_sensitive_policy("sensitive:needs-support", "sensitive:serves-support")
    users = [
        backend.register_subject("alice", {"position": "manager", "department": "X"}),
        backend.register_subject(
            "sam", {"position": "student", "department": "CS"},
            sensitive_attributes=("sensitive:needs-support",),
        ),
        backend.register_subject("eve", {"position": "visitor"}),
    ]
    fleet = [
        backend.register_object("thermo-1", {"type": "thermometer"}, level=1,
                                functions=("read_temperature",)),
        backend.register_object(
            "media-1", {"type": "multimedia"}, level=2, functions=("play",),
            variants=[("position=='manager'", ("play", "cast", "admin")),
                      ("department=='CS'", ("play",))],
        ),
        backend.register_object(
            "kiosk-1", {"type": "magazine kiosk"}, level=3,
            functions=("dispense_magazine",),
            variants=[("true", ("dispense_magazine",))],
            covert_functions={"sensitive:serves-support": ("dispense_support_flyer",)},
        ),
    ]
    for user in users:
        print(f"\n{user.subject_id}:")
        result = discover(user, fleet)
        for service in sorted(result.services, key=lambda s: s.object_id):
            print(f"  {service.object_id:12s} L{service.level_seen} "
                  f"{', '.join(service.functions)}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import ALL, run_all, validate_names

    if args.list:
        print("\n".join(sorted(ALL)))
        return 0
    unknown = validate_names(args.names)
    if unknown:
        print(f"unknown experiments: {', '.join(sorted(unknown))}", file=sys.stderr)
        print(f"available: {', '.join(sorted(ALL))}", file=sys.stderr)
        return 2
    print(run_all(args.names or None, jobs=args.jobs))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.common import make_level_fleet
    from repro.net.radio import LinkModel
    from repro.net.run import simulate_discovery
    from repro.net.topology import paper_multihop

    subject, objects, _ = make_level_fleet(args.objects, args.level)
    graph = None
    if args.hops > 1:
        graph = paper_multihop([c.object_id for c in objects], args.hops)
    link = LinkModel(loss_rate=args.loss, jitter_fraction=args.jitter)
    timeline = simulate_discovery(
        subject, objects, graph=graph, link=link, seed=args.seed,
        max_rounds=args.rounds,
    )
    print(f"discovered {len(timeline.completion)}/{args.objects} objects "
          f"in {timeline.total_time:.3f} s (simulated)")
    for object_id, t in sorted(timeline.completion.items(), key=lambda kv: kv[1]):
        print(f"  {t:7.3f}s  {object_id}  (hop {timeline.hops[object_id]})")
    return 0


def _cmd_campus(args: argparse.Namespace) -> int:
    from repro.backend import Backend
    from repro.backend.synthetic import SyntheticConfig, generate, provision
    from repro.protocol import discover

    config = SyntheticConfig(
        n_subjects=args.subjects, n_buildings=args.buildings,
        rooms_per_building=args.rooms, objects_per_room=args.objects_per_room,
        seed=args.seed,
    )
    ent = generate(config)
    backend = Backend()
    provision(ent, backend)
    print(f"{len(backend.issued_subjects)} subjects, "
          f"{len(backend.issued_objects)} objects")
    levels = {1: 0, 2: 0, 3: 0}
    for spec in ent.object_specs:
        levels[spec["level"]] += 1
    print(f"levels: {levels}")
    sample = list(backend.issued_subjects.values())[: args.sample]
    objects = list(backend.issued_objects.values())
    for creds in sample:
        result = discover(creds, objects)
        visible = {1: 0, 2: 0, 3: 0}
        for service in result.services:
            visible[service.level_seen] += 1
        print(f"  {creds.subject_id}: sees {visible}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis.visibility import audit, compute_matrix
    from repro.backend.database import BackendDatabase
    from repro.backend.synthetic import SyntheticConfig, generate, populate

    config = SyntheticConfig(n_subjects=args.subjects, seed=args.seed)
    db = BackendDatabase()
    populate(generate(config), db)
    matrix = compute_matrix(db)
    print(f"{len(matrix.subject_ids)} subjects x {len(matrix.object_ids)} objects; "
          f"mean N = {matrix.mean_n:.1f}")
    print(audit(db, exposure_threshold=args.exposure).render())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import closed_form

    print(closed_form(args.n, args.alpha, args.xi_o, args.xi_s).render())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.engine import run_lint

    return run_lint(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.backend.persistence import load_backend
    from repro.backend.updatewire import UpdateReceiver
    from repro.service.daemon import ObjectServiceDaemon

    backend = load_backend(args.snapshot)
    creds = backend.issued_objects.get(args.object)
    if creds is None:
        print(f"no object {args.object!r} in snapshot "
              f"(have: {', '.join(sorted(backend.issued_objects)) or 'none'})",
              file=sys.stderr)
        return 2
    receiver = UpdateReceiver(
        creds.object_id, backend.root_key.public_key, object_creds=creds
    )

    async def run() -> None:
        daemon = ObjectServiceDaemon(
            creds, args.host, args.port, update_receiver=receiver
        )
        await daemon.start()
        host, port = daemon.address
        print(f"serving {creds.object_id} (level {creds.level}) on "
              f"{host}:{port} (udp)", flush=True)
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await daemon.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    import asyncio

    from repro.backend.persistence import load_backend
    from repro.net.retry import RetryPolicy
    from repro.service.client import SubjectServiceClient

    backend = load_backend(args.snapshot)
    creds = backend.issued_subjects.get(args.subject)
    if creds is None:
        print(f"no subject {args.subject!r} in snapshot "
              f"(have: {', '.join(sorted(backend.issued_subjects)) or 'none'})",
              file=sys.stderr)
        return 2
    endpoints = []
    for spec in args.endpoints:
        host, _, port = spec.rpartition(":")
        try:
            endpoints.append((host or "127.0.0.1", int(port)))
        except ValueError:
            print(f"bad endpoint {spec!r} (want host:port)", file=sys.stderr)
            return 2

    async def run() -> int:
        client = SubjectServiceClient(
            creds,
            retry=RetryPolicy(give_up_s=args.give_up),
            seed=args.seed,
        )
        await client.start()
        try:
            found = await client.discover(
                endpoints, group_id=args.group, rounds=args.rounds
            )
        finally:
            await client.close()
        for addr, service in sorted(found.items()):
            print(f"  {addr[0]}:{addr[1]}  {service.object_id:12s} "
                  f"L{service.level_seen} {', '.join(service.functions)}")
        missing = len(endpoints) - len(found)
        print(f"discovered {len(found)}/{len(endpoints)} endpoints"
              + (f" ({missing} silent)" if missing else ""))
        stats = client.stats
        print(f"rounds={stats.rounds} retx={stats.retransmissions} "
              f"gave_up={stats.exchanges_given_up} "
              f"resumed={stats.resumptions}")
        return 0 if not missing else 1

    return asyncio.run(run())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Argus reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="three-level discovery walkthrough")

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("names", nargs="*", help="experiment names (default: all)")
    p_exp.add_argument("--list", action="store_true", help="list experiment names")
    p_exp.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="process-pool width for independent experiments")

    p_sim = sub.add_parser("simulate", help="discovery-time simulation")
    p_sim.add_argument("--level", type=int, default=2, choices=(1, 2, 3))
    p_sim.add_argument("--objects", type=int, default=20)
    p_sim.add_argument("--hops", type=int, default=1)
    p_sim.add_argument("--loss", type=float, default=0.0)
    p_sim.add_argument("--jitter", type=float, default=0.0)
    p_sim.add_argument("--rounds", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)

    p_campus = sub.add_parser("campus", help="synthetic enterprise statistics")
    p_campus.add_argument("--subjects", type=int, default=40)
    p_campus.add_argument("--buildings", type=int, default=2)
    p_campus.add_argument("--rooms", type=int, default=6)
    p_campus.add_argument("--objects-per-room", type=int, default=2)
    p_campus.add_argument("--sample", type=int, default=3)
    p_campus.add_argument("--seed", type=int, default=2020)

    p_audit = sub.add_parser("audit", help="static visibility audit of a synthetic enterprise")
    p_audit.add_argument("--subjects", type=int, default=200)
    p_audit.add_argument("--exposure", type=float, default=0.9)
    p_audit.add_argument("--seed", type=int, default=2020)

    p_lint = sub.add_parser(
        "lint", help="protocol-invariant static analysis (docs/static-analysis.md)"
    )
    from repro.lint.engine import add_arguments as _add_lint_arguments

    _add_lint_arguments(p_lint)

    p_serve = sub.add_parser(
        "serve", help="run one object's live service daemon (docs/service.md)"
    )
    p_serve.add_argument("--snapshot", required=True,
                         help="provisioning snapshot (backend persistence JSON)")
    p_serve.add_argument("--object", required=True, help="object id to serve")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="UDP port (default: ephemeral, printed)")

    p_disc = sub.add_parser(
        "discover", help="live discovery against daemon endpoints"
    )
    p_disc.add_argument("--snapshot", required=True,
                        help="provisioning snapshot (backend persistence JSON)")
    p_disc.add_argument("--subject", required=True, help="subject id to run as")
    p_disc.add_argument("endpoints", nargs="+", metavar="HOST:PORT",
                        help="daemon endpoints to query")
    p_disc.add_argument("--group", default=None, help="group key to use")
    p_disc.add_argument("--rounds", type=int, default=8)
    p_disc.add_argument("--give-up", type=float, default=10.0,
                        help="per-exchange give-up deadline (s)")
    p_disc.add_argument("--seed", type=int, default=0,
                        help="retry-jitter RNG seed (reproducible runs)")

    p_t1 = sub.add_parser("table1", help="updating-overhead comparison")
    p_t1.add_argument("--n", type=int, default=1000)
    p_t1.add_argument("--alpha", type=int, default=9000)
    p_t1.add_argument("--xi-o", dest="xi_o", type=float, default=1.0)
    p_t1.add_argument("--xi-s", dest="xi_s", type=float, default=1.0)

    return parser


_HANDLERS = {
    "demo": _cmd_demo,
    "experiments": _cmd_experiments,
    "simulate": _cmd_simulate,
    "campus": _cmd_campus,
    "audit": _cmd_audit,
    "table1": _cmd_table1,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "discover": _cmd_discover,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
