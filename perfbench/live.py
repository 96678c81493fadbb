"""The three live workloads: real loopback sockets, two processes.

The object fleet runs in one child process (``fleet.py``); the subject
load -- and, in ``churn-under-load``, the backend writer -- runs here.
The load is a closed loop with one discovery in flight: a subject calls
``SubjectServiceClient.discover()`` on every object visible to it and
fans out to all of them at once; the next discovery starts when that
one returns.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.backend.updates import ChurnEngine
from repro.backend.updatewire import UpdateBatcher, UpdatePublisher
from repro.crypto import keypool, meter
from repro.net.run import RetryPolicy
from repro.protocol.discovery import run_round
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine
from repro.service.client import SubjectServiceClient
from repro.service.update_stream import UpdateStreamPusher

import campus as campus_mod
import report
import spans
from campus import Campus, Expected

FLEET = Path(__file__).resolve().parent / "fleet.py"

#: Loopback retry timers.  On a lossless link the only frames that go
#: unanswered are resumption queries carrying a ticket the object
#: rejects (its epoch moved on): the object answers those with silence,
#: so each costs the client this timer before it falls back to the full
#: handshake.  100 ms stays clear of garbage-collection pauses in the two
#: processes (each holds the whole campus), which outlast 40 ms.
LIVE_RETRY = RetryPolicy(max_retries=0, base_timeout_s=0.1, give_up_s=0.5)

#: A window is cut into this many equal blocks.  End-to-end figures pool
#: the blocks during which the hypervisor stole little CPU time from the
#: cores the processes run on (``steal`` in /proc/stat; see
#: ``report.quiet_blocks``): on a shared host steal comes in bursts that
#: stretch wall-clock latency two- to threefold, and nothing the program
#: does can cause it.
BLOCKS = 10
#: Set-up is repeated and its median reported, so one slow start does
#: not read as a regression.
SETUP_REPEATS = 3
#: Discoveries run before any window, so imports, first-use caches and
#: the key pool's first refill are paid outside the measurements.
WARMUP_DISCOVERIES = 8
#: cold-campus warms up longer: every daemon keeps up to 256 finished
#: handshakes in its session table (``ObjectEngine`` SESSION_LIMIT), which
#: ``tick`` scans on every frame, so the object side slows until the
#: tables are full.  The windows measure the full-table steady state.
COLD_WARMUP_DISCOVERIES = 280
#: Active (returning) subjects of warm-return and churn-under-load: a
#: population that fits every cache.  Two of them are fellows, one per
#: secret group, so Level 3 faces and group rounds are in the mix.
ACTIVE_SUBJECTS = 4
#: Churn: one op (a departure plus an arrival) per period on average,
#: due on a seeded, jittered open-loop schedule.  Each op makes every
#: returning subject's next discovery wait one client timer (see
#: LIVE_RETRY), so the stalled share of discoveries is fixed by the
#: schedule while the rest scale with host speed.  This period keeps that
#: share under 5% even at half speed, so p90 stays out of the stalls
#: (2-3% of discoveries stall on a quiet host).
CHURN_PERIOD_S = 4.0
CHURN_JITTER = 0.3
#: Share of departures that leave a secret group (an LKH rekey).
GROUP_DEPARTURE_SHARE = 0.25


class FleetHost:
    """The daemon-host child process and its JSON-lines control channel."""

    def __init__(self, snapshot: Path, trace_path: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(FLEET), str(snapshot), str(trace_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self._read()
        self.endpoints = {oid: tuple(addr) for oid, addr in ready["endpoints"].items()}

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("daemon host exited")
        return json.loads(line)

    def call(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.call(cmd="quit")
            self.proc.wait(timeout=20)
        except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def setup(seed: int, workdir: Path, trace_path: Path) -> tuple[Campus, FleetHost, list[float]]:
    """Provision + snapshot + daemon host until ready, SETUP_REPEATS times;
    the last set-up is kept."""
    times = []
    for attempt in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        campus = campus_mod.provision_campus(seed, workdir)
        fleet = FleetHost(campus.snapshot, trace_path)
        times.append(time.perf_counter() - t0)
        if attempt < SETUP_REPEATS - 1:
            fleet.stop()
    return campus, fleet, times


@dataclass
class Discovery:
    start: float
    end: float
    #: exchanges that matched ground truth / were accepted rekey overlaps
    ok: int
    accepted: int


@dataclass
class Window:
    discoveries: list[Discovery]
    wall_s: float
    gen_cpu_s: float
    fleet: dict
    gen_spans: dict = field(default_factory=dict)
    gen_meter: dict = field(default_factory=dict)
    gen_pool: tuple[int, int] = (0, 0)
    blocks: list[Block] = field(default_factory=list)
    frames: list = field(default_factory=list)
    clients: dict = field(default_factory=dict)
    start: float = 0.0

    @property
    def completed(self) -> int:
        return sum(d.ok + d.accepted for d in self.discoveries)


@dataclass
class Block:
    """One block of a window: its discoveries, each process's CPU, and
    the CPU time the host stole from the benchmark's cores meanwhile."""

    discoveries: list[Discovery]
    wall_s: float
    gen_cpu_s: float
    fleet_cpu_s: float
    #: stolen CPU time / (wall time x cores)
    steal_share: float

    @property
    def completed(self) -> int:
        return sum(d.ok + d.accepted for d in self.discoveries)


def steal_s(cpus: set[int]) -> float:
    """CPU seconds the hypervisor stole from *cpus* since boot (0 where
    /proc/stat has no steal column)."""
    total = 0
    with open("/proc/stat") as f:
        for line in f:
            name, *values = line.split()
            if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cpus:
                total += int(values[7]) if len(values) > 7 else 0
    return total / os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process *pid* (from /proc)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class Rekey:
    """One churn op: a departure (revocation, maybe an LKH rekey of
    ``group``) plus an arrival, and the pushes that carried it."""

    group: str | None
    due: float
    executed: float
    acked: float | None = None
    messages: int = 0
    bytes: int = 0
    keys_derived: int = 0
    push_s: float = 0.0


class Load:
    """Runs discoveries against the fleet and checks every answer."""

    def __init__(self, campus: Campus, fleet: FleetHost, seed: int) -> None:
        self.campus = campus
        self.fleet = fleet
        self.seed = seed
        self.oid_at = {addr: oid for oid, addr in fleet.endpoints.items()}
        self.clients: dict[str, SubjectServiceClient] = {}
        self.clients_made = 0
        self.client_stats: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: (subject, object, first byte, length) of every frame the
        #: clients sent or consumed
        self.frames: list[tuple[str, str, int, int]] = []
        self._disc_frames: dict[str, list[int]] = {}
        self.current_sid = ""
        #: a client not kept in ``clients`` (cold-campus's current one)
        self.extra_client: SubjectServiceClient | None = None
        self.discovery_count = 0
        self.rekeys: list[Rekey] = []
        #: (subject, object) pairs whose ticket was issued with a Level 2
        #: face during an accepted rekey overlap.
        self.stale_face: set[tuple[str, str]] = set()
        #: subject -> object -> the Level 2 face a fellow may see mid-rekey
        self.l2_face: dict[str, dict[str, Expected]] = {}
        self.overlap_accepted = 0
        self.overlap_resumed = 0
        self.log: spans.SpanLog | None = None

    # -- clients ------------------------------------------------------------------

    def _tap(self, direction: str, raw: bytes, addr) -> None:
        oid = self.oid_at.get(addr, "?")
        self._disc_frames.setdefault(oid, []).append(raw[0])
        self.frames.append((self.current_sid, oid, raw[0], len(raw)))

    def client_totals(self) -> dict[str, int]:
        """ClientStats summed over every client made so far."""
        out: dict[str, int] = {}
        for stats in [*self.client_stats, *(c.stats for c in self.open_clients())]:
            for key, value in vars(stats).items():
                out[key] = out.get(key, 0) + value
        return out

    def open_clients(self) -> list[SubjectServiceClient]:
        return [c for c in [*self.clients.values(), self.extra_client] if c is not None]

    async def new_client(self, sid: str) -> SubjectServiceClient:
        self.clients_made += 1
        client = SubjectServiceClient(
            self.campus.backend.issued_subjects[sid],
            retry=LIVE_RETRY,
            seed=(self.seed << 20) + self.clients_made,
            on_frame=self._tap,
        )
        await client.start()
        return client

    async def close_client(self, client: SubjectServiceClient) -> None:
        self.client_stats.append(client.stats)
        await client.close()

    async def close_all(self) -> None:
        for client in self.open_clients():
            await self.close_client(client)
        self.clients.clear()
        self.extra_client = None

    # -- one discovery ------------------------------------------------------------

    async def discover(self, sid: str, client: SubjectServiceClient) -> Discovery:
        creds = self.campus.backend.issued_subjects[sid]
        truth = self.campus.truth[sid]
        targets = [self.fleet.endpoints[oid] for oid in sorted(truth)]
        groups = sorted(creds.group_keys) if len(creds.group_keys) > 1 else [None]
        self._disc_frames = {}
        self.current_sid = sid
        if self.log is not None:
            self.log.request = self.discovery_count
        found: dict[str, object] = {}
        t0 = time.perf_counter()
        for index, group in enumerate(groups):
            answers = await client.discover(
                targets, group_id=group, allow_resume=(index == 0)
            )
            for addr, service in answers.items():
                oid = self.oid_at[addr]
                best = found.get(oid)
                if best is None or service.level_seen > best.level_seen:
                    found[oid] = service
        t1 = time.perf_counter()
        self.discovery_count += 1
        if self.log is not None and self.log.recording:
            index = self.log.open(self.log.intern("bench.check"))
            try:
                return self._check(sid, truth, found, t0, t1)
            finally:
                self.log.close(index)
        return self._check(sid, truth, found, t0, t1)

    def _check(self, sid, truth, found, t0, t1) -> Discovery:
        ok = accepted = 0
        for oid, expected in truth.items():
            service = found.get(oid)
            codes = self._disc_frames.get(oid, ())
            resumed = bool(codes) and self.campus.codes.get(codes[-1]) == "Rque"
            if service is not None and service.object_id != oid:
                self._fail(f"{sid}: {oid} answered as {service.object_id}")
                continue
            if service is None:
                self._fail(f"{sid}: {oid} missing")
                continue
            seen = Expected(service.level_seen, tuple(service.functions))
            if seen == expected:
                ok += 1
                if seen.level == 3:
                    self.stale_face.discard((sid, oid))
                continue
            if self._overlap_face(sid, oid, seen, t0, t1, resumed):
                accepted += 1
                continue
            self._fail(f"{sid}: {oid} seen {seen} expected {expected}")
        self.attempted += len(truth)
        return Discovery(t0, t1, ok, accepted)

    def _overlap_face(self, sid, oid, seen, t0, t1, resumed) -> bool:
        """A fellow may see the Level 2 face of its group's object while
        the group is being rekeyed (its key changed, the object's not yet,
        or the other way round)."""
        face = self.l2_face.get(sid, {}).get(oid)
        if face is None or seen != face:
            return False
        groups = self.campus.backend.issued_subjects[sid].group_keys
        for rekey in self.rekeys:
            if rekey.group in groups and rekey.executed < t1 and (
                rekey.acked is None or rekey.acked > t0
            ):
                self.stale_face.add((sid, oid))
                self.overlap_accepted += 1
                return True
        # The Level 2 ticket issued during that overlap, redeemed later.
        if resumed and (sid, oid) in self.stale_face:
            self.overlap_resumed += 1
            return True
        return False

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    # -- wire-size check (after the run, untimed) ---------------------------------

    def check_frames(self) -> int:
        """Count frames whose length differs from the sans-IO engines'
        output for the same message (the transport adds zero bytes, and
        RES1/RES2/RRES are constant per object)."""
        bad = 0
        sizes = self.campus.sizes
        for sid, oid, code, length in self.frames:
            name = self.campus.codes.get(code)
            if name in ("Que1", "Rque"):
                expected = sizes.get((name, ""))
            elif name == "Que2":
                expected = campus_mod.que2_size(self.campus, sid)
            else:
                expected = sizes.get((name, oid))
            if expected != length:
                bad += 1
        return bad


async def run_window(load: Load, seconds: float, pick, *, trace: bool = False,
                     writer=None) -> Window:
    """Closed loop for *seconds*; *pick* yields (subject, client)."""
    load.fleet.call(cmd="mark", trace=trace)
    if load.log is not None:
        load.log.reset_totals()
        load.log.recording = trace
    meter.reset()
    pool = keypool.default_pool()
    pool0 = (sum(pool.hits.values()), sum(pool.misses.values()))
    frames0 = len(load.frames)
    clients0 = load.client_totals()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    writer_task = None
    if writer is not None:
        writer_task = asyncio.ensure_future(writer(t0, seconds))
    discoveries = []
    blocks: list[Block] = []
    cpus = os.sched_getaffinity(0)
    mark = (t0, cpu0, proc_cpu_s(load.fleet.proc.pid), 0, steal_s(cpus))
    while time.perf_counter() - t0 < seconds:
        sid, client = await pick()
        discoveries.append(await load.discover(sid, client))
        now = time.perf_counter()
        if now - t0 >= (len(blocks) + 1) * seconds / BLOCKS:
            cpu, fleet_cpu = time.process_time(), proc_cpu_s(load.fleet.proc.pid)
            stolen = steal_s(cpus)
            blocks.append(Block(
                discoveries[mark[3]:], now - mark[0], cpu - mark[1],
                fleet_cpu - mark[2], (stolen - mark[4]) / ((now - mark[0]) * len(cpus)),
            ))
            mark = (now, cpu, fleet_cpu, len(discoveries), stolen)
    if writer_task is not None:
        await writer_task
    wall = time.perf_counter() - t0
    gen_cpu = time.process_time() - cpu0
    gen_spans = {}
    if load.log is not None:
        load.log.recording = False
        gen_spans = load.log.snapshot()
    fleet = load.fleet.call(cmd="report")
    clients1 = load.client_totals()
    return Window(
        discoveries, wall, gen_cpu, fleet, gen_spans,
        gen_meter=report.op_counts(meter.global_meter()),
        gen_pool=(sum(pool.hits.values()) - pool0[0], sum(pool.misses.values()) - pool0[1]),
        blocks=blocks,
        frames=load.frames[frames0:],
        clients={k: v - clients0.get(k, 0) for k, v in clients1.items()},
        start=t0,
    )


# -- workloads -----------------------------------------------------------------


def choose_active(campus: Campus, rng: random.Random) -> list[str]:
    """ACTIVE_SUBJECTS returning subjects: one fellow per secret group,
    the rest drawn from subjects in no group."""
    by_group: dict[str, list[str]] = {}
    for sid in campus.fellows():
        keys = campus.backend.issued_subjects[sid].group_keys
        if len(keys) == 1:
            by_group.setdefault(next(iter(keys)), []).append(sid)
    fellows = [rng.choice(sorted(members)) for _gid, members in sorted(by_group.items())]
    others = sorted(set(campus.subjects()) - set(campus.fellows()))
    return fellows + rng.sample(others, ACTIVE_SUBJECTS - len(fellows))


class Workload:
    """Set-up, warm-up and windows shared by the three live workloads."""

    name = ""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.trace_dir = workdir / "traces"
        self.fleet: FleetHost | None = None

    def run(self) -> report.Outcome:
        campus, fleet, setup_times = setup(
            self.seed, self.workdir,
            self.trace_dir / f"{self.name}-fleet.json",
        )
        self.fleet = fleet
        try:
            floor_us = campus_mod.crypto_floor_us()
            self.prepare(campus)
            campus_mod.object_sizes(campus)
            load = Load(campus, fleet, self.seed)
            self.load = load
            return asyncio.run(self.measure(load, setup_times, floor_us))
        finally:
            fleet.stop()

    def prepare(self, campus: Campus) -> None:
        raise NotImplementedError

    async def pick(self):
        raise NotImplementedError

    async def fresh_start(self) -> None:
        """Forget the subject side (new clients: no tickets, new ports)."""

    writer = None
    warmup = WARMUP_DISCOVERIES

    async def measure(self, load: Load, setup_times, floor_us) -> report.Outcome:
        try:
            return await self._measure(load, setup_times, floor_us)
        finally:
            await load.close_all()

    async def _measure(self, load: Load, setup_times, floor_us) -> report.Outcome:
        for _ in range(self.warmup):
            sid, client = await self.pick()
            await load.discover(sid, client)
        if not self.trace:
            window = await run_window(load, self.seconds, self.pick, writer=self.writer)
            return report.live_outcome(self, load, window, setup_times, floor_us)
        untraced = await run_window(load, self.seconds / 2, self.pick, writer=self.writer)
        load.log = spans.SpanLog()
        install_generator_trace(load.log)
        load.fleet.call(cmd="install_trace")
        await self.fresh_start()
        traced = await run_window(
            load, self.seconds / 2, self.pick, trace=True, writer=self.writer
        )
        load.log.write(self.trace_dir / f"{self.name}-generator.json", "generator")
        return report.live_trace_outcome(self, load, untraced, traced, setup_times, floor_us)


def install_generator_trace(log: spans.SpanLog) -> None:
    meter.enable()
    spans.install_common(log)
    spans.wrap(log, ChurnEngine, "remove_subject", "backend.churn_op")
    spans.wrap(log, ChurnEngine, "add_subject", "backend.churn_op")
    spans.install_loop(log, asyncio.get_running_loop())


class ColdCampus(Workload):
    """First contact every time: a new client per discovery, subjects in
    seeded random order from a population above the chain cache."""

    name = "cold-campus"
    warmup = COLD_WARMUP_DISCOVERIES

    def prepare(self, campus: Campus) -> None:
        campus_mod.ground_truth(campus, campus.subjects())
        self.order = campus.subjects()
        self.rng.shuffle(self.order)
        self.position = 0

    async def pick(self):
        load = self.load
        if load.extra_client is not None:
            await load.close_client(load.extra_client)
        sid = self.order[self.position % len(self.order)]
        self.position += 1
        load.extra_client = await load.new_client(sid)
        return sid, load.extra_client


class WarmReturn(Workload):
    """Returning subjects: RQUE -> RRES resumed re-discovery."""

    name = "warm-return"

    def prepare(self, campus: Campus) -> None:
        self.active = choose_active(campus, self.rng)
        campus_mod.ground_truth(campus, self.active)

    async def fresh_start(self) -> None:
        await self.load.close_all()

    async def pick(self):
        sid = self.rng.choice(self.active)
        client = self.load.clients.get(sid)
        if client is None:
            client = self.load.clients[sid] = await self.load.new_client(sid)
        return sid, client

    async def measure(self, load, setup_times, floor_us):
        # Every active subject makes its first contact before warm-up
        # ends, so the windows see returning subjects only.
        for sid in self.active:
            load.clients[sid] = await load.new_client(sid)
            await load.discover(sid, load.clients[sid])
        return await super().measure(load, setup_times, floor_us)


class ChurnUnderLoad(WarmReturn):
    """warm-return traffic plus an open-loop backend writer."""

    name = "churn-under-load"

    def prepare(self, campus: Campus) -> None:
        super().prepare(campus)
        backend = campus.backend
        self.publisher = UpdatePublisher(backend.root_key)
        self.churn = ChurnEngine(backend, wire=UpdateBatcher(self.publisher))
        self.next_user = len(campus.subjects())
        # Level 2 faces a fellow may legitimately see mid-rekey.
        objects = {o: backend.issued_objects[o] for o in campus.objects()}
        self.faces = {}
        for sid in self.active:
            creds = backend.issued_subjects[sid]
            if creds.group_keys:
                plain = run_round(
                    SubjectEngine(creds),
                    {o: ObjectEngine(c) for o, c in objects.items()},
                    group_id="coverup",
                )
                self.faces[sid] = {
                    s.object_id: Expected(s.level_seen, tuple(s.functions))
                    for s in plain.services
                }
        remove_everywhere = backend.groups.remove_everywhere

        def capture(member_id):
            self.last_rekeys = remove_everywhere(member_id)
            return self.last_rekeys

        backend.groups.remove_everywhere = capture
        self.last_rekeys = []
        self.backend = backend

    async def measure(self, load, setup_times, floor_us):
        load.l2_face = self.faces
        self.pusher = UpdateStreamPusher(seed=self.seed)
        await self.pusher.start()
        try:
            return await super().measure(load, setup_times, floor_us)
        finally:
            await self.pusher.close()

    def _departure(self) -> str:
        """A departing subject: never an active one; a seeded share of
        departures leave a secret group."""
        backend = self.backend
        active = set(self.active)
        fellows = sorted(
            s for s, c in backend.issued_subjects.items()
            if c.group_keys and s not in active
        )
        if fellows and self.rng.random() < GROUP_DEPARTURE_SHARE:
            return self.rng.choice(fellows)
        plain = sorted(
            s for s, c in backend.issued_subjects.items()
            if not c.group_keys and s not in active
        )
        return self.rng.choice(plain)

    async def writer(self, t0: float, seconds: float) -> None:
        """Open loop: op k is due at t0 + (k + jitter) * period and is
        timed from when it was due, however late the writer runs."""
        dues = []
        k = 0
        while True:
            due = t0 + (k + self.rng.uniform(-CHURN_JITTER, CHURN_JITTER) + 0.5) * CHURN_PERIOD_S
            if due - t0 >= seconds:
                break
            dues.append(due)
            k += 1
        backend = self.backend
        groups = backend.groups
        for due in dues:
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            executed = time.perf_counter()
            sid = self._departure()
            record = backend.database.subjects[sid]
            attributes = record.attributes
            sensitive = tuple(sorted(record.sensitive_attributes))
            group_ids = sorted(backend.issued_subjects[sid].group_keys)
            self.churn.last_wire_flush = []
            self.last_rekeys = []
            self.churn.remove_subject(sid)
            messages = list(self.churn.last_wire_flush)
            new_id = f"user-{self.next_user:05d}"
            self.next_user += 1
            self.churn.add_subject(new_id, attributes, sensitive)
            rekey = Rekey(group_ids[0] if group_ids else None, due, executed)
            self.load.rekeys.append(rekey)
            per_addr: dict[tuple, list] = {}
            for message in messages:
                if message.addressee.startswith("grp:"):
                    gid = message.addressee[4:]
                    recipients = sorted(groups.groups[gid].object_members)
                else:
                    recipients = [message.addressee]
                for oid in recipients:
                    addr = self.load.fleet.endpoints.get(oid)
                    if addr is not None:
                        per_addr.setdefault(addr, []).append(message)
            push0 = time.perf_counter()
            delivered = await asyncio.gather(
                *(self.pusher.push_all(addr, msgs) for addr, msgs in per_addr.items())
            )
            rekey.acked = time.perf_counter()
            rekey.push_s = rekey.acked - push0
            rekey.messages = sum(len(msgs) for msgs in per_addr.values())
            rekey.bytes = sum(len(m.to_bytes()) for msgs in per_addr.values() for m in msgs)
            rekey.keys_derived = sum(r.keys_derived for r in self.last_rekeys)
            if sum(delivered) != rekey.messages:
                self.load._fail(
                    f"churn op for {sid}: {sum(delivered)}/{rekey.messages} pushes acked"
                )


WORKLOADS = {
    ColdCampus.name: ColdCampus,
    WarmReturn.name: WarmReturn,
    ChurnUnderLoad.name: ChurnUnderLoad,
}

