"""The daemon host: every object of the campus in one asyncio loop.

Run as a child process by the benchmark::

    python3 perfbench/fleet.py <snapshot.json> <trace-file>

It loads the snapshot, starts one ``ObjectServiceDaemon`` (with its
``UpdateReceiver``, and for Level 3 objects their LKH ``MemberState``)
per object, prints one JSON line with the endpoints, then answers JSON
commands, one per stdin line, each with one JSON line on stdout:

* ``{"cmd": "mark", "trace": bool}`` -- start a measurement window;
* ``{"cmd": "report"}`` -- CPU, peak RSS, daemon and meter counters,
  and span totals since the last mark;
* ``{"cmd": "install_trace"}`` -- wrap the program's entry points;
* ``{"cmd": "quit"}`` -- write the spans (if traced) and exit.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.backend.persistence import load_backend  # noqa: E402
from repro.backend.updatewire import UpdateReceiver  # noqa: E402
from repro.crypto import keypool, meter  # noqa: E402
from repro.service.daemon import ObjectServiceDaemon  # noqa: E402

import spans  # noqa: E402


def op_counts(tally: meter.OpMeter | None) -> dict[str, int]:
    out: Counter = Counter()
    if tally is not None:
        for (op, _strength), n in tally.counts.items():
            out[op] += n
    return dict(out)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Fleet:
    def __init__(self, snapshot: str, trace_path: Path) -> None:
        backend = load_backend(snapshot)
        self.daemons: dict[str, ObjectServiceDaemon] = {}
        for oid, creds in sorted(backend.issued_objects.items()):
            members = {
                gid: backend.groups.member_state(gid, oid)
                for gid in creds.level3_variants
            }
            receiver = UpdateReceiver(
                device_id=oid,
                admin_public=backend.admin_public,
                object_creds=creds,
                lkh_members=members,
            )
            self.daemons[oid] = ObjectServiceDaemon(creds, update_receiver=receiver)
        self.trace_path = trace_path
        self.log = spans.SpanLog()
        self.traced = False
        self.meter: meter.OpMeter | None = None
        self._mark()

    def _counters(self) -> dict:
        stats: Counter = Counter()
        chain = Counter()
        for daemon in self.daemons.values():
            stats.update(daemon.stats)
            info = daemon.engine.verifier.cache_info()
            chain["hits"] += info.hits
            chain["misses"] += info.misses
        pool = keypool.default_pool()
        return {
            "stats": dict(stats),
            "chain": dict(chain),
            "pool_hits": sum(pool.hits.values()),
            "pool_misses": sum(pool.misses.values()),
            "buckets": sum(len(d._buckets) for d in self.daemons.values()),
        }

    def _mark(self) -> None:
        self.cpu0 = time.process_time()
        self.base = self._counters()
        meter.reset()
        self.log.reset_totals()

    def report(self) -> dict:
        now = self._counters()
        delta = {
            key: {k: v - self.base[key].get(k, 0) for k, v in now[key].items()}
            for key in ("stats", "chain")
        }
        return {
            "cpu_s": time.process_time() - self.cpu0,
            "rss_mb": peak_rss_mb(),
            "stats": delta["stats"],
            "chain": delta["chain"],
            "pool_hits": now["pool_hits"] - self.base["pool_hits"],
            "pool_misses": now["pool_misses"] - self.base["pool_misses"],
            "buckets": now["buckets"],
            "meter": op_counts(self.meter),
            "spans": self.log.snapshot(),
        }

    def install_trace(self) -> None:
        self.meter = meter.enable()
        spans.install_common(self.log)
        spans.wrap(self.log, ObjectServiceDaemon, "dispatch", "service.dispatch")
        spans.wrap(self.log, UpdateReceiver, "apply", "backend.update_apply")
        spans.install_loop(self.log, asyncio.get_running_loop())
        self.traced = True

    async def serve(self) -> None:
        for daemon in self.daemons.values():
            await daemon.start()
        endpoints = {oid: list(d.address) for oid, d in self.daemons.items()}
        _send({"ready": True, "endpoints": endpoints})
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        while True:
            line = await reader.readline()
            if not line:
                break
            command = json.loads(line)
            cmd = command["cmd"]
            if cmd == "mark":
                self._mark()
                self.log.recording = bool(command.get("trace"))
                _send({"ok": True})
            elif cmd == "report":
                self.log.recording = False
                _send(self.report())
            elif cmd == "install_trace":
                self.install_trace()
                _send({"ok": True})
            elif cmd == "quit":
                break
        for daemon in self.daemons.values():
            await daemon.close()
        if self.traced:
            self.log.write(self.trace_path, "fleet")
        _send({"bye": True})


def _send(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> None:
    snapshot, trace_path = sys.argv[1], Path(sys.argv[2])
    fleet = Fleet(snapshot, trace_path)
    asyncio.run(fleet.serve())


if __name__ == "__main__":
    main()
