"""In-memory spans around the program's public entry points.

The traced run wraps functions of :mod:`repro` from outside: each
wrapper records a span (name, start, end, parent, request) while
recording is on and is a plain pass-through otherwise.  Spans stay in
memory and are written out once, when the run ends.  A span's *self*
time is its duration minus the time its direct children cover; the
per-layer figures are sums of self times, so the layers never
double-count nested work.

Only the main thread records.  Work on other threads (the key pool's
background refill) shows either inside a main-thread span, when it holds
the interpreter lock, or as unattributed process CPU.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from array import array
from pathlib import Path

#: Spans are timed on the calling thread's CPU clock, not the wall
#: clock: a span then never counts time the thread spent descheduled (a
#: busy neighbour, the hypervisor stealing the core, the other process),
#: and layer times reconcile against process CPU time like for like.
_clock = time.thread_time

#: Span name prefix -> layer.  ``idle`` (the event loop waiting in its
#: selector) belongs to no layer; ``bench`` is this benchmark's own
#: bookkeeping inside the generator's loop.
#: Raw spans kept for the span file; totals keep counting past the cap.
MAX_SPANS = 200_000

LAYERS = ("crypto", "pki", "attributes", "protocol", "service", "backend", "net", "bench")


class SpanLog:
    """Spans of one process, kept in flat arrays until written out."""

    def __init__(self) -> None:
        self.recording = False
        #: Request the next span belongs to (the generator has one
        #: discovery in flight, so its id tags every span it causes).
        self.request = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("q")
        self._stack: list[int] = []
        self._open: list[tuple[int, float]] = []
        self._child: list[float] = []
        #: name -> [count, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self._main = threading.get_ident()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0]
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        if index < MAX_SPANS:
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.req.append(self.request)
            self.end.append(0.0)
            self.start.append(0.0)
        else:
            index = -1
        self._stack.append(index)
        self._open.append((nid, _clock()))
        self._child.append(0.0)
        return index

    def close(self, index: int) -> None:
        now = _clock()
        self._stack.pop()
        nid, start = self._open.pop()
        child = self._child.pop()
        if index >= 0:
            self.start[index] = start
            self.end[index] = now
        duration = now - start
        agg = self.totals[self.names[nid]]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if self._child:
            self._child[-1] += duration

    def innermost(self) -> str | None:
        if not self._open:
            return None
        return self.names[self._open[-1][0]]

    def on_main_thread(self) -> bool:
        return threading.get_ident() == self._main

    def reset_totals(self) -> None:
        for agg in self.totals.values():
            agg[0], agg[1], agg[2] = 0, 0.0, 0.0

    def snapshot(self) -> dict[str, list]:
        return {name: list(agg) for name, agg in self.totals.items() if agg[0]}

    def write(self, path: Path, process: str) -> None:
        """Write the recorded spans (up to MAX_SPANS) as parallel arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        payload = {
            "process": process,
            "names": self.names,
            "name": list(self.name_id),
            "clock": "thread CPU time",
            "start_us": [round((t - origin) * 1e6, 3) for t in self.start],
            "end_us": [round((t - origin) * 1e6, 3) for t in self.end],
            "parent": list(self.parent),
            "request": list(self.req),
            "totals": self.snapshot(),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def _wrap_function(log: SpanLog, fn, name: str, *, outermost: bool = False):
    nid = log.intern(name)

    def traced(*args, **kwargs):
        if not log.recording or not log.on_main_thread():
            return fn(*args, **kwargs)
        if outermost and log.innermost() == name:
            return fn(*args, **kwargs)
        index = log.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(index)

    traced.__wrapped__ = fn
    return traced


def wrap(log: SpanLog, owner, attr: str, name: str, *, outermost: bool = False) -> None:
    """Replace ``owner.attr`` (a module or class attribute) by a spanned twin.

    ``outermost`` records only the outermost of nested calls of the
    same span name (a predicate tree evaluating its own children).
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        inner = _wrap_function(log, raw.__func__, name, outermost=outermost)
        setattr(owner, attr, classmethod(inner))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(_wrap_function(log, raw.__func__, name)))
    else:
        setattr(owner, attr, _wrap_function(log, raw, name, outermost=outermost))


def install_common(log: SpanLog) -> None:
    """Spans for the layers both processes run: crypto, pki, attributes,
    the protocol codec and engines, and the asyncio loop."""
    import repro.crypto.aead as aead
    import repro.crypto.kdf as kdf
    import repro.crypto.keypool as keypool
    import repro.crypto.primitives as primitives
    import repro.protocol.messages as messages
    from repro.attributes.predicate import Predicate
    from repro.crypto.ecdh import EphemeralECDH
    from repro.crypto.ecdsa import SigningKey, VerifyingKey
    from repro.pki.chain import ChainVerifier
    from repro.pki.profile import Profile
    from repro.protocol.object import ObjectEngine
    from repro.protocol.subject import SubjectEngine

    wrap(log, VerifyingKey, "verify", "crypto.ecdsa_verify")
    wrap(log, SigningKey, "sign", "crypto.ecdsa_sign")
    wrap(log, keypool.EphemeralKeyPool, "get", "crypto.ecdh_gen")
    wrap(log, EphemeralECDH, "derive_premaster", "crypto.ecdh_derive")
    # kdf and aead bind hmac_sha256 by name at import time: wrap the
    # definition and each binding.
    hmac_traced = _wrap_function(log, primitives.hmac_sha256, "crypto.hmac")
    for module in (primitives, kdf, aead):
        if getattr(module, "hmac_sha256", None) is not None:
            module.hmac_sha256 = hmac_traced
    wrap(log, aead, "encrypt", "crypto.aead")
    wrap(log, aead, "decrypt", "crypto.aead")

    wrap(log, ChainVerifier, "verify_chain_bytes", "pki.chain_verify")
    wrap(log, ChainVerifier, "verify", "pki.chain_verify", outermost=True)
    wrap(log, Profile, "verify", "pki.profile_verify")

    def predicate_classes(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from predicate_classes(sub)

    for cls in {Predicate, *predicate_classes(Predicate)}:
        if "evaluate" in cls.__dict__:
            wrap(log, cls, "evaluate", "attributes.predicate_eval", outermost=True)

    codec_classes = [
        getattr(messages, n)
        for n in ("Que1", "Res1Level1", "Res1", "Que2", "Res2", "Rque", "Rres")
    ]
    for cls in codec_classes:
        wrap(log, cls, "to_bytes", "protocol.codec", outermost=True)
        wrap(log, cls, "from_bytes", "protocol.codec", outermost=True)
    parse_traced = _wrap_function(
        log, messages.parse_message, "protocol.codec", outermost=True
    )
    import repro.net.node as node
    import repro.service.client as client
    import repro.service.daemon as daemon

    for module in (messages, daemon, client, node):
        if getattr(module, "parse_message", None) is not None:
            module.parse_message = parse_traced

    for attr in ("handle_que1", "handle_que2", "handle_rque"):
        wrap(log, ObjectEngine, attr, "protocol.object")
    wrap(log, ObjectEngine, "tick", "protocol.object.tick")
    for attr in (
        "start_round", "handle_res1_level1", "handle_res1", "handle_res2",
        "start_resumption", "handle_rres", "tick",
    ):
        wrap(log, SubjectEngine, attr, "protocol.subject")


def install_loop(log: SpanLog, loop: asyncio.AbstractEventLoop) -> None:
    """Span every loop iteration; the selector wait inside it is idle."""
    run_once = loop._run_once
    selector = loop._selector
    select = selector.select
    loop_id = log.intern("service.loop")
    idle_id = log.intern("idle")

    def traced_run_once():
        if not log.recording:
            return run_once()
        index = log.open(loop_id)
        try:
            return run_once()
        finally:
            log.close(index)

    def traced_select(timeout=None):
        if not log.recording:
            return select(timeout)
        index = log.open(idle_id)
        try:
            return select(timeout)
        finally:
            log.close(index)

    loop._run_once = traced_run_once
    selector.select = traced_select


def layer_of(name: str) -> str | None:
    if name == "idle":
        return None
    return name.split(".", 1)[0]


def layer_self_seconds(totals: dict[str, list]) -> dict[str, float]:
    """Sum self seconds per layer (``idle`` excluded)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_count, _inclusive, self_s) in totals.items():
        layer = layer_of(name)
        if layer is not None:
            out[layer] = out.get(layer, 0.0) + self_s
    return out
