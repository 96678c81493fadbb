"""Operation metering: count cryptographic operations as they happen.

The simulator's ``calibrated`` timing mode (DESIGN.md §4) needs to know
how many expensive operations each protocol step performed so it can
advance the simulated clock by the paper-hardware cost of those
operations (:mod:`repro.crypto.costmodel`). Rather than having every
engine predict its own op counts analytically — which would silently
drift from the real code — the crypto wrappers *report* each operation
to the active meter, and the simulator reads the totals.

Metering is opt-in and context-local (safe under nested use). When no
meter is active, :func:`record` is a **single boolean check** — the
instrumentation must not tax the hot path it exists to measure, so the
fast path avoids even the contextvar lookup. Two ways to activate:

* :func:`metered` — a context manager scoping a fresh meter to a block
  (what the discovery orchestrator and simulator use).
* :func:`enable` / :func:`disable` / :func:`reset` — an explicit global
  meter for long-running processes (benchmarks, services) that want
  cumulative totals without wrapping every call site in a ``with``.

Cache-visibility convention (docs/performance.md): the hot-path caches
(:mod:`repro.crypto.keypool`, :mod:`repro.pki.profile`,
:mod:`repro.pki.chain`) still record the *logical* operation on a cache
hit — a warm handshake meters the same ``ecdsa_verify``/``ecdh_gen``
totals the paper's §IX-B accounting expects — and additionally record a
companion counter (``profile_verify_cached``, ``cert_verify_cached``,
``ecdh_pool_hit``/``ecdh_pool_miss``) so benchmarks can tell how much of
that logical work was actually served from cache.
"""

from __future__ import annotations

import contextvars
import threading
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

_active: contextvars.ContextVar["OpMeter | None"] = contextvars.ContextVar(
    "active_op_meter", default=None
)

# Fast-path switch: True iff any metered() block is live or a global
# meter is enabled. record() checks only this before bailing out.
_enabled: bool = False
_depth: int = 0
_global: "OpMeter | None" = None
_state_lock = threading.Lock()


class OpMeter:
    """A tally of crypto operations, keyed by ``(op, strength)``.

    ``strength`` is 0 for strength-independent operations (HMAC, AES,
    pairing-group ops).
    """

    def __init__(self) -> None:
        self.counts: Counter[tuple[str, int]] = Counter()

    def add(self, op: str, strength: int = 0, n: int = 1) -> None:
        self.counts[(op, strength)] += n

    def total(self, op: str) -> int:
        """Total count of *op* across all strengths."""
        return sum(n for (name, _), n in self.counts.items() if name == op)

    def merge(self, other: "OpMeter") -> None:
        self.counts.update(other.counts)

    def snapshot(self) -> dict[tuple[str, int], int]:
        return dict(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(f"{op}@{s}:{n}" for (op, s), n in sorted(self.counts.items()))
        return f"OpMeter({items})"


def _sync_enabled() -> None:
    global _enabled
    _enabled = _depth > 0 or _global is not None


def record(op: str, strength: int = 0, n: int = 1) -> None:
    """Report *n* occurrences of *op* to the active meter, if any.

    When metering is off this returns after one global-flag check; the
    contextvar lookup only happens while some meter is live.
    """
    if not _enabled:
        return
    active = _active.get()
    if active is None:
        active = _global
    if active is not None:
        active.add(op, strength, n)


def is_enabled() -> bool:
    """True iff :func:`record` currently reaches any meter."""
    return _enabled


def enable(target: "OpMeter | None" = None) -> OpMeter:
    """Activate (or replace) the process-global meter and return it.

    Unlike :func:`metered`, the global meter stays active until
    :func:`disable` — use it for cumulative totals across a long run.
    ``metered()`` blocks still take precedence while they are open; their
    counts are folded into the global meter on exit so global totals stay
    complete.
    """
    global _global
    with _state_lock:
        _global = target if target is not None else OpMeter()
        _sync_enabled()
        return _global


def disable() -> "OpMeter | None":
    """Deactivate the global meter; returns it (with its totals), if any."""
    global _global
    with _state_lock:
        old = _global
        _global = None
        _sync_enabled()
        return old


def reset() -> None:
    """Clear the global meter's totals (no-op when disabled)."""
    with _state_lock:
        if _global is not None:
            _global.counts.clear()


def global_meter() -> "OpMeter | None":
    """The currently-enabled global meter, if any."""
    return _global


@contextmanager
def metered() -> Iterator[OpMeter]:
    """Activate a fresh meter for the duration of the block.

    Nested ``metered()`` blocks each see only their own operations; the
    inner block's counts are folded into the outer meter on exit so
    outer totals stay complete. If a global meter (:func:`enable`) is
    active and there is no outer block, the counts fold into it instead.
    """
    global _depth
    inner = OpMeter()
    outer = _active.get()
    with _state_lock:
        _depth += 1
        _sync_enabled()
    token = _active.set(inner)
    try:
        yield inner
    finally:
        _active.reset(token)
        with _state_lock:
            _depth -= 1
            _sync_enabled()
        if outer is not None:
            outer.merge(inner)
        elif _global is not None:
            _global.merge(inner)
