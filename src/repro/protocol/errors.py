"""Protocol error taxonomy.

Engines raise (or record) these instead of generic exceptions so tests
and the attack harness can assert *why* a handshake failed — e.g. an
impostor must fail with :class:`AuthenticationError`, not a decode error.
"""

from __future__ import annotations


class ProtocolError(Exception):
    """Base class for every protocol failure."""


class MessageFormatError(ProtocolError):
    """A message could not be parsed or had ill-sized fields."""


class AuthenticationError(ProtocolError):
    """A certificate chain, signature, or finished-MAC failed to verify."""


class FreshnessError(ProtocolError):
    """A duplicate or replayed nonce/message was detected."""


class RevokedError(ProtocolError):
    """The peer's credentials were revoked by the backend."""


class SessionError(ProtocolError):
    """A message arrived for an unknown, closed, or mismatched session."""


class VisibilityError(ProtocolError):
    """No PROF variant is visible to this subject (engine drops silently)."""


#: Recorded errors an engine keeps in ``errors``; past it the oldest
#: half is dropped in one slice, so recording stays amortised O(1).
ERROR_LOG_LIMIT = 1024


class ErrorLog:
    """The bounded failure record both protocol engines keep.

    Engines stay silent on the wire (§III service information secrecy),
    so ``errors`` is where tests and diagnostics learn why.  Only the
    newest ``ERROR_LOG_LIMIT`` are kept; ``errors_recorded`` counts all
    of them (see :meth:`errors_since`), so hostile input can grow
    neither side's log without bound.
    """

    def __init__(self) -> None:
        self.errors: list[Exception] = []
        self.errors_recorded = 0

    def record_wire_error(self, error: Exception) -> None:
        """The transport saw garbage addressed to us (corrupted frame)."""
        self._record(error)

    def errors_since(self, mark: int) -> list[Exception]:
        """The kept errors recorded after ``errors_recorded`` read *mark*."""
        fresh = self.errors_recorded - mark
        return self.errors[-fresh:] if fresh > 0 else []

    def _record(self, error: Exception) -> None:
        self.errors.append(error)
        self.errors_recorded += 1
        if len(self.errors) > ERROR_LOG_LIMIT:
            del self.errors[: len(self.errors) - (ERROR_LOG_LIMIT + 1) // 2]
