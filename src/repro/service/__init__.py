"""Real-transport async service path (ROADMAP item 1).

The protocol engines are sans-IO (:mod:`repro.protocol.object` /
:mod:`repro.protocol.subject`); everything that has run through them so
far — unit tests, the attack harness, the discrete-event simulator —
shares one in-process wire.  This package puts the *same* engines on
real sockets:

* :mod:`repro.service.framing` — datagram framing shared by every
  endpoint (UDP carries one self-tagged frame per datagram, no extra
  header: every Argus flight fits one datagram);
* :mod:`repro.service.daemon` — :class:`ObjectServiceDaemon`, an
  asyncio UDP object daemon that answers the full
  QUE1→RES1→QUE2→RES2 and RQUE→RRES flights and applies backend update
  pushes (revocations, ``TYPE_BUNDLE``, ``TYPE_LKH_REKEY``);
* :mod:`repro.service.client` — :class:`SubjectServiceClient`, the
  async subject SDK reusing :class:`repro.net.run.RetryPolicy`
  semantics (exponential backoff + jitter from an injected RNG,
  bounded give-up counted once per exchange) over real transports;
* :mod:`repro.service.update_stream` — :class:`UpdateStreamPusher`,
  the backend-side stop-and-wait push channel with ACKs and
  outage buffering, so LKH rekey broadcasts survive lost/reordered
  delivery;
* :mod:`repro.service.chaos` — :class:`ChaosProxy` and
  :class:`ChaosController`, the socket-level chaos harness replaying
  the deterministic :class:`repro.net.faults.FaultSchedule` vocabulary
  against live loopback sockets.

docs/service.md covers the daemon lifecycle, client timeout model and
chaos-proxy usage; docs/robustness.md has the simulator-vs-live fault
matrix.
"""

from repro.service.chaos import ChaosController, ChaosProxy, ServiceChaosHarness
from repro.service.client import ClientStats, SubjectServiceClient
from repro.service.daemon import ObjectServiceDaemon
from repro.service.framing import MAX_DATAGRAM, FrameKind, classify_frame
from repro.service.update_stream import UpdateStreamPusher

__all__ = [
    "ChaosController",
    "ChaosProxy",
    "ClientStats",
    "FrameKind",
    "MAX_DATAGRAM",
    "ObjectServiceDaemon",
    "ServiceChaosHarness",
    "SubjectServiceClient",
    "UpdateStreamPusher",
    "classify_frame",
]
