"""Real-transport async service path: the same engines on UDP sockets.

The protocol engines are sans-IO (:mod:`repro.protocol.object` /
:mod:`repro.protocol.subject`); the simulator drives them in-process,
and this package puts the *same* engines on real sockets:

* :mod:`repro.service.framing` — one self-tagged frame per datagram;
* :mod:`repro.service.daemon` — :class:`ObjectServiceDaemon`, the
  object side, including backend update pushes;
* :mod:`repro.service.client` — :class:`SubjectServiceClient`, the
  async subject SDK, on the simulator's subject-side tracker;
* :mod:`repro.service.update_stream` — :class:`UpdateStreamPusher`,
  the backend's stop-and-wait push channel;
* :mod:`repro.service.requester` — the socket base the client and the
  pusher share, re-sending requests through a
  :class:`~repro.net.retry.Retransmissions` table;
* :mod:`repro.service.chaos` — :class:`ChaosProxy` and friends, the
  simulator's :class:`~repro.net.faults.FaultSchedule` replayed against
  live loopback sockets.

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
