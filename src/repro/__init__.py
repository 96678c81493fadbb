"""Argus reproduction: multi-level IoT service visibility scoping.

A full implementation of the IPPS 2020 paper "Argus: Multi-Level Service
Visibility Scoping for Internet-of-Things in Enterprise Environments"
(Zhou, Pandey, Ye): the 3-in-1 discovery protocol (public /
differentiated / covert visibility), the enterprise backend, the
ID-ACL / CP-ABE / PBC baselines, a discrete-event wireless testbed
simulator, an attack harness for the §VII security analysis, and
experiment runners regenerating every table and figure of §VIII–IX.

Quickstart::

    from repro import Backend, discover

    backend = Backend()
    backend.add_sensitive_policy("sensitive:needs-support", "sensitive:serves-support")
    user = backend.register_subject("alice", {"position": "manager"})
    lock = backend.register_object(
        "lock-1", {"type": "door lock"}, level=2, functions=("open",),
        variants=[("position=='manager'", ("open", "close"))],
    )
    result = discover(user, [lock])
    for service in result.services:
        print(service.object_id, service.level_seen, service.functions)

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

import importlib

from repro.attributes import AttributeSet, parse_predicate
from repro.backend import Backend, ChurnEngine
from repro.protocol import (
    DiscoveredService,
    DiscoveryResult,
    ObjectEngine,
    SubjectEngine,
    Version,
    discover,
)

__version__ = "1.0.0"

#: names imported on first access (PEP 562), so the live service path,
#: which imports this package, never loads the simulator
_EXPORTS = {"simulate_discovery": "repro.net.run"}

__all__ = [
    "AttributeSet",
    "Backend",
    "ChurnEngine",
    "DiscoveredService",
    "DiscoveryResult",
    "ObjectEngine",
    "SubjectEngine",
    "Version",
    "discover",
    "parse_predicate",
    "simulate_discovery",
    "__version__",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
