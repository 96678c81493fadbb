"""The ground-network substrate: discrete-event wireless simulation.

Replaces the paper's Nexus 6 + 20 Raspberry Pi WiFi testbed (see
DESIGN.md §5). The simulator drives the *same* sans-IO protocol engines
as the in-memory path, with a calibrated link model and per-device
crypto cost tables, so Fig. 6(e)–(h)'s discovery-time experiments can be
regenerated on a laptop.

Each public name below is imported from its submodule on first access
(PEP 562), so importing :mod:`repro.net.retry` or :mod:`repro.net.faults`
-- as the live service path does -- loads neither the simulator nor the
topologies.
"""

from __future__ import annotations

import importlib

#: public name -> the submodule that defines it
_EXPORTS = {
    "Fault": "repro.net.faults",
    "FaultKind": "repro.net.faults",
    "FaultLayer": "repro.net.faults",
    "FaultSchedule": "repro.net.faults",
    "UpdateOutageBuffer": "repro.net.faults",
    "burst_loss_schedule": "repro.net.faults",
    "GroundNetwork": "repro.net.node",
    "SimNode": "repro.net.node",
    "SizeMode": "repro.net.node",
    "TimingMode": "repro.net.node",
    "message_size": "repro.net.node",
    "DEFAULT_WIFI": "repro.net.radio",
    "JITTERY_WIFI": "repro.net.radio",
    "LinkModel": "repro.net.radio",
    "Radio": "repro.net.radio",
    "RetryPolicy": "repro.net.retry",
    "DiscoveryTimeline": "repro.net.run",
    "simulate_discovery": "repro.net.run",
    "SimulationBudgetExceeded": "repro.net.simulator",
    "Simulator": "repro.net.simulator",
    "SUBJECT": "repro.net.topology",
    "hop_distance": "repro.net.topology",
    "multihop": "repro.net.topology",
    "paper_multihop": "repro.net.topology",
    "star": "repro.net.topology",
}

__all__ = [
    "DEFAULT_WIFI",
    "DiscoveryTimeline",
    "Fault",
    "FaultKind",
    "FaultLayer",
    "FaultSchedule",
    "GroundNetwork",
    "JITTERY_WIFI",
    "LinkModel",
    "Radio",
    "RetryPolicy",
    "SUBJECT",
    "SimNode",
    "SimulationBudgetExceeded",
    "Simulator",
    "SizeMode",
    "TimingMode",
    "UpdateOutageBuffer",
    "burst_loss_schedule",
    "hop_distance",
    "message_size",
    "multihop",
    "paper_multihop",
    "simulate_discovery",
    "star",
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
