"""Run traces: record every delivery/processing event of a simulation.

Attach a :class:`Tracer` to a :class:`~repro.net.node.GroundNetwork`
before running; afterwards it renders a readable timeline (who sent what
to whom, when) — the tool you want when a discovery run does something
surprising, and the basis of the trace-based assertions in the tests
(e.g. "no Level 3 marker ever appears on the air").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.node import GroundNetwork


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str          # "deliver" | "processed"
    src: str
    dst: str
    message_type: str

    def render(self) -> str:
        arrow = "->" if self.kind == "deliver" else "=="
        return f"{self.time:9.4f}s  {self.src:>10} {arrow} {self.dst:<10} {self.message_type}"


@dataclass
class Tracer:
    events: list[TraceEvent] = field(default_factory=list)

    def attach(self, net: GroundNetwork) -> "Tracer":
        """Install hooks (chaining any already present)."""
        prev_delivery = net.on_delivery
        prev_processed = net.on_processed

        def on_delivery(t: float, src: str, dst: str, message) -> None:
            self.events.append(
                TraceEvent(t, "deliver", src, dst, type(message).__name__)
            )
            if prev_delivery is not None:
                prev_delivery(t, src, dst, message)

        def on_processed(t: float, node: str, src: str, message) -> None:
            self.events.append(
                TraceEvent(t, "processed", node, node, type(message).__name__)
            )
            if prev_processed is not None:
                prev_processed(t, node, src, message)

        net.on_delivery = on_delivery
        net.on_processed = on_processed
        return self

    # -- queries -------------------------------------------------------------------

    def deliveries(self, message_type: str | None = None) -> list[TraceEvent]:
        return [
            e for e in self.events
            if e.kind == "deliver"
            and (message_type is None or e.message_type == message_type)
        ]

    def count(self, message_type: str) -> int:
        return len(self.deliveries(message_type))

    def message_types_seen(self) -> set[str]:
        return {e.message_type for e in self.events if e.kind == "deliver"}

    def first(self, message_type: str) -> TraceEvent | None:
        hits = self.deliveries(message_type)
        return hits[0] if hits else None

    def render(self, limit: int | None = None) -> str:
        rows = self.events if limit is None else self.events[:limit]
        return "\n".join(event.render() for event in rows)
