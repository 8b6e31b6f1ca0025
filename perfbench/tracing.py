"""Spans around the calls into each gdg_sim module, installed from outside.

The tracer replaces module attributes and two EvolvingRing methods with
wrappers while it is active and restores them on exit. Because Python looks
up module globals at call time, wrapping ``sim_engine.step`` also catches
the calls ``sim_engine.run`` and the adversary make to it.

Spans are aggregated in memory by name: call count, total (inclusive) time
and self time, which is the total minus the time of spans nested in it.
"""

from __future__ import annotations

import time
from collections import Counter

MODULES = ("ring_model", "gdg_protocol", "sim_engine", "adversary", "checkers")


def _targets():
    # Imported here, after set-up has imported the package under test.
    from gdg_sim import adversary, checkers, gdg_protocol, ring_model, sim_engine

    spans = [
        (ring_model.EvolvingRing, "__post_init__", "ring_model.ring_init"),
        (ring_model, "verify_class", "ring_model.verify_class"),
        (adversary, "verify_class", "ring_model.verify_class"),  # called by generate
        (ring_model, "remove_edge_interval", "ring_model.remove_edge_interval"),
        (adversary, "generate", "adversary.generate"),
        (adversary, "adaptive_ac_adversary", "adversary.adaptive_ac_adversary"),
        (gdg_protocol, "compute", "gdg_protocol.compute"),
        (gdg_protocol, "first_enabled_rule", "gdg_protocol.first_enabled_rule"),
        (gdg_protocol, "apply_rule", "gdg_protocol.apply_rule"),
        (sim_engine, "run", "sim_engine.run"),
        (sim_engine, "step", "sim_engine.step"),
        (sim_engine, "build_view", "sim_engine.build_view"),
        (sim_engine, "trace_to_jsonl", "sim_engine.trace_to_jsonl"),
        (sim_engine, "trace_from_jsonl", "sim_engine.trace_from_jsonl"),
        (checkers, "check_variant", "checkers.check_variant"),
        (checkers, "check_safety", "checkers.check_safety"),
        (checkers, "monitor_invariants", "checkers.monitor_invariants"),
    ]
    # Counted but not timed: a span per snapshot would cost more than the call.
    counts = [(ring_model.EvolvingRing, "snapshot", "ring_model.snapshot")]
    return spans, counts


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.own: Counter[str] = Counter()
        # Child time of each open span; the bottom entry collects the time
        # of outermost spans, i.e. all time spent inside the package.
        self._open = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    @property
    def covered(self) -> float:
        """Seconds spent inside outermost spans so far."""
        return self._open[0]

    def module_self(self, module: str) -> float:
        return sum(t for name, t in self.own.items() if name.startswith(module + "."))

    def _span(self, name: str, fn):
        clock, stack, calls, total, own = (
            time.perf_counter, self._open, self.calls, self.total, self.own,
        )

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = stack.pop()
                stack[-1] += took
                calls[name] += 1
                total[name] += took
                own[name] += took - child

        return traced

    def _count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        spans, counts = _targets()
        for wrap, targets in ((self._span, spans), (self._count, counts)):
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
