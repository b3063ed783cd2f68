"""Spans around the package's public functions, recorded from outside.

`Tracer.install()` replaces each traced function at the name its caller
looks up (a module attribute) with a wrapper that records a span, and
`uninstall()` puts every original back. A name that no longer exists is
skipped, so its metrics read 0 calls instead of failing the run. Spans
stay in memory until the run writes them out.

A span's self time is its duration minus the part of it that its direct
children cover; children of one span never overlap, because everything
runs on one thread.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    circuit: Optional[int] = None
    call_index: Optional[int] = None
    info: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "circuit": self.circuit, "call": self.call_index,
                **self.info}


def _count_sacrificed(args, result) -> dict:
    return {"sacrificed": len(result.sacrificed_qubits)}


def _count_compile(args, result) -> dict:
    return {"jobs": len(args[0].ops), "micro_ops": len(result.ops),
            "op_ticks": sum(s.op.duration_ticks for s in result.ops),
            "makespan": result.makespan}


def _count_path(args, result) -> dict:
    return {"sites": len(result)}


def _count_audit(args, result) -> dict:
    return {"ok": bool(result.ok)}


# (module, attribute, span name, what to record from the call)
TRACED: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("trilinear.scheduler", "compile", "scheduler.compile", _count_compile),
    ("trilinear.scheduler", "schedule_to_json", "scheduler.schedule_to_json", None),
    ("trilinear.scheduler", "summary_to_csv", "scheduler.summary_to_csv", None),
    ("trilinear.scheduler", "waveform_usage", "scheduler.waveform_usage", None),
    ("trilinear.scheduler", "validate_schedule", "scheduler.validate_schedule", None),
    ("trilinear.scheduler", "plan_two_qubit", "router.plan_two_qubit", None),
    ("trilinear.scheduler", "reconfigure_for_defects", "router.reconfigure_for_defects",
     _count_sacrificed),
    ("trilinear.router", "gate_shuttle_plan", "router.gate_shuttle_plan", None),
    ("trilinear.router", "shortest_shuttle_path", "router.shortest_shuttle_path",
     _count_path),
    ("trilinear.protocol", "init_half_filled", "protocol.init_half_filled", None),
    ("trilinear.protocol", "addressed_single_qubit_gate",
     "protocol.addressed_single_qubit_gate", None),
    ("trilinear.protocol", "audit_addressed_gate", "protocol.audit_addressed_gate",
     _count_audit),
    ("trilinear.protocol", "readout", "protocol.readout", None),
)


class Tracer:
    def __init__(self, traced=TRACED) -> None:
        self.traced = traced
        self.spans: list[Span] = []
        # Tags for the spans opened next: the job index and the call number.
        self.circuit: Optional[int] = None
        self.call_index: Optional[int] = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent=parent,
                    circuit=self.circuit, call_index=self.call_index)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of its own."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn, observe: Optional[Callable]):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    span.info.update(observe(args, result))
                return result
            finally:
                self.close(span)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, observe in self.traced:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# Self time

def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def nesting_errors(spans: list[Span], selfs: dict[int, float],
                   tol: float = 1e-9) -> list[str]:
    """Spans whose children stick out of them or overlap, or whose self
    time plus children's durations differs from their own duration."""
    by_id = {s.id: s for s in spans}
    child_sum: dict[int, float] = {}
    for s in spans:
        if s.parent is None:
            continue
        p = by_id[s.parent]
        if s.start < p.start or s.end > p.end:
            return [f"span {s.id} ({s.name}) lies outside its parent {p.id}"]
        child_sum[s.parent] = child_sum.get(s.parent, 0.0) + (s.end - s.start)
    errors = []
    for s in spans:
        if abs(selfs[s.id] + child_sum.get(s.id, 0.0) - (s.end - s.start)) > tol:
            errors.append(f"span {s.id} ({s.name}): self plus children != duration")
    return errors
