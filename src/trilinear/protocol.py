"""Half-filled operating protocol with global-drive addressability.

Dots under a nanomagnet (MAGNET class, even axis positions) host qubits;
bare dots stay empty. A drive pulse at the bare-dot resonance rotates
exactly the qubits sitting on bare dots at that moment, so hopping a
single qubit one dot sideways before a global pulse addresses just that
qubit. Each shuttle hop imprints a configurable Z phase, which software
tracks as the qubit's virtual-Z frame (`advance_frame`).

Every protocol op returns its qubit home, so the placement that
`init_half_filled` makes never changes: an op reads the fixed
`ArrayState` and returns only its micro-ops. Which qubits a pulse rotates
is found by replaying the ops (`replay_rotations`). An op costs time in
the sites it touches, not the array size: a readout walks its row
directly. Planning is occupancy blind like the router, so a readout walk
ignores the qubits parked on its way and may end on another qubit's dot;
ROADMAP.md item 2 tracks making readouts collide with no qubit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from . import router
from .errors import CircuitError, NoAdjacentEmpty, Partitioned
from .router import DEFAULT_DURATIONS, Durations, MicroOp, MicroOpKind
from .topology import (
    NO_DEFECTS,
    DefectMap,
    SiteClass,
    SiteCoord,
    TrilinearLayout,
    site_class,
)

TWO_PI = 2.0 * math.pi

QubitId = int


@dataclass(frozen=True)
class PhaseConfig:
    """Z phase imprinted per shuttle hop, keyed by the destination class."""

    hop_phase_magnet: float = 0.0
    hop_phase_bare: float = 0.0

    def folded_hop_phase(self, site: SiteCoord) -> float:
        """The phase of a hop onto `site`, that of its class, folded into
        [0, 2π), so that a phase near the float limit neither overflows nor
        absorbs the frame it is added to."""
        magnet = site_class(site) is SiteClass.MAGNET
        return (self.hop_phase_magnet if magnet else self.hop_phase_bare) % TWO_PI


@dataclass(frozen=True)
class ArrayState:
    """Where each qubit is parked. Protocol ops read it and never change it.

    `position` is the one record; `occupancy` (its inverse) and `by_class`
    (its qubits split by the resonance class of their dot) are derived
    from it on first use."""

    layout: TrilinearLayout
    position: dict[QubitId, SiteCoord]

    @cached_property
    def occupancy(self) -> dict[SiteCoord, QubitId]:
        return {site: qubit for qubit, site in self.position.items()}

    @cached_property
    def by_class(self) -> dict[SiteClass, frozenset[QubitId]]:
        return {cls: frozenset(q for q, site in self.position.items() if site_class(site) is cls)
                for cls in SiteClass}

    def qubit_at(self, site: SiteCoord) -> Optional[QubitId]:
        return self.occupancy.get(site)


@lru_cache(maxsize=8)
def init_half_filled(layout: TrilinearLayout, defects: DefectMap = NO_DEFECTS) -> ArrayState:
    """Place one qubit on every alive magnet-class outer dot.

    Qubit ids count up the Upper row by axis and sub-row, then the Lower
    row. Bare dots and the whole Middle row start empty. Cached on the
    frozen (layout, defects): the state is only ever read, never changed.
    """
    sites = (site for site in layout.outer_sites()
             if site_class(site) is SiteClass.MAGNET and not defects.is_dead(site))
    return ArrayState(layout, dict(enumerate(sites)))


def add_hops(frame: float, hops: Iterable[float]) -> float:
    """A virtual-Z frame, in [0, 2π), after hops of the folded phases `hops`."""
    for h in hops:
        frame = (frame + h) % TWO_PI
    return frame


def advance_frame(frame: float, ops: Iterable[MicroOp], phases: PhaseConfig) -> float:
    """A qubit's virtual-Z frame, in [0, 2π), after the hops among `ops`:
    each takes `phases.folded_hop_phase` of its destination."""
    return add_hops(frame, [phases.folded_hop_phase(op.dst) for op in ops if op.is_move])


def _pulse_op(target_class: SiteClass, rotation, site: SiteCoord,
              durations: Durations) -> MicroOp:
    return MicroOp(MicroOpKind.SINGLE_QUBIT_PULSE, (site,),
                   durations.single_qubit_pulse,
                   freq_class=target_class.value, param=rotation)


def addressed_single_qubit_gate(
    state: ArrayState,
    qubit: QubitId,
    rotation,
    defects: DefectMap = NO_DEFECTS,
    durations: Durations = DEFAULT_DURATIONS,
) -> list[MicroOp]:
    """Rotate one qubit with a global pulse: hop to a free neighboring bare
    dot, pulse the bare-dot resonance, hop back.

    The pulse also rotates any other qubit on a bare dot; in the
    half-filled placement there is none. Raises NoAdjacentEmpty when both
    same-row neighbors are unavailable.
    """
    home = state.position[qubit]
    if site_class(home) is not SiteClass.MAGNET:
        raise NoAdjacentEmpty(f"qubit {qubit} is not parked on a magnet-class dot")
    layout = state.layout
    for delta in (1, -1):
        axis = layout.step_axis(home.axis, delta)
        if axis is None:
            continue
        target = SiteCoord(home.row, axis, home.subrow)
        if (site_class(target) is SiteClass.BARE and not defects.is_dead(target)
                and not defects.barrier_dead(home, target)
                and state.qubit_at(target) is None):
            break
    else:
        raise NoAdjacentEmpty(f"no free bare dot next to qubit {qubit} at {home}")
    moves = router._moves(layout, durations)
    return [moves[home, target], _pulse_op(SiteClass.BARE, rotation, target, durations),
            moves[target, home]]


@dataclass(frozen=True)
class ReadoutFixture:
    """Charge-sensor positions along both outer rows.

    Sensors sit at the same axis positions on each side; a readout shuttles
    the qubit along its own row to the nearest sensor dot.
    """

    axes: tuple[int, ...]
    spacing: int

    @cached_property
    def sorted_axes(self) -> tuple[int, ...]:
        return tuple(sorted(self.axes))

    @classmethod
    def from_spacing(cls, layout: TrilinearLayout, spacing: Optional[int] = None) -> "ReadoutFixture":
        if spacing is None:
            spacing = max(1, layout.grid.cols // 2)
        elif type(spacing) is not int or spacing < 1:  # a type check, as in `Durations`
            raise CircuitError(f"set_spacing: expected an integer >= 1, got {spacing!r}")
        return cls(axes=tuple(range(0, layout.length, spacing)), spacing=spacing)


def readout(
    state: ArrayState,
    qubit: QubitId,
    fixture: ReadoutFixture,
    defects: DefectMap = NO_DEFECTS,
    durations: Durations = DEFAULT_DURATIONS,
) -> list[MicroOp]:
    """Shuttle a qubit to its nearest usable sensor dot, read it out, and
    shuttle back the same way. Raises Partitioned when every sensor dot is
    dead.

    The walk ignores the qubits parked on its way: it may pass through,
    or read out on, another qubit's dot (see ROADMAP.md item 2).
    """
    layout = state.layout
    home = state.position[qubit]
    target = _nearest_sensor(layout, fixture, home, defects)
    path = router.shortest_shuttle_path(layout, home, target, defects)
    return (router._path_ops(layout, path, durations)
            + [MicroOp(MicroOpKind.READOUT, (target,), durations.readout)]
            + router._path_ops(layout, path[::-1], durations))


def _nearest_sensor(layout: TrilinearLayout, fixture: ReadoutFixture, home: SiteCoord,
                    defects: DefectMap) -> SiteCoord:
    """The usable sensor dot on `home`'s row nearest to it, the lower axis on
    a tie. One walker goes each way from `home` over the sorted sensor axes,
    wrapping on loops; the first usable axis each meets is the nearest on
    that side."""
    axes = fixture.sorted_axes
    n = len(axes)
    start = bisect_left(axes, home.axis)
    best: Optional[tuple[int, int]] = None
    for first, step in ((start, 1), (start - 1, -1)):
        for k in range(n):
            i = first + step * k
            if not layout.loop and not 0 <= i < n:
                break
            site = SiteCoord(home.row, axes[i % n], home.subrow)
            if layout.in_bounds(site) and not defects.is_dead(site):
                found = (layout.axis_distance(home.axis, site.axis), site.axis)
                best = found if best is None else min(best, found)
                break
    if best is None:
        raise Partitioned("no usable sensor dot reachable for readout")
    return SiteCoord(home.row, best[1], home.subrow)


# ----------------------------------------------------------------------
# Replay and reporting

@dataclass(frozen=True)
class AddressabilityReport:
    intended: frozenset[QubitId]
    rotated: frozenset[QubitId]

    @property
    def bystanders(self) -> frozenset[QubitId]:
        return self.rotated - self.intended

    @property
    def ok(self) -> bool:
        return self.rotated == self.intended


def replay_rotations(state: ArrayState, ops: Iterable[MicroOp]) -> dict[int, set[QubitId]]:
    """Walk a micro-op sequence over the placement and return, per pulse
    index, the set of qubits that pulse rotates. Only the qubits the ops
    move are tracked, in local dicts over the fixed placement."""
    occupied: dict[SiteCoord, Optional[QubitId]] = {}  # sites the ops touched
    moved: dict[QubitId, SiteCoord] = {}
    rotated: dict[int, set[QubitId]] = {}
    for i, op in enumerate(ops):
        if op.is_move:
            src = op.src
            qubit = occupied[src] if src in occupied else state.occupancy.get(src)
            if qubit is not None:
                occupied[src] = None
                occupied[op.dst] = qubit
                moved[qubit] = op.dst
        elif op.kind is MicroOpKind.SINGLE_QUBIT_PULSE and op.freq_class is not None:
            cls = SiteClass(op.freq_class)
            hit = {q for q in state.by_class[cls] if q not in moved}
            hit.update(q for q, site in moved.items() if site_class(site) is cls)
            rotated[i] = hit
    return rotated


def audit_addressed_gate(state: ArrayState, qubit: QubitId,
                         ops: Iterable[MicroOp]) -> AddressabilityReport:
    rotated = frozenset().union(*replay_rotations(state, ops).values())
    return AddressabilityReport(intended=frozenset({qubit}), rotated=rotated)
