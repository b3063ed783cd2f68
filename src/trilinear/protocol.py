"""Half-filled operating protocol with global-drive addressability.

Dots under a nanomagnet (MAGNET class, even axis positions) host qubits;
bare dots stay empty. A drive pulse at the bare-dot resonance rotates
exactly the qubits sitting on bare dots at that moment, so hopping a
single qubit one dot sideways before a global pulse addresses just that
qubit. Each shuttle hop imprints a configurable Z phase which is logged
and immediately compensated in software (virtual Z), leaving the net
ledger phase at zero after every completed operation.

State is tracked symbolically: occupancy, per-qubit rotation logs, and a
Z-phase ledger of one accumulated phase per qubit, whose negation is the
compensation. Operations are pure: they return a new state, leaving the
input untouched. An op costs time in the qubits and sites it touches, not
the array size: qubits are indexed by resonance class, a result shares
what the op leaves unchanged with its input, and a readout walks its row
directly. Planning is occupancy blind like the router; composing many
protocol operations in parallel is the scheduler's concern.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from . import router
from .errors import NoAdjacentEmpty, Partitioned
from .router import DEFAULT_DURATIONS, Durations, MicroOp, MicroOpKind, move_op
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

    def hop_phase(self, cls: SiteClass) -> float:
        return self.hop_phase_magnet if cls is SiteClass.MAGNET else self.hop_phase_bare


NO_PHASES = PhaseConfig()


@dataclass
class ArrayState:
    """Occupancy, rotation logs and the virtual-Z ledger.

    The ledger keeps one accumulated phase per qubit; the compensation is
    its negation, applied as each hop happens.

    States share structure: an op's result shares with its input every
    dict and set the op leaves unchanged, and every log list. So no state
    is written in place once an op has returned it: `_move` runs only on a
    `copy()`, which copies every container, and a log is replaced
    (`_log_rotation`), never appended to in place. `_move` keeps the
    `by_class` index in step."""

    layout: TrilinearLayout
    occupancy: dict[SiteCoord, QubitId] = field(default_factory=dict)
    position: dict[QubitId, SiteCoord] = field(default_factory=dict)
    accumulated_phase: dict[QubitId, float] = field(default_factory=dict)
    rotation_log: dict[QubitId, list] = field(default_factory=dict)
    by_class: dict[SiteClass, set[QubitId]] = field(
        default_factory=lambda: {cls: set() for cls in SiteClass})

    def copy(self) -> "ArrayState":
        return ArrayState(
            layout=self.layout,
            occupancy=dict(self.occupancy),
            position=dict(self.position),
            accumulated_phase=dict(self.accumulated_phase),
            rotation_log=dict(self.rotation_log),
            by_class={cls: set(qs) for cls, qs in self.by_class.items()},
        )

    def _restored(self, logs: bool) -> "ArrayState":
        """The result of an op that restores occupancy: it shares occupancy,
        position and by_class, and owns its ledger dict, and its rotation
        log dict when `logs` (the op's log lists are shared still)."""
        return ArrayState(
            layout=self.layout,
            occupancy=self.occupancy,
            position=self.position,
            accumulated_phase=dict(self.accumulated_phase),
            rotation_log=dict(self.rotation_log) if logs else self.rotation_log,
            by_class=self.by_class,
        )

    def qubit_at(self, site: SiteCoord) -> Optional[QubitId]:
        return self.occupancy.get(site)

    @property
    def compensation(self) -> dict[QubitId, float]:
        """The virtual-Z correction per qubit: the accumulated phase negated."""
        return {q: -a for q, a in self.accumulated_phase.items()}

    def net_phase(self, qubit: QubitId) -> float:
        a = self.accumulated_phase[qubit]
        return (a + -a) % TWO_PI

    def qubits_on_class(self, cls: SiteClass) -> set[QubitId]:
        return set(self.by_class[cls])

    def _move(self, qubit: QubitId, dst: SiteCoord, phases: PhaseConfig) -> None:
        src = self.position[qubit]
        del self.occupancy[src]
        self.occupancy[dst] = qubit
        self.position[qubit] = dst
        self.by_class[site_class(src)].remove(qubit)
        self.by_class[site_class(dst)].add(qubit)
        self.accumulated_phase[qubit] += phases.hop_phase(site_class(dst))

    def _log_rotation(self, qubits: Iterable[QubitId], rotation) -> None:
        for qubit in qubits:
            self.rotation_log[qubit] = self.rotation_log[qubit] + [rotation]


def init_half_filled(layout: TrilinearLayout, defects: DefectMap = NO_DEFECTS) -> ArrayState:
    """Place one qubit on every alive magnet-class outer dot.

    Qubit ids count up the Upper row by axis and sub-row, then the Lower
    row. Bare dots and the whole Middle row start empty; the ledger is
    zeroed.
    """
    state = ArrayState(layout=layout)
    qid = 0
    for site in layout.outer_sites():
        if site_class(site) is not SiteClass.MAGNET or defects.is_dead(site):
            continue
        state.occupancy[site] = qid
        state.position[qid] = site
        state.accumulated_phase[qid] = 0.0
        state.rotation_log[qid] = []
        state.by_class[SiteClass.MAGNET].add(qid)
        qid += 1
    return state


def apply_global_esr(state: ArrayState, target_class: SiteClass, rotation) -> ArrayState:
    """Globally drive one resonance class: every qubit parked or in transit
    on a site of that class logs the rotation; all others are untouched."""
    new = state._restored(logs=True)
    new._log_rotation(state.by_class[target_class], rotation)
    return new


def _pulse_op(target_class: SiteClass, rotation, site: SiteCoord,
              durations: Durations) -> MicroOp:
    return MicroOp(MicroOpKind.SINGLE_QUBIT_PULSE, (site,),
                   durations.single_qubit_pulse,
                   freq_class=target_class.value, param=rotation)


def addressed_single_qubit_gate(
    state: ArrayState,
    qubit: QubitId,
    rotation,
    phases: PhaseConfig = NO_PHASES,
    defects: DefectMap = NO_DEFECTS,
    durations: Durations = DEFAULT_DURATIONS,
) -> tuple[list[MicroOp], ArrayState]:
    """Rotate one qubit with a global pulse: hop to a free neighboring bare
    dot, pulse the bare-dot resonance, hop back.

    Both hops imprint and immediately compensate the configured Z phase,
    so the net ledger stays at zero and occupancy is restored. Raises
    NoAdjacentEmpty when both same-row neighbors are unavailable.
    """
    home = state.position[qubit]
    if site_class(home) is not SiteClass.MAGNET:
        raise NoAdjacentEmpty(f"qubit {qubit} is not parked on a magnet-class dot")
    layout = state.layout
    target: Optional[SiteCoord] = None
    for delta in (1, -1):
        axis = layout.step_axis(home.axis, delta)
        if axis is None:
            continue
        cand = SiteCoord(home.row, axis, home.subrow)
        if (site_class(cand) is SiteClass.BARE and not defects.is_dead(cand)
                and not defects.barrier_dead(home, cand)
                and state.qubit_at(cand) is None):
            target = cand
            break
    if target is None:
        raise NoAdjacentEmpty(f"no free bare dot next to qubit {qubit} at {home}")

    ops = [move_op(home, target, durations),
           _pulse_op(SiteClass.BARE, rotation, target, durations),
           move_op(target, home, durations)]
    # The pulse finds the qubit on `target` beside every bare-class qubit;
    # each hop imprints its destination's phase and compensates it.
    out, back = phases.hop_phase(SiteClass.BARE), phases.hop_phase(SiteClass.MAGNET)
    new = state._restored(logs=True)
    new._log_rotation(state.by_class[SiteClass.BARE] | {qubit}, rotation)
    new.accumulated_phase[qubit] = state.accumulated_phase[qubit] + out + back
    return ops, new


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

    def __post_init__(self) -> None:
        if self.spacing < 1:
            raise Partitioned(f"sensor spacing must be >= 1, got {self.spacing}")

    @classmethod
    def from_spacing(cls, layout: TrilinearLayout, spacing: Optional[int] = None) -> "ReadoutFixture":
        if spacing is None:
            spacing = max(1, layout.grid.cols // 2)
        return cls(axes=tuple(range(0, layout.length, spacing)), spacing=spacing)


def readout(
    state: ArrayState,
    qubit: QubitId,
    fixture: ReadoutFixture,
    defects: DefectMap = NO_DEFECTS,
    phases: PhaseConfig = NO_PHASES,
    durations: Durations = DEFAULT_DURATIONS,
) -> tuple[list[MicroOp], ArrayState]:
    """Shuttle a qubit to its nearest usable sensor dot, read it out, and
    shuttle back. Raises Partitioned when every sensor dot is dead.

    The round trip restores occupancy, so the returned state differs only
    in the Z ledger (one imprint plus compensation per hop, both ways).
    Transit over dots parked by other qubits is planned occupancy-blind,
    like all routing here; serializing against them is the scheduler's
    concern.
    """
    layout = state.layout
    home = state.position[qubit]
    target = _nearest_sensor(layout, fixture, home, defects)
    path = _row_walk(layout, home, target, defects)
    if path is None:
        path = router.shortest_shuttle_path(layout, home, target, defects)

    ops: list[MicroOp] = []
    for a, b in zip(path, path[1:]):
        ops.append(move_op(a, b, durations))
    ops.append(MicroOp(MicroOpKind.READOUT, (target,), durations.readout))
    back = path[::-1]
    for a, b in zip(back, back[1:]):
        ops.append(move_op(a, b, durations))

    new = state._restored(logs=False)
    hop_phase = sum(phases.hop_phase(site_class(s)) for s in path[1:])
    hop_phase += sum(phases.hop_phase(site_class(s)) for s in back[1:])
    new.accumulated_phase[qubit] += hop_phase
    return ops, new


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


def _row_walk(layout: TrilinearLayout, home: SiteCoord, target: SiteCoord,
              defects: DefectMap) -> Optional[list[SiteCoord]]:
    """The straight walk along the row from `home` to `target`, which is then
    the one shortest path; None when the general search must decide: a dead
    dot or dead barrier is in the way, or the two ways round a loop tie."""
    if home == target:
        return [home]
    distance = layout.axis_distance(home.axis, target.axis)
    if layout.loop:
        ahead = (target.axis - home.axis) % layout.length
        if 2 * ahead == layout.length:
            return None
        delta = 1 if ahead == distance else -1
    else:
        delta = 1 if target.axis > home.axis else -1
    if defects.is_dead(home):
        return None
    path = [home]
    for _ in range(distance):
        site = SiteCoord(home.row, layout.step_axis(path[-1].axis, delta), home.subrow)
        if defects.is_dead(site) or defects.barrier_dead(path[-1], site):
            return None
        path.append(site)
    return path


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
    """Walk a micro-op sequence over the state and return, per pulse index,
    the set of qubits that pulse would rotate. Used to audit addressability
    independently of the rotation logs. Only the qubits the ops move are
    tracked, in local dicts over the untouched input."""
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
    rotated_by_pulse = replay_rotations(state, ops)
    rotated: set[QubitId] = set()
    for qubits in rotated_by_pulse.values():
        rotated |= qubits
    return AddressabilityReport(
        intended=frozenset({qubit}),
        rotated=frozenset(rotated),
    )
