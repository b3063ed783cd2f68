"""Half-filled operating protocol with global-drive addressability.

Dots under a nanomagnet (MAGNET class, even axis positions) host qubits;
bare dots stay empty. A drive pulse at the bare-dot resonance rotates
exactly the qubits sitting on bare dots at that moment, so hopping a
single qubit one dot sideways before a global pulse addresses just that
qubit. Each shuttle hop imprints a configurable Z phase which is logged
and immediately compensated in software (virtual Z), leaving the net
ledger phase at zero after every completed operation.

State is tracked symbolically: occupancy, per-qubit rotation logs, and a
Z-phase ledger (accumulated plus compensation). Operations are pure: they
return a new state, leaving the input untouched. A pulse costs time in the
qubits it rotates, not the array size: qubits are indexed by resonance
class, and copies share rotation logs. Planning is occupancy blind like
the router; composing many protocol operations in parallel is the
scheduler's concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    site_key,
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
    """Occupancy, rotation logs and the virtual-Z ledger. `_move` keeps the
    `by_class` index in step; copies share log lists, so a log is replaced
    (`_log_rotation`), never appended to in place."""

    layout: TrilinearLayout
    occupancy: dict[SiteCoord, QubitId] = field(default_factory=dict)
    position: dict[QubitId, SiteCoord] = field(default_factory=dict)
    accumulated_phase: dict[QubitId, float] = field(default_factory=dict)
    compensation: dict[QubitId, float] = field(default_factory=dict)
    rotation_log: dict[QubitId, list] = field(default_factory=dict)
    by_class: dict[SiteClass, set[QubitId]] = field(
        default_factory=lambda: {cls: set() for cls in SiteClass})

    def copy(self) -> "ArrayState":
        return ArrayState(
            layout=self.layout,
            occupancy=dict(self.occupancy),
            position=dict(self.position),
            accumulated_phase=dict(self.accumulated_phase),
            compensation=dict(self.compensation),
            rotation_log=dict(self.rotation_log),
            by_class={cls: set(qs) for cls, qs in self.by_class.items()},
        )

    def qubit_at(self, site: SiteCoord) -> Optional[QubitId]:
        return self.occupancy.get(site)

    def net_phase(self, qubit: QubitId) -> float:
        return (self.accumulated_phase[qubit] + self.compensation[qubit]) % TWO_PI

    def qubits_on_class(self, cls: SiteClass) -> set[QubitId]:
        return set(self.by_class[cls])

    def _move(self, qubit: QubitId, dst: SiteCoord, phases: PhaseConfig) -> None:
        src = self.position[qubit]
        del self.occupancy[src]
        self.occupancy[dst] = qubit
        self.position[qubit] = dst
        self.by_class[site_class(src)].remove(qubit)
        self.by_class[site_class(dst)].add(qubit)
        phase = phases.hop_phase(site_class(dst))
        self.accumulated_phase[qubit] += phase
        self.compensation[qubit] -= phase

    def _log_rotation(self, cls: SiteClass, rotation) -> None:
        for qubit in self.by_class[cls]:
            self.rotation_log[qubit] = self.rotation_log[qubit] + [rotation]


def init_half_filled(layout: TrilinearLayout, defects: DefectMap = NO_DEFECTS) -> ArrayState:
    """Place one qubit on every alive magnet-class outer dot.

    Qubit ids count up the Upper row by axis and sub-row, then the Lower
    row. Bare dots and the whole Middle row start empty; the ledger is
    zeroed.
    """
    state = ArrayState(layout=layout)
    qid = 0
    for site in sorted(layout.outer_sites(), key=site_key):
        if site_class(site) is not SiteClass.MAGNET or defects.is_dead(site):
            continue
        state.occupancy[site] = qid
        state.position[qid] = site
        state.accumulated_phase[qid] = 0.0
        state.compensation[qid] = 0.0
        state.rotation_log[qid] = []
        state.by_class[SiteClass.MAGNET].add(qid)
        qid += 1
    return state


def apply_global_esr(state: ArrayState, target_class: SiteClass, rotation) -> ArrayState:
    """Globally drive one resonance class: every qubit parked or in transit
    on a site of that class logs the rotation; all others are untouched."""
    new = state.copy()
    new._log_rotation(target_class, rotation)
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

    new = state.copy()
    ops: list[MicroOp] = []

    ops.append(move_op(home, target, durations))
    new._move(qubit, target, phases)

    ops.append(_pulse_op(SiteClass.BARE, rotation, target, durations))
    new._log_rotation(SiteClass.BARE, rotation)

    ops.append(move_op(target, home, durations))
    new._move(qubit, home, phases)

    return ops, new


@dataclass(frozen=True)
class ReadoutFixture:
    """Charge-sensor positions along both outer rows.

    Sensors sit at the same axis positions on each side; a readout shuttles
    the qubit along its own row to the nearest sensor dot.
    """

    axes: tuple[int, ...]
    spacing: int

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
    candidates = [
        SiteCoord(home.row, axis, home.subrow)
        for axis in fixture.axes
        if layout.in_bounds(SiteCoord(home.row, axis, home.subrow))
    ]
    usable = [s for s in candidates if not defects.is_dead(s)]
    if not usable:
        raise Partitioned("no usable sensor dot reachable for readout")
    target = min(usable, key=lambda s: (layout.axis_distance(home.axis, s.axis), s.axis))

    ops: list[MicroOp] = []
    path = ([home] if home == target
            else router.shortest_shuttle_path(layout, home, target, defects))
    for a, b in zip(path, path[1:]):
        ops.append(move_op(a, b, durations))
    ops.append(MicroOp(MicroOpKind.READOUT, (target,), durations.readout))
    back = path[::-1]
    for a, b in zip(back, back[1:]):
        ops.append(move_op(a, b, durations))

    new = state.copy()
    hop_phase = sum(phases.hop_phase(site_class(s)) for s in path[1:])
    hop_phase += sum(phases.hop_phase(site_class(s)) for s in back[1:])
    new.accumulated_phase[qubit] += hop_phase
    new.compensation[qubit] -= hop_phase
    return ops, new


# ----------------------------------------------------------------------
# Replay and reporting

@dataclass(frozen=True)
class AddressabilityReport:
    intended: frozenset[QubitId]
    rotated: frozenset[QubitId]
    bystanders: frozenset[QubitId]

    @property
    def ok(self) -> bool:
        return self.rotated == self.intended


def replay_rotations(state: ArrayState, ops: Iterable[MicroOp]) -> dict[int, set[QubitId]]:
    """Walk a micro-op sequence over a copy of the state and return, per
    pulse index, the set of qubits that pulse would rotate. Used to audit
    addressability independently of the rotation logs."""
    sim = state.copy()
    rotated: dict[int, set[QubitId]] = {}
    for i, op in enumerate(ops):
        if op.is_move:
            qubit = sim.qubit_at(op.src)
            if qubit is not None:
                sim._move(qubit, op.dst, NO_PHASES)
        elif op.kind is MicroOpKind.SINGLE_QUBIT_PULSE and op.freq_class is not None:
            cls = SiteClass(op.freq_class)
            rotated[i] = set(sim.qubits_on_class(cls))
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
        bystanders=frozenset(rotated - {qubit}),
    )
