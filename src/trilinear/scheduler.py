"""Tick-level parallel scheduling under occupancy and multiplexing limits.

A logical circuit compiles to a schedule of micro-ops on the site lattice.
One tick equals one horizontal shuttle step; other micro-op durations come
from the Durations config.

Scheduling model (greedy list scheduling, deliberately non-optimal):
  - every logical op expands to a job, a plan made while its qubits sit at
    their home sites (plans are round trips, so qubits are home between
    their ops);
  - a job holds sites over ticks by the validator's rule: a move holds both
    of its sites for its duration, every other op holds its first site, a
    waiting mover holds the site it waits at, and a gate's partner holds its
    home for the whole job;
  - a job's head, every op before a shuttled gate (all of any other job),
    runs back to back from the job's start. Its tail, the gate, the return
    leg and the transfer home, goes one run (back-to-back ops of one signal
    set) at a time, each at the first tick from the previous run's end at
    which its signals fit and its holds miss every committed hold, with the
    mover waiting in between where the previous run left it;
  - jobs are admitted by dependency: at each tick every unstarted job
    starts, taken in program order, if it is next in program order for each
    of its qubits, its head's holds miss every committed hold and its
    signals fit the per-tick distinct-waveform budget, and no wait of its
    tail overlaps a committed hold. So a job held back does not stall later
    jobs on other qubits, movers in one direction can share the Middle row
    a site apart, and a mover that has reached its partner gates at once.
Admission is one queue of (tick, job): a job enters it once the previous
jobs of its qubits have all started, at the latest of their ends, and a
popped job starts or goes back in at its head's first fit or, if a wait of
its tail clashes, at the next tick (for the wait right after the head, at the
first tick that wait could clear; `_place` has the proof). The holds keep
movers from ever colliding, and whenever nothing is active the first
unstarted job can start and run back to back, so the sum of the op durations
bounds the makespan. Each site a plan passes keeps its committed holds as one
sorted tick list, so a clash check costs a binary search per hold, and the
lists follow the circuit, not the array. A mover's stay at a site across the
pieces of its job (the end of one piece, the wait, the start of the next) is
committed as one hold. The budget is checked in place on clash bytes per
signal set, updated over each started job's span only. The independent
validator re-derives all rules from the schedule alone; it numbers the sites
it meets per call too, so its cost also follows the schedule.

Waveform accounting: a signal is the name the schedule JSON prints for it.
All conveyor movement in one direction shares one fixed set of four phased
signals no matter how many qubits ride it; movement in the opposite
direction needs its own set. Gates, drives and readout each add one class.
A schedule stores no signals: `signals_for_op` derives them from each
micro-op wherever they are counted, so a schedule read back from its JSON
writes the same text. The distinct signals live in a tick must fit the AC
inputs; one rule, `_mux_problems`, decides that for compile, including
`MuxInfeasible`, and for the validator.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional, Union

from .errors import CircuitError, MuxInfeasible, UnsupportedPair
from .router import (
    DEFAULT_DURATIONS,
    Durations,
    MicroOp,
    MicroOpKind,
    _GATE,
    _HORIZONTAL,
    _VERTICAL,
    _site_of,
    move_direction,
    plan_two_qubit,
    reconfigure_for_defects,
    rows_compatible,
)
from .topology import (
    NO_DEFECTS,
    SCHEMA_VERSION,
    Cell,
    DefectMap,
    _Memo,
    Row,
    SiteCoord,
    TrilinearLayout,
    site_class,
)


# A signal is its JSON name, e.g. "shuttle_phase_1@east" or "readout_pulse".
Signal = str

# Every micro-op drives one of these seven fixed sets while active.
_MOVE_SIGNALS = {direction: frozenset(f"shuttle_phase_{k}@{direction}" for k in range(1, 5))
                 for direction in ("east", "west", "up", "down")}
_PULSE_SIGNALS = {
    MicroOpKind.TWO_QUBIT_GATE: frozenset({"two_qubit_pulse"}),
    MicroOpKind.SINGLE_QUBIT_PULSE: frozenset({"one_qubit_drive"}),
    MicroOpKind.READOUT: frozenset({"readout_pulse"}),
}
_SHUTTLE_SIGNALS = frozenset().union(*_MOVE_SIGNALS.values())

# One bit per fixed set. A micro-op drives exactly one set, so the sets live
# in a tick name its signals exactly, and compile keeps them as one byte.
_SET_BIT = {sigs: 1 << i for i, sigs in enumerate((*_MOVE_SIGNALS.values(),
                                                   *_PULSE_SIGNALS.values()))}


@lru_cache(maxsize=256)
def _set_signals(sets: int) -> frozenset[Signal]:
    """The signals of the fixed sets whose bits are in `sets`."""
    return frozenset().union(*(sigs for sigs, bit in _SET_BIT.items() if sets & bit))


def signals_for_op(layout: TrilinearLayout, op: MicroOp) -> frozenset[Signal]:
    """Distinct AC signals a micro-op drives while active."""
    kind = op.kind
    if kind is _HORIZONTAL or kind is _VERTICAL:
        return _MOVE_SIGNALS[move_direction(layout, op)]
    return _PULSE_SIGNALS[kind]


@dataclass(frozen=True)
class MuxConfig:
    """CryoCMOS AC budget: n_ac_inputs distinct waveforms can be fanned out
    per tick by the switch matrix."""

    n_ac_inputs: int = 8
    readout_coexists_with_shuttle: bool = True

    def __post_init__(self) -> None:
        count = self.n_ac_inputs
        if type(count) is not int:  # a type check, not a coercion, as in `Durations`
            raise CircuitError(f"n_ac_inputs: expected an integer >= 1, got {count!r}")
        if count < 1:
            raise CircuitError("mux input counts must be positive")
        coexist = self.readout_coexists_with_shuttle
        if type(coexist) is not bool:  # "false" is true, so it would let readout shuttle
            raise CircuitError(f"readout_coexists_with_shuttle: expected a bool, got {coexist!r}")


DEFAULT_MUX = MuxConfig()


def _mux_problems(live: frozenset[Signal], mux: MuxConfig) -> list[str]:
    """How the signals live in one tick break the AC budget (empty if they fit)."""
    problems = []
    if len(live) > mux.n_ac_inputs:
        problems.append(f"{len(live)} distinct waveforms driven, budget {mux.n_ac_inputs}")
    if (not mux.readout_coexists_with_shuttle and "readout_pulse" in live
            and not live.isdisjoint(_SHUTTLE_SIGNALS)):
        problems.append("readout pulse shares a tick with shuttling")
    return problems


@dataclass(frozen=True)
class DcRefreshReport:
    """Feasibility of serving n_gates floating gates from the DC inputs."""

    n_gates: int
    n_dc_inputs: int
    cycle_time_s: float
    dc_hold_time_s: float
    feasible: bool
    max_gates_per_input: int


def dc_refresh_plan(n_gates: int, n_dc_inputs: int = 1, dc_refresh_interval_s: float = 1.0,
                    dc_hold_time_s: float = 3600.0) -> DcRefreshReport:
    """Round-robin refresh feasibility: each DC input refreshes one floating
    gate per refresh interval, and the full cycle must beat the hold time
    for which a gate's sampled bias survives."""
    for name, count in (("n_gates", n_gates), ("n_dc_inputs", n_dc_inputs)):
        if type(count) is not int:  # a type check, not a coercion, as in `Durations`
            raise CircuitError(f"{name}: expected an integer >= 1, got {count!r}")
    if n_gates < 1:
        raise CircuitError("n_gates must be >= 1")
    if n_dc_inputs < 1:
        raise CircuitError("mux input counts must be positive")
    if not math.isfinite(dc_refresh_interval_s) or not math.isfinite(dc_hold_time_s):
        raise CircuitError("dc_refresh_interval_s and dc_hold_time_s must be finite")
    if dc_refresh_interval_s <= 0:
        raise CircuitError("dc_refresh_interval_s must be positive")
    if dc_hold_time_s <= dc_refresh_interval_s:
        raise CircuitError("dc_hold_time_s must exceed dc_refresh_interval_s")
    cycle = math.ceil(n_gates / n_dc_inputs) * dc_refresh_interval_s
    return DcRefreshReport(
        n_gates=n_gates,
        n_dc_inputs=n_dc_inputs,
        cycle_time_s=cycle,
        dc_hold_time_s=dc_hold_time_s,
        feasible=cycle <= dc_hold_time_s,
        max_gates_per_input=int(dc_hold_time_s // dc_refresh_interval_s),
    )


# ----------------------------------------------------------------------
# Circuits

@dataclass(frozen=True)
class OneQubit:
    cell: Cell
    rotation: object = None


@dataclass(frozen=True)
class TwoQubit:
    cell_a: Cell
    cell_b: Cell


@dataclass(frozen=True)
class Measure:
    cell: Cell


CircuitOp = Union[OneQubit, TwoQubit, Measure]


def op_cells(op: CircuitOp) -> tuple[Cell, ...]:
    if isinstance(op, TwoQubit):
        return (op.cell_a, op.cell_b)
    return (op.cell,)


@dataclass(frozen=True)
class Circuit:
    """Ordered logical ops; dependencies are program order per qubit."""

    ops: tuple[CircuitOp, ...] = ()

    def cells(self) -> list[Cell]:
        seen: dict[Cell, None] = {}
        for op in self.ops:
            for cell in op_cells(op):
                seen.setdefault(cell)
        return list(seen)

    def validate_against(self, layout: TrilinearLayout,
                         sacrificed: frozenset[Cell] = frozenset()) -> None:
        for i, op in enumerate(self.ops):
            for cell in op_cells(op):
                if not layout.grid.contains(cell):
                    raise CircuitError(f"op {i}: cell {cell} outside grid")
                if cell in sacrificed:
                    raise CircuitError(f"op {i}: cell {cell} is sacrificed to defects")
            if isinstance(op, TwoQubit):
                if op.cell_a == op.cell_b:
                    raise UnsupportedPair(f"op {i}: two-qubit op needs distinct cells")
                if not rows_compatible(layout, op.cell_a, op.cell_b):
                    raise UnsupportedPair(
                        f"op {i}: pair {op.cell_a}-{op.cell_b} outside supported "
                        "connectivity (same row or neighboring rows)"
                    )


def circuit_from_json(doc) -> Circuit:
    ops_doc = doc.get("ops") if isinstance(doc, dict) else doc
    if not isinstance(ops_doc, list):
        raise CircuitError('circuit: expected a list of ops or an object with an "ops" list')
    ops: list[CircuitOp] = []
    for i, obj in enumerate(ops_doc):
        # A cell is two integers; JSON's true/false do not count.
        cells = obj.get("cells", []) if isinstance(obj, dict) else None
        if not isinstance(cells, list) or not all(
                isinstance(c, (list, tuple)) and len(c) == 2
                and type(c[0]) is int and type(c[1]) is int for c in cells):
            raise CircuitError(f"op {i}: expected an object whose cells are "
                               f"[row, col] pairs of integers, got {obj!r}")
        kind = obj.get("op")
        cells = [tuple(c) for c in cells]
        if kind == "1q":
            if len(cells) != 1:
                raise CircuitError(f"op {i}: 1q needs exactly one cell")
            ops.append(OneQubit(cells[0], obj.get("param")))
        elif kind == "2q":
            if len(cells) != 2:
                raise CircuitError(f"op {i}: 2q needs exactly two cells")
            ops.append(TwoQubit(cells[0], cells[1]))
        elif kind == "meas":
            if len(cells) != 1:
                raise CircuitError(f"op {i}: meas needs exactly one cell")
            ops.append(Measure(cells[0]))
        else:
            raise CircuitError(f"op {i}: unknown op kind {kind!r}")
    return Circuit(tuple(ops))


# ----------------------------------------------------------------------
# Schedules

class ScheduledOp(NamedTuple):
    """A micro-op placed at a start tick; a named tuple, like `MicroOp`."""

    qubit: Cell
    op: MicroOp
    start_tick: int
    partner: Optional[Cell] = None

    @property
    def end_tick(self) -> int:
        return self.start_tick + self.op.duration_ticks


@dataclass(frozen=True)
class Schedule:
    """Placed micro-ops plus the initial occupancy they started from."""

    ops: tuple[ScheduledOp, ...] = ()
    makespan: int = 0
    initial_positions: tuple[tuple[Cell, SiteCoord], ...] = ()

    @property
    def total_horizontal_steps(self) -> int:
        return sum(1 for s in self.ops if s.op.kind is _HORIZONTAL)


# Keys of what `waveform_usage` (and compile, which reads and fills its set
# bits) and the writer keep in `layout.memos`.
_BITS, _TEXTS = "waveform_usage bits", "schedule_to_json texts"


def waveform_usage(schedule: Schedule, layout: TrilinearLayout) -> tuple[frozenset[Signal], ...]:
    """The signals driven at each tick, from each micro-op by `signals_for_op`;
    the largest set's size is the schedule's AC-input requirement.
    Raises CircuitError for an op that runs outside ticks 0 to the makespan."""
    # (kind, sites) -> set bit, kept with the layout; compile's `_pieces`
    # shares it. An op's signals follow from the values of these alone, so
    # equal keys of other types share a bit.
    bits = layout.memos.setdefault(_BITS, {})
    makespan = schedule.makespan
    per_tick = [0] * makespan  # the set bits live at each tick
    for qubit, op, start, _ in schedule.ops:
        end = start + op.duration_ticks
        if start < 0 or end > makespan:
            raise CircuitError(f"{op.kind.value} of qubit {qubit} runs from tick "
                               f"{start} to {end}, outside the makespan {makespan}")
        head = op[:2]
        bit = bits.get(head) or bits.setdefault(head, _SET_BIT[signals_for_op(layout, op)])
        if end == start + 1:  # most ops are single steps
            per_tick[start] |= bit
        else:
            for t in range(start, end):
                per_tick[t] |= bit
    return tuple(map(_set_signals, per_tick))


# ----------------------------------------------------------------------
# Compilation

# Ops of a job that run back to back from one start tick: the head (every op
# before a shuttled gate, or all of any other job) or one run of the tail.
# A plain tuple, as compile unpacks it where a tuple subclass is slower:
# (park, ops, runs, holds, ticks), ticks counted from its start, with
# - park: the slot of the site the mover waits at before a tail run (head: -1);
# - runs: (first tick, end tick, set bit) of each stretch of back-to-back ops
#   that drive one signal set, e.g. a whole shuttle leg;
# - holds: (site slot, first tick, end tick) of each stretch in which it holds
#   a site that no qubit of the circuit calls home;
# - ticks: its length.
_Piece = tuple[int, list[MicroOp], list[tuple[int, int, int]], list[tuple[int, int, int]], int]


def _pieces(ops: tuple[MicroOp, ...], layout: TrilinearLayout, homes: set[SiteCoord],
            slot: _Memo) -> list[_Piece]:
    """A job's pieces: the head, then one per run from a shuttled gate on."""
    # The qubit holds the site it is at, and a move holds both of its sites,
    # so each site it passes is held from the start of the move in to the end
    # of the move out; a stay that spans pieces is split between them, and
    # compile adds the wait between them and commits the stay as one hold.
    # Plans keep off every home but their mover's own, and a home's jobs run
    # in its qubit's program order, so holds on homes (the partner's, held
    # for the whole job, among them) clash with no other job's holds and are
    # left out. Each op's set bit comes from the memo `waveform_usage` keeps.
    bits = layout.memos.setdefault(_BITS, {})
    pieces: list[_Piece] = []
    tail = False  # from a shuttled gate on, each run is a piece of its own
    at, since, park = ops[0].sites[0], 0, -1
    piece_ops, runs, holds, tick = [], [], [], 0
    run, run_bit = 0, 0  # the first tick and set bit of the run being built
    for op in ops:
        kind, sites, duration, _, _ = op
        key = (kind, sites)
        bit = bits.get(key) or bits.setdefault(key, _SET_BIT[signals_for_op(layout, op)])
        if bit != run_bit:  # the op starts a run
            if run_bit:
                runs.append((run, tick, run_bit))
            tail = tail or (kind is _GATE and len(ops) > 1)
            if tail and run_bit:
                if at not in homes:
                    holds.append((slot[at], since, tick))
                pieces.append((park, piece_ops, runs, holds, tick))
                park, since = slot[at], 0
                piece_ops, runs, holds, tick = [], [], [], 0
            run, run_bit = tick, bit
        piece_ops.append(op)
        end = tick + duration
        if kind is _HORIZONTAL or kind is _VERTICAL:
            if at not in homes:
                holds.append((slot[at], since, end))
            at, since = sites[1], tick
        tick = end
    runs.append((run, tick, run_bit))
    if at not in homes:
        holds.append((slot[at], since, tick))
    pieces.append((park, piece_ops, runs, holds, tick))
    return pieces


def _hold_fit(holds: list[tuple[int, int, int]], start: int, held: list[list[int]]) -> int:
    """The first start from `start` on at which no hold overlaps a committed
    hold of its site. `held[slot]` keeps a site's committed holds, which are
    disjoint, as one sorted list of ticks [first, end, first, end, ...]."""
    n, checked, i = len(holds), 0, 0  # checked: holds in a row that fit at `start`
    while checked < n:
        slot, a, b = holds[i]
        ticks = held[slot]
        k = bisect_right(ticks, start + a)  # odd: the window opens inside a committed hold
        if k & 1:
            start, checked = ticks[k] - a, 0
        elif k < len(ticks) and ticks[k] < start + b:  # a committed hold opens inside it
            start, checked = ticks[k + 1] - a, 0
        else:
            checked += 1
            i = (i + 1) % n
    return start


@lru_cache(maxsize=16)
def _clash_tables(mux: MuxConfig) -> dict[int, tuple[bytes, bytes]]:
    """Per set bit, bytes.translate tables over a tick's byte of live sets: to 1
    where adding that set breaks the AC budget (else 0), and to it with the set."""
    return {bit: (bytes(bool(_mux_problems(_set_signals(sets | bit), mux)) for sets in range(256)),
                  bytes(sets | bit for sets in range(256))) for bit in _SET_BIT.values()}


def _earliest_fit(runs: list[tuple[int, int, int]], start: int,
                  clashes: dict[int, bytearray]) -> int:
    """The first start from `start` on at which no run's signals clash with
    the ticks already committed. `clashes[bit][t]` is 1 where adding set `bit`
    to tick t breaks the AC budget, searched in place; later ticks are empty."""
    n, checked, i = len(runs), 0, 0  # checked: runs in a row that fit at `start`
    while checked < n:
        a, b, bit = runs[i]
        i = (i + 1) % n
        # The run needs b - a clash-free ticks in a row from tick start + a.
        # Committed signals only grow, so no start that keeps a clashing
        # tick inside the run can fit: skip to the first such gap.
        ticks, first = clashes[bit], start + a
        gap = ticks.find(bytes(b - a), first)
        if gap < 0:
            gap = ticks.rfind(1, first) + 1
        if gap > first:
            start += gap - first
            checked = 1
        else:
            checked += 1
    return start


def _place(pieces: list[_Piece], t: int, clashes: dict[int, bytearray],
           held: list[list[int]]) -> list[int]:
    """The start of each piece if the job starts at t, then the job's end.
    Each piece starts at the first tick from the end of the piece before it
    (the head: from t) at which its signals fit and its holds miss every
    committed hold; in between, the mover waits where that piece left it.

    If the job cannot start at t, [the tick to try it again], no later than
    the first tick at which it can: the head's first fit, or, if a wait meets
    a committed hold [h0, h1), t + 1; for the first wait, the one between the
    head ending at e and the next piece starting at s, t + min(h1, s) - e.
    Proof of the last: commitments only grow and every fit is the first one
    from its lower bound, so for a start t' > t the head ends at e' = e + t'
    - t and the next piece starts at s' >= s. While e' < min(h1, s), the wait
    [e', s') takes in the tick max(h0, e') of [h0, h1) (as h0 < s), and that
    hold, ending after t', is still committed. A later wait has no such bound:
    the pieces before it may move by any amount."""
    starts = [t]
    for park, _, runs, holds, ticks in pieces:
        end = start = starts[-1]
        while True:
            fit = _earliest_fit(runs, start, clashes)
            if fit > t and park < 0:  # the head cannot start at t
                return [fit]
            start = _hold_fit(holds, fit, held)
            if start == fit:
                break
        if start > end:  # the mover waits at park from end to start
            site_holds = held[park]
            k = bisect_right(site_holds, end)  # odd: the wait opens inside a committed hold
            if k & 1 or (k < len(site_holds) and site_holds[k] < start):
                h1 = site_holds[k] if k & 1 else site_holds[k + 1]
                return [t + min(h1, start) - end if len(starts) == 2 else t + 1]
        starts[-1:] = start, start + ticks
    return starts


def compile(  # noqa: A001 - mirrors re.compile naming
    circuit: Circuit,
    layout: TrilinearLayout,
    defects: DefectMap = NO_DEFECTS,
    mux: MuxConfig = DEFAULT_MUX,
    durations: Durations = DEFAULT_DURATIONS,
) -> Schedule:
    """Greedy list scheduling of a circuit onto the layout: each job starts at
    the first tick at which its head fits, and each run of its tail at its
    own first fit after that (see the module docstring).

    Raises Partitioned when a two-qubit op cannot be routed around the
    defects and parked qubits, and MuxInfeasible when a single micro-op
    already needs more distinct waveforms than the AC budget.
    """
    recon = reconfigure_for_defects(layout, defects)
    circuit.validate_against(layout, recon.sacrificed_qubits)

    cells = circuit.cells()
    homes = {cell: _site_of(layout, cell) for cell in cells}
    occupied = set(homes.values())
    # One slot per site a hold falls on, numbered in the order the call first meets it.
    slot = _Memo(lambda site: len(slot))

    # Per op of the circuit, a job: (participants, pieces), the mover first.
    jobs: list[Optional[tuple[tuple[Cell, ...], list[_Piece]]]] = []
    for cop in circuit.ops:
        if not isinstance(cop, TwoQubit):
            site = homes[cop.cell]
            mop = (MicroOp(MicroOpKind.SINGLE_QUBIT_PULSE, (site,), durations.single_qubit_pulse,
                           freq_class=site_class(site).value, param=cop.rotation)
                   if isinstance(cop, OneQubit) else
                   MicroOp(MicroOpKind.READOUT, (site,), durations.readout))
            jobs.append(((cop.cell,), _pieces((mop,), layout, occupied, slot)))
        else:
            # The router leaves the mover's home out of `occupied` itself.
            plan = plan_two_qubit(layout, cop.cell_a, cop.cell_b, defects, durations, occupied)
            mover = plan.qubit
            partner = cop.cell_b if mover == cop.cell_a else cop.cell_a
            jobs.append(((mover, partner), _pieces(plan.ops, layout, occupied, slot)))

    held: list[list[int]] = [[] for _ in slot]  # per slot: its holds, as `_hold_fit` reads them

    tables = _clash_tables(mux)
    if any(clash[0] for clash, _ in tables.values()):  # some signal set alone breaks the budget
        for _, piece_ops, runs, _, _ in (piece for _, pieces in jobs for piece in pieces):
            for _, _, bit in runs:
                if tables[bit][0][0]:  # the run's signal set alone breaks the budget
                    op = next(op for op in piece_ops
                              if _SET_BIT[signals_for_op(layout, op)] == bit)
                    raise MuxInfeasible(f"micro-op {op.kind.value} needs "
                                        f"{len(_set_signals(bit))} waveforms, only "
                                        f"{mux.n_ac_inputs} AC inputs available")

    # A job is queued once every participant's previous job has started, at
    # the latest end among them: `owed` counts the participants whose
    # previous job has not started yet, `ready` keeps that latest end, and
    # `successors` lists, per job, the next job of each of its participants.
    n = len(jobs)
    owed, ready = [0] * n, [0] * n
    successors: list[list[int]] = [[] for _ in range(n)]
    last: dict[Cell, int] = {}
    for index, (participants, _) in enumerate(jobs):
        for cell in participants:
            prev = last.get(cell)
            if prev is not None:
                successors[prev].append(index)
                owed[index] += 1
            last[cell] = index

    # Admission pops (tick, job) in order, so the jobs queued at one tick are
    # tried in program order. A job that cannot start at the popped tick goes
    # back on the queue at a lower bound of its start (`_place`): its head's
    # first fit with what is committed now (commitments only grow, so no
    # earlier start can fit), or, if a wait of its tail clashes, the next tick
    # or, for the first wait, the first tick it could clear. Every job started
    # at t ends after t, so popped ticks never decrease.
    committed = bytearray()              # the signal sets live at each tick
    clashes = {bit: bytearray() for bit in tables}  # per set bit: 1 where it breaks the budget
    buckets: dict[int, list[ScheduledOp]] = defaultdict(list)  # start tick -> ops
    queue = [(0, index) for index in range(n) if not owed[index]]  # sorted, so a heap
    makespan = 0
    new = tuple.__new__  # builds a ScheduledOp without its Python-level __new__
    while queue:
        t, index = heappop(queue)
        participants, pieces = jobs[index]
        starts = _place(pieces, t, clashes, held)
        if starts[0] > t:
            heappush(queue, (starts[0], index))
            continue
        owner = participants[0]
        end = starts[-1]
        makespan = max(makespan, end)
        committed += bytes(makespan - len(committed))  # fresh ticks are empty
        prev = t  # the end of the previous piece
        for (park, piece_ops, runs, holds, ticks), first in zip(pieces, starts):
            tick = first  # the piece's ops run back to back
            for op in piece_ops:
                partner = participants[1] if op.kind is _GATE else None
                buckets[tick].append(new(ScheduledOp, (owner, op, tick, partner)))
                tick += op.duration_ticks
            for a, b, bit in runs:  # add each run's set to its ticks
                committed[first + a:first + b] = committed[first + a:first + b].translate(
                    tables[bit][1])
            # The piece's holds and, if the mover waits for it, its wait. The
            # mover's stay at park, from the previous piece through the wait,
            # goes on as one hold.
            for i, a, b in holds if first == prev else [(park, prev - first, 0), *holds]:
                site_holds = held[i]
                if site_holds and site_holds[1] <= t:  # ended holds clash with nothing
                    del site_holds[:bisect_right(site_holds, t) & ~1]
                k = bisect_right(site_holds, first + a)  # its place among the site's holds
                if i == park and k and site_holds[k - 1] == first + a:  # the stay goes on
                    site_holds[k - 1] = first + b
                else:
                    site_holds[k:k] = (first + a, first + b)
            prev = first + ticks
        # Popped ticks never pass the makespan (a retry tick is a fit within
        # what is committed, or before the end of the hold a wait clashed
        # with), so this appends fresh ticks.
        span = committed[t:end]
        for bit, ticks in clashes.items():
            ticks[t:end] = span.translate(tables[bit][0])
        for nxt in successors[index]:
            ready[nxt] = max(ready[nxt], end)
            owed[nxt] -= 1
            if not owed[nxt]:
                heappush(queue, (ready[nxt], nxt))
        jobs[index] = None  # its pieces are done with: free them before the call ends

    ops: list[ScheduledOp] = []  # by start tick, then qubit, as one stable sort orders them
    for bucket in map(buckets.get, sorted(buckets)):
        ops += sorted(bucket, key=itemgetter(0)) if len(bucket) > 1 else bucket
    return Schedule(
        ops=tuple(ops),
        makespan=makespan,
        initial_positions=tuple(sorted(homes.items())),
    )


# ----------------------------------------------------------------------
# Validation (independent replay)

@dataclass(frozen=True)
class Violation:
    kind: str        # occupancy | swap | dead_site | dead_barrier | adjacency | order |
                     # mux | bounds
    tick: int
    message: str


def _overlaps(spans: list[tuple]) -> Iterator[tuple[tuple, tuple]]:
    """Sort `spans` (tuples led by a first and an end tick) and yield each pair
    (earlier, later) where the later starts before the earlier ends."""
    spans.sort()
    reach = -math.inf
    for j, later in enumerate(spans):
        if later[0] < reach:  # it overlaps some earlier span
            yield from ((earlier, later) for earlier in spans[:j] if later[0] < earlier[1])
        if later[1] > reach:
            reach = later[1]


def validate_schedule(
    schedule: Schedule,
    layout: TrilinearLayout,
    defects: DefectMap = NO_DEFECTS,
    mux: MuxConfig = DEFAULT_MUX,
) -> list[Violation]:
    """Replay a schedule and report every rule violation (empty if valid).

    Checks occupancy (one qubit per site per tick), swap-throughs, dead
    site and dead barrier visits, that each move and gate joins lattice
    neighbours (a horizontal step exactly when it stays in its row),
    per-qubit chaining/order, bounds (every site in the layout, every op
    inside ticks 0 to the makespan), and the per-tick distinct-waveform
    budget over the signals of the micro-ops. The replay runs to the later
    of the makespan and the last op's end, so an understated makespan hides
    no other violation.

    Ops are replayed as records of ints (position in `schedule.ops`, ticks,
    site ids, qubit indices in cell order) that the garbage collector stops
    tracking at its first pass. Site ids are numbered per call in the order
    the replay meets each site, and whether a site is outside the layout or
    dead is decided once, when it is numbered. What an op's kind and end
    sites decide is worked out once per (kind, first id, last id).
    """
    defects.validate_against(layout)
    names: list[SiteCoord] = []      # site id -> site
    flaws: list[Optional[str]] = []  # site id -> "bounds" outside the layout, "dead_site" if dead

    def number(site: SiteCoord) -> int:
        names.append(site)
        flaws.append("bounds" if not layout.in_bounds(site)
                     else "dead_site" if defects.is_dead(site) else None)
        return len(names) - 1
    ids = _Memo(number)
    cut = defects.cut
    violations: list[Violation] = []
    report = violations.append
    horizon = makespan = schedule.makespan  # the replay runs to the last op's end
    homes = {cell: ids[site] for cell, site in schedule.initial_positions}

    # Per op: bounds and dead checks of every site, then its edge facts.
    facts = {}                  # (kind, first id, last id) -> (set bit, is move, edge, problems)
    chains = defaultdict(list)  # qubit -> (start, end, position, first id, last id, is move)
    moves = defaultdict(list)   # edge -> the same records of the moves over it
    gates = []                  # (start, end, partner site id, position)
    deltas = defaultdict(list)  # tick -> set bit where an op starts, minus it where one ends
    for position, (qubit, op, start, _) in enumerate(schedule.ops):
        kind, op_sites, duration, _, _ = op
        end = start + duration
        if start < 0:
            report(Violation("bounds", start, f"{kind.value} of qubit {qubit} starts at "
                                              f"tick {start}, before tick 0"))
        if end > makespan:
            horizon = max(horizon, end)
            report(Violation("bounds", start, f"{kind.value} of qubit {qubit} ends at "
                                              f"tick {end}, past the makespan {makespan}"))
        for site in op_sites:  # leaves b at the last site's id
            b = ids[site]
            if flaws[b]:
                report(Violation(flaws[b], start, f"site {site} outside layout"
                                 if flaws[b] == "bounds" else f"op visits dead site {site}"))
        a = ids[op_sites[0]]
        fact = facts.get((kind, a, b))
        if fact is None:
            src, dst = op_sites[0], op_sites[-1]
            move = kind is _HORIZONTAL or kind is _VERTICAL
            problems = []
            if move and (src, dst) in cut:
                problems.append(("dead_barrier", f"move crosses dead barrier {src}-{dst}"))
            in_row = src.row is dst.row and src.subrow == dst.subrow
            # A move or gate inside the layout must join lattice neighbours.
            joins = (move or kind is _GATE) and flaws[a] != "bounds" and flaws[b] != "bounds"
            if joins and dst not in layout.neighbors[src]:
                problems.append(("adjacency", f"{kind.value} {src}-{dst} joins sites that "
                                              "are not neighbours"))
            elif move and joins and in_row != (kind is _HORIZONTAL):
                problems.append(("adjacency", f"{kind.value} {src}-{dst} "
                                              f"{'stays in' if in_row else 'leaves'} its row"))
            fact = facts[kind, a, b] = (_SET_BIT[signals_for_op(layout, op)], move,
                                        (a, b) if a < b else (b, a), tuple(problems))
        bit, move, edge, problems = fact
        for word, message in problems:
            report(Violation(word, start, message))
        record = (start, end, position, a, b, move)
        chains[qubit].append(record)
        if move:
            moves[edge].append(record)
        elif kind is _GATE:
            gates.append((start, end, ids[op_sites[1]], position))
        deltas[start].append(bit)
        deltas[end].append(-bit)
    cells = sorted(chains.keys() | homes.keys())  # qubit index -> cell

    # Per qubit: chain order, and the intervals in which it holds each site. A
    # move holds both; only in a hold of one site is a qubit parked (a partner).
    holds = defaultdict(list)  # site id -> (first tick, end tick, qubit index, parked)
    for q, cell in enumerate(cells):
        chain = chains.get(cell, [])
        if cell not in homes:
            report(Violation("order", chain[0][0],
                             f"qubit {cell} has ops but no initial position"))
            continue
        chain.sort(key=itemgetter(0))  # by start tick, then schedule position
        cur, t = homes[cell], min(0, chain[0][0]) if chain else 0  # t < 0: a bounds violation
        for start, end, position, a, b, move in chain:
            if start < t:
                report(Violation("order", 0, f"qubit {cell}: op at tick {start} overlaps "
                                             "the previous op"))
            if start > t:
                holds[cur].append((t, start, q, True))
            if a != cur:
                what = ("move at tick {} starts" if move
                        else schedule.ops[position].op.kind.value + " at tick {} acts")
                report(Violation("order", 0, f"qubit {cell}: {what.format(start)} at {names[a]}, "
                                             f"qubit is at {names[cur]}"))
            if move and a != b:
                holds[a].append(hold := (start, end, q, False))
                holds[b].append(hold)
            else:
                holds[a].append((start, end, q, True))
            cur = b if move else cur
            if end > t:
                t = end
        if t < horizon or not chain:  # an idle qubit holds its home even at makespan 0
            holds[cur].append((t, horizon, q, True))

    # Occupancy: two different qubits holding one site at overlapping times.
    for i, spans in holds.items():
        for (_, _, qa, _), (b0, _, qb, _) in _overlaps(spans):
            if qa != qb:
                report(Violation("occupancy", b0, f"qubits {cells[qa]} and {cells[qb]} both "
                                                  f"hold {names[i]} around tick {b0}"))

    # Gate partners must sit at the partner site for the whole gate.
    for start, end, b, position in gates:
        partner = schedule.ops[position].partner
        if partner is None:
            report(Violation("order", start, "gate op without a partner qubit"))
        elif not any(t0 <= start and end <= t1 and parked and cells[q] == partner
                     for t0, t1, q, parked in holds.get(b, ())):
            report(Violation("order", start, f"partner {partner} not parked at "
                                             f"{names[b]} during gate"))

    # Swap-throughs: moves over one site pair in opposite directions at
    # overlapping times. The move earlier in the schedule names the qubits
    # and the sites.
    for pair in moves.values():
        for (s0, _, p, a, b, _), (s1, e1, q, c, d, _) in _overlaps(pair):
            if s0 < e1 and a == d and b == c:
                first, second = (schedule.ops[k] for k in sorted((p, q)))
                report(Violation("swap", s1, f"qubits {first.qubit} and {second.qubit} "
                                 f"swap through {first.op.src}-{first.op.dst}"))

    # Waveform budget over the segments between op boundaries. Each op drives
    # one fixed signal set, so the live signals are the sets that more ops
    # have started than ended, and their problems depend on that mask alone.
    running = dict.fromkeys(_SET_BIT.values(), 0)  # set bit -> ops started minus ended
    live = 0  # the bits with a positive count
    problems_of = _Memo(lambda sets: _mux_problems(_set_signals(sets), mux))  # per live mask
    for t in sorted(deltas):
        for bit in deltas[t]:
            if bit > 0:
                running[bit] += 1
                if running[bit] == 1:
                    live |= bit
            else:
                running[-bit] -= 1
                if running[-bit] == 0:
                    live ^= -bit
        violations.extend(Violation("mux", t, msg) for msg in problems_of[live])

    violations.sort(key=lambda v: (v.tick, v.kind, v.message))
    return violations


# ----------------------------------------------------------------------
# Serialization

def summary_to_csv(summary: dict) -> str:
    """The `summary` block of a schedule_to_json document as CSV."""
    return ("makespan,total_shuttle_steps,max_waveform_classes\r\n"
            "{makespan},{total_shuttle_steps},{max_waveform_classes}\r\n".format_map(summary))


def _dump(obj, depth: int) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) nested `depth` levels deep; exact,
    as the indent follows each newline and JSON strings hold no raw newline."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


# A newline and the indent of each depth the writer uses (0 to 6), plus one.
_NEWLINE = tuple("\n" + "  " * depth for depth in range(8))
_COMMA_NEWLINE = tuple("," + newline for newline in _NEWLINE)


def _block(brackets: str, items: list[str], depth: int) -> str:
    """A JSON array or object of encoded items, `depth` levels deep."""
    return (f'{brackets[0]}{_NEWLINE[depth + 1]}{_COMMA_NEWLINE[depth + 1].join(items)}'
            f'{_NEWLINE[depth]}{brackets[1]}') if items else brackets


# The JSON text of each row, micro-op kind and signal, as json.dumps writes it.
_ROW_TEXT = {row: json.dumps(row.value) for row in Row}
_KIND_TEXT = {kind: json.dumps(kind.value) for kind in MicroOpKind}
_SIGNAL_TEXT = {sig: json.dumps(sig) for sigs in _SET_BIT for sig in sigs}
_SEP = _COMMA_NEWLINE[5]  # between two fields of an op


def _int_text(value) -> str:
    """An int as JSON text; any other value, such as True, via json.dumps."""
    return str(value) if type(value) is int else json.dumps(value)


def _ints_text(values, depth: int) -> str:
    """A JSON array, `depth` levels deep, of ints (other values via json.dumps)."""
    return _block("[]", [*map(_int_text, values)], depth)


def _qubit_text(cell) -> str:
    """An op's `qubit` field."""
    return f'{_SEP}"qubit": {_ints_text(cell, 5)}'


def _position_text(cell, site) -> str:
    """One `initial_positions` entry."""
    return f'{{\n      "cell": {_ints_text(cell, 3)},\n      "site": {_site_text(site, 3)}\n    }}'


def _site_text(site: SiteCoord, depth: int) -> str:
    """site_to_obj(site) as JSON text, `depth` levels deep."""
    return _block("[]", [_ROW_TEXT[site.row], *map(_int_text, site[1:3 if site.subrow else 2])],
                  depth)


# The writer keeps its texts by value, and equal values of other types print
# differently (True and 1, 1.0 and 1). So a text is kept and looked up only
# for a value whose leaves are exact ints or strs, or Row or MicroOpKind
# members. Rows and kinds need no check, as only a member equals a member.
def _exact_cell(cell) -> bool:
    return type(cell) is tuple and len(cell) == 2 and type(cell[0]) is int and type(cell[1]) is int


def _exact_sites(sites) -> bool:
    if type(sites) is not tuple:
        return False
    for site in sites:
        if (type(site) is not SiteCoord or type(site.axis) is not int
                or type(site.subrow) is not int):
            return False
    return True


def _head_texts(duration, freq_class, kind, partner) -> tuple[str, str]:
    """An op's text up to `param`, and its `partner` field."""
    return (f'{{{_SEP[1:]}"duration_ticks": {_int_text(duration)}'
            + ("" if freq_class is None else f'{_SEP}"freq_class": {json.dumps(freq_class)}')
            + f'{_SEP}"kind": {_KIND_TEXT[kind]}',
            "" if partner is None else f'{_SEP}"partner": {_ints_text(partner, 5)}')


def _tail_text(sites, site_texts: Optional[dict]) -> str:
    """An op's `sites` field to the end of the op, with each site's text kept
    in `site_texts` if given."""
    return f'{_SEP}"sites": ' + _block("[]", [
        site_texts.get(s) or site_texts.setdefault(s, _site_text(s, 6)) for s in sites
    ] if site_texts is not None else [_site_text(s, 6) for s in sites], 5) + "\n        }"


def schedule_to_json(schedule: Schedule, layout: TrilinearLayout, seed: int) -> tuple[str, dict]:
    """The schedule document as JSON text, plus its `summary` block.

    The text is json.dumps(doc, sort_keys=True, indent=2) + "\\n", written in
    one pass; with `indent` set that stdlib encoder runs in pure Python. Each
    distinct op head (duration, freq class, kind and partner), qubit, site,
    site tuple, initial position and signal set is encoded once per layout:
    the texts are kept in `layout.memos`, so a later call on the layout
    reuses what earlier calls wrote. Keys are type-exact: a text is kept and
    looked up only for a value whose leaves are exact ints, strs, or Row or
    MicroOpKind members (see `_exact_cell`). Any other value, such as True,
    1.0 or a list in a cell, is encoded afresh and not kept, so a kept text
    never stands in for an equal value that prints differently. `param` may
    be any JSON value, so it is dumped per op.
    """
    usage = waveform_usage(schedule, layout)
    summary = {"makespan": schedule.makespan,
               "max_waveform_classes": max(map(len, usage), default=0),
               "total_shuttle_steps": schedule.total_horizontal_steps}
    # The texts kept with the layout, by value: op heads by (duration, freq
    # class, kind, partner), qubit fields, site tuples (each with the tuple
    # itself), sites, initial positions and signal sets.
    heads, qubits, tails, site_texts, positions, signals = layout.memos.setdefault(
        _TEXTS, ({}, {}, {}, {}, {}, {}))
    ticks: dict[int, list[str]] = defaultdict(list)
    for qubit, op, start, partner in schedule.ops:
        kind, sites, duration, freq_class, param = op
        key = (duration, freq_class, kind, partner)
        if (type(duration) is int and (freq_class is None or type(freq_class) is str)
                and (partner is None or _exact_cell(partner))):
            head = heads.get(key) or heads.setdefault(key, _head_texts(*key))
        else:
            head = _head_texts(*key)
        if (type(qubit) is tuple and len(qubit) == 2  # _exact_cell, inlined: once per op
                and type(qubit[0]) is int and type(qubit[1]) is int):
            qubit_text = qubits.get(qubit) or qubits.setdefault(qubit, _qubit_text(qubit))
        else:
            qubit_text = _qubit_text(qubit)
        # A site tuple's text is kept with the tuple itself. A move's sites are
        # the layout's shared edge tuple (router `_moves`), so most hits are
        # that very tuple and need no check.
        kept = tails.get(sites) if type(sites) is tuple else None
        if kept is not None and (kept[1] is sites or _exact_sites(sites)):
            tail = kept[0]
        elif _exact_sites(sites):
            tail = tails.setdefault(sites, (_tail_text(sites, site_texts), sites))[0]
        else:
            tail = _tail_text(sites, None)
        if param is not None:
            head = (f'{head[0]}{_SEP}"param": {_dump(param, 5)}', head[1])
        ticks[start].append(f'{head[0]}{head[1]}{qubit_text}{tail}')
    return _block("{}", [
        '"initial_positions": ' + _block("[]", [
            (positions.get((cell, site)) or positions.setdefault((cell, site),
                                                                _position_text(cell, site)))
            if _exact_cell(cell) and _exact_sites((site,)) else _position_text(cell, site)
            for cell, site in schedule.initial_positions], 1),
        f'"makespan": {_int_text(schedule.makespan)}',
        f'"schema_version": {SCHEMA_VERSION}',
        f'"seed": {_int_text(seed)}',
        f'"summary": {_dump(summary, 1)}',
        '"ticks": ' + _block("[]", [
            # One tick's object, two levels deep (_int_text inlined: once per tick).
            f'{{\n      "ops": {_block("[]", ticks[t], 3)},\n      "tick": '
            f'{t if type(t) is int else json.dumps(t)}\n    }}'
            for t in sorted(ticks)], 1),
        # The sets come from `_set_signals`, of exact strs.
        '"waveforms_per_tick": ' + _block("[]", [
            signals.get(sigs) or signals.setdefault(
                sigs, _block("[]", [_SIGNAL_TEXT[sig] for sig in sorted(sigs)], 2))
            for sigs in usage], 1),
    ], 0) + "\n", summary
