"""Shuttle routing on a trilinear layout.

Plans realize one logical operation as a chain of micro-ops. A two-qubit
gate between non-adjacent cells follows a fixed shape: the moving qubit
transfers vertically into the Middle row at its own axis, shuttles along
the lattice to the partner's axis, performs the gate against the parked
partner (vertical adjacency), then retraces the leg and transfers home.

Routing is occupancy-blind: only dead sites, dead barriers and the sites
the caller explicitly blocks constrain a path. Collisions between
concurrently moving qubits are the scheduler's concern. A blocked set is
used as given, not copied per op; a gate plan copies it only if its path
needs the search. Move micro-ops and the sites of the cells planned are
shared per layout.

Path search and the reconfiguration flood run over `SiteCoord`s. The
search reads the layout's neighbour memo, whose order is the tie-break;
the defect map answers dead sites and cut steps (`DefectMap.cut`).

Step accounting: `horizontal_steps` counts HorizontalStep micro-ops only;
`vertical_transfers` counts row transfers; `shuttle_steps` counts every
move inside the two shuttle legs (detours around dead middle sites add
vertical moves there, so it is the honest distance metric).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Iterable, NamedTuple, Optional

from .errors import (CircuitError, InvalidSite, NotNeighbors, Partitioned, Unrecoverable,
                     UnsupportedPair)
from .topology import (
    NO_DEFECTS,
    SCHEMA_VERSION,
    Cell,
    DefectMap,
    Row,
    SiteCoord,
    TrilinearLayout,
    _Memo,
    site_from_obj,
    site_to_obj,
)


class MicroOpKind(Enum):
    VERTICAL_TRANSFER = "vertical_transfer"
    HORIZONTAL_STEP = "horizontal_step"
    TWO_QUBIT_GATE = "two_qubit_gate"
    SINGLE_QUBIT_PULSE = "single_qubit_pulse"
    READOUT = "readout"

    # Members are singletons, so the C-level identity hash is a valid hash.
    __hash__ = object.__hash__


_KINDS = {k.value: k for k in MicroOpKind}
# Module-level aliases: hot loops compare kinds and rows without an enum
# attribute lookup.
_VERTICAL, _HORIZONTAL, _GATE, _PULSE, _READOUT = MicroOpKind
_UPPER, _LOWER = Row.UPPER, Row.LOWER


@dataclass(frozen=True)
class Durations:
    """Tick cost per micro-op kind. One tick is one horizontal shuttle step."""

    horizontal_step: int = 1
    vertical_transfer: int = 1
    two_qubit_gate: int = 2
    single_qubit_pulse: int = 4
    readout: int = 10

    def __post_init__(self) -> None:
        for name, ticks in vars(self).items():
            # A type check, not a coercion, as in `MicroOp.from_obj`.
            if type(ticks) is not int or ticks < 1:
                raise CircuitError(f"{name}: expected an integer >= 1, got {ticks!r}")


DEFAULT_DURATIONS = Durations()


class MicroOp(NamedTuple):
    """One primitive action.

    `sites` semantics by kind: moves carry (src, dst); a two-qubit gate
    carries (mover site, partner site); pulses and readout carry the one
    site they act on. `freq_class` tags single-qubit pulses with the
    resonance class they drive ("magnet" or "bare"); `param` carries the
    rotation for pulses. A named tuple, so it is built in C; use
    `_replace` to derive a changed copy.
    """

    kind: MicroOpKind
    sites: tuple[SiteCoord, ...]
    duration_ticks: int = 1
    freq_class: Optional[str] = None
    param: object = None

    @property
    def src(self) -> SiteCoord:
        return self.sites[0]

    @property
    def dst(self) -> SiteCoord:
        return self.sites[-1]

    @property
    def is_move(self) -> bool:
        return self.kind is _HORIZONTAL or self.kind is _VERTICAL

    def to_obj(self) -> dict:
        obj = {
            "kind": self.kind.value,
            "sites": [site_to_obj(s) for s in self.sites],
            "duration_ticks": self.duration_ticks,
        }
        if self.freq_class is not None:
            obj["freq_class"] = self.freq_class
        if self.param is not None:
            obj["param"] = self.param
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "MicroOp":
        duration = obj.get("duration_ticks", 1)
        # A type check, not a coercion: 2.9 or true is not a tick count.
        if type(duration) is not int or duration < 1:
            raise CircuitError(f"duration_ticks: expected an integer >= 1, got {duration!r}")
        try:
            kind = _KINDS[obj.get("kind")]
        except (KeyError, TypeError):
            raise CircuitError(f"kind: expected a micro-op kind, "
                               f"got {obj.get('kind')!r}") from None
        sites = obj.get("sites")
        count = 1 if kind is _PULSE or kind is _READOUT else 2
        if not isinstance(sites, list) or len(sites) != count:
            raise CircuitError(f"sites: a {kind.value} takes {count} sites, got {sites!r}")
        freq_class = obj.get("freq_class")
        if freq_class is not None and type(freq_class) is not str:
            raise CircuitError(f"freq_class: expected a string, got {freq_class!r}")
        src = site_from_obj(sites[0])
        return cls(kind, (src,) if count == 1 else (src, site_from_obj(sites[1])), duration,
                   freq_class, obj.get("param"))


def move_op(src: SiteCoord, dst: SiteCoord, durations: Durations = DEFAULT_DURATIONS) -> MicroOp:
    """A new move op between adjacent sites, typed by geometry; plans share `_moves`'s ops."""
    if src.row is dst.row and src.subrow == dst.subrow:
        return MicroOp(_HORIZONTAL, (src, dst), durations.horizontal_step)
    return MicroOp(_VERTICAL, (src, dst), durations.vertical_transfer)


def _moves(layout: TrilinearLayout, durations: Durations) -> _Memo:
    moves = layout.memos.get(durations)
    if moves is None:  # each op keeps its key as its sites: one tuple per edge
        moves = layout.memos[durations] = _Memo(lambda e: move_op(*e, durations)._replace(sites=e))
    return moves


# The key of the cell -> site memo that plans keep in `layout.memos`.
_SITES = "grid_to_site sites"


def _site_of(layout: TrilinearLayout, cell: Cell) -> SiteCoord:
    """`layout.grid_to_site(cell)`, kept with the layout for a cell of two exact
    ints; a cell of other types (1.0 for 1) maps to sites of those types, so its
    site is worked out afresh and not kept."""
    if type(cell) is tuple and len(cell) == 2 and type(cell[0]) is int and type(cell[1]) is int:
        sites = layout.memos.get(_SITES)
        if sites is None:
            sites = layout.memos[_SITES] = _Memo(layout.grid_to_site)
        return sites[cell]
    return layout.grid_to_site(cell)


def move_direction(layout: TrilinearLayout, op: MicroOp) -> str:
    """Movement direction tag: east/west along the axis, up/down across rows."""
    src, dst = op.sites[0], op.sites[-1]
    if op.kind is _HORIZONTAL:
        delta = dst.axis - src.axis
        if layout.loop:
            delta = (delta + layout.length) % layout.length
            return "east" if delta == 1 else "west"
        return "east" if delta > 0 else "west"
    return "up" if _height(dst) > _height(src) else "down"


def _height(site: SiteCoord) -> int:
    if site.row is _UPPER:
        return 1 + site.subrow
    if site.row is _LOWER:
        return -1 - site.subrow
    return 0


# ----------------------------------------------------------------------
# Shortest paths

class _Adjusted:
    """A gate plan's blocked sites: the caller's `base` less the mover's home
    `free`, plus the partner's home `extra`, read in place. The straight walk
    reads it through `isdisjoint`; only the search copies it, into a set."""

    __slots__ = ("base", "free", "extra")

    def __init__(self, base: AbstractSet[SiteCoord], free: SiteCoord, extra: SiteCoord) -> None:
        self.base, self.free, self.extra = base, free, extra

    def __contains__(self, site: SiteCoord) -> bool:
        return site == self.extra or (site in self.base and site != self.free)

    def isdisjoint(self, sites: list[SiteCoord]) -> bool:
        base, free = self.base, self.free
        return self.extra not in sites and (
            base.isdisjoint(sites) or all(site == free for site in sites if site in base))


def shortest_shuttle_path(
    layout: TrilinearLayout,
    src: SiteCoord,
    dst: SiteCoord,
    defects: DefectMap = NO_DEFECTS,
    blocked: Iterable[SiteCoord] = (),
) -> list[SiteCoord]:
    """Minimum-step site path from src to dst over usable sites.

    Deterministic: ties prefer Middle-row travel, then the lower axis
    index. Raises Partitioned when no path exists.

    The walk along a row (and sub-row) that src and dst share is the one
    shortest path, as each step changes the axis by at most one, unless a dead
    site, blocked site or dead barrier is in its way or a loop's two ways tie.
    The search reads the layout's neighbour memo, whose order is the
    tie-break. A set `blocked` is used as given; another iterable is copied.
    A gate plan's `_Adjusted` view is read in place by the walk and copied
    into a set only if the search runs.
    """
    if not isinstance(blocked, (set, frozenset, _Adjusted)):
        blocked = frozenset(blocked)
    for end in (src, dst):
        if not layout.in_bounds(end):
            raise InvalidSite(f"path endpoint {end} outside layout")
        if defects.is_dead(end) or end in blocked:
            raise Partitioned(f"path endpoint {end} is unusable")
    if src == dst:
        return [src]
    dead, cut = defects.dead_sites, defects.cut
    ahead = (dst.axis - src.axis) % layout.length if layout.loop else dst.axis - src.axis
    if (src.row is dst.row and src.subrow == dst.subrow
            and not (layout.loop and 2 * ahead == layout.length)):
        delta = 1 if ahead == layout.axis_distance(src.axis, dst.axis) else -1
        row, axis, sub = src
        path = [src]
        new = tuple.__new__  # builds a SiteCoord without its Python-level __new__
        while path[-1] != dst:
            axis = (axis + delta) % layout.length
            site = new(SiteCoord, (row, axis, sub))
            if site in dead or (cut and (path[-1], site) in cut):
                break
            path.append(site)
        else:
            if blocked.isdisjoint(path):
                return path
    if type(blocked) is _Adjusted:  # the search reads a set
        blocked = blocked.base - {blocked.free} | {blocked.extra}
    # parent[site]: None if unusable, else the site that reached it; unreached sites are absent.
    parent = dict.fromkeys(dead)
    parent[src] = src
    queue = deque([src])
    neighbors = layout.neighbors
    while queue:
        cur = queue.popleft()
        for nb in neighbors[cur]:
            if nb in parent or (cut and (cur, nb) in cut):
                continue
            if nb in blocked:
                parent[nb] = None
                continue
            parent[nb] = cur
            if nb == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(nb)
    raise Partitioned(f"no shuttle path from {src} to {dst}")


# ----------------------------------------------------------------------
# Plans

@dataclass(frozen=True)
class ShuttlePlan:
    """Micro-op chain realizing one logical operation for one moving qubit."""

    qubit: Cell
    ops: tuple[MicroOp, ...]
    shuttle_steps: int

    @property
    def horizontal_steps(self) -> int:
        return sum(1 for op in self.ops if op.kind is _HORIZONTAL)

    @property
    def vertical_transfers(self) -> int:
        return sum(1 for op in self.ops if op.kind is _VERTICAL)

    @property
    def duration_ticks(self) -> int:
        return sum(op.duration_ticks for op in self.ops)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "qubit": list(self.qubit),
            "ops": [op.to_obj() for op in self.ops],
            "horizontal_steps": self.horizontal_steps,
            "vertical_transfers": self.vertical_transfers,
            "shuttle_steps": self.shuttle_steps,
            "one_way": False,
            "duration_ticks": self.duration_ticks,
        }


def _round_trip(layout: TrilinearLayout, path: list[SiteCoord], op: MicroOp,
                durations: Durations) -> list[MicroOp]:
    """The moves along `path`, then `op`, then the moves back along it."""
    moves = _moves(layout, durations)
    back = path[::-1]
    return [*map(moves.__getitem__, zip(path, path[1:])), op,
            *map(moves.__getitem__, zip(back, back[1:]))]


def _require_single_row(layout: TrilinearLayout) -> None:
    """Reject stacked layouts: gates are modelled only on m_rows == 1."""
    if layout.m_rows > 1:
        raise CircuitError(f"m_rows={layout.m_rows}: gates on stacked layouts are not "
                           "modelled; route and schedule need m_rows=1")


def gate_shuttle_plan(
    layout: TrilinearLayout,
    mover: Cell,
    partner: Cell,
    defects: DefectMap = NO_DEFECTS,
    durations: Durations = DEFAULT_DURATIONS,
    blocked: Iterable[SiteCoord] = (),
) -> ShuttlePlan:
    """Round-trip plan moving `mover` to gate against the parked `partner`.

    Shape: transfer into the Middle row at the mover's own axis, shuttle
    to the partner's axis (detouring around defects), gate against the
    partner from the adjacent site, retrace, transfer home. The path avoids
    `blocked` less the mover's home plus the partner's. The caller's `blocked`
    is never changed, and it is copied only if the straight Middle-row walk is
    cut and the search runs: the walk meets Middle sites only, and no home is
    one.
    """
    _require_single_row(layout)
    mover_site, partner_site = _site_of(layout, mover), _site_of(layout, partner)
    blocked = _Adjusted(blocked if isinstance(blocked, (set, frozenset)) else frozenset(blocked),
                        mover_site, partner_site)
    if defects.is_dead(mover_site) or defects.is_dead(partner_site):
        raise Partitioned(f"gate endpoint site is dead ({mover}, {partner})")

    entry = SiteCoord(Row.MIDDLE, mover_site.axis)
    if defects.is_dead(entry) or entry in blocked:
        raise Partitioned(f"vertical access through {entry} is unusable")
    if defects.barrier_dead(mover_site, entry):
        raise Partitioned(f"vertical barrier {mover_site}-{entry} is dead")

    # Gate happens from the partner's Middle neighbor; a dead barrier
    # there kills the exchange coupling as well as the transfer.
    gate_pos = SiteCoord(Row.MIDDLE, partner_site.axis)
    if defects.barrier_dead(gate_pos, partner_site):
        raise Partitioned(f"barrier at the gate site {gate_pos}-{partner_site} is dead")

    path = [mover_site] + shortest_shuttle_path(layout, entry, gate_pos, defects, blocked)
    gate = MicroOp(MicroOpKind.TWO_QUBIT_GATE, (gate_pos, partner_site),
                   durations.two_qubit_gate)
    ops = tuple(_round_trip(layout, path, gate, durations))
    return ShuttlePlan(qubit=mover, ops=ops, shuttle_steps=2 * (len(path) - 2))


def plan_two_qubit(
    layout: TrilinearLayout,
    q_a: Cell,
    q_b: Cell,
    defects: DefectMap = NO_DEFECTS,
    durations: Durations = DEFAULT_DURATIONS,
    blocked: Iterable[SiteCoord] = (),
) -> ShuttlePlan:
    """Gate plan for any supported pair; tries q_a as mover, then q_b.

    Adjacent cells gate in place unless the barrier between them is dead,
    in which case the gate reroutes through the Middle row like any
    non-adjacent pair.
    """
    _require_single_row(layout)
    sa, sb = _site_of(layout, q_a), _site_of(layout, q_b)
    if sb in layout.neighbors[sa] and not defects.barrier_dead(sa, sb):
        gate = MicroOp(MicroOpKind.TWO_QUBIT_GATE, (sa, sb), durations.two_qubit_gate)
        return ShuttlePlan(qubit=q_a, ops=(gate,), shuttle_steps=0)
    try:
        return gate_shuttle_plan(layout, q_a, q_b, defects, durations, blocked)
    except Partitioned:
        return gate_shuttle_plan(layout, q_b, q_a, defects, durations, blocked)


def vertical_gate_plan(
    layout: TrilinearLayout,
    q_a: Cell,
    q_b: Cell,
    defects: DefectMap = NO_DEFECTS,
    durations: Durations = DEFAULT_DURATIONS,
) -> ShuttlePlan:
    """Two-qubit plan for grid-adjacent cells.

    Vertical neighbors shuttle through the Middle row (half a row block
    out, half back; exactly C horizontal steps on an even-C defect-free
    layout). Same-row neighbors gate in place with no shuttling. Cells
    that are not grid-adjacent raise NotNeighbors.
    """
    for cell in (q_a, q_b):
        if not layout.grid.contains(cell):
            raise NotNeighbors(f"cell {cell} outside grid")
    dr, dc = abs(q_a[0] - q_b[0]), abs(q_a[1] - q_b[1])
    if (dr, dc) not in ((1, 0), (0, 1)):
        raise NotNeighbors(f"cells {q_a} and {q_b} are not grid-adjacent")
    return plan_two_qubit(layout, q_a, q_b, defects, durations)


def rows_compatible(layout: TrilinearLayout, q_a: Cell, q_b: Cell) -> bool:
    """Pair falls in a supported connectivity class (same/neighboring rows)."""
    ra, rb = q_a[0], q_b[0]
    if abs(ra - rb) <= 1:
        return True
    # A loop joins the head and tail grid rows through the wraparound.
    return layout.loop and {ra, rb} == {0, layout.grid.rows - 1}


def long_range_plan(
    layout: TrilinearLayout,
    q_a: Cell,
    q_b: Cell,
    defects: DefectMap = NO_DEFECTS,
    durations: Durations = DEFAULT_DURATIONS,
) -> ShuttlePlan:
    """Beyond-nearest-neighbor plan for same-row or neighboring-row pairs.

    Horizontal steps stay within 2C for same-row pairs (including the two
    opposite row ends) and 3C for neighboring-row pairs. On loop layouts
    the wraparound is used whenever it is shorter, which also connects the
    head and tail grid rows.
    """
    for cell in (q_a, q_b):
        if not layout.grid.contains(cell):
            raise UnsupportedPair(f"cell {cell} outside grid")
    if q_a == q_b:
        raise UnsupportedPair("cells must be distinct")
    if not rows_compatible(layout, q_a, q_b):
        raise UnsupportedPair(
            f"cells {q_a} and {q_b} are neither same-row nor neighboring-row"
        )
    return plan_two_qubit(layout, q_a, q_b, defects, durations)


# ----------------------------------------------------------------------
# Defect reconfiguration

@dataclass(frozen=True)
class Reconfiguration:
    """Outer dots repurposed as shuttling waypoints plus the qubits lost.

    Sacrificed cells are exactly those whose mapped site is dead or
    repurposed; everything else keeps a working vertical access to the
    Middle row.
    """

    repurposed_sites: frozenset[SiteCoord]
    sacrificed_qubits: frozenset[Cell]


def reconfigure_for_defects(layout: TrilinearLayout,
                            defects: DefectMap = NO_DEFECTS) -> Reconfiguration:
    """Repurpose outer dots stranded from the Middle row; report the cost.

    An alive outer dot can shuttle only if both its Middle neighbour and
    the barrier to it are alive. Every other alive outer dot is converted
    to a shuttling waypoint and its qubit (if the dot was mapped) is
    sacrificed. The rule is local: a dot with a live link to the Middle
    row is never repurposed, so the repurposed dots never offer a way into
    the Middle row and repurposing one dot cannot restore access for
    another, and the stranded dots follow from the defect list alone. Raises
    Unrecoverable when the defects sever the alive lattice between surviving
    qubits. While the Middle row is in one piece (no Middle cut, or one on a
    loop) nothing array-sized is built or flooded: every survivor enters it at
    its own axis. Nothing is cached; each call decides afresh.
    """
    _require_single_row(layout)
    defects.validate_against(layout)
    dead, cut = defects.dead_sites, defects.cut
    # With one outer row a side, a dead Middle site strands the outer dots at
    # its axis, and a cut Middle-outer barrier strands its outer end.
    repurposed = {SiteCoord(row, s.axis) for s in dead if s.row is Row.MIDDLE
                  for row in (_UPPER, _LOWER)}
    repurposed = (repurposed | {b for a, b in cut if a.row is Row.MIDDLE
                                and b.row is not Row.MIDDLE}) - dead
    sacrificed = {cell for s in (*dead, *repurposed) if (cell := layout.site_to_grid(s))}

    # A line in one piece has no Middle cut; a loop of 3 or more axes stays
    # in one piece after one (a 2-axis loop has a single Middle edge).
    middle_cuts = (sum(s.row is Row.MIDDLE for s in dead)
                   + sum(a.row is b.row is Row.MIDDLE for a, b in defects.dead_barriers))
    if middle_cuts <= (1 if layout.loop and layout.length >= 3 else 0):
        return Reconfiguration(frozenset(repurposed), frozenset(sacrificed))

    # Survivors must share one alive-lattice component: flood from each
    # survivor not yet reached. Dead sites start out reached. The flood meets
    # each site once, so it calls the neighbour rule, not the memo.
    reached = set(dead)
    components = 0
    adjacent = layout.neighbor_rule
    for cell in layout.grid.cells():
        if cell in sacrificed or (site := layout.grid_to_site(cell)) in reached:
            continue
        components += 1
        reached.add(site)
        stack = [site]
        while stack:
            cur = stack.pop()
            for nb in adjacent(cur):
                if nb not in reached and not (cut and (cur, nb) in cut):
                    reached.add(nb)
                    stack.append(nb)
    if components > 1:
        raise Unrecoverable(
            "defects sever the array; surviving qubits span "
            f"{components} disconnected components"
        )
    return Reconfiguration(frozenset(repurposed), frozenset(sacrificed))
