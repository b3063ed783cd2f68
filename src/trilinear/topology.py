"""Grid-to-trilinear layout geometry.

A 2D qubit grid of R rows and C columns is folded onto three parallel 1D
dot rows: even grid rows (0, 2, ...) land in the Upper row, odd grid rows
in the Lower row, and the Middle row stays empty as a shuttling lane.
The Lower row is shifted right by half a row block so that vertical grid
neighbors sit half a block apart along the axis.

Coordinate conventions (fixed for the whole package):
  - grid cells are (row, col), 0-based
  - a site is a `SiteCoord` named tuple (row, axis, subrow): row in
    {Upper, Middle, Lower}, axis in units of dot pitch, subrow only used
    when the outer rows are stacked (m_rows > 1; subrow 0 is the innermost,
    adjacent to the Middle row)
  - on loop layouts the axis wraps modulo the row length

With m_rows = M > 1 each outer row becomes M stacked sub-rows and each
grid row occupies an axis block of ceil(C/M) instead of C, compressing
the shuttle distance accordingly.

A `SiteCoord` is the one site representation, inside the package as at its
edges. Neighbours follow from the coordinates by one rule, and a layout keeps
only the neighbour tuples looked up, so nothing array-sized is built. Their
order, Middle, Upper, Lower, then axis, then sub-row, is the router's
tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import InvalidGrid, InvalidSite

SCHEMA_VERSION = 1

Cell = tuple[int, int]


class Row(Enum):
    UPPER = "U"
    MIDDLE = "M"
    LOWER = "L"

    # Members are singletons, so the C-level identity hash is a valid hash.
    __hash__ = object.__hash__


# Display / canonical sort order (top to bottom).
_ROW_ORDER = {Row.UPPER: 0, Row.MIDDLE: 1, Row.LOWER: 2}
_ROWS = {r.value: r for r in Row}


class SiteClass(Enum):
    """Resonance class of a dot site.

    Nanomagnets sit on every other dot along the axis, so sites alternate
    between two spin-resonance frequencies: MAGNET (under a nanomagnet,
    hosts a qubit in the half-filled scheme) and BARE (no nanomagnet,
    kept empty). The Middle row inherits the same alternation by axis
    parity.
    """

    MAGNET = "magnet"
    BARE = "bare"


class SiteCoord(NamedTuple):
    row: Row
    axis: int
    subrow: int = 0

    def __repr__(self) -> str:
        if self.subrow:
            return f"({self.row.value},{self.axis},{self.subrow})"
        return f"({self.row.value},{self.axis})"


def site_key(site: SiteCoord) -> tuple[int, int, int]:
    """Canonical sort key (Upper, Middle, Lower; then axis, subrow)."""
    return (_ROW_ORDER[site.row], site.axis, site.subrow)


def site_class(site: SiteCoord) -> SiteClass:
    """Alternating resonance class along the axis (even axis = MAGNET)."""
    return SiteClass.MAGNET if site.axis % 2 == 0 else SiteClass.BARE


@dataclass(frozen=True)
class GridSpec:
    """R x C qubit grid; cells are (row, col), 0-based."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if type(self.rows) is not int or type(self.cols) is not int:  # True is no row count
            raise InvalidGrid(f"grid rows and cols must be integers, got rows={self.rows!r}, "
                              f"cols={self.cols!r}")
        if self.rows < 1 or self.cols < 1:
            raise InvalidGrid(f"grid must be at least 1x1, got {self.rows}x{self.cols}")

    def contains(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.rows and 0 <= c < self.cols

    def cells(self) -> Iterator[Cell]:
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)


class _Memo(dict):
    """A dict that fills itself: looking up a missing key stores and returns
    `build(key)`, so it holds only the keys looked up, and a hit is a plain
    dict lookup."""

    def __init__(self, build: Callable) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


@dataclass(frozen=True)
class TrilinearLayout:
    """Three-row shuttling layout for a 2D qubit grid.

    All three rows span axis positions [0, length). Outer sites beyond the
    mapped extent (the shift overhang of the Lower row, or the tail of a
    short row) are real dots that simply host no grid cell.
    """

    grid: GridSpec
    pitch_nm: float = 100.0
    loop: bool = False
    m_rows: int = 1

    def __post_init__(self) -> None:
        if self.grid.cols < 2:
            raise InvalidGrid("trilinear mapping needs at least 2 columns")
        if type(self.loop) is not bool:  # "false" is true, so a loop
            raise InvalidGrid(f"loop must be a bool, got {self.loop!r}")
        if not 0 < self.pitch_nm < math.inf:  # NaN fails both comparisons
            raise InvalidGrid(f"pitch must be positive and finite, got {self.pitch_nm}")
        if type(self.m_rows) is not int or not 1 <= self.m_rows <= self.grid.cols:
            raise InvalidGrid(f"m_rows must be an integer in [1, cols], got {self.m_rows!r} "
                              f"for {self.grid.cols} cols")

    # The extents below derive from the frozen fields only, so each is
    # computed once per instance (stored in __dict__, outside eq/hash/repr).

    # Axis extent of one grid row once distributed over m_rows sub-rows.
    @cached_property
    def block_width(self) -> int:
        return -(-self.grid.cols // self.m_rows)

    @cached_property
    def shift(self) -> int:
        return self.block_width // 2

    @cached_property
    def upper_len(self) -> int:
        return ((self.grid.rows + 1) // 2) * self.block_width

    @cached_property
    def lower_len(self) -> int:
        return (self.grid.rows // 2) * self.block_width

    @cached_property
    def length(self) -> int:
        # The head-tail join of a loop absorbs the lower-row overhang.
        if self.loop:
            return max(self.upper_len, self.lower_len)
        return max(self.upper_len, self.lower_len + self.shift)

    # ------------------------------------------------------------------
    # cell <-> site mapping

    def grid_to_site(self, cell: Cell) -> SiteCoord:
        """Site hosting a grid cell (even rows Upper, odd rows Lower)."""
        if not self.grid.contains(cell):
            raise InvalidGrid(f"cell {cell} outside grid")
        r, c = cell
        b = self.block_width
        sub, off = divmod(c, b)
        if r % 2 == 0:
            return SiteCoord(Row.UPPER, (r // 2) * b + off, sub)
        axis = (r // 2) * b + off + self.shift
        if self.loop:
            axis %= self.length
        return SiteCoord(Row.LOWER, axis, sub)

    def site_to_grid(self, site: SiteCoord) -> Optional[Cell]:
        """Inverse mapping; None for Middle sites and unmapped outer dots."""
        if not self.in_bounds(site):
            raise InvalidSite(f"site {site} outside layout")
        lower = site.row is Row.LOWER
        # Undo the Lower row's shift; on a loop the shifted axis wrapped.
        axis = site.axis - self.shift * lower
        block, off = divmod(axis % self.length if self.loop else axis, self.block_width)
        r, c = 2 * block + lower, site.subrow * self.block_width + off
        mapped = site.row is not Row.MIDDLE and 0 <= r < self.grid.rows and c < self.grid.cols
        return (r, c) if mapped else None

    # ------------------------------------------------------------------
    # site lattice

    def in_bounds(self, site: SiteCoord) -> bool:
        if not 0 <= site.axis < self.length:
            return False
        if site.row is Row.MIDDLE:
            return site.subrow == 0
        return 0 <= site.subrow < self.m_rows

    def sites(self) -> Iterator[SiteCoord]:
        for row in (Row.UPPER, Row.MIDDLE, Row.LOWER):
            subrows = 1 if row is Row.MIDDLE else self.m_rows
            for axis in range(self.length):
                for sub in range(subrows):
                    yield SiteCoord(row, axis, sub)

    def outer_sites(self) -> Iterator[SiteCoord]:
        for site in self.sites():
            if site.row is not Row.MIDDLE:
                yield site

    def step_axis(self, axis: int, delta: int) -> Optional[int]:
        """Axis one step over; wraps on loops, None off a non-loop end."""
        nxt = axis + delta
        if self.loop:
            return nxt % self.length
        return nxt if 0 <= nxt < self.length else None

    def axis_distance(self, a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, self.length - d) if self.loop else d

    @property
    def n_sites(self) -> int:
        return self.length * (2 * self.m_rows + 1)

    def neighbor_rule(self, site: SiteCoord) -> tuple[SiteCoord, ...]:
        """The sites adjacent to a site in bounds: one axis step along its row
        and sub-row (wrapping on loops), and at its axis one row or sub-row
        transfer inwards and outwards; Middle, Upper, Lower, then by axis and
        sub-row."""
        row, axis, sub = site
        n = self.length
        steps = {(axis - 1) % n, (axis + 1) % n} if self.loop else {axis - 1, axis + 1}
        along = [SiteCoord(row, a, sub) for a in sorted(steps) if 0 <= a < n and a != axis]
        if row is Row.MIDDLE:  # out to sub-row 0 of both outer rows
            return (*along, SiteCoord(Row.UPPER, axis), SiteCoord(Row.LOWER, axis))
        # In to the Middle row or the inner sub-row, out to the next sub-row.
        across = [SiteCoord(row, axis, s) for s in (sub - 1, sub + 1) if 0 <= s < self.m_rows]
        inner = (SiteCoord(Row.MIDDLE, axis),) if sub == 0 else ()
        return (*inner, *sorted(along + across))  # one row: ordered by (axis, sub-row)

    @cached_property
    def neighbors(self) -> _Memo:
        """Site -> `neighbor_rule(site)`, kept for the sites looked up, so a
        search that meets a site again reuses its tuple and sites."""
        return _Memo(self.neighbor_rule)

    @cached_property
    def memos(self) -> dict:
        """What other modules keep with the layout: the router's moves and
        the site of each cell planned, the signal set bit of each op and the
        schedule writer's texts. Each grows with the distinct values that
        calls on the layout meet."""
        return {}

    def site_neighbors(self, site: SiteCoord) -> tuple[SiteCoord, ...]:
        """Lattice-adjacent sites, in the order of `neighbor_rule`."""
        if not self.in_bounds(site):
            raise InvalidSite(f"site {site} outside layout")
        return self.neighbors[site]

    def adjacent(self, a: SiteCoord, b: SiteCoord) -> bool:
        return b in self.site_neighbors(a)


def map_to_trilinear(
    grid: GridSpec,
    pitch_nm: float = 100.0,
    loop: bool = False,
    m_rows: int = 1,
) -> TrilinearLayout:
    """Fold a 2D grid onto the three-row layout."""
    return TrilinearLayout(grid=grid, pitch_nm=pitch_nm, loop=loop, m_rows=m_rows)


# ----------------------------------------------------------------------
# Defects

Barrier = tuple[SiteCoord, SiteCoord]


def _normalize_barrier(a: SiteCoord, b: SiteCoord) -> Barrier:
    return (a, b) if site_key(a) <= site_key(b) else (b, a)


@dataclass(frozen=True)
class DefectMap:
    """Unusable dot sites and unusable inter-dot barriers.

    A dead site removes the node from the shuttle lattice; a dead barrier
    removes a single edge between two adjacent sites.
    """

    dead_sites: frozenset[SiteCoord] = frozenset()
    dead_barriers: frozenset[Barrier] = frozenset()

    @classmethod
    def of(cls, sites=(), barriers=()) -> "DefectMap":
        return cls(
            dead_sites=frozenset(sites),
            dead_barriers=frozenset(_normalize_barrier(a, b) for a, b in barriers),
        )

    def is_dead(self, site: SiteCoord) -> bool:
        return site in self.dead_sites

    @cached_property
    def cut(self) -> frozenset[Barrier]:
        """Each dead barrier both ways round, so a step (a, b) is one lookup."""
        return self.dead_barriers | {(b, a) for a, b in self.dead_barriers}

    def barrier_dead(self, a: SiteCoord, b: SiteCoord) -> bool:
        return (a, b) in self.cut

    def validate_against(self, layout: TrilinearLayout) -> None:
        for site in self.dead_sites:
            if not layout.in_bounds(site):
                raise InvalidSite(f"dead site {site} outside layout")
        for a, b in self.dead_barriers:
            if not layout.in_bounds(a) or not layout.in_bounds(b):
                raise InvalidSite(f"dead barrier {a}-{b} outside layout")
            if not layout.adjacent(a, b):
                raise InvalidSite(f"dead barrier {a}-{b} joins non-adjacent sites")


NO_DEFECTS = DefectMap()


# ----------------------------------------------------------------------
# JSON serialization

def site_to_obj(site: SiteCoord) -> list:
    if site.subrow:
        return [site.row.value, site.axis, site.subrow]
    return [site.row.value, site.axis]


def site_from_obj(obj) -> SiteCoord:
    """`[row, axis]` or `[row, axis, subrow]`, as `site_to_obj` writes it."""
    if type(obj) is not list or not 2 <= len(obj) <= 3:
        raise InvalidSite(f"bad site object {obj!r}")
    try:
        row = _ROWS[obj[0]]
    except (KeyError, TypeError) as exc:
        raise InvalidSite(f"bad site object {obj!r}") from exc
    axis = obj[1]
    sub = obj[2] if len(obj) == 3 else 0
    if type(axis) is not int or type(sub) is not int:
        raise InvalidSite(f"bad site object {obj!r}: coordinates must be integers")
    return SiteCoord(row, axis, sub)


def defects_to_obj(defects: DefectMap) -> dict:
    return {
        "sites": [site_to_obj(s) for s in sorted(defects.dead_sites, key=site_key)],
        "barriers": [
            [site_to_obj(a), site_to_obj(b)]
            for a, b in sorted(defects.dead_barriers, key=lambda p: (site_key(p[0]), site_key(p[1])))
        ],
    }


def defects_from_obj(obj) -> DefectMap:
    if obj is None:
        return NO_DEFECTS
    try:
        sites = [site_from_obj(s) for s in obj.get("sites", [])]
        barriers = [(site_from_obj(a), site_from_obj(b)) for a, b in obj.get("barriers", [])]
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidSite(f"bad defects object {obj!r}") from exc
    return DefectMap.of(sites=sites, barriers=barriers)


def layout_to_json(layout: TrilinearLayout, defects: DefectMap = NO_DEFECTS) -> dict:
    """Layout (plus defects) as a plain JSON-ready document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "rows": layout.grid.rows,
        "cols": layout.grid.cols,
        "pitch_nm": layout.pitch_nm,
        "loop": layout.loop,
        "m_rows": layout.m_rows,
        "defects": defects_to_obj(defects),
    }

