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

Site ids: on a layout of length n, a Middle site's id is its axis, an Upper
site's is n + axis*M + subrow and a Lower site's is n + n*M + axis*M + subrow.
The ids are dense in [0, n*(2M+1)), and ascending ids are the router's
tie-break order. They are arithmetic, so nothing array-sized is built.
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
        if self.rows < 1 or self.cols < 1:
            raise InvalidGrid(f"grid must be at least 1x1, got {self.rows}x{self.cols}")

    def contains(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.rows and 0 <= c < self.cols

    def cells(self) -> Iterator[Cell]:
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)


def neighbors_2d(grid: GridSpec, cell: Cell) -> list[Cell]:
    """Von Neumann neighbors of a cell (2-4 cells)."""
    if not grid.contains(cell):
        raise InvalidGrid(f"cell {cell} outside {grid.rows}x{grid.cols} grid")
    r, c = cell
    out = []
    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
        if 0 <= rr < grid.rows and 0 <= cc < grid.cols:
            out.append((rr, cc))
    return out


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
        if self.pitch_nm <= 0:
            raise InvalidGrid(f"pitch must be positive, got {self.pitch_nm}")
        if not 1 <= self.m_rows <= self.grid.cols:
            raise InvalidGrid(
                f"m_rows must be in [1, cols], got {self.m_rows} for {self.grid.cols} cols"
            )

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

    def site_id(self, site: SiteCoord) -> int:
        """The id of a site in bounds (see the module docstring)."""
        if site.row is Row.MIDDLE:
            return site.axis
        base = self.length if site.row is Row.UPPER else self.length * (1 + self.m_rows)
        return base + site.axis * self.m_rows + site.subrow

    @cached_property
    def id_site(self) -> Callable[[int], SiteCoord]:
        """`id_site(i)`: the site with id `i`. Like `neighbor_ids`, it keeps what
        it computes, so a path over ids allocates no new site per step."""
        n, m = self.length, self.m_rows

        def id_site(i: int) -> SiteCoord:
            if not 0 <= i < n * (2 * m + 1):
                raise InvalidSite(f"site id {i} outside layout")
            if i < n:
                return SiteCoord(Row.MIDDLE, i)
            row = Row.UPPER if i < n + n * m else Row.LOWER
            return SiteCoord(row, *divmod(i - n - (n * m if row is Row.LOWER else 0), m))
        return _Memo(id_site).__getitem__

    @cached_property
    def neighbor_ids(self) -> Callable[[int], tuple[int, ...]]:
        """`neighbor_ids(i)`: ids of the sites adjacent to id `i`, ascending: one
        axis step along its row and sub-row (wrapping on loops), and at its
        axis one row or sub-row transfer inwards and outwards."""
        n, m, loop, id_site = self.length, self.m_rows, self.loop, self.id_site

        def neighbor_ids(i: int) -> tuple[int, ...]:
            row, axis, sub = id_site(i)
            if row is Row.MIDDLE:  # out to sub-row 0 of both outer rows
                stride, ids = 1, {n + i * m, n + n * m + i * m}
            else:  # in to the Middle row or the inner sub-row, out to the next
                stride, ids = m, {i - 1 if sub else axis} | ({i + 1} if sub + 1 < m else set())
            for a in (axis - 1, axis + 1):
                a = a % n if loop else a
                if 0 <= a < n and a != axis:
                    ids.add(i + (a - axis) * stride)
            return tuple(sorted(ids))
        return _Memo(neighbor_ids).__getitem__

    @cached_property
    def memos(self) -> dict:
        """What other modules keep with the layout, e.g. the router's moves."""
        return {}

    def site_neighbors(self, site: SiteCoord) -> list[SiteCoord]:
        """Lattice-adjacent sites, in ascending site id order."""
        if not self.in_bounds(site):
            raise InvalidSite(f"site {site} outside layout")
        return [self.id_site(i) for i in self.neighbor_ids(self.site_id(site))]

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

    def barrier_dead(self, a: SiteCoord, b: SiteCoord) -> bool:
        return _normalize_barrier(a, b) in self.dead_barriers

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


def _layout_field(doc: dict, name: str, default, valid, expected: str):
    if name not in doc and default is None:
        raise InvalidGrid(f"layout document missing field {name!r}")
    value = doc.get(name, default)
    if not valid(value):
        raise InvalidGrid(f"layout field {name!r}: expected {expected}, got {value!r}")
    return value


def layout_from_json(doc: dict) -> tuple[TrilinearLayout, DefectMap]:
    """Read a `layout_to_json` document back. Each field must have the JSON
    type that writer gives it; nothing is coerced."""
    def integer(name: str, default=None) -> int:
        # JSON's true/false are not integers here.
        return _layout_field(doc, name, default, lambda v: type(v) is int, "an integer")

    layout = TrilinearLayout(
        grid=GridSpec(integer("rows"), integer("cols")),
        pitch_nm=float(_layout_field(doc, "pitch_nm", 100.0,
                                     lambda v: type(v) in (int, float) and math.isfinite(v),
                                     "a finite number")),
        loop=_layout_field(doc, "loop", False, lambda v: type(v) is bool, "true or false"),
        m_rows=integer("m_rows", 1),
    )
    defects = defects_from_obj(doc.get("defects"))
    defects.validate_against(layout)
    return layout, defects
