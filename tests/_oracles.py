"""Brute-force oracles, derived from first principles.

Everything here rebuilds the site lattice and the grid mapping from their
definitions, without touching the package's adjacency or mapping code, so
oracle agreement is a genuine two-route check.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import networkx as nx

from trilinear.errors import InvalidSite, Partitioned
from trilinear.topology import NO_DEFECTS, DefectMap, Row, SiteCoord, TrilinearLayout

Node = tuple[str, int, int]  # (row char, axis, subrow)


def expected_dims(rows: int, cols: int, loop: bool = False, m_rows: int = 1):
    block = -(-cols // m_rows)
    shift = block // 2
    upper = ((rows + 1) // 2) * block
    lower = (rows // 2) * block
    length = max(upper, lower) if loop else max(upper, lower + shift)
    return block, shift, upper, lower, length


def expected_site(rows: int, cols: int, cell, loop: bool = False, m_rows: int = 1) -> Node:
    """Grid cell -> site, straight from the mapping definition."""
    block, shift, _, _, length = expected_dims(rows, cols, loop, m_rows)
    r, c = cell
    sub, off = divmod(c, block)
    if r % 2 == 0:
        return ("U", (r // 2) * block + off, sub)
    axis = (r // 2) * block + off + shift
    if loop:
        axis %= length
    return ("L", axis, sub)


def site_graph(rows: int, cols: int, loop: bool = False, m_rows: int = 1,
               dead_sites=(), dead_barriers=()) -> nx.Graph:
    """The 3-row site lattice as a networkx graph, minus defects."""
    _, _, _, _, length = expected_dims(rows, cols, loop, m_rows)
    dead = set(dead_sites)
    dead_edges = {frozenset(e) for e in dead_barriers}
    g = nx.Graph()
    for axis in range(length):
        for node in _column(axis, m_rows):
            if node not in dead:
                g.add_node(node)

    def add_edge(a: Node, b: Node) -> None:
        if a in g and b in g and frozenset((a, b)) not in dead_edges:
            g.add_edge(a, b)

    for axis in range(length):
        nxt = (axis + 1) % length if loop else axis + 1
        if nxt < length and nxt != axis:
            add_edge(("M", axis, 0), ("M", nxt, 0))
            for row in ("U", "L"):
                for sub in range(m_rows):
                    add_edge((row, axis, sub), (row, nxt, sub))
        add_edge(("U", axis, 0), ("M", axis, 0))
        add_edge(("M", axis, 0), ("L", axis, 0))
        for row in ("U", "L"):
            for sub in range(m_rows - 1):
                add_edge((row, axis, sub), (row, axis, sub + 1))
    return g


def _column(axis: int, m_rows: int) -> list[Node]:
    nodes = [("M", axis, 0)]
    for row in ("U", "L"):
        for sub in range(m_rows):
            nodes.append((row, axis, sub))
    return nodes


def bfs_distance(g: nx.Graph, a: Node, b: Node):
    """Hop count between two nodes, or None when disconnected."""
    try:
        return nx.shortest_path_length(g, a, b)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def as_node(site) -> Node:
    """Package SiteCoord -> oracle node tuple."""
    return (site.row.value, site.axis, site.subrow)


def reconfiguration(rows: int, cols: int, loop: bool = False, m_rows: int = 1,
                    dead_sites=(), dead_barriers=()):
    """Stranded dots by their fixed-point definition.

    An alive outer dot is stranded when, in the lattice restricted to that
    dot, the dots already repurposed and the Middle row, it reaches no
    Middle node. Stranded dots are repurposed and the search repeats until
    nothing changes. Returns (repurposed nodes, sacrificed cells, number of
    alive-lattice components that hold a surviving qubit).
    """
    g = site_graph(rows, cols, loop, m_rows, dead_sites, dead_barriers)
    middle = {n for n in g if n[0] == "M"}
    outer = sorted(n for n in g if n[0] != "M")
    repurposed: set[Node] = set()
    changed = True
    while changed:
        changed = False
        for dot in outer:
            if dot in repurposed:
                continue
            fabric = g.subgraph(middle | repurposed | {dot})
            if not middle & nx.node_connected_component(fabric, dot):
                repurposed.add(dot)
                changed = True

    dead = set(dead_sites)
    sacrificed = set()
    survivors = set()
    for r in range(rows):
        for c in range(cols):
            node = expected_site(rows, cols, (r, c), loop, m_rows)
            if node in dead or node in repurposed:
                sacrificed.add((r, c))
            else:
                survivors.add(node)
    components = sum(1 for comp in nx.connected_components(g) if comp & survivors)
    return repurposed, sacrificed, components


def schedule_document(schedule) -> dict:
    """The schedule JSON document as a dict tree, built field by field.

    json.dumps(doc | {"seed": seed}, sort_keys=True, indent=2) + "\\n" of it is
    the reference text for the one-pass writer `scheduler.schedule_to_json`.
    """
    from collections import defaultdict

    from trilinear.scheduler import SCHEMA_VERSION, waveform_usage
    from trilinear.topology import site_to_obj

    ticks: dict[int, list[dict]] = defaultdict(list)
    for sop in schedule.ops:
        entry = {"qubit": list(sop.qubit), **sop.op.to_obj()}
        if sop.partner is not None:
            entry["partner"] = list(sop.partner)
        ticks[sop.start_tick].append(entry)
    usage = waveform_usage(schedule)
    return {
        "schema_version": SCHEMA_VERSION,
        "makespan": schedule.makespan,
        "initial_positions": [
            {"cell": list(cell), "site": site_to_obj(site)}
            for cell, site in schedule.initial_positions
        ],
        "ticks": [
            {"tick": t, "ops": ticks[t]} for t in sorted(ticks)
        ],
        "waveforms_per_tick": [sorted(sigs) for sigs in usage.per_tick],
        "summary": {
            "makespan": schedule.makespan,
            "total_shuttle_steps": schedule.total_horizontal_steps,
            "max_waveform_classes": usage.max_distinct,
        },
    }


_PULSE_SIGNAL = {"two_qubit_gate": "two_qubit_pulse", "single_qubit_pulse": "one_qubit_drive",
                 "readout": "readout_pulse"}
_HEIGHT_BASE = {"U": 1, "M": 0, "L": -1}


def tick_signal_names(schedule, layout) -> list[list[str]]:
    """Sorted AC signal names driven at each tick below the makespan.

    Derived from the micro-ops alone: a pulse drives its one class; a move
    drives the four conveyor phases of its direction, east/west along the
    axis (one step forward, modulo the loop length, is east) and up/down by
    row height (an outer sub-row sits one level further from Middle).
    """
    _, _, _, _, length = expected_dims(layout.grid.rows, layout.grid.cols,
                                       layout.loop, layout.m_rows)
    per_tick: list[set[str]] = [set() for _ in range(schedule.makespan)]
    for sop in schedule.ops:
        kind = sop.op.kind.value
        if kind in _PULSE_SIGNAL:
            names = {_PULSE_SIGNAL[kind]}
        else:
            (r0, a0, s0), (r1, a1, s1) = (as_node(s) for s in (sop.op.sites[0], sop.op.sites[-1]))
            if kind == "horizontal_step":
                step = (a1 - a0) % length if layout.loop else a1 - a0
                direction = "east" if step == 1 else "west"
            else:
                h0 = _HEIGHT_BASE[r0] * (1 + s0)
                h1 = _HEIGHT_BASE[r1] * (1 + s1)
                direction = "up" if h1 > h0 else "down"
            names = {f"shuttle_phase_{k}@{direction}" for k in range(1, 5)}
        for t in range(sop.start_tick, sop.start_tick + sop.op.duration_ticks):
            per_tick[t] |= names
    return [sorted(names) for names in per_tick]


# ----------------------------------------------------------------------
# Reference shortest path over SiteCoord keys

# BFS expansion preference: Middle-row travel first, then lower axis.
_BFS_RANK = {Row.MIDDLE: 0, Row.UPPER: 1, Row.LOWER: 2}


def bfs_key(site: SiteCoord) -> tuple[int, int, int]:
    return (_BFS_RANK[site.row], site.axis, site.subrow)


def usable(layout: TrilinearLayout, site: SiteCoord, defects: DefectMap,
           blocked: frozenset[SiteCoord] = frozenset()) -> bool:
    return layout.in_bounds(site) and not defects.is_dead(site) and site not in blocked


def shortest_shuttle_path(
    layout: TrilinearLayout,
    src: SiteCoord,
    dst: SiteCoord,
    defects: DefectMap = NO_DEFECTS,
    blocked: Iterable[SiteCoord] = (),
) -> list[SiteCoord]:
    """Minimum-step site path from src to dst over usable sites.

    The per-node SiteCoord BFS the router used before its integer site ids:
    neighbours come from `layout.site_neighbors`, sorted by `bfs_key`, and
    each is tested against the defects and the blocked set when reached.
    `router.shortest_shuttle_path` must return the identical path, or raise
    the same error.
    """
    blocked = frozenset(blocked)
    for end in (src, dst):
        if not layout.in_bounds(end):
            raise InvalidSite(f"path endpoint {end} outside layout")
        if defects.is_dead(end) or end in blocked:
            raise Partitioned(f"path endpoint {end} is unusable")
    if src == dst:
        return [src]
    parent: dict[SiteCoord, SiteCoord] = {src: src}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nb in sorted(layout.site_neighbors(cur), key=bfs_key):
            if nb in parent or not usable(layout, nb, defects, blocked):
                continue
            if defects.barrier_dead(cur, nb):
                continue
            parent[nb] = cur
            if nb == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(nb)
    raise Partitioned(f"no shuttle path from {src} to {dst}")
