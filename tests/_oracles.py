"""Brute-force oracles, derived from first principles.

Everything here rebuilds the site lattice and the grid mapping from their
definitions, without touching the package's adjacency or mapping code, so
oracle agreement is a genuine two-route check.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from typing import Iterable

import networkx as nx

from trilinear.errors import InvalidSite, Partitioned
from trilinear.router import MicroOpKind
from trilinear.scheduler import (DEFAULT_MUX, MuxConfig, Schedule, ScheduledOp, Violation,
                                 _mux_problems, signals_for_op)
from trilinear.topology import NO_DEFECTS, Cell, DefectMap, Row, SiteCoord, TrilinearLayout

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


def schedule_document(schedule, layout) -> dict:
    """The schedule JSON document as a dict tree, built field by field.

    json.dumps(doc | {"seed": seed}, sort_keys=True, indent=2) + "\\n" of it is
    the reference text for the one-pass writer `scheduler.schedule_to_json`.
    The waveforms come from `tick_signal_names`, not the package's count.
    """
    from collections import defaultdict

    from trilinear.scheduler import SCHEMA_VERSION
    from trilinear.topology import site_to_obj

    ticks: dict[int, list[dict]] = defaultdict(list)
    for sop in schedule.ops:
        entry = {"qubit": list(sop.qubit), **sop.op.to_obj()}
        if sop.partner is not None:
            entry["partner"] = list(sop.partner)
        ticks[sop.start_tick].append(entry)
    names = tick_signal_names(schedule, layout)
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
        "waveforms_per_tick": names,
        "summary": {
            "makespan": schedule.makespan,
            "total_shuttle_steps": schedule.total_horizontal_steps,
            "max_waveform_classes": max(map(len, names), default=0),
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
# Reference neighbour rule and shortest path over SiteCoord keys

def site_neighbors(layout: TrilinearLayout, site: SiteCoord) -> list[SiteCoord]:
    """Lattice-adjacent sites: one axis step, one row/sub-row transfer.

    The rule written out on coordinates, in its own order; the layout's
    neighbour memo, which `layout.site_neighbors` reads, must give the same
    sites, sorted by `bfs_key`."""
    if not layout.in_bounds(site):
        raise InvalidSite(f"site {site} outside layout")
    out: list[SiteCoord] = []
    for delta in (-1, 1):
        axis = layout.step_axis(site.axis, delta)
        if axis is not None:
            nb = SiteCoord(site.row, axis, site.subrow)
            if nb != site and nb not in out:
                out.append(nb)
    if site.row is Row.MIDDLE:
        out.append(SiteCoord(Row.UPPER, site.axis, 0))
        out.append(SiteCoord(Row.LOWER, site.axis, 0))
    else:
        if site.subrow == 0:
            out.append(SiteCoord(Row.MIDDLE, site.axis, 0))
        else:
            out.append(SiteCoord(site.row, site.axis, site.subrow - 1))
        if site.subrow + 1 < layout.m_rows:
            out.append(SiteCoord(site.row, site.axis, site.subrow + 1))
    return out


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

    A plain per-node BFS with no walk and no memo: neighbours come from
    `site_neighbors`, sorted by `bfs_key`, and each is tested against the
    defects and the blocked set when reached.
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
        for nb in sorted(site_neighbors(layout, cur), key=bfs_key):
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


# ----------------------------------------------------------------------
# Reference half-filled protocol ops and simulate writer

def addressed_single_qubit_gate(state, qubit, rotation, defects, durations):
    """The gate over its own occupancy dict, built from the positions: hop
    out to the first free bare neighbour, pulse, hop back.
    `protocol.addressed_single_qubit_gate` must give the same micro-ops, or
    raise the same error."""
    from trilinear.errors import NoAdjacentEmpty
    from trilinear.protocol import _pulse_op
    from trilinear.router import move_op
    from trilinear.topology import SiteClass, site_class

    occupancy = {site: q for q, site in state.position.items()}
    home = state.position[qubit]
    if site_class(home) is not SiteClass.MAGNET:
        raise NoAdjacentEmpty(f"qubit {qubit} is not parked on a magnet-class dot")
    layout = state.layout
    target = None
    for delta in (1, -1):
        axis = layout.step_axis(home.axis, delta)
        if axis is None:
            continue
        cand = SiteCoord(home.row, axis, home.subrow)
        if (site_class(cand) is SiteClass.BARE and not defects.is_dead(cand)
                and not defects.barrier_dead(home, cand) and cand not in occupancy):
            target = cand
            break
    if target is None:
        raise NoAdjacentEmpty(f"no free bare dot next to qubit {qubit} at {home}")
    return [move_op(home, target, durations),
            _pulse_op(SiteClass.BARE, rotation, target, durations),
            move_op(target, home, durations)]


def readout(state, qubit, fixture, defects, durations):
    """Readout by scanning every sensor axis and planning the walk with the
    general BFS. `protocol.readout` must give the same micro-ops, or raise
    the same error."""
    from trilinear import router
    from trilinear.errors import Partitioned
    from trilinear.router import MicroOp, MicroOpKind, move_op

    layout = state.layout
    home = state.position[qubit]
    candidates = [
        SiteCoord(home.row, axis, home.subrow)
        for axis in fixture.axes
        if layout.in_bounds(SiteCoord(home.row, axis, home.subrow))
    ]
    usable_sensors = [s for s in candidates if not defects.is_dead(s)]
    if not usable_sensors:
        raise Partitioned("no usable sensor dot reachable for readout")
    target = min(usable_sensors,
                 key=lambda s: (layout.axis_distance(home.axis, s.axis), s.axis))
    ops = []
    path = ([home] if home == target
            else router.shortest_shuttle_path(layout, home, target, defects))
    for a, b in zip(path, path[1:]):
        ops.append(move_op(a, b, durations))
    ops.append(MicroOp(MicroOpKind.READOUT, (target,), durations.readout))
    back = path[::-1]
    for a, b in zip(back, back[1:]):
        ops.append(move_op(a, b, durations))
    return ops


def replay_rotations(state, ops) -> dict:
    """Per pulse index, the qubits that pulse rotates, by replaying every
    move on full copies of the occupancy and positions and scanning every
    position at each pulse. A move onto an occupied site leaves both
    qubits there, and the last to arrive is the one a later move takes."""
    from trilinear.router import MicroOpKind
    from trilinear.topology import SiteClass, site_class

    occupancy = {site: q for q, site in state.position.items()}
    position = dict(state.position)
    rotated = {}
    for i, op in enumerate(ops):
        if op.is_move:
            qubit = occupancy.pop(op.src, None)
            if qubit is not None:
                occupancy[op.dst] = qubit
                position[qubit] = op.dst
        elif op.kind is MicroOpKind.SINGLE_QUBIT_PULSE and op.freq_class is not None:
            cls = SiteClass(op.freq_class)
            rotated[i] = {q for q, site in position.items() if site_class(site) is cls}
    return rotated


def simulate_texts(circuit, layout, defects, fixture, phases, durations) -> tuple[str, str]:
    """The simulate event log and report, built as dicts with the reference
    ops above and dumped with one json.dumps per event and indent=2 for the
    report. A qubit's frame starts at 0 and takes each hop's phase, folded
    into [0, 2*pi) first. `cli.simulate_texts` must return the same two
    strings."""
    import json
    import math

    from trilinear import protocol, scheduler
    from trilinear.errors import CircuitError
    from trilinear.topology import site_to_obj

    # One qubit per alive magnet (even-axis) outer dot, numbered up the Upper
    # row by axis and sub-row, then the Lower row; built here, not cached.
    outer = (SiteCoord(row, axis, sub) for row in (Row.UPPER, Row.LOWER)
             for axis in range(layout.length) for sub in range(layout.m_rows))
    state = protocol.ArrayState(layout, dict(enumerate(
        site for site in outer if site.axis % 2 == 0 and not defects.is_dead(site))))
    events, gates, frames = [], [], {}
    tick = 0

    def log_ops(ops, qubit):
        nonlocal tick
        for op in ops:
            events.append({"tick": tick, "site": site_to_obj(op.dst), "qubit": qubit,
                           "event": op.kind.value})
            tick += op.duration_ticks
            if op.is_move:
                # A hop onto an even axis (a magnet dot) takes the magnet phase.
                phase = phases.hop_phase_bare if op.dst.axis % 2 else phases.hop_phase_magnet
                hop = phase % (2 * math.pi)
                frames[qubit] = (frames.get(qubit, 0.0) + hop) % (2 * math.pi)

    def qubit_for(cell, index):
        rows, cols = layout.grid.rows, layout.grid.cols
        if not (0 <= cell[0] < rows and 0 <= cell[1] < cols):
            raise CircuitError(f"op {index}: cell {cell} outside grid")
        site = layout.grid_to_site(cell)
        qubit = state.qubit_at(site)
        if qubit is None:
            raise CircuitError(
                f"op {index}: cell {cell} maps to {site}, which hosts no qubit "
                "in the half-filled scheme (bare or dead dot)"
            )
        return qubit

    for index, cop in enumerate(circuit.ops):
        if isinstance(cop, scheduler.TwoQubit):
            raise CircuitError(
                f"op {index}: two-qubit ops are outside the half-filled "
                "protocol simulator; use the schedule command"
            )
        qubit = qubit_for(cop.cell, index)
        if isinstance(cop, scheduler.OneQubit):
            ops = addressed_single_qubit_gate(state, qubit, cop.rotation, defects, durations)
            log_ops(ops, qubit)
            rotated = set()
            for qubits in replay_rotations(state, ops).values():
                rotated |= qubits
            gates.append({
                "op_index": index,
                "cell": list(cop.cell),
                "target": qubit,
                "rotated": sorted(rotated),
                "bystanders": sorted(rotated - {qubit}),
                "ok": rotated == {qubit},
                "frame_phase": frames[qubit],
                "net_phase": 0.0,
            })
        else:
            log_ops(readout(state, qubit, fixture, defects, durations), qubit)

    lines = "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
    report = {"schema_version": 1, "gates": gates,
              "all_ok": all(g["ok"] for g in gates), "total_ticks": tick}
    return lines, json.dumps(report, sort_keys=True, indent=2) + "\n"


def swap_throughs(sops) -> list:
    """Swap-through violations by comparing every pair of moves on an edge,
    in schedule order."""
    by_pair = defaultdict(list)
    for sop in sops:
        if sop.op.is_move:
            by_pair[frozenset((sop.op.src, sop.op.dst))].append(sop)
    out = []
    for pair_ops in by_pair.values():
        for i, a in enumerate(pair_ops):
            for b in pair_ops[i + 1:]:
                overlap = a.start_tick < b.end_tick and b.start_tick < a.end_tick
                if overlap and a.op.src == b.op.dst and a.op.dst == b.op.src:
                    out.append(Violation(
                        "swap", max(a.start_tick, b.start_tick),
                        f"qubits {a.qubit} and {b.qubit} swap through "
                        f"{a.op.src}-{a.op.dst}"))
    return out


def admit_by_dependency(circuit, layout, defects=NO_DEFECTS, mux=None, durations=None):
    """`scheduler.compile`'s admission rule, stepped one tick at a time.

    A job is a head, every op before a shuttled gate (all of any other job),
    then a tail of runs: each stretch of back-to-back ops from the gate on
    that drive one signal set. A piece holds (site, tick) pairs by the
    validator's rule: a move holds both of its sites at every tick of its
    duration, every other op holds its first site, and a gate's partner
    holds its home at every tick of the job. At tick t the jobs ending at t
    give up their place at the head of each participant's queue. Then every
    unstarted job, in program order, starts if it heads every participant's
    queue and its head, run back to back from t, holds nothing a started
    job holds and keeps `_mux_problems` empty at every tick. Each tail run
    starts at the first tick from the previous piece's end, scanned upward,
    at which the same holds for it. Between two pieces the mover waits
    where the previous piece left it, holding that site and the partner
    its home at every tick; if a started job holds one of those, the job
    does not start at t. Plans come from the package's router, as compile's
    do.
    """
    from trilinear.router import (DEFAULT_DURATIONS, MicroOp, MicroOpKind, plan_two_qubit,
                                  reconfigure_for_defects)
    from trilinear.scheduler import (DEFAULT_MUX, OneQubit, Schedule, ScheduledOp, TwoQubit,
                                     _mux_problems, op_cells, signals_for_op)
    from trilinear.topology import site_class, site_key

    mux = mux or DEFAULT_MUX
    durations = durations or DEFAULT_DURATIONS
    recon = reconfigure_for_defects(layout, defects)
    circuit.validate_against(layout, recon.sacrificed_qubits)
    homes = {cell: layout.grid_to_site(cell) for cell in circuit.cells()}

    def piece(ops, partner):
        """(ops with their ticks from the piece's start, (site, tick) holds, ticks)."""
        timed, holds, tick = [], set(), 0
        for op in ops:
            timed.append((tick, op))
            for k in range(tick, tick + op.duration_ticks):
                holds.update((s, k) for s in (op.sites if op.is_move else op.sites[:1]))
                if partner is not None:
                    holds.add((homes[partner], k))
            tick += op.duration_ticks
        return timed, holds, tick

    jobs = []  # (owner, partner, participants, pieces)
    for cop in circuit.ops:
        if isinstance(cop, TwoQubit):
            blocked = set(homes.values()) - {homes[cop.cell_a], homes[cop.cell_b]}
            plan = plan_two_qubit(layout, cop.cell_a, cop.cell_b, defects, durations, blocked)
            owner = plan.qubit
            partner = cop.cell_b if owner == cop.cell_a else cop.cell_a
            ops = list(plan.ops)
        else:
            owner, partner = cop.cell, None
            site = homes[owner]
            if isinstance(cop, OneQubit):
                ops = [MicroOp(MicroOpKind.SINGLE_QUBIT_PULSE, (site,),
                               durations.single_qubit_pulse,
                               freq_class=site_class(site).value, param=cop.rotation)]
            else:
                ops = [MicroOp(MicroOpKind.READOUT, (site,), durations.readout)]
        gate = next((i for i, op in enumerate(ops)
                     if op.kind is MicroOpKind.TWO_QUBIT_GATE and len(ops) > 1), len(ops))
        groups = [ops[:gate]]
        for op in ops[gate:]:
            if len(groups) > 1 and signals_for_op(layout, op) == signals_for_op(
                    layout, groups[-1][-1]):
                groups[-1].append(op)
            else:
                groups.append([op])
        jobs.append((owner, partner, op_cells(cop), [piece(g, partner) for g in groups]))

    queues = {}
    for i, (_, _, cells, _) in enumerate(jobs):
        for cell in cells:
            queues.setdefault(cell, []).append(i)
    live: dict[int, frozenset] = {}  # tick -> signal names committed there
    taken: set = set()               # (site, tick) holds of the started jobs

    def fits(timed, holds, start):
        return not any((site, start + k) in taken for site, k in holds) and not any(
            _mux_problems(set(live.get(k, frozenset()) | signals_for_op(layout, op)), mux)
            for tick, op in timed for k in range(start + tick, start + tick + op.duration_ticks))

    active: dict[int, int] = {}      # job -> end tick
    unstarted = list(range(len(jobs)))
    scheduled = []
    t = 0
    while unstarted or active:
        for i in [i for i, end in active.items() if end == t]:
            del active[i]
            for cell in jobs[i][2]:
                queues[cell].pop(0)
        for i in list(unstarted):
            owner, partner, cells, pieces = jobs[i]
            if any(queues[cell][0] != i for cell in cells):
                continue
            if not fits(*pieces[0][:2], t):
                continue
            starts, waits, end = [t], set(), t + pieces[0][2]
            for timed, holds, ticks in pieces[1:]:
                start = end
                while not fits(timed, holds, start):
                    start += 1
                at = timed[0][1].sites[0]  # where the mover waits before the run
                waits.update((s, k) for k in range(end, start) for s in (at, homes[partner]))
                starts.append(start)
                end = start + ticks
            if waits & taken:
                continue
            for start, (timed, holds, _) in zip(starts, pieces):
                for tick, op in timed:
                    for k in range(start + tick, start + tick + op.duration_ticks):
                        live[k] = live.get(k, frozenset()) | signals_for_op(layout, op)
                    gate_partner = partner if op.kind is MicroOpKind.TWO_QUBIT_GATE else None
                    scheduled.append(ScheduledOp(owner, op, start + tick, gate_partner))
                taken.update((site, start + k) for site, k in holds)
            taken.update(waits)
            active[i] = end
            unstarted.remove(i)
        if unstarted and not active:
            raise AssertionError("no job can start with nothing active")
        t += 1
    return Schedule(
        ops=tuple(sorted(scheduled, key=lambda s: (s.start_tick, s.qubit,
                                                   site_key(s.op.sites[0])))),
        makespan=max((s.end_tick for s in scheduled), default=0),
        initial_positions=tuple(sorted(homes.items())),
    )


# ----------------------------------------------------------------------
# Reference schedule validator over SiteCoord keys

def _hold_segments(sops: list[ScheduledOp], start_site: SiteCoord, horizon: int
                   ) -> tuple[list[tuple[int, int, frozenset[SiteCoord]]], list[str]]:
    """Intervals of held sites for one qubit, plus chain-order problems."""
    problems: list[str] = []
    segs: list[tuple[int, int, frozenset[SiteCoord]]] = []
    cur = start_site
    sops = sorted(sops, key=lambda s: s.start_tick)
    t = min(0, sops[0].start_tick)  # an op before tick 0 is a bounds violation
    for sop in sops:
        if sop.start_tick < t:
            problems.append(f"op at tick {sop.start_tick} overlaps the previous op")
        if sop.start_tick > t:
            segs.append((t, sop.start_tick, frozenset({cur})))
        if sop.op.is_move:
            if sop.op.src != cur:
                problems.append(
                    f"move at tick {sop.start_tick} starts at {sop.op.src}, qubit is at {cur}"
                )
            segs.append((sop.start_tick, sop.end_tick, frozenset({sop.op.src, sop.op.dst})))
            cur = sop.op.dst
        else:
            site = sop.op.sites[0]
            if site != cur:
                problems.append(
                    f"{sop.op.kind.value} at tick {sop.start_tick} acts at {site}, qubit is at {cur}"
                )
            segs.append((sop.start_tick, sop.end_tick, frozenset({site})))
        t = max(t, sop.end_tick)
    if t < horizon:
        segs.append((t, horizon, frozenset({cur})))
    return segs, problems


def validate_schedule(
    schedule: Schedule,
    layout: TrilinearLayout,
    defects: DefectMap = NO_DEFECTS,
    mux: MuxConfig = DEFAULT_MUX,
) -> list[Violation]:
    """Replay a schedule and report every rule violation (empty if valid).

    Checks occupancy (one qubit per site per tick), swap-throughs, dead
    site and dead barrier visits, per-qubit chaining/order, site bounds,
    ops starting before tick 0 or ending past the makespan, and the
    per-tick distinct-waveform budget. Signals are recomputed from the
    micro-ops, independent of what the schedule carries.

    This is the SiteCoord replay the package used before it replayed
    lattice ids, plus the neighbour rule for moves and gates (`adjacency`);
    its swap scan is the pairwise `swap_throughs`.
    `scheduler.validate_schedule` must return the same list.
    """
    violations: list[Violation] = []
    horizon = max(schedule.makespan, max((s.end_tick for s in schedule.ops), default=0))
    start_pos = dict(schedule.initial_positions)

    per_qubit: dict[Cell, list[ScheduledOp]] = defaultdict(list)
    for sop in schedule.ops:
        per_qubit[sop.qubit].append(sop)

    # Bounds and dead-site/barrier checks per op.
    for sop in schedule.ops:
        if sop.start_tick < 0:
            violations.append(Violation("bounds", sop.start_tick,
                                        f"{sop.op.kind.value} of qubit {sop.qubit} starts at "
                                        f"tick {sop.start_tick}, before tick 0"))
        if sop.end_tick > schedule.makespan:
            violations.append(Violation("bounds", sop.start_tick,
                                        f"{sop.op.kind.value} of qubit {sop.qubit} ends at tick "
                                        f"{sop.end_tick}, past the makespan {schedule.makespan}"))
        for site in sop.op.sites:
            if not layout.in_bounds(site):
                violations.append(Violation("bounds", sop.start_tick,
                                            f"site {site} outside layout"))
            elif defects.is_dead(site):
                violations.append(Violation("dead_site", sop.start_tick,
                                            f"op visits dead site {site}"))
        if sop.op.is_move and defects.barrier_dead(sop.op.src, sop.op.dst):
            violations.append(Violation("dead_barrier", sop.start_tick,
                                        f"move crosses dead barrier {sop.op.src}-{sop.op.dst}"))
        a, b = sop.op.src, sop.op.dst
        if ((sop.op.is_move or sop.op.kind is MicroOpKind.TWO_QUBIT_GATE)
                and layout.in_bounds(a) and layout.in_bounds(b)):
            if b not in site_neighbors(layout, a):
                violations.append(Violation("adjacency", sop.start_tick,
                                            f"{sop.op.kind.value} {a}-{b} joins sites "
                                            "that are not neighbours"))
            elif sop.op.is_move and (sop.op.kind is MicroOpKind.HORIZONTAL_STEP) != (
                    a.row is b.row and a.subrow == b.subrow):
                stays = "leaves" if sop.op.kind is MicroOpKind.HORIZONTAL_STEP else "stays in"
                violations.append(Violation("adjacency", sop.start_tick,
                                            f"{sop.op.kind.value} {a}-{b} {stays} its row"))

    # Per-qubit chains and hold intervals.
    site_intervals: list[tuple[SiteCoord, int, int, Cell]] = []
    positions_at: dict[Cell, list[tuple[int, int, frozenset[SiteCoord]]]] = {}
    for cell, sops in per_qubit.items():
        if cell not in start_pos:
            violations.append(Violation("order", sops[0].start_tick,
                                        f"qubit {cell} has ops but no initial position"))
            continue
        segs, problems = _hold_segments(sops, start_pos[cell], horizon)
        positions_at[cell] = segs
        for msg in problems:
            violations.append(Violation("order", 0, f"qubit {cell}: {msg}"))
        for t0, t1, sites in segs:
            for site in sites:
                site_intervals.append((site, t0, t1, cell))
    for cell, site in start_pos.items():
        if cell not in per_qubit:
            site_intervals.append((site, 0, horizon, cell))
            positions_at[cell] = [(0, horizon, frozenset({site}))]

    # Occupancy: two different qubits holding one site at overlapping times.
    by_site: dict[SiteCoord, list[tuple[int, int, Cell]]] = defaultdict(list)
    for site, t0, t1, cell in site_intervals:
        by_site[site].append((t0, t1, cell))
    for site, spans in by_site.items():
        spans.sort()
        for i, (a0, a1, qa) in enumerate(spans):
            for b0, b1, qb in spans[i + 1:]:
                if b0 >= a1:
                    break
                if qa != qb:
                    violations.append(Violation(
                        "occupancy", b0,
                        f"qubits {qa} and {qb} both hold {site} around tick {b0}"))

    # Gate partners must actually sit at the partner site for the gate span.
    for sop in schedule.ops:
        if sop.op.kind is not MicroOpKind.TWO_QUBIT_GATE:
            continue
        partner_site = sop.op.sites[1]
        if sop.partner is None:
            violations.append(Violation("order", sop.start_tick,
                                        "gate op without a partner qubit"))
            continue
        segs = positions_at.get(sop.partner, [])
        covered = any(t0 <= sop.start_tick and sop.end_tick <= t1 and sites == {partner_site}
                      for t0, t1, sites in segs)
        if not covered:
            violations.append(Violation(
                "order", sop.start_tick,
                f"partner {sop.partner} not parked at {partner_site} during gate"))

    violations.extend(swap_throughs(schedule.ops))

    # Waveform budget, from recomputed signals; swept over the segments
    # between op boundaries with a running multiset.
    deltas: dict[int, list[tuple[frozenset[Signal], int]]] = defaultdict(list)
    for sop in schedule.ops:
        sigs = signals_for_op(layout, sop.op)
        if sigs:
            deltas[sop.start_tick].append((sigs, 1))
            deltas[sop.end_tick].append((sigs, -1))
    running: Counter = Counter()
    boundaries = sorted(deltas)
    for i, t0 in enumerate(boundaries):
        for sigs, sign in deltas[t0]:
            for sig in sigs:
                running[sig] += sign
        live = {sig for sig, count in running.items() if count > 0}
        violations.extend(Violation("mux", t0, msg) for msg in _mux_problems(live, mux))

    violations.sort(key=lambda v: (v.tick, v.kind, v.message))
    return violations
