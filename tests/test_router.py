"""Shuttle paths, gate plans, long-range bounds, and defect recovery."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trilinear as tl
from trilinear.router import MicroOp, MicroOpKind
from trilinear.topology import DefectMap, Row, SiteCoord

from _oracles import as_node, bfs_distance, expected_dims, reconfiguration, site_graph
from _oracles import shortest_shuttle_path as reference_path


STACKED = ("^m_rows=2: gates on stacked layouts are not modelled; "
           "route and schedule need m_rows=1$")


def M(axis):
    return SiteCoord(Row.MIDDLE, axis)


def test_straight_middle_path(lay44):
    path = tl.shortest_shuttle_path(lay44, M(1), M(6))
    assert len(path) - 1 == 5
    assert all(s.row is Row.MIDDLE for s in path)


def test_detour_path_matches_oracle(lay44):
    defects = DefectMap.of(sites=[M(3)])
    path = tl.shortest_shuttle_path(lay44, M(1), M(6), defects)
    g = site_graph(4, 4, dead_sites=[("M", 3, 0)])
    assert len(path) - 1 == bfs_distance(g, ("M", 1, 0), ("M", 6, 0)) == 7


def test_full_column_cut_partitions(lay44):
    cut = DefectMap.of(sites=[SiteCoord(Row.UPPER, 3), M(3), SiteCoord(Row.LOWER, 3)])
    with pytest.raises(tl.Partitioned):
        tl.shortest_shuttle_path(lay44, M(1), M(6), cut)


def test_loop_survives_full_column_cut(lay44_loop):
    cut = DefectMap.of(sites=[SiteCoord(Row.UPPER, 3), M(3), SiteCoord(Row.LOWER, 3)])
    path = tl.shortest_shuttle_path(lay44_loop, M(1), M(6), cut)
    assert len(path) - 1 == 3  # wraps around the head-tail join


def test_blocked_endpoint_rejected(lay44):
    with pytest.raises(tl.Partitioned):
        tl.shortest_shuttle_path(lay44, M(1), M(6), blocked=[M(6)])


@given(
    dims=st.tuples(st.integers(2, 6), st.integers(2, 11)),
    loop=st.booleans(),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=120, deadline=None)
def test_path_length_equals_bfs_oracle(dims, loop, seed):
    """Path lengths agree with an independently built BFS graph, for
    random defect sets of up to 3 dead sites and a dead barrier."""
    rows, cols = dims
    lay = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop)
    rng = random.Random(seed)
    sites = sorted(lay.sites(), key=tl.topology.site_key)
    dead = rng.sample(sites, k=rng.randint(0, 3))
    barrier_site = rng.choice(sites)
    barrier = (barrier_site, rng.choice(lay.site_neighbors(barrier_site)))
    defects = DefectMap.of(sites=dead, barriers=[barrier])
    src, dst = rng.sample(sites, k=2)
    if defects.is_dead(src) or defects.is_dead(dst):
        return
    g = site_graph(rows, cols, loop=loop,
                   dead_sites=[as_node(s) for s in dead],
                   dead_barriers=[(as_node(barrier[0]), as_node(barrier[1]))])
    want = bfs_distance(g, as_node(src), as_node(dst))
    if want is None:
        with pytest.raises(tl.Partitioned):
            tl.shortest_shuttle_path(lay, src, dst, defects)
    else:
        path = tl.shortest_shuttle_path(lay, src, dst, defects)
        assert len(path) - 1 == want
        for a, b in zip(path, path[1:]):
            assert lay.adjacent(a, b)
            assert not defects.barrier_dead(a, b)


@st.composite
def path_queries(draw):
    """A layout (loop or not, odd C, m_rows 1-3, degenerate loops included),
    two endpoints that may coincide or lie outside the layout, up to 4 dead
    sites and 3 dead barriers, and a random blocked set."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(2, 9))
    m_rows, loop = draw(st.integers(1, min(3, cols))), draw(st.booleans())
    lay = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop, m_rows=m_rows)
    sites = sorted(lay.sites(), key=tl.topology.site_key)
    ends = sites + [SiteCoord(Row.MIDDLE, lay.length), SiteCoord(Row.UPPER, 0, m_rows)]
    src = draw(st.sampled_from(ends))
    dst = draw(st.sampled_from(ends + [src]))
    # Mostly keep the endpoints usable, so that most queries search.
    inner = [s for s in sites if s not in (src, dst)] or sites
    dead = draw(st.lists(st.sampled_from(inner), max_size=4))
    blocked = draw(st.lists(st.sampled_from(inner), max_size=len(sites) // 3))
    if draw(st.integers(0, 9)) == 4:
        draw(st.sampled_from([dead, blocked])).append(draw(st.sampled_from([src, dst])))
    barriers = [(a, draw(st.sampled_from(lay.site_neighbors(a))))
                for a in draw(st.lists(st.sampled_from(sites), max_size=3))]
    return lay, src, dst, DefectMap.of(sites=dead, barriers=barriers), blocked


def _path_or_error(search, *args):
    try:
        return search(*args)
    except (tl.Partitioned, tl.InvalidSite) as exc:
        return type(exc), str(exc)


@given(path_queries())
@settings(max_examples=400, deadline=None)
def test_path_identical_to_reference_bfs(query):
    """The router returns exactly the path of the reference SiteCoord BFS
    (same tie-breaks), or raises the same error with the same message."""
    assert (_path_or_error(tl.shortest_shuttle_path, *query)
            == _path_or_error(reference_path, *query))


@st.composite
def row_queries(draw):
    """Two usable sites on one row and sub-row (the Middle row included, and
    loops where the two ways round tie at half the length), with dead
    sites, blocked sites and dead barriers drawn mostly on that row, so
    that the straight walk is sometimes clear and sometimes cut."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(2, 9))
    m_rows, loop = draw(st.integers(1, min(3, cols))), draw(st.booleans())
    lay = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop, m_rows=m_rows)
    row = draw(st.sampled_from(list(Row)))
    sub = 0 if row is Row.MIDDLE else draw(st.integers(0, m_rows - 1))
    line = [SiteCoord(row, axis, sub) for axis in range(lay.length)]
    src = draw(st.sampled_from(line))
    if loop and lay.length % 2 == 0 and draw(st.booleans()):
        dst = SiteCoord(row, (src.axis + lay.length // 2) % lay.length, sub)
    else:
        dst = draw(st.sampled_from(line))
    pool = [s for s in line if s not in (src, dst)] * 3
    pool += [s for s in lay.sites() if s not in (src, dst)]
    dead = draw(st.lists(st.sampled_from(pool), max_size=2))
    blocked = draw(st.lists(st.sampled_from(pool), max_size=2))
    steps = [(a, b) for a in line for b in lay.site_neighbors(a) if b in line]
    barriers = draw(st.lists(st.sampled_from(steps), max_size=2)) if steps else []
    return lay, src, dst, DefectMap.of(sites=dead, barriers=barriers), blocked


@given(row_queries())
@settings(max_examples=400, deadline=None)
def test_row_walk_identical_to_reference_bfs(query):
    """Between two sites of one row the router may take the straight walk
    without a search; it must still return the reference BFS's path, or
    raise its error, when a dead site, a blocked site or a dead barrier is
    in the way, or the two ways round a loop tie."""
    assert (_path_or_error(tl.shortest_shuttle_path, *query)
            == _path_or_error(reference_path, *query))


@st.composite
def plan_queries(draw):
    """A path query's layout, defects and blocked list, plus two distinct
    cells, whose homes the blocked list may also hold."""
    lay, _, _, defects, blocked = draw(path_queries())
    a, b = draw(st.permutations(list(lay.grid.cells())))[:2]
    homes = [lay.grid_to_site(a), lay.grid_to_site(b)]
    return lay, a, b, defects, blocked + draw(st.lists(st.sampled_from(homes), max_size=2))


@given(plan_queries())
@settings(max_examples=300, deadline=None)
def test_blocked_is_read_as_given_and_never_changed(query):
    """A blocked list, set or frozenset gives the same path and gate plan, and
    the caller's set is unchanged afterwards, also when the plan retries with
    q_b as the mover. Homes of the pair in `blocked` change no plan: the
    mover leaves its home and the partner's is always avoided."""
    lay, a, b, defects, blocked = query
    src, dst = M(0), M(lay.length - 1)
    homes = {lay.grid_to_site(a), lay.grid_to_site(b)}
    given_set = set(blocked)
    paths, plans = [], []
    for form in (list, set, frozenset):
        arg = form(blocked)
        paths.append(_path_or_error(tl.shortest_shuttle_path, lay, src, dst, defects, arg))
        if lay.m_rows == 1:  # gates on stacked layouts are rejected up front
            plans.append(_path_or_error(tl.router.plan_two_qubit, lay, a, b, defects,
                                        tl.Durations(), arg))
        assert arg == form(blocked)
    assert given_set == set(blocked)
    assert paths[1:] == paths[:-1]
    assert plans[1:] == plans[:-1]
    if plans:
        assert plans[0] == _path_or_error(tl.router.plan_two_qubit, lay, a, b, defects,
                                          tl.Durations(), given_set - homes)


def test_blocked_set_unchanged_when_the_partner_moves(lay44):
    """Dead M4 and U4 leave the Lower row as the only way past axis 4, and
    the partner's home L5 closes it to (0,1); so (1,3) moves instead, through
    its own home. The caller's set, which holds both homes, is unchanged."""
    a, b = (0, 1), (1, 3)
    defects = DefectMap.of(sites=[M(4), SiteCoord(Row.UPPER, 4)])
    blocked = {lay44.grid_to_site(a), lay44.grid_to_site(b)}
    before = set(blocked)
    with pytest.raises(tl.Partitioned):
        tl.router.gate_shuttle_plan(lay44, a, b, defects, blocked=blocked)
    plan = tl.router.plan_two_qubit(lay44, a, b, defects, blocked=blocked)
    assert plan.qubit == b and SiteCoord(Row.LOWER, 5) in plan.ops[1].sites
    assert blocked == before


@pytest.mark.parametrize("first", ["float", "int"])
def test_cell_sites_kept_with_the_layout_are_type_exact(first):
    """Plans keep the site of each cell with the layout, but only for a cell
    of two exact ints: (0, 1.0) maps to (U,1.0), which equals (U,1), so a
    kept site of one would stand in for the other in the in-place gate."""
    lay = tl.map_to_trilinear(tl.GridSpec(4, 4))
    for cell in [(0, 1.0), (0, 1)] if first == "float" else [(0, 1), (0, 1.0)]:
        (gate,) = tl.router.plan_two_qubit(lay, cell, (0, 2)).ops
        assert gate.sites[0] == SiteCoord(Row.UPPER, 1)
        assert type(gate.sites[0].axis) is type(cell[1])


# ----------------------------------------------------------------------
# Vertical gate plans

def test_vertical_gate_step_count(lay44):
    plan = tl.vertical_gate_plan(lay44, (0, 2), (1, 2))
    assert plan.horizontal_steps == 4 == lay44.grid.cols
    assert plan.vertical_transfers == 2
    assert plan.shuttle_steps == 4
    kinds = [op.kind for op in plan.ops]
    assert kinds[0] is MicroOpKind.VERTICAL_TRANSFER
    assert kinds[-1] is MicroOpKind.VERTICAL_TRANSFER
    assert kinds.count(MicroOpKind.TWO_QUBIT_GATE) == 1


def test_vertical_gate_round_trip_symmetry(lay88):
    plan = tl.vertical_gate_plan(lay88, (2, 5), (3, 5))
    moves = [op for op in plan.ops if op.is_move]
    out = moves[: len(moves) // 2]
    back = moves[len(moves) // 2:]
    for o, b in zip(out, reversed(back)):
        assert o.sites == tuple(reversed(b.sites))


def test_vertical_gate_with_middle_defect(lay44):
    defects = DefectMap.of(sites=[M(3)])
    plan = tl.vertical_gate_plan(lay44, (0, 2), (1, 2), defects)
    # The detour swaps middle travel for outer-row travel one-for-one, so
    # horizontal steps stay at C while the leg itself gets longer.
    assert plan.horizontal_steps == 4
    assert plan.shuttle_steps == 8 > 4
    assert plan.vertical_transfers == 6
    visited = {s for op in plan.ops for s in op.sites}
    assert M(3) not in visited


def test_same_row_neighbors_gate_directly(lay44):
    plan = tl.vertical_gate_plan(lay44, (0, 1), (0, 2))
    assert plan.horizontal_steps == 0
    assert plan.shuttle_steps == 0
    assert [op.kind for op in plan.ops] == [MicroOpKind.TWO_QUBIT_GATE]


def test_non_neighbors_rejected(lay44):
    with pytest.raises(tl.NotNeighbors):
        tl.vertical_gate_plan(lay44, (0, 0), (0, 2))
    with pytest.raises(tl.NotNeighbors):
        tl.vertical_gate_plan(lay44, (0, 0), (2, 0))


def test_dead_entry_middle_partitions_the_pair(lay44):
    # (M,2) is both (0,2)'s shuttle entry and the gate site next to it, so
    # either routing direction fails; reconfiguration sacrifices (0,2) for
    # the same reason.
    defects = DefectMap.of(sites=[M(2)])
    with pytest.raises(tl.Partitioned):
        tl.vertical_gate_plan(lay44, (0, 2), (1, 2), defects)
    recon = tl.reconfigure_for_defects(lay44, defects)
    assert (0, 2) in recon.sacrificed_qubits


def test_gate_entry_errors_name_the_mover_column(lay44):
    """The mover enters Middle at its own axis: a dead or blocked entry and
    a dead transfer barrier are reported in these words."""
    home, entry = SiteCoord(Row.UPPER, 1), M(1)
    assert lay44.grid_to_site((0, 1)) == home
    for kw in ({"blocked": [entry]}, {"defects": DefectMap.of(sites=[entry])}):
        with pytest.raises(tl.Partitioned, match=r"^vertical access through \(M,1\) is unusable$"):
            tl.router.gate_shuttle_plan(lay44, (0, 1), (1, 3), **kw)
    with pytest.raises(tl.Partitioned, match=r"^vertical barrier \(U,1\)-\(M,1\) is dead$"):
        tl.router.gate_shuttle_plan(lay44, (0, 1), (1, 3),
                                    DefectMap.of(barriers=[(home, entry)]))


def test_dead_direct_barrier_reroutes_through_middle(lay44):
    a, b = lay44.grid_to_site((0, 1)), lay44.grid_to_site((0, 2))
    defects = DefectMap.of(barriers=[(a, b)])
    plan = tl.vertical_gate_plan(lay44, (0, 1), (0, 2), defects)
    assert plan.shuttle_steps > 0
    gate = next(op for op in plan.ops if op.kind is MicroOpKind.TWO_QUBIT_GATE)
    assert gate.sites[0].row is Row.MIDDLE


@given(dims=st.sampled_from([(4, 4), (4, 6), (6, 6), (8, 8)]))
@settings(max_examples=20, deadline=None)
def test_defect_free_vertical_gates_cost_exactly_c(dims):
    rows, cols = dims
    lay = tl.map_to_trilinear(tl.GridSpec(rows, cols))
    for r in range(rows - 1):
        for c in range(cols):
            plan = tl.vertical_gate_plan(lay, (r, c), (r + 1, c))
            assert plan.horizontal_steps == cols


def test_stacked_rows_compress_vertical_gates():
    # Gates on stacked layouts are not modelled: planning rejects them up
    # front, for inner (sub-row 0) and outer (sub-row 1) pairs alike. The
    # block compression itself is covered by test_m_rows_compresses_axis.
    lay = tl.map_to_trilinear(tl.GridSpec(4, 8), m_rows=2)
    assert lay.block_width == 4
    for a, b in (((0, 1), (1, 1)), ((0, 5), (1, 5))):
        with pytest.raises(tl.CircuitError, match=STACKED):
            tl.vertical_gate_plan(lay, a, b)


def test_stacked_layouts_are_rejected_before_routing():
    """Each planning entry point raises the one stacked-layout error first,
    even where the defects would otherwise fail routing or reconfiguration."""
    lay = tl.map_to_trilinear(tl.GridSpec(4, 8), m_rows=2)
    cut = DefectMap.of(sites=[SiteCoord(Row.UPPER, a, s) for a in range(lay.length)
                              for s in (0, 1)] + [M(a) for a in range(lay.length)])
    calls = (
        lambda: tl.reconfigure_for_defects(lay, cut),
        lambda: tl.router.plan_two_qubit(lay, (0, 0), (0, 1), cut),
        lambda: tl.router.gate_shuttle_plan(lay, (0, 5), (1, 5), cut),
        lambda: tl.long_range_plan(lay, (0, 0), (1, 7), cut),
    )
    for call in calls:
        with pytest.raises(tl.CircuitError, match=STACKED):
            call()


# ----------------------------------------------------------------------
# Long-range plans

def test_same_row_pair_bound(lay88):
    plan = tl.long_range_plan(lay88, (2, 0), (2, 7))
    assert plan.horizontal_steps == 14 <= 16
    assert plan.shuttle_steps <= 16


def test_neighboring_row_pair_bound(lay88):
    plan = tl.long_range_plan(lay88, (2, 1), (3, 6))
    assert plan.horizontal_steps <= 24
    assert plan.horizontal_steps == 18


def test_loop_head_tail_wraparound(lay88, lay88_loop):
    plan = tl.long_range_plan(lay88_loop, (0, 3), (7, 3))
    with pytest.raises(tl.UnsupportedPair):
        tl.long_range_plan(lay88, (0, 3), (7, 3))
    # Wrap distance: |axis(7,3)-axis(0,3)| = 28 vs 32-28 = 4 around the join.
    assert plan.shuttle_steps == 8
    assert plan.horizontal_steps < 2 * 28


def test_unsupported_pairs(lay88):
    with pytest.raises(tl.UnsupportedPair):
        tl.long_range_plan(lay88, (0, 0), (2, 5))
    with pytest.raises(tl.UnsupportedPair):
        tl.long_range_plan(lay88, (3, 3), (3, 3))


def test_exhaustive_same_row_and_neighbor_bounds(lay88):
    cols = lay88.grid.cols
    for r in range(8):
        for c1 in range(cols):
            for c2 in range(c1 + 1, cols):
                plan = tl.long_range_plan(lay88, (r, c1), (r, c2))
                assert plan.horizontal_steps <= 2 * cols
    for r in range(7):
        for c1 in range(cols):
            for c2 in range(cols):
                plan = tl.long_range_plan(lay88, (r, c1), (r + 1, c2))
                assert plan.horizontal_steps <= 3 * cols


# ----------------------------------------------------------------------
# Reconfiguration

def test_no_defects_empty_reconfiguration(lay44):
    recon = tl.reconfigure_for_defects(lay44)
    assert recon == tl.Reconfiguration(frozenset(), frozenset())


def test_single_middle_defect_sacrifices_at_most_two(lay88_loop):
    for axis in range(lay88_loop.length):
        recon = tl.reconfigure_for_defects(lay88_loop, DefectMap.of(sites=[M(axis)]))
        assert len(recon.sacrificed_qubits) <= 2
        allowed = set()
        for da in (-1, 0, 1):
            for row in (Row.UPPER, Row.LOWER):
                cell = lay88_loop.site_to_grid(
                    SiteCoord(row, (axis + da) % lay88_loop.length))
                if cell is not None:
                    allowed.add(cell)
        assert recon.sacrificed_qubits <= allowed


def test_reconfigured_survivors_all_reachable(lay88_loop):
    defects = DefectMap.of(sites=[M(5)])
    recon = tl.reconfigure_for_defects(lay88_loop, defects)
    survivors = [c for c in lay88_loop.grid.cells() if c not in recon.sacrificed_qubits]
    sites = [lay88_loop.grid_to_site(c) for c in survivors]
    anchor = sites[0]
    for other in sites[1:]:
        tl.shortest_shuttle_path(lay88_loop, anchor, other, defects)


def test_dead_vertical_barrier_strands_one_dot(lay88):
    barrier = (SiteCoord(Row.UPPER, 4), M(4))
    recon = tl.reconfigure_for_defects(lay88, DefectMap.of(barriers=[barrier]))
    assert recon.repurposed_sites == {SiteCoord(Row.UPPER, 4)}
    assert len(recon.sacrificed_qubits) == 1


def test_full_cut_unrecoverable_and_is_partitioned(lay88):
    cut = DefectMap.of(sites=[SiteCoord(Row.UPPER, 10), M(10), SiteCoord(Row.LOWER, 10)])
    with pytest.raises(tl.Unrecoverable, match="span 2 disconnected components"):
        tl.reconfigure_for_defects(lay88, cut)
    with pytest.raises(tl.Partitioned):
        tl.reconfigure_for_defects(lay88, cut)


def test_full_cut_recoverable_on_loop(lay44_loop):
    cut = DefectMap.of(sites=[SiteCoord(Row.UPPER, 3), M(3), SiteCoord(Row.LOWER, 3)])
    recon = tl.reconfigure_for_defects(lay44_loop, cut)
    mapped_at_cut = {
        lay44_loop.site_to_grid(s)
        for s in (SiteCoord(Row.UPPER, 3), SiteCoord(Row.LOWER, 3))
        if lay44_loop.site_to_grid(s) is not None
    }
    assert recon.sacrificed_qubits == mapped_at_cut
    assert 1 <= len(recon.sacrificed_qubits) <= 3


def _site(node):
    row, axis, sub = node
    return SiteCoord(Row(row), axis, sub)


@st.composite
def defect_layouts(draw):
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(2, 9))
    m_rows, loop = draw(st.integers(1, min(3, cols))), draw(st.booleans())
    g = site_graph(rows, cols, loop, m_rows)
    nodes = sorted(g.nodes)
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    dead_sites = set(draw(st.lists(st.sampled_from(nodes), max_size=5)))
    dead_barriers = set(draw(st.lists(st.sampled_from(edges), max_size=4)))
    # Only a whole dead column, or every barrier across one axis gap, can
    # sever the lattice between survivors.
    length = expected_dims(rows, cols, loop, m_rows)[4]
    for cut in draw(st.lists(st.integers(0, length - 1), max_size=2)):
        if draw(st.booleans()):
            dead_sites |= {n for n in nodes if n[1] == cut}
        else:
            gap = {cut, (cut + 1) % length}
            dead_barriers |= {e for e in edges if {e[0][1], e[1][1]} == gap}
    return rows, cols, loop, m_rows, sorted(dead_sites), sorted(dead_barriers)


def _column_cut(*axes):
    return [(row, axis, 0) for axis in axes for row in ("L", "M", "U")]


@settings(max_examples=300, deadline=None)
@given(defect_layouts())
# Middle cuts (dead Middle sites and cut Middle barriers): the flood is
# skipped with none on a line, or one on a loop of 3 or more axes.
@example((4, 4, False, 1, [("U", 3, 0)], [(("M", 5, 0), ("U", 5, 0))]))    # 0, line
@example((2, 4, True, 1, [("L", 1, 0)], [(("M", 2, 0), ("U", 2, 0))]))     # 0, loop
@example((4, 4, False, 1, [("M", 3, 0)], []))                              # 1, line
@example((1, 4, False, 1, _column_cut(1), []))                             # 1, line, severed
@example((2, 4, True, 1, [("M", 1, 0)], []))                               # 1, loop
@example((1, 2, True, 1, [], [(("L", 0, 0), ("L", 1, 0)), (("M", 0, 0), ("M", 1, 0)),
                              (("U", 0, 0), ("U", 1, 0))]))                # 1, 2-axis loop, severed
@example((1, 4, False, 1, [("M", 0, 0), ("M", 2, 0)], []))                 # 2, line
@example((2, 4, True, 1, [("M", 0, 0)], [(("M", 2, 0), ("M", 3, 0))]))     # 2, loop
@example((2, 4, True, 1, _column_cut(0, 2), []))                           # 2, loop, severed
def test_reconfiguration_matches_fixed_point_oracle(case):
    rows, cols, loop, m_rows, dead_sites, dead_barriers = case
    layout = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop, m_rows=m_rows)
    defects = DefectMap.of(
        sites=[_site(n) for n in dead_sites],
        barriers=[(_site(a), _site(b)) for a, b in dead_barriers],
    )
    if m_rows > 1:
        with pytest.raises(tl.CircuitError, match=f"^m_rows={m_rows}: gates on stacked"):
            tl.reconfigure_for_defects(layout, defects)
        return
    repurposed, sacrificed, components = reconfiguration(
        rows, cols, loop, m_rows, dead_sites, dead_barriers)
    if components > 1:
        with pytest.raises(tl.Unrecoverable,
                           match=f"span {components} disconnected components$"):
            tl.reconfigure_for_defects(layout, defects)
        return
    recon = tl.reconfigure_for_defects(layout, defects)
    assert {as_node(s) for s in recon.repurposed_sites} == repurposed
    assert recon.sacrificed_qubits == sacrificed


@pytest.mark.parametrize("duration", [2.9, True, -3, 0, "2", None])
def test_micro_op_reader_rejects_non_integer_durations(duration):
    """2.9 used to read back as 2, true as 1, and -3 was accepted."""
    obj = {"kind": "horizontal_step", "sites": [["M", 0], ["M", 1]], "duration_ticks": duration}
    with pytest.raises(tl.CircuitError, match=f"duration_ticks.*{duration!r}"):
        MicroOp.from_obj(obj)


@pytest.mark.parametrize("obj, field", [
    ({"kind": "two_qubit_gate", "sites": [["M", 0]]}, "sites"),
    ({"kind": "horizontal_step", "sites": [["M", 0]]}, "sites"),
    ({"kind": "vertical_transfer", "sites": [["M", 0], ["U", 0], ["M", 1]]}, "sites"),
    ({"kind": "readout", "sites": []}, "sites"),
    ({"kind": "single_qubit_pulse", "sites": [["M", 0], ["M", 1]]}, "sites"),
    ({"kind": "readout", "sites": ["M", 0]}, "sites"),
    ({"kind": "readout"}, "sites"),
    ({"kind": "teleport", "sites": [["M", 0]]}, "kind"),
    ({"sites": [["M", 0]]}, "kind"),
    ({"kind": [], "sites": [["M", 0]]}, "kind"),
    ({"kind": {}, "sites": [["M", 0]]}, "kind"),
    ({"kind": "READOUT", "sites": [["M", 0]]}, "kind"),
])
def test_micro_op_reader_rejects_wrong_kinds_and_site_counts(obj, field):
    """A one-site gate or an empty readout used to read back and then crash
    the validator with IndexError, and a one-site move validated clean; an
    unknown kind raised ValueError and a missing site list KeyError."""
    with pytest.raises(tl.CircuitError, match=f"^{field}: "):
        MicroOp.from_obj(obj)


@pytest.mark.parametrize("freq_class", [["magnet"], {"magnet": 1}, 5, True])
def test_micro_op_reader_rejects_non_string_freq_class(freq_class):
    """The schedule writer keys its text memo by the op's fields, so a list
    or dict there would break it; the reader rejects every non-string."""
    obj = {"kind": "single_qubit_pulse", "sites": [["U", 0]], "freq_class": freq_class}
    with pytest.raises(tl.CircuitError, match="^freq_class: expected a string"):
        MicroOp.from_obj(obj)


def test_micro_op_reader_accepts_positive_integer_durations():
    obj = {"kind": "horizontal_step", "sites": [["M", 0], ["M", 1]]}
    assert MicroOp.from_obj(obj).duration_ticks == 1
    assert MicroOp.from_obj(obj | {"duration_ticks": 1}).duration_ticks == 1
    assert MicroOp.from_obj(obj | {"duration_ticks": 7}).duration_ticks == 7
