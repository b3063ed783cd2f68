"""Half-filled initialization, global-drive addressability, readout."""

import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trilinear as tl
from trilinear import protocol as proto
from trilinear import scheduler as sch
from trilinear.cli import simulate_texts
from trilinear.protocol import ArrayState, PhaseConfig, ReadoutFixture
from trilinear.router import move_op
from trilinear.topology import DefectMap, Row, SiteClass, SiteCoord, site_class

import _oracles


@pytest.fixture
def state8(lay44_loop):
    # 4x4 loop -> uniform 3x8 lattice, 4 magnet dots per outer row.
    return proto.init_half_filled(lay44_loop)


def test_half_filling_places_eight_qubits(state8):
    assert len(state8.position) == 8
    per_row = {Row.UPPER: 0, Row.LOWER: 0}
    for site in state8.occupancy:
        per_row[site.row] += 1
        assert site_class(site) is SiteClass.MAGNET
    assert per_row == {Row.UPPER: 4, Row.LOWER: 4}


def test_bare_dots_start_empty(state8):
    for site in state8.layout.sites():
        if site_class(site) is SiteClass.BARE:
            assert state8.qubit_at(site) is None


def test_dead_dot_skipped_at_init(lay44_loop):
    dead = DefectMap.of(sites=[SiteCoord(Row.UPPER, 0)])
    state = proto.init_half_filled(lay44_loop, dead)
    assert len(state.position) == 7


def _bare_pulse():
    return tl.MicroOp(tl.MicroOpKind.SINGLE_QUBIT_PULSE, (SiteCoord(Row.UPPER, 1),),
                      freq_class=SiteClass.BARE.value, param="x90")


def test_global_pulse_on_bare_class_is_identity_when_parked(state8):
    assert proto.replay_rotations(state8, [_bare_pulse()]) == {0: set()}


def test_global_pulse_hits_exactly_the_moved_qubit(state8):
    ops = [move_op(state8.position[0], SiteCoord(Row.UPPER, 1)), _bare_pulse()]
    assert proto.replay_rotations(state8, ops) == {1: {0}}


def test_global_pulse_hits_all_bare_residents(state8):
    ops = [move_op(state8.position[0], SiteCoord(Row.UPPER, 1)),
           move_op(state8.position[4], SiteCoord(Row.LOWER, 1)), _bare_pulse()]
    assert proto.replay_rotations(state8, ops) == {2: {0, 4}}


def test_addressed_gate_rotates_only_target(state8):
    for target in sorted(state8.position):
        ops = proto.addressed_single_qubit_gate(state8, target, "x90")
        assert list(proto.replay_rotations(state8, ops).values()) == [{target}]
        report = proto.audit_addressed_gate(state8, target, ops)
        assert report.ok and not report.bystanders


def test_addressed_gate_zero_phase_leaves_ledger(state8):
    ops = proto.addressed_single_qubit_gate(state8, 2, "x90")
    assert proto.advance_frame(0.0, ops, PhaseConfig()) == 0.0
    assert proto.advance_frame(1.25, ops, PhaseConfig()) == 1.25


def test_addressed_gate_phase_bookkeeping(state8):
    """The hop out lands on a bare dot, the hop back on a magnet dot."""
    ops = proto.addressed_single_qubit_gate(state8, 2, "x90")
    assert proto.advance_frame(0.0, ops, PhaseConfig(0.3, 0.5)) == pytest.approx(0.8)
    assert proto.advance_frame(6.0, ops, PhaseConfig(0.3, 0.5)) == pytest.approx(
        6.8 - 2 * math.pi)


def _replayed_occupancy(state, ops):
    occupancy = dict(state.occupancy)
    for op in ops:
        if op.is_move:
            occupancy[op.dst] = occupancy.pop(op.src)
    return occupancy


def test_addressed_gate_restores_occupancy(state8):
    ops = proto.addressed_single_qubit_gate(state8, 5, "x90")
    assert _replayed_occupancy(state8, ops) == state8.occupancy


def test_no_adjacent_empty_raises(state8):
    home = state8.position[1]
    left = SiteCoord(home.row, (home.axis - 1) % state8.layout.length)
    right = SiteCoord(home.row, (home.axis + 1) % state8.layout.length)
    crowded = ArrayState(state8.layout, {**state8.position, 0: left, 2: right})
    with pytest.raises(tl.NoAdjacentEmpty):
        proto.addressed_single_qubit_gate(crowded, 1, "x90")


def test_half_filling_preserved_by_protocol_ops(state8):
    for target in (0, 3, 6):
        ops = proto.addressed_single_qubit_gate(state8, target, "x90")
        assert _replayed_occupancy(state8, ops) == state8.occupancy
    assert len(state8.position) == 8


# ----------------------------------------------------------------------
# Readout

def test_readout_zero_steps_when_adjacent(state8):
    fixture = ReadoutFixture(axes=(0,), spacing=4)
    qubit = state8.qubit_at(SiteCoord(Row.UPPER, 0))
    ops = proto.readout(state8, qubit, fixture)
    kinds = [op.kind.value for op in ops]
    assert kinds == ["readout"]


def test_readout_two_steps_each_way(state8):
    fixture = ReadoutFixture.from_spacing(state8.layout, 4)
    assert fixture.axes == (0, 4)
    qubit = state8.qubit_at(SiteCoord(Row.UPPER, 2))
    ops = proto.readout(state8, qubit, fixture)
    steps = [op for op in ops if op.is_move]
    assert len(steps) == 4  # 2 out + 2 back
    assert steps[0].src == steps[-1].dst == SiteCoord(Row.UPPER, 2)


def test_readout_accrues_and_compensates_phase(state8):
    """Two hops onto bare dots and two onto magnet dots: the frame that
    software compensates is their sum."""
    fixture = ReadoutFixture.from_spacing(state8.layout, 4)
    qubit = state8.qubit_at(SiteCoord(Row.UPPER, 2))
    ops = proto.readout(state8, qubit, fixture)
    phases = PhaseConfig(hop_phase_magnet=0.1, hop_phase_bare=0.2)
    assert proto.advance_frame(0.0, ops, phases) == pytest.approx(0.6)


def test_readout_all_sensors_dead(state8):
    fixture = ReadoutFixture(axes=(0, 4), spacing=4)
    dead = DefectMap.of(sites=[SiteCoord(Row.UPPER, 0), SiteCoord(Row.UPPER, 4)])
    qubit = state8.qubit_at(SiteCoord(Row.UPPER, 2))
    with pytest.raises(tl.Partitioned):
        proto.readout(state8, qubit, fixture, dead)


def test_default_fixture_spacing(lay88):
    fixture = ReadoutFixture.from_spacing(lay88)
    assert fixture.spacing == 4
    assert fixture.axes[0] == 0


@pytest.mark.parametrize("spacing", [0, -2, 1.5, True])
def test_fixture_spacing_must_be_an_integer_of_at_least_one(lay88, spacing):
    """0 raised a bare ValueError from range(), and -2 raised Partitioned."""
    with pytest.raises(tl.CircuitError, match=f"^set_spacing: expected an integer >= 1, "
                                              f"got {spacing}$"):
        ReadoutFixture.from_spacing(lay88, spacing)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a readout walks its own row "
                                       "through parked qubits")
def test_readout_lands_on_no_other_qubit(lay88_loop):
    """Qubit 1 walks (U,2) -> (U,1) -> (U,0) and reads out on the home of
    qubit 0."""
    state = proto.init_half_filled(lay88_loop)
    qubit = state.qubit_at(lay88_loop.grid_to_site((0, 2)))
    ops = proto.readout(state, qubit, ReadoutFixture.from_spacing(lay88_loop))
    landings = [op.dst for op in ops if op.is_move]
    assert [s for s in landings if state.qubit_at(s) not in (None, qubit)] == []


# ----------------------------------------------------------------------
# The placement under random op sequences

LAY48_LOOP = tl.map_to_trilinear(tl.GridSpec(4, 8), loop=True)


def _snapshot(state):
    return copy.deepcopy((state.position, state.occupancy, state.by_class))


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 255), st.integers(0, 255)),
                max_size=40))
@settings(max_examples=80, deadline=None)
def test_class_index_and_purity_under_random_ops(steps):
    """Gates and readouts leave the placement, and its derived occupancy
    and class index, as `init_half_filled` made them."""
    state = proto.init_half_filled(LAY48_LOOP)
    for cls in SiteClass:
        scan = {q for q, s in state.position.items() if site_class(s) is cls}
        assert state.by_class[cls] == scan
    before = _snapshot(state)
    for gate, a, b in steps:
        qubit = sorted(state.position)[a % len(state.position)]
        if gate:
            proto.addressed_single_qubit_gate(state, qubit, f"r{b}")
        else:
            proto.readout(state, qubit, ReadoutFixture.from_spacing(LAY48_LOOP, 1 + b % 8))
        assert _snapshot(state) == before


# ----------------------------------------------------------------------
# Equivalence with the reference ops in tests/_oracles.py

_PHASES = (0.0, 1e-07, 6.283185307179586, 0.37, 0.81, -2.5, 1e+16, float("nan"))


def _case(rows, cols, loop, dead=(), cuts=()):
    layout = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop)
    defects = DefectMap.of(sites=dead, barriers=cuts)
    return layout, defects, proto.init_half_filled(layout, defects)


# A 24-dot loop: qubit 2 sits on (U,4), 6 on (U,12) and 11 on (U,22).
_LOOP24 = _case(8, 6, True)
_LOOP24_CUT = _case(8, 6, True, cuts=[(SiteCoord(Row.UPPER, 3), SiteCoord(Row.UPPER, 4))])
_LOOP24_DEAD = _case(8, 6, True, dead=[SiteCoord(Row.UPPER, 1)])


@st.composite
def _defective_layouts(draw):
    """A layout (loop or not, odd or even C, m_rows 1-3) with random dead
    sites and dead barriers, and the half-filled state on it."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(2, 9))
    layout = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=draw(st.booleans()),
                                 m_rows=draw(st.integers(1, min(3, cols))))
    sites = sorted(layout.sites(), key=tl.topology.site_key)
    dead = draw(st.lists(st.sampled_from(sites), max_size=4))
    cuts = []
    for site in draw(st.lists(st.sampled_from(sites), max_size=4)):
        cuts.append((site, draw(st.sampled_from(layout.site_neighbors(site)))))
    defects = DefectMap.of(sites=dead, barriers=[c for c in cuts if c[0] != c[1]])
    return layout, defects, proto.init_half_filled(layout, defects)


def _fixture(layout, spacing):
    """Spacing 1-8, or one sensor per row ("loop"), which sits exactly half
    the loop away from some qubit on an even loop."""
    if spacing == "loop":
        spacing = layout.length
    return ReadoutFixture.from_spacing(layout, spacing)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except tl.TrilinearError as exc:
        return type(exc).__name__, str(exc)


@given(_defective_layouts(), st.integers(0, 10**6), st.sampled_from((*range(1, 9), "loop")),
       st.booleans())
@settings(max_examples=120, deadline=None)
# The nearest sensor across the loop's join; one sensor half the loop away;
# a dead barrier, then a dead dot, on the walk to sensor 0.
@example(_LOOP24, 11, 8, False)
@example(_LOOP24, 6, "loop", False)
@example(_LOOP24_CUT, 2, 8, False)
@example(_LOOP24_DEAD, 2, 8, False)
def test_readout_matches_reference(case, pick, spacing, home_dies):
    """Also with the qubit's own dot dead, which only the library API allows."""
    layout, defects, state = case
    if not state.position:
        return
    qubit = sorted(state.position)[pick % len(state.position)]
    if home_dies:
        defects = DefectMap(defects.dead_sites | {state.position[qubit]}, defects.dead_barriers)
    args = (state, qubit, _fixture(layout, spacing), defects, tl.Durations())
    assert _outcome(proto.readout, *args) == _outcome(_oracles.readout, *args)


@given(_defective_layouts(), st.integers(0, 10**6),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=4))
@settings(max_examples=100, deadline=None)
def test_addressed_gate_matches_reference(case, pick, moves):
    """On placements with a few qubits moved to random free dots, so that
    some sit on bare dots, where they block a neighbour's hop."""
    layout, defects, state = case
    if not state.position:
        return
    sites = sorted(layout.sites(), key=tl.topology.site_key)
    position = dict(state.position)
    for a, b in moves:
        taken = set(position.values())
        free = [s for s in sites if s not in taken]
        position[sorted(position)[a % len(position)]] = free[b % len(free)]
    state = ArrayState(layout, position)
    qubit = sorted(position)[pick % len(position)]
    args = (state, qubit, "x90", defects, tl.Durations())
    assert (_outcome(proto.addressed_single_qubit_gate, *args)
            == _outcome(_oracles.addressed_single_qubit_gate, *args))


@given(_defective_layouts(), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                                                st.integers(0, 2)), max_size=12))
@settings(max_examples=100, deadline=None)
def test_replay_rotations_match_reference(case, steps):
    """Random moves between any two sites (onto occupied ones too, and from
    empty ones) and pulses of both classes."""
    layout, _, state = case
    sites = sorted(layout.sites(), key=tl.topology.site_key)
    ops = []
    for a, b, kind in steps:
        if kind == 2:
            ops.append(tl.MicroOp(tl.MicroOpKind.SINGLE_QUBIT_PULSE, (sites[a % len(sites)],),
                                  freq_class=list(SiteClass)[b % 2].value))
        else:
            ops.append(tl.router.move_op(sites[a % len(sites)], sites[b % len(sites)]))
    assert proto.replay_rotations(state, ops) == _oracles.replay_rotations(state, ops)


@given(_defective_layouts(), st.lists(st.tuples(st.integers(0, 10**6), st.booleans()),
                                      max_size=30),
       st.sampled_from((*range(1, 9), "loop")), st.sampled_from(_PHASES),
       st.sampled_from(_PHASES))
@settings(max_examples=100, deadline=None)
def test_simulate_texts_match_reference(case, picks, spacing, magnet, bare):
    """The one-pass writer against one json.dumps per event and an indent=2
    report over the reference ops, byte for byte, or the same error."""
    layout, defects, state = case
    cells = sorted(layout.grid.cells())
    hosted = [c for c in cells if state.qubit_at(layout.grid_to_site(c)) is not None] or cells
    ops = []
    for k, gate in picks:
        cell = hosted[k % len(hosted)]
        ops.append(sch.OneQubit(cell, "x90") if gate else sch.Measure(cell))
    args = (sch.Circuit(tuple(ops)), layout, defects, _fixture(layout, spacing), PhaseConfig(magnet, bare),
            tl.Durations())
    assert _outcome(simulate_texts, *args) == _outcome(_oracles.simulate_texts, *args)


# Rotations as a circuit file may give them: only the pulse's `param` holds
# one, and a list or dict is not hashable.
_PARAMS = ("x90", None, 0.5, [1, 2], {"theta": 1})


@given(_defective_layouts(), st.integers(0, 10**6),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from((*_PARAMS, "meas"))), max_size=30),
       st.sampled_from(_PHASES), st.sampled_from(_PHASES))
@settings(max_examples=100, deadline=None)
def test_simulate_plans_match_reference(case, start, picks, magnet, bare):
    """Ops on at most three cells, so most of them repeat a plan of their
    (qubit, kind), with rotations that change from op to op; pick 3 is a
    cell outside the grid. Byte for byte, or the same error."""
    layout, defects, state = case
    cells = sorted(layout.grid.cells())
    hosted = [c for c in cells if state.qubit_at(layout.grid_to_site(c)) is not None] or cells
    pool = [hosted[(start + i) % len(hosted)] for i in range(3)] + [(layout.grid.rows, 0)]
    ops = [sch.Measure(pool[k]) if param == "meas" else sch.OneQubit(pool[k], param)
           for k, param in picks]
    args = (sch.Circuit(tuple(ops)), layout, defects, _fixture(layout, 4), PhaseConfig(magnet, bare),
            tl.Durations())
    assert _outcome(simulate_texts, *args) == _outcome(_oracles.simulate_texts, *args)


def test_repeated_gates_plan_once_and_keep_their_frames(lay44_loop, monkeypatch):
    """k gates on one qubit run the protocol gate once, yet each reports its
    own frame; k readouts run the readout once."""
    calls = {"gate": 0, "readout": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(proto, "addressed_single_qubit_gate",
                        counted("gate", proto.addressed_single_qubit_gate))
    monkeypatch.setattr(proto, "readout", counted("readout", proto.readout))
    k = len(_PARAMS)
    ops = [sch.OneQubit((0, 0), param) for param in _PARAMS] + [sch.Measure((0, 0))] * k
    _, report = simulate_texts(sch.Circuit(tuple(ops)), lay44_loop, DefectMap.of(),
                               ReadoutFixture.from_spacing(lay44_loop), PhaseConfig(0.0, 0.37),
                               tl.Durations())
    assert calls == {"gate": 1, "readout": 1}
    frames = [g["frame_phase"] for g in json.loads(report)["gates"]]
    assert len(frames) == len(set(frames)) == k


def test_simulate_over_defect_maps_in_turn_matches_reference():
    """The cached placement of one defect map never serves another: maps A,
    B, then A again, in one process."""
    layout = tl.map_to_trilinear(tl.GridSpec(4, 6), loop=True)
    u2, u4 = SiteCoord(Row.UPPER, 2), SiteCoord(Row.UPPER, 4)
    # Cells on magnet dots alive in both maps; the qubit ids past U2 differ.
    sites = {cell: layout.grid_to_site(cell) for cell in sorted(layout.grid.cells())}
    ops = tuple(op for cell, site in sites.items() if site.axis % 2 == 0 and site not in (u2, u4)
                for op in (sch.OneQubit(cell, "x90"), sch.Measure(cell)))
    a, b = DefectMap.of(sites=[u2]), DefectMap.of(sites=[u4])
    for defects in (a, b, a):
        args = (sch.Circuit(ops), layout, defects, ReadoutFixture.from_spacing(layout),
                PhaseConfig(0.3, 0.5), tl.Durations())
        assert _outcome(simulate_texts, *args) == _outcome(_oracles.simulate_texts, *args)


def test_placement_is_cached_per_layout_and_defects(lay44_loop):
    dead = DefectMap.of(sites=[SiteCoord(Row.UPPER, 0)])
    state = proto.init_half_filled(lay44_loop, dead)
    assert proto.init_half_filled(lay44_loop, dead) is state
    assert proto.init_half_filled(lay44_loop) is not state
