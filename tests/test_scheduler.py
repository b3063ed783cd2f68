"""Compilation soundness, collision rules, mux budgets, DC refresh."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import trilinear as tl
from trilinear import scheduler as sch
from trilinear.router import Durations, MicroOp, MicroOpKind, _moves, move_op, plan_two_qubit
from trilinear.scheduler import (
    Measure,
    MuxConfig,
    OneQubit,
    Schedule,
    ScheduledOp,
    TwoQubit,
    dc_refresh_plan,
    validate_schedule,
    waveform_usage,
)
from trilinear.errors import TrilinearError
from trilinear.topology import DefectMap, Row, SiteCoord, site_from_obj

from _oracles import (admit_by_dependency, schedule_document, swap_throughs,
                      tick_signal_names)
from _oracles import validate_schedule as oracle_validate


def compile_ok(circuit, layout, **kw):
    schedule = sch.compile(circuit, layout, **kw)
    assert validate_schedule(schedule, layout, kw.get("defects", tl.DefectMap()),
                             kw.get("mux", MuxConfig())) == []
    return schedule


def test_empty_circuit(lay88):
    schedule = sch.compile(sch.Circuit(), lay88)
    assert schedule.makespan == 0
    assert schedule.ops == ()


def test_single_vertical_gate_makespan(lay88):
    schedule = compile_ok(sch.Circuit((TwoQubit((0, 2), (1, 2)),)), lay88)
    # transfer(1) + 4 steps + gate(2) + 4 steps + transfer(1)
    assert schedule.makespan == 12
    assert schedule.total_horizontal_steps == 8


def test_disjoint_gates_run_concurrently(lay88):
    single = compile_ok(sch.Circuit((TwoQubit((0, 0), (1, 0)),)), lay88)
    pair = compile_ok(
        sch.Circuit((TwoQubit((0, 0), (1, 0)), TwoQubit((0, 7), (1, 7)))), lay88)
    assert pair.makespan == single.makespan


def test_overlapping_gates_serialize(lay88):
    single = compile_ok(sch.Circuit((TwoQubit((0, 2), (1, 2)),)), lay88)
    pair = compile_ok(
        sch.Circuit((TwoQubit((0, 2), (1, 2)), TwoQubit((0, 3), (1, 3)))), lay88)
    assert pair.makespan > single.makespan


@pytest.mark.parametrize("loop", [False, True])
def test_vertical_layer_shares_the_middle_row_in_lockstep(loop):
    """The even-r vertical layer of a 32x32 array: 512 gates whose movers
    all ride the Middle row. One gate takes 36 ticks; movers in one
    direction follow each other a site apart, so the layer takes about two
    such waves. Holding every site a plan touches for the whole job took
    612 ticks on the line and 684 on the loop."""
    layout = tl.map_to_trilinear(tl.GridSpec(32, 32), loop=loop)
    circuit = sch.Circuit(tuple(TwoQubit((r, c), (r + 1, c))
                                for r in range(0, 32, 2) for c in range(32)))
    schedule = compile_ok(circuit, layout)
    assert schedule.makespan <= 144


def test_opposite_movers_on_one_edge_stay_serialized(lay88):
    """(1,2) shuttles west over (M,6)..(M,2) and back; (0,3) east over
    (M,3)..(M,7) and back. Their jobs overlap in time, but no edge carries
    both movers in opposite directions at once."""
    circuit = sch.Circuit((TwoQubit((1, 2), (0, 2)), TwoQubit((0, 3), (1, 3))))
    schedule = compile_ok(circuit, lay88)
    spans = {q: (min(s.start_tick for s in schedule.ops if s.qubit == q),
                 max(s.end_tick for s in schedule.ops if s.qubit == q)) for q in [(1, 2), (0, 3)]}
    assert spans[(0, 3)][0] < spans[(1, 2)][1]
    moves = [s for s in schedule.ops if s.op.is_move]
    opposite = [(a, b) for a in moves for b in moves
                if a.qubit == (1, 2) and b.qubit == (0, 3)
                and (a.op.src, a.op.dst) == (b.op.dst, b.op.src)]
    assert len(opposite) == 6  # the 3 edges of (M,3)-(M,6), against each other on both legs
    assert all(a.end_tick <= b.start_tick or b.end_tick <= a.start_tick for a, b in opposite)


def test_program_order_per_qubit_preserved(lay88):
    circuit = sch.Circuit((
        OneQubit((0, 2), "x"),
        TwoQubit((0, 2), (1, 2)),
        Measure((0, 2)),
    ))
    schedule = compile_ok(circuit, lay88)
    kinds = [
        s.op.kind for s in sorted(schedule.ops, key=lambda s: s.start_tick)
        if s.op.kind in (MicroOpKind.SINGLE_QUBIT_PULSE, MicroOpKind.TWO_QUBIT_GATE,
                         MicroOpKind.READOUT)
    ]
    assert kinds == [MicroOpKind.SINGLE_QUBIT_PULSE, MicroOpKind.TWO_QUBIT_GATE,
                     MicroOpKind.READOUT]


def test_partner_waits_until_mover_is_home(lay88):
    # The partner holds its home for the whole gate job, so the partner's
    # next op cannot start while the mover shuttles home.
    circuit = sch.Circuit((TwoQubit((0, 2), (1, 2)), OneQubit((1, 2), "x")))
    schedule = compile_ok(circuit, lay88)
    gate = next(s for s in schedule.ops if s.op.kind is MicroOpKind.TWO_QUBIT_GATE)
    pulse = next(s for s in schedule.ops if s.op.kind is MicroOpKind.SINGLE_QUBIT_PULSE)
    assert pulse.qubit == gate.partner
    assert pulse.start_tick >= max(s.end_tick for s in schedule.ops if s.qubit == gate.qubit)


def test_compile_routes_around_defects(lay88_loop):
    defects = DefectMap.of(sites=[SiteCoord(Row.MIDDLE, 12)])
    circuit = sch.Circuit((TwoQubit((0, 0), (1, 0)), TwoQubit((2, 5), (3, 5))))
    schedule = compile_ok(circuit, lay88_loop, defects=defects)
    assert schedule.makespan > 0


def test_sacrificed_cell_rejected(lay88_loop):
    defects = DefectMap.of(sites=[SiteCoord(Row.MIDDLE, 4)])
    # (0,4) maps to (U,4), repurposed by the reconfiguration.
    with pytest.raises(tl.CircuitError):
        sch.compile(sch.Circuit((OneQubit((0, 4), "x"),)), lay88_loop, defects=defects)


def test_stacked_layout_rejected_before_reconfiguration():
    """A defect-free 4x8 m_rows=2 compile used to fail with the misleading
    "cell (0, 5) is sacrificed to defects" while route planned the pair."""
    lay = tl.map_to_trilinear(tl.GridSpec(4, 8), m_rows=2)
    circuit = sch.Circuit((TwoQubit((0, 5), (1, 5)), OneQubit((3, 5), "x")))
    with pytest.raises(tl.CircuitError) as info:
        sch.compile(circuit, lay)
    assert str(info.value) == ("m_rows=2: gates on stacked layouts are not modelled; "
                               "route and schedule need m_rows=1")


def test_unsupported_pair_rejected(lay88):
    with pytest.raises(tl.UnsupportedPair):
        sch.compile(sch.Circuit((TwoQubit((0, 0), (4, 0)),)), lay88)


def test_mux_infeasible_below_four_inputs(lay88):
    with pytest.raises(tl.MuxInfeasible, match=r"^micro-op vertical_transfer needs 4 "
                                                r"waveforms, only 3 AC inputs available$"):
        sch.compile(sch.Circuit((TwoQubit((0, 2), (1, 2)),)), lay88,
                    mux=MuxConfig(n_ac_inputs=3))


@pytest.mark.parametrize("ticks", [-3, 0])
def test_durations_below_one_tick_are_rejected(lay44, ticks):
    """-3 used to fail inside compile with a bare ValueError, and 0 compiled a
    measurement into a schedule of makespan 0."""
    with pytest.raises(tl.CircuitError, match=f"^readout: expected an integer >= 1, got {ticks}$"):
        sch.compile(sch.Circuit((Measure((0, 0)),)), lay44, durations=Durations(readout=ticks))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: compile keeps movers off the homes "
                                       "of the cells the circuit names only")
def test_mover_keeps_off_every_live_home(lay44):
    """With (M,1) dead the mover of (0,0)-(1,0) detours through (U,2), the
    home of the idle qubit (0,2)."""
    defects = DefectMap.of(sites=[SiteCoord(Row.MIDDLE, 1)])
    named = {(0, 0), (1, 0)}
    sacrificed = tl.reconfigure_for_defects(lay44, defects).sacrificed_qubits
    idle_homes = {lay44.grid_to_site(c) for c in lay44.grid.cells()
                  if c not in named and c not in sacrificed}
    schedule = sch.compile(sch.Circuit((TwoQubit((0, 0), (1, 0)),)), lay44, defects)
    assert [s for sop in schedule.ops for s in sop.op.sites if s in idle_homes] == []


def test_serialized_compile_never_faster(lay88):
    circuit = sch.Circuit((
        TwoQubit((0, 0), (1, 0)),
        TwoQubit((0, 7), (1, 7)),
        OneQubit((4, 4), "x"),
    ))
    parallel = compile_ok(circuit, lay88)
    # Run back to back in program order, the same plans end at this sum.
    assert parallel.makespan <= sum(s.op.duration_ticks for s in parallel.ops)


def test_lowering_ac_budget_never_speeds_up_reference_set(lay88_loop):
    rng = random.Random(7)
    for _ in range(10):
        circuit = _random_circuit(rng, lay88_loop, n_ops=8)
        spans = []
        for budget in (4, 5, 6, 8, 16):
            schedule = sch.compile(circuit, lay88_loop, mux=MuxConfig(n_ac_inputs=budget))
            spans.append(schedule.makespan)
        assert spans == sorted(spans, reverse=True), spans


def test_budget_anomaly_stays_within_serial_bound(lay88_loop):
    # Greedy list scheduling has classic anomalies: a larger waveform
    # budget can start an op earlier whose active window then delays a
    # successor by more than the budget gained. The first case pins exact
    # makespans; the second pins such an anomaly, budget 6 beating budget 8.
    # The serialized span, the sum of the op durations, bounds every budget.
    cases = [
        (DefectMap.of(sites=[SiteCoord(Row.UPPER, 0)]),
         (OneQubit((5, 1), "x"), TwoQubit((0, 1), (0, 4)), TwoQubit((3, 6), (4, 1)),
          Measure((7, 0))),
         {4: 25, 5: 18, 6: 12, 8: 12, 16: 10}, 30),
        (DefectMap(),
         (TwoQubit((6, 4), (7, 4)), TwoQubit((6, 3), (5, 3)), OneQubit((2, 0)),
          TwoQubit((5, 1), (5, 2)), Measure((5, 6)), OneQubit((1, 5))),
         {4: 34, 5: 22, 6: 17, 8: 21, 16: 12}, 44),
    ]
    for defects, ops, expected, serial_span in cases:
        circuit = sch.Circuit(ops)
        schedules = {
            budget: sch.compile(circuit, lay88_loop, defects, mux=MuxConfig(n_ac_inputs=budget))
            for budget in (4, 5, 6, 8, 16)
        }
        spans = {budget: schedule.makespan for budget, schedule in schedules.items()}
        assert spans == expected
        for schedule in schedules.values():
            assert sum(s.op.duration_ticks for s in schedule.ops) == serial_span
        assert all(makespan <= serial_span for makespan in spans.values())
    assert spans[6] < spans[8]  # the anomaly


def test_mover_waits_between_its_gate_and_its_return_leg(lay88_loop):
    """The first budget-anomaly circuit at 8 AC inputs: mover (3,6) reaches
    (M,17) at tick 6 and gates there at once, then waits 2 ticks for its
    return leg to fit. Placed as one rigid block, its gate had to wait
    until the whole return fitted, and the circuit took 15 ticks."""
    defects = DefectMap.of(sites=[SiteCoord(Row.UPPER, 0)])
    circuit = sch.Circuit((OneQubit((5, 1), "x"), TwoQubit((0, 1), (0, 4)),
                           TwoQubit((3, 6), (4, 1)), Measure((7, 0))))
    schedule = compile_ok(circuit, lay88_loop, defects=defects, mux=MuxConfig(n_ac_inputs=8))
    assert schedule.makespan == 12
    mover = [(s.start_tick, s.end_tick, s.op.kind, s.op.sites[0])
             for s in schedule.ops if s.qubit == (3, 6)]
    gate_site = SiteCoord(Row.MIDDLE, 17)
    assert mover[2] == (6, 8, MicroOpKind.TWO_QUBIT_GATE, gate_site)
    assert mover[3] == (10, 11, MicroOpKind.HORIZONTAL_STEP, gate_site)


def test_job_whose_tail_wait_clashes_is_tried_again_at_the_next_tick(lay44):
    """(2,0) holds (M,4) twice: on its way out to its gate at (M,5) and on
    its way home. The second job's head, the transfer to (M,3) and the step
    to (M,4), first fits at tick 1. Started there, its gate at (M,4) would
    clash with (2,0)'s return, so the gate's first fit is tick 6, and the
    mover's wait for it at (M,4) from tick 3 clashes too. So the job is
    tried again at the next tick: the wait clashes again at 2, from 3 on its
    head clashes, and it starts at 5, its head's first fit from there."""
    circuit = sch.Circuit((TwoQubit((2, 0), (1, 3)), TwoQubit((0, 3), (1, 2))))
    schedule = compile_ok(circuit, lay44)
    m4 = SiteCoord(Row.MIDDLE, 4)
    # A move holds both of its sites for its duration, so (2,0) holds (M,4)
    # over ticks 0-2 and 4-6.
    busy = [(s.start_tick, s.end_tick) for s in schedule.ops
            if s.qubit == (2, 0) and m4 in s.op.sites]
    assert busy == [(0, 1), (1, 2), (4, 5), (5, 6)]
    # The head holds (M,4) over its second tick, and the gate after it the
    # two ticks that follow.
    head_fit = next(t for t in range(10) if all(b <= t + 1 or t + 2 <= a for a, b in busy))
    assert head_fit == 1
    assert any(a < head_fit + 4 and head_fit + 2 < b for a, b in busy)  # the gate's clash
    mover = [s for s in schedule.ops if s.qubit == (0, 3)]
    assert mover[0].start_tick == 5 > head_fit
    assert [(s.start_tick, s.op.kind) for s in mover[1:3]] == [
        (6, MicroOpKind.HORIZONTAL_STEP), (7, MicroOpKind.TWO_QUBIT_GATE)]
    assert schedule.makespan == 11


def _jobs_of(schedule, circuit, layout, defects):
    """Each job's scheduled ops in time order, by splitting each mover's ops
    along the router's plans, in program order."""
    homes = {cell: site for cell, site in schedule.initial_positions}
    chains = {}
    for sop in sorted(schedule.ops, key=lambda s: s.start_tick):
        chains.setdefault(sop.qubit, []).append(sop)
    occupied = set(homes.values())  # as compile blocks them
    jobs = []
    for cop in circuit.ops:
        if isinstance(cop, TwoQubit):
            plan = plan_two_qubit(layout, cop.cell_a, cop.cell_b, defects, blocked=occupied)
            owner, n = plan.qubit, len(plan.ops)
        else:
            owner, n = cop.cell, 1
        job, chains[owner] = chains[owner][:n], chains[owner][n:]
        jobs.append(job)
    assert all(not chain for chain in chains.values())
    return jobs


@settings(max_examples=150, deadline=None)
@given(rng_seed=st.integers(0, 2**32), rows=st.integers(1, 8), cols=st.integers(2, 9),
       loop=st.booleans(), n_dead=st.integers(0, 2), n_barriers=st.integers(0, 2),
       n_ops=st.integers(8, 40), n_ac=st.integers(4, 6), coexist=st.booleans())
def test_only_the_tail_of_a_job_waits(rng_seed, rows, cols, loop, n_dead, n_barriers, n_ops,
                                      n_ac, coexist):
    """Every op before a job's gate starts back to back from the job's first
    op. From the gate on, a mover waits only where a run of one signal set
    ends and a run of another begins, and only where no qubit of the circuit
    has its home: the one site
    excepted is the mover's own home, which a plan passes mid-job only when
    its path comes back through it (ROADMAP item 1). The sum of the op
    durations bounds the makespan."""
    case = _compiled_case(random.Random(rng_seed), rows, cols, loop, n_dead, n_barriers,
                          n_ops, n_ac, coexist)
    if case is None:
        return
    layout, defects, mux, circuit, schedule = case
    homes = {cell: site for cell, site in schedule.initial_positions}
    waits = 0
    for job in _jobs_of(schedule, circuit, layout, defects):
        gate = next((i for i, s in enumerate(job) if s.op.kind is MicroOpKind.TWO_QUBIT_GATE),
                    len(job))
        tick = job[0].start_tick
        for sop in job[:gate]:
            assert sop.start_tick == tick
            tick = sop.end_tick
        tail = job[gate - 1:] if gate else []  # the last head op, the gate and the rest
        for prev, sop in zip(tail, tail[1:]):
            if sop.start_tick == prev.end_tick:
                continue
            assert sop.start_tick > prev.end_tick
            waits += 1
            assert sch.signals_for_op(layout, sop.op) != sch.signals_for_op(layout, prev.op)
            at = prev.op.sites[1] if prev.op.is_move else prev.op.sites[0]
            assert at.row is Row.MIDDLE or at not in homes.values() or (
                at == homes[sop.qubit] and sum(s.op.sites[0] == at for s in job) > 1)
    event("waits" if waits else "no waits")
    assert schedule.makespan <= sum(s.op.duration_ticks for s in schedule.ops)


def test_parallel_never_beats_serialized_randomized(lay88_loop):
    # Provable for this greedy: every op is admissible no later than its
    # serialized start, so the serialized makespan, the sum of the op
    # durations, is an upper bound.
    rng = random.Random(99)
    for _ in range(30):
        circuit = _random_circuit(rng, lay88_loop, n_ops=12)
        parallel = sch.compile(circuit, lay88_loop)
        assert parallel.makespan <= sum(s.op.duration_ticks for s in parallel.ops)


@settings(max_examples=300, deadline=None)
@given(rng_seed=st.integers(0, 2**32), rows=st.integers(1, 8), cols=st.integers(2, 9),
       loop=st.booleans(), n_dead=st.integers(0, 2), n_barriers=st.integers(0, 2),
       n_ops=st.integers(1, 40), n_ac=st.integers(4, 8), coexist=st.booleans())
def test_compile_matches_naive_admission_oracle(rng_seed, rows, cols, loop, n_dead, n_barriers,
                                                n_ops, n_ac, coexist):
    """The event-driven admission starts every job at the tick the naive
    tick-by-tick scan over all unstarted jobs starts it."""
    case = _compiled_case(random.Random(rng_seed), rows, cols, loop, n_dead, n_barriers,
                          n_ops, n_ac, coexist)
    if case is None:
        return
    layout, defects, mux, circuit, schedule = case
    expected = admit_by_dependency(circuit, layout, defects, mux)
    assert schedule.ops == expected.ops
    assert schedule.makespan == expected.makespan
    assert schedule.initial_positions == expected.initial_positions
    assert validate_schedule(schedule, layout, defects, mux) == []


@settings(max_examples=150, deadline=None)
@given(rng_seed=st.integers(0, 2**32), rows=st.integers(1, 8), cols=st.integers(2, 9),
       loop=st.booleans(), n_dead=st.integers(0, 2), n_barriers=st.integers(0, 2),
       n_ops=st.integers(1, 40), n_ac=st.integers(1, 3), coexist=st.booleans())
def test_compile_matches_naive_admission_oracle_below_four_inputs(rng_seed, rows, cols, loop,
                                                                  n_dead, n_barriers, n_ops,
                                                                  n_ac, coexist):
    """Under four AC inputs no shuttle fits, so circuits of 1q and meas ops
    only, where the budget alone holds drives and readouts apart. A
    shuttled 2q op still raises MuxInfeasible."""
    case = _compiled_case(random.Random(rng_seed), rows, cols, loop, n_dead, n_barriers,
                          n_ops, n_ac, coexist, pulses_only=True)
    if case is None:
        return
    layout, defects, mux, circuit, schedule = case
    expected = admit_by_dependency(circuit, layout, defects, mux)
    assert schedule.ops == expected.ops
    assert schedule.makespan == expected.makespan
    assert validate_schedule(schedule, layout, defects, mux) == []
    if rows > 1 and n_ac == 3:
        with pytest.raises(tl.MuxInfeasible):
            sch.compile(sch.Circuit((TwoQubit((0, 0), (1, 0)),)), layout, mux=mux)


def _compiled_case(rng, rows, cols, loop, n_dead, n_barriers, n_ops, n_ac, coexist,
                   pulses_only=False):
    """(layout, defects, mux, circuit, schedule) for a random circuit on a
    rows x cols layout with random dead sites and barriers, or None when the
    defects leave no qubit. Defects that sever the array are dropped; with
    `pulses_only` the circuit keeps its 1q and meas ops only."""
    layout = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop)
    sites = sorted(layout.sites(), key=tl.topology.site_key)
    barriers = []
    for _ in range(n_barriers):
        site = rng.choice(sites)
        barriers.append((site, rng.choice(layout.site_neighbors(site))))
    defects = DefectMap.of(sites=rng.sample(sites, k=n_dead), barriers=barriers)
    try:
        sacrificed = tl.reconfigure_for_defects(layout, defects).sacrificed_qubits
    except TrilinearError:
        defects, sacrificed = DefectMap(), frozenset()
    if len(sacrificed) == rows * cols:
        return None
    mux = MuxConfig(n_ac_inputs=n_ac, readout_coexists_with_shuttle=coexist)
    circuit = _random_circuit(rng, layout, n_ops, sacrificed)
    pulses = sch.Circuit(tuple(op for op in circuit.ops if not isinstance(op, TwoQubit)))
    if pulses_only:
        circuit = pulses
    try:
        schedule = sch.compile(circuit, layout, defects, mux=mux)
    except TrilinearError:  # a pair the defects cut off: keep the 1q and meas ops
        circuit = pulses
        schedule = sch.compile(circuit, layout, defects, mux=mux)
    return layout, defects, mux, circuit, schedule


_EDGE_KINDS = (MicroOpKind.HORIZONTAL_STEP, MicroOpKind.VERTICAL_TRANSFER,
               MicroOpKind.TWO_QUBIT_GATE)


def _tamper(rng, schedule, layout, defects):
    """The schedule with one random corruption: a start shifted, a move
    retargeted to any site, a gate partner changed or dropped, a dead or
    out-of-layout site or a dead barrier swapped in, an op deleted, a qubit
    renamed, an initial position dropped, a move or gate given another of
    those kinds on the same sites, or a third site appended to a move or
    gate."""
    ops, homes = list(schedule.ops), list(schedule.initial_positions)
    moves = [i for i, s in enumerate(ops) if s.op.is_move]
    gates = [i for i, s in enumerate(ops) if s.op.kind is MicroOpKind.TWO_QUBIT_GATE]
    cells = list(layout.grid.cells())
    outside = [SiteCoord(Row.MIDDLE, layout.length), SiteCoord(Row.UPPER, -1),
               SiteCoord(Row.LOWER, 0, 1)]
    kind = rng.choice(("shift", "retarget", "partner", "site", "delete", "rename", "home",
                       "kind", "extra"))
    i = rng.randrange(len(ops)) if ops else None
    if kind in ("kind", "extra") and (moves or gates):
        i = rng.choice(moves + gates)
        op = ops[i].op
        if kind == "kind":
            op = op._replace(kind=rng.choice([k for k in _EDGE_KINDS if k is not op.kind]))
        else:
            op = op._replace(sites=(*op.sites, rng.choice([*layout.sites(), *outside])))
        ops[i] = ops[i]._replace(op=op)
    elif kind == "retarget" and moves:
        i = rng.choice(moves)
        sites = list(ops[i].op.sites)
        sites[rng.randrange(2)] = rng.choice(list(layout.sites()))
        ops[i] = ops[i]._replace(op=ops[i].op._replace(sites=tuple(sites)))
    elif kind == "partner" and gates:
        i = rng.choice(gates)
        ops[i] = ops[i]._replace(partner=rng.choice([None, *cells]))
    elif kind == "site" and ops:
        sites = list(ops[i].op.sites)
        dead = sorted(defects.dead_sites, key=tl.topology.site_key)
        sites[rng.randrange(len(sites))] = rng.choice(dead + outside)
        if ops[i].op.is_move and defects.dead_barriers and rng.random() < 0.5:
            sites = rng.sample(rng.choice(sorted(defects.dead_barriers, key=repr)), 2)
        ops[i] = ops[i]._replace(op=ops[i].op._replace(sites=tuple(sites)))
    elif kind == "delete" and ops:
        del ops[i]
    elif kind == "rename" and ops:
        old, new = ops[i].qubit, rng.choice(cells)
        ops = [s._replace(qubit=new) if s.qubit == old else s for s in ops]
    elif kind == "home" and homes:
        del homes[rng.randrange(len(homes))]
    elif ops:
        ops[i] = ops[i]._replace(start_tick=max(0, ops[i].start_tick + rng.randint(-3, 3)))
    return replace(schedule, ops=tuple(ops), initial_positions=tuple(homes))


@settings(max_examples=300, deadline=None)
@given(rng_seed=st.integers(0, 2**32), rows=st.integers(1, 8), cols=st.integers(2, 9),
       loop=st.booleans(), n_dead=st.integers(0, 2), n_barriers=st.integers(0, 2),
       n_ops=st.integers(1, 40), n_ac=st.integers(4, 8), coexist=st.booleans(),
       n_tampers=st.integers(0, 3))
def test_validator_matches_sitecoord_oracle(rng_seed, rows, cols, loop, n_dead, n_barriers,
                                            n_ops, n_ac, coexist, n_tampers):
    """The id replay reports the violations the SiteCoord replay reports,
    word for word and in the same order, on compiled schedules and on
    tampered ones."""
    rng = random.Random(rng_seed)
    case = _compiled_case(rng, rows, cols, loop, n_dead, n_barriers, n_ops, n_ac, coexist)
    if case is None:
        return
    layout, defects, mux, _, schedule = case
    for _ in range(n_tampers):
        schedule = _tamper(rng, schedule, layout, defects)
    violations = validate_schedule(schedule, layout, defects, mux)
    event("violations" if violations else "clean")
    assert violations == oracle_validate(schedule, layout, defects, mux)


def test_validator_matches_oracle_on_a_large_tampered_schedule():
    """A compiled 16x16 schedule with several corruptions validates to
    exactly the oracle's list. Three idle qubits are then parked on one
    site, so that their holds tie on both ticks and the order of the qubits
    in each occupancy message rests on cell order alone."""
    rng = random.Random(1618)
    layout, defects, mux, _, schedule = _compiled_case(rng, 16, 16, True, 2, 2, 120, 5, False)
    for _ in range(8):
        schedule = _tamper(rng, schedule, layout, defects)
    violations = validate_schedule(schedule, layout, defects, mux)
    assert {v.kind for v in violations} >= {"occupancy", "order"}
    assert violations == oracle_validate(schedule, layout, defects, mux)

    homes = dict(schedule.initial_positions)
    busy = {s.qubit for s in schedule.ops}
    idle = sorted((cell for cell in homes if cell not in busy), key=lambda c: (-c[1], c[0]))
    for cell in idle[1:3]:
        homes[cell] = homes[idle[0]]
    schedule = replace(schedule, initial_positions=tuple(homes.items()))
    violations = validate_schedule(schedule, layout, defects, mux)
    site = homes[idle[0]]
    first, second, third = sorted(idle[:3])
    tied = [v.message for v in violations
            if v.kind == "occupancy" and f"hold {site} " in v.message]
    assert tied == [f"qubits {a} and {b} both hold {site} around tick 0"
                    for a, b in ((first, second), (first, third), (second, third))]
    assert violations == oracle_validate(schedule, layout, defects, mux)


# ----------------------------------------------------------------------
# Validator unit cases (hand-built schedules)

def _idle_schedule(positions, ops, makespan):
    return Schedule(ops=tuple(ops), makespan=makespan,
                    initial_positions=tuple(sorted(positions.items())))


def test_validator_flags_double_occupancy(lay88):
    target = SiteCoord(Row.MIDDLE, 5)
    a, b = (0, 0), (0, 1)
    pos = {a: SiteCoord(Row.MIDDLE, 4), b: SiteCoord(Row.MIDDLE, 6)}
    ops = [
        ScheduledOp(a, MicroOp(MicroOpKind.HORIZONTAL_STEP, (pos[a], target)), 3),
        ScheduledOp(b, MicroOp(MicroOpKind.HORIZONTAL_STEP, (pos[b], target)), 3),
    ]
    violations = validate_schedule(_idle_schedule(pos, ops, 5), lay88)
    assert {v.kind for v in violations} == {"occupancy"}
    assert any(v.tick == 3 for v in violations)


def test_validator_flags_swap_through(lay88):
    sa, sb = SiteCoord(Row.MIDDLE, 4), SiteCoord(Row.MIDDLE, 5)
    a, b = (0, 0), (0, 1)
    pos = {a: sa, b: sb}
    ops = [
        ScheduledOp(a, MicroOp(MicroOpKind.HORIZONTAL_STEP, (sa, sb)), 0),
        ScheduledOp(b, MicroOp(MicroOpKind.HORIZONTAL_STEP, (sb, sa)), 0),
    ]
    violations = validate_schedule(_idle_schedule(pos, ops, 1), lay88)
    assert "swap" in {v.kind for v in violations}


def test_validator_flags_mux_overflow(lay88):
    mover, idler = (0, 0), (4, 4)
    start = lay88.grid_to_site(mover)
    mid = SiteCoord(Row.MIDDLE, start.axis)
    pos = {mover: start, idler: lay88.grid_to_site(idler)}
    ops = [
        ScheduledOp(mover, MicroOp(MicroOpKind.VERTICAL_TRANSFER, (start, mid)), 0),
        ScheduledOp(idler, MicroOp(
            MicroOpKind.SINGLE_QUBIT_PULSE, (pos[idler],), 1, freq_class="magnet"), 0),
    ]
    violations = validate_schedule(_idle_schedule(pos, ops, 1), lay88,
                                   mux=MuxConfig(n_ac_inputs=4))
    mux_violations = [v for v in violations if v.kind == "mux"]
    assert len(mux_violations) == 1
    assert "5 distinct" in mux_violations[0].message


def test_validator_flags_dead_site_visit(lay88):
    cell = (0, 0)
    start = lay88.grid_to_site(cell)
    mid = SiteCoord(Row.MIDDLE, start.axis)
    defects = DefectMap.of(sites=[mid])
    ops = [ScheduledOp(cell, MicroOp(MicroOpKind.VERTICAL_TRANSFER, (start, mid)), 0)]
    violations = validate_schedule(_idle_schedule({cell: start}, ops, 1), lay88, defects)
    assert "dead_site" in {v.kind for v in violations}


def test_validator_flags_chain_break(lay88):
    cell = (0, 0)
    start = lay88.grid_to_site(cell)
    elsewhere = SiteCoord(Row.MIDDLE, 7)
    ops = [ScheduledOp(cell, MicroOp(
        MicroOpKind.HORIZONTAL_STEP, (elsewhere, SiteCoord(Row.MIDDLE, 8))), 0)]
    violations = validate_schedule(_idle_schedule({cell: start}, ops, 1), lay88)
    assert "order" in {v.kind for v in violations}


def test_validator_flags_readout_during_shuttling(lay88):
    mover, reader = (0, 0), (4, 4)
    start = lay88.grid_to_site(mover)
    mid = SiteCoord(Row.MIDDLE, start.axis)
    pos = {mover: start, reader: lay88.grid_to_site(reader)}
    ops = [
        ScheduledOp(mover, MicroOp(MicroOpKind.VERTICAL_TRANSFER, (start, mid)), 0),
        ScheduledOp(reader, MicroOp(MicroOpKind.READOUT, (pos[reader],), 1), 0),
    ]
    schedule = _idle_schedule(pos, ops, 1)
    apart = validate_schedule(schedule, lay88, mux=MuxConfig(readout_coexists_with_shuttle=False))
    assert apart == [sch.Violation("mux", 0, "readout pulse shares a tick with shuttling")]
    assert validate_schedule(schedule, lay88, mux=MuxConfig()) == []


def test_understated_makespan_is_a_bounds_violation():
    """A 10-tick readout in a schedule of makespan 5 used to validate clean,
    after which waveform_usage and schedule_to_json raised IndexError."""
    layout = tl.map_to_trilinear(tl.GridSpec(2, 2))
    home = layout.grid_to_site((0, 0))
    readout = ScheduledOp((0, 0), MicroOp(MicroOpKind.READOUT, (home,), 10), 0)
    schedule = _idle_schedule({(0, 0): home}, [readout], 5)
    expected = [sch.Violation("bounds", 0, "readout of qubit (0, 0) ends at tick 10, "
                                           "past the makespan 5")]
    assert validate_schedule(schedule, layout) == expected
    assert oracle_validate(schedule, layout) == expected
    for write in (waveform_usage, lambda s, lay: sch.schedule_to_json(s, lay, 0)):
        with pytest.raises(tl.CircuitError, match=r"^readout of qubit \(0, 0\) runs from "
                                                  r"tick 0 to 10, outside the makespan 5$"):
            write(schedule, layout)
    early = replace(schedule, ops=(readout._replace(start_tick=-1),), makespan=10)
    with pytest.raises(tl.CircuitError, match="from tick -1 to 9, outside the makespan 10"):
        waveform_usage(early, layout)


def test_op_before_tick_0_is_a_bounds_violation():
    """A lone readout at tick -3 used to be reported as an `order` violation,
    "op at tick -3 overlaps the previous op", though the qubit had no
    previous op."""
    layout = tl.map_to_trilinear(tl.GridSpec(2, 2))
    home = layout.grid_to_site((0, 0))
    readout = ScheduledOp((0, 0), MicroOp(MicroOpKind.READOUT, (home,), 10), -3)
    schedule = _idle_schedule({(0, 0): home}, [readout], 10)
    expected = [sch.Violation("bounds", -3, "readout of qubit (0, 0) starts at tick -3, "
                                            "before tick 0")]
    assert validate_schedule(schedule, layout) == expected
    assert oracle_validate(schedule, layout) == expected

    # An op that really overlaps an earlier one is still an `order` violation.
    second = readout._replace(start_tick=-1)
    schedule = _idle_schedule({(0, 0): home}, [readout, second], 10)
    expected = [
        sch.Violation("bounds", -3, "readout of qubit (0, 0) starts at tick -3, before tick 0"),
        sch.Violation("bounds", -1, "readout of qubit (0, 0) starts at tick -1, before tick 0"),
        sch.Violation("order", 0, "qubit (0, 0): op at tick -1 overlaps the previous op"),
    ]
    assert validate_schedule(schedule, layout) == expected
    assert oracle_validate(schedule, layout) == expected


def test_validator_flags_moves_and_gates_between_non_neighbours(lay44):
    """The mover jumps along the Middle row and gates from there; this
    schedule used to validate clean."""
    mover, partner = (0, 0), (0, 3)
    u0, m0, m7, u3 = (SiteCoord(Row.UPPER, 0), SiteCoord(Row.MIDDLE, 0),
                      SiteCoord(Row.MIDDLE, 7), SiteCoord(Row.UPPER, 3))
    ops = [
        ScheduledOp(mover, MicroOp(MicroOpKind.VERTICAL_TRANSFER, (u0, m0)), 0),
        ScheduledOp(mover, MicroOp(MicroOpKind.HORIZONTAL_STEP, (m0, m7)), 1),
        ScheduledOp(mover, MicroOp(MicroOpKind.TWO_QUBIT_GATE, (m7, u3), 2), 2,
                    partner=partner),
        ScheduledOp(mover, MicroOp(MicroOpKind.HORIZONTAL_STEP, (m7, m0)), 4),
        ScheduledOp(mover, MicroOp(MicroOpKind.HORIZONTAL_STEP, (m0, u0)), 5),
    ]
    schedule = _idle_schedule({mover: u0, partner: u3}, ops, 6)
    violations = validate_schedule(schedule, lay44)
    assert violations == [
        sch.Violation("adjacency", 1, "horizontal_step (M,0)-(M,7) joins sites that are "
                                      "not neighbours"),
        sch.Violation("adjacency", 2, "two_qubit_gate (M,7)-(U,3) joins sites that are "
                                      "not neighbours"),
        sch.Violation("adjacency", 4, "horizontal_step (M,7)-(M,0) joins sites that are "
                                      "not neighbours"),
        sch.Violation("adjacency", 5, "horizontal_step (M,0)-(U,0) leaves its row"),
    ]
    assert violations == oracle_validate(schedule, lay44)


def test_compiled_schedules_validate_clean_randomized(lay88_loop):
    rng = random.Random(2024)
    for _ in range(40):
        defects = _random_defects(rng, lay88_loop, max_dead=2)
        try:
            recon = tl.reconfigure_for_defects(lay88_loop, defects)
        except tl.Partitioned:
            continue
        circuit = _random_circuit(rng, lay88_loop, n_ops=10,
                                  avoid=recon.sacrificed_qubits)
        try:
            schedule = sch.compile(circuit, lay88_loop, defects=defects)
        except tl.Partitioned:
            continue
        assert validate_schedule(schedule, lay88_loop, defects) == []


# ----------------------------------------------------------------------
# Waveform accounting

def test_single_gate_uses_four_phases_while_shuttling(lay88):
    schedule = sch.compile(sch.Circuit((TwoQubit((0, 2), (1, 2)),)), lay88)
    usage = waveform_usage(schedule, lay88)
    assert len(usage[0]) == 4
    assert max(map(len, usage)) == 4


def test_in_phase_shuttles_share_exactly_four_classes(lay88):
    # Same-orientation vertical gates on disjoint segments.
    circuit = sch.Circuit((TwoQubit((0, 0), (1, 0)), TwoQubit((0, 7), (1, 7))))
    schedule = sch.compile(circuit, lay88)
    usage = waveform_usage(schedule, lay88)
    # Pick a tick where only horizontal legs run: tick 1.
    assert len(usage[1]) == 4


def test_one_phase_class_counts_once_across_qubits(lay88):
    """Three qubits stepping east at once drive the four east phases once."""
    sites = [SiteCoord(Row.MIDDLE, i) for i in range(0, 6, 2)]
    ops = tuple(ScheduledOp((0, i), move_op(s, s._replace(axis=s.axis + 1)), 0)
                for i, s in enumerate(sites))
    schedule = Schedule(ops=ops, makespan=1,
                        initial_positions=tuple(((0, i), s) for i, s in enumerate(sites)))
    usage = waveform_usage(schedule, lay88)
    assert usage == (frozenset(f"shuttle_phase_{k}@east" for k in range(1, 5)),)
    assert validate_schedule(schedule, lay88) == []


def test_shuttle_plus_gate_is_five_classes(lay88):
    # Legs of different lengths, so one gate fires while the other shuttles.
    circuit = sch.Circuit((TwoQubit((0, 0), (1, 0)), TwoQubit((2, 4), (2, 7))))
    schedule = sch.compile(circuit, lay88)
    usage = waveform_usage(schedule, lay88)
    assert 5 in map(len, usage)


def test_idle_tick_is_zero_classes(lay88):
    schedule = Schedule(ops=(), makespan=0, initial_positions=())
    assert max(map(len, waveform_usage(schedule, lay88)), default=0) == 0


def test_conservation_of_qubits(lay88):
    circuit = sch.Circuit((TwoQubit((0, 2), (1, 2)), Measure((0, 2))))
    schedule = sch.compile(circuit, lay88)
    # Replay: every qubit holds exactly one current site at every tick.
    positions = dict(schedule.initial_positions)
    count = len(positions)
    for sop in sorted(schedule.ops, key=lambda s: s.start_tick):
        if sop.op.is_move:
            positions[sop.qubit] = sop.op.dst
        assert len(positions) == count


@settings(max_examples=120, deadline=None)
@given(rng_seed=st.integers(0, 2**32), rows=st.integers(2, 6), cols=st.integers(2, 9),
       loop=st.booleans(), max_dead=st.integers(0, 3), n_ops=st.integers(1, 14),
       n_ac=st.integers(4, 8), coexist=st.booleans())
def test_ac_budget_holds_by_independent_signal_count(rng_seed, rows, cols, loop, max_dead,
                                                      n_ops, n_ac, coexist):
    rng = random.Random(rng_seed)
    layout = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop)
    defects = _random_defects(rng, layout, max_dead)
    try:
        sacrificed = tl.reconfigure_for_defects(layout, defects).sacrificed_qubits
    except TrilinearError:
        defects, sacrificed = DefectMap(), frozenset()
    if len(sacrificed) == rows * cols:
        return
    mux = MuxConfig(n_ac_inputs=n_ac, readout_coexists_with_shuttle=coexist)
    ops = _random_circuit(rng, layout, n_ops, sacrificed).ops
    try:
        schedule = sch.compile(sch.Circuit(ops), layout, defects, mux=mux)
    except TrilinearError:  # a pair the defects cut off: keep the 1q and meas ops
        ops = tuple(op for op in ops if not isinstance(op, TwoQubit))
        schedule = sch.compile(sch.Circuit(ops), layout, defects, mux=mux)
    names = tick_signal_names(schedule, layout)
    text, _ = sch.schedule_to_json(schedule, layout, 0)
    assert json.loads(text)["waveforms_per_tick"] == names
    for tick in names:
        assert len(tick) <= n_ac
        shuttling = any(n.startswith("shuttle_phase_") for n in tick)
        assert coexist or not ("readout_pulse" in tick and shuttling)
    assert validate_schedule(schedule, layout, defects, mux) == []


# ----------------------------------------------------------------------
# DC refresh arithmetic

def test_dc_refresh_examples():
    dc = dict(n_dc_inputs=1, dc_refresh_interval_s=1.0, dc_hold_time_s=3600.0)
    report = dc_refresh_plan(300, **dc)
    assert report.feasible and report.cycle_time_s == 300.0
    assert report.max_gates_per_input == 3600

    short = dict(n_dc_inputs=1, dc_refresh_interval_s=1.0, dc_hold_time_s=10.0)
    assert not dc_refresh_plan(100, **short).feasible


def test_dc_refresh_scales_with_inputs():
    dc = dict(n_dc_inputs=4, dc_refresh_interval_s=1.0, dc_hold_time_s=100.0)
    assert dc_refresh_plan(400, **dc).cycle_time_s == 100.0
    assert dc_refresh_plan(400, **dc).feasible


@pytest.mark.parametrize("kw, message", [
    ({"n_dc_inputs": 0}, "mux input counts must be positive"),
    ({"dc_refresh_interval_s": 0.0}, "dc_refresh_interval_s must be positive"),
    ({"dc_refresh_interval_s": -1.0}, "dc_refresh_interval_s must be positive"),
    ({"dc_hold_time_s": 1.0}, "dc_hold_time_s must exceed dc_refresh_interval_s"),
    ({"dc_refresh_interval_s": 2.0, "dc_hold_time_s": 0.5},
     "dc_hold_time_s must exceed dc_refresh_interval_s"),
])
def test_dc_refresh_plan_rejects_bad_parameters(kw, message):
    """The DC parameters are checked where they are read; MuxConfig no longer
    carries them."""
    with pytest.raises(tl.CircuitError) as info:
        dc_refresh_plan(300, **kw)
    assert str(info.value) == message


@pytest.mark.parametrize("kw", [{"dc_refresh_interval_s": float("nan")},
                                {"dc_hold_time_s": float("inf")}])
def test_dc_refresh_plan_rejects_non_finite_times(kw):
    """Both raised a bare ValueError from math.ceil or int()."""
    with pytest.raises(tl.CircuitError, match="must be finite"):
        dc_refresh_plan(10, **kw)


@pytest.mark.parametrize("name, value", [("n_gates", float("nan")), ("n_gates", float("inf")),
                                         ("n_gates", 2.5), ("n_dc_inputs", 1.5),
                                         ("n_dc_inputs", float("inf")), ("n_dc_inputs", True)])
def test_dc_refresh_plan_rejects_counts_that_are_not_integers(name, value):
    """NaN raised a bare ValueError and inf an OverflowError from
    math.ceil; 2.5 gates and 1.5 inputs were accepted."""
    with pytest.raises(tl.CircuitError) as info:
        dc_refresh_plan(**{"n_gates": 10, name: value})
    assert str(info.value) == f"{name}: expected an integer >= 1, got {value!r}"


_SWAP_SITES = (SiteCoord(Row.MIDDLE, 4), SiteCoord(Row.MIDDLE, 5), SiteCoord(Row.UPPER, 4))
_LAY88 = tl.map_to_trilinear(tl.GridSpec(8, 8))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SWAP_SITES), st.sampled_from(_SWAP_SITES),
                          st.integers(0, 8), st.integers(0, 3), st.integers(0, 3),
                          st.booleans()), max_size=24))
def test_swap_throughs_match_pairwise_oracle(moves):
    """The validator's start-ordered scan finds the pairs the all-pairs
    check finds. Starts in 0-8 and durations 0-3 make touching boundaries
    (one move starting as another ends), equal starts and empty spans
    common; a site repeated as src and dst gives degenerate moves too."""
    sops = []
    for src, dst, start, duration, qubit, pulse in moves:
        kind = MicroOpKind.SINGLE_QUBIT_PULSE if pulse else MicroOpKind.HORIZONTAL_STEP
        sites = (src,) if pulse else (src, dst)
        sops.append(ScheduledOp((0, qubit), MicroOp(kind, sites, duration), start))
    violations = validate_schedule(Schedule(ops=tuple(sops)), _LAY88)
    expected = sorted(swap_throughs(sops), key=lambda v: (v.tick, v.kind, v.message))
    assert [v for v in violations if v.kind == "swap"] == expected


# ----------------------------------------------------------------------
# Random circuit helpers

def _random_defects(rng, layout, max_dead):
    sites = sorted(layout.sites(), key=tl.topology.site_key)
    return DefectMap.of(sites=rng.sample(sites, k=rng.randint(0, max_dead)))


def _random_circuit(rng, layout, n_ops, avoid=frozenset()):
    rows, cols = layout.grid.rows, layout.grid.cols
    cells = [c for c in layout.grid.cells() if c not in avoid]
    ops = []
    for _ in range(rng.randint(1, n_ops)):
        kind = rng.choice(("1q", "2q", "meas"))
        if kind == "1q":
            ops.append(OneQubit(rng.choice(cells), "x"))
        elif kind == "meas":
            ops.append(Measure(rng.choice(cells)))
        else:
            for _ in range(50):
                a = rng.choice(cells)
                same_row = [c for c in cells if c != a and c[0] == a[0]]
                next_row = [c for c in cells if abs(c[0] - a[0]) == 1]
                pool = same_row + next_row
                if pool:
                    ops.append(TwoQubit(a, rng.choice(pool)))
                    break
    return sch.Circuit(tuple(ops))


# ----------------------------------------------------------------------
# The op representation

def test_op_reprs_are_the_dataclass_reprs_and_fields_are_read_only():
    """Named tuples print what the frozen dataclasses printed."""
    m3, m4 = SiteCoord(Row.MIDDLE, 3), SiteCoord(Row.MIDDLE, 4)
    step = MicroOp(MicroOpKind.HORIZONTAL_STEP, (m3, m4))
    pulse = MicroOp(MicroOpKind.SINGLE_QUBIT_PULSE, (SiteCoord(Row.UPPER, 2, 1),), 4,
                    "magnet", {"theta": [0.5]})
    step_text = ("MicroOp(kind=<MicroOpKind.HORIZONTAL_STEP: 'horizontal_step'>, "
                 "sites=((M,3), (M,4)), duration_ticks=1, freq_class=None, param=None)")
    assert repr(step) == step_text
    assert repr(pulse) == (
        "MicroOp(kind=<MicroOpKind.SINGLE_QUBIT_PULSE: 'single_qubit_pulse'>, "
        "sites=((U,2,1),), duration_ticks=4, freq_class='magnet', param={'theta': [0.5]})")
    assert repr(ScheduledOp((0, 1), step, 7)) == (
        f"ScheduledOp(qubit=(0, 1), op={step_text}, start_tick=7, partner=None)")
    assert repr(ScheduledOp((0, 1), step, 7, (1, 1))) == (
        f"ScheduledOp(qubit=(0, 1), op={step_text}, start_tick=7, partner=(1, 1))")
    for obj, field in ((step, "kind"), (pulse, "param"), (ScheduledOp((0, 1), step, 7),
                                                          "start_tick")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def test_moves_are_shared_per_layout_and_durations():
    """A move is one object per layout, directed edge and equal Durations; a
    400-op schedule on a 32x32 layout holds one object per distinct move.
    Sharing changes no equality, derived copy or JSON round trip."""
    lay = tl.map_to_trilinear(tl.GridSpec(32, 32))
    home, entry = SiteCoord(Row.UPPER, 3), SiteCoord(Row.MIDDLE, 3)
    slow = Durations(vertical_transfer=2)
    op = _moves(lay, slow)[home, entry]
    assert _moves(lay, Durations(vertical_transfer=2))[home, entry] is op
    assert move_op(home, entry, slow) == op == MicroOp(MicroOpKind.VERTICAL_TRANSFER,
                                                       (home, entry), 2)
    assert move_op(home, entry, slow) is not op
    assert _moves(lay, Durations())[home, entry] == op._replace(duration_ticks=1)
    assert _moves(lay, slow)[entry, home].sites == (entry, home)
    assert op._replace(duration_ticks=5) is not op and op.duration_ticks == 2
    assert MicroOp.from_obj(op.to_obj()) == op

    rng = random.Random(23)
    ops = []
    for i in range(400):
        a = (rng.randrange(32), rng.randrange(32))
        b = (a[0] + 1 if a[0] < 31 else a[0] - 1, rng.randrange(32))
        ops.append(TwoQubit(a, b) if i % 2 else OneQubit(a, "x") if i % 4 else Measure(a))
    moves = [s.op for s in sch.compile(sch.Circuit(tuple(ops)), lay).ops if s.op.is_move]
    assert len(moves) > 1000
    assert len({id(op) for op in moves}) == len(set(moves))
    assert all(_moves(lay, Durations())[op.sites] is op for op in moves)


_FINITE_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(rng_seed=st.integers(0, 2**32), rows=st.integers(1, 6), cols=st.integers(2, 7),
       loop=st.booleans(), n_dead=st.integers(0, 2), n_barriers=st.integers(0, 2),
       n_ops=st.integers(1, 30), params=st.lists(_FINITE_JSON, min_size=1, max_size=6))
def test_ops_read_back_equal_from_objects_and_schedule_json(rng_seed, rows, cols, loop, n_dead,
                                                            n_barriers, n_ops, params):
    """Every op reads back equal from its `to_obj`, and the schedule read
    back from `schedule_to_json` holds the compiled ops."""
    case = _compiled_case(random.Random(rng_seed), rows, cols, loop, n_dead, n_barriers,
                          n_ops, 8, True)
    if case is None:
        return
    layout, schedule = case[0], case[-1]
    # Params of every finite JSON type, lists and dicts too, cycled over the pulses.
    ops = list(schedule.ops)
    pulses = [i for i, s in enumerate(ops) if s.op.kind is MicroOpKind.SINGLE_QUBIT_PULSE]
    for k, i in enumerate(pulses):
        ops[i] = ops[i]._replace(op=ops[i].op._replace(param=params[k % len(params)]))
    schedule = replace(schedule, ops=tuple(ops))
    for sop in schedule.ops:
        assert MicroOp.from_obj(sop.op.to_obj()) == sop.op
    doc = json.loads(sch.schedule_to_json(schedule, layout, 0)[0])
    read = [ScheduledOp(tuple(entry["qubit"]), MicroOp.from_obj(entry), tick["tick"],
                        tuple(entry["partner"]) if "partner" in entry else None)
            for tick in doc["ticks"] for entry in tick["ops"]]
    assert read == list(schedule.ops)


def test_schedule_read_back_from_its_json_equals_it_and_writes_the_same_text(lay44,
                                                                             lay88_loop):
    """A schedule read back from its JSON through the public readers, as the
    benchmark's checks read it, equals the compiled one and writes the same
    text. When each op stored its own signals, the JSON did not carry them,
    and the 4x4 read-back wrote max_waveform_classes 0 where compile wrote 5."""
    cases = ((lay44, (TwoQubit((0, 2), (1, 2)), OneQubit((0, 0))), 5),
             (lay88_loop, (TwoQubit((0, 0), (0, 7)), Measure((2, 3)), TwoQubit((3, 1), (4, 1)),
                           OneQubit((0, 7), {"theta": 0.5}), TwoQubit((5, 6), (5, 1))), 8))
    for layout, ops, classes in cases:
        schedule = compile_ok(sch.Circuit(ops), layout)
        text, summary = sch.schedule_to_json(schedule, layout, 3)
        doc = json.loads(text)
        read = Schedule(
            ops=tuple(ScheduledOp(tuple(entry["qubit"]), MicroOp.from_obj(entry), tick["tick"],
                                  tuple(entry["partner"]) if "partner" in entry else None)
                      for tick in doc["ticks"] for entry in tick["ops"]),
            makespan=doc["makespan"],
            initial_positions=tuple((tuple(p["cell"]), site_from_obj(p["site"]))
                                    for p in doc["initial_positions"]))
        assert read.ops == schedule.ops
        assert read == schedule
        assert sch.schedule_to_json(read, layout, 3) == (text, summary)
        assert summary["max_waveform_classes"] == classes
        assert classes == max(map(len, tick_signal_names(schedule, layout)))


# ----------------------------------------------------------------------
# Schedule JSON writer against the json.dumps oracle

_SPECIAL_PARAMS = (1e-07, 1e+16, -0.0, float("nan"), float("inf"), 2**70, "x90",
                   'say "hi" \\ there', "two\nlines\ttab", "\u03c9/2 \U0001f600", "\x00\x1f\x7f")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(_SPECIAL_PARAMS),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(rng_seed=st.integers(0, 2**32), rows=st.integers(2, 5), cols=st.integers(2, 7),
       loop=st.booleans(), max_dead=st.integers(0, 3), n_ops=st.integers(0, 12),
       params=st.lists(_JSON, min_size=1, max_size=6),
       seed=st.integers(-2**70, 2**70) | st.sampled_from((0, 2**63)))
@example(rng_seed=0, rows=2, cols=2, loop=False, max_dead=0, n_ops=0, params=[None], seed=0)
def test_schedule_json_matches_json_dumps_oracle(rng_seed, rows, cols, loop, max_dead, n_ops,
                                                 params, seed):
    rng = random.Random(rng_seed)
    layout = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop)
    defects = _random_defects(rng, layout, max_dead)
    try:
        sacrificed = tl.reconfigure_for_defects(layout, defects).sacrificed_qubits
    except TrilinearError:
        defects, sacrificed = DefectMap(), frozenset()
    live = [c for c in layout.grid.cells() if c not in sacrificed]
    ops = list(_random_circuit(rng, layout, n_ops, sacrificed).ops) if n_ops and live else []
    # Non-string params of every JSON type, cycled over the 1q ops.
    ones = [i for i, op in enumerate(ops) if isinstance(op, OneQubit)]
    for k, i in enumerate(ones):
        ops[i] = OneQubit(ops[i].cell, params[k % len(params)])
    try:
        schedule = sch.compile(sch.Circuit(tuple(ops)), layout, defects)
    except TrilinearError:  # a pair the defects cut off: keep the 1q and meas ops
        ops = [op for op in ops if not isinstance(op, TwoQubit)]
        schedule = sch.compile(sch.Circuit(tuple(ops)), layout, defects)
    doc = schedule_document(schedule, layout)
    # The second write reads every text from the layout's memo.
    for _ in range(2):
        text, summary = sch.schedule_to_json(schedule, layout, seed)
        assert text == json.dumps(doc | {"seed": seed}, sort_keys=True, indent=2) + "\n"
        assert summary == doc["summary"]
    if not ops:
        assert '"ticks": []' in text and '"waveforms_per_tick": []' in text


def test_schedule_json_writes_sub_rows_escapes_and_long_ints():
    """Writer branches the oracle test cannot reach, as compile rejects
    m_rows > 1: sub-row sites in ops and initial positions, a freq class
    that needs escaping, and cells of 20-digit ints or of other JSON values."""
    big = 10**19 + 7
    up1, up2 = SiteCoord(Row.UPPER, 3, 1), SiteCoord(Row.UPPER, 3, 2)
    mid, low = SiteCoord(Row.MIDDLE, 3), SiteCoord(Row.LOWER, 2**66, 1)
    schedule = Schedule(ops=(
        ScheduledOp((big, 2), MicroOp(MicroOpKind.VERTICAL_TRANSFER, (up1, up2)), 0),
        ScheduledOp((big, 2), MicroOp(MicroOpKind.SINGLE_QUBIT_PULSE, (up2,), 4, 'b"\u00e9',
                                      [1.5, None]), 1),
        ScheduledOp((-big, 0), MicroOp(MicroOpKind.TWO_QUBIT_GATE, (mid, low), 2), 1,
                    partner=(big, -2**70)),
        ScheduledOp((True, 2.5), MicroOp(MicroOpKind.READOUT, (low,), 10), 0),
    ), makespan=10, initial_positions=(((big, 2), up1), ((-big, 0), mid), ((big, -2**70), low)))
    layout = tl.map_to_trilinear(tl.GridSpec(2, 12), m_rows=3)
    seed = 2**64
    text, summary = sch.schedule_to_json(schedule, layout, seed)
    doc = schedule_document(schedule, layout)
    assert text == json.dumps(doc | {"seed": seed}, sort_keys=True, indent=2) + "\n"
    assert summary == doc["summary"]
    assert [p["site"] for p in doc["initial_positions"]] == [["U", 3, 1], ["M", 3],
                                                             ["L", 2**66, 1]]


def test_schedule_json_writes_equal_values_of_other_types_as_themselves():
    """Equal values of other types print differently: json.dumps writes the
    qubit (True, 0) as [true, 0], not [1, 0]. The writer keeps its texts by
    value with the layout, so such a value must print as itself both in a
    call that also writes (1, 0) and in a later call on the same layout
    object; so must a partner, a site, a duration and a freq class."""
    layout = tl.map_to_trilinear(tl.GridSpec(2, 4))

    def schedule(*cells):
        ops = []
        for t, (r, c) in enumerate(cells):
            site = SiteCoord(Row.UPPER, 2 * c, r)
            ops += [ScheduledOp((r, c), MicroOp(MicroOpKind.SINGLE_QUBIT_PULSE, (site,), 1, r,
                                                "x90"), 3 * t),
                    ScheduledOp((r, c), MicroOp(MicroOpKind.READOUT, (site,), r), 3 * t + 1),
                    ScheduledOp((r, c), MicroOp(MicroOpKind.TWO_QUBIT_GATE,
                                                (site, SiteCoord(Row.LOWER, c)), 1),
                                3 * t + 2, partner=(r, c))]
        return Schedule(ops=tuple(ops), makespan=3 * len(cells), initial_positions=tuple(
            ((r, c), SiteCoord(Row.UPPER, 2 * c, r)) for r, c in cells))

    for case in (schedule((1, 0), (True, 0)), schedule((1, 0)), schedule((True, 0)),
                 schedule((1, 1.0)), schedule((1, 1))):
        text, summary = sch.schedule_to_json(case, layout, 0)
        doc = schedule_document(case, layout)
        assert text == json.dumps(doc | {"seed": 0}, sort_keys=True, indent=2) + "\n"
        assert summary == doc["summary"]


def test_schedule_json_writes_tick_makespan_and_seed_of_other_types_as_json():
    """A start tick, makespan or seed of True used to be written as `True`
    through str(), which is not JSON; json.dumps writes `true`."""
    layout = tl.map_to_trilinear(tl.GridSpec(2, 4))
    site = SiteCoord(Row.UPPER, 0)
    readout = MicroOp(MicroOpKind.READOUT, (site,), 1)
    for start, makespan, seed in ((True, 2, 0), (0, True, 0), (0, 1, True)):
        case = Schedule(ops=(ScheduledOp((0, 0), readout, start),), makespan=makespan,
                        initial_positions=(((0, 0), site),))
        text, _ = sch.schedule_to_json(case, layout, seed)
        doc = schedule_document(case, layout)
        assert text == json.dumps(doc | {"seed": seed}, sort_keys=True, indent=2) + "\n"
        json.loads(text)


@pytest.mark.parametrize("count", [float("nan"), float("inf"), 2.5, True, "8"])
def test_mux_budget_that_is_not_an_integer_is_rejected(count):
    """NaN used to switch the budget off, as no count of signals is greater
    than NaN: 8 vertical gates on the 8x8 line, a 1q op and a readout
    compiled in 23 ticks (24 at 5 inputs), and the validator passed that
    schedule, which breaks a budget of 5 at five ticks. 2.5 and True were
    accepted too."""
    with pytest.raises(tl.CircuitError) as info:
        MuxConfig(n_ac_inputs=count)
    assert str(info.value) == f"n_ac_inputs: expected an integer >= 1, got {count!r}"


@pytest.mark.parametrize("count", [0, -1])
def test_mux_budget_below_one_is_rejected(count):
    with pytest.raises(tl.CircuitError, match="^mux input counts must be positive$"):
        MuxConfig(n_ac_inputs=count)
