"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import networkx as nx

import trilinear as tl
from trilinear import metrics as met
from trilinear import protocol as proto
from trilinear import scheduler as sch
from trilinear.topology import DefectMap, Row, SiteCoord, site_key

from _oracles import as_node, site_graph


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_mapping_bijection_and_shift():
    """Grids 2x2..12x12: verified bijection, vertical distances, < 1 s."""
    t0 = time.monotonic()
    ok = True
    for size in range(2, 13):
        lay = tl.map_to_trilinear(tl.GridSpec(size, size))
        seen = {}
        for cell in lay.grid.cells():
            site = lay.grid_to_site(cell)
            ok &= site not in seen and lay.site_to_grid(site) == cell
            seen[site] = cell
        for r in range(size - 1):
            for c in range(size):
                d = abs(lay.grid_to_site((r, c)).axis - lay.grid_to_site((r + 1, c)).axis)
                want = size // 2 if r % 2 == 0 else (size + 1) // 2
                ok &= d == want
                if size % 2 == 0:
                    ok &= d == size // 2
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report(1, ok, f"grids 2x2..12x12 bijective with half-block shift ({elapsed:.2f}s)")


def test_criterion_2_vertical_gate_step_law():
    """Every nearest-neighbor vertical gate costs exactly C horizontal steps."""
    t0 = time.monotonic()
    ok = True
    checked = 0
    for rows, cols in ((4, 4), (6, 6), (8, 8), (16, 16)):
        lay = tl.map_to_trilinear(tl.GridSpec(rows, cols))
        for r in range(rows - 1):
            for c in range(cols):
                plan = tl.vertical_gate_plan(lay, (r, c), (r + 1, c))
                ok &= plan.horizontal_steps == cols
                checked += 1
    elapsed = time.monotonic() - t0
    _report(2, ok, f"{checked} vertical gates, all exactly C steps "
                   f"for C in 4,6,8,16 ({elapsed:.2f}s)")


def test_criterion_3_scaling_curve():
    """Sweep lengths 0.5/5/50 um, slopes 0.5 and 0.25, length bands."""
    t0 = time.monotonic()
    points = {n: met.shuttle_scaling(n) for n in (100, 10_000, 1_000_000)}
    ok = (points[100].length_one_way_um == 0.5
          and points[10_000].length_one_way_um == 5.0
          and points[1_000_000].length_one_way_um == 50.0)

    tri_ns = [4 ** k for k in range(5, 16)]          # 1e3 .. 1e9
    tri_lengths = [met.shuttle_scaling(n).length_one_way_um for n in tri_ns]
    tri_slope = met.log_log_slope(tri_ns, tri_lengths)
    semi_ns = [2 ** (4 * k) for k in range(3, 8)]
    semi_lengths = [met.shuttle_scaling(n, met.Variant.SEMI_2D).length_one_way_um
                    for n in semi_ns]
    semi_slope = met.log_log_slope(semi_ns, semi_lengths)
    ok &= abs(tri_slope - 0.5) <= 0.01
    ok &= abs(semi_slope - 0.25) <= 0.01

    ok &= 10.0 <= points[1_000_000].length_one_way_um < 100.0   # tens of microns
    few_thousand = met.shuttle_scaling(4096).length_one_way_um
    ok &= 1.0 <= few_thousand < 10.0                            # few-micron range
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report(3, ok, f"0.5/5/50 um exact; slopes {tri_slope:.3f}/{semi_slope:.3f}; "
                   f"1e6 -> 50 um, 4096 -> {few_thousand} um ({elapsed:.2f}s)")


def test_criterion_4_long_range_overhead_bounds():
    """8x8: same-row pairs <= 16 steps, neighboring-row pairs <= 24 steps."""
    t0 = time.monotonic()
    lay = tl.map_to_trilinear(tl.GridSpec(8, 8))
    ok = True
    same_row = neighbor = 0
    worst_same = worst_nb = 0
    for r in range(8):
        for c1 in range(8):
            for c2 in range(c1 + 1, 8):
                steps = tl.long_range_plan(lay, (r, c1), (r, c2)).horizontal_steps
                ok &= steps <= 16
                worst_same = max(worst_same, steps)
                same_row += 1
    for r in range(7):
        for c1 in range(8):
            for c2 in range(8):
                steps = tl.long_range_plan(lay, (r, c1), (r + 1, c2)).horizontal_steps
                ok &= steps <= 24
                worst_nb = max(worst_nb, steps)
                neighbor += 1
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(4, ok, f"{same_row} same-row pairs <= 16 (worst {worst_same}), "
                   f"{neighbor} neighboring-row pairs <= 24 (worst {worst_nb}) "
                   f"({elapsed:.2f}s)")


def _survivor_sites(lay, recon):
    return [lay.grid_to_site(c) for c in lay.grid.cells()
            if c not in recon.sacrificed_qubits]


def _all_reachable_oracle(lay, defects, sites) -> bool:
    g = site_graph(lay.grid.rows, lay.grid.cols, lay.loop, lay.m_rows,
                   dead_sites=[as_node(s) for s in defects.dead_sites])
    component = nx.node_connected_component(g, as_node(sites[0]))
    return all(as_node(s) in component for s in sites)


def test_criterion_5_defect_tolerance():
    """Single middle defects recoverable at <= 2 qubits; cuts partition
    flat arrays but not loops. Oracle: independent BFS graph."""
    t0 = time.monotonic()
    ok = True
    for loop in (True, False):
        lay = tl.map_to_trilinear(tl.GridSpec(8, 8), loop=loop)
        for axis in range(lay.length):
            defects = DefectMap.of(sites=[SiteCoord(Row.MIDDLE, axis)])
            recon = tl.reconfigure_for_defects(lay, defects)
            ok &= len(recon.sacrificed_qubits) <= 2
            ok &= _all_reachable_oracle(lay, defects, _survivor_sites(lay, recon))

    cut = [SiteCoord(Row.UPPER, 10), SiteCoord(Row.MIDDLE, 10), SiteCoord(Row.LOWER, 10)]
    flat = tl.map_to_trilinear(tl.GridSpec(8, 8))
    try:
        tl.reconfigure_for_defects(flat, DefectMap.of(sites=cut))
        ok = False
    except tl.Partitioned:
        pass
    loop_lay = tl.map_to_trilinear(tl.GridSpec(8, 8), loop=True)
    loop_defects = DefectMap.of(sites=cut)
    recon = tl.reconfigure_for_defects(loop_lay, loop_defects)
    ok &= _all_reachable_oracle(loop_lay, loop_defects,
                                _survivor_sites(loop_lay, recon))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(5, ok, f"single middle defects cost <= 2 qubits on both 8x8 "
                   f"variants; full cut partitions flat, loop survives "
                   f"({elapsed:.2f}s)")


def _random_circuit(rng, cells, n_ops):
    ops = []
    for _ in range(rng.randint(1, n_ops)):
        kind = rng.choice(("1q", "2q", "2q", "meas"))
        if kind == "1q":
            ops.append(sch.OneQubit(rng.choice(cells), "x"))
        elif kind == "meas":
            ops.append(sch.Measure(rng.choice(cells)))
        else:
            a = rng.choice(cells)
            pool = [c for c in cells if c != a and abs(c[0] - a[0]) <= 1]
            if pool:
                ops.append(sch.TwoQubit(a, rng.choice(pool)))
    return sch.Circuit(tuple(ops))


def test_criterion_6_scheduler_soundness():
    """1000 random circuits on the 3x32 loop lattice with <= 2 defects all
    validate clean; disjoint gate pairs cost one gate's makespan."""
    t0 = time.monotonic()
    lay = tl.map_to_trilinear(tl.GridSpec(8, 8), loop=True)
    all_sites = sorted(lay.sites(), key=site_key)
    rng = random.Random(20240801)
    accepted = 0
    redraws = 0
    ok = True
    while accepted < 1000:
        defects = DefectMap.of(sites=rng.sample(all_sites, k=rng.randint(0, 2)))
        try:
            recon = tl.reconfigure_for_defects(lay, defects)
            cells = [c for c in lay.grid.cells()
                     if c not in recon.sacrificed_qubits
                     and not defects.is_dead(lay.grid_to_site(c))]
            circuit = _random_circuit(rng, cells, n_ops=20)
            schedule = sch.compile(circuit, lay, defects)
        except tl.Partitioned:
            # Draw violated compile's routability precondition; redraw.
            redraws += 1
            assert redraws < 2000, "defect/circuit sampling rejects too much"
            continue
        violations = sch.validate_schedule(schedule, lay, defects)
        if violations:
            ok = False
            print(f"[acceptance] criterion 6 violation sample: {violations[:3]}")
            break
        accepted += 1

    single = sch.compile(sch.Circuit((sch.TwoQubit((0, 0), (1, 0)),)), lay)
    pair = sch.compile(sch.Circuit((
        sch.TwoQubit((0, 0), (1, 0)), sch.TwoQubit((4, 0), (5, 0)))), lay)
    ok &= pair.makespan == single.makespan

    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    _report(6, ok, f"{accepted} random circuits clean ({redraws} precondition "
                   f"redraws); disjoint pair makespan {pair.makespan} == "
                   f"single {single.makespan} ({elapsed:.2f}s)")


def test_criterion_6_soundness_across_layouts():
    """Random layouts (loop or not, odd or even C, m_rows 1-3) with <= 2
    dead sites and 4-8 AC inputs: every single-row circuit that compiles
    validates clean, and every stacked layout is rejected up front."""
    t0 = time.monotonic()
    rng = random.Random(20261018)
    counts = {"clean": 0, "partitioned": 0, "no_live_cell": 0, "stacked": 0}
    ok = True
    for _ in range(1500):
        cols = rng.randint(2, 9)
        lay = tl.map_to_trilinear(tl.GridSpec(rng.randint(1, 8), cols),
                                  loop=rng.random() < 0.5,
                                  m_rows=rng.choice((1, 1, 1, 2, 3)) if cols >= 3 else 1)
        all_sites = sorted(lay.sites(), key=site_key)
        defects = DefectMap.of(sites=rng.sample(all_sites, k=rng.randint(0, 2)))
        mux = sch.MuxConfig(n_ac_inputs=rng.randint(4, 8))
        if lay.m_rows > 1:
            calls = (
                lambda: sch.compile(sch.Circuit((sch.OneQubit((0, 0), "x"),)), lay, defects, mux),
                lambda: tl.vertical_gate_plan(lay, (0, 0), (0, 1), defects),
                lambda: tl.long_range_plan(lay, (0, 0), (0, cols - 1), defects),
            )
            for call in calls:
                try:
                    call()
                    ok = False
                except tl.CircuitError as exc:
                    ok &= str(exc) == (f"m_rows={lay.m_rows}: gates on stacked layouts are "
                                       "not modelled; route and schedule need m_rows=1")
            counts["stacked"] += 1
            continue
        try:
            recon = tl.reconfigure_for_defects(lay, defects)
            cells = [c for c in lay.grid.cells()
                     if c not in recon.sacrificed_qubits
                     and not defects.is_dead(lay.grid_to_site(c))]
            if not cells:
                counts["no_live_cell"] += 1
                continue
            circuit = _random_circuit(rng, cells, n_ops=20)
            schedule = sch.compile(circuit, lay, defects, mux)
        except tl.Partitioned:
            counts["partitioned"] += 1
            continue
        violations = sch.validate_schedule(schedule, lay, defects, mux)
        if violations:
            ok = False
            print(f"[acceptance] criterion 6 violation sample on {lay}: {violations[:3]}")
            break
        counts["clean"] += 1
    elapsed = time.monotonic() - t0
    ok &= counts["clean"] >= 900 and counts["stacked"] >= 300
    _report(6, ok, f"layout sweep {counts} ({elapsed:.2f}s)")


def test_criterion_7_mux_arithmetic():
    """k in {1,2,8} in-phase shuttles need exactly 4 waveform classes; DC
    hold/refresh arithmetic matches."""
    t0 = time.monotonic()
    lay = tl.map_to_trilinear(tl.GridSpec(16, 16))
    ok = True
    for k in (1, 2, 8):
        circuit = sch.Circuit(tuple(
            sch.TwoQubit((2 * b, 0), (2 * b + 1, 0)) for b in range(k)))
        schedule = sch.compile(circuit, lay, mux=sch.MuxConfig(n_ac_inputs=4))
        usage = sch.waveform_usage(schedule, lay)
        # Tick 1: all k movers ride the conveyor eastward together.
        ok &= len(usage[1]) == 4
        ok &= max(map(len, usage)) == 4

    dc = dict(n_dc_inputs=1, dc_refresh_interval_s=1.0, dc_hold_time_s=3600.0)
    report = sch.dc_refresh_plan(300, **dc)
    ok &= report.max_gates_per_input == 3600
    ok &= report.feasible and report.cycle_time_s == 300.0
    ok &= sch.dc_refresh_plan(800, **dc).feasible   # hundreds of gates regime
    elapsed = time.monotonic() - t0
    _report(7, ok, f"k=1,2,8 shuttles -> 4 classes; 3600 gates/input, "
                   f"hundreds-of-gates regime feasible ({elapsed:.2f}s)")


def test_criterion_8_protocol_addressability():
    """Every single-target gate on a half-filled 3x16 lattice rotates
    exactly its target, returns it home, and advances its virtual-Z frame
    by the phase of its two hops (1e-12)."""
    t0 = time.monotonic()
    lay = tl.map_to_trilinear(tl.GridSpec(4, 8), loop=True)
    assert lay.length == 16
    state = proto.init_half_filled(lay)
    phases = proto.PhaseConfig(hop_phase_magnet=0.3, hop_phase_bare=0.3)
    ok = len(state.position) == 16
    for target in sorted(state.position):
        ops = proto.addressed_single_qubit_gate(state, target, "x90")
        report = proto.audit_addressed_gate(state, target, ops)
        ok &= report.rotated == {target} and report.ok
        ok &= ops[0].src == ops[-1].dst == state.position[target]
        ok &= abs(proto.advance_frame(0.0, ops, phases) - 0.6) < 1e-12
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _report(8, ok, f"all {len(state.position)} single-target gates rotate "
                   f"exactly the target, frame +0.6 rad each ({elapsed:.2f}s)")


def test_criterion_9_footprint_sanity():
    """1024-qubit reference lands within a factor of 2 of 76 x 100 um."""
    t0 = time.monotonic()
    lay = tl.map_to_trilinear(tl.GridSpec(32, 32))
    fp = met.footprint_estimate(lay, tsv_pitch_um=0.8)
    ok = 76 / 2 <= fp.array_length_um <= 76 * 2
    ok &= 100 / 2 <= fp.array_width_um <= 100 * 2
    elapsed = time.monotonic() - t0
    _report(9, ok, f"estimate {fp.array_length_um:.1f} x {fp.array_width_um:.1f} um "
                   f"vs 76 x 100 um, factor-2 bands ({elapsed:.2f}s)")
