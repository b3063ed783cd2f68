"""Cost follows the circuit and the defects, not the array."""

import tracemalloc

import trilinear as tl
from trilinear.topology import Row, SiteCoord


def test_million_qubit_loop_builds_nothing_array_sized():
    """On a 1000x1000 loop (10^6 qubits), a vertical gate plan, compiling and
    validating a 2q/1q/meas circuit and folding the last Lower site back to
    its cell stay under a 50 MB traced peak, so no per-site table is built.
    With no defects, reconfiguration is empty."""
    layout = tl.map_to_trilinear(tl.GridSpec(1000, 1000), loop=True)
    last = SiteCoord(Row.LOWER, layout.length - 1)
    circuit = tl.Circuit((tl.TwoQubit((0, 2), (1, 2)), tl.OneQubit((0, 0), "x90"),
                          tl.Measure((0, 0))))
    tracemalloc.start()
    try:
        plan = tl.vertical_gate_plan(layout, (0, 2), (1, 2))
        schedule = tl.scheduler.compile(circuit, layout)
        violations = tl.scheduler.validate_schedule(schedule, layout)
        cell = layout.site_to_grid(last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    assert plan.horizontal_steps == 1000
    assert violations == []
    assert cell == (999, 499) and layout.grid_to_site(cell) == last
    assert tl.reconfigure_for_defects(layout) == tl.Reconfiguration(frozenset(), frozenset())


def test_corridors_follow_the_circuit_on_a_million_qubit_loop():
    """600 in-place gates (r, c)-(r, c+1), r in {0, 1} and even c < 600, on
    the 1000x1000 loop compile under a 10 MB traced peak. Nothing in compile
    is sized by the array: per-site state is kept for the sites the circuit
    touches only. Corridor bits numbered by the array-wide site id once
    reached a 59 MB peak."""
    layout = tl.map_to_trilinear(tl.GridSpec(1000, 1000), loop=True)
    circuit = tl.Circuit(tuple(tl.TwoQubit((r, c), (r, c + 1))
                               for r in (0, 1) for c in range(0, 600, 2)))
    tracemalloc.start()
    try:
        schedule = tl.scheduler.compile(circuit, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    assert sum(s.op.kind is tl.MicroOpKind.TWO_QUBIT_GATE for s in schedule.ops) == 600
    assert tl.scheduler.validate_schedule(schedule, layout) == []


def test_vertical_gates_share_the_middle_row_on_a_million_qubit_loop():
    """100 vertical gates (0, c)-(1, c), every 10th column, on the 1000x1000
    loop. Each mover rides 500 Middle sites out and back (1,004 ticks), and
    the plans overlap, but movers in one direction keep 10 sites apart, so
    all run at once. Holding every site a plan touches for the whole job
    ran them in 51 waves, 51,204 ticks."""
    layout = tl.map_to_trilinear(tl.GridSpec(1000, 1000), loop=True)
    circuit = tl.Circuit(tuple(tl.TwoQubit((0, c), (1, c)) for c in range(0, 1000, 10)))
    schedule = tl.scheduler.compile(circuit, layout)
    assert schedule.makespan <= 2008
    assert tl.scheduler.validate_schedule(schedule, layout) == []


def test_one_dead_middle_site_on_a_million_qubit_loop():
    """With (M,700) dead on the 1000x1000 loop, compiling and validating the
    2q/1q/meas circuit stay under the 50 MB traced peak: the Middle row is
    still in one piece, so reconfiguration floods nothing. Flooding the
    array through a per-layout memo reached 663 MB RSS."""
    layout = tl.map_to_trilinear(tl.GridSpec(1000, 1000), loop=True)
    dead = SiteCoord(Row.MIDDLE, 700)
    defects = tl.DefectMap.of(sites=[dead])
    circuit = tl.Circuit((tl.TwoQubit((0, 2), (1, 2)), tl.OneQubit((0, 0), "x90"),
                          tl.Measure((0, 0))))
    tracemalloc.start()
    try:
        schedule = tl.scheduler.compile(circuit, layout, defects)
        violations = tl.scheduler.validate_schedule(schedule, layout, defects)
        recon = tl.reconfigure_for_defects(layout, defects)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    assert violations == []
    assert recon.repurposed_sites == {SiteCoord(Row.UPPER, 700), SiteCoord(Row.LOWER, 700)}
    assert recon.sacrificed_qubits == {(0, 700), (1, 200)}


def test_straight_gate_plan_among_every_home_copies_nothing():
    """On a 256x256 line with all 65,536 homes in `blocked`, a warm plan of
    (0,0)-(1,100), whose path is the straight Middle-row walk, allocates
    under 256 KB traced and leaves the caller's set as it was. The walk meets
    Middle sites only, and no home is one, so the plan reads `blocked` in
    place; copying it for every plan allocated 4.1 MB."""
    layout = tl.map_to_trilinear(tl.GridSpec(256, 256))
    homes = {layout.grid_to_site(cell) for cell in layout.grid.cells()}
    blocked = set(homes)
    plan = tl.router.plan_two_qubit(layout, (0, 0), (1, 100), blocked=blocked)
    tracemalloc.start()
    try:
        again = tl.router.plan_two_qubit(layout, (0, 0), (1, 100), blocked=blocked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10, f"traced peak {peak / 2**10:.0f} KB"
    assert again == plan
    assert blocked == homes and len(homes) == 65536
    assert plan.horizontal_steps == 2 * 228 and plan.vertical_transfers == 2
