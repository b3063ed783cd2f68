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
    assert tl.reconfigure_for_defects(layout).empty
