"""
Parallel scheduling under a shared-waveform budget
==================================================

A logical circuit compiles to a tick schedule. Operations run concurrently
when no two qubits hold one site at one tick, so movers can share the Middle
row in lockstep, and all conveyor movement in one direction shares the same
four phased waveforms no matter how many qubits ride it, so the AC input
count stays flat as the array grows. An independent validator replays the
schedule against every rule.
"""

import trilinear as tl
from trilinear import scheduler as sch

layout = tl.map_to_trilinear(tl.GridSpec(8, 8))

single = sch.compile(sch.Circuit((sch.TwoQubit((0, 0), (1, 0)),)), layout)
print(f"one vertical gate: makespan {single.makespan} ticks, "
      f"{single.total_horizontal_steps} shuttle steps")

# Two gates on disjoint middle segments run side by side for free.
pair = sch.compile(sch.Circuit((
    sch.TwoQubit((0, 0), (1, 0)),
    sch.TwoQubit((0, 7), (1, 7)),
)), layout)
print(f"two disjoint gates: makespan {pair.makespan} (same as one)")

# Overlapping segments: the second mover would meet the first head-on as
# it returns, so it waits until their holds no longer overlap.
clash = sch.compile(sch.Circuit((
    sch.TwoQubit((0, 2), (1, 2)),
    sch.TwoQubit((0, 3), (1, 3)),
)), layout)
print(f"two overlapping gates: makespan {clash.makespan}")

# The validator is the oracle: it re-derives occupancy, swap, dead-site,
# ordering and waveform rules from the schedule alone.
print("violations in the compiled schedule:",
      sch.validate_schedule(pair, layout))

# Waveform accounting: both movers share the four conveyor phases, and the
# peak distinct-class count is the schedule's AC input requirement.
usage = sch.waveform_usage(pair, layout)
print(f"distinct waveform classes per tick: {tuple(map(len, usage))}")
print(f"AC inputs required: {max(map(len, usage), default=0)}")

# Tightening the AC budget never speeds a schedule up.
for budget in (8, 5, 4):
    s = sch.compile(sch.Circuit((
        sch.TwoQubit((0, 0), (1, 0)),
        sch.TwoQubit((2, 4), (2, 7)),
    )), layout, mux=sch.MuxConfig(n_ac_inputs=budget))
    print(f"  n_ac_inputs={budget}: makespan {s.makespan}")

# DC side: sampled floating gates hold their bias for ~an hour and refresh
# once a second, so one DC input can serve thousands of gates.
report = sch.dc_refresh_plan(n_gates=300, n_dc_inputs=1, dc_refresh_interval_s=1.0,
                             dc_hold_time_s=3600.0)
print(f"300 gates on one DC input: cycle {report.cycle_time_s:.0f}s, "
      f"feasible={report.feasible}, max {report.max_gates_per_input} gates/input")
