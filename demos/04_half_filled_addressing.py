"""
Half-filled operation: addressing single qubits with a global drive
===================================================================

Nanomagnets on every other dot split the array into two resonance classes.
Qubits park on magnet dots; bare dots stay empty. A global pulse at the
bare-dot frequency rotates only whoever sits on a bare dot, so hopping one
qubit sideways before the pulse addresses exactly that qubit. Every hop
imprints a known Z phase that software tracks as a virtual-Z frame.
"""

import trilinear as tl
from trilinear import protocol as proto
from trilinear.topology import Row, SiteCoord

# A 4x4 loop gives a clean 3x8 lattice: 4 magnet dots per outer row.
layout = tl.map_to_trilinear(tl.GridSpec(4, 4), loop=True)
state = proto.init_half_filled(layout)
print(f"half-filled: {len(state.position)} qubits on "
      f"{sum(1 for _ in layout.outer_sites())} outer dots")
for q in sorted(state.position):
    print(f"  qubit {q} at {state.position[q]}")

# A global bare-class pulse with everyone parked is a no-op: replaying it
# over the placement finds no qubit on a bare dot.
pulse = tl.MicroOp(tl.MicroOpKind.SINGLE_QUBIT_PULSE, (SiteCoord(Row.UPPER, 1),),
                   freq_class=tl.SiteClass.BARE.value, param="x90")
print("rotations after a pulse with all qubits parked:",
      sum(len(qubits) for qubits in proto.replay_rotations(state, [pulse]).values()))

# Address qubit 2: hop out, pulse, hop back. The audit replays the micro-op
# sequence and confirms exactly one qubit saw the drive. Each hop imprints
# a Z phase; software keeps their sum as the qubit's virtual-Z frame.
ops = proto.addressed_single_qubit_gate(state, 2, "x90")
print("addressed gate micro-ops:", [op.kind.value for op in ops])
report = proto.audit_addressed_gate(state, 2, ops)
print(f"rotated {sorted(report.rotated)}, bystanders {sorted(report.bystanders)}")
phases = proto.PhaseConfig(hop_phase_magnet=0.3, hop_phase_bare=0.3)
print(f"virtual-Z frame of qubit 2: {proto.advance_frame(0.0, ops, phases):+.2f} rad")
print("occupancy restored:", ops[-1].dst == state.position[2])

# Readout: charge sensors sit along both sides every few dots; the qubit
# shuttles to the nearest one and back.
fixture = proto.ReadoutFixture.from_spacing(layout, 4)
target = state.qubit_at(SiteCoord(Row.UPPER, 2))
ops = proto.readout(state, target, fixture)
moves = sum(1 for op in ops if op.is_move)
print(f"readout of qubit {target}: {moves} shuttle moves, "
      f"sensors at axes {fixture.axes}")
