"""Analytic scaling laws, fidelity budgets and footprint estimates.

Shuttle distance for one vertical two-qubit operation scales with the row
block an outer row spans: half the block one way, the full block round
trip. Variants trade wiring complexity against that distance:

  - TRILINEAR: one row per side, block = sqrt(N), one-way steps ceil(sqrt(N)/2)
  - M_ROW:     M stacked rows per side, block = sqrt(N)/M
  - SEMI_2D:   square sub-arrays per side, block = N**(1/4)

Lengths are steps times the dot pitch. Non-square (or non-fourth-power)
qubit counts are rounded up to the next valid size and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import ConfigError, InvalidN
from .router import MicroOpKind
from .scheduler import Schedule
from .topology import Cell, TrilinearLayout


class Variant(Enum):
    TRILINEAR = "trilinear"
    M_ROW = "m_row"
    SEMI_2D = "semi2d"


@dataclass(frozen=True)
class ScalingPoint:
    n: int                 # requested qubit count
    effective_n: int       # rounded-up count actually used
    variant: Variant
    m: int
    steps_one_way: int
    steps_round_trip: int
    pitch_nm: float
    rounded: bool

    @property
    def length_one_way_um(self) -> float:
        return self.steps_one_way * self.pitch_nm / 1000.0


def _ceil_root(n: int, power: int) -> int:
    """Smallest r with r**power >= n."""
    r = max(1, round(n ** (1.0 / power)))
    while r ** power < n:
        r += 1
    while r > 1 and (r - 1) ** power >= n:
        r -= 1
    return r


def shuttle_scaling(n: int, variant: Variant = Variant.TRILINEAR, m: int = 1,
                    pitch_nm: float = 100.0) -> ScalingPoint:
    """One-way and round-trip shuttle steps for a vertical operation at
    array size n. Raises InvalidN for n < 4."""
    if n < 4:
        raise InvalidN(f"need at least 4 qubits, got {n}")
    if variant is Variant.SEMI_2D:
        root = _ceil_root(n, 4)
        effective = root ** 4
        block = root
        m_used = 1
    else:
        root = _ceil_root(n, 2)
        effective = root ** 2
        m_used = m if variant is Variant.M_ROW else 1
        if m_used < 1:
            raise ConfigError(f"m must be >= 1, got {m}")
        block = root / m_used
    one_way = max(1, math.ceil(block / 2))
    return ScalingPoint(
        n=n,
        effective_n=effective,
        variant=variant,
        m=m_used,
        steps_one_way=one_way,
        steps_round_trip=2 * one_way,
        pitch_nm=pitch_nm,
        rounded=effective != n,
    )


def sweep_curve(n_list: Sequence[int], variants: Iterable[Variant] = (Variant.TRILINEAR,),
                pitch_nm: float = 100.0, m: int = 1) -> list[ScalingPoint]:
    """Scaling points for each variant over the given sizes, input order."""
    points = []
    for variant in variants:
        for n in n_list:
            points.append(shuttle_scaling(n, variant, m, pitch_nm))
    return points


def sweep_to_csv(points: Iterable[ScalingPoint]) -> str:
    lines = ["N,variant,steps_one_way,steps_round_trip,length_um"]
    for p in points:
        lines.append(
            f"{p.n},{p.variant.value},{p.steps_one_way},{p.steps_round_trip},"
            f"{p.length_one_way_um:g}"
        )
    return "\r\n".join(lines) + "\r\n"


def log_log_slope(ns: Sequence[float], lengths: Sequence[float]) -> float:
    """Least-squares slope of log(length) against log(n).

    Raises ValueError for sequences of different lengths, fewer than two
    points, a value that is not positive, or ns that are all equal.
    """
    if len(ns) != len(lengths):
        raise ValueError(f"log_log_slope: {len(ns)} ns but {len(lengths)} lengths")
    if len(ns) < 2:
        raise ValueError(f"log_log_slope: need at least 2 points, got {len(ns)}")
    for v in (*ns, *lengths):
        if not v > 0:
            raise ValueError(f"log_log_slope: values must be positive, got {v!r}")
    if len(set(ns)) == 1:
        raise ValueError(f"log_log_slope: all ns equal {ns[0]!r}")
    # Scaling x to unit norm first, as np.polyfit does, keeps the slope
    # bit-equal to its result on the scaling-sweep inputs.
    x = [math.log(n) for n in ns]
    y = [math.log(v) for v in lengths]
    scale = math.sqrt(math.fsum(v * v for v in x))
    x = [v / scale for v in x]
    x_mean = math.fsum(x) / len(x)
    y_mean = math.fsum(y) / len(y)
    sxy = math.fsum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
    sxx = math.fsum((a - x_mean) ** 2 for a in x)
    return sxy / sxx / scale


# ----------------------------------------------------------------------
# Fidelity budget

@dataclass(frozen=True)
class FidelityModel:
    """Multiplicative per-op survival factors, all in [0, 1]."""

    f_step: float = 1.0
    f_transfer: float = 1.0
    f_1q: float = 1.0
    f_2q: float = 1.0
    f_readout: float = 1.0

    def __post_init__(self) -> None:
        for name in ("f_step", "f_transfer", "f_1q", "f_2q", "f_readout"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")

    def factor(self, kind: MicroOpKind) -> float:
        return {
            MicroOpKind.HORIZONTAL_STEP: self.f_step,
            MicroOpKind.VERTICAL_TRANSFER: self.f_transfer,
            MicroOpKind.SINGLE_QUBIT_PULSE: self.f_1q,
            MicroOpKind.TWO_QUBIT_GATE: self.f_2q,
            MicroOpKind.READOUT: self.f_readout,
        }[kind]


@dataclass(frozen=True)
class FidelityBudget:
    per_qubit: dict[Cell, float]
    aggregate: float


def fidelity_budget(schedule: Schedule, model: FidelityModel) -> FidelityBudget:
    """Survival factor product over every micro-op.

    The aggregate counts each micro-op once; per-qubit budgets charge a
    two-qubit gate to both participants.
    """
    aggregate = 1.0
    per_qubit: dict[Cell, float] = {cell: 1.0 for cell, _ in schedule.initial_positions}
    for sop in schedule.ops:
        f = model.factor(sop.op.kind)
        aggregate *= f
        per_qubit[sop.qubit] = per_qubit.get(sop.qubit, 1.0) * f
        if sop.partner is not None:
            per_qubit[sop.partner] = per_qubit.get(sop.partner, 1.0) * f
    return FidelityBudget(per_qubit=per_qubit, aggregate=aggregate)


# ----------------------------------------------------------------------
# Footprint

@dataclass(frozen=True)
class FootprintEstimate:
    array_length_um: float
    array_width_um: float
    tsv_pitch_um: float
    core_length_um: float
    fanout_rows_per_side: int


# Gate wires per dot, and the charge-sensor margin at each end of the array.
GATES_PER_SITE = 3
SENSOR_MARGIN_UM = 2.0


def footprint_estimate(
    layout: TrilinearLayout,
    tsv_pitch_um: float = 0.8,
    fanout_rows: int | None = None,
) -> FootprintEstimate:
    """Chip-area estimate for the array plus its vertical-via gate fanout.

    Length: dot rows times pitch plus a sensor margin at each end. Width:
    the three dot rows plus, on each side, enough via rows at tsv pitch to
    land every gate wire (GATES_PER_SITE wires per dot, split across both
    sides). fanout_rows overrides the derived via-row count.
    """
    if not 0 < tsv_pitch_um < math.inf or (fanout_rows is not None and (
            type(fanout_rows) is not int or fanout_rows < 1)):
        raise ConfigError("footprint parameters must be positive and finite, "
                          "and fanout_rows an integer")
    core_length_um = layout.length * layout.pitch_nm / 1000.0
    n_rows = 2 * layout.m_rows + 1
    if fanout_rows is None:
        tsvs_per_row = max(1, int(core_length_um // tsv_pitch_um))
        wires_per_side = -(-layout.n_sites * GATES_PER_SITE // 2)
        fanout_rows = -(-wires_per_side // tsvs_per_row)
    core_width_um = n_rows * layout.pitch_nm / 1000.0
    return FootprintEstimate(
        array_length_um=core_length_um + 2 * SENSOR_MARGIN_UM,
        array_width_um=core_width_um + 2 * fanout_rows * tsv_pitch_um,
        tsv_pitch_um=tsv_pitch_um,
        core_length_um=core_length_um,
        fanout_rows_per_side=fanout_rows,
    )
