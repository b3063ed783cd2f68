"""Scaling formulas, slopes, fidelity budgets, footprint arithmetic."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trilinear as tl
from trilinear import metrics as met
from trilinear import scheduler as sch
from trilinear.metrics import (
    FidelityModel,
    Variant,
    fidelity_budget,
    footprint_estimate,
    log_log_slope,
    shuttle_scaling,
    sweep_curve,
    sweep_to_csv,
)


def test_trilinear_reference_lengths():
    for n, steps, length in ((100, 5, 0.5), (10_000, 50, 5.0), (1_000_000, 500, 50.0)):
        p = shuttle_scaling(n)
        assert p.steps_one_way == steps
        assert p.length_one_way_um == pytest.approx(length)
        assert p.steps_round_trip == 2 * steps


def test_few_thousand_qubits_lands_in_micron_range():
    p = shuttle_scaling(4096)
    assert p.length_one_way_um == pytest.approx(3.2)
    assert 1.0 <= p.length_one_way_um < 10.0


def test_semi2d_billion_scale():
    p = shuttle_scaling(10**9, Variant.SEMI_2D)
    assert p.rounded
    assert p.effective_n == 178**4
    assert p.length_one_way_um == pytest.approx(8.9)


def test_m_row_divides_block():
    p = shuttle_scaling(1_000_000, Variant.M_ROW, m=4)
    assert p.steps_one_way == 125


def test_invalid_n():
    with pytest.raises(tl.InvalidN):
        shuttle_scaling(3)


def test_non_square_rounds_up_and_flags():
    p = shuttle_scaling(10)
    assert p.rounded and p.effective_n == 16
    assert p.steps_one_way == 2


def test_trilinear_slope_is_half():
    ns = [4**k for k in range(5, 16)]
    lengths = [shuttle_scaling(n).length_one_way_um for n in ns]
    assert abs(log_log_slope(ns, lengths) - 0.5) < 0.01


def test_semi2d_slope_is_quarter():
    ns = [2 ** (4 * k) for k in range(3, 8)]
    lengths = [shuttle_scaling(n, Variant.SEMI_2D).length_one_way_um for n in ns]
    assert abs(log_log_slope(ns, lengths) - 0.25) < 0.01


def test_slope_of_exact_square_root_law():
    ns = [4**k for k in range(1, 12)]
    assert abs(log_log_slope(ns, [math.sqrt(n) for n in ns]) - 0.5) <= 1e-12


def test_slopes_of_scaling_sweep_are_unchanged_to_the_bit():
    """The two sweeps of demo 05, against the slopes np.polyfit gave for
    them before the package dropped numpy."""
    tri_ns = [4**k for k in range(5, 16)]
    tri = log_log_slope(tri_ns, [shuttle_scaling(n).length_one_way_um for n in tri_ns])
    semi_ns = [2 ** (4 * k) for k in range(3, 8)]
    semi = log_log_slope(
        semi_ns, [shuttle_scaling(n, Variant.SEMI_2D).length_one_way_um for n in semi_ns])
    assert type(tri) is float and type(semi) is float
    assert tri == 0.5000000000000001
    assert semi == 0.25


@pytest.mark.parametrize("ns, lengths, cause", [
    ([100], [0.5], "at least 2 points, got 1"),
    ([], [], "at least 2 points, got 0"),
    ([100, 400], [0.5], "2 ns but 1 lengths"),
    ([100, 400, 1600], [0.5, 1.0], "3 ns but 2 lengths"),
    ([100, 0], [0.5, 1.0], "positive, got 0"),
    ([100, 400], [0.5, -1.0], "positive, got -1.0"),
    ([100, 400], [0.5, math.nan], "positive, got nan"),
    ([400, 400, 400], [0.5, 1.0, 2.0], "all ns equal 400"),
])
def test_slope_rejects_bad_input_by_cause(ns, lengths, cause):
    """numpy used to warn and return nan or a meaningless number for each."""
    with pytest.raises(ValueError, match=re.escape(cause)):
        log_log_slope(ns, lengths)


def test_sweep_monotone_and_doubling_law():
    ns = sorted(k * k for k in range(2, 40))
    points = sweep_curve(ns)
    lengths = [p.length_one_way_um for p in points]
    assert lengths == sorted(lengths)
    # Quadrupling an even-root square doubles the one-way length.
    for k in range(2, 20, 2):
        a = shuttle_scaling(k * k)
        b = shuttle_scaling(4 * k * k)
        assert b.length_one_way_um == pytest.approx(2 * a.length_one_way_um)


def test_semi2d_below_trilinear_from_256():
    for n in (256, 4096, 65536, 10**6):
        tri = shuttle_scaling(n)
        semi = shuttle_scaling(n, Variant.SEMI_2D)
        assert semi.length_one_way_um < tri.length_one_way_um


def test_smallest_square_single_step():
    p = shuttle_scaling(4)
    assert p.steps_one_way == 1
    assert p.length_one_way_um == pytest.approx(0.1)


def test_sweep_csv_columns():
    csv = sweep_to_csv(sweep_curve([100]))
    header, row = csv.strip().splitlines()
    assert header == "N,variant,steps_one_way,steps_round_trip,length_um"
    assert row == "100,trilinear,5,10,0.5"


def test_scaling_matches_router_measurements():
    """Analytic one-way steps equal the router's worst vertical gate."""
    for n in (16, 64, 256):
        root = math.isqrt(n)
        lay = tl.map_to_trilinear(tl.GridSpec(root, root))
        worst = 0
        for r in range(root - 1):
            for c in range(root):
                plan = tl.vertical_gate_plan(lay, (r, c), (r + 1, c))
                worst = max(worst, plan.horizontal_steps // 2)
        assert worst == shuttle_scaling(n).steps_one_way


# ----------------------------------------------------------------------
# Fidelity budget

def _schedule(lay):
    circuit = sch.Circuit((sch.TwoQubit((0, 2), (1, 2)),))
    return sch.compile(circuit, lay)


def test_budget_identity_when_factors_one(lay88):
    budget = fidelity_budget(_schedule(lay88), FidelityModel())
    assert budget.aggregate == 1.0


def test_budget_step_power(lay88):
    schedule = _schedule(lay88)
    model = FidelityModel(f_step=0.9999)
    budget = fidelity_budget(schedule, model)
    assert budget.aggregate == pytest.approx(0.9999 ** schedule.total_horizontal_steps)


def test_budget_hundred_steps_value():
    assert 0.9999 ** 100 == pytest.approx(0.990, abs=5e-4)


def test_budget_empty_schedule():
    budget = fidelity_budget(sch.Schedule(), FidelityModel(f_step=0.5))
    assert budget.aggregate == 1.0


def test_budget_charges_gate_to_both_sides(lay88):
    schedule = _schedule(lay88)
    budget = fidelity_budget(schedule, FidelityModel(f_2q=0.5))
    assert budget.aggregate == pytest.approx(0.5)
    assert budget.per_qubit[(0, 2)] == pytest.approx(0.5)
    assert budget.per_qubit[(1, 2)] == pytest.approx(0.5)


@given(
    f_step=st.floats(0.5, 1.0),
    f_better=st.floats(0.0, 0.5),
)
@settings(max_examples=30, deadline=None)
def test_budget_monotone_in_factors(f_step, f_better):
    lay = tl.map_to_trilinear(tl.GridSpec(4, 4))
    schedule = sch.compile(sch.Circuit((sch.TwoQubit((0, 1), (1, 1)),)), lay)
    low = fidelity_budget(schedule, FidelityModel(f_step=min(f_step, f_better))).aggregate
    high = fidelity_budget(schedule, FidelityModel(f_step=max(f_step, f_better))).aggregate
    assert low <= high


def test_budget_non_increasing_in_step_count(lay88):
    model = FidelityModel(f_step=0.999)
    short = sch.compile(sch.Circuit((sch.TwoQubit((0, 2), (1, 2)),)), lay88)
    long = sch.compile(sch.Circuit((sch.TwoQubit((2, 0), (2, 7)),)), lay88)
    assert long.total_horizontal_steps > short.total_horizontal_steps
    assert fidelity_budget(long, model).aggregate < fidelity_budget(short, model).aggregate


def test_model_rejects_out_of_range():
    with pytest.raises(tl.ConfigError):
        FidelityModel(f_step=1.5)


# ----------------------------------------------------------------------
# Footprint

def test_footprint_1024_reference():
    lay = tl.map_to_trilinear(tl.GridSpec(32, 32))
    fp = footprint_estimate(lay, tsv_pitch_um=0.8)
    assert fp.core_length_um == pytest.approx(52.8)
    assert 76 / 2 <= fp.array_length_um <= 76 * 2
    assert 100 / 2 <= fp.array_width_um <= 100 * 2


def test_footprint_fanout_scales_with_tsv_pitch():
    lay = tl.map_to_trilinear(tl.GridSpec(32, 32))
    base = footprint_estimate(lay, tsv_pitch_um=0.8, fanout_rows=40)
    double = footprint_estimate(lay, tsv_pitch_um=1.6, fanout_rows=40)
    core = 3 * lay.pitch_nm / 1000.0
    assert double.array_width_um - core == pytest.approx(2 * (base.array_width_um - core))


@pytest.mark.parametrize("fanout_rows", [0, -5])
def test_footprint_rejects_non_positive_fanout_rows(fanout_rows):
    """fanout_rows=-5 was accepted and gave a negative array width."""
    with pytest.raises(tl.ConfigError, match="footprint parameters must be positive"):
        footprint_estimate(tl.map_to_trilinear(tl.GridSpec(8, 8)), fanout_rows=fanout_rows)


@pytest.mark.parametrize("fanout_rows", [1.5, math.inf, True])
def test_footprint_rejects_fanout_rows_that_are_not_integers(fanout_rows):
    """All three were accepted; inf gave array_width_um=inf."""
    with pytest.raises(tl.ConfigError, match="fanout_rows an integer"):
        footprint_estimate(tl.map_to_trilinear(tl.GridSpec(8, 8)), fanout_rows=fanout_rows)


@pytest.mark.parametrize("pitch", [math.nan, math.inf])
def test_footprint_rejects_non_finite_tsv_pitch(pitch):
    """NaN raised a bare ValueError from int(), and inf gave an infinite width."""
    with pytest.raises(tl.ConfigError, match="footprint parameters must be positive"):
        footprint_estimate(tl.map_to_trilinear(tl.GridSpec(8, 8)), tsv_pitch_um=pitch)


def test_footprint_tiny_grid_positive():
    fp = footprint_estimate(tl.map_to_trilinear(tl.GridSpec(2, 2)))
    assert fp.array_length_um > 0 and fp.array_width_um > 0
