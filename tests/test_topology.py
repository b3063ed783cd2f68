"""Grid mapping, inverse mapping, and layout serialization."""

import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trilinear as tl
from trilinear.topology import (
    DefectMap,
    Row,
    SiteCoord,
    defects_from_obj,
    layout_to_json,
    site_class,
    site_from_obj,
    site_to_obj,
)

from _oracles import bfs_key, expected_site, site_neighbors


def test_2x2_mapping():
    lay = tl.map_to_trilinear(tl.GridSpec(2, 2))
    assert lay.grid_to_site((0, 0)) == SiteCoord(Row.UPPER, 0)
    assert lay.grid_to_site((0, 1)) == SiteCoord(Row.UPPER, 1)
    assert lay.grid_to_site((1, 0)) == SiteCoord(Row.LOWER, 1)
    assert lay.grid_to_site((1, 1)) == SiteCoord(Row.LOWER, 2)


def test_4x4_mapping_values(lay44):
    assert lay44.grid_to_site((1, 2)) == SiteCoord(Row.LOWER, 4)
    assert lay44.grid_to_site((2, 3)) == SiteCoord(Row.UPPER, 7)


def test_4x4_vertical_axis_distance(lay44):
    a = lay44.grid_to_site((0, 2))
    b = lay44.grid_to_site((1, 2))
    assert abs(a.axis - b.axis) == 2 == lay44.grid.cols // 2


def test_site_to_grid_values(lay44):
    assert lay44.site_to_grid(SiteCoord(Row.UPPER, 7)) == (2, 3)
    assert lay44.site_to_grid(SiteCoord(Row.MIDDLE, 3)) is None
    # Lower-row shift overhang is real but unmapped.
    assert lay44.site_to_grid(SiteCoord(Row.LOWER, 0)) is None
    with pytest.raises(tl.InvalidSite):
        lay44.site_to_grid(SiteCoord(Row.UPPER, 99))


def test_round_trip_all_cells_4x4(lay44):
    for cell in lay44.grid.cells():
        assert lay44.site_to_grid(lay44.grid_to_site(cell)) == cell


def test_middle_row_never_mapped(lay44):
    for site in (SiteCoord(Row.MIDDLE, a) for a in range(lay44.length)):
        assert lay44.site_to_grid(site) is None


@given(rows=st.integers(1, 8), cols=st.integers(2, 9), loop=st.booleans(),
       m=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_site_to_grid_inverts_the_fold(rows, cols, loop, m):
    """Every site of the layout maps to the cell whose home it is by the
    mapping definition, or to None when it is no cell's home; every cell's
    home maps back to it; a site outside the layout raises InvalidSite."""
    m = min(m, cols)
    lay = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop, m_rows=m)
    homes = {expected_site(rows, cols, cell, loop, m): cell for cell in lay.grid.cells()}
    for site in lay.sites():
        assert lay.site_to_grid(site) == homes.get((site.row.value, site.axis, site.subrow))
    for cell in lay.grid.cells():
        assert lay.site_to_grid(lay.grid_to_site(cell)) == cell
    for site in (SiteCoord(Row.UPPER, lay.length), SiteCoord(Row.LOWER, -1),
                 SiteCoord(Row.MIDDLE, 0, 1), SiteCoord(Row.LOWER, 0, m)):
        with pytest.raises(tl.InvalidSite):
            lay.site_to_grid(site)


def test_invalid_grid_rejected():
    with pytest.raises(tl.InvalidGrid):
        tl.map_to_trilinear(tl.GridSpec(3, 1))
    with pytest.raises(tl.InvalidGrid):
        tl.GridSpec(0, 4)


@pytest.mark.parametrize("rows, cols", [(True, 4), (2.5, 4), (4, 4.0), (4, False)])
def test_grid_of_counts_that_are_not_integers_is_rejected(rows, cols):
    """True made a 1-row grid, and 2.5 rows failed later with a TypeError
    in `cells()`."""
    with pytest.raises(tl.InvalidGrid) as info:
        tl.GridSpec(rows, cols)
    assert str(info.value) == (f"grid rows and cols must be integers, "
                               f"got rows={rows!r}, cols={cols!r}")


@pytest.mark.parametrize("pitch", [float("nan"), float("inf"), 0, -1.0])
def test_pitch_that_is_not_positive_and_finite_is_rejected(pitch):
    """NaN and inf passed the check, and `footprint_estimate` then raised a
    bare ValueError."""
    with pytest.raises(tl.InvalidGrid) as info:
        tl.map_to_trilinear(tl.GridSpec(8, 8), pitch_nm=pitch)
    assert str(info.value) == f"pitch must be positive and finite, got {pitch}"


@pytest.mark.parametrize("m", [1.5, True, 0, 5])
def test_m_rows_that_is_not_an_integer_in_range_is_rejected(m):
    """1.5 sub-rows gave float axes, such as (U,3.0) for cell (0,3) on 4x8."""
    with pytest.raises(tl.InvalidGrid) as info:
        tl.map_to_trilinear(tl.GridSpec(4, 4), m_rows=m)
    assert str(info.value) == f"m_rows must be an integer in [1, cols], got {m!r} for 4 cols"


@pytest.mark.parametrize("loop", ["false", "true", 0, 1, None])
def test_loop_flag_that_is_not_a_bool_is_rejected(loop):
    """"false" was read for truth: it built the 4x4 loop (length 8, where the
    line is 10), and layout_to_json wrote "loop": "false"."""
    with pytest.raises(tl.InvalidGrid) as info:
        tl.map_to_trilinear(tl.GridSpec(4, 4), loop=loop)
    assert str(info.value) == f"loop must be a bool, got {loop!r}"


grids = st.tuples(st.integers(1, 12), st.integers(2, 12))


@given(dims=grids, loop=st.booleans(), m=st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_mapping_is_bijective(dims, loop, m):
    """Every cell maps to a distinct outer site and maps back."""
    rows, cols = dims
    m = min(m, cols)
    lay = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop, m_rows=m)
    seen = {}
    for cell in lay.grid.cells():
        site = lay.grid_to_site(cell)
        assert site.row is not Row.MIDDLE
        assert lay.in_bounds(site)
        assert site not in seen, f"cells {seen[site]} and {cell} collide at {site}"
        seen[site] = cell
        assert lay.site_to_grid(site) == cell


@given(dims=grids, loop=st.booleans(), m=st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_mapping_matches_definition(dims, loop, m):
    """Mapping agrees with the formula written out independently."""
    rows, cols = dims
    m = min(m, cols)
    lay = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop, m_rows=m)
    for cell in lay.grid.cells():
        site = lay.grid_to_site(cell)
        assert (site.row.value, site.axis, site.subrow) == expected_site(
            rows, cols, cell, loop, m)


@given(dims=grids, loop=st.booleans(), m=st.integers(1, 3))
@example(dims=(1, 2), loop=True, m=2)    # length 1: both axis steps land on the site
@example(dims=(1, 2), loop=False, m=2)
@example(dims=(1, 2), loop=True, m=1)    # length 2: both axis steps land on one site
@example(dims=(2, 2), loop=True, m=1)
@settings(max_examples=120, deadline=None)
def test_neighbor_memo_matches_site_neighbors(dims, loop, m):
    """Each site's neighbours in the layout's memo are the reference
    `site_neighbors` in the router's tie-break order, self-steps and repeats
    dropped; a repeat lookup returns the same tuple, and a site outside the
    layout raises."""
    rows, cols = dims
    lay = tl.map_to_trilinear(tl.GridSpec(rows, cols), loop=loop, m_rows=min(m, cols))
    for site in lay.sites():
        found = lay.site_neighbors(site)
        assert list(found) == sorted(site_neighbors(lay, site), key=bfs_key)
        assert lay.site_neighbors(site) is found and lay.neighbors[site] is found
    for site in (SiteCoord(Row.MIDDLE, -1), SiteCoord(Row.UPPER, lay.length),
                 SiteCoord(Row.MIDDLE, 0, 1), SiteCoord(Row.LOWER, 0, lay.m_rows)):
        with pytest.raises(tl.InvalidSite):
            lay.site_neighbors(site)


@given(dims=st.tuples(st.integers(2, 12), st.integers(2, 12)))
@settings(max_examples=80, deadline=None)
def test_vertical_distance_law(dims):
    """Vertical neighbors sit floor(C/2) or ceil(C/2) apart by row parity."""
    rows, cols = dims
    lay = tl.map_to_trilinear(tl.GridSpec(rows, cols))
    for r in range(rows - 1):
        for c in range(cols):
            a = lay.grid_to_site((r, c))
            b = lay.grid_to_site((r + 1, c))
            want = cols // 2 if r % 2 == 0 else (cols + 1) // 2
            assert abs(a.axis - b.axis) == want


def test_loop_axis_distance():
    lay = tl.map_to_trilinear(tl.GridSpec(4, 4), loop=True)
    assert lay.length == 8
    assert lay.axis_distance(1, 6) == 3
    assert lay.axis_distance(0, 7) == 1
    flat = tl.map_to_trilinear(tl.GridSpec(4, 4))
    assert flat.axis_distance(1, 6) == 5


def test_m_rows_compresses_axis():
    lay = tl.map_to_trilinear(tl.GridSpec(4, 8), m_rows=2)
    assert lay.block_width == 4
    assert lay.shift == 2
    # Cell (0,5): sub-row 1, offset 1 within block 0.
    assert lay.grid_to_site((0, 5)) == SiteCoord(Row.UPPER, 1, 1)
    # Stacked sub-rows neighbor each other at equal axis.
    assert SiteCoord(Row.UPPER, 1, 1) in lay.site_neighbors(SiteCoord(Row.UPPER, 1, 0))


def test_site_class_alternates():
    assert site_class(SiteCoord(Row.UPPER, 0)) is tl.SiteClass.MAGNET
    assert site_class(SiteCoord(Row.UPPER, 1)) is tl.SiteClass.BARE
    assert site_class(SiteCoord(Row.MIDDLE, 4)) is tl.SiteClass.MAGNET


def test_layout_json_round_trip_with_subrows():
    lay = tl.map_to_trilinear(tl.GridSpec(4, 8), m_rows=2)
    defects = DefectMap.of(sites=[SiteCoord(Row.UPPER, 1, 1)])
    doc = layout_to_json(lay, defects)
    assert doc["defects"]["sites"] == [["U", 1, 1]]
    assert (doc["rows"], doc["cols"], doc["m_rows"]) == (4, 8, 2)
    assert defects_from_obj(doc["defects"]) == defects


def test_layout_json_round_trip(lay44):
    defects = DefectMap.of(
        sites=[SiteCoord(Row.MIDDLE, 3)],
        barriers=[(SiteCoord(Row.UPPER, 2), SiteCoord(Row.MIDDLE, 2))],
    )
    doc = layout_to_json(lay44, defects)
    assert doc["schema_version"] == 1
    assert doc == {"schema_version": 1, "rows": 4, "cols": 4, "pitch_nm": 100.0, "loop": False,
                   "m_rows": 1, "defects": {"sites": [["M", 3]], "barriers": [[["U", 2], ["M", 2]]]}}
    assert defects_from_obj(doc["defects"]) == defects


def test_defect_validation(lay44):
    bad = DefectMap.of(sites=[SiteCoord(Row.UPPER, 99)])
    with pytest.raises(tl.InvalidSite):
        bad.validate_against(lay44)
    diagonal = DefectMap.of(
        barriers=[(SiteCoord(Row.UPPER, 0), SiteCoord(Row.MIDDLE, 1))])
    with pytest.raises(tl.InvalidSite):
        diagonal.validate_against(lay44)


@pytest.mark.parametrize("site", [SiteCoord(Row.UPPER, 3), SiteCoord(Row.MIDDLE, 0),
                                  SiteCoord(Row.LOWER, 7, 2)])
def test_rebuilt_site_is_same_key(site):
    """A site rebuilt from JSON or a pickle is equal, hashes alike and finds
    the original's set and dict entries."""
    for copy in (site_from_obj(site_to_obj(site)), pickle.loads(pickle.dumps(site))):
        assert copy == site
        assert hash(copy) == hash(site)
        assert copy in {site}
        assert {site: "here"}[copy] == "here"
    assert SiteCoord(Row.UPPER, 3) != SiteCoord(Row.LOWER, 3)


def test_site_prints_in_the_short_form():
    for site, text in ((SiteCoord(Row.UPPER, 3), "(U,3)"), (SiteCoord(Row.LOWER, 2, 1), "(L,2,1)"),
                       (SiteCoord(Row.MIDDLE, 0, 0), "(M,0)")):
        assert repr(site) == text
        assert str(site) == text
        assert f"{site}" == text


def test_equal_sites_hash_equal():
    a, b = SiteCoord(Row.LOWER, 5, 1), SiteCoord(Row.LOWER, 5, 1)
    assert a == b and hash(a) == hash(b)
    assert SiteCoord(Row.MIDDLE, 2) == SiteCoord(Row.MIDDLE, 2, 0)
    assert hash(SiteCoord(Row.MIDDLE, 2)) == hash(SiteCoord(Row.MIDDLE, 2, 0))
    assert SiteCoord(Row.UPPER, 1, 1) != SiteCoord(Row.UPPER, 1, 0)


@pytest.mark.parametrize("m_rows", [1, 2])
def test_every_lattice_site_round_trips_through_json(m_rows):
    layout = tl.map_to_trilinear(tl.GridSpec(5, 4), loop=True, m_rows=m_rows)
    for site in layout.sites():
        obj = site_to_obj(site)
        assert site_from_obj(obj) == site
        assert site_to_obj(site_from_obj(obj)) == obj


@pytest.mark.parametrize("obj, message", [
    (["U", 1, 0, 9], "bad site object ['U', 1, 0, 9]"),
    (["U"], "bad site object ['U']"),
    ([], "bad site object []"),
    ("U1", "bad site object 'U1'"),
    (("U", 1), "bad site object ('U', 1)"),
    ({0: "U", 1: 1}, "bad site object {0: 'U', 1: 1}"),
    (["X", 1], "bad site object ['X', 1]"),
    ([["U"], 1], "bad site object [['U'], 1]"),
    (["U", 1.0], "bad site object ['U', 1.0]: coordinates must be integers"),
    (["U", 1, True], "bad site object ['U', 1, True]: coordinates must be integers"),
])
def test_site_reader_rejects_anything_but_two_or_three_entries(obj, message):
    """["U", 1, 0, 9] used to read as (U,1), dropping the extra entry."""
    with pytest.raises(tl.InvalidSite) as info:
        site_from_obj(obj)
    assert str(info.value) == message


def test_layout_identity_ignores_cached_extents():
    fresh = tl.map_to_trilinear(tl.GridSpec(6, 5), m_rows=2)
    read = tl.map_to_trilinear(tl.GridSpec(6, 5), m_rows=2)
    assert (read.block_width, read.shift, read.upper_len, read.lower_len,
            read.length) == (3, 1, 9, 9, 10)
    assert read == fresh
    assert hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    assert len({read, fresh}) == 1


def test_replaced_layout_recomputes_length():
    flat = tl.map_to_trilinear(tl.GridSpec(4, 4))
    assert flat.length == 10
    looped = dataclasses.replace(flat, loop=True)
    assert looped.length == 8
    assert flat.length == 10
    assert looped == tl.map_to_trilinear(tl.GridSpec(4, 4), loop=True)
