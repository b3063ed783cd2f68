"""Self-tests of the benchmark's own parts.

    python3 -m pytest perfbench -q        # from the root of a checkout
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from trilinear import cli, router, scheduler, topology  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)
    assert run.inputs_digest(make(7)) == run.inputs_digest(make(7))
    assert run.inputs_digest(make(7)) != run.inputs_digest(make(8))


def test_geometry_matches_the_package_mapping():
    for geo in (workloads.WIDE, workloads.DEFECT, workloads.HALF, workloads.Geometry(5, 6, False)):
        layout = topology.map_to_trilinear(topology.GridSpec(geo.rows, geo.cols), loop=geo.loop)
        assert geo.length == layout.length
        for cell in geo.cells():
            assert list(geo.home(cell)) == topology.site_to_obj(layout.grid_to_site(cell))


def test_local_lost_qubit_rule_equals_reconfigure_for_defects():
    geo = workloads.DEFECT
    layout = topology.map_to_trilinear(topology.GridSpec(geo.rows, geo.cols), loop=True)
    for job in workloads.defect_yield(0).jobs:
        draw = job.defects
        recon = router.reconfigure_for_defects(layout, topology.defects_from_obj(draw.to_obj()))
        lost = set(geo.cells()) - set(workloads.live_cells(geo, draw))
        assert lost == set(recon.sacrificed_qubits), draw


def _span(i, name, start, end, parent=None):
    return spans.Span(i, name, start, end=end, parent=parent)


def test_self_time_on_nested_spans():
    recorded = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "a.x", 1.5, 2.0, parent=1),
        _span(3, "a.y", 2.5, 3.5, parent=1),
        _span(4, "b", 5.0, 9.0, parent=0),
        _span(5, "leaf", 12.0, 13.0),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == pytest.approx({0: 3.0, 1: 1.5, 2: 0.5, 3: 1.0, 4: 4.0, 5: 1.0})
    assert spans.nesting_errors(recorded, selfs) == []


def test_nesting_errors_flag_a_child_outside_its_parent():
    recorded = [_span(0, "root", 0.0, 1.0), _span(1, "late", 0.5, 2.0, parent=0)]
    assert spans.nesting_errors(recorded, spans.self_times(recorded))


def test_tracer_restores_every_wrapped_function():
    import importlib

    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _, _ in spans.TRACED}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            for (m, a), fn in originals.items():
                assert getattr(importlib.import_module(m), a) is not fn
            raise RuntimeError("leave the block early")
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn


def test_tracer_records_calls_and_skips_missing_names():
    traced = spans.TRACED + (("trilinear.router", "no_such_function", "router.gone", None),)
    tracer = spans.Tracer(traced)
    layout = topology.map_to_trilinear(topology.GridSpec(4, 4))
    circuit = scheduler.Circuit((scheduler.TwoQubit((0, 0), (1, 0)),))
    with tracer:
        tracer.call("cli.schedule", scheduler.compile, circuit, layout)
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["cli.schedule", "scheduler.compile"]
    assert "router.shortest_shuttle_path" in names
    assert "router.gone" not in names
    assert not hasattr(router, "no_such_function")
    selfs = spans.self_times(tracer.spans)
    assert spans.nesting_errors(tracer.spans, selfs) == []


def _schedule_via_cli(tmp_path, config, circuit, defects):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    (tmp_path / "circ.json").write_text(json.dumps(circuit))
    (tmp_path / "def.json").write_text(json.dumps(defects.to_obj()))
    out = tmp_path / "sched.json"
    assert cli.main(["schedule", "--config", str(tmp_path / "cfg.json"),
                     "--circuit", str(tmp_path / "circ.json"),
                     "--defects", str(tmp_path / "def.json"), "--out", str(out)]) == 0
    return json.loads(out.read_text()), (tmp_path / "sched.summary.csv").read_text()


def test_spectator_check_flags_the_known_unnamed_qubit_crossing(tmp_path):
    """A 4x4 array with a dead (M,1): the mover of (0,0)-(1,0) detours
    through (U,2), the home of the live qubit (0,2), which the circuit does
    not name. validate_schedule accepts the schedule; the benchmark does
    not."""
    geo = workloads.Geometry(4, 4, loop=False)
    defects = workloads.Defects(sites=(("M", 1),))
    circuit = {"ops": [{"op": "2q", "cells": [[0, 0], [1, 0]]}]}
    doc, _ = _schedule_via_cli(tmp_path, {"grid": {"rows": 4, "cols": 4}}, circuit, defects)
    layout = topology.map_to_trilinear(topology.GridSpec(4, 4))
    schedule = checks.read_schedule(doc)
    assert scheduler.validate_schedule(
        schedule, layout, topology.defects_from_obj(defects.to_obj())) == []
    live = tuple(workloads.live_cells(geo, defects))
    assert checks.spectator_sites(doc, geo, live, circuit) == [("U", 2)]


def test_schedule_figures_agree_with_the_summary(tmp_path):
    wl = workloads.defect_yield(3)
    for job in wl.jobs[:20]:
        doc, csv_text = _schedule_via_cli(tmp_path, wl.config, job.circuit, job.defects)
        figures = checks.schedule_figures(doc, wl.geometry)
        assert checks.summary_mismatches(doc, csv_text, figures) == []
        assert len(checks.read_schedule(doc).ops) == sum(len(t["ops"]) for t in doc["ticks"])


def test_summary_mismatch_is_reported(tmp_path):
    wl = workloads.defect_yield(3)
    job = wl.jobs[0]
    doc, csv_text = _schedule_via_cli(tmp_path, wl.config, job.circuit, job.defects)
    figures = checks.schedule_figures(doc, wl.geometry)
    figures["total_shuttle_steps"] += 1
    assert checks.summary_mismatches(doc, csv_text, figures)


def test_simulate_check_accepts_the_cli_and_rejects_a_changed_log(tmp_path):
    geo = workloads.Geometry(8, 8, loop=True)
    cfg = {"grid": {"rows": 8, "cols": 8}, "loop": True,
           "protocol": {"hop_phase_magnet": 0.3, "hop_phase_bare": 0.7}}
    circuit = {"ops": [{"op": "1q", "cells": [[0, 2]], "param": "x90"},
                       {"op": "meas", "cells": [[1, 6]]},
                       {"op": "meas", "cells": [[0, 0]]},
                       {"op": "1q", "cells": [[7, 6]], "param": "x90"}]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "circ.json").write_text(json.dumps(circuit))
    out = tmp_path / "events.jsonl"
    assert cli.main(["simulate", "--config", str(tmp_path / "cfg.json"),
                     "--circuit", str(tmp_path / "circ.json"), "--out", str(out)]) == 0
    events = [json.loads(line) for line in out.read_text().splitlines()]
    report = json.loads((tmp_path / "events.report.json").read_text())
    expected = checks.expected_events(geo, circuit, spacing=4)
    assert checks.simulate_mismatches(events, report, expected, circuit, geo) == []
    events[1]["tick"] += 1
    assert checks.simulate_mismatches(events, report, expected, circuit, geo)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, note = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and note.startswith("p90")
    assert run.tail([1.0, 2.0, 3.0])[0] == 2.0
