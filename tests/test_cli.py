"""CLI pipeline: subcommands, determinism, error JSON, round trips."""

import hashlib
import json
import math
import random
import subprocess
import sys

import pytest

import trilinear as tl
from trilinear.cli import main
from trilinear.config import config_from_json
from trilinear.errors import ConfigError
from trilinear.topology import SiteClass, layout_to_json, site_class


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": {"rows": 4, "cols": 4}}), encoding="utf-8")
    return str(path)


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circuit.json"
    doc = {"schema_version": 1, "ops": [
        {"op": "2q", "cells": [[0, 2], [1, 2]]},
        {"op": "1q", "cells": [[0, 0]], "param": "x90"},
    ]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_map_round_trip(cfg, tmp_path):
    out = tmp_path / "layout.json"
    assert main(["map", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc == layout_to_json(tl.map_to_trilinear(tl.GridSpec(4, 4)), tl.DefectMap())


def test_route_prints_four_step_plan(cfg, tmp_path, capsys):
    assert main(["route", "--config", cfg, "--gate", "0,2", "1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["horizontal_steps"] == 4
    kinds = [op["kind"] for op in doc["ops"]]
    assert kinds.count("two_qubit_gate") == 1


def test_route_with_defects_file(cfg, tmp_path, capsys):
    defects = tmp_path / "defects.json"
    defects.write_text(json.dumps(
        {"schema_version": 1, "sites": [["M", 3]], "barriers": []}), encoding="utf-8")
    assert main(["route", "--config", cfg, "--gate", "0,2", "1,2",
                 "--defects", str(defects)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["shuttle_steps"] == 8


def test_schedule_writes_json_and_summary(cfg, circuit_file, tmp_path):
    out = tmp_path / "sched.json"
    assert main(["schedule", "--config", cfg, "--circuit", circuit_file,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["summary"]["makespan"] > 0
    summary = (tmp_path / "sched.summary.csv").read_text()
    assert summary.splitlines()[0] == "makespan,total_shuttle_steps,max_waveform_classes"


def test_schedule_empty_circuit(cfg, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"ops": []}), encoding="utf-8")
    out = tmp_path / "sched.json"
    assert main(["schedule", "--config", cfg, "--circuit", str(empty),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["makespan"] == 0


def test_cli_seed_is_checked_like_the_config_seed(tmp_path, capsys):
    """--seed -5 was written to the schedule while "seed": -5 in the config
    exits 1; both now fail the one check, and a valid --seed still wins."""
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"ops": []}), encoding="utf-8")
    out = tmp_path / "sched.json"
    errors = []
    for seed_in_config, argv_seed in ((-5, []), (3, ["--seed", "-5"])):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": {"rows": 4, "cols": 4}, "seed": seed_in_config}),
                       encoding="utf-8")
        argv = ["schedule", "--config", str(cfg), "--circuit", str(empty), "--out", str(out)]
        assert main(argv + argv_seed) == 1
        errors.append(json.loads(capsys.readouterr().err))
        assert not out.exists()
    assert errors[0] == errors[1] == {
        "error": {"kind": "ConfigError", "message": "config.seed: must be >= 0, got -5"}}
    assert main(argv + ["--seed", "7"]) == 0
    assert json.loads(out.read_text())["seed"] == 7


@pytest.mark.parametrize("command", [["map"], ["schedule", "--seed", "5"]])
def test_null_config_exits_1(command, tmp_path, capsys):
    """A `null` config ran on all defaults, and schedule wrote "seed": 0
    whatever --seed said; the document must be an object, as for `[]`."""
    cfg = tmp_path / "null.json"
    cfg.write_text("null", encoding="utf-8")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"ops": []}), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = [command[0], "--config", str(cfg), "--out", str(out), *command[1:]]
    if command[0] == "schedule":
        argv += ["--circuit", str(empty)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": {"kind": "ConfigError", "message": "config: expected an object"}}
    assert not out.exists()


def test_simulate_event_log_and_report(cfg, tmp_path):
    circ = tmp_path / "circ.json"
    # (0,0) maps to an even-axis (magnet) dot, so it hosts a qubit.
    circ.write_text(json.dumps({"ops": [
        {"op": "1q", "cells": [[0, 0]], "param": "x90"},
        {"op": "meas", "cells": [[0, 0]]},
    ]}), encoding="utf-8")
    out = tmp_path / "events.jsonl"
    assert main(["simulate", "--config", cfg, "--circuit", str(circ),
                 "--out", str(out)]) == 0
    events = [json.loads(line) for line in out.read_text().splitlines()]
    assert any(e["event"] == "single_qubit_pulse" for e in events)
    assert any(e["event"] == "readout" for e in events)
    report = json.loads((tmp_path / "events.report.json").read_text())
    assert report["all_ok"] is True
    assert report["gates"][0]["rotated"] == [report["gates"][0]["target"]]


def _simulate_run(tmp_path, config, ops):
    """Run simulate on one config and circuit; the event log and report text."""
    cfg_path, circ_path = tmp_path / "config.json", tmp_path / "circuit.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    circ_path.write_text(json.dumps({"ops": ops}), encoding="utf-8")
    out = tmp_path / "events.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--circuit", str(circ_path),
                 "--out", str(out)]) == 0
    return out.read_text(), (tmp_path / "events.report.json").read_text()


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_simulate_report_stays_json_at_huge_hop_phases(tmp_path):
    """Hop phases near 1e308 used to overflow the summed phase, and the
    report said "net_phase": NaN. Each hop's phase is now folded into
    [0, 2pi) before it joins the frame, so the second gate's frame is the
    first one advanced again, not absorbed by the unfolded phase."""
    magnet, bare = 1e308, 1.7e308
    config = {"grid": {"rows": 4, "cols": 4}, "loop": True,
              "protocol": {"hop_phase_magnet": magnet, "hop_phase_bare": bare}}
    gate = {"op": "1q", "cells": [[0, 0]], "param": "x90"}
    _, report = _simulate_run(tmp_path, config, [gate, gate])
    gates = _strict_json(report)["gates"]
    two_pi = 2 * math.pi
    frame = 0.0
    for expected in gates:  # each gate hops onto a bare dot, then back onto a magnet dot
        frame = ((frame + bare % two_pi) % two_pi + magnet % two_pi) % two_pi
        assert expected["frame_phase"] == frame
        assert expected["net_phase"] == 0.0
    assert gates[0]["frame_phase"] != gates[1]["frame_phase"]


def test_hop_phase_changes_the_report_not_the_event_log(tmp_path):
    """The hop-phase keys used to change no output: the report's net phase
    was 0.0 for every finite phase."""
    ops = [{"op": "1q", "cells": [[0, 0]], "param": "x90"}, {"op": "meas", "cells": [[0, 2]]},
           {"op": "1q", "cells": [[0, 2]], "param": "x90"}]
    runs = []
    for bare in (0.3, 0.7):
        config = {"grid": {"rows": 4, "cols": 4},
                  "protocol": {"hop_phase_magnet": 0.1, "hop_phase_bare": bare}}
        (tmp_path / str(bare)).mkdir()
        runs.append(_simulate_run(tmp_path / str(bare), config, ops))
    (events_a, report_a), (events_b, report_b) = runs
    assert events_a == events_b
    assert report_a != report_b


def test_simulate_rejects_two_qubit_ops(cfg, tmp_path, capsys):
    circ = tmp_path / "circ.json"
    circ.write_text(json.dumps({"ops": [{"op": "2q", "cells": [[0, 0], [1, 0]]}]}),
                    encoding="utf-8")
    code = main(["simulate", "--config", cfg, "--circuit", str(circ)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "CircuitError"


@pytest.mark.parametrize("cell", [[9, 9], [-1, 0]])
def test_simulate_names_the_op_of_a_cell_outside_the_grid(cell, tmp_path, capsys):
    """simulate used to exit with InvalidGrid and no op index; it now gives
    the CircuitError that schedule gives."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": {"rows": 4, "cols": 4}, "loop": True}), encoding="utf-8")
    circ = tmp_path / "circ.json"
    circ.write_text(json.dumps({"ops": [{"op": "1q", "cells": [[0, 0]], "param": "x90"},
                                        {"op": "meas", "cells": [cell]}]}), encoding="utf-8")
    errors = []
    for command in ("schedule", "simulate"):
        code = main([command, "--config", str(cfg), "--circuit", str(circ),
                     "--out", str(tmp_path / "out.json")])
        errors.append((code, json.loads(capsys.readouterr().err)))
    message = f"op 1: cell {tuple(cell)} outside grid"
    assert errors == [(2, {"error": {"kind": "CircuitError", "message": message}})] * 2


def test_sweep_reference_points(cfg, capsys):
    assert main(["sweep", "--config", cfg, "--n", "100,10000,1000000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,variant,steps_one_way,steps_round_trip,length_um"
    assert lines[1:] == [
        "100,trilinear,5,10,0.5",
        "10000,trilinear,50,100,5",
        "1000000,trilinear,500,1000,50",
    ]


def test_sweep_json_format(cfg, capsys):
    assert main(["sweep", "--config", cfg, "--n", "100", "--variants",
                 "trilinear,semi2d", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [p["variant"] for p in doc["points"]] == ["trilinear", "semi2d"]


def test_outputs_are_deterministic(cfg, circuit_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["schedule", "--config", cfg, "--circuit", circuit_file,
                     "--out", str(out), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_error_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"rows": 4, "cols": 1}}), encoding="utf-8")
    code = main(["map", "--config", str(bad)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "ConfigError"
    assert "grid.cols" in err["error"]["message"]


@pytest.mark.parametrize("doc, message", [
    ({"mux": {"n_ac_input": 2}, "durations": {"readuot": 3}}, "mux.n_ac_input: unknown key"),
    ({"durations": {"readuot": 3}}, "durations.readuot: unknown key"),
    ({"grid": {"rows": 4, "cols": 4}, "seeed": 1}, "config.seeed: unknown key"),
    ({"protocol": {"hop_phase": 0.1}}, "protocol.hop_phase: unknown key"),
    # The fidelity budget and the DC refresh plan take their own parameters.
    *(({"fidelity": {key: 0.99}}, "config.fidelity: unknown key")
      for key in ("f_step", "f_transfer", "f_1q", "f_2q", "f_readout")),
    ({"mux": {"n_dc_inputs": 9}}, "mux.n_dc_inputs: unknown key"),
    ({"mux": {"dc_refresh_interval_s": 1.0}}, "mux.dc_refresh_interval_s: unknown key"),
    ({"mux": {"dc_hold_time_s": 0.2}}, "mux.dc_hold_time_s: unknown key"),
])
def test_config_rejects_unknown_keys(doc, message):
    with pytest.raises(ConfigError) as info:
        config_from_json(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("doc, message", [
    ({"durations": {"readout": 0}}, "durations.readout: must be >= 1, got 0"),
    ({"durations": {"two_qubit_gate": 1.5}}, "durations.two_qubit_gate: expected an integer, got 1.5"),
    ({"mux": {"n_ac_inputs": 0}}, "mux.n_ac_inputs: must be >= 1, got 0"),
    ({"mux": {"readout_coexists_with_shuttle": 1}},
     "mux.readout_coexists_with_shuttle: expected true/false, got 1"),
    ({"m_rows": 9}, "config.m_rows: must be <= grid.cols (8), got 9"),
    ({"protocol": {"hop_phase_bare": float("nan")}},
     "protocol.hop_phase_bare: expected a finite number, got nan"),
    ({"pitch_nm": float("inf")}, "config.pitch_nm: expected a finite number, got inf"),
    ({"protocol": {"hop_phase_magnet": float("-inf")}},
     "protocol.hop_phase_magnet: expected a finite number, got -inf"),
    ({"durations": {"intra_stack_transfer": 1}}, "durations.intra_stack_transfer: unknown key"),
])
def test_config_value_errors_name_the_field(doc, message):
    with pytest.raises(ConfigError) as info:
        config_from_json(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("command, doc, message", [
    (["sweep", "--n", "100"], {"grid": {"rows": 4, "cols": 4}, "m_rows": 5},
     "config.m_rows: must be <= grid.cols (4), got 5"),
    (["map"], {"m_rows": 9}, "config.m_rows: must be <= grid.cols (8), got 9"),
])
def test_cross_field_config_errors_exit_1(command, doc, message, tmp_path, capsys):
    """An m_rows above grid.cols used to escape the config check and exit 2
    with the layout's own error (InvalidGrid) and no field path."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command[0], "--config", str(path), *command[1:]]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": {"kind": "ConfigError", "message": message}}


@pytest.mark.parametrize("command, text, message", [
    ("simulate", '{"protocol": {"hop_phase_bare": NaN}}',
     "protocol.hop_phase_bare: expected a finite number, got nan"),
    ("sweep", '{"pitch_nm": Infinity}', "config.pitch_nm: expected a finite number, got inf"),
])
def test_non_finite_config_numbers_exit_1(command, text, message, tmp_path, capsys):
    """json.load parses NaN and Infinity. Both used to run: simulate wrote
    "net_phase": NaN, which is not JSON, and sweep printed length_um inf."""
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"ops": [{"op": "1q", "cells": [[0, 0]], "param": "x90"}]}),
                       encoding="utf-8")
    extra = {"simulate": ["--circuit", str(circuit)], "sweep": ["--n", "100"]}[command]
    assert main([command, "--config", str(path), *extra]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": {"kind": "ConfigError", "message": message}}


def test_config_reads_every_documented_key():
    config = config_from_json({
        "mux": {"n_ac_inputs": 5, "readout_coexists_with_shuttle": False},
        "durations": {"horizontal_step": 2, "vertical_transfer": 3, "two_qubit_gate": 4,
                      "single_qubit_pulse": 5, "readout": 6},
    })
    assert config.mux == tl.MuxConfig(5, False)
    assert config.durations == tl.Durations(2, 3, 4, 5, 6)


@pytest.mark.parametrize("what, text", [
    ("circuit", '{"ops": [{"op": "1q", "cells": [[0, 0]], "param": NaN}]}'),
    ("circuit", '{"ops": [{"op": "1q", "cells": [[0, 0]], "param": -Infinity}]}'),
    ("defects file", '{"sites": [["M", NaN]]}'),
])
def test_non_standard_json_constants_in_inputs_exit_1(what, text, cfg, tmp_path, capsys):
    """A NaN circuit param was copied into the schedule as "param": NaN,
    which is not JSON, and the command exited 0."""
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    empty = tmp_path / "empty.json"
    empty.write_text('{"ops": []}', encoding="utf-8")
    flag = "--circuit" if what == "circuit" else "--defects"
    argv = ["schedule", "--config", cfg, "--circuit", str(empty), flag, str(path)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "ConfigError"
    assert err["message"].startswith(f"{what} {path}: ")
    assert err["message"].endswith(" is not a JSON number")


@pytest.mark.parametrize("what, text, number", [
    ("circuit", '{"ops": [{"op": "1q", "cells": [[0, 0]], "param": 1e400}]}', "1e400"),
    ("circuit", '{"ops": [{"op": "1q", "cells": [[0, 0]], "param": -1e400}]}', "-1e400"),
    ("defects file", '{"sites": [["M", 1E+999]]}', "1E+999"),
])
def test_overflowing_numbers_in_inputs_exit_1(what, text, number, cfg, tmp_path, capsys):
    """1e400 parsed as inf, and schedule exited 0 with "param": Infinity,
    which is not JSON."""
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    empty = tmp_path / "empty.json"
    empty.write_text('{"ops": []}', encoding="utf-8")
    flag = "--circuit" if what == "circuit" else "--defects"
    out = tmp_path / "sched.json"
    argv = ["schedule", "--config", cfg, "--circuit", str(empty), flag, str(path),
            "--out", str(out)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": {
        "kind": "ConfigError", "message": f"{what} {path}: {number} is not a finite number"}}
    assert not out.exists()


@pytest.mark.parametrize("param", [
    b"[" * 100_000 + b"]" * 100_000,  # past the decoder's recursion limit on every Python
    b"9" * 5000,                      # past the int conversion limit of 4300 digits
    b'"\xff"',                        # not UTF-8
], ids=["deep", "huge_int", "not_utf8"])
def test_inputs_the_json_reader_rejects_exit_1(param, cfg, tmp_path, capsys):
    """Each ended in a raw RecursionError, ValueError or UnicodeDecodeError
    traceback."""
    path = tmp_path / "circuit.json"
    path.write_bytes(b'{"ops": [{"op": "1q", "cells": [[0, 0]], "param": %s}]}' % param)
    out = tmp_path / "sched.json"
    assert main(["schedule", "--config", cfg, "--circuit", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "ConfigError"
    assert err["message"].startswith(f"circuit {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    b"[" * 100_000 + b"]" * 100_000,             # past the decoder's recursion limit
    b'{"seed": ' + b"9" * 5000 + b"}",            # past the int conversion limit
    b'{"grid": {"rows": 4, "cols": 4}, "x": "\xe9"}',  # a Latin-1 byte, not UTF-8
], ids=["deep", "huge_int", "latin1"])
def test_configs_the_json_reader_rejects_exit_1(text, tmp_path, capsys):
    """The config was read with a bare json.load, so `map --config` ended in
    a raw RecursionError, ValueError or UnicodeDecodeError traceback on
    each; it now goes through the reader that circuit and defects files use."""
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main(["map", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "ConfigError"
    assert err["message"].startswith(f"config {path}: ")


@pytest.mark.parametrize("command, text, code, kind, message", [
    ("schedule", '{"ops": ["1q"]}', 2, "CircuitError", "op 0: expected an object whose cells are"),
    ("schedule", '{"ops": [{"op": "2q", "cells": [[0, 0], [1]]}]}', 2, "CircuitError",
     "op 0: expected an object whose cells are"),
    ("schedule", '{"ops": 5}', 2, "CircuitError", "circuit: expected a list of ops"),
    ("schedule", '{"nope": 1}', 2, "CircuitError", "circuit: expected a list of ops"),
    ("schedule", '{"ops": [{"op": "1q", "cells": [[0.9, 0]]}]}', 2, "CircuitError",
     "op 0: expected an object whose cells are"),
    ("schedule", '{"ops": [{"op": "meas", "cells": [["0", "1"]]}]}', 2, "CircuitError",
     "op 0: expected an object whose cells are"),
    ("schedule", '{"ops": [{"op": "meas", "cells": [[true, 1]]}]}', 2, "CircuitError",
     "op 0: expected an object whose cells are"),
    ("map", "[1, 2]", 1, "ConfigError", "defects file "),
    ("map", '{"sites": [["U", 1.7]]}', 2, "InvalidSite", "bad site object ['U', 1.7]"),
    ("map", '{"sites": 5}', 2, "InvalidSite", "bad defects object"),
    ("map", '{"sites": [["U", 1, 0, 9]]}', 2, "InvalidSite", "bad site object ['U', 1, 0, 9]"),
    ("map", '{"barriers": [[["M", 1], ["M", 2, 0, 0]]]}', 2, "InvalidSite",
     "bad site object ['M', 2, 0, 0]"),
])
def test_malformed_circuit_and_defect_files_give_error_json(command, text, code, kind, message,
                                                            cfg, tmp_path, capsys):
    """Each used to end in a Python traceback, or to run on a truncated value
    ([0.9, 0] became (0, 0), ["U", 1.7] and ["U", 1, 0, 9] became (U,1))."""
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    flag = "--circuit" if command == "schedule" else "--defects"
    assert main([command, "--config", cfg, flag, str(path)]) == code
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == kind
    assert err["message"].startswith(message)


@pytest.mark.parametrize("argv", [
    ["simulate", "--circuit", "c.json", "--seed", "1"],
    ["map", "--seed", "1"],
    ["route", "--gate", "0,0", "0,1", "--seed", "1"],
    ["sweep", "--n", "100", "--seed", "1"],
    ["schedule", "--circuit", "c.json", "--format", "json"],
    ["map", "--format", "json"],
])
def test_flags_a_command_does_not_read_are_usage_errors(argv, cfg, capsys):
    """--seed (read by schedule only) and --format (read by sweep only) were
    accepted by every subcommand and then ignored."""
    with pytest.raises(SystemExit) as info:
        main([argv[0], "--config", cfg, *argv[1:]])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["schedule", "--circuit"],
    ["route", "--gate", "0,5", "1,5"],
])
def test_stacked_layouts_exit_2_in_route_and_schedule(command, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": {"rows": 4, "cols": 8}, "m_rows": 2}), encoding="utf-8")
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"ops": [{"op": "2q", "cells": [[0, 5], [1, 5]]}]}),
                       encoding="utf-8")
    if command[0] == "schedule":
        command = command + [str(circuit)]
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {
        "kind": "CircuitError",
        "message": "m_rows=2: gates on stacked layouts are not modelled; "
                   "route and schedule need m_rows=1"}}


def test_partitioned_route_error_json(cfg, tmp_path, capsys):
    defects = tmp_path / "defects.json"
    defects.write_text(json.dumps({
        "sites": [["U", 3], ["M", 3], ["L", 3]], "barriers": []}), encoding="utf-8")
    code = main(["route", "--config", cfg, "--gate", "0,0", "0,3",
                 "--defects", str(defects)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "Partitioned"


def test_unknown_variant_rejected(cfg, capsys):
    code = main(["sweep", "--config", cfg, "--n", "100", "--variants", "donut"])
    assert code == 1
    assert "variant" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_module_entry_point(cfg, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "trilinear", "sweep", "--config", cfg, "--n", "100"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert result.returncode == 0
    assert "100,trilinear,5,10,0.5" in result.stdout


def test_repeated_main_calls_match_fresh_interpreters(tmp_path, capsys, monkeypatch):
    """`main` keeps its parser, layouts and what it built on them (moves,
    schedule texts) across calls. Each call of a sequence in one interpreter
    must write what it writes in a fresh one, and a --seed must not carry
    over to the next call."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to this width

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    grid = {"rows": 4, "cols": 4}
    config_a = write("a.json", {"grid": grid, "seed": 3})
    config_b = write("b.json", {"grid": grid, "seed": 3, "loop": True})
    config_bad = write("bad.json", {"grid": grid, "pitch_nm": -1})
    inputs = ["--circuit", write("circuit.json", {"ops": [
        {"op": "2q", "cells": [[1, 0], [2, 3]]}, {"op": "2q", "cells": [[0, 2], [1, 2]]},
        {"op": "1q", "cells": [[1, 1]], "param": "x90"}, {"op": "meas", "cells": [[0, 1]]}]}),
              "--defects", write("defects.json", {"sites": [["M", 5]]})]
    # Another circuit on config_a's layout, so the last call writes texts
    # that this one kept there: the same gate, cells in another order.
    other = ["--circuit", write("other.json", {"ops": [
        {"op": "2q", "cells": [[0, 2], [1, 2]]}, {"op": "meas", "cells": [[1, 1]]},
        {"op": "1q", "cells": [[0, 1]], "param": "x"}, {"op": "2q", "cells": [[1, 0], [2, 2]]}]}),
             *inputs[2:]]
    calls = [["schedule", "--config", config_a, *inputs],
             ["schedule", "--config", config_a, "--bogus"],
             ["schedule", "--config", config_bad, *inputs],
             ["schedule", "--config", config_b, *inputs, "--seed", "9"],
             ["schedule", "--config", config_a, *other],
             ["schedule", "--config", config_a, *inputs]]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    fresh = []
    for argv in calls:
        result = subprocess.run([sys.executable, "-m", "trilinear", *argv],
                                capture_output=True, timeout=60, check=False)
        # Decoded as bytes: text mode would turn the summary CSV's \r\n into \n.
        fresh.append((result.returncode, result.stdout.decode(), result.stderr.decode()))
    assert in_process == fresh
    assert [code for code, _, _ in in_process] == [0, 2, 1, 0, 0, 0]
    docs = [json.JSONDecoder().raw_decode(in_process[i][1])[0] for i in (0, 3, 4, 5)]
    assert [doc["seed"] for doc in docs] == [3, 9, 3, 3]
    assert docs[0]["ticks"] != docs[1]["ticks"]  # the loop changed the routes
    assert docs[2]["ticks"] != docs[0]["ticks"]
    assert in_process[5] == in_process[0]


def test_validate_numbers_outside_sites_within_one_call():
    """Config layouts are shared across calls. The validator numbers the sites
    it meets, outside the layout too, for that call only: a clean schedule
    validated after it is clean, and a second outside site is named as
    itself."""
    config = config_from_json({"grid": {"rows": 4, "cols": 4}})
    layout = config.layout()
    schedule = tl.scheduler.compile(tl.Circuit((tl.OneQubit((0, 0), "x90"),)), layout)
    sop = schedule.ops[0]
    far, farther = tl.SiteCoord(tl.Row.MIDDLE, 99), tl.SiteCoord(tl.Row.UPPER, 98)
    bad = tl.Schedule((sop._replace(op=sop.op._replace(sites=(far,))),
                       sop._replace(op=sop.op._replace(sites=(farther,)),
                                    start_tick=sop.end_tick)),
                      2 * schedule.makespan, schedule.initial_positions)
    first = [v.message for v in tl.scheduler.validate_schedule(bad, layout)]
    assert tl.scheduler.validate_schedule(schedule, config.layout()) == []
    assert "site (M,99) outside layout" in first
    assert "site (U,98) outside layout" in first
    for tick, site in ((0, "(M,99)"), (4, "(U,98)")):
        assert (f"qubit (0, 0): single_qubit_pulse at tick {tick} acts at {site}, "
                "qubit is at (U,0)") in first
    assert config.layout() is layout


def test_unrecoverable_defects_raise_on_every_call(cfg, tmp_path, capsys):
    """Severing defects raise on every call, from the library and through
    `main` in one process: a failed call leaves nothing behind that a
    repeat could reuse."""
    layout = config_from_json({"grid": {"rows": 4, "cols": 4}}).layout()
    cut = {"sites": [["U", 3], ["M", 3], ["L", 3]]}
    for _ in range(2):
        with pytest.raises(tl.Unrecoverable):
            tl.reconfigure_for_defects(layout, tl.topology.defects_from_obj(cut))
    defects = tmp_path / "defects.json"
    defects.write_text(json.dumps(cut), encoding="utf-8")
    circuit = tmp_path / "circuit.json"
    circuit.write_text('{"ops": [{"op": "meas", "cells": [[0, 0]]}]}', encoding="utf-8")
    argv = ["schedule", "--config", cfg, "--circuit", str(circuit), "--defects", str(defects)]
    errors = []
    for _ in range(2):
        assert main(argv) == 2
        errors.append(json.loads(capsys.readouterr().err)["error"]["kind"])
    assert errors == ["Unrecoverable", "Unrecoverable"]


def _seeded_circuit(rng, rows, cols, n_ops, avoid=frozenset()):
    """n_ops random 1q/2q/meas ops on same-row and neighbouring-row pairs."""
    cells = [(r, c) for r in range(rows) for c in range(cols) if (r, c) not in avoid]
    ops = []
    while len(ops) < n_ops:
        kind = rng.choice(("1q", "2q", "2q", "meas"))
        a = rng.choice(cells)
        if kind == "2q":
            b = rng.choice([c for c in cells if c != a and abs(c[0] - a[0]) <= 1])
            ops.append({"op": "2q", "cells": [list(a), list(b)]})
        elif kind == "1q":
            ops.append({"op": "1q", "cells": [list(a)], "param": "x90"})
        else:
            ops.append({"op": "meas", "cells": [list(a)]})
    return {"schema_version": 1, "ops": ops}


# sha256 of the schedule JSON and summary CSV on two fixed inputs. The
# outputs are promised byte-identical across refactors; a digest may only
# change together with a deliberate change to the schedules themselves.
GOLDEN_SCHEDULES = {
    "grid16": ("ee26ed32027cdcee16e693c2fba06babce85d697f4b584682d531f3545e7c1f0",
               "bcaf851de334156c479db4094225ff08a52031e108af07d4b37c85a235ea08b6"),
    "loop8_dead_middle": ("9933799d07796c32e90bebfde35b165f0fe01590729dabf73cd86625ce8ecacc",
                          "f9481ac1f9d94ed3ae4f51395f967f82d8b3d8f69e77be3a56caf40529578d2e"),
    "loop6x7_mixed_params": ("d064834276307e55afe916cd6d967efc1913b2d81d3ea285fdb667bd26869b86",
                             "f492d342de1c54950de61b73aca924d01953689246ef5d7123029e865847a6d6"),
}

# 1q params of mixed JSON types, cycled over the 1q ops of the third golden case.
_MIXED_PARAMS = (0.5, 1e-07, -0.0, 3, True, {"theta": 1.5707963267948966, "axis": "y"},
                 [1, 2.5, None], 1e+16, "\u03c9/2")


def _golden_inputs(name):
    if name == "grid16":
        config = {"grid": {"rows": 16, "cols": 16}}
        return config, _seeded_circuit(random.Random(16), 16, 16, 200), None
    if name == "loop6x7_mixed_params":
        config = {"grid": {"rows": 6, "cols": 7}, "loop": True, "seed": 987654321}
        defects = {"sites": [["M", 10]], "barriers": []}
        # (2,3) and (3,0) sit next to the dead Middle dot: sacrificed.
        circuit = _seeded_circuit(random.Random(67), 6, 7, 60, {(2, 3), (3, 0)})
        ones = [op for op in circuit["ops"] if op["op"] == "1q"]
        for i, op in enumerate(ones):
            op["param"] = _MIXED_PARAMS[i % len(_MIXED_PARAMS)]
        return config, circuit, defects
    config = {"grid": {"rows": 8, "cols": 8}, "loop": True,
              "mux": {"n_ac_inputs": 5, "readout_coexists_with_shuttle": False}}
    defects = {"sites": [["M", 9]], "barriers": []}
    # (2,1) and (1,5) sit at axis 9, cut off from the Middle row: sacrificed.
    avoid = {(2, 1), (1, 5)}
    return config, _seeded_circuit(random.Random(8), 8, 8, 80, avoid), defects


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEDULES))
def test_schedule_outputs_match_golden_digests(name, tmp_path):
    config, circuit, defects = _golden_inputs(name)
    cfg_path, circ_path = tmp_path / "config.json", tmp_path / "circuit.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    circ_path.write_text(json.dumps(circuit), encoding="utf-8")
    argv = ["schedule", "--config", str(cfg_path), "--circuit", str(circ_path),
            "--out", str(tmp_path / "sched.json")]
    if defects is not None:
        defects_path = tmp_path / "defects.json"
        defects_path.write_text(json.dumps(defects), encoding="utf-8")
        argv += ["--defects", str(defects_path)]
    assert main(argv) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("sched.json", "sched.summary.csv"))
    assert digests == GOLDEN_SCHEDULES[name]


# sha256 of the simulate event log and report on a fixed input: an 8x8
# loop, 200 seeded x90/meas ops in a 3:1 mix on qubit-hosting cells, and
# non-zero hop phases so the virtual-Z frames are exercised.
GOLDEN_SIMULATE = ("7e67ea087adad03184e0374f81eb27891ad956df16110ce940c2c88aa7a5523a",
                   "fa91431b4f3648dead16ce872c941595b725f42749b22625133537502e0ebf93")


def test_simulate_outputs_match_golden_digests(tmp_path):
    config = {"grid": {"rows": 8, "cols": 8}, "loop": True,
              "protocol": {"hop_phase_magnet": 0.37, "hop_phase_bare": 0.81}}
    layout = tl.map_to_trilinear(tl.GridSpec(8, 8), loop=True)
    live = [(r, c) for r in range(8) for c in range(8)
            if site_class(layout.grid_to_site((r, c))) is SiteClass.MAGNET]
    rng = random.Random(200)
    kinds = ["1q"] * 150 + ["meas"] * 50
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        cell = list(rng.choice(live))
        if kind == "1q":
            ops.append({"op": "1q", "cells": [cell], "param": "x90"})
        else:
            ops.append({"op": "meas", "cells": [cell]})
    cfg_path, circ_path = tmp_path / "config.json", tmp_path / "circuit.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    circ_path.write_text(json.dumps({"schema_version": 1, "ops": ops}), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path), "--circuit", str(circ_path),
                 "--out", str(tmp_path / "events.jsonl")]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("events.jsonl", "events.report.json"))
    assert digests == GOLDEN_SIMULATE


# sha256 of the simulate event log and report on layouts the first digest
# misses: a non-loop odd-C stacked array, and a loop whose single sensor per
# row sits half the loop away from some qubits, with a dead outer dot and a
# dead outer barrier in the walks. Readouts there leave the straight row walk.
GOLDEN_SIMULATE_DETOURS = {
    "grid5x7_stacked": ("4d2f142980e92cd55e94728e8da445f3276f4f0e032b28ef6614b5b6a544e167",
                        "84f45559ea5f96a2d6d68809c600355beca580002471865491644597f5881ac6"),
    "loop6x8_dead_outer": ("23f5e4b40cac3b9e14930546509d9c1a9d7ee405b744bcd14692f007c276ba1d",
                           "c4292334c77662465e0815467317adb51685e584577b2a688ca743f6d128fcee"),
}


def _detour_inputs(name):
    if name == "grid5x7_stacked":
        config = {"grid": {"rows": 5, "cols": 7}, "m_rows": 2,
                  "protocol": {"hop_phase_magnet": 1e-07, "hop_phase_bare": 6.283185307179586,
                               "set_spacing": 3}}
        return config, None, random.Random(57)
    config = {"grid": {"rows": 6, "cols": 8}, "loop": True,
              "protocol": {"hop_phase_magnet": 0.37, "hop_phase_bare": 0.81,
                           "set_spacing": 24}}
    defects = {"sites": [["L", 6]], "barriers": [[["U", 3], ["U", 4]]]}
    return config, defects, random.Random(68)


@pytest.mark.parametrize("name", sorted(GOLDEN_SIMULATE_DETOURS))
def test_simulate_detour_outputs_match_golden_digests(name, tmp_path):
    config, defects, rng = _detour_inputs(name)
    layout = tl.map_to_trilinear(tl.GridSpec(**config["grid"]), loop=config.get("loop", False),
                                 m_rows=config.get("m_rows", 1))
    dead = tl.topology.defects_from_obj(defects)
    live = [cell for cell in layout.grid.cells()
            if site_class(layout.grid_to_site(cell)) is SiteClass.MAGNET
            and not dead.is_dead(layout.grid_to_site(cell))]
    ops = []
    for i in range(120):
        cell = list(rng.choice(live))
        if i % 3:
            ops.append({"op": "1q", "cells": [cell], "param": "x90"})
        else:
            ops.append({"op": "meas", "cells": [cell]})
    cfg_path, circ_path = tmp_path / "config.json", tmp_path / "circuit.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    circ_path.write_text(json.dumps({"schema_version": 1, "ops": ops}), encoding="utf-8")
    argv = ["simulate", "--config", str(cfg_path), "--circuit", str(circ_path),
            "--out", str(tmp_path / "events.jsonl")]
    if defects is not None:
        defects_path = tmp_path / "defects.json"
        defects_path.write_text(json.dumps(defects), encoding="utf-8")
        argv += ["--defects", str(defects_path)]
    assert main(argv) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("events.jsonl", "events.report.json"))
    assert digests == GOLDEN_SIMULATE_DETOURS[name]


# sha256 of the route and map outputs on an 8x8 grid: stdout for a run that
# exits 0, the error JSON on stderr for the one that exits 2. The route
# counts are read back from the plan's ops, so these pin that reading too.
GOLDEN_ROUTE_MAP = {
    "route_in_place":
        "c37ddf6b5371602a90a0ed9d7dd74140c110be72e4dcde2342bd76449fce9019",
    "route_vertical":
        "d9f7643a1d6f7c8dbc09dfb0c993f2cf80a55416f1cf05f39cacef42186b444e",
    "route_same_row":
        "ef366b4777af0bb3004e5821c0ecf46505e232f1bfbb35a8faf335b4c81c19d8",
    "route_neighbouring_rows":
        "e52e15c5b04ce9dc3b76f20f2ad695fdc7974542b90ca1f5df25131b23220e32",
    "route_loop_wrap":
        "30c43ce8ea1d03fbd7e8aa6baaf675be45a73a5a2e1230abb5a05427ea6624c7",
    "route_detour":
        "6275f71ea55d38951f780306ff3e976def4bcdcc555d91f03f5550d45af29562",
    "route_partitioned":
        "9b4abe2ffebdab637ee8c77e3c930423ad7f1a3f4a7a6d279fa1f1ccf1d55123",
    "map_defects":
        "74c45f24d9e2b4d1cb51fb4d3ec7b9d7b5eed2a984c88c724b0ef855b431d7e2",
}


def _route_map_inputs(name):
    """(config, argv after --config, defects or None, exit code)."""
    config = {"grid": {"rows": 8, "cols": 8}}
    gates = {"route_in_place": ("3,4", "3,5"), "route_vertical": ("0,2", "1,2"),
             "route_same_row": ("2,0", "2,7"), "route_neighbouring_rows": ("2,1", "3,6"),
             "route_loop_wrap": ("0,3", "7,3"), "route_detour": ("0,2", "1,2"),
             "route_partitioned": ("0,2", "1,2")}
    if name == "map_defects":
        defects = {"sites": [["U", 5], ["M", 11], ["L", 30]],
                   "barriers": [[["U", 8], ["U", 9]], [["M", 20], ["M", 21]],
                                [["L", 14], ["M", 14]], [["L", 2], ["L", 3]]]}
        return config, ["map"], defects, 0
    if name == "route_loop_wrap":
        config = {**config, "loop": True}
    defects = {"route_detour": {"sites": [["M", 4]]},
               "route_partitioned": {"barriers": [[["U", 2], ["M", 2]]]}}.get(name)
    return config, ["route", "--gate", *gates[name]], defects, (
        2 if name == "route_partitioned" else 0)


@pytest.mark.parametrize("name", sorted(GOLDEN_ROUTE_MAP))
def test_route_and_map_outputs_match_golden_digests(name, tmp_path, capsys):
    config, argv, defects, code = _route_map_inputs(name)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    argv = [argv[0], "--config", str(cfg_path), *argv[1:]]
    if defects is not None:
        defects_path = tmp_path / "defects.json"
        defects_path.write_text(json.dumps(defects), encoding="utf-8")
        argv += ["--defects", str(defects_path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    text = captured.out if code == 0 else captured.err
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_ROUTE_MAP[name]
