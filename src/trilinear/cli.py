"""Command-line pipeline: map, route, schedule, simulate, sweep.

Every subcommand reads a JSON run config (--config), writes deterministic
JSON/CSV outputs, and exits non-zero with a machine-readable error JSON on
stderr when a pipeline error occurs (exit 1 for config/input problems,
exit 2 for routing/scheduling errors such as a partitioned array).

`main` may run many times in one process: the parser, recent layouts (with
the neighbour tuples, shared move micro-ops and cell sites their plans
touched, the set bit of each op compiled, and the schedule texts written on
them) and half-filled placements are built on first use, not at import, and
reused, as they are frozen or only read or follow from their keys alone; a
call that raises leaves nothing that changes a later call's output. The
writer keeps a text only for a value whose leaves are exact ints, strs, or
Row or MicroOpKind members, so a kept text never stands in for an equal value
that prints differently (True for 1), and plans keep a cell's site only for a
cell of two exact ints. Each call reconfigures for its defects afresh.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import metrics, protocol, router, scheduler, topology
from .config import RunConfig, _load_json_file, load_config
from .errors import CircuitError, ConfigError, TrilinearError
from .topology import SCHEMA_VERSION


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_defects(path: Optional[str], layout) -> topology.DefectMap:
    if path is None:
        return topology.NO_DEFECTS
    doc = _load_json_file(path, "defects file")
    if not isinstance(doc, dict):
        raise ConfigError(f"defects file {path}: expected an object, got {doc!r}")
    defects = topology.defects_from_obj(doc.get("defects", doc))
    defects.validate_against(layout)
    return defects


def _parse_cell(text: str) -> tuple[int, int]:
    try:
        r, c = text.split(",")
        return (int(r), int(c))
    except ValueError as exc:
        raise ConfigError(f"bad cell {text!r}, expected 'row,col'") from exc


# ----------------------------------------------------------------------
# Subcommands

def cmd_map(config: RunConfig, args) -> int:
    layout = config.layout()
    defects = _load_defects(args.defects, layout)
    _emit(_dump_json(topology.layout_to_json(layout, defects)), args.out)
    return 0


def cmd_route(config: RunConfig, args) -> int:
    layout = config.layout()
    defects = _load_defects(args.defects, layout)
    q_a, q_b = (_parse_cell(c) for c in args.gate)
    dr = abs(q_a[0] - q_b[0])
    dc = abs(q_a[1] - q_b[1])
    if (dr, dc) in ((1, 0), (0, 1)):
        plan = router.vertical_gate_plan(layout, q_a, q_b, defects, config.durations)
    else:
        plan = router.long_range_plan(layout, q_a, q_b, defects, config.durations)
    _emit(_dump_json(plan.to_json()), args.out)
    return 0


def cmd_schedule(config: RunConfig, args) -> int:
    layout = config.layout()
    defects = _load_defects(args.defects, layout)
    circuit = scheduler.circuit_from_json(_load_json_file(args.circuit, "circuit"))
    schedule = scheduler.compile(circuit, layout, defects, config.mux, config.durations)
    text, summary = scheduler.schedule_to_json(schedule, layout, config.seed)
    _emit(text, args.out)
    summary_path = args.summary
    if summary_path is None and args.out is not None:
        summary_path = str(Path(args.out).with_suffix(".summary.csv"))
    _emit(scheduler.summary_to_csv(summary), summary_path)
    return 0


def simulate_texts(circuit: scheduler.Circuit, layout: topology.TrilinearLayout,
                   defects: topology.DefectMap, fixture: protocol.ReadoutFixture,
                   phases: protocol.PhaseConfig, durations: router.Durations
                   ) -> tuple[str, str]:
    """The simulate event log (JSON lines) and addressability report.

    Both are written as text in one pass. The bytes are those of one
    json.dumps(event, sort_keys=True) per line and of json.dumps(report,
    sort_keys=True, indent=2) + "\n". Each gate entry carries its target's
    virtual-Z frame after the gate; its `net_phase`, the frame less the
    correction software applies, is 0.0.

    Every op returns its qubit home, so a qubit's gates (or readouts) share
    one plan per call: the protocol op and audit run once, and a repeat only
    writes its ticks and folds its frame. Plans are keyed by (cell, is gate):
    the rotation reaches only the pulse's `param`, which nothing here reads.
    """
    state = protocol.init_half_filled(layout, defects)
    # A plan: each event line's text up to its tick value, that tick's offset,
    # the ticks, the folded hop phases, the qubit and, for a gate, the entry's
    # texts around its frame and op index; tuples the collector stops tracking.
    plans, frames, lines, gates = {}, {}, [], []
    sites: dict = {}  # site -> (its event text from the site key on, its hop phase)
    all_ok, tick = True, 0
    for index, cop in enumerate(circuit.ops):
        if isinstance(cop, scheduler.TwoQubit):
            raise CircuitError(f"op {index}: two-qubit ops are outside the half-filled "
                               "protocol simulator; use the schedule command")
        key = (cop.cell, isinstance(cop, scheduler.OneQubit))
        if key not in plans:
            if not layout.grid.contains(cop.cell):
                raise CircuitError(f"op {index}: cell {cop.cell} outside grid")
            site = layout.grid_to_site(cop.cell)
            qubit = state.qubit_at(site)
            if qubit is None:
                raise CircuitError(f"op {index}: cell {cop.cell} maps to {site}, which hosts "
                                   "no qubit in the half-filled scheme (bare or dead dot)")
            entry = None
            if key[1]:
                ops = protocol.addressed_single_qubit_gate(state, qubit, cop.rotation, defects,
                                                           durations)
                report = protocol.audit_addressed_gate(state, qubit, ops)
                all_ok = all_ok and report.ok
                entry = tuple(scheduler._block("{}", [
                    f'"bystanders": {scheduler._ints_text(sorted(report.bystanders), 3)}',
                    f'"cell": {scheduler._ints_text(cop.cell, 3)}',
                    '"frame_phase": \0',
                    '"net_phase": 0.0',
                    f'"ok": {"true" if report.ok else "false"}',
                    '"op_index": \0',
                    f'"rotated": {scheduler._ints_text(sorted(report.rotated), 3)}',
                    f'"target": {qubit}',
                ], 2).split("\0"))
            else:
                ops = protocol.readout(state, qubit, fixture, defects, durations)
            heads, offsets, hops, offset = [], [], [], 0
            for op in ops:
                dst = op.dst
                known = sites.get(dst)
                if known is None:  # site_to_obj(dst) as text, as scheduler._site_text writes it
                    known = sites[dst] = (', "site": [{}], "tick": '.format(", ".join(
                        [scheduler._ROW_TEXT[dst.row], *map(str, dst[1:3 if dst.subrow else 2])])),
                        phases.folded_hop_phase(dst))
                heads.append(f'{{"event": {scheduler._KIND_TEXT[op.kind]}, "qubit": {qubit}'
                             + known[0])
                offsets.append(offset)
                offset += op.duration_ticks
                if op.is_move:
                    hops.append(known[1])
            plans[key] = (tuple(heads), tuple(offsets), offset, tuple(hops), qubit, entry)
        heads, offsets, ticks, hops, qubit, entry = plans[key]
        lines += [f"{head}{tick + off}}}\n" for head, off in zip(heads, offsets)]
        tick += ticks
        frame = frames[qubit] = protocol.add_hops(frames.get(qubit, 0.0), hops)
        if entry is not None:
            gates.append(f"{entry[0]}{json.dumps(frame)}{entry[1]}{index}{entry[2]}")

    report_text = scheduler._block("{}", [
        f'"all_ok": {json.dumps(all_ok)}',
        f'"gates": {scheduler._block("[]", gates, 1)}',
        f'"schema_version": {SCHEMA_VERSION}',
        f'"total_ticks": {tick}',
    ], 0) + "\n"
    return "".join(lines), report_text


def cmd_simulate(config: RunConfig, args) -> int:
    layout = config.layout()
    defects = _load_defects(args.defects, layout)
    circuit = scheduler.circuit_from_json(_load_json_file(args.circuit, "circuit"))
    events, report = simulate_texts(circuit, layout, defects, config.fixture(layout),
                                    config.phases, config.durations)
    _emit(events, args.out)
    report_path = args.report
    if report_path is None and args.out is not None:
        report_path = str(Path(args.out).with_suffix(".report.json"))
    _emit(report, report_path)
    return 0


_VARIANTS = {v.value: v for v in metrics.Variant}


def cmd_sweep(config: RunConfig, args) -> int:
    try:
        n_list = [int(x) for x in args.n.split(",") if x]
    except ValueError as exc:
        raise ConfigError(f"bad --n list {args.n!r}") from exc
    try:
        variants = [_VARIANTS[v] for v in args.variants.split(",") if v]
    except KeyError as exc:
        raise ConfigError(
            f"unknown variant {exc.args[0]!r}; choices: {sorted(_VARIANTS)}") from exc
    points = metrics.sweep_curve(n_list, variants, config.pitch_nm, args.m)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "points": [
                {
                    "N": p.n,
                    "variant": p.variant.value,
                    "steps_one_way": p.steps_one_way,
                    "steps_round_trip": p.steps_round_trip,
                    "length_um": p.length_one_way_um,
                    "rounded": p.rounded,
                }
                for p in points
            ],
        }
        _emit(_dump_json(doc), args.out)
    else:
        _emit(metrics.sweep_to_csv(points), args.out)
    return 0


# ----------------------------------------------------------------------
# Entry point

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilinear",
        description="Map, route, schedule and simulate trilinear dot arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")

    p_map = sub.add_parser("map", help="write the trilinear layout document")
    common(p_map)
    p_map.add_argument("--defects", default=None, help="defects JSON file")
    p_map.set_defaults(func=cmd_map)

    p_route = sub.add_parser("route", help="plan one two-qubit operation")
    common(p_route)
    p_route.add_argument("--gate", nargs=2, required=True, metavar="R,C",
                         help="the two grid cells, e.g. --gate 0,2 1,2")
    p_route.add_argument("--defects", default=None)
    p_route.set_defaults(func=cmd_route)

    p_sched = sub.add_parser("schedule", help="compile a circuit to a tick schedule")
    common(p_sched)
    p_sched.add_argument("--circuit", required=True, help="circuit JSON file")
    p_sched.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sched.add_argument("--defects", default=None)
    p_sched.add_argument("--summary", default=None, help="summary CSV path")
    p_sched.set_defaults(func=cmd_schedule)

    p_sim = sub.add_parser("simulate", help="run the half-filled protocol simulator")
    common(p_sim)
    p_sim.add_argument("--circuit", required=True)
    p_sim.add_argument("--defects", default=None)
    p_sim.add_argument("--report", default=None, help="addressability report path")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="shuttle-length scaling table")
    common(p_sweep)
    p_sweep.add_argument("--n", required=True, help="comma-separated qubit counts")
    p_sweep.add_argument("--variants", default="trilinear",
                         help="comma-separated: trilinear,m_row,semi2d")
    p_sweep.add_argument("--m", type=int, default=1, help="rows per side for m_row")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv",
                         help="tabular output format")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, getattr(args, "seed", None))
        return args.func(config, args)
    except ConfigError as exc:
        sys.stderr.write(_dump_json({"error": {"kind": "ConfigError", "message": str(exc)}}))
        return 1
    except TrilinearError as exc:
        sys.stderr.write(_dump_json(
            {"error": {"kind": type(exc).__name__, "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
