"""Independent checks of the CLI's outputs.

Schedules are read back from the CLI's JSON with the package's public
readers (`MicroOp.from_obj`, `site_from_obj`) and replayed by
`validate_schedule`. Everything else here is recomputed from the JSON by
the benchmark's own arithmetic: makespan, shuttle steps and peak distinct
waveforms, the whole-array spectator rule, and the simulate event log.
"""

from __future__ import annotations

import math

from workloads import Cell, Geometry

TWO_PI = 2.0 * math.pi
SHUTTLE_PHASES = ("shuttle_phase_1", "shuttle_phase_2", "shuttle_phase_3", "shuttle_phase_4")
_HEIGHT = {"U": 1, "M": 0, "L": -1}
_PULSE = {"two_qubit_gate": "two_qubit_pulse", "single_qubit_pulse": "one_qubit_drive",
          "readout": "readout_pulse"}


def read_schedule(doc: dict):
    """The CLI's schedule JSON as a `Schedule`, through the public readers."""
    from trilinear.router import MicroOp
    from trilinear.scheduler import Schedule, ScheduledOp
    from trilinear.topology import site_from_obj

    ops = []
    for tick in doc["ticks"]:
        for entry in tick["ops"]:
            partner = entry.get("partner")
            ops.append(ScheduledOp(
                qubit=tuple(entry["qubit"]), op=MicroOp.from_obj(entry),
                start_tick=tick["tick"],
                partner=tuple(partner) if partner is not None else None))
    initial = tuple((tuple(p["cell"]), site_from_obj(p["site"]))
                    for p in doc["initial_positions"])
    return Schedule(ops=tuple(ops), makespan=doc["makespan"], initial_positions=initial)


def _signals(geo: Geometry, entry: dict) -> set:
    kind = entry["kind"]
    if kind in _PULSE:
        return {_PULSE[kind]}
    (r0, a0), (r1, a1) = (s[:2] for s in entry["sites"])
    if kind == "horizontal_step":
        delta = a1 - a0
        if geo.loop:
            direction = "east" if delta % geo.length == 1 else "west"
        else:
            direction = "east" if delta > 0 else "west"
    else:
        direction = "up" if _HEIGHT[r1] > _HEIGHT[r0] else "down"
    return {(p, direction) for p in SHUTTLE_PHASES}


def schedule_figures(doc: dict, geo: Geometry) -> dict:
    """Makespan, shuttle steps and peak distinct waveforms, recomputed from
    the micro-ops alone."""
    makespan = 0
    steps = 0
    per_tick: dict[int, set] = {}
    for tick in doc["ticks"]:
        t0 = tick["tick"]
        for entry in tick["ops"]:
            t1 = t0 + entry["duration_ticks"]
            makespan = max(makespan, t1)
            steps += entry["kind"] == "horizontal_step"
            sigs = _signals(geo, entry)
            for t in range(t0, t1):
                per_tick.setdefault(t, set()).update(sigs)
    peak = max((len(s) for s in per_tick.values()), default=0)
    return {"makespan": makespan, "total_shuttle_steps": steps,
            "max_waveform_classes": peak}


def summary_mismatches(doc: dict, csv_text: str, figures: dict) -> list[str]:
    """Disagreements between the recomputed figures, the JSON summary and
    the summary CSV."""
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",") if lines else []
    if header != list(figures) or len(lines) != 2:
        return [f"summary CSV has an unexpected shape: {csv_text!r}"]
    csv_values = dict(zip(header, (int(x) for x in lines[1].split(","))))
    out = []
    for key, value in figures.items():
        if csv_values[key] != value or doc["summary"].get(key) != value:
            out.append(f"{key}: recomputed {value}, CSV {csv_values[key]}, "
                       f"JSON {doc['summary'].get(key)}")
    if doc["makespan"] != figures["makespan"]:
        out.append(f"makespan field {doc['makespan']} != recomputed {figures['makespan']}")
    return out


def spectator_sites(doc: dict, geo: Geometry, live: tuple[Cell, ...],
                    circuit: dict) -> list[tuple]:
    """Scheduled sites that are the home of a live qubit the circuit does
    not name."""
    named = {tuple(c) for op in circuit["ops"] for c in op["cells"]}
    homes = {geo.home(c) for c in live if c not in named}
    hit = set()
    for tick in doc["ticks"]:
        for entry in tick["ops"]:
            for site in entry["sites"]:
                if tuple(site[:2]) in homes:
                    hit.add(tuple(site[:2]))
    return sorted(hit)


# ----------------------------------------------------------------------
# Simulate

def _qubit_ids(geo: Geometry) -> dict:
    """Half-filled qubit ids: magnet (even-axis) dots up the Upper row, then
    the Lower row, with no dead dots."""
    sites = [(row, a) for row in ("U", "L") for a in range(0, geo.length, 2)]
    return {site: q for q, site in enumerate(sites)}


def expected_events(geo: Geometry, circuit: dict, spacing: int) -> tuple[list[dict], int]:
    """The event log the simulator must write, and its total ticks: a 1q
    gate is a hop to the bare dot on the right, the pulse and the hop back;
    a readout walks d steps along its row to the nearest sensor axis, reads
    out, walks back."""
    qid = _qubit_ids(geo)
    n = geo.length
    sensors = range(0, n, spacing)
    events = []
    tick = 0

    def emit(site, qubit, kind, duration):
        nonlocal tick
        events.append({"tick": tick, "site": list(site), "qubit": qubit, "event": kind})
        tick += duration

    for op in circuit["ops"]:
        home = geo.home(tuple(op["cells"][0]))
        row, axis = home
        q = qid[home]
        if op["op"] == "1q":
            bare = (row, (axis + 1) % n)
            emit(bare, q, "horizontal_step", 1)
            emit(bare, q, "single_qubit_pulse", 4)
            emit(home, q, "horizontal_step", 1)
        else:
            def dist(s):
                d = abs(s - axis)
                return min(d, n - d)
            target = min(sensors, key=lambda s: (dist(s), s))
            d = dist(target)
            step = 1 if (axis + d) % n == target else -1
            path = [(axis + step * k) % n for k in range(d + 1)]
            for a in path[1:]:
                emit((row, a), q, "horizontal_step", 1)
            emit((row, target), q, "readout", 10)
            for a in reversed(path[:-1]):
                emit((row, a), q, "horizontal_step", 1)
    return events, tick


def simulate_mismatches(events: list[dict], report: dict,
                        expected: tuple[list[dict], int], circuit: dict,
                        geo: Geometry) -> list[str]:
    expected_log, expected_ticks = expected
    out = []
    if not report.get("all_ok"):
        out.append("report all_ok is not true")
    qid = _qubit_ids(geo)
    targets = [qid[geo.home(tuple(op["cells"][0]))]
               for op in circuit["ops"] if op["op"] == "1q"]
    gates = report.get("gates", [])
    if [g["target"] for g in gates] != targets:
        out.append(f"{len(gates)} gates reported, targets differ from the circuit's "
                   f"{len(targets)} 1q ops")
    for g in gates:
        phase = g["net_phase"] % TWO_PI
        if g["rotated"] != [g["target"]] or g["bystanders"] or not g["ok"]:
            out.append(f"op {g['op_index']}: rotated {g['rotated']}, "
                       f"bystanders {g['bystanders']}")
        if min(phase, TWO_PI - phase) > 1e-9:
            out.append(f"op {g['op_index']}: net phase {g['net_phase']}")
    if len(events) != len(expected_log):
        out.append(f"{len(events)} events, expected {len(expected_log)}")
    elif events != expected_log:
        first = next(i for i, (a, b) in enumerate(zip(events, expected_log)) if a != b)
        out.append(f"event {first} is {events[first]}, expected {expected_log[first]}")
    if report.get("total_ticks") != expected_ticks:
        out.append(f"total_ticks {report.get('total_ticks')}, expected {expected_ticks}")
    return out


def simulate_figures(events: list[dict], report: dict) -> dict:
    """Simulated ticks, shuttle steps and peak distinct waveforms of a
    simulate run; its events run one after another, so the peak is the most
    any single event drives."""
    steps = sum(e["event"] == "horizontal_step" for e in events)
    peak = max((len(SHUTTLE_PHASES) if e["event"] == "horizontal_step" else 1
                for e in events), default=0)
    return {"makespan": report["total_ticks"], "total_shuttle_steps": steps,
            "max_waveform_classes": peak}
