"""Fixed-seed benchmark of the `trilinear schedule` and `simulate` CLIs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide_schedule --seed 1 --seconds 30 --trace 0

One client, one call at a time, in process through `trilinear.cli.main`
(a closed loop on a single thread). A run first passes once over the
workload's distinct circuits, then cycles through them again until
`--seconds` have passed; every call's outputs are read back and checked,
and every repeat must reproduce the first call's bytes. `--trace 1`
makes the same run, but wraps the package's functions after the first
pass and reports per-layer self times and counts instead of the
end-to-end metrics. The last line of stdout is the result JSON; the
digests of every output file go to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
WORK = Path(".perfbench")


def _import_package(root: Path):
    """Import `trilinear` from the checkout's own `src/`, never from
    anywhere else on the path."""
    src = (root / "src").resolve()
    if not (src / "trilinear" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {src / 'trilinear'}; run from the "
                 "root of a checkout")
    sys.path.insert(0, str(src))
    import trilinear

    if src not in Path(trilinear.__file__).resolve().parents:
        sys.exit(f"perfbench: imported trilinear from {trilinear.__file__}, not {src}")
    return trilinear


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Set-up

def inputs_digest(wl: workloads.Workload) -> str:
    """Digest of every generated input document."""
    h = hashlib.sha256(json.dumps(wl.config, sort_keys=True).encode())
    for job in wl.jobs:
        h.update(json.dumps(job.circuit, sort_keys=True).encode())
        h.update(json.dumps(job.defects.to_obj(), sort_keys=True).encode())
    return h.hexdigest()


def setup_child(name: str, seed: int, directory: Path) -> None:
    """One fresh-process set-up: import the package, generate the seeded
    inputs and write the run config. Prints when it started and ended, on
    the system-wide monotonic clock that `perf_counter` reads.

    The per-circuit input files are written later, outside any timed step,
    just before each circuit's first call: creating hundreds of small files
    takes anywhere from 0.05 s to 0.5 s on a shared disk, which would drown
    the set-up time the metric is there to watch."""
    t0 = time.perf_counter()
    _import_package(Path.cwd())
    wl = workloads.WORKLOADS[name](seed)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.json").write_text(json.dumps(wl.config, sort_keys=True))
    t1 = time.perf_counter()
    print(json.dumps({"start": t0, "end": t1, "inputs": inputs_digest(wl)}))


def measure_setup(name: str, seed: int, work: Path
                  ) -> tuple[list[float], list[float], list[str]]:
    """Runs the fresh set-up processes one after another. This process
    samples the machine's speed meanwhile, from its own warm interpreter, and
    rescales each child's time by it; a cold child's own probes would mostly
    time its cold start."""
    docs = []
    with speed.SpeedSampler() as sampler:
        for k in range(SETUP_REPEATS):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                 "--workload", name, "--seed", str(seed), "--dir", str(work / f"setup-{k}")],
                capture_output=True, text=True, timeout=150, check=False)
            if proc.returncode != 0:
                sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
            docs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    times = [(d["end"] - d["start"]) * sampler.factor(d["start"], d["end"]) for d in docs]
    raw = [d["end"] - d["start"] for d in docs]
    return times, raw, [d["inputs"] for d in docs]


# ----------------------------------------------------------------------
# One run

@dataclass
class Tally:
    """What a run measured, and what went wrong.

    `calls` and `checks` hold each step's wall-clock start and end by call
    number; `rescale` turns them into seconds at the reference speed."""

    calls: dict[int, tuple[float, float]] = field(default_factory=dict)
    checks: dict[int, tuple[float, float]] = field(default_factory=dict)
    call_s: dict[int, float] = field(default_factory=dict)
    check_s: dict[int, float] = field(default_factory=dict)
    scale: dict[int, float] = field(default_factory=dict)
    failures: Counter = field(default_factory=Counter)
    failed_calls: int = 0
    dirty_circuits: int = 0
    figures: list[dict] = field(default_factory=list)
    digests: dict[int, dict[str, str]] = field(default_factory=dict)
    bytes_written: list[int] = field(default_factory=list)

    def rescale(self, sampler: speed.SpeedSampler) -> None:
        for i, (t0, t1) in self.calls.items():
            self.call_s[i] = sampler.rescaled(t0, t1)
            self.scale[i] = sampler.factor(t0, t1)
        for i, (t0, t1) in self.checks.items():
            self.check_s[i] = sampler.rescaled(t0, t1)


class Bench:
    """One workload's inputs and outputs on disk, the CLI call and its checks."""

    def __init__(self, pkg, wl: workloads.Workload, inputs: Path, out: Path) -> None:
        self.pkg = pkg
        self.wl = wl
        self.inputs = inputs
        config = pkg.config.config_from_json(wl.config)
        self.layout = config.layout()
        self.mux = config.mux
        self.spacing = config.fixture(self.layout).spacing
        self.defect_maps = [pkg.topology.defects_from_obj(job.defects.to_obj())
                            for job in wl.jobs]
        if wl.command == "schedule":
            self.outputs = [out / "sched.json", out / "sched.summary.csv"]
        else:
            self.outputs = [out / "events.jsonl", out / "events.report.json"]
        # The simulate check's expected event logs, computed here so that no
        # timed check pays for them.
        self.expected = [checks.expected_events(wl.geometry, job.circuit, self.spacing)
                         for job in wl.jobs] if wl.command == "simulate" else []

    def prepare(self, k: int) -> list[str]:
        """The CLI arguments for job k. Removes the last call's outputs, and
        writes job k's input files if this is its first call."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        job = self.wl.jobs[k]
        circuit = self.inputs / f"circuit-{k}.json"
        defects = self.inputs / f"defects-{k}.json"
        if not circuit.exists():
            circuit.write_text(json.dumps(job.circuit))
            if job.defects != workloads.NO_DEFECTS:
                defects.write_text(json.dumps(job.defects.to_obj()))
        argv = [self.wl.command, "--config", str(self.inputs / "config.json"),
                "--circuit", str(circuit), "--out", str(self.outputs[0])]
        if job.defects != workloads.NO_DEFECTS:
            argv += ["--defects", str(defects)]
        return argv

    def call(self, argv: list[str], tracer=None) -> int:
        # The CLI writes to files; anything on stdout would be a bug, and
        # must not reach the benchmark's own result line.
        with redirect_stdout(io.StringIO()):
            if tracer is None:
                return self.pkg.cli.main(argv)
            return tracer.call(f"cli.{self.wl.command}", self.pkg.cli.main, argv)

    def check(self, k: int) -> tuple[list[str], dict]:
        """Failure kinds found in job k's outputs, and its figures."""
        job = self.wl.jobs[k]
        if self.wl.command == "schedule":
            doc = json.loads(self.outputs[0].read_text())
            csv_text = self.outputs[1].read_text()
            schedule = checks.read_schedule(doc)
            violations = self.pkg.scheduler.validate_schedule(
                schedule, self.layout, self.defect_maps[k], self.mux)
            figures = checks.schedule_figures(doc, self.wl.geometry)
            kinds = []
            if violations:
                kinds.append("violation")
            if checks.summary_mismatches(doc, csv_text, figures):
                kinds.append("summary")
            if checks.spectator_sites(doc, self.wl.geometry, job.live, job.circuit):
                kinds.append("spectator")
            return kinds, figures
        events = [json.loads(line) for line in
                  self.outputs[0].read_text().splitlines()]
        report = json.loads(self.outputs[1].read_text())
        bad = checks.simulate_mismatches(events, report, self.expected[k],
                                         job.circuit, self.wl.geometry)
        return (["simulate"] if bad else []), checks.simulate_figures(events, report)


def run_loop(bench: Bench, seconds: float, tracer=None) -> tuple[Tally, float, int]:
    """The closed loop. With a tracer, calls after the first pass are
    traced. Returns the tally, the loop's wall time and the number of
    calls."""
    n = len(bench.wl.jobs)
    need = 2 * n if tracer is not None else n
    tally = Tally()
    # One uncounted call first, so lazy imports and caches are warm before
    # anything is timed. Its outputs must equal those of the first counted
    # call on the same circuit, so every run repeats at least one circuit.
    bench.call(bench.prepare(0))
    warm = {p.name: _sha(p) for p in bench.outputs}
    t_start = time.perf_counter()
    deadline = t_start + seconds
    i = 0
    with speed.SpeedSampler() as sampler:
        while i < need or time.perf_counter() < deadline:
            run_one(bench, tally, i, tracer)
            i += 1
    tally.rescale(sampler)
    if tally.digests.get(0) != warm:
        tally.failures["determinism"] += 1
        tally.failed_calls += 1
    return tally, time.perf_counter() - t_start, i


def run_one(bench: Bench, tally: Tally, i: int, tracer) -> None:
    """Call number i: one CLI call, its digests and its checks."""
    n = len(bench.wl.jobs)
    k = i % n
    traced = tracer is not None and i >= n
    kinds: list[str] = []
    if traced:
        tracer.circuit, tracer.call_index = k, i
        tracer.install()
    try:
        argv = bench.prepare(k)
        t0 = time.perf_counter()
        rc = bench.call(argv, tracer if traced else None)
        tally.calls[i] = (t0, time.perf_counter())
        if rc != 0:
            kinds.append("exit")
        else:
            digests = {p.name: _sha(p) for p in bench.outputs}
            if i < n:
                tally.digests[k] = digests
                tally.bytes_written.append(sum(p.stat().st_size for p in bench.outputs))
            elif digests != tally.digests.get(k):
                kinds.append("determinism")
            t2 = time.perf_counter()
            found, figures = bench.check(k)
            tally.checks[i] = (t2, time.perf_counter())
            kinds += found
            if i < n:
                tally.figures.append(figures)
    except Exception:  # noqa: BLE001 - a crash is a failed call; keep measuring
        traceback.print_exc(file=sys.stderr)
        kinds.append("crash")
    finally:
        if traced:
            tracer.uninstall()
    tally.failures.update(kinds)
    if set(kinds) - {"spectator"}:
        tally.failed_calls += 1
    if i < n and kinds:
        tally.dirty_circuits += 1


# ----------------------------------------------------------------------
# Metrics

def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it. Runs of
    fewer than 20 calls have no tail above the median; they report the
    median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), f"p50 of {n} (under 20 calls: no tail)"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n}"


def end_to_end(bench: Bench, tally: Tally, calls: int, setup: list[float],
               raw_setup: list[float]) -> dict:
    figs = tally.figures
    cmd = bench.wl.command
    call_s = list(tally.call_s.values())
    raw_call_s = [t1 - t0 for t0, t1 in tally.calls.values()]
    check_s = list(tally.check_s.values())
    circuit_s = [tally.call_s[i] + c for i, c in tally.check_s.items()]
    tail_value, tail_note = tail(call_s)
    rows = [
        ("setup_s", statistics.median(setup), "s",
         f"median of {len(setup)} fresh set-up processes "
         f"(raw wall median {statistics.median(raw_setup):.4g} s)"),
        ("call_s", statistics.median(call_s), "s",
         f"median of {len(call_s)} `trilinear {cmd}` calls ({cmd}_s; "
         f"raw wall median {statistics.median(raw_call_s):.4g} s)"),
        ("call_tail_s", tail_value, "s", tail_note),
        ("check_s", statistics.median(check_s), "s",
         f"median of {len(check_s)} read-back checks"
         + (" (validate_schedule and recomputation)" if cmd == "schedule" else "")),
        ("circuits_per_s", 1 / statistics.median(circuit_s), "1/s",
         f"1 / median of {len(circuit_s)} call-plus-check times"),
        ("program_ticks", sum(f["makespan"] for f in figs), "ticks",
         "sum of " + ("schedule makespans" if cmd == "schedule" else "simulated total_ticks")
         + f" over {len(figs)} circuits"),
        ("shuttle_steps", sum(f["total_shuttle_steps"] for f in figs), "steps",
         f"sum over {len(figs)} circuits"),
        ("peak_waveforms", max((f["max_waveform_classes"] for f in figs), default=0),
         "classes", f"max over {len(figs)} circuits"),
        ("clean_frac", 1 - tally.dirty_circuits / len(bench.wl.jobs), "ratio",
         f"{len(bench.wl.jobs) - tally.dirty_circuits} of {len(bench.wl.jobs)} distinct "
         "circuits pass every check, the spectator check included"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
         "ru_maxrss of this process"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<16} {value:>14.6g} {unit:<8} {note}")
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}


def per_layer(tracer: spans.Tracer, n: int, tally: Tally, topo: dict,
              ) -> tuple[dict, list[str]]:
    """Self times per traced CLI call, and counts per call over the first
    traced pass (one call per distinct circuit, so they repeat exactly).
    Times are rescaled by their call's factor, like the end-to-end ones."""
    recorded = tracer.spans
    selfs = spans.self_times(recorded)
    errors = spans.nesting_errors(recorded, selfs)
    selfs = {s.id: selfs[s.id] * tally.scale.get(s.call_index, 1.0) for s in recorded}
    traced_calls = max(1, len(tally.call_s) - n)
    first = [s for s in recorded if s.call_index < 2 * n]
    children: Counter = Counter(s.parent for s in first if s.name == "router.gate_shuttle_plan")

    def self_s(*names):
        return sum(selfs[s.id] for s in recorded if s.name in names) / traced_calls

    def count(name):
        return sum(1 for s in first if s.name == name) / n

    def info(name, key):
        return sum(s.info.get(key, 0) for s in first if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    compile_spans = [s for s in recorded if s.name == "scheduler.compile"]
    shuttle_plans = sum(1 for s in first if s.name == "router.plan_two_qubit"
                        and children[s.id])
    attempts = sum(1 for s in first if s.name == "router.gate_shuttle_plan")
    gates = sum(1 for s in first if s.name == "protocol.audit_addressed_gate")
    values = {
        "cli.schedule_self_s": (self_s("cli.schedule"), "s"),
        "cli.simulate_self_s": (self_s("cli.simulate"), "s"),
        "cli.bytes_written": (sum(tally.bytes_written) / n, "bytes"),
        "topology.map_s": (topo["map_s"], "s"),
        "topology.neighbors_s": (topo["neighbors_s"], "s"),
        "router.reconfigure_s": (self_s("router.reconfigure_for_defects"), "s"),
        "router.reconfigure_calls": (count("router.reconfigure_for_defects"), "count"),
        "router.sacrificed": (info("router.reconfigure_for_defects", "sacrificed") / n,
                              "count"),
        "router.plan_s": (self_s("router.plan_two_qubit", "router.gate_shuttle_plan"), "s"),
        "router.plans": (count("router.plan_two_qubit"), "count"),
        "router.plan_attempts": (count("router.gate_shuttle_plan"), "count"),
        "router.plan_first_try_ratio": (ratio(shuttle_plans, attempts), "ratio"),
        "router.bfs_s": (self_s("router.shortest_shuttle_path"), "s"),
        "router.bfs_calls": (count("router.shortest_shuttle_path"), "count"),
        "router.bfs_path_sites": (info("router.shortest_shuttle_path", "sites") / n, "count"),
        "scheduler.compile_s": (sum((s.end - s.start) * tally.scale.get(s.call_index, 1.0)
                                    for s in compile_spans) / traced_calls, "s"),
        "scheduler.compile_self_s": (self_s("scheduler.compile"), "s"),
        "scheduler.jobs": (info("scheduler.compile", "jobs") / n, "count"),
        "scheduler.micro_ops": (info("scheduler.compile", "micro_ops") / n, "count"),
        "scheduler.concurrency": (ratio(info("scheduler.compile", "op_ticks"),
                                        info("scheduler.compile", "makespan")), "ratio"),
        "scheduler.serialize_s": (self_s("scheduler.schedule_to_json"), "s"),
        "scheduler.waveform_usage_s": (self_s("scheduler.waveform_usage"), "s"),
        "scheduler.waveform_usage_calls": (count("scheduler.waveform_usage"), "count"),
        "scheduler.validate_s": (self_s("scheduler.validate_schedule"), "s"),
        "protocol.init_s": (self_s("protocol.init_half_filled"), "s"),
        "protocol.gate_s": (self_s("protocol.addressed_single_qubit_gate"), "s"),
        "protocol.gates": (count("protocol.addressed_single_qubit_gate"), "count"),
        "protocol.audit_s": (self_s("protocol.audit_addressed_gate"), "s"),
        "protocol.readout_s": (self_s("protocol.readout"), "s"),
        "protocol.readouts": (count("protocol.readout"), "count"),
        "protocol.ok_ratio": (ratio(info("protocol.audit_addressed_gate", "ok"), gates),
                              "ratio"),
        "trace.overhead_ratio": (
            sum(tally.call_s.get(i, 0.0) for i in range(n, 2 * n))
            / sum(tally.call_s.get(i, 0.0) for i in range(n)), "ratio"),
    }
    for name, (value, unit) in values.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, errors


def topology_times(pkg, wl: workloads.Workload) -> dict:
    """Mapping every cell, and the neighbours of every site once."""
    topo = pkg.topology
    grid = topo.GridSpec(wl.geometry.rows, wl.geometry.cols)
    t0 = time.perf_counter()
    layout = topo.map_to_trilinear(grid, loop=wl.geometry.loop)
    for cell in grid.cells():
        layout.grid_to_site(cell)
    t1 = time.perf_counter()
    for site in layout.sites():
        layout.site_neighbors(site)
    return {"map_s": t1 - t0, "neighbors_s": time.perf_counter() - t1}


def sacrificed_mismatches(tracer: spans.Tracer, wl: workloads.Workload) -> int:
    """Reconfigure calls whose lost-qubit count differs from the local rule's."""
    n_cells = wl.geometry.rows * wl.geometry.cols
    return sum(1 for s in tracer.spans if s.name == "router.reconfigure_for_defects"
               and s.info.get("sacrificed") != n_cells - len(wl.jobs[s.circuit].live))


# ----------------------------------------------------------------------
# Entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_child(args.workload, args.seed, args.dir)
        return 0

    root = Path.cwd()
    pkg = _import_package(root)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"run-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    setup, raw_setup, input_digests = measure_setup(args.workload, args.seed, work)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    inputs = work / "setup-0"
    out = work / "out"
    out.mkdir(parents=True)
    bench = Bench(pkg, wl, inputs, out)

    tracer = spans.Tracer() if args.trace else None
    tally, loop_s, calls = run_loop(bench, args.seconds, tracer)
    if set(input_digests) != {inputs_digest(wl)}:
        tally.failures["setup"] += 1
        tally.failed_calls += 1

    print(f"perfbench {args.workload} seed {args.seed}: {calls} calls over "
          f"{len(wl.jobs)} distinct circuits in {loop_s:.1f} s")
    n = len(wl.jobs)
    if tracer is None:
        metrics = end_to_end(bench, tally, calls, setup, raw_setup)
    else:
        metrics, errors = per_layer(tracer, n, tally, topology_times(pkg, wl))
        for msg in errors[:5]:
            print(f"  trace error: {msg}", file=sys.stderr)
        tally.failures["trace"] += bool(errors)
        tally.failures["sacrificed"] += sacrificed_mismatches(tracer, wl)
        tally.failed_calls += tally.failures["trace"] + tally.failures["sacrificed"]
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(tally.failures.items()) if v)
    print(f"  failed_frac {tally.dirty_circuits / n:.4f} of distinct circuits "
          f"(all checks); failures by kind: {kinds or 'none'}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs": input_digests[0], "metrics": metrics,
              "failures": dict(tally.failures),
              "outputs": {str(k): d for k, d in sorted(tally.digests.items())}}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        with open(results / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_obj()) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": tally.failed_calls == 0, "attempted": calls,
                      "failed": tally.failed_calls, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
