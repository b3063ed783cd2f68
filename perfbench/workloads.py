"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` seeded from the workload name and
the `--seed` argument, so the same seed always yields the same configs,
circuits and defect maps. The program under test only ever sees the files
written from these documents.

Lost qubits are decided here by the local rule alone, without calling the
program: a qubit survives when its home dot, the Middle dot at the same
axis and the barrier between them are all alive (every layout here has
m_rows = 1, so every outer dot is on sub-row 0).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sites are plain (row, axis) pairs here, with row in "U", "M", "L"; the
# JSON form is the same list, so no conversion is needed at the edge.
Site = tuple
Cell = tuple


@dataclass(frozen=True)
class Geometry:
    """The grid-to-array fold for an m_rows = 1 layout, recomputed here."""

    rows: int
    cols: int
    loop: bool

    @property
    def length(self) -> int:
        upper = ((self.rows + 1) // 2) * self.cols
        lower = (self.rows // 2) * self.cols
        return max(upper, lower) if self.loop else max(upper, lower + self.cols // 2)

    def home(self, cell: Cell) -> Site:
        r, c = cell
        if r % 2 == 0:
            return ("U", (r // 2) * self.cols + c)
        axis = (r // 2) * self.cols + c + self.cols // 2
        return ("L", axis % self.length if self.loop else axis)

    def cells(self) -> list[Cell]:
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]


@dataclass(frozen=True)
class Defects:
    sites: tuple[Site, ...] = ()
    barriers: tuple[tuple[Site, Site], ...] = ()

    def to_obj(self) -> dict:
        return {"sites": [list(s) for s in self.sites],
                "barriers": [[list(a), list(b)] for a, b in self.barriers]}


NO_DEFECTS = Defects()


def live_cells(geo: Geometry, defects: Defects) -> list[Cell]:
    """Cells that keep their qubit under the local rule, in grid order."""
    dead = set(defects.sites)
    cut = {frozenset(b) for b in defects.barriers}
    out = []
    for cell in geo.cells():
        home = geo.home(cell)
        middle = ("M", home[1])
        if home in dead or middle in dead or frozenset((home, middle)) in cut:
            continue
        out.append(cell)
    return out


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def shuffled_mix(rng: random.Random, n: int, mix: dict) -> list:
    """n kinds in exactly the given proportions, in random order. Exact
    counts keep the work per run from varying with the seed: with
    independent draws, a seed's share of 2q ops alone moved compile time by
    8%."""
    total = sum(mix.values())
    kinds = [k for k, share in mix.items() for _ in range(n * share // total)]
    kinds += [next(iter(mix))] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def random_circuit(rng: random.Random, cells: list[Cell], n_ops: int) -> dict:
    """n_ops ops in the 1q:2q:meas = 1:2:1 mix; pairs share a grid row or
    sit on neighbouring rows."""
    by_row: dict[int, list[Cell]] = {}
    for cell in cells:
        by_row.setdefault(cell[0], []).append(cell)
    ops = []
    for kind in shuffled_mix(rng, n_ops, {"1q": 1, "2q": 2, "meas": 1}):
        a = rng.choice(cells)
        if kind == "1q":
            ops.append({"op": "1q", "cells": [list(a)], "param": "x"})
        elif kind == "meas":
            ops.append({"op": "meas", "cells": [list(a)]})
        else:
            pool = []
            while not pool:
                pool = [c for r in (a[0] - 1, a[0], a[0] + 1)
                        for c in by_row.get(r, ()) if c != a]
                a = a if pool else rng.choice(cells)
            ops.append({"op": "2q", "cells": [list(a), list(rng.choice(pool))]})
    return {"ops": ops}


def defect_draw(rng: random.Random, geo: Geometry, middle: str, n_outer: int,
                outer_barrier: bool) -> Defects:
    """`middle` is "none", "site" (one dead Middle site) or "barrier" (one
    dead Middle-row barrier); then n_outer dead outer sites and, if
    outer_barrier, one dead outer-Middle barrier, all at random places."""
    n = geo.length
    sites: list[Site] = []
    barriers: list[tuple[Site, Site]] = []
    if middle == "site":
        sites.append(("M", rng.randrange(n)))
    elif middle == "barrier":
        a = rng.randrange(n - (0 if geo.loop else 1))
        barriers.append((("M", a), ("M", (a + 1) % n)))
    outer = [(row, axis) for row in ("U", "L") for axis in range(n)]
    sites.extend(rng.sample(outer, n_outer))
    if outer_barrier:
        row, axis = rng.choice(outer)
        barriers.append(((row, axis), ("M", axis)))
    return Defects(tuple(sites), tuple(barriers))


@dataclass(frozen=True)
class Job:
    """One distinct input of a run: a circuit, and its defects if any."""

    circuit: dict
    defects: Defects
    live: tuple[Cell, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "schedule" or "simulate"
    config: dict
    geometry: Geometry
    jobs: tuple[Job, ...]


WIDE = Geometry(32, 32, loop=False)
DEFECT = Geometry(8, 8, loop=True)
HALF = Geometry(48, 48, loop=True)

# Distinct circuits per run. A timed run cycles through them again until
# its time is up; these counts fix what one pass costs.
N_WIDE = 10
N_DEFECT = 600
N_HALF = 4


def wide_schedule(seed: int) -> Workload:
    rng = rng_for("wide_schedule", seed)
    live = tuple(WIDE.cells())
    jobs = tuple(Job(random_circuit(rng, list(live), 400), NO_DEFECTS, live)
                 for _ in range(N_WIDE))
    config = {"grid": {"rows": WIDE.rows, "cols": WIDE.cols}, "seed": seed}
    return Workload("wide_schedule", "schedule", config, WIDE, jobs)


def defect_yield(seed: int) -> Workload:
    rng = rng_for("defect_yield", seed)
    # Each kind of defect comes in exact shares across the run's maps, like
    # the op mix: the Middle-row defects alone set most of the detours.
    kinds = zip(shuffled_mix(rng, N_DEFECT, {"none": 1, "site": 1, "barrier": 1}),
                shuffled_mix(rng, N_DEFECT, {0: 1, 1: 1, 2: 1}),
                shuffled_mix(rng, N_DEFECT, {False: 1, True: 1}))
    jobs = []
    for middle, n_outer, outer_barrier in kinds:
        defects = defect_draw(rng, DEFECT, middle, n_outer, outer_barrier)
        live = tuple(live_cells(DEFECT, defects))
        jobs.append(Job(random_circuit(rng, list(live), 20), defects, live))
    config = {"grid": {"rows": DEFECT.rows, "cols": DEFECT.cols}, "loop": True,
              "mux": {"n_ac_inputs": 5, "readout_coexists_with_shuttle": False},
              "seed": seed}
    return Workload("defect_yield", "schedule", config, DEFECT, tuple(jobs))


def half_filled_sim(seed: int) -> Workload:
    rng = rng_for("half_filled_sim", seed)
    # Qubits sit on magnet dots (even axis); with an even column count and an
    # even half-block shift those are exactly the even columns.
    live = tuple(c for c in HALF.cells() if c[1] % 2 == 0)
    jobs = []
    for _ in range(N_HALF):
        ops = []
        for kind in shuffled_mix(rng, 1000, {"1q": 3, "meas": 1}):
            cell = list(rng.choice(live))
            if kind == "1q":
                ops.append({"op": "1q", "cells": [cell], "param": "x90"})
            else:
                ops.append({"op": "meas", "cells": [cell]})
        jobs.append(Job({"ops": ops}, NO_DEFECTS, live))
    config = {"grid": {"rows": HALF.rows, "cols": HALF.cols}, "loop": True,
              "protocol": {"hop_phase_magnet": round(rng.uniform(0.1, 1.0), 6),
                           "hop_phase_bare": round(rng.uniform(0.1, 1.0), 6)},
              "seed": seed}
    return Workload("half_filled_sim", "simulate", config, HALF, tuple(jobs))


WORKLOADS = {
    "wide_schedule": wide_schedule,
    "defect_yield": defect_yield,
    "half_filled_sim": half_filled_sim,
}
