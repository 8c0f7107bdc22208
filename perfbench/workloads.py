"""Seeded job lists for the three benchmark workloads.

A workload is a list of cells.  A cell is one kind of job (say, `boundary`
on F_2 at r=2, R=9) together with every configuration it may take.  One
cycle runs every cell once, in a seeded order; a run is a fixed number of
cycles, and a cell never gives the same configuration twice in a run.
Cells are narrow, so every cycle does about the same work whatever the seed.

The program only ever sees argv.  Each job also names the check that its
saved report must pass (see checks.py).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: str  # "boundary" | "hash" | "heis_metric" | "finite_metric" | ...
    family: str = field(default="", compare=False)  # groups jobs in the traced table

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def kind(self) -> str:
        return self.family or " ".join(self.argv[:2])


@dataclass(frozen=True)
class EnumCell:
    """A cell whose configurations are listed in full (and so have golden hashes)."""

    configs: tuple[Job, ...]

    def draw(self, rng: random.Random, count: int) -> list[Job]:
        return rng.sample(self.configs, count)


@dataclass(frozen=True)
class RandomCell:
    """A cell whose inputs are drawn from the seed, at sizes taken from a fixed
    list, so that a run's work does not depend on the seed.  Its reports are
    checked by recomputation or by their stated properties, not by hashes."""

    make: Callable[[random.Random, int], Job]
    sizes: tuple[int, ...]

    def draw(self, rng: random.Random, count: int) -> list[Job]:
        # The sizes are distinct and appear in argv, so the jobs are too.
        return [self.make(rng, size) for size in rng.sample(self.sizes, count)]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle_s: float  # measured length of one cycle at the commit that defined it
    cells: tuple = field(repr=False)

    @property
    def max_cycles(self) -> int:
        return min(len(c.configs) if isinstance(c, EnumCell) else len(c.sizes) for c in self.cells)

    def cycles(self, seconds: float) -> int:
        """Cycles in a run of the given length: fixed by --seconds alone, so
        every commit runs the same number of jobs."""
        return max(1, min(self.max_cycles, round(seconds / self.cycle_s)))


# ---------------------------------------------------------------------------
# boundary cells
# ---------------------------------------------------------------------------

GROUP_ARGS = {
    "F2": ("--group", "free", "--rank", "2"),
    "F3": ("--group", "free", "--rank", "3"),
    "Z2": ("--group", "zd", "--dim", "2"),
    "Z3": ("--group", "zd", "--dim", "3"),
    "Z4": ("--group", "zd", "--dim", "4"),
    "Z5": ("--group", "zd", "--dim", "5"),
    "H3": ("--group", "heisenberg"),
}
WINDOWS = (2, 3)


def boundary_job(group: str, r: int, rmax: int, window: int) -> Job:
    argv = ("boundary", *GROUP_ARGS[group], "--r", str(r), "--rmax", str(rmax),
            "--window", str(window))
    return Job(argv, "boundary", f"boundary {group} r={r}")


def boundary_cells(group: str, r: int, radii) -> list[EnumCell]:
    """One cell per sphere radius.  A cell varies only the window, which
    changes a job's cost little, so the seed cannot shift the tail."""
    return [EnumCell(tuple(boundary_job(group, r, R, w) for w in WINDOWS)) for R in radii]


SPHERE_HEAVY = Workload(
    "sphere-heavy",
    14.5,
    tuple(
        boundary_cells("F2", 1, (7, 8, 9, 10))
        + boundary_cells("F2", 2, (7, 8, 9))
        + boundary_cells("F2", 3, (7, 8))
        + boundary_cells("F3", 1, (5, 6, 7))
        + boundary_cells("F3", 2, (6,))
        # Per-job percentiles are order statistics, so lattice radii are
        # chosen to put jobs of like cost around them: Z^2 R 100-170 and
        # Z^3 R 18-26 beside the middle free-group jobs (the median), and
        # Z^2 R=230 and Z^3 R=33 beside F_2 r=2 R=9 and F_3 r=2 R=6, just
        # below the six largest jobs (the tail percentile, 11th largest).
        + boundary_cells("Z2", 1, (*range(100, 171, 10), 230))
        + boundary_cells("Z3", 1, (*range(18, 27, 2), 33))
    ),
)

PATTERN_HEAVY = Workload(
    "pattern-heavy",
    12.5,
    tuple(
        boundary_cells("H3", 2, range(8, 15))
        + boundary_cells("H3", 3, (7, 8))
        + boundary_cells("Z3", 2, (9, 12, 15))
        + boundary_cells("Z4", 2, (6,))
        + boundary_cells("Z5", 1, (5, 6, 7))
    ),
)


# ---------------------------------------------------------------------------
# oracle-queries cells
# ---------------------------------------------------------------------------


def hash_cell(argvs) -> EnumCell:
    return EnumCell(tuple(Job(tuple(a), "hash") for a in argvs))


def tau_cell(vectors, ns) -> EnumCell:
    return hash_cell(
        ("spectral", "tau", "--map", "translation", "--group", "heisenberg",
         "--vector", v, "--n", str(n))
        for v in vectors for n in ns
    )


def parabolic_cell(ns) -> EnumCell:
    return hash_cell(
        ("dynamics", "parabolic", "--fixture", "heisenberg-z", "--n", str(n)) for n in ns
    )


def finite_space(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Seeded exact metric on n points: integer shortest-path closure of random
    edge weights, scaled by 1/q so the entries are proper fractions."""
    q = rng.choice((2, 3, 4, 6))
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = rng.randrange(q, 8 * q)
    for k in range(n):
        wk = w[k]
        for i in range(n):
            wi, wik = w[i], w[i][k]
            for j in range(n):
                if wik + wk[j] < wi[j]:
                    wi[j] = wik + wk[j]
    return [[Fraction(v, q) for v in row] for row in w]


def space_json(matrix) -> str:
    return json.dumps({"type": "finite", "params": {"matrix": [[str(v) for v in row] for row in matrix]}})


def finite_metric_job(rng: random.Random, n: int) -> Job:
    m = finite_space(rng, n)
    return Job(("validate", "metric", "--space", space_json(m)), "finite_metric",
               "validate metric finite")


def finite_mcshane_job(rng: random.Random, n: int) -> Job:
    m = finite_space(rng, n)
    domain = sorted(rng.sample(range(n), n // 4))
    anchor = rng.randrange(n)
    values = [str(m[a][anchor] - m[0][anchor]) for a in domain]
    mode = rng.choice(("sup", "inf"))
    argv = ("extend", "mcshane", "--space", space_json(m), "--domain", json.dumps(domain),
            "--values", json.dumps(values), "--mode", mode)
    return Job(argv, "finite_mcshane")


def heis_metric_job(rng: random.Random, triples: int) -> Job:
    argv = ("validate", "metric", "--space", '{"type": "heisenberg"}',
            "--triples", str(triples), "--seed", str(rng.randrange(10**6)))
    return Job(argv, "heis_metric", "validate metric heisenberg")


def tracial_job(rng: random.Random, count: int) -> Job:
    argv = ("spectral", "tracial", "--count", str(count), "--n", "100",
            "--seed", str(rng.randrange(10**6)))
    return Job(argv, "tracial")


def almost_fixed_job(rng: random.Random, grid: int) -> Job:
    argv = ("dynamics", "almost-fixed", "--grid", str(grid), "--seed", str(rng.randrange(10**6)))
    return Job(argv, "almost_fixed")


def gallery_cell(piece: str) -> EnumCell:
    return hash_cell(("gallery", piece, "--r", str(r), "--count", str(c))
                     for r in (1, 2) for c in range(10, 15))


def hahn_banach_cell(fixture: str) -> EnumCell:
    return hash_cell(("extend", "hahn-banach", "--fixture", fixture, "--n", str(n))
                     for n in range(50, 100, 5))


# Every cell has exactly ten configurations or sizes, and a run is ten cycles,
# so each seed runs the same amount of work in its own order and inputs.
ORACLE_QUERIES = Workload(
    "oracle-queries",
    2.7,
    (
        parabolic_cell(range(60, 70)),
        parabolic_cell(range(40, 50)),
        tau_cell(("1,0,0", "0,1,0"), range(20, 25)),
        tau_cell(("1,1,0", "1,-1,0"), range(14, 19)),
        tau_cell(("0,0,1", "0,0,2"), range(20, 25)),
        tau_cell(("1,0,1", "0,1,1"), range(20, 25)),
        RandomCell(heis_metric_job, tuple(range(3000, 6000, 300))),
        RandomCell(finite_metric_job, tuple(range(36, 46))),
        RandomCell(finite_mcshane_job, tuple(range(36, 46))),
        hahn_banach_cell("spoke-ray"),
        hahn_banach_cell("star-tree"),
        RandomCell(tracial_job, tuple(range(20, 40, 2))),
        RandomCell(almost_fixed_job, tuple(range(100, 200, 10))),
        gallery_cell("spoke-ray"),
        gallery_cell("star-tree"),
        hash_cell(("gallery", "euclidean-zero", "--count", str(c)) for c in range(10, 20)),
    ),
)

WORKLOADS = {w.name: w for w in (SPHERE_HEAVY, PATTERN_HEAVY, ORACLE_QUERIES)}


def job_list(name: str, seed: int, seconds: float) -> tuple[list[Job], int]:
    """The run's jobs, cycle by cycle, and the number of cycles."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    cycles = wl.cycles(seconds)
    drawn = [cell.draw(rng, cycles) for cell in wl.cells]
    jobs: list[Job] = []
    for c in range(cycles):
        order = list(range(len(drawn)))
        rng.shuffle(order)
        jobs.extend(drawn[i][c] for i in order)
    return jobs, cycles


def hashed_configs() -> list[Job]:
    """Every configuration whose report is checked against a golden hash."""
    return [job for wl in WORKLOADS.values() for cell in wl.cells
            if isinstance(cell, EnumCell) for job in cell.configs]
