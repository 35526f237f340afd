"""Workload plans: the fixed list of CLI invocations each workload makes.

One op is one ``spectral-mask`` invocation.  A pass runs every op of a
workload in order (``verify``, then ``tails``, then ``psi2``) inside one fresh
interpreter, so the oracle's module-level caches start empty and carry across
ops as they would in a long-lived library process.  Only the Monte Carlo seed
comes from the benchmark's ``--seed``; the grids are fixed so the exact and
closed-form columns can be checked against the stored seed reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Sample counts sized so one pass fits several times into a 30 s run on a
#: 2-core machine while Monte Carlo still dominates ``tails``.
SMALL_N_SAMPLES = 20_000
MC_LARGE_SAMPLES = 50_000

#: The CLI's own default worker count.
CLI_DEFAULT_WORKERS = 4


def worker_count() -> int:
    """The config ``workers`` value: the CLI default capped at ``nproc``."""
    return min(CLI_DEFAULT_WORKERS, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Op:
    """One CLI invocation with everything needed to run and check it."""

    id: str
    command: str
    config: dict
    samples: int
    points: tuple[tuple[int, int, int], ...] = ()
    parts: tuple[str, ...] = ("real",)

    def expected_files(self) -> list[str]:
        if self.command == "verify":
            return ["summary.json"]
        if self.command == "psi2":
            return ["psi2.csv"]
        return [
            f"tails_N{N}_l{l}_m{m}_{part}.csv"
            for (N, l, m) in self.points
            for part in self.parts
        ]

    def argv(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        return [
            self.command,
            "--config", config_path,
            "--out", out_dir,
            "--seed", str(seed),
            "--samples", str(self.samples),
        ]


def _grid_op(command: str, N: int, l: int, ms, parts, samples: int) -> Op:
    m_list = list(range(1, N + 1)) if ms == "all" else list(ms)
    config = {
        "n_grid": [N],
        "l_grid": [l],
        "m_grid": ms if ms == "all" else m_list,
        "parts": list(parts),
    }
    return Op(
        id=f"{command}-N{N}-l{l}",
        command=command,
        config=config,
        samples=samples,
        points=tuple((N, l, m) for m in m_list),
        parts=tuple(parts),
    )


def small_n() -> list[Op]:
    """Default grid (N = 3..12, every l and m, part real), one op per (N, l),
    so the failing N = 2l psi2 invocations cannot hide the other points."""
    ops = [Op(id="verify", command="verify", config={}, samples=SMALL_N_SAMPLES)]
    for command in ("tails", "psi2"):
        for N in range(3, 13):
            for l in range(1, N):
                ops.append(_grid_op(command, N, l, "all", ("real",), SMALL_N_SAMPLES))
    return ops


#: N -> l values: two sharing gcd(l, N) = 1, plus the N = 2l point.
EXACT_LARGE_GRID = {18: (1, 5, 9), 20: (1, 3, 10), 22: (1, 3, 11)}
EXACT_LARGE_M = (3, 8)
EXACT_LARGE_PARTS = ("real", "imag", "modulus_centered")


def exact_large() -> list[Op]:
    """Oracle alone: ``tails --samples 0`` above the oracle's N <= 16 cache."""
    return [
        _grid_op("tails", N, l, EXACT_LARGE_M, EXACT_LARGE_PARTS, 0)
        for N, ls in EXACT_LARGE_GRID.items()
        for l in ls
    ]


#: N -> (l values, m values); N is beyond the enumeration guard.
MC_LARGE_GRID = {256: ((1, 3), (8, 32)), 1024: ((1, 5), (32, 128))}


def mc_large() -> list[Op]:
    """Monte Carlo alone, draw-bound; ``modulus_centered`` adds the separate
    centering pass."""
    ops = []
    for command, parts in (("tails", ("real", "modulus_centered")), ("psi2", ("real",))):
        for N, (ls, ms) in MC_LARGE_GRID.items():
            for l in ls:
                ops.append(_grid_op(command, N, l, ms, parts, MC_LARGE_SAMPLES))
    return ops


WORKLOADS = {"small-n": small_n, "exact-large": exact_large, "mc-large": mc_large}


def plan(workload: str) -> list[Op]:
    return WORKLOADS[workload]()
