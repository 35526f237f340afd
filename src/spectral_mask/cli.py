"""Operator-facing command line: verification suites and report sweeps.

Subcommands: ``verify`` (run suites, write summary.json), ``tails`` (exact /
Monte Carlo / closed-form tail tables per parameter point), ``crossover``
(branch classification table), ``psi2`` (norm and bound table), ``scan``
(free-form grid sweep of a scalar formula).

Exit codes: 0 all checks passed, 1 a verification suite failed, 2 usage or
configuration error.  Identical config and seed produce byte-identical
output files.  The workers run the Monte Carlo chunks and psi2 bisections
and only change wall time; every other step of a command, the per-point
exact and bound cells included, runs on the calling thread.  Every exact
cell asks the oracle; where its count, key or byte limits refuse the law
(``CapabilityError``), the point's exact cells stay empty, never
approximated, and ``modulus_centered`` takes its center from a Monte Carlo
pass.
"""

from __future__ import annotations

import argparse
import enum
import functools
import importlib.resources
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, bounds, oracle
from .errors import CapabilityError, ParameterDomainError, SpectralMaskError
from .model import ModelParams, Part
from .montecarlo import (
    MC_ALGORITHM,
    RNG_ALGORITHM,
    Accumulator,
    McConfig,
    McQueries,
    _check_psi2_bytes,
    _splitmix64,
    mc_moment,
    mc_psi2_many,
    mc_run_many,
    mc_tail,
)
from .verify import SUITES, SuiteResult

#: Environment variable capping the worker count of any command.
THREADS_ENV_VAR = "SPECTRAL_MASK_THREADS"

_PART_NAMES = {p.value: p for p in Part if p is not Part.COMPLEX}

TAILS_HEADER = ["t", "exact", "mc", "mc_halfwidth", "thm23", "eq9", "eq10", "q_form"]
PSI2_HEADER = [
    "N", "l", "m", "part",
    "exact_psi2", "mc_psi2", "moment_psi2", "upper_cor27", "upper_eq12",
]
CROSSOVER_HEADER = ["N", "m", "coeff_first", "coeff_second", "verdict", "t_star", "reason"]

#: Crossover parameter pairs always included in the table.
CROSSOVER_NAMED_PAIRS = ((2304, 48), (470, 10), (480, 10), (960, 20), (2256, 48))


@dataclass(frozen=True)
class GridSpec:
    """A threshold/scale grid: explicit values or min + (max-min) * i/points,
    optionally multiplied by sqrt(N)."""

    spacing: str = "sqrt-n-scaled"
    min: float = 0.0
    max: float = 2.0
    points: int = 50
    values: tuple[float, ...] | None = None

    def resolve(self, N: int) -> np.ndarray:
        if self.values is not None:
            base = np.asarray(self.values, dtype=np.float64)
        else:
            base = self.min + (self.max - self.min) * np.arange(self.points) / self.points
        if self.spacing == "sqrt-n-scaled":
            base = base * math.sqrt(N)
        return base

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        kwargs = dict(data)
        if "values" in kwargs and kwargs["values"] is not None:
            kwargs["values"] = tuple(float(v) for v in kwargs["values"])
        return cls(**kwargs)


_DEFAULT_K_GRID = GridSpec(values=(0.6, 0.75, 1.0, 2.0, 5.0))
_DEFAULT_N_ORDERS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one CLI invocation."""

    n_grid: tuple[int, ...] = tuple(range(3, 13))
    l_grid: tuple[int, ...] | str = "all"
    m_grid: tuple[int, ...] | str = "all"
    parts: tuple[Part, ...] = (Part.REAL,)
    t_grid: GridSpec = GridSpec()
    k_grid: GridSpec = _DEFAULT_K_GRID
    n_orders: tuple[int, ...] = _DEFAULT_N_ORDERS
    mc_samples: int = 200_000
    mc_seed: int = 42
    mc_confidence: float = 0.99
    output_dir: Path = Path(".")
    suites: tuple[str, ...] = tuple(SUITES)
    workers: int = 4

    def iter_params(self) -> list[ModelParams]:
        out = []
        for N in self.n_grid:
            ls = range(1, N) if self.l_grid == "all" else [l for l in self.l_grid if 0 <= l <= N - 1]
            ms = range(1, N + 1) if self.m_grid == "all" else [m for m in self.m_grid if 1 <= m <= N]
            for l in ls:
                for m in ms:
                    out.append(ModelParams(N, l, m))
        return out

    def mc_config(self) -> McConfig | None:
        if self.mc_samples <= 0:
            return None
        return McConfig(
            samples=self.mc_samples,
            seed=self.mc_seed,
            confidence=self.mc_confidence,
        )

    def to_dict(self) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "l_grid": self.l_grid if self.l_grid == "all" else list(self.l_grid),
            "m_grid": self.m_grid if self.m_grid == "all" else list(self.m_grid),
            "parts": [p.value for p in self.parts],
            "t_grid": _grid_dict(self.t_grid),
            "k_grid": _grid_dict(self.k_grid),
            "n_orders": list(self.n_orders),
            "mc": {
                "samples": self.mc_samples,
                "seed": self.mc_seed,
                "confidence": self.mc_confidence,
            },
            "output_dir": str(self.output_dir),
            "suites": list(self.suites),
            "workers": self.workers,
        }


def _grid_dict(grid: GridSpec) -> dict:
    out = {"spacing": grid.spacing}
    if grid.values is not None:
        out["values"] = list(grid.values)
    else:
        out.update({"min": grid.min, "max": grid.max, "points": grid.points})
    return out


@functools.cache
def _schema_validator(name: str):
    """A validator for the shipped schema ``name``; the tests check the
    schemas themselves against their metaschema."""
    ref = importlib.resources.files("spectral_mask") / "schemas" / name
    schema = json.loads(ref.read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def _validate(data, name: str) -> None:
    """Raise the error jsonschema's ``validate`` would raise for ``data``,
    without checking the schema again."""
    error = jsonschema.exceptions.best_match(_schema_validator(name).iter_errors(data))
    if error is not None:
        raise error


def _apply_flags(data: dict, args: argparse.Namespace) -> dict:
    """``data`` with the command-line overrides written into it."""
    out = dict(data)
    if args.out is not None:
        out["output_dir"] = args.out
    if args.suites is not None:
        out["suites"] = [s.strip() for s in args.suites.split(",") if s.strip()]
    mc = {k: v for k, v in (("seed", args.seed), ("samples", args.samples)) if v is not None}
    if mc:
        base = out.get("mc", {})
        # A malformed "mc" value is left for the schema to reject.
        out["mc"] = {**base, **mc} if isinstance(base, dict) else base
    return out


def load_config(path: str | None, args: argparse.Namespace | None = None) -> dict:
    """The config file at ``path`` (empty when ``None``) with the flags of
    ``args`` applied, validated against the config schema as one document."""
    data: dict = {}
    if path is not None:
        data = json.loads(Path(path).read_text())
    if args is not None and isinstance(data, dict):
        data = _apply_flags(data, args)
    _validate(data, "config.schema.json")
    return data


def build_config(data: dict) -> RunConfig:
    kwargs: dict = {}
    if "n_grid" in data:
        kwargs["n_grid"] = tuple(data["n_grid"])
    for key in ("l_grid", "m_grid"):
        if key in data:
            kwargs[key] = data[key] if data[key] == "all" else tuple(data[key])
    if "parts" in data:
        kwargs["parts"] = tuple(_PART_NAMES[name] for name in data["parts"])
    if "t_grid" in data:
        kwargs["t_grid"] = GridSpec.from_dict(data["t_grid"])
    if "k_grid" in data:
        kwargs["k_grid"] = GridSpec.from_dict(data["k_grid"])
    if "n_orders" in data:
        kwargs["n_orders"] = tuple(data["n_orders"])
    mc = data.get("mc", {})
    if "samples" in mc:
        kwargs["mc_samples"] = mc["samples"]
    if "seed" in mc:
        kwargs["mc_seed"] = mc["seed"]
    if "confidence" in mc:
        kwargs["mc_confidence"] = mc["confidence"]
    if "output_dir" in data:
        kwargs["output_dir"] = Path(data["output_dir"])
    if "suites" in data:
        kwargs["suites"] = tuple(data["suites"])
    if "workers" in data:
        kwargs["workers"] = data["workers"]
    return RunConfig(**kwargs)


def _effective_workers(cfg: RunConfig) -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    workers = cfg.workers
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise ParameterDomainError(
                f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}"
            ) from None
        if cap < 1:
            raise ParameterDomainError(
                f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}"
            )
        workers = min(workers, cap)
    return max(1, workers)


def _fmt(value: float | None) -> str:
    # 17 significant digits: round-trip safe for float64.
    return "" if value is None else format(float(value), ".17g")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _bounded(params: ModelParams) -> bool:
    """Whether any tail bound is claimed at ``params``: l >= 1 and N != 2l."""
    return params.l >= 1 and not params.is_degenerate_2l


def _tail_bound_cells(params: ModelParams, part: Part, t: float) -> list[float | None]:
    """The thm23, eq9, eq10 and q_form cells of one tails row: each bound
    whose hypotheses hold at (params, part, t), else ``None``.  They depend on
    l only through ``_bounded``."""
    thm23 = eq9 = eq10 = q_form = None
    if _bounded(params):
        if part in (Part.REAL, Part.IMAG):
            thm23 = bounds.tail_bound_uv(params.N, t)
            if 2 * params.m < params.N:
                eq9 = bounds.tail_bound_entropy(params.N, params.m, t)
                eq10 = bounds.tail_bound_combined(params.N, params.m, t)
            if t > 0:
                q_form = bounds.tail_bound_q(params.N, t)
        elif part is Part.MODULUS_CENTERED:
            thm23 = bounds.tail_bound_mod(params.N, t)
    return [thm23, eq9, eq10, q_form]


@dataclass(frozen=True, eq=False)
class _TailColumns:
    """The formatted cells of a tails table that depend only on N, m, the
    part, the grid and ``_bounded``: ``t`` per row and the four bound cells,
    joined, per row."""

    t: tuple[str, ...]
    bounds: tuple[str, ...]

    @property
    def nbytes(self) -> int:
        cells = self.t + self.bounds
        return sys.getsizeof(self.t) + sys.getsizeof(self.bounds) + sum(map(sys.getsizeof, cells))


def _tail_columns(params: ModelParams, part: Part, grid: GridSpec) -> _TailColumns:
    ts = grid.resolve(params.N).tolist()
    return _TailColumns(
        tuple(_fmt(t) for t in ts),
        tuple(",".join(_fmt(v) for v in _tail_bound_cells(params, part, t)) for t in ts),
    )


#: Byte bound on the formatted tails columns kept across points and commands.
TAIL_COLUMNS_BYTES = 8 << 20
_TAIL_COLUMNS = oracle._ByteCache(TAIL_COLUMNS_BYTES)

#: Byte bound on the Monte Carlo results kept across points and commands:
#: the centering pass's and the tails pass's accumulators and the psi2
#: estimates, each keyed on its class point, its queries (or part, center and
#: tol) and its ``McConfig``.  The library's Monte Carlo calls keep nothing.
MC_RESULTS_BYTES = 16 << 20
_MC_RESULTS = oracle._ByteCache(MC_RESULTS_BYTES)


@dataclass(frozen=True, eq=False)
class _Kept:
    """One Monte Carlo result and the bytes it and its key hold."""

    value: object
    nbytes: int


def _held_bytes(*objs) -> int:
    """Bytes of ``objs`` and of every object they reach through tuples,
    dicts and instance attributes, each object counted once; enum members,
    ``None`` and booleans are shared singletons and not charged."""
    seen: set = set()
    total = 0
    stack = list(objs)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        # Exact type tests first: floats, ints and the tuples and dicts that
        # hold them are nearly every object a result reaches.
        kind = type(obj)
        if kind is float or kind is int:
            total += sys.getsizeof(obj)
        elif kind is tuple or kind is list:
            total += sys.getsizeof(obj)
            stack += obj
        elif kind is dict:
            total += sys.getsizeof(obj)
            stack += obj.keys()
            stack += obj.values()
        elif not (obj is None or kind is bool or isinstance(obj, enum.Enum)):
            total += sys.getsizeof(obj)
            if hasattr(obj, "__dict__"):
                stack.append(vars(obj))
    return total


def _kept(keys: list, compute) -> list:
    """The Monte Carlo result at each of ``keys`` from ``_MC_RESULTS``; the
    missing ones come from one call ``compute(missing)``, so they share its
    draws, and are kept with their bytes."""

    def build(missing: list) -> list[_Kept]:
        values = compute(missing)
        return [_Kept(value, _held_bytes(key, value)) for key, value in zip(missing, values)]

    return [kept.value for kept in _MC_RESULTS.get_many(keys, build)]


def _mc_runs(
    runs: list[tuple[ModelParams, McQueries]], mc_cfg: McConfig, workers: int
) -> list[Accumulator]:
    """``mc_run_many`` of ``runs``, each (class point, queries, config) run
    once across commands; the accumulator of a class point is the one every
    l of its class gets."""
    keys = [("run", p.class_point, q, mc_cfg) for p, q in runs]
    return _kept(
        keys, lambda missing: mc_run_many([k[1:3] for k in missing], mc_cfg, workers=workers)
    )


def _mc_psi2(
    runs: list[tuple[ModelParams, Part, float | None]],
    mc_cfg: McConfig,
    workers: int,
    tol: float = 1e-6,
) -> list[float]:
    """The ``mc_psi2_many`` norm of each of ``runs``, each (class point,
    part, center, tol, config) estimated once across commands."""
    keys = [("psi2", p.class_point, part, center, tol, mc_cfg) for p, part, center in runs]

    def compute(missing: list) -> list[float]:
        ests = mc_psi2_many([k[1:4] for k in missing], mc_cfg, tol, workers=workers)
        return [est.norm for est in ests]

    return _kept(keys, compute)


def _exact(query, *args):
    """``query(*args)`` of the oracle, or ``None`` where its count, key or
    byte limits refuse the law."""
    try:
        return query(*args)
    except CapabilityError:
        return None


def _modulus_centers(
    points: list[ModelParams], cfg: RunConfig, workers: int
) -> list[float | None]:
    """Center for modulus_centered queries at every point (``None`` when no
    such part is asked for): the exact mean modulus where the oracle admits
    the law, answered once per frequency class, otherwise from an
    estimation pass on a seed derived from the main seed, one pass for all
    such points (each N drawn once)."""
    if Part.MODULUS_CENTERED not in cfg.parts:
        return [None] * len(points)
    centers = [_exact(oracle.exact_moment, p, Part.MODULUS, 1) for p in points]
    far = [i for i, center in enumerate(centers) if center is None]
    if far:
        pre = McConfig(
            samples=cfg.mc_samples,
            seed=_splitmix64(cfg.mc_seed),
            confidence=cfg.mc_confidence,
        )
        queries = McQueries(parts=(Part.MODULUS,), moment_orders=(1,))
        accs = _mc_runs([(points[i], queries) for i in far], pre, workers)
        for i, acc in zip(far, accs):
            centers[i] = mc_moment(acc, Part.MODULUS, 1).estimate
    return centers


def _tails_point(
    params: ModelParams, cfg: RunConfig, acc: Accumulator | None
) -> list[tuple[str, list[list[str]]]]:
    ts = cfg.t_grid.resolve(params.N)
    # eq9 and eq10 alone read m, and only where 2m < N.
    m = params.m if 2 * params.m < params.N else 0
    files = []
    for part in cfg.parts:
        columns = _TAIL_COLUMNS.get(
            (params.N, m, part, cfg.t_grid, _bounded(params)),
            lambda *key: _tail_columns(params, part, cfg.t_grid),
        )
        exact = mc = [""] * len(ts)
        halfwidth = ""
        curve = _exact(oracle.exact_tail_curve, params, part, ts)
        if curve is not None:
            exact = [_fmt(v) for v in curve.tolist()]
        if acc is not None and len(ts):
            # The interval is one Hoeffding width per run; each estimate is
            # the hit fraction ``mc_tail`` returns.
            halfwidth = _fmt(mc_tail(acc, part, float(ts[0])).half_width)
            mc = [_fmt(acc.threshold_hits[(part, t)] / acc.n) for t in ts.tolist()]
        rows = [
            [t, e, est, halfwidth, cells]
            for t, e, est, cells in zip(columns.t, exact, mc, columns.bounds)
        ]
        name = f"tails_N{params.N}_l{params.l}_m{params.m}_{part.value}.csv"
        files.append((name, rows))
    return files


def cmd_tails(cfg: RunConfig) -> int:
    workers = _effective_workers(cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    points = cfg.iter_params()
    accs: list[Accumulator | None] = [None] * len(points)
    mc_cfg = cfg.mc_config()
    if mc_cfg is not None:
        centers = _modulus_centers(points, cfg, workers)
        runs = [
            (
                params,
                McQueries(
                    parts=cfg.parts,
                    tail_thresholds=tuple(float(t) for t in cfg.t_grid.resolve(params.N)),
                    modulus_center=center,
                ),
            )
            for params, center in zip(points, centers)
        ]
        accs = _mc_runs(runs, mc_cfg, workers)
    results = [_tails_point(params, cfg, acc) for params, acc in zip(points, accs)]
    for files in results:
        for name, rows in files:
            path = cfg.output_dir / name
            _write_csv(path, TAILS_HEADER, rows)
            print(path)
    return 0


def cmd_crossover(cfg: RunConfig) -> int:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    pairs: list[tuple[int, int]] = list(CROSSOVER_NAMED_PAIRS)
    for N in cfg.n_grid:
        ms = range(1, N + 1) if cfg.m_grid == "all" else [m for m in cfg.m_grid if 1 <= m <= N]
        for m in ms:
            if (N, m) not in pairs:
                pairs.append((N, m))
    rows = []
    for N, m in pairs:
        try:
            verdict = bounds.crossover_region(N, m)
        except SpectralMaskError as exc:
            rows.append([str(N), str(m), "", "", "", "", str(exc)])
            continue
        rows.append(
            [
                str(N),
                str(m),
                _fmt(verdict.coeff_first),
                _fmt(verdict.coeff_second),
                verdict.kind.value,
                _fmt(verdict.t_star),
                "",
            ]
        )
    path = cfg.output_dir / "crossover.csv"
    _write_csv(path, CROSSOVER_HEADER, rows)
    print(path)
    return 0


def _psi2_point(
    params: ModelParams, cfg: RunConfig, mc_norms: list[float | None]
) -> list[list[str]]:
    rows = []
    for part, mc_norm in zip(cfg.parts, mc_norms):
        exact_norm = moment_norm = None
        exact = _exact(oracle.exact_psi2_norm, params, part, 1e-10)
        if exact is not None:
            exact_norm = exact.norm
            moment_norm = oracle.exact_psi2_moment_norm(params, part).norm
        rows.append(
            [
                str(params.N),
                str(params.l),
                str(params.m),
                part.value,
                _fmt(exact_norm),
                _fmt(mc_norm),
                _fmt(moment_norm),
                _fmt(bounds.psi2_upper(params.N)),
                _fmt(bounds.psi2_sup_upper(params.N)),
            ]
        )
    return rows


def cmd_psi2(cfg: RunConfig) -> int:
    mc_cfg = cfg.mc_config()
    if mc_cfg is not None:
        # Refuse before any point runs, ahead of the centering passes.
        _check_psi2_bytes(mc_cfg)
    workers = _effective_workers(cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    points = cfg.iter_params()
    mc_norms: list[list[float | None]] = [[None] * len(cfg.parts) for _ in points]
    if mc_cfg is not None:
        centers = _modulus_centers(points, cfg, workers)
        runs = [
            (params, part, center if part is Part.MODULUS_CENTERED else None)
            for params, center in zip(points, centers)
            for part in cfg.parts
        ]
        norms = iter(_mc_psi2(runs, mc_cfg, workers))
        mc_norms = [[next(norms) for _ in cfg.parts] for _ in points]
    rows = [
        row
        for params, point_norms in zip(points, mc_norms)
        for row in _psi2_point(params, cfg, point_norms)
    ]
    path = cfg.output_dir / "psi2.csv"
    _write_csv(path, PSI2_HEADER, rows)
    print(path)
    return 0


# Scalar formulas available to `scan`, with their grid axes.
SCAN_FORMULAS = {
    "tail_bound_uv": ("N", "t"),
    "tail_bound_mod": ("N", "t"),
    "tail_bound_entropy": ("N", "m", "t"),
    "tail_bound_combined": ("N", "m", "t"),
    "tail_bound_q": ("N", "t"),
    "moment_bound": ("N", "n"),
    "exp_moment_bound": ("N", "K"),
    "psi2_upper": ("N",),
    "psi2_sup_upper": ("N",),
}


def _scan_axis_values(axis: str, N: int, cfg: RunConfig) -> list:
    if axis == "t":
        return [float(t) for t in cfg.t_grid.resolve(N)]
    if axis == "K":
        return [float(k) for k in cfg.k_grid.resolve(N)]
    if axis == "m":
        ms = range(1, N + 1) if cfg.m_grid == "all" else [m for m in cfg.m_grid if 1 <= m <= N]
        return list(ms)
    if axis == "n":
        return list(cfg.n_orders)
    raise ParameterDomainError(f"unknown scan axis {axis!r}")


def cmd_scan(cfg: RunConfig, formula: str) -> int:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    axes = SCAN_FORMULAS[formula]
    fn = getattr(bounds, formula)
    rows: list[list[str]] = []

    def emit(args: list) -> None:
        cells = [str(a) if isinstance(a, int) else _fmt(a) for a in args]
        try:
            value = fn(*args)
        except SpectralMaskError as exc:
            rows.append(cells + ["", str(exc)])
            return
        rows.append(cells + [_fmt(value), ""])

    def walk(axis_idx: int, args: list, N: int | None) -> None:
        if axis_idx == len(axes):
            emit(args)
            return
        axis = axes[axis_idx]
        if axis == "N":
            for n_value in cfg.n_grid:
                walk(axis_idx + 1, args + [n_value], n_value)
        else:
            for v in _scan_axis_values(axis, N if N is not None else 1, cfg):
                walk(axis_idx + 1, args + [v], N)

    walk(0, [], None)
    path = cfg.output_dir / f"scan_{formula}.csv"
    _write_csv(path, list(axes) + ["value", "reason"], rows)
    print(path)
    return 0


def _environment() -> dict:
    return {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "rng_algorithm": RNG_ALGORITHM,
        "mc_algorithm": MC_ALGORITHM,
        "law_algorithm": oracle.LAW_ALGORITHM,
    }


def _run_suite(name: str, cfg: RunConfig, workers: int) -> SuiteResult:
    if name == "montecarlo":
        return SUITES[name](
            samples=cfg.mc_samples if cfg.mc_samples > 0 else 200_000,
            seed=cfg.mc_seed,
            workers_many=max(workers, 2),
        )
    return SUITES[name]()


def cmd_verify(cfg: RunConfig) -> int:
    workers = _effective_workers(cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, SuiteResult] = {}
    for name in cfg.suites:
        result = _run_suite(name, cfg, workers)
        results[name] = result
        slack = "" if result.worst_slack is None else f" worst_slack={result.worst_slack:.3e}"
        print(f"suite {name}: {'PASS' if result.ok else 'FAIL'} "
              f"({result.passed} passed, {result.failed} failed){slack}")
    summary = {
        "all_passed": all(r.ok for r in results.values()),
        "environment": _environment(),
        "config": cfg.to_dict(),
        "suites": {name: r.to_dict() for name, r in results.items()},
    }
    _validate(summary, "summary.schema.json")
    path = cfg.output_dir / "summary.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0 if summary["all_passed"] else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call of the process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (see shipped config schema)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="Monte Carlo seed override")
    common.add_argument("--samples", type=int, help="Monte Carlo sample-count override (0 disables MC)")
    common.add_argument("--suites", help="comma-separated suite names for `verify`")
    parser = argparse.ArgumentParser(
        prog="spectral-mask",
        description="Verification tool for DFT-coefficient statistics of Bernoulli sampling masks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common], help="run verification suites, write summary.json")
    sub.add_parser("tails", parents=[common], help="tail tables: exact vs Monte Carlo vs bounds")
    sub.add_parser("crossover", parents=[common], help="combined-bound branch classification table")
    sub.add_parser("psi2", parents=[common], help="psi2 norm and bound table")
    scan = sub.add_parser("scan", parents=[common], help="grid sweep of one scalar formula")
    scan.add_argument("--formula", required=True, choices=sorted(SCAN_FORMULAS))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(load_config(args.config, args))
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "tails":
            return cmd_tails(cfg)
        if args.command == "crossover":
            return cmd_crossover(cfg)
        if args.command == "psi2":
            return cmd_psi2(cfg)
        return cmd_scan(cfg, args.formula)
    except (OSError, json.JSONDecodeError, jsonschema.ValidationError, SpectralMaskError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
