"""Verification suites: every identity and bound checked against the oracle.

Each suite walks a fixed grid, compares closed forms with the exhaustive
oracle (or the Monte Carlo engine with itself), and reports pass/fail counts
plus the worst slack seen.  The grids stay at N <= 12, where the oracle
admits every law, so no suite takes a size limit.  The CLI ``verify``
command and the acceptance test module both run these functions, so the
command line and the test suite can never drift apart.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import bounds, oracle
from .model import ModelParams, Part
from .montecarlo import McConfig, McQueries, mc_moment, mc_run, mc_tail

#: Pure float-comparison cushion for domination assertions; any genuine
#: violation of a bound is orders of magnitude larger.
DOMINATION_EPS = 1e-12

_FAILURE_CAP = 25


@dataclass
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    worst_slack: float | None = None
    slack_kind: str | None = None
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, condition: bool, message: Callable[[], str]) -> None:
        """Count one check.  ``message`` builds the failure text; it is called
        only when the check fails and fewer than ``_FAILURE_CAP`` failures are
        recorded, since most checks pass."""
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < _FAILURE_CAP:
                self.failures.append(message())
            elif len(self.failures) == _FAILURE_CAP:
                self.failures.append("... further failures elided")

    def track_slack(self, slack: float) -> None:
        if self.worst_slack is None or slack < self.worst_slack:
            self.worst_slack = slack

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
            "worst_slack": self.worst_slack,
            "slack_kind": self.slack_kind,
            "details": dict(self.details),
        }


def criterion_params() -> list[ModelParams]:
    """The exhaustive small grid: N in [3, 12], l in [1, N-1] with N != 2l,
    m in [1, N]."""
    grid = []
    for N in range(3, 13):
        for l in range(1, N):
            if N == 2 * l:
                continue
            for m in range(1, N + 1):
                grid.append(ModelParams(N, l, m))
    return grid


def t_grid(N: int) -> np.ndarray:
    """Sqrt-N-scaled thresholds t_i = (i/50) * 2 * sqrt(N), i = 0..49."""
    return (np.arange(50) / 50) * 2.0 * math.sqrt(N)


def suite_moments() -> SuiteResult:
    """Zero means and the variance identities on the exhaustive grid."""
    res = SuiteResult("moments", slack_kind="max_abs_error")
    worst = 0.0
    for params in criterion_params():
        mean_u = oracle.exact_moment(params, Part.REAL, 1)
        mean_v = oracle.exact_moment(params, Part.IMAG, 1)
        mean_x = math.hypot(mean_u, mean_v)
        e_u2 = oracle.exact_moment(params, Part.REAL, 2)
        e_v2 = oracle.exact_moment(params, Part.IMAG, 2)
        e_mod2 = oracle.exact_moment(params, Part.MODULUS, 2)
        var_x, var_u, var_v = bounds.variance_formula(params)
        deviations = {
            "mean_u": abs(mean_u),
            "mean_v": abs(mean_v),
            "mean_x": mean_x,
            "var_u": abs((e_u2 - mean_u**2) - var_u),
            "var_v": abs((e_v2 - mean_v**2) - var_v),
            "var_x": abs((e_mod2 - mean_x**2) - var_x),
        }
        for label, dev in deviations.items():
            worst = max(worst, dev)
            res.check(dev <= 1e-12, lambda: f"{label} deviates by {dev:.3e} at {params}")
    res.worst_slack = worst
    return res


def _match_pmf(res: SuiteResult, params: ModelParams, pmf, support: range) -> None:
    dist = oracle.enumerate_distribution(params, Part.REAL)
    matched_mass = 0.0
    for v, p in zip(dist.values, dist.probs):
        k = round(float(v))
        res.check(
            abs(v - k) <= 1e-9 and k in support,
            lambda: f"non-integer or out-of-support atom {v!r} at {params}",
        )
        expected = pmf(k)
        dev = abs(p - expected)
        res.check(dev <= 1e-12, lambda: f"atom {k} off by {dev:.3e} at {params}")
        res.track_slack(-dev)
        matched_mass += expected
    res.check(
        abs(matched_mass - 1.0) <= 1e-12,
        lambda: f"matched mass {matched_mass} misses atoms at {params}",
    )


def suite_special_forms() -> SuiteResult:
    """Zero-frequency law vs binomial; N = 2l real part vs difference law."""
    res = SuiteResult("special_forms", slack_kind="max_abs_error")
    for N in range(1, 13):
        for m in range(1, N + 1):
            params = ModelParams(N, 0, m)
            _match_pmf(
                res,
                params,
                lambda k, N=N, m=m: bounds.binomial_pmf(N, m, N, k),
                range(0, N + 1),
            )
    for N in range(2, 13, 2):
        l = N // 2
        for m in range(1, N + 1):
            params = ModelParams(N, l, m)
            _match_pmf(
                res,
                params,
                lambda k, l=l, m=m, N=N: bounds.diff_binomial_pmf(l, m, N, k),
                range(-l, l + 1),
            )
    if res.worst_slack is not None:
        res.worst_slack = -res.worst_slack
    return res


def suite_tails() -> SuiteResult:
    """Hard domination of exact tails by the three bounded-difference bounds."""
    res = SuiteResult("tails", slack_kind="min_bound_minus_exact")
    cases = (
        (Part.REAL, bounds.tail_bound_uv),
        (Part.IMAG, bounds.tail_bound_uv),
        (Part.MODULUS_CENTERED, bounds.tail_bound_mod),
    )
    # Bound values over the grid, once per (bound, N): they do not depend on l or m.
    rows: dict = {}
    for params in criterion_params():
        ts = t_grid(params.N)
        for part, bound_fn in cases:
            exact = oracle.exact_tail_curve(params, part, ts)
            key = (bound_fn, params.N)
            if key not in rows:
                rows[key] = [bound_fn(params.N, float(t)) for t in ts]
            for t, ex, b in zip(ts, exact, rows[key]):
                res.track_slack(b - ex)
                res.check(
                    ex <= b + DOMINATION_EPS,
                    lambda: f"exact tail {ex:.6g} exceeds bound {b:.6g} at t={t:.6g}, "
                    f"{part.value}, {params}",
                )
    return res


def suite_entropy_tails() -> SuiteResult:
    """Verification of the externally cited entropy bound and its combined form.

    These are checked, not trusted: any violation on this grid fails the
    suite and is itemized.
    """
    res = SuiteResult("entropy_tails", slack_kind="min_bound_minus_exact")
    # Bound values over the grid, once per (N, m): they do not depend on l.
    rows: dict = {}
    for params in criterion_params():
        N, m = params.N, params.m
        if 2 * m >= N:
            continue
        ts = t_grid(N)
        if (N, m) not in rows:
            rows[N, m] = [
                (
                    ("entropy", bounds.tail_bound_entropy(N, m, float(t))),
                    ("combined", bounds.tail_bound_combined(N, m, float(t))),
                )
                for t in ts
            ]
        for part in (Part.REAL, Part.IMAG):
            exact = oracle.exact_tail_curve(params, part, ts)
            for t, ex, row in zip(ts, exact, rows[N, m]):
                for name, b in row:
                    res.track_slack(b - ex)
                    res.check(
                        ex <= b + DOMINATION_EPS,
                        lambda: f"exact tail {ex:.6g} exceeds {name} bound {b:.6g} at "
                        f"t={t:.6g}, {part.value}, {params}",
                    )
    return res


def suite_crossover() -> SuiteResult:
    """Named crossover verdicts plus branch consistency on the small grid."""
    res = SuiteResult("crossover")
    second_cases = [(2304, 48), (48 * 10, 10), (48 * 48, 48)]
    first_cases = [(c * m, m) for c in (3, 10, 47) for m in (5, 10, 48)]
    for N, m in second_cases:
        verdict = bounds.crossover_region(N, m)
        res.check(
            verdict.kind is bounds.CrossoverKind.SECOND_FOR_ALL_T,
            lambda: f"expected second-for-all-t at (N={N}, m={m}), got {verdict.kind.value}",
        )
    for N, m in first_cases:
        verdict = bounds.crossover_region(N, m)
        res.check(
            verdict.kind is bounds.CrossoverKind.FIRST_BEYOND_T_STAR,
            lambda: f"expected first-beyond-t* at (N={N}, m={m}), got {verdict.kind.value}",
        )
    # Boundary behavior: one multiplier below/at the flip.
    res.check(
        bounds.crossover_region(47 * 48, 48).kind
        is bounds.CrossoverKind.FIRST_BEYOND_T_STAR,
        lambda: "multiplier 47 should leave the first branch in charge beyond t*",
    )
    res.check(
        bounds.crossover_region(48 * 48, 48).kind
        is bounds.CrossoverKind.SECOND_FOR_ALL_T,
        lambda: "multiplier 48 should hand every t to the second branch",
    )
    # Branch consistency across the small grid and the named cases.
    pairs = sorted(
        {(p.N, p.m) for p in criterion_params() if 2 * p.m < p.N}
        | set(second_cases)
        | set(first_cases)
    )
    for N, m in pairs:
        verdict = bounds.crossover_region(N, m)
        ts = t_grid(N)

        def first_exp(t: float) -> float:
            return verdict.coeff_first * t * t - math.log(2.0)

        def second_exp(t: float) -> float:
            return verdict.coeff_second * t * t

        if verdict.kind is bounds.CrossoverKind.SECOND_FOR_ALL_T:
            ok = all(second_exp(t) >= first_exp(t) - DOMINATION_EPS for t in ts)
            res.check(ok, lambda: f"second branch loses somewhere on the grid at (N={N}, m={m})")
        else:
            t_star = verdict.t_star
            res.check(
                first_exp(2 * t_star) > second_exp(2 * t_star),
                lambda: f"first branch fails to win at 2 t* for (N={N}, m={m})",
            )
            res.check(
                first_exp(t_star / 2) < second_exp(t_star / 2),
                lambda: f"first branch wins too early at t*/2 for (N={N}, m={m})",
            )
    return res


_K_PROBES = (0.6, 0.75, 1.0, 2.0, 5.0)


def suite_moment_chain() -> SuiteResult:
    """Even-moment and exponential-moment domination, plus the closed-form
    root identity exp_moment_bound(N, psi2_upper(N)) = 2."""
    res = SuiteResult("moment_chain", slack_kind="min_bound_minus_exact")
    for params in criterion_params():
        for n in range(1, 6):
            exact = oracle.exact_moment(params, Part.REAL, 2 * n)
            b = bounds.moment_bound(params.N, n)
            res.track_slack(b - exact)
            res.check(
                exact <= b * (1.0 + 1e-12) + DOMINATION_EPS,
                lambda: f"E[U^{2 * n}] = {exact:.6g} exceeds bound {b:.6g} at {params}",
            )
        root_n = math.sqrt(params.N)
        for mult in _K_PROBES:
            K = mult * root_n
            exact = oracle.exact_exp_moment(params, Part.REAL, K)
            b = bounds.exp_moment_bound(params.N, K)
            res.track_slack(b - exact)
            res.check(
                exact <= b * (1.0 + 1e-12) + DOMINATION_EPS,
                lambda: f"E[exp(U^2/K^2)] = {exact:.6g} exceeds bound {b:.6g} "
                f"at K={K:.6g}, {params}",
            )
    for N in range(1, 13):
        sanity = bounds.exp_moment_bound(N, bounds.psi2_upper(N))
        res.check(
            abs(sanity - 2.0) <= 1e-9,
            lambda: f"exp_moment_bound(N, psi2_upper(N)) = {sanity!r} at N={N}, not 2 within 1e-9",
        )
    return res


def suite_psi2() -> SuiteResult:
    """psi2 chain: oracle norms under the closed-form bounds, plus the
    analytic three-point closed case."""
    res = SuiteResult("psi2", slack_kind="min_bound_minus_exact")
    for params in criterion_params():
        est = oracle.exact_psi2_norm(params, Part.REAL, 1e-10)
        upper = bounds.psi2_upper(params.N)
        res.track_slack(upper - est.norm)
        res.check(
            est.norm <= upper + 1e-9,
            lambda: f"exp-moment psi2 norm {est.norm:.6g} exceeds {upper:.6g} at {params}",
        )
        values, _ = oracle._dist_arrays(params, Part.REAL)
        sup_value = float(np.abs(values).max(initial=0.0))
        mom = oracle.exact_psi2_moment_norm(params, Part.REAL)
        res.check(
            mom.norm <= sup_value + 1e-9,
            lambda: f"moment-sup norm {mom.norm:.6g} exceeds sup norm {sup_value:.6g} at {params}",
        )
    for N in range(2, 13):
        res.check(
            bounds.psi2_upper(N) <= bounds.psi2_sup_upper(N),
            lambda: f"sqrt(N) bound should undercut the sup-norm bound for N={N} >= 2",
        )
    # N = 1 is the one size where the sup-norm route is tighter; report, don't rank.
    res.details["psi2_upper_coefficient"] = bounds.PSI2_UPPER_COEFFICIENT
    res.details["psi2_sup_upper_unit"] = bounds.psi2_sup_upper(1)
    res.details["psi2_upper_n1"] = bounds.psi2_upper(1)
    closed = oracle.exact_psi2_norm(ModelParams(2, 1, 1), Part.REAL, 1e-12)
    target = 1.0 / math.sqrt(math.log(3.0))
    res.details["three_point_norm"] = closed.norm
    res.details["three_point_target"] = target
    res.check(
        abs(closed.norm - target) <= 1e-9,
        lambda: f"three-point psi2 norm {closed.norm!r} differs from 1/sqrt(ln 3) = {target!r}",
    )
    # N = 2 cannot appear in the exhaustive grid (its only frequency is the
    # degenerate l = 1); check the bound there through the closed case.
    res.check(
        closed.norm <= bounds.psi2_upper(2) + 1e-9,
        lambda: f"three-point norm {closed.norm!r} exceeds psi2_upper(2)",
    )
    return res


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def quadrature_q(x: float) -> float:
    """Independent Q oracle: composite 64-node Gauss-Legendre quadrature of
    the normal density over [x, x + 40] in unit panels; the truncated tail
    is below exp(-(x + 40)^2 / 2), negligible."""
    panels = np.arange(40)
    mids = x + panels + 0.5
    pts = mids[:, None] + 0.5 * _GL_NODES[None, :]
    dens = np.exp(-0.5 * pts * pts) / math.sqrt(2.0 * math.pi)
    return float(0.5 * np.sum(dens @ _GL_WEIGHTS))


def suite_qfunction() -> SuiteResult:
    """Q accuracy against quadrature, strict sandwich, Q-form domination."""
    res = SuiteResult("qfunction", slack_kind="min_bound_minus_exact")
    q1 = bounds.q_function(1.0)
    ref1 = quadrature_q(1.0)
    res.details["q_at_1"] = q1
    res.details["q_at_1_quadrature"] = ref1
    res.check(
        abs(q1 - ref1) <= 1e-10,
        lambda: f"Q(1) = {q1!r} differs from quadrature {ref1!r} beyond 1e-10",
    )
    xs = np.geomspace(1e-3, 10.0, 100)
    worst_rel = 0.0
    for x in xs:
        q = bounds.q_function(float(x))
        ref = quadrature_q(float(x))
        worst_rel = max(worst_rel, abs(q - ref) / ref)
        lower, upper = bounds.q_sandwich(float(x))
        res.check(
            lower < q < upper,
            lambda: f"sandwich not strict at x={x:.6g}: {lower!r} vs {q!r} vs {upper!r}",
        )
    res.details["worst_relative_q_error"] = worst_rel
    res.check(worst_rel <= 1e-12, lambda: f"Q relative error {worst_rel:.3e} beyond 1e-12")
    for N in range(3, 13):
        for t in t_grid(N)[1:]:
            qb = bounds.tail_bound_q(N, float(t))
            uv = bounds.tail_bound_uv(N, float(t))
            res.track_slack(qb - uv)
            res.check(
                qb >= uv - DOMINATION_EPS,
                lambda: f"Q-form bound {qb:.6g} under the direct bound {uv:.6g} "
                f"at N={N}, t={t:.6g}",
            )
    return res


def suite_montecarlo(
    samples: int = 1_000_000,
    seed: int = 42,
    workers_many: int = 8,
) -> SuiteResult:
    """Monte Carlo consistency on (N=12, l=5, m=4): CI coverage of the exact
    second moment and tail, and bit-identical reproducibility across repeat
    runs and worker counts."""
    res = SuiteResult("montecarlo")
    params = ModelParams(12, 5, 4)
    cfg = McConfig(samples=samples, seed=seed)
    queries = McQueries(parts=(Part.REAL,), moment_orders=(2,), tail_thresholds=(1.0,))
    acc = mc_run(params, queries, cfg, workers=1)
    acc_again = mc_run(params, queries, cfg, workers=1)
    acc_many = mc_run(params, queries, cfg, workers=workers_many)
    res.check(acc == acc_again, lambda: "two identical runs differ bit-for-bit")
    res.check(
        acc == acc_many,
        lambda: f"1-worker and {workers_many}-worker runs differ bit-for-bit",
    )
    exact_second = params.m * (params.N - params.m) / (2 * params.N)
    second = mc_moment(acc, Part.REAL, 2)
    res.details["second_moment"] = {
        "estimate": second.estimate,
        "half_width": second.half_width,
        "exact": exact_second,
    }
    res.check(
        second.covers(exact_second),
        lambda: f"second moment {second.estimate!r} +/- {second.half_width!r} "
        f"misses {exact_second!r}",
    )
    exact_tail_value = float(oracle.exact_tail_curve(params, Part.REAL, [1.0])[0])
    tail = mc_tail(acc, Part.REAL, 1.0)
    res.details["tail_at_1"] = {
        "estimate": tail.estimate,
        "half_width": tail.half_width,
        "exact": exact_tail_value,
    }
    res.check(
        tail.covers(exact_tail_value),
        lambda: f"tail {tail.estimate!r} +/- {tail.half_width!r} misses {exact_tail_value!r}",
    )
    return res


SUITES = {
    "moments": suite_moments,
    "special_forms": suite_special_forms,
    "tails": suite_tails,
    "entropy_tails": suite_entropy_tails,
    "crossover": suite_crossover,
    "moment_chain": suite_moment_chain,
    "psi2": suite_psi2,
    "qfunction": suite_qfunction,
    "montecarlo": suite_montecarlo,
}
