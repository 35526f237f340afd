"""Exact oracle over all 2^N masks: law, moments, tails, and psi2 norms.

Every closed-form identity and bound in :mod:`spectral_mask.bounds` is tested
against this module.  The law of a part is built by convolution, one atom at
a time: each step splits every outcome into atom-off and atom-on, merges
values that agree within ``VALUE_GROUPING_TOL`` and keeps an exact integer
count of masks per (outcome, popcount).  Probabilities weight those counts
with the exact big-integer rational m^k (N-m)^(N-k) / N^N rounded once to
float64.

The law does not depend on m, and the atom multiset at frequency l equals
the one at gcd(l, N), so one law serves every (l, m) of a frequency class.
Laws live in one cache bounded in bytes (``LAW_CACHE_BYTES``).  Building a
law measures the smallest gap between distinct outcomes and refuses a law
whose gap falls inside ``GROUPING_MARGIN`` times the grouping tolerance.

The exp-moment psi2 norm is located by one bisection (``_psi2_bisect``),
which the Monte Carlo estimator shares with the exact one.
"""

from __future__ import annotations

import enum
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ParameterDomainError
from .model import (
    REAL_VALUED_PARTS,
    VALUE_GROUPING_TOL,
    ModelParams,
    Part,
    atom_table,
)

#: Largest N enumerated unless the caller raises the guard explicitly.
DEFAULT_ENUM_GUARD = 24
#: Absolute ceiling on the guard override (2^26 masks).
HARD_ENUM_CAP = 26
#: Tag of the exact-law construction; exact artifact cells depend on it.
LAW_ALGORITHM = "atom-convolution-v1"
#: Distinct outcomes must lie this many grouping tolerances apart.
GROUPING_MARGIN = 1e3
#: Byte bound on the cache of laws shared across m and frequency classes.
LAW_CACHE_BYTES = 64 << 20

# Per-(outcome, popcount) mask counts are int32: C(N, k) <= C(26, 13) < 2^31.
assert math.comb(HARD_ENUM_CAP, HARD_ENUM_CAP // 2) < 2**31

_LN2 = math.log(2.0)


class Psi2Definition(enum.Enum):
    """Which sub-Gaussian norm definition an estimate refers to."""

    ORLICZ_EXP_MOMENT = "orlicz_exp_moment"
    MOMENT_SUP = "moment_sup"


@dataclass(frozen=True)
class Psi2Estimate:
    """A sub-Gaussian norm value with its enclosing bracket.

    For the exp-moment definition the bracket comes from bisection and
    ``hi - lo <= tolerance`` is certified; for the moment-sup definition the
    bracket pads the best value found by the residual spread of the final
    search interval (local unimodality observed, not proved).
    """

    norm: float
    definition: Psi2Definition
    bracket: tuple[float, float]
    tolerance: float

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if not (lo <= self.norm <= hi):
            raise ParameterDomainError(
                f"psi2 bracket {self.bracket} does not contain norm {self.norm}"
            )
        if hi - lo > self.tolerance * (1.0 + 1e-12) + 1e-300:
            raise ParameterDomainError(
                f"psi2 bracket width {hi - lo} exceeds tolerance {self.tolerance}"
            )


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """The full law of one part: grouped values with exact-weight probabilities.

    ``values`` is float64 (real-valued parts) or complex128 (complex part),
    sorted; ``probs`` are strictly positive and sum to 1 within 1e-12.  Arrays
    may be shared with an internal cache: treat them as read-only.
    """

    params: ModelParams
    part: Part
    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.probs.shape:
            raise ParameterDomainError("values and probs must have equal shapes")
        if not (self.probs > 0.0).all():
            raise ParameterDomainError("every grouped atom must have positive probability")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ParameterDomainError(f"probabilities sum to {total}, not 1 within 1e-12")
        if float(np.abs(self.values).max(initial=0.0)) > self.params.N + VALUE_GROUPING_TOL:
            raise ParameterDomainError("a grouped value exceeds the triangle-inequality bound N")


def weight_table(N: int, m: int) -> np.ndarray:
    """Single-mask weight (m/N)^k (1-m/N)^(N-k) for popcount k = 0..N.

    Each entry is the exact rational m^k (N-m)^(N-k) / N^N correctly rounded
    to float64 (true division of Python ints rounds once); no pow chains, no
    underflow for N within the hard cap.
    """
    if not isinstance(N, int) or N < 1 or not isinstance(m, int) or not 1 <= m <= N:
        raise ParameterDomainError(f"need 1 <= m <= N, got N={N!r}, m={m!r}")
    den = N**N
    return np.array(
        [m**k * (N - m) ** (N - k) / den for k in range(N + 1)], dtype=np.float64
    )


def _group_ids(order: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Group index of each input, given the sort ``order`` and run ``sizes``."""
    gid = np.empty(order.size, dtype=np.intp)
    gid[order] = np.repeat(np.arange(sizes.size), sizes)
    return gid


def _group_real(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Gap clusters of ``vals``: sorted representatives, the group of each
    input, the largest spread inside one group and the smallest gap between
    neighbouring groups."""
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    steps = np.diff(sv)
    breaks = steps > VALUE_GROUPING_TOL
    starts = np.concatenate(([0], np.nonzero(breaks)[0] + 1))
    ends = np.append(starts[1:], sv.size)
    sizes = ends - starts
    reps = np.add.reduceat(sv, starts) / sizes
    spread = float((sv[ends - 1] - sv[starts]).max())
    gap = float(steps[breaks].min(initial=math.inf))
    return reps, _group_ids(order, sizes), spread, gap


def _group_complex(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """As :func:`_group_real`, for complex values.

    Two-stage tolerance clustering: gap clusters of the real coordinate, then
    gap clusters of the imaginary coordinate inside each real cluster.
    Avoids chained-tolerance mistakes when interleaved imaginary parts sit
    inside one tight real cluster.  Spread and gap are taken per coordinate.
    """
    re = vals.real
    im = vals.imag
    order_re = np.argsort(re, kind="stable")
    sre = re[order_re]
    re_steps = np.diff(sre)
    re_breaks = re_steps > VALUE_GROUPING_TOL
    re_starts = np.concatenate(([0], np.nonzero(re_breaks)[0] + 1))
    re_ends = np.append(re_starts[1:], vals.size)
    re_id = np.empty(vals.size, dtype=np.intp)
    re_id[order_re] = np.concatenate(([0], np.cumsum(re_breaks)))
    order = np.lexsort((im, re_id))
    sim = im[order]
    im_steps = np.diff(sim)
    same_re = np.diff(re_id[order]) == 0
    im_breaks = same_re & (im_steps > VALUE_GROUPING_TOL)
    starts = np.concatenate(([0], np.nonzero(~same_re | im_breaks)[0] + 1))
    ends = np.append(starts[1:], vals.size)
    sizes = ends - starts
    reps = (
        np.add.reduceat(re[order], starts) / sizes
        + 1j * (np.add.reduceat(sim, starts) / sizes)
    )
    spread = max(
        float((sre[re_ends - 1] - sre[re_starts]).max()),
        float((sim[ends - 1] - sim[starts]).max()),
    )
    gap = min(
        float(re_steps[re_breaks].min(initial=math.inf)),
        float(im_steps[im_breaks].min(initial=math.inf)),
    )
    return reps, _group_ids(order, sizes), spread, gap


def _regroup(counts: np.ndarray, gid: np.ndarray, size: int) -> np.ndarray:
    """Sum the columns of ``counts`` that share a group id.

    ``bincount`` adds in float64, which is exact below 2^53; every count fits
    in int32 (module invariant), so the cast back is exact too.
    """
    out = np.empty((counts.shape[0], size), dtype=np.int32)
    for k, row in enumerate(counts):
        out[k] = np.bincount(gid, weights=row, minlength=size)
    return out


@dataclass(frozen=True, eq=False)
class _Law:
    """Law of one part of one frequency class, independent of m.

    ``values`` are the sorted grouped outcomes; ``counts[k, i]`` is the exact
    number of masks of popcount k whose value falls in group i.  ``spread``
    is the largest distance merged into one group at any step and ``gap`` the
    smallest distance between distinct final outcomes.
    """

    values: np.ndarray
    counts: np.ndarray
    spread: float
    gap: float

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.counts.nbytes


def _convolve(components: np.ndarray, group) -> _Law:
    """Law of the sum over a random subset of ``components``, one atom at a time.

    Each step splits every outcome into atom-off and atom-on (popcount + 1)
    and regroups, so the table never holds more than twice the distinct
    outcomes of the previous step.
    """
    values = np.zeros(1, dtype=components.dtype)
    counts = np.ones((1, 1), dtype=np.int32)
    spread = 0.0
    gap = math.inf
    for c in components:
        k, size = counts.shape
        split = np.zeros((k + 1, 2 * size), dtype=np.int32)
        split[:k, :size] = counts
        split[1:, size:] = counts
        values, gid, step_spread, gap = group(np.concatenate([values, values + c]))
        counts = _regroup(split, gid, values.size)
        spread = max(spread, step_spread)
    return _Law(values, counts, spread, gap)


def _build_law(N: int, g: int, part: Part) -> _Law:
    atoms = atom_table(N, g)
    if part is Part.REAL:
        law = _convolve(atoms.real, _group_real)
    elif part is Part.IMAG:
        law = _convolve(atoms.imag, _group_real)
    elif part is Part.COMPLEX:
        law = _convolve(atoms, _group_complex)
    else:
        joint = _law(N, g, Part.COMPLEX)
        values, gid, spread, gap = _group_real(np.abs(joint.values))
        counts = _regroup(joint.counts, gid, values.size)
        law = _Law(values, counts, max(spread, joint.spread), gap)
    if law.gap < GROUPING_MARGIN * VALUE_GROUPING_TOL:
        raise ParameterDomainError(
            f"distinct {part.value} outcomes at N={N}, gcd(l, N)={g} lie {law.gap:.3g} "
            f"apart, inside the grouping margin {GROUPING_MARGIN:g} x {VALUE_GROUPING_TOL:g}"
        )
    law.values.flags.writeable = False
    law.counts.flags.writeable = False
    return law


class _LawCache:
    """Laws keyed by (N, gcd(l, N) mod N, part), bounded in bytes.

    Least recently used laws are evicted first; a law larger than the bound
    is returned but not kept.  Each key is built by one thread at a time, so
    concurrent requests for a missing law wait for the first build instead
    of repeating it.
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._laws: OrderedDict[tuple, _Law] = OrderedDict()
        self._lock = threading.Lock()
        # One lock per key ever requested; keys are bounded by the hard cap.
        self._key_locks: dict[tuple, threading.Lock] = {}

    def get(self, key: tuple, build) -> _Law:
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._lock:
                law = self._laws.get(key)
                if law is not None:
                    self._laws.move_to_end(key)
                    return law
            law = build(*key)
            with self._lock:
                self._insert(key, law)
            return law

    def _insert(self, key: tuple, law: _Law) -> None:
        if law.nbytes > self.max_bytes:
            return
        while self.nbytes + law.nbytes > self.max_bytes:
            _, old = self._laws.popitem(last=False)
            self.nbytes -= old.nbytes
        self._laws[key] = law
        self.nbytes += law.nbytes


_LAWS = _LawCache(LAW_CACHE_BYTES)


def _law(N: int, g: int, part: Part) -> _Law:
    return _LAWS.get((N, g, part), _build_law)


def _check_guard(params: ModelParams, max_enum_n: int) -> None:
    if not isinstance(max_enum_n, int) or max_enum_n < 1:
        raise ParameterDomainError(f"enumeration guard must be a positive integer, got {max_enum_n!r}")
    if max_enum_n > HARD_ENUM_CAP:
        raise ParameterDomainError(
            f"enumeration guard cannot exceed {HARD_ENUM_CAP} (2^{HARD_ENUM_CAP} masks)"
        )
    if params.N > max_enum_n:
        raise CapabilityError(
            f"N={params.N} exceeds the 2^N enumeration guard ({max_enum_n}); "
            "use the Monte Carlo estimators for this size"
        )


def _dist_arrays(
    params: ModelParams, part: Part, max_enum_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped values and probabilities of one part: the entry point of every
    exact query.  The law is shared by every l with the same gcd(l, N) (same
    atom multiset) and every m (the popcount weights apply here)."""
    _check_guard(params, max_enum_n)
    if not isinstance(part, Part):
        raise ParameterDomainError(f"part must be a Part, got {part!r}")
    N = params.N
    base = Part.MODULUS if part is Part.MODULUS_CENTERED else part
    law = _law(N, math.gcd(params.l, N) % N, base)
    probs = weight_table(N, params.m) @ law.counts
    values = law.values
    if part is Part.MODULUS_CENTERED:
        # Subtract the exact expected modulus computed in the same pass; no
        # closed form for it is assumed anywhere.
        values = values - float(np.dot(values, probs))
    keep = probs > 0.0
    if not bool(keep.all()):
        values = values[keep]
        probs = probs[keep]
    values.flags.writeable = False
    probs.flags.writeable = False
    return values, probs


def enumerate_distribution(
    params: ModelParams, part: Part, *, max_enum_n: int = DEFAULT_ENUM_GUARD
) -> ExactDistribution:
    """Exact law of the selected part over all 2^N masks.

    Mask S carries weight (m/N)^|S| (1-m/N)^(N-|S|); equal values (within the
    grouping tolerance) are merged.  For the centered modulus the exact
    expected modulus is subtracted in the same pass.
    """
    values, probs = _dist_arrays(params, part, max_enum_n)
    return ExactDistribution(params, part, values, probs)


def _require_real_part(part: Part) -> None:
    if part not in REAL_VALUED_PARTS:
        raise ParameterDomainError(f"operation needs a real-valued part, got {part!r}")


def exact_moment(
    params: ModelParams,
    part: Part,
    order: int,
    *,
    max_enum_n: int = DEFAULT_ENUM_GUARD,
) -> float:
    """Exact E[X^order] of a real-valued part over the enumerated law."""
    _require_real_part(part)
    if not isinstance(order, int) or order < 1:
        raise ParameterDomainError(f"order must be a positive integer, got {order!r}")
    values, probs = _dist_arrays(params, part, max_enum_n)
    return float(np.dot(probs, values**order))


def exact_tail(
    params: ModelParams,
    part: Part,
    t: float,
    *,
    max_enum_n: int = DEFAULT_ENUM_GUARD,
) -> float:
    """Exact P(|X| >= t) with the >= convention.

    The comparison allows the value-grouping tolerance so atoms that are
    analytically at the threshold are counted regardless of float noise.
    """
    _require_real_part(part)
    if not np.isfinite(t) or t < 0:
        raise ParameterDomainError(f"t must be a finite nonnegative real, got {t!r}")
    values, probs = _dist_arrays(params, part, max_enum_n)
    return float(probs[np.abs(values) >= t - VALUE_GROUPING_TOL].sum())


def exact_tail_curve(
    params: ModelParams,
    part: Part,
    ts: np.ndarray,
    *,
    max_enum_n: int = DEFAULT_ENUM_GUARD,
) -> np.ndarray:
    """Vector of exact tails P(|X| >= t) for each t in ``ts``."""
    _require_real_part(part)
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size and (not np.isfinite(ts).all() or (ts < 0).any()):
        raise ParameterDomainError("all thresholds must be finite and nonnegative")
    values, probs = _dist_arrays(params, part, max_enum_n)
    order = np.argsort(np.abs(values), kind="stable")
    sorted_abs = np.abs(values)[order]
    suffix = np.cumsum(probs[order][::-1])[::-1]
    idx = np.searchsorted(sorted_abs, ts - VALUE_GROUPING_TOL, side="left")
    out = np.zeros_like(ts)
    inside = idx < sorted_abs.size
    out[inside] = suffix[idx[inside]]
    return out


def _exp_moment_from_arrays(values: np.ndarray, probs: np.ndarray, K: float) -> float:
    scaled = (values * values) / (K * K)
    if float(scaled.max(initial=0.0)) > 700.0:
        logs = scaled + np.log(probs)
        peak = float(logs.max())
        total = peak + math.log(float(np.exp(logs - peak).sum()))
        return math.exp(total) if total <= 709.0 else math.inf
    return float(np.dot(probs, np.exp(scaled)))


def exact_exp_moment(
    params: ModelParams,
    part: Part,
    K: float,
    *,
    max_enum_n: int = DEFAULT_ENUM_GUARD,
) -> float:
    """Exact E[exp(X^2/K^2)] over the enumerated law.

    Switches to log-space once any atom has value^2/K^2 > 700, and returns
    ``math.inf`` when even the log-space result overflows float64.
    """
    _require_real_part(part)
    if not (np.isfinite(K) and K > 0):
        raise ParameterDomainError(f"K must be a positive real, got {K!r}")
    values, probs = _dist_arrays(params, part, max_enum_n)
    return _exp_moment_from_arrays(values, probs, K)


def _psi2_bisect(objective, N: int, tol: float) -> tuple[float, float] | None:
    """Bracket ``(lo, hi)`` with ``hi - lo <= tol`` around the root of
    ``objective(K) = 2`` for a decreasing exp-moment ``objective`` of a
    variable bounded by N; ``None`` when the root lies below 1e-300 (the
    variable is zero for every practical purpose).

    The one psi2 bisection: the exact and the Monte Carlo exp-moment norms
    both locate their root here.
    """
    hi = N / math.sqrt(_LN2) + 1.0
    lo = 1e-6
    while objective(lo) <= 2.0:
        # Root sits below the default lower probe; expand downward.
        lo *= 0.0625
        if lo < 1e-300:
            return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if objective(mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def exact_psi2_norm(
    params: ModelParams,
    part: Part,
    tol: float = 1e-9,
    *,
    max_enum_n: int = DEFAULT_ENUM_GUARD,
) -> Psi2Estimate:
    """Smallest scale K with E[exp(X^2/K^2)] <= 2, located by bisection.

    The map K -> E[exp(X^2/K^2)] is continuous and strictly decreasing for a
    non-degenerate bounded X, so the infimum is the unique root of E = 2.  An
    (almost surely) zero variable has norm 0 by convention.
    """
    _require_real_part(part)
    if not (np.isfinite(tol) and tol > 0):
        raise ParameterDomainError(f"tol must be a positive real, got {tol!r}")
    values, probs = _dist_arrays(params, part, max_enum_n)
    bracket = None
    if float(np.abs(values).max(initial=0.0)) > VALUE_GROUPING_TOL:
        bracket = _psi2_bisect(
            lambda K: _exp_moment_from_arrays(values, probs, K), params.N, tol
        )
    if bracket is None:
        return Psi2Estimate(0.0, Psi2Definition.ORLICZ_EXP_MOMENT, (0.0, 0.0), tol)
    lo, hi = bracket
    return Psi2Estimate(
        0.5 * (lo + hi), Psi2Definition.ORLICZ_EXP_MOMENT, (lo, hi), tol
    )


# The moment-sup norm scans this many log-spaced orders p on [1, 200].
_MOMENT_P_MAX = 200.0
_MOMENT_GRID = 64


def exact_psi2_moment_norm(
    params: ModelParams,
    part: Part,
    *,
    max_enum_n: int = DEFAULT_ENUM_GUARD,
) -> Psi2Estimate:
    """sup over p >= 1 of p^(-1/2) E[|X|^p]^(1/p).

    Scans a log-spaced grid on [1, 200], then refines around the best grid
    point with golden-section search.  g(p) -> 0 as p -> inf for bounded X,
    so the supremum is interior or at p = 1; local unimodality around the
    best grid point is assumed (observed, not proved) and the reported
    bracket pads the best value with the residual spread of the final
    interval.
    """
    _require_real_part(part)
    values, probs = _dist_arrays(params, part, max_enum_n)
    absv = np.abs(values)
    nz = absv > VALUE_GROUPING_TOL
    if not bool(nz.any()):
        return Psi2Estimate(0.0, Psi2Definition.MOMENT_SUP, (0.0, 0.0), 0.0)
    logv = np.log(absv[nz])
    logw = np.log(probs[nz])

    def g(p: float) -> float:
        logs = p * logv + logw
        peak = float(logs.max())
        lse = peak + math.log(float(np.exp(logs - peak).sum()))
        return math.exp(lse / p) / math.sqrt(p)

    ps = np.geomspace(1.0, _MOMENT_P_MAX, _MOMENT_GRID)
    gs = np.array([g(p) for p in ps])
    i = int(np.argmax(gs))
    best = float(gs[i])
    a = float(ps[max(i - 1, 0)])
    b = float(ps[min(i + 1, _MOMENT_GRID - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    if b > a:
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = g(c), g(d)
        best = max(best, fc, fd)
        while b - a > 1e-9 * max(1.0, b):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = g(d)
            best = max(best, fc, fd)
    pad = max(best - min(g(a), g(b)), 0.0) + 1e-15
    hi = best + pad
    # The tolerance is the width the float bracket really has, which can
    # exceed ``pad`` by an ulp of ``best``.
    return Psi2Estimate(best, Psi2Definition.MOMENT_SUP, (best, hi), hi - best)
