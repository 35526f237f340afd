"""Exact oracle over all 2^N masks: law, moments, tails, and psi2 norms.

Every closed-form identity and bound in :mod:`spectral_mask.bounds` is tested
against this module.  An outcome at frequency l is a sum of d-th roots of
unity, d = N / gcd(l, N), so it has exact integer coordinates in Z[zeta_d]
(basis 1, zeta, ..., zeta^(phi(d)-1)).  The law of a part is built by
convolution on one int64 key per outcome that packs those coordinates.  For
odd d each step adds one atom: every outcome splits into atom-off and
atom-on.  For even d, zeta^(r + d/2) = -zeta^r, so the atoms form N/2
opposite pairs (v, -v), and each step adds one pair: every outcome splits
into -v, 0 and +v.  Equal keys merge after each step, with an exact integer
count of masks per outcome and number of steps off zero; equal steps are
convolved next to each other, so they merge early.  Popcounts come back
exactly at the end: j pairs at +-v and q of the others both on make
popcount j + 2q, in C(N/2 - j, q) ways.  The real and imaginary parts group
on 2 Re z and 2i Im z.  The modulus groups the outcomes of the complex
sum's convolution on |z|^2 as they come out of it, and expands popcounts
only once grouped; the complex law is built only when it is asked for.
Floats are computed from the coordinates, for output only.  Probabilities
weight the counts with the exact big-integer rational
m^k (N-m)^(N-k) / N^N rounded once to float64.

The law does not depend on m, and the atom multiset at frequency l equals
the one at gcd(l, N), so one law serves every (l, m) of a frequency class.
Tail curves, moments, exp-moments and both psi2 norms are answered once
per class: each answer is kept with the law under (query, m, part,
arguments), and the other l of the class read it.

Three limits decide which laws are exact, each on a real cost.  Mask counts
are int32, so every N >= 34 is refused before any lookup (C(34, 17) >=
2^31).  An outcome key is one int64, so a class whose coordinate ranges
need 63 bits or more is refused before it convolves (``_strides``).  A
build is refused as soon as one table it holds would pass ``LAW_BYTES``:
the count table of a convolution step, or the law's values with their
(N + 1)-popcount table.  Laws and answers live in one cache bounded by the
same ``LAW_BYTES``, so every law a build admits is kept; a key whose build
was refused is refused at once for as long as the cache lives.

The exp-moment E[exp(X^2/K^2)] has one evaluator (``_exp_moment``), over
squared outcomes and their probabilities, and the exp-moment psi2 norm one
bisection (``_psi2_bisect``); the Monte Carlo estimator reads both with the
empirical law of its samples.
"""

from __future__ import annotations

import enum
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, ParameterDomainError
from .model import (
    REAL_VALUED_PARTS,
    VALUE_GROUPING_TOL,
    ModelParams,
    Part,
)

#: Tag of the exact-law construction and of how exact tails are summed from
#: it; exact artifact cells depend on it.
LAW_ALGORITHM = "cyclotomic-keys-count-tails-v1"
#: Byte bound on each table a build holds (a convolution step's count table,
#: the law's values and popcount table), past which the build is refused,
#: and on the cache of laws, shared across m and frequency classes, and of
#: the answers computed from them.
LAW_BYTES = 256 << 20
#: Rows per slice of the convolution, conjugate and popcount transients.
_SLICE_ROWS = 1 << 12
#: Largest N whose mask counts all fit the int32 count tables.
_COUNT_N_MAX = 33

# Per-(outcome, popcount) mask counts are int32: C(N, k) <= C(33, 16) < 2^31,
# and C(34, 17) would not fit.
assert math.comb(_COUNT_N_MAX, _COUNT_N_MAX // 2) < 2**31 <= math.comb(34, 17)

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
    """The full law of one part: distinct outcomes with exact-weight probabilities.

    ``values`` is float64 (real-valued parts) or complex128 (complex part,
    ordered by real then imaginary part), sorted.  Outcomes are grouped
    exactly, so two entries are two distinct outcomes, however close their
    floats.  ``probs`` are strictly positive and sum to 1 within 1e-12.
    Arrays may be shared with an internal cache: treat them as read-only.
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
    underflow: a nonzero weight is at least N^-N > 2^-167 at N <= 33.
    """
    if not isinstance(N, int) or N < 1 or not isinstance(m, int) or not 1 <= m <= N:
        raise ParameterDomainError(f"need 1 <= m <= N, got N={N!r}, m={m!r}")
    den = N**N
    return np.array(
        [m**k * (N - m) ** (N - k) / den for k in range(N + 1)], dtype=np.float64
    )


def _cyclotomic(d: int) -> np.ndarray:
    """Integer coefficients of Phi_d, constant term first: x^d - 1 divided
    exactly by Phi_e for every proper divisor e of d."""
    poly = np.zeros(d + 1, dtype=np.int64)
    poly[0], poly[d] = -1, 1
    for e in (e for e in range(1, d) if d % e == 0):
        den = _cyclotomic(e)
        quo = np.zeros(poly.size - den.size + 1, dtype=np.int64)
        for i in reversed(range(quo.size)):
            quo[i] = poly[i + den.size - 1]
            poly[i : i + den.size] -= quo[i] * den
        poly = quo
    return poly


def _powers(d: int, count: int) -> np.ndarray:
    """Coordinates of zeta^r, r < count, in the basis 1, zeta, ...,
    zeta^(phi(d)-1) of Z[zeta_d]: multiply by zeta, reduce modulo Phi_d."""
    low = -_cyclotomic(d)[:-1]
    out = np.zeros((count, low.size), dtype=np.int64)
    out[0, 0] = 1
    for r in range(1, count):
        out[r, 1:] = out[r - 1, :-1]
        out[r] += out[r - 1, -1] * low
    return out


def _strides(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Place values of a mixed radix over integer coordinates in [lo, hi]:
    each coordinate row packs into one int64 key.  Refuses a wider key."""
    radix = (hi - lo + 1).tolist()
    if math.prod(radix) >= 2**63:
        raise CapabilityError(f"exact outcome keys need {math.log2(math.prod(radix)):.1f} bits")
    return np.cumprod([1] + radix[:-1]).astype(np.int64)


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first input of each distinct key, in key order, and the
    group index of every input: equal keys are equal outcomes."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    gid = np.empty(keys.size, dtype=np.intp)
    gid[order] = np.cumsum(starts) - 1
    return order[starts], gid


def _charge(nbytes: int, what: str) -> None:
    """Refuse a table of ``nbytes`` that would pass ``LAW_BYTES``, before it
    is allocated."""
    if nbytes > LAW_BYTES:
        raise CapabilityError(
            f"exact law needs more than the {LAW_BYTES / 2**20:g} MiB byte budget "
            f"({what}); use the Monte Carlo estimators"
        )


def _regroup(rows: np.ndarray, gid: np.ndarray, size: int) -> np.ndarray:
    """Sum the rows of the count table ``rows`` that share a group id.

    ``bincount`` adds in float64, which is exact below 2^53; every count fits
    in int32 (module invariant), so the cast back is exact too.
    """
    out = np.empty((size, rows.shape[1]), dtype=np.int32)
    for j in range(rows.shape[1]):
        out[:, j] = np.bincount(gid, weights=rows[:, j], minlength=size)
    return out


@dataclass(frozen=True, eq=False)
class _Law:
    """Law of one part of one frequency class, independent of m.

    ``values`` are the sorted outcomes; ``counts[k, i]`` is the exact number
    of masks of popcount k whose value is outcome i.  No law keeps
    coordinates: the modulus law is grouped straight from the complex sum's
    convolution, and the complex law is built only when it is asked for.
    """

    values: np.ndarray
    counts: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.counts.nbytes


def _steps(N: int, d: int) -> np.ndarray:
    """Residues r of the atoms zeta^r, n = 1..N, one row per convolution
    step.  For even d, zeta^(r + d/2) = -zeta^r, so each row is an opposite
    pair (r, r + d/2), r < d/2; for odd d each row is one atom.  Rows are
    sorted, so equal steps come next to each other and merge early."""
    r = np.sort(np.arange(1, N + 1) % d)
    if d % 2:
        return r[:, None]
    r = r[r < d // 2]
    return np.stack([r, r + d // 2], axis=1)


def _add_atom(keys: np.ndarray, counts: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One convolution step: every outcome stays (key and count column
    unchanged) or moves by one of the step's key ``deltas`` (column + 1), and
    equal keys merge.  Rows of ``counts`` are outcomes, so each part moves as
    whole rows; no key repeats within a part.  Refused before the count
    table would pass ``LAW_BYTES``."""
    size, k = counts.shape
    both = np.concatenate([keys, *(keys + delta for delta in deltas)])
    first, gid = _group(both)
    _charge(4 * first.size * (k + 1), f"{first.size} outcomes after {k * len(deltas)} atoms")
    grown = np.zeros((first.size, k + 1), dtype=np.int32)
    grown[gid[:size], :k] = counts
    # In slices: ``+=`` on a fancy index gathers its rows into a temporary.
    for move in range(1, len(deltas) + 1):
        on = gid[move * size : (move + 1) * size]
        for s in range(0, size, _SLICE_ROWS):
            grown[on[s : s + _SLICE_ROWS], 1:] += counts[s : s + _SLICE_ROWS]
    return both[first], grown


def _convolve(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and count table ``rows[i, j]`` of the sum over a random
    subset of the integer vectors ``steps[s, a]``, one step s at a time
    (``_add_atom``).

    A step is one vector (off or on) or an opposite pair (v, -v), which adds
    -v, 0 or +v.  ``rows[i, j]`` counts the masks at outcome i with j steps
    at one of their vectors; every other step sits at zero, with its atoms
    off, or for a pair both off or both on (``_popcounts`` expands j to
    popcounts).  An outcome is one int64 key, a mixed radix over each
    coordinate's range, so a vector adds a fixed delta.  Keys, and so the
    result, do not depend on the order of the steps; an order that puts
    equal steps next to each other keeps the intermediate tables small.
    Coordinates are decoded column-major: ``coords[:, c]`` is contiguous.
    """
    vectors = steps.reshape(-1, steps.shape[-1])
    lo, hi = np.minimum(vectors, 0).sum(axis=0), np.maximum(vectors, 0).sum(axis=0)
    strides = _strides(lo, hi)
    keys = np.array([-lo @ strides])
    rows = np.ones((1, 1), dtype=np.int32)
    for deltas in steps @ strides:
        keys, rows = _add_atom(keys, rows, deltas)
    coords = np.empty((keys.size, lo.size), dtype=np.int8, order="F")
    rest = keys
    for c, (a, b) in enumerate(zip(lo, hi)):
        # ``rest`` holds the digits from c up: take digit c off the bottom.
        quo = rest // (b - a + 1)
        coords[:, c] = rest - quo * (b - a + 1) + a
        rest = quo
    return coords, rows


def _expansion(pairs: int) -> np.ndarray:
    """(2 ``pairs`` + 1) x (``pairs`` + 1) matrix from the columns of a count
    table of pair steps to popcounts.  Of P pairs, j sit at +-v with one atom
    on, and q of the other P - j have both atoms on: popcount j + 2q, reached
    in C(P - j, q) ways."""
    out = np.zeros((2 * pairs + 1, pairs + 1))
    for j in range(pairs + 1):
        for q in range(pairs - j + 1):
            out[j + 2 * q, j] = math.comb(pairs - j, q)
    return out


def _popcounts(rows: np.ndarray, order: np.ndarray, N: int) -> np.ndarray:
    """``counts[k, i]``: the number of masks of popcount k at outcome
    ``order[i]`` of the count table ``rows`` of ``_convolve`` over N atoms.
    Single-atom steps count popcounts already; pair steps expand
    (``_expansion``)."""
    expand = None if rows.shape[1] == N + 1 else _expansion(N // 2)
    counts = np.empty((N + 1, order.size), dtype=np.int32)
    # A quarter of ``_SLICE_ROWS``: a product slice holds float64 copies.
    step = _SLICE_ROWS // 4
    for s in range(0, order.size, step):
        block = rows[order[s : s + step]].T
        # Exact: every product and sum is a count of masks, below 2^31.
        counts[:, s : s + step] = block if expand is None else expand @ block
    return counts


def _half_sum(coords: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Half of sum_j coords[:, j] * weights[j], the columns added in order, so
    equal integer rows give bit-equal floats."""
    acc, term = np.zeros(len(coords)), np.empty(len(coords))
    for col, w in zip(coords.T, weights):
        acc += np.multiply(col, w, out=term)
    acc *= 0.5
    return acc


def _complex_parts(
    coords: np.ndarray, powers: np.ndarray, cos: np.ndarray, sin: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the outcomes with coordinates ``coords``.

    2 Re z = z + conj(z) and 2i Im z = z - conj(z) are evaluated in int16
    exactly as the real and imaginary laws evaluate their rows, so equal
    parts get equal floats.
    """
    d, phi = powers.shape
    conj = powers[-np.arange(phi) % d].T.astype(np.float64)
    zbar = np.empty(coords.shape, dtype=np.int16, order="F")
    for s in range(0, len(coords), _SLICE_ROWS):
        # Exact: every product and sum is a small integer.
        zbar[s : s + _SLICE_ROWS].T[...] = conj @ coords[s : s + _SLICE_ROWS].T
    return (
        _half_sum(np.add(coords, zbar, dtype=np.int16), cos),
        _half_sum(np.subtract(coords, zbar, dtype=np.int16), sin),
    )


def _modulus_keys(coords: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """One int64 key per complex outcome z: the packed coordinates of |z|^2.

    |z|^2 = D_0 + sum_t D_t (zeta^t + zeta^-t), with D_t = sum_j c_(j+t) c_j
    over the coordinates c of z.  Columns of that form that always agree are
    packed once, each over the range it really takes.  Each lag D_t is
    summed in int16 from contiguous coordinate columns, one lag at a time:
    every partial sum is at most D_0 = sum_j c_j^2 <= 1089, and its product
    with an entry of the form at most 2178, at N <= 33.
    """
    d, phi = powers.shape
    form = powers[:phi] + powers[-np.arange(phi) % d]
    form[0] = powers[0]
    # Distinct columns in lexicographic order, as ``np.unique(form, axis=1)``
    # lists them, without its ``numpy.ma`` import.
    form = form[:, np.lexsort(form[::-1])]
    form = form[:, np.concatenate(([True], (form[:, 1:] != form[:, :-1]).any(axis=0)))]
    square = np.zeros((form.shape[1], len(coords)), dtype=np.int32)
    columns = coords.T
    for t in range(phi):
        lag = np.zeros(len(coords), dtype=np.int16)
        for j in range(phi - t):
            lag += np.multiply(columns[j + t], columns[j], dtype=np.int16)
        for m in np.flatnonzero(form[t]):
            square[m] += int(form[t, m]) * lag
    lo, hi = square.min(axis=1), square.max(axis=1)
    keys = np.zeros(len(coords), dtype=np.int64)
    for row, a, stride in zip(square, lo, _strides(lo, hi)):
        keys += (row - a) * stride
    return keys


def _modulus(
    coords: np.ndarray, powers: np.ndarray, re: np.ndarray, im: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """|z| and count table of the complex outcomes with coordinates
    ``coords``, parts ``re`` and ``im`` and count table ``rows``, grouped
    on |z|^2.  The floats of a group's members can differ in the last bit,
    so its |z| is taken at one fixed member, the least by real, then
    imaginary part: the member the sorted complex law lists first."""
    # Only the group ids are read, so ``np.unique``'s unstable sort serves:
    # on these unordered keys it is 2.5x faster than ``_group``'s stable one.
    moduli, gid = np.unique(_modulus_keys(coords, powers), return_inverse=True)
    low_re = np.full(moduli.size, np.inf)
    np.minimum.at(low_re, gid, re)
    tie = re == low_re[gid]
    low_im = np.full(moduli.size, np.inf)
    np.minimum.at(low_im, gid[tie], im[tie])
    return np.abs(low_re + 1j * low_im), _regroup(rows, gid, moduli.size)


def _outcomes(N: int, g: int, part: Part) -> tuple[np.ndarray, np.ndarray]:
    """Values, in key order, and count table (``_convolve``) of the distinct
    outcomes of ``part`` at class (N, g)."""
    d = N // math.gcd(g, N)
    powers = _powers(d, d)
    phi = powers.shape[1]
    # zeta = exp(-2 pi i / d), so atom n of frequency g is zeta^(n mod d).
    theta = 2.0 * np.pi * np.arange(phi) / d
    cos, sin = np.cos(theta), -np.sin(theta)
    r = _steps(N, d)
    atoms, conj = powers[r], powers[-r % d]
    if part in (Part.REAL, Part.IMAG):
        # The real and imaginary parts group on 2 Re z and 2i Im z.
        sign = 1 if part is Part.REAL else -1
        coords, rows = _convolve(atoms + sign * conj)
        return _half_sum(coords, cos if part is Part.REAL else sin), rows
    coords, rows = _convolve(atoms)
    re, im = _complex_parts(coords, powers, cos, sin)
    if part is Part.COMPLEX:
        return re + 1j * im, rows
    return _modulus(coords, powers, re, im, rows)


def _build_law(N: int, g: int, part: Part) -> _Law:
    """The law of ``part`` at class (N, g), refused before its sort when its
    values and popcount table would pass ``LAW_BYTES``, so every law built
    fits the cache."""
    values, rows = _outcomes(N, g, part)
    _charge(values.size * (values.itemsize + 4 * (N + 1)), f"{values.size} outcomes x {N + 1} popcounts")
    # Complex values sort by real part, then imaginary part.
    order = np.argsort(values, kind="stable")
    values = values[order]
    law = _Law(values, _popcounts(rows, order, N))
    law.values.flags.writeable = False
    law.counts.flags.writeable = False
    return law


#: Bytes charged per cached answer on top of the arrays in its key and
#: value: the table slot, the key tuple and the boxed result.
_ANSWER_BYTES = 256


@dataclass(eq=False)
class _Entry:
    """One cached value, its answers and the bytes both hold."""

    value: object
    nbytes: int
    answers: dict = field(default_factory=dict)


def _answer_bytes(query: tuple, result) -> int:
    arrays = [x for x in (*query, result) if isinstance(x, (np.ndarray, bytes))]
    return _ANSWER_BYTES + sum(x.nbytes if isinstance(x, np.ndarray) else len(x) for x in arrays)


class _ByteCache:
    """Values keyed by tuples, each with a table of answers computed from it,
    bounded in bytes: a value counts its ``nbytes``, an answer its arrays
    plus ``_ANSWER_BYTES``.

    Least recently used entries are evicted first, their answers with them;
    a value larger than the bound is returned but not kept, and keeps no
    answers.  A key whose ``build`` raised ``CapabilityError`` is refused
    with the same message, without a build, for the life of the cache.
    Every read, insert, answer and eviction holds one lock, so threads may
    share the cache; builds run outside it, and when two threads build one
    key at once the first insert is kept.
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._refused: dict[tuple, str] = {}
        self._lock = threading.Lock()

    def get(self, key: tuple, build):
        """The value at ``key``, built by ``build(*key)`` if missing."""
        return self._entry(key, build).value

    def get_many(self, keys: list, build_many) -> list:
        """The value at each of ``keys``.  The missing ones, each once, come
        from one call ``build_many(missing)`` that returns their values in
        order, so a caller can share work among them."""
        found = self._lookup(keys, build_many)
        return [found[key].value for key in keys]

    def answer(self, key: tuple, build, query: tuple, compute):
        """``compute(value)`` for the value at ``key``, kept with that value
        under ``query`` while the value stays cached."""
        entry = self._entry(key, build)
        with self._lock:
            if query in entry.answers:
                return entry.answers[query]
        result = compute(entry.value)
        with self._lock:
            if self._entries.get(key) is entry and query not in entry.answers:
                size = _answer_bytes(query, result)
                entry.answers[query] = result
                entry.nbytes += size
                self.nbytes += size
                self._entries.move_to_end(key)
                self._evict()
        return result

    def _entry(self, key: tuple, build) -> _Entry:
        with self._lock:
            refusal = self._refused.get(key)
        if refusal is not None:
            raise CapabilityError(refusal)
        try:
            return self._lookup([key], lambda missing: [build(*key)])[key]
        except CapabilityError as exc:
            with self._lock:
                self._refused[key] = str(exc)
            raise

    def _lookup(self, keys: list, build_many) -> dict:
        """The entry at each of ``keys``: look them up, build the missing ones
        in one call ``build_many(missing)``, and insert each that fits unless
        another thread inserted its key meanwhile."""
        found: dict = {}
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    found[key] = entry
        missing = [key for key in dict.fromkeys(keys) if key not in found]
        if missing:
            built = [_Entry(value, value.nbytes) for value in build_many(missing)]
            with self._lock:
                for key, entry in zip(missing, built):
                    if key in self._entries:
                        entry = self._entries[key]
                    elif entry.nbytes <= self.max_bytes:
                        self._entries[key] = entry
                        self.nbytes += entry.nbytes
                    found[key] = entry
                self._evict()
        return found

    def _evict(self) -> None:
        while self.nbytes > self.max_bytes:
            _, old = self._entries.popitem(last=False)
            self.nbytes -= old.nbytes


_LAWS = _ByteCache(LAW_BYTES)


def _law(N: int, g: int, part: Part) -> _Law:
    return _LAWS.get((N, g, part), _build_law)


def _law_key(params: ModelParams, part: Part) -> tuple:
    """Cache key (N, gcd(l, N) mod N, part) of the law ``part`` reads at
    ``params``.  The count-type and part checks run here, before any lookup,
    so a cached law or answer never skips a refusal."""
    if params.N > _COUNT_N_MAX:
        raise CapabilityError(
            f"N={params.N} needs mask counts up to C(N, N/2) >= 2^31, past the int32 count "
            f"tables (N <= {_COUNT_N_MAX}); use the Monte Carlo estimators"
        )
    if not isinstance(part, Part):
        raise ParameterDomainError(f"part must be a Part, got {part!r}")
    base = Part.MODULUS if part is Part.MODULUS_CENTERED else part
    return (params.N, math.gcd(params.l, params.N) % params.N, base)


def _centered(law: _Law, probs: np.ndarray) -> np.ndarray:
    """The modulus outcomes less the exact expected modulus under ``probs``,
    computed in the same pass; no closed form for it is assumed anywhere."""
    return law.values - float(np.dot(law.values, probs))


#: Columns of the count table per product in ``_probs``.
_WEIGH_COLUMNS = 256


def _probs(law: _Law, N: int, m: int) -> np.ndarray:
    """Probability of each outcome of ``law`` at (N, m): the popcount weights
    times its counts, ``_WEIGH_COLUMNS`` columns per product.  A product
    casts only its own slice of counts to float64, and it is small enough
    (at most 34 x 256 entries) that BLAS runs it on one thread, so the bits
    do not depend on the BLAS thread count."""
    weights = weight_table(N, m)
    probs = np.empty(law.counts.shape[1])
    for s in range(0, probs.size, _WEIGH_COLUMNS):
        np.matmul(weights, law.counts[:, s : s + _WEIGH_COLUMNS], out=probs[s : s + _WEIGH_COLUMNS])
    return probs


def _weigh(law: _Law, params: ModelParams, part: Part) -> tuple[np.ndarray, np.ndarray]:
    """Values and probabilities of ``part`` at ``params`` from its law: the
    popcount weights of m apply here."""
    probs = _probs(law, params.N, params.m)
    values = _centered(law, probs) if part is Part.MODULUS_CENTERED else law.values
    keep = probs > 0.0
    if not bool(keep.all()):
        values = values[keep]
        probs = probs[keep]
    values.flags.writeable = False
    probs.flags.writeable = False
    return values, probs


def _dist_arrays(params: ModelParams, part: Part) -> tuple[np.ndarray, np.ndarray]:
    """Grouped values and probabilities of one part.  The law is shared by
    every l with the same gcd(l, N) (same atom multiset) and every m."""
    return _weigh(_LAWS.get(_law_key(params, part), _build_law), params, part)


def _answer(params: ModelParams, part: Part, compute, name: str, *args):
    """``compute(values, probs)`` for ``part`` at ``params``, kept with the
    law under (name, m, part, *args), so each exact query is computed once
    per frequency class."""
    key = _law_key(params, part)
    return _LAWS.answer(
        key, _build_law, (name, params.m, part, *args),
        lambda law: compute(*_weigh(law, params, part)),
    )


def enumerate_distribution(params: ModelParams, part: Part) -> ExactDistribution:
    """Exact law of the selected part over all 2^N masks.

    Mask S carries weight (m/N)^|S| (1-m/N)^(N-|S|); masks with equal values
    (equal coordinates in Z[zeta_d]) are merged.  For the centered modulus the
    exact expected modulus is subtracted in the same pass.  Every exact query
    raises ``CapabilityError`` where the oracle's count, key or byte limits
    refuse the law (see the module docstring).
    """
    values, probs = _dist_arrays(params, part)
    return ExactDistribution(params, part, values, probs)


def _require_real_part(part: Part) -> None:
    if part not in REAL_VALUED_PARTS:
        raise ParameterDomainError(f"operation needs a real-valued part, got {part!r}")


def exact_moment(params: ModelParams, part: Part, order: int) -> float:
    """Exact E[X^order] of a real-valued part over the enumerated law."""
    _require_real_part(part)
    if not isinstance(order, int) or order < 1:
        raise ParameterDomainError(f"order must be a positive integer, got {order!r}")
    return _answer(
        params, part, lambda values, probs: float(np.dot(probs, values**order)), "moment", order,
    )


def exact_tail_curve(params: ModelParams, part: Part, ts: np.ndarray) -> np.ndarray:
    """Vector of exact tails P(|X| >= t) for each t in ``ts``, each summed
    over popcounts from exact mask counts (``_tail_counts``)."""
    _require_real_part(part)
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size and (not np.isfinite(ts).all() or (ts < 0).any()):
        raise ParameterDomainError("all thresholds must be finite and nonnegative")
    key = _law_key(params, part)
    grid = (ts.shape, ts.tobytes())

    def law_counts(law: _Law) -> np.ndarray:
        return _tail_counts(law.values, law.counts, ts.ravel())

    def cold(law: _Law) -> np.ndarray:
        if part is Part.MODULUS_CENTERED:
            # The center, and so the counts, depend on m.
            probs = _probs(law, params.N, params.m)
            counts = _tail_counts(_centered(law, probs), law.counts, ts.ravel())
        else:
            counts = _LAWS.answer(key, _build_law, ("tail_counts", *grid), law_counts)
        curve = (weight_table(params.N, params.m) @ counts).reshape(ts.shape)
        curve.flags.writeable = False
        return curve

    return _LAWS.answer(key, _build_law, ("tail_curve", params.m, part, *grid), cold)


def _tail_counts(values: np.ndarray, counts: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``S[k, j]``: the exact number of masks of popcount k whose outcome v
    has |v| >= ts[j] - tol, for ascending ``values`` with count table
    ``counts``.  The tail at m is then weight_table(N, m) @ S, a sum of N + 1
    products rounded once each, however many outcomes the law has.

    With s = t - tol, |v| >= s holds on the outcomes v <= -s, a prefix, and
    v >= s, a suffix (on all of them once s <= 0), so S needs the cumulative
    counts at two cuts per threshold only.
    """
    s = ts - VALUE_GROUPING_TOL
    high = np.searchsorted(values, s, side="left")
    low = np.minimum(np.searchsorted(values, -s, side="right"), high)
    # Distinct cuts, ascending: ``np.unique`` without its ``numpy.ma`` import.
    cuts = np.sort(np.concatenate(([0, values.size], low, high)))
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    cum = np.zeros((counts.shape[0], cuts.size), dtype=np.int64)
    segments = np.add.reduceat(counts, cuts[:-1], axis=1, dtype=np.int64)
    np.cumsum(segments, axis=1, out=cum[:, 1:])
    out = cum[:, np.searchsorted(cuts, low)] + cum[:, -1:] - cum[:, np.searchsorted(cuts, high)]
    out.flags.writeable = False
    return out


def _exp_moment(squares: np.ndarray, weights: np.ndarray, K: float) -> float:
    """sum_i weights[i] * exp(squares[i] / K^2): E[exp(X^2/K^2)] of the law
    with squared outcomes ``squares`` and probabilities ``weights``.

    The one exp-moment evaluator: the exact law and the Monte Carlo
    empirical law both read it.  Once some squares[i] / K^2 exceeds 700 the
    sum is taken in log space, shifted by that largest exponent, and it is
    ``math.inf`` when even that overflows float64.  It holds one temporary
    of the size of ``squares`` (``weights`` may be a broadcast view), and it
    sums with ``np.add.reduce``, not ``np.dot``: a BLAS dot over long vectors
    wakes OpenBLAS threads that stall the Monte Carlo workers calling it.
    """
    terms = squares / (K * K)
    peak = float(terms.max(initial=0.0))
    if peak > 700.0:
        terms -= peak
        np.exp(terms, out=terms)
        terms *= weights
        total = peak + math.log(float(np.add.reduce(terms)))
        return math.exp(total) if total <= 709.0 else math.inf
    np.exp(terms, out=terms)
    terms *= weights
    return float(np.add.reduce(terms))


def exact_exp_moment(params: ModelParams, part: Part, K: float) -> float:
    """Exact E[exp(X^2/K^2)] over the enumerated law.

    Switches to log-space once any atom has value^2/K^2 > 700, and returns
    ``math.inf`` when even the log-space result overflows float64.
    """
    _require_real_part(part)
    if not (np.isfinite(K) and K > 0):
        raise ParameterDomainError(f"K must be a positive real, got {K!r}")
    K = float(K)
    return _answer(
        params, part, lambda values, probs: _exp_moment(values * values, probs, K), "exp_moment", K,
    )


def _psi2_bisect(
    squares: np.ndarray, weights: np.ndarray, N: int, tol: float
) -> tuple[float, float] | None:
    """Bracket ``(lo, hi)`` with ``hi - lo <= tol`` around the root of
    E[exp(X^2/K^2)] = 2 for the law of squared outcomes ``squares`` with
    probabilities ``weights`` (``_exp_moment``) of a variable bounded by N;
    ``None`` when the variable is zero for every practical purpose (no
    |outcome| above ``VALUE_GROUPING_TOL``, or a root below 1e-300).

    The one psi2 bisection: the exact and the Monte Carlo exp-moment norms
    both locate their root here.
    """
    if math.sqrt(float(squares.max(initial=0.0))) <= VALUE_GROUPING_TOL:
        return None
    hi = N / math.sqrt(_LN2) + 1.0
    lo = 1e-6
    while _exp_moment(squares, weights, lo) <= 2.0:
        # Root sits below the default lower probe; expand downward.
        lo *= 0.0625
        if lo < 1e-300:
            return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _exp_moment(squares, weights, mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def exact_psi2_norm(params: ModelParams, part: Part, tol: float = 1e-9) -> Psi2Estimate:
    """Smallest scale K with E[exp(X^2/K^2)] <= 2, located by bisection.

    The map K -> E[exp(X^2/K^2)] is continuous and strictly decreasing for a
    non-degenerate bounded X, so the infimum is the unique root of E = 2.  An
    (almost surely) zero variable has norm 0 by convention.
    """
    _require_real_part(part)
    if not (np.isfinite(tol) and tol > 0):
        raise ParameterDomainError(f"tol must be a positive real, got {tol!r}")
    tol = float(tol)
    return _answer(
        params, part,
        lambda values, probs: _psi2_norm(values * values, probs, params.N, tol), "psi2_norm", tol,
    )


def _psi2_norm(squares: np.ndarray, probs: np.ndarray, N: int, tol: float) -> Psi2Estimate:
    bracket = _psi2_bisect(squares, probs, N, tol)
    if bracket is None:
        return Psi2Estimate(0.0, Psi2Definition.ORLICZ_EXP_MOMENT, (0.0, 0.0), tol)
    lo, hi = bracket
    return Psi2Estimate(
        0.5 * (lo + hi), Psi2Definition.ORLICZ_EXP_MOMENT, (lo, hi), tol
    )


# The moment-sup norm scans this many log-spaced orders p on [1, 200].
_MOMENT_P_MAX = 200.0
_MOMENT_GRID = 64


def exact_psi2_moment_norm(params: ModelParams, part: Part) -> Psi2Estimate:
    """sup over p >= 1 of p^(-1/2) E[|X|^p]^(1/p).

    Scans a log-spaced grid on [1, 200], then refines around the best grid
    point with golden-section search.  g(p) -> 0 as p -> inf for bounded X,
    so the supremum is interior or at p = 1; local unimodality around the
    best grid point is assumed (observed, not proved) and the reported
    bracket pads the best value with the residual spread of the final
    interval.
    """
    _require_real_part(part)
    return _answer(params, part, _psi2_moment_norm, "psi2_moment_norm")


def _psi2_moment_norm(values: np.ndarray, probs: np.ndarray) -> Psi2Estimate:
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
