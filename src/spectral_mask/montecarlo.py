"""Streaming Monte Carlo estimators with seeded, mergeable accumulators.

Sampling uses the counter-based Philox generator (``philox4x64-10``): batch b
draws from an independent substream keyed ``seed XOR splitmix64(b)``, so a
given config produces bit-identical results no matter how many workers
computed the batches.  Per-batch accumulators merge in a deterministic binary
tree by batch index.  The mask-times-atoms products run on the calling
thread in 4-row-aligned calls, so results do not depend on the BLAS thread
count either.  Masks are drawn one block at a time into one reused buffer,
so the working set of a pass is one draw block (``_BLOCK_ELEMENTS``), not a
chunk or a batch.

Reductions are single-pass and must be registered up front: one table of
power sums keyed by (part, order) and one of threshold hits keyed by
(part, threshold), both over the registered parts only.  Each registered
moment order k tracks the power sums of orders k and 2k; no other order is
computed.  Asking for an unregistered part, order or threshold afterwards
raises ``QueryError`` instead of silently re-running.  ``mc_run`` and
``mc_psi2`` draw through the same batch loop, so both see the same samples
for the same config.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import CapabilityError, ParameterDomainError, QueryError
from .model import (
    REAL_VALUED_PARTS,
    VALUE_GROUPING_TOL,
    ModelParams,
    Part,
    _inclusion_threshold,
    atom_table,
)
from .oracle import Psi2Definition, Psi2Estimate, _psi2_bisect

#: Generator family used for every draw; recorded in ``summary.json``.
RNG_ALGORITHM = "philox4x64-10"

_MASK64 = (1 << 64) - 1
# Elements (samples x N) generated per internal chunk; a fixed function of N
# only, so chunking never perturbs the stream-to-sample mapping.  The samples
# equal one matrix-vector product over each whole chunk, whose last
# ``rows % 4`` rows go through OpenBLAS's tail kernels, so this constant also
# fixes which rows those are: it is part of the bit contract.  Memory is
# bounded by ``_BLOCK_ELEMENTS``, not by this.
_CHUNK_ELEMENTS = 1 << 22
# Elements drawn per block into the one reused float64 mask buffer (2 MiB,
# cache-sized), rounded to whole calls of ``_gemv_rows(N)`` rows.
_BLOCK_ELEMENTS = 1 << 18
# OpenBLAS runs dgemv on the calling thread when rows x N is below
# 2304 x GEMM_MULTITHREAD_THRESHOLD = 2304 x 4 (interface/gemv.c); larger
# products wake its worker threads, which split the rows off the 4-row
# kernel boundaries and spin on the cores the point threads need.
_GEMV_SINGLE_THREAD_ELEMENTS = 2304 * 4
# mc_psi2 holds 24 B per sample at peak (the squared samples, the probe
# buffer and the temporary inside ``std``) and refuses runs above 1 GiB,
# about 44.7M samples, rather than risk an out-of-memory kill.
_PSI2_BYTES_PER_SAMPLE = 24
_PSI2_MAX_BYTES = 1 << 30


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _substream(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed ^ _splitmix64(batch_index)))


@dataclass(frozen=True)
class McConfig:
    """Sampling plan: total draws, seed, batch granularity, CI confidence.

    ``batch`` is clamped to ``samples`` so the defaults stay valid for small
    runs; batching is part of the reproducibility contract (it fixes the
    batch-to-substream mapping), so compare like with like.
    """

    samples: int
    seed: int
    batch: int = 1 << 18
    confidence: float = 0.99

    def __post_init__(self) -> None:
        if not isinstance(self.samples, int) or self.samples < 1:
            raise ParameterDomainError(f"samples must be a positive integer, got {self.samples!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _MASK64:
            raise ParameterDomainError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if not isinstance(self.batch, int) or self.batch < 1:
            raise ParameterDomainError(f"batch must be a positive integer, got {self.batch!r}")
        object.__setattr__(self, "batch", min(self.batch, self.samples))
        if not (
            isinstance(self.confidence, float)
            and math.isfinite(self.confidence)
            and 0.0 < self.confidence < 1.0
        ):
            raise ParameterDomainError(
                f"confidence must lie strictly inside (0, 1), got {self.confidence!r}"
            )


@dataclass(frozen=True)
class McQueries:
    """Reductions to register before the pass.

    Thresholds and extra moment orders apply to every listed part.
    Centered-modulus queries need an explicit ``modulus_center`` (the exact
    expected modulus from the oracle, or a prior estimate); the engine never
    guesses it.
    """

    parts: tuple[Part, ...] = (Part.REAL, Part.IMAG, Part.MODULUS)
    moment_orders: tuple[int, ...] = ()
    tail_thresholds: tuple[float, ...] = ()
    modulus_center: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "moment_orders", tuple(int(k) for k in self.moment_orders))
        object.__setattr__(self, "tail_thresholds", tuple(float(t) for t in self.tail_thresholds))
        if not self.parts:
            raise ParameterDomainError("at least one part must be requested")
        for part in self.parts:
            if part not in REAL_VALUED_PARTS:
                raise ParameterDomainError(f"queries need real-valued parts, got {part!r}")
        for k in self.moment_orders:
            if k < 1:
                raise ParameterDomainError(f"moment orders must be >= 1, got {k}")
        for t in self.tail_thresholds:
            if not (math.isfinite(t) and t >= 0.0):
                raise ParameterDomainError(f"tail thresholds must be finite and >= 0, got {t}")
        if Part.MODULUS_CENTERED in self.parts and self.modulus_center is None:
            raise ParameterDomainError(
                "modulus_centered queries need an explicit modulus_center"
            )


class CIMethod(enum.Enum):
    HOEFFDING_INTERVAL = "hoeffding_interval"
    NORMAL_APPROX = "normal_approx"


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with confidence half-width over n consumed samples."""

    estimate: float
    half_width: float
    n: int
    method: CIMethod

    def __post_init__(self) -> None:
        if self.half_width < 0:
            raise ParameterDomainError("half_width must be >= 0")

    def covers(self, value: float) -> bool:
        # The 1e-12 cushion absorbs float-level disagreement when the target
        # quantity is deterministic and the interval collapses to a point.
        return abs(self.estimate - value) <= self.half_width + 1e-12


def _tracked_orders(queries: McQueries) -> tuple[int, ...]:
    # Each registered order k also needs 2k for its CI.
    return tuple(sorted({j for k in queries.moment_orders for j in (k, 2 * k)}))


@dataclass
class Accumulator:
    """Mergeable single-pass reductions for one (params, queries, config) run.

    ``power_sums[(part, k)]`` is the sum of X^k over the samples of each
    registered part; ``threshold_hits[(part, t)]`` counts |X| >= t.
    """

    params: ModelParams
    queries: McQueries
    cfg: McConfig
    n: int = 0
    power_sums: dict = field(default_factory=dict)
    threshold_hits: dict = field(default_factory=dict)

    @classmethod
    def zero(cls, params: ModelParams, queries: McQueries, cfg: McConfig) -> "Accumulator":
        acc = cls(params, queries, cfg)
        for part in queries.parts:
            for k in _tracked_orders(queries):
                acc.power_sums[(part, k)] = 0.0
            for t in queries.tail_thresholds:
                acc.threshold_hits[(part, t)] = 0
        return acc


def _part_arrays(
    parts: tuple[Part, ...], re: np.ndarray, im: np.ndarray, center: float | None
) -> dict:
    """The samples of each requested part; the modulus is computed only when
    a modulus part is requested."""
    out = {Part.REAL: re, Part.IMAG: im}
    if Part.MODULUS in parts or Part.MODULUS_CENTERED in parts:
        mod = np.hypot(re, im)
        out[Part.MODULUS] = mod
        if Part.MODULUS_CENTERED in parts:
            out[Part.MODULUS_CENTERED] = mod - center
    return out


def _power_sum(x: np.ndarray, k: int) -> float:
    if k == 1:
        return float(x.sum())
    if k == 2:
        return float(np.dot(x, x))
    return float(np.sum(x**k))


def _accumulate(acc: Accumulator, re: np.ndarray, im: np.ndarray) -> None:
    arrays = _part_arrays(acc.queries.parts, re, im, acc.queries.modulus_center)
    acc.n += int(re.size)
    for part, k in acc.power_sums:
        acc.power_sums[(part, k)] += _power_sum(arrays[part], k)
    for part, t in acc.threshold_hits:
        acc.threshold_hits[(part, t)] += int(
            np.count_nonzero(np.abs(arrays[part]) >= t - VALUE_GROUPING_TOL)
        )


def merge(a: Accumulator, b: Accumulator) -> Accumulator:
    """Commutative pairwise merge: field-wise addition of the reductions."""
    if (a.params, a.queries, a.cfg) != (b.params, b.queries, b.cfg):
        raise ParameterDomainError("cannot merge accumulators from different runs")
    if (
        a.power_sums.keys() != b.power_sums.keys()
        or a.threshold_hits.keys() != b.threshold_hits.keys()
    ):
        raise ParameterDomainError("cannot merge accumulators with different registrations")
    return Accumulator(
        a.params,
        a.queries,
        a.cfg,
        n=a.n + b.n,
        power_sums={k: v + b.power_sums[k] for k, v in a.power_sums.items()},
        threshold_hits={k: v + b.threshold_hits[k] for k, v in a.threshold_hits.items()},
    )


def merge_tree(accs: list[Accumulator]) -> Accumulator:
    """Deterministic binary-tree reduction by batch index."""
    if not accs:
        raise ParameterDomainError("nothing to merge")
    layer = list(accs)
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer), 2):
            if i + 1 < len(layer):
                nxt.append(merge(layer[i], layer[i + 1]))
            else:
                nxt.append(layer[i])
        layer = nxt
    return layer[0]


def _batches(cfg: McConfig) -> list[tuple[int, int]]:
    """(index, size) of every batch of ``cfg``, in order."""
    full, rem = divmod(cfg.samples, cfg.batch)
    sizes = [cfg.batch] * full
    if rem:
        sizes.append(rem)
    return list(enumerate(sizes))


def _gemv_rows(N: int) -> int:
    """Rows per matrix-vector call: the largest multiple of 4 whose product
    stays on the calling thread, and at least 4.  From N = 2304 on even 4
    rows cross the threshold, but OpenBLAS gives each thread at least 4 rows,
    so calls of at most 8 rows still split on 4-row boundaries."""
    return max(4, (_GEMV_SINGLE_THREAD_ELEMENTS - 1) // N // 4 * 4)


def _chunk_plan(rows: int, step: int, block_rows: int):
    """Draw blocks of one chunk of ``rows`` rows, as ``(start, slices, tail)``.

    A block starts at row ``start``; its first ``slices * step`` rows go
    through one stacked product, then each entry of ``tail`` is one more
    product of that many rows.  Every call starts on a multiple of 4 and the
    last one ends the chunk, holding its ``rows % 4`` odd rows, so each row
    meets the OpenBLAS kernel it meets in one single-threaded product over
    the whole chunk.  The tail has 2 to ``step + 1`` rows (a lone row is only
    ever a 1-row chunk, multiplied as such); ``step + 1`` rows are split
    ``step - 4`` and 5 to keep every call on the calling thread.
    """
    full = max(0, (rows - 2) // step)
    last = rows - full * step
    tail = tuple(k for k in (step - 4, 5) if k) if last > step else (last,)
    per_block = block_rows // step
    start = 0
    while full:
        slices = min(full, per_block)
        full -= slices
        if not full and slices * step + last <= block_rows:
            yield start, slices, tail
            return
        yield start, slices, ()
        start += slices * step
    yield start, 0, tail


def _batch_chunks(params: ModelParams, seed: int, batch_index: int, size: int):
    """The (re, im) sample chunks of one batch, in stream order.

    Each chunk is drawn block by block into one reused mask buffer, and its
    matrix-vector products run in the small calls ``_chunk_plan`` lays out:
    the samples equal one single-threaded product over each whole chunk,
    whatever BLAS thread count is set.
    """
    N = params.N
    rng = _substream(seed, batch_index)
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // N)
    atoms = atom_table(N, params.l)
    cols = (np.ascontiguousarray(atoms.real), np.ascontiguousarray(atoms.imag))
    step = _gemv_rows(N)
    block_rows = max(step + 1, _BLOCK_ELEMENTS // N // step * step)
    buf = np.empty(min(block_rows, size) * N)
    if params.m == N:
        threshold = None
        buf.fill(1.0)
    else:
        threshold = np.uint64(_inclusion_threshold(params.m, N))
    done = 0
    while done < size:
        rows = min(rows_per_chunk, size - done)
        out = (np.empty(rows), np.empty(rows))
        for start, slices, tail in _chunk_plan(rows, step, block_rows):
            stacked = slices * step
            n = stacked + sum(tail)
            flat = buf[: n * N]
            if threshold is not None:
                np.less(
                    rng.integers(0, 2**64, size=flat.size, dtype=np.uint64),
                    threshold,
                    out=flat,
                )
            masks = flat.reshape(n, N)
            for col, values in zip(cols, out):
                dst = values[start : start + n]
                if slices:
                    np.matmul(
                        masks[:stacked].reshape(slices, step, N),
                        col,
                        out=dst[:stacked].reshape(slices, step),
                    )
                at = stacked
                for k in tail:
                    np.matmul(masks[at : at + k], col, out=dst[at : at + k])
                    at += k
        yield out
        done += rows


def _map_ordered(fn, items: list, workers: int) -> list:
    """``fn(item)`` for every item, returned in item order whichever of up to
    ``workers`` threads ran it."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _run_batch(
    params: ModelParams, queries: McQueries, cfg: McConfig, batch_index: int, size: int
) -> Accumulator:
    acc = Accumulator.zero(params, queries, cfg)
    for re, im in _batch_chunks(params, cfg.seed, batch_index, size):
        _accumulate(acc, re, im)
    return acc


def mc_run(
    params: ModelParams,
    queries: McQueries,
    cfg: McConfig,
    *,
    workers: int = 1,
) -> Accumulator:
    """Single streaming pass over cfg.samples masks filling every registered
    reduction.

    Bit-identical for a given (params, queries, cfg) regardless of
    ``workers``: batch b always draws from substream seed XOR splitmix64(b)
    and merging is a fixed binary tree by batch index.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ParameterDomainError(f"workers must be a positive integer, got {workers!r}")
    return merge_tree(
        _map_ordered(
            lambda item: _run_batch(params, queries, cfg, *item), _batches(cfg), workers
        )
    )


def _check_psi2_bytes(cfg: McConfig) -> None:
    need = cfg.samples * _PSI2_BYTES_PER_SAMPLE
    if need > _PSI2_MAX_BYTES:
        raise CapabilityError(
            f"psi2 over {cfg.samples} samples would hold {need} B, above the "
            f"{_PSI2_MAX_BYTES} B budget; use fewer samples"
        )


def _z_value(confidence: float) -> float:
    return NormalDist().inv_cdf(0.5 * (1.0 + confidence))


def _power_sums(acc: Accumulator, part: Part, order: int) -> tuple[float, float]:
    try:
        return acc.power_sums[(part, order)], acc.power_sums[(part, 2 * order)]
    except KeyError:
        raise QueryError(
            f"moment order {order} for part {part.value} was not registered before the run"
        ) from None


def mc_moment(acc: Accumulator, part: Part, order: int) -> EstimateWithCI:
    """Sample moment E[X^order] with a normal-approximation CI.

    The half-width uses the sample variance of X^order, so the doubled order
    must have been tracked: ``order`` must be in the run's ``moment_orders``.
    """
    s_k, s_2k = _power_sums(acc, part, order)
    n = acc.n
    estimate = s_k / n
    variance = max(s_2k / n - estimate * estimate, 0.0)
    half = _z_value(acc.cfg.confidence) * math.sqrt(variance / n)
    return EstimateWithCI(estimate, half, n, CIMethod.NORMAL_APPROX)


def mc_tail(acc: Accumulator, part: Part, t: float) -> EstimateWithCI:
    """Hit fraction for |X| >= t with a two-sided distribution-free interval.

    Thresholds absorb the shared value tolerance exactly like the oracle, so
    boundary atoms are counted identically on both sides.  The half-width is
    sqrt(ln(2/(1-confidence)) / (2n)) (Hoeffding), valid at any tail depth.
    """
    key = (part, float(t))
    if key not in acc.threshold_hits:
        raise QueryError(
            f"tail threshold {t!r} for part {part.value} was not registered before the run"
        )
    n = acc.n
    estimate = acc.threshold_hits[key] / n
    half = math.sqrt(math.log(2.0 / (1.0 - acc.cfg.confidence)) / (2.0 * n))
    return EstimateWithCI(estimate, half, n, CIMethod.HOEFFDING_INTERVAL)


def mc_psi2(
    params: ModelParams,
    part: Part,
    cfg: McConfig,
    tol: float = 1e-6,
    *,
    center: float | None = None,
    workers: int = 1,
) -> Psi2Estimate:
    """Empirical exp-moment psi2 norm over one fixed, reusable sample set.

    The same draws back every K probe (common random numbers), so the
    bisection sees a monotone objective.  The returned bracket is widened by
    the objective's sampling noise at the root through its local slope; it is
    a diagnostic, not a certified enclosure.  Only the squared samples are
    kept, plus one buffer every probe reuses: 24 B per sample, so runs above
    ``_PSI2_MAX_BYTES`` raise ``CapabilityError`` before drawing.
    """
    if part not in REAL_VALUED_PARTS:
        raise ParameterDomainError(f"mc_psi2 needs a real-valued part, got {part!r}")
    if part is Part.MODULUS_CENTERED and center is None:
        raise ParameterDomainError("centered-modulus psi2 needs an explicit center")
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterDomainError(f"tol must be a positive real, got {tol!r}")

    _check_psi2_bytes(cfg)
    sq = np.empty(cfg.samples)

    def fill_batch(item: tuple[int, int]) -> None:
        b, size = item
        at = b * cfg.batch
        for re, im in _batch_chunks(params, cfg.seed, b, size):
            x = _part_arrays((part,), re, im, center)[part]
            np.multiply(x, x, out=sq[at : at + x.size])
            at += x.size

    _map_ordered(fill_batch, _batches(cfg), workers)
    buf = np.empty_like(sq)

    def exp_scaled(K: float) -> np.ndarray:
        """exp(sq / K^2), written into ``buf``."""
        with np.errstate(over="ignore"):
            np.divide(sq, K * K, out=buf)
            return np.exp(buf, out=buf)

    def objective(K: float) -> float:
        return float(np.mean(exp_scaled(K)))

    bracket = None
    if float(np.sqrt(sq.max(initial=0.0))) > VALUE_GROUPING_TOL:
        bracket = _psi2_bisect(objective, params.N, tol)
    if bracket is None:
        return Psi2Estimate(0.0, Psi2Definition.ORLICZ_EXP_MOMENT, (0.0, 0.0), tol)
    lo, hi = bracket
    root = 0.5 * (lo + hi)
    # Read the noise at the root before the slope probes overwrite buf.
    se = float(exp_scaled(root).std()) / math.sqrt(sq.size)
    h = max(1e-6, 1e-3 * root)
    slope = abs(objective(root + h) - objective(root - h)) / (2.0 * h)
    widen = se / max(slope, 1e-300)
    bracket = (max(lo - widen, 0.0), hi + widen)
    return Psi2Estimate(
        root, Psi2Definition.ORLICZ_EXP_MOMENT, bracket, bracket[1] - bracket[0]
    )
