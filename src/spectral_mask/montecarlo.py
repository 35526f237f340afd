"""Streaming Monte Carlo estimators with seeded, mergeable accumulators.

Sampling uses the counter-based Philox generator (``philox4x64-10``).  A
mask entry needs about one bit, so each 64-bit output of the main stream,
keyed ``seed XOR splitmix64(0)``, serves four entries as 16-bit lanes: an
entry is kept iff its lane, read as the top 16 bits of a uniform 64-bit u, is
below the top 16 bits of the exact threshold of m/N.  Only on a tie
(probability 2^-16) does u need its low 48 bits, read from a second stream
keyed ``seed XOR splitmix64(1)``.  That is exactly the event u < threshold,
so the law is that of ``model._inclusion_threshold`` (``_UnitMasks`` states
the rule).  A run's elements are cut into chunks of ``_rows_per_chunk(N)``
rows.  The unit of work is one chunk: ``Philox.advance`` positions both
streams at the chunk's first element, so the chunks of a run go to separate
workers, and each run's chunk results fold left to right in stream order as
they arrive.  A given config thus produces bit-identical results no matter
how many workers computed the chunks.  The mask-times-atoms products run on
the calling thread in 4-row-aligned calls, so results do not depend on the
BLAS thread count either.

The lanes depend only on (N, seed), so one draw of a chunk serves every run
with that N: ``mc_run_many`` and ``mc_psi2_many`` take many runs at once and
share each draw among those with the same N, with one threshold compare per
distinct m, and multiply only the atom columns their parts read: the real
part reads the real column, the imaginary part the imaginary one and a
modulus part both (``_columns``).  Masks are decided one block at a time
into one reused buffer, so besides its runs' chunk samples (capped per group
by ``_GROUP_BYTES``) a running unit holds one draw block
(``_BLOCK_ELEMENTS``).  Every accumulator equals the one its run gets alone.
Units run on one thread pool per worker count, kept for the life of the
process.  At most ``2 * workers`` units are finished but not yet folded, so
the memory of ``mc_run_many`` does not grow with the sample count.

Monte Carlo works once per frequency class.  The atom multiset at (N, l)
equals the one at gcd(l, N) mod N bit for bit (``ModelParams.class_point``,
the point the exact oracle keys its laws on), so the two share one law.  A
run at (N, l, m) therefore draws with the atoms of its class point
(N, gcd(l, N) mod N, m): within one call of ``mc_run_many`` each distinct
(class point, queries), and of ``mc_psi2_many`` each distinct (class point,
part, center), is computed once and its result returned to every run that
shares it.  The samples of an l that is not its class point are those of
the class point (tag ``MC_ALGORITHM``); their law is unchanged.  Nothing is
kept across calls.

A psi2 run keeps its squared samples, sorts them once and bisects their
empirical law (``_empirical_law``) through the exact oracle's exp-moment
evaluator and bisection (``oracle._exp_moment``, ``oracle._psi2_bisect``):
each distinct square weighted count / n when at most half of them are
distinct, as at small N, and otherwise every sample weighted 1 / n.

Reductions are single-pass and must be registered up front: one table of
power sums keyed by (part, order) and one of threshold hits keyed by
(part, threshold), both over the registered parts only.  Each registered
moment order k tracks the power sums of orders k and 2k; no other order is
computed.  Asking for an unregistered part, order or threshold afterwards
raises ``QueryError`` instead of silently re-running.  ``mc_run`` and
``mc_psi2`` are one-run calls of the grouped functions and draw through the
same unit loop, so both see the same samples for the same config.
"""

from __future__ import annotations

import enum
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import chain, islice
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
from .oracle import Psi2Definition, Psi2Estimate, _exp_moment, _psi2_bisect

#: Generator family used for every draw; recorded in ``summary.json``.
RNG_ALGORITHM = "philox4x64-10"
#: How draws become samples: each mask bit is decided from a 16-bit lane of
#: one main stream per seed, reading a tie stream's 48 bits only on a tie
#: (``_UnitMasks``), in chunks of ``_rows_per_chunk(N)`` rows whose results
#: fold left to right; every l draws with the atoms of its class point, and
#: power sums never go through BLAS.  Recorded in ``summary.json``.
MC_ALGORITHM = "prefix16-tie48-chunk-fold-class-v1"

_MASK64 = (1 << 64) - 1
_LOW_MASK = (1 << 48) - 1
# Elements (samples x N) generated per internal chunk, and at most
# ``_CHUNK_ROWS`` rows; a fixed function of N only, so chunking never perturbs
# the stream-to-sample mapping.  The samples equal one matrix-vector product
# over each whole chunk, whose last ``rows % 4`` rows go through OpenBLAS's
# tail kernels, and the chunk sums fold left to right, so both constants are
# part of the bit contract.  The row cap keeps a unit's chunk samples (16 B
# per row) within 4 MiB at small N.
_CHUNK_ELEMENTS = 1 << 22
_CHUNK_ROWS = 1 << 18
# Elements drawn per block, rounded to whole calls of ``_gemv_rows(N)`` rows:
# a running unit holds 256 KiB of lanes and the 1 MiB float64 mask buffer it
# reuses for every block and every m.  No bit depends on it: ``_chunk_plan``
# fixes the product calls whatever the block size.
_BLOCK_ELEMENTS = 1 << 17
# Bytes the runs sharing one draw may hold: each keeps its chunk samples
# (8 B per row for each atom column its parts read) while a unit runs, and a
# psi2 run also its squared samples (8 B per sample).  A group of one run may
# exceed it.
_GROUP_BYTES = 16 << 20
# OpenBLAS runs dgemv on the calling thread when rows x N is below
# 2304 x GEMM_MULTITHREAD_THRESHOLD = 2304 x 4 (interface/gemv.c); larger
# products wake its worker threads, which split the rows off the 4-row
# kernel boundaries and spin on the cores the Monte Carlo workers need.
_GEMV_SINGLE_THREAD_ELEMENTS = 2304 * 4
# A psi2 run is charged 24 B per sample.  It keeps its squared samples (8 B)
# and adds 1 B of flags per sample while it finds their distinct values.
# When at most half are distinct it compacts them, adding 24 B per distinct
# value (12 B per sample at most) until the samples are released; otherwise
# it bisects the samples whole, with one 8 B evaluator temporary per sample.
# So it peaks at 20 B.  One ``mc_psi2_many`` call holds at most 1 GiB of
# them: it refuses runs above that, about 44.7M samples, and splits its runs
# into waves that fit.
_PSI2_BYTES_PER_SAMPLE = 24
_PSI2_MAX_BYTES = 1 << 30
# Up to this many thresholds of a part are counted in one compare pass each;
# above it one sort of the chunk's |x| serves them all.  Measured over 4096
# to 262144 samples, the sort wins from 8 to 44 thresholds on.  Both give the
# same hits.
_MAX_COUNTED_THRESHOLDS = 16


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _is_int(value) -> bool:
    # bool is an int subclass, but True is no sample or worker count, seed or
    # moment order.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class McConfig:
    """Sampling plan: total draws, seed, CI confidence."""

    samples: int
    seed: int
    confidence: float = 0.99

    def __post_init__(self) -> None:
        if not _is_int(self.samples) or self.samples < 1:
            raise ParameterDomainError(f"samples must be a positive integer, got {self.samples!r}")
        if not _is_int(self.seed) or not 0 <= self.seed <= _MASK64:
            raise ParameterDomainError(f"seed must be a 64-bit integer, got {self.seed!r}")
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
        object.__setattr__(self, "moment_orders", tuple(self.moment_orders))
        object.__setattr__(self, "tail_thresholds", tuple(float(t) for t in self.tail_thresholds))
        if not self.parts:
            raise ParameterDomainError("at least one part must be requested")
        for part in self.parts:
            if part not in REAL_VALUED_PARTS:
                raise ParameterDomainError(f"queries need real-valued parts, got {part!r}")
        for k in self.moment_orders:
            if not _is_int(k) or k < 1:
                raise ParameterDomainError(f"moment orders must be integers >= 1, got {k!r}")
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
    # numpy's pairwise sum, never BLAS: OpenBLAS threads the dot of a long
    # vector, whose bits then depend on the BLAS thread count.
    return float(np.sum(x if k == 1 else x**k))


def _accumulate(acc: Accumulator, re: np.ndarray | None, im: np.ndarray | None) -> None:
    """Add the samples (re, im) of one chunk; a column no registered part
    reads may be ``None``."""
    arrays = _part_arrays(acc.queries.parts, re, im, acc.queries.modulus_center)
    acc.n += int((im if re is None else re).size)
    for part, k in acc.power_sums:
        acc.power_sums[(part, k)] += _power_sum(arrays[part], k)
    thresholds: dict = {}
    for part, t in acc.threshold_hits:
        thresholds.setdefault(part, []).append(t)
    for part, ts in thresholds.items():
        x = np.abs(arrays[part])
        if len(ts) <= _MAX_COUNTED_THRESHOLDS:
            hits = [np.count_nonzero(x >= t - VALUE_GROUPING_TOL) for t in ts]
        else:
            # |x| >= t - tol for all thresholds from one sort: the hits are
            # the values at or after t - tol's left insertion point.
            x.sort()
            hits = x.size - np.searchsorted(x, np.array(ts) - VALUE_GROUPING_TOL, side="left")
        for t, k in zip(ts, hits):
            acc.threshold_hits[(part, t)] += int(k)


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


def _rows_per_chunk(N: int) -> int:
    return max(1, min(_CHUNK_ELEMENTS // N, _CHUNK_ROWS))


def _units(cfg: McConfig, N: int):
    """(start row, rows) of every chunk of ``cfg`` at N, in stream order: the
    units of work."""
    step = _rows_per_chunk(N)
    for start in range(0, cfg.samples, step):
        yield start, min(step, cfg.samples - start)


def _philox_at(key: int, index: int) -> np.random.Philox:
    """The Philox stream keyed ``key``, positioned at its 64-bit output
    ``index``.  Philox yields four outputs per counter step, so advance
    index // 4 steps and discard index % 4 outputs."""
    bits = np.random.Philox(key=key)
    bits.advance(index // 4)
    if index % 4:
        bits.random_raw(index % 4)
    return bits


class _UnitMasks:
    """The Bernoulli masks of one unit, read block by block.

    Element e of a run (row e // N, column e % N) takes lane e % 4 of word
    e // 4 of the main stream, keyed seed XOR splitmix64(0): the 16 bits at
    bit 16 * (e % 4), as the top 16 bits of a uniform 64-bit u.  At m < N it
    is kept iff u < thr = ``_inclusion_threshold(m, N)``: a prefix below
    thr >> 48 keeps it, one above drops it, and on a tie (probability 2^-16)
    the low 48 bits of u are the top 48 bits of the next word of the tie
    stream, keyed seed XOR splitmix64(1).  Each m reads the tie stream from
    the unit's first element on, in element order, so every bit depends on
    (seed, N, m, e) alone.
    """

    def __init__(self, seed: int, N: int, unit: tuple[int, int], ms, max_rows: int):
        e = unit[0] * N
        self.N, self.seed, self.first = N, seed, e
        # The main stream is read only if some m < N needs its lanes.
        drawn = any(m != N for m in ms)
        self.main = _philox_at(seed ^ _splitmix64(0), e // 4) if drawn else None
        self.lane = e % 4  # lane of the next element in its word
        self.carry = None  # that word, if the previous block read it
        self.lanes = None
        self.ties: dict = {}
        self.buf = np.empty(max_rows * N)
        self.size = 0

    def next_block(self, rows: int) -> None:
        """Read the lanes of the unit's next ``rows`` rows."""
        self.size = rows * self.N
        if self.main is None:
            return
        lane, end = self.lane, self.lane + self.size
        words = self.main.random_raw((end + 3) // 4 - (self.carry is not None))
        if self.carry is not None:
            words = np.concatenate((self.carry, words))
        self.lane = end % 4
        self.carry = words[-1:].copy() if self.lane else None
        self.lanes = words.astype("<u8", copy=False).view("<u2")[lane:end]

    def masks(self, m: int) -> np.ndarray:
        """The current block's masks at m as a (rows, N) 0/1 float64 view of
        one reused buffer, valid until the next call."""
        flat = self.buf[: self.size]
        if m == self.N:
            flat.fill(1.0)
            return flat.reshape(-1, self.N)
        thr = _inclusion_threshold(m, self.N)
        prefix, low = np.uint16(thr >> 48), thr & _LOW_MASK
        np.less(self.lanes, prefix, out=flat)
        # A tie keeps only if its low part is below ``low``; none does at 0.
        tied = np.flatnonzero(self.lanes == prefix) if low else ()
        if len(tied):
            if m not in self.ties:
                self.ties[m] = _philox_at(self.seed ^ _splitmix64(1), self.first)
            flat[tied] = self.ties[m].random_raw(len(tied)) >> 16 < low
        return flat.reshape(-1, self.N)


def _reads(parts) -> tuple[bool, bool]:
    """Whether ``parts`` read the real and the imaginary atom column: the
    real and imaginary parts one column each, a modulus part both."""
    both = Part.MODULUS in parts or Part.MODULUS_CENTERED in parts
    return both or Part.REAL in parts, both or Part.IMAG in parts


def _columns(runs) -> dict:
    """(l, m) -> (real, imag) over the (params, parts) of ``runs``: whether
    some run at (l, m) reads the real or the imaginary atom column."""
    out: dict = {}
    for p, parts in runs:
        re, im = out.get((p.l, p.m), (False, False))
        read_re, read_im = _reads(parts)
        out[(p.l, p.m)] = (re or read_re, im or read_im)
    return out


def _draw_unit(N: int, columns: dict, seed: int, unit: tuple[int, int]) -> dict:
    """(re, im) of one chunk at N for every (l, m) of ``columns``, all from
    one draw; ``re`` is computed only where ``columns[(l, m)]`` reads the
    real column and ``im`` only where it reads the imaginary one, and an
    unread column is ``None``.

    The chunk's lanes are read block by block (``_UnitMasks``) and decided
    once per distinct m into one reused mask buffer; its matrix-vector
    products run in the small calls ``_chunk_plan`` lays out: the samples
    equal one single-threaded product over each whole chunk, whatever BLAS
    thread count is set, and whichever columns are read.
    """
    rows = unit[1]
    by_m: dict = {}
    out: dict = {}
    for (l, m), reads in columns.items():
        atoms = atom_table(N, l)
        out[(l, m)] = tuple(np.empty(rows) if read else None for read in reads)
        cols = (np.ascontiguousarray(atoms.real), np.ascontiguousarray(atoms.imag))
        by_m.setdefault(m, []).extend(
            (col, values) for col, values in zip(cols, out[(l, m)]) if values is not None
        )
    step = _gemv_rows(N)
    block_rows = max(step + 1, _BLOCK_ELEMENTS // N // step * step)
    draw = _UnitMasks(seed, N, unit, by_m, min(block_rows, rows))
    for start, slices, tail in _chunk_plan(rows, step, block_rows):
        stacked = slices * step
        n = stacked + sum(tail)
        draw.next_block(n)
        for m, products in by_m.items():
            masks = draw.masks(m)
            for col, values in products:
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
    return out


def _groups(runs: list, cfg: McConfig, sample_bytes: int) -> list[list[int]]:
    """Indexes into the (params, parts) ``runs`` grouped by N and ordered by
    m, each N split into consecutive groups that hold at most
    ``_GROUP_BYTES``: each run is charged 8 B per row of the largest unit
    for each atom column its parts read, plus ``sample_bytes`` per sample.
    Runs of one m in one group share its threshold compare.  Grouping
    changes no bit."""
    by_n: dict = {}
    for i in sorted(range(len(runs)), key=lambda i: runs[i][0].m):
        by_n.setdefault(runs[i][0].N, []).append(i)
    groups = []
    for N, idx in by_n.items():
        rows = min(_rows_per_chunk(N), cfg.samples)
        group, held = [], 0
        for i in idx:
            size = 8 * rows * sum(_reads(runs[i][1])) + sample_bytes * cfg.samples
            if group and held + size > _GROUP_BYTES:
                groups.append(group)
                group, held = [], 0
            group.append(i)
            held += size
        groups.append(group)
    return groups


def _group_units(groups: list[list[int]], params: list[ModelParams], cfg: McConfig):
    """(group, unit) for every unit of every group, in group and stream order."""
    for group in groups:
        for unit in _units(cfg, params[group[0]].N):
            yield group, unit


# One thread pool per worker count, started on first use and kept for the
# life of the process; its threads mark themselves so that a map called from
# one of them runs inline instead of waiting on a pool it may be filling.
_POOLS: dict = {}
_POOLS_LOCK = threading.Lock()
_POOL_THREAD = threading.local()


def _mark_pool_thread() -> None:
    _POOL_THREAD.active = True


def _pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        if workers not in _POOLS:
            _POOLS[workers] = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix=f"spectral-mask-{workers}",
                initializer=_mark_pool_thread,
            )
        return _POOLS[workers]


def _map_ordered(fn, items, workers: int):
    """``fn(item)`` for every item, yielded in item order whichever of up to
    ``workers`` threads ran it.  Past the first ``2 * workers`` items, one is
    submitted only as an earlier result is taken, so at most that many
    results are pending.  A lone item, and every item of a call made from a
    pool thread, runs on the calling thread.  Closing the generator early
    cancels the items not yet started and waits for the running ones."""
    items = iter(items)
    head = list(islice(items, 2))
    if workers <= 1 or len(head) <= 1 or getattr(_POOL_THREAD, "active", False):
        yield from map(fn, chain(head, items))
        return
    pool = _pool(workers)
    pending: deque = deque()
    try:
        for item in chain(head, items):
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _check_workers(workers: int) -> None:
    if not _is_int(workers) or workers < 1:
        raise ParameterDomainError(f"workers must be a positive integer, got {workers!r}")


def _distinct(keys: list) -> tuple[list, list[int]]:
    """The distinct entries of ``keys`` in first-seen order, and for each
    key the index of its entry."""
    index: dict = {}
    where = [index.setdefault(key, len(index)) for key in keys]
    return list(index), where


def mc_run_many(
    runs: list[tuple[ModelParams, McQueries]],
    cfg: McConfig,
    *,
    workers: int = 1,
) -> list[Accumulator]:
    """``mc_run`` for every (params, queries) of ``runs``, one accumulator
    each, in order.

    Each distinct (class point, queries) is run once, with the atoms of its
    class point, and every run that shares it gets a copy of its reductions
    under its own params.  Runs with the same N read the same stream, so
    each chunk is drawn once for a group of them; the chunks of every group
    run on up to ``workers`` threads.  Each accumulator is bit-identical to
    the one ``mc_run`` returns for its run alone.
    """
    _check_workers(workers)
    unique, where = _distinct([(p.class_point, q) for p, q in runs])
    params = [p for p, _ in unique]

    def run_unit(task) -> tuple[list[int], list[Accumulator]]:
        group, unit = task
        columns = _columns((params[i], unique[i][1].parts) for i in group)
        values = _draw_unit(params[group[0]].N, columns, cfg.seed, unit)
        partials = []
        for i in group:
            acc = Accumulator.zero(*unique[i], cfg)
            _accumulate(acc, *values[(params[i].l, params[i].m)])
            partials.append(acc)
        return group, partials

    # Each run's chunk partials fold left to right in stream order; the
    # first one is the run's accumulator as it stands.
    accs: list = [None] * len(unique)
    tasks = _group_units(_groups([(p, q.parts) for p, q in unique], cfg, 0), params, cfg)
    for group, partials in _map_ordered(run_unit, tasks, workers):
        for i, partial in zip(group, partials):
            accs[i] = partial if accs[i] is None else merge(accs[i], partial)
    return [
        Accumulator(
            p, q, cfg, accs[i].n, dict(accs[i].power_sums), dict(accs[i].threshold_hits)
        )
        for (p, q), i in zip(runs, where)
    ]


def mc_run(
    params: ModelParams,
    queries: McQueries,
    cfg: McConfig,
    *,
    workers: int = 1,
) -> Accumulator:
    """Single streaming pass over cfg.samples masks filling every registered
    reduction.

    The samples are those of ``params.class_point``: every l of a frequency
    class gets the reductions of its class point, under its own params.
    Bit-identical for a given (params, queries, cfg) regardless of
    ``workers``: the samples always come from the streams keyed
    seed XOR splitmix64(0) and (on ties) seed XOR splitmix64(1), and the
    chunk sums fold in stream order.
    """
    return mc_run_many([(params, queries)], cfg, workers=workers)[0]


def _check_psi2_bytes(cfg: McConfig) -> None:
    need = cfg.samples * _PSI2_BYTES_PER_SAMPLE
    if need > _PSI2_MAX_BYTES:
        raise CapabilityError(
            f"psi2 over {cfg.samples} samples would hold {need} B, above the "
            f"{_PSI2_MAX_BYTES} B budget; use fewer samples"
        )


def _psi2_waves(groups: list[list[int]], cfg: McConfig, workers: int):
    """Consecutive groups, at most ``workers`` per wave, whose runs together
    hold at most ``_PSI2_MAX_BYTES`` when each is charged
    ``_PSI2_BYTES_PER_SAMPLE`` per sample.  A wave holds at least one group;
    a group of several runs keeps at most ``_GROUP_BYTES`` of squares, so it
    peaks at three times that.  Waves change no bit."""
    fit = max(1, _PSI2_MAX_BYTES // (_PSI2_BYTES_PER_SAMPLE * cfg.samples))
    wave: list = []
    held = 0
    for group in groups:
        if wave and (len(wave) == workers or held + len(group) > fit):
            yield wave
            wave, held = [], 0
        wave.append(group)
        held += len(group)
    if wave:
        yield wave


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
    It equals the Dvoretzky-Kiefer-Wolfowitz width with Massart's constant at
    the same confidence, which bounds the gap between the empirical and the
    true law of |X| at every t at once: so the intervals of all thresholds of
    one run hold together, at that confidence, not merely one at a time.
    Every l of a frequency class reads the samples of its class point, so
    the intervals of one class are one event, not independent ones.
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


def _empirical_law(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The empirical law of the squared samples ``sq`` as (squares, weights).

    ``sq`` is sorted in place.  When at most half of its values are
    distinct they are compacted: each distinct value once, weighted
    count / n.  Otherwise ``sq`` itself is returned with the uniform weight
    1 / n as a broadcast view.  Besides the samples' 8 B, finding the law
    takes 1 B of flags per sample and compacting it 24 B per distinct value,
    at most 12 B per sample: within ``_PSI2_BYTES_PER_SAMPLE``.
    """
    n = sq.size
    sq.sort()
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(sq[1:], sq[:-1], out=starts[1:])
    if 2 * np.count_nonzero(starts) > n:
        return sq, np.broadcast_to(1.0 / n, sq.shape)
    first = np.flatnonzero(starts)
    del starts
    weights = np.empty(first.size)
    np.subtract(first[1:], first[:-1], out=weights[:-1])
    weights[-1] = n - first[-1]
    weights /= n
    return sq[first], weights


def _psi2_estimate(sq: np.ndarray, N: int, tol: float) -> Psi2Estimate:
    """Bisect the exp-moment of the empirical law of the squared samples
    ``sq``, which it consumes (``_empirical_law``), through the oracle's
    evaluator (``_exp_moment``), then widen the bracket by the noise."""
    n = sq.size
    squares, weights = _empirical_law(sq)
    del sq  # a compacted law no longer needs the samples
    bracket = _psi2_bisect(squares, weights, N, tol)
    if bracket is None:
        return Psi2Estimate(0.0, Psi2Definition.ORLICZ_EXP_MOMENT, (0.0, 0.0), tol)
    lo, hi = bracket
    root = 0.5 * (lo + hi)
    # The sample standard deviation of exp(X^2 / root^2), from the weighted
    # law: sum_i w_i (e_i - mean)^2, in one temporary.
    mean = _exp_moment(squares, weights, root)
    dev = squares / (root * root)
    np.exp(dev, out=dev)
    dev -= mean
    np.square(dev, out=dev)
    dev *= weights
    se = math.sqrt(float(np.add.reduce(dev))) / math.sqrt(n)
    del dev
    h = max(1e-6, 1e-3 * root)
    slope = abs(
        _exp_moment(squares, weights, root + h) - _exp_moment(squares, weights, root - h)
    ) / (2.0 * h)
    widen = se / max(slope, 1e-300)
    bracket = (max(lo - widen, 0.0), hi + widen)
    return Psi2Estimate(
        root, Psi2Definition.ORLICZ_EXP_MOMENT, bracket, bracket[1] - bracket[0]
    )


def mc_psi2_many(
    runs: list[tuple[ModelParams, Part, float | None]],
    cfg: McConfig,
    tol: float = 1e-6,
    *,
    workers: int = 1,
) -> list[Psi2Estimate]:
    """``mc_psi2`` for every (params, part, center) of ``runs``, in order.

    Each distinct (class point, part, center) is estimated once, with the
    atoms of its class point, and its estimate returned to every run that
    shares it.  Runs with the same N read the same stream, so each chunk is
    drawn once for a group of them and fills the squared samples of each.
    Groups go in waves (``_psi2_waves``) that hold at most
    ``_PSI2_MAX_BYTES`` together: the chunks of a wave run on up to
    ``workers`` threads, then its runs bisect, one per thread.  Each
    estimate equals the one ``mc_psi2`` returns for its run alone.
    """
    for params, part, center in runs:
        if part not in REAL_VALUED_PARTS:
            raise ParameterDomainError(f"mc_psi2 needs a real-valued part, got {part!r}")
        if part is Part.MODULUS_CENTERED and center is None:
            raise ParameterDomainError("centered-modulus psi2 needs an explicit center")
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterDomainError(f"tol must be a positive real, got {tol!r}")
    _check_workers(workers)
    _check_psi2_bytes(cfg)
    unique, where = _distinct([(p.class_point, part, center) for p, part, center in runs])
    params = [p for p, _, _ in unique]
    groups = _groups([(p, (part,)) for p, part, _ in unique], cfg, 8)
    out: list = [None] * len(unique)
    for wave in _psi2_waves(groups, cfg, workers):
        sq = {i: np.empty(cfg.samples) for group in wave for i in group}

        def fill(task) -> None:
            group, unit = task
            start, rows = unit
            columns = _columns((params[i], (unique[i][1],)) for i in group)
            values = _draw_unit(params[group[0]].N, columns, cfg.seed, unit)
            for i in group:
                p, part, center = unique[i]
                x = _part_arrays((part,), *values[(p.l, p.m)], center)[part]
                np.multiply(x, x, out=sq[i][start : start + rows])

        for _ in _map_ordered(fill, _group_units(wave, params, cfg), workers):
            pass
        # Each run's squares are released once its bisection ends.
        idx = list(sq)
        ests = _map_ordered(lambda i: _psi2_estimate(sq.pop(i), params[i].N, tol), idx, workers)
        for i, est in zip(idx, ests):
            out[i] = est
    return [out[i] for i in where]


def mc_psi2(
    params: ModelParams,
    part: Part,
    cfg: McConfig,
    tol: float = 1e-6,
    *,
    center: float | None = None,
    workers: int = 1,
) -> Psi2Estimate:
    """Empirical exp-moment psi2 norm over one fixed, reusable sample set:
    that of ``params.class_point``, shared by every l of its class.

    The same draws back every K probe (common random numbers), so the
    bisection sees a monotone objective: the exp-moment of the samples'
    empirical law, each distinct square weighted by its share of the
    samples, evaluated and bisected as the exact oracle does its law.  The
    returned bracket is widened by the objective's sampling noise at the
    root through its local slope; it is a diagnostic, not a certified
    enclosure.  Only the squared samples are kept, and the law and the
    evaluator's one temporary beside them: at most 24 B per sample, so runs
    above ``_PSI2_MAX_BYTES`` raise ``CapabilityError`` before drawing.
    """
    return mc_psi2_many([(params, part, center)], cfg, tol, workers=workers)[0]
