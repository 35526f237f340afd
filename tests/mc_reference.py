"""Whole-chunk, two-stream reference for the Monte Carlo draw.

A run reads two Philox streams from their start: the main stream, keyed
``seed XOR splitmix64(0)``, and the tie stream, keyed ``seed XOR
splitmix64(1)``.  Element e of the run (row e // N, column e % N) stands for
a uniform 64-bit u whose top 16 bits are lane e % 4 of main-stream word
e // 4, the bits 16 * (e % 4) up to 16 * (e % 4) + 15.  At m < N the element
is kept iff u < ``_inclusion_threshold(m, N)``.  Only where the lane equals
the threshold's top 16 bits (a tie) do u's low 48 bits matter: the ties of a
chunk take, in element order, the top 48 bits of the tie-stream words from
the chunk's first element on.  This module rebuilds u from those words and
compares it whole; it shares no code with the engine's draw.

A run at (N, l, m) draws with the atoms of its class point
(N, gcd(l, N) mod N, m), whose atom multiset equals l's; this module maps l
to it with its own gcd.  Chunks hold ``montecarlo._rows_per_chunk(N)`` rows.  Each chunk's masks are
drawn as one (rows, N) matrix and multiplied by the atom columns in one
product per column, the plain form of what ``montecarlo._draw_unit``
computes block by block on streams positioned at the chunk.  The two agree
bit for bit wherever this product runs on one BLAS thread (rows x N below
9216, or ``OPENBLAS_NUM_THREADS=1``) or its thread split falls on 4-row
boundaries.  ``unit_chunks`` gives the engine's side of that comparison.
"""

from __future__ import annotations

import math

import numpy as np

from spectral_mask import ModelParams
from spectral_mask import montecarlo
from spectral_mask.model import VALUE_GROUPING_TOL, _inclusion_threshold, atom_table

_LANE_SHIFTS = np.array([0, 16, 32, 48], dtype=np.uint64)


class Words:
    """The 64-bit outputs of the Philox stream keyed
    ``seed XOR splitmix64(salt)``, read in order from its start."""

    def __init__(self, seed: int, salt: int):
        self._bits = np.random.Philox(key=seed ^ montecarlo._splitmix64(salt))
        self.position = 0

    def take(self, count: int) -> np.ndarray:
        self.position += count
        return self._bits.random_raw(count)

    def skip_to(self, position: int) -> None:
        assert position >= self.position, "the stream is read forward only"
        while self.position < position:
            self.take(min(position - self.position, 1 << 20))


class Lanes:
    """The 16-bit lanes of the main stream of ``seed``, in element order."""

    def __init__(self, seed: int):
        self._words = Words(seed, 0)
        self._pending = np.empty(0, dtype=np.uint64)

    def take(self, count: int) -> np.ndarray:
        short = count - self._pending.size
        if short > 0:
            words = self._words.take(-(-short // 4))
            lanes = (words[:, None] >> _LANE_SHIFTS) & np.uint64(0xFFFF)
            self._pending = np.concatenate((self._pending, lanes.ravel()))
        out, self._pending = self._pending[:count], self._pending[count:]
        return out


def chunk_masks(
    params: ModelParams, lanes: Lanes, ties: Words, first: int, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` masks from run element ``first`` on, as a 0/1 float64 matrix
    of N columns, and which of their elements were ties.  ``lanes`` must
    stand at element ``first``; ``ties`` must not have passed it."""
    N, m = params.N, params.m
    if m == N:
        return np.ones((rows, N), dtype=np.float64), np.zeros((rows, N), dtype=bool)
    threshold = _inclusion_threshold(m, N)
    top = lanes.take(rows * N)
    tied = top == threshold >> 48
    ties.skip_to(first)
    u = top << np.uint64(48)
    u[tied] |= ties.take(int(np.count_nonzero(tied))) >> np.uint64(16)
    masks = (u < np.uint64(threshold)).astype(np.float64)
    return masks.reshape(rows, N), tied.reshape(rows, N)


def draw_masks(params: ModelParams, seed: int, rows: int) -> np.ndarray:
    """The first ``rows`` masks of a run of ``seed``, drawn as one chunk."""
    return chunk_masks(params, Lanes(seed), Words(seed, 1), 0, rows)[0]


def class_l(params: ModelParams) -> int:
    """The l of the class point of ``params``: gcd(l, N) mod N."""
    return math.gcd(params.l, params.N) % params.N


def _products(atoms: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return masks @ np.ascontiguousarray(atoms.real), masks @ np.ascontiguousarray(atoms.imag)


def _class_atoms(params: ModelParams) -> np.ndarray:
    return atom_table(params.N, class_l(params))


def chunk_part_values(
    params: ModelParams, seed: int, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of the first ``rows`` samples of a run of ``seed``, drawn as
    one chunk."""
    return _products(_class_atoms(params), draw_masks(params, seed, rows))


def stream_mask_chunks(params: ModelParams, seed: int, samples: int):
    """(first element, masks, ties) of every chunk of a run of ``samples``
    samples, drawn in order from the two sequential streams."""
    lanes, ties = Lanes(seed), Words(seed, 1)
    rows_per_chunk = montecarlo._rows_per_chunk(params.N)
    for start in range(0, samples, rows_per_chunk):
        first = start * params.N
        rows = min(rows_per_chunk, samples - start)
        yield (first, *chunk_masks(params, lanes, ties, first, rows))


def stream_chunks(params: ModelParams, seed: int, samples: int):
    """The (re, im) chunks of a run of ``samples`` samples, drawn in order
    from the two sequential streams."""
    atoms = _class_atoms(params)
    for _, masks, _ in stream_mask_chunks(params, seed, samples):
        yield _products(atoms, masks)


def own_atom_chunks(params: ModelParams, seed: int, samples: int):
    """The (re, im) chunks of the masks of ``stream_chunks``, multiplied by
    the atoms of ``params.l`` itself rather than of its class point: samples
    of the law at l, drawn without the engine's class mapping."""
    atoms = atom_table(params.N, params.l)
    for _, masks, _ in stream_mask_chunks(params, seed, samples):
        yield _products(atoms, masks)


def unit_chunks(params: ModelParams, seed: int, samples: int):
    """The same chunks drawn by the engine, each unit on its own positioned
    streams, as ``montecarlo._draw_unit`` yields them."""
    rows_per_chunk = montecarlo._rows_per_chunk(params.N)
    key = (class_l(params), params.m)
    for start in range(0, samples, rows_per_chunk):
        unit = (start, min(rows_per_chunk, samples - start))
        yield montecarlo._draw_unit(params.N, {key: (True, True)}, seed, unit)[key]


def dense_psi2_norm(sq: np.ndarray, N: int, tol: float) -> float:
    """The exp-moment psi2 norm of the samples whose squares are ``sq``,
    bisected on the mean of exp(sq / K^2) over every sample, each probe
    overflowing to inf: the dense form of what ``montecarlo.mc_psi2``
    computes from the compacted empirical law.  0.0 for a zero variable."""
    if math.sqrt(float(sq.max(initial=0.0))) <= VALUE_GROUPING_TOL:
        return 0.0

    def objective(K: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.mean(np.exp(sq / (K * K))))

    hi = N / math.sqrt(math.log(2.0)) + 1.0
    lo = 1e-6
    while objective(lo) <= 2.0:
        lo *= 0.0625
        if lo < 1e-300:
            return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if objective(mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
