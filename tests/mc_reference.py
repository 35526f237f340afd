"""Whole-chunk, one-stream reference for the Monte Carlo draw.

A run's samples come from one Philox stream keyed ``seed XOR
splitmix64(0)``, drawn from its start in chunks of
``montecarlo._rows_per_chunk(N)`` rows.  Each chunk's masks are drawn as one
(rows, N) matrix and multiplied by the atom columns in one product per
column, the plain form of what ``montecarlo._draw_unit`` computes block by
block on a stream positioned at the chunk.  The two agree bit for bit
wherever this product runs on one BLAS thread (rows x N below 9216, or
``OPENBLAS_NUM_THREADS=1``) or its thread split falls on 4-row boundaries.
``unit_chunks`` gives the engine's side of that comparison.
"""

from __future__ import annotations

import numpy as np

from spectral_mask import ModelParams
from spectral_mask import montecarlo
from spectral_mask.model import _inclusion_threshold, atom_table


def draw_masks(params: ModelParams, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` Bernoulli(m/N) masks as a 0/1 float64 matrix of N columns."""
    if params.m == params.N:
        return np.ones((rows, params.N), dtype=np.float64)
    threshold = np.uint64(_inclusion_threshold(params.m, params.N))
    u = rng.integers(0, 2**64, size=(rows, params.N), dtype=np.uint64)
    return (u < threshold).astype(np.float64)


def chunk_part_values(
    params: ModelParams, rng: np.random.Generator, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of ``rows`` samples drawn as one chunk."""
    atoms = atom_table(params.N, params.l)
    incl = draw_masks(params, rng, rows)
    return incl @ np.ascontiguousarray(atoms.real), incl @ np.ascontiguousarray(atoms.imag)


def stream(seed: int) -> np.random.Generator:
    """The one stream every run of ``seed`` draws from."""
    return np.random.Generator(np.random.Philox(key=seed ^ montecarlo._splitmix64(0)))


def stream_chunks(params: ModelParams, seed: int, samples: int):
    """The (re, im) chunks of a run of ``samples`` samples, drawn in order
    from one sequential stream."""
    rng = stream(seed)
    rows_per_chunk = montecarlo._rows_per_chunk(params.N)
    for start in range(0, samples, rows_per_chunk):
        yield chunk_part_values(params, rng, min(rows_per_chunk, samples - start))


def unit_chunks(params: ModelParams, seed: int, samples: int):
    """The same chunks drawn by the engine, each unit on its own positioned
    stream, as ``montecarlo._draw_unit`` yields them."""
    rows_per_chunk = montecarlo._rows_per_chunk(params.N)
    key = (params.l, params.m)
    for start in range(0, samples, rows_per_chunk):
        unit = (start, min(rows_per_chunk, samples - start))
        yield montecarlo._draw_unit([params], seed, unit)[key]
