"""Scalar brute-force reference for the mask DFT values.

One atom at a time with ``math.cos`` / ``math.sin`` and compensated sums: no
numpy, no grouping and nothing shared with the package's vectorised atom
table, so the tests can hold the exact oracle against it.
"""

from __future__ import annotations

import math
from typing import Iterable

from spectral_mask import ModelParams, ParameterDomainError, Part


def _check_atom_domain(n: int, l: int, N: int) -> None:
    if not isinstance(N, int) or N < 1:
        raise ParameterDomainError(f"N must be a positive integer, got {N!r}")
    if not isinstance(l, int) or not 0 <= l <= N - 1:
        raise ParameterDomainError(f"l must satisfy 0 <= l <= N-1, got l={l!r} with N={N}")
    if not isinstance(n, int) or not 1 <= n <= N:
        raise ParameterDomainError(f"n must satisfy 1 <= n <= N, got n={n!r} with N={N}")


def dft_atom(n: int, l: int, N: int) -> complex:
    """Unit atom exp(-2*pi*j*n*l/N) attached to sample n at frequency l.

    The angle is reduced with exact integer arithmetic on n*l mod N before the
    trigonometric call, so large indices lose no precision; the result has
    unit modulus to within 1e-15.
    """
    _check_atom_domain(n, l, N)
    r = (n * l) % N
    theta = 2.0 * math.pi * r / N
    return complex(math.cos(theta), -math.sin(theta))


def _kahan_sum(terms: Iterable[float]) -> float:
    total = 0.0
    comp = 0.0
    for x in terms:
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def evaluate(indices: Iterable[int], params: ModelParams, part: Part):
    """Value of one mask, given by its kept 1-based indices: the atom sum or
    one of its parts.

    The real and imaginary selectors return the components of the complex
    sum itself, so the imaginary part carries the minus sign of the -sin
    convention.  Sums use compensated (Kahan) accumulation; the error budget
    is 1e-12 * N on every contract downstream.
    """
    if not isinstance(part, Part):
        raise ParameterDomainError(f"part must be a Part, got {part!r}")
    if part is Part.MODULUS_CENTERED:
        raise ParameterDomainError(
            "modulus_centered needs a distribution-level expectation; "
            "evaluate() sees a single mask"
        )
    atoms = [dft_atom(n, params.l, params.N) for n in sorted(indices)]
    re = _kahan_sum(a.real for a in atoms)
    im = _kahan_sum(a.imag for a in atoms)
    if part is Part.COMPLEX:
        return complex(re, im)
    if part is Part.REAL:
        return re
    if part is Part.IMAG:
        return im
    return math.hypot(re, im)


def trig_sums(N: int, l: int) -> tuple[float, float]:
    """Compensated sums of cos and sin of 4*k*l*pi/N over k = 1..N.

    Both sums vanish within 1e-10 * N whenever N != 2l; when N == 2l every
    angle is a multiple of 2*pi and the result is (N, 0) to the same
    tolerance.  l = 0 (and l >= N) are outside the identity's hypotheses.
    """
    if not isinstance(N, int) or N < 1:
        raise ParameterDomainError(f"N must be a positive integer, got {N!r}")
    if not isinstance(l, int) or not 1 <= l <= N - 1:
        raise ParameterDomainError(f"l must satisfy 1 <= l <= N-1, got l={l!r} with N={N}")
    cos_terms = []
    sin_terms = []
    for k in range(1, N + 1):
        r = (2 * k * l) % N
        theta = 2.0 * math.pi * r / N
        cos_terms.append(math.cos(theta))
        sin_terms.append(math.sin(theta))
    return _kahan_sum(cos_terms), _kahan_sum(sin_terms)
