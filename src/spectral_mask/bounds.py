"""Closed-form identities and concentration bounds for the mask DFT variables.

Pure stateless formula library: variance identities, the tail bounds built
from the bounded-difference inequality, the entropy-coefficient tail
bound and its combined form with crossover classification, even-moment and
exponential-moment bounds with the resulting psi2 upper bounds, the Gaussian
Q-function with its exponential sandwich, and exact binomial helpers.

Every function refuses (``HypothesisViolationError``) to evaluate outside the
hypotheses under which its statement is claimed, rather than extrapolating.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisViolationError, ParameterDomainError
from .model import ModelParams

_LN2 = math.log(2.0)
_LOG_MAX = 709.0

#: Unit coefficient of the sqrt(N) psi2 upper bound: (sqrt(2e)+sqrt(2e+4))/4.
#: Evaluate the expression, never a rounded decimal; commonly quoted roundings
#: of this constant disagree in the third decimal place.
PSI2_UPPER_COEFFICIENT = (math.sqrt(2.0 * math.e) + math.sqrt(2.0 * math.e + 4.0)) / 4.0


def _check_positive_int(value: int, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParameterDomainError(f"{name} must be a positive integer, got {value!r}")


def _check_tail_t(t: float) -> None:
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t >= 0):
        raise ParameterDomainError(f"t must be a finite nonnegative real, got {t!r}")


def _check_half_density(N: int, m: int) -> None:
    _check_positive_int(N, "N")
    _check_positive_int(m, "m")
    if 2 * m >= N:
        raise HypothesisViolationError(
            f"requires m < N/2 (p < 1/2); got m={m}, N={N}"
        )


def variance_formula(params: ModelParams) -> tuple[float, float, float]:
    """Variances m(N-m)/N for the complex sum and m(N-m)/(2N) for each part.

    Claimed only for 1 <= l <= N-1 with N != 2l; the degenerate cases raise.
    """
    if params.l == 0:
        raise HypothesisViolationError("variance identities need l >= 1, got l=0")
    if params.is_degenerate_2l:
        raise HypothesisViolationError(
            f"variance identities need N != 2l, got N={params.N}, l={params.l}"
        )
    var_x = params.m * (params.N - params.m) / params.N
    half = 0.5 * var_x
    return var_x, half, half


def tail_bound_uv(N: int, t: float) -> float:
    """Tail bound 2 exp(-4 t^2 / N) for |real part| and |imaginary part|.

    Independent of m.  Derived from the bounded-difference inequality with
    c_k = |cos(2 k l pi / N)| whose squares sum to N/2 when N != 2l.
    """
    _check_positive_int(N, "N")
    _check_tail_t(t)
    return 2.0 * math.exp(-4.0 * t * t / N)


def tail_bound_mod(N: int, t: float) -> float:
    """Tail bound 2 exp(-2 t^2 / N) for the centered modulus; independent of m."""
    _check_positive_int(N, "N")
    _check_tail_t(t)
    return 2.0 * math.exp(-2.0 * t * t / N)


def tail_bound_entropy(N: int, m: int, t: float) -> float:
    """Tail bound exp(-ln((N-m)/m) t^2 / (N-2m)) for m < N/2.

    Integer form of exp(-ln((1-p)/p) t^2 / (N(1-2p))) with p = m/N; the
    coefficient tends to 2/N as p -> 1/2.
    """
    _check_half_density(N, m)
    _check_tail_t(t)
    return math.exp(-t * t * math.log((N - m) / m) / (N - 2 * m))


def tail_bound_combined(N: int, m: int, t: float) -> float:
    """exp(-max{4 t^2/N - ln 2, t^2 ln((N-m)/m)/(N-2m)}) for m < N/2.

    Equals min(tail_bound_uv, tail_bound_entropy) identically: the first
    branch is exactly 2 exp(-4 t^2/N).
    """
    _check_half_density(N, m)
    _check_tail_t(t)
    first = 4.0 * t * t / N - _LN2
    second = t * t * math.log((N - m) / m) / (N - 2 * m)
    return math.exp(-max(first, second))


class CrossoverKind(enum.Enum):
    SECOND_FOR_ALL_T = "second_for_all_t"
    FIRST_BEYOND_T_STAR = "first_beyond_t_star"


@dataclass(frozen=True)
class CrossoverVerdict:
    """Which branch of the combined bound's max wins, as a function of (N, m).

    The second branch has coefficient ln((N-m)/m)/(N-2m) and no constant
    handicap; the first has coefficient 4/N minus ln 2.  If the second
    coefficient is >= the first, the second branch is the max for every
    t >= 0; otherwise the first takes over beyond
    t* = sqrt(ln 2 / (4/N - ln((N-m)/m)/(N-2m))).
    """

    kind: CrossoverKind
    coeff_first: float
    coeff_second: float
    t_star: float | None = None

    def __post_init__(self) -> None:
        second_wins = self.coeff_second >= self.coeff_first
        if second_wins != (self.kind is CrossoverKind.SECOND_FOR_ALL_T):
            raise ParameterDomainError("crossover kind contradicts the coefficients")
        if (self.t_star is not None) != (self.kind is CrossoverKind.FIRST_BEYOND_T_STAR):
            raise ParameterDomainError("t_star must be present exactly for the first-beyond case")
        if self.t_star is not None and not (math.isfinite(self.t_star) and self.t_star >= 0):
            raise ParameterDomainError(f"t_star must be finite and >= 0, got {self.t_star!r}")


def crossover_region(N: int, m: int) -> CrossoverVerdict:
    """Classify which branch of the combined bound dominates for (N, m), m < N/2."""
    _check_half_density(N, m)
    coeff_first = 4.0 / N
    coeff_second = math.log((N - m) / m) / (N - 2 * m)
    if coeff_second >= coeff_first:
        return CrossoverVerdict(CrossoverKind.SECOND_FOR_ALL_T, coeff_first, coeff_second)
    t_star = math.sqrt(_LN2 / (coeff_first - coeff_second))
    return CrossoverVerdict(
        CrossoverKind.FIRST_BEYOND_T_STAR, coeff_first, coeff_second, t_star=t_star
    )


def moment_bound(N: int, n: int) -> float:
    """Even-moment bound n^(n+1) N^n / (2^(2n-1) e^(n-1)) on E[U^(2n)].

    Computed in log space; returns inf when the value overflows float64.
    """
    _check_positive_int(N, "N")
    _check_positive_int(n, "n")
    log_val = (n + 1) * math.log(n) + n * math.log(N) - (2 * n - 1) * _LN2 - (n - 1)
    if log_val > _LOG_MAX:
        return math.inf
    return math.exp(log_val)


def exp_moment_bound(N: int, K: float) -> float:
    """Exponential-moment bound 1 + 8 e N K^2 / (4 K^2 - N)^2 on E[exp(U^2/K^2)].

    Claimed for K > sqrt(N)/2 (geometric-series convergence).
    """
    _check_positive_int(N, "N")
    if not (isinstance(K, (int, float)) and math.isfinite(K) and K > 0):
        raise ParameterDomainError(f"K must be a positive real, got {K!r}")
    if 4.0 * K * K <= N:
        raise HypothesisViolationError(
            f"requires K > sqrt(N)/2; got K={K}, sqrt(N)/2={math.sqrt(N) / 2}"
        )
    return 1.0 + 8.0 * math.e * N * K * K / (4.0 * K * K - N) ** 2


def psi2_upper(N: int) -> float:
    """sqrt(N) (sqrt(2e) + sqrt(2e+4)) / 4: psi2 bound for real/imaginary parts.

    This is exactly the positive root K of exp_moment_bound(N, K) = 2.
    """
    _check_positive_int(N, "N")
    return math.sqrt(N) * PSI2_UPPER_COEFFICIENT


def psi2_sup_upper(N: int) -> float:
    """N / sqrt(ln 2): the generic bounded-variable psi2 bound via sup norm N."""
    _check_positive_int(N, "N")
    return N / math.sqrt(_LN2)


def q_function(x: float) -> float:
    """Complementary standard normal CDF Q(x).

    Computed through the complementary error function identity
    Q(x) = erfc(x / sqrt(2)) / 2, accurate to a few ulp across [0, 10].
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise ParameterDomainError(f"x must be a finite real, got {x!r}")
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_sandwich(x: float) -> tuple[float, float]:
    """Strict exponential sandwich of Q(x) for x > 0.

    Returns (x/(1+x^2) phi(x), phi(x)/x) with phi the standard normal density.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise ParameterDomainError(f"q_sandwich needs x > 0, got {x!r}")
    phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return (x / (1.0 + x * x)) * phi, phi / x


def tail_bound_q(N: int, t: float) -> float:
    """Q-form tail bound (N + 8 t^2) sqrt(pi) / (t sqrt(N)) * Q(2 sqrt(2) t / sqrt(N)).

    A loosening of tail_bound_uv obtained from the lower sandwich bound on Q;
    singular at t = 0, so t must be positive.
    """
    _check_positive_int(N, "N")
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0):
        raise ParameterDomainError(f"tail_bound_q needs t > 0, got {t!r}")
    root_n = math.sqrt(N)
    return (N + 8.0 * t * t) * math.sqrt(math.pi) / (t * root_n) * q_function(
        2.0 * math.sqrt(2.0) * t / root_n
    )


def _check_rational_p(p_num: int, p_den: int) -> None:
    if not isinstance(p_num, int) or not isinstance(p_den, int):
        raise ParameterDomainError("probability must be given as an integer pair")
    if p_den < 1 or not 0 <= p_num <= p_den:
        raise ParameterDomainError(
            f"need 0 <= p_num <= p_den with p_den >= 1, got {p_num}/{p_den}"
        )


def _binomial_numerator(n: int, k: int, p_num: int, p_den: int) -> int:
    return math.comb(n, k) * p_num**k * (p_den - p_num) ** (n - k)


def binomial_pmf(n_trials: int, p_num: int, p_den: int, k: int) -> float:
    """Exact Binomial(n_trials, p_num/p_den) mass at k, correctly rounded.

    Out-of-range k returns 0 rather than raising.
    """
    if not isinstance(n_trials, int) or n_trials < 0:
        raise ParameterDomainError(f"n_trials must be a nonnegative integer, got {n_trials!r}")
    _check_rational_p(p_num, p_den)
    if not isinstance(k, int) or not 0 <= k <= n_trials:
        return 0.0
    return float(
        Fraction(_binomial_numerator(n_trials, k, p_num, p_den), p_den**n_trials)
    )


def diff_binomial_pmf(l: int, p_num: int, p_den: int, k: int) -> float:
    """Mass at k of B' - B'' for independent Binomial(l, p_num/p_den) copies.

    Exact convolution in integer arithmetic, rounded once.  Out-of-range k
    returns 0.
    """
    if not isinstance(l, int) or l < 0:
        raise ParameterDomainError(f"l must be a nonnegative integer, got {l!r}")
    _check_rational_p(p_num, p_den)
    if not isinstance(k, int) or abs(k) > l:
        return 0.0
    total = 0
    for j in range(max(0, -k), min(l, l - k) + 1):
        total += _binomial_numerator(l, j + k, p_num, p_den) * _binomial_numerator(
            l, j, p_num, p_den
        )
    return float(Fraction(total, p_den ** (2 * l)))
