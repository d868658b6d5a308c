"""Normalization constants of eigenvalue densities on the probability simplex.

The joint density of interest on {L_1..L_N >= 0, sum L_i = 1} is

    prod_i L_i^(alpha-1) * prod_{i<j} |L_i - L_j|^beta

and ``c_norm`` returns the constant that normalizes it.  The closed form
comes from the Laguerre-ensemble integral; with beta in {1, 2} and
half-integer alpha every Gamma factor is exact, which is the only regime
the exact volume formulas need.  A log-space float path covers arbitrary
positive (alpha, beta) for Monte Carlo work.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import ExactValue, Record, as_integer, gamma_map, pairs_power

__all__ = ["EnsembleParams", "laguerre_integral", "c_norm", "log_c_norm"]


class EnsembleParams(Record):
    """Exact-mode parameters: matrix size n, half-integer alpha > 0, beta in {1, 2}."""

    __slots__ = ("n", "alpha", "beta")

    def __init__(self, n: int, alpha: Fraction, beta: int):
        n, alpha = as_integer(n, "n"), Fraction(alpha)
        super().__init__(n, alpha, beta)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if alpha <= 0 or (2 * alpha).denominator != 1:
            raise ValueError(f"alpha must be a positive integer or half-integer, got {alpha}")
        if beta not in (1, 2):
            raise ValueError(f"beta must be 1 or 2 in exact mode, got {beta}")


def laguerre_pairs(n: int, twice_alpha: int, beta: int) -> list:
    """The Gamma pairs of the Laguerre integral at alpha = twice_alpha / 2.

    The ints are those of parameters that ``EnsembleParams`` accepts; the
    closed forms pass them without building one.
    """
    return [
        (range(2 + beta, 3 + n * beta, beta), 1),  # Gamma(1 + j*beta/2)
        (range(twice_alpha, twice_alpha + n * beta, beta), 1),  # Gamma(alpha + (j-1)*beta/2)
        (2 + beta, -n),  # Gamma(1 + beta/2)^n
    ]


def c_norm_pairs(n: int, twice_alpha: int, beta: int) -> list:
    """The Gamma pairs of C_n^(alpha, beta), alpha = twice_alpha / 2: its top Gamma over the Laguerre integral's.

    At n = 1 there are none: Gamma(alpha) / Gamma(alpha) for every alpha is
    formed from no Gamma, so an alpha past the key bound is not refused there.
    """
    if n == 1:
        return []
    return [(twice_alpha * n + beta * n * (n - 1), 1), *pairs_power(laguerre_pairs(n, twice_alpha, beta), -1)]


def _int_args(params: EnsembleParams) -> tuple[int, int, int]:
    """(n, twice alpha, beta) of the parameters, the arguments of the pair lists."""
    return params.n, int(2 * params.alpha), params.beta


def laguerre_integral(params: EnsembleParams) -> ExactValue:
    """Exact value of the Laguerre-ensemble integral.

    prod_{j=1}^{n} Gamma(1 + j*beta/2) * Gamma(alpha + (j-1)*beta/2)
    divided by Gamma(1 + beta/2)^n.
    """
    return gamma_map(laguerre_pairs(*_int_args(params)))


def c_norm(params: EnsembleParams) -> ExactValue:
    """Normalization constant C_n^(alpha, beta) of the simplex eigenvalue density.

    Gamma(alpha*n + beta*n*(n-1)/2) divided by the Laguerre integral.
    """
    return gamma_map(c_norm_pairs(*_int_args(params)))


# Largest n of the float path, the largest Gamma argument the exact layer
# takes: its 3n lgamma calls take about 0.43 s there on a 2-core Xeon VM,
# and a billion would run for minutes before any later check refuses it.
_MAX_FLOAT_N = 1 << 20


def log_c_norm(n: int, alpha: float, beta: float) -> float:
    """Natural log of C_n^(alpha, beta) for arbitrary positive alpha, beta.

    Runs entirely through lgamma, so it is usable far beyond the exact-mode
    parameter range.  An n past ``_MAX_FLOAT_N`` is refused before the first
    lgamma.  Where a log-Gamma term passes the largest double (alpha = 1e308
    at n = 2), or the sum of them does, it refuses the pair.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _MAX_FLOAT_N:
        raise ValueError(f"n must be at most {_MAX_FLOAT_N} for log C, got {n}")
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"alpha and beta must be positive, got ({alpha}, {beta})")
    try:
        total = math.lgamma(alpha * n + beta * n * (n - 1) / 2.0)
        for j in range(1, n + 1):
            total -= math.lgamma(1 + j * beta / 2.0)
            total -= math.lgamma(alpha + (j - 1) * beta / 2.0)
            total += math.lgamma(1 + beta / 2.0)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(
            f"alpha={alpha} and beta={beta} are too large at n={n}: log C overflows a double"
        )
    return total
