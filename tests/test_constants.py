"""Normalization constants: exact values, the closed product, and the float path."""

import math
from fractions import Fraction

import pytest

from hsgeom.constants import EnsembleParams, c_norm, laguerre_integral, log_c_norm
from hsgeom.exactnum import ONE, from_rational, gamma_exact

LN10 = math.log(10.0)


@pytest.mark.parametrize(
    "n,alpha,beta,expected",
    [
        (1, 1, 2, 1),
        (2, 1, 2, 2),
        (2, 1, 1, 1),
    ],
)
def test_laguerre_integral_small(n, alpha, beta, expected):
    assert laguerre_integral(EnsembleParams(n, Fraction(alpha), beta)) == from_rational(expected)


@pytest.mark.parametrize(
    "n,alpha,beta,expected",
    [
        (2, 1, 2, 3),
        (2, 1, 1, 2),
        (3, 1, 2, 1680),
    ],
)
def test_c_norm_small(n, alpha, beta, expected):
    assert c_norm(EnsembleParams(n, Fraction(alpha), beta)) == from_rational(expected)


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(1, 2), Fraction(5, 2), Fraction(7)])
def test_c_norm_single_eigenvalue_is_one(alpha):
    # The trace delta pins the only eigenvalue, so the density is already
    # normalized whatever alpha is.
    assert c_norm(EnsembleParams(1, alpha, 2)) == ONE
    assert c_norm(EnsembleParams(1, alpha, 1)) == ONE


def _hs_constant_closed_product(n: int):
    # Independent route: Gamma(N^2) / prod_{j=0}^{N-1} Gamma(N-j) Gamma(N-j+1).
    denom = ONE
    for j in range(n):
        denom = denom * gamma_exact(n - j) * gamma_exact(n - j + 1)
    return gamma_exact(n * n) / denom


@pytest.mark.parametrize("n", range(1, 9))
def test_hs_constant_matches_closed_product(n):
    assert c_norm(EnsembleParams(n, Fraction(1), 2)) == _hs_constant_closed_product(n)


def test_parameter_validation():
    with pytest.raises(ValueError):
        EnsembleParams(0, Fraction(1), 2)
    with pytest.raises(ValueError):
        EnsembleParams(2, Fraction(-1), 2)
    with pytest.raises(ValueError):
        EnsembleParams(2, Fraction(1, 3), 2)
    with pytest.raises(ValueError):
        EnsembleParams(2, Fraction(1), 3)
    with pytest.raises(ValueError):
        log_c_norm(2, 0.0, 2.0)
    with pytest.raises(ValueError):
        log_c_norm(0, 1.0, 2.0)


@pytest.mark.parametrize(
    "n, alpha, beta",
    [(2, 1e308, 1 / 3), (2, 1.0, 1e308), (3, 1e305, 2.0), (2000, 1e305, 1.0), (2, math.inf, 1.0)],
)
def test_log_c_norm_refuses_a_pair_whose_log_gamma_overflows(n, alpha, beta):
    # lgamma(1e308) raises OverflowError, lgamma(inf) is inf, and inf - inf is nan
    with pytest.raises(ValueError, match="too large .* log C overflows a double"):
        log_c_norm(n, alpha, beta)
    assert math.isfinite(log_c_norm(2, 1e200, 1 / 3))


def test_float_path_matches_exact_log10():
    for n in range(1, 11):
        for twice_alpha in (1, 2, 3, 4, 6):
            for beta in (1, 2):
                alpha = Fraction(twice_alpha, 2)
                exact = c_norm(EnsembleParams(n, alpha, beta)).log10()
                floated = log_c_norm(n, float(alpha), float(beta)) / LN10
                assert floated == pytest.approx(exact, abs=1e-9)


def test_lgamma_against_exact_values():
    # The float path leans on math.lgamma; pin its accuracy on the grid of
    # integers and half-integers where the exact value is available.
    points = [Fraction(k, 2) for k in range(1, 201)] + [Fraction(10**3), Fraction(10**4)]
    for x in points:
        ref = gamma_exact(x).log10() * LN10
        assert math.lgamma(float(x)) == pytest.approx(ref, rel=1e-12, abs=1e-12)
