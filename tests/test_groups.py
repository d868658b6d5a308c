"""Group and coset volumes: golden values, recursions, and conversion laws."""

from fractions import Fraction
from math import factorial

import pytest

from hsgeom.exactnum import ONE, PI, exact_sqrt, from_rational
from hsgeom.groups import (
    Convention,
    CosetSpec,
    Family,
    ball_volume,
    sphere_volume,
    vol_coset,
    vol_group,
)

A, B, C = Convention.A, Convention.B, Convention.C


def _u(n, conv):
    return vol_group(CosetSpec(Family.UNITARY, n), conv)


def _o(n, conv):
    return vol_group(CosetSpec(Family.ORTHOGONAL, n), conv)


def test_sphere_and_ball_small_values():
    assert sphere_volume(0) == from_rational(2)
    assert sphere_volume(1) == 2 * PI
    assert sphere_volume(2) == 4 * PI
    assert sphere_volume(3) == 2 * PI**2
    assert sphere_volume(4) == 8 * PI**2 / 3
    assert ball_volume(2) == PI
    assert ball_volume(3) == 4 * PI / 3
    assert ball_volume(4) == PI**2 / 2


@pytest.mark.parametrize("k", range(1, 9))
def test_odd_sphere_closed_form(k):
    # vol(S^(2k-1)) = 2 pi^k / (k-1)!
    assert sphere_volume(2 * k - 1) == 2 * PI**k / factorial(k - 1)


def test_unitary_golden_values():
    assert _u(1, A) == 2 * PI
    assert _u(1, B) == 2 * PI
    assert _u(1, C) == exact_sqrt(2) * PI
    assert _u(2, A) == 8 * PI**3
    assert _u(2, B) == 4 * PI**3
    assert _u(2, C) == 2 * PI**3


def test_special_unitary_golden_values():
    su = lambda n, conv: vol_group(CosetSpec(Family.SPECIAL_UNITARY, n), conv)
    assert su(2, C) == 2 * PI**2
    assert su(3, C) == exact_sqrt(3) * PI**5
    assert su(4, C) == exact_sqrt(2) * PI**9 / 3


def test_orthogonal_golden_values():
    assert _o(1, A) == from_rational(2)
    assert _o(1, B) == from_rational(2)
    assert _o(2, A) == 4 * exact_sqrt(2) * PI
    assert _o(2, B) == 4 * PI
    assert _o(3, A) == 32 * exact_sqrt(2) * PI**2
    assert _o(3, B) == 16 * PI**2


def test_special_orthogonal_and_projective_golden_values():
    so = lambda n, conv: vol_group(CosetSpec(Family.SPECIAL_ORTHOGONAL, n), conv)
    assert so(2, B) == 2 * PI
    assert so(3, B) == 8 * PI**2
    assert so(3, C) == 8 * PI**2
    assert vol_coset(CosetSpec(Family.REAL_PROJECTIVE, 3), C) == PI**2
    assert vol_coset(CosetSpec(Family.COMPLEX_PROJECTIVE, 1), A) == 2 * PI
    assert vol_coset(CosetSpec(Family.COMPLEX_PROJECTIVE, 1), B) == PI


def test_flag_golden_values():
    assert vol_coset(CosetSpec(Family.COMPLEX_FLAG, 2), A) == 2 * PI
    assert vol_coset(CosetSpec(Family.REAL_FLAG, 2), A) == exact_sqrt(2) * PI
    # degenerate sizes: both flags of size 0 and 1 have volume 1
    for family in (Family.COMPLEX_FLAG, Family.REAL_FLAG):
        for n in (0, 1):
            for conv in Convention:
                assert vol_coset(CosetSpec(family, n), conv) == ONE


@pytest.mark.parametrize("n", range(1, 9))
def test_unitary_sphere_recursion(n):
    # Vol_B[U(N)] is the product of odd spheres S^1 S^3 ... S^(2N-1).
    prod = ONE
    for k in range(1, n + 1):
        prod = prod * sphere_volume(2 * k - 1)
    assert _u(n, B) == prod


@pytest.mark.parametrize("n", range(1, 9))
def test_orthogonal_sphere_recursion(n):
    prod = ONE
    for k in range(1, n + 1):
        prod = prod * sphere_volume(k - 1)
    assert _o(n, B) == prod


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("conv", list(Convention))
def test_flag_product_laws(n, conv):
    prod_c = ONE
    prod_r = ONE
    for k in range(1, n):
        prod_c = prod_c * vol_coset(CosetSpec(Family.COMPLEX_PROJECTIVE, k), conv)
        prod_r = prod_r * vol_coset(CosetSpec(Family.REAL_PROJECTIVE, k), conv)
    assert vol_coset(CosetSpec(Family.COMPLEX_FLAG, n), conv) == prod_c
    assert vol_coset(CosetSpec(Family.REAL_FLAG, n), conv) == prod_r


@pytest.mark.parametrize("n", range(1, 9))
def test_convention_conversions(n):
    assert _u(n, A) == from_rational(Fraction(2) ** (n * (n - 1) // 2)) * _u(n, B)
    assert _u(n, C) == exact_sqrt(Fraction(1, 2**n)) * _u(n, B)
    assert _o(n, A) == exact_sqrt(Fraction(2) ** (n * (n - 1) // 2)) * _o(n, B)
    assert _o(n, C) == _o(n, B)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("conv", list(Convention))
def test_su_stretching_and_so_halving(n, conv):
    su = vol_group(CosetSpec(Family.SPECIAL_UNITARY, n), conv)
    assert su / (_u(n, conv) / _u(1, conv)) == exact_sqrt(n)
    so = vol_group(CosetSpec(Family.SPECIAL_ORTHOGONAL, n), conv)
    assert so / _o(n, conv) == from_rational(Fraction(1, 2))


@pytest.mark.parametrize("k", range(0, 7))
def test_real_projective_is_half_sphere_under_b(k):
    assert vol_coset(CosetSpec(Family.REAL_PROJECTIVE, k), B) == sphere_volume(k) / 2


def test_spec_validation():
    with pytest.raises(ValueError):
        CosetSpec(Family.UNITARY, 0)
    with pytest.raises(ValueError):
        CosetSpec(Family.COMPLEX_PROJECTIVE, -1)
    CosetSpec(Family.COMPLEX_PROJECTIVE, 0)  # a point is fine
    with pytest.raises(ValueError):
        vol_group(CosetSpec(Family.COMPLEX_FLAG, 2), A)
    with pytest.raises(ValueError):
        vol_coset(CosetSpec(Family.UNITARY, 2), A)
    with pytest.raises(ValueError):
        sphere_volume(-1)
    with pytest.raises(ValueError):
        ball_volume(-1)
