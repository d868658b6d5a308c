"""Group and coset volumes: golden values, recursions, and conversion laws."""

import hashlib
from fractions import Fraction
from math import factorial

import pytest

from hsgeom.exactnum import ONE, PI, exact_sqrt, from_rational
from hsgeom.groups import (
    _GROUP_FAMILIES,
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


# sha256 of the newline-joined str() of the volumes at n = 1 .. 60, per family
# and convention, so every exact string keeps its bytes however the prefactor
# and the Gamma product share the work (n(n-1)/2 takes both parities here)
_FAMILY_SHA256 = {
    (Family.UNITARY, A): "311d8cf9b63d9fc9c25e1c6d561a4e6c553fb36830f2879436c3b0c3136a0597",
    (Family.UNITARY, B): "ea29cc2667eb5382fd003ac7c4047d629c22088ed88c06ab4d0820a6a1c75ec0",
    (Family.UNITARY, C): "ac766bc9340529709d73cd65014ad398dfe913d60aeae5d1e7582cf132ecede9",
    (Family.SPECIAL_UNITARY, A): "0f9c11c3a6bf60f0481e8cb95baedca18700de5988679f4b3d3e451daf3e766e",
    (Family.SPECIAL_UNITARY, B): "9be388e3199c19c8bb92423ef98b535e8cc7aa8959e3a47d23a2677406c508d9",
    (Family.SPECIAL_UNITARY, C): "3f6e017d137bab5717d562cec65ff0a78ba0eba838b92c3918fa8eaddcf1b9a6",
    (Family.ORTHOGONAL, A): "4012d229ec06254f7264b1a5fb981d4a5082d81c5779687002cd2620d199cb91",
    (Family.ORTHOGONAL, B): "3091ee156e33157a69ac1e9ca3905416a3e97d7c8a392409b5c834c74376a2ba",
    (Family.ORTHOGONAL, C): "3091ee156e33157a69ac1e9ca3905416a3e97d7c8a392409b5c834c74376a2ba",
    (Family.SPECIAL_ORTHOGONAL, A): "1120fd789818b6471da3148c809f6e1f261a62bedd8d979977754d754fea4859",
    (Family.SPECIAL_ORTHOGONAL, B): "ad0cf6139fa9ac7158bbb51b795f5f79b6e38ee9f1cd752667fa84ed8af68951",
    (Family.SPECIAL_ORTHOGONAL, C): "ad0cf6139fa9ac7158bbb51b795f5f79b6e38ee9f1cd752667fa84ed8af68951",
    (Family.COMPLEX_PROJECTIVE, A): "94181b14f272aac39b259e9b471c52b3abae2090d9c923a511526791d01ede4b",
    (Family.COMPLEX_PROJECTIVE, B): "696449eae3037e82bb03ba11bb63f63147b2219cc8e08764e1986d68b26518f0",
    (Family.COMPLEX_PROJECTIVE, C): "696449eae3037e82bb03ba11bb63f63147b2219cc8e08764e1986d68b26518f0",
    (Family.REAL_PROJECTIVE, A): "c0da44233b5a65924607b29d7b411a1b644da371e47fb05020c1d5059b5fa796",
    (Family.REAL_PROJECTIVE, B): "9c3aec6c264383079eba3aaf8f4a1a01505ad124aea9fa029e931c9035d441f6",
    (Family.REAL_PROJECTIVE, C): "9c3aec6c264383079eba3aaf8f4a1a01505ad124aea9fa029e931c9035d441f6",
    (Family.COMPLEX_FLAG, A): "ce7d19b0b7393068ac6ec9707adc3f4d810672df6bce80db3668a531d4f6c0bb",
    (Family.COMPLEX_FLAG, B): "5b3e37115202cf1ab063fa1fec0407de00f16da3e3a83ce0a217185026a89c1e",
    (Family.COMPLEX_FLAG, C): "5b3e37115202cf1ab063fa1fec0407de00f16da3e3a83ce0a217185026a89c1e",
    (Family.REAL_FLAG, A): "5163ccd8305cef9b54ebca156843d683c04b86353e6b54a0b7a70464c332ef87",
    (Family.REAL_FLAG, B): "0147405a9347680020144c3a0f8499be9cffc7a8ca9932d362a7abdc711f8c9b",
    (Family.REAL_FLAG, C): "0147405a9347680020144c3a0f8499be9cffc7a8ca9932d362a7abdc711f8c9b",
}


@pytest.mark.parametrize("family, conv", list(_FAMILY_SHA256))
def test_family_strings_golden(family, conv):
    volume = vol_group if family in _GROUP_FAMILIES else vol_coset
    text = "\n".join(str(volume(CosetSpec(family, n), conv)) for n in range(1, 61))
    assert hashlib.sha256(text.encode()).hexdigest() == _FAMILY_SHA256[family, conv]
