"""State-space volumes, edges, radii and reference bodies against independent routes."""

import hashlib
import math
from fractions import Fraction
from math import factorial

import mpmath
import pytest

from hsgeom.constants import EnsembleParams, c_norm
from hsgeom.exactnum import ExactValue, ONE, PI, exact_sqrt, from_rational, gamma_exact
from hsgeom import exactnum
from hsgeom.groups import Convention, CosetSpec, Family, vol_coset
from hsgeom.mixedstates import (
    ReferenceKind,
    StateSpace,
    geometry,
    reference_body,
    vol_edge,
    vol_mixed,
)

# Rounded radii quoted for the complex state spaces at N = 3, 4.
RHO_3 = 0.519
RHO_4 = 0.428


def test_volume_golden_values():
    assert vol_mixed(StateSpace(2)) == PI * exact_sqrt(2) / 3
    assert vol_mixed(StateSpace(3)) == PI**3 / (840 * exact_sqrt(3))
    assert vol_mixed(StateSpace(2, "real")) == PI / 2


def test_boundary_golden_values():
    assert vol_edge(StateSpace(2), 1) == 2 * PI
    assert vol_edge(StateSpace(3), 1) == exact_sqrt(2) * PI**3 / 105
    assert vol_edge(StateSpace(2, "real"), 1) == exact_sqrt(2) * PI


def _complex_volume_composed(n: int):
    # Independent route: sqrt(N)/N! * Vol_A[flag] / C_N^(1,2).
    flag = vol_coset(CosetSpec(Family.COMPLEX_FLAG, n), Convention.A)
    return exact_sqrt(n) * flag / (factorial(n) * c_norm(EnsembleParams(n, Fraction(1), 2)))


def _real_volume_closed_form(n: int):
    # Independent route: the fully expanded Gamma-product form.
    m = n * (n - 1) // 2
    two_pi_pow = exact_sqrt(Fraction(2) ** m) * ExactValue(1, Fraction(1), 1, m)
    out = exact_sqrt(n) * from_rational(Fraction(2**n, factorial(n))) * two_pi_pow
    out = out * gamma_exact(Fraction(n + 1, 2))
    out = out / (gamma_exact(Fraction(n * (n + 1), 2)) * gamma_exact(Fraction(1, 2)))
    for k in range(1, n + 1):
        out = out * gamma_exact(1 + Fraction(k, 2))
    return out


def _complex_boundary_closed_form(n: int):
    # sqrt(N-1) (2pi)^(N(N-1)/2) Gamma(1)..Gamma(N+1) / (Gamma(N) Gamma(N^2-1))
    out = exact_sqrt(n - 1) * (2 * PI).pow_int(n * (n - 1) // 2)
    for j in range(1, n + 2):
        out = out * gamma_exact(j)
    return out / (gamma_exact(n) * gamma_exact(n * n - 1))


@pytest.mark.parametrize("n", range(2, 7))
def test_complex_volume_equals_composed_route(n):
    assert vol_mixed(StateSpace(n)) == _complex_volume_composed(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_real_volume_equals_closed_form(n):
    assert vol_mixed(StateSpace(n, "real")) == _real_volume_closed_form(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_complex_boundary_equals_closed_form(n):
    assert vol_edge(StateSpace(n), 1) == _complex_boundary_closed_form(n)


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n", range(2, 7))
def test_edge_zero_is_volume(n, field):
    assert vol_edge(StateSpace(n, field), 0) == vol_mixed(StateSpace(n, field))


@pytest.mark.parametrize("n", range(2, 7))
def test_top_edge_is_pure_state_manifold(n):
    # The rank-one stratum is CP^(N-1) with volume (2pi)^(N-1)/Gamma(N).
    expected = (2 * PI).pow_int(n - 1) / gamma_exact(n)
    assert vol_edge(StateSpace(n), n - 1) == expected
    assert vol_edge(StateSpace(n), n - 1) == vol_coset(
        CosetSpec(Family.COMPLEX_PROJECTIVE, n - 1), Convention.A
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_top_edge_real_is_projective_space(n):
    assert vol_edge(StateSpace(n, "real"), n - 1) == vol_coset(
        CosetSpec(Family.REAL_PROJECTIVE, n - 1), Convention.A
    )


def test_edge_rank_range():
    with pytest.raises(ValueError):
        vol_edge(StateSpace(3), 3)
    with pytest.raises(ValueError):
        vol_edge(StateSpace(3), -1)


def test_state_space_validation():
    with pytest.raises(ValueError):
        StateSpace(1)
    with pytest.raises(ValueError):
        StateSpace(3, "quaternionic")
    assert StateSpace(3).dim == 8
    assert StateSpace(3, "real").dim == 5
    assert StateSpace(4, "real").dim == 9


def test_geometry_n2_is_a_ball():
    g = geometry(StateSpace(2))
    r2 = exact_sqrt(Fraction(1, 2))
    assert g.circumradius == r2
    assert g.inradius == r2
    assert g.effective_radius == pytest.approx(r2.to_float(), rel=1e-12)
    assert g.gamma == 3 * exact_sqrt(2)
    assert g.chi1 == pytest.approx(1.0, rel=1e-12)
    assert g.chi2 == pytest.approx(1.0, rel=1e-12)


def _effective_radius_reference(space):
    """10^((log10 Vol - log10 Vol B_D) / D) at 60 digits, the ball through mpmath's loggamma."""
    v, d = vol_mixed(space), space.dim
    with mpmath.workdps(60):
        magnitude = mpmath.mpf(v.q.numerator) / v.q.denominator * mpmath.sqrt(v.r)
        log10_vol = mpmath.log10(magnitude) + v.p * mpmath.log10(mpmath.pi) / 2
        log10_ball = d * mpmath.log10(mpmath.pi) / 2 - mpmath.loggamma(mpmath.mpf(d) / 2 + 1) / mpmath.ln(10)
        return mpmath.power(10, (log10_vol - log10_ball) / d)


@pytest.mark.parametrize("field", ["complex", "real"])
def test_effective_radius_matches_a_60_digit_reference(field):
    # complex n = 84 and 114 are off by 9.2e-16 and 1.05e-15 if the two
    # volumes' log10 are rounded to doubles before they are subtracted
    for n in (2, 3, 4, 6, 13, 21, 55, 84, 96, 114, 137, 139, 174, 200):
        want = _effective_radius_reference(StateSpace(n, field))
        got = geometry(StateSpace(n, field)).effective_radius
        with mpmath.workdps(60):
            assert abs(got - want) / want <= 6e-16, n


def test_geometry_radii_golden():
    g3 = geometry(StateSpace(3))
    assert g3.circumradius.to_float() == pytest.approx(0.816, abs=1e-3)
    assert g3.inradius.to_float() == pytest.approx(0.408, abs=1e-3)
    assert g3.effective_radius == pytest.approx(RHO_3, abs=1e-3)
    g4 = geometry(StateSpace(4))
    assert g4.circumradius.to_float() == pytest.approx(0.866, abs=1e-3)
    assert g4.inradius.to_float() == pytest.approx(0.289, abs=1e-3)
    assert g4.effective_radius == pytest.approx(RHO_4, abs=1e-3)


def test_geometry_gamma_closed_forms():
    assert geometry(StateSpace(2)).gamma == 3 * exact_sqrt(2)
    assert geometry(StateSpace(3)).gamma == 8 * exact_sqrt(6)
    assert geometry(StateSpace(4)).gamma == 15 * exact_sqrt(12)
    assert geometry(StateSpace(2, "real")).gamma == 2 * exact_sqrt(2)


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n", range(2, 7))
def test_gamma_is_dimension_over_inradius(n, field):
    space = StateSpace(n, field)
    g = geometry(space)
    assert g.gamma == from_rational(space.dim) / g.inradius
    if field == "complex":
        assert g.gamma == exact_sqrt(n * (n - 1)) * (n * n - 1)
    else:
        assert g.gamma == exact_sqrt(n * (n - 1)) * (n - 1) * from_rational(
            1 + Fraction(n, 2)
        )


@pytest.mark.parametrize("field", ["complex", "real"])
def test_gamma_is_boundary_over_volume(field):
    # geometry takes gamma = D/r from the insphere; the boundary hyperarea
    # over the volume is the independent route
    for n in range(2, 41):
        space = StateSpace(n, field)
        assert geometry(space).gamma == vol_edge(space, 1) / vol_mixed(space), n


@pytest.mark.parametrize("n", range(2, 9))
def test_radii_are_ordered(n):
    g = geometry(StateSpace(n))
    r, rho, big_r = g.inradius.to_float(), g.effective_radius, g.circumradius.to_float()
    assert r <= rho + 1e-12
    assert rho <= big_r + 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_chi_product_law(n):
    # chi1 * chi2 = (N-1)^(-(N^2-1)) follows from r = R/(N-1).
    g = geometry(StateSpace(n))
    expected = -(n * n - 1) * math.log10(n - 1)
    if n == 2:
        assert g.chi_log10 == pytest.approx(0.0, abs=1e-12)
    else:
        assert g.chi_log10 == pytest.approx(expected, rel=1e-9)


def test_gamma_over_d32_increases_toward_one():
    previous = 0.0
    for n in range(2, 31):
        d = n * n - 1
        ratio = geometry(StateSpace(n)).gamma.to_float() / d**1.5
        assert previous < ratio < 1.0
        previous = ratio
    assert previous > 0.98


def test_reference_ball_and_sphere():
    assert reference_body("ball", 3).volume == 4 * PI / 3
    assert reference_body("ball", 4).volume == PI**2 / 2
    assert reference_body("ball", 3).gamma == from_rational(3)
    sphere = reference_body("sphere", 2)
    assert sphere.volume == 4 * PI
    with pytest.raises(ValueError):
        sphere.gamma


@pytest.mark.parametrize("d", range(2, 17))
def test_sphere_bounds_ball(d):
    assert reference_body("sphere", d - 1).volume == d * reference_body("ball", d).volume


def test_reference_cube_simplex_diamond():
    assert reference_body("cube", 5).volume == ONE
    assert reference_body("cube", 5).gamma == from_rational(10)
    simplex = reference_body(ReferenceKind.SIMPLEX, 2)
    assert simplex.volume == exact_sqrt(3) / 4
    assert simplex.gamma == 4 * exact_sqrt(3)
    diamond = reference_body("diamond", 2)
    assert diamond.volume == 2 * simplex.volume
    # diamond gamma scales exactly as D^2 / sqrt-correction
    assert diamond.gamma == exact_sqrt(Fraction(4, 3)) * 4
    with pytest.raises(ValueError):
        reference_body("cube", 0)


def test_simplex_and_diamond_past_the_gamma_bound_refuse_before_the_factorial(monkeypatch):
    # D! = Gamma(D + 1) has key 2D + 2: D = 2^20 is the first dimension past
    # gamma_product's bound, refused at once; D = 2^20 - 1 is held as prime
    # blocks, read in log space and refused as a string without building D!
    def unreachable(bases):
        raise AssertionError("built the product")

    monkeypatch.setattr(exactnum, "_power_product", unreachable)
    d = 2**20 - 1
    for kind, copies in (("simplex", 1), ("diamond", 2)):
        with pytest.raises(ValueError, match="Gamma argument too large"):
            reference_body(kind, 2**20)
        volume = reference_body(kind, d).volume
        want = math.log10(copies) + (math.log(d + 1) / 2 - d / 2 * math.log(2) - math.lgamma(d + 1)) / math.log(10)
        assert volume.log10() == pytest.approx(want, rel=1e-12)
        assert volume.to_float() == 0.0
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(volume)


# sha256 of the newline-joined str() of vol_edge at n = 40, k = 0 .. 39
_EDGE_SHA256 = {
    "complex": "d65b06fa31078ab3f4868375310c7097b1fd963b04e32b24cb0b75182fde52b2",
    "real": "c9dc180d50d92998497e836cc1607af7d27e150ab9782bbb9485635785f6e786",
}


@pytest.mark.parametrize("field", list(_EDGE_SHA256))
def test_edge_strings_golden(field):
    space = StateSpace(40, field)
    text = "\n".join(str(vol_edge(space, k)) for k in range(40))
    assert hashlib.sha256(text.encode()).hexdigest() == _EDGE_SHA256[field]
