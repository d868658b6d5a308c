"""Canonical-form arithmetic, exact Gamma, conversions, and the string grammar."""

import hashlib
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsgeom import exactnum
from hsgeom.exactnum import (
    _coprime_fraction,
    _fixed_power,
    _squarefree,
    ExactValue,
    ONE,
    PI,
    ZERO,
    exact_sqrt,
    from_rational,
    gamma_exact,
    gamma_product,
    parse,
)
from hsgeom.constants import EnsembleParams, c_norm, laguerre_integral
from hsgeom.groups import _GROUP_FAMILIES, Convention, CosetSpec, Family, sphere_volume, vol_coset, vol_group
from hsgeom.mixedstates import ReferenceKind, StateSpace, geometry, reference_body, vol_edge, vol_mixed

# Frozen with mpmath at 40 significant digits: pi*sqrt(2)/3 and
# log10(pi^3 / (840 sqrt(3))).
PI_SQRT2_OVER_3 = 1.480960979386122
LOG10_N3_VOLUME = -1.6713902953393114


def test_radical_closure():
    assert exact_sqrt(2) * exact_sqrt(2) == from_rational(2)
    assert exact_sqrt(6) * exact_sqrt(10) == 2 * exact_sqrt(15)


def test_inverse_pair():
    v = PI * exact_sqrt(2) / 3
    assert v * (3 / (PI * exact_sqrt(2))) == ONE
    assert v / v == ONE


def test_pow_int_expands_two_pi_cubed():
    v = (2 * PI).pow_int(3)
    assert (v.sign, v.q, v.r, v.p) == (1, Fraction(8), 1, 6)
    assert v == 8 * PI**3


def test_pow_int_negative_and_zero():
    v = 2 * PI * exact_sqrt(3)
    assert v.pow_int(0) == ONE
    assert v.pow_int(-2) * v.pow_int(2) == ONE
    assert ZERO.pow_int(3) == ZERO
    assert ZERO.pow_int(0) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.pow_int(-1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_arithmetic_with_a_non_number_is_a_type_error():
    # a float or a string is not coerced: each operand order raises
    for other in (1.5, "2"):
        for op in (operator.mul, operator.truediv):
            for left, right in ((ONE, other), (other, ONE)):
                with pytest.raises(TypeError):
                    op(left, right)


def test_zero_is_canonical_and_absorbing():
    assert ZERO == ExactValue(0, Fraction(1), 1, 0)
    assert ZERO * PI == ZERO
    assert ZERO / (3 * PI) == ZERO
    assert -ZERO == ZERO
    assert exact_sqrt(0) == ZERO and parse("0") == ZERO


def test_noncanonical_construction_rejected():
    with pytest.raises(ValueError):
        ExactValue(1, Fraction(1), 4, 0)  # 4 is not squarefree
    with pytest.raises(ValueError):
        ExactValue(1, Fraction(-1, 2), 1, 0)
    with pytest.raises(ValueError):
        ExactValue(2, Fraction(1), 1, 0)
    with pytest.raises(ValueError):
        ExactValue(0, Fraction(2), 1, 0)


def test_gamma_small_values():
    assert gamma_exact(4) == from_rational(6)
    assert gamma_exact(1) == ONE
    assert gamma_exact(Fraction(1, 2)) == ExactValue(1, Fraction(1), 1, 1)
    # Gamma(5/2) by the recurrence Gamma(x+1) = x Gamma(x) from Gamma(1/2).
    expected = Fraction(3, 2) * (Fraction(1, 2) * gamma_exact(Fraction(1, 2)))
    assert gamma_exact(Fraction(5, 2)) == expected


def test_gamma_recurrence_up_to_30():
    for twice_x in range(1, 61):
        x = Fraction(twice_x, 2)
        assert gamma_exact(x + 1) == x * gamma_exact(x)


def test_gamma_at_integers_is_the_factorial_through_gamma_product():
    # the integer branch once evaluated math.factorial directly; both
    # branches now go through gamma_product and must keep its strings
    for x in range(1, 400):
        expected = str(from_rational(math.factorial(x - 1)))
        assert str(gamma_product({2 * x: 1})) == str(gamma_exact(x)) == expected


def test_gamma_domain_errors():
    for bad in (0, -1, Fraction(-1, 2), Fraction(1, 3)):
        with pytest.raises(ValueError):
            gamma_exact(bad)


def _squarefree_by_trial_division(n):
    s, r = 1, 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            r *= d
        d += 1
    return s, r * n


def test_squarefree_strips_powers_of_two_like_trial_division():
    for k in range(301):
        for m in (1, 3, 9, 15, 45, 49, 105, 36481, 2 * 3 * 5 * 7 * 11):
            assert _squarefree(2**k * m) == _squarefree_by_trial_division(2**k * m), (k, m)
    with pytest.raises(ValueError, match="radicand must be positive"):
        _squarefree(0)
    with pytest.raises(ValueError, match="square root of negative"):
        exact_sqrt(-1)
    assert exact_sqrt(Fraction(36481, 2**36480)) == ExactValue(1, Fraction(191, 2**18240), 1, 0)


# a square times a squarefree part, so that both sides have square factors to strip
_SQUARED = st.builds(operator.mul, st.integers(1, 10**4).map(lambda s: s * s), st.integers(1, 10**6))


@settings(max_examples=300, deadline=None)
@given(_SQUARED, _SQUARED)
@example(1, 1)
@example(36481, 2**36480)
def test_a_square_root_factors_numerator_and_denominator_apart(a, b):
    # sqrt(a/b) = sqrt(a b)/b: the split of coprime a and b gives what
    # factoring their product gives
    g = math.gcd(a, b)
    a, b = a // g, b // g
    s, r = _squarefree(a * b)
    value = exact_sqrt(Fraction(a, b))
    assert (value.q, value.r, value.p) == (Fraction(s, b), r, 0)


@given(st.integers(1, 2**600))
@example(2**192 - 1)
@example(2**192)
@example(2**192 + 1)
def test_one_factor_to_the_first_power_is_cut_as_the_powering_cuts_it(x):
    # the one-factor shortcut of _fixed_power against its general loop,
    # which a second factor 1 takes without changing m or s
    assert _fixed_power([(x, 1)]) == _fixed_power([(x, 1), (1, 1)])


def test_to_float_linear():
    v = PI * exact_sqrt(2) / 3
    assert v.to_float() == pytest.approx(PI_SQRT2_OVER_3, rel=1e-14)
    assert ZERO.to_float() == 0.0
    assert (-v).to_float() == -v.to_float()


def test_log10():
    assert ONE.log10() == 0.0
    v = PI**3 / (840 * exact_sqrt(3))
    assert v.log10() == pytest.approx(LOG10_N3_VOLUME, abs=1e-12)
    with pytest.raises(ValueError):
        ZERO.log10()
    with pytest.raises(ValueError):
        (-ONE).log10()


def test_log10_survives_huge_values():
    v = gamma_exact(400) * PI**500  # far outside the double range
    assert v.to_float() == math.inf
    assert v.log10() == pytest.approx(
        math.lgamma(400) / math.log(10) + 500 * math.log10(math.pi), rel=1e-12
    )


# to_float() and log10() of values too long to print under the default
# 4300-digit limit, as the values built in full gave them
_UNPRINTABLE_FLOATS = {
    ("vol_mixed", 60, "complex"): (0.0, -7772.379849689245),
    ("vol_mixed", 60, "real"): (0.0, -3684.3518957528718),
    ("vol_mixed", 200, "complex"): (0.0, -117752.4686935243),
    ("vol_mixed", 200, "real"): (0.0, -56176.49955224551),
    ("vol_mixed", 1000, "complex"): (0.0, -3992332.666276592),
    ("vol_mixed", 1000, "real"): (0.0, -1922990.7385177952),
    ("c_norm", 200, (Fraction(3, 2), 1)): (math.inf, 50579.905716852576),
    ("vol_group", 2000, "U"): (0.0, -3702816.4619746534),
}


def _unprintable(kind, n, arg) -> ExactValue:
    if kind == "vol_mixed":
        return vol_mixed(StateSpace(n, arg))
    if kind == "c_norm":
        return c_norm(EnsembleParams(n, *arg))
    return vol_group(CosetSpec(Family(arg), n))


@pytest.mark.parametrize("key", list(_UNPRINTABLE_FLOATS))
def test_floats_of_unprintable_values_golden(key):
    v = _unprintable(*key)
    assert (repr(v.to_float()), repr(v.log10())) == tuple(map(repr, _UNPRINTABLE_FLOATS[key]))


def _nearest_double(v: ExactValue) -> float:
    """The double nearest to v: a 400-bit mpmath value rounded once, exactly, by float(Fraction)."""
    with mpmath.workprec(400):
        x = mpmath.mpf(v.q.numerator) / v.q.denominator * mpmath.sqrt(v.r)
        man, exp = (x * mpmath.pi ** (mpmath.mpf(v.p) / 2)).man_exp
    try:
        return v.sign * float(Fraction(int(man)) * Fraction(2) ** int(exp))
    except OverflowError:
        return v.sign * math.inf


@st.composite
def _values_near_power_of_two(draw):
    """A value of either sign near 2^t, with t in the subnormal, normal or overflow range."""
    t = draw(st.integers(-1080, -1018) | st.integers(-1000, 1000) | st.integers(1018, 1030))
    a, b = draw(st.integers(1, 2**80)), draw(st.integers(1, 2**80))
    r = draw(st.sampled_from((1, 2, 3, 6, 7, 30, 105)))
    p = draw(st.just(0) | st.integers(-40, 40))
    log2 = math.log2(a) - math.log2(b) + math.log2(r) / 2 + p / 2 * math.log2(math.pi)
    sign = draw(st.sampled_from((-1, 1)))
    return ExactValue(sign, Fraction(a, b) * Fraction(2) ** (t - round(log2)), r, p)


@st.composite
def _midpoints(draw):
    """An odd 54-bit integer times 2^e: halfway between two doubles wherever doubles carry 53 bits."""
    m = draw(st.integers(2**53, 2**54 - 1)) | 1
    sign = draw(st.sampled_from((-1, 1)))
    return ExactValue(sign, Fraction(m) * Fraction(2) ** draw(st.integers(-1130, 971)), 1, 0)


@settings(max_examples=400, deadline=None)
@given(_values_near_power_of_two() | _midpoints())
def test_to_float_is_the_nearest_double(v):
    assert v.to_float() == _nearest_double(v)


def test_to_float_edges():
    top = Fraction(2) ** 1024  # the first power of two past the largest double
    for q, want in (
        (top - Fraction(2) ** 971, 1.7976931348623157e308),  # below the last midpoint
        (top - Fraction(2) ** 970, math.inf),  # on it: ties to even round up
        (Fraction(1, 2**1075), 0.0),  # half the least subnormal: ties to even round down
        (Fraction(3, 2**1076), 5e-324),
    ):
        assert from_rational(q).to_float() == want
        assert from_rational(-q).to_float() == -want
    # the real n = 21 volume is subnormal; rounding twice gave 6.17093328389156e-309
    assert vol_mixed(StateSpace(21, "real")).to_float() == 6.170933283891557e-309


# floats and logs from normal to subnormal and past the double range, and
# geometry's log10 of a ratio with about 10^5 digits at n = 200
_CONVERSIONS = """
from hsgeom.exactnum import PI, gamma_exact
from hsgeom.mixedstates import StateSpace, geometry, vol_mixed
values = [vol_mixed(StateSpace(n, f)) for n in (2, 5, 21, 60) for f in ("complex", "real")]
values += [PI**-7 / 3, gamma_exact(400) * PI**500]
results = [x for v in values for x in (v.to_float(), v.log10())]
for g in [geometry(StateSpace(n, f)) for n in (4, 200) for f in ("complex", "real")]:
    results += [g.effective_radius, g.chi1_log10, g.chi2_log10, g.chi_log10]
"""


def test_conversions_match_an_interpreter_without_decimal():
    # fractions imports decimal itself; blocked after it, any import of
    # decimal by the package raises ImportError
    script = f"import fractions, json, sys\nsys.modules['decimal'] = None\n{_CONVERSIONS}print(json.dumps(results))\n"
    src = str(Path(exactnum.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    namespace = {}
    exec(_CONVERSIONS, namespace)
    assert json.loads(done.stdout) == namespace["results"]


def _random_factor(rng: random.Random) -> ExactValue:
    v = from_rational(Fraction(rng.randint(1, 60), rng.randint(1, 60)))
    if rng.random() < 0.7:
        v = v * exact_sqrt(rng.randint(1, 40))
    if rng.random() < 0.7:
        v = v * ExactValue(1, Fraction(1), 1, rng.randint(-4, 4))
    if rng.random() < 0.3:
        v = -v
    return v


def test_canonical_form_unique_over_random_chains():
    # Algebraically equal mul/div chains must agree field-by-field.
    rng = random.Random(20240817)
    for _ in range(1000):
        factors = [_random_factor(rng) for _ in range(rng.randint(2, 6))]
        left = ONE
        for f in factors:
            left = left * f
        shuffled = factors[:]
        rng.shuffle(shuffled)
        right = ONE
        for f in shuffled:
            right = right * f
        assert left == right
        assert (left.sign, left.q, left.r, left.p) == (right.sign, right.q, right.r, right.p)
        # dividing back out in a third order returns to one
        rng.shuffle(shuffled)
        for f in shuffled:
            right = right / f
        assert right == ONE


def _build_value(num, den, rad, p, neg):
    v = from_rational(Fraction(num, den)) * exact_sqrt(rad) * ExactValue(1, Fraction(1), 1, p)
    return -v if neg else v


_values = st.builds(
    _build_value,
    st.integers(1, 200),
    st.integers(1, 200),
    st.integers(1, 60),
    st.integers(-6, 6),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(_values, _values, _values)
def test_mul_associative_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@settings(max_examples=200, deadline=None)
@given(_values)
def test_multiplicative_inverse(a):
    assert a * (ONE / a) == ONE
    assert a.pow_int(2) == a * a


@settings(max_examples=200, deadline=None)
@given(_values)
def test_log10_matches_linear_when_in_range(a):
    v = a if a.sign > 0 else -a
    linear = v.to_float()
    if 0.0 < linear < math.inf:
        assert v.log10() == pytest.approx(math.log10(linear), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_render_parse_round_trip(a):
    assert parse(str(a)) == a


def test_render_golden_strings():
    assert str(PI * exact_sqrt(2) / 3) == "1/3*sqrt(2)*pi^(2/2)"
    assert str(4 * PI**3) == "4*pi^(6/2)"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-(ONE / 2)) == "-1/2"
    assert str(exact_sqrt(2) / PI) == "1*sqrt(2)*pi^(-2/2)"
    assert str(ONE / exact_sqrt(2)) == "1/2*sqrt(2)"


def test_parse_rejects_junk():
    for bad in ["", "sqrt(2)", "1/0", "2*pi", "1*sqrt(4)", "0*sqrt(2)", "-0", "1.5", "1/2/3"]:
        with pytest.raises(ValueError):
            parse(bad)
    # well formed, and naming a value, but never written by str: refused by name
    for bad in ["2/4", "1/1", "0/5", "007", "1/2*sqrt(1)", "3*pi^(0/2)", "0/0", "-0/3",
                "1*pi^(-0/2)", "2*sqrt(03)", " 1/2", "1/2\n"]:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            parse(bad)


def test_coprime_fraction_equals_and_hashes_as_fraction_does():
    pairs = [(0, 1), (1, 1), (-3, 4), (2**89 - 1, 3**50), (-(10**40) - 1, 10**39)]
    for num, den in pairs:
        value = _coprime_fraction(num, den)
        assert type(value) is Fraction
        assert value == Fraction(num, den) and (value.numerator, value.denominator) == (num, den)
        assert hash(value) == hash(Fraction(num, den)) and value + 0 == Fraction(num, den)


# -- deferred values: q is built only when something reads it --------------------


def _unreachable_power_product(bases):
    raise AssertionError("built the product")


def _count_power_products(monkeypatch) -> list:
    """Records every ``_power_product`` call, which still builds; returns the record."""
    calls, build = [], exactnum._power_product

    def counted(bases):
        calls.append(bases)
        return build(bases)

    monkeypatch.setattr(exactnum, "_power_product", counted)
    return calls


def test_a_deferred_value_keeps_the_record_contract(monkeypatch):
    # Gamma(5/2)^2 / Gamma(4) = (3/4 sqrt(pi))^2 / 6
    calls = _count_power_products(monkeypatch)
    v = gamma_product({5: 2, 8: -1})
    built = ExactValue(1, Fraction(3, 32), 1, 2)
    assert calls == []
    assert v == built and len(calls) == 2  # the first == builds numerator and denominator
    assert built == v and hash(v) == hash(built) and v == built
    assert repr(v) == "ExactValue(sign=1, q=Fraction(3, 32), r=1, p=2)"
    assert len(calls) == 2  # and nothing reads them again
    w = gamma_product({5: 2, 8: -1})
    assert repr(w) == "ExactValue(sign=1, q=Fraction(3, 32), r=1, p=2)"
    u = gamma_product({5: 2, 8: -1})
    assert type(u.q) is Fraction and u.q == Fraction(3, 32)
    for value in (gamma_product({5: 2, 8: -1}), built):
        for name in ("sign", "q", "r", "p", "_parts", "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        with pytest.raises(AttributeError):
            del value.q
    with pytest.raises(AttributeError, match="'ExactValue' object has no attribute 'numerator'"):
        gamma_product({5: 1}).numerator


def test_products_with_built_values_stay_deferred(monkeypatch):
    factor = 3 * exact_sqrt(6) * PI / 7
    # Gamma(7/2) = 15/8 sqrt(pi), Gamma(6) = 120
    want = ExactValue(1, Fraction(15, 8 * 120), 1, 1)
    calls = _count_power_products(monkeypatch)
    results = {
        "mul": gamma_product({7: 1, 12: -1}) * factor,
        "rmul": factor * gamma_product({7: 1, 12: -1}),
        "div": gamma_product({7: 1, 12: -1}) / factor,
        "rdiv": factor / gamma_product({7: 1, 12: -1}),
        "neg": -gamma_product({7: 1, 12: -1}),
        "pow": gamma_product({7: 1, 12: -1}).pow_int(3),
        "inverse": gamma_product({7: 1, 12: -1}).pow_int(-2),
    }
    expected = {
        "mul": want * factor,
        "rmul": factor * want,
        "div": want / factor,
        "rdiv": factor / want,
        "neg": -want,
        "pow": want.pow_int(3),
        "inverse": want.pow_int(-2),
    }
    assert calls == []
    assert results == expected and len(calls) == 2 * len(results)
    assert results == expected and {hash(v) for v in results.values()} == {hash(v) for v in expected.values()}
    assert repr(results) == repr(expected) and len(calls) == 2 * len(results)
    # a product of Gamma(5) = 24 and Gamma(7/2) = 15/8 sqrt(pi) adds their
    # maps and builds nothing; its first read builds 45 = 4! 6! / (3! 2!^6)
    # once, from the map's own factorials
    calls.clear()
    product = gamma_exact(5) * gamma_exact(Fraction(7, 2))
    assert calls == []
    assert product == ExactValue(1, Fraction(45), 1, 1) and calls == [[(45, 1)], [(1, 1)]]


@pytest.mark.parametrize("large_first", [True, False])
def test_a_product_of_two_gamma_products_builds_neither(monkeypatch, large_first):
    def product(n):
        large, small = vol_mixed(StateSpace(n)), gamma_exact(Fraction(7, 2))
        return large * small if large_first else small * large

    # equal to the product of the built factors, at n = 200: building the
    # n = 1000 volume takes seconds
    factors = vol_mixed(StateSpace(200)), gamma_exact(Fraction(7, 2))
    large, small = (ExactValue(v.sign, v.q, v.r, v.p) for v in factors)
    assert product(200) == large * small
    # the maps are added, and the n = 1000 product's log10 and float come
    # from its map's blocks without building either factor or the product
    monkeypatch.setattr(exactnum, "_power_product", _unreachable_power_product)
    value = product(1000)
    assert value.log10() == pytest.approx(-3992332.666276592 + math.log10(15 / 8 * math.sqrt(math.pi)), rel=1e-15)
    assert value.to_float() == 0.0


def test_deferred_values_read_their_floats_without_building(monkeypatch):
    huge, tiny = c_norm(EnsembleParams(200, Fraction(3, 2), 1)), vol_mixed(StateSpace(200, "real"))
    monkeypatch.setattr(exactnum, "_power_product", _unreachable_power_product)
    assert huge.to_float() == math.inf and (-huge).to_float() == -math.inf
    assert tiny.to_float() == 0.0 and math.copysign(1.0, (-tiny).to_float()) == -1.0
    assert tiny.log10() == pytest.approx(-56176.49955224551, rel=1e-15)
    with pytest.raises(ValueError, match="log10 requires a positive value"):
        (-tiny).log10()


@pytest.mark.parametrize("order", list(permutations(("str", "to_float", "log10"))), ids="-".join)
def test_a_value_bounds_its_map_once_in_any_read_order(monkeypatch, order):
    # each of the three reads of vol_mixed(30), 263 digits, needs the map's
    # bound: the refusal and the float's range test read it, and so does the
    # route to the blocks that log10 reads
    calls, bound = [], exactnum._log_factorials

    def counted(fact):
        calls.append(fact)
        return bound(fact)

    reads = {"str": str, "to_float": ExactValue.to_float, "log10": ExactValue.log10}
    want = {name: read(vol_mixed(StateSpace(30))) for name, read in reads.items()}
    monkeypatch.setattr(exactnum, "_log_factorials", counted)
    value = vol_mixed(StateSpace(30))
    assert {name: reads[name](value) for name in order} == want
    assert len(calls) == 1


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str digit limit"
)


@pytest.fixture
def digit_limit():
    """Sets the interpreter's int<->str digit limit, and restores it afterwards."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


# vol_mixed(60), past 4300 digits by its map alone; C_47^(3/2, 2) and the
# unit 3080-sphere, whose sides of 15 844 and 2 104 bits and of 1 541 and
# 15 625 bits the map cannot tell apart (log2 q is 13 740 and -14 084 bits)
_LONG_VALUES = {
    "vol_mixed-60": lambda: vol_mixed(StateSpace(60)),
    "c_norm-47": lambda: c_norm(EnsembleParams(47, Fraction(3, 2), 2)),
    "sphere-3080": lambda: sphere_volume(3080),
}
_UNDECIDED = ["c_norm-47", "sphere-3080"]


@needs_digit_limit
@pytest.mark.parametrize("fresh", list(_LONG_VALUES.values()), ids=list(_LONG_VALUES))
def test_the_digit_limit_refuses_one_digit_short_and_renders_at_the_count(digit_limit, fresh):
    digit_limit(0)
    text = str(fresh())
    digits = max(len(side) for side in re.findall(r"\d+", text.split("*")[0]))
    assert digits > 4300
    digit_limit(digits)
    assert str(fresh()) == text
    digit_limit(digits - 1)
    with pytest.raises(ValueError) as refused:
        str(fresh())
    with pytest.raises(ValueError) as reference:
        str(10 ** (digits - 1))  # digits - 1 + 1 digits: int.__str__'s own refusal
    assert str(refused.value) == str(reference.value)


@needs_digit_limit
def test_a_value_far_over_the_limit_is_refused_from_its_blocks(monkeypatch, digit_limit):
    digit_limit(4300)
    value = vol_mixed(StateSpace(1024))
    monkeypatch.setattr(exactnum, "_power_product", _unreachable_power_product)
    with pytest.raises(ValueError) as refused:
        str(value)
    with pytest.raises(ValueError) as reference:
        str(10**4300)
    assert str(refused.value) == str(reference.value)


@needs_digit_limit
def test_repr_names_a_q_that_str_refuses_without_building_it(monkeypatch, digit_limit):
    digit_limit(4300)
    value = vol_mixed(StateSpace(1000))
    monkeypatch.setattr(exactnum, "_power_product", _unreachable_power_product)
    assert repr(value) == f"ExactValue(sign=1, q=<more than 4300 digits>, r={value.r}, p={value.p})"
    assert repr(-value).startswith("ExactValue(sign=-1, q=<more than 4300 digits>, ")


def _exact_log_factorials(fact):
    """ln P and ln Q of the map, from the integers themselves."""
    sides = [1, 1]
    for j, k in fact.items():
        sides[k < 0] *= math.factorial(j) ** abs(k)
    return math.log(sides[0]), math.log(sides[1])


def _assert_within_half_the_bound(fact):
    # the docstring's rounding and remainder stay below 2.6e-10 S; err is 1e-9 S
    ln_p, ln_q, err = exactnum._log_factorials(fact)
    exact_p, exact_q = _exact_log_factorials(fact)
    assert abs(ln_p - exact_p) + abs(ln_q - exact_q) <= err / 2


@needs_digit_limit
@pytest.mark.parametrize("name", _UNDECIDED)
def test_values_the_map_cannot_decide_are_refused_from_their_blocks(monkeypatch, digit_limit, name):
    digit_limit(4300)
    value = _LONG_VALUES[name]()
    _assert_within_half_the_bound(value._parts[1])
    found = []
    for route in ("_factorial_blocks", "_prime_blocks"):

        def counted(fact, find=getattr(exactnum, route)):
            found.append(fact)
            return find(fact)

        monkeypatch.setattr(exactnum, route, counted)
    monkeypatch.setattr(exactnum, "_power_product", _unreachable_power_product)
    with pytest.raises(ValueError) as refused:
        str(value)
    assert len(found) == 1  # the map's bound was not enough, the blocks' was
    with pytest.raises(ValueError) as reference:
        str(10**4300)
    assert str(refused.value) == str(reference.value)


_factorial_maps = st.dictionaries(
    st.integers(2, 3000), st.integers(-40, 40).filter(bool), min_size=1, max_size=12
)


@settings(max_examples=150, deadline=None)
@given(_factorial_maps)
def test_the_map_logs_err_by_at_most_half_their_bound(fact):
    _assert_within_half_the_bound(fact)


class _PrimeFound(Exception):
    pass


# one Gamma past 600, of over 1400 digits, among small ones
_long_powers = st.builds(
    lambda large, small: {**small, **large},
    st.dictionaries(st.integers(1200, 4000), st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=3),
    st.dictionaries(st.integers(1, 60), st.integers(-3, 3), max_size=6),
)


@needs_digit_limit
@settings(max_examples=40, deadline=None)
@given(_long_powers, st.integers(1, 10**30), st.integers(1, 10**30))
def test_the_map_bound_never_refuses_a_value_whose_sides_fit(powers, a, b):
    def fresh():
        return gamma_product(powers) * Fraction(a, b)

    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        q = fresh().q
        digits = max(len(str(q.numerator)), len(str(q.denominator)))
        for limit in sorted({640, *range(max(640, digits - 3), digits + 2)}):
            sys.set_int_max_str_digits(limit)
            value = fresh()
            with (
                mock.patch.object(exactnum, "_factorial_blocks", side_effect=_PrimeFound),
                mock.patch.object(exactnum, "_prime_blocks", side_effect=_PrimeFound),
            ):
                try:
                    str(value)
                except _PrimeFound:
                    continue  # not decided by the map
                except ValueError:
                    pass
            # refused by the map alone: a side is too long, and the blocks'
            # own bound refuses it too, so the message is theirs
            assert digits > limit
            cofactor, num, den = value._blocks()
            with pytest.raises(ValueError):
                exactnum._refuse_long_sides(cofactor, exactnum._log2(num), exactnum._log2(den))
    finally:
        sys.set_int_max_str_digits(before)


@needs_digit_limit
def test_without_a_limit_every_value_renders_and_parses_back(digit_limit):
    digit_limit(0)
    for field in ("complex", "real"):
        v = vol_mixed(StateSpace(60, field))
        assert parse(str(v)) == v == vol_mixed(StateSpace(60, field))



# -- floats and logs in fixed point, and the two routes to q --------------------

_SQUAREFREE = [r for r in range(1, 300) if _squarefree(r)[0] == 1]


def _oracle(value, gammas, q, r, p):
    """float and log10 of q sqrt(r) pi^(p/2) prod Gamma(m/2)^k at 400 bits, each rounded from 60 digits."""
    with mpmath.workprec(400):
        x = mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(r) * mpmath.pi ** (mpmath.mpf(p) / 2)
        for m, k in gammas.items():
            x *= mpmath.gamma(mpmath.mpf(m) / 2) ** k
        return float(mpmath.nstr(x, 60)), float(mpmath.nstr(mpmath.log10(x), 60))


# q 2^e spans subnormal results and results past 2^1024
@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2**120),
    st.integers(1, 2**120),
    st.integers(-1250, 1250),
    st.sampled_from(_SQUAREFREE),
    st.integers(-90, 90),
    st.dictionaries(st.integers(1, 2400), st.integers(-2, 2), max_size=3),
)
@example(1, 1, -1074, 1, 1, {})  # sqrt(pi) times the least subnormal
@example(3, 1, -1076, 2, 0, {})  # 3 sqrt(2) / 2^1076, subnormal
@example(1, 1, 1023, 3, 0, {})  # sqrt(3) 2^1023, past the largest double
@example(1, 1, 1021, 1, 3, {})  # pi^(3/2) 2^1021, just below it
@example(1, 1, 0, 1, 1, {2400: 1, 2399: -1, 7: 2})  # Gamma(1200) / Gamma(1199.5)
def test_floats_and_logs_match_a_60_digit_oracle(a, b, e, r, p, gammas):
    q = Fraction(a, b) * Fraction(2) ** e
    value = from_rational(q) * exact_sqrt(r) * ExactValue(1, Fraction(1), 1, p) * gamma_product(gammas)
    assert (value.to_float(), value.log10()) == _oracle(value, gammas, q, r, p)


_straddling_maps = st.dictionaries(st.integers(2, 1700), st.integers(-2, 2).filter(bool), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(_straddling_maps)
def test_both_routes_build_the_same_coprime_ints(fact):
    # sides from a few bits to about 30 000, on both sides of the 8192 bits
    # below which q is built from the map's own factorials
    def ints(bits=exactnum._FACTORIAL_BITS):
        with mock.patch.object(exactnum, "_FACTORIAL_BITS", bits):
            return ExactValue._from_parts(1, 1, 0, (1, 1), dict(fact))._ints()

    sides = [1, 1]
    for j, k in fact.items():
        sides[k < 0] *= math.factorial(j) ** abs(k)
    want = Fraction(*sides).as_integer_ratio()
    assert ints(0) == ints(1 << 30) == ints() == want


# -- the integer cofactor --------------------------------------------------------

# recipes of values, each made afresh by _make, so that a value under test
# and the one its fields are read from never share a state
_recipes = st.one_of(
    st.tuples(st.just("rational"), st.fractions(-(10**6), 10**6, max_denominator=10**6)),
    st.tuples(st.just("sqrt"), st.fractions(0, 10**6, max_denominator=10**6)),
    st.tuples(st.just("pi"), st.integers(-6, 6)),
    st.tuples(st.just("gamma"), st.dictionaries(st.integers(1, 40), st.integers(-3, 3), max_size=4)),
)


def _make(recipe) -> ExactValue:
    kind, arg = recipe
    if kind == "rational":
        return from_rational(arg)
    if kind == "sqrt":
        return exact_sqrt(arg)
    if kind == "pi":
        return gamma_product({1: arg})  # Gamma(1/2)^k = pi^(k/2)
    return gamma_product(arg)


def _fields(recipe) -> tuple:
    v = _make(recipe)
    return v.sign, v.q, v.r, v.p


def _hand_mul(x, y):
    (s1, q1, r1, p1), (s2, q2, r2, p2) = x, y
    if s1 * s2 == 0:
        return 0, Fraction(1), 1, 0
    g = math.gcd(r1, r2)
    return s1 * s2, q1 * q2 * g, r1 // g * (r2 // g), p1 + p2


def _hand_inverse(x):
    s, q, r, p = x
    if s == 0:
        raise ZeroDivisionError
    return s, 1 / (q * r), r, -p


def _hand_pow(x, k):
    if k == 0:
        return 1, Fraction(1), 1, 0
    if k < 0:
        return _hand_pow(_hand_inverse(x), -k)
    s, q, r, p = x
    if s == 0:
        return x
    return s**k, q**k * r ** (k // 2), r if k % 2 else 1, p * k


@settings(max_examples=400, deadline=None)
@given(_recipes, _recipes, st.sampled_from(["mul", "div", "neg", "pow"]), st.integers(-6, 6))
def test_the_integer_cofactor_matches_fraction_arithmetic(x, y, op, k):
    hand = {
        "mul": _hand_mul,
        "div": lambda a, b: _hand_mul(a, _hand_inverse(b)),
        "neg": lambda a, b: (-a[0], *a[1:]),
        "pow": lambda a, b: _hand_pow(a, k),
    }[op]
    real = {"mul": operator.mul, "div": operator.truediv, "neg": lambda a, b: -a, "pow": lambda a, b: a.pow_int(k)}[op]
    try:
        want = hand(_fields(x), _fields(y))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            real(_make(x), _make(y))
        return
    got, ref = real(_make(x), _make(y)), ExactValue(*want)
    # floats and logs first, while a map's q is still unbuilt
    assert got.to_float() == ref.to_float()
    if want[0] > 0:
        assert got.log10() == ref.log10() == got.log10()
    assert str(got) == str(ref)
    assert (got.sign, got.q, got.r, got.p) == want


def test_arithmetic_on_unit_cofactors_constructs_no_fraction(monkeypatch):
    # Gamma maps and powers of pi have the cofactor 1, and so have their
    # products, quotients, inverses and powers
    a, b = gamma_product({7: 1, 12: -1}), gamma_product({5: 2, 9: 1})
    made, new = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    if hasattr(Fraction, "_from_coprime_ints"):  # Fraction's own arithmetic makes results here
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(lambda cls, n, d: counted(cls, n, d)))
    results = [a * b, a / b, b / a, a * PI, PI / a, PI * PI, a.pow_int(-1), b.pow_int(3), -a, 1 / b]
    assert made == []
    assert Fraction(1, 3) and made == [(1, 3)]  # the counter sees a construction
    assert results[0] == gamma_product({7: 1, 12: -1, 5: 2, 9: 1})


@pytest.mark.parametrize(
    "base, k",
    [(lambda: from_rational(3), 3 * 10**7), (lambda: gamma_exact(10**4), 400), (lambda: exact_sqrt(2), 10**9)],
    ids=["3", "built-gamma", "sqrt2"],
)
def test_pow_int_refuses_past_the_size_bound_at_once(base, k):
    value = base()
    value.q  # built, so the power goes into the cofactor
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exact value too large"):
        value.pow_int(k)
    assert time.perf_counter() - start < 0.1


def test_pow_int_under_the_size_bound_is_exact():
    v = 5 * exact_sqrt(Fraction(2, 3))  # 5/3 sqrt(6)
    assert v.pow_int(7) == ExactValue(1, Fraction(5**7 * 6**3, 3**7), 6, 0)
    assert v.pow_int(-4) == ExactValue(1, Fraction(3**4, 5**4 * 6**2), 1, 0)
    assert from_rational(Fraction(-3, 2)).pow_int(20000) == from_rational(Fraction(3**20000, 2**20000))


# -- floats and logs pinned ------------------------------------------------------


def _float_log_lines(values) -> str:
    """One line ``repr(to_float()) repr(log10())`` per value; a float is repr'd as it is."""
    lines = []
    for v in values:
        lines.append(repr(v) if isinstance(v, float) else f"{v.to_float()!r} {v.log10()!r}")
    return "\n".join(lines)


def _pinned_edges():
    for field in ("complex", "real"):
        for n in range(2, 13):
            yield from (vol_edge(StateSpace(n, field), k) for k in range(n))


def _pinned_geometry():
    for field in ("complex", "real"):
        for n in range(2, 61):
            g = geometry(StateSpace(n, field))
            yield from (g.circumradius, g.inradius, g.effective_radius, g.gamma)
            yield from (g.chi1_log10, g.chi2_log10, g.chi_log10)


def _pinned_families():
    for family in Family:
        volume = vol_group if family in _GROUP_FAMILIES else vol_coset
        for conv in Convention:
            yield from (volume(CosetSpec(family, n), conv) for n in range(1, 31))


def _pinned_constants():
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        for beta in (1, 2):
            for n in range(1, 31):
                params = EnsembleParams(n, alpha, beta)
                yield from (c_norm(params), laguerre_integral(params))


def _pinned_reference_bodies():
    for kind in ReferenceKind:
        for dim in range(1, 61):
            body = reference_body(kind, dim)
            yield body.volume
            if body.boundary_ratio is not None:
                yield body.boundary_ratio


# sha256 of _float_log_lines over each closed form, recorded before the
# integer cofactor: every float and log10 keeps its bits however the exact
# layer forms them
_FLOAT_LOG_SHA256 = {
    "vol_edge": (_pinned_edges, "692e117a81c77414b50be2388269dbd5d68502c5e77cbf3abf242065e3908306"),
    "geometry": (_pinned_geometry, "c4b55a2434122d60b253ff60e7b9a7d2d007913fb0a3e2f92d7b0596491f8090"),
    "families": (_pinned_families, "fd20c1dfb0b58ae79bdc2d27bf5fc84122594aacc26491e3583ce353438f55d6"),
    "constants": (_pinned_constants, "84bdf70b225fb2ee67671e4e069eb2276e87914c7b6f6e1ad16ee9b9941ae940"),
    "reference_bodies": (_pinned_reference_bodies, "1a80d856a6fa8e40998051f0a1ddf58aadc5ff13d2cb291b8a9966323174d6e2"),
}


@pytest.mark.parametrize("name", list(_FLOAT_LOG_SHA256))
def test_floats_and_logs_golden(name):
    values, digest = _FLOAT_LOG_SHA256[name]
    assert hashlib.sha256(_float_log_lines(values()).encode()).hexdigest() == digest


def _sweep_geometry():
    for field in ("complex", "real"):
        for n in range(61, 201, 7):
            g = geometry(StateSpace(n, field))
            yield from (g.circumradius, g.inradius, g.effective_radius, g.gamma)
            yield from (g.chi1_log10, g.chi2_log10, g.chi_log10, vol_mixed(StateSpace(n, field)))


def _sweep_edges():
    for field in ("complex", "real"):
        for n in (20, 40, 80, 160):
            yield from (vol_edge(StateSpace(n, field), k) for k in range(0, n, 5))


def _sweep_families():
    for family in Family:
        volume = vol_group if family in _GROUP_FAMILIES else vol_coset
        for conv in Convention:
            yield from (volume(CosetSpec(family, n), conv) for n in range(10, 201, 10))


def _sweep_constants():
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        for beta in (1, 2):
            yield from (c_norm(EnsembleParams(n, alpha, beta)) for n in range(31, 61))


def _sweep_reference_bodies():
    for kind in ReferenceKind:
        for dim in (*range(61, 40_000, 1999), 40_000):
            body = reference_body(kind, dim)
            yield body.volume
            if body.boundary_ratio is not None:
                yield body.boundary_ratio


def _around_the_factorial_bound():
    # 966! has 8192 bits: factorial maps whose sides have about 7900 to
    # 8600 bits, with and without a radicand and a power of pi
    for k in range(940, 1000, 3):
        yield gamma_exact(k)
        yield gamma_exact(Fraction(k, 2))
        yield gamma_exact(k) / gamma_exact(k // 2) * exact_sqrt(k)
        yield exact_sqrt(2 * k + 1) * PI / gamma_exact(k)
        yield gamma_product({2 * k + 1: 1, k: -1, 7: 3})
    for e in range(4, 10):
        yield gamma_exact(201) ** e / 7
        yield PI**e / gamma_exact(201) ** e


# sha256 of _float_log_lines over the sizes the benchmark's exact sweep asks
# for, past the closed forms pinned above, and over values on both sides of
# the size below which q is built from its factorials
_SWEEP_FLOAT_LOG_SHA256 = {
    "geometry": (_sweep_geometry, "8d3c8cfdc0ee65fb52c4a3d65fcad1415e4f6337d66fddeebae2e64d113d0d9c"),
    "vol_edge": (_sweep_edges, "42ee55f06a0c134cd3d55680e77f04f1029a7bd1d99f7f97a9cb918ac0a34d75"),
    "families": (_sweep_families, "0aa3c19e98bb7683b0c4bf46188140305eda469d39fab30a903d2546d7a189b8"),
    "constants": (_sweep_constants, "7500f8f356626f1f6464d6108fd79768785fe183f440858f89f8c5fd87bff37e"),
    "reference_bodies": (_sweep_reference_bodies, "a95ad05b8dbf675882018b006a466a743ddb42904ab7dee52534c7e7be6c2720"),
    "factorial_bound": (_around_the_factorial_bound, "94bb25f392c127f26fc6f92e0f23b42099bce061ad6c8ed119bef9db5ed96228"),
}


@pytest.mark.parametrize("name", list(_SWEEP_FLOAT_LOG_SHA256))
def test_floats_and_logs_golden_over_the_sweep_range(name):
    values, digest = _SWEEP_FLOAT_LOG_SHA256[name]
    assert hashlib.sha256(_float_log_lines(values()).encode()).hexdigest() == digest
