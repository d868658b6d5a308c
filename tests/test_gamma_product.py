"""One-shot Gamma products against the per-factor loops they replaced.

The reference functions below multiply one exact Gamma value at a time into
the result, as the closed forms are written, with their own factorial-based
Gamma.  The library composes each closed form from Gamma maps, whose
factorial maps add; both routes must agree field by field.
"""

import math
import sys
import tracemalloc
from array import array
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsgeom import constants, exactnum, groups, mixedstates
from hsgeom.constants import EnsembleParams, c_norm, laguerre_integral
from hsgeom.exactnum import (
    _MAX_GAMMA_KEY,
    _MAX_PRODUCT_BITS,
    ONE,
    PI,
    ExactValue,
    exact_sqrt,
    from_rational,
    gamma_exact,
    gamma_product,
)
from hsgeom.groups import _GROUP_FAMILIES, Convention, CosetSpec, Family, sphere_volume, vol_coset, vol_group
from hsgeom.mixedstates import StateSpace, geometry, vol_edge, vol_mixed

# -- reference: one Gamma factor at a time --------------------------------------


def _gamma(x) -> ExactValue:
    """Gamma(n) = (n-1)!;  Gamma(k + 1/2) = (2k)!/(4^k k!) * sqrt(pi)."""
    x = Fraction(x)
    if x.denominator == 1:
        return from_rational(math.factorial(x.numerator - 1))
    k = (x.numerator - 1) // 2
    return ExactValue(1, Fraction(math.factorial(2 * k), 4**k * math.factorial(k)), 1, 1)


def _laguerre(n, alpha, beta):
    beta = Fraction(beta)
    out = ONE
    for j in range(1, n + 1):
        out = out * _gamma(1 + j * beta / 2) * _gamma(alpha + (j - 1) * beta / 2)
    return out / _gamma(1 + beta / 2).pow_int(n)


def _c_norm(n, alpha, beta):
    return _gamma(alpha * n + Fraction(beta * n * (n - 1), 2)) / _laguerre(n, alpha, beta)


def _sphere(k):
    return 2 * ExactValue(1, Fraction(1), 1, k + 1) / _gamma(Fraction(k + 1, 2))


def _unitary(n, conv):
    if n == 0:
        return ONE
    if conv is Convention.A:
        scale = from_rational(Fraction(2) ** (n * (n - 1) // 2))
    elif conv is Convention.B:
        scale = ONE
    else:
        scale = exact_sqrt(Fraction(1, 2**n))
    out = scale * (2**n) * ExactValue(1, Fraction(1), 1, n * (n + 1))
    for k in range(n):
        out = out / _gamma(k + 1)
    return out


def _orthogonal(n, conv):
    out = ONE
    for k in range(1, n + 1):
        out = out * _sphere(k - 1)
    if conv is Convention.A:
        out = out * exact_sqrt(Fraction(2) ** (n * (n - 1) // 2))
    return out


def _group(family, n, conv):
    if family is Family.UNITARY:
        return _unitary(n, conv)
    if family is Family.SPECIAL_UNITARY:
        return exact_sqrt(n) * _unitary(n, conv) / _unitary(1, conv)
    if family is Family.ORTHOGONAL:
        return _orthogonal(n, conv)
    if family is Family.SPECIAL_ORTHOGONAL:
        return _orthogonal(n, conv) / 2
    if family is Family.COMPLEX_PROJECTIVE:
        scale = from_rational(2**n) if conv is Convention.A else ONE
        return scale * ExactValue(1, Fraction(1), 1, 2 * n) / _gamma(n + 1)
    if family is Family.REAL_PROJECTIVE:
        return _orthogonal(n + 1, conv) / (2 * _orthogonal(n, conv))
    if family is Family.COMPLEX_FLAG:
        return _unitary(n, conv) / _unitary(1, conv).pow_int(n)
    return _orthogonal(n, conv) / from_rational(2**n)


def _vol_mixed(n, field):
    if field == "complex":
        out = exact_sqrt(n) * (2 * PI).pow_int(n * (n - 1) // 2)
        for j in range(1, n + 1):
            out = out * _gamma(j)
        return out / _gamma(n * n)
    flag = _group(Family.REAL_FLAG, n, Convention.A)
    return exact_sqrt(n) * flag / (math.factorial(n) * _c_norm(n, Fraction(1), 1))


def _vol_edge(n, field, k):
    if field == "complex":
        family, alpha, beta = Family.COMPLEX_FLAG, Fraction(1 + 2 * k), 2
    else:
        family, alpha, beta = Family.REAL_FLAG, Fraction(1 + k), 1
    flag_ratio = _group(family, n, Convention.A) / _group(family, k, Convention.A)
    return exact_sqrt(n - k) * flag_ratio / (math.factorial(n - k) * _c_norm(n - k, alpha, beta))


# -- gamma_product itself -------------------------------------------------------

_powers = st.dictionaries(st.integers(1, 120), st.integers(-3, 3), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_powers)
def test_gamma_product_matches_per_factor_product(powers):
    # keys are doubled arguments: Gamma(m/2) for m = 1..120, arguments <= 60
    expected = ONE
    for m, k in powers.items():
        expected = expected * _gamma(Fraction(m, 2)).pow_int(k)
    assert gamma_product(powers) == expected


# a few keys up to 4 * 10^4 put most primes above sqrt(top) in blocks
_large_powers = st.builds(
    lambda large, small: {**small, **large},
    st.dictionaries(st.integers(1, 40_000), st.integers(-3, 3), min_size=1, max_size=4),
    st.dictionaries(st.integers(1, 40), st.integers(-3, 3), max_size=4),
)


@settings(max_examples=25, deadline=None)
@given(_large_powers)
def test_gamma_product_matches_per_factor_product_at_large_keys(powers):
    expected = ONE
    for m, k in powers.items():
        expected = expected * _gamma(Fraction(m, 2)).pow_int(k)
    assert gamma_product(powers) == expected


def _factorial_primes(fact, twos):
    """Primes of 2^twos * prod j!^fact[j] by trial division, grouped by nonzero exponent."""
    exponents = {2: twos} if twos else {}
    for i in range(2, max(fact, default=0) + 1):
        power = sum(f for j, f in fact.items() if j >= i)  # i divides j! for each j >= i
        p = 2
        while i > 1:
            while i % p == 0:
                exponents[p] = exponents.get(p, 0) + power
                i //= p
            p += 1
    grouped = {}
    for p in sorted(exponents):
        if exponents[p]:
            grouped.setdefault(exponents[p], []).append(p)
    return grouped


# a run of keys every stride integers up to n, as Gamma(1), ..., Gamma(n) make,
# plus scattered keys up to 300
_factorial_maps = st.builds(
    lambda n, stride, power, scattered: {**{j: power for j in range(0, n, stride)}, **scattered},
    st.integers(0, 150),
    st.integers(1, 3),
    st.integers(-2, 2),
    st.dictionaries(st.integers(0, 300), st.integers(-3, 3), max_size=12),
)


def _with_twos(fact, twos):
    """The map of 2^twos * prod j!^fact[j]: 2^twos is 2!^twos."""
    return {**fact, 2: fact.get(2, 0) + twos}


@settings(max_examples=300, deadline=None)
@given(_factorial_maps, st.integers(-5, 5))
def test_prime_exponents_match_trial_division(fact, twos):
    assert exactnum._prime_exponents(_with_twos(fact, twos)) == _factorial_primes(fact, twos)


def test_prime_exponents_do_not_depend_on_the_order_the_prime_table_grew_in(monkeypatch):
    small, large = ({5: 2, 7: -1, 20: 1}, 4), ({12: 1, 39_999: -1, 40_000: 2}, -3)
    monkeypatch.setattr(exactnum, "_PRIME_TABLE", (1, array("l")))
    small_first = [exactnum._prime_exponents(_with_twos(*small)), exactnum._prime_exponents(_with_twos(*large))]
    assert exactnum._PRIME_TABLE[0] == 40_000
    monkeypatch.setattr(exactnum, "_PRIME_TABLE", (1, array("l")))
    large_first = [exactnum._prime_exponents(_with_twos(*large)), exactnum._prime_exponents(_with_twos(*small))]
    assert small_first == large_first[::-1]
    assert small_first[0] == _factorial_primes(*small)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_powers, _large_powers))
def test_gamma_product_is_in_lowest_terms(powers):
    # its Fraction is built without a gcd, on the proof that the sides are coprime
    q = gamma_product(powers).q
    assert math.gcd(q.numerator, q.denominator) == 1
    assert q == Fraction(q.numerator, q.denominator)


@settings(max_examples=100, deadline=None)
@given(_powers)
def test_gamma_product_of_negated_powers_is_the_inverse(powers):
    assert gamma_product(powers) * gamma_product({m: -k for m, k in powers.items()}) == ONE


def test_gamma_product_edge_maps():
    assert gamma_product({}) == ONE
    assert gamma_product({7: 0, 1: 0}) == ONE
    assert gamma_product({2: 5, 4: -3}) == ONE  # Gamma(1) = Gamma(2) = 1
    assert gamma_product({5: 2, 8: -1}) == _gamma(Fraction(5, 2)) ** 2 / 6
    assert gamma_product({1: 2}) == PI
    assert gamma_product({6: 3, 1: -1}) == 8 / _gamma(Fraction(1, 2))


def test_gamma_product_rejects_bad_keys():
    for bad in ({0: 1}, {-3: 1}, {Fraction(5, 2): 1}, {2.0: 1}, {3: Fraction(1, 2)}):
        with pytest.raises(ValueError):
            gamma_product(bad)


def test_gamma_product_rejects_keys_above_the_bound():
    # checked before the tables sized by the key are allocated, so a huge
    # key fails at once; a zero power is still ignored
    for key in (_MAX_GAMMA_KEY + 1, _MAX_GAMMA_KEY + 2, 2 * 10**400):
        with pytest.raises(ValueError, match="too large"):
            gamma_product({key: 1, 4: 1})
    assert gamma_product({10**400: 0}) == ONE


# a key or an ascending range of keys, from either parity, with odd and even steps
_keys = st.one_of(
    st.integers(1, 80),
    st.builds(range, st.integers(1, 60), st.integers(0, 120), st.integers(1, 4)),
)


def _expanded(pairs):
    """The same Gamma powers with every range spelled out one key at a time."""
    return [(m, k) for keys, k in pairs for m in (keys if isinstance(keys, range) else [keys])]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_keys, st.integers(-3, 3)), max_size=6))
# overlapping progressions that cancel in part, and in full
@example([(range(1, 30), 2), (range(5, 25, 3), -2), (7, 1)])
@example([(range(2, 40, 2), 1), (range(3, 60, 3), -1), (range(2, 40, 2), -1), (range(3, 60, 3), 1)])
def test_a_range_of_keys_is_its_keys_one_pair_at_a_time(pairs):
    # the same factorial map in the same order, so the same q, floats and logs
    by_range, by_key = exactnum.gamma_map(pairs), exactnum.gamma_map(_expanded(pairs))
    assert (by_range._parts[0], list(by_range._parts[1].items())) == (by_key._parts[0], list(by_key._parts[1].items()))
    assert (by_range.p, by_range.q, by_range.to_float(), by_range.log10()) == (
        by_key.p, by_key.q, by_key.to_float(), by_key.log10()
    )


def test_a_range_past_the_key_bound_is_refused_before_any_key_is_read():
    # a walk over the keys would fill a million-entry map before it reached
    # the first key past the bound
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            exactnum.gamma_map([(4, 1), (range(1, 10**9 + 1), -1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # an empty range, or a zero power, holds no Gamma to refuse
    for pairs in ([(range(10**9, 10**9), 1)], [(range(1, 10**9 + 1), 0)], [(range(5, 5), 3), (10**9, 0)]):
        assert exactnum.gamma_map(pairs)._parts == ONE._parts


def test_every_pair_is_checked_before_any_key_is_read():
    # a million keys within the bound come before the one past it, and the
    # first bad pair names the error
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            exactnum.gamma_map([(range(1, 10**6), 1), (range(2, 10**6, 2), -1), (10**9, 1), (0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    with pytest.raises(ValueError, match="positive integer keys and integer powers"):
        exactnum.gamma_map([(range(1, 10**6), 1), (0, 1), (10**9, 1)])


@pytest.mark.parametrize("pair", [(range(9, 1, -2), 1), (range(5, 1, -1), 1), (range(0, 5), 1), (range(1, 5), 1.0)])
def test_a_descending_range_a_range_from_zero_and_a_float_power_are_refused(pair):
    with pytest.raises(ValueError, match="positive integer keys and integer powers"):
        exactnum.gamma_map([pair])


def _str_without_digit_limit(value: ExactValue) -> str:
    """str(value) with the int<->str digit limit off, on an interpreter that has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# every read that builds q
_FIRST_BUILDS = (lambda v: v.q, lambda v: v == ONE, hash, _str_without_digit_limit)


def test_gamma_product_refuses_a_product_past_the_size_bound_before_building_it(monkeypatch):
    # Gamma(3)^k = 2^k is estimated at exactly k bits, so the bound is sharp here
    assert gamma_product({6: _MAX_PRODUCT_BITS}) == from_rational(2**_MAX_PRODUCT_BITS)
    assert gamma_product({6: -_MAX_PRODUCT_BITS}) == from_rational(Fraction(1, 2**_MAX_PRODUCT_BITS))

    def unreachable(bases):
        raise AssertionError("built the product")

    monkeypatch.setattr(exactnum, "_power_product", unreachable)
    # every key is within its own bound; the products are not, and each
    # first build refuses them
    for powers in ({6: _MAX_PRODUCT_BITS + 1}, {6: -_MAX_PRODUCT_BITS - 1}, {2 * 10**5: 200}):
        for build in _FIRST_BUILDS:
            with pytest.raises(ValueError, match="exact value too large"):
                build(gamma_product(powers))


def test_a_value_made_by_arithmetic_past_the_size_bound_is_refused_at_its_first_build(monkeypatch):
    # Gamma(10^5)^1000 is the refused gamma_product({2 * 10**5: 1000}) made
    # from a Gamma within the bound
    def unreachable(bases):
        raise AssertionError("built the product")

    monkeypatch.setattr(exactnum, "_power_product", unreachable)
    for make in (lambda: gamma_exact(10**5) ** 1000, lambda: gamma_exact(10**5) * gamma_exact(10**5) ** 999):
        for build in _FIRST_BUILDS:
            with pytest.raises(ValueError, match="exact value too large"):
                build(make())


# -- every closed form against the per-factor loops -------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 8, 50, 120])
@pytest.mark.parametrize("field", ["complex", "real"])
def test_volume_and_edges_match_per_factor_loops(n, field):
    assert vol_mixed(StateSpace(n, field)) == _vol_mixed(n, field)
    # every k at small n: the flag route at k = 0 in both fields (the real
    # volume, and the complex one that the direct formula gives), and at
    # k = n - 1, where C_1 = 1 brings no pairs
    for k in range(n) if n <= 8 else (1, n - 1):
        assert vol_edge(StateSpace(n, field), k) == _vol_edge(n, field, k)


@pytest.mark.parametrize("n", [1, 2, 3, 50, 120])
@pytest.mark.parametrize(
    "alpha,beta", [(Fraction(1), 2), (Fraction(3, 2), 2), (Fraction(1), 1), (Fraction(1, 2), 1)]
)
def test_c_norm_matches_per_factor_loop(n, alpha, beta):
    params = EnsembleParams(n, alpha, beta)
    assert laguerre_integral(params) == _laguerre(n, alpha, beta)
    assert c_norm(params) == _c_norm(n, alpha, beta)


def test_each_closed_form_is_one_gamma_map(monkeypatch):
    # each joins its factors' pairs into one map, then takes one square root
    calls = []
    original = exactnum.gamma_map

    def counted(pairs):
        calls.append(pairs)
        return original(pairs)

    for module in (exactnum, constants, groups, mixedstates):  # each name a call may go through
        monkeypatch.setattr(module, "gamma_map", counted, raising=False)
    forms = {}
    for field in ("complex", "real"):
        space = StateSpace(6, field)
        forms[f"vol_mixed {field}"] = partial(vol_mixed, space)
        forms[f"geometry {field}"] = partial(geometry, space)  # the volume over the D-ball's
        for k in range(1, 6):
            forms[f"vol_edge {field} {k}"] = partial(vol_edge, space, k)
    for family in Family:
        volume = vol_group if family in _GROUP_FAMILIES else vol_coset
        for conv in Convention:
            forms[f"{family.value} {conv.value}"] = partial(volume, CosetSpec(family, 6), conv)
    for alpha, beta in ((Fraction(1), 2), (Fraction(1, 2), 1)):
        params = EnsembleParams(6, alpha, beta)
        forms[f"c_norm {alpha} {beta}"] = partial(c_norm, params)
        forms[f"laguerre_integral {alpha} {beta}"] = partial(laguerre_integral, params)
    counts = {}
    for name, form in forms.items():
        calls.clear()
        form()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(forms, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 30])
@pytest.mark.parametrize("conv", list(Convention))
@pytest.mark.parametrize("family", list(Family))
def test_group_volumes_match_per_factor_loops(family, n, conv):
    volume = vol_group if family in _GROUP_FAMILIES else vol_coset
    assert volume(CosetSpec(family, n), conv) == _group(family, n, conv)


def test_the_size_bound_judges_the_answer_not_its_factors():
    # Fl(5000) alone has more than _MAX_PRODUCT_BITS bits in its denominator,
    # and so do O(10^5) and O(10^5 + 1); the answers built from them do not
    pure = vol_edge(StateSpace(5000), 4999)
    assert pure.log10() == -12331.82606241187
    assert pure.to_float() == 0.0
    assert vol_edge(StateSpace(5000, "real"), 4998).log10() == -13836.976040731775
    rp = vol_coset(CosetSpec(Family.REAL_PROJECTIVE, 10**5), Convention.B)
    assert rp.log10() == (sphere_volume(10**5) / 2).log10()
    # C_5000^(1, 1) has Gamma(12 502 500), past the key bound: that is the
    # refusal, not the size of the real flag volume met before it
    with pytest.raises(ValueError, match="^Gamma argument too large"):
        vol_mixed(StateSpace(5000, "real"))
    # C_1 = Gamma(alpha) / Gamma(alpha) is 1 even where Gamma(alpha) is past the key bound
    assert c_norm(EnsembleParams(1, 2**21, 2)) == ONE


def test_a_group_volume_past_the_size_bound_gives_its_log10():
    # U(N) under A is 2^(N(N+1)/2) pi^(N(N+1)/2) / prod_{k=1}^{N} Gamma(k); at
    # N = 10^4 its denominator has about 5 * 10^8 bits
    n = 10**4
    half = n * (n + 1) // 2
    ln_volume = math.fsum([half * math.log(2 * math.pi), *(-math.lgamma(k) for k in range(1, n + 1))])
    log10 = vol_group(CosetSpec(Family.UNITARY, n)).log10()
    assert log10 == pytest.approx(ln_volume / math.log(10), rel=1e-12)
