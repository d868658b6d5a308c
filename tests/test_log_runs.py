"""The log10 route through Gamma runs (``ExactValue._log_from_runs``, ``hsgeom._barnes``) against the blocks."""

from fractions import Fraction
from math import factorial, prod

import mpmath
import pytest

from hsgeom import _barnes, exactnum
from hsgeom.constants import EnsembleParams, c_norm
from hsgeom.exactnum import _FIX, _fixed_ln, gamma_product, pairs_power
from hsgeom.groups import CosetSpec, Family, ball_pairs, ball_volume, root_map, vol_group
from hsgeom.mixedstates import StateSpace, _edge_pairs, geometry, vol_edge, vol_mixed


def _ratio(n, field):
    # geometry's volume over the unit D-ball's
    space = StateSpace(n, field)
    pairs, roots, radicand = _edge_pairs(space, 0)
    return root_map([*pairs, *pairs_power(ball_pairs(space.dim), -1)], roots, radicand)


_CLOSED_FORMS = {
    "vol_mixed-complex": lambda n: vol_mixed(StateSpace(n)),
    "vol_mixed-real": lambda n: vol_mixed(StateSpace(n, "real")),
    "vol_edge1-complex": lambda n: vol_edge(StateSpace(n), 1),
    "vol_edge1-real": lambda n: vol_edge(StateSpace(n, "real"), 1),
    "geometry_ratio-complex": lambda n: _ratio(n, "complex"),
    "geometry_ratio-real": lambda n: _ratio(n, "real"),
    "ball_volume": ball_volume,
    "U": lambda n: vol_group(CosetSpec(Family.UNITARY, n)),
    "O": lambda n: vol_group(CosetSpec(Family.ORTHOGONAL, n)),
    "c_norm-beta1": lambda n: c_norm(EnsembleParams(n, Fraction(3, 2), 1)),
    "c_norm-beta2": lambda n: c_norm(EnsembleParams(n, 1, 2)),
}
# every n to 200, then every 67th to 1024, past which geometry is refused
_SIZES = [*range(2, 201), *range(211, 1024, 67), 1024]


def _log10_by_route(make, n, monkeypatch, keys):
    # a fresh value's log10 with the rule forced: 0 keys take the runs, more than any map the blocks
    monkeypatch.setattr(exactnum, "_RUN_KEYS", keys)
    return make(n).log10()


@pytest.fixture
def run_answers(monkeypatch):
    """The results of ``_log_from_runs``, None for a value sent to the blocks."""
    answers = []
    run_route = exactnum.ExactValue._log_from_runs

    def counted(self, cofactor, runs):
        answers.append(run_route(self, cofactor, runs))
        return answers[-1]

    monkeypatch.setattr(exactnum.ExactValue, "_log_from_runs", counted)
    return answers


@pytest.mark.parametrize("name", list(_CLOSED_FORMS))
def test_the_runs_give_the_blocks_log10_bit_for_bit(monkeypatch, run_answers, name):
    make = _CLOSED_FORMS[name]
    for n in _SIZES:
        blocks = _log10_by_route(make, n, monkeypatch, 1 << 30)
        assert run_answers == []
        runs = _log10_by_route(make, n, monkeypatch, 0)
        assert runs == blocks, n
        assert run_answers.pop() == runs, n  # the runs answered: no value of these falls back


def test_an_allowance_scaled_by_2_to_the_100_sends_every_value_to_the_blocks(monkeypatch, run_answers):
    cases = [(make, n) for make in _CLOSED_FORMS.values() for n in (2, 17, 60, 200)]
    blocks = [_log10_by_route(make, n, monkeypatch, 1 << 30) for make, n in cases]
    monkeypatch.setattr(exactnum, "_RUN_EPS", exactnum._RUN_EPS << 100)
    assert [_log10_by_route(make, n, monkeypatch, 0) for make, n in cases] == blocks
    assert run_answers == [None] * len(cases)


def test_a_value_exactly_one_with_a_map_gives_log10_zero(monkeypatch, run_answers):
    monkeypatch.setattr(exactnum, "_RUN_KEYS", 0)
    one = gamma_product({8: 1}) / 6  # Gamma(4) / 6
    assert one._parts[1] == {3: 1}
    assert one.log10() == 0.0
    assert run_answers == [None]  # |L| is within the allowance: the blocks decide


@pytest.mark.parametrize("field", ["complex", "real"])
def test_geometry_at_200_reads_no_blocks(monkeypatch, field):
    calls = []
    for name in ("_prime_blocks", "_factorial_blocks"):
        find = getattr(exactnum, name)
        monkeypatch.setattr(exactnum, name, lambda fact, find=find, name=name: calls.append(name) or find(fact))
    geometry(StateSpace(200, field))
    assert calls == []
    monkeypatch.setattr(exactnum, "_RUN_KEYS", 1 << 30)  # the wrapper counts: the blocks find primes
    geometry(StateSpace(200, field))
    assert calls == ["_prime_blocks"]


def test_zeta_prime_at_minus_one_agrees_at_two_sizes():
    # each errs by under 2^33 units (``_barnes._error``); 2^-192 units
    at_40, at_60 = _barnes.zeta_prime_minus_one(40), _barnes.zeta_prime_minus_one(60)
    assert abs(at_40 - at_60) < 1 << 34
    assert at_40 == _barnes._ZETA
    with mpmath.workdps(70):
        reference = mpmath.zeta(-1, derivative=1)
        assert abs(mpmath.mpf(at_40) / 2**_FIX - reference) < mpmath.mpf(2) ** -155


def _ln_exact(x: int, s: int = 0) -> int:
    return _fixed_ln(x, s) if x > 1 or s else 0


@pytest.mark.parametrize("n", range(2, 61))
def test_barnes_g_and_gamma_readings_are_within_their_bound_of_exact_products(n):
    # ln G(n + 1) = ln(0! 1! ... (n-1)!): series from n = 32 on, exact below
    m = 2 * n + 2
    superfactorial = _ln_exact(prod(map(factorial, range(n))))
    assert abs(_barnes.ln_g(m) - superfactorial) <= _barnes._error(m) <= exactnum._RUN_EPS // 2
    # Gamma(n) = (n-1)! and Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
    assert abs(_barnes.ln_gamma(2 * n) - _ln_exact(factorial(n - 1))) <= _barnes._error(2 * n)
    half = _ln_exact(factorial(2 * n)) - _ln_exact(factorial(n), 2 * n) + (_barnes._LN_PI >> 1)
    assert abs(_barnes.ln_gamma(2 * n + 1) - half) <= _barnes._error(2 * n + 1)
    # an odd run: Gamma(1/2) Gamma(3/2) ... Gamma(n - 1/2) = G(n + 1/2) / G(1/2)
    odd_run = sum(_ln_exact(factorial(2 * j)) - _ln_exact(factorial(j), 2 * j) for j in range(n))
    odd_run += n * _barnes._LN_PI >> 1
    assert abs(_barnes.ln_g(2 * n + 1) - _barnes.ln_g(1) - odd_run) <= 2 * _barnes._error(2 * n + 1)


def test_the_bernoulli_numbers_from_tangent_numbers():
    assert [Fraction(*b) for b in _barnes._bernoulli(7)] == [
        Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
        Fraction(-691, 2730), Fraction(7, 6),
    ]


@pytest.mark.parametrize(
    "runs",
    [
        [(range(1, 200), 3)],  # one step-1 run: both parities
        [(range(2, 401, 2), 1), (range(3, 400, 2), -2)],  # even and odd step-2 runs
        [(range(40, 90, 2), 1), (range(90, 140, 2), 1), (range(40, 140, 2), -1)],  # runs that cancel
        [(range(5, 300, 7), 2), ((150,), -1)],  # a step past 2 and a lone key: key by key
    ],
)
def test_run_sums_match_key_by_key_sums(runs):
    total, err, odd = _barnes.ln_runs(runs)
    keys = [(m, k) for run, k in runs for m in run]
    assert odd == sum(k for m, k in keys if m % 2)
    assert abs(total - sum(k * _barnes.ln_gamma(m) for m, k in keys)) <= err + sum(
        abs(k) * _barnes._error(m) for m, k in keys
    )
