"""The contract shared by the package's immutable records."""

import operator
import re
from fractions import Fraction

import pytest

from hsgeom.constants import EnsembleParams
from hsgeom.exactnum import ONE, PI, ExactValue, Record, exact_sqrt
from hsgeom.groups import CosetSpec, Family
from hsgeom.mixedstates import GeometrySummary, ReferenceBody, ReferenceKind, StateSpace, reference_body
from hsgeom.sampling import make_rng
from hsgeom.verify import MCEstimate, check_hit_or_miss, check_purity, mc_norm_constant

# class, keyword fields, a second valid value for every field, repr of the
# first, and one refused input with its ValueError message (None: no checks)
RECORDS = [
    (
        ExactValue,
        dict(sign=1, q=Fraction(1, 2520), r=3, p=6),
        dict(sign=-1, q=Fraction(3, 7), r=5, p=-2),
        "ExactValue(sign=1, q=Fraction(1, 2520), r=3, p=6)",
        (dict(sign=1, q=Fraction(1, 2), r=12, p=0), "r must be a squarefree positive integer, got 12"),
    ),
    (
        EnsembleParams,
        dict(n=2, alpha=1, beta=2),
        dict(n=3, alpha=Fraction(3, 2), beta=1),
        "EnsembleParams(n=2, alpha=Fraction(1, 1), beta=2)",
        (dict(n=2, alpha=Fraction(1, 3), beta=2), "alpha must be a positive integer or half-integer, got 1/3"),
    ),
    (
        CosetSpec,
        dict(family=Family.UNITARY, n=3),
        dict(family=Family.COMPLEX_FLAG, n=4),
        "CosetSpec(family=<Family.UNITARY: 'U'>, n=3)",
        (dict(family=Family.UNITARY, n=0), "U(0): group size must be >= 1"),
    ),
    (
        StateSpace,
        dict(n=3, field="real"),
        dict(n=4, field="complex"),
        "StateSpace(n=3, field='real')",
        (dict(n=3, field="quaternionic"), "field must be 'complex' or 'real', got 'quaternionic'"),
    ),
    (
        GeometrySummary,
        dict(
            circumradius=ONE,
            inradius=PI,
            effective_radius=0.5,
            gamma=ONE,
            chi1_log10=-1.0,
            chi2_log10=-2.0,
            chi_log10=-3.0,
        ),
        dict(
            circumradius=PI,
            inradius=ONE,
            effective_radius=0.25,
            gamma=PI,
            chi1_log10=-1.5,
            chi2_log10=-2.5,
            chi_log10=-4.0,
        ),
        "GeometrySummary(circumradius=ExactValue(sign=1, q=Fraction(1, 1), r=1, p=0), "
        "inradius=ExactValue(sign=1, q=Fraction(1, 1), r=1, p=2), effective_radius=0.5, "
        "gamma=ExactValue(sign=1, q=Fraction(1, 1), r=1, p=0), chi1_log10=-1.0, "
        "chi2_log10=-2.0, chi_log10=-3.0)",
        None,
    ),
    (
        ReferenceBody,
        dict(kind=ReferenceKind.SPHERE, volume=PI, boundary_ratio=None),
        dict(kind=ReferenceKind.BALL, volume=ONE, boundary_ratio=ONE),
        "ReferenceBody(kind=<ReferenceKind.SPHERE: 'sphere'>, "
        "volume=ExactValue(sign=1, q=Fraction(1, 1), r=1, p=2), boundary_ratio=None)",
        None,
    ),
    (
        MCEstimate,
        dict(mean=1.0, stderr=0.5, n_samples=10, seed=3, chunks=2),
        dict(mean=2.0, stderr=0.25, n_samples=20, seed=4, chunks=5),
        "MCEstimate(mean=1.0, stderr=0.5, n_samples=10, seed=3, chunks=2)",
        None,
    ),
]


@pytest.mark.parametrize(
    "cls, fields, other, text, refused", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_record_contract(cls, fields, other, text, refused):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == text
    assert a != tuple(fields.values()) and a != object()
    assert a.__eq__(tuple(fields.values())) is NotImplemented
    # every field takes part in equality
    for name in fields:
        assert cls(**{**fields, name: other[name]}) != a, name
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(a, name, other[name])
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    if refused is not None:
        bad, message = refused
        with pytest.raises(ValueError) as exc:
            cls(**bad)
        assert str(exc.value) == message


@pytest.mark.parametrize("cls, fields", [(row[0], row[1]) for row in RECORDS if row[4] is None])
def test_a_record_takes_each_field_once_by_position_or_by_name(cls, fields):
    names, values = list(fields), list(fields.values())
    assert cls(*values[:2], **dict(list(fields.items())[2:])) == cls(**fields)
    listed = re.escape(f"{cls.__name__} takes each of its fields once: {', '.join(names)}")
    for args, kwargs in [
        (values[:-1], {}),  # one missing
        ([*values, 1], {}),  # one too many
        (values, {names[0]: values[0]}),  # one twice
        (values[1:], {names[0]: values[0]}),  # named before the positional ones
        (values[:-1], {"extra": 1}),  # unknown
    ]:
        with pytest.raises(TypeError, match=listed):
            cls(*args, **kwargs)


def test_record_defaults_and_canonical_fields():
    assert StateSpace(3).field == "complex"
    assert StateSpace(3) == StateSpace(n=3, field="complex")
    q = ExactValue(1, 2, 1, 0).q
    assert q == Fraction(2) and type(q) is Fraction
    alpha = EnsembleParams(2, 1, 2).alpha
    assert alpha == 1 and type(alpha) is Fraction
    assert ExactValue(1, Fraction(2, 4), 2.0, 1.0) == ExactValue(1, Fraction(1, 2), 2, 1)
    # q's numerator and denominator each decide equality
    assert ExactValue(1, Fraction(1, 3), 1, 0) != ExactValue(1, Fraction(2, 3), 1, 0)
    assert ExactValue(1, Fraction(1, 3), 1, 0) != ExactValue(1, Fraction(1, 2), 1, 0)


@pytest.mark.parametrize(
    "call, args, name",
    [
        (operator.pow, (PI, 0.5), "exponent"),
        (PI.pow_int, (2.9,), "exponent"),
        (operator.pow, (exact_sqrt(2), Fraction(1, 2)), "exponent"),
        (ExactValue, (1, 1, 2.5, 0), "r"),
        (ExactValue, (1, 1, 1, 2.5), "p"),
        (reference_body, ("cube", 2.5), "dimension"),
        (make_rng, (1.5,), "seed"),
        (make_rng, (1, 0.5), "stream"),
        (check_purity, (2, "complex", 1000, 1.5), "seed"),
        (mc_norm_constant, (1, 1.0, 2.0, 1000, 1.5), "seed"),
    ],
    ids=["pi**0.5", "pow_int(2.9)", "sqrt2**half", "r", "p", "dim", "seed", "stream", "purity", "norm"],
)
def test_non_integral_arguments_are_refused(call, args, name):
    # int() would truncate each of these into a wrong answer: pi^0.5 would be
    # 1, a cube of dimension 2.5 would have volume 1, seed 1.5 would draw
    # seed 1's stream and report seed=1.5
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(*args)


_X = object()  # the slot of the argument under test


@pytest.mark.parametrize(
    "call, args, name",
    [
        (StateSpace, (_X,), "n"),
        (CosetSpec, (Family("U"), _X), "n"),
        (EnsembleParams, (_X, 1, 2), "n"),
        (check_purity, (2, "complex", _X, 1), "n_samples"),
        (check_hit_or_miss, (2, _X, 1), "n_samples"),
    ],
    ids=["state-space", "coset", "ensemble", "purity", "hitmiss"],
)
def test_sizes_and_sample_counts_take_integral_values_only(call, args, name):
    # StateSpace(2.5).dim was 5.25, and the checks failed on range() with a
    # TypeError at 1000.0 samples; an integral float now gives the int's answer
    def at(x):
        return [x if a is _X else a for a in args]

    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 1000.5$"):
        call(*at(1000.5))
    assert call(*at(1000.0)) == call(*at(1000))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_in_the_contract():
    # the generic field store and key carry each record's equality, hash and
    # immutability, so a record missing from RECORDS would go untested
    assert set(_subclasses(Record)) == {row[0] for row in RECORDS}
