"""Exact volumes of compact matrix groups and their quotients.

Covers U(N), SU(N), O(N), SO(N), complex/real projective spaces and flag
manifolds under the three common scalings of the invariant metric:

    A -- off-diagonal prefactor 2, diagonal 1 ("unit trace" scaling),
    B -- all prefactors 1 (volumes become products of unit-sphere volumes),
    C -- half the trace form (diagonal prefactor 1/2).

Conventions are carried as data so cross-convention identities stay
testable.  For the orthogonal family the metric has no diagonal terms and
B and C coincide.
"""

from __future__ import annotations

import enum
from collections import Counter
from fractions import Fraction

from .exactnum import ExactValue, ONE, Record, as_integer, exact_sqrt, gamma_exact, gamma_product

__all__ = [
    "Convention",
    "Family",
    "CosetSpec",
    "sphere_volume",
    "ball_volume",
    "vol_group",
    "vol_coset",
]


class Convention(enum.Enum):
    A = "A"
    B = "B"
    C = "C"


class Family(enum.Enum):
    UNITARY = "U"
    SPECIAL_UNITARY = "SU"
    ORTHOGONAL = "O"
    SPECIAL_ORTHOGONAL = "SO"
    COMPLEX_PROJECTIVE = "CP"
    REAL_PROJECTIVE = "RP"
    COMPLEX_FLAG = "FlC"
    REAL_FLAG = "FlR"


_GROUP_FAMILIES = frozenset(
    {Family.UNITARY, Family.SPECIAL_UNITARY, Family.ORTHOGONAL, Family.SPECIAL_ORTHOGONAL}
)


class CosetSpec(Record):
    """A group or coset family plus its size (group order N, or dimension k)."""

    __slots__ = ("family", "n")

    def __init__(self, family: Family, n: int):
        n = as_integer(n, "n")
        self._set(family, n)
        if family in _GROUP_FAMILIES:
            if n < 1:
                raise ValueError(f"{family.value}({n}): group size must be >= 1")
        elif n < 0:
            raise ValueError(f"{family.value}({n}): dimension must be >= 0")


def sphere_volume(k: int) -> ExactValue:
    """Volume of the unit k-sphere S^k in R^(k+1): 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    if k < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {k}")
    return 2 * ExactValue(1, Fraction(1), 1, k + 1) / gamma_exact(Fraction(k + 1, 2))


def ball_volume(k: int) -> ExactValue:
    """Volume of the unit k-ball B^k: pi^(k/2) / Gamma(k/2 + 1)."""
    if k < 0:
        raise ValueError(f"ball dimension must be >= 0, got {k}")
    return ExactValue(1, Fraction(1), 1, k) / gamma_exact(Fraction(k, 2) + 1)


# Integer powers of two go into the Gamma powers as Gamma(3) = 2, keyed 6,
# so that they join the one big product instead of multiplying it afterwards.


def _sqrt_two_power(k: int, powers: Counter) -> ExactValue:
    """sqrt(2)^k: 2^(k // 2) goes into ``powers``, and the sqrt(2)^(k % 2) left is returned."""
    powers[6] += k // 2
    return exact_sqrt(2) if k % 2 else ONE


def _unitary(n: int, conv: Convention) -> tuple[ExactValue, Counter]:
    # a_X * 2^n * pi^(n(n+1)/2) / (Gamma(1) Gamma(2) ... Gamma(n)), where
    # a_A = 2^(n(n-1)/2), a_B = 1 and a_C = 2^(-n/2)
    powers = Counter({2 * k: -1 for k in range(1, n + 1)})
    powers[6] += n + (n * (n - 1) // 2 if conv is Convention.A else 0)
    scale = _sqrt_two_power(-n, powers) if conv is Convention.C else ONE
    return scale * ExactValue(1, Fraction(1), 1, n * (n + 1)), powers


def _orthogonal(n: int, conv: Convention) -> tuple[ExactValue, Counter]:
    # B (= C): product of unit-sphere volumes S^0 ... S^(n-1), each
    # 2 pi^(k/2) / Gamma(k/2); A: extra sqrt(2) per off-diagonal entry,
    # 2^(n(n-1)/4) in total.
    powers = Counter({k: -1 for k in range(1, n + 1)})
    powers[6] += n
    prefactor = ExactValue(1, Fraction(1), 1, n * (n + 1) // 2)
    if conv is Convention.A:
        prefactor = prefactor * _sqrt_two_power(n * (n - 1) // 2, powers)
    return prefactor, powers


def _divide(top, bottom, times: int = 1) -> tuple[ExactValue, Counter]:
    """(prefactor, powers) of top / bottom^times, for pairs of that form."""
    (prefactor, powers), (low, low_powers) = top, bottom
    powers.subtract({m: times * k for m, k in low_powers.items()})
    return prefactor / low.pow_int(times), powers


def volume_factors(spec: CosetSpec, conv: Convention = Convention.A) -> tuple[ExactValue, Counter]:
    """Volume of any group or coset family as ``(prefactor, powers)``.

    The volume is ``prefactor * gamma_product(powers)``.  Callers that
    multiply or divide volumes by other Gamma products merge the powers
    first, so the big factorial products are evaluated once.
    """
    n, family = spec.n, spec.family
    if family is Family.UNITARY:
        return _unitary(n, conv)
    if family is Family.SPECIAL_UNITARY:
        # SU(N) is not U(N)/U(1): the determinant constraint stretches the
        # quotient by sqrt(N).
        prefactor, powers = _divide(_unitary(n, conv), _unitary(1, conv))
        return exact_sqrt(n) * prefactor, powers
    if family is Family.ORTHOGONAL:
        return _orthogonal(n, conv)
    if family is Family.SPECIAL_ORTHOGONAL:
        prefactor, powers = _orthogonal(n, conv)
        return prefactor / 2, powers
    if family is Family.COMPLEX_PROJECTIVE:
        powers = Counter({2 * n + 2: -1})
        if conv is Convention.A:
            powers[6] += n
        return ExactValue(1, Fraction(1), 1, 2 * n), powers
    if family is Family.REAL_PROJECTIVE:
        # O(k+1) / (O(1) x O(k)); under B this is Vol(S^k)/2.
        prefactor, powers = _divide(_orthogonal(n + 1, conv), _orthogonal(n, conv))
        return prefactor / 2, powers
    if family is Family.COMPLEX_FLAG:
        # U(N) / U(1)^N; sizes 0 and 1 both give volume 1.
        return _divide(_unitary(n, conv), _unitary(1, conv), n)
    # REAL_FLAG: O(N) / O(1)^N with Vol[O(1)] = 2.
    return _divide(_orthogonal(n, conv), _orthogonal(1, conv), n)


def vol_group(spec: CosetSpec, conv: Convention = Convention.A) -> ExactValue:
    """Exact volume of U(N), SU(N), O(N) or SO(N) under the given convention."""
    if spec.family not in _GROUP_FAMILIES:
        raise ValueError(f"{spec.family.value} is not a group family; use vol_coset")
    prefactor, powers = volume_factors(spec, conv)
    return prefactor * gamma_product(powers)


def vol_coset(spec: CosetSpec, conv: Convention = Convention.A) -> ExactValue:
    """Exact volume of CP^k, RP^k, or a complex/real flag manifold."""
    if spec.family in _GROUP_FAMILIES:
        raise ValueError(f"{spec.family.value} is a group family; use vol_group")
    prefactor, powers = volume_factors(spec, conv)
    return prefactor * gamma_product(powers)
