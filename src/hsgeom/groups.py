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

from .exactnum import ExactValue, Record, as_integer, exact_sqrt, gamma_map, pairs_power

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
        super().__init__(family, n)
        if family in _GROUP_FAMILIES:
            if n < 1:
                raise ValueError(f"{family.value}({n}): group size must be >= 1")
        elif n < 0:
            raise ValueError(f"{family.value}({n}): dimension must be >= 0")


def sphere_volume(k: int) -> ExactValue:
    """Volume of the unit k-sphere S^k in R^(k+1): 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    if k < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {k}")
    return 2 * gamma_map([(1, k + 1), (k + 1, -1)])


def ball_pairs(k: int) -> list:
    """The Gamma pairs of the unit k-ball's volume (see ``ball_volume``)."""
    if k < 0:
        raise ValueError(f"ball dimension must be >= 0, got {k}")
    return [(1, k), (k + 2, -1)]


def ball_volume(k: int) -> ExactValue:
    """Volume of the unit k-ball B^k: pi^(k/2) / Gamma(k/2 + 1)."""
    return gamma_map(ball_pairs(k))


# Integer powers of two go into the Gamma maps as Gamma(3) = 2, keyed 6, and
# only an odd power of sqrt(2) is a factor of its own: 2^k as a value of its
# own made the real-field edge volumes up to a third slower.  Powers of pi go
# in as Gamma(1/2) = sqrt(pi), keyed 1, which adds no factorial.  Each factor
# below gives its Gamma pairs and the odd power of sqrt(2) left over, and a
# closed form joins its factors' pairs into one map (``root_map``).


def root_map(pairs, roots: int, radicand=1) -> ExactValue:
    """gamma_map(pairs) * sqrt(2)^roots * sqrt(radicand), from one map and one square root.

    The square root is taken after the map, so a Gamma key past the bound
    is refused before the radicand is trial-divided.
    """
    value = gamma_map([*pairs, (6, roots // 2)])
    radicand *= 2 ** (roots % 2)
    return value if radicand == 1 else value * exact_sqrt(radicand)


def _sphere_pairs(n: int, step: int, roots: int) -> tuple[list, int]:
    """sqrt(2)^roots * prod_{k=1..n} 2 pi^(step k / 2) / Gamma(step k / 2), as (pairs, odd roots).

    With step 2 this is U(n) under B, a product of the unit spheres
    S^1, S^3, ..., S^(2n-1); with step 1 it is O(n), of S^0 ... S^(n-1).
    """
    return [(1, step * n * (n + 1) // 2), (6, n + roots // 2), (range(step, step * n + 1, step), -1)], roots % 2


def _unitary_pairs(n: int, conv: Convention) -> tuple[list, int]:
    # a_X Vol_B[U(n)], where a_A = 2^(n(n-1)/2), a_B = 1 and a_C = 2^(-n/2)
    return _sphere_pairs(n, 2, n * (n - 1) if conv is Convention.A else -n if conv is Convention.C else 0)


def _orthogonal_pairs(n: int, conv: Convention) -> tuple[list, int]:
    # B (= C): the product of unit spheres; A: an extra sqrt(2) per
    # off-diagonal entry, 2^(n(n-1)/4) in total
    return _sphere_pairs(n, 1, n * (n - 1) // 2 if conv is Convention.A else 0)


def flag_pairs(family: Family, n: int, conv: Convention) -> tuple[list, int]:
    """U(n) / U(1)^n (FlC) or O(n) / O(1)^n (FlR), as (pairs, odd roots); sizes 0 and 1 both give 1."""
    group = _unitary_pairs if family is Family.COMPLEX_FLAG else _orthogonal_pairs
    (pairs, roots), (unit, unit_roots) = group(n, conv), group(1, conv)
    return pairs + pairs_power(unit, -n), roots - n * unit_roots


def vol_group(spec: CosetSpec, conv: Convention = Convention.A) -> ExactValue:
    """Exact volume of U(N), SU(N), O(N) or SO(N) under the given convention."""
    n, family = spec.n, spec.family
    if family is Family.UNITARY:
        return root_map(*_unitary_pairs(n, conv))
    if family is Family.SPECIAL_UNITARY:
        # SU(N) is not U(N)/U(1): the determinant constraint stretches the
        # quotient by sqrt(N)
        (pairs, roots), (unit, unit_roots) = _unitary_pairs(n, conv), _unitary_pairs(1, conv)
        return root_map(pairs + pairs_power(unit, -1), roots - unit_roots, n)
    if family is Family.ORTHOGONAL:
        return root_map(*_orthogonal_pairs(n, conv))
    if family is Family.SPECIAL_ORTHOGONAL:
        # O(N) / 2, the 2 as Gamma(3)
        pairs, roots = _orthogonal_pairs(n, conv)
        return root_map([*pairs, (6, -1)], roots)
    raise ValueError(f"{family.value} is not a group family; use vol_coset")


def vol_coset(spec: CosetSpec, conv: Convention = Convention.A) -> ExactValue:
    """Exact volume of CP^k, RP^k, or a complex/real flag manifold."""
    n, family = spec.n, spec.family
    if family in _GROUP_FAMILIES:
        raise ValueError(f"{family.value} is a group family; use vol_group")
    if family is Family.COMPLEX_PROJECTIVE:
        # pi^k / k!, times 2^k under A
        return gamma_map([(2 * n + 2, -1), (6, n if conv is Convention.A else 0), (1, 2 * n)])
    if family is Family.REAL_PROJECTIVE:
        # O(k+1) / (O(1) x O(k)) = Vol(S^k)/2 = pi^((k+1)/2) / Gamma((k+1)/2),
        # times sqrt(2)^k under A
        return root_map([(n + 1, -1), (1, n + 1)], n if conv is Convention.A else 0)
    return root_map(*flag_pairs(family, n, conv))
