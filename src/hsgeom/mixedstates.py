"""Exact geometry of the convex body of density matrices under the HS metric.

The set of N x N density matrices (complex Hermitian or real symmetric,
positive semidefinite, unit trace) is a compact convex body of dimension
N^2 - 1, resp. N(N+1)/2 - 1.  This module computes, exactly:

  * its volume and the hyperarea of its boundary,
  * the volumes of the rank-deficient edges (states of rank N - k),
  * inscribed/circumscribed radii and the boundary-to-volume ratio gamma,

plus the volume-equivalent radius and the ball-ratio coefficients chi as
floats (evaluated in log space so large N does not overflow), and the same
gamma/volume data for the reference bodies: balls, cubes, regular
simplices, diamonds and spheres.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .constants import c_norm_pairs
from .exactnum import ONE, ExactValue, Record, as_integer, exact_sqrt, from_rational, gamma_exact, pairs_power
from .groups import Convention, Family, ball_pairs, ball_volume, flag_pairs, root_map, sphere_volume

__all__ = [
    "StateSpace",
    "GeometrySummary",
    "ReferenceKind",
    "ReferenceBody",
    "vol_mixed",
    "vol_edge",
    "geometry",
    "reference_body",
]

COMPLEX = "complex"
REAL = "real"


class StateSpace(Record):
    """State space of N x N density matrices over the complex or real field."""

    __slots__ = ("n", "field")

    def __init__(self, n: int, field: str = COMPLEX):
        n = as_integer(n, "n")
        super().__init__(n, field)
        if n < 2:
            raise ValueError(f"state space needs n >= 2, got {n}")
        if field not in (COMPLEX, REAL):
            raise ValueError(f"field must be '{COMPLEX}' or '{REAL}', got {field!r}")

    @property
    def dim(self) -> int:
        """Ambient (affine) dimension of the body."""
        if self.field == COMPLEX:
            return self.n**2 - 1
        return self.n * (self.n + 1) // 2 - 1


def vol_mixed(space: StateSpace) -> ExactValue:
    """Exact HS volume of the state space."""
    return vol_edge(space, 0)


def vol_edge(space: StateSpace, k: int) -> ExactValue:
    """Exact HS volume of the order-k edge: states of rank N - k.

    k = 0 is the full body, k = 1 its boundary hyperarea, k = N - 1 the set
    of pure states.
    """
    return root_map(*_edge_pairs(space, k))


def _edge_pairs(space: StateSpace, k: int) -> tuple[list, int, int]:
    """The order-k edge volume as ``root_map``'s (pairs, roots, radicand)."""
    n = space.n
    if not 0 <= k <= n - 1:
        raise ValueError(f"rank deficiency must be in [0, {n - 1}], got {k}")
    if space.field == COMPLEX and k == 0:
        # The complex body has a direct formula, cheaper than the flag route:
        # sqrt(N) (2 pi)^(N(N-1)/2) Gamma(1)...Gamma(N) / Gamma(N^2), with the
        # power of two taken in as Gamma(3) = 2 and that of pi as Gamma(1/2)^2
        half = n * (n - 1) // 2
        return [(range(2, 2 * n + 1, 2), 1), (2 * n * n, -1), (6, half), (1, 2 * half)], 0, n
    # sqrt(N-k)/(N-k)! * Vol_A[Fl(N)]/Vol_A[Fl(k)] / C_(N-k)^(alpha, beta), with
    # alpha = 1 + 2k, beta = 2 (complex) or alpha = 1 + k, beta = 1 (real): one
    # map of the factors' pairs, a divisor's powers negated
    if space.field == COMPLEX:
        flag_family, twice_alpha, beta = Family.COMPLEX_FLAG, 2 + 4 * k, 2
    else:
        flag_family, twice_alpha, beta = Family.REAL_FLAG, 2 + 2 * k, 1
    top, top_roots = flag_pairs(flag_family, n, Convention.A)
    bottom, bottom_roots = flag_pairs(flag_family, k, Convention.A)
    pairs = [
        *top,
        *pairs_power(bottom, -1),
        (2 * (n - k) + 2, -1),  # (N-k)! = Gamma(N-k+1)
        *pairs_power(c_norm_pairs(n - k, twice_alpha, beta), -1),
    ]
    return pairs, top_roots - bottom_roots, n - k


class GeometrySummary(Record):
    """Radii and shape coefficients of a state space.

    ``circumradius`` R and ``inradius`` r = R/(N-1) are exact;
    ``effective_radius`` is the radius of the ball with the same volume.
    ``gamma`` is the exact boundary-area/volume ratio.  chi1 = (r/rho)^D and
    chi2 = (rho/R)^D compare against inscribed/circumscribed balls; their
    plain-float forms underflow for large N, so the log10 forms are also
    provided.
    """

    __slots__ = (
        "circumradius",
        "inradius",
        "effective_radius",
        "gamma",
        "chi1_log10",
        "chi2_log10",
        "chi_log10",
    )

    @property
    def chi1(self) -> float:
        return 10.0**self.chi1_log10

    @property
    def chi2(self) -> float:
        return 10.0**self.chi2_log10

    @property
    def chi(self) -> float:
        return 10.0**self.chi_log10


def geometry(space: StateSpace) -> GeometrySummary:
    """Radii, gamma and chi coefficients of the state space."""
    n, d = space.n, space.dim
    # the volume over the unit D-ball's, one map, first: its Gamma key check
    # refuses a large n before sqrt((n-1)/n) trial-divides n - 1 and n, up
    # to sqrt(n); from 16 keys on (n >= 16 complex, n >= 25 real) its log10 is
    # summed over its Gamma runs, with no prime found
    pairs, roots, radicand = _edge_pairs(space, 0)
    log_rho = root_map([*pairs, *pairs_power(ball_pairs(d), -1)], roots, radicand).log10() / d
    circum = exact_sqrt(Fraction(n - 1, n))
    inscribed = circum / (n - 1)
    # Every boundary point lies on a hyperplane tangent to the insphere, so
    # the boundary area is D/r times the volume (Zyczkowski & Sommers 2003).
    gamma = d / inscribed
    chi1_log10 = d * (inscribed.log10() - log_rho)
    chi2_log10 = d * (log_rho - circum.log10())
    return GeometrySummary(
        circumradius=circum,
        inradius=inscribed,
        effective_radius=10.0**log_rho,
        gamma=gamma,
        chi1_log10=chi1_log10,
        chi2_log10=chi2_log10,
        chi_log10=chi1_log10 + chi2_log10,
    )


class ReferenceKind(enum.Enum):
    BALL = "ball"
    CUBE = "cube"
    SIMPLEX = "simplex"
    DIAMOND = "diamond"
    SPHERE = "sphere"


class ReferenceBody(Record):
    """Volume and boundary ratio of a reference body; spheres have no ratio."""

    __slots__ = ("kind", "volume", "boundary_ratio")

    @property
    def gamma(self) -> ExactValue:
        if self.boundary_ratio is None:
            raise ValueError("a sphere is a boundary itself and has no area/volume ratio")
        return self.boundary_ratio


def reference_body(kind: ReferenceKind | str, dim: int) -> ReferenceBody:
    """Exact volume and gamma of a reference body of the given dimension.

    The cube, simplex and diamond have unit edge, the ball and sphere unit
    radius.
    """
    kind = ReferenceKind(kind)
    dim = as_integer(dim, "dimension")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if kind is ReferenceKind.BALL:
        return ReferenceBody(kind, ball_volume(dim), from_rational(dim))
    if kind is ReferenceKind.CUBE:
        return ReferenceBody(kind, ONE, from_rational(2 * dim))
    if kind is ReferenceKind.SPHERE:
        return ReferenceBody(kind, sphere_volume(dim), None)
    # Regular simplex of unit edge: sqrt(D+1) / (sqrt(2^D) D!); a diamond is
    # two simplices glued along a face, with 2D instead of D+1 boundary faces.
    # D! = Gamma(D + 1) comes first, so a D past its bound is refused at once.
    simplex_vol = 1 / gamma_exact(dim + 1) * exact_sqrt(Fraction(dim + 1, 2**dim))
    slope = exact_sqrt(Fraction(2 * dim, dim + 1))
    if kind is ReferenceKind.SIMPLEX:
        return ReferenceBody(kind, simplex_vol, slope * (dim * (dim + 1)))
    return ReferenceBody(kind, 2 * simplex_vol, slope * dim**2)
