"""Exact queries: seeded generation, evaluation as the CLI does it, and an independent judge.

A query is one of the six exact subcommands with its arguments.  It can be
turned into CLI arguments (for ``cli_oneshot``) or evaluated in process
through the public API and rendered the way the CLI renders every exact
value: ``str``, ``to_float`` and ``log10``.

The judge does not trust the package.  It re-parses every rendered string,
compares every ``log10`` with its own log-space evaluation of the closed
forms (``math.lgamma`` only), and at small n compares the strings with the
golden values pinned by the acceptance tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hsgeom import constants, exactnum, groups, mixedstates
from hsgeom.exactnum import ExactValue

from core import Query, state_dim

# -- evaluation ---------------------------------------------------------------


def evaluate(query: Query, tr) -> list[tuple[str, object]]:
    """Compute a query through the public API; returns (quantity, value) pairs.

    Values are ExactValue, or float for the quantities the CLI reports as
    floats (log10 for the chi coefficients).
    """
    o = query.opts
    if query.kind in ("volume", "edge", "geometry"):
        space = mixedstates.StateSpace(int(o["n"]), o["field"])
        if query.kind == "volume":
            return [("volume", tr.call(mixedstates.vol_mixed, space))]
        if query.kind == "edge":
            return [("edge", tr.call(mixedstates.vol_edge, space, int(o["rank-deficiency"])))]
        g = tr.call(mixedstates.geometry, space)
        return [
            ("radius_circumscribed", g.circumradius),
            ("radius_inscribed", g.inradius),
            ("radius_effective_log10", math.log10(g.effective_radius)),
            ("gamma", g.gamma),
            ("chi1_log10", g.chi1_log10),
            ("chi2_log10", g.chi2_log10),
            ("chi_log10", g.chi_log10),
        ]
    if query.kind == "reference":
        body = tr.call(mixedstates.reference_body, o["body"], int(o["dim"]))
        out = [("reference_volume", body.volume)]
        if body.boundary_ratio is not None:
            out.append(("reference_gamma", body.gamma))
        return out
    if query.kind == "group":
        family = groups.Family(o["family"])
        spec = groups.CosetSpec(family, int(o["n"]))
        conv = groups.Convention(o["convention"])
        fn = groups.vol_group if o["family"] in ("U", "SU", "O", "SO") else groups.vol_coset
        return [("group_volume", tr.call(fn, spec, conv))]
    params = constants.EnsembleParams(int(o["n"]), Fraction(o["alpha"]), int(o["beta"]))
    return [
        ("laguerre_integral", tr.call(constants.laguerre_integral, params)),
        ("c_norm", tr.call(constants.c_norm, params)),
    ]


def render(value: ExactValue, tr) -> tuple[str, float, float | None]:
    """Render one exact value as the CLI does: canonical string, float and log10."""
    text = tr.call(str, value, name="exactnum.str")
    number = tr.call(value.to_float, name="exactnum.to_float")
    log10 = tr.call(value.log10, name="exactnum.log10") if value.sign > 0 else None
    return text, number, log10


def digits(value: ExactValue) -> int:
    """Exact count of decimal digits of q (numerator plus denominator), without str()."""
    total = 0
    for part in (value.q.numerator, value.q.denominator):
        k = max(1, int(part.bit_length() * 0.30102999566398120))
        # the estimate is off by at most one either way; settle it exactly
        if 10 ** (k - 1) > part:
            k -= 1
        elif 10**k <= part:
            k += 1
        total += k
    return total


# -- independent closed forms in log space -------------------------------------

_LN2, _LNPI, _LN10 = math.log(2), math.log(math.pi), math.log(10)
lg = math.lgamma


def _ln_unitary(n: int, conv: str) -> float:
    if n == 0:
        return 0.0
    scale = {"A": n * (n - 1) / 2 * _LN2, "B": 0.0, "C": -n / 2 * _LN2}[conv]
    return scale + n * _LN2 + n * (n + 1) / 2 * _LNPI - sum(lg(k + 1) for k in range(n))


def _ln_sphere(k: int) -> float:
    return _LN2 + (k + 1) / 2 * _LNPI - lg((k + 1) / 2)


def _ln_ball(k: int) -> float:
    return k / 2 * _LNPI - lg(k / 2 + 1)


def _ln_orthogonal(n: int, conv: str) -> float:
    if n == 0:
        return 0.0
    out = sum(_ln_sphere(k - 1) for k in range(1, n + 1))
    return out + (n * (n - 1) / 4 * _LN2 if conv == "A" else 0.0)


def ln_group(family: str, n: int, conv: str) -> float:
    if family == "U":
        return _ln_unitary(n, conv)
    if family == "SU":
        return math.log(n) / 2 + _ln_unitary(n, conv) - _ln_unitary(1, conv)
    if family == "O":
        return _ln_orthogonal(n, conv)
    if family == "SO":
        return _ln_orthogonal(n, conv) - _LN2
    if family == "CP":
        return (n * _LN2 if conv == "A" else 0.0) + n * _LNPI - lg(n + 1)
    if family == "RP":
        return _ln_orthogonal(n + 1, conv) - _LN2 - _ln_orthogonal(n, conv)
    if family == "FlC":
        return _ln_unitary(n, conv) - n * _ln_unitary(1, conv)
    return _ln_orthogonal(n, conv) - n * _LN2  # FlR


def ln_laguerre(n: int, alpha: float, beta: int) -> float:
    out = sum(lg(1 + j * beta / 2) + lg(alpha + (j - 1) * beta / 2) for j in range(1, n + 1))
    return out - n * lg(1 + beta / 2)


def ln_c_norm(n: int, alpha: float, beta: int) -> float:
    return lg(alpha * n + beta * n * (n - 1) / 2) - ln_laguerre(n, alpha, beta)


def ln_volume(n: int, field: str) -> float:
    if field == "complex":
        # Zyczkowski & Sommers (2003): sqrt(N) (2 pi)^(N(N-1)/2) Gamma(1)...Gamma(N) / Gamma(N^2)
        return (
            math.log(n) / 2
            + n * (n - 1) / 2 * (_LN2 + _LNPI)
            + sum(lg(j) for j in range(1, n + 1))
            - lg(n * n)
        )
    return math.log(n) / 2 + ln_group("FlR", n, "A") - lg(n + 1) - ln_c_norm(n, 1, 1)


def ln_edge(n: int, field: str, k: int) -> float:
    family, alpha, beta = ("FlC", 1 + 2 * k, 2) if field == "complex" else ("FlR", 1 + k, 1)
    flags = ln_group(family, n, "A") - ln_group(family, k, "A")
    return math.log(n - k) / 2 + flags - lg(n - k + 1) - ln_c_norm(n - k, alpha, beta)


def ln_reference(body: str, d: int) -> tuple[float, float | None]:
    """(ln volume, ln gamma) of the unit reference body of dimension d."""
    if body == "ball":
        return _ln_ball(d), math.log(d)
    if body == "cube":
        return 0.0, math.log(2 * d)
    if body == "sphere":
        return _ln_sphere(d), None
    simplex = math.log(d + 1) / 2 - d / 2 * _LN2 - lg(d + 1)
    slope = math.log(2 * d / (d + 1)) / 2
    if body == "simplex":
        return simplex, slope + math.log(d * (d + 1))
    return _LN2 + simplex, slope + 2 * math.log(d)


def expected_log10(query: Query) -> dict[str, float]:
    """log10 of every quantity the query answers, from the closed forms above."""
    o = query.opts
    if query.kind in ("volume", "edge", "geometry"):
        n, field = int(o["n"]), o["field"]
        if query.kind == "volume":
            return {"volume": ln_volume(n, field) / _LN10}
        if query.kind == "edge":
            return {"edge": ln_edge(n, field, int(o["rank-deficiency"])) / _LN10}
        d = state_dim(n, field)
        circum = math.log10((n - 1) / n) / 2
        inscribed = circum - math.log10(n - 1)
        rho = (ln_volume(n, field) - _ln_ball(d)) / _LN10 / d
        return {
            "radius_circumscribed": circum,
            "radius_inscribed": inscribed,
            "radius_effective_log10": rho,
            "gamma": (ln_edge(n, field, 1) - ln_volume(n, field)) / _LN10,
            "chi1_log10": d * (inscribed - rho),
            "chi2_log10": d * (rho - circum),
            "chi_log10": d * (inscribed - circum),
        }
    if query.kind == "reference":
        volume, gamma = ln_reference(o["body"], int(o["dim"]))
        out = {"reference_volume": volume / _LN10}
        if gamma is not None:
            out["reference_gamma"] = gamma / _LN10
        return out
    if query.kind == "group":
        return {"group_volume": ln_group(o["family"], int(o["n"]), o["convention"]) / _LN10}
    n, alpha, beta = int(o["n"]), float(Fraction(o["alpha"])), int(o["beta"])
    return {
        "laguerre_integral": ln_laguerre(n, alpha, beta) / _LN10,
        "c_norm": ln_c_norm(n, alpha, beta) / _LN10,
    }


# Canonical strings pinned by tests/test_acceptance.py (criteria 1 and 2).
GOLDEN = {
    (("field", "complex"), ("n", "2"), "volume"): "1/3*sqrt(2)*pi^(2/2)",
    (("field", "complex"), ("n", "3"), "volume"): "1/2520*sqrt(3)*pi^(6/2)",
    (("field", "complex"), ("n", "2"), ("rank-deficiency", "1"), "edge"): "2*pi^(2/2)",
    (("field", "complex"), ("n", "3"), ("rank-deficiency", "1"), "edge"): "1/105*sqrt(2)*pi^(6/2)",
    (("field", "real"), ("n", "2"), "volume"): "1/2*pi^(2/2)",
    (("field", "real"), ("n", "2"), ("rank-deficiency", "1"), "edge"): "1*sqrt(2)*pi^(2/2)",
    (("field", "complex"), ("n", "2"), "gamma"): "3*sqrt(2)",
    (("field", "complex"), ("n", "3"), "gamma"): "8*sqrt(6)",
    (("field", "complex"), ("n", "4"), "gamma"): "30*sqrt(3)",
    (("field", "real"), ("n", "2"), "gamma"): "2*sqrt(2)",
    (("convention", "A"), ("family", "U"), ("n", "1"), "group_volume"): "2*pi^(2/2)",
    (("convention", "B"), ("family", "U"), ("n", "1"), "group_volume"): "2*pi^(2/2)",
    (("convention", "C"), ("family", "U"), ("n", "1"), "group_volume"): "1*sqrt(2)*pi^(2/2)",
    (("convention", "A"), ("family", "U"), ("n", "2"), "group_volume"): "8*pi^(6/2)",
    (("convention", "B"), ("family", "U"), ("n", "2"), "group_volume"): "4*pi^(6/2)",
    (("convention", "C"), ("family", "U"), ("n", "2"), "group_volume"): "2*pi^(6/2)",
    (("convention", "C"), ("family", "SU"), ("n", "2"), "group_volume"): "2*pi^(4/2)",
    (("convention", "C"), ("family", "SU"), ("n", "3"), "group_volume"): "1*sqrt(3)*pi^(10/2)",
    (("convention", "C"), ("family", "SU"), ("n", "4"), "group_volume"): "1/3*sqrt(2)*pi^(18/2)",
    (("convention", "A"), ("family", "O"), ("n", "2"), "group_volume"): "4*sqrt(2)*pi^(2/2)",
    (("convention", "B"), ("family", "O"), ("n", "2"), "group_volume"): "4*pi^(2/2)",
    (("convention", "A"), ("family", "O"), ("n", "3"), "group_volume"): "32*sqrt(2)*pi^(4/2)",
    (("convention", "B"), ("family", "O"), ("n", "3"), "group_volume"): "16*pi^(4/2)",
    (("convention", "B"), ("family", "SO"), ("n", "3"), "group_volume"): "8*pi^(4/2)",
    (("convention", "C"), ("family", "RP"), ("n", "3"), "group_volume"): "1*pi^(4/2)",
}


def golden_key(query: Query, quantity: str) -> tuple:
    """Golden entries are keyed by the query's arguments and the quantity."""
    return (*query.args, quantity)


def judge(query: Query, answers: list[tuple[str, object]], rendered: dict, tr) -> list[str]:
    """Problems with a query's answers; an empty list means correct.

    ``rendered`` maps each exact quantity to its (str, float, log10) rendering.
    """
    problems = []
    expected = expected_log10(query)
    if [q for q, _ in answers] != list(expected):
        return [f"{query.argv()}: answered {[q for q, _ in answers]}, expected {list(expected)}"]
    for quantity, value in answers:
        want = expected[quantity]
        tol = 1e-9 * (1.0 + abs(want))
        if not isinstance(value, ExactValue):
            if not abs(value - want) <= tol:
                problems.append(f"{query.argv()} {quantity}: {value!r} != closed form {want!r}")
            continue
        text, number, log10 = rendered[quantity]
        if tr.call(exactnum.parse, text) != value:
            problems.append(f"{query.argv()} {quantity}: {text!r} does not parse back to the value")
        if log10 is None or not abs(log10 - want) <= tol:
            problems.append(f"{query.argv()} {quantity}: log10 {log10!r} != closed form {want!r}")
        if -300 < want < 300 and not abs(math.log10(number) - want) <= tol:
            problems.append(f"{query.argv()} {quantity}: float {number!r} != 10^{want!r}")
        golden = GOLDEN.get(golden_key(query, quantity))
        if golden is not None and text != golden:
            problems.append(f"{query.argv()} {quantity}: {text!r} != golden {golden!r}")
    return problems


def golden_hits(queries) -> int:
    """How many (query, quantity) pairs a golden string was checked against."""
    return sum(
        golden_key(q, quantity) in GOLDEN for q in queries for quantity in expected_log10(q)
    )
