"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the statistical criteria use pinned seeds throughout.
"""

import json
import time
from fractions import Fraction

import numpy as np

from hsgeom import cli, verify
from hsgeom.exactnum import ONE, PI, exact_sqrt, from_rational, gamma_exact
from hsgeom.groups import Convention, CosetSpec, Family, sphere_volume, vol_coset, vol_group
from hsgeom.mixedstates import StateSpace, geometry, vol_edge, vol_mixed
from hsgeom.verify import (
    check_hit_or_miss,
    check_norm_constant,
    check_purity,
    check_spectral,
    spectral_fit_test,
)

SEED = 0
A, B, C = Convention.A, Convention.B, Convention.C


def _finish(num: int, name: str, failures: list, started: float, budget: float):
    elapsed = time.time() - started
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.2f}s)")
    assert not failures, f"criterion {num}:\n" + "\n".join(failures)
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"


def _expect(failures, label, actual, expected):
    if actual != expected:
        failures.append(f"{label}: got {actual}, expected {expected}")


def test_criterion_1_exact_golden_table():
    started = time.time()
    failures = []
    _expect(failures, "V2 complex", vol_mixed(StateSpace(2)), PI * exact_sqrt(2) / 3)
    _expect(failures, "V3 complex", vol_mixed(StateSpace(3)), PI**3 / (840 * exact_sqrt(3)))
    _expect(failures, "S2 complex", vol_edge(StateSpace(2), 1), 2 * PI)
    _expect(failures, "S3 complex", vol_edge(StateSpace(3), 1), exact_sqrt(2) * PI**3 / 105)
    _expect(failures, "V2 real", vol_mixed(StateSpace(2, "real")), PI / 2)
    _expect(failures, "S2 real", vol_edge(StateSpace(2, "real"), 1), exact_sqrt(2) * PI)
    _expect(failures, "gamma2", geometry(StateSpace(2)).gamma, 3 * exact_sqrt(2))
    _expect(failures, "gamma3", geometry(StateSpace(3)).gamma, 8 * exact_sqrt(6))
    _expect(failures, "gamma4", geometry(StateSpace(4)).gamma, 15 * exact_sqrt(12))
    _expect(failures, "gamma2 real", geometry(StateSpace(2, "real")).gamma, 2 * exact_sqrt(2))
    _finish(1, "exact golden table", failures, started, 1.0)


def test_criterion_2_group_volume_golden_table():
    started = time.time()
    failures = []
    u = lambda n, conv: vol_group(CosetSpec(Family.UNITARY, n), conv)
    su = lambda n, conv: vol_group(CosetSpec(Family.SPECIAL_UNITARY, n), conv)
    o = lambda n, conv: vol_group(CosetSpec(Family.ORTHOGONAL, n), conv)
    so = lambda n, conv: vol_group(CosetSpec(Family.SPECIAL_ORTHOGONAL, n), conv)
    _expect(failures, "U(1) A", u(1, A), 2 * PI)
    _expect(failures, "U(1) B", u(1, B), 2 * PI)
    _expect(failures, "U(1) C", u(1, C), exact_sqrt(2) * PI)
    _expect(failures, "U(2) A", u(2, A), 8 * PI**3)
    _expect(failures, "U(2) B", u(2, B), 4 * PI**3)
    _expect(failures, "U(2) C", u(2, C), 2 * PI**3)
    _expect(failures, "SU(2) C", su(2, C), 2 * PI**2)
    _expect(failures, "SU(3) C", su(3, C), exact_sqrt(3) * PI**5)
    _expect(failures, "SU(4) C", su(4, C), exact_sqrt(2) * PI**9 / 3)
    _expect(failures, "O(2) A", o(2, A), 4 * exact_sqrt(2) * PI)
    _expect(failures, "O(2) B", o(2, B), 4 * PI)
    _expect(failures, "O(3) A", o(3, A), 32 * exact_sqrt(2) * PI**2)
    _expect(failures, "O(3) B", o(3, B), 16 * PI**2)
    _expect(failures, "SO(3) B", so(3, B), 8 * PI**2)
    _expect(
        failures, "RP3 C", vol_coset(CosetSpec(Family.REAL_PROJECTIVE, 3), C), PI**2
    )
    _finish(2, "group-volume golden table", failures, started, 1.0)


def test_criterion_3_structural_identities():
    started = time.time()
    failures = []
    for n in range(2, 7):
        for field in ("complex", "real"):
            space = StateSpace(n, field)
            _expect(
                failures,
                f"edge(0)=volume {field} n={n}",
                vol_edge(space, 0),
                vol_mixed(space),
            )
            g = geometry(space)
            _expect(
                failures,
                f"gamma=D/r {field} n={n}",
                g.gamma,
                from_rational(space.dim) / g.inradius,
            )
        _expect(
            failures,
            f"pure-state edge n={n}",
            vol_edge(StateSpace(n), n - 1),
            (2 * PI).pow_int(n - 1) / gamma_exact(n),
        )
    for n in range(1, 9):
        prod = ONE
        for k in range(1, n + 1):
            prod = prod * sphere_volume(2 * k - 1)
        _expect(failures, f"U({n}) sphere recursion", vol_group(CosetSpec(Family.UNITARY, n), B), prod)
        for conv in Convention:
            flag_c = ONE
            flag_r = ONE
            for k in range(1, n):
                flag_c = flag_c * vol_coset(CosetSpec(Family.COMPLEX_PROJECTIVE, k), conv)
                flag_r = flag_r * vol_coset(CosetSpec(Family.REAL_PROJECTIVE, k), conv)
            _expect(
                failures,
                f"complex flag product n={n} {conv.value}",
                vol_coset(CosetSpec(Family.COMPLEX_FLAG, n), conv),
                flag_c,
            )
            _expect(
                failures,
                f"real flag product n={n} {conv.value}",
                vol_coset(CosetSpec(Family.REAL_FLAG, n), conv),
                flag_r,
            )
            su_ratio = vol_group(CosetSpec(Family.SPECIAL_UNITARY, n), conv) / (
                vol_group(CosetSpec(Family.UNITARY, n), conv)
                / vol_group(CosetSpec(Family.UNITARY, 1), conv)
            )
            _expect(failures, f"SU stretching n={n} {conv.value}", su_ratio, exact_sqrt(n))
            so_ratio = vol_group(CosetSpec(Family.SPECIAL_ORTHOGONAL, n), conv) / vol_group(
                CosetSpec(Family.ORTHOGONAL, n), conv
            )
            _expect(failures, f"SO halving n={n} {conv.value}", so_ratio, from_rational(Fraction(1, 2)))
        vol_b = vol_group(CosetSpec(Family.UNITARY, n), B)
        _expect(
            failures,
            f"U({n}) A/B conversion",
            vol_group(CosetSpec(Family.UNITARY, n), A),
            from_rational(Fraction(2) ** (n * (n - 1) // 2)) * vol_b,
        )
        _expect(
            failures,
            f"U({n}) C/B conversion",
            vol_group(CosetSpec(Family.UNITARY, n), C),
            exact_sqrt(Fraction(1, 2**n)) * vol_b,
        )
    # asymptotic-shape proxy: gamma_N / D^(3/2) increases monotonically toward 1
    previous = 0.0
    for n in range(2, 31):
        ratio = geometry(StateSpace(n)).gamma.to_float() / (n * n - 1) ** 1.5
        if not previous < ratio < 1.0:
            failures.append(f"gamma scaling not monotone at n={n}: {previous} -> {ratio}")
        previous = ratio
    if previous <= 0.98:
        failures.append(f"gamma scaling ratio at n=30 too far from 1: {previous}")
    _finish(3, "structural identities", failures, started, 5.0)


def test_criterion_4_float_radii():
    started = time.time()
    failures = []
    g3 = geometry(StateSpace(3))
    g4 = geometry(StateSpace(4))
    for label, actual, expected in [
        ("rho3", g3.effective_radius, 0.519),
        ("rho4", g4.effective_radius, 0.428),
        ("R3", g3.circumradius.to_float(), 0.816),
        ("r3", g3.inradius.to_float(), 0.408),
        ("R4", g4.circumradius.to_float(), 0.866),
        ("r4", g4.inradius.to_float(), 0.289),
    ]:
        if abs(actual - expected) > 1e-3:
            failures.append(f"{label}: got {actual:.6f}, expected {expected} +- 1e-3")
    _finish(4, "float radii", failures, started, 1.0)


def test_criterion_5_measure_verification(monkeypatch):
    started = time.time()
    failures = []
    for n in (1, 2, 3, 4):
        for alpha, beta in ((1, 2), (3, 2), (1, 1), (2, 1)):
            report = check_norm_constant(n, alpha, beta, 1_000_000, seed=SEED)
            if not report["pass"]:
                failures.append(f"{report['check']}: {report['sigmas']} sigmas")
    for n, field in ((2, "complex"), (2, "real"), (3, "complex")):
        report = check_purity(n, field, 100_000, seed=SEED)
        if not report["pass"]:
            failures.append(f"{report['check']}: {report['sigmas']} sigmas")
    for field in ("complex", "real"):
        report = check_spectral(2, field, 100_000, seed=SEED)
        if not report["pass"]:
            failures.append(f"{report['check']}: p={report['estimate']}")

    def square_ginibre_states(n, field, rng, size):
        # the wrong Wishart exponent: square real Ginibre X
        a = rng.standard_normal((size, n, n))
        w = np.einsum("sij,skj->sik", a, a)
        return w / np.einsum("sii->s", w)[:, None, None]

    monkeypatch.setattr(verify, "sample_hs_batch", square_ginibre_states)
    _, p_corrupt = spectral_fit_test(2, "real", 100_000, seed=SEED)
    if not p_corrupt < 0.001:
        failures.append(f"negative control not rejected: p={p_corrupt}")
    _finish(5, "measure verification", failures, started, 120.0)


def test_criterion_6_hit_or_miss_geometry():
    started = time.time()
    failures = []
    report = check_hit_or_miss(2, 100_000, seed=SEED)
    if report["estimate"] != 1.0:
        failures.append(f"n=2 fraction not exactly 1: {report['estimate']}")
    report = check_hit_or_miss(3, 1_000_000, seed=SEED)
    if abs(report["expected"] - 0.0266) > 1e-4:
        failures.append(f"n=3 exact ratio moved: {report['expected']}")
    if not report["pass"]:
        failures.append(f"{report['check']}: {report['sigmas']} sigmas")
    _finish(6, "hit-or-miss geometry", failures, started, 120.0)


def test_criterion_7_verify_determinism(tmp_path):
    started = time.time()
    failures = []
    argv = [
        "verify", "--suite", "purity", "--samples", "50000",
        "--seed", str(SEED), "--chunks", "10",
    ]
    reports = []
    for run, workers in enumerate(("1", "2", "8", "1")):
        target = tmp_path / f"report_{run}.json"
        code = cli.main(argv + ["--workers", workers, "--out", str(target)])
        if code != 0:
            failures.append(f"verify exited {code} with workers={workers}")
        reports.append(target.read_bytes())
    if len(set(reports)) != 1:
        failures.append("verify reports differ across worker counts or repeated runs")
    json.loads(reports[0])  # must be valid JSON
    _finish(7, "verify determinism", failures, started, 120.0)
