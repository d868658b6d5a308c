"""Monte Carlo estimator correctness, determinism, and the chi-square fit."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.stats import chi2

from hsgeom.constants import EnsembleParams, c_norm, log_c_norm
from hsgeom.exactnum import from_rational
from hsgeom import cli, verify
from hsgeom.sampling import POSITIVITY_TOL, block_rows, gell_mann_basis, make_rng
from hsgeom.verify import (
    MCEstimate,
    _chi2_sf,
    _hit_or_miss_chunk,
    _is_state,
    _max_eigenvalue_cdf_n3,
    _top_eigenvalue,
    check_hit_or_miss,
    check_norm_constant,
    check_purity,
    check_spectral,
    mc_hit_or_miss_fraction,
    mc_norm_constant,
    mc_purity,
    purity_oracle,
    run_suite,
    spectral_fit_test,
)


def test_norm_constant_single_eigenvalue_exact():
    est = mc_norm_constant(1, 1.0, 2.0, 10_000, seed=1)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_norm_constant_draws_nothing_without_an_eigenvalue_pair(monkeypatch):
    # one eigenvalue: the Dirichlet law is the point mass at 1, of weight 1
    class NoDraws:
        def dirichlet(self, *args, **kwargs):
            raise AssertionError("drew samples")

        def random(self, *args, **kwargs):
            raise AssertionError("drew samples")

    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(verify, "make_rng", lambda *args: NoDraws())
    monkeypatch.setattr(verify, "ThreadPoolExecutor", no_pool)
    est = mc_norm_constant(1, 1.5, 2.0, 10_000, seed=1, workers=2)
    assert (est.mean, est.stderr) == (1.0, 0.0)
    # but its draw counts are refused as every other row's are
    for samples, chunks, seed in ((10_001, 10, 1), (0, 10, 1), (100, 10, -1)):
        with pytest.raises(ValueError):
            mc_norm_constant(1, 1.5, 2.0, samples, seed=seed, chunks=chunks)
    with pytest.raises(AssertionError, match="drew samples"):
        mc_norm_constant(2, 1.0, 2.0, 100, seed=1, chunks=1)


def test_norm_constant_n2_golden():
    est = mc_norm_constant(2, 1.0, 2.0, 200_000, seed=2)
    assert abs(est.mean - 1 / 3) <= 3 * est.stderr
    est = mc_norm_constant(2, 1.0, 1.0, 200_000, seed=3)
    assert abs(est.mean - 1 / 2) <= 3 * est.stderr


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha,beta", [(1, 2), (3, 2), (1, 1), (2, 1)])
def test_norm_constant_times_c_norm_is_one(n, alpha, beta):
    est = mc_norm_constant(n, alpha, beta, 100_000, seed=4)
    c = c_norm(EnsembleParams(n, Fraction(alpha), beta)).to_float()
    assert abs(est.mean * c - 1.0) <= 3 * est.stderr * c


def test_purity_estimates():
    est = mc_purity(2, "complex", 50_000, seed=5)
    assert abs(est.mean - 0.8) <= 3 * est.stderr
    est = mc_purity(2, "real", 50_000, seed=6)
    assert abs(est.mean - 0.75) <= 3 * est.stderr


def test_purity_n3_quadrature_oracle():
    # Quadrature of tr(rho^2) against the joint eigenvalue density over the
    # simplex; confirms the 3/5 value used by the named check.
    c3 = c_norm(EnsembleParams(3, Fraction(1), 2)).to_float()

    def integrand(y, x):
        z = 1 - x - y
        return (x * x + y * y + z * z) * c3 * ((x - y) * (y - z) * (x - z)) ** 2

    value, _ = integrate.dblquad(
        integrand, 0, 1, lambda x: 0, lambda x: 1 - x, epsabs=1e-11, epsrel=1e-11
    )
    assert value == pytest.approx(0.6, abs=1e-9)
    est = mc_purity(3, "complex", 50_000, seed=7)
    assert abs(est.mean - value) <= 3 * est.stderr


def test_purity_oracle_closed_forms():
    # the values the suite used before the closed forms, bit for bit
    assert float(purity_oracle(2, "complex")) == 0.8
    assert float(purity_oracle(2, "real")) == 0.75
    assert float(purity_oracle(3, "complex")) == 0.6
    assert purity_oracle(1, "complex") == purity_oracle(1, "real") == 1
    for n, field, seed in ((3, "real", 21), (4, "complex", 22), (4, "real", 23), (5, "complex", 24)):
        report = check_purity(n, field, 50_000, seed=seed)
        assert report["pass"], report
    with pytest.raises(ValueError):
        purity_oracle(0, "complex")
    with pytest.raises(ValueError):
        purity_oracle(3, "quaternion")


def test_hit_or_miss_n2_is_certain():
    est = mc_hit_or_miss_fraction(2, 20_000, seed=8)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_hit_or_miss_n3():
    est = mc_hit_or_miss_fraction(3, 200_000, seed=9)
    expected = 0.02658192888640783  # V_3 / (B_8 R_3^8), frozen from the exact forms
    assert abs(est.mean - expected) <= 3 * est.stderr


def test_hit_or_miss_n4():
    # Acceptance fraction is ~2.6e-5 in dimension 15, so the check needs
    # many draws even for a coarse confirmation.
    report = check_hit_or_miss(4, 1_000_000, seed=0)
    assert report["expected"] == pytest.approx(2.560951750023203e-05, rel=1e-12)
    assert report["pass"]


def test_hit_or_miss_stderr_is_binomial_at_the_exact_fraction(monkeypatch):
    # one hit against about 10 expected: the plug-in stderr read 9.2 sigmas
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_map_chunks", lambda *args: [1] + [0] * 9)
        report = check_hit_or_miss(4, 400_000, 903000, 10, 2)
    assert report["estimate"] == 2.5e-06
    assert report["sigmas"] == pytest.approx(2.888, abs=1e-3) and report["pass"]
    # negative control: against twice the true volume the n = 3 check fails
    vol_mixed = verify.vol_mixed
    monkeypatch.setattr(verify, "vol_mixed", lambda space: vol_mixed(space) * from_rational(2))
    report = check_hit_or_miss(3, 100_000, seed=0)
    assert report["sigmas"] > 10 and not report["pass"]


def test_hit_or_miss_refuses_counts_that_pass_on_zero_hits(monkeypatch):
    # zero hits stand for a state space of zero volume: from the smallest
    # count that runs they fail the check, and one step of 10 below it the
    # count is refused before any draw
    monkeypatch.setattr(verify, "_map_chunks", lambda *args: [0])
    for n, runs, refused, least in ((4, 351_430, 351_420, 351_423), (3, 330, 320, 330)):
        report = check_hit_or_miss(n, runs, seed=0)
        assert report["estimate"] == 0.0 and report["sigmas"] > 3 and not report["pass"]
        for call in (check_hit_or_miss, mc_hit_or_miss_fraction):
            with pytest.raises(ValueError, match=f"needs at least {least}$"):
                call(n, refused, seed=0)
        with pytest.raises(ValueError, match=f"needs at least {least}$"):
            run_suite("hitmiss", n=n, n_samples=refused)
    # at n = 2 every point of the ball is a state, so one sample can fail
    assert not check_hit_or_miss(2, 10, seed=0)["pass"]
    with pytest.raises(ValueError, match="underflows to 0.0"):
        run_suite("hitmiss", n=21)


def test_hit_or_miss_refuses_a_fraction_above_one_before_any_draw(monkeypatch, capsys):
    # a faulty exact volume larger than the ball: its binomial stderr
    # sqrt(p0 (1 - p0) / N) was a bare math domain error after every draw
    def no_draws(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(verify, "_hit_fraction", lambda n: 1.02)
    monkeypatch.setattr(verify, "_map_chunks", no_draws)
    message = r"fraction at n=3 is p0=1\.02, outside \(0, 1\]$"
    with pytest.raises(ValueError, match=message):
        check_hit_or_miss(3, 1_000_000, seed=0)
    with pytest.raises(ValueError, match=message):
        run_suite("hitmiss", n=3)
    assert cli.main(["verify", "--suite", "hitmiss", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: the hit-or-miss fraction at n=3")
    assert len(captured.err.splitlines()) == 1


def _eigvalsh_hit_or_miss_chunk(n, rng, size):
    """The eigensolver test the pivot test replaced: the same draws block by block, lambda_min >= -tol."""
    d = n * n - 1
    radius = math.sqrt((n - 1) / n)
    hits = []
    for start in range(0, size, verify._BLOCK):
        rows = min(verify._BLOCK, size - start)
        g = rng.standard_normal((rows, d))
        u = rng.random(rows)
        scale = radius * u ** (1.0 / d) / np.linalg.norm(g, axis=1)
        rho = np.eye(n) / n + np.einsum("s,sd,dij->sij", scale, g, gell_mann_basis(n))
        hits.append(np.linalg.eigvalsh(rho)[:, 0] >= -POSITIVITY_TOL)
    return np.concatenate(hits)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pivot_test_matches_eigensolver_draw_by_draw(n, monkeypatch):
    # 5 000 draws are one full block and a short one; the chunk's pivot
    # test is recorded block by block
    tested = []
    is_state = verify._is_state
    monkeypatch.setattr(verify, "_is_state", lambda tau: tested.append(is_state(tau)) or tested[-1])
    for seed in range(30):
        tested.clear()
        count = _hit_or_miss_chunk(n, make_rng(seed, 1), 5_000)
        reference = _eigvalsh_hit_or_miss_chunk(n, make_rng(seed, 1), 5_000)
        np.testing.assert_array_equal(np.concatenate(tested), reference)
        assert count == np.count_nonzero(reference)


def _with_spectrum(spectrum, rng, field="complex"):
    """U diag(spectrum) U^dag for a Haar unitary (orthogonal for the real field) U."""
    n = len(spectrum)
    g = rng.standard_normal((n, n))
    if field == "complex":
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return (u * np.asarray(spectrum, dtype=float)) @ u.conj().T


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pivot_test_on_constructed_spectra(n):
    rng = make_rng(40 + n)

    def spectra(lowest, count):
        # count eigenvalues at ``lowest``, the rest random, unit trace
        rest = rng.random(n - count)
        return [lowest] * count + list(rest * (1 - count * lowest) / rest.sum())

    plan = [(0.0, count, True) for count in range(1, n)] * 5  # rank-deficient states
    plan += [(-POSITIVITY_TOL / 2, 1, True)] * 10 + [(-2 * POSITIVITY_TOL, 1, False)] * 10
    plan += [(-0.01, 1, False)] * 5
    cases = [(spectra(lowest, count), hit) for lowest, count, hit in plan]
    rho = np.array([_with_spectrum(spectrum, rng) for spectrum, _ in cases])
    tau = np.einsum("sij,dji->sd", rho, gell_mann_basis(n)).real  # tau_i = tr(rho b_i)
    expected = np.array([hit for _, hit in cases])
    np.testing.assert_array_equal(_is_state(tau), expected)


def test_pivot_test_on_the_qubit_ball():
    # for n = 2 the states are exactly the coherence vectors of norm <= 1/sqrt(2)
    g = make_rng(50).standard_normal((10_000, 3))
    directions = g / np.linalg.norm(g, axis=1)[:, None]
    radii = np.linspace(0.0, 1.2, 10_000) / math.sqrt(2)
    hits = _is_state(directions * radii[:, None])
    np.testing.assert_array_equal(hits, radii <= 1 / math.sqrt(2))


def test_estimates_identical_for_any_worker_count():
    runs = [
        mc_purity(2, "complex", 16_000, seed=10, chunks=8, workers=w) for w in (1, 2, 8)
    ]
    assert runs[0] == runs[1] == runs[2]
    runs = [
        mc_hit_or_miss_fraction(3, 16_000, seed=12, chunks=8, workers=w) for w in (1, 2, 8)
    ]
    assert runs[0] == runs[1] == runs[2] and runs[0].mean > 0
    runs = [
        mc_norm_constant(3, 1.0, 2.0, 16_000, seed=11, chunks=8, workers=w)
        for w in (1, 2, 8)
    ]
    assert runs[0] == runs[1] == runs[2]
    runs = [
        spectral_fit_test(2, "real", 16_000, seed=13, chunks=8, workers=w) for w in (1, 2, 8)
    ]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("n", [12, 14])
def test_norm_constant_measures_beyond_linear_weight_range(n):
    # the squared weights lie below the double range here; log weights keep
    # the sums, so the check has a stderr and passes or fails on its merits
    report = check_norm_constant(n, 1, 2, 2000, seed=0)
    assert report["estimate"] > 0 and report["stderr"] > 0
    assert math.isfinite(report["sigmas"])


def test_norm_constant_all_zero_chunks_merge_as_zero(monkeypatch):
    # at alpha = 1e-3 most Dirichlet draws hold two exact zeros, so some
    # single-draw chunks have weight 0 (log weight -inf) throughout; the
    # check refuses such rows, so the refusal is lifted to reach the merge
    monkeypatch.setattr(
        verify, "_check_dirichlet", lambda n, alpha, beta: -log_c_norm(n, float(alpha), float(beta))
    )
    report = check_norm_constant(3, 0.001, 2, 10, seed=0, chunks=10)
    for key in ("expected", "estimate", "stderr", "sigmas"):
        assert report[key] is None or math.isfinite(report[key]), (key, report)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("alpha", [0.01, 0.0999])
def test_norm_refuses_exact_zero_dirichlet_draws_before_drawing(monkeypatch, n, alpha):
    # below alpha = 0.1 numpy's Dirichlet sampler returns exact zeros, and a
    # pair of them gets weight 0: at n = 3, alpha = beta = 0.01 the estimate
    # was 117 sigma low
    def unreachable(*args, **kwargs):
        raise AssertionError("drew samples")

    monkeypatch.setattr(verify, "_map_chunks", unreachable)
    with pytest.raises(ValueError, match="alpha >= 0.1"):
        mc_norm_constant(n, alpha, 0.01, 1000, seed=0)
    with pytest.raises(ValueError, match="alpha >= 0.1"):
        verify._check_dirichlet(n, alpha, Fraction(1, 100))
    with pytest.raises(ValueError, match="alpha >= 0.1"):
        run_suite("norm", n=n, alpha=alpha, beta=Fraction(1, 100), n_samples=1000)


def test_norm_takes_small_alpha_where_no_two_draws_coincide():
    # at n = 2 the two components sum to 1, so at most one of them is 0
    (report,) = run_suite("norm", n=2, alpha=Fraction(1, 100), beta=Fraction(1, 100), n_samples=1000)
    assert report["pass"] and report["check"] == "norm/n=2/alpha=1/100/beta=1/100/samples=1000/seed=0"
    # and alpha = 0.1 is where numpy's Dirichlet sampler leaves stick-breaking
    verify._check_dirichlet(3, Fraction(1, 10), 2)


@pytest.mark.parametrize("n, alpha, beta", [(16, 1, 2), (2, 1e-310, 1)])
def test_norm_refuses_an_expectation_off_the_normal_doubles(monkeypatch, n, alpha, beta):
    # 1/C_16^(1,2) ~ 1e-337 is subnormal, where an estimate that underflowed
    # too would pass on 0 == 0; 1/C_2^(1e-310,1) ~ e^714 overflows exp
    def unreachable(*args, **kwargs):
        raise AssertionError("drew samples")

    monkeypatch.setattr(verify, "_map_chunks", unreachable)
    for call in (check_norm_constant, mc_norm_constant):
        with pytest.raises(ValueError, match="normal double 1/C"):
            call(n, alpha, beta, 1000, seed=0)
    with pytest.raises(ValueError, match="normal double 1/C"):
        run_suite("norm", n=n, alpha=alpha, beta=beta, n_samples=1000)


# the default norm rows that take the lattice rule, and those of
# `verify --suite norm --alpha 1/2` that take Dirichlet draws
_LATTICE_ROWS = [(n, a, b) for n in (2, 3, 4) for a, b in ((1, 2), (3, 2), (1, 1), (2, 1))]
_HALF_ALPHA_ROWS = [(n, 0.5, b) for n in (2, 3, 4) for b in (2, 1)]


def test_lattice_rows_draw_shifts_and_no_dirichlet_variates(monkeypatch):
    drawn = []

    class ShiftsOnly:
        def __init__(self, *args):
            self.rng = make_rng(*args)

        def dirichlet(self, *args, **kwargs):
            raise AssertionError("drew Dirichlet variates")

        def random(self, shape):
            drawn.append(shape)
            return self.rng.random(shape)

    monkeypatch.setattr(verify, "make_rng", ShiftsOnly)
    for n, alpha in ((2, 1.0), (3, 1.5), (4, 3.0)):
        drawn.clear()
        mc_norm_constant(n, alpha, 2.0, 20_000, seed=0, chunks=10)
        # ceil(40 / 10) shifts per chunk, one uniform per lattice dimension each
        assert drawn == [(4, n - 1)] * 10


@pytest.mark.parametrize(
    "samples, chunks, sizes",
    [
        (1001, 7, [24] * 5 + [23]),  # 143 points per chunk over ceil(40/7) = 6 shifts
        (6400, 64, [100]),  # more chunks than shifts: one shift each
        (20, 10, [1, 1]),  # fewer points than shifts: one point each
    ],
)
def test_lattice_chunks_split_points_over_shifts_within_one(monkeypatch, samples, chunks, sizes):
    seen = []
    means = verify.shifted_means

    def recorded(n, alpha, beta, points, shifts):
        seen.extend([points] * len(shifts))
        return means(n, alpha, beta, points, shifts)

    monkeypatch.setattr(verify, "shifted_means", recorded)
    mc_norm_constant(3, 1.0, 2.0, samples, seed=0, chunks=chunks)
    assert seen == sizes * chunks


def test_lattice_estimates_identical_for_any_worker_count():
    for samples, chunks in ((6400, 1), (6400, 10), (6400, 64), (1001, 7)):
        runs = [
            mc_norm_constant(4, 2.0, 1.0, samples, seed=5, chunks=chunks, workers=w)
            for w in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2], (samples, chunks)
        reports = [check_norm_constant(3, 1, 2, samples, 5, chunks, w) for w in (1, 2, 8)]
        assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("n, alpha, lattice", [(2, 1.0, True), (4, 3.0, True), (5, 1.0, False), (3, 0.5, False)])
def test_only_dirichlet_norm_rows_start_a_thread_pool(monkeypatch, n, alpha, lattice):
    # lattice chunks are many short numpy calls, which two threads only
    # slow down; a Dirichlet block is one long call, which threads share
    pools = []
    pool = verify.ThreadPoolExecutor

    def counted(*args, **kwargs):
        pools.append(kwargs)
        return pool(*args, **kwargs)

    monkeypatch.setattr(verify, "ThreadPoolExecutor", counted)
    est = mc_norm_constant(n, alpha, 1.0, 4000, seed=4, workers=4)
    assert pools == ([] if lattice else [{"max_workers": 4}])
    assert est == mc_norm_constant(n, alpha, 1.0, 4000, seed=4, workers=1)


def test_lattice_block_is_built_once_and_read_only():
    # two rows of one n, 10 chunks of 4 replicates of 25 000 points: two blocks
    verify._lattice_block.cache_clear()
    for alpha, beta in ((1.0, 2.0), (3.0, 2.0)):
        mc_norm_constant(3, alpha, beta, 1_000_000, seed=0)
    info = verify._lattice_block.cache_info()
    assert (info.misses, info.hits) == (2, 2 * 10 * 2 - 2)
    assert info.maxsize == verify._LATTICE_BLOCKS
    points, z = 25_000, verify.korobov_vector(25_000, 2)
    for start in (0, verify._NORM_BLOCK):
        block = verify._lattice_block(points, 2, start)
        index = np.arange(start, min(start + verify._NORM_BLOCK, points))
        assert np.array_equal(block, [index * zk % points * (2 / points) - 2 for zk in z])
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.0


def test_korobov_vector_is_computed_once_from_its_arguments():
    verify.korobov_vector.cache_clear()
    z = verify.korobov_vector(25_000, 3)
    assert verify.korobov_vector(25_000, 3) is z  # cached
    verify.korobov_vector.cache_clear()
    assert verify.korobov_vector(25_000, 3) == z
    a = z[1]
    assert z == (1, a, a * a % 25_000) and math.gcd(a, 25_000) == 1 and 2 <= a <= 12_500
    assert verify.korobov_vector(25_000, 1) == (1,)
    assert verify.korobov_vector(3, 2) == (1, 1)  # no multiplier in 2 .. 1
    # the multiplier minimizes P_2 over the candidates it was chosen from
    x = np.arange(997)[:, None] * np.array(verify.korobov_vector(997, 2)) % 997 / 997
    p2 = np.prod(1 + 2 * np.pi**2 * (x * x - x + 1 / 6), axis=1).mean() - 1
    for b in (2, 3, 250, 498):
        y = np.arange(997)[:, None] * np.array([1, b]) % 997 / 997
        assert p2 <= np.prod(1 + 2 * np.pi**2 * (y * y - y + 1 / 6), axis=1).mean() - 1


def _lattice_floor(n, alpha, beta):
    return verify._FLOOR * max(1.0, math.lgamma(n * alpha + beta * n * (n - 1) / 2))


def test_lattice_n2_rows_report_the_rounding_floor():
    # at n = 2 the spread of the shifts reaches rounding, about 1e-16 of the
    # mean, at (1, 1) and (3, 2); the kink that the tent transform leaves at
    # (1, 2) and (2, 1) keeps theirs near 1e-9.  No row reports less than the floor.
    for alpha, beta in ((1, 2), (3, 2), (1, 1), (2, 1)):
        est = mc_norm_constant(2, alpha, beta, 1_000_000, seed=0)
        floor = _lattice_floor(2, alpha, beta) * est.mean
        assert est.stderr >= floor > 0
        if (alpha, beta) in ((1, 1), (3, 2)):
            assert est.stderr == pytest.approx(floor, rel=1e-3)


def test_lattice_spread_survives_a_tiny_constant():
    # 1/C_2^(300, 1) ~ 1.6e-183: the squares of the replicates' absolute
    # deviations (~1e-188) underflow to 0, which left only the floor, and
    # the check failed by 1.4 million sigmas; relative deviations keep the spread
    report = check_norm_constant(2, 300, 1, 200_000, seed=0)
    assert report["pass"]
    assert report["stderr"] > 1e3 * _lattice_floor(2, 300, 1) * report["estimate"]


@pytest.mark.parametrize("n, scale", [(3, 1e-5), (4, 1e-3), (5, 3e-2)])
def test_lattice_rows_detect_a_constant_off_by_a_small_factor(monkeypatch, n, scale):
    # Dirichlet draws at n = 3 and 4, at a relative stderr of 1.5e-3 and
    # 2.4e-3 at (1, 2), saw neither lattice deviation; n = 5 keeps its
    # Dirichlet draws, at a relative stderr of about 3e-3 here
    assert check_norm_constant(n, 1, 2, 1_000_000, seed=0)["pass"]
    monkeypatch.setattr(verify, "log_c_norm", lambda *args: log_c_norm(*args) + math.log1p(scale))
    report = check_norm_constant(n, 1, 2, 1_000_000, seed=0)
    assert not report["pass"] and report["sigmas"] > 5


def test_lattice_rows_false_fail_at_the_student_t_rate():
    # 40 replicates: the 3-sigma gate fails a true row with probability
    # P(|t_39| > 3) ~ 0.5%, about 1.1 of these 240 lattice rows and 0.6 of
    # the 120 Dirichlet rows at alpha = 1/2, whose replicates are the same
    for rows, samples in ((_LATTICE_ROWS, 1_000_000), (_HALF_ALPHA_ROWS, 100_000)):
        failures = [
            (seed, row)
            for seed in range(20)
            for row in rows
            if not check_norm_constant(*row, samples, seed=seed)["pass"]
        ]
        assert len(failures) <= 3, failures


def test_norm_expectation_is_the_validators_log():
    # 1/C_15^(1,2) ~ 1e-289: at (alpha, beta) = (1, 2) the largest n that runs
    log_inverse = verify._check_dirichlet(15, 1, 2)
    assert log_inverse == -log_c_norm(15, 1.0, 2.0)
    report = check_norm_constant(15, 1, 2, 1000, seed=0)
    assert report["expected"] == math.exp(log_inverse) > 0


def test_hit_or_miss_refuses_n_below_two_before_drawing(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("drew samples")

    monkeypatch.setattr(verify, "_map_chunks", unreachable)
    for call in (mc_hit_or_miss_fraction, check_hit_or_miss):
        with pytest.raises(ValueError, match="state space needs n >= 2"):
            call(1, 1000, seed=0)


def test_log_sum_zero_block_does_not_set_the_scale():
    # the norm check's log-sum accumulator: a block of weights 0 (logs -inf)
    # leaves the sum as it is, at the start and later, and logs near -400
    # keep their digits, held scaled by the largest log so far
    top, total = -math.inf, 0.0
    for block in ([-np.inf, -np.inf], [-401.0, -402.0], [-np.inf], [-400.0, -400.5]):
        before = (top, total)
        top, total = verify.accumulate(top, total, np.array(block))
        if max(block) == -np.inf:
            assert (top, total) == before
    assert top == -400.0
    logs = (-401.0, -402.0, -400.0, -400.5)
    assert total == pytest.approx(math.fsum(math.exp(x + 400) for x in logs), rel=1e-15)
    assert math.exp(top) * total == pytest.approx(math.fsum(map(math.exp, logs)), rel=1e-15)


def test_stderr_scales_like_sqrt_n():
    # alpha < 1 keeps iid Dirichlet draws
    ratios = []
    for seed in range(5):
        small = mc_norm_constant(2, 0.5, 2.0, 40_000, seed=seed)
        large = mc_norm_constant(2, 0.5, 2.0, 80_000, seed=seed + 100)
        ratios.append(small.stderr / large.stderr)
    mean_ratio = sum(ratios) / len(ratios)
    assert math.sqrt(2) * 0.8 <= mean_ratio <= math.sqrt(2) * 1.2


@pytest.mark.parametrize("n", [3, 4])
def test_lattice_stderr_falls_faster_than_sqrt_n(n):
    # a shifted lattice rule converges faster than iid draws: at (alpha, beta)
    # = (1, 2) doubling the points cut the stderr 3.4 to 6.2 times over five
    # seeds (an odd beta leaves a kink: 1.1 to 1.7 at n = 4, (2, 1))
    alpha, beta = 1.0, 2.0
    for seed in range(3):
        small = mc_norm_constant(n, alpha, beta, 40_000, seed=seed)
        large = mc_norm_constant(n, alpha, beta, 80_000, seed=seed + 100)
        assert large.stderr <= small.stderr / math.sqrt(2)


def test_chunking_validation():
    with pytest.raises(ValueError):
        mc_purity(2, "complex", 1001, seed=0, chunks=10)
    with pytest.raises(ValueError):
        mc_purity(2, "complex", 0, seed=0)
    with pytest.raises(ValueError):
        mc_norm_constant(0, 1.0, 2.0, 100, seed=0, chunks=1)
    with pytest.raises(ValueError):
        mc_norm_constant(2, -1.0, 2.0, 100, seed=0, chunks=1)


@pytest.mark.parametrize("field", ["complex", "real"])
def test_spectral_fit_accepts_true_sampler(field):
    _, p_value = spectral_fit_test(2, field, 50_000, seed=12)
    assert p_value > 0.001


def test_spectral_fit_n3_by_quadrature_reference():
    _, p_value = spectral_fit_test(3, "complex", 50_000, seed=13)
    assert p_value > 0.001


def test_max_eigenvalue_cdf_n3_matches_quadrature():
    c3 = c_norm(EnsembleParams(3, Fraction(1), 2)).to_float()

    def density(y, x):
        z = 1.0 - x - y
        return c3 * ((x - y) * (y - z) * (x - z)) ** 2

    def cdf(t):
        # the part of the simplex where all three eigenvalues are <= t
        value, _ = integrate.dblquad(
            density, max(0.0, 1.0 - 2.0 * t), t,
            lambda x: max(0.0, 1.0 - t - x), lambda x: min(t, 1.0 - x),
            epsabs=1e-11, epsrel=1e-10,
        )
        return value

    ts = np.linspace(1 / 3, 1.0, 321)[1:-1:4]
    reference = np.array([cdf(t) for t in ts])
    assert np.abs(_max_eigenvalue_cdf_n3(ts) - reference).max() <= 1e-7
    assert _max_eigenvalue_cdf_n3(0.5) == 1 / 256
    assert _max_eigenvalue_cdf_n3(1 / 3) == 0.0
    assert _max_eigenvalue_cdf_n3(1.0) == 1.0


def test_chi2_sf_matches_scipy():
    for statistic in (0.5, 5.0, 12.3, 19.0, 30.1, 45.0, 80.0, 150.0):
        assert _chi2_sf(statistic, 19) == pytest.approx(chi2.sf(statistic, 19), rel=1e-12)


@pytest.mark.parametrize("dof", [4, 5, 19, 20, 99])
def test_chi2_sf_matches_mpmath(dof):
    # statistics past 1417 make e^(-statistic/2) subnormal while the tail is
    # still a normal double; the closed form must keep its digits there too
    assert _chi2_sf(0.0, dof) == 1.0
    for statistic in np.linspace(0.0, 2000.0, 801)[1:]:
        with mpmath.workprec(200):
            exact = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(statistic) / 2, regularized=True)
        if exact < 1e-300:
            continue
        bound = 1e-14 if statistic <= 200 else 1e-12
        assert abs(_chi2_sf(statistic, dof) - exact) <= bound * exact, statistic


def _square_ginibre_states(n, field, rng, size):
    """Negative control: W / tr W from square real Ginibre X, the wrong Wishart exponent."""
    a = rng.standard_normal((size, n, n))
    w = np.einsum("sij,skj->sik", a, a)
    return w / np.einsum("sii->s", w)[:, None, None]


def test_spectral_fit_rejects_corrupted_sampler(monkeypatch):
    # square real Ginibre gives a visibly different top-eigenvalue marginal
    monkeypatch.setattr(verify, "sample_hs_batch", _square_ginibre_states)
    _, p_value = spectral_fit_test(2, "real", 100_000, seed=14)
    assert p_value < 0.001


def test_spectral_fit_sampler_sees_one_chunk_at_a_time(monkeypatch):
    sizes = []
    sample_hs_batch = verify.sample_hs_batch

    def recording(n, field, rng, size):
        sizes.append(size)
        return sample_hs_batch(n, field, rng, size)

    monkeypatch.setattr(verify, "sample_hs_batch", recording)
    spectral_fit_test(2, "complex", 12_000, seed=0, chunks=6)
    assert sizes == [2_000] * 6
    sizes.clear()
    spectral_fit_test(2, "complex", 12_000, seed=0)
    assert max(sizes) <= 12_000 // 10


@pytest.mark.parametrize("n,field", [(2, "complex"), (2, "real"), (3, "complex"), (3, "real")])
def test_top_eigenvalue_matches_eigvalsh_on_hs_draws(n, field):
    for stream in range(5):
        rho = verify.sample_hs_batch(n, field, make_rng(60, stream), 20_000)
        error = np.abs(_top_eigenvalue(rho) - np.linalg.eigvalsh(rho)[:, -1])
        assert error.max() <= 1e-14


@pytest.mark.parametrize("field", ["complex", "real"])
def test_top_eigenvalue_on_constructed_spectra(field):
    # Smith's trigonometric root alone is off by up to 5e-9 at a doubly
    # degenerate top of a 3 x 3 matrix; the deflated root must not be.  I/3
    # gets more draws: rounded, it is scalar only up to rounding, so the
    # deflation works on noise and only its clip keeps the error small.
    spectra = [
        (1.0, 0.0), (0.5, 0.5), (0.7, 0.3),  # pure, I/2, generic
        (1.0, 0.0, 0.0),  # pure: doubly degenerate bottom at 0
        (0.4, 0.4, 0.2), (0.45, 0.45, 0.1),  # doubly degenerate top
        (0.6, 0.2, 0.2), (0.34, 0.33, 0.33),  # doubly degenerate bottom
        (0.5, 0.5, 0.0), (0.7, 0.3, 0.0),  # rank deficient
    ]
    rng = make_rng(61)
    for spectrum, count in [(s, 500) for s in spectra] + [((1 / 3, 1 / 3, 1 / 3), 10_000)]:
        rho = np.array([_with_spectrum(spectrum, rng, field) for _ in range(count)])
        error = np.abs(_top_eigenvalue(rho) - np.linalg.eigvalsh(rho)[:, -1])
        assert error.max() <= 1e-14, spectrum
    for n in (2, 3):
        # exactly diagonal: p = 0 for I/3, and exact zeros off the diagonal
        assert _top_eigenvalue(np.eye(n)[None] / n) == pytest.approx(1 / n, abs=1e-16)
        assert _top_eigenvalue(np.diag([0.0] * (n - 1) + [1.0])[None]) == 1.0
    assert _top_eigenvalue(np.diag([0.5, 0.5, 0.0])[None]) == 0.5


@pytest.mark.parametrize("n,field", [(2, "complex"), (2, "real"), (3, "complex")])
def test_spectral_chunk_records_match_eigvalsh(monkeypatch, n, field):
    records = []
    map_chunks = verify._map_chunks

    def recording(*args):
        records.append(map_chunks(*args))
        return records[-1]

    monkeypatch.setattr(verify, "_map_chunks", recording)
    spectral_fit_test(n, field, 100_000, seed=3)
    monkeypatch.setattr(verify, "_top_eigenvalue", lambda rho: np.linalg.eigvalsh(rho)[:, -1])
    spectral_fit_test(n, field, 100_000, seed=3)
    new, old = records
    assert len(new) == len(old) == 10
    for a, b in zip(new, old):
        np.testing.assert_array_equal(a, b)


def test_reports_match_golden():
    # recorded with the eigvalsh spectral sampler and the matrix-product
    # positivity test: the entrywise kernels move no draw's bin and no hit
    for (n, field), p_value in {
        (2, "complex"): 0.9410270572018482,
        (2, "real"): 0.4594306063484901,
        (3, "complex"): 0.2556608788985997,
    }.items():
        assert check_spectral(n, field, 100_000, seed=0) == {
            "check": f"spectral/n={n}/{field}/samples=100000/bins=20/seed=0",
            "expected": 0.001,
            "estimate": p_value,
            "stderr": None,
            "sigmas": None,
            "pass": True,
        }
    # recorded with hit-or-miss chunks drawn one block of 4096 rows at a
    # time.  The stderr is the binomial one at the exact fraction.
    for n, samples, expected, estimate in (
        (4, 400_000, 2.560951750023203e-05, 3.25e-05),
        (3, 1_000_000, 0.02658192888640783, 0.026385),
    ):
        stderr = math.sqrt(expected * (1 - expected) / samples)
        assert check_hit_or_miss(n, samples, seed=0) == {
            "check": f"hitmiss/n={n}/samples={samples}/seed=0",
            "expected": expected,
            "estimate": estimate,
            "stderr": stderr,
            "sigmas": abs(estimate - expected) / stderr,
            "pass": True,
        }
    # recorded with the shifted lattice rule, 40 shifts of 25 000 points
    assert check_norm_constant(4, 2, 1, 1_000_000, seed=0) == {
        "check": "norm/n=4/alpha=2/beta=1/samples=1000000/seed=0",
        "expected": 5.41992729492732e-09,
        "estimate": 5.420122894246376e-09,
        "stderr": 2.1404379532436508e-13,
        "sigmas": 0.9138284936487873,
        "pass": True,
    }
    assert check_norm_constant(3, 3, 2, 1_000_000, seed=0) == {
        "check": "norm/n=3/alpha=3/beta=2/samples=1000000/seed=0",
        "expected": 3.964289678575367e-08,
        "estimate": 3.964289678574125e-08,
        "stderr": 2.534126162084154e-19,
        "sigmas": 0.04898858951436681,
        "pass": True,
    }


def test_dirichlet_norm_reports_match_golden():
    # rows off the lattice (n >= 5 or alpha < 1) keep the Dirichlet draws of
    # the rows recorded before the lattice rule was added; recorded with 40
    # replicate means per row, whose spread is the stderr
    assert check_norm_constant(5, 1, 2, 100_000, seed=0) == {
        "check": "norm/n=5/alpha=1/beta=2/samples=100000/seed=0",
        "expected": 1.6042075331639485e-17,
        "estimate": 1.6129876471991887e-17,
        "stderr": 1.879903447566698e-19,
        "sigmas": 0.46705132897144064,
        "pass": True,
    }
    assert check_norm_constant(2, 0.5, 2, 100_000, seed=0) == {
        "check": "norm/n=2/alpha=0.5/beta=2/samples=100000/seed=0",
        "expected": 1.5707963267948968,
        "estimate": 1.5695042649720254,
        "stderr": 0.003474315418683976,
        "sigmas": 0.3718896148354755,
        "pass": True,
    }


def _traced_peak(fn, *args) -> int:
    """Bytes above the starting level at the peak of ``fn(*args)``, numpy buffers included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunks_hold_one_block_of_derived_arrays():
    # a hit-or-miss chunk holds one block of normals, the matrix entries
    # and pivots built from it, about 5.5 blocks of d doubles, whether it
    # takes 10^5 or 10^6 draws; neither is a multiple of either block, so
    # the last block is short
    d = 3 * 3 - 1
    rng = make_rng(0, 1)  # before tracing: the first one imports numpy.random
    for size in (100_000, 1_000_000):
        assert _traced_peak(_hit_or_miss_chunk, 3, rng, size) <= 8 * verify._BLOCK * d * 8, size
    # a Dirichlet chunk (n = 5) holds one block of draws and two rows of
    # logs, n + 2 rows, whether it takes 10^5 or 10^6 draws
    n = 5
    for size in (100_000, 1_000_000):
        peak = _traced_peak(mc_norm_constant, n, 1.0, 2.0, size, 0, 1)
        assert peak <= (n + 3) * verify._NORM_BLOCK * 8, size


@pytest.mark.parametrize(
    "estimate, n, sizes",
    [
        # 3 and 25 blocks of 4096 states
        (lambda size: mc_purity(8, "complex", size, 0, 1), 8, (10_000, 100_000)),
        # 2 and 18 blocks of 29 127 states
        (lambda size: spectral_fit_test(3, "complex", size, 0, chunks=1), 3, (50_000, 500_000)),
    ],
)
def test_purity_and_spectral_chunks_hold_one_block_of_states(estimate, n, sizes):
    # a block of block_rows(n) complex states is 4 MB; with the sampler's
    # and the statistic's temporaries a chunk peaked at about 3.2 of them
    make_rng(0, 1)  # before tracing: the first one imports numpy.random
    block = block_rows(n) * n * n * 16
    for size in sizes:
        assert size > block_rows(n)  # more than one block
        assert _traced_peak(estimate, size) <= 4 * block, size


def test_norm_chunks_hold_one_block_of_derived_arrays():
    # a lattice chunk of 10^6 points in 40 shifts of 25 000 holds one block
    # of the shifted lattice and two of weights, n + 2 rows, besides what is
    # cached: the generating vector, whose search takes about six rows, and
    # each block of the unshifted lattice, n - 1 rows, built with three more;
    # a Dirichlet chunk holds one block, n + 2 rows
    n, size = 4, 100_000
    make_rng(0, 1)  # before tracing: the first one imports numpy.random
    verify.korobov_vector(25_000, n - 1)  # searched before tracing, as it is cached
    verify._lattice_block.cache_clear()
    assert _traced_peak(verify._lattice_block, 25_000, n - 1, 0) <= (n + 3) * verify._NORM_BLOCK * 8
    verify._lattice_block(25_000, n - 1, verify._NORM_BLOCK)  # the last block, cached too
    peak = _traced_peak(mc_norm_constant, n, 2.0, 1.0, 1_000_000, 0, 1)
    assert peak <= (n + 3) * verify._NORM_BLOCK * 8
    verify.korobov_vector.cache_clear()
    assert _traced_peak(verify.korobov_vector, 25_000, n - 1) <= 7 * verify._NORM_BLOCK * 8
    peak = _traced_peak(mc_norm_constant, n, 0.5, 1.0, size, 0, 1)
    assert peak <= (n + 3) * verify._NORM_BLOCK * 8


def test_spectral_fit_validation():
    with pytest.raises(ValueError):
        spectral_fit_test(5, "complex", 1000, seed=0)


def test_spectral_fit_refuses_unsupported_pair_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("sampler reached for a pair with no reference marginal")

    monkeypatch.setattr(verify, "sample_hs_batch", no_draws)
    with pytest.raises(ValueError, match="no reference spectral marginal"):
        spectral_fit_test(3, "real", 10**9, seed=0)


def test_check_reports_shape():
    report = check_purity(2, "complex", 20_000, seed=15)
    assert set(report) == {"check", "expected", "estimate", "stderr", "sigmas", "pass"}
    assert report["expected"] == 0.8
    assert report["pass"] is True
    report = check_norm_constant(2, 1, 2, 20_000, seed=16)
    assert report["expected"] == pytest.approx(1 / 3, rel=1e-12)
    report = check_hit_or_miss(2, 10_000, seed=17)
    assert report["expected"] == 1.0 and report["sigmas"] == 0.0
    report = check_spectral(2, "real", 20_000, seed=18)
    assert report["stderr"] is None and isinstance(report["pass"], bool)
    with pytest.raises(ValueError):
        check_purity(2, "quaternion", 1000, seed=0)


def test_verdict_refuses_vacuous_pass():
    # 1/C_16^(1,2) ~ 1e-337 is below the normal doubles; the log weights are
    # not, but the estimate they scale back to is, and 0 == 0 would pass
    with pytest.raises(ValueError, match="normal double 1/C"):
        check_norm_constant(16, 1, 2, 1000, seed=0)
    # exact zero-variance cases with a meaningful expectation still pass
    report = check_norm_constant(1, 1, 2, 1000, seed=0)
    assert report["expected"] == 1.0 and report["stderr"] == 0.0 and report["pass"] is True
    report = check_hit_or_miss(2, 1000, seed=0)
    assert report["expected"] == 1.0 and report["stderr"] == 0.0 and report["pass"] is True


def test_run_suite_composition():
    def names(checks):
        return [c["check"] for c in checks]

    norm = [
        f"norm/n={n}/alpha={a}/beta={b}/samples=1000/seed=0"
        for n in (1, 2, 3, 4)
        for a, b in ((1, 2), (3, 2), (1, 1), (2, 1))
    ]
    hitmiss = [f"hitmiss/n={n}/samples=1000/seed=0" for n in (2, 3)]
    assert names(run_suite("all", n_samples=1000)) == [
        *norm,
        *(f"purity/n={n}/{f}/samples=1000/seed=0" for n, f in ((2, "complex"), (2, "real"), (3, "complex"))),
        *(f"spectral/n=2/{f}/samples=1000/bins=20/seed=0" for f in ("complex", "real")),
        *hitmiss,
    ]
    # a given argument replaces it in every default row; equal rows run once
    assert names(run_suite("purity", n=7, n_samples=1000)) == [
        "purity/n=7/complex/samples=1000/seed=0",
        "purity/n=7/real/samples=1000/seed=0",
    ]
    assert names(run_suite("spectral", field="real", n_samples=1000)) == [
        "spectral/n=2/real/samples=1000/bins=20/seed=0"
    ]
    assert names(run_suite("all", field="real", n_samples=1000)) == [
        *norm,
        "purity/n=2/real/samples=1000/seed=0",
        "purity/n=3/real/samples=1000/seed=0",
        "spectral/n=2/real/samples=1000/bins=20/seed=0",
        *hitmiss,
    ]
    # the collapsed n=3 rows keep the first row's sample count
    assert names(run_suite("hitmiss", n=3)) == ["hitmiss/n=3/samples=100000/seed=0"]
    with pytest.raises(ValueError, match="no reference spectral marginal"):
        run_suite("spectral", n=3, n_samples=1000)
    checks = run_suite("purity", n=2, field="complex", n_samples=20_000, seed=19)
    assert len(checks) == 1 and checks[0]["check"].startswith("purity/n=2/complex")
    checks = run_suite("norm", n=2, n_samples=20_000, seed=20)
    assert len(checks) == 4
    with pytest.raises(ValueError):
        run_suite("nonsense")
    # alpha alone replaces it in every norm row, like any other argument
    assert names(run_suite("norm", alpha=1, n_samples=100)) == [
        f"norm/n={n}/alpha=1/beta={b}/samples=100/seed=0" for n in (1, 2, 3, 4) for b in (2, 1)
    ]


def test_run_suite_validates_every_row_before_the_first_check(monkeypatch):
    def no_check(**row):
        raise AssertionError(f"check ran before every row was validated: {row}")

    for name, (_, row_ok, rows) in verify._PLANS.items():
        monkeypatch.setitem(verify._PLANS, name, (no_check, row_ok, rows))
    with pytest.raises(AssertionError):  # the patch is live: valid rows reach it
        run_suite("hitmiss", n_samples=1000)
    for kwargs, message in (
        # norm, purity and spectral (3, complex) rows precede the (3, real) one
        ({"n": 3, "workers": 2}, "no reference spectral marginal for n=3, field='real'"),
        ({"n": 1}, "state space needs n >= 2"),
        ({"seed": -1}, "seed and stream must be nonnegative"),
        ({"seed": 2**64}, r"below 2\*\*64"),
        ({"n_samples": 1005}, "must be divisible by chunks"),
        ({"chunks": 0}, "must be positive"),
        ({"workers": 0}, "must be positive"),
    ):
        with pytest.raises(ValueError, match=message):
            run_suite("all", **kwargs)
    with pytest.raises(ValueError, match="must be positive"):
        run_suite("spectral", n_samples=0)


def test_expected_from_log_c_norm_matches_exact():
    assert math.exp(-log_c_norm(3, 3, 2)) == pytest.approx(
        (1 / c_norm(EnsembleParams(3, Fraction(3), 2))).to_float(), rel=1e-12
    )


def test_mc_estimate_is_frozen_record():
    est = MCEstimate(1.0, 0.0, 10, 3, 2)
    with pytest.raises(AttributeError):
        est.mean = 2.0
