"""Sampler distributions, eigensolver contracts, and the Gell-Mann basis."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from hsgeom import sampling
from hsgeom.sampling import (
    block_rows,
    eigvals_hermitian,
    gell_mann_basis,
    make_rng,
    sample_hs_batch,
    sample_pure_partial_trace_batch,
)


def test_rng_reproducible_per_seed_and_stream():
    a = make_rng(123, 4).standard_normal(8)
    b = make_rng(123, 4).standard_normal(8)
    c = make_rng(123, 5).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    with pytest.raises(ValueError):
        make_rng(-1)
    # a Philox key word holds 64 bits: 2**64 would silently alias 0
    for seed, stream in ((2**64, 0), (0, 2**64)):
        with pytest.raises(ValueError, match="below 2"):
            make_rng(seed, stream)


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sampled_matrices_satisfy_invariants(n, field):
    rho = sample_hs_batch(n, field, make_rng(100 + n), 10_000)
    herm = np.abs(rho - np.conj(np.swapaxes(rho, -1, -2))).max()
    assert herm <= 1e-12
    traces = np.einsum("sii->s", rho).real
    assert np.abs(traces - 1).max() <= 1e-12
    lowest = np.linalg.eigvalsh(rho)[:, 0]
    assert lowest.min() >= -1e-10
    if field == "real":
        assert np.abs(rho.imag).max() == 0.0


def _einsum_reference(n, kind, rng, size):
    """The samplers' draws put through the einsum formula they replaced."""
    if kind == "real":
        x = rng.standard_normal((size, n, n + 1)).swapaxes(1, 2)
    else:
        x = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    w = np.einsum("sji,sjk->sik", x.conj(), x)
    return w / np.einsum("sii->s", w).real[:, None, None]


@pytest.mark.parametrize("kind", ["complex", "real", "partial trace"])
@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
def test_samplers_match_the_einsum_formula_bit_for_bit(n, kind):
    # X^dag X is summed from the real and imaginary parts in the order and
    # rounding of einsum's complex sum of products; 4097 draws cross the
    # steps of the transposing copies at every n, and the kernel's blocks
    # from n = 8 on; the partial trace of the pure state with coefficient
    # matrix X^dag is the complex draw X^dag X
    for size in (0, 1, 5, 4097):
        if kind == "partial trace":
            got = sample_pure_partial_trace_batch(n, make_rng(n, size), size)
            want = _einsum_reference(n, "complex", make_rng(n, size), size)
        else:
            got = sample_hs_batch(n, kind, make_rng(n, size), size)
            want = _einsum_reference(n, kind, make_rng(n, size), size)
        assert got.shape == want.shape == (size, n, n) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (n, kind, size)


@pytest.mark.parametrize("n", range(2, 9))
def test_a_streaming_block_of_complex_draws_takes_one_kernel_pass(monkeypatch, n):
    # block_rows(n) draws, the batch of every streaming caller, is one block:
    # at n = 3 a block of 16 copies of 1820 draws left 7 for a second pass
    passes = []
    kernel = sampling._gram_parts

    def counted(a, b, w_re, w_im):
        passes.append(a.shape[-1])
        kernel(a, b, w_re, w_im)

    monkeypatch.setattr(sampling, "_gram_parts", counted)
    sample_hs_batch(n, "complex", make_rng(n), block_rows(n))
    assert passes == [block_rows(n)]
    # a block and 5 draws more, where a block's last copy ends short of a full
    # copy, keep the einsum bytes
    passes.clear()
    size = block_rows(n) + 5
    got = sample_hs_batch(n, "complex", make_rng(n, 1), size)
    assert passes == [block_rows(n), 5]
    assert got.tobytes() == _einsum_reference(n, "complex", make_rng(n, 1), size).tobytes()


def _purity(batch):
    return np.einsum("sij,sij->s", batch, batch.conj()).real


def test_partial_trace_matches_ginibre_construction():
    # Same measure by two constructions: two-sample mean test on purity.
    n_samples = 100_000
    a = _purity(sample_hs_batch(2, "complex", make_rng(21), n_samples))
    b = _purity(sample_pure_partial_trace_batch(2, make_rng(22), n_samples))
    gap = abs(a.mean() - b.mean())
    scale = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert gap <= 3 * scale
    # and both agree with the analytic mean purity 4/5
    assert abs(a.mean() - 0.8) <= 3 * math.sqrt(a.var(ddof=1) / a.size)
    assert abs(b.mean() - 0.8) <= 3 * math.sqrt(b.var(ddof=1) / b.size)
    # both refuse a bad argument before drawing, the size before the field
    with pytest.raises(ValueError):
        sample_hs_batch(1, "complex", make_rng(0), 4)
    with pytest.raises(ValueError):
        sample_hs_batch(3, "quaternionic", make_rng(0), 4)
    with pytest.raises(ValueError, match="need n >= 2"):
        sample_hs_batch(1, "quaternionic", make_rng(0), 4)
    with pytest.raises(ValueError, match="need n >= 2"):
        sample_pure_partial_trace_batch(1, make_rng(0), 4)
    # a negative count is named, after the n and field checks
    for field in ("complex", "real"):
        with pytest.raises(ValueError, match="sample count >= 0, got -5"):
            sample_hs_batch(3, field, make_rng(0), -5)
    with pytest.raises(ValueError, match="sample count >= 0, got -1"):
        sample_pure_partial_trace_batch(3, make_rng(0), -1)
    with pytest.raises(ValueError, match="field must be"):
        sample_hs_batch(3, "quaternionic", make_rng(0), -1)
    with pytest.raises(ValueError, match="need n >= 2"):
        sample_pure_partial_trace_batch(1, make_rng(0), -1)


def test_purity_means_both_fields():
    real = _purity(sample_hs_batch(2, "real", make_rng(23), 100_000))
    assert abs(real.mean() - 0.75) <= 3 * math.sqrt(real.var(ddof=1) / real.size)
    c3 = _purity(sample_hs_batch(3, "complex", make_rng(24), 100_000))
    assert abs(c3.mean() - 0.6) <= 3 * math.sqrt(c3.var(ddof=1) / c3.size)


def _haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_spectrum_invariant_under_fixed_unitary_conjugation():
    rho = sample_hs_batch(3, "complex", make_rng(31), 10_000)
    u = _haar_unitary(3, make_rng(32))
    rotated = np.einsum("ij,sjk,lk->sil", u, rho, u.conj())
    w1 = np.sort(np.linalg.eigvalsh(rho), axis=1)
    w2 = np.sort(np.linalg.eigvalsh(rotated), axis=1)
    for pos in range(3):
        gap = abs(w1[:, pos].mean() - w2[:, pos].mean())
        scale = math.sqrt(w1[:, pos].var(ddof=1) / w1.shape[0] + w2[:, pos].var(ddof=1) / w2.shape[0])
        assert gap <= 3 * scale


def test_top_eigenvalue_marginal_n2_complex():
    # Module-level fit: 20 equal-width bins against density 6(2t-1)^2 on [1/2, 1].
    lam = np.linalg.eigvalsh(sample_hs_batch(2, "complex", make_rng(33), 100_000))[:, 1]
    edges = np.linspace(0.5, 1.0, 21)
    counts, _ = np.histogram(lam, bins=edges)
    cdf = (2 * edges - 1) ** 3
    expected = lam.size * np.diff(cdf)
    statistic = ((counts - expected) ** 2 / expected).sum()
    assert chi2.sf(statistic, 19) > 0.001


def test_eigvals_hermitian_trivial_cases():
    np.testing.assert_allclose(eigvals_hermitian(np.eye(4) / 4), np.full(4, 0.25))
    np.testing.assert_allclose(eigvals_hermitian(np.diag([0.7, 0.3])), [0.7, 0.3])
    projector = np.full((2, 2), 0.5)
    np.testing.assert_allclose(eigvals_hermitian(projector), [1.0, 0.0], atol=1e-15)


def test_eigvals_hermitian_contracts():
    rng = make_rng(41)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (z + z.conj().T) / 2
    w = eigvals_hermitian(h)
    assert np.all(np.diff(w) <= 0)
    assert abs(w.sum() - np.trace(h).real) <= 1e-10
    # recomputed eigenpairs satisfy the residual bound
    scale = np.linalg.norm(h)
    vals, vecs = np.linalg.eigh(h)
    for lam, vec in zip(vals, vecs.T):
        assert np.linalg.norm(h @ vec - lam * vec) <= 1e-10 * scale
    with pytest.raises(ValueError):
        eigvals_hermitian(z)
    with pytest.raises(ValueError):
        eigvals_hermitian(np.ones((2, 3)))


def test_eigvals_hermitian_of_an_empty_stack():
    # same shape as np.linalg.eigvalsh gives
    for n in (2, 3):
        assert eigvals_hermitian(np.empty((0, n, n))).shape == (0, n)
        assert eigvals_hermitian(np.empty((0, n, n), dtype=complex)).shape == (0, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gell_mann_basis_orthonormal_traceless(n):
    basis = gell_mann_basis(n)
    assert basis.shape == (n * n - 1, n, n)
    np.testing.assert_allclose(np.einsum("dii->d", basis), 0, atol=1e-14)
    gram = np.einsum("aij,bji->ab", basis, basis)
    np.testing.assert_allclose(gram, np.eye(n * n - 1), atol=1e-13)
    herm = np.abs(basis - np.conj(np.swapaxes(basis, -1, -2))).max()
    assert herm == 0.0
    # cached: every call returns the same read-only array
    assert gell_mann_basis(n) is basis
    assert not basis.flags.writeable


def test_gell_mann_n2_is_rescaled_pauli():
    # n = 2 is the smallest basis: at n = 1 there is no traceless direction
    with pytest.raises(ValueError, match="need n >= 2"):
        gell_mann_basis(1)
    basis = gell_mann_basis(2)
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(basis[0], np.array([[0, s], [s, 0]]))
    np.testing.assert_allclose(basis[1], np.array([[0, -1j * s], [1j * s, 0]]))
    np.testing.assert_allclose(basis[2], np.array([[s, 0], [0, -s]]))

