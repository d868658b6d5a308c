"""Random density matrices distributed by the Hilbert-Schmidt measure.

Every draw comes from one construction, ``sample_hs_batch``: the state
W / tr W with W = X^dag X for a Gaussian matrix X.  The real-symmetric
ensemble uses an N x (N+1) Gaussian matrix, which is the rectangular shape
whose Wishart exponent vanishes and reproduces the linear eigenvalue
repulsion of the real HS measure; this choice is validated statistically
in the verify module rather than assumed.

For a complex X = A + iB, W is built from the real blocks A and B, copied
component-major (entry-major, draw index last) so that every numpy call
spans thousands of draws: row i of W gains, for j ascending from zero,
Re a_ji a_jk + b_ji b_jk and Im a_ji b_jk - b_ji a_jk over its columns
k >= i, and the lower triangle is the exact conjugate.  For the real field
each entry is one contiguous dot of two rows of the N x (N+1) draw.  Both
orders are fixed: they are the order and rounding in which einsum summed
X^dag X before, so every draw of a given (seed, stream) keeps its bytes,
and with them the ``sample`` output and the ``verify`` reports.

Randomness comes from numpy's Philox counter-based generator keyed by
``(seed, stream)``, so independent streams for parallel chunks are cheap
and draws are reproducible regardless of thread count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exactnum import as_integer

__all__ = ["make_rng", "sample_hs_batch", "eigvals_hermitian", "gell_mann_basis"]

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10

# Matrix entries per block of draws, for every caller that streams HS states
# (``hsgeom sample`` and the verify chunks): a few MB whatever the count.
BLOCK_ENTRIES = 1 << 18


def block_rows(n: int) -> int:
    """Matrices per block of BLOCK_ENTRIES entries at size n: at least one."""
    return max(1, BLOCK_ENTRIES // (n * n or 1))  # the sampler refuses n = 0


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for the given (seed, stream) pair.

    Distinct streams are statistically independent, so parallel workers can
    each take one stream without coordination.
    """
    if not (0 <= seed < 1 << 64 and 0 <= stream < 1 << 64):
        # Philox keys are 64-bit words: a larger value would alias a smaller one
        raise ValueError("seed and stream must be nonnegative and below 2**64")
    key = [as_integer(seed, "seed"), as_integer(stream, "stream")]
    return np.random.Generator(np.random.Philox(key=key))


def _check_request(n: int, field: str, size: int) -> None:
    """Refuse a bad argument before any draw: n first, then the field, then the count."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if field not in ("complex", "real"):
        raise ValueError(f"field must be 'complex' or 'real', got {field!r}")
    if size < 0:
        raise ValueError(f"need a sample count >= 0, got {size}")


def _ginibre(n: int, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts, each (size, n, n), of complex Gaussian draws X."""
    return rng.standard_normal((size, n, n)), rng.standard_normal((size, n, n))


# Entries of each part per transposing copy, which then stays in cache.  The
# kernel runs on blocks of block_rows(n) draws (2^18 entries, 4096 draws at
# n = 8), so the batch of every streaming caller takes one pass: large enough
# that each of its numpy calls spans many draws, small enough that its rows
# stay in cache.  The last copy of a block may be short; past n = 128, where
# a copy holds one draw, a block is _MIN_COPIES copies.
_COPY_ENTRIES = 1 << 14
_MIN_COPIES = 16


def _gram_parts(a: np.ndarray, b: np.ndarray, w_re: np.ndarray, w_im: np.ndarray) -> None:
    """Real and imaginary parts of W = X^dag X, component-major, for X = a + i b.

    ``a[j, i]`` and ``b[j, i]`` hold Re X[j, i] and Im X[j, i] of every draw
    (shape (n, n, size)), and ``w_re[i, k]`` and ``w_im[i, k]`` receive those
    of W[i, k].  Each upper entry sums, j ascending from zero, the terms
    Re: a_ji a_jk + b_ji b_jk and Im: a_ji b_jk - b_ji a_jk, in the
    order and rounding of the complex sum of products conj(X[j, i]) X[j, k]
    that einsum takes.  The lower triangle is the exact conjugate.
    """
    n, _, size = a.shape
    w_re.fill(0.0)
    w_im.fill(0.0)
    p, q = np.empty((n, size)), np.empty((n, size))
    for i in range(n):
        # row i: Re over columns k >= i (ge); Im over k > i (gt), its
        # diagonal being +0.0
        p_re, q_re, p_im, q_im = p[i:], q[i:], p[i + 1 :], q[i + 1 :]
        re_row, im_row = w_re[i, i:], w_im[i, i + 1 :]
        a_ge, b_ge, a_gt, b_gt = a[:, i:], b[:, i:], a[:, i + 1 :], b[:, i + 1 :]
        for j in range(n):
            a_ji, b_ji = a[j, i], b[j, i]
            np.multiply(a_ji, a_ge[j], out=p_re)
            np.multiply(b_ji, b_ge[j], out=q_re)
            p_re += q_re
            re_row += p_re
            np.multiply(a_ji, b_gt[j], out=p_im)
            np.multiply(b_ji, a_gt[j], out=q_im)
            p_im -= q_im
            im_row += p_im
    for i in range(n - 1):
        w_re[i + 1 :, i] = w_re[i, i + 1 :]
        # 0 - x, not -x: where the sum is +0.0 the lower entry is +0.0 too
        np.subtract(0.0, w_im[i, i + 1 :], out=w_im[i + 1 :, i])


def _normalized_gram(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """X^dag X / tr(X^dag X) for each X = re + i im of the stack.

    Each block of draws is copied component-major and its result is written
    back through the same axis order.  The block's copies live in its rows
    of the result, which the write-back then replaces, and its sums in its
    rows of ``re`` and ``im``, which are used up.  The only fresh memory is
    then the result and two (n, block) scratch arrays: the first touch of
    each fresh page costs a fault, and with separate buffers the faults took
    most of a call's time at n <= 3.
    """
    size, n, _ = re.shape
    step = max(1, _COPY_ENTRIES // (n * n))
    block = max(block_rows(n), _MIN_COPIES * step)
    out = np.empty((size, n, n), dtype=complex)
    for start in range(0, size, block):
        count = min(block, size - start)
        part = slice(start, start + count)
        a_blk, b_blk = out[part].view(float).reshape(2, n, n, count)
        copies = [(lo, min(lo + step, count)) for lo in range(0, count, step)]
        for lo, hi in copies:
            drawn = slice(start + lo, start + hi)
            a_blk[..., lo:hi] = re[drawn].transpose(1, 2, 0)
            b_blk[..., lo:hi] = im[drawn].transpose(1, 2, 0)
        w_re, w_im = re[part].reshape(n, n, count), im[part].reshape(n, n, count)
        _gram_parts(a_blk, b_blk, w_re, w_im)
        # a zero trace needs every one of at least 8 Gaussian entries to be 0.0
        trace = w_re[0, 0].copy()
        for i in range(1, n):
            trace += w_re[i, i]
        # numpy divides a complex number by a real one (trace + 0j) by
        # multiplying both parts by its reciprocal
        w_re *= np.divide(1.0, trace, out=trace)
        w_im *= trace
        for lo, hi in copies:
            dest = out[start + lo : start + hi].transpose(1, 2, 0)
            dest.real = w_re[..., lo:hi]
            dest.imag = w_im[..., lo:hi]
    return out


def _normalized_row_gram(x: np.ndarray) -> np.ndarray:
    """A A^T / tr(A A^T) for each real A of the stack ``x`` (shape (size, n, m)).

    Each entry is one contiguous dot of two rows, by the einsum kernel that
    a contraction over contiguous rows takes; the lower triangle is a copy.
    """
    size, n, _ = x.shape
    w = np.empty((size, n, n))
    for i in range(n):
        np.einsum("sj,skj->sk", x[:, i], x[:, i:], out=w[:, i, i:])
        w[:, i + 1 :, i] = w[:, i, i + 1 :]
    # a zero trace needs every one of at least 6 Gaussian entries to be 0.0
    trace = w[:, 0, 0].copy()
    for i in range(1, n):
        trace += w[:, i, i]
    w /= trace[:, None, None]
    return w


def sample_hs_batch(n: int, field: str, rng: np.random.Generator, size: int) -> np.ndarray:
    """Batch of HS-distributed density matrices, shape (size, n, n).

    Parameters
    ----------
    n : matrix size, >= 2.
    field : 'complex' for Hermitian matrices, 'real' for real symmetric.
    rng : generator from ``make_rng`` (or any numpy Generator).
    size : number of samples, >= 0.
    """
    _check_request(n, field, size)
    if field == "real":
        # X^T X = A A^T for the N x (N+1) matrix A
        return _normalized_row_gram(rng.standard_normal((size, n, n + 1)))
    return _normalized_gram(*_ginibre(n, rng, size))


def sample_pure_partial_trace_batch(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """HS samples via partial trace of random pure states of an n x n system.

    Tracing out the second factor of the pure state with coefficient matrix
    X^dag leaves X^dag X: these are the complex ``sample_hs_batch`` draws.
    """
    return sample_hs_batch(n, "complex", rng, size)


def eigvals_hermitian(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian (or stacked Hermitian) matrix, nonincreasing.

    Raises if the input deviates from Hermiticity by more than
    ``HERMITICITY_TOL`` (absolute, entrywise).
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {h.shape}")
    defect = np.abs(h - np.conj(np.swapaxes(h, -1, -2))).max(initial=0.0)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian to {HERMITICITY_TOL:g} (defect {defect:g})")
    return np.linalg.eigvalsh(h)[..., ::-1]


@lru_cache(maxsize=None)
def gell_mann_basis(n: int) -> np.ndarray:
    """Orthonormal traceless Hermitian basis, shape (n^2 - 1, n, n).

    Normalized so tr(b_i b_j) = delta_ij; for n = 2 these are the Pauli
    matrices divided by sqrt(2).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    d = n * n - 1
    basis = np.zeros((d, n, n), dtype=complex)
    idx = 0
    for j in range(n):
        for k in range(j + 1, n):
            basis[idx, j, k] = basis[idx, k, j] = 1 / np.sqrt(2)
            idx += 1
    for j in range(n):
        for k in range(j + 1, n):
            basis[idx, j, k] = -1j / np.sqrt(2)
            basis[idx, k, j] = 1j / np.sqrt(2)
            idx += 1
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1
        diag[l] = -l
        basis[idx, np.arange(n), np.arange(n)] = diag / np.sqrt(l * (l + 1))
        idx += 1
    basis.setflags(write=False)
    return basis

