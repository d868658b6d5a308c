"""Random density matrices distributed by the Hilbert-Schmidt measure.

Two equivalent batch constructions are provided: projecting a Ginibre
matrix (``sample_hs_batch``, which the CLI and the checks draw through) and
partial-tracing a random pure state of a doubled system.  The
real-symmetric ensemble uses an N x (N+1) Gaussian matrix, which is the
rectangular shape whose Wishart exponent vanishes and reproduces the linear
eigenvalue repulsion of the real HS measure; this choice is validated
statistically in the verify module rather than assumed.

Randomness comes from numpy's Philox counter-based generator keyed by
``(seed, stream)``, so independent streams for parallel chunks are cheap
and draws are reproducible regardless of thread count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "make_rng",
    "sample_hs_batch",
    "sample_pure_partial_trace_batch",
    "eigvals_hermitian",
    "gell_mann_basis",
]

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for the given (seed, stream) pair.

    Distinct streams are statistically independent, so parallel workers can
    each take one stream without coordination.
    """
    if not (0 <= seed < 1 << 64 and 0 <= stream < 1 << 64):
        # Philox keys are 64-bit words: a larger value would alias a smaller one
        raise ValueError("seed and stream must be nonnegative and below 2**64")
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _ginibre(n: int, field: str, rng: np.random.Generator, size: int) -> np.ndarray:
    """Gaussian draws X whose Gram matrices X^dag X are the unnormalized states."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if field == "complex":
        return rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    if field == "real":
        # X^T X = A A^T for the N x (N+1) matrix A
        return rng.standard_normal((size, n, n + 1)).swapaxes(1, 2)
    raise ValueError(f"field must be 'complex' or 'real', got {field!r}")


def _normalized_gram(x: np.ndarray) -> np.ndarray:
    """X^dag X / tr(X^dag X) for each X of the stack ``x``."""
    # a zero trace needs every one of at least 6 Gaussian entries to be 0.0
    w = np.einsum("sji,sjk->sik", x.conj(), x)
    return w / np.einsum("sii->s", w).real[:, None, None]


def sample_hs_batch(n: int, field: str, rng: np.random.Generator, size: int) -> np.ndarray:
    """Batch of HS-distributed density matrices, shape (size, n, n).

    Parameters
    ----------
    n : matrix size, >= 2.
    field : 'complex' for Hermitian matrices, 'real' for real symmetric.
    rng : generator from ``make_rng`` (or any numpy Generator).
    size : number of samples.
    """
    return _normalized_gram(_ginibre(n, field, rng, size))


def sample_pure_partial_trace_batch(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """HS samples via partial trace of random pure states of an n x n system."""
    # A Haar-random unit vector in C^(n^2), reshaped to an n x n matrix C; the
    # norm cancels in the trace division so the Gaussian need not be
    # normalized.  Tracing out the second factor gives C C^dag, the Gram
    # matrix of X = C^dag.
    return _normalized_gram(_ginibre(n, "complex", rng, size).conj().swapaxes(1, 2))


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

