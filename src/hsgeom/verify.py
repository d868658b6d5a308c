"""Monte Carlo cross-checks of the exact formulas.

Each check ties one side of the package to the other: sampled spectra
against the closed-form eigenvalue densities (binned by their CDFs, with a
closed-form chi-square tail: numpy is the only dependency), simplex
integrals against the exact normalization constants, and uniform points
of the radius-R_N coherence-vector ball against the exact volume ratio.
Every check draws through one path, ``_map_chunks``: one Philox stream per
chunk, chunks run serially or on a thread pool, and each returns a small
fixed-shape record, merged in chunk order, so results are bit-identical for
any worker count.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .constants import log_c_norm
from .exactnum import Record, as_integer, exact_sqrt
from .groups import ball_volume
from .mixedstates import StateSpace, vol_mixed
from .sampling import (
    POSITIVITY_TOL,
    block_rows,
    gell_mann_basis,
    make_rng,
    sample_hs_batch,
)

__all__ = [
    "MCEstimate",
    "mc_norm_constant",
    "mc_purity",
    "mc_hit_or_miss_fraction",
    "spectral_fit_test",
    "check_norm_constant",
    "check_purity",
    "check_hit_or_miss",
    "check_spectral",
    "purity_oracle",
    "run_suite",
    "SUITES",
]


class MCEstimate(Record):
    __slots__ = ("mean", "stderr", "n_samples", "seed", "chunks")


# Rows per hit-or-miss block.  A chunk draws, scales and tests one block at
# a time, so it holds one block whatever its size; the positivity test's
# matrix entries and elimination temporaries stay within a 2 MB L2 cache up
# to n = 5.  Purity and spectral chunks draw HS states in blocks of
# ``block_rows(n)`` matrices, the budget of ``hsgeom sample``.
_BLOCK = 4096
# The norm check's blocks of lattice points or Dirichlet draws, so a
# Dirichlet chunk holds one block.  Each Dirichlet block is one
# Generator.dirichlet call: at 4096 rows Dirichlet rows ran about 10% slower
# on two workers than with one call per chunk, and at 16384 rows they do not.
# The unshifted lattice is built, and cached, one block at a time
# (``_lattice_block``); lattice rows run on one thread (``_on_lattice``).
# The block size sets the order of the sums, so a report's bytes depend on it.
_NORM_BLOCK = 16384
# A check passes when its estimate lies within this many stderrs of its expectation.
_GATE = 3.0
# Equiprobable bins of the spectral chi-square fit
_BINS = 20


def _check_draws(n_samples: int, seed: int, chunks: int, workers: int) -> None:
    """Refuse a sample, chunk or worker count or a seed that no estimator can run."""
    if n_samples <= 0 or chunks <= 0 or workers <= 0:
        raise ValueError("n_samples, chunks and workers must be positive")
    if n_samples % chunks:
        raise ValueError(f"n_samples={n_samples} must be divisible by chunks={chunks}")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed and stream must be nonnegative and below 2**64")
    as_integer(seed, "seed")


def _blocks(size: int, rows: int):
    """The row counts of ``size`` rows taken ``rows`` at a time, the last one short."""
    return (min(rows, size - start) for start in range(0, size, rows))


def _map_chunks(chunk_fn, n_samples: int, seed: int, chunks: int, workers: int) -> list:
    """Each chunk's record ``chunk_fn(make_rng(seed, chunk), n_samples // chunks)``, in chunk order.

    Merging these small fixed-shape records in that order is what makes
    every estimate independent of ``workers``.
    """
    _check_draws(n_samples, seed, chunks, workers)
    size = n_samples // chunks

    def one(stream: int):
        return chunk_fn(make_rng(seed, stream), size)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, range(chunks)))
    return [one(i) for i in range(chunks)]


def mc_purity(
    n: int, field: str, n_samples: int, seed: int, chunks: int = 10, workers: int = 1
) -> MCEstimate:
    """Mean purity tr(rho^2) of HS-distributed states; a chunk's record is (sum p, sum p^2).

    A chunk draws ``block_rows(n)`` states at a time and adds each block's
    sums to its record, so it holds one block whatever its size.
    """

    n_samples = as_integer(n_samples, "n_samples")

    def record(rng: np.random.Generator, size: int) -> tuple[float, float]:
        total = total_sq = 0.0
        for rows in _blocks(size, block_rows(n)):
            rho = sample_hs_batch(n, field, rng, rows)
            purity = np.einsum("sij,sij->s", rho, rho.conj()).real
            total += float(purity.sum())
            total_sq += float(np.square(purity).sum())
        return total, total_sq

    records = _map_chunks(record, n_samples, seed, chunks, workers)
    total = math.fsum(s for s, _ in records)
    total_sq = math.fsum(ss for _, ss in records)
    mean = total / n_samples
    var = max(total_sq - n_samples * mean * mean, 0.0) / (n_samples - 1) if n_samples > 1 else 0.0
    return MCEstimate(mean, math.sqrt(var / n_samples), n_samples, seed, chunks)


@lru_cache(maxsize=None)
def _entry_terms(n: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int, float], ...]]:
    """The nonzero terms of the map from coherence vectors to matrix entries.

    Row r < n^2 of the map gives the real part of entry r of the row-major
    matrix and row n^2 + r its imaginary part; column i is the coordinate
    along the basis matrix b_i.  Returned are each row's first term (its
    column, and its coefficient, 0 for a row with no term) and the later
    terms (row, column, coefficient) in row-major order.  In the Gell-Mann
    basis every off-diagonal part is one coordinate times +-1/sqrt(2); only
    the diagonal, a sum over the n - 1 diagonal generators, has later terms.
    """
    d = n * n - 1
    basis = gell_mann_basis(n).reshape(d, n * n)
    entries = np.concatenate([basis.real.T, basis.imag.T])  # (2 n^2, d)
    first = np.argmax(entries != 0, axis=1)
    coefs = entries[np.arange(2 * n * n), first, None]
    later = tuple((r, c, entries[r, c]) for r, c in zip(*np.nonzero(entries)) if c != first[r])
    first.setflags(write=False)  # cached: shared by every caller
    coefs.setflags(write=False)
    return first, coefs, later


def _is_state(tau: np.ndarray) -> np.ndarray:
    """Which rows of ``tau`` (shape (rows, n^2 - 1)) are coherence vectors of states.

    A row is a hit iff I/n + sum_i tau_i b_i + POSITIVITY_TOL * I is positive
    definite, i.e. iff its smallest eigenvalue is > -POSITIVITY_TOL.  That
    holds iff every pivot of the LDL^H (Schur-complement) elimination is
    positive, which costs no eigensolver.  The index map ``_entry_terms``
    builds the real and imaginary parts of the matrix entries of the rows,
    one contiguous row per entry, by elementwise products and sums in the
    order a dot product takes them, with no matrix product; the elimination
    then runs across the rows, and its memory grows with them: callers pass
    one block.
    """
    rows, d = tau.shape
    n = math.isqrt(d + 1)
    first, coefs, later = _entry_terms(n)
    diag = np.arange(n)
    coords = np.ascontiguousarray(tau.T)  # (d, rows)
    entries = coords[first]
    entries *= coefs
    for row, col, coef in later:
        entries[row] += coef * coords[col]
    re, im = entries.reshape(2, n, n, -1)
    re[diag, diag] += 1.0 / n + POSITIVITY_TOL
    hits = np.ones(rows, dtype=bool)
    # a draw whose pivot is <= 0 is already a miss, so a zero division or
    # overflow in its later, discarded pivots is harmless
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p in range(n):
            hits &= re[p, p] > 0
            # A[j,k] -= conj(A[p,j]) A[p,k] / A[p,p] on the trailing block's
            # upper triangle, the only part later pivots read
            yr, yi = re[p, p + 1 :], im[p, p + 1 :]
            xr, xi = yr / re[p, p], yi / re[p, p]
            for a, j in enumerate(range(p + 1, n)):
                re[j, j:] -= xr[a] * yr[a:] + xi[a] * yi[a:]
                im[j, j + 1 :] -= xr[a] * yi[a + 1 :] - xi[a] * yr[a + 1 :]
    return hits


def _hit_fraction(n: int) -> float:
    """The fraction of the radius-R_N ball that the complex N x N states fill."""
    space = StateSpace(n, "complex")
    d = space.dim
    ball = ball_volume(d) * exact_sqrt(Fraction(n - 1, n)).pow_int(d)
    return (vol_mixed(space) / ball).to_float()


def _hit_or_miss_p0(n: int, n_samples: int) -> float:
    """The exact hit fraction p0 at n, refusing a count at which no hit would pass.

    No hit lies sqrt(N p0 / (1 - p0)) binomial stderrs below p0, within the
    gate while N p0 <= _GATE**2 (1 - p0).  Such a check could not tell the
    state space from one of zero volume, so it is refused before any draw.
    """
    p = _hit_fraction(n)
    if not p:
        raise ValueError(f"the hit-or-miss fraction at n={n} underflows to 0.0")
    if not 0 < p <= 1:  # a faulty exact volume: its binomial stderr would be undefined
        raise ValueError(f"the hit-or-miss fraction at n={n} is p0={p!r}, outside (0, 1]")
    least = math.floor(_GATE**2 * (1 - p) / p) + 1
    if 0 < n_samples < least:  # _check_draws refuses a count below 1
        raise ValueError(
            f"hit-or-miss at n={n} passes on zero hits with {n_samples} samples; "
            f"it needs at least {least}"
        )
    return p


def _hit_or_miss_chunk(n: int, rng: np.random.Generator, size: int) -> int:
    """How many of ``size`` uniform points of the radius-R_N ball are states.

    One _BLOCK of rows at a time, the block's normals and then its uniforms
    are drawn, in stream order, scaled onto the ball in place and tested
    while in cache, so a chunk holds one block whatever its size.
    """
    d = n * n - 1
    radius = math.sqrt((n - 1) / n)
    hits = 0
    for rows in _blocks(size, _BLOCK):
        block = rng.standard_normal((rows, d))
        block *= (radius * rng.random(rows) ** (1.0 / d) / np.linalg.norm(block, axis=1))[:, None]
        hits += int(np.count_nonzero(_is_state(block)))
    return hits


def mc_hit_or_miss_fraction(
    n: int,
    n_samples: int,
    seed: int,
    chunks: int = 10,
    workers: int = 1,
) -> MCEstimate:
    """Fraction of points of the radius-R_N coherence-vector ball that are states.

    The expected value is the exact volume of the state space divided by the
    volume of that ball, and the stderr is the binomial one at that exact
    fraction: the plug-in one, from the hits, is 0 with no hit and far too
    small with one (9 sigmas at n = 4 with 10 hits expected).  A count at
    which a run with no hit would pass is refused before the first draw.
    """
    n_samples = as_integer(n_samples, "n_samples")
    p = _hit_or_miss_p0(n, n_samples)  # refuses n < 2 before any draw
    hits = sum(_map_chunks(partial(_hit_or_miss_chunk, n), n_samples, seed, chunks, workers))
    return MCEstimate(hits / n_samples, math.sqrt(p * (1 - p) / n_samples), n_samples, seed, chunks)


# -- normalization constants --------------------------------------------------


def _check_dirichlet(n: int, alpha, beta) -> float:
    """log(1/C_n^(alpha, beta)), refusing alpha < 0.1 at n >= 3 and a 1/C off the normal doubles.

    Below alpha = 0.1 numpy's Generator.dirichlet breaks sticks and returns
    exact zeros (two of three in 16% of rows at alpha = 0.01).  Such a pair
    gets weight 0 where gap^beta is not small for small beta, so the
    estimate is biased low.  At n = 2 at most one component is 0.  Below
    the normal range (1/C_16^(1,2) ~ 1e-337) the estimate underflows too,
    and would pass on 0 == 0.
    """
    alpha = float(alpha)
    log_inverse = -log_c_norm(n, alpha, float(beta))  # refuses n < 1 and alpha or beta <= 0
    if n >= 3 and alpha < 0.1:
        raise ValueError(
            f"the norm check needs alpha >= 0.1 for n >= 3, got alpha={alpha}: "
            "numpy's Dirichlet sampler returns exact zeros below it"
        )
    if not math.log(sys.float_info.min) <= log_inverse <= math.log(sys.float_info.max):
        raise ValueError(f"the norm check needs a normal double 1/C, got e^{log_inverse:.6g}")
    return log_inverse


# Korobov multipliers tried per generating vector
_CANDIDATES = 100
# Replicates per row, and the relative rounding floor of the stderr per
# unit of the largest log-Gamma term of log C (see mc_norm_constant).
_REPLICATES = 40
_FLOOR = 1e-14
# the m-th roots that stick-breaking takes for m >= 2 at n <= 4
_ROOTS = {2: np.sqrt, 3: np.cbrt}


@lru_cache(maxsize=None)
def korobov_vector(points: int, dim: int) -> tuple[int, ...]:
    """The Korobov generating vector (1, a, a^2, ...) mod ``points`` in ``dim`` dimensions.

    a is the best, under the P_2 criterion of Sloan & Joe, of up to
    _CANDIDATES integers coprime to ``points``, spread evenly over
    2..points/2 (a and points - a give mirrored lattices); with none, a = 1.
    P_2 + 1 is the mean over the lattice points x of
    prod_k (1 + 2 pi^2 B_2(x_k)), B_2(t) = t^2 - t + 1/6, and P_2 is the
    squared worst-case error of the rule for periodic
    integrands with square-integrable mixed second derivatives.  The sums
    run one block of points at a time, in a fixed order, so the vector
    depends on nothing but the arguments.
    """
    candidates = []
    for j in range(_CANDIDATES if dim > 1 else 0):
        a = 2 + (points // 2 - 2) * j // _CANDIDATES
        while math.gcd(a, points) != 1:
            a += 1
        if a <= points // 2 and a not in candidates:
            candidates.append(a)
    if not candidates:
        return (1,) * dim
    scores = [0.0] * len(candidates)
    for start in range(0, points, _NORM_BLOCK):
        index = np.arange(start, min(start + _NORM_BLOCK, points))
        first, factor, residues = _p2_factor(index, points), np.empty(len(index)), index.copy()
        for c, a in enumerate(candidates):
            kernel = first.copy()
            residues[:] = index
            for _ in range(1, dim):  # i a^k mod points, exact in int64 below 3e9 points
                np.remainder(np.multiply(residues, a, out=residues), points, out=residues)
                kernel *= _p2_factor(residues, points, out=factor)
            scores[c] += float(kernel.sum())
    a = candidates[scores.index(min(scores))]
    return tuple(pow(a, k, points) for k in range(dim))


def _p2_factor(residues: np.ndarray, points: int, out: np.ndarray | None = None) -> np.ndarray:
    """1 + 2 pi^2 B_2(r / points) = 2 pi^2 (r / points - 1/2)^2 + 1 - pi^2/6 for each residue r."""
    y = np.multiply(residues, math.sqrt(2) * math.pi / points, out=out)
    y -= math.pi / math.sqrt(2)
    y *= y
    y += 1 - math.pi**2 / 6
    return y


def accumulate(top: float, total: float, log_w: np.ndarray) -> tuple[float, float]:
    """The sum exp(top) * total, started at (-inf, 0.0), plus the weights of logs ``log_w``.

    The sum is scaled by its largest log so far, so no weight underflows.
    ``log_w`` is overwritten.  A block of weights 0 (logs -inf) leaves the
    sum as it is: exp(-inf - -inf) is nan.
    """
    peak = float(log_w.max())
    if peak == -math.inf:
        return top, total
    if peak > top:
        total *= math.exp(top - peak)
        top = peak
    log_w -= top
    return top, total + float(np.exp(log_w, out=log_w).sum())


def _on_lattice(n: int, alpha: float) -> bool:
    """Whether a norm row takes shifted lattice points, not Dirichlet draws.

    Such a row also runs its chunks on the calling thread at any worker
    count: each block of each shift is about 30 numpy calls of 5-25 us, and
    two threads spent their time handing the interpreter lock to each other
    at every call (the twelve default lattice rows ran slower on two
    workers than on one).  A Dirichlet block is one long
    Generator.dirichlet call, which does scale on threads.
    """
    return 2 <= n <= 4 and alpha >= 1


# Unshifted lattice blocks kept: the three dimensions of the default norm
# rows, two blocks each (25 000 points a replicate), of at most
# 3 * _NORM_BLOCK doubles (384 KiB) an entry.
_LATTICE_BLOCKS = 8


@lru_cache(maxsize=_LATTICE_BLOCKS)
def _lattice_block(points: int, dim: int, start: int) -> np.ndarray:
    """2 (i z mod points) / points - 2, in [-2, 0), for the block of points i from ``start``.

    Shape (dim, rows), with z = korobov_vector(points, dim).  The block is
    the same for every shift, chunk and (alpha, beta) row at these
    arguments, so it is built once and shared, read-only.
    """
    index = np.arange(start, min(start + _NORM_BLOCK, points))
    doubled = np.empty((dim, len(index)))
    for k, zk in enumerate(korobov_vector(points, dim)):  # exact in int64 below 3e9 points
        np.multiply(index * zk % points, 2 / points, out=doubled[k])
    doubled -= 2
    doubled.setflags(write=False)
    return doubled


def shifted_means(n: int, alpha: float, beta: float, points: int, shifts: np.ndarray) -> list[float]:
    """Mean of prod L^(alpha-1) |L_i - L_j|^beta / (n-1)! over ``points`` lattice points, per shift.

    Point i of the rank-1 lattice in [0, 1)^(n-1), shifted by a row of
    ``shifts``, is x = frac(i z / points + shift) for the generating vector
    z.  The tent transform folds each coordinate to u = 1 - |2x - 1|, and
    stick-breaking with Beta(1, m) steps, m = n-1 .. 1, maps the folded point
    to the uniform simplex: step k leaves c_k = (1 - u_k)^(1/m) of the stick
    (1 - c_k is the inverse Beta(1, m) CDF of u_k), so with Q_k the product
    of the first k of them, L_k = Q_k - Q_{k+1} and the last L is what is
    left.  The uniform law on the simplex has density (n-1)!, hence that
    divisor.  Each block of the unshifted lattice comes from the shared
    ``_lattice_block`` and serves every shift in turn; weights are built as
    logs and summed by ``accumulate``, one sum per shift.
    """
    if not len(shifts):
        return []
    d = n - 1
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tops, totals = [-math.inf] * len(shifts), [0.0] * len(shifts)
    work = np.empty((n + 2, min(points, _NORM_BLOCK)))  # the eigenvalues, then two rows of logs
    # a point with two equal eigenvalues, or (alpha > 1) a zero one, has weight 0, log -inf
    with np.errstate(divide="ignore"):
        for start in range(0, points, _NORM_BLOCK):
            doubled = _lattice_block(points, d, start)
            rows = doubled.shape[1]
            lam, log_w, gap = work[:n, :rows], work[n, :rows], work[n + 1, :rows]
            c = lam[1:]
            for s, shift in enumerate(shifts):
                # 1 - u = |2 frac(x) - 1| = ||2x - 2| - 1| for x = doubled / 2 + 1 + shift in [0, 2)
                np.abs(np.add(doubled, 2 * shift[:, None], out=c), out=c)
                c -= 1
                np.abs(c, out=c)
                for k in range(d - 1):
                    _ROOTS[d - k](c[k], out=c[k])
                # lam[k] = Q_k, the product of c_0 .. c_(k-1), then L_k = Q_k - Q_(k+1)
                for k in range(1, d):
                    c[k] *= c[k - 1]
                lam[0] = 1
                for k in range(d):
                    lam[k] -= lam[k + 1]
                np.subtract(lam[0], lam[1], out=log_w)
                for i, j in pairs[1:]:
                    log_w *= np.subtract(lam[i], lam[j], out=gap)
                np.log(np.abs(log_w, out=log_w), out=log_w)
                log_w *= beta
                if alpha != 1:
                    np.log(lam.prod(axis=0, out=gap), out=gap)
                    gap *= alpha - 1
                    log_w += gap
                tops[s], totals[s] = accumulate(tops[s], totals[s], log_w)
    scale = points * math.factorial(d)
    return [math.exp(top) * total / scale for top, total in zip(tops, totals)]


def dirichlet_mean(
    n: int, alpha: float, beta: float, rng: np.random.Generator, points: int
) -> float:
    """Mean of prod |L_i - L_j|^beta / D(L) over ``points`` Dirichlet(alpha, ..., alpha) draws L.

    The density D = Gamma(n alpha)/Gamma(alpha)^n prod L^(alpha-1) matches
    the prod L^(alpha-1) of the target, so only the repulsion product is
    left, built as logs: its product underflows at large n.  Drawn
    _NORM_BLOCK rows at a time, the stream gives the numbers one call gives.
    """
    log_const = math.lgamma(n * alpha) - n * math.lgamma(alpha)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    top, total = -math.inf, 0.0
    log_w, gap = np.empty((2, min(points, _NORM_BLOCK)))
    # a repeated eigenvalue has weight 0, log -inf
    with np.errstate(divide="ignore"):
        for start in range(0, points, _NORM_BLOCK):
            rows = min(_NORM_BLOCK, points - start)
            lam = rng.dirichlet([alpha] * n, rows).T  # (n, rows)
            logs, part = log_w[:rows], gap[:rows]
            logs[:] = 0
            for i, j in pairs:
                logs += np.log(np.abs(np.subtract(lam[i], lam[j], out=part), out=part), out=part)
            logs *= beta
            logs -= log_const
            top, total = accumulate(top, total, logs)
            del lam  # before the next block is drawn
    return math.exp(top) * total / points


def replicates(
    n: int, alpha: float, beta: float, most: int, rng: np.random.Generator, size: int
) -> list[float]:
    """One chunk's replicate means: ``size`` points over min(most, size) replicates.

    The first size % count replicates take one point more than the rest.  A
    lattice chunk draws its shifts first, in one call, and no other random
    numbers; a Dirichlet chunk takes its draws in stream order.
    """
    count = min(most, size)
    points, extra = divmod(size, count)
    if _on_lattice(n, alpha):
        deltas = rng.random((count, n - 1))
        return [
            *shifted_means(n, alpha, beta, points + 1, deltas[:extra]),
            *shifted_means(n, alpha, beta, points, deltas[extra:]),
        ]
    return [dirichlet_mean(n, alpha, beta, rng, points + (r < extra)) for r in range(count)]


def mc_norm_constant(
    n: int, alpha: float, beta: float, n_samples: int, seed: int, chunks: int = 10, workers: int = 1
) -> MCEstimate:
    """Estimate of 1/C_n^(alpha, beta): exactly 1 +- 0 at n = 1, else the mean of replicate means.

    The points of a replicate are those of a randomly shifted rank-1 lattice
    rule (Cranley & Patterson 1976; Sloan & Joe, Lattice Methods for
    Multiple Integration, 1994) at 2 <= n <= 4 and alpha >= 1, and
    Dirichlet(alpha) draws elsewhere: below alpha = 1 the weight
    L^(alpha-1) of a lattice point is unbounded (of infinite variance at
    alpha <= 1/2), and from n = 5 on the lattice gained a variance ratio of
    only 9 (n = 5) and 1 (n = 6) over Dirichlet draws.  The Dirichlet
    variance grows quickly with n: at (alpha, beta) = (1, 2) and 10^5 draws
    the Kish effective sample size is about 15 000 at n = 4, 800 at n = 8
    and 180 at n = 10, so beyond n ~ 8 a few heavy weights carry the row.

    Each chunk of ``_map_chunks`` splits its points over
    ceil(_REPLICATES / chunks) replicates (``replicates``) and returns their
    means, so an estimate does not depend on the worker count (lattice rows
    run their chunks on the calling thread, ``_on_lattice``), and a row has
    R >= 40 replicate means m_r whenever it has that many points, each an
    unbiased estimate.  The estimate is their mean m, and the stderr their
    spread sqrt(sum (m_r - m)^2 / (R (R - 1))), which has R - 1 degrees of
    freedom: at R = 40 the 3-sigma gate fails a true row about 0.5% of the
    time (Student t), not the normal 0.27%.  The deviations are taken
    relative to m, as their squares underflow at 1/C ~ 1e-183.

    At n = 2 and (alpha, beta) = (1, 1) or (3, 2) the spread is about 1e-16
    of m, the rounding level, where it no longer bounds the error; so it is
    combined in quadrature with a floor: _FLOOR times
    max(1, lgamma(n alpha + beta n (n-1) / 2)), the largest log-Gamma term of
    log C, whose rounding sets the error of the expectation
    exp(-log_c_norm).  Against the exact c_norm, that error is at most 2
    eps times the same factor (eps = 2^-52) at n = 2, 3 and 4, every
    half-integer alpha and beta = 1 and 2 that the normal-double refusal
    admits; the floor is 45 eps times it.
    """
    n_samples = as_integer(n_samples, "n_samples")
    _check_dirichlet(n, alpha, beta)
    _check_draws(n_samples, seed, chunks, workers)
    if n == 1:
        return MCEstimate(1.0, 0.0, n_samples, seed, chunks)
    chunk = partial(replicates, n, alpha, beta, math.ceil(_REPLICATES / chunks))
    records = _map_chunks(chunk, n_samples, seed, chunks, 1 if _on_lattice(n, alpha) else workers)
    means = np.array([m for record in records for m in record])
    count = len(means)
    mean = math.fsum(means) / count
    deviations = means / mean - 1 if mean else means
    spread = math.sqrt(math.fsum(deviations**2) / (count * (count - 1))) if count > 1 else 0.0
    floor = _FLOOR * max(1.0, math.lgamma(n * alpha + beta * n * (n - 1) / 2))
    return MCEstimate(mean, mean * math.hypot(spread, floor), n_samples, seed, chunks)


# -- spectral goodness of fit -------------------------------------------------


def _max_eigenvalue_cdf_n3(t) -> np.ndarray:
    """P(max eigenvalue <= t) for the complex n=3 density, for t in [1/3, 1].

    Integrating C_3^(1,2) = 1680 times the squared Vandermonde over the part
    of the simplex where every eigenvalue is <= t gives a polynomial on each
    side of t = 1/2, where the region changes shape.
    """
    t = np.asarray(t, dtype=float)
    low = (3 * t - 1) ** 8
    high = 1 - 3 * (1 - t) ** 4 * ((((309 * t - 228) * t + 62) * t - 4) * t + 1)
    return np.where(t <= 0.5, low, high)


# (n, field) -> CDF of the largest eigenvalue under the HS measure: on
# [1/2, 1] it is (2t-1)^3 for the complex and (2t-1)^2 for the real qubit
_TOP_EIGENVALUE_CDF = {
    (2, "complex"): lambda t: (2 * t - 1) ** 3,
    (2, "real"): lambda t: (2 * t - 1) ** 2,
    (3, "complex"): _max_eigenvalue_cdf_n3,
}


def _top_eigenvalue(rho: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each 2 x 2 or 3 x 3 Hermitian matrix in ``rho``, from its entries.

    With diagonal a, b, c and off-diagonal u = A_01, v = A_02, w = A_12:
    n = 2: (a + b)/2 + hypot((a - b)/2, |u|).  n = 3: Smith's root
    q + 2p cos(arccos(r)/3), where A = qI + pB with tr B = 0, tr B^2 = 6 and
    r = det(B)/2 (O. K. Smith, "Eigenvalues of a symmetric 3x3 matrix",
    Commun. ACM 4 (1961) 168).  Where r < 0 the top two eigenvalues are the
    closer pair, and that root loses half its digits as they meet (5e-9 at
    a doubly degenerate top).  There the bottom root lo is simple and well
    conditioned: M = A - lo I has eigenvalues 0 (eigenvector u, with
    u u^H = adj M / tr adj M) and m +- g on the complement of u, where
    m = tr M / 2, so g^2 = ||M - m(I - u u^H)||_F^2 / 2 is a sum of squares
    with no cancellation.  The top, which lies in [q + p, q + sqrt(3) p]
    when r < 0, is then lo + m + g, clipped to that range where p is at the
    rounding level of A and M is noise.
    """
    a, b, u = rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1]
    if rho.shape[-1] == 2:
        return (a + b) / 2 + np.hypot((a - b) / 2, np.abs(u))
    c, v, w = rho[:, 2, 2].real, rho[:, 0, 2], rho[:, 1, 2]
    uu, vv, ww = (np.square(z.real) + np.square(z.imag) for z in (u, v, w))
    q = (a + b + c) / 3
    x, y, z = a - q, b - q, c - q
    p = np.sqrt((x * x + y * y + z * z + 2 * (uu + vv + ww)) / 6)
    half_det = (x * y * z - x * ww - y * vv - z * uu) / 2 + (u * w * v.conj()).real
    # A = qI (p = 0, or p^3 below the double range) has every root at q: take r = 1
    cube = p**3
    r = np.clip(np.divide(half_det, cube, out=np.ones_like(p), where=cube > 0), -1, 1)
    phi = np.arccos(r) / 3
    top = q + 2 * p * np.cos(phi)
    lo = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    ma, mb, mc = a - lo, b - lo, c - lo
    adj = (mb * mc - ww, ma * mc - vv, ma * mb - uu)  # diagonal of adj M
    adj_uv, adj_uw, adj_vw = v * w.conj() - u * mc, u * w - v * mb, v * u.conj() - ma * w
    m = (ma + mb + mc) / 2
    trace = sum(adj)
    s = np.divide(m, trace, out=np.zeros_like(m), where=trace > 0)
    g2 = sum(np.square(mi - m + s * ai) for mi, ai in zip((ma, mb, mc), adj))
    for e, f in ((u, adj_uv), (v, adj_uw), (w, adj_vw)):
        k = e + s * f
        g2 += 2 * (np.square(k.real) + np.square(k.imag))
    deflated = np.clip(lo + m + np.sqrt(g2 / 2), q + p, q + math.sqrt(3) * p)
    return np.where(r < 0, deflated, top)


def _reference_cdf(n: int, field: str):
    """The reference CDF of the largest eigenvalue."""
    if (n, field) not in _TOP_EIGENVALUE_CDF:
        raise ValueError(f"no reference spectral marginal for n={n}, field={field!r}")
    return _TOP_EIGENVALUE_CDF[n, field]


def spectral_fit_test(
    n: int, field: str, n_samples: int, seed: int, chunks: int = 10, workers: int = 1
) -> tuple[float, float]:
    """Chi-square fit of sampled top eigenvalues against the reference marginal.

    A top eigenvalue t goes to bin min(floor(F(t) * _BINS), _BINS - 1) of
    its reference CDF F; F(t) is uniform under the reference law, so every
    bin has probability exactly 1/_BINS.  A chunk draws ``block_rows(n)``
    HS states at a time (``sample_hs_batch``), takes each one's top
    eigenvalue from its entries (``_top_eigenvalue``), with no eigensolver,
    and its record is the sum of its blocks' counts.

    Returns (statistic, p_value) with _BINS - 1 degrees of freedom.
    """
    n_samples = as_integer(n_samples, "n_samples")
    # looked up first: a pair with no reference marginal is refused before any draw
    cdf = _reference_cdf(n, field)

    def histogram(rng: np.random.Generator, size: int) -> np.ndarray:
        counts = np.zeros(_BINS, dtype=np.intp)
        for rows in _blocks(size, block_rows(n)):
            u = cdf(_top_eigenvalue(sample_hs_batch(n, field, rng, rows)))
            # clipped first: rounding can put t an ulp outside the CDF's support
            counts += np.bincount(np.clip(u * _BINS, 0, _BINS - 1).astype(np.intp), minlength=_BINS)
        return counts

    counts = sum(_map_chunks(histogram, n_samples, seed, chunks, workers))
    expected = n_samples / _BINS
    statistic = float(((counts - expected) ** 2 / expected).sum())
    return statistic, _chi2_sf(statistic, _BINS - 1)


def _chi2_sf(statistic: float, dof: int) -> float:
    """Upper tail P(X >= statistic) of the chi-square law with integer ``dof`` degrees of freedom."""
    # With h = statistic/2 the tail is e^-h sum_{j<dof/2} h^j/j! for even dof
    # and erfc(sqrt h) + e^-h sum_{j=1}^{(dof-1)/2} h^(j-1/2)/Gamma(j+1/2) for
    # odd dof, each term the last times h/j or h/(j-1/2).  e^-h enters as 2^p
    # equal factors e^(-h/2^p) >= e^-512 (h/2^p is exact), one whenever the
    # running term exceeds 1: no partial product leaves the normal range, so
    # the tail keeps its digits where e^-h alone is subnormal.
    h, odd = statistic / 2, dof % 2
    left = 1 << max(0, math.ceil(h / 512) - 1).bit_length()
    factor, total = math.exp(-h / left), 0.0
    term = 2 * math.sqrt(h / math.pi) if odd else 1.0
    for j in range(dof // 2):
        while left and term > 1:
            term, total, left = term * factor, total * factor, left - 1
        total += term
        term *= h / (j + 1 + odd / 2)
    return odd * math.erfc(math.sqrt(h)) + total * factor**left


# -- named checks with analytic expectations ----------------------------------


def purity_oracle(n: int, field: str) -> Fraction:
    """Mean purity E[tr rho^2] of N x N states under the HS measure.

    These are the induced-measure moments (N + K)/(NK + 1) with K = N for the
    complex field and (N + M + 1)/(NM + 2) with M = N + 1 for the real one
    (Zyczkowski & Sommers, "Induced measures in the space of mixed quantum
    states", J. Phys. A 34 (2001)); the complex n=3 value is confirmed by
    quadrature in the test suite.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if field == "complex":
        return Fraction(2 * n, n * n + 1)
    if field == "real":
        return Fraction(2 * n + 2, n * n + n + 2)
    raise ValueError(f"field must be 'complex' or 'real', got {field!r}")


def _verdict(check: str, expected: float, est: MCEstimate) -> dict:
    if est.stderr > 0:
        sigmas = abs(est.mean - expected) / est.stderr
        ok = sigmas <= _GATE
    else:
        sigmas = 0.0 if est.mean == expected else None
        ok = est.mean == expected
    return {
        "check": check,
        "expected": expected,
        "estimate": est.mean,
        "stderr": est.stderr,
        "sigmas": sigmas,
        "pass": ok,
    }


def check_norm_constant(n, alpha, beta, n_samples, seed, chunks=10, workers=1) -> dict:
    expected = math.exp(_check_dirichlet(n, alpha, beta))
    est = mc_norm_constant(n, float(alpha), float(beta), n_samples, seed, chunks, workers)
    name = f"norm/n={n}/alpha={alpha}/beta={beta}/samples={est.n_samples}/seed={seed}"
    return _verdict(name, expected, est)


def check_purity(n, field, n_samples, seed, chunks=10, workers=1) -> dict:
    expected = float(purity_oracle(n, field))
    est = mc_purity(n, field, n_samples, seed, chunks, workers)
    return _verdict(f"purity/n={n}/{field}/samples={est.n_samples}/seed={seed}", expected, est)


def check_hit_or_miss(n, n_samples, seed, chunks=10, workers=1) -> dict:
    expected = _hit_fraction(n)
    est = mc_hit_or_miss_fraction(n, n_samples, seed, chunks, workers)
    return _verdict(f"hitmiss/n={n}/samples={est.n_samples}/seed={seed}", expected, est)


def check_spectral(n, field, n_samples, seed, chunks=10, workers=1) -> dict:
    n_samples = as_integer(n_samples, "n_samples")
    _, p_value = spectral_fit_test(n, field, n_samples, seed, chunks=chunks, workers=workers)
    return {
        "check": f"spectral/n={n}/{field}/samples={n_samples}/bins={_BINS}/seed={seed}",
        "expected": 0.001,
        "estimate": p_value,
        "stderr": None,
        "sigmas": None,
        "pass": p_value > 0.001,
    }


def _at_any_count(validate):
    """The row validator of a check whose rows are valid at every sample count."""
    return lambda n_samples, **row: validate(**row)


# suite -> (check, row validator, default rows).  A row holds the check's
# arguments other than the seed, chunks and workers, with its default sample
# count.  The validator takes the row and raises the ValueError that the
# check would raise for it before its draws, without drawing a sample.
# The norm rows cover each constant entering the exact volume and area
# formulas at every n up to 4.
_PLANS = {
    "norm": (
        check_norm_constant,
        _at_any_count(_check_dirichlet),
        [
            {"n": n, "alpha": a, "beta": b, "n_samples": 1_000_000}
            for n in (1, 2, 3, 4)
            for a, b in ((1, 2), (3, 2), (1, 1), (2, 1))
        ],
    ),
    "purity": (
        check_purity,
        _at_any_count(StateSpace),
        [
            {"n": n, "field": f, "n_samples": 100_000}
            for n, f in ((2, "complex"), (2, "real"), (3, "complex"))
        ],
    ),
    "spectral": (
        check_spectral,
        _at_any_count(_reference_cdf),
        [{"n": 2, "field": f, "n_samples": 100_000} for f in ("complex", "real")],
    ),
    "hitmiss": (
        check_hit_or_miss,
        _hit_or_miss_p0,
        [{"n": 2, "n_samples": 100_000}, {"n": 3, "n_samples": 1_000_000}],
    ),
}

SUITES = (*_PLANS, "all")


def run_suite(
    suite: str,
    n: int | None = None,
    field: str | None = None,
    alpha=None,
    beta=None,
    n_samples: int | None = None,
    seed: int = 0,
    chunks: int = 10,
    workers: int = 1,
) -> list[dict]:
    """Run one named suite (or 'all') and return its check reports.

    Each given argument replaces that argument in every default row that
    takes it; rows that then differ only in their sample count run once,
    with the first row's count.  Every row is validated before the first
    check runs, so a bad row costs no draws.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    given = dict(n=n, field=field, alpha=alpha, beta=beta, n_samples=n_samples)
    draws = dict(seed=seed, chunks=chunks, workers=workers)
    runs: list[tuple] = []
    for name, (check, row_ok, rows) in _PLANS.items():
        if suite not in (name, "all"):
            continue
        plan: dict[tuple, dict] = {}
        for row in rows:
            # "is None", not falsiness: an explicit 0 must reach the validators
            row = {k: v if given[k] is None else given[k] for k, v in row.items()}
            plan.setdefault(tuple((k, v) for k, v in row.items() if k != "n_samples"), row)
        for row in plan.values():
            row_ok(**row)
            _check_draws(row["n_samples"], **draws)
            runs.append((check, row))
    return [check(**row, **draws) for check, row in runs]
