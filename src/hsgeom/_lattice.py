"""Replicate means of the norm check's weight: shifted lattice rules or Dirichlet draws.

``verify.mc_norm_constant`` imports this module on its first row with
n >= 2, so that a process that runs none does not compile it.  Such a row is
the mean of 40 replicate means, and its stderr their spread (39 degrees of
freedom: the 3-sigma gate fails a true row about 0.5% of the time).  The
points of a replicate are those of a randomly shifted rank-1 lattice rule
(Cranley & Patterson 1976; Sloan & Joe, Lattice Methods for Multiple
Integration, 1994) or Dirichlet(alpha) draws, a block at a time, so a
Dirichlet chunk holds one block.  Each chunk of ``_map_chunks`` returns its
list of means, so an estimate does not depend on the worker count.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .verify import _NORM_BLOCK, MCEstimate, _map_chunks

# Korobov multipliers tried per generating vector
_CANDIDATES = 100
# Replicates per row, and the relative rounding floor of the stderr per
# unit of the largest log-Gamma term of log C (see norm_constant).
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
    divisor.  Each block of the unshifted lattice is built once and serves
    every shift in turn; weights are built as logs and summed by
    ``accumulate``, one sum per shift.
    """
    if not len(shifts):
        return []
    d = n - 1
    z = korobov_vector(points, d)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tops, totals = [-math.inf] * len(shifts), [0.0] * len(shifts)
    # a point with two equal eigenvalues, or (alpha > 1) a zero one, has weight 0, log -inf
    with np.errstate(divide="ignore"):
        for start in range(0, points, _NORM_BLOCK):
            index = np.arange(start, min(start + _NORM_BLOCK, points))
            # 2 (i z_k mod points) / points - 2, in [-2, 0): the block before any shift
            doubled = np.empty((d, len(index)))
            for k, zk in enumerate(z):  # exact in int64 below 3e9 points
                np.multiply(index * zk % points, 2 / points, out=doubled[k])
            doubled -= 2
            lam, log_w, gap = np.empty((n, len(index))), np.empty(len(index)), np.empty(len(index))
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
    if 2 <= n <= 4 and alpha >= 1:
        deltas = rng.random((count, n - 1))
        return [
            *shifted_means(n, alpha, beta, points + 1, deltas[:extra]),
            *shifted_means(n, alpha, beta, points, deltas[extra:]),
        ]
    return [dirichlet_mean(n, alpha, beta, rng, points + (r < extra)) for r in range(count)]


def norm_constant(
    n: int, alpha: float, beta: float, n_samples: int, seed: int, chunks: int, workers: int
) -> MCEstimate:
    """1/C_n^(alpha, beta), n >= 2, as the mean of replicate means.

    The points of a replicate are those of a randomly shifted lattice rule
    at 2 <= n <= 4 and alpha >= 1, and Dirichlet draws elsewhere: below
    alpha = 1 the weight L^(alpha-1) of a lattice point is unbounded (of
    infinite variance at alpha <= 1/2), and from n = 5 on the lattice
    gained a variance ratio of only 9 (n = 5) and 1 (n = 6) over Dirichlet
    draws.

    Each chunk splits its points over ceil(_REPLICATES / chunks) replicates
    (``replicates``), so a row has R >= 40 replicate means m_r whenever it
    has that many points, each an unbiased estimate.  The estimate is their
    mean m, and the stderr their spread sqrt(sum (m_r - m)^2 / (R (R - 1))),
    which has R - 1 degrees of freedom: at R = 40 the 3-sigma gate fails a
    true row about 0.5% of the time (Student t), not the normal 0.27%.  The
    deviations are taken relative to m, as their squares underflow at
    1/C ~ 1e-183.

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
    most = math.ceil(_REPLICATES / max(chunks, 1))  # _map_chunks refuses chunks < 1
    chunk = partial(replicates, n, alpha, beta, most)
    records = _map_chunks(chunk, n_samples, seed, chunks, workers)
    means = np.array([m for record in records for m in record])
    count = len(means)
    mean = math.fsum(means) / count
    deviations = means / mean - 1 if mean else means
    spread = math.sqrt(math.fsum(deviations**2) / (count * (count - 1))) if count > 1 else 0.0
    floor = _FLOOR * max(1.0, math.lgamma(n * alpha + beta * n * (n - 1) / 2))
    return MCEstimate(mean, mean * math.hypot(spread, floor), n_samples, seed, chunks)
