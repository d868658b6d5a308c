"""Sums of ln Gamma over Gamma runs, in ``exactnum``'s binary fixed point: the log route of ``ExactValue``.

``ExactValue`` imports this module on the first log10 it takes from the
Gamma runs of a value (see ``exactnum``), so a process that reads only
short values never compiles it or builds its constants.

A run is a ``gamma_map`` pair: a key m, or a ``range`` of keys, each taken
to one power k, standing for Gamma(m/2)^k.  Keys two apart are arguments
one apart, and the product of Gamma over x0, x0 + 1, ..., x1 - 1 is
G(x1) / G(x0), with G the Barnes G-function, G(x + 1) = Gamma(x) G(x)
(DLMF 5.17.1).  So a run of step 2 costs two readings of ln G, one at
each end, a run of step 1 is two runs of step 2, and a lone key costs one
reading of ln Gamma.  Each reading is one of two kinds:

- Below the key ``_SERIES_KEY`` it is exact: one integer product of
  factorials read by ``_fixed_ln``.  For an integer x, G(x) is
  0! 1! ... (x-2)!; for x = J + 1/2 the product Gamma(1/2) ... Gamma(J - 1/2)
  stands in for G(x), as G(1/2) cancels from a run's two ends.
- From there on it is a series: Stirling's (DLMF 5.11.1) for ln Gamma,
  and Barnes' for ln G(z + 1), which is DLMF 5.17.5 with Stirling's series
  put in for its z ln Gamma(z + 1), with the constant
  zeta'(-1) = 1/12 - ln A (Glaisher-Kinkelin) derived here from the exact
  0! 1! ... (N-1)! at N = ``_ZETA_N``.  For real positive arguments each
  series errs by less than its first neglected term (DLMF 5.11.ii; G. Nemes,
  Proc. R. Soc. A 470 (2014) 20140534), and a sum stops at its first term
  under 2^-160.  Their Bernoulli numbers come from the tangent numbers
  (Brent & Zimmermann, Modern Computer Arithmetic, 4.7.2).

``_error`` bounds the error of one reading, in units of 2^-_FIX, and
``ln_runs`` sums it, times |k|, with the logs.
"""

from __future__ import annotations

from functools import cache
from math import factorial, prod

from .exactnum import _FIX, _PI_FIX, _fixed_ln

# Readings of keys from here on are series: arguments of 33 and more, so
# z >= 32 in ln G(z + 1).  At z = 32 the 26th term of Barnes' series is
# below 2^-168, and that of Stirling's smaller still.
_SERIES_KEY = 66
_STOP = 1 << (_FIX - 160)  # a series ends at its first term below 2^-160
_TERMS = 30

_LN_PI = _fixed_ln(_PI_FIX, -_FIX)
_LN_2PI = _fixed_ln(_PI_FIX, 1 - _FIX)


def _bernoulli(count: int) -> list[tuple[int, int]]:
    """B_2, B_4, ..., B_(2 count) as (numerator, denominator) pairs, not in lowest terms.

    The tangent numbers T_k come from the integer recurrence of Brent and
    Zimmermann, and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    """
    t = [0, 1]
    for k in range(2, count + 1):
        t.append((k - 1) * t[-1])
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)) for k in range(1, count + 1)]


_B = _bernoulli(_TERMS + 1)
# Stirling: B_2k / (2k (2k-1) x^(2k-1)) at x = m/2 is this numerator over
# this denominator times m^(2k-1)
_STIRLING = [(num << (_FIX + 2 * k - 1), den * 2 * k * (2 * k - 1)) for k, (num, den) in enumerate(_B[:_TERMS], 1)]
# Barnes: B_(2k+2) / (4k (k+1) z^2k) at z = w/2 is this numerator over this
# denominator times w^2k
_BARNES = [(num << (_FIX + 2 * k), den * 4 * k * (k + 1)) for k, (num, den) in enumerate(_B[1:], 1)]


def _series(coefficients, power: int, step: int) -> int:
    """Sum of num / (den power step^i) over the i-th coefficients, to the first term under ``_STOP``."""
    total = 0
    for num, den in coefficients:
        term = num // (den * power)
        if -_STOP < term < _STOP:
            return total
        total += term
        power *= step
    raise ArithmeticError("an asymptotic series did not converge")  # not reached at x >= _SERIES_KEY - 2


def _ln_barnes(m: int, zeta: int) -> int:
    """ln G(m/2), m >= ``_SERIES_KEY``, from Barnes' series with ``zeta`` for zeta'(-1).

    With z = m/2 - 1 = w/2: (z^2/2 - 1/12) ln z - 3 z^2 / 4 + (z/2) ln(2 pi) + zeta'(-1) + sum_k ...
    """
    w = m - 2
    w2 = w * w
    main = (3 * w2 - 2) * _fixed_ln(w, -1) // 24 - ((3 * w2) << _FIX) // 16 + (w * _LN_2PI >> 2)
    return main + zeta + _series(_BARNES, w2, w2)


def _ln_stirling(m: int) -> int:
    """ln Gamma(m/2), m >= ``_SERIES_KEY``, from Stirling's series: (x - 1/2) ln x - x + ln(2 pi)/2 + sum_k ..."""
    main = ((m - 1) * _fixed_ln(m, -1) >> 1) - (m << (_FIX - 1)) + (_LN_2PI >> 1)
    return main + _series(_STIRLING, m, m * m)


@cache
def _ln_exact(m: int) -> int:
    """The exact reading of the key m: ln G(m/2) for even m, ln of Gamma over 1/2, 3/2, ... below m/2 for odd m."""
    if m % 2 == 0:  # G(x) = 0! 1! ... (x-2)!
        return _fixed_ln(prod(map(factorial, range(m // 2 - 1))), 0)
    # Gamma(j + 1/2) = (2j)! / (4^j j!) sqrt(pi) for j < J = (m - 1) / 2
    count = (m - 1) // 2
    num = prod(factorial(2 * j) for j in range(count))
    den = prod(factorial(j) for j in range(count))
    return _fixed_ln(num, 0) - _fixed_ln(den, count * (count - 1)) + (count * _LN_PI >> 1)


def zeta_prime_minus_one(n: int) -> int:
    """zeta'(-1) from the exact ln G(n + 1) = ln(0! 1! ... (n-1)!), less the rest of Barnes' series at z = n."""
    return _ln_exact(2 * n + 2) - _ln_barnes(2 * n + 2, 0)


_ZETA_N = 40
_ZETA = zeta_prime_minus_one(_ZETA_N)
# Odd keys: the series gives ln G(m/2), the exact reading ln G(m/2) - ln G(1/2)
_ODD_SHIFT = _ln_exact(_SERIES_KEY + 1) - _ln_barnes(_SERIES_KEY + 1, _ZETA)


def ln_g(m: int) -> int:
    """ln G(m/2) for even keys m, and for odd keys less ln G(1/2), in fixed point (units of 2^-_FIX)."""
    if m < _SERIES_KEY:
        return _ln_exact(m)
    return _ln_barnes(m, _ZETA) + (_ODD_SHIFT if m % 2 else 0)


def ln_gamma(m: int) -> int:
    """ln Gamma(m/2) in fixed point, for a key m >= 1."""
    return _ln_stirling(m) if m >= _SERIES_KEY else _ln_exact(m + 2) - _ln_exact(m)


def _error(m: int) -> int:
    """A bound, in units of 2^-_FIX, of the error of ``ln_g(m)`` or ``ln_gamma(m)``.

    A series reading errs by under 2^32 units in its tail, by 2^15 units
    times m^2/8 in its leading logs (``_fixed_ln`` at 24 bits, times z^2/2),
    and for an odd key or through zeta by under 2^34 more, from the two
    readings at which they were taken.  An exact reading errs by under 2^25
    units (``_fixed_ln`` of at most 2^14 bits).
    """
    return (m * m << 13) + (1 << 35)


def ln_runs(runs) -> tuple[int, int, int]:
    """(L, err, odd) of runs of (keys, k): L = sum k ln Gamma(m/2) over their keys m.

    L is in fixed point, err bounds its error in units of 2^-_FIX, and odd
    is the sum of k over the odd keys.  Each half-integer Gamma(m/2) holds
    a sqrt(pi) that ``gamma_map`` puts in the value's power of pi, so the
    caller takes ``odd`` halves of ln pi back out.  A range of step 1 or 2
    and more than one key is summed as runs; any other pair key by key.  The powers of each reading are summed
    over the runs first, so a reading shared by two runs, such as the end of
    one and the start of the next, is taken once or, where its powers
    cancel, not at all.
    """
    g: dict[int, int] = {}  # key -> power of its ln G reading
    gamma: dict[int, int] = {}  # key -> power of its ln Gamma reading
    odd = 0
    for keys, k in runs:
        if isinstance(keys, range) and keys.step <= 2 and len(keys) > 1:
            for start in (keys.start,) if keys.step == 2 else (keys.start, keys.start + 1):
                count = len(range(start, keys.stop, 2))
                end = start + 2 * count
                g[end] = g.get(end, 0) + k
                g[start] = g.get(start, 0) - k
                odd += k * count * (start & 1)
        else:
            for m in keys:
                gamma[m] = gamma.get(m, 0) + k
                odd += k * (m & 1)
    total = err = 0
    for readings, ln in ((g, ln_g), (gamma, ln_gamma)):
        for m, k in readings.items():
            if k:
                total += k * ln(m)
                err += abs(k) * _error(m)
    return total, err, odd


def ln_pi_halves(h: int) -> tuple[int, int]:
    """(h ln(pi)/2 in fixed point, a bound of its error in units)."""
    return h * _LN_PI >> 1, (abs(h) << 19) + 1
