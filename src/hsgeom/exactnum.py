"""Exact arithmetic in the multiplicative field of values q * sqrt(r) * pi^(p/2).

Every closed-form quantity produced by this package (state-space volumes,
boundary areas, group volumes, shape ratios) is a product of rationals,
factorials, powers of pi, sqrt(pi) and square roots of integers.  All of
them live in the set

    { sign * q * sqrt(r) * pi^(p/2) :  q rational > 0, r squarefree, p integer }

which is closed under multiplication and division.  Addition of unlike
radicals is deliberately not supported; no formula here needs it, and
omitting it keeps the canonical form unique so equality is field-by-field
comparison.

Every value holds its rational part as a cofactor, a coprime pair of
ints, times a product of factorial powers, kept as the map j -> power of
j!.  Its integers are built only when something reads q, from C's
factorials while the map's sides are below 8192 bits and from its primes
past that, so a refused string finds no prime and a float or a log10
never builds integers of millions of digits (see ``ExactValue``).

Floats and log10 values are taken in binary fixed point, in Python ints
of 192 bits, far past a double's 53: each is rounded to a double once, by
an exact int / int division, and no ``decimal`` context is read.  A map of
16 keys or more takes its log10 from the Gamma runs it was made of,
differences of ln G (Barnes' G) summed by ``_barnes``, and finds no prime;
where they cannot vouch for the double the blocks would give, the blocks
give it (Ziv's test, see ``ExactValue``).
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress, count, repeat
from operator import floordiv, le, mul

__all__ = [
    "ExactValue",
    "ZERO",
    "ONE",
    "PI",
    "from_rational",
    "exact_sqrt",
    "gamma_exact",
    "gamma_product",
    "parse",
]

_LOG2_SQRT_PI = math.log2(math.pi) / 2
_LN2 = math.log(2)
_HALF_LN_2PI = math.log(2 * math.pi) / 2
# ln j! below j = 16, where j! is a double and its log is rounded once
_LN_FACTORIAL = tuple(math.log(math.factorial(j)) for j in range(16))
# The blocks of a value without a map, or with q built
_NO_BLOCKS = ((), ())
# The cofactor 1 as a (numerator, denominator) pair
_UNIT = (1, 1)
# The refusal of an integer with more digits than the limit, in the words
# of int.__str__ from Python 3.11 on; ``str`` gives it on every version.
_DIGIT_LIMIT_ERROR = (
    "Exceeds the limit ({} digits) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit"
)
# A little above log2(10) = 3.3219280949, so 2^(k * _LOG2_10_UP) > 10^k.
_LOG2_10_UP = 3.3219281


# Fixed point: the int X stands for X / 2^_FIX.  The errors of the cuts and
# sums below stay far under a double's rounding, so the one final rounding
# gives the nearest double (Brent & Zimmermann, Modern Computer Arithmetic, 4.4).
_FIX = 192
_ONE = 1 << _FIX


def _atanh2(z: int) -> int:
    """2 atanh(z / 2^_FIX) = 2 (z + z^3/3 + z^5/5 + ...) in fixed point, within 2^8 units, for |z| < 2^_FIX / 2."""
    t = s = abs(z)
    z2, k = t * t >> _FIX, 1
    while t:
        t = t * z2 >> _FIX
        k += 2
        s += t // k
    return 2 * s if z > 0 else -2 * s


def _fixed_ln(m: int, s: int) -> int:
    """ln(m * 2^s) in fixed point, for an int m > 0, within 2^(10 - _FIX) (1 + |s| + bits of m).

    x = m * 2^-e in [1, 2), e = bits of m - 1, is cut to _FIX bits.  With
    j = 64 log2 x rounded, c = 2^(j/64) is within 2^(1/128) of x, and
    ln x = (j/64) ln 2 + 2 atanh((x - c) / (x + c)), a series that gains
    17 bits a term.
    """
    e = m.bit_length() - 1
    x = m << (_FIX - e) if e <= _FIX else m >> (e - _FIX)
    j = round(64 * math.log2(x >> (_FIX - 52)) - 64 * 52)
    c = _EXP2_FIX[j]
    return _atanh2(((x - c) << _FIX) // (x + c)) + ((64 * (s + e) + j) * _LN2_FIX >> 6)


def _fixed_power(bases) -> tuple[int, int]:
    """prod x^e over (int x > 0, power e > 0) pairs as (m, s), the product being about m * 2^s.

    Binary powering, as in ``_power_product``, with m cut to its top _FIX
    bits after every product.  A cut errs by 2^(1 - _FIX) at most, raised to
    at most the largest power by the later squarings, so over n pairs m
    errs by under 4 (n + 1) max e 2^-_FIX, relative.
    """
    if len(bases) == 1 and bases[0][1] == 1:  # a side of a value without a map or pi: its top bits
        m = bases[0][0]
        cut = max(m.bit_length() - _FIX, 0)
        return m >> cut, cut
    m, s = 1, 0
    for b in reversed(range(max(e for _, e in bases).bit_length())):
        s *= 2
        for x in [m] + [y for y, e in bases if e >> b & 1]:  # m first: its square
            m *= x
            cut = max(m.bit_length() - _FIX, 0)
            m, s = m >> cut, s + cut
    return m, s


_LN2_FIX = _atanh2(_ONE // 3)  # 2 atanh(1/3) = ln 2
_LN10_FIX = 3 * _LN2_FIX + _atanh2(_ONE // 9)  # 2 atanh(1/9) = ln(10/8)
# 2^(j/64) for j = 0 .. 64, as powers of 2^(1/64), six square roots of 2
_EXP2_FIX = reduce(lambda x, _: math.isqrt(x << _FIX), range(6), 2 << _FIX)
_EXP2_FIX = list(accumulate(repeat(_EXP2_FIX, 64), lambda x, y: x * y >> _FIX, initial=_ONE))
# pi * 2^_FIX, rounded down: the first 48 hexadecimal digits of pi
_PI_FIX = 0x3_243F6A88_85A308D3_13198A2E_03707344_A4093822_299F31D0
_SQRT_PI_FIX = math.isqrt(_PI_FIX << _FIX)


def _log2(blocks) -> float:
    """log2 of prod x^e over (integer x, power e) pairs, summed in doubles."""
    return sum(e * math.log2(x) for x, e in blocks)


def _log_factorials(fact) -> tuple[float, float, float]:
    """(ln P, ln Q, err) of a factorial map j -> k: P = prod j!^k over k > 0, Q = prod j!^-k over k < 0.

    Computed ln P and ln Q together err by less than ``err`` = 1e-9 * S,
    with S = sum |k| M_j and M_j = (j + 1)(ln j + 1):

    - Below j = 16, ln j! is the log of the double j!, within 2u |ln j!|
      (u = 2^-53, log within an ulp).
    - From j = 16, ln j! is Stirling's series to its 1/j^3 term, (j + 1/2)
      ln j - j + ln(2 pi)/2 + 1/(12 j) - 1/(360 j^3).  Its remainder lies in
      (0, 1/(1260 j^5)) (DLMF 5.11.ii), below 1.2e-11 M_j.  Every partial
      result stays below M_j, so rounding moves it by at most 9u M_j.
    - Each k ln j! then errs by at most 11u |k| M_j (k itself may round),
      and the running sums of the n keys by at most n u S.  A map has at
      most 2^21 keys (the key bound of ``gamma_map``), so the total is
      below (2^21 + 11) u S + 1.2e-11 S < 2.5e-10 S, less than half of
      ``err`` even with S itself summed in doubles.
    """
    ln_p = ln_q = size = 0.0
    log, small = math.log, _LN_FACTORIAL
    for j, k in fact.items():
        lj = log(j)
        t = small[j] if j < 16 else (j + 0.5) * lj - j + _HALF_LN_2PI + (1 / 12 - 1 / (360 * j * j)) / j
        if k > 0:
            ln_p += k * t
            size += k * (j + 1) * (lj + 1)
        else:
            ln_q -= k * t
            size -= k * (j + 1) * (lj + 1)
    return ln_p, ln_q, 1e-9 * size


def _refuse_long_sides(cofactor: tuple[int, int], num_log2: float, den_log2: float) -> None:
    """Raise int.__str__'s ValueError if a side of q certainly has too many digits.

    q is the ``cofactor`` pair times numerator blocks over denominator blocks, and
    ``num_log2`` and ``den_log2`` are lower bounds of log2 of the two block
    products.  q's numerator is at least its blocks divided by the
    cofactor's denominator (the most the gcd with it can take out), and
    likewise for its denominator.  Each bound is cut by a relative 1e-9,
    which covers the rounding of a sum of block logs in doubles.  Where
    that does not show more digits than ``sys.get_int_max_str_digits()``,
    or the interpreter has no limit, nothing is refused: the build and
    ``int.__str__`` decide.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    for log2, divisor in ((num_log2, cofactor[1]), (den_log2, cofactor[0])):
        if log2 * (1 - 1e-9) - divisor.bit_length() >= limit * _LOG2_10_UP:
            raise ValueError(_DIGIT_LIMIT_ERROR.format(limit))


def _refuse_too_large(num_bits: float, den_bits: float) -> None:
    """Raise the size bound's ValueError if a lower bound of the bits of a side of q exceeds it."""
    if max(num_bits, den_bits) > _MAX_PRODUCT_BITS:
        raise ValueError(f"exact value too large: its numerator or denominator exceeds {_MAX_PRODUCT_BITS} bits")


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x * y as a coprime (numerator, denominator) pair, for coprime pairs; a unit factor costs nothing."""
    if x == _UNIT or y == _UNIT:
        return y if x == _UNIT else x
    (a, b), (c, d) = x, y
    g, h = math.gcd(a, d), math.gcd(c, b)
    return a // g * (c // h), b // h * (d // g)


def as_integer(x, name: str) -> int:
    """x as an int; a ValueError naming it refuses a value such as 2.5 that int() would truncate."""
    k = int(x)
    if k != x:
        raise ValueError(f"{name} must be an integer, got {x}")
    return k


def _squarefree(n: int) -> tuple[int, int]:
    """Split n > 0 as s^2 * r with r squarefree; returns (s, r).

    The power of two comes off by bit arithmetic, so radicands such as
    2^(N(N-1)/2) (orthogonal groups, convention A) or 2^dim (regular
    simplices) cost nothing however large they are.  The odd part that
    remains is a small integer like N, N - 1 or dim + 1, and trial division
    by odd d handles it.
    """
    if n <= 0:
        raise ValueError(f"radicand must be positive, got {n}")
    twos = (n & -n).bit_length() - 1
    n >>= twos
    s, r = 1 << (twos // 2), 1 << (twos % 2)
    d = 3
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            r *= d
        d += 2
    return s, r * n


class Record:
    """Base of the package's immutable records.

    A subclass lists its fields in ``__slots__``; a slot named with a
    leading underscore holds private state and is no field.  ``__init__``
    takes every field once, by position or by name, and a subclass that
    checks its fields calls it from its own.  Equality and hashing compare
    ``_key``, the fields in ``__slots__`` order.  Records are equal only to
    records of their own type, assignment and deletion raise
    AttributeError, and the repr lists the fields in ``__slots__`` order.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *values, **named):
        if named:  # the fields after the positional ones, in order; a name left over is refused
            values += tuple(named.pop(name) for name in self._fields[len(values) :] if name in named)
        if named or len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes each of its fields once: {', '.join(self._fields)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ExactValue(Record):
    """A number sign * q * sqrt(r) * pi^(p/2) in canonical form.

    Fields: ``sign`` in {-1, 0, +1}; ``q`` a positive rational in lowest
    terms; ``r`` a squarefree positive integer; ``p`` an integer half-exponent
    of pi.  Zero is uniquely (0, 1, 1, 0).  Two values are equal iff all four
    fields match, so ``==`` is exact algebraic equality.

    Every value holds q as ``_parts = (cofactor, fact, blocks, runs)``: a
    coprime (numerator, denominator) pair of ints, 1 in most factors, which
    no gcd or product touches, times prod j!^k over the items j: k of the
    factorial map ``fact``.  Without a map q is the cofactor.  ``runs`` are
    the (keys, power) pairs of the ``gamma_map`` calls behind the map, each
    key or ``range`` of keys as checked there, with their powers as
    multiplied, inverted and raised since; a value without a map keeps
    none.  A value with a map, as from ``gamma_product``, is read in up to
    three steps, each taken once and only when needed:

    - ``_bound`` holds the cofactor with the Stirling bound of the logs of
      the map's two sides (``_log_factorials``).  From it ``str`` refuses
      at once a side with certainly more digits than
      ``sys.get_int_max_str_digits()`` allows, and ``to_float`` returns
      0.0 or inf for a value certainly outside the double range.
    - ``_blocks`` keeps ``blocks``, a (num, den) pair of coprime (block,
      power) lists, from one of two routes chosen once: a map of at most
      2 * ``_FACTORIAL_BITS`` keys whose bound puts both sides below
      ``_FACTORIAL_BITS`` bits gives one block a side, its factorials'
      product over their gcd (``_factorial_blocks``); any other map gives
      its primes, grouped into blocks that share one exponent
      (``_prime_blocks``).  ``log10`` and ``to_float`` read their top bits.
    - q's integers are built from the blocks the first time something
      needs them (``str``, ``==``, ``hash``, ``repr``, the field itself),
      and the value then holds ((numerator, denominator), {}, ((), ()), ()).
      A side of more than ``_MAX_PRODUCT_BITS`` bits is refused there,
      before it is built; ``repr`` names a q that ``str`` refuses instead
      of reading it.

    A product adds the two maps and joins the two tuples of runs, an
    inverse negates its map and its runs' powers and a power scales them,
    and a built factor goes into the cofactor.  The q built does not depend
    on how or when the value was made.

    ``log10`` of a map of at least ``_RUN_KEYS`` = 16 keys first tries the
    runs (``_log_from_runs``): their sum of k ln Gamma(m/2), with ln of the
    cofactor, sqrt(r) and pi, at ``_FIX`` bits, and a bound err of its error
    (``_barnes``).  The runs cost a few series readings, whatever the size
    of the map, and the blocks grow with its keys.  Measured in process
    (best of 15 calls, 2-core Xeon VM) on the volumes and boundary areas of
    both fields, geometry's volume ratio, U(n), O(n) and C_N for both beta:
    at 16 keys 44 to 113 us from the blocks against 11 to 57 us from the
    runs, at 60 keys 171 to 624 against 22 to 116 us; at 12 to 14 keys
    the real-field forms were still faster from the blocks.  The allowance
    ε is ``_RUN_EPS``, 2^-100 in ln.  The runs' L answers only where
    err <= ε/2, |L| > ε (a value exactly 1 has L near 0) and L - ε and
    L + ε give one double over ln 10.  Up to ``_MAX_RUN_BITS`` = 2^40 bits
    the blocks' ln errs by less than 2^84 units of 2^-_FIX, far under ε/2:
    ``_fixed_power`` by 4 (n + 1) max e units a side, n pairs and e below
    2^40 + 3, and ``_fixed_ln`` by under 2^51.  So the blocks too lie
    within ε of L and give that double: a log10 from the runs is the
    blocks' double by construction.  Any other value is read from the
    blocks, as are ``str``, ``==``, ``hash``, ``q``, ``_bound`` and
    ``to_float`` of every value.

    A value remembers ``q``, ``_bound`` and, for ``to_float`` and
    ``log10``, ``_mag`` (|value| at ``_FIX`` bits) and ``_log``, each made
    on its first read.  A memo is stored whole by one slot assignment, so
    no thread sees half of one; threads that read it at once each make and
    store it.  ``_bound`` pairs the map with the cofactor of the same
    ``_parts``, so it bounds q even where another thread builds q meanwhile.
    """

    __slots__ = ("sign", "q", "r", "p", "_parts", "_bound", "_mag", "_log")

    def __init__(self, sign: int, q: Fraction, r: int, p: int):
        q, r, p = Fraction(q), as_integer(r, "r"), as_integer(p, "p")
        super().__init__(sign, q, r, p)
        object.__setattr__(self, "_parts", ((q.numerator, q.denominator), {}, _NO_BLOCKS, ()))
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
        if sign == 0:
            if (q, r, p) != (Fraction(1), 1, 0):
                raise ValueError("zero must be represented as (0, 1, 1, 0)")
            return
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        if r < 1 or _squarefree(r)[0] != 1:
            raise ValueError(f"r must be a squarefree positive integer, got {r}")

    @classmethod
    def _from_parts(cls, sign: int, r: int, p: int, cofactor: tuple[int, int], fact: dict, runs=()) -> "ExactValue":
        """sign * cofactor * prod j!^fact[j] * sqrt(r) * pi^(p/2), the maker of every result.

        ``fact`` maps integers j >= 2 to nonzero powers and is never changed
        once stored; ``cofactor`` is a coprime pair of positive ints.
        ``runs`` is a tuple of ``gamma_map``'s checked (keys, power) pairs
        whose product is that of ``fact`` times sqrt(pi)^h, h the sum of
        the powers of their odd keys, or () for none; a value without a
        map keeps none.  Stored by hand and unchecked, as every *, / and
        pow_int makes one.
        """
        v = object.__new__(cls)
        object.__setattr__(v, "sign", sign)
        object.__setattr__(v, "r", r)
        object.__setattr__(v, "p", p)
        object.__setattr__(v, "_parts", (cofactor, fact, None, runs) if fact else (cofactor, fact, _NO_BLOCKS, ()))
        return v

    def _blocks(self) -> tuple:
        """(cofactor, num, den): ``_parts`` with the map's blocks, found on the first call.

        The route is chosen here alone (see the class docstring).  ``_parts`` is replaced
        whole, so a reader never pairs a cofactor with another state's blocks.
        """
        cofactor, fact, blocks, runs = self._parts
        if blocks is None:
            find = _prime_blocks
            if len(fact) <= 2 * _FACTORIAL_BITS:  # each key puts a bit or more on its side
                _, ln_p, ln_q, err = self._bound
                if max(ln_p, ln_q) + err < _FACTORIAL_BITS * _LN2:
                    find = _factorial_blocks
            blocks = find(fact)
            object.__setattr__(self, "_parts", (cofactor, fact, blocks, runs))
        return cofactor, *blocks

    def _ints(self) -> tuple[int, int]:
        """q's (numerator, denominator), built from the blocks on a map's first call.

        The block products are coprime and so are the cofactor's ints, so
        ``_times`` takes out all that is left: a gcd of each product with the cofactor.
        """
        cofactor, fact = self._parts[:2]
        if not fact:
            return cofactor
        cofactor, num, den = self._blocks()
        # sum e * (bits of x - 1) over a side's (block x, power e) pairs is
        # a lower bound of its bits, exact for powers of two
        _refuse_too_large(*(sum(e * (x.bit_length() - 1) for x, e in side) for side in (num, den)))
        ints = _times(cofactor, (_power_product(num), _power_product(den)))
        object.__setattr__(self, "_parts", (ints, {}, _NO_BLOCKS, ()))
        return ints

    def __getattr__(self, name):
        # reached only for a slot never set: q or a memo, made on first read
        if name == "q":
            value = _coprime_fraction(*self._ints())
        elif name == "_bound":
            cofactor, fact = self._parts[:2]
            value = cofactor, *_log_factorials(fact)
        elif name == "_mag":
            value = self._magnitude()
        elif name == "_log":
            cofactor, fact, _, runs = self._parts  # read once: another thread may build q meanwhile
            value = self._log_from_runs(cofactor, runs) if len(fact) >= _RUN_KEYS else None
            if value is None:
                value = _fixed_ln(*self._mag) / _LN10_FIX
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "ExactValue":
        if isinstance(x, ExactValue):
            return x
        if isinstance(x, (int, Fraction)):
            return from_rational(x)
        return NotImplemented

    def __mul__(self, other) -> "ExactValue":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        sign = self.sign * other.sign
        if sign == 0:
            return ZERO
        # sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)) with g = gcd(r1, r2);
        # the remaining factors are coprime and squarefree, so no trial
        # division is needed here.
        g = math.gcd(self.r, other.r)
        r, p = (self.r // g) * (other.r // g), self.p + other.p
        (mine, my_fact, _, my_runs), (theirs, their_fact, _, their_runs) = self._parts, other._parts
        fact = my_fact or their_fact
        if my_fact and their_fact:
            fact = dict(my_fact)
            for j, k in their_fact.items():
                k += fact.get(j, 0)
                if k:
                    fact[j] = k
                else:
                    del fact[j]
        return ExactValue._from_parts(sign, r, p, _times(_times(mine, theirs), (g, 1)), fact, my_runs + their_runs)

    __rmul__ = __mul__

    def _inverse(self) -> "ExactValue":
        if self.sign == 0:
            raise ZeroDivisionError("division by exact zero")
        # 1/sqrt(r) = sqrt(r)/r keeps the radicand unchanged.
        (a, b), fact, _, runs = self._parts
        if fact:
            fact, runs = {j: -k for j, k in fact.items()}, tuple([(keys, -k) for keys, k in runs])
        return ExactValue._from_parts(self.sign, self.r, -self.p, _times((b, a), (1, self.r)), fact, runs)

    def __truediv__(self, other) -> "ExactValue":
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self * other._inverse()

    def __rtruediv__(self, other) -> "ExactValue":
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other * self._inverse()

    def __neg__(self) -> "ExactValue":
        if self.sign == 0:
            return ZERO
        cofactor, fact, _, runs = self._parts
        return ExactValue._from_parts(-self.sign, self.r, self.p, cofactor, fact, runs)

    def pow_int(self, k: int) -> "ExactValue":
        """Integer power; k < 0 requires a nonzero base."""
        k = as_integer(k, "exponent")
        if k == 0:
            return ONE
        if self.sign == 0:
            if k > 0:
                return ZERO
            raise ZeroDivisionError("zero to a negative power")
        if k < 0:
            return self._inverse().pow_int(-k)
        sign, r = (self.sign, self.r) if k % 2 else (1, 1)
        cofactor, fact, _, runs = self._parts
        if k > 1 and (cofactor != _UNIT or self.r != 1):
            # the size bound, before a/b and r^(k//2) are powered: a^k and the part
            # of r^(k//2) prime to b stay in the numerator, b^k loses at most
            # s^(k//2), s = gcd(r, b); 1e-9 covers the rounding of these log2s
            (a, b), half, log2 = cofactor, k // 2, math.log2
            s = math.gcd(self.r, b)
            num, den = k * log2(a) + half * log2(self.r // s), k * log2(b) - half * log2(s)
            _refuse_too_large(num * (1 - 1e-9), den * (1 - 1e-9))
            cofactor = _times((a**k, b**k), (self.r**half, 1))
        if fact:
            fact, runs = {j: e * k for j, e in fact.items()}, tuple([(keys, e * k) for keys, e in runs])
        return ExactValue._from_parts(sign, r, self.p * k, cofactor, fact, runs)

    __pow__ = pow_int

    # -- conversion ---------------------------------------------------------

    def _magnitude(self) -> tuple[int, int]:
        """|value| as (m, s), about m * 2^s with m of _FIX bits or more, from the top bits of the blocks."""
        (a, b), num, den = self._blocks()
        sides = [[(a, 1), *num], [(b, 1), *den]]
        if self.p:  # pi^(p/2), as (sqrt(pi) 2^_FIX)^|p| on the side of the sign of p
            sides[self.p < 0].append((_SQRT_PI_FIX, abs(self.p)))
        (n, s), (d, t) = map(_fixed_power, sides)
        s -= _FIX * self.p  # and 2^(_FIX p) taken out
        if self.r != 1:
            n, s = n * math.isqrt(self.r << 2 * _FIX), s - _FIX
        shift = _FIX + d.bit_length()
        return (n << shift) // d, s - t - shift

    def _log_from_runs(self, cofactor: tuple[int, int], runs: tuple) -> float | None:
        """log10 |value| from the cofactor and the Gamma runs, or None where the blocks must decide.

        ln |value| = ln a - ln b + ln(r)/2 + ((p - h)/2) ln pi plus the sum
        of k ln Gamma(m/2) over the runs (``_barnes.ln_runs``), h its odd
        keys' sqrt(pi)s that ``p`` already holds.  Ziv's test: the sum L errs
        by at most err <= ``_RUN_EPS`` / 2, and L is taken only where |L| >
        ``_RUN_EPS`` and L -/+ ``_RUN_EPS`` give one double; see the class
        docstring for why the blocks then give that double too.
        """
        (a, b), r = cofactor, self.r
        bits = a.bit_length() + b.bit_length() + r.bit_length() + abs(self.p)
        for keys, k in runs:
            x = keys[-1] / 2 + 1  # x log2 x bounds the bits of Gamma at x - 1 and below, from 1/2
            bits += abs(k) * len(keys) * x * math.log2(x)
        if bits > _MAX_RUN_BITS:
            return None
        from . import _barnes  # on first use: its series and constants cost nothing until then

        ln, err, odd = _barnes.ln_runs(runs)
        ln_pi, pi_err = _barnes.ln_pi_halves(self.p - odd)
        num, den = a * a * r, b * b
        ln += ln_pi + ((_fixed_ln(num, 0) if num > 1 else 0) - (_fixed_ln(den, 0) if den > 1 else 0) >> 1)
        err += pi_err + ((a.bit_length() + b.bit_length() + r.bit_length() + 2) << 10)
        if 2 * err > _RUN_EPS or abs(ln) <= _RUN_EPS:
            return None
        low = (ln - _RUN_EPS) / _LN10_FIX
        return low if low == (ln + _RUN_EPS) / _LN10_FIX else None

    def to_float(self) -> float:
        """Nearest double (0.0 or inf if outside the double range).

        A value whose map bounds its log2 well outside the double range is
        0.0 or inf without finding a prime.  A rational may lie exactly
        halfway between two doubles, so it is divided exactly.  Any other
        value is irrational; it is formed in fixed point and rounded to a
        double once, so subnormal results are the nearest subnormal too.
        """
        if self.sign == 0:
            return 0.0
        if self._parts[1]:
            (a, b), ln_p, ln_q, err = self._bound
            log2 = (ln_p - ln_q) / _LN2 + math.log2(a) - math.log2(b)
            log2 += math.log2(self.r) / 2 + self.p * _LOG2_SQRT_PI
            # doubles end at 2^1024 and round to 0.0 below 2^-1075; the
            # margins cover the rounding of the cofactor's and pi's logs
            if log2 - err / _LN2 > 1030:
                return self.sign * math.inf
            if log2 + err / _LN2 < -1080:
                return self.sign * 0.0
        try:
            if self.r == 1 and self.p == 0:
                a, b = self._ints()
                return self.sign * (a / b)  # int / int rounds once, as float(Fraction) does
            m, s = self._mag
            bits = m.bit_length() + s
            if not -1075 <= bits <= 1025:  # below half the least subnormal, or past 2^1025
                return self.sign * (0.0 if bits < 0 else math.inf)
            return self.sign * (m / (1 << -s) if s < 0 else float(m << s))  # rounded once
        except OverflowError:  # a quotient past the largest double
            return self.sign * math.inf

    def log10(self) -> float:
        """log10 of the value, computed once per value: its fixed-point ln over ln 10, rounded once.

        Never overflows, so it stays meaningful for quantities at matrix
        sizes where the value itself leaves the double range.
        """
        if self.sign <= 0:
            raise ValueError("log10 requires a positive value")
        return self._log

    # -- rendering ----------------------------------------------------------

    def _refuse_long(self) -> None:
        """Raise int.__str__'s ValueError if q has a side certainly too long to print, building nothing."""
        if self._parts[1]:
            # log2 F = ln(P/Q)/ln 2 is at most the log2 of the numerator
            # blocks, -log2 F at most that of the denominator blocks, and
            # less err lies below them by more than their sums' rounding:
            # the map's test refuses only what the blocks' test would refuse
            cofactor, ln_p, ln_q, err = self._bound
            _refuse_long_sides(cofactor, (ln_p - ln_q - err) / _LN2, (ln_q - ln_p - err) / _LN2)
            cofactor, num, den = self._blocks()
            _refuse_long_sides(cofactor, _log2(num), _log2(den))

    def __repr__(self):
        # a q that str refuses is named, not built
        try:
            self._refuse_long()
        except ValueError:
            limit = sys.get_int_max_str_digits()
            return f"ExactValue(sign={self.sign!r}, q=<more than {limit} digits>, r={self.r!r}, p={self.p!r})"
        return super().__repr__()

    def __str__(self) -> str:
        """Canonical grammar ``[-]a/b[*sqrt(r)][*pi^(p/2)]``, unit factors omitted."""
        if self.sign == 0:
            return "0"
        self._refuse_long()
        a, b = self._ints()
        try:
            parts = [str(a) if b == 1 else f"{a}/{b}"]
        except ValueError:
            # int.__str__ of Python 3.10 words this refusal differently
            raise ValueError(_DIGIT_LIMIT_ERROR.format(sys.get_int_max_str_digits())) from None
        if self.r != 1:
            parts.append(f"sqrt({self.r})")
        if self.p != 0:
            parts.append(f"pi^({self.p}/2)")
        body = "*".join(parts)
        return "-" + body if self.sign < 0 else body


ZERO = ExactValue(0, Fraction(1), 1, 0)
ONE = ExactValue(1, Fraction(1), 1, 0)
PI = ExactValue(1, Fraction(1), 1, 2)


def from_rational(x) -> ExactValue:
    """Embed a rational (int or Fraction) in the field."""
    a, b = (x if isinstance(x, (int, Fraction)) else Fraction(x)).as_integer_ratio()
    if a == 0:
        return ZERO
    return ExactValue._from_parts(1 if a > 0 else -1, 1, 0, (abs(a), b), {})


def exact_sqrt(x) -> ExactValue:
    """Exact square root of a nonnegative rational a/b in lowest terms.

    With a = s^2 r and b = t^2 u, r and u squarefree, sqrt(a/b) = s/(t u) sqrt(r u).
    a and b are coprime, so r u is squarefree and s prime to t u, and each
    side is trial-divided on its own, up to sqrt(max(a, b)) and not sqrt(a b).
    """
    a, b = (x if isinstance(x, (int, Fraction)) else Fraction(x)).as_integer_ratio()
    if a < 0:
        raise ValueError(f"square root of negative rational {Fraction(a, b)}")
    if a == 0:
        return ZERO
    (s, r), (t, u) = _squarefree(a), _squarefree(b) if b > 1 else (1, 1)
    return ExactValue._from_parts(1, r * u, 0, (s, t * u), {})


def gamma_exact(x) -> ExactValue:
    """Gamma at a positive integer or half-integer argument, exactly.

    Gamma(n) = (n-1)!;  Gamma(k + 1/2) = (2k)!/(4^k k!) * sqrt(pi).  Both go
    through ``gamma_product``, so both share its bound on the argument.
    """
    x = Fraction(x)
    if x <= 0 or (2 * x).denominator != 1:
        raise ValueError(f"gamma_exact needs a positive integer or half-integer, got {x}")
    return gamma_product({int(2 * x): 1})


# Longest list that _tree_product multiplies left to right.  On runs of
# consecutive primes math.prod was faster up to 320 entries (0.22 against
# 3.35 us at 4, 29 against 37 us at 256), about even at 384 and slower
# beyond (8.6 against 2.8 ms at 4203), where pairing keeps the operands
# balanced (best of 5, 2-core Xeon VM).
_SHORT_PRODUCT = 320


def _tree_product(xs: list[int]) -> int:
    """Product of the integers in xs, multiplying neighbours pairwise so operands stay balanced."""
    if len(xs) <= _SHORT_PRODUCT:
        return math.prod(xs)
    while len(xs) > 1:
        tail = [xs[-1]] if len(xs) % 2 else []
        xs = [a * b for a, b in zip(xs[0::2], xs[1::2])] + tail
    return xs[0]


def _power_product(bases: list[tuple[int, int]]) -> int:
    """prod x^e over the pairs (x, e > 0), by binary powering.

    Bit b of every exponent selects the bases multiplied in at step b, so
    each step is one squaring plus one balanced product.
    """
    out = 1
    for b in reversed(range(max((e for _, e in bases), default=0).bit_length())):
        out = out * out * _tree_product([x for x, e in bases if e >> b & 1])
    return out


# Every prime up to the first entry, ascending.  One table serves every call
# in the process; a call that needs primes past it sieves a larger one.
_PRIME_TABLE = (1, array("l"))


def _prime_table(top: int) -> array:
    """The shared ascending prime table, first sieved up to ``top`` if it stops short of it."""
    global _PRIME_TABLE
    limit, primes = _PRIME_TABLE
    if top > limit:
        sieve = bytearray([1]) * (top + 1)
        sieve[:2] = bytes(2)
        for p in range(2, math.isqrt(top) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
        primes = array("l", compress(range(top + 1), sieve))
        # one assignment, so a concurrent call sees either table whole
        _PRIME_TABLE = top, primes
    return primes


def _prime_exponents(fact: dict[int, int]) -> dict[int, list[int]]:
    """Primes of prod j!^fact[j], grouped by their nonzero exponent.

    Legendre: the exponent of p is the sum of fact[j] * (j // p^k) over the
    keys j and k >= 1.  The primes are a slice of the
    shared prime table, and the work follows the keys rather than the
    primes up to the largest key ``top``:

    - The low keys, up to the last key j with at least j/2 keys at or below
      it (half-integer Gammas put keys on every other integer), become a
      table of the exponent of each integer, at most twice as long as the
      keys; a prime power q sums it over the multiples of q.  Each other,
      high, key adds fact[j] * (j // q) itself.
    - Above split = max(sqrt(top), last low key) only high keys count, and
      only with k = 1.  Their sum of fact[j] * (j // p) changes only where
      some j // p does, at p = j // v + 1 for v = 1 .. j // (split + 1):
      O(sqrt(j)) cuts per key.  Between two cuts one slice of the prime
      table shares one exponent, so a block of primes costs one lookup.
      The closed forms here put their dense keys at the bottom (Gamma(1)
      ... Gamma(N), or every other integer), so the high keys are few and
      their cuts far fewer than the primes above split: 199 cuts for the
      4157 primes of vol_mixed(200).
    """
    top = max(fact, default=0)
    primes = _prime_table(top)
    keys = sorted(fact)
    # the low keys end at the last key j of rank at least j / 2
    dense = max(compress(count(1), map(le, keys, count(2, 2))), default=0)
    low, high = keys[:dense], keys[dense:]
    ints: list[int] = []  # ints[i] is the exponent of the integer i from the low keys
    running = sum(fact[j] for j in low)
    for j in low:
        ints += [running] * (j + 1 - len(ints))
        running -= fact[j]
    high_fact = [fact[j] for j in high]
    split = max(math.isqrt(top), len(ints) - 1)
    lo = split + 1
    n_all = bisect_right(primes, top)
    n_split = bisect_right(primes, split, 0, n_all)
    by_exponent: dict[int, list[int]] = {}
    for p in primes[:n_split]:
        e, q = 0, p
        while q <= top:
            e += sum(ints[q::q])
            if high:
                e += sum(map(mul, high_fact, map(floordiv, high, repeat(q))))
            q *= p
        if e:
            by_exponent.setdefault(e, []).append(p)
    # j // p drops by exactly one past each cut w = j // v, as v < sqrt(j) there
    drops: dict[int, int] = {}
    for j, f in zip(high, high_fact):
        for w in map(floordiv, repeat(j), range(1, j // lo + 1)):
            drops[w] = drops.get(w, 0) + f
    e = sum(map(mul, high_fact, map(floordiv, high, repeat(lo))))
    start = n_split
    for w in sorted(drops):
        if drops[w]:
            end = bisect_right(primes, w, start, n_all)
            if e and end > start:
                by_exponent.setdefault(e, []).extend(primes[start:end])
            e -= drops[w]
            start = end
    return by_exponent


# Largest key gamma_map takes.  Gamma(10^6), key 2 * 10^6, already has
# 5.6 million digits and takes about 10 s on a 2-core Xeon VM; a larger key would
# sieve the shared prime table up to it (a byte per integer below it) before failing.
_MAX_GAMMA_KEY = 1 << 21


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """The Fraction of two coprime ints, denominator > 0, stored without their gcd.

    It sets the two slots of ``fractions.Fraction`` as the body of Python
    3.12's ``Fraction._from_coprime_ints`` does, on every version.
    """
    value = object.__new__(Fraction)
    value._numerator, value._denominator = numerator, denominator
    return value


# Most bits q's numerator or denominator may be built with: about 10^7
# digits, twice Gamma(10^6).  The key bound holds each factor, this one the
# product, such as the 10^5 Gammas of U(10^5), whose denominator would have
# over 6 * 10^10 bits.  It is checked on the blocks when q is built, so a
# value past it is still made and still gives its log10.
_MAX_PRODUCT_BITS = 1 << 25


# Most bits a side of a factorial map may have for q to be built from its
# own factorials (966! has 8192): up to it C's math.factorial and one gcd
# beat finding and powering out the primes.
_FACTORIAL_BITS = 1 << 13


# The one rule between the routes of log10: a map of at least _RUN_KEYS
# keys tries its Gamma runs first, a shorter one reads its blocks (timings
# in ``ExactValue``).  Geometry's map has 16 keys from n = 16 (complex) and
# n = 25 (real), and no exact CLI call at n <= 8 has more than 9.
_RUN_KEYS = 16
# Up to _MAX_RUN_BITS bits the blocks err by far less than _RUN_EPS / 2
# (see ``ExactValue``); past it the runs do not vouch for their double.
_MAX_RUN_BITS = 1 << 40
# The run route's error allowance ε, in units of 2^-_FIX: 2^-100 in ln.
_RUN_EPS = 1 << (_FIX - 100)


def _factorial_blocks(fact: dict[int, int]) -> tuple[list, list]:
    """prod j!^fact[j] as one coprime (block, 1) pair a side: its factorials' product over their gcd."""
    sides = [1, 1]
    for j, k in fact.items():
        sides[k < 0] *= math.factorial(j) ** abs(k)
    g = math.gcd(*sides)
    return [(sides[0] // g, 1)], [(sides[1] // g, 1)]


def _prime_blocks(fact: dict[int, int]) -> tuple[list, list]:
    """prod j!^fact[j] as coprime lists of (block, power > 0) pairs, a block the primes of one net exponent."""
    bases = [(_tree_product(primes), e) for e, primes in _prime_exponents(fact).items()]
    return [(x, e) for x, e in bases if e > 0], [(x, -e) for x, e in bases if e < 0]


def gamma_map(pairs) -> ExactValue:
    """prod Gamma(m/2)^k over the pairs (m, k), exactly.

    Keys are twice the Gamma arguments, so every key is a positive integer
    and half-integer arguments need no Fraction: ``[(5, 2), (8, -1)]`` is
    Gamma(5/2)^2 / Gamma(4).  A key may come more than once.  A pair's key
    may also be an ascending ``range`` of keys that all take its power:
    ``[(range(2, 9, 2), 1)]`` is Gamma(1) Gamma(2) Gamma(3) Gamma(4).  Keys
    above ``_MAX_GAMMA_KEY`` raise ValueError, a range from its last key:
    every pair is checked, in order, before any key of any pair is read, so
    the first bad pair names the error.  Zero powers and empty ranges are
    ignored and no pairs give ONE; ``pairs_power`` raises a list of pairs
    to a power, as a closed form joins its factors' lists into one map.

    Gamma(k + 1/2) = (2k)!/(4^k k!) sqrt(pi), with 4^k = 2!^(2k), turns the
    product into the factorial map j -> power of j! times pi^(h/2), and the
    value returned keeps that map (see ``ExactValue``).  The map's one
    Stirling bound refuses a string too long to print, and gives a float
    outside the double range, with nothing built, and it picks the one
    route to q's blocks: a short map's C factorials, or the primes of any
    other, whose exponents Legendre's formula gives over one shared prime
    table (``_prime_exponents``).  Only a read of q builds it, each side once
    by binary powering over balanced products (Borwein, "On the complexity
    of calculating factorials", J. Algorithms 6, 1985).
    """
    checked = []  # every pair is checked, in order, before any key is read
    for key, k in pairs:
        if isinstance(key, int):
            keys, good = (key,), key >= 1
        else:
            keys, good = key, isinstance(key, range) and key.start >= 1 and key.step > 0
        if not good or not isinstance(k, int):
            raise ValueError(f"gamma_product needs positive integer keys and integer powers, got {key}: {k}")
        if k and keys:
            if keys[-1] > _MAX_GAMMA_KEY:
                raise ValueError(f"Gamma argument too large for an exact value: twice it exceeds {_MAX_GAMMA_KEY}")
            checked.append((keys, k))
    fact: dict[int, int] = {}  # j -> power of j!
    get = fact.get
    twos = half_pi = 0
    for keys, k in checked:
        for m in keys:
            j = m >> 1
            if m & 1:
                fact[2 * j] = get(2 * j, 0) + k
                fact[j] = get(j, 0) - k
                twos -= 2 * j * k
                half_pi += k
            else:
                fact[j - 1] = get(j - 1, 0) + k
    fact[2] = fact.get(2, 0) + twos
    fact = {j: k for j, k in fact.items() if k and j > 1}  # 0! = 1! = 1
    return ExactValue._from_parts(1, 1, half_pi, _UNIT, fact, tuple(checked))


def pairs_power(pairs, e: int) -> list:
    """The pairs of gamma_map(pairs)^e: each power times e, each key or range kept."""
    return [(key, e * k) for key, k in pairs]


def gamma_product(powers) -> ExactValue:
    """prod Gamma(m/2)^k over the items m: k of ``powers``, exactly: ``{5: 2, 8: -1}`` is Gamma(5/2)^2 / Gamma(4)."""
    return gamma_map(powers.items())


# The pattern of ``parse``, compiled by ``re``'s cache on the first parse,
# not at import: no exact CLI call parses
_GRAMMAR = (
    r"^(?P<neg>-)?(?P<num>\d+)(?:/(?P<den>\d+))?"
    r"(?:\*sqrt\((?P<rad>\d+)\))?"
    r"(?:\*pi\^\((?P<p>-?\d+)/2\))?$"
)


def parse(text: str) -> ExactValue:
    """Inverse of ``str``: the ExactValue whose canonical form is ``text``.

    Text that ``str`` never writes is refused, even where it names a value:
    a fraction not in lowest terms or over 1, a leading zero, a signed or
    scaled zero, a unit or non-squarefree radicand, pi^(0/2), whitespace.
    """
    m = re.match(_GRAMMAR, text)
    value = None
    if m is not None and (den := int(m["den"] or 1)):
        q, sign = Fraction(int(m["num"]), den), -1 if m["neg"] else 1
        try:
            value = ExactValue(sign, q, int(m["rad"] or 1), int(m["p"] or 0)) if q else ZERO
        except ValueError:  # a radicand with a square factor
            pass
    if value is None or str(value) != text:
        raise ValueError(f"not an exact-value literal in canonical form: {text!r}")
    return value
