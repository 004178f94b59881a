"""Correctly rounded exp and tanh from IEEE-754 binary64 arithmetic alone.

The simulation promises the same trace bits on every platform, so it must
not call the host's libm: libm's exp and tanh are not correctly rounded,
and they differ between C libraries and versions.  These two functions
return the correctly rounded (to nearest, ties to even) value of e**x and
tanh(x) for every double x, so their results are fixed by IEEE-754 alone.
They use only + - * / and comparisons on floats, which IEEE-754 rounds
exactly the same way everywhere, exact conversions between floats and
ints (``int``, ``float.as_integer_ratio`` and int / int true division),
and ``math.ldexp`` by an exact power of two.

Each function has a fast path (Tang's table method for exp, a table of
local polynomials for tanh; constants in ``elementary_tables``, written by
``scripts/gen_elementary_tables.py``) that yields the result as an
unevaluated sum hi + lo with a relative error below a known bound eps, and
a rounding test: ``hi + lo * f == hi``, with f derived from eps, proves
that hi is the correctly rounded value (the test of Ziv's strategy, as in
CRlibm and CORE-MATH).  Fewer than one call in 250 fails the test; it is
then decided exactly in integer arithmetic at increasing precision, which
always ends because e**x and tanh(x) are transcendental for x != 0.
"""

from __future__ import annotations

from functools import lru_cache
from math import ldexp

from .elementary_tables import (
    E2,
    E3,
    E4,
    EXP_INV_STEP,
    EXP_STEP_HI,
    EXP_STEP_LO,
    EXP_TABLE,
    EXP_TEST,
    TANH_BIG_TEST,
    TANH_ROWS,
)

__all__ = ["exp", "tanh"]

_INF = float("inf")
ROUNDER = 6755399441055744.0  # 1.5 * 2**52: (z + ROUNDER) - ROUNDER rounds z to an integer
_INV_LN2 = 1.4426950408889634  # only picks the reduction multiple of the exact paths


def _tanh_table() -> dict:
    """Rows (c, h, l, a1h, a1l, a2, ..., a7, g, f) keyed by 64 c as a float,
    c = -4..4: the stored rows for c >= 0 and their mirror images for c < 0
    (tanh is odd)."""
    table = {}
    for i, (h, l, a1h, a1l, a2, a3, a4, a5, a6, a7, g, f) in enumerate(TANH_ROWS):
        c = i / 64
        table[-float(i)] = (-c, -h, -l, a1h, a1l, -a2, a3, -a4, a5, -a6, a7, g, f)
        table[float(i)] = (c, h, l, a1h, a1l, a2, a3, a4, a5, a6, a7, g, f)
    return table


TANH_TABLE = _tanh_table()


def exp(x: float) -> float:
    """e**x correctly rounded; inf for overflow, 0.0 after the subnormals."""
    if -708.0 < x < 709.0:  # result is a normal double
        # x = n ln2/1024 + r, |r| <= ln2/2048; e**x = 2**(n >> 10) T[n & 1023] e**r
        kf = (x * EXP_INV_STEP + ROUNDER) - ROUNDER
        r = (x - kf * EXP_STEP_HI) - kf * EXP_STEP_LO
        n = int(kf)
        th, tl = EXP_TABLE[n & 1023]
        q = tl + th * (r + r * r * (E2 + r * (E3 + r * E4)))
        y = th + q
        if y + (q - (y - th)) * EXP_TEST == y:
            return ldexp(y, n >> 10)
    return _exp_exact(x)


def tanh(x: float) -> float:
    """tanh(x) correctly rounded; keeps the sign of zero, +-1 for +-inf."""
    if x == 0.0:  # the fast path would turn -0.0 into +0.0
        return x
    if -4.0 < x < 4.0:
        # x = c + t, c = i/64, |t| <= 1/128; (x + g) - g rounds x to the
        # row's grid, xg = c + th, and tanh(x) = (h + a1h th) + lo with the
        # bracket exact
        c, h, l, a1h, a1l, a2, a3, a4, a5, a6, a7, g, f = TANH_TABLE[(x * 64.0 + ROUNDER) - ROUNDER]
        t = x - c
        xg = (x + g) - g
        s = h + a1h * (xg - c)
        lo = a1h * (x - xg) + (l + t * (a1l + t * (a2 + t * (a3 + t * (a4 + t * (a5 + t * (a6 + t * a7)))))))
        y = s + lo
        if y + (lo - (y - s)) * f == y:
            return y
    return tanh_slow(x)


def tanh_slow(x: float) -> float:
    """tanh outside the fast path: special values, |x| >= 4, and the
    arguments whose fast result the rounding test could not prove."""
    if x != x:
        return x
    a = -x if x < 0.0 else x
    if a < 2.0**-27:  # tanh(a) = a - a**3/3 + ... rounds to a; keeps -0.0
        return x
    if a >= 19.0625:  # 1 - tanh(a) < 2**-54
        y = 1.0
    elif a >= 4.0:
        d = 2.0 / (1.0 + exp(2.0 * a))
        y = 1.0 - d
        if y + ((1.0 - y) - d) * TANH_BIG_TEST != y:
            y = _tanh_exact(a)
    else:
        y = _tanh_exact(a)
    return -y if x < 0.0 else y


# Exact paths: fixed-point integers with explicit error bounds, at doubling
# precision until both ends of the error interval round to the same double
# (int / int true division rounds correctly, subnormals included).


@lru_cache(maxsize=16)
def _ln2(w: int) -> int:
    """ln2 * 2**w within 2 units: 2 atanh(1/3) = sum 2/((2j+1) 3**(2j+1))."""
    term = (2 << (w + 16)) // 3
    total, j = 0, 0
    while term:
        total += term // (2 * j + 1)
        term //= 9
        j += 1
    return total >> 16


def _fixed(num: int, b: int, w: int) -> int:
    """floor(num / 2**b * 2**w)."""
    return num << (w - b) if w >= b else num >> (b - w)


def _exp_reduced(y: int, k: int, w: int) -> tuple[int, int]:
    """(s, err) with |s - e**(y/2**w - k ln2) 2**w| <= err, for y within
    1 unit of the argument and |y/2**w - k ln2| < 0.4."""
    r = y - k * _ln2(w)  # within 2|k| + 1 units
    s = term = 1 << w
    n = 1
    while term:  # each term within 2 units; the tail below 6
        term = term * r // (n << w)
        s += term
        n += 1
    return s, 2 * n + 3 * abs(k) + 8


def _scaled(m: int, e: int) -> float:
    """m * 2**e rounded to nearest."""
    try:
        return m / (1 << -e) if e < 0 else float(m << e)
    except OverflowError:
        return _INF


def _exp_exact(x: float) -> float:
    if x != x:
        return x
    if x > 709.8:  # > ln(DBL_MAX)
        return _INF
    if x < -745.2:  # e**x < 2**-1075
        return 0.0
    if -(2.0**-54) <= x <= 2.0**-54:
        return 1.0
    num, den = x.as_integer_ratio()
    b = den.bit_length() - 1
    k = round(x * _INV_LN2)
    prec = 64
    while True:
        w = prec + 8
        s, err = _exp_reduced(_fixed(num, b, w), k, w)
        lo = _scaled(s - err, k - w)
        if lo == _scaled(s + err, k - w):
            return lo
        prec *= 2


def _tanh_exact(a: float) -> float:
    """tanh(a) = m/(m + 2), m = e**(2a) - 1, for 2**-27 <= a < 19.0625."""
    num, den = a.as_integer_ratio()
    b = den.bit_length() - 2  # 2a = num / 2**b
    prec = 64
    while True:
        if a < 0.5:  # series of e**y - 1, y = 2a >= 2**-26: relative error
            w = prec + 36
            y = _fixed(num, b, w)
            s = term = y
            n = 2
            while term:
                term = term * y // (n << w)
                s += term
                n += 1
            m_lo, m_hi = s - 2 * n - 8, s + 2 * n + 8
        else:
            w = prec + 8
            k = round(2.0 * a * _INV_LN2)
            s, err = _exp_reduced(_fixed(num, b, w), k, w)
            m_lo = ((s - err) << k) - (1 << w)
            m_hi = ((s + err) << k) - (1 << w)
        two = 2 << w
        lo = m_lo / (m_lo + two)  # m/(m + 2) increases with m
        if lo == m_hi / (m_hi + two):
            return lo
        prec *= 2
