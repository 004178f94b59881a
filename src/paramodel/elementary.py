"""Correctly rounded exp and tanh, with no call to the host's libm.

The simulation promises the same trace bits on every platform, so it must
not call the host's libm: libm's exp and tanh are not correctly rounded,
and they differ between C libraries and versions.  These two functions
return the correctly rounded (to nearest, ties to even) value of e**x and
tanh(x) for every double x, so their results are fixed by IEEE-754 alone.
The fast paths use only + - * / and comparisons on floats, which IEEE-754
rounds exactly the same way everywhere, ``int`` of an integral float, and
``math.ldexp`` by an exact power of two.

Each function has a fast path (Tang's table method for exp, a table of
local polynomials for tanh; constants in ``elementary_tables``, written by
``scripts/gen_elementary_tables.py``) that yields the result as an
unevaluated sum hi + lo with a relative error below a known bound eps, and
a rounding test: ``hi + lo * f == hi``, with f derived from eps, proves
that hi is the correctly rounded value (the test of Ziv's strategy, as in
CRlibm and CORE-MATH).  Fewer than one call in 250 fails the test; it is
then decided with the standard ``decimal`` module, whose ``exp`` is
correctly rounded, at doubling precision until a Decimal interval around
the exact value rounds to one double (e**x and tanh(x) are transcendental
for x != 0, so that always ends).

Each fast path is one text, ``EXP`` and ``TANH``, as ``controller.LAW``
is the one text of the law: ``exp`` and ``tanh`` are compiled from them,
``controller`` writes ``EXP`` out in the loop that fills a block of decay
values, and ``network.forward_source`` writes ``TANH`` out, its names
changed by ``rename``, for each node sum of the generated forward pass,
so those loops make no call of exp or tanh but on the exact path.  A text
keeps its table row in locals while its key holds: a loop whose
arguments move less than a row's width from one run of the text to the
next fetches a row only when the key changes.
"""

from __future__ import annotations

import re
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, DivisionByZero, InvalidOperation, Overflow
from math import ldexp
from typing import Callable

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

__all__ = ["EXP", "NO_ROW", "TANH", "assigned", "exp", "exp_slow", "rename", "tanh", "tanh_slow"]

_INF = float("inf")
ROUNDER = 6755399441055744.0  # 1.5 * 2**52: (z + ROUNDER) - ROUNDER rounds z to an integer
#: A ``row`` that no key equals (every key is an integral float): a text
#: run after ``row = NO_ROW`` fetches its row.
NO_ROW = 0.5


def _tanh_table() -> dict:
    """Rows (c, h, l, a1h, a1l, a2, ..., a7, g, f) keyed by ``ROUNDER + 64 c``
    as a float, c = -4..4: the stored rows for c >= 0 and their mirror images
    for c < 0 (tanh is odd).  For |x| < 4, ``x * 64.0 + ROUNDER`` rounds
    once, to ``ROUNDER`` plus 64 x rounded to an integer: the key of the row
    whose centre is nearest x."""
    table = {}
    for i, (h, l, a1h, a1l, a2, a3, a4, a5, a6, a7, g, f) in enumerate(TANH_ROWS):
        c = i / 64
        table[ROUNDER - i] = (-c, -h, -l, a1h, a1l, -a2, a3, -a4, a5, -a6, a7, g, f)
        table[ROUNDER + i] = (c, h, l, a1h, a1l, a2, a3, a4, a5, a6, a7, g, f)
    return table


TANH_TABLE = _tanh_table()

#: The fast path of tanh, the one text of it.  It reads a double ``x`` and
#: sets ``y`` to tanh(x) correctly rounded, but to ``+0.0`` for ``x =
#: -0.0``.  The row of the centre c = i/64 nearest x gives x = c + t, |t|
#: <= 1/128; ``(x + g) - g`` rounds x to the row's grid, xg, and tanh(x) =
#: (h + a1h (xg - c)) + lo with the bracket exact.  When the rounding test
#: fails, and for |x| >= 4 and nan, it takes ``tanh_slow(x)``.  It reads
#: the globals ``TANH_TABLE`` and ``tanh_slow``.  The row's values, and its
#: key in ``row``, stay from one run to the next: the caller sets ``row =
#: NO_ROW`` before the first.  ``tanh`` is compiled from it, and
#: ``network.forward_source`` writes it out for each node sum, which is
#: never -0.0.
TANH = f"""\
if -4.0 < x < 4.0:
    key = x * 64.0 + {ROUNDER!r}
    if key != row:
        row = key
        c, h, l, a1h, a1l, a2, a3, a4, a5, a6, a7, g, f = TANH_TABLE[key]
    t = x - c
    xg = (x + g) - g
    s = h + a1h * (xg - c)
    lo = a1h * (x - xg) + (l + t * (a1l + t * (a2 + t * (a3 + t * (a4 + t * (a5 + t * (a6 + t * a7)))))))
    y = s + lo
    if y + (lo - (y - s)) * f != y:
        y = tanh_slow(x)
else:
    y = tanh_slow(x)
"""

#: The fast path of exp, the one text of it.  It reads a double ``x`` and
#: sets ``y`` to e**x correctly rounded.  Tang's method: x = kf ln2/1024 +
#: r, |r| <= ln2/2048, with n = int(kf), and e**x = 2**(n >> 10) T[n & 1023]
#: e**r, T[j] = th + tl from ``EXP_TABLE``.  The result is a normal double
#: for -708 < x < 709, so multiplying by the power of two ``scale`` is
#: exact and equals ``ldexp``.  When the rounding test fails, and outside
#: that range, it takes ``exp_slow(x)``.  It reads the globals
#: ``EXP_TABLE``, ``ldexp`` and ``exp_slow``.  The row, ``th``, ``tl`` and
#: ``scale``, and its key kf in ``row``, stay from one run to the next:
#: the caller sets ``row = NO_ROW`` before the first.  ``exp`` is compiled
#: from it, and ``controller`` writes it out in the loop of a decay block.
EXP = f"""\
if -708.0 < x < 709.0:
    kf = (x * {EXP_INV_STEP!r} + {ROUNDER!r}) - {ROUNDER!r}
    r = (x - kf * {EXP_STEP_HI!r}) - kf * {EXP_STEP_LO!r}
    if kf != row:
        row = kf
        n = int(kf)
        th, tl = EXP_TABLE[n & 1023]
        scale = ldexp(1.0, n >> 10)
    q = tl + th * (r + r * r * ({E2!r} + r * ({E3!r} + r * {E4!r})))
    y = th + q
    if y + (q - (y - th)) * {EXP_TEST!r} == y:
        y = y * scale
    else:
        y = exp_slow(x)
else:
    y = exp_slow(x)
"""

# A number literal is one token, so that the ``e`` of ``1e-05`` is no name.
_TOKEN = re.compile(r"([A-Za-z_]\w*)|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def rename(text: str, name: Callable[[str], str]) -> str:
    """``text`` with ``name(v)`` written for each name ``v`` in it; number
    literals stay as they are."""
    return _TOKEN.sub(lambda m: name(m[1]) if m[1] else m[0], text)


def assigned(text: str) -> tuple[frozenset, frozenset]:
    """The names a fast-path text assigns, ``y`` and its temporaries, and
    of those the row it keeps: the names that its row fetch, the block of
    ``if ... != row:``, assigns, ``row`` among them."""
    names, row, fetch = set(), set(), None  # fetch: the indent of the fetch's if
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip())
        if fetch is not None and indent <= fetch:
            fetch = None
        if line.endswith(" != row:"):
            fetch = indent
        elif " = " in line:
            targets = {m[1] for m in _TOKEN.finditer(line.split(" = ")[0]) if m[1]}
            names |= targets
            if fetch is not None:
                row |= targets
    return frozenset(names), frozenset(row)


def _source(name: str, text: str, head: tuple[str, ...] = ()) -> str:
    """The text of the function ``name(x)``: the lines ``head``, then
    ``row = NO_ROW``, so that each call fetches its row, then the fast-path
    text ``text`` on the argument ``x``, and ``return y``."""
    lines = [f"def {name}(x):", *head, f"row = {NO_ROW!r}", *text.splitlines()]
    return "\n".join([lines[0], *(f"    {line}" for line in lines[1:]), "    return y"])


def _tanh_source() -> str:
    """The text of ``tanh``: ``TANH`` after a test that returns a zero as
    given."""
    return _source("tanh", TANH, ("if x == 0.0:  # the fast path would turn -0.0 into +0.0", "    return x"))


def _exp_source() -> str:
    """The text of ``exp``: ``EXP``."""
    return _source("exp", EXP)


def _compiled(source: str, name: str, doc: str) -> Callable:
    """The function ``name`` that ``source`` defines, compiled with this
    module's globals, which it reads at each call."""
    namespace: dict = {}
    exec(source, globals(), namespace)
    fn = namespace[name]
    fn.__module__, fn.__doc__ = __name__, doc
    return fn


exp = _compiled(_exp_source(), "exp", """e**x correctly rounded; inf for overflow, 0.0 after the subnormals.""")
tanh = _compiled(_tanh_source(), "tanh", """tanh(x) correctly rounded; keeps the sign of zero, +-1 for +-inf.""")


def exp_slow(x: float) -> float:
    """exp outside the fast path: nan, +-inf and the arguments whose result
    is not a normal double, and the arguments whose fast result the
    rounding test could not prove."""
    if x != x:
        return x
    if x > 709.8:  # > ln(DBL_MAX)
        return _INF
    if x < -745.2:  # e**x < 2**-1075
        return 0.0
    return _exp_exact(x)


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


# Exact paths: a Decimal interval that contains the exact value, at doubling
# precision until both ends round to the same double.  Context.exp is
# correctly rounded, float(Decimal) rounds correctly (subnormals included)
# and rounding is monotone, so that double is the correctly rounded value.
# Each context sets every field that can change a value and floats enter by
# Decimal.from_float (Decimal(float) signals to the thread's context), so
# neither the thread's context nor decimal.DefaultContext reaches a result;
# the traps raise where a NaN (inf/inf, out of the domain) would loop forever.


def _context(prec: int, rounding: str) -> Context:
    return Context(prec, rounding, Emin=-9999, Emax=9999, clamp=0, traps=[InvalidOperation, DivisionByZero, Overflow])


def _exact(bounds, x: float) -> float:
    prec = 24
    while True:
        lo, hi = bounds(x, prec)
        y = float(lo)
        if y == float(hi):
            return y
        prec *= 2


def _exp_bounds(x: float, prec: int) -> tuple[Decimal, Decimal]:
    c = _context(prec, ROUND_FLOOR)
    y = c.exp(Decimal.from_float(x))  # rounded to nearest whatever the context's rounding
    return c.next_minus(y), c.next_plus(y)


def _tanh_bounds(a: float, prec: int) -> tuple[Decimal, Decimal]:
    """tanh(a) = m/(m + 2), m = e**(2a) - 1 > 0, each step rounded outward."""
    down, up = _context(prec, ROUND_FLOOR), _context(prec, ROUND_CEILING)
    e = down.exp(Decimal.from_float(2.0 * a))  # rounded to nearest whatever the context's rounding
    m_lo = down.subtract(down.next_minus(e), 1)
    m_hi = up.subtract(up.next_plus(e), 1)
    return down.divide(m_lo, up.add(m_lo, 2)), up.divide(m_hi, down.add(m_hi, 2))


def _exp_exact(x: float) -> float:
    """e**x for -745.2 <= x <= 709.8."""
    return _exact(_exp_bounds, x)


def _tanh_exact(a: float) -> float:
    """tanh(a) for 2**-27 <= a < 19.0625."""
    return _exact(_tanh_bounds, a)
