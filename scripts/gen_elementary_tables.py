"""Write src/paramodel/elementary_tables.py, the constants of paramodel.elementary.

Every constant is computed with mpmath at 256 bits and stored as a
``float.hex`` literal, so the tables are the same bits on every platform.
mpmath is needed only here, not at run time.

- exp: 2**(j/1024) for j = 0..1023 as a double-double (hi, lo), the
  reduction constants 1024/ln2 and ln2/1024 (split so that ``kf * hi`` is
  exact for the reduction multiples ``|kf| < 2**21``), and a fit of
  (e**r - 1 - r)/r**2 on |r| <= ln2/2048.
- tanh: one row per centre c = i/64, i = 0..256 (|x| <= 4): tanh(c) and
  sech(c)**2 = tanh'(c), each split into a 26-bit head (h, a1h) and a
  double tail (l, a1l), and a degree-5 fit G of
  (tanh(c + t) - tanh(c) - tanh'(c) t)/t**2 on |t| <= 1/128, so that

      tanh(c + t) ~= h + a1h t + (l + t (a1l + t (a2 + t (a3 + ... + t a7)))).

  Each row also holds g = 1.5 * 2**(52 - q): (x + g) - g rounds x to a
  multiple xg of 2**-q, and q is chosen so that th = xg - c has at most
  27 bits and h + a1h * th is exact (all its bits lie within 53 of the
  top bit of the sum).

- The rounding-test factor of each fast path (see elementary.py): from a
  bound eps on the relative error of the unrounded result hi + lo, the
  test ``hi + lo * f == hi`` proves that hi is the correctly rounded value
  when f >= (1 + 2**54 eps) (1 + 2**-52).  eps is twice the largest
  relative error of the approximation, measured on a dense grid with the
  double coefficients as stored, plus a bound on the rounding errors of
  the evaluation (each step's error <= u = 2**-53 of its magnitude).
  Each tanh row has its own factor.

- The rounding errors of tanh's ``lo``, term by term (Higham, "Accuracy
  and Stability of Numerical Algorithms", 2nd ed., sections 3.1 and 5.1):

      lo = a1h * tl + (l + t * (a1l + t * (a2 + ... + t * (a6 + t * a7))))

  ``t = x - c`` is exact (Sterbenz: x lies within 1/128 of c = i/64, so
  c/2 <= x <= 2c, or c = 0), and so is ``tl = x - xg`` (both are
  multiples of the smaller of ulp(x) and 2**-q, and |tl| <= 2**-(q+1)).
  Write the coefficients a_0 = l, a_1 = a1l, a_2, ..., a_7.  Each
  operation returns its exact result times (1 + d), |d| <= u.  The
  Horner step of level j multiplies by t and adds a_j, so a_j t**j picks
  up one factor where it is added (none for a_7, which is not added) and
  two more, a product and a sum, at each of the j levels below: 2j + 1
  factors for j < 7, 14 for a_7.  The final sum with a1h * tl adds one
  to every term, and a1h * tl has its product and that sum.  A product
  of n factors (1 + d) is 1 + theta with |theta| <= gamma_n = n u / (1 -
  n u), so the computed lo differs from the exact one by at most

      gamma_2 |a1h tl| + sum_{j < 7} gamma_{2j+2} |a_j t**j| + gamma_15 |a_7 t**7|.

  The large terms l and a1h * tl are charged 2 roundings and the small
  ones up to 15, where a single bound charged 16 to every term.

Usage: python scripts/gen_elementary_tables.py [--check]

``--check`` writes nothing: it exits 1 if the committed
``elementary_tables.py`` differs from what the script generates, 0 if it
is the same.  Either run takes about 50 s.
"""

from __future__ import annotations

import argparse
import pathlib

import mpmath
from mpmath import mp, mpf

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "paramodel" / "elementary_tables.py"

EXP_BITS = 10  # 2**EXP_BITS table entries
TANH_STEP = 64  # centres per unit
TANH_LIMIT = 4  # table covers |x| <= TANH_LIMIT
TANH_TAYLOR = 40  # Taylor terms used to evaluate the fitted remainder
SAMPLES = 801
U = mpf(2) ** -53  # unit roundoff of binary64


def dbl(v) -> float:
    """mpf -> nearest double (mpmath rounds to nearest at 53 bits)."""
    return float(mpf(v))


def head(v, bits: int) -> float:
    """v rounded to nearest with ``bits`` significant bits."""
    m, e = mpmath.frexp(v)
    return float(mpmath.ldexp(mpmath.nint(mpmath.ldexp(m, bits)), e - bits))


def hexs(v: float) -> str:
    return repr(float.hex(v))


def tanh_taylor(c) -> list:
    """Taylor coefficients of tanh at c, from y' = 1 - y**2."""
    a = [mp.tanh(c)]
    for k in range(TANH_TAYLOR):
        conv = sum(a[j] * a[k - j] for j in range(k + 1))
        a.append(((1 if k == 0 else 0) - conv) / (k + 1))
    return a


def fit(g, h, n):
    """Chebyshev fit of degree n - 1 on [-h, h], coefficients lowest first,
    rounded to double."""
    poly = mpmath.chebyfit(g, [-h, h], n)
    return [dbl(c) for c in reversed(poly)]


def horner(coeffs, t):
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def gamma(n: int):
    """Higham's gamma_n = n u / (1 - n u), a bound on |theta| for a product
    1 + theta of n factors (1 + d), |d| <= u."""
    return n * U / (1 - n * U)


def test_factor(eps) -> float:
    """Smallest double f >= (1 + 2**54 eps (1 + 2**-6)) (1 + 2**-52)."""
    f = (1 + mpf(2) ** 54 * eps * (1 + mpf(2) ** -6)) * (1 + mpf(2) ** -52)
    d = dbl(f)
    return d if d >= f else d + 2.0**-52


def exp_constants():
    n = 2**EXP_BITS
    table = []
    for j in range(n):
        v = mp.power(2, mpf(j) / n)
        hi = dbl(v)
        table.append((hi, dbl(v - hi)))
    step = mp.ln(2) / n
    step_hi = head(step, 32)
    step_lo = dbl(step - step_hi)
    inv = dbl(n / mp.ln(2))
    # |r| <= step/2, exceeded by a few 2**-33 steps when x * inv rounds
    # across a half-integer
    h = step / 2 * (1 + mpf(2) ** -30)
    poly = fit(lambda r: (mp.expm1(r) - r) / r**2 if r else mpf(1) / 2, h, 3)
    worst = mpf(0)
    for i in range(SAMPLES):
        r = -h + 2 * h * i / (SAMPLES - 1)
        if r:
            approx = 1 + r + r * r * horner(poly, r)
            worst = max(worst, abs(approx / mp.exp(r) - 1))
    # r, r + r*r*(...), th*P and tl + th*P each round once; |r| <= h
    eps = 2 * worst + 5 * U * h
    print(f"exp: polynomial relative error <= 2**{float(mpmath.log(worst, 2)):.1f}, "
          f"eps = 2**{float(mpmath.log(eps, 2)):.1f}")
    return table, inv, step_hi, step_lo, poly, test_factor(eps)


def tanh_rows():
    h = mpf(1) / (2 * TANH_STEP) * (1 + mpf(2) ** -40)
    rows = []
    worst = mpf(0)
    for i in range(TANH_STEP * TANH_LIMIT + 1):
        c = mpf(i) / TANH_STEP
        a = tanh_taylor(c)
        hi = head(a[0], 26) if i else 0.0
        lo = dbl(a[0] - hi)
        a1h = head(a[1], 26)
        a1l = dbl(a[1] - a1h)
        rest = a[2:]
        g = fit(lambda t: horner(rest, t), h, 6)
        # bits of a1h * th start at 2**(ea - 25 - q), of h at 2**(eh - 25);
        # the sum is below 2**(eh + 1), so q <= ea - eh + 26 keeps it exact
        ea = int(mpmath.floor(mpmath.log(a1h, 2)))
        eh = int(mpmath.floor(mpmath.log(hi, 2))) if hi else ea - 7
        q = min(33, ea - eh + 26)
        fit_err = rounding = mpf(0)
        for k in range(SAMPLES):
            t = -h + 2 * h * k / (SAMPLES - 1)
            exact = mp.tanh(c + t)
            if exact:
                approx = mpf(hi) + mpf(lo) + (mpf(a1h) + mpf(a1l)) * t + t * t * horner(g, t)
                fit_err = max(fit_err, abs(approx / exact - 1))
                # each term of lo with the roundings it takes (module docstring)
                coeffs = [lo, a1l, *g]
                last = len(coeffs) - 1
                error = gamma(2) * a1h * mpf(2) ** -(q + 1)
                error += sum(gamma(2 * j + 2 if j < last else 2 * j + 1) * abs(a * t**j) for j, a in enumerate(coeffs))
                rounding = max(rounding, error / abs(exact))
        eps = 2 * fit_err + rounding
        worst = max(worst, eps)
        rows.append((hi, lo, a1h, a1l, *g, 1.5 * 2.0 ** (52 - q), test_factor(eps)))
    print(f"tanh: largest row eps = 2**{float(mpmath.log(worst, 2)):.1f}")
    # |x| >= 4: y = 1 - 2/(1 + E) with E = exp(2|x|) correctly rounded; E,
    # 1 + E and the quotient each round once, and 2/(1 + E) <= 2/(1 + e**8)
    big = 3 * U * (1 + 4 * U) * 2 / (1 + mp.exp(8)) / mp.tanh(4)
    return rows, test_factor(big)


def block(name: str, comment: str, rows) -> list[str]:
    """A table as one string of float.hex rows, split at import."""
    text = [" ".join(map(float.hex, row)) for row in rows]
    return [f"#: {comment}", f'{name} = _rows("""', *text, f'""", {len(rows[0])})', ""]


def source() -> str:
    """The text of elementary_tables.py."""
    mp.prec = 256
    exp_table, inv, step_hi, step_lo, exp_poly, exp_test = exp_constants()
    rows, big_test = tanh_rows()
    lines = [
        '"""Constants of paramodel.elementary as float.hex literals, one table row',
        "per line.",
        "",
        "Generated by scripts/gen_elementary_tables.py (mpmath, 256 bits); do not",
        'edit by hand."""',
        "",
        "",
        "def _rows(text: str, width: int) -> tuple:",
        '    """The floats of text, in consecutive rows of width."""',
        "    values = iter(map(float.fromhex, text.split()))",
        "    return tuple(zip(*[values] * width))",
        "",
        "",
        f"EXP_INV_STEP = float.fromhex({hexs(inv)})  # {2**EXP_BITS}/ln2",
        f"EXP_STEP_HI = float.fromhex({hexs(step_hi)})  # ln2/{2**EXP_BITS}, 32-bit head",
        f"EXP_STEP_LO = float.fromhex({hexs(step_lo)})  # ln2/{2**EXP_BITS} - EXP_STEP_HI",
        "#: (e**r - 1 - r)/r**2 ~= E2 + r*(E3 + r*E4) on |r| <= ln2/2048",
        "E2, E3, E4 = (" + ", ".join(f"float.fromhex({hexs(c)})" for c in exp_poly) + ")",
        f"EXP_TEST = float.fromhex({hexs(exp_test)})  # rounding-test factor",
        f"TANH_BIG_TEST = float.fromhex({hexs(big_test)})  # rounding-test factor for |x| >= 4",
        "",
    ]
    lines += block("EXP_TABLE", f"2**{EXP_BITS} rows: 2**(j/{2**EXP_BITS}) = hi + lo", exp_table)
    lines += block(
        "TANH_ROWS",
        f"rows for c = i/{TANH_STEP}, i = 0..{TANH_STEP * TANH_LIMIT}:"
        " h, l, a1h, a1l, a2, a3, a4, a5, a6, a7, g, rounding-test factor",
        rows,
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="exit 1 if the committed tables differ, write nothing")
    check = parser.parse_args(argv).check
    text = source()
    if check:
        same = OUT.read_text() == text
        print(f"{OUT}: {'the same as' if same else 'differs from'} what the script generates")
        return 0 if same else 1
    OUT.write_text(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
