"""Small numerical building blocks: golden-section search, exact polynomials
(Sturm root counts, Taylor shifts), cubic root finding, directed decimal
rounding, and least-squares slopes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Sequence

import mpmath as mp

from .errors import BracketError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
# the fixed settings of golden_max and real_cubic_roots
GOLDEN_MAXITER = 200
NEWTON_STEPS = 3


def golden_max(f: Callable, a, b, xtol=1e-10):
    """Golden-section search for the maximum of a unimodal f on [a, b].

    Returns (x_star, f(x_star)).  Works with floats or mpmath mpfs; the
    caller guarantees unimodality.
    """
    if not a < b:
        raise BracketError(f"empty bracket [{a}, {b}]")
    h = b - a
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(GOLDEN_MAXITER):
        if h <= xtol:
            break
        h = INV_PHI * h
        if yc > yd:
            b, d, yd = d, c, yc
            c = a + INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + INV_PHI * h
            yd = f(d)
    if yc > yd:
        return c, yc
    return d, yd


def poly_eval(p, x):
    """p(x) by Horner.  Polynomials are coefficient lists, constant term first."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(*ps) -> list:
    """Sum of polynomials, trailing zeros dropped."""
    out = [sum(cs) for cs in zip_longest(*ps, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(*ps) -> list:
    """Product of polynomials."""
    out = [1]
    for p in ps:
        prod = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


def _poly_divmod(p, q) -> tuple[list, list]:
    """Quotient and remainder of p by q, in Fractions."""
    r, quot = [Fraction(c) for c in p], []
    while len(r) >= len(q):
        quot.insert(0, r[-1] / q[-1])
        for i, c in enumerate(q, len(r) - len(q)):
            r[i] -= quot[0] * c
        r.pop()
    return quot, poly_add(r)


def _primitive(p) -> list:
    """p times the positive rational that makes its coefficients coprime ints."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints) or 1
    return [c // g for c in ints]


def sturm_sequence(p) -> list:
    """Sturm sequence p, p', -rem(p, p'), ... of the square-free part of p.

    Each member is scaled by a positive rational to coprime int coefficients
    (``_primitive``) before the next remainder: a positive factor moves no
    sign, and rem(a f, b g) = a rem(f, g) for a, b > 0, so the sign
    variations at every point are those of the unscaled sequence.
    """
    seq, q = [_primitive(p)], [i * c for i, c in enumerate(p)][1:]
    while q:
        seq.append(_primitive(q))
        q = [-c for c in _poly_divmod(seq[-2], seq[-1])[1]]
    if len(seq[-1]) > 1:  # divide out gcd(p, p'), which holds the repeated roots
        return sturm_sequence(_poly_divmod(seq[0], seq[-1])[0])
    return seq


def sign_variations(seq, x) -> int:
    """Sign changes along the sequence at x, zeros skipped.  For a Sturm
    sequence and a < b, sign_variations(seq, a) - sign_variations(seq, b) is
    the number of distinct real roots in (a, b], also where a or b is a root.

    With x = r/d in lowest terms (d > 0), each q is evaluated as
    d^deg q(r/d), which has the sign of q(x), by Horner in ints for int
    coefficients.
    """
    x = Fraction(x)
    r, d = x.numerator, x.denominator
    dpow = [d ** i for i in range(max(map(len, seq), default=0))]

    def value(q):
        v = 0
        for c, dp in zip(reversed(q), dpow):
            v = v * r + c * dp
        return v

    signs = [v > 0 for v in map(value, seq) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def taylor_shift(p, s) -> list:
    """Coefficients in u of p(s + u)."""
    q = list(p)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += s * q[j + 1]
    return q


def real_cubic_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0, ascending, Newton-polished."""
    import numpy as np
    roots = np.roots([c3, c2, c1, c0])
    out = []
    for r in roots:
        if abs(r.imag) > 1e-8 * (1.0 + abs(r.real)):
            continue
        x = float(r.real)
        for _ in range(NEWTON_STEPS):
            fx = ((c3 * x + c2) * x + c1) * x + c0
            dfx = (3.0 * c3 * x + 2.0 * c2) * x + c1
            if dfx == 0.0:
                break
            x -= fx / dfx
        out.append(x)
    return sorted(out)


def exact_fraction(x) -> Fraction:
    """x as an exact Fraction, an mpf through its mantissa and exponent."""
    if isinstance(x, mp.mpf) and mp.isfinite(x):
        man, exp = x.man_exp  # |x| = man * 2^exp
        return Fraction(-man if x < 0 else man) * Fraction(2) ** exp
    return Fraction(x)


def round_down(x, decimals: int) -> float:
    """Round x toward -inf at the given number of decimals (exact in Fraction)."""
    q = Fraction(10) ** decimals
    return float(math.floor(exact_fraction(x) * q) / q)


def round_up(x, decimals: int) -> float:
    """Round x toward +inf at the given number of decimals (exact in Fraction)."""
    q = Fraction(10) ** decimals
    return float(math.ceil(exact_fraction(x) * q) / q)


def ols_slope(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of ys against xs and its standard error.  Every sum
    is ``math.fsum``, correctly rounded, so the bits do not depend on the
    summation order of a BLAS kernel or SIMD level."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points for a slope")
    xbar, ybar = math.fsum(xs) / n, math.fsum(ys) / n
    dx = [x - xbar for x in xs]
    dy = [y - ybar for y in ys]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise ValueError("degenerate abscissae")
    slope = math.fsum(a * b for a, b in zip(dx, dy, strict=True)) / sxx
    resid = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    return slope, math.sqrt(resid / max(n - 2, 1) / sxx)
