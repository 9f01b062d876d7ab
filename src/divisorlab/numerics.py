"""Small numerical building blocks: golden-section search, bracketing,
cubic root finding, directed decimal rounding, and least-squares slopes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import mpmath as mp

from .errors import BracketError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
# the fixed settings of golden_max, check_unimodal and real_cubic_roots
GOLDEN_MAXITER = 200
UNIMODAL_SAMPLES = 33
UNIMODAL_REL_TOL = 1e-12
NEWTON_STEPS = 3


def golden_max(f: Callable, a, b, xtol=1e-10):
    """Golden-section search for the maximum of a unimodal f on [a, b].

    Returns (x_star, f(x_star)).  Works with floats or mpmath mpfs; the
    caller guarantees unimodality (see bracket_max).
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


def bracket_max(f: Callable, a, b, n: int):
    """Locate a bracket around the maximum of f on [a, b] by an n-point scan.

    Returns (lo, hi) such that the grid maximum is interior to (lo, hi).
    Raises BracketError when the scan maximum sits on the boundary (no
    interior maximum was bracketed).
    """
    if n < 3:
        raise BracketError("bracketing scan needs at least 3 points")
    xs = [a + (b - a) * i / (n - 1) for i in range(n)]
    ys = [f(x) for x in xs]
    i = max(range(n), key=ys.__getitem__)
    if i == 0 or i == n - 1:
        raise BracketError(
            f"scan maximum at boundary x={xs[i]}; no interior maximum in [{a}, {b}]"
        )
    return xs[i - 1], xs[i + 1]


def check_unimodal(f: Callable, lo, hi) -> bool:
    """Sample f on [lo, hi] and verify a rise-then-fall (unimodal) pattern.

    Differences smaller than UNIMODAL_REL_TOL * scale are treated as flat so
    that a numerically flat peak does not count as extra sign changes.
    """
    xs = [lo + (hi - lo) * i / (UNIMODAL_SAMPLES - 1) for i in range(UNIMODAL_SAMPLES)]
    ys = [f(x) for x in xs]
    scale = max(abs(y) for y in ys) or 1.0
    fell = False
    for y0, y1 in zip(ys, ys[1:]):
        d = y1 - y0
        if abs(d) > UNIMODAL_REL_TOL * scale:
            if d > 0 and fell:  # rose again after falling
                return False
            fell = fell or d < 0
    return True


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


def _exact_fraction(x) -> Fraction:
    """x as an exact Fraction, an mpf through its mantissa and exponent."""
    if isinstance(x, mp.mpf) and mp.isfinite(x):
        man, exp = x.man_exp  # |x| = man * 2^exp
        return Fraction(-man if x < 0 else man) * Fraction(2) ** exp
    return Fraction(x)


def round_down(x, decimals: int) -> float:
    """Round x toward -inf at the given number of decimals (exact in Fraction)."""
    q = Fraction(10) ** decimals
    return float(math.floor(_exact_fraction(x) * q) / q)


def round_up(x, decimals: int) -> float:
    """Round x toward +inf at the given number of decimals (exact in Fraction)."""
    q = Fraction(10) ** decimals
    return float(math.ceil(_exact_fraction(x) * q) / q)


def ols_slope(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of ys against xs and its standard error."""
    import numpy as np
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError("need at least two points for a slope")
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise ValueError("degenerate abscissae")
    slope = float(xm @ ym) / sxx
    resid = ym - slope * xm
    dof = max(n - 2, 1)
    stderr = math.sqrt(float(resid @ resid) / dof / sxx)
    return slope, stderr
