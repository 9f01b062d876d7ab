"""Stieltjes constants, the coefficients of (s - 1) zeta(s) at s = 1, and
main-term polynomials extracted as residues of zeta^k(s) x^s / s.

The zeta expansion used throughout is

    zeta(s) = 1/(s-1) + sum_{n>=0} (-1)^n gamma_n (s-1)^n / n!

with the gamma_n computed in-repo by Euler-Maclaurin (with a rigorous tail
bound), so the artifact is self-contained.  One fixed-point kernel in Python
ints forms each gamma_n: its floors stay below 2^{-precision_bits-48}, far
under the tail bound and the final rounding to precision_bits + 16 bits (see
``stieltjes``), and the Bernoulli ratios are exact, from tangent numbers.
P_{k-1} comes from one power series, that of (w zeta(1+w))^k, w = s - 1,
truncated past the w^{k-1} its residue reads.

The contour oracle checks those residues independently: the trapezoid DFT of
(w zeta(1+w))^k / (1+w) on |w| = 1/4, w = s - 1, at the node count proven from
the rule's aliasing bound, gives every coefficient of P_{k-1} at once, with no
x in the quadrature.  Its cost floor is one cached mp.zeta sweep per precision;
each call forms the k DFT rows from the sweep in fixed-point ints, within a
stated bound per coefficient.

Everything here is pure: values are immutable and memos are keyed by all inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

import mpmath as mp
from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_log, round_nearest, to_fixed

from .errors import (
    DomainError,
    PrecisionError,
    QuadratureError,
    check_finite,
    check_integral,
    check_within,
    plain_float,
)
from .numerics import poly_eval

STIELTJES_MAX_N = 64
STIELTJES_MAX_BITS = 4096
EM_J_GRID = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)  # Euler-Maclaurin terms
EM_M_GRID = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)  # direct-sum cutoffs


# ---------------------------------------------------------------------------
# Stieltjes constants by Euler-Maclaurin
# ---------------------------------------------------------------------------

def _deriv_polys(n: int):
    """Yield p_0, p_1, ... (coefficients ascending in u = log x) with
    d^m/dx^m [(log x)^n / x] = p_m(log x) / x^{m+1}.

    p_0(u) = u^n and p_{m+1} = p_m' - (m+1) p_m, exactly over the integers.
    """
    p = [0] * n + [1]
    for m in count(1):
        yield p
        p = [i * b - m * a for i, (a, b) in enumerate(zip(p, p[1:] + [0]), 1)]


def _em_tail_log2(p2J: list[int], J: int, M: int) -> float:
    """log2 of a rigorous bound for the Euler-Maclaurin remainder after J
    terms, given p2J = p_{2J} of ``_deriv_polys``, evaluated in floats:
    |R| <= 4/(2 pi)^{2J} * integral_M^inf |f^{(2J)}(x)| dx  (|periodic
    Bernoulli| <= 2 (2J)! zeta(2J) / (2 pi)^{2J} and zeta(2J) < 2), where
    integral_M^inf (log x)^i x^{-s-1} dx = M^{-s} T_i, s = 2J, and T_i = sum_r
    (i)_r (log M)^{i-r} / s^{r+1} obeys T_i = ((log M)^i + i T_{i-1}) / s exactly;
    its terms are positive, so nothing cancels, and a bound costs O(n) for gamma_n.
    The coefficients, up to about 2^4000, enter through ``math.log2`` of the
    ints, and the sum through one ``fsum`` scaled by its largest term.
    """
    s, lm = 2 * J, math.log(M)
    tail, lpow, logs = 0.0, 1.0, []
    for i, c in enumerate(p2J):
        tail = (lpow + i * tail) / s
        lpow *= lm
        if c:
            logs.append(math.log2(abs(c)) + math.log2(tail))
    top = max(logs)
    return (2 - s * math.log2(2 * math.pi * M) + top
            + math.log2(math.fsum(2 ** (t - top) for t in logs)))


def _pick_em_parameters(n: int, target_log2: int) -> tuple[int, int, list]:
    """Cheapest (J, M) on the grids at which the rigorous tail bound of gamma_n
    beats 2^{target_log2}: the smallest M >= 2n (the direct sum costs M
    logarithms, the corrections only J cheap terms) for which some J does,
    with the smallest such J; and p_0, ..., p_{2J} of ``_deriv_polys(n)``,
    which the corrections reuse.

    The rule is ``_em_tail_log2 < target_log2 - 1``, target_log2 an integer
    at every caller.  At each of the 6083 grid points (n <= 64, M >= 2n, every
    J) the float log2 lies within 1.7e-12 of the bound's log2 at 40 digits,
    and that value lies at least 1.16e-4 from an integer (closest at n = 31,
    M = 16384, J = 128): the float rule picks what the 40-digit rule picks,
    at every n and every precision, with no mp fallback.
    """
    gen, polys = _deriv_polys(n), []
    for M in EM_M_GRID:
        if M < 2 * n:
            continue
        for J in EM_J_GRID:
            polys.extend(islice(gen, max(2 * J + 1 - len(polys), 0)))
            if _em_tail_log2(polys[2 * J], J, M) < target_log2 - 1:
                return J, M, polys[:2 * J + 1]
    raise PrecisionError(
        f"no Euler-Maclaurin parameters reach 2^{target_log2:.0f} for gamma_{n}")


def stieltjes(n: int, precision_bits: int = 256) -> mp.mpf:
    """Stieltjes constant gamma_n with absolute error below 2^{-precision_bits+8}.

    Euler-Maclaurin applied to f(x) = (log x)^n / x (F. Johansson, Numer.
    Algorithms 69, 2015):

        gamma_n = sum_{k<=M} f(k) - (log M)^{n+1}/(n+1) - f(M)/2
                  - sum_{j<=J} B_{2j}/(2j)! f^{(2j-1)}(M) + R_J,

    with (J, M) of ``_pick_em_parameters``, chosen for gamma_n alone so the
    rigorous bound R on R_J is below 2^{-precision_bits-5}.  Each value is
    computed once per (n, precision_bits) and depends on nothing else.

    The sum is formed in ints scaled by 2^wp, u = 2^-wp, wp = precision_bits
    + g, g = floor((n+1) log2 l) + 64, l = log M >= log 64 > 4, so that
    2^g >= 2^63 l^{n+1}.  Each log k is floor(y 2^wp), y = log k rounded to
    W + 8 bits, W = wp rounded up to a multiple of 64: ``_log_table``'s
    floor(y 2^W), cached per (M, W) and shifted down by W - wp bits, so one
    table serves gamma_0 .. gamma_10 at 352 bits.  As floor(floor(z)/2^k) =
    floor(z/2^k), the shifted log is off by < 2u, as one rounded at wp + 8
    bits was.  Its m-th power, by floored products, is off by e_m < 3 m
    l^{m-1} u: by induction, as |log k| <= l, e_m <= l e_{m-1} + 2 l^{m-1} u
    + u.  Then

    * the direct sum: M - 1 floored divisions by k, and the powers' errors
      over sum 1/k <= 1 + l: < (4 n l^n + M) u;
    * (log M)^{n+1}/(n+1) and (log M)^n/(2M): two floors and < (4 l^n + 2) u;
    * the corrections: p_{2j-1}(log M) of ``_deriv_polys`` as an exact dot
      product with the fixed powers of log M, times the exact numerator of
      B_{2j}/(2j)! (``_bernoulli_ratios``), floored once by its denominator
      times M^{2j}: J floors, and the powers' errors, < (3n/l) w_j u, w_j =
      |B_{2j}/(2j)!| |p_{2j-1}|(l) / M^{2j}, |p| with absolute coefficients.
      The signs of p_m alternate, so nothing cancels in p_m = p_{m-1}' -
      m p_{m-1}: b_m = |p_m|(l) / (2 pi M)^m moves by a factor in
      [m, m + n/l] / (2 pi M) per step, falls while m + n/l <= 2 pi M, and
      at most n/l + 1 < 17 steps of factor > 0.96 (2 pi M >= 402) lie below
      the rise: b_m <= max(b_0, 2 b_{2J}) for m <= 2J.  b_0 = l^n, and R >=
      4 |p_{2J}|(l) / (2J (2 pi M)^{2J}) gives b_{2J} <= J R / 2 < 2.  As
      |B_{2j}/(2j)!| < 4/(2 pi)^{2j}, w_j <= 4 b_{2j-1} / (2 pi M) <=
      max(l^n, 4) / 100, and the corrections are off by
      < J u + 119 max(l^n, 4) u.

    In all, at n <= 64, M <= 2^14, J <= 256, the floors cost
    < (4n + 123) max(l^n, 4) u + (M + J + 3) u < 2^{-precision_bits-48}.
    The one rounding to precision_bits + 16 bits costs half an ulp, between
    2^{-precision_bits-32} (|gamma_n| >= 2.6e-5, at n = 17) and
    2^{-precision_bits+4} (|gamma_n| < 2^21, at n = 64): with R, the error
    stays below 2^{-precision_bits+5}.
    """
    check_within("n", n, 0, STIELTJES_MAX_N)
    check_within("precision_bits", precision_bits, 1, STIELTJES_MAX_BITS)
    n = check_integral("n", n)
    precision_bits = check_integral("precision_bits", precision_bits)
    return _stieltjes(n, precision_bits)


@functools.cache
def _bernoulli_ratios(J: int) -> tuple:
    """(num, den) in lowest terms with num/den = B_{2j}/(2j)!, j = 1..J.

    From the tangent numbers T_j, tan x = sum T_j x^{2j-1}/(2j-1)!, by the
    integer recurrence of Brent and Harvey ("Fast computation of Bernoulli,
    tangent and secant numbers", 2013, algorithm TangentNumbers), and
    B_{2j} = (-1)^{j-1} 2j T_j / (4^j (4^j - 1)), so that
    B_{2j}/(2j)! = (-1)^{j-1} T_j / (4^j (4^j - 1) (2j-1)!).
    """
    t = [0, 1]
    for k in range(2, J + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, J + 1):
        for j in range(k, J + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out, fact = [], 1  # fact = (2j-1)!
    for j in range(1, J + 1):
        r = Fraction((-1) ** (j - 1) * t[j], 4 ** j * (4 ** j - 1) * fact)
        out.append((r.numerator, r.denominator))
        fact *= 2 * j * (2 * j + 1)
    return tuple(out)


@functools.cache
def _log_table(M: int, W: int) -> tuple:
    """floor(y_k 2^W) for k = 0..M, y_k = log k rounded to W + 8 bits (0 at
    k = 0 and 1); gamma_n shifts it to its own wp <= W."""
    return (0, 0) + tuple(to_fixed(mpf_log(from_int(k), W + 8, round_nearest), W)
                          for k in range(2, M + 1))


@functools.cache
def _stieltjes(n: int, precision_bits: int) -> mp.mpf:
    J, M, polys = _pick_em_parameters(n, -(precision_bits + 4))
    # cancellation headroom: partial sums reach (log M)^{n+1}/(n+1)
    guard = int((n + 1) * max(math.log2(math.log(M)), 1.0)) + 64
    wp = precision_bits + guard
    one = 1 << wp
    W = -(-wp // 64) * 64
    logs = [y >> (W - wp) for y in _log_table(M, W)]

    total = one if n == 0 else 0  # k = 1
    for k in range(2, M + 1):
        lk, p = logs[k], one
        for _ in range(n):
            p = p * lk >> wp
        total += p // k
    lm, lpow = logs[M], [one]
    for _ in range(n + 1):
        lpow.append(lpow[-1] * lm >> wp)
    total -= lpow[n + 1] // (n + 1)
    total -= lpow[n] // (2 * M)
    ratios = _bernoulli_ratios(J)
    for j, p in enumerate(polys[1:2 * J:2], 1):  # p_1, p_3, ..., p_{2J-1}
        num, den = ratios[j - 1]
        deriv = sum(c * lp for c, lp in zip(p, lpow) if c)
        total -= num * deriv // (den * M ** (2 * j))
    # round once to a fixed mantissa, independent of n's guard bits; without it
    # every main term built on gamma_n would move in its last bits
    return mp.make_mpf(from_man_exp(total, -wp, precision_bits + 16, round_nearest))


# ---------------------------------------------------------------------------
# main-term polynomial as a residue
# ---------------------------------------------------------------------------

def zeta_laurent(terms: int, precision_bits: int = 256) -> tuple:
    """Coefficients of w zeta(1+w), w = s - 1, ascending in w: 1, then
    (-1)^n gamma_n / n! for n < ``terms``, formed at precision_bits + 32 bits."""
    check_within("terms", terms, 1, STIELTJES_MAX_N)
    terms = check_integral("terms", terms)
    check_within("precision_bits", precision_bits, 1, STIELTJES_MAX_BITS - 32)
    precision_bits = check_integral("precision_bits", precision_bits)
    bits = precision_bits + 32
    with mp.workprec(bits):
        return (mp.mpf(1),) + tuple((-1) ** n * stieltjes(n, bits) / mp.factorial(n)
                                    for n in range(terms))


def _truncated_mul(a: tuple, b: tuple) -> tuple:
    """a b truncated to the shorter length, in the mp context (Fractions exact);
    zero coefficients of a are skipped."""
    n = min(len(a), len(b))
    out = [a[0] * 0] * n
    for i, c in enumerate(a[:n]):
        if c != 0:
            for j, d in enumerate(b[:n - i]):
                out[i + j] = out[i + j] + c * d
    return tuple(out)


def _truncated_pow(a: tuple, k: int) -> tuple:
    """a^k, k >= 1, truncated to len(a), by binary powering."""
    result = None
    while k:
        if k & 1:
            result = a if result is None else _truncated_mul(result, a)
        k >>= 1
        if k:
            a = _truncated_mul(a, a)
    return result


def _residue_coeffs(a: tuple, k: int) -> list:
    """c_j = b_{k-1-j} / j!, j < k, for b = a / (1 + w): b_m = sum_{i<=m}
    (-1)^{m-i} a_i, summed from i = m down, in the mp context (Fractions exact).

    With a the coefficients of (w zeta(1+w))^k, c_j is the L^j coefficient of the
    residue of zeta^k(s) e^{L(s-1)} / s at s = 1, L = log x: x^s / s = x e^{Lw} /
    (1 + w), and e^{Lw} contributes L^j/j! at w^j.
    """
    fact = [a[0] * 0 + 1]
    for j in range(1, k):
        fact.append(fact[-1] * j)
    out = []
    for j in range(k):
        m, acc = k - 1 - j, a[0] * 0
        for i in range(m, -1, -1):
            acc = acc + a[i] * (-1) ** (m - i)
        out.append(acc / fact[j])
    return out


MAIN_TERM_K_CAP = 40  # factorial coefficient growth past desk scale
# the Stieltjes constants of a main term carry 96 bits more than it
MAIN_TERM_MAX_BITS = STIELTJES_MAX_BITS - 96


@dataclass(frozen=True)
class MainTermPoly:
    """P_{k-1}(t) = sum_j coeffs[j] t^j; the summatory main term is x P_{k-1}(log x).

    ``leading_exact`` is the exact rational shadow of the top coefficient,
    always 1/(k-1)!.
    """

    k: int
    coeffs: tuple
    precision_bits: int
    leading_exact: Fraction

    def __post_init__(self):
        if len(self.coeffs) != self.k:
            raise DomainError(f"P_{self.k - 1} needs {self.k} coefficients")

    def as_floats(self) -> list[float]:
        return [float(c) for c in self.coeffs]


def main_term_poly(k: int, precision_bits: int = 256) -> MainTermPoly:
    """Degree-(k-1) main-term polynomial from the residue of zeta^k(s) x^s / s
    at s = 1, computed symbolically in L = log x, once per (k, precision_bits).

    The leading coefficient is re-derived through an exact Fraction shadow of
    the same residue algebra (the pole alone) and must equal 1/(k-1)!.
    """
    check_within("k", k, 1, MAIN_TERM_K_CAP)
    check_within("precision_bits", precision_bits, 1, MAIN_TERM_MAX_BITS)
    k = check_integral("k", k)
    precision_bits = check_integral("precision_bits", precision_bits)
    return _main_term(k, precision_bits)


@functools.cache
def _main_term(k: int, precision_bits: int) -> MainTermPoly:
    n = max(k, 2)  # coefficients of w zeta(1+w) kept: w^0 .. w^{n-1}
    zeta = zeta_laurent(n - 1, precision_bits + 64)
    with mp.workprec(precision_bits + 96):
        zk = _truncated_pow(zeta, k)
    with mp.workprec(precision_bits + 64):
        coeffs = tuple(+c for c in _residue_coeffs(zk, k))
    # exact shadow: the pole alone, w zeta(1+w) = 1, through the same helpers
    pole = (Fraction(1),) + (Fraction(0),) * (n - 1)
    lead = _residue_coeffs(_truncated_pow(pole, k), k)[-1]
    want = Fraction(1, math.factorial(k - 1))
    if lead != want:
        raise PrecisionError(f"leading-coefficient shadow check failed for k={k}: "
                             f"the shadow gives {lead}, not 1/{k - 1}! = {want}")
    return MainTermPoly(k=k, coeffs=coeffs, precision_bits=precision_bits,
                        leading_exact=lead)


def eval_main_term(poly: MainTermPoly, x) -> mp.mpf:
    """x * P_{k-1}(log x) by Horner at the polynomial's working precision."""
    if not x > 1:
        raise DomainError(f"x must exceed 1, got {x}")
    check_finite("x", x)
    with mp.workprec(poly.precision_bits + 32):
        xm = mp.mpf(x)
        return poly_eval(poly.coeffs, mp.log(xm)) * xm


# ---------------------------------------------------------------------------
# independent contour oracle
# ---------------------------------------------------------------------------

CONTOUR_RADIUS = 0.25  # the oracle's circle |s - 1| = r0 (see ``_contour_nodes``)
CONTOUR_SWEEP_BITS = 12  # the zeta sweep's bits over the oracle's prec (see the oracle)
# fixed-point guard bits over the sweep's precision: 4^{k-1} (1.5k + 6) (5/3)^k
# < 2^36 at k <= 12, so the floors of a call cost < 2^-sp (see the oracle)
CONTOUR_GUARD_BITS = 36


def _contour_nodes(prec: int) -> int:
    """Least n, over rho = r0 + j (1 - r0)/64 < 1, r0 = CONTOUR_RADIUS = 1/4,
    proven to alias every b_m, m < k <= 12, of g(w) = (w zeta(1+w))^k / (1+w) =
    sum b_m w^m by <= 2^{-prec-1}.  g is analytic in |w| < 1, and for n > m the
    n-node mean of g(w) (r0/w)^m on |w| = r0 is sum_{l >= 0} b_{m+ln} r0^{ln}
    (Henrici, Applied and Computational Complex Analysis III, 13.2).  With |b_p|
    <= M rho^-p (Cauchy), M the most of |g| on |w| = rho, it aliases by <= M
    rho^-m q^n/(1 - q^n), q = r0/rho.  On |w| = rho Titchmarsh 2.1 (see the
    oracle) with |s| <= 1 + rho, sigma >= 1 - rho gives |zeta| <= A = (1+rho)/rho
    + (1+rho)/(1-rho) > 5.8, and |1 + w| >= 1 - rho: M rho^-m <= A^k rho^{k-m} /
    (1-rho) <= A^12 rho/(1-rho), as k - m >= 1 and A > 1.  n qualifies once n
    log2(rho/r0) >= prec + 2 + 12 log2 A + log2(rho/(1-rho)), which exceeds prec +
    31 at every rho of the grid: then n > 12, q^n <= 1/2, and the 2 buys 1/(1 -
    q^n) <= 2 and the float logs.  66, 83 and 186 nodes at prec = 64, 96, 288.
    """
    r0 = CONTOUR_RADIUS
    return min(math.ceil((prec + 2 + 12 * math.log2((1 + r) / r + (1 + r) / (1 - r))
                          + math.log2(r / (1 - r))) / math.log2(r / r0))
               for r in (r0 + j * (1 - r0) / 64 for j in range(1, 64)))


@functools.cache
def _contour_zetas(nodes: int, prec: int) -> tuple:
    """The oracle's only mp.zeta calls, cached per (nodes, prec), at s_j = 1 +
    w_j, w_j = r0 e^{2 pi i j / nodes} rounded to sp = prec + CONTOUR_SWEEP_BITS
    bits, j = 0..nodes//2 (the lower half circle holds conjugates): as ints
    scaled by 2^wp, wp = sp + CONTOUR_GUARD_BITS, the parts of w_j (exact), y_j =
    w_j zeta(s_j) floored, from zeta floored, and v_j = 1/s_j = conj(s_j)/|s_j|^2."""
    sp = prec + CONTOUR_SWEEP_BITS
    wp = sp + CONTOUR_GUARD_BITS
    one, rows = 1 << wp, []
    with mp.workprec(sp):
        r = mp.mpf(CONTOUR_RADIUS)
        for j in range(nodes // 2 + 1):
            s = 1 + r * mp.expjpi(mp.mpf(2 * j) / nodes)
            z = mp.zeta(s)
            a, b = to_fixed((s.real - 1)._mpf_, wp), to_fixed(s.imag._mpf_, wp)
            zr, zi = to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp)
            sr = one + a
            inv = (one << 2 * wp) // (sr * sr + b * b)  # 2^wp / |s|^2
            rows.append((a, b, (a * zr - b * zi) >> wp, (a * zi + b * zr) >> wp,
                         sr * inv >> wp, -b * inv >> wp))
    return tuple(rows)


def _fixed_pow(re: int, im: int, k: int, wp: int) -> tuple[int, int]:
    """(re + i im)^k for ints scaled by 2^wp, by binary powering: floor(log2 k)
    squarings and popcount(k) - 1 products floored, and one exact product by 1."""
    pr, pi = 1 << wp, 0
    while k:
        if k & 1:
            pr, pi = (pr * re - pi * im) >> wp, (pr * im + pi * re) >> wp
        k >>= 1
        if k:
            re, im = ((re + im) * (re - im)) >> wp, (re * im) >> (wp - 1)
    return pr, pi


def _contour_coeffs(k: int, precision_bits: int) -> tuple:
    """The k coefficients of P_{k-1}, constant term first, from the contour
    oracle's DFT (see ``residue_contour_oracle``), after node doubling."""
    prec = precision_bits + 32
    n = _contour_nodes(prec)
    sp = prec + CONTOUR_SWEEP_BITS
    wp = sp + CONTOUR_GUARD_BITS
    # the n-node set is the even-index subset of the 2n-node set, so one
    # zeta sweep serves both the coefficients and their doubling check
    fine, coarse = [0] * k, [0] * k  # Re g_j (r0/w_j)^m scaled by 2^wp, folded
    size = [0, 0]  # folded sums of |Re g_j| + |Im g_j| >= |g_j|, fine and coarse
    for j, (a, b, yr, yi, vr, vi) in enumerate(_contour_zetas(2 * n, prec)):
        pr, pi = _fixed_pow(yr, yi, k, wp)
        gr, gi = (pr * vr - pi * vi) >> wp, (pr * vi + pi * vr) >> wp
        wt = 1 if j in (0, n) else 2  # s = 5/4 and s = 3/4 are their own conjugates
        mag = wt * (abs(gr) + abs(gi))
        size[0] += mag
        if not j & 1:
            size[1] += mag
        for m in range(k):
            fine[m] += wt * gr
            if not j & 1:
                coarse[m] += wt * gr
            # r0/w_j = conj(w_j)/r0 on the circle
            gr, gi = (gr * a + gi * b) >> (wp - 2), (gi * a - gr * b) >> (wp - 2)

    def coeff(sums, nodes, j):
        # c_j = b_{k-1-j}/j! = 4^m sums[m] / (nodes j!), m = k-1-j: the int
        # sums are exact, so each coefficient rounds once
        m = k - 1 - j
        return mp.mpf(mpf_div(from_man_exp(sums[m], 2 * m - wp),
                              from_int(nodes * math.factorial(j)), sp, round_nearest))

    # the tolerance: both counts' E_j (see the oracle) summed in floats in units
    # of 2^-sp; each count's mbar lies below its folded mean of |Re g_j| + |Im g_j|
    # plus the floors' 2^-sp, which adds < 2^-sp to E_j, as does the floors' term,
    # and its 2^{-prec-1} is 2^11 2^-sp
    mbars = size[0] / (2 * n << wp) + size[1] / (n << wp)
    out = []
    with mp.workprec(sp):
        for j in range(k):
            c, c_coarse = coeff(fine, 2 * n, j), coeff(coarse, n, j)
            moved, m = abs(c - c_coarse), k - 1 - j
            tol = mp.ldexp(float(abs(c)) + float(abs(c_coarse)) + (
                2 ** CONTOUR_SWEEP_BITS + 4 + 4 ** m * (26.5 * k + 30 * m + 5) * mbars)
                / math.factorial(j), -sp)
            if moved > tol:
                raise QuadratureError(
                    f"contour oracle did not converge for k={k} at prec={prec}: node "
                    f"doubling from {n} to {2 * n} nodes moved the L^{j} coefficient "
                    f"by {mp.nstr(moved, 5)}, above the tolerance {mp.nstr(tol, 5)}")
            out.append(c)
    return tuple(out)


def residue_contour_oracle(k: int, precision_bits: int, x_probe: float) -> mp.mpf:
    """P_{k-1}(log x_probe), the residue of zeta^k(s) x^s / s at s = 1 over
    x_probe, by Horner's rule at sp bits over coefficients found by trapezoid
    quadrature on |s - 1| = r0 = CONTOUR_RADIUS = 1/4, with no x in it.

    With w = s - 1 and g(w) = (w zeta(1+w))^k / (1+w) = sum_m b_m w^m, analytic
    in |w| < 1, the residue over x is that of g(w) w^-k e^{Lw}, L = log x, so
    P_{k-1}(L) = sum_j c_j L^j, c_j = b_{k-1-j}/j!.  The trapezoid rule
    converges geometrically on the circle (Trefethen and Weideman, SIAM Review
    56, 2014, section 2): the 2n-node DFT rows m = 0..k-1 of g are b_m r0^m up to
    the aliasing ``_contour_nodes`` proves below 2^{-prec-1}, prec =
    precision_bits + 32, with one n for every k <= 12 and every x.  Node
    doubling against the n-node rows checks every coefficient: the two may
    differ by at most the sum of their E_j (below).  g is real on the
    real axis, so only the upper half circle is evaluated.  The oracle is
    independent of the series pipeline: library zeta and quadrature against
    series arithmetic over in-repo Stieltjes constants.

    The zeta sweep at sp = prec + CONTOUR_SWEEP_BITS bits (``_contour_zetas``,
    cached per (nodes, prec)) is the cost floor; each call forms Re g_j
    (r0/w_j)^m in ints scaled by 2^wp, wp = sp + CONTOUR_GUARD_BITS, u = 2^-wp:
    y_j^k by ``_fixed_pow``, one product by v_j, m rotations by conj(w_j)/r0,
    and exact folded sums.  Per node:

    * |zeta| <= |s|/|s-1| + |s|/sigma (Titchmarsh, The Theory of the Riemann
      Zeta-Function, 2.1: zeta(s) = s/(s-1) - s int_1^inf {v} v^{-s-1} dv for
      sigma > 0): |y| <= r0 A = (1 + r0)/(1 - r0) = 5/3, |v| <= 4/3;
    * v_j: 2^wp/|s|^2 floored once from the exact parts of s_j (|Im w_j| >=
      1/(2n) > 2^-13 off the real axis, as n < 2^12 at every allowed
      precision), then two floored products: off by < 2.6 u;
    * y_j^k: at most 5 floored products (k <= 12), each < sqrt(2) u times a
      power of y of modulus <= (5/3)^{k-2}: < 2.6 u (5/3)^k; with v_j and one
      more floor, g_j is off by < 7.5 u (5/3)^k;
    * each rotation, of modulus 1 + O(2^-sp), adds a floor < sqrt(2) u: row m
      of the folded mean, whose weights sum to 2n, is off by < (1.5m + 7.5) u
      (5/3)^k.

    Row m times 4^m = r0^-m is b_m; c_j = b_m/j!, m = k-1-j, rounds once, so
    |c_j - C_j| <= 2^-sp |C_j| + 4^m (1.5m + 7.5) (5/3)^k 2^-wp / j!, C_j from
    the exact folded DFT of the sweep; the guard bits, which grow with k as
    4^{k-1} and not with x, keep the last term below 2^-sp / j!.  Taking
    mpmath's zeta within 4 2^-sp relative (assumed), and the s_j within 2.5
    2^-sp of the circle's nodes (the rounded angle and expjpi's error quartered,
    then 1 + e/4 rounded), g_j (r0/w_j)^m moves by < (26.5k + 30m + 5) 2^-sp
    |g_j| to first order: 4k from zeta^k; 2.5 (|g'/g| + m/r0), as |g'/g| <=
    k/r0 + k |zeta'/zeta| + 1/|s| and |zeta'/zeta| < 5 on the circle (4.63 at
    s = 3/4, the most over 2001 points); 20m, as conj(w_j)/r0 = (r0/w_j)
    (|w_j|/r0)^2 and |w_j|/r0 - 1 <= 10 2^-sp; and y_j's floors.  With mbar the
    folded mean of |g_j| (mbar >= b_0 - 2^-prec, b_0 = 1) and the aliasing:

        |c_j - c_j(exact)| <= E_j = 2^-sp |c_j| + (2^{-prec-1} + 4^m ((26.5k
                              + 30m + 5) 2^-sp mbar + (1.5m + 7.5) (5/3)^k 2^-wp)) / j!,

    a worst case over independent roundings, which the mean averages down.  The
    n-node coefficients obey the same bound, with their own mbar, as n is proven.
    Horner's rule and L rounded to sp bits add < (2k + j) 2^-sp |c_j| L^j per
    term: |oracle - P_{k-1}(L)| <= sum_j (E_j + (2k + j) 2^-sp |c_j|) L^j at
    every float x_probe > 1, below 2^{4-prec} relative at x = 1e300.
    """
    if not (1 <= k <= 12):
        raise DomainError(f"contour oracle supports 1 <= k <= 12, got {k}")
    check_within("precision_bits", precision_bits, 1, MAIN_TERM_MAX_BITS)
    x_probe = plain_float(x_probe)
    if not x_probe > 1:
        raise DomainError(f"x_probe must exceed 1, got {x_probe}")
    check_finite("x_probe", x_probe)
    k = check_integral("k", k)
    precision_bits = check_integral("precision_bits", precision_bits)
    coeffs = _contour_coeffs(k, precision_bits)
    with mp.workprec(precision_bits + 32 + CONTOUR_SWEEP_BITS):
        return poly_eval(coeffs, mp.log(x_probe))
