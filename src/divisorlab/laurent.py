"""Truncated Laurent-series arithmetic around s = 1, Stieltjes constants,
and main-term polynomials extracted as residues of zeta^k(s) x^s / s.

The zeta expansion used throughout is

    zeta(s) = 1/(s-1) + sum_{n>=0} (-1)^n gamma_n (s-1)^n / n!

with the gamma_n computed in-repo by Euler-Maclaurin (with a rigorous tail
bound), so the artifact is self-contained.  One fixed-point kernel in Python
ints forms each gamma_n: its floors stay below 2^{-precision_bits-48}, far
under the tail bound and the final rounding to precision_bits + 16 bits (see
``stieltjes``), and the Bernoulli ratios are exact, from tangent numbers.
Series carry an explicit truncation order and operations fail loudly when the
order is insufficient.

The contour oracle checks those residues independently, by trapezoid
quadrature of zeta^k(s) x^s / s on |s - 1| = 1/4, always at the node count
proven from the aliasing bound of the trapezoid rule.  Its cost floor is one
cached mp.zeta sweep per (nodes, precision); each call forms the integrand from
the sweep in fixed-point ints, within a stated error bound.

Everything here is pure: values are immutable and memos are keyed by all inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

import mpmath as mp
from mpmath.libmp import (from_int, from_man_exp, mpf_cos_sin, mpf_div, mpf_exp, mpf_log,
                          mpf_mul, round_nearest, to_fixed)

from .errors import (
    DomainError,
    InsufficientOrderError,
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
# truncated Laurent series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentData:
    """Truncated Laurent series sum_{j=lowest_power}^{order} c_j (s-1)^j.

    ``coeffs`` is ascending in the power; len(coeffs) = order - lowest_power + 1.
    ``precision_bits = 0`` marks exact (Fraction) coefficients.
    """

    lowest_power: int
    coeffs: tuple
    order: int
    precision_bits: int

    def __post_init__(self):
        if len(self.coeffs) != self.order - self.lowest_power + 1:
            raise DomainError(
                f"coefficient count {len(self.coeffs)} does not match powers "
                f"[{self.lowest_power}, {self.order}]")

    def __getitem__(self, power: int):
        if not (self.lowest_power <= power <= self.order):
            raise InsufficientOrderError(
                f"power {power} outside retained range "
                f"[{self.lowest_power}, {self.order}]")
        return self.coeffs[power - self.lowest_power]

    def __mul__(self, other: "LaurentData") -> "LaurentData":
        lowest = self.lowest_power + other.lowest_power
        order = min(self.order + other.lowest_power, other.order + self.lowest_power)
        if order < lowest:
            raise InsufficientOrderError(
                "product retains no coefficients; increase truncation order")
        n = order - lowest + 1
        bits = min(self.precision_bits, other.precision_bits)
        # exact (Fraction) series carry bits=0 and ignore the mp context
        with mp.workprec(max(53, bits + 32)):
            zero = self.coeffs[0] * 0
            out = [zero] * n
            for i, a in enumerate(self.coeffs):
                if a == 0 or i >= n:
                    continue
                jmax = min(len(other.coeffs), n - i)
                for j in range(jmax):
                    out[i + j] = out[i + j] + a * other.coeffs[j]
        return LaurentData(lowest, tuple(out), order, bits)

    def evaluate(self, s):
        """Value at a point s != 1 (Horner in (s-1), pole part included), at the
        series' precision (53 bits for exact coefficients)."""
        with mp.workprec(max(self.precision_bits, 53)):
            z = (s if isinstance(s, mp.mpc) else mp.mpf(s)) - 1
            return poly_eval(self.coeffs, z) * z ** self.lowest_power


def series_pow(base: LaurentData, k: int) -> LaurentData:
    """Truncated k-th power by binary exponentiation; k >= 1.

    Fails loudly (InsufficientOrderError) when the base order cannot support
    the requested power.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    result = None
    sq = base
    kk = k
    while kk:
        if kk & 1:
            result = sq if result is None else result * sq
        kk >>= 1
        if kk:
            sq = sq * sq
    return result


def zeta_laurent(terms: int, precision_bits: int = 256) -> LaurentData:
    """Zeta expansion at s=1: pole coefficient 1, then (-1)^n gamma_n / n!.

    ``terms`` = number of post-pole coefficients retained (order = terms - 1).
    """
    check_within("terms", terms, 1, STIELTJES_MAX_N)
    terms = check_integral("terms", terms)
    check_within("precision_bits", precision_bits, 1, STIELTJES_MAX_BITS - 32)
    precision_bits = check_integral("precision_bits", precision_bits)
    bits = precision_bits + 32
    with mp.workprec(bits):
        coeffs = [mp.mpf(1)] + [(-1) ** n * stieltjes(n, bits) / mp.factorial(n)
                                for n in range(terms)]
    return LaurentData(-1, tuple(coeffs), terms - 1, precision_bits)


# ---------------------------------------------------------------------------
# main-term polynomial as a residue
# ---------------------------------------------------------------------------

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


def _residue_poly_coeffs(zk: LaurentData, k: int) -> list:
    """Coefficients in L = log x of the (s-1)^{-1} coefficient of
    zeta^k(s) e^{L(s-1)} / s, given zk = zeta^k truncated to order >= -1.

    x^s = x e^{L(s-1)} contributes L^b/b! at (s-1)^b and 1/s = sum (-1)^c (s-1)^c,
    so the L^b coefficient collects zk[-j] * (-1)^{j-1-b} / b! over j > b.
    """
    if zk.order < -1:
        raise InsufficientOrderError(
            f"zeta^{k} truncated below (s-1)^(-1): order {zk.order}")
    one = zk.coeffs[0] * 0 + 1
    fact = [one]
    for b in range(1, k):
        fact.append(fact[-1] * b)
    out = []
    for b in range(k):
        acc = zk.coeffs[0] * 0
        for j in range(b + 1, k + 1):
            acc = acc + zk[-j] * (-1) ** (j - 1 - b)
        out.append(acc / fact[b])
    return out


def main_term_poly(k: int, precision_bits: int = 256) -> MainTermPoly:
    """Degree-(k-1) main-term polynomial from the residue of zeta^k(s) x^s / s
    at s = 1, computed symbolically in L = log x, once per (k, precision_bits).

    The leading coefficient is re-derived through an exact Fraction shadow of
    the same residue algebra (pole-only series) and must equal 1/(k-1)!.
    """
    check_within("k", k, 1, MAIN_TERM_K_CAP)
    check_within("precision_bits", precision_bits, 1, MAIN_TERM_MAX_BITS)
    k = check_integral("k", k)
    precision_bits = check_integral("precision_bits", precision_bits)
    return _main_term(k, precision_bits)


@functools.cache
def _main_term(k: int, precision_bits: int) -> MainTermPoly:
    n_post = max(k - 1, 1)
    with mp.workprec(precision_bits + 64):
        zk = series_pow(zeta_laurent(n_post, precision_bits + 64), k)
        coeffs = tuple(+c for c in _residue_poly_coeffs(zk, k))
    # exact shadow: pole-only series through the same code path
    pole = LaurentData(-1, (Fraction(1),) + (Fraction(0),) * n_post, n_post - 1, 0)
    shadow = _residue_poly_coeffs(series_pow(pole, k), k)
    lead = shadow[k - 1]
    if lead != Fraction(1, math.factorial(k - 1)):
        raise PrecisionError(f"leading-coefficient shadow check failed for k={k}")
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
# fixed-point guard bits of the integrand over the sweep's precision: the
# per-node (9 + L/300) 6^12 < 2^35 at k <= 12, L < 710 (see the oracle)
CONTOUR_GUARD_BITS = 35


def _contour_nodes(prec: int, x_probe) -> int:
    """Least n, over rho = r0 + j (1 - r0)/64 < 1, r0 = CONTOUR_RADIUS = 1/4,
    proven to alias by <= 2^-prec x^{r0} at every k <= 12.  On |w| = r0 the
    n-node mean of t(w) = zeta(1+w)^k x^w w/(1+w) = sum_{m >= 1-k} c_m w^m is
    sum c_m r0^m over m = 0, n, 2n, ... (n >= k), and |c_m| <= M rho^-m
    (Cauchy), so it errs by <= M q^n/(1 - q^n), q = r0/rho.  On |w| = rho
    Titchmarsh 2.1 (see the oracle) with |s| <= 1 + rho, |s-1| = rho, sigma >=
    1 - rho gives M <= A^k x^rho rho/(1-rho), A = (1+rho)/rho + (1+rho)/(1-rho)
    > 5.8, largest at k = 12: one n serves every k.  n qualifies once
    n log2(rho/r0) >= prec + 2 + 12 log2 A + (rho - r0) log2 x + log2(rho/(1-rho)),
    which exceeds prec + 31 at every rho of the grid: n > k, q^n <= 1/2, and the
    2 buys 1/(1 - q^n) <= 2 and the float logs.  At prec = 64, x <= 1e4, rho =
    0.789-0.801 wins, n = 66-70; prec = 288, x = 100: 189.
    """
    r0, lx = CONTOUR_RADIUS, math.log2(x_probe)
    return min(math.ceil((prec + 2 + 12 * math.log2((1 + r) / r + (1 + r) / (1 - r))
                          + (r - r0) * lx + math.log2(r / (1 - r))) / math.log2(r / r0))
               for r in (r0 + j * (1 - r0) / 64 for j in range(1, 64)))


@functools.cache
def _contour_zetas(nodes: int, prec: int) -> tuple:
    """The oracle's only mp.zeta calls, cached per (nodes, prec), at s_j = 1 +
    r0 e^{2 pi i j / nodes}, r0 = CONTOUR_RADIUS, to sp = prec +
    CONTOUR_SWEEP_BITS bits, j = 0..nodes//2 (the lower half circle holds
    conjugates): the raw mpf parts of s_j - 1 and, as ints scaled by 2^wp, wp =
    sp + CONTOUR_GUARD_BITS, zeta(s_j) floored and h_j = (s_j - 1)/s_j = 1 -
    conj(s_j)/|s_j|^2 from the floored parts of s_j by one int division."""
    sp = prec + CONTOUR_SWEEP_BITS
    wp = sp + CONTOUR_GUARD_BITS
    one, rows = 1 << wp, []
    with mp.workprec(sp):
        r = mp.mpf(CONTOUR_RADIUS)
        for j in range(nodes // 2 + 1):
            s = 1 + r * mp.expjpi(mp.mpf(2 * j) / nodes)
            z = mp.zeta(s)
            sr, si = to_fixed(s.real._mpf_, wp), to_fixed(s.imag._mpf_, wp)
            inv = (one << 2 * wp) // (sr * sr + si * si)  # 2^wp / |s|^2
            rows.append(((s.real - 1)._mpf_, s.imag._mpf_,
                         to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp),
                         one - (sr * inv >> wp), si * inv >> wp))
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


def residue_contour_oracle(k: int, precision_bits: int, x_probe: float) -> mp.mpf:
    """Residue of zeta^k(s) x^s / s at s=1 by trapezoid quadrature over the
    circle |s-1| = r0 = CONTOUR_RADIUS = 1/4, scaled by 1/x_probe for direct
    comparison with P_{k-1}(log x_probe).

    The integrand is analytic in 0 < |s-1| < 1, so the trapezoid rule
    converges geometrically (Trefethen and Weideman, SIAM Review 56, 2014,
    section 2).  n is the count that ``_contour_nodes`` proves for (prec,
    x_probe), prec = precision_bits + 32; the value is the 2n-node mean, and
    node doubling against the n-node one is the convergence check.
    The integrand is real on the real axis, so only the upper half circle is
    evaluated.  The oracle is independent of the series pipeline: library zeta
    and quadrature against series arithmetic over in-repo Stieltjes constants.

    With ds = i (s - 1) dtheta the scaled residue is the mean over the circle
    of t(s) = zeta(s)^k x^{s-1} h(s), h = (s - 1)/s.  The zeta sweep at sp =
    prec + CONTOUR_SWEEP_BITS bits (``_contour_zetas``, cached per (nodes,
    prec)) is the cost floor; each call forms Re t_j in ints scaled by 2^wp,
    wp = sp + CONTOUR_GUARD_BITS, u = 2^-wp: zeta_j^k by ``_fixed_pow``,
    x^{s-1} from one mp.exp and one mp.cos_sin of L (s_j - 1), L = log x_probe,
    at P = wp + 8 bits, and the folded sum is exact.  Per node, with x = x_probe:

    * |zeta| <= |s|/|s-1| + |s|/sigma <= 6 on the circle (Titchmarsh, The
      Theory of the Riemann Zeta-Function, 2.1: zeta(s) = s/(s-1) -
      s int_1^inf {v} v^{-s-1} dv for sigma > 0; the bound, 4|s| + |s|/sigma
      as a function of cos theta, peaks at s = 5/4), |h| = r0/|s| <= r0/(1 - r0)
      = 1/3, and |x^{s-1}| <= x^{1/4}: every term is at most 6^k x^{1/4}/3;
    * zeta^k: zeta_j is floored (< sqrt(2) u), which moves zeta^k by
      < k sqrt(2) u 6^{k-1}, and each of the at most 2 log2 12 floored
      products (5 for k <= 12) moves it by < sqrt(2) u 6^{k-2}: the computed
      zeta^k is off by < (2 + 5/36) sqrt(2) u 6^k < 3.1 u 6^k;
    * x^{s-1}: with mpmath's elementary functions within 4 2^-P, as in the
      n^{-s} kernel of ``zetasum``, the log and its rounded products with the
      parts of s - 1 (each at most 1/4) put both arguments off by
      < 1.25 L 2^-P < (L/200) u; the exp adds 4 2^-P relative, cos_sin 4 2^-P
      per part, and flooring u per part: e^{L Re(s-1)} is off by
      < (L/200 + 1.02) u x^{1/4} and e^{i L Im(s-1)} by < (L/200 + 1.44) u;
    * h_j: the floored parts of s_j are off by < u, which moves 1 - 1/s by
      < sqrt(2) u/|s|^2 < 2.6 u, and the division and its two products add
      < (|s| + sqrt(2)) u < 2.7 u; its floored product with e^{i L Im(s-1)}
      adds < sqrt(2) u: that product is off by < (7.2 + L/600) u.

    So each Re t_j is off by < (9 + L/300) u 6^k x^{1/4}, and so is their
    folded mean, whose weights sum to 2 nodes.  With the final division
    rounded once, for k <= 12 and any float x_probe (L < 710):

        |oracle - F| <= 2^-sp |F| + (9 + L/300) 6^k x^{1/4} 2^-wp
                     <= 2^-sp (|F| + x^{1/4}),

    F the exact folded trapezoid sum at the sweep's s_j and zeta_j.  Taking
    mpmath's zeta, like its elementary functions, within 4 2^-sp relative
    (assumed), and the s_j within 2.5 2^-sp of the circle's nodes (the rounded
    angle and expjpi's error quartered, then 1 + e/4 rounded), each t_j moves
    by < (16.5 k + 2.5 L + 14) 2^-sp |t_j| to first order, as d log t/ds =
    k zeta'/zeta + L + 1/(s-1) - 1/s and |zeta'/zeta| < 5 on the circle (4.63
    at s = 3/4, the most over 2001 points).  With m the mean |t_j| (<= 6^k
    x^{1/4}/3) and the aliasing bound:

        |oracle - P_{k-1}(log x)| <= 2^-prec x^{1/4} + 2^-sp (|F| + x^{1/4} + (17k + 3L + 14) m);

    the last term, a worst case over independent roundings, the mean
    averages down, less so over fewer nodes.  With the sweep's 12 extra bits
    each term stays below that of the same bound on |s - 1| = 1/2 swept at
    prec, 2^-prec (|F| + 2 x^{1/2} + (17k + 4L + 16) m'), m' <= 4^k x^{1/2}
    (worst-case last terms: ratio <= 2^-12 1.5^k / 3 < 0.011).  At x = 1e100
    it answers within it (1.3e-9 relative at k = 12, 32 bits); from about
    1e150 x^{1/4} swamps the sweep and node doubling refuses.
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
    prec = precision_bits + 32
    n = _contour_nodes(prec, x_probe)
    sp = prec + CONTOUR_SWEEP_BITS
    wp = sp + CONTOUR_GUARD_BITS
    P = wp + 8
    # the n-node set is the even-index subset of the 2n-node set, so one
    # zeta sweep serves both the value and its doubling check
    pts = _contour_zetas(2 * n, prec)
    with mp.workprec(sp):
        xm = mp.mpf(x_probe)
    logx = mpf_log(xm._mpf_, P, round_nearest)
    fine = coarse = 0  # Re t_j scaled by 2^{3 wp}, each conjugate pair folded
    for j, (a, b, zr, zi, hr, hi) in enumerate(pts):
        pr, pi = _fixed_pow(zr, zi, k, wp)
        e = to_fixed(mpf_exp(mpf_mul(logx, a, P, round_nearest), P, round_nearest), wp)
        c, s = mpf_cos_sin(mpf_mul(logx, b, P, round_nearest), P, round_nearest)
        c, s = to_fixed(c, wp), to_fixed(s, wp)
        qr, qi = (hr * c - hi * s) >> wp, (hr * s + hi * c) >> wp
        t = (pr * qr - pi * qi) * e
        if j and j != n:  # s = 5/4 and s = 3/4 are their own conjugates
            t *= 2
        fine += t
        if not j & 1:
            coarse += t
    with mp.workprec(sp):
        # the int sums are exact, so each mean rounds once
        fine = mp.mpf(mpf_div(from_man_exp(fine, -3 * wp), from_int(2 * n), sp,
                              round_nearest))
        coarse = mp.mpf(mpf_div(from_man_exp(coarse, -3 * wp), from_int(n), sp,
                                round_nearest))
        tol = mp.mpf(2) ** (-(precision_bits // 2)) * (1 + abs(fine * xm))
        moved = abs(fine - coarse) * xm
        if moved > tol:
            raise QuadratureError(
                f"contour oracle did not converge: node doubling moved the "
                f"residue by {mp.nstr(moved, 5)}")
        return fine
