"""Truncated Laurent-series arithmetic around s = 1, Stieltjes constants,
and main-term polynomials extracted as residues of zeta^k(s) x^s / s.

The zeta expansion used throughout is

    zeta(s) = 1/(s-1) + sum_{n>=0} (-1)^n gamma_n (s-1)^n / n!

with the gamma_n computed in-repo by Euler-Maclaurin (with a rigorous tail
bound), so the artifact is self-contained.  Series carry an explicit
truncation order and operations fail loudly when the order is insufficient.

All series values are immutable after construction; everything here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Optional

import mpmath as mp

from .errors import (
    DomainError,
    InsufficientOrderError,
    PrecisionError,
    QuadratureError,
)

STIELTJES_MAX_N = 64
STIELTJES_MAX_BITS = 4096
EM_J_GRID = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)  # Euler-Maclaurin terms
EM_M_GRID = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)  # direct-sum cutoffs

_stieltjes_memo: dict[int, tuple[int, mp.mpf]] = {}  # n -> (bits, value)


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
        dp = [(i + 1) * c for i, c in enumerate(p[1:])] + [0]
        p = [a - m * b for a, b in zip(dp, p)]


def _em_tail_bound(p2J: list[int], J: int, M: int):
    """Rigorous bound for the Euler-Maclaurin remainder after J terms, given
    p2J = p_{2J} of ``_deriv_polys``:
    |R| <= 4/(2 pi)^{2J} * integral_M^inf |f^{(2J)}(x)| dx  (|periodic
    Bernoulli| <= 2 (2J)! zeta(2J) / (2 pi)^{2J} and zeta(2J) < 2), where
    integral_M^inf (log x)^i x^{-s-1} dx = M^{-s} sum_r (i)_r (log M)^{i-r} / s^{r+1}.
    """
    s, lm = 2 * J, mp.log(M)
    integral = mp.mpf(0)
    for i, c in enumerate(p2J):
        if c:
            tail, fall = mp.mpf(0), 1
            for r in range(i + 1):
                tail += fall * lm ** (i - r) / mp.mpf(s) ** (r + 1)
                fall *= i - r
            integral += abs(c) * (mp.mpf(M) ** (-s) * tail)
    return 4 / (2 * mp.pi) ** (2 * J) * integral


def _lazy_polys(n: int):
    """upto(m) -> [p_0, ..., p_m, ...] of ``_deriv_polys(n)``, built only as far as asked."""
    gen, polys = _deriv_polys(n), []

    def upto(m: int) -> list:
        polys.extend(islice(gen, max(m + 1 - len(polys), 0)))
        return polys
    return upto


def _pick_em_parameters(ns, target_log2: float, polys=None) -> tuple[int, int]:
    """Cheapest (J, M) on the grids at which the rigorous tail bound of every
    gamma_n, n in ``ns``, beats 2^{target_log2}: the smallest M >= 2 max(ns)
    (the direct sums cost M logarithms, the corrections only J cheap terms)
    for which some J does, with the smallest such J.  The largest n, whose
    bound is usually the largest, goes first.  ``polys`` maps n to
    ``_lazy_polys(n)``.
    """
    ns = sorted(ns, reverse=True)
    polys = polys or {n: _lazy_polys(n) for n in ns}
    with mp.workdps(40):
        for M in EM_M_GRID:
            if M < 2 * ns[0]:
                continue
            for J in EM_J_GRID:
                bounds = (_em_tail_bound(polys[n](2 * J)[2 * J], J, M) for n in ns)
                if all(b > 0 and mp.log(b, 2) < target_log2 - 1 for b in bounds):
                    return J, M
    raise PrecisionError(
        f"no Euler-Maclaurin parameters reach 2^{target_log2:.0f} for gamma_{ns[0]}")


def _stieltjes_batch(ns, precision_bits: int) -> list:
    """[gamma_n for n in ns]; those not in the memo at ``precision_bits`` or
    more come from one Euler-Maclaurin pass with one (J, M) (see ``stieltjes``)."""
    for n in ns:
        if not (0 <= n <= STIELTJES_MAX_N):
            raise DomainError(f"n must lie in [0, {STIELTJES_MAX_N}], got {n}")
    if not (1 <= precision_bits <= STIELTJES_MAX_BITS):
        raise DomainError(
            f"precision_bits must lie in [1, {STIELTJES_MAX_BITS}], got {precision_bits}")
    missing = [n for n in ns if _stieltjes_memo.get(n, (0,))[0] < precision_bits]
    if missing:
        polys = {n: _lazy_polys(n) for n in missing}
        J, M = _pick_em_parameters(missing, -(precision_bits + 4), polys)
    for n in missing:
        # cancellation headroom: partial sums reach (log M)^{n+1}/(n+1)
        guard = int((n + 1) * max(math.log2(math.log(M)), 1.0)) + 64
        with mp.workprec(precision_bits + guard):
            lm = mp.log(M)
            total = mp.mpf(0)
            for k in range(1, M + 1):
                total += mp.log(k) ** n / k
            total -= lm ** (n + 1) / (n + 1)
            total -= lm ** n / (2 * M)
            lpow = [lm ** i for i in range(n + 1)]
            odd = polys[n](2 * J)[1:2 * J:2]  # p_1, p_3, ..., p_{2J-1}
            for j, p in enumerate(odd, 1):
                deriv = mp.mpf(0)
                for c, lp in zip(p, lpow):
                    if c:
                        deriv += c * lp
                deriv /= mp.mpf(M) ** (2 * j)
                total -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * deriv
        # round to a fixed mantissa, independent of n's guard bits; without it
        # every main term built on gamma_n would move in its last bits
        with mp.workprec(precision_bits + 16):
            _stieltjes_memo[n] = (precision_bits, +total)
    return [_stieltjes_memo[n][1] for n in ns]


def stieltjes(n: int, precision_bits: int = 256) -> mp.mpf:
    """Stieltjes constant gamma_n with absolute error below 2^{-precision_bits+8}.

    Euler-Maclaurin applied to f(x) = (log x)^n / x:

        gamma_n = sum_{k<=M} f(k) - (log M)^{n+1}/(n+1) - f(M)/2
                  - sum_{j<=J} B_{2j}/(2j)! f^{(2j-1)}(M) + R_J,

    with (J, M) chosen so the rigorous bound on R_J beats the target.
    """
    return _stieltjes_batch([n], precision_bits)[0]


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

    def evaluate(self, s, precision_bits: Optional[int] = None):
        """Value at a point s != 1 (Horner in (s-1), pole part included)."""
        bits = precision_bits or max(self.precision_bits, 53)
        with mp.workprec(bits):
            z = (s if isinstance(s, mp.mpc) else mp.mpf(s)) - 1
            acc = z * 0
            for c in reversed(self.coeffs):
                acc = acc * z + c
            return acc * z ** self.lowest_power


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
    if not (1 <= terms <= STIELTJES_MAX_N):
        raise DomainError(f"terms must lie in [1, {STIELTJES_MAX_N}], got {terms}")
    gammas = _stieltjes_batch(range(terms), precision_bits + 32)
    with mp.workprec(precision_bits + 32):
        coeffs = [mp.mpf(1)]
        for n, g in enumerate(gammas):
            coeffs.append((-1) ** n * g / mp.factorial(n))
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
    at s = 1, computed symbolically in L = log x.

    The leading coefficient is re-derived through an exact Fraction shadow of
    the same residue algebra (pole-only series) and must equal 1/(k-1)!.
    """
    if not (1 <= k <= MAIN_TERM_K_CAP):
        raise DomainError(f"k must lie in [1, {MAIN_TERM_K_CAP}], got {k}")
    if not (1 <= precision_bits <= MAIN_TERM_MAX_BITS):
        raise DomainError(
            f"precision_bits must lie in [1, {MAIN_TERM_MAX_BITS}], got {precision_bits}")
    with mp.workprec(precision_bits + 64):
        zser = zeta_laurent(max(k - 1, 1), precision_bits + 64)
        zk = series_pow(zser, k)
        coeffs = tuple(+c for c in _residue_poly_coeffs(zk, k))
    # exact shadow: pole-only series through the same code path
    n_post = max(k - 1, 1)
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
    with mp.workprec(poly.precision_bits + 32):
        xm = mp.mpf(x)
        L = mp.log(xm)
        acc = mp.mpf(0)
        for c in reversed(poly.coeffs):
            acc = acc * L + c
        return acc * xm


# ---------------------------------------------------------------------------
# independent contour oracle
# ---------------------------------------------------------------------------

_contour_cache: dict[tuple[int, int], tuple] = {}

CONTOUR_MIN_NODES = 4096  # spectral accuracy long before this for radius 1/2


def _contour_zetas(nodes: int, prec: int) -> tuple:
    """(s_j, zeta(s_j)) at s_j = 1 + e^{2 pi i j / nodes} / 2 for j = 0..nodes//2;
    the lower half circle holds their conjugates, zeta(conj s) = conj zeta(s)."""
    key = (nodes, prec)
    hit = _contour_cache.get(key)
    if hit is not None:
        return hit
    with mp.workprec(prec):
        r = mp.mpf(1) / 2
        pts = []
        for j in range(nodes // 2 + 1):
            s = 1 + r * mp.expjpi(mp.mpf(2 * j) / nodes)
            pts.append((s, mp.zeta(s)))
    out = tuple(pts)
    _contour_cache[key] = out
    return out


def _trapezoid(re_vals: list, nodes: int):
    """(1/nodes) sum_j g(s_j) over the circle, g(conj s) = conj g(s), from Re g
    at j = 0..nodes//2: each node off the real axis also stands for its conjugate."""
    return mp.fsum(v if 2 * j % nodes == 0 else 2 * v for j, v in enumerate(re_vals)) / nodes


def residue_contour_oracle(k: int, precision_bits: int, x_probe: float,
                           nodes: int = CONTOUR_MIN_NODES) -> mp.mpf:
    """Residue of zeta^k(s) x^s / s at s=1 by trapezoid quadrature over the
    circle |s-1| = 1/2, scaled by 1/x_probe for direct comparison with
    P_{k-1}(log x_probe).

    The integrand is analytic in an annulus around the circle, so the
    trapezoid rule converges spectrally; node doubling is the convergence
    check.  It is real on the real axis, so only the upper half circle is
    evaluated.  This path is independent of the series pipeline: library
    zeta evaluations and quadrature against series arithmetic over in-repo
    Stieltjes constants.
    """
    if not (1 <= k <= 12):
        raise DomainError(f"contour oracle supports 1 <= k <= 12, got {k}")
    if nodes < CONTOUR_MIN_NODES:
        raise DomainError(f"need at least {CONTOUR_MIN_NODES} nodes, got {nodes}")
    if not x_probe > 1:
        raise DomainError(f"x_probe must exceed 1, got {x_probe}")
    prec = precision_bits + 32
    # the n-node set is the even-index subset of the 2n-node set, so one
    # zeta sweep serves both the value and its doubling check
    pts = _contour_zetas(2 * nodes, prec)
    with mp.workprec(prec):
        logx = mp.log(mp.mpf(x_probe))
        vals = [mp.re(zs ** k * mp.exp(s * logx) / s * (s - 1)) for s, zs in pts]
        fine = _trapezoid(vals, 2 * nodes)
        coarse = _trapezoid(vals[::2], nodes)
        tol = mp.mpf(2) ** (-(precision_bits // 2)) * (1 + abs(fine))
        if abs(fine - coarse) > tol:
            raise QuadratureError(
                f"contour oracle did not converge: node doubling moved the "
                f"residue by {mp.nstr(abs(fine - coarse), 5)}")
        return fine / mp.mpf(x_probe)
