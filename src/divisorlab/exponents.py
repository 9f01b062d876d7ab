"""Exponent engine: every closed-form constant, bound formula and scalar
optimisation used for remainder-term exponents of the generalised divisor
problem.

Conventions baked in here:

* ``k0(theta) = (24*theta - 9) / (2*(4*theta - 1)*(1 - theta))`` on
  ``[1/2, 1)`` is written once (``_k0``); ``k1`` and ``k2`` subtract
  ``1/(3*B*(1-theta)^{3/2})`` resp. ``1/(3*(B+eps0)*(1-theta)^{3/2})`` from
  it (``k1`` is ``k2`` at ``eps0 = 0``), and ``ivic_m`` is ``2*k0``.
* Pointwise bounds read ``x^exponent`` with
  ``exponent = 1 - (2/(3B(k - 2 k1)))^{2/3}``; mean-square bounds use
  ``1 - (5/(6B(k - k1)))^{2/3}``.  The "Karatsuba constant" of a bound is
  ``D = (1 - exponent) * k^{2/3}``.
* Reported numbers are always weaker than computed ones: D values are
  rounded down, exponents are rounded up, subtracted thresholds (8.37,
  4.18) are rounded down, k-range thresholds are rounded up to integers.
  The decimals live in the ``report_*`` helpers, which every report uses.
* Everything is evaluated through mpmath at ``WORK_DPS`` digits; operations
  whose inputs are exact rationals (Fraction/int) run an exact Fraction
  path instead.

Pure functions throughout; safe for concurrent use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .errors import (DomainError, RangeError, SelfCheckError, check_finite, check_integral,
                     check_nonnegative, check_positive, plain_float)
from .numerics import (exact_fraction, golden_max, poly_add, poly_eval, poly_mul,
                       real_cubic_roots, round_down, round_up, sign_variations,
                       sturm_sequence, taylor_shift)

WORK_DPS = 50  # >= 80-bit significand everywhere in the engine
CUBIC_K_CAP = 1e150  # the float cubics overflow between k = 2e153 and 5e153 (alpha = 1)
# below alpha k^(-2/3) = 5e-103 the cubics' maximiser, about (3 / that)^(1/2), has a
# sixth power (h'') past the float range; from k = 1.2e77 moment_h_max's endpoint
# branch takes k^4, once alpha k^(1/3) passes about 0.75 k; 49/80 / rho^2 leaves the
# normal floats outside rho in [5.9e-155, 5.3e153]
CUBIC_SCALE_MIN = 1e-100
MOMENT_SCALE_MAX = 1e75
HB_RHO_CAP = 1e150
THM3_K_CAP = 10 ** 54  # past it beta keeps too few WORK_DPS digits (see thm3_exponent)


def _wp():
    return mp.workdps(WORK_DPS)


def heath_brown_B() -> mp.mpf:
    """Default zeta-growth constant 8*sqrt(15)/63 = 0.4918..."""
    with _wp():
        return 8 * mp.sqrt(15) / 63


RICHERT_B = 4.45  # classical Vinogradov-route value of the same constant


# ---------------------------------------------------------------------------
# parameter bundle and report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentParams:
    """Bundle (B, theta, eps0, delta, k) of the bound formulas' inputs.

    Nothing reads ``delta``: ``m1_sigma`` and ``thm3_exponent`` take their
    own.  It stays a field, checked and reported in ``BoundReport.inputs``."""

    B: float = float(heath_brown_B())
    theta: float = 0.839427  # near-maximiser of k1 for the default B
    eps0: float = 1e-6
    delta: float = 1e-3
    k: int = 30

    def __post_init__(self):
        for name in ("B", "theta", "eps0", "delta"):
            object.__setattr__(self, name, plain_float(getattr(self, name)))
        check_positive("B", self.B)
        _check_theta(self.theta, "theta")
        check_nonnegative("eps0", self.eps0)
        check_nonnegative("delta", self.delta)
        if not (hasattr(self.k, "__index__") and self.k >= 2):
            raise DomainError(f"k must be an integer >= 2, got {self.k}")
        object.__setattr__(self, "k", check_integral("k", self.k))


@dataclass(frozen=True)
class BoundReport:
    """One bound of the shape x^exponent with its Karatsuba constant.

    ``karatsuba_D`` is rounded down at 3 decimals and ``exponent_reported``
    up at 5, so every reported claim is implied by the computed one.
    """

    name: str
    karatsuba_D: float
    karatsuba_D_exact: float
    validity: str
    exponent: Optional[float] = None
    exponent_reported: Optional[float] = None
    k: Optional[int] = None
    inputs: Optional[ExponentParams] = None

    def __post_init__(self):
        if self.exponent is not None and not (0.5 < self.exponent < 1.0):
            raise DomainError(
                f"{self.name}: exponent {self.exponent} outside (1/2, 1)")
        if self.karatsuba_D - self.karatsuba_D_exact > 1e-15:
            raise DomainError(f"{self.name}: reported D not rounded down")


@dataclass(frozen=True)
class PhiPiece:
    """Affine piece of the piecewise exponential-sum exponent bound."""

    k_index: int
    rho_lo: Fraction
    rho_hi: Fraction
    A: Fraction
    Bcoef: Fraction
    c: Fraction


@dataclass(frozen=True)
class ThetaOptimum:
    theta_star: float
    k1_star: float
    k0_star: float
    bracket: tuple


@dataclass(frozen=True)
class StepCheckReport:
    holds: bool
    c: float
    x: float
    delta_max: float
    eps1: float


@dataclass(frozen=True)
class BalancedExponent:
    beta: float
    f_beta: float
    final_exponent: float
    m0_at_beta: float


@dataclass(frozen=True)
class CubicMax:
    rho_star: float
    h_star: float
    stationary_points: tuple
    used_endpoint: bool
    limit_ratio: Optional[float] = None


@dataclass(frozen=True)
class LargeKExponent:
    beta: float
    f_beta: float
    final_exponent: float
    karatsuba_constant: float
    m1_at_beta: float
    floor3_holds: bool


@dataclass(frozen=True)
class ScanReport:
    ok: bool
    k_max: int
    failure: Optional[tuple] = None  # (k, condition label)


# ---------------------------------------------------------------------------
# k0 / k1 / k2 and the theta optimisation
# ---------------------------------------------------------------------------

def _check_theta(x, name: str) -> None:
    """DomainError unless x lies in [1/2, 1), exactly for int and Fraction."""
    if not 0.5 <= (Fraction(x) if isinstance(x, (int, Fraction)) else float(x)) < 1:
        raise DomainError(f"{name} must lie in [1/2, 1), got {x}")


def _k0(t):
    """The one k0 expression, in the arithmetic of t (Fraction or mpf)."""
    return (24 * t - 9) / (2 * (4 * t - 1) * (1 - t))


def _k2(t, B):
    """k0(t) - 1/(3*B*(1-t)^{3/2}) for mpf t at the caller's precision."""
    return _k0(t) - 1 / (3 * B * (1 - t) ** mp.mpf("1.5"))


def k0_theta(theta):
    """(24*theta - 9) / (2*(4*theta - 1)*(1 - theta)); pole at theta = 1.

    Fraction input follows an exact rational path.
    """
    _check_theta(theta, "theta")
    if isinstance(theta, (int, Fraction)):
        return _k0(Fraction(theta))
    with _wp():
        return _k0(mp.mpf(theta))


def k1_theta(theta, B):
    """k0(theta) - 1/(3*B*(1-theta)^{3/2}), which is k2 at eps0 = 0."""
    return k2_theta(theta, B, 0)


def k2_theta(theta, B, eps0):
    """k0(theta) - 1/(3*(B+eps0)*(1-theta)^{3/2}); equals k1 at eps0 = 0."""
    _check_theta(theta, "theta")
    check_positive("B", B)
    check_nonnegative("eps0", eps0)
    with _wp():
        t = mp.mpf(float(theta)) if not isinstance(theta, mp.mpf) else theta
        return _k2(t, mp.mpf(B) + mp.mpf(eps0))


THETA_SEARCH_LO = 0.5 + 1e-6
THETA_SEARCH_HI = 1.0 - 1e-6
THETA_SCAN_POINTS = 1000


def _k1_slope_poly(B: Fraction) -> list:
    """A quintic in theta with the sign of k1'(theta) on [1/2, 1), for B > 0.

    From _k0, k1' = (96t^2 - 72t + 21)/(2(4t-1)^2(1-t)^2) - 1/(2B(1-t)^{5/2});
    times 2B(4t-1)^2(1-t)^{5/2} it is g = B u (96t^2 - 72t + 21) - (4t-1)^2 with
    u = sqrt(1-t), and g times the positive B u (96t^2 - 72t + 21) + (4t-1)^2
    is B^2 (1-t)(96t^2 - 72t + 21)^2 - (4t-1)^4.
    """
    q = [21, -72, 96]
    return poly_add(poly_mul([B * B, -B * B], q, q), poly_mul([-1], *[[-1, 4]] * 4))


def optimize_theta(B) -> ThetaOptimum:
    """Maximise k1(theta) over [1/2, 1): the argmax of the THETA_SCAN_POINTS
    grid xs on [THETA_SEARCH_LO, THETA_SEARCH_HI], refined by golden section.

    k1's critical points are the roots of _k1_slope_poly at the binary value
    of mp.mpf(B); Sturm counts at the grid's exact points find the cell i0 of
    each.  An interior grid maximum lies next to a critical point, so the
    first index of the maximum of k1 over the ends and i0-2 .. i0+3 (i0 and
    i0+1, with a margin for rounding) is the argmax of the whole grid.  At
    an end, k1 has no interior maximiser (RangeError).  One root in
    (xs[i-1], xs[i+1]] proves k1 unimodal there (more is a self-check
    failure), and golden section runs to 1e-16 in theta (well past the 1e-8
    contract) because k1 can be sharply curved near its maximiser for large
    B; first-order optimality then holds to ~1e-8 even at curvatures of
    order 1e8.
    """
    check_positive("B", B)
    with _wp():
        Bm = mp.mpf(B)
        a, b, n = mp.mpf(THETA_SEARCH_LO), mp.mpf(THETA_SEARCH_HI), THETA_SCAN_POINTS

        def grid(i):
            return a + (b - a) * i / (n - 1)

        def f(t):
            return _k2(mp.mpf(t), Bm)

        seq = sturm_sequence(_k1_slope_poly(exact_fraction(Bm)))
        var = functools.cache(lambda i: sign_variations(seq, exact_fraction(grid(i))))

        def cells(i, j):  # the c with a root in (xs[c], xs[c+1]] within (xs[i], xs[j]]
            if var(i) == var(j):
                return []
            m = (i + j) // 2
            return [i] if j - i == 1 else cells(i, m) + cells(m, j)

        near = {i for c in cells(0, n - 1) for i in range(c - 2, c + 4) if 0 <= i < n}
        ys = {i: f(grid(i)) for i in sorted(near | {0, n - 1})}
        i = max(ys, key=ys.__getitem__)
        if i in (0, n - 1):
            raise RangeError(f"B = {B} gives k1(theta) no interior maximum in "
                             f"[{THETA_SEARCH_LO}, {THETA_SEARCH_HI}]")
        lo, hi = grid(i - 1), grid(i + 1)
        if var(i - 1) - var(i + 1) > 1:
            raise SelfCheckError(
                f"k1(theta) not unimodal on bracket [{float(lo)}, {float(hi)}]")
        theta_star, k1_star = golden_max(f, lo, hi, xtol=mp.mpf("1e-16"))
        return ThetaOptimum(
            theta_star=float(theta_star),
            k1_star=float(k1_star),
            k0_star=float(k0_theta(float(theta_star))),
            bracket=(float(lo), float(hi)),
        )


# ---------------------------------------------------------------------------
# the two bound families and the historical table
# ---------------------------------------------------------------------------

def _bound(name: str, num: int, den: int, m: int, k: int, params: ExponentParams,
           validity: str) -> BoundReport:
    """x^{1 - (num/(den*B*(k - m*k1)))^{2/3}} and its Karatsuba constant, in
    the caller's work precision."""
    k1 = k1_theta(params.theta, params.B)
    expo = 1 - (num / (den * mp.mpf(params.B) * (k - m * k1))) ** (mp.mpf(2) / 3)
    D = (1 - expo) * mp.mpf(k) ** (mp.mpf(2) / 3)
    return BoundReport(name=name, exponent=float(expo),
                       exponent_reported=report_exponent(expo),
                       karatsuba_D=report_karatsuba(D), karatsuba_D_exact=float(D),
                       validity=validity, k=k, inputs=params)


def alpha_bound(k: int, params: ExponentParams) -> BoundReport:
    """Pointwise bound x^{1 - (2/(3B(k-2k1)))^{2/3}}, valid for k >= 2*k0."""
    check_finite("k", k)
    with _wp():
        k0 = k0_theta(float(params.theta))
        if k < 2 * k0:
            raise RangeError(
                f"alpha bound needs k >= 2*k0(theta) = {float(2 * k0):.6f}, got k={k}")
        k = check_integral("k", k)
        return _bound("pointwise-alpha", 2, 3, 2, k, params,
                      f"k >= 2*k0(theta) = {float(2 * k0):.4f}")


def beta_bound(k: int, params: ExponentParams) -> BoundReport:
    """Mean-square bound x^{1 - (5/(6B(k-k1)))^{2/3}}, valid for k >= k0."""
    check_finite("k", k)
    with _wp():
        k0 = k0_theta(float(params.theta))
        if k < k0:
            raise RangeError(
                f"beta bound needs k >= k0(theta) = {float(k0):.6f}, got k={k}")
        k = check_integral("k", k)
        return _bound("meansquare-beta", 5, 6, 1, k, params, f"k >= {float(k0):.4f}")


def kolpakova_D(k: int, B: float) -> float:
    """k-dependent constant (2/(3B(1 - 159.9/k)))^{2/3}, for k >= 186."""
    check_finite("k", k)
    check_positive("B", B)
    if k <= 159.9:
        raise RangeError(f"kolpakova constant needs k > 159.9, got {k}")
    k = check_integral("k", k)
    with _wp():
        return float((2 / (3 * mp.mpf(B) * (1 - mp.mpf("159.9") / k))) ** (mp.mpf(2) / 3))


def _table_row(name: str, D, validity: str) -> BoundReport:
    return BoundReport(
        name=name,
        karatsuba_D=report_karatsuba(D),
        karatsuba_D_exact=float(D),
        validity=validity,
    )


def historical_table(B_richert: float = RICHERT_B,
                     B_hb: Optional[float] = None) -> list[BoundReport]:
    """Named Karatsuba constants of the successive pointwise bounds.

    ``B_richert`` feeds the classical entries (default 4.45); ``B_hb`` feeds
    the two modern moment-route entries (default 8*sqrt(15)/63).
    """
    check_positive("B_richert", B_richert)
    if B_hb is None:
        B_hb = float(heath_brown_B())
    check_positive("B_hb", B_hb)
    with _wp():
        Br = mp.mpf(B_richert)
        Bh = mp.mpf(B_hb)
        two3 = mp.mpf(2) / 3
        rows = [
            _table_row("karatsuba-1972", 2 ** (-mp.mpf(5) / 3) * Br ** -two3,
                       "k sufficiently large"),
            _table_row("fujii-1976",
                       2 ** mp.mpf("-0.5") * (mp.sqrt(8) - 1) ** (-mp.mpf(1) / 3)
                       * Br ** -two3,
                       "claimed; proof erroneous"),
            _table_row("panteleeva-1988", 2 ** -two3 * Br ** -two3,
                       "claimed; proof erroneous"),
            _table_row("ivic-ouellet-1989", 2 ** two3 * Br ** -two3 / 3, "k > 10"),
            _table_row("kolpakova-2011(k=186)", kolpakova_D(186, B_richert),
                       "k >= 186"),
            _table_row("kolpakova-2011(limit)", two3 ** two3 * Br ** -two3,
                       "k -> infinity limit"),
            _table_row("heath-brown-2017", mp.mpf("0.849"), "k >= 2"),
            _table_row("moment-route(alpha)", two3 ** two3 * Bh ** -two3, "k >= 30"),
            _table_row("moment-route(beta)", (mp.mpf(5) / 6) ** two3 * Bh ** -two3,
                       "k >= 15, mean square"),
            _table_row("expsum-route(limit)", large_k_constant(),
                       "k sufficiently large"),
        ]
    return rows


# ---------------------------------------------------------------------------
# moment exponents m(sigma), the inductive bound and the induction step
# ---------------------------------------------------------------------------

def ivic_m(sigma):
    """Classical moment-order lower bound (24s - 9)/((4s - 1)(1 - s)) = 2*k0(s)
    on [1/2, 1).

    Fraction input follows the exact rational path of ``k0_theta``.  The
    doubling stays inside the work precision, where it is exact (outside, 53 bits).
    """
    _check_theta(sigma, "sigma")
    with _wp():
        return 2 * k0_theta(sigma)


def m0_validity_threshold(params: ExponentParams) -> float:
    """Smallest sigma at which m0 is a certified moment-order bound: theta.

    It is the inductive bound at k0, 1 - (3(B+eps0)(k0-k2))^{-2/3}, and
    k0 - k2 = 1/(3(B+eps0)(1-theta)^{3/2}) makes that theta exactly.
    """
    return float(params.theta)


def _m0_formula(sigma: float, params: ExponentParams) -> float:
    with _wp():
        B = mp.mpf(params.B) + mp.mpf(params.eps0)
        k2 = k2_theta(params.theta, params.B, params.eps0)
        s = mp.mpf(sigma)
        return float(2 / (3 * B * (1 - s) ** mp.mpf("1.5")) + 2 * k2)


def m0_sigma(sigma: float, params: ExponentParams) -> float:
    """Usable moment-order lower bound 2/(3(B+eps0)(1-sigma)^{3/2}) + 2*k2."""
    thr = m0_validity_threshold(params)
    if not sigma < 1:
        raise DomainError(f"sigma must be below 1, got {sigma}")
    if sigma < thr - 1e-14:
        raise RangeError(
            f"m0 is only valid for sigma >= {thr:.12f} (= theta), got {sigma}")
    return _m0_formula(sigma, params)


def carlson_combine(eta: float, mu: float) -> float:
    """max{1 - (1-eta)/(1+mu), 1/2, eta} for eta in (0,1), mu >= 0."""
    if not (0.0 < eta < 1.0):
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    check_nonnegative("mu", mu)
    with _wp():
        e, m = mp.mpf(eta), mp.mpf(mu)
        return float(max(1 - (1 - e) / (1 + m), mp.mpf("0.5"), e))


def inductive_sigma_bound(k: float, params: ExponentParams) -> float:
    """1 - (3(B+eps0)(k - k2))^{-2/3}, valid for k >= k0(theta).

    k - k2 is formed as max(k - k0, 0) + 1/(3(B+eps0)(1-theta)^{3/2}), which a
    float k's rounding cannot turn negative: at k = k0(theta) this returns
    theta (base case of the induction) for every B.
    """
    check_finite("k", k)
    with _wp():
        theta = mp.mpf(float(params.theta))
        k0 = _k0(theta)
        if k < float(k0) - 1e-12:
            raise RangeError(
                f"inductive bound needs k >= k0(theta) = {float(k0):.6f}, got {k}")
        B = mp.mpf(params.B) + mp.mpf(params.eps0)
        gap = max(mp.mpf(k) - k0, 0) + 1 / (3 * B * (1 - theta) ** mp.mpf("1.5"))
        return float(1 - (3 * B * gap) ** (-mp.mpf(2) / 3))


def induction_step_check(r: float, delta_step: float,
                         params: ExponentParams) -> StepCheckReport:
    """Check the step inequality (1+x)^{2/3} >= 1 + c*x of the induction.

    c = 2B/(3(B+eps0)) + eps1*(r-k2) with eps1 = eps0/(3(B+eps0)(k-k2)) and
    x = delta_step/(r-k2).  The largest step at this r is x*(r-k2), x* the
    positive root of (1+cx)^3 = (1+x)^2 over x, c^3 x^2 + (3c^2-1) x + 3c-2 = 0:
    x* = 2(2 - 3c)/(3c^2 - 1 + sqrt((1-c)^3 (1+3c))).  For c >= 2/3, where the
    discriminant can go negative, it is 0.
    """
    check_positive("delta_step", delta_step)
    check_finite("r", r)
    with _wp():
        k0 = k0_theta(float(params.theta))
        if r < float(k0) - 1e-12:
            raise RangeError(f"r must be >= k0(theta) = {float(k0):.6f}, got {r}")
        if r > params.k + 1e-12:
            raise RangeError(f"r must be <= k = {params.k}, got {r}")
        B = mp.mpf(params.B)
        eps0 = mp.mpf(params.eps0)
        k2 = k2_theta(params.theta, params.B, params.eps0)
        gap_k = mp.mpf(params.k) - k2
        gap_r = mp.mpf(r) - k2
        eps1 = eps0 / (3 * (B + eps0) * gap_k)
        c = 2 * B / (3 * (B + eps0)) + eps1 * gap_r
        x = mp.mpf(delta_step) / gap_r

        holds = (1 + x) ** (mp.mpf(2) / 3) - 1 - c * x >= 0
        if c >= mp.mpf(2) / 3:
            delta_max = mp.mpf(0)
        else:
            root = mp.sqrt((1 - c) ** 3 * (1 + 3 * c))
            delta_max = gap_r * 2 * (2 - 3 * c) / (3 * c ** 2 - 1 + root)
        return StepCheckReport(holds=bool(holds), c=float(c), x=float(x),
                               delta_max=float(delta_max), eps1=float(eps1))


# ---------------------------------------------------------------------------
# balanced exponents from the contour split
# ---------------------------------------------------------------------------

def _f_balance(sigma, k, params: ExponentParams):
    """(1-sigma) / (1 + B(k - m0(sigma))(1-sigma)^{3/2}) at work precision."""
    B = mp.mpf(params.B)
    m0 = mp.mpf(m0_sigma(float(sigma), params))
    s = mp.mpf(sigma)
    return (1 - s) / (1 + B * (k - m0) * (1 - s) ** mp.mpf("1.5"))


def optimal_beta_thm2(k: int, params: ExponentParams) -> BalancedExponent:
    """Balance x^beta against x/T: beta = 1 - ((2 - 4B/(3(B+eps0)))/(B(k-2k2)))^{2/3}.

    Verifies that beta maximises the balancing function f on a local grid
    (f(beta +- 1e-4) <= f(beta) + 1e-10) and that m0(beta) <= k.
    """
    with _wp():
        k0 = k0_theta(float(params.theta))
        if k < 2 * float(k0):
            raise RangeError(
                f"balanced exponent needs k >= 2*k0(theta) = {2 * float(k0):.6f}, "
                f"got k={k}")
        k = check_integral("k", k)
        B = mp.mpf(params.B)
        eps0 = mp.mpf(params.eps0)
        k2 = k2_theta(params.theta, params.B, params.eps0)
        numer = 2 - 4 * B / (3 * (B + eps0))
        beta = 1 - (numer / (B * (k - 2 * k2))) ** (mp.mpf(2) / 3)
        thr = m0_validity_threshold(params)
        if float(beta) < thr - 1e-14:
            raise RangeError(
                f"balanced beta {float(beta):.6f} below m0 validity threshold "
                f"{thr:.6f}; increase k")
        m0b = m0_sigma(float(beta), params)
        if m0b > k + 1e-9:
            raise RangeError(f"m0(beta) = {m0b:.6f} exceeds k = {k}")
        fb = _f_balance(beta, k, params)
        for off in (mp.mpf("-1e-4"), mp.mpf("1e-4")):
            s = beta + off
            if float(s) < thr or m0_sigma(float(s), params) > k:
                continue
            if _f_balance(s, k, params) > fb + mp.mpf("1e-10"):
                raise SelfCheckError(
                    f"balancing function not maximised at beta={float(beta)}")
        return BalancedExponent(beta=float(beta), f_beta=float(fb),
                                final_exponent=float(1 - fb), m0_at_beta=float(m0b))


def beta_k_exponent(sigma: float, k: int, params: ExponentParams,
                    check_range: bool = True) -> float:
    """Dyadic mean-square exponent -1 + B(1-sigma)^{3/2}(2k - m0(sigma)).

    Negative values mean the weighted 2k-th moment integral converges at
    this sigma.  Computed directly through m0.

    With ``check_range=False`` the formula is continued below the m0
    validity threshold (= theta).  Its zero there reproduces the closed-form
    mean-square threshold; certifying the underlying moment bound at such a
    sigma requires re-choosing theta <= sigma.
    """
    check_finite("k", k)
    check_finite("sigma", sigma)
    if check_range:
        m0 = m0_sigma(sigma, params)  # validates the sigma range
    else:
        if not sigma < 1:
            raise DomainError(f"sigma must be below 1, got {sigma}")
        m0 = _m0_formula(sigma, params)
    if m0 > 2 * k + 1e-9:
        raise RangeError(f"m0(sigma) = {m0:.6f} exceeds 2k = {2 * k}")
    k = check_integral("k", k)
    with _wp():
        B = mp.mpf(params.B)
        s = mp.mpf(sigma)
        return float(-1 + B * (1 - s) ** mp.mpf("1.5") * (2 * k - mp.mpf(m0)))


# ---------------------------------------------------------------------------
# exact piecewise exponential-sum exponent
# ---------------------------------------------------------------------------

def rho_node(k: int) -> Fraction:
    """Regime node rho_k = (k^2 + 1)/(k + 1)."""
    k = check_integral("k", k)
    return Fraction(k * k + 1, k + 1)


def phi_piece_for_index(k: int) -> PhiPiece:
    """Exact-rational affine piece on [rho_{k-1}, rho_k], k >= 2."""
    if k < 2:
        raise DomainError(f"piece index must be >= 2, got {k}")
    k = check_integral("k", k)
    A = Fraction(2, (k - 1) ** 2 * (k + 2))
    Bc = Fraction(-(3 * k * k - 3 * k + 2), k * (k - 1) ** 2 * (k + 2))
    c = Fraction((k * k + 1) ** 2, k * (k + 1) ** 3)
    return PhiPiece(k_index=k, rho_lo=rho_node(k - 1), rho_hi=rho_node(k),
                    A=A, Bcoef=Bc, c=c)


def phi_piece(rho) -> tuple[Fraction, PhiPiece]:
    """Exact value of the piecewise bound phi at rho >= 1 and its piece.

    phi(rho) = A_k*rho + B_k on [rho_{k-1}, rho_k]; at a node either
    adjacent piece gives the same value.
    """
    if not isinstance(rho, str):
        check_finite("rho", rho)
    r = Fraction(rho) if isinstance(rho, (int, Fraction, str)) else Fraction(float(rho))
    if r < 1:
        raise DomainError(f"rho must be >= 1, got {rho}")
    # r >= rho_{k-1} = k - 2 + 2/k at k = max(2, int(r)), and k steps only past nodes < r
    k = max(2, int(r))
    while rho_node(k) < r:
        k += 1
    piece = phi_piece_for_index(k)
    return piece.A * r + piece.Bcoef, piece


def refined_exponent(rho):
    """Savings exponent (1 - 3/rho)/rho^2; non-positive below rho = 3.

    The exponential-sum bound reads N^{1 - refined + eps}; below rho = 3 the
    trivial bound applies.  Fraction input follows an exact rational path.
    """
    check_positive("rho", rho)
    if isinstance(rho, (int, Fraction)):
        r = Fraction(rho)
        return (1 - Fraction(3) / r) / r ** 2
    with _wp():
        rm = mp.mpf(float(rho))
        return float((1 - 3 / rm) / rm ** 2)


def hb_exponent(rho):
    """Comparison exponent (49/80)/rho^2; a float rho must lie in [1/HB_RHO_CAP,
    HB_RHO_CAP]."""
    check_positive("rho", rho)
    if isinstance(rho, (int, Fraction)):
        return Fraction(49, 80) / Fraction(rho) ** 2
    if not 1 / HB_RHO_CAP <= rho <= HB_RHO_CAP:
        raise RangeError(f"rho must lie in [{1 / HB_RHO_CAP:.0e}, {HB_RHO_CAP:.0e}], got {rho}")
    return 49.0 / 80.0 / float(rho) ** 2


REFINED_HB_CROSSOVER = Fraction(240, 31)  # where 1 - 3/rho = 49/80 exactly


def _ck_conditions() -> list:
    """The conditions of ck_inequality_scan in its order, as (label, integer
    polynomial P in k, strict): each reads P(k) > 0, or P(k) >= 0 if not strict.

    c_k = mu/nu, and rho = N/D is an end of [rho_k, rho_{k+1}].  (iii) there is
    A rho^3 + Bcoef rho^2 + c_k <= 0 for the piece of index k+1 (A = 2/alpha,
    Bcoef = -beta/((k+1)*alpha)) multiplied up by D^3 * alpha * (k+1) * nu > 0.
    """
    k1, k2, r1 = [1, 1], [2, 1], [2, 2, 1]  # k + 1, k + 2, (k+1)^2 + 1 = rho_{k+1} (k+2)
    mu, nu = poly_mul([1, 0, 1], [1, 0, 1]), poly_mul([0, 1], k1, k1, k1)
    mu1, nu1 = poly_mul(r1, r1), poly_mul(k1, k2, k2, k2)  # c_{k+1} = mu1/nu1
    alpha, beta = [0, 0, 3, 1], [2, 3, 3]
    out = [("c_k not increasing", poly_add(poly_mul(mu1, nu), poly_mul([-1], mu, nu1)), True),
           # 1 - 3/rho_{k+1} = (k^2 - k - 4)/((k+1)^2 + 1)
           ("c_k <= 1 - 3/rho_{k+1}", poly_add(poly_mul(mu, r1), poly_mul([4, 1, -1], nu)),
            True)]
    for where, N, D in (("rho_k", [1, 0, 1], k1), ("rho_{k+1}", r1, k2)):
        lhs = poly_add(poly_mul([2], k1, nu, N, N, N), poly_mul([-1], beta, nu, N, N, D),
                       poly_mul(mu, alpha, k1, D, D, D))
        out.append((f"phi above -c_k/rho^2 at {where}", poly_mul([-1], lhs), False))
    # at rho_k the two sides are equal for every k: that polynomial is 0
    return out


_CK_CONDITIONS = _ck_conditions()


def ck_inequality_scan(k_max: int) -> ScanReport:
    """Exact proof, for every k >= 2, of
    (i) c_k strictly monotone in the direction the piecewise comparison
    needs (c_{k+1} > c_k, so that -c_{k+1} rho^{-2} <= -c_k rho^{-2}),
    (ii) c_k > 1 - 3/rho_{k+1}, and
    (iii) phi(rho) <= -c_k * rho^{-2} on all of [rho_k, rho_{k+1}].

    (iii) is A rho^3 + B rho^2 + c_k <= 0 with A > 0 > B, whose only
    stationary point on rho > 0, -2B/(3A), is a local minimum: the cubic
    peaks at an endpoint of [rho_k, rho_{k+1}], and two endpoints prove (iii).

    Each condition is an integer polynomial P in k (_ck_conditions: the
    cross-multiplied comparisons, no rounding).  At k = 2, 3, ... the scan
    tests P(k), the constant term of P(k + u); once every coefficient of
    P(k + u) is >= 0, P holds for all larger k too.  Each condition is
    certified so at k = 2, which covers every k, not only k <= k_max.  A
    condition not yet certified is tested at each k up to k_max in the order
    above, so the first failure and its label are those of a scan of every k.
    """
    if k_max < 2:
        raise DomainError(f"k_max must be >= 2, got {k_max}")
    k_max = check_integral("k_max", k_max)
    pending = [(label, taylor_shift(p, 2), strict) for label, p, strict in _CK_CONDITIONS]
    for k in range(2, k_max + 1):
        if not pending:
            break
        for label, q, strict in pending:
            v = poly_eval(q, 0)  # = P(k)
            if not (v > 0 if strict else v >= 0):
                return ScanReport(False, k_max, (k, label))
        pending = [(label, taylor_shift(q, 1), strict) for label, q, strict in pending
                   if any(c < 0 for c in q)]
    return ScanReport(True, k_max, None)


# ---------------------------------------------------------------------------
# cubic maximisers for the moment and pointwise zeta bounds
# ---------------------------------------------------------------------------

def _check_cubic(k, alpha) -> tuple:
    """(k, alpha, alpha k^(-2/3)), after refusing a k or alpha whose float cubic
    would overflow: k in [2, CUBIC_K_CAP] and alpha k^(-2/3) >= CUBIC_SCALE_MIN.
    A numpy k or alpha comes back as the Python int or float it stands for."""
    k, alpha = plain_float(k), plain_float(alpha)
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    check_finite("k", k)
    if k > CUBIC_K_CAP:
        raise RangeError(f"k must be at most {CUBIC_K_CAP:.0e}, got {k}")
    check_positive("alpha", alpha)
    k = check_integral("k", k) if hasattr(k, "__index__") else k
    a = alpha * k ** (-2.0 / 3.0)
    if not a >= CUBIC_SCALE_MIN:
        raise RangeError(f"alpha*k^(-2/3) must be at least {CUBIC_SCALE_MIN:.0e}, got {a:.4g}")
    return k, alpha, a


def moment_h_max(k: int, alpha: float) -> CubicMax:
    """Maximise the dyadic moment exponent
    h(rho) = 2*alpha*k^{1/3}/rho - 2(k+4)/rho^3 + 6(k+1)/rho^4 + 2/rho^2 + 2/rho
    over [2, k] at its interior stationary point.

    Stationary points solve C(rho) = (alpha*k^{1/3}+1) rho^3 + 2 rho^2
    - 3(k+4) rho + 12(k+1) = 0, as h' = -2C/rho^5; at a root h'' = -2C'/rho^5,
    so the maximiser is the largest root in [2, k] at which C rises.  Golden
    section confirms it, to about sqrt(2^-53) only, as h is flat to second
    order there (5.2e-8 relative at worst for k = 10..2000, alpha = 1).  The
    positive roots are recorded in ``stationary_points``.  Without a rising
    root in [2, k] the endpoint with the larger h is returned with
    ``used_endpoint=True``.  k above CUBIC_K_CAP, alpha*k^(-2/3) below
    CUBIC_SCALE_MIN or alpha*k^(1/3) above MOMENT_SCALE_MAX raises RangeError.
    """
    k, alpha, _ = _check_cubic(k, alpha)
    a13 = alpha * k ** (1.0 / 3.0)
    if not a13 <= MOMENT_SCALE_MAX:
        raise RangeError(f"alpha*k^(1/3) must be at most {MOMENT_SCALE_MAX:.0e}, got {a13:.4g}")

    def h(r):
        return (2 * a13 / r - 2 * (k + 4) / r ** 3 + 6 * (k + 1) / r ** 4
                + 2 / r ** 2 + 2 / r)

    roots = real_cubic_roots(a13 + 1.0, 2.0, -3.0 * (k + 4), 12.0 * (k + 1))
    pos = tuple(r for r in roots if r > 0)
    lo, hi = 2.0, float(k)
    star = max((r for r in pos if lo <= r <= hi and (3 * (a13 + 1) * r + 4) * r > 3 * (k + 4)),
               default=None)
    if star is None:
        r0 = lo if h(lo) >= h(hi) else hi
        return CubicMax(rho_star=r0, h_star=h(r0), stationary_points=pos,
                        used_endpoint=True)
    below = [r for r in pos if r < star]
    lo = max(2.0, below[-1] * 1.000001 if below else 2.0)
    hi = min(float(k), star * 1.5 + 1.0)
    star, hstar = golden_max(h, max(lo, star * 0.5), hi, xtol=1e-10 * star)
    return CubicMax(rho_star=star, h_star=hstar, stationary_points=pos,
                    used_endpoint=False)


def moment_h_limit(alpha: float) -> mp.mpf:
    """Large-k limit (4/sqrt(27)) * alpha^{3/2} of the moment maximiser value."""
    check_positive("alpha", alpha)
    with _wp():
        return 4 / mp.sqrt(27) * mp.mpf(alpha) ** mp.mpf("1.5")


def zeta_h_max(k: int, alpha: float) -> CubicMax:
    """Maximise h(rho) = alpha*k^{-2/3}/rho - (1 - 3/rho)/rho^3 over rho >= 3
    at its interior stationary point.

    Stationary points solve C(rho) = a rho^3 - 3 rho + 12 = 0 (a = alpha*k^{-2/3}),
    as h' = -C/rho^5; at a root h'' = -C'/rho^5, so the maximiser is the largest
    root rho >= 3 at which C rises, a rho^2 > 1 (for a >= 1/36 there is none, and
    rho = 3 is returned with ``used_endpoint=True``).  Golden section confirms it
    to about sqrt(2^-53), as in ``moment_h_max`` (2.0e-8 relative at worst for
    k = 10..2000, alpha = 1).  ``stationary_points`` holds the positive roots;
    ``limit_ratio`` records k*h_star / (2*alpha^{3/2}/3^{3/2}) as a diagnostic
    against the large-k value of the pointwise zeta exponent.  k above
    CUBIC_K_CAP or alpha*k^(-2/3) below CUBIC_SCALE_MIN raises RangeError.
    """
    k, alpha, a = _check_cubic(k, alpha)
    if not a < 0.5:
        raise RangeError(
            f"need alpha*k^(-2/3) < 1/2 for an interior maximiser, got {a:.4f}")

    def h(r):
        return a / r - (1 - 3 / r) / r ** 3

    roots = real_cubic_roots(a, 0.0, -3.0, 12.0)
    pos = tuple(r for r in roots if r > 0)
    limit = float(moment_h_limit(alpha)) / 2
    star = max((r for r in pos if r >= 3.0 and a * r * r > 1), default=None)
    if star is None:
        return CubicMax(rho_star=3.0, h_star=h(3.0), stationary_points=pos,
                        used_endpoint=True, limit_ratio=k * h(3.0) / limit)
    below = [r for r in pos if r < star]
    lo = below[-1] * 1.000001 if below else 3.0
    star, hstar = golden_max(h, max(3.0, lo), star * 1.5, xtol=1e-12 * star)
    return CubicMax(rho_star=star, h_star=hstar, stationary_points=pos,
                    used_endpoint=False, limit_ratio=k * hstar / limit)


# ---------------------------------------------------------------------------
# large-k exponent from the refined exponential-sum route
# ---------------------------------------------------------------------------

def _m1_formula(sigma, delta):
    """2*(3/2^{4/3} - delta)^{3/2} * (1-sigma)^{-3/2} at work precision."""
    s = mp.mpf(sigma)
    d = mp.mpf(delta)
    base = 3 / 2 ** (mp.mpf(4) / 3) - d
    if base <= 0:
        raise DomainError(f"delta too large: 3/2^(4/3) - delta <= 0 at delta={delta}")
    return 2 * base ** mp.mpf("1.5") * (1 - s) ** mp.mpf("-1.5")


def m1_sigma(sigma: float, delta: float, A: float = 1.0) -> float:
    """Moment-order bound 2*(3/2^{4/3} - delta)^{3/2}(1-sigma)^{-3/2}.

    Validity sigma >= 1 - A*delta^2 is calibration (A configurable, default
    1), not certified.  delta = 0 is accepted as a formal limit with the
    range check waived (the threshold degenerates to sigma >= 1).
    """
    check_finite("sigma", sigma)
    if not sigma < 1:
        raise DomainError(f"sigma must be below 1, got {sigma}")
    check_nonnegative("delta", delta)
    check_positive("A", A)
    with _wp():
        thr = 1 - A * mp.mpf(delta) ** 2  # in mp, as delta^2 may leave the float range
        if delta > 0 and sigma < thr - 1e-14:
            raise RangeError(
                f"m1 needs sigma >= 1 - A*delta^2 = {float(thr):.12f} "
                f"(calibration constant A={A}), got {sigma}")
        return float(_m1_formula(sigma, delta))


def thm3_exponent(k: int, delta: float, A: float = 1.0) -> LargeKExponent:
    """Large-k pointwise exponent from the refined exponential-sum bound.

    beta = 1 - (3/2^{2/3} - 2^{2/3}*delta) k^{-2/3} (which makes m1(beta)=k),
    f_beta = (1-beta)/(1+delta), final exponent 1 - f_beta.  The k-range
    requirement k >= A*delta^{-3} is calibration, not certified.

    A certified floor f_beta >= (C - (C + 2^{2/3})*delta) k^{-2/3} with
    C = 3/2^{2/3} is asserted (tangent-line bound, exact for all delta>0);
    whether the steeper floor with constant 3 also holds is recorded in
    ``floor3_holds`` (it fails for delta < (C + 2^{2/3} - 3)/3 ~ 0.159).
    k above THM3_K_CAP raises RangeError: 1 - beta keeps too few of the
    WORK_DPS digits (m1(beta)/k - 1 is 2e-16 at k = 1e54, 3e-12 at 1e60; a
    false RangeError follows from 1e63 and ZeroDivisionError from 1e78).
    """
    check_positive("delta", delta)
    check_positive("A", A)
    check_finite("k", k)
    if k > THM3_K_CAP:
        raise RangeError(f"k must be at most {THM3_K_CAP:.0e}, got {k}")
    with _wp():
        d = mp.mpf(delta)
        k_min = A * d ** -3  # in mp, as delta^-3 may leave the float range
        if k < k_min:
            raise RangeError(f"needs k >= A*delta^-3 = {mp.nstr(k_min, 6)} "
                             f"(calibration constant A={A}), got k={k}")
        k = check_integral("k", k)
        C = large_k_constant()
        k23 = mp.mpf(k) ** (-mp.mpf(2) / 3)
        one_minus_beta = (C - 2 ** (mp.mpf(2) / 3) * d) * k23
        if one_minus_beta <= 0:
            raise DomainError(f"delta={delta} too large for a positive savings")
        beta = 1 - one_minus_beta
        m1b = _m1_formula(beta, delta)
        if m1b > k * (1 + mp.mpf("1e-12")):
            raise RangeError(f"m1(beta) = {float(m1b):.6f} exceeds k = {k}")
        f_beta = one_minus_beta / (1 + d)
        tangent_floor = (C - (C + 2 ** (mp.mpf(2) / 3)) * d) * k23
        if f_beta < tangent_floor:
            raise SelfCheckError("certified tangent floor violated")  # unreachable
        floor3 = bool(f_beta > (C - 3 * d) * k23)
        return LargeKExponent(
            beta=float(beta),
            f_beta=float(f_beta),
            final_exponent=float(1 - f_beta),
            karatsuba_constant=float(f_beta / k23),
            m1_at_beta=float(m1b),
            floor3_holds=floor3,
        )


def large_k_constant() -> mp.mpf:
    """Limiting Karatsuba constant 3/2^{2/3} = 1.8898... of the refined route."""
    with _wp():
        return 3 / 2 ** (mp.mpf(2) / 3)


# reporting conventions for published constants ------------------------------

def report_karatsuba(D) -> float:
    """Round a Karatsuba constant down at 3 decimals (weakens the claim)."""
    check_finite("D", D)
    return round_down(D, 3)


def report_exponent(a) -> float:
    """Round a bound exponent up at 5 decimals (weakens the claim)."""
    check_finite("a", a)
    return round_up(a, 5)


def report_subtracted_threshold(c) -> float:
    """Round a subtracted constant like 2*k1 down at 2 decimals."""
    check_finite("c", c)
    return round_down(c, 2)


def report_k_threshold(x) -> int:
    """Round a k-range threshold up to the next integer."""
    check_finite("x", x)
    return int(math.ceil(float(x) - 1e-12))
