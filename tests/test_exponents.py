"""Tests for the exponent engine.

Derived expected values are computed by independent in-test oracles
(direct mpmath evaluation at high precision, exact Fraction arithmetic,
finite differences, grid domination, bisection) and frozen here.
"""

import math
import random
import re
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from divisorlab import exponents as ex, numerics
from divisorlab.errors import DomainError, RangeError, SelfCheckError
from divisorlab.numerics import (golden_max, poly_eval, poly_mul, sign_variations,
                                 sturm_sequence, taylor_shift)

B_HB = float(ex.heath_brown_B())


def mpf50(x):
    with mp.workdps(50):
        return mp.mpf(x)


@pytest.fixture(scope="module")
def params():
    return ex.ExponentParams()


@pytest.fixture(scope="module")
def theta_opt():
    return ex.optimize_theta(B_HB)


# ---------------------------------------------------------------- k0/k1/k2

def test_k0_reference_value():
    assert abs(float(ex.k0_theta(0.839427)) - 14.7215) < 1e-3


def test_k0_exact_at_half():
    # direct rational evaluation: (12-9)/(2*1*(1/2)) = 3
    assert ex.k0_theta(Fraction(1, 2)) == 3


def test_k0_pole_behaviour():
    assert float(ex.k0_theta(0.999999)) > 1e5
    with pytest.raises(DomainError):
        ex.k0_theta(1.0)
    with pytest.raises(DomainError):
        ex.k0_theta(0.25)


def test_k1_reference_value():
    assert abs(float(ex.k1_theta(0.839427, B_HB)) - 4.188) < 2e-3


def test_k1_large_B_collapses_to_k0():
    t = 0.77
    assert abs(float(ex.k1_theta(t, 1e12)) - float(ex.k0_theta(t))) < 1e-6


def test_k1_exact_oracle_at_half():
    # oracle: 3 - 2^{3/2}/13.35 at 60 digits
    with mp.workdps(60):
        expected = 3 - 2 ** mp.mpf("1.5") / mp.mpf("13.35")
    got = ex.k1_theta(0.5, 4.45)
    assert abs(float(got) - float(expected)) < 1e-10
    assert abs(float(got) - 2.7881) < 1e-4


def test_k2_collapses_to_k1_at_zero_eps0():
    assert float(ex.k2_theta(0.839427, B_HB, 0.0)) == float(ex.k1_theta(0.839427, B_HB))


def test_k2_direct_oracle():
    # oracle: k0 - 1/(3*(B+0.01)*(1-theta)^{3/2}) evaluated independently
    with mp.workdps(60):
        t = mp.mpf(0.839427)
        k0 = (24 * t - 9) / (2 * (4 * t - 1) * (1 - t))
        expected = k0 - 1 / (3 * (mp.mpf(B_HB) + mp.mpf("0.01")) * (1 - t) ** mp.mpf("1.5"))
    got = float(ex.k2_theta(0.839427, B_HB, 0.01))
    assert abs(got - float(expected)) < 1e-12
    assert abs(got - 4.398) < 5e-3


def test_k2_monotone_in_eps0():
    vals = [float(ex.k2_theta(0.839427, B_HB, e)) for e in (0.0, 1e-4, 1e-2, 0.1, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------ optimisation

def test_optimize_theta_reference(theta_opt):
    assert abs(theta_opt.theta_star - 0.839427) < 1e-5
    assert abs(theta_opt.k1_star - 4.187) < 2e-3
    assert abs(theta_opt.k0_star - 14.72) < 1e-2


@pytest.mark.parametrize("B", [B_HB, 4.45, 1.0])
def test_optimize_theta_stationarity(B):
    # oracle: central difference of k1 at theta* (h small enough that the
    # truncation term k1'''*h^2/6 stays below tolerance even near the pole;
    # evaluation is exact to ~50 digits so there is no roundoff floor)
    opt = ex.optimize_theta(B)
    h = 1e-9
    d = (float(ex.k1_theta(opt.theta_star + h, B))
         - float(ex.k1_theta(opt.theta_star - h, B))) / (2 * h)
    assert abs(d) < 1e-4


def test_optimize_theta_grid_domination():
    # oracle: k1(theta*) dominates a 1000-point grid
    B = 4.45
    opt = ex.optimize_theta(B)
    best = float(ex.k1_theta(opt.theta_star, B))
    for i in range(1000):
        t = 0.5 + 1e-6 + (0.5 - 2e-6) * i / 999
        assert float(ex.k1_theta(t, B)) <= best + 1e-12


def test_optimize_theta_bad_B():
    with pytest.raises(DomainError):
        ex.optimize_theta(-1.0)
    # k1 peaks on the edge of [1/2, 1) for these B: an input fault, not a
    # failed self-check
    for B in (0.1, 958462.87):
        with pytest.raises(RangeError, match=f"B = {B} "):
            ex.optimize_theta(B)


def _scan_optimum(B):
    """The full 1000-point scan that optimize_theta's Sturm search replaces:
    k1 at every grid point, the bracket around the first index of the maximum,
    a 33-sample rise-then-fall check of the bracket, then the same golden
    section.  An oracle for the bracket and every bit of ThetaOptimum."""
    with mp.workdps(ex.WORK_DPS):
        Bm = mp.mpf(B)

        def f(t):
            return ex._k2(mp.mpf(t), Bm)

        a, b, n = mp.mpf(ex.THETA_SEARCH_LO), mp.mpf(ex.THETA_SEARCH_HI), ex.THETA_SCAN_POINTS
        xs = [a + (b - a) * i / (n - 1) for i in range(n)]
        ys = [f(x) for x in xs]
        i = max(range(n), key=ys.__getitem__)
        if i == 0 or i == n - 1:
            raise RangeError(f"B = {B} gives k1(theta) no interior maximum in "
                             f"[{ex.THETA_SEARCH_LO}, {ex.THETA_SEARCH_HI}]")
        lo, hi = xs[i - 1], xs[i + 1]
        samples = [f(lo + (hi - lo) * j / 32) for j in range(33)]
        scale = max(abs(y) for y in samples) or 1.0
        fell = False
        for y0, y1 in zip(samples, samples[1:]):
            if abs(y1 - y0) > 1e-12 * scale:
                if y1 > y0 and fell:
                    raise SelfCheckError(
                        f"k1(theta) not unimodal on bracket [{float(lo)}, {float(hi)}]")
                fell = fell or y1 < y0
        theta_star, k1_star = golden_max(f, lo, hi, xtol=mp.mpf("1e-16"))
        return ex.ThetaOptimum(theta_star=float(theta_star), k1_star=float(k1_star),
                               k0_star=float(ex.k0_theta(float(theta_star))),
                               bracket=(float(lo), float(hi)))


_RNG = random.Random(26)
SCAN_B = [B_HB, 4.45, 1.0, 0.4918, 0.1, 958462.87] + [
    float(f"{math.exp(_RNG.uniform(math.log(0.25), math.log(3.2e3))):.6g}") for _ in range(56)]


@pytest.mark.parametrize("B", SCAN_B)
def test_optimize_theta_is_the_full_scan_bit_for_bit(B):
    # the Sturm-located argmax must give the scan's bracket and every bit of
    # its golden section, or refuse with the scan's class and message
    def outcome(fn):
        try:
            return fn(B)
        except (RangeError, SelfCheckError) as e:
            return type(e), str(e)
    assert outcome(ex.optimize_theta) == outcome(_scan_optimum)


def _roots_count(roots, a, b):
    return len({r for r in roots if a < r <= b})


@pytest.mark.parametrize("roots", [
    [1, 2, 3], [1, 2, 2, 3], [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 5],
    [-2, Fraction(7, 4), Fraction(7, 4), Fraction(9, 4)], [0], [4, 4]])
def test_sturm_count_matches_known_roots(roots):
    # (a, b] counts each distinct root once: repeated roots, and roots at
    # either end of the interval, included
    p = poly_mul(*[[-r, 1] for r in roots], [3])
    seq = sturm_sequence(p)
    ends = sorted({Fraction(x) for x in roots} | {Fraction(x, 4) for x in range(-12, 24)})
    for a in ends:
        for b in ends:
            if a < b:
                got = sign_variations(seq, a) - sign_variations(seq, b)
                assert got == _roots_count(roots, a, b), (a, b)


def test_sturm_count_of_an_irreducible_factor():
    # (x^2 - 2)(x^2 + 1)^2: roots +-sqrt(2) only
    p = poly_mul([-2, 0, 1], [1, 0, 1], [1, 0, 1])
    seq = sturm_sequence(p)
    count = lambda a, b: sign_variations(seq, a) - sign_variations(seq, b)
    assert count(-10, 10) == 2
    assert count(Fraction(141, 100), Fraction(142, 100)) == 1
    assert count(Fraction(-142, 100), Fraction(141, 100)) == 1
    assert count(Fraction(142, 100), 10) == 0


def _sturm_sequence_fraction(p):
    """The Sturm sequence as formed before the integer scaling: every member
    in Fractions, unscaled."""
    seq = [list(p), [i * c for i, c in enumerate(p)][1:]]
    while seq[-1]:
        seq.append([-c for c in numerics._poly_divmod(seq[-2], seq[-1])[1]])
    seq.pop()
    if len(seq[-1]) > 1:
        return _sturm_sequence_fraction(numerics._poly_divmod(p, seq[-1])[0])
    return seq


def _sign_variations_fraction(seq, x):
    """Sign changes at x by Fraction Horner, the evaluation before the
    homogeneous integer one."""
    signs = [v > 0 for v in (poly_eval(q, Fraction(x)) for q in seq) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


@pytest.mark.parametrize("B", [0.4918, 4, 4.45, 5, 1e3])
def test_integer_sturm_counts_match_the_fraction_ones(B):
    p = ex._k1_slope_poly(Fraction(B))
    seq, ref = sturm_sequence(p), _sturm_sequence_fraction(p)
    assert all(type(c) is int for q in seq for c in q)
    assert [len(q) for q in seq] == [len(q) for q in ref]
    rng = random.Random(45)
    dens = [2 ** rng.randrange(4, 120) for _ in range(100)]
    dens += [rng.randrange(1, 10 ** 6) for _ in range(100)]
    xs = [Fraction(rng.randrange(-d, 2 * d + 1), d) for d in dens]  # in [-1, 2]
    for x in xs:
        want = _sign_variations_fraction(ref, x)
        assert sign_variations(seq, x) == want == _sign_variations_fraction(seq, x), x


def test_taylor_shift_evaluates_p_at_s_plus_u():
    p = [5, -3, 0, 7, Fraction(1, 2)]
    for s in (-3, 0, 2, Fraction(5, 7)):
        q = taylor_shift(p, s)
        for u in (-2, 0, 1, Fraction(3, 11)):
            assert poly_eval(q, u) == poly_eval(p, s + u)


@pytest.mark.parametrize("B", [0.1, B_HB, 4.45, 1e3])
def test_k1_slope_poly_has_the_sign_of_dk1(B):
    # oracle: mpmath's numerical derivative of k1 at 60 digits
    p = ex._k1_slope_poly(Fraction(B))
    for t in [0.5 + 0.49 * j / 40 for j in range(1, 40)]:
        with mp.workdps(60):
            d = mp.diff(lambda x: ex._k2(x, mp.mpf(B)), mp.mpf(t))
        v = poly_eval(p, Fraction(t))
        assert (v > 0) == (d > 0) and abs(d) > 1e-20, (t, float(d))


# ------------------------------------------------------------ alpha / beta

def test_alpha_bound_reference(params):
    rep = ex.alpha_bound(30, params)
    assert abs(rep.exponent - 0.84215) < 5e-4
    closed_form = 1 - 1.224 * (30 - 8.37) ** (-2.0 / 3.0)
    assert abs(rep.exponent - closed_form) < 5e-4


def test_alpha_bound_threshold(params):
    ex.alpha_bound(30, params)
    with pytest.raises(RangeError) as e:
        ex.alpha_bound(29, params)
    assert "2*k0" in str(e.value)


def test_alpha_bound_limit_constant(params):
    # oracle: (2/3)^{2/3} B^{-2/3} at 60 digits
    with mp.workdps(60):
        lim = float((mp.mpf(2) / 3) ** (mp.mpf(2) / 3) * mp.mpf(B_HB) ** (-mp.mpf(2) / 3))
    rep = ex.alpha_bound(10 ** 6, params)
    assert abs(rep.karatsuba_D_exact - lim) < 1e-3
    assert abs(rep.karatsuba_D_exact - 1.224) < 1e-3


def test_beta_bound_reference(params):
    rep = ex.beta_bound(15, params)
    assert abs(rep.exponent - 0.70940) < 5e-4
    closed_form = 1 - 1.421 * (15 - 4.18) ** (-2.0 / 3.0)
    assert abs(rep.exponent - closed_form) < 5e-4


def test_beta_bound_threshold(params):
    ex.beta_bound(15, params)
    with pytest.raises(RangeError):
        ex.beta_bound(14, params)


def test_beta_bound_limit_constant(params):
    with mp.workdps(60):
        lim = float((mp.mpf(5) / 6) ** (mp.mpf(2) / 3) * mp.mpf(B_HB) ** (-mp.mpf(2) / 3))
    rep = ex.beta_bound(10 ** 6, params)
    assert abs(rep.karatsuba_D_exact - lim) < 1e-3
    assert abs(rep.karatsuba_D_exact - 1.421) < 1e-3


def test_bound_limits_monotone(params):
    # invariant: D(k) decreases monotonically to its limit on a doubling grid
    ks = [2 ** j for j in range(6, 21)]
    Da = [ex.alpha_bound(k, params).karatsuba_D_exact for k in ks]
    Db = [ex.beta_bound(k, params).karatsuba_D_exact for k in ks]
    assert all(a > b for a, b in zip(Da, Da[1:]))
    assert all(a > b for a, b in zip(Db, Db[1:]))


def test_rounding_direction_invariant(params):
    for k in (30, 40, 64, 100, 1000):
        rep = ex.alpha_bound(k, params)
        assert rep.karatsuba_D <= rep.karatsuba_D_exact
        assert rep.exponent_reported >= rep.exponent


# -------------------------------------------------------- historical table

def test_historical_table_classical_values():
    rows = {r.name: r for r in ex.historical_table(4.45)}
    # oracle: direct high-precision evaluation of each closed form
    with mp.workdps(60):
        b23 = mp.mpf("4.45") ** (-mp.mpf(2) / 3)
        expect = {
            "karatsuba-1972": float(2 ** (-mp.mpf(5) / 3) * b23),
            "fujii-1976": float(2 ** mp.mpf("-0.5") * (mp.sqrt(8) - 1) ** (-mp.mpf(1) / 3) * b23),
            "panteleeva-1988": float(2 ** (-mp.mpf(2) / 3) * b23),
            "ivic-ouellet-1989": float(2 ** (mp.mpf(2) / 3) * b23 / 3),
            "kolpakova-2011(limit)": float((mp.mpf(2) / 3) ** (mp.mpf(2) / 3) * b23),
        }
    for name, val in expect.items():
        assert abs(rows[name].karatsuba_D_exact - val) < 1e-12
    for name, published in [("karatsuba-1972", 0.116), ("fujii-1976", 0.214),
                            ("panteleeva-1988", 0.232), ("ivic-ouellet-1989", 0.196),
                            ("kolpakova-2011(limit)", 0.282)]:
        assert abs(rows[name].karatsuba_D_exact - published) < 1e-3


def test_historical_table_modern_entries():
    rows = {r.name: r for r in ex.historical_table()}
    assert abs(rows["moment-route(alpha)"].karatsuba_D_exact - 1.224) < 1e-3
    assert rows["moment-route(alpha)"].karatsuba_D == 1.224
    assert abs(rows["moment-route(beta)"].karatsuba_D_exact - 1.421) < 1e-3
    assert rows["expsum-route(limit)"].karatsuba_D == 1.889
    assert rows["heath-brown-2017"].karatsuba_D_exact == pytest.approx(0.849)


def test_kolpakova_k_dependence():
    # oracle: (2/(3*4.45*(1-159.9/186)))^{2/3} at 60 digits
    with mp.workdps(60):
        expected = float((2 / (3 * mp.mpf("4.45") * (1 - mp.mpf("159.9") / 186)))
                         ** (mp.mpf(2) / 3))
    assert abs(ex.kolpakova_D(186, 4.45) - expected) < 1e-12
    with pytest.raises(RangeError):
        ex.kolpakova_D(150, 4.45)


# ---------------------------------------------------------------- m(sigma)

def test_ivic_m_exact_rationals():
    assert ex.ivic_m(Fraction(3, 4)) == 18
    assert ex.ivic_m(Fraction(1, 2)) == 6


def test_ivic_m_pole_order():
    # residue of the pole at sigma=1 is 15/3 = 5: m(sigma)*(1-sigma) -> 5
    for s in (0.99, 0.995, 0.999):
        ratio = float(ex.ivic_m(s)) * (1 - s) / 5.0
        assert 0.5 < ratio < 2.0
    with pytest.raises(DomainError):
        ex.ivic_m(1.0)
    with pytest.raises(DomainError):
        ex.ivic_m(0.3)


def test_m0_at_threshold_equals_2k0(params):
    thr = ex.m0_validity_threshold(params)
    k0 = float(ex.k0_theta(params.theta))
    got = ex.m0_sigma(thr, params)
    assert abs(got - 2 * k0) < 1e-9 * 2 * k0


def test_m0_direct_oracle():
    p = ex.ExponentParams(eps0=0.0)
    # oracle: 2/(3B*0.05^{3/2}) + 2*k1 at 60 digits
    with mp.workdps(60):
        expected = float(2 / (3 * mp.mpf(B_HB) * mp.mpf("0.05") ** mp.mpf("1.5"))
                         + 2 * mp.mpf(float(ex.k1_theta(p.theta, p.B))))
    assert abs(ex.m0_sigma(0.95, p) - expected) < 1e-9


def test_m0_monotone_toward_one(params):
    assert ex.m0_sigma(0.97, params) > ex.m0_sigma(0.95, params)


def test_m0_range_error(params):
    with pytest.raises(RangeError):
        ex.m0_sigma(0.60, params)


@pytest.mark.parametrize("B", [1e40, 1e60])
def test_m0_threshold_is_theta_at_large_B(B):
    # k0 - k2 = 1/(3(B+eps0)(1-theta)^{3/2}) falls below k0's last work digit
    # here; evaluating 1 - (3(B+eps0)(k0-k2))^{-2/3} gave 0.8394270000014 and -inf
    p = ex.ExponentParams(B=B)
    assert ex.m0_validity_threshold(p) == p.theta
    with pytest.raises(RangeError, match="= theta"):
        ex.m0_sigma(0.6, p)


def test_inductive_sigma_bound_base_case(params):
    k0 = float(ex.k0_theta(params.theta))
    assert abs(ex.inductive_sigma_bound(k0, params) - params.theta) < 1e-12


def test_inductive_sigma_bound_monotone(params):
    ks = [15, 20, 30, 50, 100, 1000]
    vals = [ex.inductive_sigma_bound(k, params) for k in ks]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < 1 for v in vals)
    with pytest.raises(RangeError):
        ex.inductive_sigma_bound(10, params)


def test_inductive_sigma_bound_direct_oracle():
    p = ex.ExponentParams(eps0=1e-6)
    with mp.workdps(60):
        k2 = mp.mpf(float(ex.k2_theta(p.theta, p.B, p.eps0)))
        expected = float(1 - (3 * (mp.mpf(p.B) + mp.mpf(p.eps0)) * (30 - k2))
                         ** (-mp.mpf(2) / 3))
    assert abs(ex.inductive_sigma_bound(30, p) - expected) < 1e-12


@pytest.mark.parametrize("B", [1e10, 1e20, 1e60])
def test_inductive_sigma_bound_base_case_at_huge_B(B):
    # k - k2 formed by subtraction lost 1/(3(B+eps0)(1-theta)^{3/2}) to the float
    # k0's rounding: 0.839426892306928 at 1e10, a complex power (TypeError) from 1e20
    p = ex.ExponentParams(B=B)
    assert abs(ex.inductive_sigma_bound(float(ex.k0_theta(p.theta)), p) - p.theta) < 1e-12


# ----------------------------------------------------------- step checking

@pytest.mark.parametrize("eps0", [1e-6, 1e-3, 1e-1])
def test_induction_step_c_below_two_thirds(eps0):
    p = ex.ExponentParams(eps0=eps0, k=40)
    k0 = float(ex.k0_theta(p.theta))
    for r in (k0, k0 + 2, 0.5 * (k0 + 40), 39.0, 40.0):
        rep = ex.induction_step_check(r, 1e-3, p)
        assert rep.c < 2.0 / 3.0


def test_induction_step_small_x_holds(params):
    k2 = float(ex.k2_theta(params.theta, params.B, params.eps0))
    r = 20.0
    rep = ex.induction_step_check(r, 1e-6 * (r - k2), params)
    assert abs(rep.x - 1e-6) < 1e-12
    assert rep.holds


def test_induction_step_fails_at_c_two_thirds():
    # eps0 = 0 makes c = 2/3 exactly; (1+x)^{2/3} < 1 + (2/3)x for x > 0
    p = ex.ExponentParams(eps0=0.0, k=40)
    k2 = float(ex.k2_theta(p.theta, p.B, 0.0))
    r = 20.0
    rep = ex.induction_step_check(r, 1e-3 * (r - k2), p)
    assert abs(rep.c - 2.0 / 3.0) < 1e-15
    assert not rep.holds
    assert rep.delta_max == 0.0


def test_induction_step_delta_max_is_crossover(params):
    # oracle: the inequality holds just below delta_max and fails just above
    k2 = float(ex.k2_theta(params.theta, params.B, params.eps0))
    r = 20.0
    rep = ex.induction_step_check(r, 1e-3, params)
    assert rep.delta_max > 0
    below = ex.induction_step_check(r, rep.delta_max * (1 - 1e-4), params)
    above = ex.induction_step_check(r, rep.delta_max + 1e-5, params)
    assert below.holds and not above.holds


@pytest.mark.parametrize("p, r", [
    (ex.ExponentParams(), 15.0), (ex.ExponentParams(), 20.0), (ex.ExponentParams(), 30.0),
    (ex.ExponentParams(B=1e-3, eps0=1.0, k=40), 20.0),  # eps0 >> B: c near 0.115
])
def test_induction_step_delta_max_is_the_root(p, r):
    # oracle: the positive root of (1+x)^{2/3} = 1 + c x by mp.findroot at 60
    # digits, with c and k2 from their formulas; a bisection to 1e-6 in delta
    # left delta_max 0.7% short at r = 20
    rep = ex.induction_step_check(r, 1e-3, p)
    with mp.workdps(60):
        t, B, eps0 = mp.mpf(p.theta), mp.mpf(p.B), mp.mpf(p.eps0)
        k2 = ((24 * t - 9) / (2 * (4 * t - 1) * (1 - t))
              - 1 / (3 * (B + eps0) * (1 - t) ** mp.mpf(1.5)))
        c = 2 * B / (3 * (B + eps0)) + eps0 * (r - k2) / (3 * (B + eps0) * (p.k - k2))
        x0 = mp.mpf(rep.delta_max) / (r - k2)
        root = mp.findroot(lambda x: (1 + x) ** (mp.mpf(2) / 3) - 1 - c * x,
                           (x0 / 2, 2 * x0), solver="anderson")
        want = root * (r - k2)
    assert abs(rep.delta_max - want) <= 1e-12 * want


def test_induction_step_domain(params):
    with pytest.raises(RangeError):
        ex.induction_step_check(5.0, 1e-3, params)


# ------------------------------------------------- balancing and exponents

def test_optimal_beta_matches_alpha_in_eps0_limit():
    p = ex.ExponentParams(eps0=1e-8)
    bal = ex.optimal_beta_thm2(30, p)
    rep = ex.alpha_bound(30, p)
    assert abs(bal.final_exponent - rep.exponent) < 1e-6


def test_optimal_beta_local_maximality(params):
    # oracle: direct f evaluation on a local grid
    bal = ex.optimal_beta_thm2(30, params)
    with mp.workdps(50):
        def f(s):
            m0 = ex.m0_sigma(s, params)
            return float((1 - mp.mpf(s)) /
                         (1 + mp.mpf(params.B) * (30 - m0) * (1 - mp.mpf(s)) ** mp.mpf("1.5")))
        for off in (-1e-4, 1e-4):
            assert f(bal.beta + off) <= bal.f_beta + 1e-10


def test_optimal_beta_exponent_dominates_beta(params):
    bal = ex.optimal_beta_thm2(30, params)
    assert bal.beta <= 1 - bal.f_beta
    assert bal.m0_at_beta <= 30 + 1e-9


def test_optimal_beta_threshold(params):
    with pytest.raises(RangeError):
        ex.optimal_beta_thm2(20, params)


def test_beta_k_exponent_zero_crossing(params):
    # oracle: bisect for the sigma where the (range-continued) dyadic
    # exponent vanishes; the zero sits below the theta validity threshold,
    # which is exactly why the continuation flag exists
    k = 15

    def g(s):
        return ex.beta_k_exponent(s, k, params, check_range=False)

    a, b = 0.6, 0.84  # upper end still inside the moment budget m0 <= 2k
    assert g(a) > 0 > g(b)
    for _ in range(80):
        m = 0.5 * (a + b)
        if g(m) > 0:
            a = m
        else:
            b = m
    sigma_star = 0.5 * (a + b)
    assert abs(g(sigma_star)) < 1e-8
    assert abs(sigma_star - 0.7094) < 1e-3
    # cross-check against the mean-square bound exponent
    assert abs(sigma_star - ex.beta_bound(15, params).exponent) < 1e-3
    # inside the certified range (and moment budget) the exponent is
    # negative throughout for k=15, since the zero sits below theta
    thr = ex.m0_validity_threshold(params)
    assert all(ex.beta_k_exponent(s, k, params) < 0
               for s in (thr + 1e-9, 0.8400, 0.8415))


def test_beta_k_exponent_sigma_to_one_limit(params):
    # limit of the raw formula composed with m0 (the moment budget guard
    # does not apply to the algebraic limit): -1 - 2B/(3(B+eps0))
    k = 15
    s = 1 - 1e-6
    m0 = ex.m0_sigma(s, params)
    with mp.workdps(50):
        val = float(-1 + mp.mpf(params.B) * (1 - mp.mpf(s)) ** mp.mpf("1.5") * (2 * k - m0))
        lim = float(-1 - 2 * mp.mpf(params.B) / (3 * (mp.mpf(params.B) + mp.mpf(params.eps0))))
    assert abs(val - lim) < 1e-3
    assert lim < 0


def test_beta_k_exponent_budget_guard(params):
    with pytest.raises(RangeError):
        ex.beta_k_exponent(1 - 1e-6, 15, params)  # m0 >> 2k there


# ------------------------------------------------------- exact phi algebra

def test_phi_values_exact():
    v, piece = ex.phi_piece(Fraction(5, 3))
    assert v == Fraction(-1, 6)
    v3, piece3 = ex.phi_piece(Fraction(5, 2))
    assert v3 == Fraction(-1, 12)
    # equals -c_3 * rho_3^{-2} exactly
    assert v3 == -piece3.c / ex.rho_node(3) ** 2 if piece3.k_index == 3 else True


def test_phi_node_continuity_exact():
    for k in range(2, 101):
        a = ex.phi_piece_for_index(k)
        b = ex.phi_piece_for_index(k + 1)
        node = ex.rho_node(k)
        assert a.A * node + a.Bcoef == b.A * node + b.Bcoef
        # node value equals -c_k / rho_k^2 exactly
        assert a.A * node + a.Bcoef == -a.c / node ** 2


def test_phi_domain_and_float_path():
    with pytest.raises(DomainError):
        ex.phi_piece(0.5)
    v_frac, _ = ex.phi_piece(Fraction(2))
    v_float, _ = ex.phi_piece(2.0)
    assert v_frac == v_float


def test_phi_dominated_by_refined_exponent():
    # invariant: phi(rho) <= -(1 - 3/rho)/rho^2 on [rho_2, rho_100], exact
    for k in range(2, 100):
        lo, hi = ex.rho_node(k), ex.rho_node(k + 1)
        for j in range(7):
            r = lo + (hi - lo) * Fraction(j, 6)
            v, _ = ex.phi_piece(r)
            assert v <= -(1 - 3 / r) / r ** 2


def test_rational_vs_float_phi_agreement():
    # invariant: exact rational phi matches float evaluation to 1e-12 relative
    for r in (Fraction(7, 4), Fraction(22, 7), Fraction(157, 10)):
        v, piece = ex.phi_piece(r)
        fv = float(piece.A) * float(r) + float(piece.Bcoef)
        assert abs(float(v) - fv) <= 1e-12 * max(abs(fv), 1e-30)


def test_refined_and_hb_exponents():
    assert ex.refined_exponent(Fraction(8)) == Fraction(5, 512)
    assert ex.hb_exponent(Fraction(8)) == Fraction(49, 5120)
    assert ex.refined_exponent(Fraction(8)) > ex.hb_exponent(Fraction(8))
    assert ex.refined_exponent(Fraction(3)) == 0


def test_refined_hb_crossover_exact():
    # oracle: solve 1 - 3/rho = 49/80 exactly => rho = 240/31
    rho = 3 / (1 - Fraction(49, 80))
    assert rho == Fraction(240, 31)
    assert ex.refined_exponent(rho) == ex.hb_exponent(rho)
    assert ex.REFINED_HB_CROSSOVER == rho


def test_ck_scan_small_cases():
    # oracle values: c_2 = 25/54 > 1 - 3/rho_3 = -1/5
    assert Fraction(25, 54) == ex.phi_piece_for_index(2).c
    assert Fraction(25, 54) > 1 - Fraction(3) / ex.rho_node(3)
    assert 1 - Fraction(3) / ex.rho_node(3) == Fraction(-1, 5)
    # c_10 = 10201/13310 > 1 - 36/122
    assert ex.phi_piece_for_index(10).c == Fraction(10201, 13310)
    assert Fraction(10201, 13310) > 1 - Fraction(36, 122)
    rep = ex.ck_inequality_scan(200)
    assert rep.ok, rep.failure
    # the scan's endpoint proof of (iii) against exact sampling of each interval
    for k in range(2, 31):
        piece, c = ex.phi_piece_for_index(k + 1), ex.phi_piece_for_index(k).c
        lo, hi = ex.rho_node(k), ex.rho_node(k + 1)
        for j in range(33):
            rho = lo + (hi - lo) * Fraction(j, 32)
            assert piece.A * rho ** 3 + piece.Bcoef * rho ** 2 + c <= 0


def _ck_old_values(k):
    """The per-k integers of the former k = 2..k_max loop, in its order: (i),
    (ii), (iii) at rho_k and at rho_{k+1}, read as > 0, > 0, >= 0, >= 0."""
    mu, nu = (k * k + 1) ** 2, k * (k + 1) ** 3
    mu1, nu1 = ((k + 1) ** 2 + 1) ** 2, (k + 1) * (k + 2) ** 3
    den = (k + 1) ** 2 + 1
    alpha, beta = k * k * (k + 3), 3 * k * k + 3 * k + 2
    out = [mu1 * nu - mu * nu1, mu * den - (k * k - k - 4) * nu]
    for N, D in ((k * k + 1, k + 1), ((k + 1) ** 2 + 1, k + 2)):
        out.append(-(2 * (k + 1) * nu * N ** 3 - beta * nu * N * N * D
                     + mu * alpha * (k + 1) * D ** 3))
    return out


def test_ck_polynomials_are_the_per_k_comparisons():
    # every polynomial has degree <= 12, so agreement at 1999 points is identity
    conds = ex._CK_CONDITIONS
    assert [strict for _, _, strict in conds] == [True, True, False, False]
    assert max(len(p) for _, p, _ in conds) <= 13
    for k in range(2, 2001):
        assert [poly_eval(p, k) for _, p, _ in conds] == _ck_old_values(k)


def test_ck_certificates_hold_from_k_2():
    for label, p, strict in ex._CK_CONDITIONS:
        q = taylor_shift(p, 2)
        assert all(c >= 0 for c in q) and (poly_eval(q, 0) > 0 or not strict), label


def test_ck_scan_reports_the_first_false_k(monkeypatch):
    conds = list(ex._CK_CONDITIONS)
    labels = [label for label, _, _ in conds]
    monkeypatch.setattr(ex, "_CK_CONDITIONS", conds)
    conds[1] = (labels[1], [49, -20, 2], True)  # 2(k-5)^2 - 1, negative at k = 5 only
    assert ex.ck_inequality_scan(10 ** 4) == ex.ScanReport(False, 10 ** 4, (5, labels[1]))
    assert ex.ck_inequality_scan(4) == ex.ScanReport(True, 4, None)
    # 2(k-5)^2 is 0 at k = 5: a non-strict condition allows it, a strict one
    # fails there, and at the same k an earlier condition is reported first
    conds[0] = (labels[0], [50, -20, 2], False)
    assert ex.ck_inequality_scan(10 ** 4).failure == (5, labels[1])
    conds[0] = (labels[0], [50, -20, 2], True)
    assert ex.ck_inequality_scan(10 ** 4).failure == (5, labels[0])
    # a polynomial that never gets a certificate is tested at every k <= k_max
    conds[:2] = [(labels[0], [1, 1], True), (labels[1], [300, -1], True)]
    assert ex.ck_inequality_scan(299).ok
    assert ex.ck_inequality_scan(300).failure == (300, labels[1])
    conds[1] = (labels[1], [0, 0, -1], False)  # -k^2
    assert ex.ck_inequality_scan(10).failure == (2, labels[1])


# ------------------------------------------------------- cubic maximisers

def test_moment_h_max_asymptotics():
    res = ex.moment_h_max(10 ** 6, 1.0)
    assert not res.used_endpoint
    ratio = res.rho_star / (math.sqrt(3.0) * (10 ** 6) ** (1.0 / 3.0))
    assert abs(ratio - 1) < 0.02
    assert abs(res.h_star - 4 / math.sqrt(27)) < 0.05
    assert len(res.stationary_points) >= 2


def test_moment_alpha_identity():
    # (4/sqrt(27)) * (3/2^{4/3})^{3/2} = 1 exactly
    with mp.workdps(60):
        alpha = 3 / 2 ** (mp.mpf(4) / 3)
        val = 4 / mp.sqrt(27) * alpha ** mp.mpf("1.5")
        assert abs(val - 1) < mp.mpf("1e-12")
    assert abs(float(ex.moment_h_limit(float(3 / 2 ** (4.0 / 3.0)))) - 1) < 1e-12


def test_zeta_h_max_cubic_roots():
    # oracle: high-precision roots of 0.01 rho^3 - 3 rho + 12
    with mp.workdps(40):
        roots = sorted(float(r) for r in mp.polyroots([mp.mpf("0.01"), 0, -3, 12])
                       if abs(mp.im(r)) < 1e-30 and mp.re(r) > 0)
    assert abs(roots[0] - 4.2572) < 5e-4
    assert abs(roots[1] - 14.7950) < 5e-4
    res = ex.zeta_h_max(1000, 1.0)
    pos = sorted(res.stationary_points)
    assert abs(pos[0] - roots[0]) < 1e-6
    assert abs(pos[1] - roots[1]) < 1e-6
    assert abs(res.rho_star - roots[1]) < 1e-6  # larger root selected


def test_zeta_h_max_limit():
    res = ex.zeta_h_max(10 ** 9, 1.0)
    with mp.workdps(40):
        lim = float(2 / mp.mpf(27) ** mp.mpf("0.5"))
    assert abs(10 ** 9 * res.h_star - lim) < 0.01
    assert abs(res.limit_ratio - 1) < 0.03


def test_zeta_h_max_limit_ratio_ignores_the_callers_precision():
    # the limit 2 alpha^{3/2}/sqrt(27) is evaluated at WORK_DPS, not at the
    # caller's mpmath precision
    with mp.workprec(20):
        low = ex.zeta_h_max(500, 1.0)
    assert repr(low) == repr(ex.zeta_h_max(500, 1.0))


@pytest.mark.parametrize("fn, k, cap", [
    (ex.moment_h_max, 1e308, ex.CUBIC_K_CAP),
    (ex.moment_h_max, 2 * ex.CUBIC_K_CAP, ex.CUBIC_K_CAP),
    (ex.zeta_h_max, 1e308, ex.CUBIC_K_CAP),
    (ex.zeta_h_max, 10 ** 309, ex.CUBIC_K_CAP),
    (ex.thm3_exponent, 10 ** 400, ex.THM3_K_CAP),
    (ex.thm3_exponent, 1e63, ex.THM3_K_CAP),
], ids=["moment-1e308", "moment-2cap", "zeta-1e308", "zeta-int1e309", "thm3-int1e400",
        "thm3-1e63"])
def test_huge_k_is_refused_by_name(fn, k, cap):
    # unguarded: numpy's LinAlgError, OverflowError, "int too large to
    # convert to float", ZeroDivisionError, and a spurious m1(beta) > k
    args = (k, 0.1) if fn is ex.thm3_exponent else (k, 1.0)
    with pytest.raises(RangeError, match=re.escape(f"k must be at most {cap:.0e}, got {k}")):
        fn(*args)


def test_huge_k_at_the_cap_is_finite():
    assert ex.moment_h_max(ex.CUBIC_K_CAP, 1.0).h_star == pytest.approx(4 / math.sqrt(27))
    assert ex.zeta_h_max(ex.CUBIC_K_CAP, 1.0).limit_ratio == pytest.approx(1.0)
    rep = ex.thm3_exponent(ex.THM3_K_CAP, 0.1)
    assert rep.m1_at_beta == pytest.approx(ex.THM3_K_CAP, rel=1e-14)


@pytest.mark.parametrize("call, message", [
    (lambda: ex.moment_h_max(1e150, 1e100), "alpha*k^(1/3) must be at most 1e+75, got 1e+150"),
    (lambda: ex.moment_h_max(1e100, 1e100), "alpha*k^(1/3) must be at most 1e+75, got 2.154e+133"),
    (lambda: ex.moment_h_max(1e150, 1e-300), "alpha*k^(-2/3) must be at least 1e-100, got 0"),
    (lambda: ex.zeta_h_max(2, 1e-300), "alpha*k^(-2/3) must be at least 1e-100, got 6.3e-301"),
    (lambda: ex.zeta_h_max(1e150, 1e-300), "alpha*k^(-2/3) must be at least 1e-100, got 0"),
    (lambda: ex.hb_exponent(1e300), "rho must lie in [1e-150, 1e+150], got 1e+300"),
    (lambda: ex.hb_exponent(1e-300), "rho must lie in [1e-150, 1e+150], got 1e-300"),
], ids=["moment-1e150-1e100", "moment-1e100-1e100", "moment-1e150-1e-300", "zeta-2-1e-300",
        "zeta-1e150-1e-300", "hb-1e300", "hb-1e-300"])
def test_float_overflow_is_refused_by_name(call, message):
    # unguarded: OverflowError from the float cubics and rho^2, ZeroDivisionError
    # from an underflowed limit or rho^2
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        call()


def test_float_caps_are_finite():
    # each cap lies inside the range where the float arithmetic holds (measured
    # failures: alpha k^(-2/3) below 5e-103, alpha k^(1/3) past 0.75 k from
    # k = 1.2e77, rho outside [5.9e-155, 5.3e153])
    k = ex.CUBIC_K_CAP
    for fn in (ex.moment_h_max, ex.zeta_h_max):
        for kk in (2, 1e60, k):
            assert math.isfinite(fn(kk, ex.CUBIC_SCALE_MIN * kk ** (2 / 3) * 1.001).h_star)
    for kk in (2, 1e77, 1.2e77, 1e100, k):
        assert math.isfinite(ex.moment_h_max(kk, ex.MOMENT_SCALE_MAX / kk ** (1 / 3) * 0.999).h_star)
    for rho in (1 / ex.HB_RHO_CAP, ex.HB_RHO_CAP):
        assert 0 < ex.hb_exponent(rho) < math.inf


def test_zeta_h_max_homogeneity():
    # alpha -> 4*alpha scales the limiting value by 8 (3/2-power homogeneity)
    r1 = ex.zeta_h_max(10 ** 9, 1.0)
    r4 = ex.zeta_h_max(10 ** 9, 4.0)
    assert abs(r4.h_star / r1.h_star - 8.0) < 0.16


def test_zeta_h_max_preconditions():
    with pytest.raises(RangeError):
        ex.zeta_h_max(2, 1.0)  # alpha*k^{-2/3} = 0.63 >= 1/2


def test_cubic_maximisers_fall_back_to_an_endpoint():
    # a rho^3 - 3 rho + 12 at a = 10^(-2/3) has its least value on rho > 0,
    # 12 - 2 a^(-1/2) = 7.69 at rho = a^(-1/2), above 0: no stationary point,
    # so rho = 3, where h = a/3 - (1 - 3/3)/27 = a/3
    a = 10 ** (-2 / 3)
    res = ex.zeta_h_max(10, 1.0)
    assert res.used_endpoint and res.stationary_points == ()
    assert res.rho_star == 3.0
    assert res.h_star == pytest.approx(a / 3, rel=1e-14)
    # alpha = 50 leaves the moment cubic no positive root either, and h(2) is
    # the larger endpoint value on [2, k]
    k, a13 = 10, 50.0 * 10 ** (1 / 3)

    def h(r):
        return 2 * a13 / r - 2 * (k + 4) / r ** 3 + 6 * (k + 1) / r ** 4 + 2 / r ** 2 + 2 / r

    res = ex.moment_h_max(k, 50.0)
    assert res.used_endpoint and res.stationary_points == ()
    assert res.rho_star == 2.0 and h(2.0) > h(float(k))
    assert res.h_star == pytest.approx(h(2.0), rel=1e-14)


def _select_local_max(roots, lo, hi, dd_h):
    """The maximisers' former rule, kept as the reference: the largest
    stationary point in [lo, hi] at which h'' = dd_h is negative."""
    cands = [r for r in roots if lo <= r <= hi and dd_h(r) < 0]
    return max(cands) if cands else None


def _moment_ddh(k, alpha):
    a13 = alpha * k ** (1.0 / 3.0)
    return lambda r: (4 * a13 / r ** 3 - 24 * (k + 4) / r ** 5
                      + 120 * (k + 1) / r ** 6 + 12 / r ** 4 + 4 / r ** 3)


def _zeta_ddh(k, alpha):
    a = alpha * k ** (-2.0 / 3.0)
    return lambda r: 2 * a / r ** 3 - 12 / r ** 5 + 60 / r ** 6


def _same_pick(fn, k, alpha):
    """Assert that fn(k, alpha) picks the root, or the endpoint, that the
    reference picks from its stationary points; return whether it took an endpoint."""
    res = fn(k, alpha)
    lo, hi, ddh = ((2.0, float(k), _moment_ddh(k, alpha)) if fn is ex.moment_h_max
                   else (3.0, math.inf, _zeta_ddh(k, alpha)))
    star = _select_local_max(res.stationary_points, lo, hi, ddh)
    assert res.used_endpoint == (star is None), (k, alpha)
    if star is not None:  # golden section starts from the pick: the root nearest rho*
        assert min(res.stationary_points, key=lambda r: abs(r - res.rho_star)) == star
    return res.used_endpoint


@pytest.mark.parametrize("fn", [ex.moment_h_max, ex.zeta_h_max])
def test_cubic_maximisers_pick_as_the_second_derivative_test(fn):
    # k from 2 to CUBIC_K_CAP, alpha from 1e-60 to 1e40: both the rising-cubic
    # rule and the h'' sign pick the same root, or both an endpoint (moment: 92
    # endpoint and 537 interior cases; zeta: 4 and 576; the rest out of range)
    picks = []
    for k in (min(2 * 5e149 ** (i / 30), ex.CUBIC_K_CAP) for i in range(31)):
        for alpha in (10.0 ** e for e in range(-60, 41, 4)):
            try:
                picks.append(_same_pick(fn, k, alpha))
            except RangeError:
                continue
    assert True in picks and False in picks


def test_zeta_pick_at_the_tangency():
    # at a = alpha k^(-2/3) = 1/36 (alpha = 1/9 at k = 8) the cubic a rho^3 - 3 rho
    # + 12 has a double root at rho = 6, where h'' = -C'/rho^5 = 0: there the
    # reference's h''(6.0) is 0.0 and the rule's a 6^2 is 1.0, so neither takes
    # it.  real_cubic_roots finds no positive root at a = 1/36 or 1e-16 below it
    # (both rules then take rho = 3), and from 3e-16 below it two roots 6 -+ 6e-8
    # and more, of which both rules take the upper one, where C rises
    a = 1 / 9 * 8 ** (-2 / 3)
    assert a == 1 / 36
    assert _zeta_ddh(8, 1 / 9)(6.0) == 0.0 and a * 6.0 * 6.0 == 1.0
    for e in (0.0, 1e-16, 3e-16, 1e-15, 1e-12, 1e-8, -1e-12):
        _same_pick(ex.zeta_h_max, 8, 1 / 9 * (1 - e))
    assert not _same_pick(ex.zeta_h_max, 8, 1 / 9 * (1 - 1e-8))


# ------------------------------------------------------ large-k exponents

def test_large_k_constant():
    with mp.workdps(60):
        expected = 3 / 2 ** (mp.mpf(2) / 3)
    assert abs(float(ex.large_k_constant()) - float(expected)) < 1e-40
    assert abs(float(ex.large_k_constant()) - 1.8899) < 1e-4
    assert ex.report_karatsuba(ex.large_k_constant()) == 1.889


def test_thm3_m1_identity():
    rep = ex.thm3_exponent(10 ** 4, 0.05)
    assert abs(rep.m1_at_beta - 10 ** 4) < 1e-8 * 10 ** 4


def test_thm3_constant_monotone_to_limit():
    C = float(ex.large_k_constant())
    deltas = [0.1, 0.05, 0.02, 0.01]
    consts = [ex.thm3_exponent(max(10, math.ceil(d ** -3)) * 10, d).karatsuba_constant
              for d in deltas]
    assert all(a < b for a, b in zip(consts, consts[1:]))
    assert all(c < C for c in consts)
    assert C - consts[-1] < 0.06


def test_thm3_floor_diagnostics():
    small = ex.thm3_exponent(10 ** 4, 0.05)
    assert not small.floor3_holds  # constant-3 floor fails for small delta
    big = ex.thm3_exponent(200, 0.2)
    assert big.floor3_holds


def test_thm3_range_guard():
    with pytest.raises(RangeError):
        ex.thm3_exponent(100, 0.01)  # needs k >= 1e6
    # delta^-3 = 1e900 lies past the float range, and so past every k
    with pytest.raises(RangeError, match=r"needs k >= A\*delta\^-3 = 1\.0e\+900 "):
        ex.thm3_exponent(10 ** 4, 1e-300)


def test_m1_sigma_identity_at_zero_delta():
    # m1 at sigma = 1 - 2^{2/3} * (3/2^{4/3}) * k^{-2/3} equals k when delta=0
    for k in (10, 100, 10 ** 5):
        with mp.workdps(60):
            sigma = float(1 - 2 ** (mp.mpf(2) / 3) * (3 / 2 ** (mp.mpf(4) / 3))
                          * mp.mpf(k) ** (-mp.mpf(2) / 3))
        assert abs(ex.m1_sigma(sigma, 0.0) - k) < 1e-9 * k


def test_m1_sigma_monotone_and_direct():
    vals = [ex.m1_sigma(s, 0.1) for s in (0.99, 0.995, 0.999)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with mp.workdps(60):
        expected = float(2 * (3 / 2 ** (mp.mpf(4) / 3) - mp.mpf("0.1")) ** mp.mpf("1.5")
                         * mp.mpf("0.1") ** (-mp.mpf("1.5")))
    # sigma=0.9 sits below the default calibration threshold 1 - delta^2,
    # so the direct evaluation runs with a relaxed calibration constant
    assert abs(ex.m1_sigma(0.9, 0.1, A=10.0) - expected) < 1e-9


def test_m1_sigma_range_guard():
    with pytest.raises(RangeError):
        ex.m1_sigma(0.985, 0.1)  # needs sigma >= 0.99 at A=1
    ex.m1_sigma(0.985, 0.1, A=2.0)  # relaxed calibration constant
    # delta^2 = 1e600 lies past the float range: the threshold is met, and
    # the formula's own domain refuses the delta
    with pytest.raises(DomainError, match="^delta too large"):
        ex.m1_sigma(0.99, 1e300)


# ------------------------------------------------------------- conventions

def test_report_rounding_helpers():
    assert ex.report_karatsuba(1.224844) == 1.224
    assert ex.report_exponent(0.8421628) == 0.84217
    assert ex.report_subtracted_threshold(8.37482) == 8.37
    assert ex.report_k_threshold(29.4419) == 30
    # within one double ulp of a decimal boundary: rounded on the mpf itself,
    # not on the nearest float, which lies on or across the boundary
    with mp.workprec(200):
        assert ex.report_karatsuba(mp.mpf("1.889") - mp.mpf(2) ** -80) == 1.888
        assert ex.report_exponent(mp.mpf("0.5") + mp.mpf(2) ** -80) == 0.50001
        assert ex.report_subtracted_threshold(mp.mpf("8.38") - mp.mpf(2) ** -80) == 8.37


NAN, INF = math.nan, math.inf
P = ex.ExponentParams()


@pytest.mark.parametrize("fn, args, name", [
    (ex.ExponentParams, (INF,), "B"),
    (ex.ExponentParams, (NAN,), "B"),
    (ex.ExponentParams, (B_HB, 0.839427, NAN), "eps0"),
    (ex.ExponentParams, (B_HB, 0.839427, INF), "eps0"),  # optimal_beta_thm2 gave 0.47
    (ex.ExponentParams, (B_HB, 0.839427, 1e-6, NAN), "delta"),
    (ex.k2_theta, (0.8, B_HB, NAN), "eps0"),
    (ex.optimize_theta, (INF,), "B"),
    (ex.historical_table, (INF,), "B_richert"),
    (ex.historical_table, (4.45, NAN), "B_hb"),
    (ex.kolpakova_D, (NAN, 4.45), "k"),
    (ex.kolpakova_D, (186, NAN), "B"),
    (ex.kolpakova_D, (186, INF), "B"),
    (ex.m1_sigma, (NAN, 0.1), "sigma"),
    (ex.m1_sigma, (0.995, NAN), "delta"),
    (ex.m1_sigma, (0.995, 0.1, NAN), "A"),
    (ex.m0_sigma, (NAN, P), "sigma"),
    (ex.k2_theta, (0.8, INF, 0.0), "B"),
    (ex.thm3_exponent, (10 ** 4, NAN), "delta"),
    (ex.inductive_sigma_bound, (NAN, P), "k"),
    (ex.inductive_sigma_bound, (INF, P), "k"),
    (ex.induction_step_check, (NAN, 1e-3, P), "r"),
    (ex.induction_step_check, (20.0, NAN, P), "delta_step"),
    (ex.induction_step_check, (20.0, INF, P), "delta_step"),
    (ex.beta_k_exponent, (NAN, 30, P), "sigma"),
    (ex.beta_k_exponent, (0.9, NAN, P), "k"),
    (ex.beta_k_exponent, (-INF, 30, P, False), "sigma"),
    (ex.refined_exponent, (NAN,), "rho"),
    (ex.refined_exponent, (INF,), "rho"),
    (ex.hb_exponent, (NAN,), "rho"),
    (ex.hb_exponent, (INF,), "rho"),
    (ex.zeta_h_max, (10, INF), "alpha"),
    (ex.thm3_exponent, (NAN, 0.1), "k"),
    (ex.thm3_exponent, (10 ** 4, 0.1, NAN), "A"),
    # unguarded, these raise ValueError, OverflowError or TypeError from
    # Fraction, math.ceil or np.roots, or a RangeError, or return NaN or an mpc
    *[(fn, (v,), name) for fn, name in [
        (ex.phi_piece, "rho"), (ex.report_k_threshold, "x"), (ex.report_karatsuba, "D"),
        (ex.report_exponent, "a"), (ex.report_subtracted_threshold, "c"),
        (ex.moment_h_limit, "alpha")] for v in (NAN, INF, -INF)],
    *[(fn, (v, P), "k") for fn in (ex.alpha_bound, ex.beta_bound) for v in (NAN, INF, -INF)],
    *[(fn, (v, 1.0), "k") for fn in (ex.moment_h_max, ex.zeta_h_max) for v in (NAN, INF)],
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_finite_argument_raises_domain_error(fn, args, name):
    # a guard written as `x < 0` lets NaN through, and `not x > 0` lets inf
    # through where the quantity is finite
    with pytest.raises(DomainError, match=f"^{name} must"):
        fn(*args)


@pytest.mark.parametrize("fn, arg, name", [
    (ex.ck_inequality_scan, 10.5, "k_max"),
    (ex.ck_inequality_scan, NAN, "k_max"),
    (ex.phi_piece_for_index, 2.5, "k"),
    (ex.rho_node, NAN, "k"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_integral_argument_raises_domain_error(fn, arg, name):
    # each passes its range check and, unguarded, raises a bare TypeError (or,
    # for the scan, would run with a fractional bound)
    with pytest.raises(DomainError, match=f"^{name} must be integral, got {arg}$"):
        fn(arg)
    if fn is not ex.rho_node:  # refused today: same class and message
        with pytest.raises(DomainError, match=r"must be >= 2, got 1\.5$"):
            fn(1.5)


@pytest.mark.parametrize("call, bad", [
    (lambda: ex.alpha_bound(30.5, P), 30.5),
    (lambda: ex.beta_bound(30.5, P), 30.5),
    (lambda: ex.optimal_beta_thm2(30.5, P), 30.5),
    (lambda: ex.beta_k_exponent(0.9, 30.5, P), 30.5),
    (lambda: ex.beta_k_exponent(0.8, 15.5, P, check_range=False), 15.5),
    (lambda: ex.thm3_exponent(1e6 + 0.5, 0.1), 1000000.5),
    (lambda: ex.kolpakova_D(186.5, 4.45), 186.5),
], ids=["alpha", "beta", "thm2", "beta_k", "beta_k-unchecked", "thm3", "kolpakova"])
def test_non_integral_k_raises_domain_error(call, bad):
    # each once answered for a k between two integers
    with pytest.raises(DomainError, match=f"^k must be integral, got {bad}$"):
        call()


def test_k_refused_today_keeps_its_message():
    # the range checks come before the integral one
    with pytest.raises(RangeError, match=r"^alpha bound needs k >= 2\*k0\(theta\) = .*, got k=20\.5$"):
        ex.alpha_bound(20.5, P)
    with pytest.raises(RangeError, match=r"^needs k >= A\*delta\^-3 = 1000\.0 .*, got k=999\.5$"):
        ex.thm3_exponent(999.5, 0.1)
    with pytest.raises(RangeError, match=r"^kolpakova constant needs k > 159\.9, got 150\.5$"):
        ex.kolpakova_D(150.5, 4.45)
    with pytest.raises(DomainError, match=r"^k must be an integer >= 2, got 30\.5$"):
        ex.ExponentParams(k=30.5)


def test_params_validation():
    with pytest.raises(DomainError):
        ex.ExponentParams(B=-1)
    with pytest.raises(DomainError):
        ex.ExponentParams(theta=1.0)
    with pytest.raises(DomainError):
        ex.ExponentParams(k=1)
