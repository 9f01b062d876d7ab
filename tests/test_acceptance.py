"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (plus a printed [criterion N] PASS line under -s).

Criterion 6b stated a cubic root (14.82) that is no root, so its test checks
an exact-rational bracket of the root instead.  Criterion 12b states a
residual bound (< 0.05) that the Riemann-Siegel remainder rules out; its test
keeps the stated bound and fails.  The reasoning for each is in the test's
comments.
"""

import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from divisorlab import exponents as ex
from divisorlab import laurent as la
from divisorlab import remainder as rl
from divisorlab import sieve as sv
from divisorlab import zetasum as zs

B_HB = float(ex.heath_brown_B())


def note(n, msg):
    print(f"[criterion {n}] PASS: {msg}")


def test_c01_theta_optimisation():
    t0 = time.monotonic()
    opt = ex.optimize_theta(B_HB)
    elapsed = time.monotonic() - t0
    assert abs(opt.theta_star - 0.839427) <= 1e-5
    assert abs(opt.k0_star - 14.72) <= 1e-2
    assert abs(opt.k1_star - 4.187) <= 2e-3
    assert elapsed < 1.0
    note(1, f"theta*={opt.theta_star:.7f}, k0={opt.k0_star:.4f}, "
            f"k1={opt.k1_star:.5f} in {elapsed:.3f}s")


def test_c02_constant_pipeline():
    with mp.workdps(40):
        Bm = mp.mpf(B_HB)
        two3 = mp.mpf(2) / 3
        D_alpha = float(two3 ** two3 * Bm ** -two3)
        D_beta = float((mp.mpf(5) / 6) ** two3 * Bm ** -two3)
    assert abs(D_alpha - 1.224) <= 1e-3
    assert abs(D_beta - 1.421) <= 1e-3
    assert abs(float(ex.large_k_constant()) - 1.8899) <= 1e-4
    opt = ex.optimize_theta(B_HB)
    two_k1 = 2 * opt.k1_star
    # stated intermediate is 8.376; the computed maximiser gives 8.37482,
    # inside the tolerance the criterion grants k1 itself (2 * 2e-3)
    assert abs(two_k1 - 8.376) <= 4e-3
    assert ex.report_subtracted_threshold(two_k1) == 8.37
    note(2, f"D_alpha={D_alpha:.6f}, D_beta={D_beta:.6f}, "
            f"3/2^(2/3)={float(ex.large_k_constant()):.6f}, 2k1={two_k1:.5f}->8.37")


def test_c03_historical_table():
    rows = {r.name: r.karatsuba_D_exact for r in ex.historical_table(4.45)}
    published = {
        "karatsuba-1972": 0.116,
        "fujii-1976": 0.214,
        "panteleeva-1988": 0.232,
        "ivic-ouellet-1989": 0.196,
        "kolpakova-2011(limit)": 0.282,
    }
    for name, want in published.items():
        assert abs(rows[name] - want) <= 1e-3, name
    note(3, "0.116 / 0.214 / 0.232 / 0.196 / 0.282 reproduced at B=4.45")


def test_c04_bound_cross_checks():
    params = ex.ExponentParams()
    a = ex.alpha_bound(30, params)
    assert abs(a.exponent - 0.84215) <= 5e-4
    closed_a = 1 - 1.224 * (30 - 8.37) ** (-2.0 / 3.0)
    assert abs(a.exponent - closed_a) <= 5e-4
    b = ex.beta_bound(15, params)
    closed_b = 1 - 1.421 * (15 - 4.18) ** (-2.0 / 3.0)
    assert abs(b.exponent - closed_b) <= 5e-4
    note(4, f"alpha(30)={a.exponent:.6f} vs {closed_a:.6f}; "
            f"beta(15)={b.exponent:.6f} vs {closed_b:.6f}")


def test_c05_exact_rational_suite():
    t0 = time.monotonic()
    v2, _ = ex.phi_piece(Fraction(5, 3))
    assert v2 == Fraction(-1, 6)
    v3, _ = ex.phi_piece(Fraction(5, 2))
    assert v3 == Fraction(-1, 12)
    assert ex.phi_piece_for_index(2).c == Fraction(25, 54)
    cross = 3 / (1 - Fraction(49, 80))
    assert cross == Fraction(240, 31)
    assert ex.refined_exponent(cross) == ex.hb_exponent(cross)
    rep = ex.ck_inequality_scan(10 ** 4)
    assert rep.ok, rep.failure
    for k in range(2, 101):
        a = ex.phi_piece_for_index(k)
        b = ex.phi_piece_for_index(k + 1)
        node = ex.rho_node(k)
        assert a.A * node + a.Bcoef == b.A * node + b.Bcoef
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    note(5, f"exact suite (incl. scan to 1e4) in {elapsed:.2f}s")


def test_c06a_cubic_smaller_stationary_point():
    res = ex.zeta_h_max(1000, 1.0)
    pos = sorted(res.stationary_points)
    assert abs(pos[0] - 4.25) <= 1e-2
    assert abs(res.rho_star - max(pos)) < 1e-5  # larger root selected
    note("6a", f"stationary points {pos[0]:.4f}, {pos[1]:.4f}; larger selected")


def test_c06b_cubic_larger_stationary_point_as_stated():
    # 1000^{-2/3} = 1/100 exactly, so h'(rho) = 0 is the cubic below.  Its
    # sign change between 14.79 and 14.80, with the derivative 3 rho^2/100 - 3
    # positive from 14.79 up, places the larger root in [14.79, 14.80] from
    # exact rationals alone.  The stated 14.82 is no root: the cubic is
    # +0.0895 there, so the criterion's 0.01 tolerance is kept about 14.795.
    def cubic(r):
        return r ** 3 / 100 - 3 * r + 12

    lo, hi = Fraction("14.79"), Fraction("14.80")
    assert cubic(lo) < 0 < cubic(hi)
    assert 3 * lo ** 2 / 100 - 3 > 0
    res = ex.zeta_h_max(1000, 1.0)
    larger = max(res.stationary_points)
    assert abs(larger - 14.795) <= 1e-2, (
        f"computed larger stationary point {larger:.5f}; the cubic "
        f"rho^3/100 - 3 rho + 12 changes sign in [14.79, 14.80]")
    note("6b", f"larger stationary point {larger:.5f}; exact bracket "
               f"[14.79, 14.80] (stated 14.82 is not a root)")


def test_c06c_alpha_identity():
    with mp.workdps(50):
        alpha = 3 / 2 ** (mp.mpf(4) / 3)
        val = 4 / mp.sqrt(27) * alpha ** mp.mpf("1.5")
        assert abs(val - 1) < mp.mpf("1e-12")
    note("6c", "(4/sqrt(27)) * (3/2^(4/3))^(3/2) = 1 to 1e-12")


def test_c07_sieve_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(97)
    mismatches = 0
    for k in (2, 3, 5, 10):
        values = sv.dk_block(k, 1, 10 ** 7 + 1).values
        for _ in range(10 ** 4):
            n = rng.randint(1, 10 ** 7)
            if int(values[n - 1]) != sv.dk_factor(k, n):
                mismatches += 1
    assert mismatches == 0
    assert sv.dk_partial_sums(2, 10, [10])[0][1] == 27
    assert sv.dk_partial_sums(3, 10, [10])[0][1] == 53
    xs = sorted({1, 10, 100, 1234, 99999, 10 ** 6}
                | {rng.randint(2, 10 ** 6) for _ in range(20)})
    series = sv.dk_partial_sums(2, 10 ** 6, xs)
    for x, d in series:
        assert d == sv.d2_summatory_hyperbola(x)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    note(7, f"4x10^4 oracle comparisons + hyperbola identity in {elapsed:.1f}s")


def test_c08_main_term_residue():
    for k in range(1, 13):
        poly = la.main_term_poly(k, 256)
        with mp.workprec(256):
            direct = la.eval_main_term(poly, 100) / 100
        oracle = la.residue_contour_oracle(k, 256, 100)
        with mp.workdps(90):
            assert abs(oracle - direct) < mp.mpf("1e-15"), k
    p2 = la.main_term_poly(2, 256)
    with mp.workdps(40):
        assert abs(p2.coeffs[0] - mp.mpf("0.1544313")) < mp.mpf("1e-7")
        assert abs(p2.coeffs[0] - (2 * mp.euler - 1)) < mp.mpf("1e-40")
    for k in (1, 2, 7, 20, 33, 40):
        assert la.main_term_poly(k, 64).leading_exact == \
            Fraction(1, math.factorial(k - 1))
    note(8, "series residue vs contour oracle to 1e-15 for k <= 12; "
            "P1 constant and exact leading coefficients verified")


def test_c09_remainder_values():
    s = rl.delta_at(2, 10.5)
    assert abs(s.delta - 0.689) <= 1e-3
    si = rl.delta_at(2, 100)
    assert abs(si.delta - 6.040) <= 1e-2
    assert not si.half_odd
    for n in (5, 50, 500):
        assert rl.delta_at(1, n + 0.5).delta == pytest.approx(-0.5, abs=1e-12)
    ms = rl.mean_square(1, 10 ** 4)
    assert abs(ms - 3 ** -0.5) <= 1e-3
    note(9, f"Delta_2(10.5)={s.delta:.5f}, Delta_2(100)={si.delta:.5f}, "
            f"Delta_1=-1/2, ||Delta_1(1e4)||_2={ms:.6f}")


def test_c10_empirical_exponent():
    t0 = time.monotonic()
    xs = np.geomspace(10 ** 4, 10 ** 7, 32)
    grid = sorted({math.floor(v) + 0.5 for v in xs})
    samples = rl.delta_scan(2, grid)
    slope, err = rl.fit_exponent(samples)
    assert 0.2 <= slope <= 0.4
    synth = [rl.RemainderSample(2, float(x), 0, mp.mpf(0), float(x) ** 0.31, True)
             for x in np.geomspace(10.0, 1e6, 24)]
    sslope, _ = rl.fit_exponent(synth)
    assert abs(sslope - 0.31) < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    note(10, f"k=2 slope {slope:.3f} (stderr {err:.3f}) on 1e4..1e7 "
             f"in {elapsed:.1f}s; synthetic recovery exact")


def test_c11_sign_changes():
    rows = rl.sign_change_scan(2, 10 ** 3, 10 ** 5, C=5.0)
    assert len(rows) > 50
    missing = [w for w, loc in rows if loc is None]
    assert not missing, f"windows without sign change: {missing[:5]}"
    note(11, f"{len(rows)} windows tiling [1e3, 1e5], all with sign changes")


def test_c12a_zeta_and_chi():
    with mp.workdps(40):
        assert abs(zs.zeta_em(2.0, 0.0) - mp.pi ** 2 / 6) < mp.mpf("1e-6")
    for t in (10.0, 100.0, 1000.0):
        assert abs(abs(zs.chi_factor(0.5, t)) - 1) < 1e-10
    note("12a", "zeta(2) and |chi(1/2+it)| = 1 verified")


def test_c12b_afe_residual_as_stated():
    # FOUND: the stated threshold 0.05 cannot be met at either point, so this
    # test fails while the program is right.  With L = floor(sqrt(t/2pi)) and
    # p = frac(sqrt(t/2pi)) the Riemann-Siegel remainder of the two-sum
    # approximation (Titchmarsh, The Theory of the Riemann Zeta-Function,
    # ch. 4) has a leading term of modulus (t/2pi)^{-sigma/2} |Psi(p)|, with
    # Psi(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p): 0.06072 at (0.75, 1000)
    # and 0.25109 at (0.5, 500).  mpmath.zeta with the textbook chi gives
    # 0.060653 and 0.251244, as the program does (test_afe_residual_values
    # pins these), and the relative residuals 0.069 and 0.17 miss 0.05 too.
    # The bound is also too weak to catch a wrong length: L = 7 at (0.5, 500)
    # gives 0.036.
    r1 = zs.afe_residual(0.75, 1000.0)
    r2 = zs.afe_residual(0.5, 500.0)
    assert r1.residual < 0.05, f"residual(0.75, 1000) = {r1.residual:.4f}"
    assert r2.residual < 0.05, f"residual(0.5, 500) = {r2.residual:.4f}"


def test_c12c_moment_parseval():
    est = zs.moment_integral(1, 2.0, 10 ** 4)
    with mp.workdps(30):
        z4 = float(mp.zeta(4))
    assert abs(est.normalized - z4) / z4 <= 0.02
    note("12c", f"normalized moment {est.normalized:.6f} vs zeta(4)={z4:.6f}")


def test_c12d_mvt_budget():
    rep = zs.mvt_check(256, 10 ** 4, "ones")
    assert rep.ratio <= 1.1
    note("12d", f"mean-value ratio {rep.ratio:.4f} <= 1.1 at N=256, T=1e4")
