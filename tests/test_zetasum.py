"""Tests for exponential sums, zeta evaluation, the chi factor, the AFE
residual, moment integrals and the mean-value check.

Independent oracles: mpmath's zeta, a test-local complex Stirling log-Gamma,
Parseval limits of Dirichlet series, exhaustive enumeration, and exact
rational crossover algebra.
"""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divisorlab import exponents as ex
from divisorlab import laurent as la
from divisorlab import sieve as sv
from divisorlab import zetasum as zs
from divisorlab.errors import DomainError, PrecisionError, QuadratureError


def lgamma_stirling(z: complex) -> complex:
    """Independent complex log-Gamma: recurrence shift + Stirling series."""
    acc = 0j
    w = complex(z)
    while w.real < 14:
        acc -= cmath.log(w)
        w += 1
    B = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
    out = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2 * math.pi)
    for j, b in enumerate(B, start=1):
        out += b / ((2 * j) * (2 * j - 1) * w ** (2 * j - 1))
    return out + acc


def chi_oracle(s: complex) -> complex:
    return cmath.exp((0.5 - s) * math.log(math.pi)
                     + lgamma_stirling(s / 2) - lgamma_stirling((1 - s) / 2))


# ------------------------------------------------------------------ exp_sum

def test_exp_sum_zero_phase():
    rep = zs.exp_sum(10, 20, 0.0)
    assert rep.value == pytest.approx(10 + 0j)
    assert rep.modulus == pytest.approx(10.0, abs=1e-25)
    assert rep.rho is None and rep.refined_exp is None


def test_exp_sum_single_term():
    rep = zs.exp_sum(7, 8, 123.456)
    assert abs(rep.modulus - 1.0) < 1e-25


def test_exp_sum_precision_doubling():
    a = zs.exp_sum(10, 20, 100.0, precision_bits=128)
    b = zs.exp_sum(10, 20, 100.0, precision_bits=256)
    assert abs(a.value - b.value) < 1e-20


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 64), st.floats(0, 1e6))
def test_exp_sum_triangle_inequality(N, t):
    rep = zs.exp_sum(N, 2 * N, t)
    assert rep.modulus <= (rep.N_prime - rep.N) * (1 + 1e-12)


def test_exp_sum_preconditions():
    with pytest.raises(DomainError):
        zs.exp_sum(10, 21, 5.0)  # N' > 2N
    with pytest.raises(DomainError):
        zs.exp_sum(10, 10, 5.0)
    with pytest.raises(PrecisionError):
        zs.exp_sum(10, 20, 1e12, precision_bits=16)


def test_expsum_grid_properties():
    Ns = [2 ** j for j in range(8, 15)]
    reports = zs.expsum_bound_grid(Ns, [1e6, 1e8])
    # pairs with N > sqrt(t) are omitted
    assert all(r.N <= math.isqrt(int(r.t)) for r in reports)
    assert any(r.t == 1e6 for r in reports) and any(r.t == 1e8 for r in reports)
    ratios = [r.ratio_refined for r in reports]
    assert all(np.isfinite(v) and v > 0 for v in ratios)
    for r in reports:
        assert r.trivial == (r.rho < 3)
        # rho is recomputable from the stored fields
        assert r.rho == pytest.approx(math.log(r.t) / math.log(r.N), rel=1e-14)
        # refined beats the 49/80 exponent exactly above rho = 240/31
        if r.rho > float(Fraction(240, 31)):
            assert r.refined_exp > r.hb_exp
        elif r.rho < float(Fraction(240, 31)):
            assert r.refined_exp < r.hb_exp


# ------------------------------------------------------------------ zeta_em

def test_zeta_em_known_values():
    with mp.workdps(40):
        assert abs(zs.zeta_em(2.0, 0.0) - mp.pi ** 2 / 6) < mp.mpf("1e-6")
        assert abs(zs.zeta_em(0.0, 0.0) - (-mp.mpf(1) / 2)) < mp.mpf("1e-20")


def test_zeta_em_first_zero():
    # oracle: golden-section minimum of |zeta(1/2+it)| on [14, 14.3]
    from divisorlab.numerics import golden_max
    t_star, _ = golden_max(lambda t: -abs(zs.zeta_em(0.5, float(t), 96)),
                           14.0, 14.3, xtol=1e-8)
    assert abs(t_star - 14.134725) < 1e-5
    assert abs(zs.zeta_em(0.5, 14.134725)) < 1e-4


@pytest.mark.parametrize("sigma,t", [(0.3, 17.25), (0.5, 333.5), (1.2, 0.5),
                                     (2.7, 40.0), (0.75, 1000.0)])
def test_zeta_em_vs_library(sigma, t):
    got = zs.zeta_em(sigma, t, 128)
    with mp.workdps(60):
        ref = mp.zeta(mp.mpc(sigma, t))
        assert abs(got - ref) < mp.mpf(2) ** (-60)


def test_zeta_em_partial_sum_tail():
    # invariant: for sigma > 1, zeta minus the M-term partial sum is within
    # the integral tail M^{1-sigma}/(sigma-1)
    for sigma, t, M in ((1.5, 3.7, 50), (2.0, 11.0, 40), (2.5, 100.0, 30)):
        z = zs.zeta_em(sigma, t, 128)
        with mp.workdps(40):
            s = mp.mpc(sigma, t)
            part = mp.fsum(mp.exp(-s * mp.log(n)) for n in range(1, M + 1))
            assert abs(z - part) <= mp.mpf(M) ** (1 - sigma) / (sigma - 1)


def test_zeta_em_domain():
    with pytest.raises(DomainError):
        zs.zeta_em(1.0, 0.0)
    with pytest.raises(DomainError):
        zs.zeta_em(-0.5, 1.0)
    with pytest.raises(DomainError):
        zs.zeta_em(0.5, 2e6)


def test_laurent_series_matches_zeta_em():
    z = la.zeta_laurent(20, 256)
    got = z.evaluate(mp.mpf("1.1"), 256)
    ref = zs.zeta_em(1.1, 0.0, 128)
    with mp.workdps(50):
        assert abs(got - ref) < mp.mpf("1e-12")


def test_fast_grid_calibration():
    # fast float evaluator against the certified one
    for sigma, ts, tol in ((2.0, [1e4, 2.7e4, 4e4], 5e-4),
                           (0.75, [8e3, 1.6e4], 1e-5)):
        vals = zs._zeta_grid_float(sigma, np.array(ts))
        for t, v in zip(ts, vals):
            with mp.workdps(30):
                ref = complex(mp.zeta(mp.mpc(sigma, t)))
            assert abs(v - ref) < tol


# --------------------------------------------------------------- chi factor

def test_chi_at_half():
    v = zs.chi_factor(0.5, 0.0)
    assert abs(v - 1) < 1e-30


@pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
def test_chi_unit_modulus_on_critical_line(t):
    v = zs.chi_factor(0.5, t)
    assert abs(abs(v) - 1) < 1e-10


def test_chi_reflection_identity():
    s = 0.75 + 50j
    a = zs.chi_factor(0.75, 50.0)
    b = zs.chi_factor(0.25, -50.0)
    assert abs(a * b - 1) < 1e-10
    # independent Stirling oracle agrees with each factor
    assert abs(complex(a) - chi_oracle(s)) < 1e-8
    assert abs(complex(b) - chi_oracle(1 - s)) < 1e-8


def test_chi_poles_and_zeros():
    with pytest.raises(DomainError):
        zs.chi_factor(0.0, 0.0)
    with pytest.raises(DomainError):
        zs.chi_factor(-2.0, 0.0)
    assert zs.chi_factor(3.0, 0.0) == 0


# ---------------------------------------------------------------------- afe

def test_afe_residual_values():
    # frozen from the certified evaluator; the classical remainder scale is
    # (t/2pi)^{-sigma/2}, so these residuals are at their expected size
    r1 = zs.afe_residual(0.75, 1000.0)
    assert r1.L == 12
    assert abs(r1.residual - 0.060653) < 2e-3
    r2 = zs.afe_residual(0.5, 500.0)
    assert r2.L == 8
    assert abs(r2.residual - 0.251244) < 2e-3
    for r in (r1, r2):
        scale = (r.t / (2 * math.pi)) ** (-r.sigma / 2)
        assert r.residual < 1.5 * scale


def test_afe_full_length_mode():
    r = zs.afe_residual(0.75, 1000.0, length_mode="sqrt_t")
    assert r.L == 31 and np.isfinite(r.residual)
    assert r.length_mode == "sqrt_t"


def test_afe_chi_ratio():
    # on the critical line |chi(1-s)| = 1 and t^{sigma-1/2} = 1
    r = zs.afe_residual(0.5, 500.0)
    assert abs(r.chi_ratio - 1.0) < 1e-10
    # order-of-magnitude window at a nearby interior point
    r2 = zs.afe_residual(0.6, 500.0)
    assert 0.1 < r2.chi_ratio < 10.0


def test_afe_domain():
    with pytest.raises(DomainError):
        zs.afe_residual(0.75, 10.0)
    with pytest.raises(DomainError):
        zs.afe_residual(0.3, 500.0)


# ------------------------------------------------------------------ moments

def test_moment_parseval_limit():
    # oracle: (1/T) int |zeta(2+it)|^2 dt -> sum n^{-4} = zeta(4)
    est = zs.moment_integral(1, 2.0, 2000.0)
    with mp.workdps(30):
        z4 = float(mp.zeta(4))
    assert abs(est.normalized - z4) / z4 < 0.02
    assert abs(est.mu_slope) < 0.05


def test_moment_recording_run():
    # explicit panel count keeps the module test light; the panel-doubling
    # self-check still guards the quadrature
    est = zs.moment_integral(2, 0.75, 1024.0, panels=1024)
    assert est.integral > 0 and np.isfinite(est.mu_slope)
    assert est.normalized == pytest.approx(est.integral / est.T)


def test_moment_panels_override_and_domain():
    est = zs.moment_integral(1, 2.0, 500.0, panels=2000)
    assert est.integral > 0
    with pytest.raises(DomainError):
        zs.moment_integral(7, 2.0, 100.0)
    with pytest.raises(DomainError):
        zs.moment_integral(1, 2.0, 10 ** 6)
    # inside the T cap, but at sigma <= 1 the zeta cutoff t/4 makes the work
    # grow like T^2: refused before any quadrature runs
    with pytest.raises(DomainError, match=r"needs ~3\.1e\+10 .* cost cap is 2e\+10"):
        zs.moment_integral(1, 0.75, 8000.0)
    for panels in (0, -3):
        with pytest.raises(DomainError):
            zs.moment_integral(1, 2.0, 100.0, panels=panels)


def test_moment_panel_doubling_selfcheck_raises():
    # 16 panels on [1000, 2000] are far too coarse: doubling moves the
    # integral by ~0.2 relative, above the 1% threshold
    with pytest.raises(QuadratureError, match="panel doubling moved the integral"):
        zs.moment_integral(1, 0.75, 1000.0, panels=16)


@pytest.mark.parametrize("nodes_per_chunk, entries", [
    (zs._NODES_PER_CHUNK, zs._ENTRIES),
    (8 * 150, 4 * 64 * 8),  # several chunks, padded blocks and row batches
])
def test_panel_kernel_matches_direct_sum(monkeypatch, nodes_per_chunk, entries):
    # oracles: the unfactorised sum at every node, and the exact integral of
    # |S|^2 = sum_{m,n} w_m conj(w_n) (n/m)^{it}
    monkeypatch.setattr(zs, "_NODES_PER_CHUNK", nodes_per_chunk)
    monkeypatch.setattr(zs, "_ENTRIES", entries)
    rng = np.random.default_rng(20231)
    w = rng.normal(size=64) + 1j * rng.normal(size=64)
    logn = np.log(np.arange(1, 65))
    a, b = 123.456789, 234.567891
    seen = []

    def post(t, S):
        seen.append((t.copy(), S.copy()))
        return np.abs(S) ** 2

    value = zs._panel_quadrature(lambda ts: (w, logn, post), a, b, 200, 8, "test")
    assert sum(t.size for t, _ in seen) == 8 * (200 + 400)
    # rounding of the phases scales with t log N sum |w_n|
    for t, S in seen:
        direct = np.exp(-1j * np.outer(t.ravel(), logn)) @ w
        assert np.max(np.abs(S.ravel() - direct)) <= 1e-12 * np.sum(np.abs(w))
    dlog = logn[:, None] - logn[None, :]
    same = dlog == 0
    dlog[same] = 1.0
    arcs = np.where(same, b - a, (np.exp(-1j * b * dlog) - np.exp(-1j * a * dlog))
                    / (-1j * dlog))
    exact = float(np.sum(w[:, None] * np.conj(w)[None, :] * arcs).real)
    assert abs(value - exact) <= 1e-12 * exact


# ---------------------------------------------------------------------- mvt

def test_mvt_single_term_exact():
    rep = zs.mvt_check(1, 1000.0)
    assert rep.lhs == pytest.approx(1000.0)
    assert rep.ratio == pytest.approx(1000.0 / 1003.0)


def test_mvt_ones_budget():
    rep = zs.mvt_check(64, 2000.0, "ones")
    assert 0.5 < rep.ratio <= 1.1
    # rhs formula is literal: sum (T + 3n)
    assert rep.rhs == pytest.approx(sum(2000.0 + 3.0 * n for n in range(1, 65)))


def test_mvt_other_modes():
    dk = zs.mvt_check(32, 500.0, "dk")
    rnd = zs.mvt_check(32, 500.0, "random")
    blk = sv.dk_block(3, 1, 33).values.astype(float)
    assert dk.rhs == pytest.approx(float(np.sum(blk ** 2 * (500.0 + 3 * np.arange(1, 33)))))
    assert rnd.lhs > 0
    with pytest.raises(DomainError):
        zs.mvt_check(32, 500.0, "bogus")


# ----------------------------------------------------- ell-fold coefficients

def test_ell_fold_small_brute():
    # oracle: direct double loop for N=4, ell=2
    counts = zs.ell_fold_coefficients(4, 2)
    brute = {}
    for a in range(5, 9):
        for b in range(5, 9):
            brute[a * b] = brute.get(a * b, 0) + 1
    assert counts == brute


def test_ell_fold_bounds():
    # pointwise a_n <= d_3(n) over the full support, and support <= N^3
    N = 64
    counts = zs.ell_fold_coefficients(N, 3)
    assert len(counts) <= N ** 3
    lo, hi = N ** 3 + 1, (2 * N) ** 3
    blk = sv.dk_block(3, lo, hi + 1)
    for n, c in counts.items():
        assert lo <= n <= hi
        assert c <= int(blk.values[n - lo])
    for NN, ell in ((8, 2), (16, 3)):
        cc = zs.ell_fold_coefficients(NN, ell)
        assert len(cc) <= NN ** ell
