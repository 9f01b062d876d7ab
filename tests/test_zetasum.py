"""Tests for exponential sums, zeta evaluation, the chi factor, the AFE
residual, moment integrals and the mean-value check.

Independent oracles: mpmath's zeta, a test-local complex Stirling log-Gamma,
Parseval limits of Dirichlet series, exhaustive enumeration, and exact
rational crossover algebra.
"""

import cmath
import math
import random
import re
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    for t in (-5.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            zs.expsum_bound_grid([1], [t])
    # the term cap refuses before any mp work: one sum, and a table whose
    # sums each fit under the cap
    cap = zs.EXPSUM_TERMS_CAP
    with pytest.raises(DomainError, match="cost cap"):
        zs.exp_sum(cap + 1, 2 * cap + 2, 1e6)
    with pytest.raises(DomainError, match="cost cap"):
        zs.expsum_bound_grid([cap // 2, cap // 2 + 1], [1e12])


# the README grid, the seed-1 grid of perfbench's zeta-quadrature, and grids
# with a repeated N, a repeated t, N = 1, t = 0 and 1, and an N past sqrt(t)
# at one t but not at the other
@pytest.mark.parametrize("Ns, ts, bits", [
    ([256, 1024, 4096], [1e6, 1e8], 128),
    ([515, 2038], [10928993.832391936, 1044617867.2959428], 128),
    ([16, 1, 16, 200, 64], [1e4, 123456.5, 1e4], 192),
    ([1, 2, 3], [0.0, 1.0, 9.0, 16.0], 53),
])
def test_expsum_grid_equals_exp_sum_per_pair(Ns, ts, bits):
    # one _dirichlet_sum pass per t, at the wp of its largest N, returns the
    # reports of one exp_sum call per pair, to the last printed digit
    pairs = [(N, t) for t in ts for N in Ns if N <= math.isqrt(int(t))]
    grid = zs.expsum_bound_grid(Ns, ts, bits)
    assert repr(grid) == repr([zs.exp_sum(N, 2 * N, t, bits) for N, t in pairs])


@pytest.mark.parametrize("Ns, ts, bits, pair, error", [
    ([16, 0], [1e6], 128, (0, 1e6), DomainError),         # exp_sum's range check
    ([16, 32], [1e12], 16, (16, 1e12), PrecisionError),   # phase error before the floor
    ([16], [1e6], 52, (16, 1e6), DomainError),            # the precision floor
    ([16], [1e6], 0, (16, 1e6), DomainError),
])
def test_expsum_grid_refuses_as_exp_sum_does(Ns, ts, bits, pair, error):
    N, t = pair
    with pytest.raises(error) as one:
        zs.exp_sum(N, 2 * N, t, bits)
    with pytest.raises(error, match=f"^{re.escape(str(one.value))}$"):
        zs.expsum_bound_grid(Ns, ts, bits)


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


# ------------------------------------------------------------ n^{-s} kernel

def naive_dirichlet(s, lo, hi, bits):
    """The per-term sum the kernel replaced, one mp.exp per n."""
    with mp.workprec(bits):
        s = mp.mpc(s)
        return mp.fsum(mp.exp(-s * mp.log(n)) for n in range(lo + 1, hi + 1))


def kernel_bound(s, lo, hi, bits, value):
    """The error bound in the docstring of ``zs._dirichlet_sum``."""
    wp = bits + 2 * hi.bit_length() + 8
    spread = (hi - lo) * (abs(s) * math.log(hi) / 32 + 6 * math.log2(hi))
    return 2.0 ** -bits * abs(complex(value)) + spread * 2.0 ** -wp


PRIMES = [n for n in range(2, 400) if all(n % d for d in range(2, math.isqrt(n) + 1))]
RANGES = st.one_of(
    st.just((0, 1)), st.just((0, 2)),
    st.sampled_from(PRIMES).map(lambda p: (0, p)),
    st.integers(0, 10 ** 9).map(lambda lo: (lo, lo + 1)),
    st.integers(2, 200).flatmap(lambda N: st.tuples(st.just(N), st.integers(N + 1, 2 * N - 1))))


@settings(max_examples=60, deadline=None)
@given(RANGES, st.floats(0, 3), st.floats(-1e6, 1e6), st.sampled_from([53, 128, 192]))
def test_dirichlet_kernel_within_its_bound(lo_hi, sigma, t, bits):
    lo, hi = lo_hi
    s = complex(sigma, t)
    value, = zs._dirichlet_sum(s, [(lo, hi)], bits)
    exact = naive_dirichlet(s, lo, hi, 2 * bits)
    # the oracle's own error at 2 bits: one rounding of the sum, and each
    # term's phase error and rounding
    slack = 2.0 ** (-2 * bits) * (abs(complex(exact))
                                  + 8 * (hi - lo) * (abs(s) * math.log(hi) + 1))
    with mp.workprec(2 * bits):
        err = float(abs(value - exact))
    assert err <= kernel_bound(s, lo, hi, bits, value) + slack


# the expsum pairs of the golden corpus, at the CLI's default precision
@pytest.mark.parametrize("N, t", [(256, 1e6), (256, 1e8), (1024, 1e8), (4096, 1e8)])
def test_exp_sum_float_identical_to_the_naive_sum(N, t):
    rep = zs.exp_sum(N, 2 * N, t, 192)
    naive = naive_dirichlet(complex(0, t), N, 2 * N, 192)
    with mp.workprec(192):
        assert rep.value == complex(naive)
        assert rep.modulus == float(abs(naive))


def test_dirichlet_kernel_memory_per_entry():
    # hi // 2 kept entries of two 166-bit ints (48 B each, plus its 8 B list
    # slot) and 8 B of smallest prime factors: 120 B; 137 B measured
    hi, PEAK_BYTES_PER_ENTRY = 20000, 160
    tracemalloc.start()
    try:
        zs._dirichlet_sum(complex(0.5, 1000.0), [(0, hi)], 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (hi // 2) < PEAK_BYTES_PER_ENTRY


def test_dirichlet_kernel_memory_per_entry_of_a_shared_table():
    # one pass for three dyadic ranges keeps the entries of the largest only
    N, PEAK_BYTES_PER_ENTRY = 10000, 160
    tracemalloc.start()
    try:
        zs._dirichlet_sum(complex(0, 1e8), [(N // 4, N // 2), (N, 2 * N), (N // 2, N)], 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / N < PEAK_BYTES_PER_ENTRY


def test_dirichlet_kernel_ranges_share_one_pass():
    # overlapping, nested, repeated and disjoint ranges at one s, each
    # within its own bound, with the oracle's slack of the test above
    s, bits = complex(0.5, 1234.5), 128
    ranges = [(0, 40), (10, 20), (10, 20), (15, 60), (100, 130), (59, 61)]
    values = zs._dirichlet_sum(s, ranges, bits)
    for (lo, hi), value in zip(ranges, values):
        exact = naive_dirichlet(s, lo, hi, 2 * bits)
        slack = 2.0 ** (-2 * bits) * (abs(complex(exact))
                                      + 8 * (hi - lo) * (abs(s) * math.log(hi) + 1))
        with mp.workprec(2 * bits):
            err = float(abs(value - exact))
        assert err <= kernel_bound(s, lo, hi, bits, value) + slack


PRIMES_1E5 = [n for n, f in enumerate(zs._smallest_prime_factors(10 ** 5)) if n >= 2 and not f]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES_1E5), st.floats(0, 3), st.floats(-1e12, 1e12),
       st.sampled_from([53, 128, 192]))
@example(2, 0.0, 0.0, 53)
@example(99991, 1.0, 0.0, 128)
@example(3, 0.0, 1e12, 192)
def test_power_is_mp_exp_to_the_bit(p, sigma, t, bits):
    # at the kernel's working precision for a pass up to 2p
    prec = bits + 2 * (2 * p).bit_length() + 16
    with mp.workprec(prec):
        s = mp.mpc(sigma, t)
        want = mp.exp(-s * mp.log(p))
        assert zs._power((-s)._mpc_, p, prec) == want._mpc_


def test_short_sum_far_out_keeps_no_table():
    # fewer than hi / 8 terms: one mp.exp per term and no table of size hi
    tracemalloc.start()
    try:
        value, = zs._dirichlet_sum(complex(0, 1e6), [(10 ** 12, 10 ** 12 + 3)], 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    exact = naive_dirichlet(complex(0, 1e6), 10 ** 12, 10 ** 12 + 3, 256)
    assert abs(complex(value) - complex(exact)) < 1e-30


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


@pytest.mark.parametrize("bits", [128, 192])
def test_zeta_em_cutoff_is_a_fraction_of_t(bits):
    # the certified cutoff sits near |t|/4, not at the old 2|t|
    M, J = zs._em_cutoff(0.75, 1000.0, bits)
    assert M <= 500 and 8 <= J <= 64


def _em_cutoff_reference(sigma, t, precision_bits):
    """The cutoff rule of ``zs._em_cutoff`` evaluated wholly in mp, as it was
    before the float search: every J's Pochhammer product, Bernoulli ratio
    and M search at precision_bits + 32 bits."""
    M_cap = max(8 * math.ceil(abs(t)), 256)
    best = None
    with mp.workprec(precision_bits + 32):
        s = mp.mpc(sigma, t)
        tol = mp.mpf(2) ** -(precision_bits // 2)
        poch = mp.mpc(1)
        i = 0
        for J in range(8, 65, 4):
            while i < 2 * J + 1:
                poch *= s + i
                i += 1
            e = sigma + 2 * J + 1
            c = (abs(mp.bernoulli(2 * J + 2)) / mp.factorial(2 * J + 2)
                 * abs(poch) * abs(s + 2 * J + 1) / e)
            M = max(1, int((c / tol) ** (1 / mp.mpf(e))))
            while c * mp.mpf(M) ** -e >= tol:
                M += 1
            if M <= M_cap and (best is None or M + J < sum(best)):
                best = (M, J)
    if best is None:
        raise PrecisionError(
            f"tail bound 2^-{precision_bits // 2} needs a cutoff above "
            f"{M_cap} at s={sigma}+{t}j")
    return best


def _cutoff_or_message(fn, *args):
    try:
        return fn(*args)
    except PrecisionError as exc:
        return str(exc)


def test_em_cutoff_matches_the_mp_rule():
    # the float search picks the (M, J) of the all-mp rule, or refuses with
    # its message, on a seeded grid with both ends of sigma and t = 0
    rng = random.Random(46)
    cases = [(0.0, 0.0, 128), (3.0, 0.0, 53), (0.5, 14.134725, 128), (0.5, 1000.0, 2048)]
    for _ in range(150):
        sigma = rng.choice((0.0, 3.0, 0.5, rng.uniform(0, 3), rng.uniform(0, 3)))
        t = rng.choice((0.0, rng.uniform(-1e5, 1e5), rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 5)))
        cases.append((sigma, t, rng.choice((53, 64, 128, 192, 256, 512))))
    for case in cases:
        assert (_cutoff_or_message(zs._em_cutoff, *case)
                == _cutoff_or_message(_em_cutoff_reference, *case)), case


def _em_X(sigma, t, bits, J):
    """X = (c/tol)^{1/e} of ``zs._em_cutoff`` for one J, at 400 bits."""
    with mp.workprec(400):
        s, e = mp.mpc(sigma, t), sigma + 2 * J + 1
        c = (abs(mp.bernoulli(2 * J + 2)) / mp.factorial(2 * J + 2)
             * mp.fprod(abs(s + i) for i in range(2 * J + 2)) / e)
        return (c * mp.mpf(2) ** (bits // 2)) ** (1 / mp.mpf(e))


@pytest.mark.parametrize("sigma, t0, bits, J", [(0.5, 1000.0, 256, 64), (3.0, 40000.0, 53, 8)])
def test_em_cutoff_near_an_integer(monkeypatch, sigma, t0, bits, J):
    # X of the winning J grows with t: bisect t to where X crosses the next
    # integer m.  Within 1e-12 m of m, inside the float margin, the mp rule
    # decides that J alone; 1e-8 m above m, outside the margin but closer than
    # log zeta(2J + 2) / e (2.2e-7 at J = 8), the floats decide.  Both agree
    # with the all-mp rule.
    def t_where(target):
        lo, hi = t0, 1.01 * t0
        assert _em_X(sigma, lo, bits, J) < target < _em_X(sigma, hi, bits, J)
        while lo < math.nextafter(hi, 0) and abs(_em_X(sigma, lo, bits, J) - target) > 1e-13 * target:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _em_X(sigma, mid, bits, J) < target else (lo, mid)
        return lo

    m = math.floor(_em_X(sigma, t0, bits, J)) + 1
    bernoulli = mp.bernoulli
    for t, mp_calls in ((t_where(m), [2 * J + 2]), (t_where(m * (1 + 1e-8)), [])):
        calls = []
        monkeypatch.setattr(mp, "bernoulli", lambda n: calls.append(n) or bernoulli(n))
        got = zs._em_cutoff(sigma, t, bits)
        monkeypatch.undo()
        assert calls == mp_calls, t
        assert got == _em_cutoff_reference(sigma, t, bits) == (got[0], J), t


@pytest.mark.parametrize("bits", [64, 128, 192, 256])
def test_zeta_em_within_its_certified_tolerance(bits):
    # oracle: mpmath's zeta at twice the precision; zeta_em promises 2^{-bits/2}
    for sigma in (0.0, 0.5, 1.0, 3.0):
        for t in (0.0, 14.134725, -40.0, 1000.0):
            if sigma == 1.0 and t == 0.0:
                continue
            got = zs.zeta_em(sigma, t, bits)
            with mp.workprec(2 * bits):
                ref = mp.zeta(mp.mpc(sigma, t))
                assert abs(got - ref) < mp.mpf(2) ** -(bits // 2), (sigma, t)


def test_zeta_em_precision_beyond_the_cutoff_cap():
    # 2^-1024 at t = 1000 needs a cutoff near 38000, above the cap of 8000
    with pytest.raises(PrecisionError):
        zs.zeta_em(0.5, 1000.0, 2048)


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
        zs.zeta_em(0.5, math.nan)
    with pytest.raises(DomainError):
        zs.zeta_em(0.5, 2e6)


def test_laurent_series_matches_zeta_em():
    z = la.zeta_laurent(20, 256)
    got = z.evaluate(mp.mpf("1.1"))
    ref = zs.zeta_em(1.1, 0.0, 128)
    with mp.workdps(50):
        assert abs(got - ref) < mp.mpf("1e-12")


def test_fast_grid_calibration():
    # the float series the panel kernel sums, summed directly, against mpmath
    for sigma, ts, tol in ((2.0, [1e4, 2.7e4, 4e4], 5e-4),
                           (0.75, [8e3, 1.6e4], 1e-5)):
        ts = np.array(ts)
        w, logn, add_tail = zs._zeta_series(sigma, ts)
        vals = add_tail(ts, np.exp(-1j * np.outer(ts, logn)) @ w)
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
    with pytest.raises(DomainError):
        zs.afe_residual(0.75, math.nan)


@pytest.mark.parametrize("fn, args, name", [
    *[(zs.chi_factor, (v, 0), "sigma") for v in (math.nan, math.inf, -math.inf)],
    *[(zs.chi_factor, (0.5, v), "t") for v in (math.nan, math.inf, -math.inf)],
    (zs.afe_residual, (0.75, math.inf), "t"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_finite_argument_raises_domain_error(fn, args, name):
    # unguarded, int(sigma) raises ValueError or OverflowError, an infinite t
    # reaches int(sqrt(t)), and a non-finite t at a finite sigma gives chi = nan
    with pytest.raises(DomainError, match=f"^{name} must"):
        fn(*args)


@pytest.mark.parametrize("fn, args, name, bad", [
    (zs.exp_sum, (1.5, 3, 10.0), "N", 1.5),
    (zs.exp_sum, (2, 3.5, 10.0), "N_prime", 3.5),
    (zs.mvt_check, (10.5, 100.0), "N", 10.5),
    (zs.ell_fold_coefficients, (10.5, 2), "N", 10.5),
    (zs.ell_fold_coefficients, (10, 2.5), "ell", 2.5),
    (zs.expsum_bound_grid, ([math.nan], [1e6]), "N", math.nan),
    (zs.expsum_bound_grid, ([2.5], [1e6]), "N", 2.5),
    (zs.exp_sum, (10, 20, 100.0, 100.5), "precision_bits", 100.5),
    (zs.zeta_em, (0.5, 10.0, 2.5), "precision_bits", 2.5),
    (zs.chi_factor, (0.75, 100.0, 100.5), "precision_bits", 100.5),
    (zs.afe_residual, (0.75, 100.0, 100.5), "precision_bits", 100.5),
    (zs.mvt_check, (16, 100.0, "random", 3, 1.5), "seed", 1.5),
    (zs.moment_integral, (1.5, 2.0, 50.0), "k", 1.5),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_integral_argument_raises_domain_error(fn, args, name, bad):
    # unguarded, each raised TypeError or AttributeError in range(), np.ones,
    # int.bit_length or numpy's default_rng, a NaN N paired with no t, so the
    # grid returned [], and a fractional precision was used as given
    with pytest.raises(DomainError, match=f"^{name} must be integral, got {bad}$"):
        fn(*args)


@pytest.mark.parametrize("fn, args, name, bad", [
    (zs.exp_sum, (10, 20, 100.0, 0), "precision_bits", 0),
    (zs.zeta_em, (0.5, 10.0, -1), "precision_bits", -1),
    (zs.chi_factor, (0.75, 100.0, -5), "precision_bits", -5),
    (zs.afe_residual, (0.75, 100.0, 0), "precision_bits", 0),
    (zs.afe_residual, (0.75, 100.0, -2), "precision_bits", -2),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_positive_precision_raises_domain_error(fn, args, name, bad):
    # unguarded, chi_factor at -5 bits worked at 11 bits and returned a value
    with pytest.raises(DomainError, match=f"^{name} must be positive, got {bad}$"):
        fn(*args)


@pytest.mark.parametrize("fn, args", [
    (zs.exp_sum, (10, 20, 100.0, 52)),
    (zs.exp_sum, (10, 20, 0.0, 16)),
    (zs.zeta_em, (0.5, 10.0, 52)),
    (zs.chi_factor, (0.75, 100.0, 16)),
    (zs.chi_factor, (3.0, 0.0, 1)),
    (zs.afe_residual, (0.75, 100.0, 2)),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_precision_below_float64_raises_domain_error(fn, args):
    # unguarded, afe_residual(0.75, 100.0, 2) returned a residual of 1.0
    with pytest.raises(DomainError, match=r"^precision_bits must be >= 53 \(float64 "
                                          rf"results\), got {args[-1]}$"):
        fn(*args)
    fn(*args[:-1], 53)


def test_negative_seed_raises_domain_error():
    # unguarded, numpy's default_rng raised a ValueError of its own
    with pytest.raises(DomainError, match="^seed must be non-negative, got -1$"):
        zs.mvt_check(16, 100.0, "random", seed=-1)


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
    # the range checks come before the integral check of k
    with pytest.raises(DomainError, match=r"^sigma must lie in \[1/2, 3\], got 0\.2$"):
        zs.moment_integral(1.5, 0.2, 100.0)
    for panels in (0, -3):
        with pytest.raises(DomainError):
            zs.moment_integral(1, 2.0, 100.0, panels=panels)
    for panels in (math.nan, 8.5):  # NaN passes the < 1 test
        with pytest.raises(DomainError, match=f"^panels must be integral, got {panels}$"):
            zs.moment_integral(1, 2.0, 10.0, panels)


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
