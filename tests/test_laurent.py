"""Tests for series arithmetic, Stieltjes constants and main-term residues.

Independent oracles: mpmath's own stieltjes/zeta implementations, exact
Fraction algebra, and the contour quadrature (which is itself the
independent route the main-term pipeline is checked against).
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import bernfrac, mpf_log

from divisorlab import laurent as la
from divisorlab.errors import DomainError, InsufficientOrderError, QuadratureError

BITS = 256


# ------------------------------------------------------------- stieltjes

def test_gamma0_euler_mascheroni():
    v = la.stieltjes(0, 128)
    with mp.workdps(45):
        assert abs(v - mp.euler) < mp.mpf("1e-20")


@pytest.mark.parametrize("n", range(0, 12))
def test_stieltjes_vs_library_oracle(n):
    # oracle: mpmath's independent stieltjes implementation; the documented
    # error is below 2^{-bits+8}
    for bits in (128, 256):
        la._stieltjes.cache_clear()
        v = la.stieltjes(n, bits)
        with mp.workprec(bits + 48):
            ref = mp.stieltjes(n)
            assert abs(v - ref) <= mp.mpf(2) ** (8 - bits)


def _deriv_poly_reference(n, m):
    """p_m of d^m/dx^m [(log x)^n / x] = p_m(log x) / x^{m+1}, rebuilt from p_0."""
    p = [0] * n + [1]
    for j in range(m):
        dp = [(i + 1) * c for i, c in enumerate(p[1:])] + [0]
        p = [a - (j + 1) * b for a, b in zip(dp, p)]
    return p


def test_deriv_polys_sequence():
    from itertools import islice
    for n in (0, 3, 11):
        seq = list(islice(la._deriv_polys(n), 40))
        assert seq == [_deriv_poly_reference(n, m) for m in range(40)]
    # numerical derivative oracle at x = 3 for p_3 with n = 2
    p3 = _deriv_poly_reference(2, 3)
    with mp.workdps(40):
        x = mp.mpf(3)
        got = sum(c * mp.log(x) ** i for i, c in enumerate(p3)) / x ** 4
        ref = mp.diff(lambda y: mp.log(y) ** 2 / y, x, 3)
        assert abs(got - ref) < mp.mpf("1e-30")


def _em_tail_bound(p2J, J, M):
    """The tail bound of ``la._em_tail_log2`` in mpf, at the caller's
    precision: 4/(2 pi)^{2J} M^{-2J} sum_i |c_i| T_i, T_i = ((log M)^i + i
    T_{i-1}) / (2J), c_i the coefficients of p_{2J}."""
    s, lm = 2 * J, mp.log(M)
    integral, tail, lpow = mp.mpf(0), mp.mpf(0), mp.mpf(1)
    for i, c in enumerate(p2J):
        tail = (lpow + i * tail) / s
        lpow *= lm
        if c:
            integral += abs(c) * tail
    return 4 / (2 * mp.pi) ** (2 * J) * mp.mpf(M) ** (-s) * integral


@pytest.mark.parametrize("n,bits", [(0, 128), (5, 352), (11, 352), (20, 512), (40, 256)])
def test_pick_em_parameters_smallest_cutoff(n, bits):
    # brute force over the whole grid with the mpf bound: the pick is the
    # smallest M >= 2n for which any J meets the tail bound, with the
    # smallest such J
    target = -(bits + 4)
    feasible = []
    with mp.workdps(40):
        for M in la.EM_M_GRID:
            if M < 2 * n:
                continue
            for J in la.EM_J_GRID:
                bound = _em_tail_bound(_deriv_poly_reference(n, 2 * J), J, M)
                if bound > 0 and mp.log(bound, 2) < target - 1:
                    feasible.append((M, J))
    M, J = min(feasible)
    assert la._pick_em_parameters(n, target)[:2] == (J, M)


def test_em_tail_log2_agrees_with_the_mpf_bound():
    # the float search picks what the 40-digit bound picks at every integer
    # target when, at each grid point, the two log2 agree far closer than the
    # 40-digit value comes to an integer
    from itertools import islice
    for n in (*range(13), 20, 31, 40, 64):
        polys = list(islice(la._deriv_polys(n), 2 * max(la.EM_J_GRID) + 1))
        for M in la.EM_M_GRID:
            if M < 2 * n:
                continue
            for J in la.EM_J_GRID:
                with mp.workdps(40):
                    ref = mp.log(_em_tail_bound(polys[2 * J], J, M), 2)
                    got = la._em_tail_log2(polys[2 * J], J, M)
                    assert abs(got - ref) < 1e-9, (n, M, J)
                    assert abs(ref - mp.nint(ref)) > 1e-6, (n, M, J)


def test_pick_em_parameters_small_cutoff_at_352_bits():
    # the main terms ask for gamma_n, n <= 11, at 352 bits: a few hundred
    # logarithms, not the 8192-16384 of a J-first search
    for n in range(12):
        J, M, _ = la._pick_em_parameters(n, -(352 + 4))
        assert M <= 128


def test_gamma1_reference():
    v = la.stieltjes(1, 128)
    with mp.workdps(30):
        assert abs(v - mp.mpf("-0.0728158454836767248605863758749")) < mp.mpf("1e-25")


def test_stieltjes_precision_doubling():
    for n in (0, 3, 7):
        a = la.stieltjes(n, 128)
        b = la.stieltjes(n, 256)
        with mp.workdps(90):
            assert abs(a - b) < mp.mpf(2) ** (-120)


def _clear_stieltjes_memos():
    la._stieltjes.cache_clear()
    la._log_table.cache_clear()


def test_stieltjes_depends_only_on_its_arguments():
    # the memos answer (n, bits) from (n, bits) alone: gamma_1 at 64 bits
    # has the same bits fresh and after a 256-bit gamma_1, and after gamma_3
    # at 64 bits, whose log table it shares
    for before in ((1, 256), (3, 64)):
        _clear_stieltjes_memos()
        fresh = la.stieltjes(1, 64)
        _clear_stieltjes_memos()
        la.stieltjes(*before)
        with mp.workprec(4096):
            assert repr(la.stieltjes(1, 64)) == repr(fresh), before


@pytest.mark.parametrize("n,bits", [(0, 256), (2, 149), (5, 512)])
def test_stieltjes_does_not_depend_on_a_main_terms_history(n, bits):
    # zeta_laurent(12, bits - 32) asks for gamma_0 .. gamma_11 at these bits;
    # each gamma_n has its own (J, M), so its bits are those of a fresh call
    _clear_stieltjes_memos()
    fresh = la.stieltjes(n, bits)
    _clear_stieltjes_memos()
    la.zeta_laurent(12, bits - 32)
    with mp.workprec(4096):
        assert repr(la.stieltjes(n, bits)) == repr(fresh)


def test_stieltjes_share_one_log_table(monkeypatch):
    # gamma_0 .. gamma_10 at 352 bits (the main terms at 256 bits) all take
    # M = 64 and a wp below 448: one table of log 2 .. log 64
    calls = []

    def counting_log(*args):
        calls.append(args)
        return mpf_log(*args)

    monkeypatch.setattr(la, "mpf_log", counting_log)
    _clear_stieltjes_memos()
    for n in range(11):
        la.stieltjes(n, 352)
    _clear_stieltjes_memos()
    assert len(calls) <= 63


def _stieltjes_log_per_n_reference(n, bits):
    """gamma_n by the fixed-point kernel as it was before the shared log
    table: each log k from ``mpf_log`` at this n's wp + 8 bits, floored to wp."""
    J, M, polys = la._pick_em_parameters(n, -(bits + 4))
    wp = bits + int((n + 1) * max(math.log2(math.log(M)), 1.0)) + 64
    one = 1 << wp

    def log_fixed(k):
        return la.to_fixed(mpf_log(la.from_int(k), wp + 8, la.round_nearest), wp)

    total = one if n == 0 else 0
    for k in range(2, M + 1):
        lk, p = log_fixed(k), one
        for _ in range(n):
            p = p * lk >> wp
        total += p // k
    lm, lpow = log_fixed(M), [one]
    for _ in range(n + 1):
        lpow.append(lpow[-1] * lm >> wp)
    total -= lpow[n + 1] // (n + 1)
    total -= lpow[n] // (2 * M)
    for j, p in enumerate(polys[1:2 * J:2], 1):
        num, den = la._bernoulli_ratios(J)[j - 1]
        total -= num * sum(c * lp for c, lp in zip(p, lpow) if c) // (den * M ** (2 * j))
    return mp.make_mpf(la.from_man_exp(total, -wp, bits + 16, la.round_nearest))


@pytest.mark.parametrize("bits", [53, 64, 149, 192, 256, 352, 512])
def test_stieltjes_shared_log_table_keeps_the_bits(bits):
    # the table's logs, rounded at W + 8 bits and shifted, return the bits of
    # logs rounded at each n's own wp + 8 bits
    _clear_stieltjes_memos()
    with mp.workprec(4096):
        for n in range(13):
            assert repr(la.stieltjes(n, bits)) == repr(_stieltjes_log_per_n_reference(n, bits)), n


def test_stieltjes_domain():
    with pytest.raises(DomainError):
        la.stieltjes(-1, 128)
    with pytest.raises(DomainError):
        la.stieltjes(65, 128)
    with pytest.raises(DomainError):
        la.stieltjes(0, 10 ** 6)


def _stieltjes_mpf_reference(n, bits):
    """gamma_n by the mpf-object Euler-Maclaurin loop that the fixed-point
    kernel replaced: the same (J, M), guard and final rounding, with every
    operation rounded at the working precision."""
    J, M, polys = la._pick_em_parameters(n, -(bits + 4))
    guard = int((n + 1) * max(math.log2(math.log(M)), 1.0)) + 64
    with mp.workprec(bits + guard):
        lm = mp.log(M)
        total = sum((mp.log(k) ** n / k for k in range(1, M + 1)), mp.mpf(0))
        total -= lm ** (n + 1) / (n + 1)
        total -= lm ** n / (2 * M)
        lpow = [lm ** i for i in range(n + 1)]
        for j, p in enumerate(polys[1:2 * J:2], 1):
            deriv = sum((c * lp for c, lp in zip(p, lpow) if c), mp.mpf(0))
            deriv /= mp.mpf(M) ** (2 * j)
            total -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * deriv
    with mp.workprec(bits + 16):
        return +total


@pytest.mark.parametrize("bits, ns", [
    *((bits, (*range(13), 20, 40, 64)) for bits in (53, 128, 192, 288, 352, 512)),
    (1024, (64,)), (2048, (2,)),
])
def test_stieltjes_kernel_matches_the_mpf_formula(bits, ns):
    # the fixed-point floors stay far below the final rounding, so the kernel
    # returns the bits of the mpf loop
    with mp.workprec(4096):  # an mpf's repr shows the context's digits
        for n in ns:
            assert repr(la.stieltjes(n, bits)) == repr(_stieltjes_mpf_reference(n, bits)), n


def test_bernoulli_ratios_from_tangent_numbers():
    # every 2j the J grid reaches: J <= 256
    ratios = la._bernoulli_ratios(max(la.EM_J_GRID))
    assert len(ratios) == 256
    for j, (num, den) in enumerate(ratios, 1):
        assert Fraction(num, den) == Fraction(*bernfrac(2 * j)) / math.factorial(2 * j), j
        assert math.gcd(num, den) == 1 and den > 0
    assert la._bernoulli_ratios(8) == ratios[:8]


# gamma_0 .. gamma_10 as (signed mantissa, exponent), computed one constant at
# a time by commit 8b1ac55; 288 bits serve the main terms at the CLI's default
# 192 bits, and 352 bits those of main_term_poly(k, 256)
GAMMA_PINS = {
    288: [
        (0x49e233f1bed863d268df1fc080a965ab50e7661d7b2e600c8601ef9a384d7fdec725acfd01d5, -303),
        (-0x12a40f2afba4a1cb6746b42301f95eed259498de8b37c5b3a80a1b74cc1a5ed53e5e3504365d, -304),
        (-0x9ec4543ffbe22c6da87d05e086d509939a7df49e9371c541939d39ce443e86d252fde69e2cbb, -310),
        (0x86999faaa66d8dc025fb45527af3ac23f745e068174d033cecc5f0ba565dd0dc8a3e6dd0c437, -312),
        (0x26194f18774427597b8456a365a44d96f16e31aeb70736471ffb3a5204eb4acce75da85c3435, -310),
        (0x67fb87b36da692e4bc044fadd767170c9a3ce2ef83af34a35b3c3b8fbec7aaf659d057c193dd, -313),
        (-0x3e978a1ea0bc6ddaa594feb5c4688a28cf8a1a678834d4521461b68be8eed04551aa55d9365d, -314),
        (-0x8a39cdc8bd68d14a047840c338214a33c9135a80d4e4e875b77d20795b1d8d033fe8af86ba53, -314),
        (-0x5c4e9927abf45b1c8702537e3f3763502727ed14a469605ec9d6356b3f84cf973ec09ca657ad, -314),
        (-0x12086373426594c18321ae8df8a5a42d6cad8917ff885d57e4664d4b43294099c6da7310a2d, -311),
        (0xd74e9b98e76634414bd845146df3293beb1af644199e74958344cf825ff1d28e2ca4b13044b1, -316),
    ],
    352: [
        (0x93c467e37db0c7a4d1be3f810152cb56a1cecc3af65cc0190c03df34709affbd8e4b59fa03a9f0eed0649ccb621, -364),
        (-0x12a40f2afba4a1cb6746b42301f95eed259498de8b37c5b3a80a1b74cc1a5ed53e5e3504365cf7f74f4a16e6c4cf, -368),
        (-0x9ec4543ffbe22c6da87d05e086d509939a7df49e9371c541939d39ce443e86d252fde69e2cbb4a670068fb1e1c65, -374),
        (0x86999faaa66d8dc025fb45527af3ac23f745e068174d033cecc5f0ba565dd0dc8a3e6dd0c4376176e6bf5dc2bdad, -376),
        (0x98653c61dd109d65ee115a8d9691365bc5b8c6badc1cd91c7fece94813ad2b339d76a170d0d3a63c676d50ce0e9, -372),
        (0xcff70f66db4d25c978089f5baece2e193479c5df075e6946b678771f7d8f55ecb3a0af8327ba33fe7621473d8ecf, -378),
        (-0x7d2f143d4178dbb54b29fd6b88d114519f1434cf1069a8a428c36d17d1dda08aa354abb26cb9e5f08dc0a7d4ae01, -379),
        (-0x8a39cdc8bd68d14a047840c338214a33c9135a80d4e4e875b77d20795b1d8d033fe8af86ba531fbc21355662514b, -378),
        (-0xb89d324f57e8b6390e04a6fc7e6ec6a04e4fda2948d2c0bd93ac6ad67f099f2e7d81394caf5a25791104d8cfa54f, -379),
        (-0x90431b9a132ca60c190d746fc52d216b656c48bffc42eabf23326a5a194a04ce36d39885167fd63a0aa53d9b6459, -382),
        (0x35d3a6e639d98d1052f611451b7cca4efac6bd9106679d2560d133e097fc74a38b292c4c112c53a0002b87276bc5, -378),
    ],
}


@pytest.mark.parametrize("bits", sorted(GAMMA_PINS))
def test_stieltjes_bits_pinned(bits):
    def man_exp(v):
        return int(mp.sign(v)) * v.man, v.exp
    pins = GAMMA_PINS[bits]
    # the constants a main term's series computes, and each constant on its own
    la._stieltjes.cache_clear()
    la.zeta_laurent(11, bits - 32)
    assert [man_exp(la.stieltjes(n, bits)) for n in range(11)] == pins
    for n in range(11):
        la._stieltjes.cache_clear()
        assert man_exp(la.stieltjes(n, bits)) == pins[n]


# -------------------------------------------------------- laurent algebra

def test_zeta_laurent_structure():
    z = la.zeta_laurent(8, 128)
    assert z.lowest_power == -1 and z.order == 7
    assert z[-1] == 1
    with mp.workdps(45):
        assert abs(z[0] - la.stieltjes(0, 160)) < mp.mpf(2) ** (-120)
        # coefficient of (s-1)^1 is -gamma_1
        assert abs(z[1] + la.stieltjes(1, 160)) < mp.mpf(2) ** (-120)


def test_zeta_laurent_evaluates_to_zeta():
    z = la.zeta_laurent(20, 256)
    with mp.workdps(60):
        got = z.evaluate(mp.mpf("1.1"))
        ref = mp.zeta(mp.mpf("1.1"))
        assert abs(got - ref) < mp.mpf("1e-12")


def test_series_pow_identity_and_monomial():
    z = la.zeta_laurent(5, 128)
    same = la.series_pow(z, 1)
    assert same.coeffs == z.coeffs and same.lowest_power == -1
    pole = la.LaurentData(-1, (Fraction(1), Fraction(0), Fraction(0)), 1, 0)
    p4 = la.series_pow(pole, 4)
    assert p4.lowest_power == -4
    assert p4[-4] == 1


def test_zeta_squared_residue_coefficient():
    # symbolic oracle at 2 terms: (1/(s-1) + g0 + ...)^2 has 2*g0 at (s-1)^{-1}
    z = la.zeta_laurent(2, 160)
    z2 = la.series_pow(z, 2)
    with mp.workdps(50):
        assert abs(z2[-1] - 2 * la.stieltjes(0, 192)) < mp.mpf(2) ** (-140)
        assert z2[-2] == 1


def test_mul_insufficient_order():
    a = la.LaurentData(-3, (mp.mpf(1),), -3, 64)
    b = la.LaurentData(0, (mp.mpf(1), mp.mpf(2)), 1, 64)
    with pytest.raises(InsufficientOrderError):
        _ = a[-1]
    c = a * b  # order = min(-3+0, 1-3) = -3; single coefficient retained
    assert c.lowest_power == -3 and c.order == -3


def test_mul_associativity_on_truncations():
    # invariant: (a*b)*c == a*(b*c) to working precision for random series
    import random
    rng = random.Random(7)
    with mp.workprec(128):
        def rand_series(lowest, n):
            return la.LaurentData(
                lowest, tuple(mp.mpf(rng.uniform(-2, 2)) for _ in range(n)),
                lowest + n - 1, 128)
        for _ in range(20):
            a = rand_series(rng.randint(-2, 1), rng.randint(2, 6))
            b = rand_series(rng.randint(-2, 1), rng.randint(2, 6))
            c = rand_series(rng.randint(-2, 1), rng.randint(2, 6))
            left = (a * b) * c
            right = a * (b * c)
            assert left.lowest_power == right.lowest_power
            assert left.order == right.order
            for x, y in zip(left.coeffs, right.coeffs):
                assert abs(x - y) <= mp.mpf(2) ** (-100) * (1 + abs(x))


def test_mul_distributes_over_pole_split():
    # (pole + tail) * b == pole*b + tail*b on the common retained range
    z = la.zeta_laurent(6, 128)
    pole = la.LaurentData(-1, (mp.mpf(1),) + (mp.mpf(0),) * 6, 5, 128)
    tail = la.LaurentData(-1, (mp.mpf(0),) + z.coeffs[1:], 5, 128)
    b = la.zeta_laurent(6, 128)
    whole = z * b
    split_a = pole * b
    split_b = tail * b
    for p in range(whole.lowest_power, whole.order + 1):
        with mp.workdps(45):
            assert abs(whole[p] - (split_a[p] + split_b[p])) < mp.mpf(2) ** (-100)


# ------------------------------------------------------ main-term residue

def test_main_term_poly_k1():
    p = la.main_term_poly(1, 128)
    assert len(p.coeffs) == 1 and p.coeffs[0] == 1
    assert p.leading_exact == Fraction(1)


def test_main_term_poly_k2_classical():
    p = la.main_term_poly(2, BITS)
    with mp.workdps(60):
        # P_1(t) = t + (2*gamma0 - 1)
        assert abs(p.coeffs[1] - 1) < mp.mpf(2) ** (-200)
        assert abs(p.coeffs[0] - (2 * mp.euler - 1)) < mp.mpf(2) ** (-200)
        assert abs(p.coeffs[0] - mp.mpf("0.1544313298")) < mp.mpf("1e-9")


def test_main_term_poly_k3_leading():
    p = la.main_term_poly(3, 128)
    with mp.workdps(45):
        assert abs(p.coeffs[2] - mp.mpf(1) / 2) < mp.mpf(2) ** (-100)
    assert p.leading_exact == Fraction(1, 2)


@pytest.mark.parametrize("k", [1, 2, 5, 12, 25, 40])
def test_leading_coefficient_exact(k):
    p = la.main_term_poly(k, 64)
    assert p.leading_exact == Fraction(1, math.factorial(k - 1))
    with mp.workdps(30):
        rel = abs(p.coeffs[-1] - mp.mpf(p.leading_exact.numerator)
                  / p.leading_exact.denominator) / float(p.leading_exact)
        assert rel < mp.mpf("1e-12")


def test_main_term_poly_is_built_once_per_arguments():
    assert la.main_term_poly(3, 192) is la.main_term_poly(3, 192)
    assert la.main_term_poly(3, 128) is not la.main_term_poly(3, 192)


def test_main_term_precision_doubling():
    a = la.main_term_poly(6, 128)
    b = la.main_term_poly(6, 256)
    with mp.workdps(90):
        for x, y in zip(a.coeffs, b.coeffs):
            assert abs(x - y) < mp.mpf(2) ** (-120) * (1 + abs(y))


def test_main_term_precision_range_names_the_callers_bits():
    # its Stieltjes constants carry 96 bits more, up to STIELTJES_MAX_BITS
    assert la.MAIN_TERM_MAX_BITS == la.STIELTJES_MAX_BITS - 96
    for bits in (0, la.MAIN_TERM_MAX_BITS + 1, 4050):
        with pytest.raises(DomainError, match=rf"\[1, {la.MAIN_TERM_MAX_BITS}\], got {bits}$"):
            la.main_term_poly(3, bits)


def test_zeta_laurent_precision_range_names_the_callers_bits():
    # it asks the Stieltjes build for 32 bits more
    top = la.STIELTJES_MAX_BITS - 32
    for bits in (0, top + 1, 4080):
        with pytest.raises(DomainError, match=rf"\[1, {top}\], got {bits}$"):
            la.zeta_laurent(5, bits)


def test_eval_main_term_values():
    p1 = la.main_term_poly(1, 128)
    assert abs(la.eval_main_term(p1, 10) - 10) < 1e-30
    p2 = la.main_term_poly(2, BITS)
    with mp.workdps(60):
        # oracle: 10*(ln 10 + 2*gamma0 - 1)
        ref10 = 10 * (mp.log(10) + 2 * mp.euler - 1)
        assert abs(la.eval_main_term(p2, 10) - ref10) < mp.mpf("1e-40")
        assert abs(la.eval_main_term(p2, 10) - mp.mpf("24.5701642")) < mp.mpf("1e-6")
        assert abs(la.eval_main_term(p2, 100) - mp.mpf("475.960152")) < mp.mpf("1e-5")
    with pytest.raises(DomainError):
        la.eval_main_term(p2, 0.5)


@pytest.mark.parametrize("x", [math.inf, mp.inf])
def test_non_finite_argument_raises_domain_error(x):
    # an infinite x passes the x > 1 test and, unguarded, gives mpf nan
    with pytest.raises(DomainError, match="^x must"):
        la.eval_main_term(la.main_term_poly(2, 64), x)


@pytest.mark.parametrize("fn, args, name, bad", [
    (la.main_term_poly, (2.5,), "k", 2.5),
    (la.stieltjes, (2.5,), "n", 2.5),
    (la.zeta_laurent, (2.5,), "terms", 2.5),
    (la.residue_contour_oracle, (2.5, 64, 100.0), "k", 2.5),
    (la.residue_contour_oracle, (2, 64.5, 100.0), "precision_bits", 64.5),
    (la.main_term_poly, (2, 2.5), "precision_bits", 2.5),
    (la.stieltjes, (1, 100.5), "precision_bits", 100.5),
    (la.zeta_laurent, (3, 100.5), "precision_bits", 100.5),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_integral_argument_raises_domain_error(fn, args, name, bad):
    # each passes its range check and, unguarded, raises a bare TypeError
    with pytest.raises(DomainError, match=f"^{name} must be integral, got {bad}$"):
        fn(*args)


# ---------------------------------------------------------- contour oracle

def test_contour_oracle_agreement():
    # k=2 at x=100 to 1e-20, plus k=1 identity and k=5 at 1e3 to 1e-15
    p2 = la.main_term_poly(2, BITS)
    with mp.workprec(BITS):
        direct = la.eval_main_term(p2, 100) / 100
    oracle = la.residue_contour_oracle(2, BITS, 100)
    with mp.workdps(90):
        assert abs(oracle - direct) < mp.mpf("1e-20")

    one = la.residue_contour_oracle(1, BITS, 50)
    with mp.workdps(90):
        assert abs(one - 1) < mp.mpf("1e-30")

    p5 = la.main_term_poly(5, BITS)
    with mp.workprec(BITS):
        direct5 = la.eval_main_term(p5, 1000) / 1000
    oracle5 = la.residue_contour_oracle(5, BITS, 1000)
    with mp.workdps(90):
        assert abs(oracle5 - direct5) < mp.mpf("1e-15")


def test_contour_oracle_half_circle(monkeypatch):
    # one sweep of 2N nodes, N the proven count, evaluates zeta at the N + 1
    # nodes of the upper half circle only, and the folded sum equals the
    # full-circle trapezoid on the module's circle at the sweep's precision
    k, bits, x = 3, 32, 100.0
    N = la._contour_nodes(bits + 32, x)
    calls = []
    zeta = mp.zeta

    def counted(s, *args, **kw):
        calls.append(s)
        return zeta(s, *args, **kw)

    la._contour_zetas.cache_clear()
    monkeypatch.setattr(mp, "zeta", counted)
    got = la.residue_contour_oracle(k, bits, x)
    assert len(calls) == N + 1
    monkeypatch.setattr(mp, "zeta", zeta)

    sp = bits + 32 + la.CONTOUR_SWEEP_BITS
    with mp.workprec(sp):
        logx = mp.log(mp.mpf(x))
        total = mp.mpc(0)
        for j in range(2 * N):
            s = 1 + la.CONTOUR_RADIUS * mp.expjpi(mp.mpf(2 * j) / (2 * N))
            total += mp.zeta(s) ** k * mp.exp(s * logx) / s * (s - 1)
        full = mp.re(total / (2 * N)) / x
        assert abs(got - full) <= mp.mpf(2) ** (8 - sp) * (1 + abs(full))


def _reference_trapezoid(k, bits, x, nodes, part=mp.re):
    """The oracle's folded trapezoid sum over its cached sweep, with the
    integrand formed in mpc at twice the working precision from the same
    nodes and the same floored zeta values; ``part=abs`` gives the mean of
    |t_j| instead of Re t_j.  Each node must lie within the documented
    2.5 2^-sp of its place on the module's circle."""
    prec = bits + 32
    sp = prec + la.CONTOUR_SWEEP_BITS
    wp = sp + la.CONTOUR_GUARD_BITS
    with mp.workprec(2 * prec):
        L = mp.log(x)
        total = mp.mpf(0)
        for j, (a, b, zr, zi, _, _) in enumerate(la._contour_zetas(2 * nodes, prec)):
            s1 = mp.mpc(mp.mpf(a), mp.mpf(b))  # s - 1
            place = la.CONTOUR_RADIUS * mp.expjpi(mp.mpf(j) / nodes)
            assert abs(s1 - place) <= 2.5 * mp.mpf(2) ** -sp
            z = mp.mpc(mp.mpf((zr, -wp)), mp.mpf((zi, -wp)))
            t = part(z ** k * mp.exp(L * s1) * s1 / (1 + s1))
            total += t if j in (0, nodes) else 2 * t
        return total / (2 * nodes)


# every k and every x_probe at both precisions, each at its proven count:
# 66, 68, 70 and 83 nodes at 32 bits, 102, 88, 86 and 83 at 64 bits, so both
# precisions hold an odd count, whose coarse half of the fold has no node at
# s = 3/4
CONTOUR_REFERENCE_CASES = (
    [(32, k, x) for k, x in ((1, 1.0001), (2, 100.0), (7, 1e4), (12, 1e16))]
    + [(64, k, x) for k, x in ((1, 1e16), (2, 1e4), (7, 100.0), (12, 1.0001))])


@pytest.mark.parametrize("bits,k,x", CONTOUR_REFERENCE_CASES)
def test_contour_oracle_integrand_bound(bits, k, x):
    # the documented bound of the int integrand: |oracle - F| <= 2^-sp |F|
    # + (9 + L/300) 6^k x^{1/4} 2^-wp <= 2^-sp (|F| + x^{1/4})
    prec = bits + 32
    sp = prec + la.CONTOUR_SWEEP_BITS
    got = la.residue_contour_oracle(k, bits, x)
    ref = _reference_trapezoid(k, bits, x, la._contour_nodes(prec, x))
    with mp.workprec(2 * prec):
        bound = (abs(ref) * mp.mpf(2) ** -sp + (9 + math.log(x) / 300) * 6 ** k
                 * mp.root(x, 4) * mp.mpf(2) ** -(sp + la.CONTOUR_GUARD_BITS))
        assert abs(got - ref) <= bound
        assert bound <= (abs(ref) + mp.root(x, 4)) * mp.mpf(2) ** -sp


def test_contour_oracle_large_x():
    # at 1e30 and 1e60 the oracle still meets the series (to about 1e-22 and
    # 1e-17); at 1e100 it answers within its documented bound (about 1e-9,
    # not asserted here); at 1e150 x^{1/4} ~ 2^125 swamps the 76-bit sweep's
    # roundings at any node count, and node doubling must say so rather than
    # return a value
    poly = la.main_term_poly(12, 64)
    for x in (1e30, 1e60):
        with mp.workprec(96):
            direct = la.eval_main_term(poly, x) / mp.mpf(x)
        got = la.residue_contour_oracle(12, 32, x)
        with mp.workprec(96):
            assert abs(got - direct) <= abs(direct) * mp.mpf(2) ** -32
    with pytest.raises(QuadratureError, match="node doubling moved the residue by"):
        la.residue_contour_oracle(12, 32, 1e150)


@pytest.mark.parametrize("prec,x", [(64, 1.0001), (64, 1e4), (96, 1e16), (320, 100.0)])
def test_contour_nodes_is_the_least_qualifying_count(prec, x):
    # the docstring's inequality over its rho grid: the returned n meets it at
    # some rho, and n - 1 at none
    r0 = la.CONTOUR_RADIUS

    def qualifies(n):
        return any(n * math.log2(r / r0)
                   >= prec + 2 + 12 * math.log2((1 + r) / r + (1 + r) / (1 - r))
                   + (r - r0) * math.log2(x) + math.log2(r / (1 - r))
                   for r in (r0 + j * (1 - r0) / 64 for j in range(1, 64)))

    n = la._contour_nodes(prec, x)
    assert qualifies(n) and not qualifies(n - 1)


def test_contour_oracle_shares_one_sweep_across_k():
    # the node count depends on (prec, x) alone, so every k at one (bits, x)
    # reads one cached sweep rather than sweeping again per k
    la._contour_zetas.cache_clear()
    for k in range(1, 13):
        la.residue_contour_oracle(k, 32, 1234.5)
    la._contour_zetas(2 * la._contour_nodes(64, 1234.5), 64)
    info = la._contour_zetas.cache_info()
    assert (info.misses, info.hits) == (1, 12)


@pytest.mark.parametrize("bits,x", [(32, 1.0001), (32, 1234.5), (64, 1e16)])
@pytest.mark.parametrize("k", [2, 12])
def test_contour_oracle_total_bound(k, bits, x):
    # the docstring's total, |oracle - P_{k-1}(log x)| <= 2^-prec x^{1/4} +
    # 2^-sp (|F| + x^{1/4} + (17k + 3L + 14) m) with m the mean of |t_j|, at
    # the proven count n, against the 256-bit series
    prec = bits + 32
    sp = prec + la.CONTOUR_SWEEP_BITS
    n = la._contour_nodes(prec, x)
    with mp.workprec(2 * prec + 64):
        series = la.eval_main_term(la.main_term_poly(k, 256), x) / mp.mpf(x)
    got = la.residue_contour_oracle(k, bits, x)
    F = _reference_trapezoid(k, bits, x, n)
    m = _reference_trapezoid(k, bits, x, n, part=abs)
    with mp.workprec(2 * prec):
        bound = mp.mpf(2) ** -prec * mp.root(x, 4) + mp.mpf(2) ** -sp * (
            abs(F) + mp.root(x, 4) + (17 * k + 3 * math.log(x) + 14) * m)
        assert abs(got - series) <= bound


def test_contour_oracle_domain():
    with pytest.raises(DomainError):
        la.residue_contour_oracle(13, 128, 100)
    with pytest.raises(DomainError, match="finite"):
        la.residue_contour_oracle(2, 128, float("inf"))
    # precision_bits outside main_term_poly's range (NaN and -40 once raised
    # ValueError and looped)
    for bits in (math.nan, -40, 0, la.MAIN_TERM_MAX_BITS + 1):
        with pytest.raises(DomainError, match=rf"^precision_bits must lie in \[1, 4000\], got {bits}$"):
            la.residue_contour_oracle(2, bits, 100)
