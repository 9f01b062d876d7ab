"""Tests for series arithmetic, Stieltjes constants and main-term residues.

Independent oracles: mpmath's own stieltjes/zeta implementations, exact
Fraction algebra, and the contour quadrature (which is itself the
independent route the main-term pipeline is checked against).
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from divisorlab import laurent as la
from divisorlab.errors import DomainError, InsufficientOrderError

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
        la._stieltjes_memo.pop(n, None)
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


@pytest.mark.parametrize("n,bits", [(0, 128), (5, 352), (11, 352), (20, 512), (40, 256)])
def test_pick_em_parameters_smallest_cutoff(n, bits):
    # brute force over the whole grid: the pick is the smallest M >= 2n for
    # which any J meets the tail bound, with the smallest such J
    target = -(bits + 4)
    feasible = []
    with mp.workdps(40):
        for M in la.EM_M_GRID:
            if M < 2 * n:
                continue
            for J in la.EM_J_GRID:
                bound = la._em_tail_bound(_deriv_poly_reference(n, 2 * J), J, M)
                if bound > 0 and mp.log(bound, 2) < target - 1:
                    feasible.append((M, J))
    M, J = min(feasible)
    assert la._pick_em_parameters([n], target) == (J, M)


def test_pick_em_parameters_small_cutoff_at_352_bits():
    # the main terms ask for gamma_n, n <= 11, at 352 bits: a few hundred
    # logarithms, not the 8192-16384 of a J-first search
    for n in range(12):
        J, M = la._pick_em_parameters([n], -(352 + 4))
        assert M <= 128
    # one pick for all twelve: a pair at which every tail bound holds
    assert la._pick_em_parameters(range(12), -(352 + 4)) == (64, 64)


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


def test_stieltjes_domain():
    with pytest.raises(DomainError):
        la.stieltjes(-1, 128)
    with pytest.raises(DomainError):
        la.stieltjes(65, 128)
    with pytest.raises(DomainError):
        la.stieltjes(0, 10 ** 6)


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
def test_stieltjes_bits_pinned(bits, monkeypatch):
    def man_exp(v):
        return int(mp.sign(v)) * v.man, v.exp
    pins = GAMMA_PINS[bits]
    # the one pass of a main term, and each constant on its own
    monkeypatch.setattr(la, "_stieltjes_memo", {})
    assert [man_exp(v) for v in la._stieltjes_batch(range(11), bits)] == pins
    for n in range(11):
        monkeypatch.setattr(la, "_stieltjes_memo", {})
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
        got = z.evaluate(mp.mpf("1.1"), 256)
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
    # one sweep of 2N nodes evaluates zeta at the N + 1 nodes of the upper
    # half circle only, and the folded sum equals the full-circle trapezoid
    k, bits, x, N = 3, 32, 100.0, la.CONTOUR_MIN_NODES
    calls = []
    zeta = mp.zeta

    def counted(s, *args, **kw):
        calls.append(s)
        return zeta(s, *args, **kw)

    monkeypatch.setattr(la, "_contour_cache", {})
    monkeypatch.setattr(mp, "zeta", counted)
    got = la.residue_contour_oracle(k, bits, x, nodes=N)
    assert len(calls) == N + 1
    monkeypatch.setattr(mp, "zeta", zeta)

    prec = bits + 32
    with mp.workprec(prec):
        logx = mp.log(mp.mpf(x))
        total = mp.mpc(0)
        for j in range(2 * N):
            s = 1 + mp.expjpi(mp.mpf(2 * j) / (2 * N)) / 2
            total += mp.zeta(s) ** k * mp.exp(s * logx) / s * (s - 1)
        full = mp.re(total / (2 * N)) / x
        assert abs(got - full) <= mp.mpf(2) ** (8 - prec) * (1 + abs(full))


def test_contour_oracle_domain():
    with pytest.raises(DomainError):
        la.residue_contour_oracle(13, 128, 100)
    with pytest.raises(DomainError):
        la.residue_contour_oracle(2, 128, 100, nodes=512)
