"""Tests for series arithmetic, Stieltjes constants and main-term residues.

Independent oracles: mpmath's own stieltjes/zeta implementations, exact
Fraction algebra, and the contour quadrature (which is itself the
independent route the main-term pipeline is checked against).
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import bernfrac, mpf_log

from divisorlab import laurent as la
from divisorlab.errors import DomainError, PrecisionError, QuadratureError
from divisorlab.numerics import poly_eval

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


# ------------------------------------------------------------ series algebra

def test_zeta_laurent_structure():
    # the coefficients of w zeta(1+w): 1, gamma_0, -gamma_1, ...
    z = la.zeta_laurent(8, 128)
    assert len(z) == 9 and z[0] == 1
    with mp.workdps(45):
        assert abs(z[1] - la.stieltjes(0, 160)) < mp.mpf(2) ** (-120)
        # coefficient of (s-1)^1 in zeta is -gamma_1
        assert abs(z[2] + la.stieltjes(1, 160)) < mp.mpf(2) ** (-120)


def test_zeta_laurent_evaluates_to_zeta():
    z = la.zeta_laurent(20, 256)
    with mp.workdps(60):
        got = poly_eval(z, mp.mpf("0.1")) / mp.mpf("0.1")
        ref = mp.zeta(mp.mpf("1.1"))
        assert abs(got - ref) < mp.mpf("1e-12")


def test_zeta_squared_residue_coefficient():
    # symbolic oracle at 2 terms: (1/(s-1) + g0 + ...)^2 has 2*g0 at (s-1)^{-1},
    # the w^1 coefficient of (w zeta(1+w))^2
    z = la.zeta_laurent(2, 160)
    with mp.workprec(192):
        z2 = la._truncated_mul(z, z)
    assert len(z2) == 3 and z2[0] == 1
    with mp.workdps(50):
        assert abs(z2[1] - 2 * la.stieltjes(0, 192)) < mp.mpf(2) ** (-140)


def test_mul_associativity_on_truncations():
    # invariant: (a*b)*c == a*(b*c) to working precision for random series,
    # each product truncated to the shorter length
    import random
    rng = random.Random(7)
    with mp.workprec(128):
        def rand_series(n):
            return tuple(mp.mpf(rng.uniform(-2, 2)) for _ in range(n))
        for _ in range(20):
            a, b, c = (rand_series(rng.randint(2, 6)) for _ in range(3))
            left = la._truncated_mul(la._truncated_mul(a, b), c)
            right = la._truncated_mul(a, la._truncated_mul(b, c))
            assert len(left) == len(right) == min(map(len, (a, b, c)))
            for x, y in zip(left, right):
                assert abs(x - y) <= mp.mpf(2) ** (-100) * (1 + abs(x))


@dataclass(frozen=True)
class _Laurent:
    """The truncated Laurent series main terms were built on before: sum_j
    coeffs[j - lowest] (s-1)^j for lowest <= j <= order, bits = 0 for Fractions."""

    lowest: int
    coeffs: tuple
    order: int
    bits: int

    def __mul__(self, other):
        lowest = self.lowest + other.lowest
        order = min(self.order + other.lowest, other.order + self.lowest)
        n, bits = order - lowest + 1, min(self.bits, other.bits)
        with mp.workprec(max(53, bits + 32)):
            out = [self.coeffs[0] * 0] * n
            for i, a in enumerate(self.coeffs):
                if a == 0 or i >= n:
                    continue
                for j in range(min(len(other.coeffs), n - i)):
                    out[i + j] = out[i + j] + a * other.coeffs[j]
        return _Laurent(lowest, tuple(out), order, bits)


def _main_term_reference(k, bits):
    """P_{k-1}'s coefficients by the Laurent-series route: zeta to (s-1)^{n-1},
    its k-th power by binary powering, and the L^b coefficient of the residue of
    zeta^k(s) e^{L(s-1)} / s, sum_{j > b} [(s-1)^-j] zeta^k (-1)^{j-1-b} / b!."""
    n = max(k - 1, 1)
    with mp.workprec(bits + 96):
        zeta = (mp.mpf(1),) + tuple((-1) ** i * la.stieltjes(i, bits + 96) / mp.factorial(i)
                                    for i in range(n))
    zk, sq, kk = None, _Laurent(-1, zeta, n - 1, bits + 64), k
    while kk:
        if kk & 1:
            zk = sq if zk is None else zk * sq
        kk >>= 1
        if kk:
            sq = sq * sq
    with mp.workprec(bits + 64):
        fact, out = [mp.mpf(1)], []
        for b in range(1, k):
            fact.append(fact[-1] * b)
        for b in range(k):
            acc = mp.mpf(0)
            for j in range(b + 1, k + 1):
                acc = acc + zk.coeffs[-j - zk.lowest] * (-1) ** (j - 1 - b)
            out.append(+(acc / fact[b]))
    return out


@pytest.mark.parametrize("bits", [53, 64, 128, 192, 256, 512])
def test_main_term_keeps_the_laurent_bits(bits):
    # the coefficient tuples return the bits of the Laurent-series route
    la._main_term.cache_clear()
    for k in range(1, la.MAIN_TERM_K_CAP + 1):
        got = [c._mpf_ for c in la.main_term_poly(k, bits).coeffs]
        assert got == [c._mpf_ for c in _main_term_reference(k, bits)], k


def test_main_term_shadow_failure_names_both_numbers(monkeypatch):
    # a product that doubles Fraction series breaks the exact shadow: the
    # PrecisionError names k, the shadow's value and 1/(k-1)!
    mul = la._truncated_mul
    monkeypatch.setattr(la, "_truncated_mul", lambda a, b: tuple(
        2 * c for c in mul(a, b)) if isinstance(a[0], Fraction) else mul(a, b))
    with pytest.raises(PrecisionError, match=(
            r"^leading-coefficient shadow check failed for k=5: the shadow gives "
            r"2/3, not 1/4! = 1/24$")):
        la._main_term.__wrapped__(5, 64)


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
    # nodes of the upper half circle only, and the folded DFT rows equal the
    # full-circle ones on the module's circle at the sweep's precision
    k, bits = 3, 32
    N = la._contour_nodes(bits + 32)
    calls = []
    zeta = mp.zeta

    def counted(s, *args, **kw):
        calls.append(s)
        return zeta(s, *args, **kw)

    # a cache of its own, so the module's sweeps stay for the other tests
    monkeypatch.setattr(la, "_contour_zetas", functools.cache(la._contour_zetas.__wrapped__))
    monkeypatch.setattr(mp, "zeta", counted)
    got = la._contour_coeffs(k, bits)
    assert len(calls) == N + 1
    monkeypatch.setattr(mp, "zeta", zeta)

    sp = bits + 32 + la.CONTOUR_SWEEP_BITS
    with mp.workprec(sp):
        rows = [mp.mpc(0)] * k
        for j in range(2 * N):
            w = la.CONTOUR_RADIUS * mp.expjpi(mp.mpf(2 * j) / (2 * N))
            g = (w * mp.zeta(1 + w)) ** k / (1 + w)
            for m in range(k):
                rows[m] += g * (la.CONTOUR_RADIUS / w) ** m
        for j in range(k):
            m = k - 1 - j
            full = mp.re(rows[m]) * 4 ** m / (2 * N * math.factorial(j))
            assert abs(got[j] - full) <= mp.mpf(2) ** (8 - sp) * 4 ** m * (1 + abs(full))


def _reference_rows(k, bits, part=mp.re):
    """The oracle's folded DFT rows m = 0..k-1 over its cached sweep, formed in
    mpc at twice the working precision from the same nodes and the same y_j;
    ``part=abs`` gives the folded means of |g_j (r0/w_j)^m| instead, row 0
    being mbar.  Each node must lie within the documented 2.5 2^-sp of its
    place on the module's circle."""
    prec = bits + 32
    sp = prec + la.CONTOUR_SWEEP_BITS
    wp = sp + la.CONTOUR_GUARD_BITS
    n = la._contour_nodes(prec)
    with mp.workprec(2 * prec):
        rows = [mp.mpf(0)] * k
        for j, (a, b, yr, yi, _, _) in enumerate(la._contour_zetas(2 * n, prec)):
            w = mp.mpc(mp.mpf((a, -wp)), mp.mpf((b, -wp)))
            place = la.CONTOUR_RADIUS * mp.expjpi(mp.mpf(j) / n)
            assert abs(w - place) <= 2.5 * mp.mpf(2) ** -sp
            g = mp.mpc(mp.mpf((yr, -wp)), mp.mpf((yi, -wp))) ** k / (1 + w)
            wt = 1 if j in (0, n) else 2
            for m in range(k):
                rows[m] += wt * part(g * (mp.conj(w) / la.CONTOUR_RADIUS) ** m)
        return [r / (2 * n) for r in rows]


def _fixed_bound(k, bits, m):
    """The documented cost of one call's floors in row m, scaled to b_m."""
    wp = bits + 32 + la.CONTOUR_SWEEP_BITS + la.CONTOUR_GUARD_BITS
    return 4 ** m * (1.5 * m + 7.5) * mp.mpf(5 / 3) ** k * mp.mpf(2) ** -wp


def _coefficient_bounds(k, bits, coeffs):
    """The documented E_j, j = 0..k-1, at the oracle's coefficients."""
    prec = bits + 32
    sp = prec + la.CONTOUR_SWEEP_BITS
    mbar = _reference_rows(k, bits, part=abs)[0]
    bounds = []
    for j, c in enumerate(coeffs):
        m = k - 1 - j
        bounds.append(mp.mpf(2) ** -sp * abs(c) + (
            mp.mpf(2) ** (-prec - 1) + 4 ** m * (26.5 * k + 30 * m + 5) * mp.mpf(2) ** -sp * mbar
            + _fixed_bound(k, bits, m)) / math.factorial(j))
    return bounds


def _value_bound(k, bits, x, coeffs, bounds):
    """sum_j (E_j + (2k + j) 2^-sp |c_j|) L^j, the documented value bound."""
    sp = bits + 32 + la.CONTOUR_SWEEP_BITS
    L = mp.log(x)
    return sum((e + (2 * k + j) * mp.mpf(2) ** -sp * abs(c)) * L ** j
               for j, (c, e) in enumerate(zip(coeffs, bounds)))


def _coefficients_off(k, bits, series_coeffs):
    """The j whose oracle coefficient lies beyond E_j of ``series_coeffs``."""
    got = la._contour_coeffs(k, bits)
    with mp.workprec(2 * bits + 128):
        return [j for j, (c, s, e) in enumerate(zip(got, series_coeffs,
                                                     _coefficient_bounds(k, bits, got)))
                if abs(c - s) > e]


# every k and every x_probe at both precisions: the coefficients carry no x,
# the value at x adds Horner's rounding; 66 nodes at 32 bits and 83 at 64, so
# the coarse half of the fold is checked with and without a node at s = 3/4
CONTOUR_REFERENCE_CASES = (
    [(32, k, x) for k, x in ((1, 1.0001), (2, 100.0), (7, 1e4), (12, 1e16))]
    + [(64, k, x) for k, x in ((1, 1e16), (2, 1e4), (7, 100.0), (12, 1.0001))])


@pytest.mark.parametrize("bits,k,x", CONTOUR_REFERENCE_CASES)
def test_contour_oracle_integrand_bound(bits, k, x):
    # the documented bound of one call's int arithmetic, per coefficient:
    # |c_j - C_j| <= 2^-sp |C_j| + 4^m (1.5m + 7.5) (5/3)^k 2^-wp / j!, the last
    # term below 2^-sp / j!; at x, Horner's rounding adds (2k + j) 2^-sp |C_j| L^j
    sp = bits + 32 + la.CONTOUR_SWEEP_BITS
    got = la._contour_coeffs(k, bits)
    rows = _reference_rows(k, bits)
    with mp.workprec(2 * bits + 128):
        C = [4 ** (k - 1 - j) * rows[k - 1 - j] / math.factorial(j) for j in range(k)]
        bounds = []
        for j in range(k):
            fixed = _fixed_bound(k, bits, k - 1 - j) / math.factorial(j)
            assert fixed <= mp.mpf(2) ** -sp / math.factorial(j)
            bounds.append(mp.mpf(2) ** -sp * abs(C[j]) + fixed)
            assert abs(got[j] - C[j]) <= bounds[j]
        value = la.residue_contour_oracle(k, bits, x)
        assert abs(value - poly_eval(C, mp.log(x))) <= _value_bound(k, bits, x, C, bounds)


def test_contour_oracle_large_x():
    # no x enters the quadrature: up to 1e300 (L = 691) the oracle answers
    # within its documented value bound, below 2^-60 relative, against the
    # 256-bit series
    k, bits = 12, 32
    got = la._contour_coeffs(k, bits)
    poly = la.main_term_poly(k, 256)
    with mp.workprec(2 * bits + 128):
        bounds = _coefficient_bounds(k, bits, got)
        for x in (1e30, 1e150, 1e300):
            series = poly_eval(poly.coeffs, mp.log(x))
            bound = _value_bound(k, bits, x, got, bounds)
            assert abs(la.residue_contour_oracle(k, bits, x) - series) <= bound
            assert bound <= abs(series) * mp.mpf(2) ** -60


@pytest.mark.parametrize("prec,x", [(64, 1.0001), (64, 1e4), (96, 1e16), (320, 100.0)])
def test_contour_nodes_is_the_least_qualifying_count(prec, x, monkeypatch):
    # the docstring's inequality over its rho grid, which holds no x: the
    # returned n meets it at some rho, and n - 1 at none; and the oracle at
    # x_probe = x asks for the sweep of 2n nodes at prec whatever x is
    r0 = la.CONTOUR_RADIUS

    def qualifies(n):
        return any(n * math.log2(r / r0)
                   >= prec + 2 + 12 * math.log2((1 + r) / r + (1 + r) / (1 - r))
                   + math.log2(r / (1 - r))
                   for r in (r0 + j * (1 - r0) / 64 for j in range(1, 64)))

    n = la._contour_nodes(prec)
    assert qualifies(n) and not qualifies(n - 1)

    class Asked(Exception):
        pass

    def sweep(nodes, p):
        raise Asked(nodes, p)

    monkeypatch.setattr(la, "_contour_zetas", sweep)
    with pytest.raises(Asked) as asked:
        la.residue_contour_oracle(12, prec - 32, x)
    assert asked.value.args == (2 * n, prec)


def test_contour_nodes_at_the_tested_precisions():
    # 66, 83 and 186 nodes at prec 64, 96 and 288 (32, 64 and 256 bits)
    assert [la._contour_nodes(p) for p in (64, 96, 288)] == [66, 83, 186]


def test_contour_oracle_shares_one_sweep_across_k(monkeypatch):
    # the node count depends on prec alone, so every k and every x at one
    # precision reads one cached sweep rather than sweeping again
    monkeypatch.setattr(la, "_contour_zetas", functools.cache(la._contour_zetas.__wrapped__))
    xs = (1.0001, 1234.5, 1e16, 1e300)
    for k in range(1, 13):
        for x in xs:
            la.residue_contour_oracle(k, 32, x)
    info = la._contour_zetas.cache_info()
    assert (info.misses, info.hits) == (1, 12 * len(xs) - 1)


@pytest.mark.parametrize("bits,x", [(32, 1.0001), (32, 1234.5), (64, 1e16)])
@pytest.mark.parametrize("k", [2, 12])
def test_contour_oracle_total_bound(k, bits, x):
    # the docstring's total at the proven count: the value at x within
    # sum_j (E_j + (2k + j) 2^-sp |c_j|) L^j of the 256-bit series
    got = la._contour_coeffs(k, bits)
    poly = la.main_term_poly(k, 256)
    with mp.workprec(2 * bits + 128):
        series = poly_eval(poly.coeffs, mp.log(x))
        bound = _value_bound(k, bits, x, got, _coefficient_bounds(k, bits, got))
        assert abs(la.residue_contour_oracle(k, bits, x) - series) <= bound


@pytest.mark.parametrize("bits", [32, 64, 256])
def test_contour_coefficients_within_the_stated_bound(bits):
    # every coefficient of P_{k-1}, k <= 12, within its documented E_j of the
    # 256-bit series
    for k in range(1, 13):
        assert _coefficients_off(k, bits, la.main_term_poly(k, 256).coeffs) == [], k


def test_contour_coefficients_catch_what_one_x_misses(monkeypatch):
    # perfbench's residue-constants case checks k = 12 at 32 bits at one x, its
    # seed-0 probe, to 1e-15 relative.  gamma_10 enters P_11 only through its
    # constant coefficient, as 12 gamma_10 / 10!: moved so that this
    # coefficient moves by half that tolerance times P_11(log x), a main term
    # passes the one-x check and fails the coefficient check
    k, bits, x = 12, 32, 40.73869
    poly = la.main_term_poly(k, 256)
    with mp.workprec(320):
        shift = poly_eval(poly.coeffs, mp.log(x)) * mp.mpf("0.5e-15")
    stieltjes = la.stieltjes
    monkeypatch.setattr(la, "stieltjes", lambda n, b: stieltjes(n, b) + (
        shift * math.factorial(10) / 12 if n == 10 else 0))
    moved = la._main_term.__wrapped__(k, 256)
    monkeypatch.setattr(la, "stieltjes", stieltjes)
    with mp.workprec(320):
        assert abs(moved.coeffs[0] - poly.coeffs[0] - shift) <= shift * mp.mpf(2) ** -100
        assert moved.coeffs[1:] == poly.coeffs[1:]
        oracle = la.residue_contour_oracle(k, bits, x)
        series = la.eval_main_term(moved, x) / x
        assert abs(oracle - series) <= abs(series) * mp.mpf("1e-15")
    assert _coefficients_off(k, bits, poly.coeffs) == []
    assert _coefficients_off(k, bits, moved.coeffs) == [0]


def test_contour_doubling_names_what_moved(monkeypatch):
    # far below the proven count (13 nodes where 100 are proven at 128 bits),
    # node doubling refuses, naming k, both counts, prec, the coefficient and
    # the tolerance, the sum of both counts' E_j
    monkeypatch.setattr(la, "_contour_nodes", lambda prec: 13)
    with pytest.raises(QuadratureError, match=(
            r"^contour oracle did not converge for k=12 at prec=160: node doubling "
            r"from 13 to 26 nodes moved the L\^\d+ coefficient by \S+, above the "
            r"tolerance \S+$")):
        la.residue_contour_oracle(12, 128, 100.0)


@pytest.mark.parametrize("nodes", [12, 13, 14, 16])
@pytest.mark.parametrize("bits", [32, 64])
def test_contour_doubling_refuses_too_few_nodes(monkeypatch, bits, nodes):
    # below the proven count (66 nodes at 32 bits, 83 at 64) node doubling
    # refuses at the precision asked for: a tolerance of 2^-(bits // 2)
    # (1 + |c_j|) let each of these counts pass at both precisions
    monkeypatch.setattr(la, "_contour_nodes", lambda prec: nodes)
    with pytest.raises(QuadratureError, match=(
            rf"^contour oracle did not converge for k=12 at prec={bits + 32}: node "
            rf"doubling from {nodes} to {2 * nodes} nodes moved the L\^\d+ coefficient")):
        la.residue_contour_oracle(12, bits, 100.0)


@pytest.mark.parametrize("bits", [32, 64, 256, 288])
def test_contour_doubling_passes_at_the_proven_count(bits):
    # the proven count answers every k <= 12, its doubling within the tolerance
    for k in range(1, 13):
        assert len(la._contour_coeffs(k, bits)) == k


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
