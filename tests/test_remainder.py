"""Remainder-lab tests.  Oracles: brute-force divisor sums (hyperbola
identity), direct mpmath evaluation of main terms, synthetic power-law data,
closed forms for k=1, and a Riemann-sum quadrature cross-check.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divisorlab import laurent as la
from divisorlab import remainder as rl
from divisorlab import sieve as sv
from divisorlab.errors import (DomainError, MemoryBudgetError, PrecisionError, QuadratureError,
                              RangeError, SelfCheckError, SieveOverflowError)


def test_delta_at_k2_half_odd():
    s = rl.delta_at(2, 10.5)
    assert s.D == 27 and s.half_odd
    with mp.workdps(40):
        # oracle: 10.5*(ln 10.5 + 2*gamma - 1)
        main_ref = mp.mpf("10.5") * (mp.log(mp.mpf("10.5")) + 2 * mp.euler - 1)
        assert abs(s.main - main_ref) < mp.mpf("1e-30")
        assert abs(s.main - mp.mpf("26.31097")) < mp.mpf("1e-4")
    assert abs(s.delta - 0.68903) < 1e-4


def test_delta_at_k2_integer_mode():
    s = rl.delta_at(2, 100)
    assert s.D == 482 == sv.d2_summatory_hyperbola(100)
    assert not s.half_odd
    assert abs(s.delta - 6.0398) < 1e-3


def test_delta_k1_exact_half():
    for x in (2.5, 10.5, 1000.5):
        s = rl.delta_at(1, x)
        assert s.delta == pytest.approx(-0.5, abs=1e-12)


def test_delta_quarter_shift_no_jump():
    # D is locally constant: x +- 1/4 moves only the smooth main term
    base = rl.delta_at(2, 10.5)
    lo = rl.delta_at(2, 10.25)
    hi = rl.delta_at(2, 10.75)
    assert lo.D == base.D == hi.D
    assert not lo.half_odd and not hi.half_odd
    with mp.workdps(40):
        for a, b in ((lo, base), (base, hi)):
            jump = abs((a.delta - b.delta) - float(b.main - a.main))
            assert jump < 1e-9


def test_delta_recomputation_identity():
    for k, x in ((2, 10.5), (3, 99.5), (5, 500.5)):
        s = rl.delta_at(k, x)
        re = float(s.D - s.main)
        assert abs(re - s.delta) <= 1e-9 * max(abs(s.delta), 1.0)


def test_delta_scan_matches_point_calls():
    grid = [10.5, 100.5]
    scans = rl.delta_scan(2, grid)
    for s, x in zip(scans, grid):
        pt = rl.delta_at(2, x)
        assert s.D == pt.D and s.delta == pytest.approx(pt.delta, abs=1e-12)


def test_delta_scan_envelope_band():
    # geometric grid; |delta| < x^{0.4} for k=2 (generous desk-scale band);
    # the two smallest points double-checked against the hyperbola oracle
    grid = [float(x) + 0.5 for x in np.unique(np.geomspace(10 ** 3, 10 ** 5, 16).astype(int))]
    samples = rl.delta_scan(2, grid)
    for s in samples:
        assert abs(s.delta) < s.x ** 0.4
    for s in samples[:2]:
        assert s.D == sv.d2_summatory_hyperbola(math.floor(s.x))
    # for k=3 the unit-constant sqrt(x) band fails at desk scale (ratio 5.46
    # at x=5040.5, confirmed against the factorisation oracle), so the band
    # carries the empirically calibrated constant 6
    grid3 = [float(x) + 0.5 for x in np.unique(np.geomspace(10 ** 3, 10 ** 4, 8).astype(int))]
    for s in rl.delta_scan(3, grid3):
        assert abs(s.delta) < 6 * s.x ** 0.5


# ------------------------------------------------------------ exponent fit

def _fake(k, x, delta):
    return rl.RemainderSample(k=k, x=x, D=0, main=mp.mpf(0), delta=delta,
                              half_odd=True)


def test_fit_exponent_exact_power_law():
    xs = np.geomspace(10.0, 1e6, 24)
    samples = [_fake(2, x, x ** 0.31) for x in xs]
    slope, err = rl.fit_exponent(samples)
    assert abs(slope - 0.31) < 1e-9
    assert err < 1e-9


def test_fit_exponent_modulated_power_law():
    xs = np.geomspace(10.0, 1e6, 48)
    samples = [_fake(2, x, x ** 0.25 * (1 + 0.1 * math.sin(math.log(x)))) for x in xs]
    slope, _ = rl.fit_exponent(samples)
    assert abs(slope - 0.25) < 0.02


def test_fit_exponent_insufficient():
    samples = [_fake(2, 10.0 * i, 1.0) for i in range(1, 6)]
    with pytest.raises(RangeError):
        rl.fit_exponent(samples)


def test_fit_exponent_drop_threshold():
    xs = np.geomspace(10.0, 1e6, 24)
    samples = [_fake(2, x, x ** 0.31) for x in xs]
    # one near-zero outlier (a sign-change neighbourhood) must be dropped
    samples.append(_fake(2, 3e3, 1e-14))
    slope, _ = rl.fit_exponent(samples)
    assert abs(slope - 0.31) < 1e-6


# ------------------------------------------------------------ sign changes

def test_small_x_sign_values():
    a = rl.delta_at(2, 1.5)
    b = rl.delta_at(2, 7.5)
    assert abs(a.delta - 0.160) < 1e-3
    assert abs(b.delta + 0.270) < 1e-3
    rows = rl.sign_change_scan(2, 1.2, 8.0, C=5.0)
    assert any(loc is not None for _, loc in rows)


def test_empty_grid_and_narrow_scan_range():
    assert rl.delta_scan(2, []) == []
    # the half-odd points of [10.6, 11.4] would be n + 1/2 for n from 11 to 10
    with pytest.raises(DomainError, match="^range too narrow to hold two half-odd points$"):
        rl.sign_change_scan(2, 10.6, 11.4)


def test_sign_changes_k1_never():
    rows = rl.sign_change_scan(1, 10, 1000, C=5.0)
    assert all(loc is None for _, loc in rows)


def test_sign_changes_k2_every_window():
    rows = rl.sign_change_scan(2, 10 ** 3, 10 ** 4, C=5.0)
    assert len(rows) > 10
    assert all(loc is not None for _, loc in rows)
    # localisation is a half-odd point inside [X0, X1]
    for X, loc in rows:
        assert X <= loc <= 10 ** 4
        assert abs((loc - math.floor(loc)) - 0.5) < 1e-9


def test_sign_change_scan_memory_budget(monkeypatch):
    # ~72 MB for a scan up to 1e6, and the segment and pass of a mean square,
    # exceed a 1 MiB budget: refused before anything is allocated
    monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", 1 << 20)
    with pytest.raises(MemoryBudgetError, match="budget is 1 MiB"):
        rl.sign_change_scan(2, 1e3, 1e6)
    with pytest.raises(MemoryBudgetError, match="budget is 1 MiB"):
        rl.mean_square(2, 1e5)
    # 4 MiB holds a segment and a pass, and the value does not depend on the budget
    monkeypatch.undo()
    full = rl.mean_square(2, 1e5)  # also fills the main-term cache outside the trace
    monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", 4 << 20)
    tracemalloc.start()
    try:
        small = rl.mean_square(2, 1e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
    assert abs(small - full) <= 1e-12 * full


def _array_scan(k, X0, X1, C=5.0, precision_bits=rl.MAIN_BITS_DEFAULT):
    """The whole-range scan that the streaming one replaced: one d_k table
    over [1, n_hi] and every sign held at once.  The reference for windows."""
    n_hi = math.floor(X1 - 0.5)
    n_lo = max(1, math.ceil(X0 - 0.5))
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    cums = np.cumsum(sv.dk_block(k, 1, n_hi + 1).values, dtype=np.uint64)
    D = cums[ns - 1].astype(np.float64)
    xs = ns.astype(np.float64) + 0.5
    coeffs = la.main_term_poly(k, precision_bits).as_floats()
    signs = np.sign(D - xs * np.polynomial.polynomial.polyval(np.log(xs), coeffs))
    out = []
    X = float(X0)
    while X < X1:
        width = C * X ** (1.0 - 1.0 / k)
        x_end = min(X + width, X1)
        i0 = np.searchsorted(xs, X, side="left")
        i1 = np.searchsorted(xs, x_end, side="right")
        win = signs[i0:i1]
        flips = np.nonzero(win[:-1] * win[1:] < 0)[0]
        out.append((X, float(xs[i0 + flips[0]]) if len(flips) else None))
        X += width
    return out


def test_streaming_scan_matches_array_scan():
    # ranges up to 3e5 cross up to four segment edges; k = 1 has windows of
    # constant width C, so its ranges stay short; C below 1 makes windows of
    # one point or none, and X0 < 3/2 starts at n = 1, D_k(0) = 0
    rng = random.Random(12)
    bad = []
    for _ in range(40):
        k = rng.randint(1, 12)
        X0 = 10 ** rng.uniform(math.log10(1.01), math.log10(2.5e5))
        C = 10 ** rng.uniform(-2, math.log10(20))
        X1 = min(rng.uniform(X0 + 2, 3e5), X0 + 4e3 * C + 2 if k == 1 else 3e5)
        if repr(rl.sign_change_scan(k, X0, X1, C)) != repr(_array_scan(k, X0, X1, C)):
            bad.append((k, X0, X1, C))
    assert not bad


def test_streaming_scan_flips_across_segment_edges(monkeypatch):
    # the first flip of a window at or above 655360 = 10 SEGMENT pairs the
    # last point of one segment with the first of the next
    edge = 10 * sv.SEGMENT
    want = [(float(edge), edge + 0.5)]
    assert rl.sign_change_scan(2, edge, edge + 40) == _array_scan(2, edge, edge + 40) == want
    # 97-entry segments put many flips on an edge (the narrow windows' block
    # is read 97 points a round from n = 10, so a round's last n is 9 mod 97)
    monkeypatch.setattr(sv, "SEGMENT", 97)
    on_edge = 0
    for k in (2, 3, 5):
        rows = rl.sign_change_scan(k, 10, 3e4, C=0.5)
        assert repr(rows) == repr(_array_scan(k, 10, 3e4, C=0.5))
        on_edge += sum(loc is not None and math.floor(loc) % 97 == 9 for _, loc in rows)
    assert on_edge >= 5


def test_exact_fallback_keeps_the_windows(monkeypatch):
    # a budget of infinity sends every point through sample_from_D
    want = _array_scan(3, 10, 2000, C=2.0)
    assert any(loc is not None for _, loc in want)
    calls = []
    sample = rl.sample_from_D
    monkeypatch.setattr(rl, "_sign_budget", lambda *a: math.inf)
    monkeypatch.setattr(rl, "sample_from_D", lambda *a: calls.append(a) or sample(*a))
    assert rl.sign_change_scan(3, 10, 2000, C=2.0) == want
    assert len(calls) == 1999 - 10 + 1


def test_jumped_windows_match_array_scan(monkeypatch):
    # SCAN_JUMP = 0 jumps every window: exact D_k at its start, then rounds
    # of 32, 64, ... points to its first flip
    monkeypatch.setattr(rl, "SCAN_JUMP", 0)
    rng = random.Random(29)
    cases = [(k, 10 ** rng.uniform(0.1, 5), rng.uniform(0.5, 20)) for k in range(2, 13)]
    cases = [(k, X0, min(X0 + rng.uniform(2, 3e5), 3e5), C) for k, X0, C in cases]
    # first flips on the last point of round 0 (offsets 30 and 31: the pair
    # ends there, or straddles into round 1), windows that end with None, and
    # stretches of several rounds
    cases += [(2, 1e4, 3e5, 2.0), (4, 100, 2e5, 1.0), (2, 10, 3e4, 0.5), (12, 2, 1e5, 0.5)]
    offsets, bad = set(), []
    for k, X0, X1, C in cases:
        want = _array_scan(k, X0, X1, C)
        if repr(rl.sign_change_scan(k, X0, X1, C)) != repr(want):
            bad.append((k, X0, X1, C))
        offsets |= {math.floor(loc) - math.ceil(X - 0.5) if loc else None for X, loc in want}
    assert not bad
    assert {30, 31, None} <= offsets and max(o for o in offsets if o) > 32 + 64 + 128
    # every window of k = 1 ends with None; a budget of infinity sends every
    # sieved point through sample_from_D and keeps the windows
    assert rl.sign_change_scan(1, 10, 2000, C=7.0) == _array_scan(1, 10, 2000, C=7.0)
    monkeypatch.setattr(rl, "_sign_budget", lambda *a: math.inf)
    assert rl.sign_change_scan(3, 10, 2000, C=2.0) == _array_scan(3, 10, 2000, C=2.0)


def test_scan_sieves_a_small_part_of_the_range(monkeypatch):
    # the kernel sees 34944 entries for the first scan (31968 in the floor
    # route's table pass, 2976 in four rounds of 49 windows): 3.5% of [1, X1];
    # the second, whose windows are all narrow, sieves its 1e5 points alone
    entries = []
    kernel = sv._signature_blocks

    def counted(starts, lens, hi):
        entries.append(int(lens.sum()))
        return kernel(starts, lens, hi)
    monkeypatch.setattr(sv, "_signature_blocks", counted)
    for k, X0, X1 in [(3, 1e4, 1e6), (1, 5e7, 5e7 + 1e5)]:
        entries.clear()
        rl.sign_change_scan(k, X0, X1)
        assert sum(entries) < X1 / 20


def test_scan_past_the_int64_bound(monkeypatch):
    # x (ln x + k - 1)^{k-1} / (k - 1)! >= 2^62 at k = 22 and x = 1e6, so the
    # starts' D_k come from a full sieve, and the rounds read on from them
    assert repr(rl.sign_change_scan(22, 2, 1e6)) == repr(_array_scan(22, 2, 1e6))
    monkeypatch.setattr(rl, "SCAN_JUMP", 0)
    assert repr(rl.sign_change_scan(22, 1.2, 3e5, 0.5)) == repr(_array_scan(22, 1.2, 3e5, 0.5))
    # D_30(2e7 - 1) >= 2^64, though no d_30(n) there reaches the sieve's flag
    with pytest.raises(SieveOverflowError, match=r"^D_30\(19999999\) exceeds 2\^64$"):
        rl.sign_change_scan(30, 1e3, 2e7)


@pytest.mark.parametrize("k", [2, 5, 8, 12])
def test_sign_budget_bounds_the_float_delta(k):
    # the scan's float delta against sample_from_D's, at random half-odd points
    rng = random.Random(k)
    ns = sorted(rng.sample(range(1, 10 ** 6), 40))
    Ds = dict(sv.dk_partial_sums(k, ns[-1], ns))
    coeffs = la.main_term_poly(k, rl.MAIN_BITS_DEFAULT).as_floats()
    for n in ns:
        xs = np.array([n + 0.5])
        fast = np.array([Ds[n]], dtype=np.uint64).astype(np.float64) \
            - xs * np.polynomial.polynomial.polyval(np.log(xs), coeffs)
        exact = rl.sample_from_D(k, n + 0.5, Ds[n], rl.MAIN_BITS_DEFAULT).delta
        assert abs(float(fast[0]) - exact) <= rl._sign_budget(coeffs, n + 0.5, Ds[n])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
       st.lists(st.floats(1.0, 1e9), min_size=1, max_size=40),
       st.integers(0, 2 ** 64 - 1))
def test_remainder_kernel_is_polyval_bit_for_bit(coeffs, ys, D):
    # the in-place kernel against numpy's polyval, for a uint64 D (the scan's
    # cumulative sums) and a float64 one (the mean square's table)
    y = np.array(ys)
    for d in (np.full(len(y), D, dtype=np.uint64), np.full(len(y), float(D))):
        want = d - y * np.polynomial.polynomial.polyval(np.log(y), coeffs)
        got = rl._remainder(d, y, coeffs, np.empty_like(y), np.empty_like(y))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sign_change_scan_charges_its_windows():
    # k = 1 makes (X1 - X0) / C windows, ~2e8 of them up to 1e9 at C = 5:
    # refused before any sieving, though one segment fits the budget
    with pytest.raises(MemoryBudgetError, match="budget is 3072 MiB"):
        rl.sign_change_scan(1, 2, 1e9)
    with pytest.raises(MemoryBudgetError):
        rl.sign_change_scan(1, 2, 1e4, C=1e-6)
    with pytest.raises(DomainError, match="C must be positive"):
        rl.sign_change_scan(2, 1e3, 1e4, C=float("nan"))
    for k in (0, -1, 31, 41):  # k is checked before the windows are counted
        with pytest.raises(DomainError, match=f"k must lie in \\[1, 30\\], got {k}"):
            rl.sign_change_scan(k, 2, 100)
    # and the window count it charges is close to the count it makes
    for k, X0, X1, C in [(1, 2, 1e4, 5.0), (2, 1.2, 1e5, 0.5), (5, 10, 3e4, 2.0),
                         (12, 1.2, 1e6, 0.5)]:
        n = len(rl.sign_change_scan(k, X0, X1, C))
        assert abs(k * (X1 ** (1 / k) - X0 ** (1 / k)) / C + 1 - n) <= 0.15 * n + 2


def test_sign_change_scan_memory_is_one_segment():
    la.main_term_poly(2, rl.MAIN_BITS_DEFAULT)  # fills the main-term cache outside the trace
    peaks = []
    for X1 in (2e5, 1e6):
        tracemalloc.start()
        try:
            rl.sign_change_scan(2, 1e3, X1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 16 << 20
    assert peaks[1] <= 1.5 * peaks[0]


# -------------------------------------------------------------- mean square

def _unit_integrals(k, x, bits=rl.MAIN_BITS_DEFAULT):
    """A test-local reference: (integral, D).  integral(lo, hi, d) is the exact
    integral of (d - y P(log y))^2 over [lo, hi] from the antiderivative
    d^2 y - 2 d A_1(y) + A_2(y), A_a(y) = int y^a P^a(log y) dy = y^{a+1} sum_l
    B_l L^l with B_l = sum_{j >= l} c_j (-1)^{j-l} j! / (l! (a+1)^{j-l+1}) for
    P^a = sum c_j L^j, the main term at ``bits``, in the caller's mp context
    (60 digits here).  D[n] = D_k(n) for n <= x, from ``sieve.dk_factor``."""
    D = [0]
    for n in range(1, math.floor(x) + 1):
        D.append(D[-1] + sv.dk_factor(k, n))
    P = la.main_term_poly(k, bits).coeffs
    P2 = [mp.fsum(P[i] * P[j - i] for i in range(max(0, j - len(P) + 1), min(j, len(P) - 1) + 1))
          for j in range(2 * len(P) - 1)]
    Bs = [[mp.fsum(c[j] * (-1) ** (j - l) * mp.factorial(j) / mp.factorial(l)
                   / mp.mpf(a + 1) ** (j - l + 1) for j in range(l, len(c)))
           for l in range(len(c))] for a, c in ((1, P), (2, P2))]
    memo = {}

    def prims(y):
        if y not in memo:
            ym = mp.mpf(y)
            L = mp.log(ym)
            memo[y] = [ym ** (a + 2) * mp.polyval(B[::-1], L) for a, B in enumerate(Bs)]
        return memo[y]

    def integral(lo, hi, d):
        (a1, a2), (b1, b2) = prims(lo), prims(hi)
        return d * d * (mp.mpf(hi) - mp.mpf(lo)) - 2 * d * (b1 - a1) + (b2 - a2)
    return integral, D


def _passes(monkeypatch):
    """Record every Taylor pass of mean_square: (lo, h, D, value, bound)."""
    seen, real = [], rl._taylor_pass

    def spy(lo, h, D, *args):
        v, b = real(lo, h, D, *args)
        seen.append((lo.tolist(), np.broadcast_to(h, lo.shape).tolist(), D.tolist(), v, b))
        return v, b
    monkeypatch.setattr(rl, "_taylor_pass", spy)
    return seen


@pytest.mark.parametrize("k", [1, 2, 3, 5, 12])
@pytest.mark.parametrize("x", [37.6, 130.7, 200.0])
def test_mean_square_bound_holds_against_mp_reference(monkeypatch, k, x):
    # x < 64 (only dyadic pieces), a fractional last unit past them, an integer x
    passes = _passes(monkeypatch)
    got = rl.mean_square(k, x)
    with mp.workdps(60):
        integral, D = _unit_integrals(k, x)
        total = 0
        for lo, h, Ds, v, b in passes:
            assert Ds == [D[math.floor(a)] for a in lo]
            exact = mp.fsum(integral(a, a + 2 * w, d) for a, w, d in zip(lo, h, Ds))
            assert abs(v - exact) <= b, (lo[0], v, exact, b)
            total += exact
        assert sum(len(p[0]) for p in passes) > 0
        want = mp.sqrt(total / x)
        assert abs(got - want) <= rl.MS_BUDGET * want


def test_mean_square_shrunk_budget_refuses(monkeypatch):
    monkeypatch.setattr(rl, "MS_BUDGET", 1e-15)
    with pytest.raises(PrecisionError, match=r"^mean-square error bound \S+ relative "
                                             r"exceeds MS_BUDGET = 1e-15$"):
        rl.mean_square(2, 1000.0)


def test_mean_square_k1_closed_form():
    # Delta_1 = n - y on [n, n + 1): each full unit gives 1/3 and the last, of
    # width f = x - n, gives f^3 / 3, so ||Delta_1||_2 = sqrt(((n - 1) + f^3) / (3x))
    for x in (10 ** 4, 10000.37, 37.6, 2.0, 64.5, 999999.25):
        n, f = math.floor(x), Fraction(x) - math.floor(x)
        square = (n - 1 + f ** 3) / (3 * Fraction(x))
        with mp.workdps(40):
            want = mp.sqrt(mp.mpf(square.numerator) / square.denominator)
            assert abs(rl.mean_square(1, x) - want) <= rl.MS_BUDGET * want


def test_mean_square_k2_cramer_constant():
    # Cramer (Math. Z. 15, 1922) and Tong (1956): int_1^X Delta_2^2 = C X^{3/2} +
    # O(X log^5 X), C = zeta(3/2)^4 / (6 pi^2 zeta(3)).  The O-term's constant is
    # taken as |r(1000)|, r(X) = (int - C X^{3/2}) / (X log^5 X), from the exact
    # reference; the program's r(X) shrinks from -2.2e-4 at 1e3 to -7.7e-5 at 1e4
    # and -1.8e-5 at 1e6, as the true second term is of lower order.  At 1e6 the
    # tolerance is then 1.1e8 of 6.5e8, a root in [23.4, 27.7]
    C = float(mp.zeta(1.5) ** 4 / (6 * mp.pi ** 2 * mp.zeta(3)))
    with mp.workdps(60):
        integral, D = _unit_integrals(2, 1000)
        ref = float(mp.fsum(integral(n, n + 1, D[n]) for n in range(1, 1000)))
    r0 = (ref - C * 1000 ** 1.5) / (1000 * math.log(1000) ** 5)
    assert -3e-4 < r0 < -1e-4
    X = 10 ** 6
    ms = rl.mean_square(2, X)
    assert abs(ms * ms * X - C * X ** 1.5) <= abs(r0) * X * math.log(X) ** 5
    assert (round(math.sqrt(C * X ** 0.5), 1), round(ms, 2)) == (25.6, 25.40)


def test_mean_square_riemann_oracle():
    val = rl.mean_square(2, 10 ** 3)
    # oracle: midpoint Riemann sum, 1e4 points per unit, in float64
    table = sv.dk_block(2, 1, 10 ** 3 + 1).values
    D = np.cumsum(table, dtype=np.uint64).astype(np.float64)
    coeffs = la.main_term_poly(2, rl.MAIN_BITS_DEFAULT).as_floats()
    total = 0.0
    m = 10 ** 4
    offs = (np.arange(m) + 0.5) / m
    for n in range(1, 10 ** 3):
        y = n + offs
        delta = D[n - 1] - y * np.polynomial.polynomial.polyval(np.log(y), coeffs)
        total += float(np.sum(delta ** 2)) / m
    ref = math.sqrt(total / 10 ** 3)
    assert abs(val - ref) / ref < 1e-4


@pytest.fixture
def self_check_panels(monkeypatch):
    """A setter of MS_PANELS for one test; the cached rule is dropped on both sides."""
    def set_panels(panels):
        monkeypatch.setattr(rl, "MS_PANELS", panels)
        rl._gl_rule.cache_clear()
    yield set_panels
    rl._gl_rule.cache_clear()


def test_mean_square_panel_invariance(self_check_panels):
    # the panels are the self-check's alone: the value does not move with them
    a = rl.mean_square(2, 500.0)
    self_check_panels(4)
    assert rl.mean_square(2, 500.0) == a
    with pytest.raises(DomainError):  # k is capped as in the sieve
        rl.mean_square(31, 500.0)
    with pytest.raises(TypeError):  # a third argument is never read as precision bits
        rl.mean_square(2, 100.0, 400)


def test_mean_square_self_check_names_the_piece(monkeypatch):
    # a Taylor coefficient 1% off (that of f'') moves the first piece, [1, 1 + 1/64],
    # by about 3e-9, far outside its bound: the check names it and every value
    real = rl._taylor_polys

    def perturbed(coeffs):
        signed, absolute = real(coeffs)
        return [signed[0], [1.01 * c for c in signed[1]], *signed[2:]], absolute
    monkeypatch.setattr(rl, "_taylor_polys", perturbed)
    with pytest.raises(QuadratureError, match=r"^mean-square self-check on \[1\.0, 1\.015625\]: "
                                              r"Gauss-Legendre on 2 and 4 panels gives \S+ and "
                                              r"\S+, the Taylor value \S+, beyond its bound \S+$"):
        rl.mean_square(2, 1000.0)


# repr of the values of the Taylor passes.  4e5 + 0.37 and 1e6 span several
# segments; 4 MiB is the tightest budget that holds a segment and a pass (the
# values do not depend on the budget); a non-integer x ends in a partial unit;
# k = 30 has 30 coefficients, k = 1 one; the value does not depend on the
# self-check's panels (MS_PANELS, set to the third column)
MS_PINNED = [
    (2, 1e4, 2, None, "7.768195065444501"),
    (2, 1e5, 2, None, "14.149351548421004"),
    (2, 4e5 + 0.37, 2, None, "20.142124116408606"),
    (2, 1e6, 2, None, "25.404892293049226"),
    (2, 1e5, 2, 4 << 20, "14.149351548421004"),
    (2, 10000.37, 2, None, "7.768857481378977"),
    (3, 12345.5, 2, None, "109.0080150748711"),
    (1, 1e4, 2, None, "0.5773214009544423"),
    (2, 1e5, 3, None, "14.149351548421004"),
    (2, 4e5 + 0.37, 3, None, "20.142124116408606"),
    (5, 54321.25, 3, None, "12807.408497869328"),
    (12, 99000.3, 2, None, "98317660.18164979"),
    (3, 99000.3, 4, None, "271.1417607897426"),
    (30, 2000.5, 2, None, "1079328393.6609786"),
]


@pytest.mark.parametrize("k, x, panels, budget, want", MS_PINNED)
def test_mean_square_bits_pinned(monkeypatch, self_check_panels, k, x, panels, budget, want):
    if budget:
        monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", budget)
    self_check_panels(panels)
    assert repr(rl.mean_square(k, x)) == want


def test_mean_square_self_check_fits_in_a_pass():
    # a pass of MS_PASS pieces checks every MS_CHECK_STRIDE-th one on 3 MS_PANELS
    # MS_ORDER nodes, no more nodes than the pass has pieces
    assert rl.MS_PASS // rl.MS_CHECK_STRIDE * len(rl._gl_rule()[0]) <= rl.MS_PASS


def test_mean_square_memory_in_cache_sized_passes():
    # a segment of the sieve and one Taylor pass: the charge covers the peak
    rl.mean_square(2, 1e5)  # fills the main-term cache outside the trace
    tracemalloc.start()
    try:
        rl.mean_square(2, 1e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sv.SEGMENT_BYTES + rl.MS_BYTES_PER_PIECE * rl.MS_PASS


def test_mean_square_streamed_peak_per_n():
    # streamed, the peak does not grow with x: 2.2 B per n at 1e6, where the
    # whole-range table was charged 16 B per n and peaked at 15.1
    rl.mean_square(2, 1e4)  # fills the main-term cache outside the trace
    tracemalloc.start()
    try:
        rl.mean_square(2, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 10 ** 6


def test_mean_square_refuses_saturated_and_wrapped(monkeypatch):
    monkeypatch.setattr(sv, "OVERFLOW_LOG2", 8)  # d_30(4) = 4960 > 2^8
    with pytest.raises(SieveOverflowError, match="^d_30 may exceed 2\\^8 below 101$"):
        rl.mean_square(30, 100.0)
    monkeypatch.undo()
    # D_k(floor x) of 2^64 or more is refused before any segment is sieved, and a
    # running sum that does not end at it fails the self-check
    monkeypatch.setattr(sv, "dk_partial_sums", lambda k, x, cps: ((3, 1 << 64),))
    with pytest.raises(SieveOverflowError, match="^D_2\\(3\\) exceeds 2\\^64$"):
        rl.mean_square(2, 3.0)
    monkeypatch.setattr(sv, "dk_partial_sums", lambda k, x, cps: ((3, 6),))
    with pytest.raises(SelfCheckError, match="^running sum of d_2 ends at 5, D_2\\(3\\) = 6$"):
        rl.mean_square(2, 3.0)


# --------------------------------------------------------------- envelopes

def test_envelope_conjecture_value():
    env = rl.envelopes(2, 10 ** 6)
    assert env.conjecture == pytest.approx(10 ** 1.5, rel=1e-12)
    assert env.omega_lower is None  # 1e6 < e^(e^e)
    assert env.thm1_upper is None  # k < 30
    assert env.tong_window == pytest.approx(5 * 10 ** 3, rel=1e-12)


def test_envelope_soundararajan_exponent():
    assert abs(rl.soundararajan_exponent2(2) - 0.75 * (2 ** (4 / 3) - 1)) < 1e-12
    assert abs(rl.soundararajan_exponent2(2) - 1.1399) < 1e-4


def test_envelope_fields_positive_above_threshold():
    env = rl.envelopes(30, 10 ** 8)
    assert env.omega_lower is not None and env.omega_lower > 0
    assert env.thm1_upper is not None and env.thm1_upper > 0
    assert env.notes["soundararajan_exponent"].startswith("k^(2k/(k+1))")


def test_envelope_ordering_asymptotic():
    # at desk scale the omega envelope still towers over the k=30 upper
    # envelope (the (log log x)^E2 factor dominates until x ~ 10^925);
    # far past the crossover the theoretical ordering holds
    desk = rl.envelopes(30, 10 ** 8)
    assert float(mp.log(desk.omega_lower)) > float(mp.log(desk.thm1_upper))
    with mp.workdps(60):
        big = rl.envelopes(30, mp.mpf(10) ** 1500)
        assert mp.log(big.omega_lower) < mp.log(big.thm1_upper)


def test_envelope_domain():
    with pytest.raises(DomainError):
        rl.envelopes(1, 100.0)
    with pytest.raises(DomainError):
        rl.envelopes(2, 0.5)
    # a k between two integers once answered
    with pytest.raises(DomainError, match=r"^k must be integral, got 2\.5$"):
        rl.envelopes(2.5, 100.0)


def test_soundararajan_exponent2_refuses_a_fractional_k():
    # k = 2.5 once answered 1.8917, an exponent of no envelope
    with pytest.raises(DomainError, match=r"^k must be integral, got 2\.5$"):
        rl.soundararajan_exponent2(2.5)
    # the range check comes first: a k refused today keeps its message
    with pytest.raises(DomainError, match=r"^k must be positive, got -0\.5$"):
        rl.soundararajan_exponent2(-0.5)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("fn, args, name", [
    (rl.delta_scan, (2, [10.5, NAN, 20.5]), "grid"),
    (rl.sample_from_D, (2, INF, 5, 64), "x"),
    (rl.sign_change_scan, (2, 10.0, 100.0, INF), "C"),
    (rl.envelopes, (2, INF), "x"),
    (rl.envelopes, (NAN, 10), "k"),
    (rl.envelopes, (INF, 10), "k"),
    *[(rl.soundararajan_exponent2, (v,), "k") for v in (NAN, INF, -INF)],
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_finite_argument_raises_domain_error(fn, args, name):
    # unguarded, a NaN passes the sortedness test a > b, an infinite x reaches
    # math.floor, and the others return NaN, one window or a set with that k
    with pytest.raises(DomainError, match=f"^{name} must"):
        fn(*args)
