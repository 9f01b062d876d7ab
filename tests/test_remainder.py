"""Remainder-lab tests.  Oracles: brute-force divisor sums (hyperbola
identity), direct mpmath evaluation of main terms, synthetic power-law data,
closed forms for k=1, and a Riemann-sum quadrature cross-check.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from divisorlab import remainder as rl
from divisorlab import sieve as sv
from divisorlab.errors import DomainError, MemoryBudgetError, RangeError


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
    # ~72 MB for a scan up to 1e6, and the 1.6 MB d_k table of a mean square
    # up to 1e5, exceed a 1 MiB budget: refused before anything is allocated
    monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", 1 << 20)
    with pytest.raises(MemoryBudgetError, match="budget is 1 MiB"):
        rl.sign_change_scan(2, 1e3, 1e6)
    with pytest.raises(MemoryBudgetError, match="budget is 1 MiB"):
        rl.mean_square(2, 1e5)
    # 4 MiB holds the table, and the quadrature chunks shrink to fit the rest
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


# -------------------------------------------------------------- mean square

def test_mean_square_k1_closed_form():
    # per-unit integral of (floor y - y)^2 is exactly 1/3
    v = rl.mean_square(1, 10 ** 4)
    assert abs(v - 3 ** -0.5) < 1e-3


def test_mean_square_riemann_oracle():
    val = rl.mean_square(2, 10 ** 3)
    # oracle: midpoint Riemann sum, 1e4 points per unit, in float64
    table = sv.dk_block(2, 1, 10 ** 3 + 1).values
    D = np.cumsum(table, dtype=np.uint64).astype(np.float64)
    coeffs = rl._main_poly(2).as_floats()
    total = 0.0
    m = 10 ** 4
    offs = (np.arange(m) + 0.5) / m
    for n in range(1, 10 ** 3):
        y = n + offs
        delta = D[n - 1] - y * np.polynomial.polynomial.polyval(np.log(y), coeffs)
        total += float(np.sum(delta ** 2)) / m
    ref = math.sqrt(total / 10 ** 3)
    assert abs(val - ref) / ref < 1e-4


def test_mean_square_panel_invariance():
    a = rl.mean_square(2, 500.0, panels_per_unit=2)
    b = rl.mean_square(2, 500.0, panels_per_unit=4)
    assert abs(a - b) / a < 1e-6
    with pytest.raises(DomainError):
        rl.mean_square(2, 500.0, panels_per_unit=1)
    with pytest.raises(DomainError):  # k is capped as in the sieve
        rl.mean_square(31, 500.0)


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
