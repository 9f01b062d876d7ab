"""High-precision exponential sums, Euler-Maclaurin zeta evaluation, the
chi factor and approximate-functional-equation residuals, zeta moment
integrals, and mean-value-theorem checks for Dirichlet polynomials.

Conventions:

* rho = log t / log N throughout (the regime ratio of an exponential sum).
* chi(s) = pi^{1/2-s} Gamma(s/2) / Gamma((1-s)/2), so zeta(1-s) = chi(s) zeta(s);
  the textbook factor of zeta(s) = chi(s) zeta(1-s) is therefore chi(1-s) here,
  which is the factor ``afe_residual`` puts on its second sum.
* The approximate functional equation defaults to symmetric sum length
  L = floor(sqrt(t/(2 pi))); the sqrt(t) variant sits behind ``length_mode``.

Two evaluation tiers: ``zeta_em`` is the certified mpmath route (cutoff
M >= max(2|t|, 64), explicit Bernoulli tail bound); quadrature-heavy
operations use a vectorised float64 route whose cutoffs were calibrated
against the certified one and whose results are guarded by panel-doubling
self-checks.  All evaluators are pure.

The moment and mean-value integrals share one kernel, ``_panel_quadrature``:
composite Gauss-Legendre of a function of S(t) = sum_{n<=M} w_n n^{-it} on
uniform panels, where the phase at a node splits into e^{-i m log n} for the
start m of its block of panels times a fixed e^{-i d log n} for its offset d
(grid evaluation as in Odlyzko and Schoenhage, Trans. AMS 309, 1988): one exp
row per block and one complex GEMM replace one exp per (node, term).  m log n
rounds as the direct sum's t log n does; the offsets add O(2^-53 d log n) and
a few ulp of t, so S matches the direct sum to ~2^-53 t log M sum|w_n|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from . import exponents, sieve
from .errors import DomainError, PrecisionError, QuadratureError
from .numerics import ols_slope

T_CAP_EXPSUM = 10 ** 12
T_CAP_ZETA = 10 ** 6
T_CAP_MOMENT = 10 ** 5


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpSumReport:
    """Value and bound exponents of sum_{N < n <= N'} n^{-it}.

    ``refined_exp``/``hb_exp`` are the savings exponents (the bounds read
    N^{1 - exponent}); ``trivial`` marks rho < 3 where the refined savings
    is non-positive and the trivial bound applies.
    """

    N: int
    N_prime: int
    t: float
    value: complex
    modulus: float
    rho: Optional[float]
    refined_exp: Optional[float]
    hb_exp: Optional[float]
    ratio_refined: Optional[float]
    ratio_hb: Optional[float]
    trivial: bool


def exp_sum(N: int, N_prime: int, t: float, precision_bits: int = 128) -> ExpSumReport:
    """Direct high-precision summation of sum_{N < n <= N'} e^{-it log n}."""
    if not (1 <= N < N_prime <= 2 * N):
        raise DomainError(f"need 1 <= N < N' <= 2N, got N={N}, N'={N_prime}")
    if not (0 <= t <= T_CAP_EXPSUM):
        raise DomainError(f"t must lie in [0, 1e12], got {t}")
    if t * 2.0 ** (-precision_bits) >= 1e-6:
        raise PrecisionError(
            f"phase error t*2^-p = {t * 2.0 ** (-precision_bits):.2e} too "
            f"large at {precision_bits} bits; raise precision_bits")
    with mp.workprec(precision_bits):
        tm = mp.mpf(t)
        value = mp.fsum(mp.expj(-tm * mp.log(n)) for n in range(N + 1, N_prime + 1))
        modulus = float(abs(value))
    rho = refined = hb = ratio_r = ratio_h = None
    trivial = False
    if t > 1 and N >= 2:
        rho = math.log(t) / math.log(N)
        refined = float(exponents.refined_exponent(rho))
        hb = float(exponents.hb_exponent(rho))
        trivial = refined <= 0
        # ratios compare against the effective bound: savings clipped to
        # [0, 1] (below rho = 3 the trivial bound N^1 applies; a savings
        # above 1 would claim less than a single term)
        ratio_r = modulus / N ** (1.0 - min(max(refined, 0.0), 1.0))
        ratio_h = modulus / N ** (1.0 - min(max(hb, 0.0), 1.0))
    return ExpSumReport(N=N, N_prime=N_prime, t=float(t), value=complex(value),
                        modulus=modulus, rho=rho, refined_exp=refined, hb_exp=hb,
                        ratio_refined=ratio_r, ratio_hb=ratio_h, trivial=trivial)


def expsum_bound_grid(N_list: Sequence[int], t_list: Sequence[float],
                      precision_bits: int = 128) -> list[ExpSumReport]:
    """Ratio table over a grid of dyadic sums [N, 2N] vs their bounds.

    Pairs with N > sqrt(t) fall outside the bound's stated range and are
    omitted; nothing asymptotic is asserted, only ratios are recorded.
    """
    out = []
    for t in t_list:
        for N in N_list:
            if N > math.isqrt(int(t)):
                continue
            out.append(exp_sum(N, 2 * N, t, precision_bits))
    return out


# ---------------------------------------------------------------------------
# certified Euler-Maclaurin zeta
# ---------------------------------------------------------------------------

def zeta_em(sigma: float, t: float, precision_bits: int = 128) -> mp.mpc:
    """zeta(sigma + it) by Euler-Maclaurin with cutoff M >= max(2|t|, 64),
    at least 8 Bernoulli correction terms, and a certified remainder below
    2^{-precision_bits/2}:

        |R_J| <= |B_{2J+2}/(2J+2)!| |s(s+1)...(s+2J)| M^{-sigma-2J-1}
                 * |(s+2J+1)/(sigma+2J+1)|.
    """
    if not (0 <= sigma <= 3):
        raise DomainError(f"sigma must lie in [0, 3], got {sigma}")
    if abs(t) > T_CAP_ZETA:
        raise DomainError(f"|t| capped at 1e6, got {t}")
    if sigma == 1 and t == 0:
        raise DomainError("pole at s = 1")
    M = max(2 * math.ceil(abs(t)), 64)
    target_exp = -(precision_bits // 2)
    with mp.workprec(precision_bits + 32):
        s = mp.mpc(sigma, t)
        for _ in range(3):
            # find a J whose certified remainder beats the target
            J_ok = None
            poch = mp.mpc(1)
            i = 0
            J = 8
            while J <= 64:
                while i < 2 * J + 1:
                    poch *= s + i
                    i += 1
                rem = (abs(mp.bernoulli(2 * J + 2)) / mp.factorial(2 * J + 2)
                       * abs(poch) * mp.mpf(M) ** (-sigma - 2 * J - 1)
                       * abs(s + 2 * J + 1) / (sigma + 2 * J + 1))
                if rem < mp.mpf(2) ** target_exp:
                    J_ok = J
                    break
                J += 4
            if J_ok is not None:
                break
            M *= 2
        else:
            raise PrecisionError(
                f"tail bound 2^{target_exp} not reachable at s={sigma}+{t}j")
        total = mp.fsum(mp.exp(-s * mp.log(n)) for n in range(1, M + 1))
        Ms = mp.exp(-s * mp.log(M))
        total += M * Ms / (s - 1) - Ms / 2
        poch = s
        for j in range(1, J_ok + 1):
            total += (mp.bernoulli(2 * j) / mp.factorial(2 * j) * poch
                      * Ms * mp.mpf(M) ** (-(2 * j - 1)))
            poch *= (s + 2 * j - 1) * (s + 2 * j)
        return +total


# ---------------------------------------------------------------------------
# fast float evaluators (calibrated against zeta_em; guarded by self-checks)
# ---------------------------------------------------------------------------

_B2J = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _zeta_cutoff(sigma: float, t_max: float, abs_tol: float = 1e-5) -> tuple[int, int]:
    """Direct-sum cutoff M and Bernoulli-term count J of ``_zeta_series``."""
    if sigma > 1:
        return int(min(4096, max(256, (t_max / (12 * abs_tol)) ** (1.0 / (sigma + 1))))), 1
    return max(64, int(t_max / 4) + 1), 8


def _zeta_series(sigma: float, ts: np.ndarray, abs_tol: float = 1e-5):
    """Coefficients n^{-sigma} and log n for n <= M, and ``add_tail(ts, out)``
    adding the integral, half and Bernoulli tail terms to sums ``out`` in place.
    M follows the largest of ``ts``: sigma > 1: M ~ (t_max/(12 tol))^{1/(sigma+1)},
    one Bernoulli term; sigma <= 1: float Euler-Maclaurin with M = max(64,
    t_max/4) and 8 Bernoulli terms (calibrated error ~1e-6).
    """
    M, J = _zeta_cutoff(sigma, float(ts.max(initial=1.0)), abs_tol)
    n = np.arange(1, M + 1)

    def add_tail(ts: np.ndarray, out: np.ndarray) -> np.ndarray:
        s = sigma + 1j * ts
        Ms = np.exp(-s * math.log(M))
        out += M * Ms / (s - 1) - Ms / 2
        poch = s.copy()
        fac = 1.0
        for j in range(1, J + 1):
            fac *= (2 * j) * (2 * j - 1)
            out += _B2J[j - 1] / fac * poch * Ms * float(M) ** (-(2 * j - 1))
            poch = poch * (s + 2 * j - 1) * (s + 2 * j)
        return out

    return n ** (-sigma), np.log(n), add_tail


def _zeta_grid_float(sigma: float, ts: np.ndarray, abs_tol: float = 1e-5) -> np.ndarray:
    """zeta(sigma + i ts) in complex128 by direct summation: the unfactorised
    reference for ``_panel_quadrature`` (terms from ``_zeta_series``)."""
    ts = np.asarray(ts, dtype=float)
    w, logn, add_tail = _zeta_series(sigma, ts, abs_tol)
    return add_tail(ts, np.exp(-1j * np.outer(ts, logn)) @ w)


_NODES_PER_CHUNK = 1 << 18  # GL nodes per chunk; the zeta cutoff follows each chunk
_ENTRIES = 1 << 19          # complex entries per phase matrix


def _panel_quadrature(series, a: float, b: float, panels: int, order: int,
                      what: str, rel_tol: float = 0.01) -> float:
    """int_a^b post(t, S(t)) dt, S(t) = sum_n w_n e^{-it log n}, by composite
    Gauss-Legendre on uniform panels with a panel-doubling self-check (see the
    module docstring).  ``series(ts)`` maps one chunk's nodes to
    ``(w, logn, post)``; ``post(ts, S)`` returns integrand values and may
    overwrite S.  A block of B panels shares one exp row e^{-i m log n}.
    """
    x, gw = np.polynomial.legendre.leggauss(order)
    chunk = max(1, _NODES_PER_CHUNK // order)

    def run(p: int) -> float:
        edges = np.linspace(a, b, p + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = edges[:-1] + half
        total = 0.0
        for i in range(0, p, chunk):
            ts = mid[i:i + chunk, None] + half[i:i + chunk, None] * x
            w, logn, post = series(ts)
            # B ~ sqrt(panels / order) balances the fixed matrix against the rows
            B = max(1, min(math.isqrt(len(ts) // order),
                           _ENTRIES // (len(logn) * order)))
            offsets = (0.5 * (b - a) / p * (2 * np.arange(B)[:, None] + x)).ravel()
            fixed = w[:, None] * np.exp(-1j * np.outer(logn, offsets))
            starts = mid[i:i + chunk:B]
            S = np.empty((len(starts) * B, order), dtype=complex)
            rows = max(1, _ENTRIES // len(logn))
            for j in range(0, len(starts), rows):
                phases = np.exp(-1j * np.outer(starts[j:j + rows], logn))
                S[j * B:(j + rows) * B] = (phases @ fixed).reshape(-1, order)
            total += float(np.sum((post(ts, S[:len(ts)]) @ gw) * half[i:i + chunk]))
        return total

    coarse = run(panels)
    fine = run(2 * panels)
    scale = max(abs(fine), 1e-300)
    if abs(fine - coarse) > rel_tol * scale:
        raise QuadratureError(
            f"{what}: panel doubling moved the integral by "
            f"{abs(fine - coarse) / scale:.3g} relative (> {rel_tol:g})")
    return fine


# ---------------------------------------------------------------------------
# chi factor and approximate functional equation
# ---------------------------------------------------------------------------

def chi_factor(sigma: float, t: float, precision_bits: int = 128) -> mp.mpc:
    """chi(s) = pi^{1/2-s} Gamma(s/2) / Gamma((1-s)/2) via log-Gamma.

    Gamma(s/2) poles (s = 0, -2, ...) raise DomainError; Gamma((1-s)/2)
    poles (s = 1, 3, ...) are zeros of chi and return 0.
    """
    if t == 0 and sigma == int(sigma):
        si = int(sigma)
        if si <= 0 and si % 2 == 0:
            raise DomainError(f"chi pole at s = {si} (Gamma(s/2) pole)")
        if si >= 1 and si % 2 == 1:
            return mp.mpc(0)  # Gamma((1-s)/2) pole: chi vanishes
    with mp.workprec(precision_bits + 16):
        s = mp.mpc(sigma, t)
        half = mp.mpf(1) / 2
        return +mp.exp((half - s) * mp.log(mp.pi)
                       + mp.loggamma(s / 2) - mp.loggamma((1 - s) / 2))


@dataclass(frozen=True)
class AfeReport:
    """Residual of zeta(s) against its two-sum approximation."""

    sigma: float
    t: float
    L: int
    residual: float
    chi_ratio: float  # |chi(1-s)| / t^{sigma - 1/2}
    length_mode: str


def afe_residual(sigma: float, t: float, precision_bits: int = 128,
                 length_mode: str = "sqrt_t_over_2pi") -> AfeReport:
    """|zeta(s) - sum_{n<=L} n^{-s} - chi(1-s) sum_{n<=L} n^{s-1}|.

    Default L = floor(sqrt(t/(2 pi))) (the classical symmetric length);
    ``length_mode="sqrt_t"`` switches to L = floor(sqrt(t)).  Also records
    |chi(1-s)| / t^{sigma-1/2} as an order-of-magnitude diagnostic.
    """
    if t < 50:
        raise DomainError(f"t must be >= 50, got {t}")
    if not (0.5 <= sigma <= 1):
        raise DomainError(f"sigma must lie in [1/2, 1], got {sigma}")
    if length_mode == "sqrt_t_over_2pi":
        L = int(math.sqrt(t / (2 * math.pi)))
    elif length_mode == "sqrt_t":
        L = int(math.sqrt(t))
    else:
        raise DomainError(f"unknown length_mode {length_mode!r}")
    z = zeta_em(sigma, t, precision_bits)
    chi1s = chi_factor(1 - sigma, -t, precision_bits)
    with mp.workprec(precision_bits):
        s = mp.mpc(sigma, t)
        S1 = mp.fsum(mp.exp(-s * mp.log(n)) for n in range(1, L + 1))
        S2 = mp.fsum(mp.exp((s - 1) * mp.log(n)) for n in range(1, L + 1))
        residual = float(abs(z - S1 - chi1s * S2))
        ratio = float(abs(chi1s) / mp.mpf(t) ** (sigma - mp.mpf(1) / 2))
    return AfeReport(sigma=sigma, t=t, L=L, residual=residual,
                     chi_ratio=ratio, length_mode=length_mode)


# ---------------------------------------------------------------------------
# moment integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEstimate:
    """Dyadic 2k-th moment of |zeta| on [T, 2T] plus a growth-rate estimate."""

    k: int
    sigma: float
    T: float
    integral: float
    normalized: float      # integral / T
    mu_slope: float        # slope of log(normalized) across T, 2T, 4T

    def __post_init__(self):
        if self.integral < 0 or self.normalized < 0:
            raise DomainError("moments are non-negative")


# quadrature nodes x zeta cutoff over the three dyadic integrals, coarse and
# fine runs: 1.8e10 for moment_integral(1, 2, 1e5), which takes 7.7 s on a
# 2-CPU x86 host; at sigma <= 1 the cutoff t/4 makes it grow like T^2
MOMENT_COST_CAP = 2 * 10 ** 10
_MOMENT_ORDER = 8


def _moment_panels(k: int, sigma: float, T: float, panels: Optional[int]) -> int:
    # oscillation-sized panels; for sigma well above 1 the integrand's
    # amplitude-weighted frequency collapses and wider panels suffice
    width = 2 * math.pi / ((4 if sigma > 1.5 else 12) * k)
    return panels if panels is not None else max(8, int(T / width))


def _moment_dyadic(k: int, sigma: float, T: float, panels: Optional[int]) -> float:
    def series(ts: np.ndarray):
        w, logn, add_tail = _zeta_series(sigma, ts)
        return w, logn, lambda t, S: np.abs(add_tail(t, S)) ** (2 * k)

    return _panel_quadrature(series, T, 2 * T, _moment_panels(k, sigma, T, panels),
                             _MOMENT_ORDER, f"moment k={k} sigma={sigma}")


def moment_integral(k: int, sigma: float, T: float,
                    panels: Optional[int] = None) -> MomentEstimate:
    """int_T^{2T} |zeta(sigma+it)|^{2k} dt with panel-doubling self-check,
    normalised by T; mu_slope estimates the growth exponent from the dyadic
    integrals at T, 2T and 4T.

    Cost guard: T <= T_CAP_MOMENT, and quadrature nodes times zeta cutoff,
    summed over all six runs, at most MOMENT_COST_CAP = 2e10 (DomainError).
    """
    if not (1 <= k <= 6):
        raise DomainError(f"k must lie in [1, 6], got {k}")
    if not (0.5 <= sigma <= 3):
        raise DomainError(f"sigma must lie in [1/2, 3], got {sigma}")
    if not (1 < T <= T_CAP_MOMENT):
        raise DomainError(f"T must lie in (1, {T_CAP_MOMENT}] (cost guard), got {T}")
    if panels is not None and panels < 1:
        raise DomainError(f"panels must be >= 1, got {panels}")
    cost = sum(3 * _MOMENT_ORDER * _moment_panels(k, sigma, X, panels)
               * _zeta_cutoff(sigma, 2 * X)[0] for X in (T, 2 * T, 4 * T))
    if cost > MOMENT_COST_CAP:
        raise DomainError(
            f"moment k={k} sigma={sigma} T={T} needs ~{cost:.2g} quadrature "
            f"node x zeta term products, cost cap is {MOMENT_COST_CAP:.0e}")
    base = _moment_dyadic(k, sigma, T, panels)
    logs = [math.log(base / T)]
    for X in (2 * T, 4 * T):
        logs.append(math.log(_moment_dyadic(k, sigma, X, panels) / X))
    slope, _ = ols_slope([math.log(T), math.log(2 * T), math.log(4 * T)], logs)
    return MomentEstimate(k=k, sigma=sigma, T=T, integral=base,
                          normalized=base / T, mu_slope=slope)


# ---------------------------------------------------------------------------
# mean value theorem for Dirichlet polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MvtReport:
    N: int
    T: float
    coeff_mode: str
    lhs: float
    rhs: float
    ratio: float


MVT_RHS_BUDGET = 3.0  # engineering constant in sum |a_n|^2 (T + c n); recorded


def mvt_check(N: int, T: float, coeff_mode: str = "ones",
              dk_k: int = 3, seed: int = 1234) -> MvtReport:
    """Compare int_T^{2T} |sum_{n<=N} a_n n^{-it}|^2 dt against the
    mean-value budget sum |a_n|^2 (T + 3n).

    coeff_mode: "ones" (a_n = 1), "dk" (a_n = d_{dk_k}(n)), or "random"
    (seeded uniform in [0.5, 1.5)).  The budget constant 3 is an engineering
    allowance, not a sharp theorem constant.
    """
    if not (1 <= N <= 4096):
        raise DomainError(f"N must lie in [1, 4096], got {N}")
    if not (1 < T <= T_CAP_MOMENT):
        raise DomainError(f"T must lie in (1, {T_CAP_MOMENT}], got {T}")
    if coeff_mode == "ones":
        a = np.ones(N)
    elif coeff_mode == "dk":
        a = sieve.dk_block(dk_k, 1, N + 1).values.astype(float)
    elif coeff_mode == "random":
        a = np.random.default_rng(seed).uniform(0.5, 1.5, N)
    else:
        raise DomainError(f"unknown coeff_mode {coeff_mode!r}")
    n = np.arange(1, N + 1)
    logn = np.log(n)

    if N == 1:
        lhs = float(a[0] ** 2) * T  # constant integrand: exact
    else:
        width = 2 * math.pi / (10 * 2 * math.log(N))
        panels = max(8, int(T / width))
        lhs = _panel_quadrature(lambda ts: (a, logn, lambda t, S: np.abs(S) ** 2),
                                T, 2 * T, panels, 4, f"mvt N={N} T={T}")
    rhs = float(np.sum(a ** 2 * (T + MVT_RHS_BUDGET * n)))
    return MvtReport(N=N, T=T, coeff_mode=coeff_mode, lhs=lhs, rhs=rhs,
                     ratio=lhs / rhs)


def ell_fold_coefficients(N: int, ell: int) -> dict[int, int]:
    """Counts a_n = #{(n_1..n_ell): N < n_i <= 2N, prod n_i = n}.

    Exhaustive; supports the pointwise bound a_n <= d_ell(n) and the
    support-count bound #support <= N^ell.
    """
    if not (1 <= N <= 128 and 1 <= ell <= 4):
        raise DomainError("enumeration capped at N <= 128, ell <= 4")
    counts = {1: 1}
    for _ in range(ell):
        nxt: dict[int, int] = {}
        for m, c in counts.items():
            for q in range(N + 1, 2 * N + 1):
                key = m * q
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    return counts
