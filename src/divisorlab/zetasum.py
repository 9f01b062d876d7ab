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

Two evaluation tiers: ``zeta_em`` is the certified mpmath route (the
smallest cutoff M, about |t|/4 at large |t|, whose explicit Bernoulli tail
bound beats the target); quadrature-heavy
operations use a vectorised float64 route whose cutoffs were calibrated
against the certified one and whose results are guarded by panel-doubling
self-checks.  All evaluators are pure.

The mp sums (``exp_sum`` and ``expsum_bound_grid``, the direct part of
``zeta_em``, both sums of ``afe_residual``) share one kernel,
``_dirichlet_sum``: by complete multiplicativity, (mn)^{-s} = m^{-s} n^{-s},
it spends one complex exp per prime, made by the libmp calls of
mp.exp(-s * mp.log(p)) and so to the same bits, and one fixed-point complex
product per composite, within an error bound no larger than the direct
sum's.  One pass serves several ranges at one s, each the difference of
exact prefix sums, so a grid's N at one t share one table.

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
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Optional, Sequence

import mpmath as mp
from mpmath.libmp import from_int, mpc_exp, mpc_mul_mpf, mpf_log, round_nearest, to_fixed

from . import exponents
from .errors import (DomainError, PrecisionError, QuadratureError, check_finite, check_integral,
                     check_nonnegative, check_positive, check_within, plain_float)
from .numerics import ols_slope

# numpy is imported inside the float evaluators that use it, so the mpmath
# routes (exp_sum, zeta_em, chi_factor, afe_residual) run without it
if TYPE_CHECKING:
    import numpy as np

T_CAP_EXPSUM = 10 ** 12
T_CAP_ZETA = 10 ** 6
T_CAP_MOMENT = 10 ** 5
# summed terms per exp_sum call or expsum_bound_grid table: at the cap,
# exp_sum(2e5, 4e5, 1e12, 192) spends ~20 us of libmp log and exp on each of
# the 33860 primes up to 4e5 and ~1 us on each composite, ~1.1-1.3 s and
# ~50 MiB RSS on a 2-CPU x86 host
EXPSUM_TERMS_CAP = 2 * 10 ** 5
MIN_PRECISION_BITS = 53  # results are reported as float64; fewer bits lose digits


# ---------------------------------------------------------------------------
# the n^{-s} kernel
# ---------------------------------------------------------------------------

def _smallest_prime_factors(n: int) -> array:
    """spf[m] for m <= n: the smallest prime factor of a composite m, else 0.
    Larger p write first, so the smallest d >= 2 with d | m and d^2 <= m, a
    prime, writes last."""
    spf = array("I", [0]) * (n + 1)
    for p in range(math.isqrt(n), 1, -1):
        spf[p * p::p] = array("I", [p]) * ((n - p * p) // p + 1)
    return spf


def _power(neg_s, n: int, prec: int) -> tuple:
    """n^{-s} as an mpc tuple, neg_s = -s as one: the libmp calls of
    mp.exp(-s * mp.log(n)) at prec bits, rounded to nearest, without
    mpmath's object layer."""
    log_n = mpf_log(from_int(n), prec, round_nearest)
    return mpc_exp(mpc_mul_mpf(neg_s, log_n, prec, round_nearest), prec, round_nearest)


def _dirichlet_sum(s, ranges: Sequence[tuple[int, int]], precision_bits: int) -> list[mp.mpc]:
    """sum_{lo < n <= hi} n^{-s} for each (lo, hi) of ranges, rounded to p =
    precision_bits bits, in one pass by (mn)^{-s} = m^{-s} n^{-s} (Apostol,
    Introduction to Analytic Number Theory, 2.9).  With H the largest hi,
    entry n is a pair of ints E(n) ~ 2^wp n^{-s}, wp = p + 2 bitlen(H) + 8:
    a prime gets ``_power`` at P = wp + 8 bits, floored; a composite m the
    product of E(spf(m)) and E(m / spf(m)), floored by >> wp.  Entries up to
    H // 2 are kept.  The terms add up exactly into prefix sums over the
    ranges' union, and each range's sum is the difference of the prefix sums
    at its ends.  Under H / 8 summed terms the table costs more than it
    saves, so none is kept and each term gets its own ``_power``.

    Error, for Re s >= 0 (every caller), so |n^{-s}| <= 1.  Let E(n) =
    2^wp (n^{-s} + e_n), u = 2^-wp.  A prime's rounded log and product with
    s put its argument off by <= 2.01 |s| log p 2^-P (the phase error
    |t| log p 2^-P), the exp adds <= 4 2^-P and the floors < sqrt(2) u:
    |e_p| <= ((|s| log p + 1) / 64 + 1.5) u.  A product m = a b is off by
    <= |e_a| + |e_b| + |e_a e_b| + 1.5 u, so over the Omega(n) <= log2 n
    factors of n, with X = (|s| log n / 64 + 3.02 Omega(n)) u <= 1 (true for
    |s| < 2^p), |e_n| <= e^X - 1 <= 1.72 X <= (|s| log n / 32 + 6 log2 n) u.
    A range's integer sum S~ is exact, and its rounding adds <= 2^-p |S~|:

        |computed - S| <= 2^-p |S~| + (hi - lo)(|s| log hi / 32 + 6 log2 hi) 2^-wp,

    where 2^-wp < 2^-p / (256 hi^2).  A range that shares the pass with a
    larger hi gets a larger wp, so its bound is no larger than on its own.
    The direct sum pays the same final rounding and charges each term n >= 2
    at least (|s| log n + 1) 2^-p n^{-sigma}.  For hi < 2^42 the second part
    stays below that charge at n = hi when sigma <= 1 (exp_sum, afe_residual's
    second sum), and at n = 2 when lo = 0 and sigma <= 3 (zeta_em,
    afe_residual): the bound never exceeds the direct sum's.
    """
    top = max(hi for _, hi in ranges)

    def summed(a: int, b: int) -> bool:
        return any(lo <= a and b <= hi for lo, hi in ranges)
    ends = sorted({0, *chain.from_iterable(ranges)})
    terms = sum(b - a for a, b in zip(ends, ends[1:]) if summed(a, b))
    keep = top // 2 if 8 * terms >= top else 0
    ends = sorted({keep, *ends})
    wp = precision_bits + 2 * top.bit_length() + 8
    with mp.workprec(wp + 8):
        neg_s = (-mp.mpc(s))._mpc_
    spf = _smallest_prime_factors(top if keep else 0)
    re, im = [1 << wp] * (keep + 1), [0] * (keep + 1)
    sum_re = sum_im = 0
    prefix = {0: (0, 0)}
    for start, end in zip(ends, ends[1:]):
        add, store = summed(start, end), end <= keep
        for n in range(start + 1, end + 1) if add or store else ():
            p = spf[n] if keep else 0
            if p:
                a, b, m = re[p], im[p], n // p
                x = (a * re[m] - b * im[m]) >> wp
                y = (a * im[m] + b * re[m]) >> wp
            else:
                z = _power(neg_s, n, wp + 8)
                x, y = to_fixed(z[0], wp), to_fixed(z[1], wp)
            if store:
                re[n], im[n] = x, y
            if add:
                sum_re += x
                sum_im += y
        prefix[end] = sum_re, sum_im
    with mp.workprec(precision_bits):
        return [mp.mpc(mp.mpf((prefix[hi][0] - prefix[lo][0], -wp)),
                       mp.mpf((prefix[hi][1] - prefix[lo][1], -wp))) for lo, hi in ranges]


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


def _check_precision_bits(precision_bits: int, t: float = 0.0) -> int:
    """precision_bits as an int; DomainError unless it is a positive integer of
    at least MIN_PRECISION_BITS; a phase error t 2^-precision_bits of 1e-6 or
    more in a sum at height t raises PrecisionError before the floor is checked."""
    check_positive("precision_bits", precision_bits)
    precision_bits = check_integral("precision_bits", precision_bits)
    if t * 2.0 ** (-precision_bits) >= 1e-6:
        raise PrecisionError(
            f"phase error t*2^-p = {t * 2.0 ** (-precision_bits):.2e} too "
            f"large at {precision_bits} bits; raise precision_bits")
    if precision_bits < MIN_PRECISION_BITS:
        raise DomainError(f"precision_bits must be >= {MIN_PRECISION_BITS} (float64 "
                          f"results), got {precision_bits}")
    return precision_bits


def _check_expsum_t(t: float) -> None:
    if not (0 <= t <= T_CAP_EXPSUM):
        raise DomainError(f"t must lie in [0, 1e12], got {t}")


def _check_expsum_terms(terms: int) -> None:
    if terms > EXPSUM_TERMS_CAP:
        raise DomainError(f"{terms} summed terms exceed the cost cap of "
                          f"{EXPSUM_TERMS_CAP}")


def _check_expsum(N: int, N_prime: int, t: float, precision_bits: int) -> tuple[int, int, int]:
    """``exp_sum``'s checks; returns N, N_prime and precision_bits as ints."""
    if not (1 <= N < N_prime <= 2 * N):
        raise DomainError(f"need 1 <= N < N' <= 2N, got N={N}, N'={N_prime}")
    _check_expsum_t(t)
    _check_expsum_terms(N_prime - N)
    precision_bits = _check_precision_bits(precision_bits, t)
    return check_integral("N", N), check_integral("N_prime", N_prime), precision_bits


def exp_sum(N: int, N_prime: int, t: float, precision_bits: int = 128) -> ExpSumReport:
    """sum_{N < n <= N'} e^{-it log n} at precision_bits by ``_dirichlet_sum``."""
    N, N_prime, precision_bits = _check_expsum(N, N_prime, t, precision_bits)
    value, = _dirichlet_sum(complex(0, t), [(N, N_prime)], precision_bits)
    return _expsum_report(N, N_prime, t, value, precision_bits)


def _expsum_report(N: int, N_prime: int, t: float, value: mp.mpc,
                   precision_bits: int) -> ExpSumReport:
    with mp.workprec(precision_bits):
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
    omitted; nothing asymptotic is asserted, only ratios are recorded.  The
    whole table's terms are held to EXPSUM_TERMS_CAP, and every pair meets
    ``exp_sum``'s checks, before any is summed.  Each t takes one
    ``_dirichlet_sum`` pass over all of its N, so the table of n^{-it} up to
    its largest N is built once; the reports equal ``exp_sum``'s.
    """
    rows = []
    for t in t_list:
        _check_expsum_t(t)
        rows.append((t, [N for N in N_list if N <= math.isqrt(int(t))]))
    # an N < 1 adds no terms: exp_sum refuses it
    _check_expsum_terms(sum(max(N, 0) for _, Ns in rows for N in Ns))
    for N in N_list:  # a NaN N fails N <= isqrt(t), so it would pair with nothing
        check_integral("N", N)
    rows = [(t, [_check_expsum(N, 2 * N, t, precision_bits) for N in Ns]) for t, Ns in rows]
    return [_expsum_report(N, N2, t, value, bits)
            for t, pairs in rows if pairs
            for (N, N2, bits), value in zip(pairs, _dirichlet_sum(
                complex(0, t), [(N, N2) for N, N2, _ in pairs], pairs[0][2]))]


# ---------------------------------------------------------------------------
# certified Euler-Maclaurin zeta
# ---------------------------------------------------------------------------

def _em_cutoff(sigma: float, t: float, precision_bits: int) -> tuple[int, int]:
    """Cutoff M and Bernoulli-term count J of ``zeta_em``: for each J in
    8, 12, ..., 64 the smallest M whose remainder bound (Edwards, Riemann's
    Zeta Function, 1974, 6.4; valid for any M >= 1 when sigma > -2J-1)

        |R_J| <= |B_{2J+2}/(2J+2)!| |s(s+1)...(s+2J)| M^{-sigma-2J-1}
                 * |(s+2J+1)/(sigma+2J+1)|

    lies below tol = 2^{-(precision_bits//2)}, i.e. M = floor(X) + 1 with
    X = (c/tol)^{1/e}, c M^{-e} the bound, e = sigma + 2J + 1; the pair with
    the smallest M + J wins.  M is capped at max(8|t|, 256); a precision
    needing more raises PrecisionError.

    X is formed in floats, from |B_n|/n! = 2 zeta(n)/(2 pi)^n, n = 2J + 2:

        log X = (log 2 + log zeta(n) - n log 2 pi + L_n - log e
                 + (precision_bits//2) log 2) / e,

    L_n = sum_{i<n} log|s + i| a running float sum, the six terms summed by
    one ``fsum``.  Each log is off by at most 4u times its size plus 4u
    (u = 2^-53), L_n by a further n u A, A the sum of the terms' sizes at
    J = 64 (at least each J's), so X is off by less than 2^-50 (A + 1) X; the
    mp rule's own rounding is far smaller.  Where X (1 +- 2^-48 (A + 1))
    brackets no integer (the cap is one), floor(X) + 1 is the M that the mp
    rule finds.  Any other J takes that rule: c from mp.bernoulli,
    mp.factorial and the Pochhammer product at precision_bits + 32 bits, M
    from int(X) upwards while c M^{-e} >= tol.
    """
    M_cap = max(8 * math.ceil(abs(t)), 256)
    if sigma == 0 and t == 0:  # s = 0 makes every bound 0: M = 1 at the first J
        return 1, 8
    half = precision_bits // 2
    logs = [math.log(math.hypot(sigma + i, t)) for i in range(130)]
    L = list(accumulate(logs))
    A = (1 + 130 * math.log(2 * math.pi) + math.fsum(map(abs, logs)) + math.log(sigma + 129)
         + half * math.log(2))
    best, poch, i = None, mp.mpc(1), 0
    for J in range(8, 65, 4):
        n, e = 2 * J + 2, sigma + 2 * J + 1
        lx = math.fsum((math.log(2), math.log1p(math.fsum(k ** -n for k in range(2, 9))),
                        -n * math.log(2 * math.pi), L[n - 1], -math.log(e),
                        half * math.log(2))) / e
        X = math.exp(min(lx, 64.0))  # e^64 lies far above every cap
        lo, hi = X * (1 - 2 ** -48 * (A + 1)), X * (1 + 2 ** -48 * (A + 1))
        if lo >= M_cap:
            continue
        M = math.floor(lo) + 1
        if M <= hi:  # an integer lies within the margin: the mp rule decides
            with mp.workprec(precision_bits + 32):
                s, tol = mp.mpc(sigma, t), mp.mpf(2) ** -half
                while i < 2 * J + 1:
                    poch *= s + i
                    i += 1
                c = abs(mp.bernoulli(n)) / mp.factorial(n) * abs(poch) * abs(s + 2 * J + 1) / e
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


def zeta_em(sigma: float, t: float, precision_bits: int = 128) -> mp.mpc:
    """zeta(sigma + it) by Euler-Maclaurin at the smallest certified cutoff
    of ``_em_cutoff``: M direct terms and J Bernoulli correction terms, with
    a remainder below 2^{-precision_bits/2}.
    """
    check_within("sigma", sigma, 0, 3)
    if not abs(t) <= T_CAP_ZETA:
        raise DomainError(f"|t| capped at 1e6, got {t}")
    if sigma == 1 and t == 0:
        raise DomainError("pole at s = 1")
    precision_bits = _check_precision_bits(precision_bits)
    M, J = _em_cutoff(sigma, t, precision_bits)
    with mp.workprec(precision_bits + 32):
        s = mp.mpc(sigma, t)
        total, = _dirichlet_sum(s, [(0, M)], precision_bits + 32)
        Ms = mp.exp(-s * mp.log(M))
        total += M * Ms / (s - 1) - Ms / 2
        poch = s
        for j in range(1, J + 1):
            total += (mp.bernoulli(2 * j) / mp.factorial(2 * j) * poch
                      * Ms * mp.mpf(M) ** (-(2 * j - 1)))
            poch *= (s + 2 * j - 1) * (s + 2 * j)
        return +total


# ---------------------------------------------------------------------------
# fast float evaluators (calibrated against zeta_em; guarded by self-checks)
# ---------------------------------------------------------------------------

_ZETA_ABS_TOL = 1e-5  # the sigma > 1 cutoff M sizes its first Bernoulli term to this
_B2J = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _zeta_cutoff(sigma: float, t_max: float) -> tuple[int, int]:
    """Direct-sum cutoff M and Bernoulli-term count J of ``_zeta_series``."""
    if sigma > 1:
        return int(min(4096, max(256, (t_max / (12 * _ZETA_ABS_TOL)) ** (1.0 / (sigma + 1))))), 1
    return max(64, int(t_max / 4) + 1), 8


def _zeta_series(sigma: float, ts: np.ndarray):
    """Coefficients n^{-sigma} and log n for n <= M, and ``add_tail(ts, out)``
    adding the integral, half and Bernoulli tail terms to sums ``out`` in place.
    M follows the largest of ``ts``: sigma > 1: M ~ (t_max/(12 tol))^{1/(sigma+1)},
    one Bernoulli term; sigma <= 1: float Euler-Maclaurin with M = max(64,
    t_max/4) and 8 Bernoulli terms.  Absolute error against mp.zeta, at (sigma, t)
    and the most over t +- 50: 1.3e-2, 1.5e-2 at (1.05, 1e5), M capped at 4096;
    6.2e-4, 6.7e-4 at (1.5, 1e4); 2.6e-5, 9.8e-5 at (2, 1e4); 1.5e-5, 1.6e-5 at (0.5, 1e3).
    """
    import numpy as np
    M, J = _zeta_cutoff(sigma, float(ts.max(initial=1.0)))
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


_NODES_PER_CHUNK = 1 << 18  # GL nodes per chunk; the zeta cutoff follows each chunk
_ENTRIES = 1 << 19          # complex entries per phase matrix
_PANEL_REL_TOL = 0.01       # largest relative move under panel doubling


def _panel_quadrature(series, a: float, b: float, panels: int, order: int,
                      what: str) -> float:
    """int_a^b post(t, S(t)) dt, S(t) = sum_n w_n e^{-it log n}, by composite
    Gauss-Legendre on uniform panels with a panel-doubling self-check (see the
    module docstring).  ``series(ts)`` maps one chunk's nodes to
    ``(w, logn, post)``; ``post(ts, S)`` returns integrand values and may
    overwrite S.  A block of B panels shares one exp row e^{-i m log n}.
    """
    import numpy as np
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
    if abs(fine - coarse) > _PANEL_REL_TOL * scale:
        raise QuadratureError(
            f"{what}: panel doubling moved the integral by "
            f"{abs(fine - coarse) / scale:.3g} relative (> {_PANEL_REL_TOL:g})")
    return fine


# ---------------------------------------------------------------------------
# chi factor and approximate functional equation
# ---------------------------------------------------------------------------

def chi_factor(sigma: float, t: float, precision_bits: int = 128) -> mp.mpc:
    """chi(s) = pi^{1/2-s} Gamma(s/2) / Gamma((1-s)/2) via log-Gamma.

    Gamma(s/2) poles (s = 0, -2, ...) raise DomainError; Gamma((1-s)/2)
    poles (s = 1, 3, ...) are zeros of chi and return 0.
    """
    check_finite("sigma", sigma)
    check_finite("t", t)
    precision_bits = _check_precision_bits(precision_bits)
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
    sigma, t = plain_float(sigma), plain_float(t)
    if not t >= 50:
        raise DomainError(f"t must be >= 50, got {t}")
    check_finite("t", t)
    if not (0.5 <= sigma <= 1):
        raise DomainError(f"sigma must lie in [1/2, 1], got {sigma}")
    if length_mode == "sqrt_t_over_2pi":
        L = int(math.sqrt(t / (2 * math.pi)))
    elif length_mode == "sqrt_t":
        L = int(math.sqrt(t))
    else:
        raise DomainError(f"unknown length_mode {length_mode!r}")
    precision_bits = _check_precision_bits(precision_bits)
    z = zeta_em(sigma, t, precision_bits)
    chi1s = chi_factor(1 - sigma, -t, precision_bits)
    with mp.workprec(precision_bits):
        s = mp.mpc(sigma, t)
        S1, = _dirichlet_sum(s, [(0, L)], precision_bits)
        S2, = _dirichlet_sum(1 - s, [(0, L)], precision_bits)
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
    import numpy as np

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
    sigma, T = plain_float(sigma), plain_float(T)
    check_within("k", k, 1, 6)
    if not (0.5 <= sigma <= 3):
        raise DomainError(f"sigma must lie in [1/2, 3], got {sigma}")
    if not (1 < T <= T_CAP_MOMENT):
        raise DomainError(f"T must lie in (1, {T_CAP_MOMENT}] (cost guard), got {T}")
    if panels is not None:
        if panels < 1:
            raise DomainError(f"panels must be >= 1, got {panels}")
        panels = check_integral("panels", panels)
    cost = sum(3 * _MOMENT_ORDER * _moment_panels(k, sigma, X, panels)
               * _zeta_cutoff(sigma, 2 * X)[0] for X in (T, 2 * T, 4 * T))
    if cost > MOMENT_COST_CAP:
        raise DomainError(
            f"moment k={k} sigma={sigma} T={T} needs ~{cost:.2g} quadrature "
            f"node x zeta term products, cost cap is {MOMENT_COST_CAP:.0e}")
    k = check_integral("k", k)
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
    import numpy as np

    from . import sieve
    T = plain_float(T)
    check_within("N", N, 1, 4096)
    if not (1 < T <= T_CAP_MOMENT):
        raise DomainError(f"T must lie in (1, {T_CAP_MOMENT}], got {T}")
    N = check_integral("N", N)
    check_nonnegative("seed", seed)
    seed = check_integral("seed", seed)
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
    N, ell = check_integral("N", N), check_integral("ell", ell)
    counts = {1: 1}
    for _ in range(ell):
        nxt: dict[int, int] = {}
        for m, c in counts.items():
            for q in range(N + 1, 2 * N + 1):
                key = m * q
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    return counts
