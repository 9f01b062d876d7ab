"""Remainder-term laboratory: exact Delta_k(x) samples, empirical exponent
fits, sign-change windows, mean squares, and comparison envelopes.

Sampling defaults to half-odd abscissae x = n + 1/2 (the summatory function
is locally constant there, so the remainder is smooth across the sample
point); any other x is accepted but flagged via ``half_odd=False``.

Exact summatory values come from ``sieve.dk_partial_sums`` (small tables
sieved to a bound y of its cost rule, floor-value sums above y); main terms
from the residue polynomials.  High-volume paths run in float64 with the
main-term polynomial coefficients rounded once: the mean square, streamed
over ``sieve.dk_blocks`` segments whose exact running sum must end at
D_k(floor x); the sign scan in rounds over blocks of points, each read on
from an exact D_k at its start.  Per-sample paths keep full mpmath precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from . import laurent, sieve
from .errors import (DomainError, PrecisionError, QuadratureError, RangeError, SelfCheckError,
                     SieveOverflowError, check_finite, check_integral, check_positive,
                     check_within)
from .numerics import ols_slope

MAIN_BITS_DEFAULT = 192


@dataclass(frozen=True)
class RemainderSample:
    """One (x, D_k(x), main term, Delta_k(x)) record."""

    k: int
    x: float
    D: int
    main: mp.mpf
    delta: float
    half_odd: bool


@dataclass(frozen=True)
class EnvelopeSet:
    """Comparison envelopes at (k, x); fields are None outside their domain."""

    k: int
    x: float
    conjecture: float
    omega_lower: Optional[float]
    thm1_upper: Optional[float]
    tong_window: float
    notes: dict


def delta_at(k: int, x: float, precision_bits: int = MAIN_BITS_DEFAULT) -> RemainderSample:
    """Delta_k(x) = D_k(floor x) - x P_{k-1}(log x), exactly-minus-smooth:
    the one-point ``delta_scan``."""
    return delta_scan(k, [x], precision_bits)[0]


def sample_from_D(k: int, x: float, D: int, bits: int) -> RemainderSample:
    """The sample at x from a known D = D_k(floor x), main term at ``bits``."""
    main = laurent.eval_main_term(laurent.main_term_poly(k, bits), x)
    with mp.workprec(bits):
        delta = float(D - main)
    return RemainderSample(k=k, x=float(x), D=D, main=main, delta=delta,
                           half_odd=math.isclose(x - math.floor(x), 0.5, abs_tol=1e-12))


def delta_scan(k: int, x_grid: Sequence[float],
               precision_bits: int = MAIN_BITS_DEFAULT) -> list[RemainderSample]:
    """Samples on a sorted grid of abscissae from one ``sieve.dk_partial_sums``
    call over the distinct floors n = floor(x) <= DESK_X_CAP, so x may reach
    just below DESK_X_CAP + 1."""
    xs = list(x_grid)
    if not all(a <= b for a, b in zip(xs, xs[1:])):  # a NaN fails a <= b
        raise DomainError("grid must be sorted")
    if not xs:
        return []
    if not (1 < xs[0] and xs[-1] < sieve.DESK_X_CAP + 1):  # floor(x) <= DESK_X_CAP
        bad = xs[-1] if 1 < xs[0] else xs[0]
        raise DomainError(f"x must lie in (1, {sieve.DESK_X_CAP + 1}), got {bad}")
    floors = [math.floor(x) for x in xs]
    uniq = sorted(set(floors))
    Dmap = dict(sieve.dk_partial_sums(k, uniq[-1], uniq))
    return [sample_from_D(k, x, Dmap[n], precision_bits)
            for x, n in zip(xs, floors)]


# ------------------------------------------------------------ exponent fit

def fit_exponent(samples: Sequence[RemainderSample],
                 drop_below: Optional[float] = None) -> tuple[float, float]:
    """Least-squares slope of log|delta| against log x.

    Samples with |delta| <= drop_below are discarded (they sit near sign
    changes and distort the log regression); the default threshold is
    1e-3 * median |delta|, and a given one must be finite.
    """
    deltas = [abs(s.delta) for s in samples]
    if drop_below is None:
        drop_below = 1e-3 * float(np.median(deltas)) if deltas else 0.0
    else:
        check_finite("drop_below", drop_below)
    kept = [s for s in samples if abs(s.delta) > drop_below]
    if len(kept) < 8:
        raise RangeError(
            f"need at least 8 samples above the drop threshold, have {len(kept)}")
    return ols_slope([math.log(s.x) for s in kept],
                     [math.log(abs(s.delta)) for s in kept])


# ------------------------------------------------------------ sign changes

# per point of a chunk of a round's blocks: the scan's arrays beside SEGMENT_BYTES
# (tracemalloc: about 66 B in a chunk of one segment; a full chunk, every window of
# sign_change_scan(2, 1.2, 1e6, 0.5) jumped, peaks at 5.1 MiB with its 4000 windows);
# per window of about k (X1^{1/k} - X0^{1/k}) / C + 1: the output at the peak of
# `signs --format json`, tuple, CLI row, JSON copy and text (1245 B; 310 B as CSV),
# which the scan's own window arrays and round state stay below
SCAN_BYTES_PER_POINT = 72
SCAN_BYTES_PER_WINDOW = 1280
TONG_C = 5.0  # C of the Tong window C x^{1-1/k}: the scan's default, envelopes' width
# the widest window the scan reads in its one block of narrow windows.  On a 2-CPU
# host a streamed entry cost about 48 ns (k = 2, its sign included) and a window of
# its own about 59 us (k = 2, the 345 windows of [2e4, 1e6]), some 1200 entries; the
# seed-1 perfbench scans moved by under 10% for SCAN_JUMP from 250 to 2000
SCAN_JUMP = 1000


def _horner(cs: list[float], t: np.ndarray, out: Optional[np.ndarray] = None):
    """sum c_j t^j in out (new if None) with the float ops of
    ``np.polynomial.polynomial.polyval`` (c_n + 0.0, then t p + c_j for j = n -
    1, ..., 0), so the bits are numpy's; a float for a constant without out."""
    if out is None:
        if len(cs) < 2:
            return cs[0] if cs else 0.0
        out = np.empty_like(t)
    out.fill(cs[-1] + 0.0)
    for c in cs[-2::-1]:
        out *= t
        out += c
    return out


def _remainder(D, y, coeffs: list[float], t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = D - y p(log y), p = sum c_j L^j by ``_horner``, in float64; t is
    scratch for log y.  The mean square and the sign scan evaluate the
    remainder only here."""
    np.log(y, out=t)
    _horner(coeffs, t, out)
    out *= y
    return np.subtract(D, out, out=out)


def _sign_budget(coeffs: list[float], x: float, D: int) -> float:
    """6k u (D + x S), with u = 2^-53, S = sum |c_j| L^j and L = log x: a bound
    on |fast - exact delta| at every point y in [1, x] (D, x, S grow with x).
    ``_remainder``'s fl(fl(D) - fl(x fl(p(fl(log x))))), p of degree n = k - 1, errs to
    first order by x S times u (float c_j), 4n u (numpy's log, taken within 2 ulp;
    NumPy's tests hold it to 1), 2n u (Horner, gamma_{2n} S: Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 5.1) and u (the product), plus u D
    (float(D), exact below 2^53).  The 4u x S left covers second-order terms and
    the rounding of both deltas to floats."""
    L = math.log(x)
    return 6 * len(coeffs) * 2.0 ** -53 * (D + x * sum(abs(c) * L ** j
                                                   for j, c in enumerate(coeffs)))


def _signs(k: int, cums: np.ndarray, xs: np.ndarray, coeffs: list[float],
           precision_bits: int) -> np.ndarray:
    """np.sign of Delta_k at the increasing points xs from their exact D_k (uint64
    cums): the float64 ``_remainder``, and ``sample_from_D`` where |delta| lies
    within the ``_sign_budget`` of the last (largest) point."""
    deltas = _remainder(cums, xs, coeffs, np.empty_like(xs), np.empty_like(xs))
    signs = np.sign(deltas)
    for e in np.flatnonzero(np.abs(deltas) <= _sign_budget(coeffs, xs[-1], int(cums[-1]))):
        signs[e] = np.sign(sample_from_D(k, xs[e], int(cums[e]), precision_bits).delta)
    return signs


def sign_change_scan(k: int, X0: float, X1: float, C: float = TONG_C,
                     precision_bits: int = MAIN_BITS_DEFAULT):
    """Scan windows [X, X + C*X^{1-1/k}] tiling [X0, X1] for sign changes of
    Delta_k at half-odd abscissae.

    Returns one (window_start, change_location) pair per window, where
    change_location is the left half-odd point of the first unit gap on
    which the sign flips, or None when the window shows no change (absence
    is data, not an error).  Localisation stops at unit intervals.

    The windows up to ``SCAN_JUMP`` points wide form one block, and each
    wider one (widths grow with X) a block of its own.  One
    ``sieve.dk_partial_sums`` call gives D_k exactly just before each block
    and at the last point, which must lie below 2^64.  Then every open
    block is sieved forward in one ``sieve.dk_blocks`` call per round: the
    narrow windows' block a segment per round, the others 32, 64, ... (at
    most a segment) points, until the first flip of its last window or its
    end.  A chunk's points are signed by ``_signs``, and one
    ``np.searchsorted`` maps its flips to their windows.  Memory is a
    chunk's working set plus the windows, and the budget charges both; the
    floor route holds its own tables within the budget.
    """
    if not (1 < X0 < X1 <= sieve.DESK_X_CAP):
        raise DomainError(f"need 1 < X0 < X1 <= {sieve.DESK_X_CAP}")
    check_positive("C", C)
    n_lo, n_hi = max(1, math.ceil(X0 - 0.5)), math.floor(X1 - 0.5)
    if n_hi - n_lo < 1:
        raise DomainError("range too narrow to hold two half-odd points")
    check_within("k", k, 1, sieve.DESK_K_CAP)
    windows = min(k * (X1 ** (1 / k) - X0 ** (1 / k)) / C + 1, 2.0 ** 53)
    sieve.check_budget("scan", n_hi, sieve.SEGMENT_BYTES + SCAN_BYTES_PER_WINDOW * int(windows)
                       + SCAN_BYTES_PER_POINT * min(n_hi - n_lo + 1, sieve.SEGMENT))
    wins, X = [], float(X0)  # (X, the window's end)
    while X < X1:
        width = C * X ** (1.0 - 1.0 / k)
        wins.append((X, min(X + width, X1)))
        X += width
    Xs, ends = (np.array(v) for v in zip(*wins))
    narrow = int(np.sum(C * Xs ** (1.0 - 1.0 / k) <= SCAN_JUMP))  # widths grow with X
    last = np.arange(max(narrow - 1, 0), len(wins))  # each block's last window
    # a block's points n + 1/2 lie in [X, x_end]: n from ceil(X - 1/2) to floor(x_end - 1/2)
    pos = np.ceil(Xs[np.r_[0, last[:-1] + 1]] - 0.5).astype(np.int64)  # its next point
    end = np.floor(ends[last] - 0.5).astype(np.int64)  # and its last
    pairs = pos < end  # the blocks of two points or more, whose starts strictly increase
    last, pos, end = last[pairs], pos[pairs], end[pairs]
    sums = sieve.dk_partial_sums(k, n_hi, [*(pos[pos > 1] - 1).tolist(), n_hi])
    if sums[-1][1] >= 1 << 64:
        raise SieveOverflowError(f"D_{k}({n_hi}) exceeds 2^64")
    D = np.zeros(len(pos), dtype=np.uint64)  # D_k(pos - 1), exact: D_k(n_hi) < 2^64
    D[pos > 1] = [d for _, d in sums[:-1]]
    prev = np.zeros(len(pos))  # the sign at pos - 1; 0 before a block's first point
    step = np.where(last < narrow, sieve.SEGMENT, 32)
    locs = np.full(len(wins), np.nan)  # each window's first flip, its left point
    coeffs = laurent.main_term_poly(k, precision_bits).as_floats()
    while len(pos):
        lens = np.minimum(end - pos + 1, step)
        for i, j, values in sieve.dk_blocks(k, pos, lens, n_hi + 1):
            ls = lens[i:j]
            heads = np.cumsum(ls) - ls
            cums = np.cumsum(values, out=values)  # wraps mod 2^64; the differences are exact
            done = np.zeros(len(ls), dtype=np.uint64)  # the chunk's sum before each block
            done[1:] = cums[heads[1:] - 1]
            cums += np.repeat(D[i:j] - done, ls)
            xs = np.repeat((pos[i:j] - heads).astype(np.float64), ls)
            xs += np.arange(len(xs)) + 0.5
            signs = _signs(k, cums, xs, coeffs, precision_bits)
            before = np.concatenate(([0.0], signs[:-1]))
            before[heads] = prev[i:j]
            lefts = xs[before * signs < 0] - 1.0  # a flip's left point, in increasing order
            # only the last window with X <= left can hold the pair (left, left + 1)
            w = np.searchsorted(Xs, lefts, side="right") - 1
            held = lefts + 1.0 <= ends[w]
            w, first = np.unique(w[held], return_index=True)
            locs[w] = np.fmin(locs[w], lefts[held][first])  # an earlier round's stays
            tails = heads + ls - 1
            D[i:j], prev[i:j] = cums[tails], signs[tails]
        pos += lens
        keep = (pos <= end) & np.isnan(locs[last])  # a flip in the last window ends a block
        last, pos, end, D, prev = last[keep], pos[keep], end[keep], D[keep], prev[keep]
        step = np.minimum(2 * step[keep], sieve.SEGMENT)
    return [(X, None if math.isnan(loc) else loc) for (X, _), loc in zip(wins, locs.tolist())]


# -------------------------------------------------------------- mean square

# units n < MS_SPLIT are cut into 2^i equal pieces, 2^i >= MS_SPLIT / n, so every
# piece has h / lo <= 1 / (2 MS_SPLIT); the relative budget of the proven error;
# pieces per cache-sized pass (32 KiB per float64 array); every MS_CHECK_STRIDE-th
# piece is re-integrated by MS_ORDER-node Gauss-Legendre on MS_PANELS and twice as
# many panels; the bytes charged per piece of a pass (tracemalloc: 101-133 B, k <= 30)
MS_SPLIT = 64
MS_BUDGET = 1e-6
MS_PASS = 1 << 12
MS_CHECK_STRIDE = 64
MS_ORDER = 6
MS_PANELS = 2
MS_BYTES_PER_PIECE = 136


def _taylor_polys(coeffs: list[float]) -> tuple[list, list]:
    """Coefficients in L of -Q_j / j! (trailing zeros dropped) and |Q_j| / j!,
    j = 1..5, where f^(j)(y) = y^{1-j} Q_j(log y) for f(y) = y p(log y): Q_0 = p,
    Q_{j+1} = (1 - j) Q_j + Q_j'.  Exact from the float c_j, rounded once."""
    q, signed = [Fraction(c) for c in coeffs], []
    for j in range(1, 6):
        q = [(2 - j) * c + (i + 1) * d for i, (c, d) in enumerate(zip(q, q[1:] + [0]))]
        signed.append([float(-c / math.factorial(j)) for c in q])
        while signed[-1] and not signed[-1][-1]:
            signed[-1].pop()
    return signed, [[abs(c) for c in row] for row in signed]


@functools.cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t in [-1, 1] and (node, 2) weights: MS_ORDER-node Gauss-Legendre on
    MS_PANELS and on 2 MS_PANELS equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(MS_ORDER)
    ps = (MS_PANELS, 2 * MS_PANELS)
    t = np.concatenate([(2 * np.arange(p)[:, None] + 1 + nodes).ravel() / p - 1 for p in ps])
    w = np.zeros((len(t), 2))
    coarse = MS_PANELS * MS_ORDER  # nodes of the coarse rule, which come first
    w[:coarse, 0], w[coarse:, 1] = (np.tile(weights, p) / p for p in ps)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _pieces(n: np.ndarray, D: np.ndarray, x: float):
    """(lo, h, D) of the units n cut into 2^i equal pieces, 2^i >= MS_SPLIT / n,
    and at x: exact, as the pieces are dyadic and x - lo is exact by Sterbenz."""
    p = (2 ** np.ceil(np.log2(-(-MS_SPLIT // n)))).astype(np.int64)
    unit = np.repeat(np.arange(len(n)), p)
    lo = n[unit] + (np.arange(len(unit)) - np.repeat(np.cumsum(p) - p, p)) / p[unit]
    hi = np.minimum(lo + 1.0 / p[unit], x)
    keep = lo < hi
    return lo[keep], (hi - lo)[keep] / 2, D[unit[keep]]


def _taylor_pass(lo: np.ndarray, h, D: np.ndarray, k: int, coeffs: list[float], polys,
                 first: int) -> tuple[float, float]:
    """(sum of the values, sum of their bounds) over the pieces [lo, lo + 2h] (h a
    float or one per piece), first, first + 1, ... of the range, where D_k = D.

    With m = lo + h, a = D - f(m) from ``_remainder`` and g_j = -f^(j)(m) / j!,
    a value is the integral of T^2, T the Taylor polynomial of D - f of degree 4,
    but for its h^6 and h^8 terms: 2h [a^2 + (2 a g_2 + g_1^2) h^2 / 3 + (2 a
    g_4 + 2 g_1 g_3 + g_2^2) h^4 / 5].  Its bound: with s = max h / lo, Lmax >=
    log of the top, |Q| the polynomial of |coefficients| (log y >= 0), G_j = max
    h s^{j-1} |Q_j|(Lmax) / j! >= |g_j| h^j and G = |a| + E + G_1 + ... + G_4 >=
    |T|, E the ``_sign_budget`` of a:
      - D - f = T + R, |R| <= rho = G_5, so int (D - f)^2 - int T^2 = int R (2 (D
        - f) - R) is at most (2 G + 3 rho) 2h rho / 6; the terms left out, at
        most 2h [(2 G_2 G_4 + G_3^2) / 7 + G_4^2 / 9];
      - E moves the value by at most 2h 2 E G, and the other roundings by 2h
        gamma G^2, gamma = (8k + 72) u, u = 2^-53, twice the first-order sum of
        the polynomials' (2u), log's (2 deg u, log within 2 ulp), Horner's
        (2 deg u), the powers' (6u), the form's (10u) and the pairwise sum's (22u);
      - a midpoint that rounds (the last piece of a fractional x): 2 u m (G + rho)^2.
    Every MS_CHECK_STRIDE-th piece of the range is integrated again on MS_PANELS
    and 2 MS_PANELS panels (``_gl_rule``, whose own error, of order (h / lo)^12 <=
    128^-12, is far below the bound, so more panels check nothing more); both must
    lie within the bound plus the rule's rounding, the same with E doubled (its
    nodes round).
    """
    u, array = 2.0 ** -53, np.ndim(h) > 0
    m = lo + h
    L = np.empty_like(m)
    a = _remainder(D, m, coeffs, L, np.empty_like(m))  # L = log m
    q1, q2, q3, q4 = (_horner(row, L) for row in polys[0][:4])
    r, hh = 1.0 / m, h * h
    z = hh * r * r
    value = 2 * h * (a * (a + hh * r * ((2 / 3) * q2 + 0.4 * z * q4))
                     + hh * (q1 * q1 / 3 + 0.2 * z * (2 * q1 * q3 + q2 * q2)))
    hmax, smax, hsum = (h.max(), (h / lo).max(), h.sum()) if array else (h, h / lo[0], h * len(m))
    top = float(lo[-1] + 2 * (h[-1] if array else h))
    E, Lmax = _sign_budget(coeffs, top, int(D[-1])), math.log(top) * (1 + 2.0 ** -50)
    G = [float(hmax * smax ** j) * sum(c * Lmax ** i for i, c in enumerate(row))
         for j, row in enumerate(polys[1])]
    rho, gamma, c = G[4], (8 * k + 72) * u, E + sum(G[:4])
    # 2h [G (2E + gamma G) + (2G + 3 rho) rho / 6 + ...] as a polynomial in |a|
    beta = (gamma, 2 * E + 2 * gamma * c + rho / 3, c * (2 * E + gamma * c)
            + (2 * c + 3 * rho) * rho / 6 + (2 * G[1] * G[3] + G[2] ** 2) / 7 + G[3] ** 2 / 9)
    ha = a * h
    bound = 2 * (beta[0] * float(ha @ a) + beta[1] * float(np.abs(ha).sum()) + beta[2] * hsum)
    if array and m[-1] - lo[-1] != h[-1]:
        bound += 2 * u * float(m[-1]) * (abs(float(a[-1])) + c + rho) ** 2
    # at most MS_PASS / MS_CHECK_STRIDE = 64 checked pieces of 3 MS_PANELS MS_ORDER
    # = 36 nodes each: 2304 nodes, fewer than the MS_PASS pieces of the pass
    t, w = _gl_rule()
    e = np.arange(-first % MS_CHECK_STRIDE, len(m), MS_CHECK_STRIDE)
    he, A = h[e] if array else np.full(len(e), h), np.abs(a[e])
    y = (m[e, None] + he[:, None] * t).ravel()
    gl = (_remainder(np.repeat(D[e], len(t)), y, coeffs, np.empty_like(y), np.empty_like(y))
          ** 2).reshape(len(e), len(t)) @ w * he[:, None]
    Gt = A + (c + rho + 2 * E)
    tol = 2 * he * ((beta[0] * A + beta[1]) * A + beta[2] + Gt * (4 * E + gamma * Gt))
    for i in np.flatnonzero(~(np.abs(gl - value[e, None]) <= tol[:, None]).all(axis=1))[:1]:
        left, right, coarse, fine, taylor = map(float, (lo[e[i]], m[e[i]] + he[i], *gl[i],
                                                        value[e[i]]))
        raise QuadratureError(
            f"mean-square self-check on [{left!r}, {right!r}]: Gauss-Legendre on "
            f"{MS_PANELS} and {2 * MS_PANELS} panels gives {coarse!r} and {fine!r}, the "
            f"Taylor value {taylor!r}, beyond its bound {tol[i]:.3g}")
    return float(value.sum()), bound


def mean_square(k: int, x: float, *, precision_bits: int = MAIN_BITS_DEFAULT) -> float:
    """||Delta_k(x)||_2 = ((1/x) int_1^x Delta_k(y)^2 dy)^{1/2}, within MS_BUDGET
    relative of its exact value for the main term at ``precision_bits``.

    On a unit [n, n + 1) (the last one [n, x]) D_k(n) is constant and y P(log y)
    smooth, so its integral is that of a squared Taylor polynomial about the
    midpoint, with a proven remainder (``_taylor_pass``; Davis and Rabinowitz,
    Methods of Numerical Integration, 2nd ed., ch. 2).  Units n < MS_SPLIT are
    cut into dyadic pieces first.  A sum of bounds, rounding included, above
    MS_BUDGET times the integral raises PrecisionError; below it the returned
    root errs by less than MS_BUDGET relative.  Every MS_CHECK_STRIDE-th piece is
    checked by Gauss-Legendre on MS_PANELS and twice as many panels.  k is
    capped at ``sieve.DESK_K_CAP``.

    It streams: one ``sieve.dk_partial_sums`` call proves D_k(floor x) < 2^64, and
    ``sieve.dk_blocks`` segments over [1, floor x] feed an exact uint64 running
    sum, which must end there; a pass of MS_PASS pieces is charged
    MS_BYTES_PER_PIECE each beside a segment.
    """
    if not 2 <= x <= 10 ** 7:
        raise DomainError(f"x must lie in [2, 1e7], got {x}")
    n_top = math.floor(x)
    sieve.check_budget("mean square", n_top, sieve.SEGMENT_BYTES + MS_BYTES_PER_PIECE * MS_PASS)
    D_top = sieve.dk_partial_sums(k, n_top, [n_top])[0][1]
    if D_top >= 1 << 64:
        raise SieveOverflowError(f"D_{k}({n_top}) exceeds 2^64")
    coeffs = laurent.main_term_poly(k, precision_bits).as_floats()
    polys, starts = _taylor_polys(coeffs), np.arange(1, n_top + 1, sieve.SEGMENT)
    values, bound, done, carry = [], 0.0, 0, np.uint64(0)
    for i, _, D in sieve.dk_blocks(k, starts, np.minimum(n_top + 1 - starts, sieve.SEGMENT),
                                   n_top + 1):
        np.cumsum(D, out=D)
        D += carry  # D_k(n) for the segment's n, exact as D_k(n_top) < 2^64
        n0, n1, carry = int(starts[i]), int(starts[i]) + len(D), D[-1]
        # the units below MS_SPLIT, those up to n_top - 1, and n_top, in order
        parts = [(n0, min(n1, MS_SPLIT)), (max(n0, MS_SPLIT), min(n1, n_top)),
                 (max(n0, MS_SPLIT, n_top), n1)]
        for part, (u0, u1) in enumerate(parts):
            if part == 1:  # whole units, one piece each
                lo, h, Du = np.arange(u0, u1, dtype=np.float64), 0.5, D[u0 - n0:u1 - n0]
            else:
                lo, h, Du = _pieces(np.arange(u0, u1), D[u0 - n0:u1 - n0], x)
            for a in range(0, len(lo), MS_PASS):
                v, b = _taylor_pass(lo[a:a + MS_PASS], h if part == 1 else h[a:a + MS_PASS],
                                    Du[a:a + MS_PASS], k, coeffs, polys, done)
                values.append(v)
                bound += b
                done += min(MS_PASS, len(lo) - a)
    if int(carry) != D_top:
        raise SelfCheckError(f"running sum of d_{k} ends at {int(carry)}, D_{k}({n_top}) = {D_top}")
    total = math.fsum(values)
    if not bound <= MS_BUDGET * total:
        raise PrecisionError(f"mean-square error bound {bound / total:.3g} relative "
                             f"exceeds MS_BUDGET = {MS_BUDGET:g}")
    return math.sqrt(total / x)


# --------------------------------------------------------------- envelopes

E_TRIPLE = math.exp(math.exp(math.e))  # iterated-log domain threshold

THM1_D = 1.224
THM1_SHIFT = 8.37
THM1_K_MIN = 30


def soundararajan_exponent2(k: int) -> float:
    """Second-factor exponent ((k+1)/(2k)) * (k^{2k/(k+1)} - 1) of ``envelopes``.

    The power is parenthesised as k^(2k/(k+1)); the choice is recorded in
    every EnvelopeSet's notes.
    """
    check_positive("k", k)
    return float(_envelope_exponents(check_integral("k", k))[3])


@functools.cache
def _envelope_exponents(k: int) -> tuple:
    """The exponents of ``envelopes`` that depend on k alone, at 40 digits:
    the conjecture's, the Tong window's, the omega envelope's three, and
    Theorem 1's (None below THM1_K_MIN)."""
    with mp.workdps(40):
        e2 = mp.mpf(k + 1) / (2 * k) * (mp.mpf(k) ** (mp.mpf(2 * k) / (k + 1)) - 1)
        thm1 = None
        if k >= THM1_K_MIN:
            thm1 = 1 - mp.mpf(THM1_D) * (k - mp.mpf(THM1_SHIFT)) ** (-mp.mpf(2) / 3)
        return (mp.mpf(1) / 2 - mp.mpf(1) / (2 * k), 1 - mp.mpf(1) / k,
                mp.mpf(k - 1) / (2 * k), e2, -mp.mpf(1) / 2 - mp.mpf(k - 1) / (4 * k),
                thm1)


def envelopes(k: int, x) -> EnvelopeSet:
    """Comparison envelopes at (k, x): the conjectured x^{1/2 - 1/(2k)}, the
    omega-result lower envelope, the k>=30 pointwise upper envelope with the
    published constants (1.224, 8.37), and the Tong window width TONG_C x^{1-1/k}.

    Values are computed in mpmath so astronomically large x (passed as mpf)
    stays finite; plain floats are returned where they fit.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    check_finite("k", k)
    if not x > 1:
        raise DomainError(f"x must exceed 1, got {x}")
    check_finite("x", x)
    k = check_integral("k", k)
    conj_exp, tong_exp, e1, e2, e3, thm1_exp = _envelope_exponents(k)
    with mp.workdps(40):
        xm = mp.mpf(x)
        conjecture = xm ** conj_exp
        tong = TONG_C * xm ** tong_exp
        omega = None
        if xm > E_TRIPLE:
            L1 = mp.log(xm)
            L2 = mp.log(L1)
            L3 = mp.log(L2)
            omega = (xm * L1) ** e1 * L2 ** e2 * L3 ** e3
        thm1 = None if thm1_exp is None else xm ** thm1_exp

        def out(v):
            if v is None:
                return None
            f = float(v)
            return f if math.isfinite(f) else v

        return EnvelopeSet(
            k=k, x=out(xm),
            conjecture=out(conjecture),
            omega_lower=out(omega),
            thm1_upper=out(thm1),
            tong_window=out(tong),
            notes={"soundararajan_exponent": "k^(2k/(k+1)) parenthesisation",
                   "thm1_constants": "published rounded values 1.224, 8.37"},
        )
