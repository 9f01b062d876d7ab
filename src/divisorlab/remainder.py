"""Remainder-term laboratory: exact Delta_k(x) samples, empirical exponent
fits, sign-change windows, mean squares, and comparison envelopes.

Sampling defaults to half-odd abscissae x = n + 1/2 (the summatory function
is locally constant there, so the remainder is smooth across the sample
point); any other x is accepted but flagged via ``half_odd=False``.

Exact summatory values come from ``sieve.dk_partial_sums`` (small tables
sieved to a bound y of its cost rule, floor-value sums above y); main terms
from the residue polynomials.  High-volume paths run in float64 with the
main-term polynomial coefficients rounded once: the mean square over one
exact D_k table, the sign scan in rounds over blocks of points, each read on
from an exact D_k at its start.  Per-sample paths keep full mpmath precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from . import laurent, sieve
from .errors import (DomainError, QuadratureError, RangeError, SieveOverflowError, check_finite,
                     check_integral, check_positive, check_within)
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


def _remainder(D, y, coeffs: list[float], t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = D - y p(log y), p = sum c_j L^j, in float64 with the float ops of
    ``np.polynomial.polynomial.polyval`` (p = c_n + 0.0, then p = t p + c_j
    for j = n - 1, ..., 0), so the bits are numpy's; t is scratch for log y.
    The mean square and the sign scan evaluate the remainder only here."""
    np.log(y, out=t)
    out.fill(coeffs[-1] + 0.0)
    for c in coeffs[-2::-1]:
        out *= t
        out += c
    out *= y
    return np.subtract(D, out, out=out)


def _sign_budget(coeffs: list[float], x: float, D: int) -> float:
    """6k u (D + x S), with u = 2^-53, S = sum |c_j| L^j and L = log x: a bound
    on |fast - exact delta| at every half-odd point up to x (D, x, S grow with x).
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

# Gauss-Legendre nodes per panel, nodes per reduction group when the budget
# allows, nodes per cache-sized pass inside a group (256 KiB per float64
# array), and the bytes charged per node of a group: a pass's arrays take
# ~45 B per node and the group's panel 8 / MS_ORDER B (tracemalloc: 5.5 MiB
# at mean_square(2, 1e5), 0.8 MiB of it the float64 D table)
MS_ORDER = 6
MS_NODES_PER_CHUNK = 1 << 22
MS_NODES_PER_SUBCHUNK = 1 << 15
MS_BYTES_PER_NODE = 64


def mean_square(k: int, x: float, panels_per_unit: int = 2,
                precision_bits: int = MAIN_BITS_DEFAULT) -> float:
    """||Delta_k(x)||_2 = ((1/x) int_1^x Delta_k(y)^2 dy)^{1/2}.

    On each unit interval the integrand (D_k(n) - y P(log y))^2 is smooth,
    so composite Gauss-Legendre with ``panels_per_unit`` panels converges
    fast; the panel count is doubled once as a self-check (must agree to
    1e-6 relative), but no bound is proven: against an 80-bit reference the
    result errs by 1.3e-13 relative at (k, x) = (2, 1e6) and 1.4e-12 at (2,
    1e7).  k is capped at ``sieve.DESK_K_CAP``, as in the sieve.

    Nodes are summed in reduction groups of ``MS_NODES_PER_CHUNK`` nodes (or one
    unit's), fewer under the memory budget, each ending in one float sum over its
    (units, panels) array; inside a group the integrand is computed in
    cache-sized passes of about ``MS_NODES_PER_SUBCHUNK`` nodes, a multiple
    of 16 units, which give every node the bits one pass over the group
    would.  The D table and the groups (``MS_BYTES_PER_NODE`` per node) are
    held to the memory budget.

    The table is one ``sieve.dk_block`` over [1, x], summed in place in uint64
    (refused if flagged or wrapped) and cast in place to float64: 8 B per n.
    It is charged 16 B per n: the charge sets the group size under a tight
    budget, so lowering it would move the bits of a budget-bound run.
    """
    if not 2 <= x <= 10 ** 7:
        raise DomainError(f"x must lie in [2, 1e7], got {x}")
    if panels_per_unit < 2:
        raise DomainError("panels_per_unit must be >= 2")
    check_integral("panels_per_unit", panels_per_unit)
    n_top = math.floor(x)
    unit_nodes = 2 * panels_per_unit * MS_ORDER  # one unit interval, doubled panels
    sieve.check_budget("mean square", n_top, 16 * (n_top + 1) + MS_BYTES_PER_NODE * unit_nodes)
    chunk_nodes = min(MS_NODES_PER_CHUNK,
                      (sieve.MEMORY_BUDGET_BYTES - 16 * (n_top + 1)) // MS_BYTES_PER_NODE)
    block = sieve.dk_block(k, 1, n_top + 1)
    if block.overflow_flag:
        raise SieveOverflowError(f"d_{k} saturated below {n_top}")
    # unflagged, every d_k is exact and below 2^64, so a wrap steps down
    D = np.cumsum(block.values, out=block.values)
    if np.any(D[1:] < D[:-1]):
        raise SieveOverflowError("cumulative sum wrapped 64 bits")
    Dfloat = D.view(np.float64)
    Dfloat[:] = D  # cast in place, element by element: astype would hold a second table
    coeffs = laurent.main_term_poly(k, precision_bits).as_floats()

    def integral(ppu: int) -> float:
        nodes, weights = np.polynomial.legendre.leggauss(MS_ORDER)
        offs = np.linspace(0.0, 1.0, ppu + 1)[:-1]
        total = 0.0
        per = ppu * MS_ORDER  # nodes per unit
        chunk = max(1, chunk_nodes // per)  # units per reduction group
        sub = max(16, MS_NODES_PER_SUBCHUNK // per // 16 * 16)  # units per pass
        tiled = np.tile(nodes, min(sub, chunk) * ppu)
        bufs = [np.empty(len(tiled)) for _ in range(3)]  # y, log y, the integrand
        panels = np.empty((min(chunk, n_top), ppu))
        for n0 in range(1, n_top + 1, chunk):
            n1 = min(n0 + chunk, n_top + 1)
            panel = panels[:n1 - n0]
            for s0 in range(n0, n1, sub):
                s1 = min(s0 + sub, n1)
                y, t, sq = (b[:(s1 - s0) * per] for b in bufs)
                lo = np.arange(s0, s1, dtype=np.float64)
                width = np.minimum(lo + 1.0, x) - lo
                half = 0.5 * (width / ppu)
                mid = lo + offs[:, None] * width  # (ppu, units): long inner loops
                mid += half
                np.multiply(np.repeat(half, per), tiled[:len(y)], out=y)
                y += np.repeat(mid.T.ravel(), MS_ORDER)
                _remainder(np.repeat(Dfloat[s0 - 1: s1 - 1], per), y, coeffs, t, sq)
                vals = np.square(sq, out=sq).reshape(-1, MS_ORDER) @ weights
                np.multiply(vals.reshape(s1 - s0, ppu), half[:, None], out=panel[s0 - n0: s1 - n0])
            total += float(np.sum(panel))
        return total

    coarse = integral(panels_per_unit)
    fine = integral(2 * panels_per_unit)
    scale = max(abs(fine), 1e-300)
    if abs(fine - coarse) > 1e-6 * scale:
        raise QuadratureError(
            f"mean-square quadrature moved by {abs(fine - coarse) / scale:.3g} "
            "relative under panel doubling")
    return math.sqrt(fine / x)


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
    return float(_envelope_exponents(k)[3])


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
