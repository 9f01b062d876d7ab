"""Remainder-term laboratory: exact Delta_k(x) samples, empirical exponent
fits, sign-change windows, mean squares, and comparison envelopes.

Sampling defaults to half-odd abscissae x = n + 1/2 (the summatory function
is locally constant there, so the remainder is smooth across the sample
point); any other x is accepted but flagged via ``half_odd=False``.

Exact summatory values come from the sieve; main terms from the residue
polynomials.  High-volume paths (mean square, scans) run in float64 with
the main-term polynomial coefficients rounded once; per-sample paths keep
full mpmath precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from . import laurent, sieve
from .errors import (DomainError, MemoryBudgetError, QuadratureError, RangeError,
                     SieveOverflowError)
from .numerics import ols_slope

MAIN_BITS_DEFAULT = 192

_poly_cache: dict[tuple[int, int], laurent.MainTermPoly] = {}


def _main_poly(k: int, bits: int = MAIN_BITS_DEFAULT) -> laurent.MainTermPoly:
    if (k, bits) not in _poly_cache:
        _poly_cache[k, bits] = laurent.main_term_poly(k, bits)
    return _poly_cache[k, bits]


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


def _is_half_odd(x: float) -> bool:
    return math.isclose(x - math.floor(x), 0.5, abs_tol=1e-12)


def delta_at(k: int, x: float, precision_bits: int = MAIN_BITS_DEFAULT) -> RemainderSample:
    """Delta_k(x) = D_k(floor x) - x P_{k-1}(log x), exactly-minus-smooth."""
    if not 1 < x <= sieve.DESK_X_CAP:
        raise DomainError(f"x must lie in (1, {sieve.DESK_X_CAP}], got {x}")
    n = math.floor(x)
    D = sieve.dk_partial_sums(k, n, [n]).checkpoints[0][1]
    return sample_from_D(k, x, D, precision_bits)


def sample_from_D(k: int, x: float, D: int, bits: int) -> RemainderSample:
    """The sample at x from a known D = D_k(floor x), main term at ``bits``."""
    poly = _main_poly(k, bits)
    main = laurent.eval_main_term(poly, x)
    with mp.workprec(bits):
        delta = float(D - main)
    return RemainderSample(k=k, x=float(x), D=D, main=main, delta=delta,
                           half_odd=_is_half_odd(x))


def delta_scan(k: int, x_grid: Sequence[float],
               precision_bits: int = MAIN_BITS_DEFAULT) -> list[RemainderSample]:
    """One streaming sieve pass servicing a sorted grid of abscissae."""
    xs = list(x_grid)
    if any(a > b for a, b in zip(xs, xs[1:])):
        raise DomainError("grid must be sorted")
    if not xs:
        return []
    if not (1 < xs[0] and xs[-1] <= sieve.DESK_X_CAP):
        raise DomainError("grid must lie in (1, desk cap]")
    floors = [math.floor(x) for x in xs]
    uniq = sorted(set(floors))
    series = sieve.dk_partial_sums(k, uniq[-1], uniq)
    Dmap = dict(series.checkpoints)
    return [sample_from_D(k, x, Dmap[n], precision_bits)
            for x, n in zip(xs, floors)]


# ------------------------------------------------------------ exponent fit

def fit_exponent(samples: Sequence[RemainderSample],
                 drop_below: Optional[float] = None) -> tuple[float, float]:
    """Least-squares slope of log|delta| against log x.

    Samples with |delta| <= drop_below are discarded (they sit near sign
    changes and distort the log regression); the default threshold is
    1e-3 * median |delta|.
    """
    deltas = [abs(s.delta) for s in samples]
    if drop_below is None:
        drop_below = 1e-3 * float(np.median(deltas)) if deltas else 0.0
    kept = [s for s in samples if abs(s.delta) > drop_below]
    if len(kept) < 8:
        raise RangeError(
            f"need at least 8 samples above the drop threshold, have {len(kept)}")
    return ols_slope([math.log(s.x) for s in kept],
                     [math.log(abs(s.delta)) for s in kept])


# ------------------------------------------------------------ sign changes

def _cumulative_D(k: int, n: int) -> np.ndarray:
    """D_k(1), ..., D_k(n) as uint64, from one d_k table over [1, n].

    Refuses a saturated table, and a cumulative sum that wrapped 64 bits:
    every d_k(m) is below 2^64, so a wrap shows as a step down.
    """
    block = sieve.dk_block(k, 1, n + 1)
    if block.overflow_flag:
        raise SieveOverflowError(f"d_{k} saturated below {n}")
    cums = np.cumsum(block.values, dtype=np.uint64)
    if np.any(cums[1:] < cums[:-1]):
        raise SieveOverflowError("cumulative sum wrapped 64 bits")
    return cums


# the scan's own int64/float64 arrays per point; tracemalloc puts a scan of
# [1e3, 1e6] at 72 B per point, 16 B of it the d_k table and its sums
SCAN_BYTES_PER_POINT = 56


def sign_change_scan(k: int, X0: float, X1: float, C: float = 5.0,
                     precision_bits: int = MAIN_BITS_DEFAULT):
    """Scan windows [X, X + C*X^{1-1/k}] tiling [X0, X1] for sign changes of
    Delta_k at half-odd abscissae.

    Returns one (window_start, change_location) pair per window, where
    change_location is the left half-odd point of the first unit gap on
    which the sign flips, or None when the window shows no change (absence
    is data, not an error).  Localisation stops at unit intervals.
    """
    if not (1 < X0 < X1 <= sieve.DESK_X_CAP):
        raise DomainError(f"need 1 < X0 < X1 <= {sieve.DESK_X_CAP}")
    if C <= 0:
        raise DomainError("C must be positive")
    n_hi = math.floor(X1 - 0.5)
    n_lo = max(1, math.ceil(X0 - 0.5))
    points = n_hi - n_lo + 1
    if points < 2:
        raise DomainError("range too narrow to hold two half-odd points")
    need = 16 * n_hi + SCAN_BYTES_PER_POINT * points  # + the d_k table and its sums
    if need > sieve.MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(f"scan up to {n_hi} needs ~{need >> 20} MiB, "
                                f"budget is {sieve.MEMORY_BUDGET_BYTES >> 20} MiB")
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    D = _cumulative_D(k, n_hi)[ns - 1].astype(np.float64)
    xs = ns.astype(np.float64) + 0.5
    coeffs = _main_poly(k, precision_bits).as_floats()
    mains = xs * np.polynomial.polynomial.polyval(np.log(xs), coeffs)
    deltas = D - mains
    signs = np.sign(deltas)

    out = []
    X = float(X0)
    while X < X1:
        width = C * X ** (1.0 - 1.0 / k)
        x_end = min(X + width, X1)
        i0 = np.searchsorted(xs, X, side="left")
        i1 = np.searchsorted(xs, x_end, side="right")
        location = None
        win = signs[i0:i1]
        flips = np.nonzero(win[:-1] * win[1:] < 0)[0]
        if len(flips):
            location = float(xs[i0 + flips[0]])
        out.append((X, location))
        X += width
    return out


# -------------------------------------------------------------- mean square

# nodes per quadrature chunk when the budget allows, and the float64 arrays
# alive per node (tracemalloc: ~62 B per node in mean_square(2, 1e6))
MS_NODES_PER_CHUNK = 1 << 22
MS_BYTES_PER_NODE = 64


def mean_square(k: int, x: float, panels_per_unit: int = 2,
                order: int = 6, precision_bits: int = MAIN_BITS_DEFAULT) -> float:
    """||Delta_k(x)||_2 = ((1/x) int_1^x Delta_k(y)^2 dy)^{1/2}.

    On each unit interval the integrand (D_k(n) - y P(log y))^2 is smooth,
    so composite Gauss-Legendre with ``panels_per_unit`` panels converges
    fast; the panel count is doubled once as a self-check (must agree to
    1e-6 relative).  The d_k table comes from ``sieve.dk_block``, so k is
    capped at ``sieve.DESK_K_CAP``.  The table (16 B per n) and the
    quadrature chunks (``MS_BYTES_PER_NODE`` per node, at most
    ``MS_NODES_PER_CHUNK`` nodes) are held to the memory budget.
    """
    if not 2 <= x <= 10 ** 7:
        raise DomainError(f"x must lie in [2, 1e7], got {x}")
    if panels_per_unit < 2:
        raise DomainError("panels_per_unit must be >= 2")
    n_top = math.floor(x)
    spare = sieve.MEMORY_BUDGET_BYTES - 16 * (n_top + 1)
    chunk_nodes = min(MS_NODES_PER_CHUNK, spare // MS_BYTES_PER_NODE)
    unit_nodes = 2 * panels_per_unit * order  # one unit interval, doubled panels
    if chunk_nodes < unit_nodes:
        need = 16 * (n_top + 1) + MS_BYTES_PER_NODE * unit_nodes
        raise MemoryBudgetError(f"mean square up to {n_top} needs ~{need >> 20} MiB, "
                                f"budget is {sieve.MEMORY_BUDGET_BYTES >> 20} MiB")
    Dfloat = _cumulative_D(k, n_top).astype(np.float64)
    coeffs = _main_poly(k, precision_bits).as_floats()

    def integral(ppu: int) -> float:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        total = 0.0
        chunk = chunk_nodes // (ppu * order)
        for n0 in range(1, n_top + 1, chunk):
            n1 = min(n0 + chunk, n_top + 1)
            lo = np.arange(n0, n1, dtype=np.float64)
            hi = np.minimum(lo + 1.0, x)
            offs = np.linspace(0.0, 1.0, ppu + 1)[:-1]
            width = (hi - lo) / ppu
            plo = lo[:, None] + offs[None, :] * (hi - lo)[:, None]
            half = 0.5 * width[:, None]
            mid = plo + half
            y = mid[:, :, None] + half[:, :, None] * nodes[None, None, :]
            yf = y.reshape(-1)
            delta = np.repeat(Dfloat[n0 - 1: n1 - 1], ppu * order) \
                - yf * np.polynomial.polynomial.polyval(np.log(yf), coeffs)
            vals = (delta ** 2).reshape(-1, order) @ weights
            total += float(np.sum(vals.reshape(len(lo), ppu) * half))
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
    """Second-factor exponent ((k+1)/(2k)) * (k^{2k/(k+1)} - 1).

    The power is parenthesised as k^(2k/(k+1)); the choice is recorded in
    every EnvelopeSet's notes.
    """
    return (k + 1) / (2.0 * k) * (float(k) ** (2.0 * k / (k + 1.0)) - 1.0)


def envelopes(k: int, x, C_tong: float = 5.0) -> EnvelopeSet:
    """Comparison envelopes at (k, x): the conjectured x^{1/2 - 1/(2k)}, the
    omega-result lower envelope, the k>=30 pointwise upper envelope with the
    published constants (1.224, 8.37), and the Tong window width C x^{1-1/k}.

    Values are computed in mpmath so astronomically large x (passed as mpf)
    stays finite; plain floats are returned where they fit.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if not x > 1:
        raise DomainError(f"x must exceed 1, got {x}")
    with mp.workdps(40):
        xm = mp.mpf(x)
        conjecture = xm ** (mp.mpf(1) / 2 - mp.mpf(1) / (2 * k))
        tong = C_tong * xm ** (1 - mp.mpf(1) / k)
        omega = None
        if xm > E_TRIPLE:
            L1 = mp.log(xm)
            L2 = mp.log(L1)
            L3 = mp.log(L2)
            e2 = mp.mpf(k + 1) / (2 * k) * (mp.mpf(k) ** (mp.mpf(2 * k) / (k + 1)) - 1)
            omega = ((xm * L1) ** (mp.mpf(k - 1) / (2 * k))
                     * L2 ** e2
                     * L3 ** (-mp.mpf(1) / 2 - mp.mpf(k - 1) / (4 * k)))
        thm1 = None
        if k >= THM1_K_MIN:
            thm1 = xm ** (1 - mp.mpf(THM1_D) * (k - mp.mpf(THM1_SHIFT)) ** (-mp.mpf(2) / 3))

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
