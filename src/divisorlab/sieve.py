"""Exact d_k(n) blocks and partial sums D_k(x) at desk scale.

d_k on [1, hi) is built by k-1 successive Dirichlet convolutions with the
all-ones function.  Segment interaction scheme: each convolution level is
completed over the full base range [1, hi) before the next level starts
("level-complete sweeps"); any output segmentation is a view of a completed
level, so segmented results concatenate to the full-range result exactly.
Within one sweep the divisor loop is split into a per-divisor region and a
quotient-grouped region so the Python-level work is O(hi^{1/3}) slice adds.

Values are uint64 with saturation detection; partial sums accumulate in
Python integers (exact well past 128 bits).  Everything is deterministic:
repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import store
from .errors import DomainError, MemoryBudgetError, SieveOverflowError

DESK_X_CAP = 10 ** 9
DESK_K_CAP = 30
MEMORY_BUDGET_BYTES = 3 << 30

# d(n) <= 1344 for n <= 1e9, so one ones-convolution multiplies the maximum
# value by at most 1344 < 2^11; inputs below 2^52 therefore cannot saturate.
_SAFE_INPUT_MAX = 1 << 52
_OVERFLOW_SHADOW_LIMIT = float(1 << 62)


@dataclass(frozen=True)
class DivisorBlock:
    """Contiguous table of d_k(n) for n in [lo, hi); values[0] is n = lo."""

    k: int
    lo: int
    hi: int
    values: np.ndarray
    overflow_flag: bool

    def __post_init__(self):
        if len(self.values) != self.hi - self.lo:
            raise DomainError("value count does not match [lo, hi)")


@dataclass(frozen=True)
class PartialSumSeries:
    """Checkpointed partial sums: tuple of (x, D_k(x)) with exact integer D."""

    k: int
    checkpoints: tuple

    def __post_init__(self):
        ds = [d for _, d in self.checkpoints]
        if any(a >= b for a, b in zip(ds, ds[1:])):
            raise DomainError("partial sums must be strictly increasing")


def _ones_convolve(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """One Dirichlet convolution with 1: b[n] = sum_{d|n} a[d] on [1, len(a)].

    Index m-1 holds the value at integer m.  Returns (b, overflowed).
    """
    n = len(a)
    overflow_risk = bool(a.max(initial=0) >= _SAFE_INPUT_MAX)
    shadow = a.astype(np.float64) if overflow_risk else None
    b = a.copy()
    J = int((2 * max(n, 2)) ** (1.0 / 3.0)) + 1
    d_small_max = n // (J + 1)
    for d in range(1, d_small_max + 1):
        b[2 * d - 1::d] += a[d - 1]
        if overflow_risk:
            shadow[2 * d - 1::d] += shadow[d - 1]
    for j in range(2, J + 1):
        dlo = max(n // (j + 1) + 1, d_small_max + 1)
        dhi = n // j
        if dhi < dlo:
            continue
        for m in range(2, j + 1):
            b[m * dlo - 1: m * dhi: m] += a[dlo - 1: dhi]
            if overflow_risk:
                shadow[m * dlo - 1: m * dhi: m] += shadow[dlo - 1: dhi]
    overflowed = overflow_risk and bool(shadow.max() > _OVERFLOW_SHADOW_LIMIT)
    return b, overflowed


def _dk_table(k: int, n_max: int) -> tuple[np.ndarray, bool]:
    """d_k(n) for n in [1, n_max], via k-1 level-complete sweeps."""
    a = np.ones(n_max, dtype=np.uint64)
    overflowed = False
    for _ in range(k - 1):
        a, over = _ones_convolve(a)
        overflowed = overflowed or over
    return a, overflowed


def _check_caps(k: int, hi: int) -> None:
    if not (1 <= k <= DESK_K_CAP):
        raise DomainError(f"k must lie in [1, {DESK_K_CAP}], got {k}")
    if hi > DESK_X_CAP + 1:
        raise DomainError(f"range cap is {DESK_X_CAP}, requested up to {hi - 1}")
    need = 2 * 8 * hi  # two uint64 tables (input + output per sweep)
    if need > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"range [1, {hi}) needs ~{need >> 20} MiB, budget is "
            f"{MEMORY_BUDGET_BYTES >> 20} MiB")


def dk_block(k: int, lo: int, hi: int) -> DivisorBlock:
    """Exact d_k(n) for n in [lo, hi) (computed over the base range [1, hi))."""
    if not (1 <= lo < hi):
        raise DomainError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    _check_caps(k, hi)
    table, overflowed = _dk_table(k, hi - 1)
    return DivisorBlock(k=k, lo=lo, hi=hi, values=table[lo - 1: hi - 1].copy(),
                        overflow_flag=overflowed)


def _exact_sum_uint64(values: np.ndarray) -> int:
    """Exact integer sum of a uint64 array via 32-bit split, chunked so the
    partial sums cannot wrap."""
    total = 0
    mask = np.uint64(0xFFFFFFFF)
    for i in range(0, len(values), 1 << 20):
        chunk = values[i: i + (1 << 20)]
        lo = int(np.sum(chunk & mask, dtype=np.uint64))
        hi = int(np.sum(chunk >> np.uint64(32), dtype=np.uint64))
        total += lo + (hi << 32)
    return total


def dk_partial_sums(k: int, x_max: int, checkpoints) -> PartialSumSeries:
    """D_k at each checkpoint (sorted integers <= x_max), exactly."""
    cps = list(checkpoints)
    if any(a > b for a, b in zip(cps, cps[1:])):
        raise DomainError("checkpoints must be sorted")
    if not cps or cps[-1] > x_max or cps[0] < 1:
        raise DomainError("checkpoints must lie in [1, x_max]")
    _check_caps(k, x_max + 1)
    table, overflowed = _dk_table(k, x_max)
    if overflowed:
        raise SieveOverflowError(f"d_{k} saturated 64 bits below {x_max}")
    out = []
    acc = 0
    prev = 0
    for x in cps:
        acc += _exact_sum_uint64(table[prev:x])
        prev = x
        out.append((x, acc))
    return PartialSumSeries(k=k, checkpoints=tuple(out))


# ---------------------------------------------------------------- oracles

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def dk_factor(k: int, n: int) -> int:
    """d_k(n) from the factorisation: product of C(a_i + k - 1, k - 1).

    Trial division with a 2-3-5 wheel; independent of the sieve route.
    """
    if not (1 <= k <= DESK_K_CAP):
        raise DomainError(f"k must lie in [1, {DESK_K_CAP}], got {k}")
    if not (1 <= n <= 10 ** 12):
        raise DomainError(f"n must lie in [1, 1e12], got {n}")
    result = 1
    m = n
    for p in (2, 3, 5):
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            result *= math.comb(a + k - 1, k - 1)
    p = 7
    i = 0
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            result *= math.comb(a + k - 1, k - 1)
        p += _WHEEL[i]
        i = (i + 1) & 7
    if m > 1:
        result *= k
    return result


def d2_summatory_hyperbola(x: int) -> int:
    """D_2(x) = 2*sum_{m<=sqrt(x)} floor(x/m) - floor(sqrt(x))^2, exactly."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    r = math.isqrt(x)
    return 2 * sum(x // m for m in range(1, r + 1)) - r * r


# ------------------------------------------------------- checkpoint cache

def save_checkpoints_csv(path, series: PartialSumSeries) -> None:
    """Chained checksummed-row CSV (k, count, x, D_k), written atomically;
    wide D in decimal.  The row count catches a file cut short."""
    n = len(series.checkpoints)
    store.write_rows(path, "k,count,x,D",
                     ((series.k, n, x, d) for x, d in series.checkpoints), chained=True)


def load_checkpoints_csv(path):
    """Reload a checkpoint cache; returns None when the file is missing or
    any row is corrupted, missing, extra or out of place."""
    got = store.read_rows(path, chained=True)
    if got is None:
        return None
    rows, rejected = got
    try:
        table = [tuple(map(int, row)) for row in rows]
        k, count = table[0][:2]
        cps = tuple((x, d) for _, _, x, d in table)
    except (ValueError, IndexError):
        return None
    if rejected or count != len(cps):
        return None
    return PartialSumSeries(k=k, checkpoints=cps)
