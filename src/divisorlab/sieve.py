"""Exact d_k(n) blocks and partial sums D_k(x) at desk scale.

Blocks come from one segmented multiplicative sieve (after Bays and Hudson,
BIT 17, 1977): each segment of SEGMENT entries of [lo, hi) strips the
exponents a_p of every n with the primes p <= sqrt(hi - 1) and sets
d_k(n) = prod_p C(a_p + k - 1, k - 1), times k where a prime cofactor is
left.  A block costs only its own range, whatever k is.  One kernel does it
in four steps (``_dk_segments``):
  - Wheel (Pritchard, Acta Inform. 17, 1982): a segment starts from the
    pattern of the period WHEEL = 2^5 3^2 5 7, rotated to s mod WHEEL, which
    holds the factor, the stripped product and the log2 sum of the prime
    powers dividing WHEEL.
  - Strided slices: one multiply per higher power of 2, 3, 5 and 7, and per
    prime power up to STRIDE_MAX, on its multiples.
  - Batched scatter: the larger prime powers touch few entries each, so one
    index build per exponent level (in pieces of about SCATTER_PIECE
    indices) and unbuffered ``ufunc.at`` calls strike them all.
  - Cofactor: v *= cofactor (k - 1) + 1, without a masked (branchy) ufunc.

Partial sums take one exact route with a parameter y, isqrt(max x) <= y <=
max x, that a cost rule picks (``_floor_bound``).  Checkpoints up to y come
from one streaming pass of the sieve in O(SEGMENT) memory; each larger one
from the hyperbola identity over the floor values {x // b} (Lagarias, Miller
and Odlyzko, Math. Comp. 44, 1985; Deleglise and Rivat, Experiment. Math. 5,
1996), level by level in int64, with d_j and D_j sieved on [0, y].  At y =
isqrt(x) only floor values are paired, at y = max x only the sieve runs.

Values are uint64; a segment is flagged as overflowed when a float log2 sum
of the factors exceeds OVERFLOW_LOG2 = 63, a 2x margin below 2^64.  Partial
sums are exact Python integers.  Repeated runs are byte-identical.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MemoryBudgetError, SieveOverflowError, check_finite

DESK_X_CAP = 10 ** 9
DESK_K_CAP = 30
MEMORY_BUDGET_BYTES = 3 << 30

SEGMENT = 1 << 16
# one segment's working set (values, stripped prime products, log2 sums,
# their temporaries, the wheel pattern and the prime table); tracemalloc
# measures 36.5 B per entry in a streaming pass to 1e6, 37.5 near 1e9
SEGMENT_BYTES = 48 * SEGMENT
OVERFLOW_LOG2 = 63
# the wheel period 2^5 3^2 5 7, prime powers up to STRIDE_MAX struck by
# strided slices, and the indices of one batched scatter piece
WHEEL = 10080
WHEEL_EXPONENTS = ((2, 5), (3, 2), (5, 1), (7, 1))
STRIDE_MAX = 64
SCATTER_PIECE = 1 << 13


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


def _primes_upto(m: int) -> np.ndarray:
    """The primes <= m (int64), by the sieve of Eratosthenes."""
    is_prime = np.ones(m + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    return np.flatnonzero(is_prime)


def _wheel_classes() -> np.ndarray:
    """The class of each residue n mod WHEEL: the row of CLASS_EXPONENTS
    that holds (e_2, e_3, e_5, e_7), e_p = min(a_p, the wheel's exponent)."""
    cls = np.zeros(WHEEL, dtype=np.intp)
    for p, e in WHEEL_EXPONENTS:
        cls *= e + 1
        for a in range(1, e + 1):
            cls[::p ** a] += 1
    return cls


WHEEL_CLASS = _wheel_classes()
# each class's exponents (e_2, e_3, e_5, e_7), at most 5, and stripped product;
# stripped products divide n <= DESK_X_CAP < 2^32, so they fit uint32
CLASS_EXPONENTS = np.array(list(itertools.product(*(range(e + 1) for _, e in WHEEL_EXPONENTS))))
CLASS_STRIPPED = np.prod(np.array([p for p, _ in WHEEL_EXPONENTS]) ** CLASS_EXPONENTS,
                         axis=1).astype(np.uint32)


@functools.cache
def _factors(k: int):
    """C(a + k - 1, k - 1) and the step of its log2 from a - 1 to a, for
    a < 64 (a_p <= log2(hi - 1) < 30); each wheel class's factor and log2.
    Cached per k, so all of it is read-only."""
    binom = tuple(math.comb(a + k - 1, k - 1) for a in range(64))
    log2_binom = [math.log2(c) for c in binom]
    dlog = (0.0, *(b - a for a, b in zip(log2_binom, log2_binom[1:])))
    class_v = np.prod(np.array(binom[:6], dtype=np.uint64)[CLASS_EXPONENTS], axis=1)  # e_p <= 5
    class_lg = np.array(log2_binom[:6])[CLASS_EXPONENTS].sum(axis=1)
    class_v.flags.writeable = class_lg.flags.writeable = False
    return binom, dlog, class_v, class_lg


def _wheel_pattern(lo: int, span: int, class_v: np.ndarray, class_lg: np.ndarray):
    """(v, stripped, lg) of n = lo, ..., lo + span - 1 with only the prime
    powers dividing WHEEL stripped."""
    cls = _rotate(WHEEL_CLASS, lo % WHEEL, span)
    return class_v[cls], CLASS_STRIPPED[cls], class_lg[cls]


def _rotate(pattern: np.ndarray, r: int, n: int) -> np.ndarray:
    """pattern[(r + i) % len(pattern)] for i < n."""
    out = np.empty(n, dtype=pattern.dtype)
    head = min(n, len(pattern) - r)
    out[:head] = pattern[r:r + head]
    for pos in range(head, n, len(pattern)):
        out[pos:pos + len(pattern)] = pattern[:min(n - pos, len(pattern))]
    return out


def _plan(primes: np.ndarray, hi: int):
    """Split the prime powers p^a < hi beyond the wheel between the strides
    and the scatter.  Strided: 2, 3, 5 and 7 (all higher powers) and the
    p^a <= STRIDE_MAX.  Scattered: the rest, in pieces (a, p, p^a) of one
    level a with fewer than SCATTER_PIECE + SEGMENT // STRIDE_MAX multiples
    in any segment.  Levels ascend, so a_p reaches a - 1 before a."""
    strided = [(p, a) for p, e in WHEEL_EXPONENTS for a in range(e + 1, hi.bit_length())
               if p ** a < hi]
    w = len(WHEEL_EXPONENTS)  # primes[w] = 11, the first prime past the wheel
    small = int(np.searchsorted(primes, STRIDE_MAX, side="right"))
    strided += [(p, 1) for p in primes[w:small].tolist()]
    pieces = []
    for a in range(1, hi.bit_length()):
        if a > 1 and 11 ** a >= hi:
            break
        r = round((hi - 1) ** (1 / a))  # then the largest r with r^a < hi
        r -= r ** a >= hi
        r += (r + 1) ** a < hi
        ps = primes[small if a == 1 else w:np.searchsorted(primes, r, side="right")]
        if len(ps):
            qs = ps ** a
            ends = np.cumsum(SEGMENT // qs + 1)  # multiples of q in a segment, at most
            cuts = np.searchsorted(ends, np.arange(SCATTER_PIECE, ends[-1], SCATTER_PIECE)).tolist()
            pieces += [(a, ps[i:j].astype(np.uint32), qs[i:j])
                       for i, j in zip([0, *cuts], [*cuts, len(ps)])]
    return strided, pieces


def _strike(seg, s: int, p: int, a: int, binom, dlog) -> None:
    """Raise a_p from a - 1 to a on the multiples of p^a in the segment seg =
    (v, stripped, lg) of n = s, s + 1, ..."""
    q = p ** a
    first = -s % q
    if first < len(seg[0]):
        v, stripped, lg = seg[0][first::q], seg[1][first::q], seg[2][first::q]
        if a > 1:
            v //= binom[a - 1]
        v *= binom[a]
        lg += dlog[a]
        stripped *= p


def _scatter(seg, s: int, a: int, ps: np.ndarray, qs: np.ndarray, binom, dlog) -> None:
    """Raise a_p from a - 1 to a on the multiples of every q = p^a of one
    piece in the segment seg of n = s, s + 1, ...  The unbuffered ufunc.at
    applies an index as often as it repeats (n divisible by two such q)."""
    v, stripped, lg = seg
    first = -s % qs
    cnt = (len(v) - 1 - first) // qs + 1  # >= 0, as first < q
    ends = np.cumsum(cnt)
    if not ends[-1]:
        return
    # the j-th index of the piece is first + (j - head) q, head = ends - cnt
    idx = np.repeat(first - (ends - cnt) * qs, cnt) + np.arange(ends[-1]) * np.repeat(qs, cnt)
    if a > 1:
        np.floor_divide.at(v, idx, np.uint64(binom[a - 1]))
    np.multiply.at(v, idx, np.uint64(binom[a]))
    np.add.at(lg, idx, np.float64(dlog[a]))
    np.multiply.at(stripped, idx, np.repeat(ps, cnt))


def _finish(k: int, s: int, seg, strided, pieces, binom, dlog):
    """(d_k values, overflowed) of the segment seg = (v, stripped, lg) of
    n = s, s + 1, ..., which holds the wheel pattern: strike the other
    prime powers, then multiply by k where a prime cofactor is left."""
    for p, a in strided:
        _strike(seg, s, p, a, binom, dlog)
    for a, ps, qs in pieces:
        _scatter(seg, s, a, ps, qs, binom, dlog)
    v, stripped, lg = seg
    cofactor = stripped < np.arange(s, s + len(v), dtype=np.uint32)
    v *= cofactor * np.uint8(k - 1) + np.uint8(1)
    # log2 d_k(n) is lg, plus log2 k at a cofactor
    over = (lg > OVERFLOW_LOG2 - dlog[1]) & cofactor | (lg > OVERFLOW_LOG2)
    return v, bool(over.any())


def _dk_segments(k: int, lo: int, hi: int):
    """Yield (start, d_k values, overflowed) for each segment of [lo, hi).

    Stripping 2, 3, 5, 7 and the primes p <= sqrt(hi - 1) from n leaves
    n / stripped = 1 or one prime above them, so stripped < n marks a prime
    cofactor.

    In a segment that is not flagged every product and quotient is exact
    in uint64 (C(a + k - 1, k - 1) grows with a, so every partial product
    is at most d_k(n) <= 2^63), and their order does not matter.  The flag
    sums log2 factors in float: lg of n has at most 35 terms below 64 (4
    from the wheel class, one per exponent step beyond it, at most 29 for
    n <= DESK_X_CAP), each off by at most 3 ulp at 64 and each addition by
    half an ulp, so |lg - log2 d_k(n)| < 35 * 3.5 * 2^-46 < 2e-12.  No
    n <= DESK_X_CAP and k <= DESK_K_CAP has log2 d_k(n) within 1.16e-3 of
    OVERFLOW_LOG2 (``test_overflow_flag_is_exact``), so in any order of
    summation the flag is the exact test d_k(n) > 2^OVERFLOW_LOG2.
    """
    binom, dlog, class_v, class_lg = _factors(k)
    strided, pieces = _plan(_primes_upto(math.isqrt(hi - 1)), hi)
    # one period of the wheel pattern from n = lo on, or [lo, hi) if shorter
    pattern = _wheel_pattern(lo, min(WHEEL, hi - lo), class_v, class_lg)
    for s in range(lo, hi, SEGMENT):
        yield s, *_finish(k, s, tuple(_rotate(x, (s - lo) % WHEEL, min(SEGMENT, hi - s))
                                      for x in pattern), strided, pieces, binom, dlog)


def _check_caps(k: int, hi: int, table_bytes: int) -> None:
    """Refuse k or hi beyond the caps, or table_bytes plus a segment over budget."""
    if not (1 <= k <= DESK_K_CAP):
        raise DomainError(f"k must lie in [1, {DESK_K_CAP}], got {k}")
    if hi > DESK_X_CAP + 1:
        raise DomainError(f"range cap is {DESK_X_CAP}, requested up to {hi - 1}")
    need = table_bytes + SEGMENT_BYTES
    if need > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"range up to {hi - 1} needs ~{need >> 20} MiB, budget is "
            f"{MEMORY_BUDGET_BYTES >> 20} MiB")


def dk_block(k: int, lo: int, hi: int) -> DivisorBlock:
    """Exact d_k(n) for n in [lo, hi), sieved over [lo, hi) alone."""
    if not (1 <= lo < hi):
        raise DomainError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    _check_caps(k, hi, 8 * (hi - lo))
    values = np.empty(hi - lo, dtype=np.uint64)
    overflowed = False
    for s, seg, over in _dk_segments(k, lo, hi):
        values[s - lo: s - lo + len(seg)] = seg
        overflowed = overflowed or over
    return DivisorBlock(k=k, lo=lo, hi=hi, values=values, overflow_flag=overflowed)


def dk_cumulative_segments(k: int, n_hi: int):
    """Yield (start, uint64 D_k from start on) per segment of [1, n_hi]; refuses a
    flagged segment and a 64-bit wrap (each d_k(m) < 2^64: a wrap steps down)."""
    _check_caps(k, n_hi + 1, 0)
    carry = np.uint64(0)
    for s, seg, over in _dk_segments(k, 1, n_hi + 1):
        if over:
            raise SieveOverflowError(f"d_{k} saturated below {n_hi}")
        cums = np.cumsum(seg, out=seg)
        cums += carry
        if cums[0] < carry or np.any(cums[1:] < cums[:-1]):
            raise SieveOverflowError("cumulative sum wrapped 64 bits")
        carry = cums[-1]
        yield s, cums


def _exact_sum_uint64(values: np.ndarray) -> int:
    """Exact integer sum of fewer than 2^32 uint64 values via a 32-bit split:
    neither half's sum can wrap."""
    lo = int(np.sum(values & np.uint64(0xFFFFFFFF), dtype=np.uint64))
    hi = int(np.sum(values >> np.uint64(32), dtype=np.uint64))
    return lo + (hi << 32)


def _sieved_sums(k: int, cps: list[int]) -> tuple:
    """(x, D_k(x)) at the sorted checkpoints from one streaming sieve pass."""
    out, acc, i = [], 0, 0
    for s, seg, over in _dk_segments(k, 1, cps[-1] + 1):
        if over:
            raise SieveOverflowError(f"d_{k} may exceed 2^{OVERFLOW_LOG2} below {cps[-1] + 1}")
        done = 0
        while i < len(cps) and cps[i] < s + len(seg):
            end = cps[i] - s + 1
            acc += _exact_sum_uint64(seg[done:end])
            done = end
            out.append((cps[i], acc))
            i += 1
        acc += _exact_sum_uint64(seg[done:])
    return tuple(out)


# --------------------------------------------------- floor-value route

# bytes a (b, m) pair holds alive (tracemalloc: 35-44 B), and the cost rule in
# sieved entries of 33-41 ns on a 2-CPU host: a pair-level takes 6-7.5 ns and a
# checkpoint above y about 30 us per level k of fixed numpy calls
PAIR_BYTES = 48
PAIR_COST = 0.18
POINT_COST = 800


def _pairs(c: int, y: int, b0: int, r: np.ndarray):
    """The pairs (b, m) with b0 <= b < b0 + len(r) and m <= r_b, grouped by b:
    group starts, m, q = c // (bm), the pairs with q > y and their bm - 1."""
    starts = np.cumsum(r) - r
    m = np.arange(int(starts[-1] + r[-1]), dtype=np.int64) - np.repeat(starts - 1, r)
    bm = np.repeat(np.arange(b0, b0 + len(r), dtype=np.int64), r) * m
    q = c // bm
    big = np.flatnonzero(q > y)
    return starts, m, q, big, bm[big] - 1


def _level(j: int, D, d, level, r, starts, m, q, big, at) -> np.ndarray:
    """D_j(c // b) for a chunk of b by the hyperbola identity
    sum_{m <= r_b} [D_{j-1}(c // bm) + d_{j-1}(m) (c // bm)] - r_b D_{j-1}(r_b),
    2 sum q - r_b^2 at j = 2 (D_1(q) = q).  Above, D_{j-1}(q) is read in place:
    from the table if q <= y, else from level j - 1 at b' = bm (q > y means
    bm <= B, and c // bm = q)."""
    if j == 2:
        return 2 * np.add.reduceat(q, starts) - r * r
    vals = D[j - 3].take(q, mode="clip")
    vals[big] = level[j - 3][at]
    vals += d[j - 3][m] * q
    out = np.add.reduceat(vals, starts)
    out -= r * D[j - 3][r]
    return out


def _floor_dk(k: int, c: int, y: int, d: np.ndarray, D: np.ndarray, chunk: int) -> int:
    """D_k(c), c > y, over the floor values c // b, level by level for j = 2..k.

    Row j - 2 of the level table holds D_j(c // b) at b - 1 for the b <= B =
    c // (y + 1), exactly those with c // b > y.  D_j(c // b) reads level
    j - 1 only at b' = bm >= b, so chunks of about ``chunk`` >= isqrt(c)
    pairs (no group of r_b <= isqrt(c) pairs spans two cuts) run from the
    largest b down, all levels each.  The top level needs only b = 1.
    isqrt(c // b) is exact in float, as c // b < 2^30: the root of n^2 - 1
    lies 1 / 2n, far more than an ulp, below n.
    """
    B = c // (y + 1)
    level = np.empty((k - 2, B), dtype=np.int64)
    if k > 2:
        r = np.sqrt(c // np.arange(1, B + 1, dtype=np.int64)).astype(np.int64)
        cuts = np.searchsorted(np.cumsum(r), np.arange(chunk, r.sum(), chunk), side="right")
        edges = [0, *cuts.tolist(), B]
        for lo, hi in reversed(list(zip(edges, edges[1:]))):
            pairs = _pairs(c, y, lo + 1, r[lo:hi])
            for j in range(2, k):
                level[j - 2, lo:hi] = _level(j, D, d, level, r[lo:hi], *pairs)
    r = np.array([math.isqrt(c)])
    return int(_level(k, D, d, level, r, *_pairs(c, y, 1, r))[0])


def _floor_sums(k: int, cps: list[int], y: int, chunk: int) -> tuple:
    """(x, D_k(x)) at the sorted checkpoints, for any isqrt(max x) <= y:
    those <= y from one streaming sieve pass, the others by ``_floor_dk``
    from d_j on [0, isqrt(max x)] and D_j on [0, y], 2 <= j < k.  D_1(x) = x."""
    if k == 1:
        return tuple((x, x) for x in cps)
    n_low = bisect.bisect_right(cps, y)
    low = _sieved_sums(k, cps[:n_low]) if n_low else ()
    if n_low == len(cps):
        return low
    s = math.isqrt(cps[-1])
    D, d = np.zeros((k - 2, y + 1), np.int64), np.empty((k - 2, s + 1), np.int64)
    for j in range(2, k):  # row j - 2 holds d_j, then D_j in place
        row = D[j - 2]
        for start, seg, _ in _dk_segments(j, 1, y + 1):
            row[start:start + len(seg)] = seg
        d[j - 2] = row[:s + 1]
        np.cumsum(row, out=row)
    return low + tuple((x, _floor_dk(k, x, y, d, D, chunk)) for x in cps[n_low:])


def _floor_bound(k: int, cps: list[int]) -> tuple[int, int]:
    """(y, chunk) for ``_floor_sums``; y = max x streams every checkpoint.

    Floor values are used only where they are exact and as safe as the
    sieve.  D_k(x) <= x (ln x + k - 1)^{k-1} / (k - 1)! for real x >= 1, by
    induction from D_1(x) <= x: the bound (x / t) (ln(x / t) + k - 2)^{k-2} /
    (k - 2)! on D_{k-1}(x / t) decreases in t, so D_k(x) = sum_{n <= x}
    D_{k-1}(x / n) is at most its n = 1 term plus its integral over [1, x],
    x [(k - 1) A^{k-2} + A^{k-1}] / (k - 1)! for A = ln x + k - 2: the top
    two terms of (A + 1)^{k-1}.  That bound at the last checkpoint must lie
    below 2^min(62, OVERFLOW_LOG2) (in float log2, whose rounding, like the
    sieve's, is far below the 1e-9 slack).  Then
      - every intermediate is at most 2 D_k(x) < 2^63: a level's terms sum
        to D_j(v) + r D_{j-1}(r), and r D_{j-1}(r) <= D_j(v), so int64
        cannot wrap;
      - every d_k(n <= x) <= D_k(x) lies below the sieve's flag, so the
        sieve would not have raised SieveOverflowError either.
    D_1(x) = x needs no y.  Otherwise y is the cheapest of isqrt(x) 2^i and
    x in sieved entries: the largest streamed checkpoint, (k - 2) y of tables,
    and per c > y POINT_COST k plus PAIR_COST per pair-level, about (k - 1)
    2 c / sqrt(y) + sqrt(c) for k > 2 (building pairs costs about a level).
    A y fits if its tables, 8 (k - 2) (y + s + 2) B for s = isqrt(x), level
    rows and roots for k > 2, 8 (k + 2) x // (y + 1) B, and chunks of
    chunk >= s pairs fit the budget beside a segment.
    """
    x, s = cps[-1], math.isqrt(cps[-1])
    if k == 1 or (math.log2(x) + (k - 1) * math.log2(math.log(x) + k - 1)
                  - math.log2(math.factorial(k - 1)) >= min(62, OVERFLOW_LOG2) - 1e-9):
        return x, SEGMENT
    # tail[i]: the sums of c and sqrt(c) over the checkpoints from cps[i] on
    tail = np.cumsum([(c, math.sqrt(c)) for c in reversed(cps)], axis=0)[::-1].tolist()
    best = (x, x, SEGMENT)  # (cost, y, chunk)
    for y in (s << i for i in range(x.bit_length()) if s << i < x):
        i = bisect.bisect_right(cps, y)
        pairs = (k - 2 + (k > 2)) * 2 * tail[i][0] / math.sqrt(y) + tail[i][1]
        cost = ((cps[i - 1] if i else 0) + (k - 2) * y + PAIR_COST * pairs
                + POINT_COST * k * (len(cps) - i))
        spare = (MEMORY_BUDGET_BYTES - SEGMENT_BYTES - 8 * (k - 2) * (y + s + 2)
                 - 8 * (k + 2) * (x // (y + 1)) * (k > 2))
        chunk = min(SEGMENT, spare // PAIR_BYTES - s)
        if chunk >= s:
            best = min(best, (cost, y, chunk))
    return best[1:]


def dk_partial_sums(k: int, x_max: int, checkpoints) -> PartialSumSeries:
    """D_k at each checkpoint (strictly increasing integers <= x_max), exactly."""
    cps = list(checkpoints)
    if any(a >= b for a, b in zip(cps, cps[1:])):
        raise DomainError("checkpoints must be strictly increasing")
    if not cps or cps[-1] > x_max or cps[0] < 1:
        raise DomainError("checkpoints must lie in [1, x_max]")
    _check_caps(k, x_max + 1, 0)
    check_finite("x_max", x_max)  # NaN passes the two range tests above
    return PartialSumSeries(k=k, checkpoints=_floor_sums(k, cps, *_floor_bound(k, cps)))


# ---------------------------------------------------------------- oracles

_TRIAL_STEPS = (4, 2, 4, 2, 4, 6, 2, 6)


def dk_factor(k: int, n: int) -> int:
    """d_k(n) from the factorisation: product of C(a_i + k - 1, k - 1).

    Trial division with a 2-3-5 wheel; independent of the sieve route.
    """
    if not (1 <= k <= DESK_K_CAP):
        raise DomainError(f"k must lie in [1, {DESK_K_CAP}], got {k}")
    if not (1 <= n <= 10 ** 12):
        raise DomainError(f"n must lie in [1, 1e12], got {n}")
    result, m, p = 1, n, 1
    for step in itertools.chain((1, 1, 2, 2), itertools.cycle(_TRIAL_STEPS)):
        p += step  # 2, 3, 5, 7, then the wheel: 11, 13, 17, 19, 23, 29, 31, 37, ...
        if p * p > m:
            break
        a = 0
        while m % p == 0:
            m //= p
            a += 1
        if a:
            result *= math.comb(a + k - 1, k - 1)
    if m > 1:
        result *= k
    return result


def d2_summatory_hyperbola(x: int) -> int:
    """D_2(x) = 2*sum_{m<=sqrt(x)} floor(x/m) - floor(sqrt(x))^2, exactly."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    check_finite("x", x)
    r = math.isqrt(x)
    return 2 * sum(x // m for m in range(1, r + 1)) - r * r

