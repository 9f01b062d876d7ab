"""Exact d_k(n) blocks and partial sums D_k(x) at desk scale.

d_k(n) = prod_p C(a_p + k - 1, k - 1) depends on n only through its exponent
signature (a_p); the n <= DESK_X_CAP have 1274 (OEIS A025487).  One segmented
multiplicative sieve (after Bays and Hudson, BIT 17, 1977) strips the a_p of
every n in a segment of SEGMENT entries of [lo, hi) with the primes p <=
sqrt(hi - 1) and sets the signature code prod_p CODE[a_p], times CODE[1] = 3
where a prime cofactor is left; d_k is then one gather from a table of the
exact d_k by signature, so one pass serves every k, over its own range only.
The kernel (``_signature_blocks``) takes four steps:
  - Wheel (Pritchard, Acta Inform. 17, 1982): a segment starts from the
    pattern of the period WHEEL = 2^5 3^2 5 7, rotated to s mod WHEEL, which
    holds the code and stripped product of the prime powers dividing WHEEL.
  - Strided slices: one multiply per higher power of 2, 3, 5 and 7, and per
    prime power up to STRIDE_MAX, on its multiples.
  - Batched scatter: the larger prime powers touch few entries each, so one
    index build per exponent level (in pieces of about SCATTER_PIECE
    indices) and unbuffered ``ufunc.at`` calls strike them all.
  - Cofactor: code *= 2 cofactor + 1, without a masked (branchy) ufunc.
It also takes many short blocks in one chunk (a sign scan's rounds): the
pattern is gathered at n mod WHEEL and every prime power goes through the
scatter, from a (block, q) table of first multiples and counts.

Partial sums take one exact route with a parameter y, isqrt(max x) <= y <=
max x, that a cost rule picks (``_floor_bound``), and one pass of the sieve.
The pass reads D_k at each checkpoint <= y from one exact prefix sum per
segment (27 B per entry streaming), and fills every d_j and D_j, 2 <= j < k,
on [0, y] for the larger ones, each from the hyperbola identity over the
floor values {x // b} (Lagarias, Miller and Odlyzko, Math. Comp. 44, 1985;
Deleglise and Rivat, Experiment. Math. 5, 1996), level by level in int64.
At y = isqrt(x) only floor values are paired, at y = max x only the sieve runs.

Values are uint64, d_k(n) mod 2^64, flagged per segment by the table where
some d_k(n) > 2^OVERFLOW_LOG2 (63, a 2x margin below 2^64).  Partial sums are
exact Python integers.  Repeated runs are byte-identical.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, MemoryBudgetError, SelfCheckError, SieveOverflowError,
                     check_finite, check_integral, check_within)

DESK_X_CAP = 10 ** 9
DESK_K_CAP = 30
MEMORY_BUDGET_BYTES = 3 << 30

SEGMENT = 1 << 16
# one segment's working set (codes, stripped prime products, ranks, values,
# their temporaries and the prime table); tracemalloc, warm (cold): 33.7 (40.0) B
# per entry in a d_k pass to 1e6, 39.1 (47.2) in its first segments near 1e9, and
# 26.7 (32.9) in partial sums
SEGMENT_BYTES = 48 * SEGMENT
OVERFLOW_LOG2 = 63
# the wheel period 2^5 3^2 5 7, prime powers up to STRIDE_MAX struck by
# strided slices, and the indices of one batched scatter piece
WHEEL = 10080
WHEEL_EXPONENTS = ((2, 5), (3, 2), (5, 1), (7, 1))
STRIDE_MAX = 64
SCATTER_PIECE = 1 << 13
# bytes per cell of the (block, q) table of short blocks (a residue and a count,
# uint32); a piece holds at most SEGMENT cells, fewer where the budget is tight
TABLE_CELL_BYTES = 8


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


def _primes_upto(m: int) -> np.ndarray:
    """The primes <= m (int64), by the sieve of Eratosthenes."""
    is_prime = np.ones(m + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    return np.flatnonzero(is_prime)


# CODE[a] for an exponent a < 30 (a_p <= log2 DESK_X_CAP) is 1, then the odd
# primes, so prod_p CODE[a_p] names the signature by unique factorisation
CODE = (1, *_primes_upto(113)[1:].tolist())


@functools.cache
def _signatures():
    """The signatures a_1 >= a_2 >= ... of the n <= DESK_X_CAP (the least n of
    one puts a_i on the i-th prime), each after () as a step (rank of the one it
    extends by one prime, a), and a read-only uint16 map code -> rank."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)  # 2 * 3 * ... * 29 > DESK_X_CAP
    steps, rows = [], [(1, 1, 0, len(CODE) - 1)]  # (least n, code, length, last a)
    for i, (n, code, length, last) in enumerate(rows):  # extended while read
        for a in range(1, last + 1):
            n *= primes[length]
            if n > DESK_X_CAP:
                break
            steps.append((i, a))
            rows.append((n, code * CODE[a], length + 1, a))
    rank = np.zeros(1 << 16, dtype=np.uint16)
    rank[[row[1] for row in rows]] = np.arange(len(rows))
    rank.flags.writeable = False
    return tuple(steps), rank


@functools.cache
def _dk_by_signature(k: int, log2: int):
    """d_k mod 2^64 at each signature rank (uint64), and whether d_k > 2^log2
    there, from the exact integers; cached per (k, log2) and read-only."""
    binom = [math.comb(a + k - 1, k - 1) for a in range(len(CODE))]
    exact = [1]
    for i, a in _signatures()[0]:
        exact.append(exact[i] * binom[a])
    values = np.array([d & 0xFFFF_FFFF_FFFF_FFFF for d in exact], dtype=np.uint64)
    flagged = np.array([d > 1 << log2 for d in exact])
    values.flags.writeable = flagged.flags.writeable = False
    return values, flagged


@functools.lru_cache(maxsize=2)
def _plan(hi: int):
    """Split the prime powers p^a < hi beyond the wheel, p <= sqrt(hi - 1),
    between the strides and the scatter.  Strided: 2, 3, 5 and 7 (all higher
    powers) and the p^a <= STRIDE_MAX.  Scattered: the rest, in pieces (a, p,
    p^a) of one level a with fewer than SCATTER_PIECE + SEGMENT // STRIDE_MAX
    multiples in any segment.  Levels: all of them as one scatter piece per
    level, for blocks too short to stride.  Levels ascend, so a_p reaches a -
    1 before a.  Cached for the last two hi: a sign scan's table pass plans
    for its own bound and its rounds for n_hi + 1."""
    primes = _primes_upto(math.isqrt(hi - 1))
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
            pieces += [(a, ps[i:j].astype(np.uint32), qs[i:j].astype(np.uint32))
                       for i, j in zip([0, *cuts], [*cuts, len(ps)])]
    levels = []
    for a in sorted({a for _, a in strided} | {a for a, _, _ in pieces}):
        ps = np.concatenate([np.array([p for p, b in strided if b == a], dtype=np.uint32),
                             *(ps for b, ps, _ in pieces if b == a)])
        levels.append((a, ps, ps ** a))
    return strided, pieces, levels


def _strike(code, stripped, s: int, p: int, a: int) -> None:
    """Raise a_p from a - 1 to a on the multiples of p^a in the segment from n = s."""
    q = p ** a
    first = -s % q
    if first < len(code):
        code, stripped = code[first::q], stripped[first::q]
        if a > 1:
            code //= CODE[a - 1]
        code *= CODE[a]
        stripped *= p


def _scatter(code, stripped, starts, heads, lens, a: int, ps: np.ndarray, qs: np.ndarray) -> None:
    """Raise a_p from a - 1 to a on the multiples of every q = p^a of one
    piece in each block i, whose code[heads_i + e] holds n = starts_i + 1 + e
    for e < lens_i (uint32 starts and lens, int64 heads, columns of shape
    (blocks, 1)); a segment is the one-block case.  The (block, q) table
    holds r = starts_i mod q, so the block's first multiple of q lies at e =
    q - 1 - r and it holds (lens_i + r) // q of them; only the nonzero cells
    go on.  The unbuffered ufunc.at applies an index as often as it repeats
    (n divisible by two such q)."""
    rem = starts % qs
    cnt = lens + rem
    cnt //= qs
    hit = cnt.ravel().nonzero()[0]
    if not len(hit):
        return
    b, j = np.divmod(hit, len(qs))
    q, cnt = qs[j].astype(np.int64), cnt.ravel()[hit].astype(np.int64)
    ends = cnt.cumsum()
    # the i-th index is heads_b + first + (i - head) q, head = ends - cnt
    first = heads[b, 0] + q - 1 - rem.ravel()[hit]
    first -= (ends - cnt) * q
    idx = first.repeat(cnt)
    idx += np.arange(ends[-1]) * q.repeat(cnt)
    if a > 1:
        np.floor_divide.at(code, idx, np.uint16(CODE[a - 1]))
    np.multiply.at(code, idx, np.uint16(CODE[a]))
    np.multiply.at(stripped, idx, ps[j].repeat(cnt))


@functools.cache
def _wheel_pattern():
    """The codes and stripped products of n = 0, 1, ..., WHEEL - 1 with only
    the prime powers dividing WHEEL stripped: those of n are at n mod WHEEL."""
    code, stripped = np.ones(WHEEL, dtype=np.uint16), np.ones(WHEEL, dtype=np.uint32)
    for p, e in WHEEL_EXPONENTS:
        for a in range(1, e + 1):
            _strike(code, stripped, 0, p, a)
    code.flags.writeable = stripped.flags.writeable = False
    return code, stripped


def _points(starts: np.ndarray, heads: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """n at each entry of the blocks n = starts_b, ... held from heads_b on,
    in uint32 (n < 2^32: the wrap of starts - heads undoes itself)."""
    if len(starts) == 1:
        return np.arange(starts[0], starts[0] + lens[0], dtype=np.uint32)
    n = (starts - heads).astype(np.uint32).repeat(lens)
    n += np.arange(len(n), dtype=np.uint32)
    return n


def _signature_blocks(starts: np.ndarray, lens: np.ndarray, hi: int):
    """Yield (i, j, signature ranks) for the blocks i..j - 1 of n = starts_b,
    ..., starts_b + lens_b - 1 < hi (int64 arrays, lens_b <= SEGMENT), taken
    in order and concatenated into chunks of at most SEGMENT entries.

    Each chunk starts from the wheel pattern at n mod WHEEL.  A chunk of one
    block (a segment) rotates the pattern and strides; shorter blocks gather
    the pattern and send every prime power through the scatter, one level at
    a time, its (block, q) table cut into pieces of at most SEGMENT cells
    that fit the budget beside a segment's working set.

    Stripping 2, 3, 5, 7 and the primes p <= sqrt(hi - 1) from n leaves n /
    stripped = 1 or one prime above them, so stripped < n marks a cofactor;
    stripped divides n < 2^32, so it fits uint32.  A step from a_p = a - 1 to
    a divides the code by CODE[a - 1] before it multiplies by CODE[a], so every
    partial code is that of a divisor of n, at most n's own: below 2^16
    (``test_signature_tables_are_exact``).
    """
    rank = _signatures()[1]
    strided, pieces, levels = _plan(hi)
    cells = min(SEGMENT, max(1, (MEMORY_BUDGET_BYTES - SEGMENT_BYTES) // TABLE_CELL_BYTES))
    ends = np.cumsum(lens)
    i = 0
    while i < len(starts):
        done = int(ends[i - 1]) if i else 0
        j = int(np.searchsorted(ends, done + SEGMENT, side="right"))
        ls = lens[i:j]
        heads = ends[i:j] - ls - done
        if j - i == 1:  # a segment: the pattern rotated to s mod WHEEL, then strides
            s = int(starts[i])
            code, stripped = (np.resize(np.roll(x, -(s % WHEEL)), int(ls[0]))
                              for x in _wheel_pattern())
            for p, a in strided:
                _strike(code, stripped, s, p, a)
        else:
            at = _points(starts[i:j], heads, ls) % np.uint32(WHEEL)
            code, stripped = (x.take(at) for x in _wheel_pattern())
            del at
        cols = [(starts[i:j] - 1).astype(np.uint32)[:, None], heads[:, None],
                ls.astype(np.uint32)[:, None]]
        for a, ps, qs in pieces if j - i == 1 else levels:
            step = max(1, cells // len(ps))
            for b in range(0, j - i, step):
                _scatter(code, stripped, *(c[b:b + step] for c in cols), a, ps, qs)
        # n is made here: made first and held through the strides, it cost ~6%
        code *= (stripped < _points(starts[i:j], heads, ls)) * np.uint8(2) + np.uint8(1)
        yield i, j, rank.take(code)
        i = j


def _signature_segments(lo: int, hi: int):
    """Yield (start, signature ranks) for each segment of [lo, hi)."""
    starts = np.arange(lo, hi, SEGMENT, dtype=np.int64)
    for i, _, ranks in _signature_blocks(starts, np.minimum(hi - starts, SEGMENT), hi):
        yield int(starts[i]), ranks


def _dk_gather(k: int, ranks: np.ndarray, out=None):
    """d_k(n) mod 2^64 at the signature ranks, into out if given, and whether
    some d_k(n) > 2^OVERFLOW_LOG2.  Every rank is in range; mode "clip" lets
    take write out unbuffered."""
    values, flagged = _dk_by_signature(k, OVERFLOW_LOG2)
    return (values.take(ranks, out=out, mode="clip"),
            bool(flagged.any() and flagged.take(ranks).any()))


def dk_blocks(k: int, starts, lens, hi: int):
    """Yield (i, j, d_k values) for the blocks i..j - 1 of n = starts_b, ...,
    starts_b + lens_b - 1 < hi, in chunks of at most SEGMENT entries (see
    ``_signature_blocks``); refuses a flagged chunk.  Passing one hi for many
    calls reuses its prime table and plan."""
    hi = check_integral("hi", hi)
    k = _check_caps(k, hi, 0)
    starts, lens = np.asarray(starts), np.asarray(lens)
    for name, a in (("starts", starts), ("lens", lens)):  # a cast would truncate 3.9 or NaN
        if a.ndim != 1 or a.size != starts.size or a.size and a.dtype.kind not in "iu":
            raise DomainError(f"{name} must be integers, one per block, got {a.dtype} {a.shape}")
    starts, lens = starts.astype(np.int64, copy=False), lens.astype(np.int64, copy=False)
    if len(starts) and not (starts.min() >= 1 and lens.min() >= 1 and lens.max() <= SEGMENT
                            and (starts + lens).max() <= hi):
        raise DomainError(f"blocks must lie in [1, {hi}) and hold 1 to {SEGMENT} entries")
    for i, j, ranks in _signature_blocks(starts, lens, hi):
        values, over = _dk_gather(k, ranks)
        if over:
            raise SieveOverflowError(f"d_{k} saturated below {hi - 1}")
        yield i, j, values


def check_budget(what: str, top: int, need: int) -> None:
    """The one MemoryBudgetError: refuse `what` up to top if need > MEMORY_BUDGET_BYTES."""
    if need > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(f"{what} up to {top} needs ~{need >> 20} MiB, "
                                f"budget is {MEMORY_BUDGET_BYTES >> 20} MiB")


def _check_caps(k: int, hi: int, table_bytes: int) -> int:
    """Refuse k or hi beyond the caps, or table_bytes plus a segment over
    budget; return k as an int."""
    check_within("k", k, 1, DESK_K_CAP)
    k = check_integral("k", k)
    if hi > DESK_X_CAP + 1:
        raise DomainError(f"range cap is {DESK_X_CAP}, requested up to {hi - 1}")
    check_budget("range", hi - 1, table_bytes + SEGMENT_BYTES)
    return k


def dk_block(k: int, lo: int, hi: int) -> DivisorBlock:
    """Exact d_k(n) for n in [lo, hi), sieved over [lo, hi) alone."""
    if not (1 <= lo < hi):
        raise DomainError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    k = _check_caps(k, hi, 8 * (hi - lo))
    lo, hi = check_integral("lo", lo), check_integral("hi", hi)
    values = np.empty(hi - lo, dtype=np.uint64)
    overflowed = False
    for s, ranks in _signature_segments(lo, hi):
        overflowed |= _dk_gather(k, ranks, out=values[s - lo: s - lo + len(ranks)])[1]
    return DivisorBlock(k=k, lo=lo, hi=hi, values=values, overflow_flag=overflowed)


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
    """(x, D_k(x)) at the sorted checkpoints, for k > 1 and any isqrt(max x) <= y,
    from one sieve pass over [1, top], top = y if k > 2 and some x > y, else the
    last x <= y.  It fills d_j on [0, isqrt(max x)] and D_j on [0, y], 2 <= j < k,
    for ``_floor_dk``, and gives D_k(x <= y) from in-place prefix sums of d_k's
    32-bit halves, exact per segment (26.7 B per entry streaming to 1e6)."""
    n_low = bisect.bisect_right(cps, y)
    low_end = cps[n_low - 1] + 1 if n_low else 1  # d_k is summed on [1, low_end)
    rows = k - 2 if n_low < len(cps) else 0
    top = y if rows else low_end - 1
    D = np.zeros((rows, top + 1), np.int64)  # row j - 2: d_j, then D_j in place
    tables = [_dk_by_signature(j, OVERFLOW_LOG2)[0].view(np.int64) for j in range(2, 2 + rows)]
    out, acc = [], 0
    for start, ranks in _signature_segments(1, top + 1) if top else ():
        for row, table in zip(D, tables):
            table.take(ranks, out=row[start:start + len(ranks)], mode="clip")
        if start < low_end:
            lo, over = _dk_gather(k, ranks[:low_end - start])
            if over:
                raise SieveOverflowError(f"d_{k} may exceed 2^{OVERFLOW_LOG2} below {low_end}")
            hi = lo >> np.uint64(32)
            lo &= np.uint64(0xFFFF_FFFF)
            np.cumsum(lo, out=lo)  # each half sums below 2^48 over a segment
            np.cumsum(hi, out=hi)
            seg_cps = cps[len(out):bisect.bisect_left(cps, start + len(lo), 0, n_low)]
            out += [(x, acc + lo.item(x - start) + (hi.item(x - start) << 32)) for x in seg_cps]
            acc += lo.item(-1) + (hi.item(-1) << 32)
            del lo, hi  # not held through the next segment's kernel steps
    d = D[:, :math.isqrt(cps[-1]) + 1].copy()
    np.cumsum(D, axis=1, out=D)
    return tuple(out) + tuple((x, _floor_dk(k, x, y, d, D, chunk)) for x in cps[n_low:])


def _floor_bound(k: int, cps: list[int]) -> tuple[int, int]:
    """(y, chunk) for ``_floor_sums``; y = max x streams every checkpoint.

    Floor values are used only where they are exact and as safe as the
    sieve.  D_k(x) <= x (ln x + k - 1)^{k-1} / (k - 1)! for real x >= 1, by
    induction from D_1(x) <= x: the bound (x / t) (ln(x / t) + k - 2)^{k-2} /
    (k - 2)! on D_{k-1}(x / t) decreases in t, so D_k(x) = sum_{n <= x}
    D_{k-1}(x / n) is at most its n = 1 term plus its integral over [1, x],
    x [(k - 1) A^{k-2} + A^{k-1}] / (k - 1)! for A = ln x + k - 2: the top
    two terms of (A + 1)^{k-1}.  That bound at the last checkpoint must lie
    below 2^min(62, OVERFLOW_LOG2) (in float log2, whose rounding is far below
    the 1e-9 slack).  Then
      - every intermediate is at most 2 D_k(x) < 2^63: a level's terms sum
        to D_j(v) + r D_{j-1}(r), and r D_{j-1}(r) <= D_j(v), so int64
        cannot wrap;
      - every d_k(n <= x) <= D_k(x) lies below the sieve's flag, so the
        sieve would not have raised SieveOverflowError either.
    y is the cheapest of isqrt(x) 2^i and x in sieved entries: the largest
    checkpoint <= y, (k - 2) y of tables, and per c > y POINT_COST k plus
    PAIR_COST per pair-level, about (k - 1) 2 c / sqrt(y) + sqrt(c) for k > 2
    (building pairs costs about a level).  For k > 2 the first term
    over-charges, as the c <= y ride on the table pass; it stays as a brake on
    y, and so on the table memory, until the rule charges bytes.
    A y fits if its tables, 8 (k - 2) (y + s + 2) B for s = isqrt(x), level
    rows and roots for k > 2, 8 (k + 2) x // (y + 1) B, and chunks of
    chunk >= s pairs fit the budget beside a segment.
    """
    x, s = cps[-1], math.isqrt(cps[-1])
    if (math.log2(x) + (k - 1) * math.log2(math.log(x) + k - 1)
            - math.log2(math.factorial(k - 1)) >= min(62, OVERFLOW_LOG2) - 1e-9):
        return x, SEGMENT
    best, tc, tr, end = (x, x, SEGMENT), 0.0, 0.0, len(cps)  # best: (cost, y, chunk)
    for y in reversed([s << i for i in range(x.bit_length()) if s << i < x]):
        i = bisect.bisect_right(cps, y)
        # tc, tr: the sums of c and sqrt(c) over the c > y, added from the last c down
        stretch = cps[i:end][::-1]
        tc, tr, end = sum(stretch, tc), sum(map(math.sqrt, stretch), tr), i
        pairs = (k - 2 + (k > 2)) * 2 * tc / math.sqrt(y) + tr
        cost = ((cps[i - 1] if i else 0) + (k - 2) * y + PAIR_COST * pairs
                + POINT_COST * k * (len(cps) - i))
        spare = (MEMORY_BUDGET_BYTES - SEGMENT_BYTES - 8 * (k - 2) * (y + s + 2)
                 - 8 * (k + 2) * (x // (y + 1)) * (k > 2))
        chunk = min(SEGMENT, spare // PAIR_BYTES - s)
        if chunk >= s:
            best = min(best, (cost, y, chunk))
    return best[1:]


def dk_partial_sums(k: int, x_max: int, checkpoints) -> tuple:
    """The pairs (x, D_k(x)), exact integers, at each checkpoint x (strictly
    increasing integers <= x_max); D_k strictly increases, which it checks."""
    cps = list(checkpoints)
    if any(a >= b for a, b in zip(cps, cps[1:])):
        raise DomainError("checkpoints must be strictly increasing")
    if not cps or cps[-1] > x_max or cps[0] < 1:
        raise DomainError("checkpoints must lie in [1, x_max]")
    k = _check_caps(k, x_max + 1, 0)
    check_finite("x_max", x_max)  # NaN passes the two range tests above
    cps = [check_integral("checkpoints", c) for c in cps]
    sums = tuple(zip(cps, cps)) if k == 1 else _floor_sums(k, cps, *_floor_bound(k, cps))
    for (a, da), (b, db) in zip(sums, sums[1:]):
        if da >= db:
            raise SelfCheckError(f"partial sums: D_{k}({a}) = {da} >= D_{k}({b}) = {db}")
    return sums


# ---------------------------------------------------------------- oracles

_TRIAL_STEPS = (4, 2, 4, 2, 4, 6, 2, 6)


def dk_factor(k: int, n: int) -> int:
    """d_k(n) from the factorisation: product of C(a_i + k - 1, k - 1).

    Trial division with a 2-3-5 wheel; independent of the sieve route.
    """
    check_within("k", k, 1, DESK_K_CAP)
    if not (1 <= n <= 10 ** 12):
        raise DomainError(f"n must lie in [1, 1e12], got {n}")
    k, n = check_integral("k", k), check_integral("n", n)
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
    x = check_integral("x", x)
    if x > 10 ** 12:
        raise DomainError(f"x must be <= 1e12, got {x}")
    r = math.isqrt(x)
    return 2 * sum(x // m for m in range(1, r + 1)) - r * r

