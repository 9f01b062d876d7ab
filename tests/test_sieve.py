"""Sieve tests.  Oracles: brute-force divisor enumeration, ordered-tuple
counting, the factorisation formula, and the Dirichlet hyperbola identity.
"""

import itertools
import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from divisorlab import remainder as rl
from divisorlab import sieve as sv
from divisorlab.errors import (DomainError, MemoryBudgetError, SelfCheckError,
                               SieveOverflowError)


def d2_brute(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def d3_brute(n: int) -> int:
    count = 0
    for a in range(1, n + 1):
        if n % a:
            continue
        m = n // a
        for b in range(1, m + 1):
            if m % b == 0:
                count += 1
    return count


def test_d2_block_first_ten():
    blk = sv.dk_block(2, 1, 11)
    expected = [d2_brute(n) for n in range(1, 11)]
    assert list(blk.values) == expected == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]
    assert not blk.overflow_flag


def test_d3_ordered_triples():
    blk = sv.dk_block(3, 1, 13)
    assert blk.values[4 - 1] == 6 == d3_brute(4)
    assert blk.values[12 - 1] == 18 == d3_brute(12)


def test_dk_at_one_and_primes():
    for k in (1, 2, 5, 17, 30):
        blk = sv.dk_block(k, 1, 32)
        assert blk.values[0] == 1
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert blk.values[p - 1] == k
            assert sv.dk_block(k, p, p + 1).values[0] == k  # p is its own cofactor


def test_window_at_a_prime_square():
    # n = p^2 is the one n < hi whose prime p is exactly sqrt(hi - 1)
    for p in (2, 3, 7, 31607):
        blk = sv.dk_block(5, p * p, p * p + 1)
        assert int(blk.values[0]) == sv.dk_factor(5, p * p) == 15


def test_block_offset_slicing():
    full = sv.dk_block(4, 1, 200)
    part = sv.dk_block(4, 150, 200)
    assert np.array_equal(full.values[149:], part.values)


def test_segment_independence():
    # full range equals concatenated segmented computation
    n = 5000
    full = sv.dk_block(6, 1, n)
    pieces = [sv.dk_block(6, lo, min(lo + 1250, n)).values
              for lo in range(1, n, 1250)]
    assert np.array_equal(full.values, np.concatenate(pieces))


def test_partial_sums_small_values():
    s2 = sv.dk_partial_sums(2, 10, [10])
    assert s2 == ((10, 27),)
    s3 = sv.dk_partial_sums(3, 10, [10])
    assert s3 == ((10, 53),)
    s1 = sv.dk_partial_sums(1, 12345, [1, 777, 12345])
    assert s1 == ((1, 1), (777, 777), (12345, 12345))


def test_partial_sums_checkpoint_consistency():
    # multiple checkpoints agree with independent single-checkpoint runs
    series = sv.dk_partial_sums(3, 4000, [10, 100, 1000, 4000])
    for x, d in series:
        single = sv.dk_partial_sums(3, x, [x])
        assert single[0][1] == d


def test_hyperbola_identity():
    # independent O(sqrt x) oracle for D_2
    seg = sv.SEGMENT
    xs = [1, 2, 10, 99, 1000, 54321, seg - 1, seg, seg + 1, 3 * seg, 10 ** 6]
    series = sv.dk_partial_sums(2, 10 ** 6, xs)
    for x, d in series:
        assert d == sv.d2_summatory_hyperbola(x)


def test_dk_factor_against_brute():
    assert sv.dk_factor(3, 12) == 18
    assert sv.dk_factor(2, 6) == 4
    for k in (2, 3, 7, 30):
        for p in (2, 97, 999983):
            assert sv.dk_factor(k, p) == k
    assert sv.dk_factor(5, 1) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(1, sv.DESK_K_CAP), st.integers(1, sv.DESK_X_CAP), st.integers(1, 8))
def test_dk_factor_matches_sieve(k, n, width):
    # a window anywhere below the cap is sieved over itself alone
    hi = min(n + width, sv.DESK_X_CAP + 1)
    blk = sv.dk_block(k, n, hi)
    want = [sv.dk_factor(k, m) for m in range(n, hi)]
    assert blk.overflow_flag == (max(want) >= 1 << sv.OVERFLOW_LOG2)
    if not blk.overflow_flag:
        assert [int(v) for v in blk.values] == want


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(1, 500), st.integers(1, 500))
def test_dk_factor_multiplicative(k, a, b):
    # d_k is multiplicative: coprime arguments factor the count
    import math as _m
    if _m.gcd(a, b) == 1:
        assert sv.dk_factor(k, a * b) == sv.dk_factor(k, a) * sv.dk_factor(k, b)


def test_oracle_equivalence_random():
    rng = random.Random(20260808)
    table = {k: sv.dk_block(k, 1, 100001).values for k in (2, 3, 5, 10)}
    for k, vals in table.items():
        for _ in range(500):
            n = rng.randint(1, 100000)
            assert int(vals[n - 1]) == sv.dk_factor(k, n)


def test_determinism():
    a = sv.dk_block(5, 1, 10000)
    b = sv.dk_block(5, 1, 10000)
    assert np.array_equal(a.values, b.values)
    sa = sv.dk_partial_sums(5, 10000, [10000])
    sb = sv.dk_partial_sums(5, 10000, [10000])
    assert sa == sb


def test_low_sums_exact_beyond_2_64(monkeypatch):
    # three full segments of one signature with 2^62 < d_30 <= 2^63, just
    # below the flag: D_30 leaves uint64 by the fourth entry, and neither
    # 32-bit half's prefix sum may wrap over a whole segment
    values = sv._dk_by_signature(30, sv.OVERFLOW_LOG2)[0].tolist()
    rank = next(i for i, d in enumerate(values) if 1 << 62 < d <= 1 << 63)
    segs = [(1 + i * sv.SEGMENT, np.full(sv.SEGMENT, rank, dtype=np.uint16)) for i in range(3)]
    monkeypatch.setattr(sv, "_signature_segments", lambda lo, hi: iter(segs))
    cps = [1, 5, sv.SEGMENT, sv.SEGMENT + 1, 2 * sv.SEGMENT + 7, 3 * sv.SEGMENT]
    want = tuple((x, x * values[rank]) for x in cps)
    assert sv._floor_sums(30, cps, cps[-1], sv.SEGMENT) == want


def test_overflow_detection_first_wide_value():
    # 139345920 = 2^14 3^5 5 7 is the smallest n with d_30(n) >= 2^64
    n = 2 ** 14 * 3 ** 5 * 5 * 7
    assert n == 139345920
    assert sv.dk_factor(30, n) >= 1 << 64 > sv.dk_factor(30, n - 1)
    assert sv.dk_block(30, n, n + 1).overflow_flag
    assert not sv.dk_block(30, n - 1, n).overflow_flag


def test_one_flagged_segment_flags_the_whole_request(monkeypatch):
    # d_30(4) = C(32, 29) = 4960 > 2^8 in the first segment; the last
    # segment holds only the prime 65537, d_30 = 30 < 2^8
    monkeypatch.setattr(sv, "OVERFLOW_LOG2", 8)
    assert sv.dk_block(30, 1, sv.SEGMENT + 2).overflow_flag
    with pytest.raises(SieveOverflowError):
        sv.dk_partial_sums(30, 100, [100])
    # the factor k of a prime cofactor counts too: d_30(31) = 30 > 2^4
    monkeypatch.setattr(sv, "OVERFLOW_LOG2", 4)
    assert sv.dk_block(30, 31, 32).overflow_flag


def test_partial_sums_self_check(monkeypatch):
    # sums that fail to increase are the program's fault, not the input's
    monkeypatch.setattr(sv, "_floor_sums", lambda *a: ((10, 53), (20, 53)))
    with pytest.raises(SelfCheckError, match=r"^partial sums: D_3\(10\) = 53 >= D_3\(20\) = 53$"):
        sv.dk_partial_sums(3, 20, [10, 20])


def test_partial_sums_stream_within_segment_budget(monkeypatch):
    # D_2(1e7) needs only one segment at a time, not a 1e7-entry table
    monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", 64 << 20)
    x = 10 ** 7
    assert sv.dk_partial_sums(2, x, [x]) == ((x, sv.d2_summatory_hyperbola(x)),)
    with pytest.raises(MemoryBudgetError):
        sv.dk_block(2, 1, x + 1)


def exact_sums(k, cps):
    """(x, D_k(x)) at the sorted checkpoints: d_k from one unflagged dk_block
    over [1, max x], summed exactly between checkpoints by a 32-bit split
    (neither half's sum of fewer than 2^32 values can wrap).  It shares no
    code with the prefix sums of the floor route."""
    blk = sv.dk_block(k, 1, cps[-1] + 1)
    assert not blk.overflow_flag

    def split_sum(v):
        lo = int(np.sum(v & np.uint64(0xFFFFFFFF), dtype=np.uint64))
        return lo + (int(np.sum(v >> np.uint64(32), dtype=np.uint64)) << 32)
    edges = [0, *cps]
    parts = (split_sum(blk.values[a:b]) for a, b in zip(edges, edges[1:]))
    return tuple(zip(cps, itertools.accumulate(parts)))


SEGMENT_EDGES = [sv.SEGMENT - 1, sv.SEGMENT, sv.SEGMENT + 1]


@pytest.mark.parametrize("k", range(1, 13))
@settings(max_examples=6, deadline=None)
@given(xs=st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=5),
       roots=st.lists(st.integers(1, 1000), max_size=3),
       chunk=st.sampled_from([sv.SEGMENT, 1000]), data=st.data())
def test_isolated_route_equals_sieve(k, xs, roots, chunk, data):
    # the floor-value route at y = isqrt(max x), the isolated end, and at a
    # random y up to max x, pinned to y = c and c - 1 for a checkpoint c,
    # called directly so the cost rule hides no y; perfect squares and n^2 - 1
    # are the isqrt edges of the floor-value set
    cps = sorted({*xs, *SEGMENT_EDGES, *(r * r for r in roots), *(r * r - 1 for r in roots)} - {0})
    s = math.isqrt(cps[-1])
    y = data.draw(st.one_of(st.integers(s, cps[-1]),
                            st.sampled_from([c - e for c in cps for e in (0, 1) if c - e >= s])))
    want = exact_sums(k, cps)
    if k == 1:  # D_1(x) = x is answered before the floor route
        assert sv.dk_partial_sums(k, cps[-1], cps) == want
        return
    assert sv._floor_sums(k, cps, s, chunk) == want
    assert sv._floor_sums(k, cps, y, chunk) == want


def test_route_choice(monkeypatch):
    # k = 2 pairs only its top level: y = isqrt(x) at one point
    assert sv._floor_bound(2, [10 ** 6]) == (1000, sv.SEGMENT)
    assert sv._floor_bound(2, [10 ** 9])[0] == math.isqrt(10 ** 9)
    # a sparse point pairs floor values above some y < x, in whole segments
    y, chunk = sv._floor_bound(5, [10 ** 6])
    assert 1000 <= y < 10 ** 6 and chunk == sv.SEGMENT
    # a dense list streams: y = x_max
    dense = list(range(1000, 10 ** 6, 1000))
    assert sv._floor_bound(3, dense)[0] == dense[-1]
    # the 1000-point k = 5 grid to the cap lies in between
    grid = sorted({int(x) for x in np.geomspace(10, sv.DESK_X_CAP - 1, 1000)})
    assert math.isqrt(grid[-1]) < sv._floor_bound(5, grid)[0] < grid[-1]
    # k = 30 at 1e6 fails the int64 bound, so the sieve answers
    assert sv._floor_bound(30, [10 ** 6])[0] == 10 ** 6

    def refuse(*a):
        raise AssertionError("floor values paired")
    monkeypatch.setattr(sv, "_floor_dk", refuse)
    got = sv.dk_partial_sums(30, 10 ** 6, [10 ** 6])
    assert got == exact_sums(30, [10 ** 6])
    # D_1(x) = x sieves nothing
    monkeypatch.setattr(sv, "_signature_segments", refuse)
    cps = list(range(1, 10 ** 4))
    assert sv.dk_partial_sums(1, cps[-1], cps) == tuple(zip(cps, cps))


# y for k = 2..13 from suffix sums over every checkpoint (np.cumsum of the
# reversed (c, sqrt c) list); sums over the stretches between candidate y must
# pick the same (y, chunk).  chunk is SEGMENT except at the listed k; a 16 MiB
# budget shrinks it
FLOOR_BOUND_PINNED = [
    (None, 10 ** 6, "geo", [8000, 16000] + [8000] * 10, {}),
    (None, 10 ** 6, "top", [10 ** 6] * 12, {}),
    (None, 10 ** 6, "low", [4000] * 12, {}),
    (None, 123456789, "geo", [11111] + [177776] * 11, {}),
    (None, 123456789, "top", [11111] + [123456789] * 11, {}),
    (None, 123456789, "low", [11111] + [88888] * 11, {}),
    (None, 10 ** 9, "geo", [31622] + [505952] * 11, {}),
    (None, 10 ** 9, "top", [31622, 129523712, 129523712] + [10 ** 9] * 9, {}),
    (None, 10 ** 9, "low", [31622] + [505952] * 4 + [252976] * 7, {}),
    (16 << 20, 123456789, "geo", [11111] + [177776] * 8 + [88888] * 3, {9: 51235, 10: 19638}),
    *[(16 << 20, 10 ** 9, shape, [31622, 505952, 505952, 252976, 252976] + [126488] * 3
       + [63244] * 4, {6: 57364, 9: 53410, 12: 57361, 13: 38915}) for shape in ("geo", "low")],
]


@pytest.mark.parametrize("budget, x, shape, ys, chunks", FLOOR_BOUND_PINNED)
def test_floor_bound_pinned(monkeypatch, budget, x, shape, ys, chunks):
    if budget:
        monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", budget)
    cps = {"geo": sorted({round(10 * (x / 10) ** (i / 39)) for i in range(40)}),
           "top": list(range(x - 5000, x + 1)),  # a dense stretch below x
           "low": list(range(1, 3001)) + [x]}[shape]
    assert [sv._floor_bound(k, cps) for k in range(2, 14)] \
        == [(y, chunks.get(k, sv.SEGMENT)) for k, y in zip(range(2, 14), ys)]


def _traced(f):
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_isolated_route_within_memory_budget(monkeypatch):
    x, k = 3 * 10 ** 6, 5
    want = exact_sums(k, [x])
    cps = list(range(31250, 10 ** 6 + 1, 31250))
    want_cps = exact_sums(k, cps)  # before the budget shrinks below a block
    # 1 MiB beside a segment leaves room for tables and chunks of a few
    # thousand pairs; 100 KiB does not hold the tables, so the streaming sieve
    # answers
    for spare, paired in ((1 << 20, True), (100 << 10, False)):
        budget = sv.SEGMENT_BYTES + spare
        monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", budget)
        y, chunk = sv._floor_bound(k, [x])
        assert (y < x and math.isqrt(x) <= chunk < sv.SEGMENT) if paired else y == x
        got, peak = _traced(lambda: sv.dk_partial_sums(k, x, [x]))
        assert got == want
        assert peak <= budget
        if paired:
            # the small tables sieve y entries, not a whole segment, so the
            # pairs and tables alone must fit in the spare bytes
            assert peak <= spare + sv.SEGMENT_BYTES // sv.SEGMENT * y
    # where the cheapest y does not fit, the rule shrinks y rather than
    # refusing, streaming or overrunning
    y_free = sv._floor_bound(k, cps)[0]
    budget = sv.SEGMENT_BYTES + 8 * (k - 2) * (y_free + 1000 + 2)  # its tables alone
    monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", budget)
    y, chunk = sv._floor_bound(k, cps)
    assert 1000 <= y < y_free
    got, peak = _traced(lambda: sv.dk_partial_sums(k, cps[-1], cps))
    assert got == want_cps
    assert peak <= budget


def test_d2_pairs_without_tables(monkeypatch):
    # k = 2 reads D_1(q) = q from its pairs and sieves no table, so a budget
    # of its top level's isqrt(x) pairs alone pairs floor values rather than
    # streaming [1, x]
    x = 10 ** 7
    s = math.isqrt(x)
    budget = sv.SEGMENT_BYTES + 2 * sv.PAIR_BYTES * (s + 1)
    monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", budget)
    assert sv._floor_bound(2, [x]) == (s, s + 2)
    got, peak = _traced(lambda: sv.dk_partial_sums(2, x, [x]))
    assert got == ((x, sv.d2_summatory_hyperbola(x)),)
    assert peak <= budget - sv.SEGMENT_BYTES  # the pairs alone: no table, no segment


def test_int64_bound_holds():
    # D_k(x) <= x (ln x + k - 1)^{k-1} / (k - 1)!, the bound _floor_bound
    # checks against 2^62, on a geometric grid of exact sums
    xs = sorted({int(x) for x in np.geomspace(1, 2e5, 40)})
    for k in range(1, sv.DESK_K_CAP + 1):
        for x, D in exact_sums(k, xs):
            bound = x * (mp.log(x) + k - 1) ** (k - 1) / mp.factorial(k - 1)
            assert D <= bound, (k, x)


def test_sharper_bound_reaches_k12_at_1e6():
    # (1 + ln x)^{k-1} forced the sieve of [1, 1e6] here; the sharper bound
    # pairs floor values above some y < x, and the values stay exact
    x = 10 ** 6
    assert sv._floor_bound(12, [x])[0] < x
    assert sv.dk_partial_sums(12, x, [x]) == exact_sums(12, [x])


def test_float_isqrt_is_exact_below_the_cap():
    # _floor_dk floors the float root of c // b <= DESK_X_CAP; the rounded
    # root is monotone, so n^2 - 1 and n^2 are the only cases to check
    n = np.arange(1, math.isqrt(sv.DESK_X_CAP) + 2, dtype=np.int64)
    v = np.concatenate([n * n - 1, n * n])
    r = np.sqrt(v).astype(np.int64)
    assert np.all(r * r <= v) and np.all((r + 1) * (r + 1) > v)


def test_precondition_errors():
    with pytest.raises(DomainError):
        sv.dk_block(0, 1, 10)
    with pytest.raises(DomainError):
        sv.dk_block(31, 1, 10)
    with pytest.raises(DomainError):
        sv.dk_block(2, 10, 10)
    with pytest.raises(DomainError):
        sv.dk_block(2, 1, sv.DESK_X_CAP + 10)
    with pytest.raises(MemoryBudgetError):
        sv.dk_block(2, 1, 10 ** 9)
    with pytest.raises(DomainError):
        sv.dk_partial_sums(2, 100, [50, 20])
    with pytest.raises(DomainError):
        sv.dk_partial_sums(2, 100, [150])
    # a repeated checkpoint is the input's fault, not the output's
    with pytest.raises(DomainError, match="checkpoints must be strictly increasing"):
        sv.dk_partial_sums(2, 10, [5, 5])
    # infinities were refused before NaN was, and keep their messages
    with pytest.raises(DomainError, match="^range cap is"):
        sv.dk_partial_sums(2, math.inf, [10])
    with pytest.raises(DomainError, match="^checkpoints must lie in"):
        sv.dk_partial_sums(2, -math.inf, [10])
    with pytest.raises(DomainError, match="^x must be >= 1"):
        sv.d2_summatory_hyperbola(-math.inf)
    # non-integers name the argument rather than leaking math.isqrt's or
    # math.comb's TypeError; a k out of range keeps its message
    with pytest.raises(DomainError, match="^x must be integral, got 10.5$"):
        sv.d2_summatory_hyperbola(10.5)
    with pytest.raises(DomainError, match="^checkpoints must be integral, got 10.5$"):
        sv.dk_partial_sums(2, 100, [10.5])
    for call in (lambda: sv.dk_block(2.5, 1, 10), lambda: sv.dk_partial_sums(2.5, 100, [10]),
                 lambda: rl.mean_square(2.0, 100.0)):
        with pytest.raises(DomainError, match="^k must be integral, got 2.[05]$"):
            call()
    with pytest.raises(DomainError, match=r"^k must lie in \[1, 30\], got nan$"):
        sv.dk_block(math.nan, 1, 10)
    # a NaN or infinite threshold kept no sample and blamed the sample count
    samples = rl.delta_scan(2, [10.5 * j for j in range(1, 13)])
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match=f"^drop_below must be finite, got {bad}$"):
            rl.fit_exponent(samples, bad)
    assert rl.fit_exponent(samples, -1.0) == rl.fit_exponent(samples, 0.0)  # negatives keep all
    assert sv.dk_block(np.int64(3), 1, 13).values[11] == 18  # numpy integers pass
    assert sv.dk_partial_sums(3, 100, [np.int64(10)]) == ((10, 53),)
    # a non-integer bound, and NaN, which passes the range tests, reach numpy
    # or the oracle's trial division unguarded; a negative n_hi reached
    # math.isqrt, and the oracle's loop would run isqrt(1e30) = 1e15 times
    for call, msg in ((lambda: sv.dk_factor(3, 12.5), "n must be integral, got 12.5"),
                      (lambda: sv.dk_factor(2.5, 12), "k must be integral, got 2.5"),
                      (lambda: sv.dk_block(2, 1.5, 10), "lo must be integral, got 1.5"),
                      (lambda: sv.dk_block(2, 1, 10.5), "hi must be integral, got 10.5"),
                      (lambda: sv.d2_summatory_hyperbola(10 ** 30),
                       f"x must be <= 1e12, got {10 ** 30}")):
        with pytest.raises(DomainError, match=f"^{msg}$"):
            call()


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("fn, args, name", [
    (sv.dk_partial_sums, (2, NAN, [10]), "x_max"),
    (sv.d2_summatory_hyperbola, (NAN,), "x"),
    (sv.d2_summatory_hyperbola, (INF,), "x"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_finite_argument_raises_domain_error(fn, args, name):
    # unguarded, a NaN x_max passes both range tests and D_2(10) = 27 comes
    # back, and math.isqrt raises TypeError on a float
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        fn(*args)


# ------------------------------------------------- the kernel against its reference

def _dk_stream(k: int, lo: int, hi: int):
    """(start, d_k values, overflowed) for each segment of [lo, hi): the
    kernel's stream as ``dk_block`` reads it."""
    return ((s, *sv._dk_gather(k, ranks)) for s, ranks in sv._signature_segments(lo, hi))


def _reference_segments(k: int, lo: int, hi: int):
    """The per-prime kernel the wheel, scatter and cofactor steps replaced,
    kept verbatim: one strided multiply per prime power, masked cofactor."""
    SEGMENT, OVERFLOW_LOG2 = sv.SEGMENT, sv.OVERFLOW_LOG2
    primes = sv._primes_upto(math.isqrt(hi - 1)).tolist()
    binom = [math.comb(a + k - 1, k - 1) for a in range(64)]  # a_p < log2(hi) < 64
    log2_binom = [math.log2(c) for c in binom]
    for s in range(lo, hi, SEGMENT):
        n = min(SEGMENT, hi - s)
        v = np.ones(n, dtype=np.uint64)
        stripped = np.ones(n, dtype=np.uint64)  # the prime powers stripped so far
        lg = np.zeros(n)
        for p in primes:
            for a in range(1, 64):  # the multiples of p^a: a_p grows from a - 1 to a
                first = -s % p ** a
                if first >= n:
                    break
                sl = slice(first, None, p ** a)
                if a > 1:
                    v[sl] //= binom[a - 1]
                v[sl] *= binom[a]
                lg[sl] += log2_binom[a] - log2_binom[a - 1]
                stripped[sl] *= p
        cofactor = stripped < np.arange(s, s + n, dtype=np.uint64)
        np.multiply(v, k, out=v, where=cofactor)
        np.add(lg, log2_binom[1], out=lg, where=cofactor)
        yield s, v, bool(lg.max() > OVERFLOW_LOG2)


TOP_PERIOD = sv.DESK_X_CAP // sv.WHEEL * sv.WHEEL  # s = 0 (mod WHEEL) near the cap


@settings(max_examples=40, deadline=None)
@given(st.integers(1, sv.DESK_K_CAP), st.integers(1, sv.DESK_X_CAP),
       st.integers(1, 3 * sv.SEGMENT))
# 169 = 13^2 is struck at level 2 although no level-1 piece has a multiple
@example(4, 150, 50)
# segments starting at s = 0 and s = -1 (mod WHEEL), short and over a period
@example(7, sv.WHEEL, 2 * sv.WHEEL + 1)
@example(7, sv.WHEEL - 1, 2 * sv.WHEEL + 1)
@example(3, TOP_PERIOD, sv.SEGMENT + 5)
@example(3, TOP_PERIOD - 1, sv.SEGMENT + 5)
# segment edges: one full segment, then a one-entry segment
@example(2, 1, sv.SEGMENT)
@example(2, 1, sv.SEGMENT + 1)
@example(5, sv.DESK_X_CAP - sv.SEGMENT, sv.SEGMENT + 1)
# 139345920, the smallest n with d_30(n) >= 2^64, and the block just below it
@example(30, 139345920 - 2, 4)
@example(30, 139345919, 1)
def test_kernel_equals_reference(k, lo, width):
    # unflagged values bit-identical, flags identical, segment by segment
    hi = min(lo + width, sv.DESK_X_CAP + 1)
    got = list(_dk_stream(k, lo, hi))
    want = list(_reference_segments(k, lo, hi))
    assert [(s, len(v), f) for s, v, f in got] == [(s, len(v), f) for s, v, f in want]
    for (_, v, flagged), (_, w, _) in zip(got, want):
        assert v.dtype == w.dtype == np.uint64
        assert flagged or np.array_equal(v, w)


# the bound on |lg - log2 d_k(n)| of the reference's float flag for n <=
# DESK_X_CAP: lg has at most 30 terms below 64 (29 exponent steps and a
# cofactor), each off by at most 3 ulp at 64 and each addition by half an ulp,
# so it is off by less than 35 * 3.5 * 2^-46 < 2e-12
FLOAT_SUM_BOUND = 2e-12


def _signatures(limit: int) -> list[tuple]:
    """The exponent signatures (a_1 >= a_2 >= ...) of the n <= limit: the
    smallest n of a signature puts a_i on the i-th prime."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]  # 2 * 3 * ... * 31 > 1e9
    out = []

    def grow(i, n, cap, sig):
        out.append(sig)
        for a in range(1, cap + 1):
            n *= primes[i]
            if n > limit:
                break
            grow(i + 1, n, a, sig + (a,))
    grow(0, 1, limit.bit_length(), ())
    return out


def test_overflow_flag_is_exact():
    # d_k(n) depends on n only through its signature; over every signature
    # below the cap and every k, log2 d_k stays 1.16e-3 or more away from
    # the flag's threshold, so a float sum within FLOAT_SUM_BOUND decides
    # d_k(n) > 2^OVERFLOW_LOG2 exactly, in any order of summation
    sigs = _signatures(sv.DESK_X_CAP)
    assert len(sigs) == 1274
    assert max(sum(s) for s in sigs) == 29  # exponent steps, as the bound assumes
    margin, k, sig = min(
        (abs(math.log2(math.prod(math.comb(a + k - 1, k - 1) for a in s)) - sv.OVERFLOW_LOG2), k, s)
        for k in range(1, sv.DESK_K_CAP + 1) for s in sigs)
    assert (k, sig) == (28, (18, 7))
    assert 1.16e-3 < margin < 1.17e-3
    assert margin > 1e8 * FLOAT_SUM_BOUND


@pytest.mark.parametrize("n_hi, segments", [(10 ** 6, None), (sv.DESK_X_CAP, 3)])
def test_cumulative_pass_within_segment_bytes(n_hi, segments):
    # one streaming pass holds a segment and its temporaries, not the range:
    # the whole pass to 1e6, and the first segments of a pass to the cap,
    # whose prime table and scatter pieces are the largest
    tracemalloc.start()
    try:
        for i, _ in enumerate(_dk_stream(30, 1, n_hi + 1)):
            if i + 1 == segments:
                break
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sv.SEGMENT_BYTES


def test_block_near_cap_within_its_charge():
    # dk_block's charge: its uint64 table plus one segment's working set
    lo, hi = sv.DESK_X_CAP - 2 * sv.SEGMENT, sv.DESK_X_CAP + 1
    tracemalloc.start()
    try:
        sv.dk_block(2, lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (hi - lo) + sv.SEGMENT_BYTES


def test_block_gathers_in_place():
    # each segment's d_k goes straight into the table, whose 8 B per entry are
    # the block's own: above them a segment's working set (18.6 B per entry),
    # with no 512 KiB copy per segment (32.6 B per entry with one)
    hi = 10 ** 6 + 1
    sv.dk_block(2, 1, hi)  # the plan and the signature tables outside the trace
    block, peak = _traced(lambda: sv.dk_block(2, 1, hi))
    assert peak - block.values.nbytes <= 28 * sv.SEGMENT


def test_signature_tables_are_exact():
    # every signature below the cap has its own code below 2^16, and the
    # tables hold d_k mod 2^64 and the exact flag d_k > 2^OVERFLOW_LOG2 at
    # its rank, for every k; the kernel gives the smallest n of each
    # signature that rank
    sigs = _signatures(sv.DESK_X_CAP)
    codes = [math.prod(sv.CODE[a] for a in sig) for sig in sigs]
    assert len(set(codes)) == len(sigs) == 1274 and max(codes) == 61965 < 1 << 16
    ranks = sv._signatures()[1][codes]
    assert sorted(ranks) == list(range(len(sigs)))
    for k in range(1, sv.DESK_K_CAP + 1):
        values, flagged = sv._dk_by_signature(k, sv.OVERFLOW_LOG2)
        exact = [math.prod(math.comb(a + k - 1, k - 1) for a in sig) for sig in sigs]
        assert values[ranks].tolist() == [d % (1 << 64) for d in exact]
        assert flagged[ranks].tolist() == [d > 1 << sv.OVERFLOW_LOG2 for d in exact]
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for sig, r in zip(sigs, ranks):
        n = math.prod(p ** a for p, a in zip(primes, sig))
        assert list(sv._signature_segments(n, n + 1))[0][1].tolist() == [r]


def test_floor_tables_take_one_sieve_pass(monkeypatch):
    # the rows d_j, 2 <= j < k, of the floor route come from one pass of the
    # kernel over [1, y], not one pass per j, and checkpoints <= y are summed
    # in that pass too; k = 2 needs no rows, so it sieves to its last
    # checkpoint <= y
    x, y = 10 ** 6, 5000
    cps = [1000, 4999, 5000, x]
    want = {k: exact_sums(k, [x]) for k in (4, 7, 12)}
    both = {k: exact_sums(k, cps) for k in (2, 4, 7, 12)}
    passes = []
    kernel = sv._signature_segments

    def counted(lo, hi):
        passes.append((lo, hi))
        return kernel(lo, hi)
    monkeypatch.setattr(sv, "_signature_segments", counted)
    for k, sums in want.items():
        passes.clear()
        assert sv._floor_sums(k, [x], y, sv.SEGMENT) == sums
        assert passes == [(1, y + 1)]
    for k, sums in both.items():
        passes.clear()
        assert sv._floor_sums(k, cps, y, sv.SEGMENT) == sums
        assert passes == [(1, y + 1)]


# ------------------------------------------------- short blocks: the many-start kernel

def _blocks_ranks(starts, lens, hi):
    """The block kernel's ranks, concatenated, checking its chunks on the way:
    consecutive runs of blocks, at most SEGMENT entries each."""
    parts, nxt = [], 0
    for i, j, ranks in sv._signature_blocks(np.array(starts, dtype=np.int64),
                                            np.array(lens, dtype=np.int64), hi):
        assert i == nxt < j and len(ranks) == sum(lens[i:j]) <= sv.SEGMENT
        parts.append(ranks)
        nxt = j
    assert nxt == len(starts)
    return np.concatenate(parts)


def _streamed_ranks(starts, lens):
    """Each block's ranks from the kernel's contiguous pass over that block alone."""
    return np.concatenate([r for s, n in zip(starts, lens)
                           for _, r in sv._signature_segments(s, s + n)])


def test_block_kernel_equals_streamed_kernel(monkeypatch):
    # ranks depend on n alone: many blocks in one chunk (wheel gather, every
    # prime power scattered) give each block's ranks from its own pass
    rng = random.Random(29)
    cases = []
    for _ in range(6):  # sorted as a scan's rounds, and not
        lens = [rng.choice((1, 2, rng.randint(3, 300), rng.randint(300, 5000)))
                for _ in range(rng.randint(2, 60))]
        starts = [rng.randint(1, 10 ** 6 - n) for n in lens]
        if rng.random() < 0.5:
            starts.sort()
        cases.append((starts, lens, max(map(sum, zip(starts, lens))) + rng.randint(0, 999)))
    # blocks across a WHEEL period, one longer than a period
    cases.append(([sv.WHEEL - 7, 2 * sv.WHEEL - 1, 5 * sv.WHEEL, 99 * sv.WHEEL - 3],
                  [14, 2, 1, sv.WHEEL + 30], 100 * sv.WHEEL))
    for starts, lens, hi in cases:
        assert np.array_equal(_blocks_ranks(starts, lens, hi), _streamed_ranks(starts, lens))
    # near the cap (primes to 31623), against the factorisation oracle too
    cap = sv.DESK_X_CAP
    starts, lens = [cap - 40, cap - 3 * sv.WHEEL - 5, cap - 20 * sv.WHEEL - 1], [41, 11, 9]
    ranks = _blocks_ranks(starts, lens, cap + 1)
    assert np.array_equal(ranks, _streamed_ranks(starts, lens))
    ns = [s + e for s, n in zip(starts, lens) for e in range(n)]
    values = sv._dk_by_signature(7, sv.OVERFLOW_LOG2)[0][ranks]
    assert values.tolist() == [sv.dk_factor(7, n) % (1 << 64) for n in ns]
    # a budget of 300 table cells beside a segment cuts each level's table
    # into pieces of one or a few blocks
    starts, lens, hi = cases[0]
    calls = []
    scatter = sv._scatter

    def counted(code, stripped, s, *rest):
        calls.append(len(s) * len(rest[-1]))  # the piece's cells
        return scatter(code, stripped, s, *rest)
    monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", sv.SEGMENT_BYTES + 300 * sv.TABLE_CELL_BYTES)
    monkeypatch.setattr(sv, "_scatter", counted)
    assert np.array_equal(_blocks_ranks(starts, lens, hi), _streamed_ranks(starts, lens))
    qs = max(len(ps) for _, ps, _ in sv._plan(hi)[2])
    assert len(calls) > 2 * len(sv._plan(hi)[2]) and max(calls) <= max(300, qs)


def test_dk_blocks_refuses(monkeypatch):
    with pytest.raises(DomainError, match="blocks must lie in"):
        list(sv.dk_blocks(2, [5, 90], [3, 20], 100))
    with pytest.raises(DomainError, match="blocks must lie in"):
        list(sv.dk_blocks(2, [5], [0], 100))
    # a cast to int64 would read 3.9 as 3, 2.5 entries as 2 and parse '3'; a
    # lens shorter than starts looped without end, a longer one was cut
    for starts, lens, hi, name in [([3.9], [1], 10, "starts"), ([3], [2.5], 10, "lens"),
                                   (["3"], [1], 10, "starts"),
                                   ([float("nan")], [1], 10, "starts"),
                                   ([3], [1], 10.0, "hi"), ([3, 5], [1], 10, "lens"),
                                   ([3], [1, 2], 10, "lens"), ([[3]], [[1]], 10, "starts"),
                                   (3, 1, 10, "starts")]:
        with pytest.raises(DomainError, match=f"^{name} must be (integral|integers)"):
            list(sv.dk_blocks(2, starts, lens, hi))
    assert list(sv.dk_blocks(2, [], [], 10)) == []
    got = [(i, j, v.tolist()) for i, j, v in sv.dk_blocks(2, [10, 96], [3, 4], 100)]
    assert got == [(0, 2, [4, 2, 6, 12, 2, 6, 6])]  # d(10..12), d(96..99)
    monkeypatch.setattr(sv, "OVERFLOW_LOG2", 8)  # d_30(4) = 4960 > 2^8
    with pytest.raises(SieveOverflowError, match="saturated"):
        list(sv.dk_blocks(30, [3], [2], 10))


# ------------------------------------------------- D_3 and D_4 by the hyperbola method

def _d2_many(qs):
    """D_2(q) at each q of a non-increasing int64 array, by the hyperbola
    identity 2 sum_{m <= sqrt q} q // m - isqrt(q)^2, one numpy step per m
    over the prefix of q with isqrt(q) >= m."""
    r = np.sqrt(qs).astype(np.int64)  # then corrected to isqrt
    r -= r * r > qs
    r += (r + 1) * (r + 1) <= qs
    out = -r * r
    for m in range(1, int(r[0]) + 1):
        live = int(np.searchsorted(-r, -m, side="right"))
        out[:live] += 2 * (qs[:live] // m)
    return out


def _d3_d4_oracle(x, d):
    """(D_3(x), D_4(x)) by Dirichlet's hyperbola method with s = isqrt(x):
    D_3 = sum_{a <= s} D_2(x // a) + sum_{b <= s} d(b) (x // b) - s D_2(s),
    D_4 = 2 sum_{a <= s} d(a) D_2(x // a) - D_2(s)^2; d[b] = d(b) for b <= s."""
    s = math.isqrt(x)
    a = np.arange(1, s + 1, dtype=np.int64)
    d2 = _d2_many(np.append(x // a, s))
    d2q, d2s = d2[:-1], int(d2[-1])
    return (int(d2q.sum()) + int((d[1:s + 1] * (x // a)).sum()) - s * d2s,
            2 * int((d[1:s + 1] * d2q).sum()) - d2s ** 2)


def test_d3_d4_match_hyperbola_oracles(monkeypatch):
    # the floor route's levels (rows j = 3..k) checked by oracles that share
    # no code with it: dk_factor's d and the D_2 hyperbola identity, here
    # vectorised and checked against d2_summatory_hyperbola at its extremes;
    # y = isqrt(max x) sends every checkpoint through the levels, y = 2^20
    # sums the first from the sieve pass
    cps = [999_999, 15_000_007, 10 ** 8]
    s = math.isqrt(cps[-1])
    d = np.array([0] + [sv.dk_factor(2, b) for b in range(1, s + 1)], dtype=np.int64)
    qs = np.array([cps[-1], 10 ** 8 // 7, 4096, 1], dtype=np.int64)
    assert _d2_many(qs).tolist() == [sv.d2_summatory_hyperbola(int(q)) for q in qs]
    want = {x: _d3_d4_oracle(x, d) for x in cps}
    assert want[10 ** 8] == (18362473634, 128217432396)
    for y in (s, 1 << 20):
        monkeypatch.setattr(sv, "_floor_bound", lambda k, c, y=y: (y, sv.SEGMENT))
        for k in (3, 4):
            got = sv.dk_partial_sums(k, cps[-1], cps)
            assert got == tuple((x, want[x][k - 3]) for x in cps)
