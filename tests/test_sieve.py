"""Sieve tests.  Oracles: brute-force divisor enumeration, ordered-tuple
counting, the factorisation formula, and the Dirichlet hyperbola identity.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divisorlab import sieve as sv
from divisorlab.errors import DomainError, MemoryBudgetError, SieveOverflowError


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
    assert s2.checkpoints == ((10, 27),)
    s3 = sv.dk_partial_sums(3, 10, [10])
    assert s3.checkpoints == ((10, 53),)
    s1 = sv.dk_partial_sums(1, 12345, [1, 777, 12345])
    assert s1.checkpoints == ((1, 1), (777, 777), (12345, 12345))


def test_partial_sums_checkpoint_consistency():
    # multiple checkpoints agree with independent single-checkpoint runs
    series = sv.dk_partial_sums(3, 4000, [10, 100, 1000, 4000])
    for x, d in series.checkpoints:
        single = sv.dk_partial_sums(3, x, [x])
        assert single.checkpoints[0][1] == d


def test_hyperbola_identity():
    # independent O(sqrt x) oracle for D_2
    seg = sv.SEGMENT
    xs = [1, 2, 10, 99, 1000, 54321, seg - 1, seg, seg + 1, 3 * seg, 10 ** 6]
    series = sv.dk_partial_sums(2, 10 ** 6, xs)
    for x, d in series.checkpoints:
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


def test_exact_sum_uint64_wide():
    vals = np.full(3 * (1 << 20), (1 << 63) + 12345, dtype=np.uint64)
    got = sv._exact_sum_uint64(vals)
    assert got == 3 * (1 << 20) * ((1 << 63) + 12345)


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


def test_cumulative_segments_carry_and_refuse(monkeypatch):
    n = 2 * sv.SEGMENT + 123
    parts = list(sv.dk_cumulative_segments(5, n))
    assert [s for s, _ in parts] == [1, sv.SEGMENT + 1, 2 * sv.SEGMENT + 1]
    whole = np.cumsum(sv.dk_block(5, 1, n + 1).values, dtype=np.uint64)
    assert np.array_equal(np.concatenate([c for _, c in parts]), whole)
    monkeypatch.setattr(sv, "OVERFLOW_LOG2", 8)  # d_30(4) = 4960 > 2^8
    with pytest.raises(SieveOverflowError, match="saturated"):
        list(sv.dk_cumulative_segments(30, 100))
    # a wrap inside a segment, and one at a segment's first entry
    top = 1 << 63
    for segs in ([[1, top, top]], [[top], [top]]):
        fake = [(1 + i, np.array(v, dtype=np.uint64), False) for i, v in enumerate(segs)]
        monkeypatch.setattr(sv, "_dk_segments", lambda k, lo, hi, fake=fake: iter(fake))
        with pytest.raises(SieveOverflowError, match="wrapped 64 bits"):
            list(sv.dk_cumulative_segments(2, 10))


def test_partial_sums_stream_within_segment_budget(monkeypatch):
    # D_2(1e7) needs only one segment at a time, not a 1e7-entry table
    monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", 64 << 20)
    x = 10 ** 7
    assert sv.dk_partial_sums(2, x, [x]).checkpoints == ((x, sv.d2_summatory_hyperbola(x)),)
    with pytest.raises(MemoryBudgetError):
        sv.dk_block(2, 1, x + 1)


SEGMENT_EDGES = [sv.SEGMENT - 1, sv.SEGMENT, sv.SEGMENT + 1]


@pytest.mark.parametrize("k", range(1, 13))
@settings(max_examples=6, deadline=None)
@given(xs=st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=5),
       roots=st.lists(st.integers(1, 1000), max_size=3),
       chunk=st.sampled_from([sv.SEGMENT, 1000]))
def test_isolated_route_equals_sieve(k, xs, roots, chunk):
    # each route called explicitly, so the cost rule hides neither; perfect
    # squares and n^2 - 1 are the isqrt edges of the floor-value set
    cps = sorted({*xs, *SEGMENT_EDGES, *(r * r for r in roots), *(r * r - 1 for r in roots)} - {0})
    assert sv._isolated_sums(k, cps, chunk) == sv._sieved_sums(k, cps)


def test_route_choice(monkeypatch):
    # sparse points go isolated, a dense list to the sieve; k = 30 at 1e6
    # fails the int64 bound, so the sieve answers
    assert sv._isolated_chunk(5, [10 ** 6]) == sv.SEGMENT
    assert sv._isolated_chunk(1, list(range(1, 10 ** 4))) == sv.SEGMENT
    assert sv._isolated_chunk(3, list(range(1000, 10 ** 6, 1000))) == 0
    assert sv._isolated_chunk(30, [10 ** 6]) == 0

    def refuse(*a):
        raise AssertionError("isolated route taken")
    monkeypatch.setattr(sv, "_isolated_sums", refuse)
    got = sv.dk_partial_sums(30, 10 ** 6, [10 ** 6])
    assert got.checkpoints == sv._sieved_sums(30, [10 ** 6])


def test_isolated_route_within_memory_budget(monkeypatch):
    import tracemalloc
    x, k = 3 * 10 ** 6, 5
    s = math.isqrt(x)
    want = sv._sieved_sums(k, [x])
    # 1 MiB beside a segment leaves room for chunks of a few thousand pairs;
    # 100 KiB does not hold the tables, so the streaming sieve answers
    for spare, chunked in ((1 << 20, True), (100 << 10, False)):
        budget = sv.SEGMENT_BYTES + spare
        monkeypatch.setattr(sv, "MEMORY_BUDGET_BYTES", budget)
        chunk = sv._isolated_chunk(k, [x])
        assert (s <= chunk < sv.SEGMENT) if chunked else chunk == 0
        tracemalloc.start()
        try:
            got = sv.dk_partial_sums(k, x, [x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.checkpoints == want
        assert peak <= budget
        if chunked:
            # the small tables sieve s entries, not a whole segment, so the
            # pairs and tables alone must fit in the spare bytes
            assert peak <= spare + sv.SEGMENT_BYTES // sv.SEGMENT * s


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
