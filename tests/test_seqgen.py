import sys
import threading
from math import isqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mobiuswalk import dirichlet, seqgen


def mu_trial_division(m: int) -> int:
    """Independent oracle: factor by trial division."""
    if m == 1:
        return 1
    count = 0
    x = m
    d = 2
    while d * d <= x:
        if x % d == 0:
            x //= d
            count += 1
            if x % d == 0:
                return 0
        d += 1
    if x > 1:
        count += 1
    return (-1) ** count


def test_mobius_first_values():
    win = seqgen.mobius_range(1, 2)
    assert win.tolist() == [1]
    assert seqgen.mobius_range(30, 31).tolist() == [-1]  # 30 = 2*3*5
    assert seqgen.mobius_range(4, 5).tolist() == [0]
    assert seqgen.mobius_range(1, 12).tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1]


def test_mobius_against_trial_division():
    rng = np.random.default_rng(7)
    for lo, hi in [(1, 3000), (10 ** 6 - 500, 10 ** 6 + 500), (10 ** 9, 10 ** 9 + 2000)]:
        win = seqgen.mobius_range(lo, hi)
        for m in rng.integers(lo, hi, size=400):
            assert win[m - lo] == mu_trial_division(int(m)), m


def test_mobius_window_concatenation():
    a, b, c = 100, 5000, 12000
    left = seqgen.mobius_range(a, b)
    right = seqgen.mobius_range(b, c)
    full = seqgen.mobius_range(a, c)
    assert np.array_equal(np.concatenate([left, right]), full)


def test_mobius_argument_errors():
    with pytest.raises(ValueError):
        seqgen.mobius_range(10, 10)
    with pytest.raises(ValueError):
        seqgen.mobius_range(0, 5)
    # the output is allocated before the sieve checks the window
    with pytest.raises(ValueError, match="lo < hi"):
        seqgen.mobius_range(10, 5)
    with pytest.raises(ValueError, match="length must be >= 1"):
        seqgen.restricted_sequence(1, -100)
    with pytest.raises(seqgen.SegmentBudgetError):
        seqgen.mobius_range(1, 2 + seqgen.MAX_WINDOW)


def test_squarefree_count():
    assert seqgen.squarefree_count(1) == 1
    assert seqgen.squarefree_count(10) == 7  # 1,2,3,5,6,7,10
    assert seqgen.squarefree_count(10 ** 6) == 607926
    # brute force cross-check on a small range
    brute = sum(1 for m in range(1, 2001) if mu_trial_division(m) != 0)
    assert seqgen.squarefree_count(2000) == brute


def test_squarefree_density_converges():
    for x in (10 ** 4, 10 ** 5, 10 ** 6):
        dens = seqgen.squarefree_count(x) / x
        assert abs(dens - 6 / np.pi ** 2) < 2 / np.sqrt(x)


def multiples(p: int, x: int) -> int:
    """Square-free multiples of p up to x: class 0 of the counts mod p."""
    return int(dirichlet._progression_counts(p, x)[0])


def test_progression_class_zero_against_strided_count():
    primes = (2, 3, 5, 7, 97)
    edge = seqgen.DEFAULT_SEGMENT
    sqf = seqgen.mobius_range(1, 10 ** 7 + 1) != 0  # sqf[m - 1]: m square-free
    # every x <= 5000, through running totals of the multiples of p
    for p in primes:
        running = np.cumsum(sqf[:5000] & (np.arange(1, 5001) % p == 0))
        assert [multiples(p, x) for x in range(1, 5001)] == running.tolist()
    xs = [int(x) for x in np.random.default_rng(6).integers(5001, 10 ** 7 + 1, size=20)]
    for x in xs + [edge - 1, edge, edge + 1]:
        for p in primes:
            assert multiples(p, x) == int(sqf[p - 1:x:p].sum()), (p, x)
    for p, x in ((4, 1000), (1, 1000), (0, 1000), (2, 0)):
        with pytest.raises(ValueError):
            multiples(p, x)


def spy_on_sieve(monkeypatch) -> list:
    """Record each iter_mobius window."""
    calls, sieve = [], seqgen.iter_mobius
    monkeypatch.setattr(seqgen, "iter_mobius",
                        lambda lo, hi, *rest: calls.append((lo, hi)) or sieve(lo, hi, *rest))
    return calls


def test_progression_class_zero_sieves_once(monkeypatch):
    # each count mod p streams mu(d) for d <= sqrt(x): one window per call
    sqf = seqgen.mobius_range(1, 10 ** 6 + 1) != 0
    calls = spy_on_sieve(monkeypatch)
    for p in (2, 3, 997):
        assert multiples(p, 10 ** 6) == int(sqf[p - 1::p].sum())
    assert calls == [(1, isqrt(10 ** 6) + 1)] * 3
    assert multiples(7, 6) == 0 and calls[3:] == [(1, isqrt(6) + 1)]


def test_mobius_range_fills_one_array(traced_peak):
    # one int8 output filled a segment at a time: no chunk list beside a
    # joined copy, which would peak at twice the window
    seqgen.base_primes(1 << 12)
    n = 1 << 24
    assert traced_peak(lambda: seqgen.mobius_range(1, n + 1)) < n + (8 << 20)


def test_restricted_sequence_packs_in_place(traced_peak):
    # 2^23 ordinals near 1e9 are packed a segment at a time into one 1 MiB
    # array, not kept as a list of unpacked chunks and joined
    seqgen.nth_squarefree(10 ** 9 + 2 ** 23)  # the base primes, built before tracing
    assert traced_peak(lambda: seqgen.restricted_sequence(10 ** 9, 2 ** 23)) < 16 << 20


def rule_length(hi: int) -> int:
    """The segment rule written out: 64 integers per base prime, within
    [2^20, 2^22], with pi counted by the Lucy recursion."""
    return min(max(1 << 20, 64 * seqgen.prime_count(max(isqrt(hi - 1), 3))), 1 << 22)


# 2^20 below about 3.3e10, 64 pi(sqrt(hi)) = 64 * 27293 near 1e11, and 2^22
# from about 6.8e11
@pytest.mark.parametrize("lo, seg", [(1, 1 << 20), (10 ** 9 + 7, 1 << 20),
                                     (10 ** 11 + 3, 1_746_752),
                                     (1_600_000_000_003, 1 << 22), (10 ** 13, 1 << 22)])
def test_segment_rule(lo, seg):
    # one full segment and a short one; mobius_range over a window cut
    # elsewhere sieves other segments and must give the same mu
    hi = lo + seg + 1000
    assert rule_length(hi) == seg
    parts = list(seqgen.iter_mobius(lo, hi))
    assert [(a, b) for a, b, _ in parts] == [(lo, lo + seg), (lo + seg, hi)]
    mid = lo + seg // 2 + 1
    assert np.array_equal(np.concatenate([mu for _, _, mu in parts]),
                          np.concatenate([seqgen.mobius_range(lo, mid),
                                          seqgen.mobius_range(mid, hi)]))


def test_nth_squarefree():
    # first entries of the sequence: 1, 2, 3, 5, 6, 7, 10, 11, 13
    firsts = [seqgen.nth_squarefree(n) for n in range(1, 10)]
    assert firsts == [1, 2, 3, 5, 6, 7, 10, 11, 13]
    # largest square-free number not exceeding 1e6 (oracle: sieve scan;
    # 999998 = 2*31*127^2 and 999999 = 3^3*7*11*13*37 are both excluded)
    assert seqgen.nth_squarefree(607926) == 999997
    with pytest.raises(ValueError):
        seqgen.nth_squarefree(0)
    # every ordinal up to 5000, and seeded random ones below 3e5, against
    # the nonzero positions of a sieve window
    sqf = 1 + np.flatnonzero(seqgen.mobius_range(1, 500_000))
    assert [seqgen.nth_squarefree(n) for n in range(1, 5001)] == sqf[:5000].tolist()
    for n in np.random.default_rng(5).integers(5001, 300_000, size=200):
        assert seqgen.nth_squarefree(int(n)) == sqf[n - 1], n


def test_sqf_bounds():
    # proven bounds on sqf_n, found without sieving, hold around every sqf_n
    # up to 5000 and seeded ones up to 1e13, and are within about 6.6 sqrt(x)
    sqf = 1 + np.flatnonzero(seqgen.mobius_range(1, 8500))
    ns = list(range(1, 5001)) + np.random.default_rng(7).integers(1, 10 ** 13, 20).tolist()
    for n in ns:
        low, high = seqgen.sqf_bounds(n)
        x = int(sqf[n - 1]) if n <= 5000 else seqgen.nth_squarefree(n)
        assert low <= x <= high and high - low < 7 * isqrt(high) + 10, n
    with pytest.raises(ValueError):
        seqgen.sqf_bounds(0)


def test_nth_squarefree_near_1e12():
    # checked through the exact count and mu, not through the window search
    for n in (10 ** 12 - 7, 10 ** 12 + 123_457):
        y = seqgen.nth_squarefree(n)
        assert seqgen.squarefree_count(y) == n
        assert seqgen.mobius_range(y, y + 1)[0] != 0


def test_nth_squarefree_scaling():
    n = 10 ** 5
    assert abs(seqgen.nth_squarefree(n) / n - np.pi ** 2 / 6) < 0.01 * np.pi ** 2 / 6


def test_restricted_sequence_first_bits():
    seq = seqgen.restricted_sequence(1, 8)
    mu_hat = seq.slice_mu(1, 8)
    assert mu_hat.tolist() == [1, -1, -1, -1, 1, -1, 1, -1]
    bits = seq.slice_bits(1, 8)
    assert np.array_equal(bits, (mu_hat + 1) // 2)


def test_restricted_sequence_totality_and_mean():
    n = 10 ** 5
    seq = seqgen.restricted_sequence(1, n)
    bits = seq.slice_bits(1, n)
    assert bits.size == n
    assert set(np.unique(bits)) <= {0, 1}
    mean_mu = (2.0 * bits.sum() - n) / n
    assert abs(mean_mu) < 0.005


def test_restricted_sequence_offset_window():
    # windows must agree regardless of where the covering sieve started
    base = seqgen.restricted_sequence(1, 2000)
    sub = seqgen.restricted_sequence(1501, 300)
    assert np.array_equal(base.slice_bits(1501, 300), sub.slice_bits(1501, 300))


@settings(max_examples=8, deadline=None)
@given(start=st.integers(1, 10 ** 12), short=st.integers(1, 200_000),
       extra=st.integers(10_000, 150_000))
@example(start=1, short=1, extra=10_000)
@example(start=10 ** 12, short=150_000, extra=150_000)
def test_restricted_bits_match_compaction(start, short, extra):
    # the compress path against the boolean-mask compaction, chunk by chunk:
    # the short window crosses 64 Ki-entry slices, the long one the segment
    # edge, and each ends at its own final cut
    lo = seqgen.nth_squarefree(start)
    # about 6/pi^2 of the segment's integers are square-free
    for length in (short, int(rule_length(lo) * 6 / np.pi ** 2) + extra):
        hi = seqgen.nth_squarefree(start + length - 1) + 1
        want = [((mu[mu != 0] + 1) // 2).astype(np.uint8)
                for _, _, mu in seqgen.iter_mobius(lo, hi)]
        got = list(seqgen.iter_restricted_bits(start, length))
        assert [c.dtype for c in got] == [np.uint8] * len(want)
        assert [c.size for c in got] == [c.size for c in want]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert sum(c.size for c in got) == length
    assert len(got) >= 2


def test_sequence_file_roundtrip(tmp_path):
    seq = seqgen.restricted_sequence(1, 8)
    path = tmp_path / "tiny.msf"
    seqgen.write_sequence(seq, path)
    back = seqgen.read_sequence(path)
    assert back.start_ordinal == seq.start_ordinal
    assert back.length == seq.length
    assert np.array_equal(back.bits, seq.bits)


def test_sequence_file_layout(tmp_path):
    seq = seqgen.BitSequence.from_bits(1, np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8))
    path = tmp_path / "nine.msf"
    seqgen.write_sequence(seq, path)
    raw = path.read_bytes()
    assert raw[:4] == b"MSF1"
    assert int.from_bytes(raw[4:6], "little") == seqgen.FORMAT_VERSION
    assert int.from_bytes(raw[6:14], "little") == 1
    assert int.from_bytes(raw[14:22], "little") == 9
    payload = raw[22:]
    assert len(payload) == 2  # 9 bits -> 2 bytes
    assert payload[0] == 0b01001101  # LSB-first packing of 1,0,1,1,0,0,1,0
    assert payload[1] == 0b00000001  # last bit plus 7 zero pad bits


def test_sequence_file_errors(tmp_path):
    seq = seqgen.restricted_sequence(1, 8)
    path = tmp_path / "bad.msf"
    seqgen.write_sequence(seq, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(seqgen.SequenceFormatError):
        seqgen.read_sequence(path)
    # truncated payload
    seqgen.write_sequence(seq, path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(seqgen.SequenceFormatError):
        seqgen.read_sequence(path)


def test_generate_sequence_file_working_set(tmp_path, traced_peak):
    # 3e6 ordinals near 1e9 span 5e6 integers, sieved and packed a segment at
    # a time; a bound in MiB, not in the window
    seqgen.nth_squarefree(10 ** 9)  # the base primes, built before tracing
    peak = traced_peak(lambda: seqgen.generate_sequence_file(tmp_path / "w.msf", 10 ** 9,
                                                             3 * 10 ** 6))
    assert peak < 12 << 20


def test_generate_sequence_file_matches_in_memory(tmp_path, monkeypatch):
    # the writer needs no np.bitwise_count, which numpy added in 2.0
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    path = tmp_path / "gen.msf"
    summary = seqgen.generate_sequence_file(path, 5, 3000)
    seq = seqgen.read_sequence(path)
    ref = seqgen.restricted_sequence(5, 3000)
    assert np.array_equal(seq.bits, ref.bits)
    assert summary["ones"] == int(ref.slice_bits(5, 3000).sum())


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(start=st.integers(1, 10 ** 9), n=st.integers(1, 10 ** 4), seed=st.integers(0, 2 ** 32 - 1))
def test_sequence_file_roundtrip_property(tmp_path, start, n, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.uint8)
    seq = seqgen.BitSequence.from_bits(start, bits)
    path = tmp_path / "prop.msf"
    seqgen.write_sequence(seq, path)
    back = seqgen.read_sequence(path)
    assert (back.start_ordinal, back.length) == (start, n)
    assert np.array_equal(back.bits, seq.bits)
    assert np.array_equal(back.slice_bits(start, n), bits)
    assert int(back.bits[-1]) >> (n % 8 or 8) == 0  # pad bits are zero
    # the streamed writer and the in-memory one give the same bytes
    gen_path = tmp_path / "gen.msf"
    seqgen.generate_sequence_file(gen_path, start, n)
    seqgen.write_sequence(seqgen.restricted_sequence(start, n), path)
    assert gen_path.read_bytes() == path.read_bytes()


def test_slice_coverage_error():
    seq = seqgen.restricted_sequence(10, 50)
    with pytest.raises(ValueError):
        seq.slice_bits(9, 10)
    with pytest.raises(ValueError):
        seq.slice_bits(55, 10)


def test_slice_rejects_negative_count():
    seq = seqgen.restricted_sequence(10, 50)
    assert seq.slice_bits(20, 0).size == 0
    with pytest.raises(ValueError, match="count"):
        seq.slice_bits(20, -5)
    with pytest.raises(ValueError, match="count"):
        seq.slice_mu(20, -1)


def test_base_primes_read_only():
    primes = seqgen.base_primes(50)
    assert primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    with pytest.raises(ValueError, match="read-only"):
        primes[0] = 1


def test_base_primes_threads_grow_the_cache(monkeypatch):
    # two threads grow an empty cache to 100 and to 1000 at once; a build is
    # published whole, so no reader finds the primes of one limit beside the
    # other limit
    want = [n for n in range(2, 1001) if all(n % d for d in range(2, isqrt(n) + 1))]
    got = {}

    def grow(limit, barrier):
        barrier.wait()
        got[limit] = seqgen.base_primes(limit).tolist()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the sieve loop
    try:
        for _ in range(200):
            monkeypatch.setattr(seqgen, "_prime_cache", {})
            barrier = threading.Barrier(2)
            threads = [threading.Thread(target=grow, args=(limit, barrier))
                       for limit in (100, 1000)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert got == {100: want[:25], 1000: want}
            assert seqgen.base_primes(1000).tolist() == want
    finally:
        sys.setswitchinterval(interval)


def test_prime_helpers_against_trial_division():
    oracle = [n for n in range(2000) if n >= 2 and all(n % d for d in range(2, n))]
    assert [n for n in range(2000) if seqgen.is_prime(n)] == oracle
    assert seqgen.base_primes(1999).tolist() == oracle
    assert seqgen.base_primes(1).size == 0
    assert seqgen.is_prime(1_000_000_007) and not seqgen.is_prime(1_000_000_007 * 3)
