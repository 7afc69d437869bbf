"""The sublinear counts against the linear scans they replaced.

`prime_counts` (pi(x) by the Lucy/Legendre recursion), the progression
counts (a sum over mu(d), d <= sqrt(x)) and `mertens_restricted` (the
Mertens function at sqf_n) are each checked exhaustively on small inputs,
at seeded random inputs, at the first sieve segment edge, against
published values, and by property tests, with sieve-based oracles kept
here.  `mertens_function` is also checked up to 2e9 against the x^(2/3)
recursion it replaced, which runs here on a mu sieve of its own.
"""

import time
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobiuswalk import cli, dirichlet, mertens, numth, seqgen

EDGE = seqgen.DEFAULT_SEGMENT  # the last integer of the first sieve segment
MODULI = (2, 3, 7, 11, 101)
LARGE_Q = 100003  # above sqrt(x) here, so most terms reach fewer than q classes

# pi(10^k) and M(10^k) for k = 1..10 (OEIS A006880, A084237)
PUBLISHED_PI = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534,
                455052511)
PUBLISHED_M = (-1, 1, 2, -23, -48, 212, 1037, 1928, -222, -33722)


def linear_progression_counts(moduli, x_max: int) -> dict:
    """Square-free counts in [2, x_max] per residue class, for each modulus,
    from one streamed sieve."""
    counts = {q: np.zeros(q, dtype=np.int64) for q in moduli}
    for seg_lo, _, mu in seqgen.iter_mobius(2, x_max + 1):
        sqf = np.flatnonzero(mu != 0) + seg_lo
        for q in moduli:
            counts[q] += np.bincount(sqf % q, minlength=q)
    return counts


def linear_mertens_restricted(n: int) -> int:
    """M-hat(n) as the sum of mu over every integer up to sqf_n."""
    total = 0
    for _, _, mu in seqgen.iter_mobius(1, seqgen.nth_squarefree(n) + 1):
        total += int(mu.sum(dtype=np.int64))
    return total


def oracle_mobius(n: int) -> np.ndarray:
    """mu(0..n), mu(0) = 0, from a sieve of its own: each prime p <= sqrt(n)
    flips the sign of its multiples, multiplies their product by p and
    zeroes the multiples of p^2; a square-free m whose product falls short
    of m has one more prime factor, above sqrt(n)."""
    mu = np.ones(n + 1, dtype=np.int8)
    prod = np.ones(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if prod[p] == 1:  # no smaller prime divides p
            mu[::p] *= -1
            prod[::p] *= p
            mu[::p * p] = 0
    mu[prod < np.arange(n + 1)] *= -1
    mu[0] = 0
    return mu


def recursive_mertens(x: int) -> int:
    """M(x) from `oracle_mobius` summed to u ~ x^(2/3) and, at each quotient
    v = x // k above u, M(v) = 1 - sum_{d>=2} M(v // d): the quotients above
    sqrt(v) one d at a time, the rest t <= sqrt(v) grouped by the
    v // t - v // (t + 1) values of d that share them.  Larger k come first."""
    u = min(x, max(isqrt(x), int(x ** (2 / 3))))
    small = np.cumsum(oracle_mobius(u), dtype=np.int64)  # small[v] = M(v)
    big = x // (u + 1)  # x // k > u exactly for k <= big
    large = np.zeros(big + 1, dtype=np.int64)  # large[k] = M(x // k)
    for k in range(big, 0, -1):
        v = x // k
        s = isqrt(v)
        t = np.arange(1, s + 2, dtype=np.int64)
        grouped = int(np.diff(-(v // t)) @ small[1:s + 1])
        kd = k * np.arange(2, v // (s + 1) + 1, dtype=np.int64)
        inner = kd <= big
        large[k] = (1 - grouped - int(large[kd[inner]].sum())
                    - int(small[x // kd[~inner]].sum()))
    return int(large[1]) if big else int(small[x])


def _primes_upto(x: int) -> int:
    return seqgen.base_primes(x).size


def test_prime_count_against_base_primes():
    primes = seqgen.base_primes(5000)
    for x in range(5001):
        assert seqgen.prime_count(x) == int(np.searchsorted(primes, x, side="right")), x
    rng = np.random.default_rng(71)
    xs = [int(v) for v in rng.integers(5000, 2 * 10 ** 7, size=20)]
    for x in xs + [EDGE - 1, EDGE, EDGE + 1]:
        assert seqgen.prime_count(x) == _primes_upto(x), x


def test_prime_counts_batch():
    # one batch, unsorted and with repeats: 0, 1, 2, every side of
    # r = isqrt(2e7) = 4472 and of r^2, seeded x up to 2e7 and the segment edge
    rng = np.random.default_rng(74)
    r = isqrt(2 * 10 ** 7)
    xs = ([0, 1, 2, r - 1, r, r + 1, r * r - 1, r * r, 2 * 10 ** 7, EDGE - 1, EDGE, EDGE + 1]
          + [int(v) for v in rng.integers(3, 2 * 10 ** 7, size=30)]
          + [int(v) for v in rng.integers(3, r, size=10)])
    xs += xs[::3]
    rng.shuffle(xs)
    want = [_primes_upto(x) if x >= 2 else 0 for x in xs]
    assert seqgen.prime_counts(xs) == want
    assert [seqgen.prime_count(x) for x in xs] == want
    assert seqgen.prime_counts([]) == []


def test_progression_counts_small_x():
    # every x from q to 5000: one sieve, classes counted by cumulative sums
    flags = seqgen.mobius_range(1, 5001) != 0
    flags[0] = False  # the unit is not counted
    m = np.arange(1, 5001)
    for q in MODULI:
        running = np.cumsum(flags[:, None] & (m[:, None] % q == np.arange(q)), axis=0)
        for x in range(q, 5001):
            assert dirichlet._progression_counts(q, x).tolist() == running[x - 1].tolist(), (q, x)
    assert all(np.array_equal(dirichlet._progression_counts(q, 5000), want)
               for q, want in linear_progression_counts(MODULI, 5000).items())


def test_progression_counts_random_and_edge():
    rng = np.random.default_rng(72)
    xs = [int(v) for v in rng.integers(10 ** 4, 10 ** 7, size=3)]
    for x in xs + [EDGE - 1, EDGE, EDGE + 1, LARGE_Q, 2 * 10 ** 5]:
        moduli = MODULI + ((LARGE_Q,) if x >= LARGE_Q else ())
        for q, want in linear_progression_counts(moduli, x).items():
            got = dirichlet._progression_counts(q, x)
            assert np.array_equal(got, want), (q, x)
            assert int(got.sum()) == seqgen.squarefree_count(x) - 1


def unsliced_squarefree_count(x: int) -> int:
    """Q(x) from one sum over every d <= sqrt(x) at once."""
    mu = oracle_mobius(isqrt(x))[1:]
    d = np.arange(1, mu.size + 1, dtype=np.int64)
    return int(mu @ (x // (d * d)))


def unsliced_progression_counts(q: int, x_max: int) -> np.ndarray:
    """The class counts from one pass over every d <= sqrt(x_max) at once,
    the tails j d^2, j <= b, summed per pair (d^2 mod q, b) first."""
    mu = oracle_mobius(isqrt(x_max))[1:]
    d = np.arange(1, mu.size + 1, dtype=np.int64)
    quotients = x_max // (d * d)
    unit = (d % q != 0) & (mu != 0)
    a, b = np.divmod(quotients[unit], q)
    counts = np.full(q, mu[unit] @ a, dtype=np.int64)
    counts[0] += mu[~unit] @ quotients[~unit]
    counts[1] -= 1  # the unit
    weight = np.zeros((q, q), dtype=np.int64)  # weight[d^2 mod q, b]: mu summed
    np.add.at(weight, (d[unit] ** 2 % q, b), mu[unit])
    for s, n in zip(*np.nonzero(weight)):
        counts[np.arange(1, n + 1) * s % q] += weight[s, n]  # distinct classes, as q is prime
    return counts


def test_counts_at_slice_edges():
    # sqrt(x) one below, at and one past a multiple of the slice, for the
    # largest and the smallest x with that root
    for r in (k * seqgen._TERM_SLICE + e for k in (1, 2) for e in (-1, 0, 1)):
        for x in (r * r, r * r + 2 * r):
            assert seqgen.squarefree_count(x) == unsliced_squarefree_count(x), x
            for q in (2, 7, 101):
                assert np.array_equal(dirichlet._progression_counts(q, x),
                                      unsliced_progression_counts(q, x)), (q, x)


def test_squarefree_count_1e15(traced_peak):
    # mu streams from the sieve: no table of the 3.2e7 mu(d), d <= sqrt(x),
    # is kept, and the peak is a sieve segment and the slices of d
    seqgen.base_primes(isqrt(isqrt(10 ** 15)))
    counted = []
    assert traced_peak(lambda: counted.append(seqgen.squarefree_count(10 ** 15))) < 8 << 20
    assert counted == [607927101854103]  # OEIS A071172


def test_exact_counts_work_in_slices(traced_peak):
    # cold, so the peak is a sieve segment and the sums' own temporaries:
    # slices of d, not int64 arrays as long as sqrt(x), 3.2e6 and 1e6 here
    assert traced_peak(lambda: seqgen.squarefree_count(10 ** 13)) < 6 << 20
    assert traced_peak(lambda: dirichlet._progression_counts(7, 10 ** 12)) < 8 << 20
    # M(1e10) works on its quotient table of 2e5 int64 values, in slices
    seqgen.base_primes(10 ** 5)
    assert traced_peak(lambda: mertens.mertens_function(10 ** 10)) < 8 << 20


def test_mertens_restricted_against_linear_loop():
    for n in range(1, 5001):
        assert mertens.mertens_restricted(n) == linear_mertens_restricted(n), n
    q_edge = seqgen.squarefree_count(EDGE)
    rng = np.random.default_rng(73)
    ns = [int(v) for v in rng.integers(5000, 3 * 10 ** 6, size=4)]
    for n in ns + [q_edge - 1, q_edge, q_edge + 1]:
        assert mertens.mertens_restricted(n) == linear_mertens_restricted(n), n


def test_published_pi_and_mertens():
    assert [seqgen.prime_count(10 ** k) for k in range(1, 11)] == list(PUBLISHED_PI)
    assert [mertens.mertens_function(10 ** k) for k in range(1, 11)] == list(PUBLISHED_M)


def test_mertens_against_recursive_oracle():
    # seeded x log-uniform in [5e6, 2e9], and r^2 - 1, r^2 and r^2 + 1, where
    # the root of the table, and so its split into small and large, moves
    rng = np.random.default_rng(76)
    xs = [int(5 * 10 ** 6 * 400 ** u) for u in rng.random(10)]
    xs += [r * r + e for r in (2237, 2 ** 15, 44721) for e in (-1, 0, 1)]
    for x in xs:
        assert mertens.mertens_function(x) == recursive_mertens(x), x
    assert mertens.mertens_function(10 ** 11) == -87856  # the old x^(2/3) recursion's value


def test_pi_sqf_exact_1e7_agrees_with_scan():
    # not the acceptance row: 01b states 1028462, which both routes contradict
    assert seqgen.prime_count(seqgen.nth_squarefree(10 ** 7)) == 1058143
    assert numth.scan_squarefree(10 ** 7)[-1].prime_count == 1058143


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=3 * 10 ** 5))
def test_prime_count_property(x):
    assert seqgen.prime_count(x) == (_primes_upto(x) if x >= 2 else 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 13, 31, 97)), st.integers(min_value=0, max_value=2 * 10 ** 5))
def test_progression_counts_property(q, extra):
    x = q + extra
    got = dirichlet._progression_counts(q, x)
    assert np.array_equal(got, linear_progression_counts((q,), x)[q])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 5))
def test_mertens_restricted_property(n):
    assert mertens.mertens_restricted(n) == linear_mertens_restricted(n)
    assert mertens.mertens_function(seqgen.nth_squarefree(n)) == \
        numth.scan_squarefree(n)[-1].mertens


def test_count_arguments_rejected():
    with pytest.raises(ValueError):
        mertens.mertens_function(0)
    with pytest.raises(ValueError):
        mertens.mertens_restricted(0)
    with pytest.raises(ValueError):
        seqgen.squarefree_count(0)


def test_exact_counts_over_budget_raise_before_sieving(monkeypatch, traced_peak):
    def no_sieve(*args):
        raise AssertionError("sieved past the budget")

    # Q(x) and the class counts sum mu(d) over d <= sqrt(x): the first x
    # refused has sqrt(x) = MAX_WINDOW + 1.  A lazy check would first
    # allocate two arrays of q classes, and a check after is_prime(q) would
    # first sieve the base primes to sqrt(q)
    monkeypatch.setattr(seqgen, "iter_mobius", no_sieve)
    monkeypatch.setattr(seqgen, "mobius_range", no_sieve)

    def over_budget_classes():
        with pytest.raises(seqgen.SegmentBudgetError, match="exceeds budget"):
            dirichlet._progression_counts(1000003, (seqgen.MAX_WINDOW + 1) ** 2)
    assert traced_peak(over_budget_classes) < 1 << 20
    monkeypatch.setattr(seqgen, "base_primes", no_sieve)
    with pytest.raises(seqgen.SegmentBudgetError, match="exceeds budget"):
        seqgen.squarefree_count((seqgen.MAX_WINDOW + 1) ** 2)
    # the least prime above (MAX_WINDOW + 1)^2, as both q and x
    with pytest.raises(seqgen.SegmentBudgetError, match="exceeds budget"):
        dirichlet.progression_table(4503599761588243, 4503599761588243)
    # M shares pi's table and bound: the first x refused has sqrt(x) = MAX_WINDOW + 1
    start = time.perf_counter()
    with pytest.raises(seqgen.SegmentBudgetError, match="exceeds budget"):
        mertens.mertens_function((seqgen.MAX_WINDOW + 1) ** 2)
    # without the check pi(2^60) would first allocate three int64 arrays of 2^30
    with pytest.raises(seqgen.SegmentBudgetError, match="exceeds budget"):
        seqgen.prime_count(2 ** 60)
    assert time.perf_counter() - start < 1.0

    # each x is in budget, but the batch would hold about 2^36 values above
    # sqrt(2^52) = 2^26: two int64 tables of 512 GiB
    def over_budget_batch():
        with pytest.raises(seqgen.SegmentBudgetError, match="exceeds budget"):
            seqgen.prime_counts([2 ** 52 - i for i in range(1024)])
    assert traced_peak(over_budget_batch) < 1 << 20


def test_pi_table_refuses_before_sieving(monkeypatch):
    # the ten marks of `tables --which pi --n 2e14` hold about 1e8 quotients
    # above their root: bounds on each sqf_n refuse them before any Q(x)
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("sieved past the budget")

    monkeypatch.setattr(seqgen, "squarefree_count", spy)
    monkeypatch.setattr(seqgen, "iter_mobius", spy)
    monkeypatch.setattr(numth, "iter_mobius", spy)
    with pytest.raises(seqgen.SegmentBudgetError, match="exceeds budget"):
        numth.pi_table(cli._marks(2e14))
    assert calls == []
    # the early check passes the largest n that prime_counts admits
    bounds = [seqgen.sqf_bounds(n) for n in cli._marks(90507801439204)]
    seqgen.prime_counts_budget([low for low, _ in bounds], bounds[-1][1])
