"""The log-sum, width-aware Mobius sieve against the division sieve it
replaced.

`division_sieve` is the former `seqgen._sieve_segment`: it divides an int64
residue array by every base prime and counts what is left over.  The
current kernel must give the same mu everywhere and the same omega wherever
mu != 0 (the only place omega is read), on every small window, across the
strided/scattered cut, at the sieve's segment edge, at large offsets and on
integers built to sit closest to the log-sum threshold.  Everywhere else
omega must stay at most 15, clear of the square marks that share its
accumulator, so that `numth._Tally` drops those entries.
"""

from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobiuswalk import seqgen

SEGMENT = seqgen.DEFAULT_SEGMENT
OFFSETS = (1, SEGMENT - 1, SEGMENT, SEGMENT + 1, 4 * SEGMENT - 1, 4 * SEGMENT,
           4 * SEGMENT + 1, 2_500_000_000, 10 ** 12, 1_600_000_000_000, 10 ** 13)
# primes move from the scatter to the strided slices at width 64 p
WIDTHS = (1, 7, 600, 5000, 64 * 2 - 1, 64 * 2, 64 * 2 + 1, 64 * 97 - 1, 64 * 97,
          64 * 97 + 1)


def division_sieve(lo: int, hi: int):
    """(mu, omega) on [lo, hi) by dividing out every prime p with p^2 < hi."""
    n = hi - lo
    mu = np.ones(n, dtype=np.int8)
    omega = np.zeros(n, dtype=np.uint8)
    residue = np.arange(lo, hi, dtype=np.int64)
    for p in seqgen.base_primes(isqrt(hi - 1)).tolist():
        start = (-lo) % p
        mu[start::p] = -mu[start::p]
        residue[start::p] //= p
        omega[start::p] += 1
        mu[(-lo) % (p * p)::p * p] = 0
    leftover = residue > 1
    mu[leftover] = -mu[leftover]
    omega[leftover] += 1
    return mu, omega


def sieve(lo: int, hi: int):
    """(mu, omega) on [lo, hi) from iter_mobius, joined over segments."""
    parts = list(seqgen.iter_mobius(lo, hi, want_omega=True))
    return (np.concatenate([mu for _, _, mu, _ in parts]),
            np.concatenate([om for _, _, _, om in parts]))


def assert_same(got, want, where):
    mu, omega = got
    want_mu, want_omega = want
    assert np.array_equal(mu, want_mu), where
    assert np.array_equal(omega[mu != 0], want_omega[mu != 0]), where
    assert omega.max(initial=0) <= 15, where


def test_every_window_below_300():
    want = division_sieve(1, 300)
    for hi in range(2, 301):
        for lo in range(1, hi):
            assert_same(sieve(lo, hi), (want[0][lo - 1:hi - 1], want[1][lo - 1:hi - 1]),
                        (lo, hi))


@pytest.mark.parametrize("lo", OFFSETS)
def test_widths_at_offsets(lo):
    want = division_sieve(lo, lo + max(WIDTHS))
    for w in WIDTHS:
        assert_same(sieve(lo, lo + w), (want[0][:w], want[1][:w]), (lo, w))


@pytest.mark.parametrize("lo", (1, 2_500_000_000, 1_600_000_000_000))
def test_full_segment(lo):
    # one kernel call at the shortest and the longest segment of the rule;
    # primes move from the strided slices to the scatter at n // 64
    for n in (SEGMENT, 4 * SEGMENT):
        primes = seqgen.base_primes(isqrt(lo + n - 1))
        assert_same(seqgen._sieve_segment(lo, lo + n, primes, True),
                    division_sieve(lo, lo + n), (lo, n))


@pytest.mark.parametrize("lo", (10 ** 12, 10 ** 14))
def test_scatter_blocks_bound_their_hits(lo):
    # the scattered primes and squares of a 4 Mi segment, in blocks that
    # cover them in order, each of at most 2^14 steps and 2^17 hits
    n = 4 * SEGMENT
    primes = seqgen.base_primes(isqrt(lo + n - 1))
    for steps in (primes, primes * primes):
        cut = seqgen._stride_cut(steps, n)
        blocks = list(seqgen._scatter_blocks(steps, cut, n))
        assert [a for a, _ in blocks] + [steps.size] == [cut] + [b for _, b in blocks]
        for a, b in blocks:
            hits = int(((lo + n - 1) // steps[a:b] - (lo - 1) // steps[a:b]).sum())
            assert 0 < b - a <= seqgen._SCATTER_STEPS and hits <= seqgen._SCATTER_HITS


@pytest.mark.parametrize("want_omega", (False, True))
@pytest.mark.parametrize("lo, n", ((10 ** 9, SEGMENT), (10 ** 12, 4 * SEGMENT)))
def test_segment_working_set(lo, n, want_omega, traced_peak):
    # the accumulator (2 bytes per integer), mu and omega (1 each), and the
    # scatter budget: 16 bytes for each of _SCATTER_HITS hits, where a
    # scattered block holds 10, which also covers the base-prime arrays and
    # mu's slices
    primes = seqgen.base_primes(isqrt(lo + n - 1))
    peak = traced_peak(lambda: seqgen._sieve_segment(lo, lo + n, primes, want_omega))
    assert peak < (3 + want_omega) * n + 16 * seqgen._SCATTER_HITS


def test_primorial_times_smallest_leftover():
    # m = P q with P a primorial and q the least prime with q^2 >= hi: as
    # many sieving primes as m can hold and the smallest leftover prime, so
    # its log sum sits closest to the leftover threshold
    for r in range(1, 9):
        primorial = prod(seqgen.base_primes(23)[:r].tolist())
        q = primorial + 1
        while not (seqgen.is_prime(q) and q * q >= primorial * q + 64):
            q += 1
        m = primorial * q
        lo = max(1, m - 63)
        mu, omega = sieve(lo, m + 64)
        assert (mu[m - lo], omega[m - lo]) == ((-1) ** (r + 1), r + 1), r
        if m < 10 ** 13:
            assert_same((mu, omega), division_sieve(lo, m + 64), r)


def test_window_beyond_packed_range():
    with pytest.raises(ValueError):
        next(seqgen.iter_mobius(2 ** 63 - 5, 2 ** 63 + 1))


def mu_trial_division(m: int) -> int:
    primes = seqgen.base_primes(isqrt(m))
    divisors = primes[m % primes == 0].tolist()
    if any(m % (p * p) == 0 for p in divisors):
        return 0
    return (-1) ** (len(divisors) + (m > prod(divisors)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10 ** 13), st.integers(1, 40))
def test_mobius_range_against_trial_division(lo, width):
    values = seqgen.mobius_range(lo, lo + width)
    assert values.tolist() == [mu_trial_division(m) for m in range(lo, lo + width)]
