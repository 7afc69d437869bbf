"""The sublinear counts against the linear scans they replaced.

`prime_count` (pi(x) by the Lucy/Legendre recursion), the progression
counts (a sum over mu(d), d <= sqrt(x)) and `mertens_restricted` (the
Mertens function at sqf_n) are each checked exhaustively on small inputs,
at seeded random inputs, at the first sieve segment edge, against
published values, and by property tests, with sieve-based oracles kept
here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobiuswalk import dirichlet, mertens, numth, seqgen

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
        for q in moduli:
            counts[q] += dirichlet._residue_sums(seg_lo, mu != 0, q)
    return counts


def linear_mertens_restricted(n: int) -> int:
    """M-hat(n) as the sum of mu over every integer up to sqf_n."""
    total = 0
    for _, _, mu in seqgen.iter_mobius(1, seqgen.nth_squarefree(n) + 1):
        total += int(mu.sum(dtype=np.int64))
    return total


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


def test_progression_counts_small_x():
    # every x from q to 5000: one sieve, classes counted by cumulative sums
    flags = seqgen.mobius_range(1, 5001).values != 0
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


def test_pi_sqf_exact_1e7_agrees_with_scan():
    # not the acceptance row: 01b states 1028462, which both routes contradict
    assert numth.pi_sqf_exact(10 ** 7) == 1058143
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
        seqgen.squarefree_terms(0)
