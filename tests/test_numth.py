import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import zeta

from mobiuswalk import dirichlet, mertens, numth, seqgen


def test_li_squarefree_against_quad():
    ref = quad(lambda t: 1 / math.log(t + 1), 2, 10 ** 5)[0]
    assert abs(numth.li_squarefree(10 ** 5) - ref) < 1e-5


def test_pi_sqf_small():
    # primes among 1,2,3,5,6,7,10,11 are 2,3,5,7,11
    assert seqgen.prime_count(seqgen.nth_squarefree(8)) == 5
    snaps = numth.scan_squarefree(1000)
    assert snaps[-1].prime_count == sum(
        1 for v in (seqgen.nth_squarefree(k) for k in range(1, 1001))
        if v > 1 and all(v % d for d in range(2, math.isqrt(v) + 1)))


def test_pi_sqf_table_row_1e6():
    [(_, observed, theoretical, _)] = numth.pi_table([10 ** 6])
    assert observed == 124281
    assert abs(theoretical - 124419) <= 2


def test_divisor_probability():
    [(_, emp, theo, _)] = numth.divisor_table((2,), 3)
    assert emp == pytest.approx(1 / 3)  # one of {1, 2, 3} is even
    assert theo == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        numth.divisor_table((4,), 1000)
    # sqf_4 = 5: no multiple of 7 yet, one of 5
    assert numth.divisor_table((7, 5), 4) == [(7, 0.0, 0.125, 1.0), (5, 0.25, 1 / 6, 0.5)]


def test_divisor_probability_converges():
    for p, emp, _, _ in numth.divisor_table((2, 3, 5, 7, 11, 13, 17, 19), 10 ** 6):
        assert abs(emp - 1 / (p + 1)) < 3 / math.sqrt(10 ** 6)


def _same_snapshot(a, b):
    return (np.array_equal(a.class_counts, b.class_counts)
            and replace(a, class_counts=None) == replace(b, class_counts=None))


def test_scan_at_segment_edge():
    # ordinal q_edge is the last square-free number of the first sieve segment
    edge = seqgen.DEFAULT_SEGMENT
    q_edge = seqgen.squarefree_count(edge)
    marks = (q_edge - 1, q_edge, q_edge + 1)
    primes = (2, 3, 7, 65537)
    snaps = numth.scan_squarefree(q_edge + 1, marks)
    assert [s.n for s in snaps] == list(marks)
    assert snaps[1].sqf_n <= edge < snaps[2].sqf_n
    sqf = seqgen.mobius_range(1, snaps[-1].sqf_n + 1) != 0
    for c, snap in zip(marks, snaps):
        assert snap.sqf_n == seqgen.nth_squarefree(c)
        assert snap.mertens == mertens.mertens_restricted(c)
        assert snap.prime_count == seqgen.base_primes(snap.sqf_n).size
        assert int(snap.class_counts.sum()) == snap.n
        for p in primes:
            want = int(sqf[p - 1:snap.sqf_n:p].sum())
            assert dirichlet._progression_counts(p, snap.sqf_n)[0] == want
        assert _same_snapshot(snap, numth.scan_squarefree(c)[-1])
    # the cut at q_edge leaves no square-free number to carry over; one below does
    carried = numth.scan_squarefree(q_edge + 1, (q_edge - 1,))[-1]
    assert _same_snapshot(carried, snaps[-1])


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(1, 10 ** 12), width=st.integers(0, 3000), seed=st.integers(0, 2 ** 32 - 1))
def test_tally_matches_compaction(lo, width, seed):
    # the tally's dropped bins against the compaction om[mu != 0], on random
    # bytes and a real sieve window, each also one entry shorter so both
    # parities of length occur
    rng = np.random.default_rng(seed)
    stretches = [(rng.integers(-1, 2, width, dtype=np.int8),
                  rng.integers(0, 17, width, dtype=np.uint8))]
    if width:
        stretches += [(mu, om) for _, _, mu, om in
                      seqgen.iter_mobius(lo, lo + width, want_omega=True)]
    stretches += [(mu[1:], om[1:]) for mu, om in stretches]
    tally = numth._Tally()
    want = np.zeros(numth._MAX_OMEGA, dtype=np.int64)
    for mu, om in stretches:
        tally.add(mu, om)
        want += np.bincount(om[mu != 0], minlength=numth._MAX_OMEGA)
    assert np.array_equal(tally.class_counts, want)


def series_constants() -> numth.Constants:
    """The log log constants from the series and quadratures they are
    tabulated from.  mu(k) is an int8, so A and the offset are np.float64."""
    tol = 1e-12
    a_const = float(np.euler_gamma)
    for k in itertools.count(2):
        term = math.log(float(zeta(k))) / k
        a_const += seqgen.mobius_range(k, k + 1)[0] * term
        if term < tol:
            break

    # I_j = int_2^inf t^-j / log t dt is a term of both B and the correction
    b_const = var_corr = 0.0
    j, b_open, corr_open = 2, True, True
    while b_open or corr_open:
        i_j = quad(lambda t, jj=j: t ** (-jj) / math.log(t), 2.0, np.inf, epsabs=1e-14)[0]
        if b_open:
            b_const += (-1) ** j * i_j
            b_open = i_j >= tol
        if corr_open:
            var_corr += (-1) ** (j - 2) * (j - 1) * i_j
            corr_open = (j - 1) * i_j >= tol
        j += 1

    return numth.Constants(a_const, b_const, a_const - b_const, var_corr)


def test_constants_match_series():
    # the literals carry the values and the types of the series
    assert repr(series_constants()) == repr(numth.constants_compute())


def test_constants():
    c = numth.constants_compute()
    assert abs(c.kronecker_A - 0.261497) < 1e-4
    assert abs(c.series_B - 0.291479) < 1e-3
    assert abs(c.variance_correction - 0.226978) < 1e-3
    assert abs(c.omega_offset - (-0.029982)) < 1e-3


def test_omega_stats():
    # the log log correction converges slowly; ~1% residue remains at 1e5
    st = numth.omega_stats(10 ** 5)
    assert abs(st.mean_observed - st.mean_theoretical) / st.mean_observed < 0.02
    assert st.lam == pytest.approx(st.mean_theoretical - 1.0)
    with pytest.raises(ValueError):
        numth.omega_stats(100)


def test_class_counts_small():
    cc = numth.class_counts(7)  # square-free up to 10
    assert cc.tolist() == [1, 4, 2]  # the unit; 2, 3, 5, 7; 6, 10
    assert int(cc[0::2].sum() - cc[1::2].sum()) == mertens.mertens_restricted(7) == -1


def test_class_counts_end_at_last_primorial():
    # the smallest square-free number with k prime factors is the k-th
    # primorial, so the last class is the number of primorials <= sqf_n
    primorials = np.cumprod([2, 3, 5, 7, 11, 13, 17, 19], dtype=np.int64)
    for n in [*range(1, 401), 10 ** 4, 10 ** 5, 123457, 10 ** 6]:
        width = int(np.searchsorted(primorials, seqgen.nth_squarefree(n), "right"))
        assert numth.class_counts(n).size - 1 == width, n


def test_class_counts_partition_identity():
    rng = np.random.default_rng(5)
    ns = sorted(int(v) for v in rng.integers(10, 20000, size=8))
    snaps = numth.scan_squarefree(ns[-1], checkpoints=tuple(ns))
    for snap in snaps:
        assert int(snap.class_counts.sum()) == snap.n
        signs = np.where(np.arange(snap.class_counts.size) % 2 == 0, 1, -1)
        assert int((signs * snap.class_counts).sum()) == mertens.mertens_restricted(snap.n)


def test_poisson_fit():
    lam = 2.0
    n = 100000
    counts = np.zeros(12, dtype=np.int64)
    counts[0] = 1
    for k in range(1, 12):
        counts[k] = round(n * math.exp(-lam) * lam ** (k - 1) / math.factorial(k - 1))
    fit = numth.poisson_fit(counts, lam)
    assert fit.chi2 < 0.01  # rounding residue only
    assert fit.p_value > 0.999
    with pytest.raises(ValueError):
        numth.poisson_fit(counts, -1.0)


def test_poisson_most_probable_class():
    st = numth.omega_stats(10 ** 6)
    cc = numth.class_counts(10 ** 6)
    assert int(np.argmax(cc[1:])) + 1 == int(st.mean_observed) + 1


def test_poisson_limit_matches_prime_probability():
    # P(1, n) = exp(-lambda) decays like 1/log((pi^2/6) n): the ratio of the
    # two stabilizes to exp(1 - offset) ~ 2.8 instead of drifting
    ratios = []
    for n in (10 ** 5, 10 ** 6, 10 ** 7, 10 ** 9):
        lam = numth.omega_mean_theoretical(n) - 1.0
        ratios.append(math.exp(-lam) * math.log(math.pi ** 2 / 6 * n))
    assert all(2.7 < r < 2.9 for r in ratios)
    assert max(ratios) - min(ratios) < 1e-4  # drift only from the +1 inside loglog


def test_erdos_kac_sample_moments():
    # slow log log convergence: the limit variance is 1, but at reachable n
    # the conditioning on size suppresses it to ~0.35-0.40 (measured)
    snap = numth.scan_squarefree(10 ** 6)[-1]
    n = snap.n
    t = math.log(math.log(math.pi ** 2 / 6 * n + 1))
    mean_z = (snap.omega_sum / n - t) / math.sqrt(t)
    var_z = (snap.omega_sumsq / n - (snap.omega_sum / n) ** 2) / t
    assert abs(mean_z) < 0.2
    assert 0.2 < var_z < 1.5


def test_tables():
    rows = numth.pi_table([10 ** 4, 10 ** 5])
    assert rows[0][0] == 10 ** 4 and rows[1][0] == 10 ** 5
    for _, obs, theo, err in rows:
        assert err == pytest.approx(abs(theo - obs) / obs)
        assert err < 0.02
    assert [row[0] for row in numth.pi_table([5, 5, 3])] == [3, 5]
    with pytest.raises(ValueError, match="ordinal 1"):
        numth.pi_table([1, 10])
    with pytest.raises(ValueError, match="ordinal 1"):
        numth.omega_table([1])
    drows = numth.divisor_table((2, 3), 10 ** 4)
    assert drows[0][2] == pytest.approx(1 / 3)


def test_pi_sqf_equals_direct_prime_count():
    # cross-check: primes among the first n square-free equal pi(sqf_n)
    n = 20000
    snap = numth.scan_squarefree(n)[-1]
    limit = snap.sqf_n
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    assert snap.prime_count == int(sieve.sum())
