import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from mobiuswalk import mertens, numth, seqgen


def test_primorial_table():
    assert numth.primorial(1) == 2
    assert numth.primorial(2) == 6
    assert numth.primorial(5) == 2310
    assert numth.primorial(7) == 510510
    assert numth.primorial(10) == 6469693230
    assert numth.primorial(15) == 614889782588491410


def test_term_count():
    assert numth.term_count(2) == 1
    assert numth.term_count(5) == 1
    assert numth.term_count(6) == 2
    assert numth.term_count(105) == 3  # 30 <= 105 < 210
    assert numth.term_count(6469693230) == 10  # equality at the 10th primorial
    with pytest.raises(ValueError):
        numth.term_count(12)  # not square-free
    with pytest.raises(ValueError):
        numth.term_count(1)


def test_term_count_monotone_and_steps():
    prev = 1
    values = [v for v in range(2, 2400) if seqgen.mobius_range(v, v + 1).values[0] != 0]
    counts = [numth.term_count(v) for v in values]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    # increments happen exactly at primorials
    jumps = [values[i + 1] for i in range(len(counts) - 1) if counts[i + 1] > counts[i]]
    assert jumps == [6, 30, 210, 2310]


def test_omega():
    assert numth.omega(1) == 0
    assert numth.omega(2) == 1
    assert numth.omega(30) == 3
    assert numth.omega(510510) == 7
    with pytest.raises(ValueError):
        numth.omega(4)


def test_li_squarefree_against_quad():
    ref = quad(lambda t: 1 / math.log(t + 1), 2, 10 ** 5)[0]
    assert abs(numth.li_squarefree(10 ** 5) - ref) < 1e-5


def test_pi_sqf_small():
    # primes among 1,2,3,5,6,7,10,11 are 2,3,5,7,11
    assert numth.pi_sqf_exact(8) == 5
    snaps = numth.scan_squarefree(1000)
    assert snaps[-1].prime_count == sum(
        1 for v in (seqgen.nth_squarefree(k) for k in range(1, 1001))
        if v > 1 and all(v % d for d in range(2, math.isqrt(v) + 1)))


def test_pi_sqf_table_row_1e6():
    assert numth.pi_sqf_exact(10 ** 6) == 124281
    assert abs(numth.pi_sqf_theoretical(10 ** 6) - 124419) <= 2


def test_divisor_probability():
    emp, theo = numth.divisor_probability_check(2, 3)
    assert emp == pytest.approx(1 / 3)  # one of {1, 2, 3} is even
    assert theo == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        numth.divisor_probability_check(4, 100)
    with pytest.raises(ValueError):
        numth.divisor_table((4,), 1000)


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
    sqf = seqgen.mobius_range(1, snaps[-1].sqf_n + 1).values != 0
    for c, snap in zip(marks, snaps):
        assert snap.sqf_n == seqgen.nth_squarefree(c)
        assert snap.mertens == mertens.mertens_restricted(c)
        assert snap.prime_count == seqgen.base_primes(snap.sqf_n).size
        assert int(snap.class_counts.sum()) == snap.n
        for p in primes:
            assert seqgen.squarefree_multiples(p, snap.sqf_n) == int(sqf[p - 1:snap.sqf_n:p].sum())
        assert _same_snapshot(snap, numth.scan_squarefree(c)[-1])
    # the cut at q_edge leaves no square-free number to carry over; one below does
    carried = numth.scan_squarefree(q_edge + 1, (q_edge - 1,))[-1]
    assert _same_snapshot(carried, snaps[-1])


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
    assert cc.counts[0] == 1  # the unit
    assert cc.counts[1] == 4  # 2, 3, 5, 7
    assert cc.counts[2] == 2  # 6, 10
    assert int(cc.counts.sum()) == 7
    assert cc.n_plus + cc.n_minus == 7
    assert cc.alternating_sum == 1 - 4 + 2


def test_class_counts_partition_identity():
    rng = np.random.default_rng(5)
    ns = sorted(int(v) for v in rng.integers(10, 20000, size=8))
    snaps = numth.scan_squarefree(ns[-1], checkpoints=tuple(ns))
    for snap in snaps:
        assert int(snap.class_counts.sum()) == snap.n
        signs = np.where(np.arange(snap.class_counts.size) % 2 == 0, 1, -1)
        assert int((signs * snap.class_counts).sum()) == snap.mertens


def test_poisson_fit():
    lam = 2.0
    n = 100000
    counts = np.zeros(12, dtype=np.int64)
    counts[0] = 1
    for k in range(1, 12):
        counts[k] = round(n * math.exp(-lam) * lam ** (k - 1) / math.factorial(k - 1))
    cc = numth.ClassCounts(int(counts.sum()), counts, 0, 0)
    fit = numth.poisson_fit(cc, lam)
    assert fit.chi2 < 0.01  # rounding residue only
    assert fit.p_value.value > 0.999
    with pytest.raises(ValueError):
        numth.poisson_fit(cc, -1.0)


def test_poisson_most_probable_class():
    st = numth.omega_stats(10 ** 6)
    cc = numth.class_counts(10 ** 6)
    assert int(np.argmax(cc.counts[1:])) + 1 == int(st.mean_observed) + 1


def test_poisson_limit_matches_prime_probability():
    # P(1, n) = exp(-lambda) decays like 1/log((pi^2/6) n): the ratio of the
    # two stabilizes to exp(1 - offset) ~ 2.8 instead of drifting
    ratios = []
    for n in (10 ** 5, 10 ** 6, 10 ** 7, 10 ** 9):
        lam = numth.omega_mean_theoretical(n) - 1.0
        ratios.append(math.exp(-lam) * math.log(math.pi ** 2 / 6 * n))
    assert all(2.7 < r < 2.9 for r in ratios)
    assert max(ratios) - min(ratios) < 1e-4  # drift only from the +1 inside loglog


def test_erdos_kac_normalize():
    n = 10 ** 6
    t = math.log(math.log(math.pi ** 2 / 6 * n + 1))
    assert numth.erdos_kac_normalize(n, round(t)) == pytest.approx(
        (round(t) - t) / math.sqrt(t))
    vals = [numth.erdos_kac_normalize(n, w) for w in range(1, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        numth.erdos_kac_normalize(0, 3)


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
