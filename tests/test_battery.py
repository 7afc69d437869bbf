import io
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from mobiuswalk import battery as bt
from mobiuswalk import mertens, seqgen
from mobiuswalk.statcore import chi2_pvalue


def fair_bits(seed, n):
    return np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.uint8)


def test_monobit():
    bits = np.zeros(100000, dtype=np.uint8)
    bits[:50006] = 1
    res = bt.monobit(bits)
    assert res.statistic == pytest.approx(12 / math.sqrt(10 ** 5))
    assert round(res.p_value, 2) == 0.97
    alternating = np.tile([0, 1], 50000)
    assert bt.monobit(alternating).statistic == 0.0
    assert bt.monobit(alternating).p_value == 1.0
    res = bt.monobit(np.ones(100, dtype=np.uint8))
    assert res.statistic == 10.0
    assert res.p_value < 1e-21
    with pytest.raises(ValueError):
        bt.monobit(np.ones(99, dtype=np.uint8))


def test_serial_frequency():
    # one of each 2-bit pattern
    bits = np.array([0, 0, 0, 1, 1, 0, 1, 1] * 10, dtype=np.uint8)
    res = bt.serial_frequency(bits, 2)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    rng_bits = fair_bits(0, 10 ** 5)
    for m in (2, 3, 4, 5):
        res = bt.serial_frequency(rng_bits, m)
        assert res.p_value > 1e-6
    with pytest.raises(ValueError):
        bt.serial_frequency(rng_bits, 6)
    with pytest.raises(ValueError):
        bt.serial_frequency(np.ones(30, dtype=np.uint8), 2)


def _counts_by_codes(bits, m, step):
    """Counts of the m-bit words at bits 0, step, 2 step, ... coded one by one:
    the route of serial_frequency (step m) and entropy_phi and
    approximate_entropy (step 1) before packed word counts, kept as their oracle."""
    if step == m:
        n_tuples = bits.size // m
        words = bits[:n_tuples * m].reshape(n_tuples, m)
    else:
        words = sliding_window_view(bits, m) if bits.size >= m else np.zeros((0, m), np.uint8)
    return np.bincount(bt._word_codes(words), minlength=2 ** m)


def _serial_frequency_by_codes(bits, m):
    n_tuples = bits.size // m
    counts = _counts_by_codes(bits, m, m)
    expected = n_tuples / 2 ** m
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    return bt.TestResult(f"serial_m{m}", {"m": m, "tuples": n_tuples},
                         chi2, chi2_pvalue(chi2, 2 ** m - 1))


def _entropy_phi_by_codes(bits, m):
    return bt._phi(_counts_by_codes(np.concatenate([bits, bits[:m - 1]]), m, 1), bits.size)


def _approximate_entropy_by_codes(bits):
    m = bt.ENTROPY_M
    n = bits.size
    counts_m1 = _counts_by_codes(np.concatenate([bits, bits[:m]]), m + 1, 1)
    phi_m = bt._phi(counts_m1.reshape(-1, 2).sum(axis=1), n)
    phi_m1 = bt._phi(counts_m1, n)
    chi2 = 2.0 * n * (math.log(2.0) - (phi_m - phi_m1))
    return bt.TestResult("entropy", {"m": m, "n": n}, chi2, chi2_pvalue(chi2, 2 ** m),
                         aux={"phi_m": phi_m, "phi_m1": phi_m1, "apen": phi_m - phi_m1})


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 300), m=st.integers(1, 10), overlapping=st.booleans(),
       p=st.sampled_from([0.5, 0.1, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
def test_word_counts_match_codes(n, m, overlapping, p, seed):
    bits = (np.random.default_rng(seed).random(n) < p).astype(np.uint8)
    step = 1 if overlapping else m
    assert bt._word_counts(bits, m, step).tolist() == _counts_by_codes(bits, m, step).tolist()


@pytest.mark.parametrize("residue", range(40))
def test_word_counts_match_codes_long(residue):
    # every residue of the length mod 8 and mod 40 (the group of 5-bit words)
    bits = fair_bits(residue, 40 * 2503 + residue)
    for m in range(1, 11):
        for step in {1, m}:
            want = _counts_by_codes(bits, m, step)
            assert bt._word_counts(bits, m, step).tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 5), extra=st.integers(0, 700), seed=st.integers(0, 2 ** 32 - 1))
def test_serial_frequency_matches_codes(m, extra, seed):
    bits = fair_bits(seed, 5 * 2 ** m * m + extra)
    assert repr(bt.serial_frequency(bits, m)) == repr(_serial_frequency_by_codes(bits, m))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 10), extra=st.integers(0, 700), seed=st.integers(0, 2 ** 32 - 1))
def test_entropy_matches_codes(m, extra, seed):
    # every width of _word_counts' step-1 route: packed pairs up to m = 9, codes above
    bits = fair_bits(seed, 2 ** (m + 5) + extra)
    assert bt.entropy_phi(bits, m) == _entropy_phi_by_codes(bits, m)


def test_serial_and_entropy_match_codes_long():
    for n in (10 ** 5, 10 ** 5 + 3, 1_410_000):
        bits = fair_bits(n, n)
        for m in (2, 3, 4, 5):
            assert repr(bt.serial_frequency(bits, m)) == repr(_serial_frequency_by_codes(bits, m))
        assert repr(bt.approximate_entropy(bits)) == repr(_approximate_entropy_by_codes(bits))


def test_oscillation():
    alternating = np.tile([0, 1], 64).astype(np.uint8)
    res = bt.oscillation(alternating)
    assert res.aux["V"] == 128  # maximal oscillation: V equals the length
    # direct-scan oracle on the 15-bit picture: 8 changes, so V = 9
    fifteen = np.array([0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0], dtype=np.uint8)
    v = 1 + int(np.count_nonzero(fifteen[1:] != fifteen[:-1]))
    assert v == 9
    with pytest.raises(ValueError):
        bt.oscillation(np.ones(200, dtype=np.uint8))


def test_oscillation_mean_reference():
    rng = np.random.default_rng(8)
    within = 0
    for _ in range(300):
        bits = rng.integers(0, 2, 30000, dtype=np.uint8)
        res = bt.oscillation(bits)
        within += abs(res.statistic) <= 3.0
    assert within >= 297


def _longest_one_run(bits: np.ndarray) -> int:
    """The run-boundary scan longest_run_of_ones replaced, kept as its oracle."""
    padded = np.concatenate([[0], bits, [0]]).astype(np.int8)
    d = np.diff(padded)
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    return int((ends - starts).max()) if starts.size else 0


def _longest_run_counts(bits: np.ndarray) -> list[int]:
    counts = [0] * 6
    for j in range(bt.LONGEST_RUN_BITS // bt.LONGEST_RUN_SUBLEN):
        run = _longest_one_run(bits[j * 128:(j + 1) * 128])
        counts[min(max(run - 4, 0), 5)] += 1
    return counts


def test_longest_run():
    probs = np.array(bt.LONGEST_RUN_PROBS)
    assert abs(probs.sum() - 1.0) < 1e-4
    bits = fair_bits(3, bt.LONGEST_RUN_BITS)
    res = bt.longest_run_of_ones(bits)
    assert res.p_value > 1e-6
    assert sum(res.aux["counts"]) == 49
    assert _longest_one_run(np.ones(128, dtype=np.uint8)) == 128
    assert _longest_one_run(np.zeros(128, dtype=np.uint8)) == 0
    ones = np.ones(bt.LONGEST_RUN_BITS, dtype=np.uint8)
    assert bt.longest_run_of_ones(ones).aux["counts"] == [0, 0, 0, 0, 0, 49]
    assert bt.longest_run_of_ones(1 - ones).aux["counts"] == [49, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        bt.longest_run_of_ones(np.ones(100, dtype=np.uint8))


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.0, 1.0), extra=st.integers(0, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_longest_run_matches_loop(p, extra, seed):
    bits = (np.random.default_rng(seed).random(bt.LONGEST_RUN_BITS + extra) < p).astype(np.uint8)
    assert bt.longest_run_of_ones(bits).aux["counts"] == _longest_run_counts(bits)


def test_gf2_rank():
    # identity has full rank
    eye = [1 << i for i in range(8)]
    assert bt.gf2_rank(eye) == 8
    assert bt.gf2_rank([0b111, 0b110, 0b001]) == 2
    assert bt.gf2_rank([0, 0, 0]) == 0


def test_matrix_rank_probability_exhaustive():
    # enumerate every binary h x h matrix for h <= 4 and compare exactly
    from fractions import Fraction
    for h in (1, 2, 3):
        counts = {}
        for code in range(2 ** (h * h)):
            rows = [(code >> (h * r)) & ((1 << h) - 1) for r in range(h)]
            rank = bt.gf2_rank(rows)
            counts[rank] = counts.get(rank, 0) + 1
        total = 2 ** (h * h)
        for r in range(h + 1):
            assert Fraction(counts.get(r, 0), total) == bt.matrix_rank_probability_exact(h, r)
    assert bt.matrix_rank_probability_exact(2, 2) == Fraction(3, 8)


def test_matrix_rank_probability_h4_exhaustive():
    from fractions import Fraction
    h = 4
    counts = [0] * (h + 1)
    for code in range(2 ** 16):
        rows = [(code >> (4 * r)) & 0xF for r in range(4)]
        counts[bt.gf2_rank(rows)] += 1
    for r in range(h + 1):
        assert Fraction(counts[r], 2 ** 16) == bt.matrix_rank_probability_exact(h, r)


def test_matrix_rank_asymptotic_probs():
    assert abs(bt.matrix_rank_probability(32, 32) - 0.2888) < 1e-4
    assert abs(bt.matrix_rank_probability(32, 31) - 0.5776) < 1e-4
    assert abs(bt.matrix_rank_probability(32, 30) - 0.1284) < 1e-4


def test_matrix_rank_test():
    bits = fair_bits(5, 10 ** 5)
    res = bt.matrix_rank(bits)
    assert res.params == {"H": 32, "matrices": 97}
    assert res.aux["full"] + res.aux["minus_one"] + res.aux["rest"] == 97
    assert res.p_value > 1e-6
    with pytest.raises(ValueError):
        bt.matrix_rank(np.ones(100, dtype=np.uint8))


def _stress_rows(rng, h, n):
    """n h x h matrices as uint64 rows: full, low-rank, repeated-row and zero."""
    mask = np.uint64((1 << h) - 1)
    full = rng.integers(0, 2 ** 64, size=(n, h), dtype=np.uint64) & mask
    basis = rng.integers(0, 2 ** 64, size=(n, 1, h), dtype=np.uint64) & mask
    k = rng.integers(0, h + 1, size=(n, 1, 1))
    # row i xors a random subset of the first k basis rows, so rank <= k
    keep = rng.integers(0, 2, size=(n, h, h), dtype=bool) & (np.arange(h) < k)
    low = np.bitwise_xor.reduce(np.where(keep, basis, np.uint64(0)), axis=2)
    repeated = full.copy()
    copy_to, copy_from = rng.choice(h, size=2, replace=False)
    repeated[:, copy_to] = repeated[:, copy_from]
    zero = np.zeros((1, h), dtype=np.uint64)
    return np.concatenate([full, low, repeated, zero])


@settings(max_examples=60, deadline=None)
@given(h=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_gf2_ranks_match_loop(h, seed):
    rows = _stress_rows(np.random.default_rng(seed), h, 40)
    want = [bt.gf2_rank(r) for r in rows.tolist()]
    assert bt._gf2_ranks(rows, h).tolist() == want
    if h <= 32:  # matrix_rank packs these rows into uint32
        assert bt._gf2_ranks(rows.astype(np.uint32), h).tolist() == want
    assert min(want) == 0  # the zero matrix is in the batch


def test_matrix_rank_classes_match_loop():
    h = bt.MATRIX_H
    bits = fair_bits(h, 60 * h * h + 17)
    bits[:4 * h * h] = 0  # four zero matrices
    bits[4 * h * h:5 * h * h] = np.tile(bits[5 * h * h:5 * h * h + h], h)  # rank 1
    mats = bits[:60 * h * h].reshape(60, h, h)
    ranks = [bt.gf2_rank([int("".join(map(str, row)), 2) for row in mat]) for mat in mats.tolist()]
    res = bt.matrix_rank(bits)
    assert res.params["matrices"] == 60
    assert res.aux == {"full": ranks.count(h), "minus_one": ranks.count(h - 1),
                       "rest": sum(r < h - 1 for r in ranks)}
    assert res.aux["rest"] >= 5


def test_spectral():
    assert bt.spectral_threshold(8 * 10 ** 4) == pytest.approx(489.549, abs=1e-3)
    res = bt.spectral_dft(fair_bits(7, 8 * 10 ** 4))
    assert res.p_value > 1e-6
    ones = np.ones(10 ** 4, dtype=np.uint8)
    assert bt.spectral_dft(ones).p_value < 1e-10
    with pytest.raises(ValueError):
        bt.spectral_dft(fair_bits(1, 1001))


def test_template_worked_example():
    eps = np.array([1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1],
                   dtype=np.uint8)
    res = bt.nonoverlapping_template(eps, np.array([0, 0, 1], dtype=np.uint8),
                                     n_sub=2, sub_len=10)
    assert res.aux["W"] == [2, 2]
    assert res.aux["mean"] == 1.0
    assert res.aux["var"] == pytest.approx(0.46875)
    assert res.statistic == pytest.approx(4.26667, abs=1e-5)
    assert res.p_value == pytest.approx(0.118442, abs=1e-5)


def test_template_zero_occurrences():
    res = bt.nonoverlapping_template(np.zeros(10, dtype=np.uint8),
                                     np.array([0, 0, 1], dtype=np.uint8),
                                     n_sub=1, sub_len=10)
    assert res.statistic == pytest.approx(1 / 0.46875)
    # W_j equal to the mean gives chi2 = 0 (mean must be integral)
    bits = np.zeros(2 ** 5 * 31 + 100, dtype=np.uint8)


def _greedy_template_counts(bits, template, n_sub, sub_len) -> list[int]:
    """The greedy scan nonoverlapping_template replaced, kept as its oracle:
    slide 1 bit on a miss and m bits on a hit."""
    m = template.size
    w = []
    for j in range(n_sub):
        sub = bits[j * sub_len:(j + 1) * sub_len]
        windows = sliding_window_view(sub, m)
        hits = np.flatnonzero((windows == template).all(axis=1))
        count = 0
        cursor = -1
        for h in hits:
            if h >= cursor:
                count += 1
                cursor = h + m
        w.append(count)
    return w


def _aperiodic_template(rng, m):
    while True:
        template = rng.integers(0, 2, m, dtype=np.uint8)
        if bt.is_aperiodic(template):
            return template


def _planted_block(rng, template, n_sub, sub_len, p):
    """Bits with bias p, with the template written over a few random places."""
    bits = (rng.random(n_sub * sub_len + 7) < p).astype(np.uint8)
    for at in rng.integers(0, bits.size - template.size + 1, size=3 * n_sub):
        bits[at:at + template.size] = template
    return bits


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 12), n_sub=st.integers(1, 8), extra=st.integers(1, 200),
       p=st.sampled_from([0.5, 0.2, 0.8, 0.05]), seed=st.integers(0, 2 ** 32 - 1))
def test_template_matches_greedy_loop(m, n_sub, extra, p, seed):
    rng = np.random.default_rng(seed)
    template = _aperiodic_template(rng, m)
    sub_len = m + extra
    bits = _planted_block(rng, template, n_sub, sub_len, p)
    res = bt.nonoverlapping_template(bits, template, n_sub, sub_len)
    assert res.aux["W"] == _greedy_template_counts(bits, template, n_sub, sub_len)


def test_template_longer_than_64_bits():
    # 70-bit codes leave the unsigned dtypes for Python ints
    rng = np.random.default_rng(70)
    template = _aperiodic_template(rng, 70)
    bits = _planted_block(rng, template, 4, 300, 0.5)
    res = bt.nonoverlapping_template(bits, template, 4, 300)
    assert res.aux["W"] == _greedy_template_counts(bits, template, 4, 300)
    assert sum(res.aux["W"]) > 0


def test_template_periodic_rejected():
    with pytest.raises(ValueError):
        bt.nonoverlapping_template(np.zeros(100, dtype=np.uint8),
                                   np.array([0, 1, 0, 1], dtype=np.uint8),
                                   n_sub=2, sub_len=20)
    assert bt.is_aperiodic(np.array([0, 0, 1], dtype=np.uint8))
    assert not bt.is_aperiodic(np.array([1, 0, 1], dtype=np.uint8))


def test_maurer_toy_example():
    # M=2, Q=4, K=6 hand example: genuine log2-distance accumulation gives
    # 2 + 1 + 2 + 0 + log2(9) + 2 = 10.169925; the final table rows are
    # 8, 10, 5, 9 for the words 00, 01, 10, 11
    toy = np.array([1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1],
                   dtype=np.uint8)
    f_n, table = bt.maurer_statistic(toy, 2, 4, 6)
    assert table == [8, 10, 5, 9]
    assert f_n == pytest.approx((7 + math.log2(9)) / 6)
    assert f_n == pytest.approx(1.69499, abs=1e-5)


def _maurer_loop(bits, m_bits, q_init, k_test):
    """The per-value scan maurer_statistic replaced, kept as its oracle."""
    n_blocks = q_init + k_test
    words = bits[:n_blocks * m_bits].reshape(n_blocks, m_bits).astype(np.int64)
    vals = words.dot(1 << np.arange(m_bits - 1, -1, -1, dtype=np.int64))
    total = 0.0
    table = [0] * (2 ** m_bits)
    for v in range(2 ** m_bits):
        pos = np.flatnonzero(vals == v) + 1
        if pos.size == 0:
            continue
        init = pos[pos <= q_init]
        test = pos[pos > q_init]
        table[v] = int(pos[-1])
        if test.size == 0:
            continue
        prev = int(init[-1]) if init.size else 0
        seq = np.concatenate([[prev], test])
        total += float(np.log2(np.diff(seq)).sum())
    return total / k_test, table


def test_maurer_matches_loop():
    toy = np.array([1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1],
                   dtype=np.uint8)
    assert bt.maurer_statistic(toy, 2, 4, 6) == _maurer_loop(toy, 2, 4, 6)
    args = (bt.MAURER_M, bt.MAURER_Q, bt.MAURER_K)
    block = fair_bits(12, bt.MAURER_M * (bt.MAURER_Q + bt.MAURER_K) + 5)
    assert bt.maurer_statistic(block, *args) == _maurer_loop(block, *args)


def test_maurer_full_length():
    n = bt.MAURER_M * (bt.MAURER_Q + bt.MAURER_K)
    res = bt.maurer_universal(fair_bits(11, n))
    assert abs(res.statistic - bt.MAURER_MEAN) < 5 * bt.MAURER_SIGMA
    assert res.p_value > 1e-4
    with pytest.raises(ValueError):
        bt.maurer_universal(fair_bits(1, 1000))


def test_entropy_toy_example():
    eps = np.array([0, 1, 1, 0, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
    phi3 = bt.entropy_phi(eps, 3)
    phi4 = bt.entropy_phi(eps, 4)
    assert phi3 == pytest.approx(-1.64342, abs=1e-5)
    # wrap-around window count: 0101 appears three times (not twice),
    # hence the value below; derived by direct enumeration
    assert phi4 == pytest.approx(-1.83437, abs=1e-5)


def test_entropy_counts_match_phi():
    # phi_m and phi_m1 come from one set of (m+1)-bit counts; entropy_phi
    # counts each width on its own
    for k in range(1, 8):
        bits = fair_bits(100 + k, 2 ** 9 + 37 * k)
        res = bt.approximate_entropy(bits)
        assert res.aux["phi_m"] == bt.entropy_phi(bits, 4)
        assert res.aux["phi_m1"] == bt.entropy_phi(bits, 5)


def test_entropy_phi_rejects_bad_input():
    # fewer bits than m leave no m-bit window that lies inside the block
    with pytest.raises(ValueError, match="at least 4 bits"):
        bt.entropy_phi(np.array([0, 1], dtype=np.uint8), 4)
    with pytest.raises(ValueError, match="at least 10 bits"):
        bt.entropy_phi(fair_bits(3, 5), 10)
    for m in (0, -2):
        with pytest.raises(ValueError, match="m must be >= 1"):
            bt.entropy_phi(fair_bits(3, 100), m)
    assert bt.entropy_phi(np.array([0, 1], dtype=np.uint8), 2) == pytest.approx(-math.log(2))


def test_entropy_statistic():
    bits = fair_bits(13, 10 ** 5)
    res = bt.approximate_entropy(bits)
    assert res.params == {"m": 4, "n": 10 ** 5}
    # for random data the entropy gap approaches log 2
    assert abs(res.aux["apen"] - math.log(2)) < 0.001
    assert res.p_value > 1e-6
    zeros = np.zeros(2 ** 10, dtype=np.uint8)
    res = bt.approximate_entropy(zeros)
    assert res.statistic == pytest.approx(2 * 2 ** 10 * math.log(2))
    assert res.p_value < 1e-10


def cusum_reference_asymptote(z: float) -> float:
    """Large-z tail of the cumulative-sums limit law G(z)."""
    return 1.0 - 4.0 / (math.sqrt(2.0 * math.pi) * z) * math.exp(-z * z / 2.0)


def test_cusum_reference():
    assert bt.cusum_reference_cdf(50.0) == 1.0
    assert abs(bt.cusum_reference_cdf(4.0) - cusum_reference_asymptote(4.0)) < 1e-4
    assert abs(bt.cusum_reference_cdf(5.0) - cusum_reference_asymptote(5.0)) < 1e-6
    res = bt.cumulative_sums(fair_bits(17, 10 ** 5))
    assert res.p_value > 1e-6
    with pytest.raises(ValueError):
        bt.cumulative_sums(fair_bits(1, 50))


def test_excursion_probs():
    for x in (1, 2, 3, 4, -1, -4):
        probs = bt.excursion_state_probs(x)
        assert abs(probs.sum() - 1.0) < 1e-12
    assert np.allclose(bt.excursion_state_probs(1),
                       [1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 32])


def excursion_cycle_counts(walk_with_zeros: np.ndarray, state: int) -> np.ndarray:
    """nu_k (k = 0..5) for one state given the zero-padded walk."""
    boundaries = np.flatnonzero(walk_with_zeros == 0)
    j = boundaries.size - 1
    hits = np.flatnonzero(walk_with_zeros == state)
    cycle_of_hit = np.searchsorted(boundaries, hits, side="right") - 1
    per_cycle = np.bincount(cycle_of_hit, minlength=j)
    return np.bincount(np.clip(per_cycle, 0, 5), minlength=6)[:6]


def test_excursions_toy_cycles():
    # the three-cycle toy walk: (0,1,0), (0,-1,-2,-1,0), (0,1,2,1,2,0)
    bits = np.array([1, 0, 0, 0, 1, 1, 1, 1, 0, 1], dtype=np.uint8)
    walk = np.cumsum(2 * bits.astype(np.int64) - 1)
    padded = np.concatenate([[0], walk, [0]])
    assert int(np.count_nonzero(padded[1:] == 0)) == 3
    assert excursion_cycle_counts(padded, 1).tolist() == [1, 1, 1, 0, 0, 0]
    assert excursion_cycle_counts(padded, -1).tolist() == [2, 0, 1, 0, 0, 0]
    assert excursion_cycle_counts(padded, 2).tolist() == [2, 0, 1, 0, 0, 0]
    assert excursion_cycle_counts(padded, -2).tolist() == [2, 1, 0, 0, 0, 0]
    assert excursion_cycle_counts(padded, 3).tolist() == [3, 0, 0, 0, 0, 0]


def _balanced_chunks(seed, n_chunks, half):
    """Walk steps that return to zero after every 2 * half bits."""
    rng = np.random.default_rng(seed)
    chunk = np.repeat(np.array([0, 1], dtype=np.uint8), half)
    return np.concatenate([rng.permutation(chunk) for _ in range(n_chunks)])


@pytest.mark.parametrize("tail", [[], [1, 1, 0, 1, 1, 1]])
def test_excursions_match_cycle_counts(tail):
    bits = np.concatenate([_balanced_chunks(31, 1000, 10), np.array(tail, np.uint8)])
    walk = np.cumsum(2 * bits.astype(np.int64) - 1)
    assert (walk[-1] == 0) == (not tail)
    padded = np.concatenate([[0], walk, [0]] if walk[-1] != 0 else [[0], walk])
    j = int(np.count_nonzero(padded[1:] == 0))
    results = bt.random_excursions(bits)
    assert len(results) == 8
    for x, res in zip(bt.EXCURSION_STATES, results):
        assert res.params == {"state": x, "J": j}
        assert res.aux["nu"] == excursion_cycle_counts(padded, x).tolist()


def test_excursions_skip_and_run():
    short = bt.random_excursions(fair_bits(19, 2000))
    assert all(r.skipped == "insufficient cycles" for r in short)
    long_res = bt.random_excursions(fair_bits(19, 4 * 10 ** 6))
    if long_res[0].skipped is None:
        assert len(long_res) == 8
        for r in long_res:
            assert r.p_value > 1e-6


def test_cross_correlation():
    bits = fair_bits(23, 10 ** 4)
    res = bt.cross_correlation_random(bits, 99)
    res2 = bt.cross_correlation_random(bits, 99)
    assert res.statistic == res2.statistic  # deterministic by seed
    # correlating the sequence with itself is maximal
    mu = 2 * bits.astype(np.int64) - 1
    assert abs(int(np.dot(mu, mu))) == 10 ** 4
    # the agreement count equals the int64 dot product with the same draw
    for n in (100, 10 ** 4 - 1):
        r = np.random.default_rng(5).integers(0, 2, size=n, dtype=np.int8)
        want = int(np.dot(mu[:n], 2 * r.astype(np.int64) - 1))
        assert bt.cross_correlation_random(bits[:n], 5).aux["dot"] == want


def test_cross_correlation_sqrt_growth():
    seq = seqgen.restricted_sequence(1, 10 ** 5)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for n in (10 ** 4, 10 ** 5):
            bits = seq.slice_bits(1, n)
            res = bt.cross_correlation_random(bits, rng)
            assert res.statistic <= 3.0 * 1.5  # c * sqrt growth with slack


def test_degenerate_inputs_rejected():
    empty = np.zeros(0, dtype=np.uint8)
    with pytest.raises(ValueError, match="needs at least"):
        bt.random_excursions(empty)
    with pytest.raises(ValueError, match="needs at least"):
        bt.cross_correlation_random(empty, 0)
    with pytest.raises(ValueError, match="k_test >= 1"):
        bt.maurer_statistic(fair_bits(1, 1000), 2, 4, 0)
    # the word table has 2^m_bits entries; m_bits = 0 returned f = 0.0
    for m_bits in (0, -1, 17):
        with pytest.raises(ValueError, match="m_bits"):
            bt.maurer_statistic(fair_bits(1, 1000), m_bits, 4, 6)
    # an empty template is vacuously aperiodic and would count no hits
    with pytest.raises(ValueError, match="at least one bit"):
        bt.nonoverlapping_template(np.ones(10000, dtype=np.uint8),
                                   np.zeros(0, dtype=np.uint8), 8, 1024)


def test_run_battery_counts_and_determinism():
    seq = seqgen.restricted_sequence(1, 10 ** 5 + 1000)
    ens = mertens.build_ensemble(1, 10 ** 5, 10, 5000, mertens.GapPolicy("fixed", 100))
    rep = bt.run_battery(ens, seq, selection=("monobit",), seed=4)
    assert len(rep.block_results) == 10
    assert set(rep.proportions) == {"monobit"}
    assert rep.uniformity["monobit"] is None  # below the 50-sample floor
    # an empty selection runs no test, so it is refused rather than passed
    with pytest.raises(ValueError, match="empty test selection"):
        bt.run_battery(ens, seq, selection=())
    # a repeated test would count every block twice in its pass proportion
    with pytest.raises(ValueError, match="'monobit' selected twice"):
        bt.run_battery(ens, seq, selection=("monobit", "cumsum", "monobit"))
    # determinism including rng-bearing tests, independent of worker count
    r1 = bt.run_battery(ens, seq, selection=("monobit", "cross_correlation"),
                        seed=9, workers=1)
    r2 = bt.run_battery(ens, seq, selection=("monobit", "cross_correlation"),
                        seed=9, workers=2)
    s1 = [(r.test_name, r.statistic) for _, _, r in r1.block_results]
    s2 = [(r.test_name, r.statistic) for _, _, r in r2.block_results]
    assert s1 == s2


@settings(max_examples=20, deadline=None)
@given(lengths=st.lists(st.integers(100, 3000), min_size=1, max_size=4),
       others=st.lists(st.sampled_from([n for n in bt.TESTS if n != "cross_correlation"]),
                       unique=True, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_battery_bytes_independent_of_workers(lengths, others, seed):
    rng = np.random.default_rng(seed)
    blocks = [(i, rng.integers(0, 2, n, dtype=np.uint8)) for i, n in enumerate(lengths)]
    selection = ["cross_correlation", *others]
    reports = []
    for workers in (1, 2):
        buf = io.StringIO()
        bt.run_battery_on_blocks(blocks, selection, seed=seed, workers=workers).write_jsonl(buf)
        reports.append(buf.getvalue())
    assert reports[0] == reports[1]


def test_run_battery_skips_short_blocks():
    blocks = [(1, fair_bits(1, 5000))]
    rep = bt.run_battery_on_blocks(blocks, selection=("maurer", "monobit"))
    by_name = {r.test_name: r for _, _, r in rep.block_results}
    assert by_name["maurer"].skipped == "insufficient length"
    assert by_name["monobit"].skipped is None


def test_block_source_error_propagates():
    # a block source that fails midway fails the whole run
    def blocks():
        yield from bt.fair_coin_blocks(1, 2, 1000)
        raise RuntimeError("block source failed")
    for workers in (1, 2):
        with pytest.raises(RuntimeError, match="block source failed"):
            bt.run_battery_on_blocks(blocks(), selection=("monobit",), workers=workers)


def test_blocks_stream_through_the_workers(monkeypatch):
    # the source is drawn as the workers need it: no draw runs more than
    # the window of 2 * workers blocks, plus the one being drawn, ahead of
    # the blocks whose tests finished
    finished, lock = [0], threading.Lock()
    monobit = bt.TESTS["monobit"]

    def counted(*args):
        results = monobit(*args)
        with lock:
            finished[0] += 1
        return results
    monkeypatch.setitem(bt.TESTS, "monobit", counted)
    for workers in (1, 2, 3):
        finished[0], ahead = 0, []

        def blocks():
            for drawn, block in enumerate(bt.fair_coin_blocks(3, 40, 1000), 1):
                ahead.append(drawn - finished[0])
                yield block
        rep = bt.run_battery_on_blocks(blocks(), selection=("monobit",), workers=workers)
        assert [start for start, _, _ in rep.block_results] == [i * 1000 for i in range(40)]
        assert len(ahead) == 40
        assert max(ahead) <= 2 * workers + 1, workers


def test_selection_checked_before_any_block():
    # a bad selection is refused before a single block is drawn
    def blocks():
        raise AssertionError("block source advanced")
        yield
    for selection, message in ((("monobit", "bogus"), "unknown test"),
                               (("monobit", "cumsum", "monobit"), "selected twice"),
                               ((), "empty test selection")):
        with pytest.raises(ValueError, match=message):
            bt.run_battery_on_blocks(blocks(), selection=selection)


def test_jsonl_report():
    blocks = [(i * 1000 + 1, fair_bits(i, 1000)) for i in range(60)]
    rep = bt.run_battery_on_blocks(blocks, selection=("monobit", "serial_m2"), seed=1)
    buf = io.StringIO()
    rep.write_jsonl(buf)
    lines = buf.getvalue().strip().split("\n")
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 121  # 60 blocks x 2 tests + summary
    assert "summary" in rows[-1]
    assert set(rows[-1]["summary"]) == {"monobit", "serial_m2"}
    # byte-identical on rerun with the same seed
    buf2 = io.StringIO()
    bt.run_battery_on_blocks(blocks, selection=("monobit", "serial_m2"),
                             seed=1).write_jsonl(buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_fair_coin_blocks_deterministic():
    a = list(bt.fair_coin_blocks(5, 3, 100))
    b = list(bt.fair_coin_blocks(5, 3, 100))
    for (sa, ba), (sb, bb) in zip(a, b):
        assert sa == sb and np.array_equal(ba, bb)


def test_blocks_must_hold_bits():
    with pytest.raises(ValueError, match="0 or 1"):
        bt.monobit(np.full(1000, 2, dtype=np.uint8))
    with pytest.raises(ValueError, match="0 or 1"):
        bt.monobit(np.full(1000, 0.7))
    with pytest.raises(ValueError, match="0 or 1"):
        bt.run_battery_on_blocks([(0, np.arange(200) % 3)], selection=("cumsum",))
    # empty blocks pass through to each test's own length check
    assert bt._as_bits(np.array([], dtype=np.uint8)).size == 0
    with pytest.raises(ValueError, match="at least 100"):
        bt.monobit([])


# Each test's shortest block, written out here apart from the tests' own
# _require calls, so that a changed minimum has to change both.
MIN_LENGTHS = {
    "monobit": 100, "serial_m2": 40, "serial_m3": 120, "serial_m4": 320,
    "serial_m5": 800, "oscillation": 100, "longest_run": 6272,
    "matrix_rank": 38 * 32 * 32, "spectral": 1000, "template": 80 * 1024,
    "maurer": 6 * (640 + 233227), "entropy": 512, "cumsum": 100,
    "excursions": 1000, "cross_correlation": 100,
}


def test_registry_names_have_minimum_lengths():
    assert set(MIN_LENGTHS) == set(bt.TESTS)


@pytest.mark.parametrize("name", sorted(MIN_LENGTHS))
def test_registry_minimum_lengths(name):
    min_len = MIN_LENGTHS[name]
    bits = fair_bits(17, min_len)
    report = bt.run_battery_on_blocks([(0, bits), (min_len, bits[:-1])],
                                      selection=(name,))
    at_min = [res for start, _, res in report.block_results if start == 0]
    below = [res for start, _, res in report.block_results if start == min_len]
    assert at_min and all(res.skipped != "insufficient length" for res in at_min)
    assert [res.skipped for res in below] == ["insufficient length"]
    with pytest.raises(bt.ShortBlock, match="needs at least"):
        bt.TESTS[name](bits[:-1], 0, 0)
