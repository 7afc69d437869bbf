import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import zeta

from mobiuswalk import cli, extremes, seqgen


def first_attainment(bits) -> tuple[int, int]:
    """(t_min, t_max): the first times the walk 0, s_1, ..., s_T of the
    +-1 steps 2b - 1 reaches its minimum and its maximum."""
    pos = low = high = t_min = t_max = 0
    for t, b in enumerate(bits, 1):
        pos += 1 if b else -1
        if pos < low:
            low, t_min = pos, t
        if pos > high:
            high, t_max = pos, t
    return t_min, t_max


def one_segment(bits) -> tuple[int, int]:
    """(t_min, t_max) of `bits` as the single segment of a batch, checked
    against the plain-Python loop."""
    seq = seqgen.BitSequence.from_bits(1, np.array(bits, dtype=np.uint8))
    t_min, t_max = extremes.segment_extremes_batch(seq, 1, 1, len(bits))
    got = (int(t_min[0]), int(t_max[0]))
    assert got == first_attainment(bits)
    return got


def test_segment_extremes_monotone_walks():
    assert one_segment([1] * 64) == (0, 64)
    assert one_segment([0] * 64) == (64, 0)


def test_segment_extremes_toy_walk():
    # walk 1,0,-1,-2,-1,0,1,2,1,2: min -2 first reached at step 4,
    # max 2 first reached at step 8
    assert one_segment([1, 0, 0, 0, 1, 1, 1, 1, 0, 1]) == (4, 8)


def test_first_attainment_ties():
    # walk 1,0,1,0: max 1 first at t=1; min 0 first at t=0
    assert one_segment([1, 0, 1, 0]) == (0, 1)


def test_batch_matches_single(monkeypatch):
    T, n = 7, 41
    seq = seqgen.restricted_sequence(1, n * T + 10)
    want = [first_attainment(r) for r in seq.slice_bits(6, n * T).reshape(n, T)]
    # budgets below T still build one whole segment per chunk, T and T + 1
    # exactly one, and 3T + 1 three, with a partial last chunk
    for budget in (1, T - 1, T, T + 1, 3 * T + 1):
        monkeypatch.setattr(extremes, "_CHUNK_STEPS", budget)
        t_min, t_max = extremes.segment_extremes_batch(seq, 6, n, T)
        assert list(zip(t_min.tolist(), t_max.tolist())) == want, budget


def test_batch_memory_bounded_by_step_budget():
    # 2000 segments of 5000 steps: 1e7 steps, built 2^20 steps at a time
    n, T = 2000, 5000
    payload = np.random.default_rng(5).integers(0, 256, n * T // 8, dtype=np.uint8)
    seq = seqgen.BitSequence(1, n * T, payload)
    tracemalloc.start()
    try:
        t_min, t_max = extremes.segment_extremes_batch(seq, 1, n, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t_min.size == t_max.size == n
    assert peak < 16 * 2 ** 20


def test_batch_rejects_uncovered_request_before_walking(monkeypatch, tmp_path, capsys):
    # 31 segments of 100 in chunks of 10 on 3000 ordinals: only the last
    # chunk runs past the sequence, and no walk is built before the error
    calls = []
    walk = extremes.walk_extremes
    monkeypatch.setattr(extremes, "walk_extremes", lambda steps: calls.append(1) or walk(steps))
    monkeypatch.setattr(extremes, "_CHUNK_STEPS", 1000)
    seq = seqgen.restricted_sequence(1, 3000)
    with pytest.raises(ValueError, match="not covered"):
        extremes.segment_extremes_batch(seq, 1, 31, 100)
    path = tmp_path / "mu.msf"
    seqgen.write_sequence(seq, path)
    assert cli.main(["extremes", "--seq", str(path), "--segments", "31",
                     "--seg-len", "100"]) == 2
    assert "not covered" in capsys.readouterr().err
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(segments=st.integers(1, 6),
       T=st.one_of(st.integers(1, 300), st.sampled_from([2 ** 15 - 1, 2 ** 15, 2 ** 15 + 3])),
       p=st.sampled_from([0.5, 0.3, 0.7, 0.0, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_walk_extremes_match_loop(segments, T, p, seed):
    bits = (np.random.default_rng(seed).random((segments, T)) < p).astype(np.int8)
    t_min, t_max = extremes.walk_extremes(2 * bits - 1)
    assert list(zip(t_min.tolist(), t_max.tolist())) == [first_attainment(r) for r in bits]


def test_walk_extremes_past_int16():
    # all-up and all-down walks reach +-(2**15) and beyond; an int16 walk would wrap
    for T in (2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 40000):
        steps = np.ones((2, T), dtype=np.int8)
        steps[1] = -1
        t_min, t_max = extremes.walk_extremes(steps)
        assert t_min.tolist() == [0, T] and t_max.tolist() == [T, 0]
    # a walk that climbs past 32767, falls back below 0 and climbs again
    steps = np.concatenate([np.ones(33000), -np.ones(33010), np.ones(20)]).astype(np.int8)
    t_min, t_max = extremes.walk_extremes(steps[None, :])
    assert (int(t_min[0]), int(t_max[0])) == (66010, 33000)
    with pytest.raises(ValueError, match="T >= 1"):
        extremes.walk_extremes(np.zeros((3, 0), dtype=np.int8))


def test_mori_f_properties():
    # even, positive on its domain
    for x in (0.05, 0.2, 0.5, 0.9, 0.999):
        assert extremes.mori_f(x) > 0
        assert extremes.mori_f(-x) == extremes.mori_f(x)
    with pytest.raises(ValueError):
        extremes.mori_f(0.0)
    with pytest.raises(ValueError):
        extremes.mori_f(1.5)
    # vanishes super fast toward 0, approaches 1/2 toward 1
    assert extremes.mori_f(1e-5) < 1e-30
    assert abs(extremes.mori_f(1 - 1e-7) - 0.5) < 1e-3


def test_mori_normalization():
    val, _ = quad(lambda x: extremes._mori_f_safe(x), 0, 1, limit=400)
    assert abs(val - 0.5) < 1e-6


def test_mori_moments_closed_forms():
    closed = extremes.tau_closed_moments()
    assert closed[1] == pytest.approx((4 * math.log(2) - 1) / 3)
    assert closed[1] == pytest.approx(0.5908, abs=1e-4)
    assert closed[2] == pytest.approx(0.4009, abs=1e-4)
    table = dict(extremes.tau_moment_table()[:4])
    for order, want in closed.items():
        assert abs(table[order] - want) < 1e-8


def test_zeta_literals_match_scipy():
    assert extremes._ZETA3 == float(zeta(3))
    assert extremes._ZETA5 == float(zeta(5))


def test_mori_moment_table():
    reference = [0.5908, 0.4009, 0.2972, 0.2339, 0.1918,
                 0.1621, 0.1401, 0.1233, 0.1100, 0.0992]
    for (order, val), want in zip(extremes.tau_moment_table()[:10], reference):
        assert abs(val - want) < 1e-4, order


def test_mori_tables_match_quad():
    # the tabulated moments and bin weights against the quad calls that
    # made them, with the same tolerances and subdivision limit
    table = extremes.tau_moment_table()
    assert [order for order, _ in table] == list(range(1, 11))
    for order, val in table:
        want = 2.0 * quad(lambda x: x ** order * extremes._mori_f_safe(x), 0.0, 1.0,
                          epsabs=1e-11, epsrel=1e-11, limit=400)[0]
        assert val == pytest.approx(want, rel=1e-12, abs=0), order
    edges = np.linspace(-1.0, 1.0, extremes._FIT_BINS + 1)
    want = [quad(extremes._mori_f_safe, a, b, epsabs=1e-10, limit=400)[0]
            for a, b in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(extremes._MORI_BIN_PROBS, want, rtol=1e-12, atol=0)
    # the weights are the whole mass of the density, up to quad's epsabs per bin
    assert abs(extremes._MORI_BIN_PROBS.sum() - 1.0) <= extremes._FIT_BINS * 1e-10


def test_discrete_argmin_pmf_brute_force():
    # enumerate all walks for small T
    for T in (6, 7):
        pmf = np.zeros(T + 1)
        for mask in range(2 ** T):
            steps = [1 if (mask >> i) & 1 else -1 for i in range(T)]
            walk = np.concatenate([[0], np.cumsum(steps)])
            pmf[int(np.argmin(walk))] += 1
        pmf /= 2 ** T
        assert np.allclose(extremes.discrete_argmin_pmf(T), pmf, atol=1e-12)


def test_u_even_against_exact_ratios():
    # c = C(2j, j) exactly, so c / 4^j is the exact ratio correctly rounded;
    # each of the 2j roundings of the running product costs at most 2^-53
    j_max = 50_000
    u = extremes._u_even(j_max)
    c = 1
    for j in range(j_max + 1):
        if j:
            c = c * 2 * (2 * j - 1) // j
        want = c / (1 << 2 * j)  # 4^j
        assert abs(u[j] - want) <= 2 * j * 2.0 ** -53 * want, j
    assert c == math.comb(2 * j_max, j_max)


def test_arcsine_compare_synthetic():
    # inverse-CDF sampler of the arcsine law, the limit of the finite-T law
    # that a large T follows closely
    rng = np.random.default_rng(123)
    T = 10 ** 6
    passes = 0
    for trial in range(40):
        u = rng.uniform(0, 1, 5000)
        x = np.sin(math.pi * u / 2.0) ** 2
        rep = extremes.arcsine_compare(x, T)
        passes += rep.p_value >= 0.01
    assert passes >= 39
    rep = extremes.arcsine_compare(np.sin(math.pi * rng.uniform(0, 1, 20000) / 2) ** 2, T)
    assert rep.reference_moments == extremes.ARCSINE_MOMENTS
    for got, want in zip(rep.sample_moments, rep.reference_moments):
        assert abs(got - want) / want < 0.03


def test_arcsine_compare_exact_null():
    # random-walk segments against the finite-T law: P should not collapse
    rng = np.random.default_rng(5)
    T = 2000
    steps = (rng.integers(0, 2, size=(4000, T), dtype=np.int8) * 2 - 1)
    t_min, _ = extremes.walk_extremes(steps)
    rep = extremes.arcsine_compare(t_min / T, T=T)
    assert rep.p_value > 0.001
    with pytest.raises(ValueError, match="at least 1000 samples"):
        extremes.arcsine_compare([0.5] * 10, T)
    for bad in (1.5, np.nan):
        with pytest.raises(ValueError, match="support"):
            extremes.arcsine_compare(np.r_[t_min / T, bad], T)
    # a walk of fewer than one step has no argmin law to compare against
    for bad in (0, -3):
        with pytest.raises(ValueError, match="T must be >= 1"):
            extremes.arcsine_compare(t_min / T, T=bad)


def test_tau_compare_synthetic_walks():
    rng = np.random.default_rng(31)
    T = 2000
    steps = (rng.integers(0, 2, size=(12000, T), dtype=np.int8) * 2 - 1)
    t_min, t_max = extremes.walk_extremes(steps)
    rep = extremes.tau_compare((t_max - t_min) / T)
    assert rep.p_value > 0.001
    for got, want in zip(rep.sample_moments[:4], rep.reference_moments[:4]):
        assert abs(got - want) / want < 0.01 + 0.05 * (want < 0.3)
    with pytest.raises(ValueError):
        extremes.tau_compare([0.5] * 10)


def test_histogram_rows():
    rows = extremes.histogram_rows(np.linspace(0.01, 0.99, 1000), (0.0, 1.0),
                                   lambda v: 1.0)
    assert len(rows) == 50
    assert sum(r[1] for r in rows) == 1000
    total = sum(r[2] for r in rows) * 0.02
    assert total == pytest.approx(1.0)
