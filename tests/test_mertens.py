import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mobiuswalk import mertens, numth, seqgen


def test_mertens_restricted_small():
    assert mertens.mertens_restricted(1) == 1
    # over sqf 1,2,3,5,6,7,10,11: +1 -1 -1 -1 +1 -1 +1 -1 = -2
    assert mertens.mertens_restricted(8) == -2
    running = np.cumsum(seqgen.restricted_sequence(1, 50).slice_mu(1, 50))
    for n in (3, 10, 25, 50):
        assert mertens.mertens_restricted(n) == running[n - 1]


def block_sum(seq, start: int, length: int) -> int:
    """The block variable of [start, start + length) through `block_sums`."""
    ens = mertens.build_ensemble(start, start + length, 1, length,
                                 mertens.GapPolicy("fixed", 0))
    return int(mertens.block_sums(ens, seq)[0])


@settings(max_examples=50, deadline=None)
@given(s=st.integers(1, 3000), a=st.integers(1, 1000), b=st.integers(1, 1000))
@example(s=100, a=400, b=500)
@example(s=1, a=1000, b=2000)  # M-hat(3000)
@example(s=2600, a=250, b=250)
def test_block_sum_additivity(s, a, b):
    seq = seqgen.restricted_sequence(1, 5000)
    whole = block_sum(seq, s, a + b)
    assert whole == block_sum(seq, s, a) + block_sum(seq, s + a, b)
    # the same block from a fresh sieve started at the block itself
    assert whole == block_sum(seqgen.restricted_sequence(s, a + b), s, a + b)
    # M-hat(n) equals the block sum starting at ordinal 1
    n = s + a + b - 1
    assert block_sum(seq, 1, n) == mertens.mertens_restricted(n)


def test_block_variable_additivity():
    seq = seqgen.restricted_sequence(1, 5000)
    assert block_sum(seq, 100, 900) == block_sum(seq, 100, 400) + block_sum(seq, 500, 500)
    # M-hat(n) equals the block sum starting at ordinal 1
    assert block_sum(seq, 1, 3000) == mertens.mertens_restricted(3000)


def test_block_translation_consistency():
    # the stored-sequence value equals one recomputed from a fresh sieve
    seq_all = seqgen.restricted_sequence(1, 4000)
    seq_off = seqgen.restricted_sequence(2500, 800)
    assert block_sum(seq_all, 2600, 500) == block_sum(seq_off, 2600, 500)


def test_alternating_class_identity():
    # snap.mertens shares the sieve's accumulator with the classes, so compare
    # with the sublinear M
    snaps = numth.scan_squarefree(30000, checkpoints=(123, 4567, 30000))
    for snap in snaps:
        signs = np.where(np.arange(snap.class_counts.size) % 2 == 0, 1, -1)
        assert int((signs * snap.class_counts).sum()) == mertens.mertens_restricted(snap.n)


def test_build_ensemble_fixed():
    ens = mertens.build_ensemble(1, 21, 2, 5, mertens.GapPolicy("fixed", 5))
    assert ens.starts.tolist() == [1, 11]
    assert ens.end == 16


def test_build_ensemble_random_deterministic():
    pol = mertens.GapPolicy("random", 50)
    a = mertens.build_ensemble(1000, 10 ** 6, 200, 100, pol, seed=42)
    b = mertens.build_ensemble(1000, 10 ** 6, 200, 100, pol, seed=42)
    assert np.array_equal(a.starts, b.starts)
    c = mertens.build_ensemble(1000, 10 ** 6, 200, 100, pol, seed=43)
    assert not np.array_equal(a.starts, c.starts)
    # disjoint, ordered, inside bounds, gaps within [D/2, 3D/2]
    gaps = np.diff(a.starts) - 100
    assert gaps.min() >= 25 and gaps.max() <= 75
    assert a.starts[0] >= 1000 and a.end <= 10 ** 6


def test_build_ensemble_errors():
    with pytest.raises(ValueError):
        mertens.build_ensemble(1, 100, 30, 5, mertens.GapPolicy("fixed", 10))
    with pytest.raises(ValueError):
        mertens.build_ensemble(1, 10 ** 4, 10, 100, mertens.GapPolicy("random", 50))
    with pytest.raises(ValueError):
        mertens.GapPolicy("bogus", 1)


def test_moment_estimates_on_fair_coin():
    rng = np.random.default_rng(77)
    n_blocks, length = 4000, 256
    bits = rng.integers(0, 2, size=n_blocks * length, dtype=np.uint8)
    seq = seqgen.BitSequence.from_bits(1, bits)
    ens = mertens.build_ensemble(1, n_blocks * length + 1, n_blocks, length,
                                 mertens.GapPolicy("fixed", 0))
    rep = mertens.moment_estimates(ens, seq, max_order=4)
    assert rep.reference[2] == length
    assert rep.reference[4] == 3 * length ** 2
    assert rep.reference[1] == rep.reference[3] == 0.0
    assert abs(rep.z_mean) < 0.05
    assert 0.9 < rep.z_variance < 1.1
    assert 2.5 < rep.z_fourth < 3.5
    with pytest.raises(ValueError):
        mertens.moment_estimates(ens, seq, max_order=9)


def test_partial_sum_bound():
    rep = mertens.mean_and_partial_sum_checks(10 ** 5)
    assert rep.bound_holds
    assert rep.max_abs_partial_sum <= 1.0  # attained exactly at x = 1
    xs = [x for x, _ in rep.mertens_over_x]
    assert xs[0] == 1 and xs[-1] == 10 ** 5
    # mean of mu vanishes slowly
    assert abs(dict(rep.mertens_over_x)[10 ** 5]) < 0.01


def test_mertens_ratios_match_running_sum():
    x_max = 5_000_000  # the last checkpoint lies past the first sieve segment
    assert x_max > seqgen.DEFAULT_SEGMENT
    rep = mertens.mean_and_partial_sum_checks(x_max)
    running = np.cumsum(seqgen.mobius_range(1, x_max + 1))
    checkpoints = [10 ** k for k in range(7)] + [x_max]
    assert rep.mertens_over_x == [(c, int(running[c - 1]) / c) for c in checkpoints]


def test_partial_sum_checkpoints_stop_at_x_max(monkeypatch):
    # only the checkpoints are under test: one fake segment, M = 0 everywhere
    monkeypatch.setattr(mertens, "iter_mobius", lambda lo, hi: iter([(1, 2, np.ones(1))]))
    monkeypatch.setattr(mertens, "mertens_function", lambda x: 0)
    for x_max, want in ((10 ** 15 - 1, [10 ** k for k in range(15)] + [10 ** 15 - 1]),
                        (10 ** 15, [10 ** k for k in range(16)])):
        rep = mertens.mean_and_partial_sum_checks(x_max)
        assert [x for x, _ in rep.mertens_over_x] == want

