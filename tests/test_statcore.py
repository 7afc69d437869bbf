import math

import numpy as np
import pytest
from scipy import special

from mobiuswalk import statcore


def test_incomplete_gamma_basics():
    assert statcore.incomplete_gamma_q(1.0, 0.0) == 1.0
    assert statcore.incomplete_gamma_q(3.5, 0.0) == 1.0
    # worked values
    assert abs(statcore.incomplete_gamma_q(1.0, 2.13334) - 0.118442) < 1e-5
    assert abs(statcore.incomplete_gamma_q(4.0, 2.70748) - 0.712442) < 1e-5


def test_incomplete_gamma_closed_form():
    # Q(1, z) = exp(-z)
    for z in (0.01, 0.5, 1.0, 2.0, 10.0, 50.0):
        assert abs(statcore.incomplete_gamma_q(1.0, z) - math.exp(-z)) <= 1e-10 * math.exp(-z)


def test_incomplete_gamma_vs_scipy():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = float(rng.uniform(0.05, 60.0))
        z = float(rng.uniform(0.0, 120.0))
        ours = statcore.incomplete_gamma_q(a, z)
        ref = float(special.gammaincc(a, z))
        assert abs(ours - ref) <= 1e-10 * max(ref, 1e-300) + 1e-14


def test_incomplete_gamma_monotone_in_z():
    zs = np.linspace(0, 30, 200)
    vals = [statcore.incomplete_gamma_q(2.5, z) for z in zs]
    assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))


def test_incomplete_gamma_domain():
    with pytest.raises(ValueError):
        statcore.incomplete_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        statcore.incomplete_gamma_q(1.0, -0.5)


def test_chi2_pvalue():
    assert statcore.chi2_pvalue(0.0, 5).value == 1.0
    # at the mean of the distribution the tail is mid-range
    for dof in (1, 2, 8, 16, 64):
        p = statcore.chi2_pvalue(float(dof), dof).value
        assert 0.3 < p < 0.6
    assert abs(statcore.chi2_pvalue(4.26667, 2).value - 0.118442) < 1e-5
    with pytest.raises(ValueError):
        statcore.chi2_pvalue(-1.0, 2)
    with pytest.raises(ValueError):
        statcore.chi2_pvalue(1.0, 0)


def test_erfc_pvalue():
    assert statcore.erfc_pvalue(0.0).value == 1.0
    assert round(statcore.erfc_pvalue(0.98).value, 2) == 0.33
    assert round(statcore.erfc_pvalue(0.80).value, 2) == 0.42
    # complement identity
    for v in (0.1, 0.7, 1.3, 2.9):
        assert abs(statcore.erfc_pvalue(v).value + math.erf(v / math.sqrt(2)) - 1.0) < 1e-10
    with pytest.raises(ValueError):
        statcore.erfc_pvalue(-0.2)


def test_pvalue_pass_boundary():
    assert statcore.PValue(0.01, alpha=0.01).passed
    assert not statcore.PValue(0.0099, alpha=0.01).passed
    assert statcore.PValue(1.0 + 1e-13).value == 1.0


def test_proportion_interval():
    iv = statcore.proportion_interval(0.01, 100)
    assert abs(iv.lo - 0.96015) < 5e-6
    assert abs(iv.hi - 1.01985) < 5e-6
    iv30 = statcore.proportion_interval(0.01, 30)
    assert abs(iv30.lo - 0.9355) < 1e-3
    assert abs(iv30.hi - 1.0445) < 1e-3
    # symmetry about 1 - alpha
    assert abs((iv.lo + iv.hi) / 2 - 0.99) < 1e-12


def test_proportion_check():
    all_pass = [1.0] * 50
    rep = statcore.proportion_check(all_pass, alpha=0.01)
    assert rep.proportion == 1.0
    assert rep.all_inside
    mixed = [1.0] * 90 + [0.001] * 10
    rep = statcore.proportion_check(mixed, alpha=0.01)
    assert rep.proportion == 0.9
    assert not rep.all_inside
    with pytest.raises(ValueError):
        statcore.proportion_check([])


def test_chi2_test():
    chi2, p = statcore.chi2_test([30, 10], [20.0, 20.0], 1)
    assert chi2 == 10.0
    assert p.value == statcore.chi2_pvalue(10.0, 1).value
    assert not p.passed
    chi2, p = statcore.chi2_test(np.array([5, 5, 5]), np.array([5.0, 5.0, 5.0]), 2)
    assert chi2 == 0.0 and p.value == 1.0
    with pytest.raises(ValueError):
        statcore.chi2_test([1, 2], [1.5, 1.5], 0)


def test_pvalue_uniformity():
    # perfectly uniform counts
    flat = [i / 100 + 0.005 for i in range(100)]
    rep = statcore.pvalue_uniformity(flat)
    assert rep.chi2 == 0.0
    assert rep.pbar == 1.0
    assert rep.uniform
    # everything in one bin
    rep = statcore.pvalue_uniformity([0.55] * 100)
    assert abs(rep.chi2 - 900.0) < 1e-9
    assert not rep.uniform
    with pytest.raises(ValueError):
        statcore.pvalue_uniformity([0.5] * 20)


def test_pvalue_uniformity_on_uniform_sample():
    rng = np.random.default_rng(11)
    rep = statcore.pvalue_uniformity(rng.uniform(0, 1, 1000))
    assert rep.uniform
