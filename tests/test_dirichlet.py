import math
import tracemalloc

import numpy as np
import pytest

from mobiuswalk import dirichlet, seqgen


def test_character_table_q5():
    table = dirichlet.character_table(5)
    assert table.phi == 4
    assert table.generator == 2
    # the real non-principal row {1,-1,-1,1,0} on m=1..5 must be present
    target = np.array([1, -1, -1, 1, 0.0])
    found = any(np.allclose(np.r_[table.values[j, 1:], table.values[j, 0]], target)
                for j in range(4))
    assert found
    principal = table.values[table.principal_index]
    assert np.allclose(principal[1:], 1.0)
    assert principal[0] == 0


def test_character_axioms_various_moduli():
    for q in (2, 3, 5, 7, 11, 13, 31, 101):
        table = dirichlet.character_table(q)  # raises on axiom failure
        v = table.values
        # row sums: principal -> phi, others -> 0
        sums = v[:, 1:].sum(axis=1)
        assert abs(sums[0] - table.phi) < 1e-9
        if table.phi > 1:
            assert np.abs(sums[1:]).max() < 1e-9


def test_character_orthogonality_q7():
    table = dirichlet.character_table(7)
    v = table.values
    gram = v @ v.conj().T
    assert np.allclose(gram, table.phi * np.eye(table.phi), atol=1e-9)


def test_composite_modulus_rejected():
    with pytest.raises(dirichlet.UnsupportedModulusError):
        dirichlet.character_table(8)


def test_character_table_budget():
    # the least prime whose (q - 1) x q table exceeds the window budget; the
    # table would take 1 GiB, and it must be refused before any of it exists
    q = next(q for q in range(math.isqrt(seqgen.MAX_WINDOW), 2 * math.isqrt(seqgen.MAX_WINDOW))
             if seqgen.is_prime(q) and (q - 1) * q > seqgen.MAX_WINDOW)
    tracemalloc.start()
    try:
        with pytest.raises(seqgen.SegmentBudgetError):
            dirichlet.character_table(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gauss_sums():
    table5 = dirichlet.character_table(5)
    # |G(chi)|^2 = q for every non-principal character of a prime modulus
    for j in table5.nonprincipal():
        assert abs(abs(dirichlet.gauss_sum(table5.chi(j), 5)) ** 2 - 5) < 1e-10
    # principal character: geometric sum of all q-th roots minus one term
    g1 = dirichlet.gauss_sum(table5.chi(table5.principal_index), 5)
    assert abs(g1 - (-1)) < 1e-10
    table7 = dirichlet.character_table(7)
    for j in table7.nonprincipal():
        assert abs(abs(dirichlet.gauss_sum(table7.chi(j), 7)) ** 2 - 7) < 1e-10


def test_generalized_mertens_basics():
    table = dirichlet.character_table(5)
    for j in range(table.phi):
        assert dirichlet.generalized_mertens(table.chi(j), 1) == pytest.approx(1.0)
    # principal character sums mu over m coprime to q
    win = seqgen.mobius_range(1, 201).values
    direct = sum(int(win[m - 1]) for m in range(1, 201) if m % 5 != 0)
    assert dirichlet.generalized_mertens(table.chi(0), 200) == pytest.approx(direct)


def test_residue_mertens_and_identity():
    q, x = 5, 10 ** 4
    table = dirichlet.character_table(q)
    m_r = np.array([dirichlet.residue_mertens(q, r, x) for r in range(q)])
    win = seqgen.mobius_range(1, x + 1).values
    for r in range(q):
        brute = int(sum(win[m - 1] for m in range(1, x + 1) if m % q == r))
        assert m_r[r] == brute
    for j in range(table.phi):
        direct = dirichlet.generalized_mertens(table.chi(j), x)
        decomposed = complex(np.sum(table.chi(j)[np.arange(q)] * m_r))
        assert abs(direct - decomposed) < 1e-9


def test_residue_mertens_profile():
    prof = dirichlet.residue_mertens_profile(7, 10 ** 4, (10, 500, 10 ** 4))
    for c, arr in prof.items():
        expect = [dirichlet.residue_mertens(7, r, c) for r in range(7)]
        assert arr.tolist() == expect


def test_residue_mertens_profile_at_segment_edge():
    edge = seqgen.DEFAULT_SEGMENT  # the last integer of the first sieve segment
    xs = (edge - 1, edge, edge + 1)
    prof = dirichlet.residue_mertens_profile(3, edge + 1, xs)
    for x in xs:
        assert prof[x].tolist() == [dirichlet.residue_mertens(3, r, x) for r in range(3)]
    # mu(edge) = 0, so only a cut below edge - 1 leaves a stretch to carry over
    carried = dirichlet.residue_mertens_profile(3, edge + 1, (edge - 2, edge + 1))
    assert carried[edge + 1].tolist() == prof[edge + 1].tolist()


def test_residue_mertens_profile_stops_at_last_checkpoint(monkeypatch):
    his = []

    def recording(lo, hi):
        his.append(hi)
        return seqgen.iter_mobius(lo, hi)

    monkeypatch.setattr(dirichlet, "iter_mobius", recording)
    far = dirichlet.residue_mertens_profile(7, 2 * 10 ** 7, (10, 1000))
    assert his == [1001]
    near = dirichlet.residue_mertens_profile(7, 1000, (10, 1000))
    assert {c: a.tolist() for c, a in far.items()} == {c: a.tolist() for c, a in near.items()}
    with pytest.raises(ValueError):
        dirichlet.residue_mertens_profile(7, 999, (10, 1000))


def test_squarefree_in_progression_small():
    # square-free numbers in [2, 30]: residue classes mod 5 by enumeration
    win = seqgen.mobius_range(2, 31).values
    sqf = [m for m in range(2, 31) if win[m - 2] != 0]
    for r in range(5):
        want = sum(1 for m in sqf if m % 5 == r)
        count, est = dirichlet.squarefree_in_progression(5, r, 30)
        assert count == want
    total = sum(dirichlet.squarefree_in_progression(5, r, 30)[0] for r in range(5))
    assert total == seqgen.squarefree_count(30) - 1  # the unit is not counted


def test_progression_estimates():
    count, est = dirichlet.squarefree_in_progression(7, 1, 10 ** 6)
    assert abs(est - count) / count < 1e-3
    count0, est0 = dirichlet.squarefree_in_progression(7, 0, 10 ** 6)
    assert abs(est0 - count0) / count0 < 1e-3
    assert est0 == pytest.approx(6 / math.pi ** 2 * 10 ** 6 / 8)


def test_aq_bound_value():
    assert dirichlet.aq_bound(5) == pytest.approx((4 / math.sqrt(5)) * math.sqrt(25 / 24))
    assert dirichlet.aq_bound(5) == pytest.approx(1.8257, abs=1e-4)


def test_aq_diagnostic():
    diag = dirichlet.aq_bound_diagnostic(5, 10 ** 5, (1, 10, 10 ** 3, 10 ** 5))
    assert diag.a_q == pytest.approx(dirichlet.aq_bound(5))
    assert set(diag.max_ratio_per_char) == set(dirichlet.character_table(5).nonprincipal())
    # |M_chi(1)| / 1 = 1 at the first checkpoint, so every max is >= 1
    for ratio in diag.max_ratio_per_char.values():
        assert 1.0 <= ratio < 10.0
    assert diag.slack > 0


def test_progression_table_rejects_empty_classes():
    # 1 is not counted and 12 > 11, so the class r = 1 mod 11 is empty
    with pytest.raises(ValueError, match="residue class 1 mod 11"):
        dirichlet.progression_table(11, 11)
    with pytest.raises(ValueError, match="x_max"):
        dirichlet.progression_table(11, 10)
    count, est = dirichlet.squarefree_in_progression(11, 4, 11)
    assert count == 0 and est > 0
    rows = dirichlet.progression_table(5, 30)
    assert [row[1] for row in rows] == [
        dirichlet.squarefree_in_progression(5, r, 30)[0] for r in range(5)]
