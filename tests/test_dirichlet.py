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
    principal = table.values[0]
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


def _primitive_root_trial_division(q):
    """Oracle: the prime factors of q - 1 by trial division over every d."""
    phi, rest, factors, d = q - 1, q - 1, [], 2
    while d * d <= rest:
        if rest % d == 0:
            factors.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        factors.append(rest)
    return next(g for g in range(2, q) if all(pow(g, phi // f, q) != 1 for f in factors))


def test_smallest_primitive_root():
    for q in seqgen.base_primes(20000).tolist()[1:]:
        assert dirichlet.smallest_primitive_root(q) == _primitive_root_trial_division(q), q
    for q in (1000003, 998244353, 2 ** 31 - 1, 10 ** 9 + 7):
        assert dirichlet.smallest_primitive_root(q) == _primitive_root_trial_division(q), q
    assert dirichlet.smallest_primitive_root(2) == 1
    # exhaustive for small q: g generates every unit and no smaller g does
    for q in (3, 5, 7, 11, 13, 97, 101):
        g = dirichlet.smallest_primitive_root(q)
        orders = [len({pow(h, a, q) for a in range(q - 1)}) for h in range(2, g + 1)]
        assert orders[-1] == q - 1 and max(orders[:-1], default=0) < q - 1


def test_smallest_primitive_root_rejects_composite():
    # 8, 15 and 21 have no primitive root, and 4 and 9 have one of order
    # phi(q) < q - 1; 1 is not prime either
    for q in (1, 4, 8, 9, 15, 21):
        with pytest.raises(dirichlet.UnsupportedModulusError):
            dirichlet.smallest_primitive_root(q)
    assert dirichlet.smallest_primitive_root(2) == 1


def test_character_table_budget(monkeypatch):
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
    # a prime far past the budget is refused without sieving to its root
    monkeypatch.setattr(seqgen, "_prime_cache", {})
    with pytest.raises(seqgen.SegmentBudgetError):
        dirichlet.character_table(10000000000000061)
    assert seqgen._prime_cache.get("limit", 0) <= 10 ** 4


def gauss_sum(chi_row: np.ndarray, q: int) -> complex:
    """G(chi) = sum_m chi(m) exp(2 pi i m / q)."""
    m = np.arange(1, q)
    return complex(np.sum(chi_row[m] * np.exp(2j * math.pi * m / q)))


def test_gauss_sums():
    table5 = dirichlet.character_table(5)
    # |G(chi)|^2 = q for every non-principal character of a prime modulus
    for j in range(1, table5.phi):
        assert abs(abs(gauss_sum(table5.chi(j), 5)) ** 2 - 5) < 1e-10
    # principal character: geometric sum of all q-th roots minus one term
    g1 = gauss_sum(table5.chi(0), 5)
    assert abs(g1 - (-1)) < 1e-10
    table7 = dirichlet.character_table(7)
    for j in range(1, table7.phi):
        assert abs(abs(gauss_sum(table7.chi(j), 7)) ** 2 - 7) < 1e-10


def test_generalized_mertens_basics():
    table = dirichlet.character_table(5)
    for j in range(table.phi):
        assert dirichlet.generalized_mertens(table.chi(j), 1) == pytest.approx(1.0)
    # principal character sums mu over m coprime to q
    win = seqgen.mobius_range(1, 201)
    direct = sum(int(win[m - 1]) for m in range(1, 201) if m % 5 != 0)
    assert dirichlet.generalized_mertens(table.chi(0), 200) == pytest.approx(direct)


def test_residue_mertens_and_identity():
    q, x = 5, 10 ** 4
    table = dirichlet.character_table(q)
    m_r = np.array([dirichlet.residue_mertens(q, r, x) for r in range(q)])
    win = seqgen.mobius_range(1, x + 1)
    for r in range(q):
        brute = int(sum(win[m - 1] for m in range(1, x + 1) if m % q == r))
        assert m_r[r] == brute
    for j in range(table.phi):
        direct = dirichlet.generalized_mertens(table.chi(j), x)
        decomposed = complex(np.sum(table.chi(j)[np.arange(q)] * m_r))
        assert abs(direct - decomposed) < 1e-9


def test_squarefree_in_progression_small():
    # square-free numbers in [2, 30]: residue classes mod 5 by enumeration
    win = seqgen.mobius_range(2, 31)
    sqf = [m for m in range(2, 31) if win[m - 2] != 0]
    rows = dirichlet.progression_table(5, 30)
    assert [row[0] for row in rows] == list(range(5))
    for r, count, _, _ in rows:
        assert count == sum(1 for m in sqf if m % 5 == r)
    total = sum(row[1] for row in rows)
    assert total == seqgen.squarefree_count(30) - 1  # the unit is not counted


def test_progression_estimates():
    rows = dirichlet.progression_table(7, 10 ** 6)
    _, count, est, _ = rows[1]
    assert abs(est - count) / count < 1e-3
    _, count0, est0, _ = rows[0]
    assert abs(est0 - count0) / count0 < 1e-3
    assert est0 == pytest.approx(6 / math.pi ** 2 * 10 ** 6 / 8)


def test_progression_table_rejects_empty_classes():
    # 1 is not counted and 12 > 11, so the class r = 1 mod 11 is empty
    with pytest.raises(ValueError, match="residue class 1 mod 11"):
        dirichlet.progression_table(11, 11)
    with pytest.raises(ValueError, match="x_max"):
        dirichlet.progression_table(11, 10)
    assert dirichlet._progression_counts(11, 11)[4] == 0
