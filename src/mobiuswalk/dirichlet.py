"""Dirichlet characters mod a prime, generalized Mertens sums, and
square-free counts in arithmetic progressions.

Characters are built from the smallest primitive root g of q: the j-th
row sends g^a to exp(2*pi*i*j*a/(q-1)).  Phases are taken from a single
table of (q-1)-th roots of unity so the group axioms hold to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqgen import is_prime, iter_mobius, squarefree_terms

_AXIOM_TOL = 1e-12
_CLASS_BLOCK = 1 << 20  # class entries scattered at once


class UnsupportedModulusError(ValueError):
    """Composite moduli are not supported by the primitive-root build."""


def smallest_primitive_root(q: int) -> int:
    """Smallest generator of the multiplicative group mod prime q."""
    if q == 2:
        return 1
    phi = q - 1
    factors = []
    x = phi
    d = 2
    while d * d <= x:
        if x % d == 0:
            factors.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        factors.append(x)
    for g in range(2, q):
        if all(pow(g, phi // f, q) != 1 for f in factors):
            return g
    raise ArithmeticError(f"no primitive root found for {q}")


@dataclass(frozen=True)
class CharacterTable:
    """All phi(q) = q-1 Dirichlet characters mod prime q.

    values[j, m] = chi_j(m) for m = 0..q-1; row 0 is the principal
    character.  Every row is q-periodic by construction.
    """

    q: int
    phi: int
    generator: int
    values: np.ndarray  # complex128, shape (q-1, q)
    principal_index: int = 0

    def chi(self, j: int) -> np.ndarray:
        return self.values[j]

    def nonprincipal(self):
        return [j for j in range(self.phi) if j != self.principal_index]


def character_table(q: int) -> CharacterTable:
    if not is_prime(q):
        raise UnsupportedModulusError(
            f"modulus {q} is not prime; only prime moduli are supported")
    phi = q - 1
    g = smallest_primitive_root(q)
    dlog = np.zeros(q, dtype=np.int64)
    acc = 1
    for a in range(phi):
        dlog[acc] = a
        acc = (acc * g) % q
    roots = np.exp(2j * math.pi * np.arange(phi) / phi)
    values = np.zeros((phi, q), dtype=np.complex128)
    j = np.arange(phi)[:, None]
    m = np.arange(1, q)[None, :]
    values[:, 1:] = roots[(j * dlog[m]) % phi]
    table = CharacterTable(q, phi, g, values)
    _verify_axioms(table)
    return table


def _verify_axioms(table: CharacterTable) -> None:
    q, phi, v = table.q, table.phi, table.values
    if not np.allclose(v[:, 1], 1.0, atol=_AXIOM_TOL):
        raise AssertionError("chi(1) != 1")
    if np.any(v[:, 0] != 0):
        raise AssertionError("chi(0) != 0")
    if np.abs(np.abs(v[:, 1:]) - 1.0).max() > _AXIOM_TOL:
        raise AssertionError("non-unimodular character value")
    # complete multiplicativity on residues (sampled for large q)
    rng = np.random.default_rng(0)
    if q <= 67:
        ns = np.arange(1, q)
        ms = np.arange(1, q)
    else:
        ns = rng.integers(1, q, size=48)
        ms = rng.integers(1, q, size=48)
    prod = v[:, ns][:, :, None] * v[:, ms][:, None, :]
    direct = v[:, (ns[:, None] * ms[None, :]) % q]
    if np.abs(prod - direct).max() > 1e-9:
        raise AssertionError("multiplicativity violated")
    sums = v[:, 1:].sum(axis=1)
    if abs(sums[table.principal_index] - phi) > 1e-9:
        raise AssertionError("principal row does not sum to phi(q)")
    others = np.delete(sums, table.principal_index)
    if others.size and np.abs(others).max() > 1e-9:
        raise AssertionError("non-principal row sum does not vanish")
    orders = v[:, 1:] ** phi
    if np.abs(orders - 1.0).max() > 1e-8:
        raise AssertionError("character values are not phi(q)-th roots of unity")


def gauss_sum(chi_row: np.ndarray, q: int) -> complex:
    """G(chi) = sum_m chi(m) exp(2 pi i m / q)."""
    m = np.arange(1, q)
    return complex(np.sum(chi_row[m] * np.exp(2j * math.pi * m / q)))


def generalized_mertens(chi_row: np.ndarray, x: int) -> complex:
    """Direct sum of mu(m) chi(m) over m <= x (no residue shortcut)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    q = chi_row.size
    total = 0.0 + 0.0j
    for seg_lo, seg_hi, mu in iter_mobius(1, x + 1):
        total += np.dot(mu.astype(np.float64),
                        chi_row[np.arange(seg_lo, seg_hi) % q])
    return complex(total)


def _residue_sums(seg_lo: int, values: np.ndarray, q: int) -> np.ndarray:
    """Sums of values[m - seg_lo] over each class m = r (mod q), r = 0..q-1."""
    return np.array([values[(r - seg_lo) % q::q].sum(dtype=np.int64)
                     for r in range(q)], dtype=np.int64)


def residue_mertens(q: int, r: int, x: int) -> int:
    """Sum of mu(m) over m <= x with m congruent to r mod q."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if not 0 <= r < q:
        raise ValueError(f"residue must lie in [0, {q}), got {r}")
    total = 0
    for seg_lo, seg_hi, mu in iter_mobius(1, x + 1):
        total += int(mu[(r - seg_lo) % q::q].sum(dtype=np.int64))
    return total


def residue_mertens_profile(q: int, x: int, checkpoints) -> dict[int, np.ndarray]:
    """M_r at several checkpoints in one pass: {x_c: array over r=0..q-1}."""
    marks = sorted(set(int(c) for c in checkpoints))
    if not marks or marks[0] < 1 or marks[-1] > x:
        raise ValueError(f"checkpoints must lie in [1, {x}]")
    acc = np.zeros(q, dtype=np.int64)
    out: dict[int, np.ndarray] = {}
    ci = 0
    for seg_lo, seg_hi, mu in iter_mobius(1, marks[-1] + 1):
        cut = 0
        while ci < len(marks) and marks[ci] < seg_hi:
            end = marks[ci] - seg_lo + 1
            acc += _residue_sums(seg_lo + cut, mu[cut:end], q)
            out[marks[ci]] = acc.copy()
            cut = end
            ci += 1
        acc += _residue_sums(seg_lo + cut, mu[cut:], q)
    return out


def squarefree_in_progression(q: int, r: int, x_max: int) -> tuple[int, float]:
    """Exact count of square-free m in [2, x_max] with m = r (mod q), plus
    the density estimate.

    The count starts at 2 (the unit is not a member of the square-free
    progression proper, so the residue-1 class does not include it).
    Coprime residues share (6/pi^2)(X/q) / (1 - 1/q^2); the r = 0 class
    holds the 1/(q+1) fraction of all square-free numbers.
    """
    if not 0 <= r < q:
        raise ValueError(f"residue must lie in [0, {q}), got {r}")
    return int(_progression_counts(q, x_max)[r]), _density_estimate(q, r, x_max)


def _progression_counts(q: int, x_max: int) -> np.ndarray:
    """Square-free counts in [2, x_max] for every residue class mod q.

    The square-free m = r (mod q) number sum_d mu(d) #{k <= x_max // d^2 :
    k d^2 = r (mod q)}.  For q | d every k d^2 falls in class 0.  Otherwise,
    writing x_max // d^2 = a q + b, the first a q values of k cover every
    class a times, and the last b add mu(d) to the classes j d^2, j = 1..b:
    about 2 sqrt(x_max q) scattered entries in all.
    """
    if not is_prime(q):
        raise UnsupportedModulusError(f"modulus {q} is not prime")
    if x_max < q:
        raise ValueError(f"x_max must be >= q, got {x_max}")
    d, mu, quotients = squarefree_terms(x_max)
    unit = (d % q != 0) & (mu != 0)
    mu_u = mu[unit]
    a, b = np.divmod(quotients[unit], q)
    squares = d[unit] % q * (d[unit] % q) % q
    counts = np.full(q, mu_u @ a, dtype=np.int64)
    counts[0] += mu[~unit] @ quotients[~unit]
    counts[1] -= 1  # the unit
    ends = np.cumsum(b)
    lo = 0
    while lo < b.size:  # terms whose b add up to about _CLASS_BLOCK
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - b[lo] + _CLASS_BLOCK, "right")))
        n = b[lo:hi]
        j = np.arange(1, n.sum() + 1) - np.repeat(np.cumsum(n) - n, n)
        classes = j * np.repeat(squares[lo:hi], n) % q
        counts += np.bincount(classes, weights=np.repeat(mu_u[lo:hi], n),
                              minlength=q).astype(np.int64)  # float sums of +-1 are exact
        lo = hi
    return counts


def _density_estimate(q: int, r: int, x_max: int) -> float:
    if r == 0:
        return (6.0 / math.pi ** 2) * x_max / (q + 1)
    return (6.0 / math.pi ** 2) * (x_max / q) / (1.0 - 1.0 / q ** 2)


def progression_table(q: int, x_max: int) -> list[tuple]:
    """Rows (r, count, estimate, relative_error), with every class count
    read from one sum over d <= sqrt(x_max)."""
    counts = _progression_counts(q, x_max)
    rows = []
    for r, count in enumerate(counts.tolist()):
        if count == 0:
            raise ValueError(f"residue class {r} mod {q} has no square-free "
                             f"member in [2, {x_max}]")
        est = _density_estimate(q, r, x_max)
        rows.append((r, count, est, abs(est - count) / count))
    return rows


def aq_bound(q: int) -> float:
    """A_q = ((q-1)/sqrt(q)) sqrt(prod_{p|q} (1 - 1/p^2)^-1) for prime q."""
    if not is_prime(q):
        raise UnsupportedModulusError(f"modulus {q} is not prime")
    return (q - 1) / math.sqrt(q) * math.sqrt(1.0 / (1.0 - 1.0 / q ** 2))


@dataclass(frozen=True)
class AqDiagnostic:
    q: int
    a_q: float
    checkpoints: tuple
    max_ratio_per_char: dict  # j -> max over checkpoints of |M_chi(x)| / sqrt(x)
    slack: float  # max ratio across characters divided by A_q


def aq_bound_diagnostic(q: int, x_max: int, checkpoints) -> AqDiagnostic:
    """Growth ratios |M_chi(x)|/sqrt(x) against the A_q scale (no verdict)."""
    table = character_table(q)
    profile = residue_mertens_profile(q, x_max, checkpoints)
    ratios = {j: 0.0 for j in table.nonprincipal()}
    for c, m_r in profile.items():
        for j in table.nonprincipal():
            m_chi = np.sum(table.chi(j)[np.arange(q)] * m_r)
            ratios[j] = max(ratios[j], abs(m_chi) / math.sqrt(c))
    a_q = aq_bound(q)
    return AqDiagnostic(q, a_q, tuple(sorted(profile)), ratios,
                        max(ratios.values()) / a_q)
