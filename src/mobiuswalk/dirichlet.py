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

from .seqgen import (MAX_WINDOW, SegmentBudgetError, _mobius_terms, base_primes, is_prime,
                     iter_mobius)

_AXIOM_TOL = 1e-12
_CLASS_BLOCK = 1 << 16  # class entries scattered at once; seqgen slices the d


class UnsupportedModulusError(ValueError):
    """Composite moduli are not supported by the primitive-root build."""


def smallest_primitive_root(q: int) -> int:
    """Smallest generator of the multiplicative group mod prime q."""
    if not is_prime(q):
        raise UnsupportedModulusError(
            f"modulus {q} is not prime; only prime moduli are supported")
    if q == 2:
        return 1
    phi = q - 1
    primes = base_primes(math.isqrt(phi))
    factors = primes[phi % primes == 0].tolist()
    rest = phi  # at most one prime factor of phi exceeds its square root
    for f in factors:
        while rest % f == 0:
            rest //= f
    if rest > 1:
        factors.append(rest)
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

    def chi(self, j: int) -> np.ndarray:
        return self.values[j]


def character_table(q: int) -> CharacterTable:
    phi = q - 1
    # the budget check is O(1); smallest_primitive_root sieves up to sqrt(q)
    if q > 1 and phi * q > MAX_WINDOW:
        raise SegmentBudgetError(
            f"character table of {phi} x {q} values exceeds budget {MAX_WINDOW}")
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
    if abs(sums[0] - phi) > 1e-9:
        raise AssertionError("principal row does not sum to phi(q)")
    if phi > 1 and np.abs(sums[1:]).max() > 1e-9:
        raise AssertionError("non-principal row sum does not vanish")
    orders = v[:, 1:] ** phi
    if np.abs(orders - 1.0).max() > 1e-8:
        raise AssertionError("character values are not phi(q)-th roots of unity")


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


def _progression_counts(q: int, x_max: int) -> np.ndarray:
    """Square-free counts in [2, x_max] for every residue class mod q.

    The square-free m = r (mod q) number sum_d mu(d) #{k <= x_max // d^2 :
    k d^2 = r (mod q)}.  For q | d every k d^2 falls in class 0.  Otherwise,
    writing x_max // d^2 = a q + b, the first a q values of k cover every
    class a times, and the last b add mu(d) to the classes j d^2, j = 1..b:
    about 2 sqrt(x_max q) scattered entries in all.
    """
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    # the budget first: is_prime sieves up to sqrt(q), and the q-long arrays follow
    terms = _mobius_terms(math.isqrt(x_max))
    if not is_prime(q):
        raise UnsupportedModulusError(f"modulus {q} is not prime")
    counts = np.zeros(q, dtype=np.int64)
    counts[1] -= 1  # the unit
    tails = np.zeros(q)  # float sums of +-1 are exact
    for d, mu in terms:  # temporaries of one slice of d
        quotients = x_max // (d * d)
        unit = (d % q != 0) & (mu != 0)
        mu_u = mu[unit]
        a, b = np.divmod(quotients[unit], q)
        squares = d[unit] % q * (d[unit] % q) % q
        counts += mu_u @ a
        counts[0] += mu[~unit] @ quotients[~unit]
        ends = np.cumsum(b)
        lo = 0
        while lo < b.size:  # terms whose b add up to about _CLASS_BLOCK
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - b[lo] + _CLASS_BLOCK, "right")))
            n = b[lo:hi]
            j = np.arange(1, n.sum() + 1) - np.repeat(np.cumsum(n) - n, n)
            classes = j * np.repeat(squares[lo:hi], n) % q
            tails += np.bincount(classes, weights=np.repeat(mu_u[lo:hi], n), minlength=q)
            lo = hi
    return counts + tails.astype(np.int64)


def _density_estimate(q: int, r: int, x_max: int) -> float:
    """The r = 0 class holds 1/(q+1) of the square-free numbers; coprime
    classes share (6/pi^2)(x_max/q) / (1 - 1/q^2) each."""
    if r == 0:
        return (6.0 / math.pi ** 2) * x_max / (q + 1)
    return (6.0 / math.pi ** 2) * (x_max / q) / (1.0 - 1.0 / q ** 2)


def progression_table(q: int, x_max: int) -> list[tuple]:
    """Rows (r, count, estimate, relative_error), with every class count
    read from one sum over d <= sqrt(x_max)."""
    # the O(1) check first: is_prime sieves up to sqrt(q)
    if x_max < q:
        raise ValueError(f"x_max must be >= q, got {x_max}")
    counts = _progression_counts(q, x_max)
    rows = []
    for r, count in enumerate(counts.tolist()):
        if count == 0:
            raise ValueError(f"residue class {r} mod {q} has no square-free "
                             f"member in [2, {x_max}]")
        est = _density_estimate(q, r, x_max)
        rows.append((r, count, est, abs(est - count) / count))
    return rows

