"""Number-theory oracles along the square-free sequence.

Everything here is an exact count plus the handful of analytic estimates
it is compared against: the prime counting integral, the log log law for
the mean number of prime divisors, and the shifted Poisson model for the
factor-count classes.  Prime counts are pi(sqf_n) and divisor shares come
from square-free counts, both sublinear in sqf_n; only the omega
statistics stream the sieve over every integer up to sqf_n.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, takewhile
from math import log

import numpy as np
from scipy.integrate import quad
from scipy.special import expi, zeta

from .seqgen import (PI2_OVER_6, first_primes, iter_mobius, mobius_range,
                     nth_squarefree, prime_count, squarefree_multiples)
from .statcore import PValue, chi2_pvalue

_SERIES_TOL = 1e-12
_MAX_OMEGA = 24  # omega = 24 first occurs at the 24th primorial, about 2.4e34


def primorial(q: int) -> int:
    """Product of the first q primes (arbitrary precision)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return math.prod(first_primes(q).tolist())


@lru_cache(maxsize=None)
def _primorials_upto(bound: int) -> tuple:
    # k primes multiply to at least 2^k, so bound.bit_length() primes suffice
    prods = accumulate(first_primes(bound.bit_length()).tolist(), operator.mul)
    return tuple(takewhile(lambda v: v <= bound, prods))


def factor_squarefree(value: int) -> list[int]:
    """Prime factors of a square-free integer; rejects squared factors."""
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    factors = []
    x = value
    d = 2
    while d * d <= x:
        if x % d == 0:
            x //= d
            if x % d == 0:
                raise ValueError(f"{value} is not square-free (divisible by {d}^2)")
            factors.append(d)
        d += 1 if d == 2 else 2
    if x > 1:
        factors.append(x)
    return factors


def omega(sqf_value: int) -> int:
    """Number of distinct prime factors of a square-free integer."""
    return len(factor_squarefree(sqf_value))


def term_count(sqf_value: int) -> int:
    """The unique eta with primorial(eta) <= value < primorial(eta+1)."""
    if sqf_value < 2:
        raise ValueError(f"value must be >= 2, got {sqf_value}")
    factor_squarefree(sqf_value)  # raises on non-square-free input
    prims = _primorials_upto(sqf_value)
    return len(prims)


@dataclass(frozen=True)
class SqfSnapshot:
    """Accumulated statistics over the first n square-free numbers."""

    n: int
    sqf_n: int
    prime_count: int
    omega_sum: int
    omega_sumsq: int
    mertens: int
    class_counts: np.ndarray  # index k -> # with omega == k (k=0 counts the unit)


class _Tally:
    """Running mu sum and omega histogram, whose moments give primes and omega sums."""

    def __init__(self):
        self.mertens = 0
        self.class_counts = np.zeros(_MAX_OMEGA, dtype=np.int64)

    def add(self, mu: np.ndarray, om: np.ndarray) -> None:
        """Count a stretch of consecutive integers with these mu and omega."""
        self.mertens += int(mu.sum(dtype=np.int64))
        self.class_counts += np.bincount(om[mu != 0], minlength=_MAX_OMEGA)

    def snapshot(self, n: int, sqf_n: int) -> SqfSnapshot:
        cc, k = self.class_counts, np.arange(_MAX_OMEGA, dtype=np.int64)
        return SqfSnapshot(n, sqf_n, int(cc[1]), int(k @ cc), int(k * k @ cc),
                           self.mertens, cc.copy())


def scan_squarefree(n: int, checkpoints: tuple = ()) -> list[SqfSnapshot]:
    """One streamed pass over the first n square-free numbers.

    Returns snapshots at each requested checkpoint ordinal plus the final
    one at n.  Checkpoints cut each sieve segment into stretches; every
    stretch is tallied once into a running total, and a snapshot is that
    total at a cut, so thousands of checkpoints are cheap.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    marks = sorted(set(int(c) for c in checkpoints) | {n})
    if marks[0] < 1 or marks[-1] > n:
        raise ValueError(f"checkpoints must lie in [1, {n}]")
    tally = _Tally()
    snapshots: list[SqfSnapshot] = []
    next_mark = 0
    for seg_lo, _, mu, om in iter_mobius(1, nth_squarefree(n) + 1, want_omega=True):
        seen, cut = int(tally.class_counts.sum()), 0
        sqf = np.flatnonzero(mu)
        # the c-th square-free number overall is the (c - seen)-th of this segment
        while next_mark < len(marks) and marks[next_mark] - seen <= sqf.size:
            end = int(sqf[marks[next_mark] - seen - 1]) + 1
            tally.add(mu[cut:end], om[cut:end])
            snapshots.append(tally.snapshot(marks[next_mark], seg_lo + end - 1))
            cut = end
            next_mark += 1
        tally.add(mu[cut:], om[cut:])
    return snapshots


def li_squarefree(x: float) -> float:
    """Prime-count estimate along square-free numbers: int_2^x dt/log(t+1),
    which is li(x+1) - li(3) in closed form."""
    if x <= 2:
        return 0.0
    return float(expi(log(x + 1.0)) - expi(log(3.0)))


def pi_sqf_exact(n: int) -> int:
    """Exact number of primes among the first n square-free numbers: every
    prime is square-free, so this is pi(sqf_n)."""
    return prime_count(nth_squarefree(n))


def pi_sqf_theoretical(n: int) -> float:
    return li_squarefree(nth_squarefree(n))


def divisor_probability_check(p: int, n: int) -> tuple[float, float]:
    """(empirical, theoretical) probability that a square-free number is
    divisible by the prime p; theoretical value is 1/(p+1)."""
    return divisor_table((p,), n)[0][1:3]


@dataclass(frozen=True)
class Constants:
    kronecker_A: float
    series_B: float
    omega_offset: float
    variance_correction: float


@lru_cache(maxsize=1)
def constants_compute() -> Constants:
    """Recompute the constants of the log log law for the mean of omega.

    A is the Kronecker (Mertens) constant; B and the variance correction
    come from the alternating series over prime powers with the prime sums
    smoothed by the density 1/log t, integrated from 2.
    """
    a_const = float(np.euler_gamma)
    mu = mobius_range(1, 129).values
    k = 2
    while True:
        term = log(float(zeta(k))) / k
        a_const += mu[k - 1] * term
        if term < _SERIES_TOL:
            break
        k += 1

    b_const = 0.0
    k = 2
    while True:
        i_k = quad(lambda t, kk=k: t ** (-kk) / log(t), 2.0, np.inf, epsabs=1e-14)[0]
        b_const += (-1) ** k * i_k
        if i_k < _SERIES_TOL:
            break
        k += 1

    var_corr = 0.0
    k = 1
    while True:
        i_k = quad(lambda t, kk=k: t ** (-(kk + 1)) / log(t), 2.0, np.inf, epsabs=1e-14)[0]
        var_corr += (-1) ** (k - 1) * k * i_k
        if k * i_k < _SERIES_TOL:
            break
        k += 1

    return Constants(a_const, b_const, a_const - b_const, var_corr)


def omega_mean_theoretical(n: int) -> float:
    return log(log(PI2_OVER_6 * n + 1.0)) + constants_compute().omega_offset


@dataclass(frozen=True)
class OmegaStats:
    n: int
    mean_observed: float
    mean_theoretical: float
    variance_observed: float
    lam: float


def omega_stats(n: int) -> OmegaStats:
    """Observed vs predicted average number of prime divisors."""
    if n < 1000:
        raise ValueError(f"n must be >= 1000 for the asymptotic formula, got {n}")
    snap = scan_squarefree(n)[-1]
    mean = snap.omega_sum / n
    var = snap.omega_sumsq / n - mean * mean
    mean_th = omega_mean_theoretical(n)
    return OmegaStats(n, mean, mean_th, var, mean_th - 1.0)


@dataclass(frozen=True)
class ClassCounts:
    """Square-free numbers <= sqf_n grouped by number of prime factors.

    counts[k] is N_k for k >= 1; counts[0] = 1 accounts for the unit,
    which carries mu = +1 and therefore joins the even (n_plus) side.
    """

    n: int
    counts: np.ndarray
    n_plus: int
    n_minus: int

    @property
    def alternating_sum(self) -> int:
        signs = np.where(np.arange(self.counts.size) % 2 == 0, 1, -1)
        return int(np.sum(signs * self.counts))


def class_counts(n: int) -> ClassCounts:
    snap = scan_squarefree(n)[-1]
    q = len(_primorials_upto(snap.sqf_n)) if snap.sqf_n >= 2 else 0
    counts = snap.class_counts[:max(q + 1, int(np.max(np.nonzero(snap.class_counts)[0])) + 1)].copy()
    evens = int(counts[0::2].sum())
    odds = int(counts[1::2].sum())
    return ClassCounts(n, counts, evens, odds)


@dataclass(frozen=True)
class PoissonFit:
    chi2: float
    dof: int
    p_value: PValue
    ks: tuple
    observed: tuple
    expected: tuple


def poisson_fit(cc: ClassCounts, lam: float) -> PoissonFit:
    """Goodness of the shifted Poisson model P(k) = lam^(k-1) e^-lam/(k-1)!.

    Only categories with expected count >= 5 enter the chi-square; the
    result is a report, not a hard verdict.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    ks, obs, exp = [], [], []
    for k in range(1, cc.counts.size):
        e = cc.n * math.exp(-lam) * lam ** (k - 1) / math.factorial(k - 1)
        if e >= 5.0:
            ks.append(k)
            obs.append(int(cc.counts[k]))
            exp.append(e)
    if not ks:
        raise ValueError("all expected class counts below 5; fit is degenerate")
    # not statcore.chi2_test: numpy's pairwise sum of 8+ bins moves the last bit
    chi2 = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    dof = max(1, len(ks) - 1)
    return PoissonFit(chi2, dof, chi2_pvalue(chi2, dof), tuple(ks), tuple(obs), tuple(exp))


def erdos_kac_normalize(n: int, omega_value: int) -> float:
    """Center and scale omega by the log log law."""
    t = log(log(PI2_OVER_6 * n + 1.0))
    if t <= 0:
        raise ValueError(f"log log((pi^2/6)n+1) must be positive, got n={n}")
    return (omega_value - t) / math.sqrt(t)


def pi_table(ordinals) -> list[tuple]:
    """Rows (n, observed, theoretical, relative_error) for the prime count,
    one per distinct ordinal, in increasing order."""
    rows = []
    for n in sorted(set(int(v) for v in ordinals)):
        x = nth_squarefree(n)
        observed = prime_count(x)
        if observed == 0:
            raise ValueError(f"ordinal {n}: no prime among the first {n} square-free "
                             "numbers, so the relative error is undefined")
        th = li_squarefree(x)
        rows.append((n, observed, th, abs(th - observed) / observed))
    return rows


def omega_table(ordinals) -> list[tuple]:
    ordinals = sorted(int(v) for v in ordinals)
    snaps = scan_squarefree(ordinals[-1], checkpoints=tuple(ordinals))
    rows = []
    for snap in snaps:
        mean = snap.omega_sum / snap.n
        if mean == 0:
            raise ValueError(f"ordinal {snap.n}: mean omega 0, so the relative error is undefined")
        th = omega_mean_theoretical(snap.n)
        rows.append((snap.n, mean, th, abs(th - mean) / mean))
    return rows


def divisor_table(primes, n: int) -> list[tuple]:
    """Rows (p, empirical, theoretical, relative_error); p must be prime."""
    x = nth_squarefree(n)
    shares = [(p, squarefree_multiples(p, x) / n, 1.0 / (p + 1)) for p in primes]
    return [(p, emp, theo, abs(emp - theo) * (p + 1)) for p, emp, theo in shares]
