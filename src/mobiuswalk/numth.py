"""Number-theory oracles along the square-free sequence.

Everything here is an exact count plus the handful of analytic estimates
it is compared against: the prime counting integral, the log log law for
the mean number of prime divisors, and the shifted Poisson model for the
factor-count classes.  Prime counts are pi(sqf_n) and divisor shares are
class 0 of the square-free counts mod p, both sublinear in sqf_n; only the
omega statistics stream the sieve over every integer up to sqf_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log

import numpy as np

from .dirichlet import _progression_counts
from .seqgen import (PI2_OVER_6, iter_mobius, nth_squarefree, prime_counts, prime_counts_budget,
                     sqf_bounds)
from .statcore import chi2_pvalue

_MAX_OMEGA = 24  # omega = 24 first occurs at the 24th primorial, about 2.4e34


@dataclass(frozen=True)
class SqfSnapshot:
    """Accumulated statistics over the first n square-free numbers.

    `mertens` is the running sum of mu and every other field a moment of
    the omega classes, so the identity sum_k (-1)^k class_counts[k] =
    mertens checks that the parity of omega agrees with the sign of mu.
    Both come from the sieve's one accumulator, so it does not check the
    sieve itself.
    """

    n: int
    sqf_n: int
    prime_count: int
    omega_sum: int
    omega_sumsq: int
    mertens: int
    class_counts: np.ndarray  # index k -> # with omega == k (k=0 counts the unit)


class _Tally:
    """Running omega histogram, whose moments give primes and omega sums,
    beside a running sum of mu."""

    def __init__(self):
        self.class_counts = np.zeros(_MAX_OMEGA, dtype=np.int64)
        self.mertens = 0

    def add(self, mu: np.ndarray, om: np.ndarray) -> None:
        """Count a stretch of consecutive integers with these mu and omega."""
        # No boolean-mask gather: each integer gets one byte, its omega if
        # square-free and omega + _MAX_OMEGA, a dropped bin, if not (omega
        # <= 15).  bincount takes the bytes in pairs as uint16, so it widens
        # half as many entries, and the row and column sums of the pair
        # histogram count both bytes.  An odd stretch pads a dropped byte.
        n = mu.size
        key = np.full(n + n % 2, _MAX_OMEGA, dtype=np.uint8)
        np.multiply(mu == 0, _MAX_OMEGA, out=key[:n], casting="unsafe")
        key[:n] += om
        pairs = np.bincount(key.view(np.uint16), minlength=2 * _MAX_OMEGA << 8)
        pairs = pairs.reshape(2 * _MAX_OMEGA, 256)
        self.class_counts += pairs[:_MAX_OMEGA].sum(1) + pairs[:, :_MAX_OMEGA].sum(0)
        self.mertens += int(mu.sum(dtype=np.int64))

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
    from scipy.special import expi
    return float(expi(log(x + 1.0)) - expi(log(3.0)))


@dataclass(frozen=True)
class Constants:
    kronecker_A: float
    series_B: float
    omega_offset: float
    variance_correction: float


def constants_compute() -> Constants:
    """The constants of the log log law for the mean of omega.

    A is the Kronecker (Mertens) constant; B and the variance correction
    come from the alternating series over prime powers with the prime sums
    smoothed by the density 1/log t, integrated from 2.  They are fixed
    numbers, tabulated as the reprs of their series and quadratures (the
    tests recompute them).
    """
    # A and the offset stay np.float64, the type the series left them, as
    # the repr of these constants is pinned
    return Constants(np.float64(0.261497212847716), 0.29147854137512613,
                     np.float64(-0.029981328527410145), 0.22697776344424964)


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


def class_counts(n: int) -> np.ndarray:
    """The omega classes of the first n square-free numbers (Erdos-Kac).

    Entry k is N_k, the count with k prime factors; entry 0 = 1 is the
    unit, which carries mu = +1 and so joins the even classes.  These
    classes carry the paper's Erdos-Kac law for square-free numbers;
    `poisson_fit` is the check of that law beyond the mean and variance.
    """
    cc = scan_squarefree(n)[-1].class_counts
    # the classes run to the last non-empty one: the smallest square-free
    # number with k prime factors is the k-th primorial, so none is empty
    return cc[:np.flatnonzero(cc)[-1] + 1]


@dataclass(frozen=True)
class PoissonFit:
    """Chi-square of the omega classes against the shifted Poisson law (Erdos-Kac)."""

    chi2: float
    dof: int
    p_value: float
    ks: tuple
    observed: tuple
    expected: tuple


def poisson_fit(counts: np.ndarray, lam: float) -> PoissonFit:
    """Goodness of the shifted Poisson model P(k) = lam^(k-1) e^-lam/(k-1)!.

    Only categories with expected count >= 5 enter the chi-square; the
    result is a report, not a hard verdict.  This is the check of the
    paper's Erdos-Kac distribution: criterion 04 tests only the mean and
    variance of omega.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    n, ks, obs, exp = int(counts.sum()), [], [], []
    for k in range(1, counts.size):
        e = n * math.exp(-lam) * lam ** (k - 1) / math.factorial(k - 1)
        if e >= 5.0:
            ks.append(k)
            obs.append(int(counts[k]))
            exp.append(e)
    if not ks:
        raise ValueError("all expected class counts below 5; fit is degenerate")
    # not statcore.chi2_test: numpy's pairwise sum of 8+ bins moves the last bit
    chi2 = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    dof = max(1, len(ks) - 1)
    return PoissonFit(chi2, dof, chi2_pvalue(chi2, dof), tuple(ks), tuple(obs), tuple(exp))


def pi_table(ordinals) -> list[tuple]:
    """Rows (n, observed, theoretical, relative_error) for the prime count,
    one per distinct ordinal, in increasing order."""
    ns = sorted(set(int(v) for v in ordinals))
    if ns:  # bounds on each sqf_n refuse an over-budget batch before any sieving
        bounds = [sqf_bounds(n) for n in ns]
        prime_counts_budget([low for low, _ in bounds], bounds[-1][1])
    xs = [nth_squarefree(n) for n in ns]
    rows = []
    for n, x, observed in zip(ns, xs, prime_counts(xs)):
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
    """Rows (p, empirical, theoretical, relative_error); p must be prime.  The
    square-free multiples of p up to sqf_n are class 0 of the counts mod p."""
    x = nth_squarefree(n)
    shares = [(p, int(_progression_counts(p, x)[0]) / n, 1.0 / (p + 1)) for p in primes]
    return [(p, emp, theo, abs(emp - theo) * (p + 1)) for p, emp, theo in shares]
