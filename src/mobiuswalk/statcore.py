"""Shared P-value machinery: Pearson tests, chi-square and erfc tails,
pass proportions, uniformity.

Every randomness test in the battery reduces its statistic to a P-value
through one of the functions here.  The incomplete gamma function is
implemented directly (series for small z, continued fraction otherwise)
so the whole decision chain is self-contained and auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ALPHA = 0.01
UNIFORMITY_MIN_SIZE = 50  # fewest P-values the ten-bin uniformity test takes

_GAMMA_EPS = 1e-15
_GAMMA_MAX_ITER = 10_000


def passes(p_value: float, alpha: float) -> bool:
    """A P-value passes at significance level alpha iff it is >= alpha."""
    return p_value >= alpha


@dataclass(frozen=True)
class ProportionInterval:
    """Acceptable range for the fraction of sequences passing a test."""

    alpha: float
    n: int
    lo: float
    hi: float

    def contains(self, proportion: float) -> bool:
        return self.lo <= proportion <= self.hi


def _gamma_q_series(a: float, z: float) -> float:
    # Lower series: P(a,z) = z^a e^-z / Gamma(a) * sum z^n / (a(a+1)...(a+n));
    # returns Q = 1 - P.  Converges fast for z < a + 1.
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_GAMMA_MAX_ITER):
        n += 1.0
        term *= z / n
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    else:
        raise ArithmeticError(f"gamma series failed to converge for a={a}, z={z}")
    log_p = a * math.log(z) - z - math.lgamma(a) + math.log(total)
    return 1.0 - math.exp(log_p)


def _gamma_q_contfrac(a: float, z: float) -> float:
    # Modified Lentz continued fraction for Q(a,z), stable for z >= a + 1.
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _GAMMA_MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    else:
        raise ArithmeticError(f"gamma contfrac failed to converge for a={a}, z={z}")
    return math.exp(a * math.log(z) - z - math.lgamma(a)) * h


def incomplete_gamma_q(a: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(a,z) = Gamma(a,z)/Gamma(a)."""
    if not a > 0:  # also refuses NaN
        raise ValueError(f"a must be positive, got {a}")
    if not z >= 0:
        raise ValueError(f"z must be non-negative, got {z}")
    if z == 0.0:
        return 1.0
    if z == math.inf:
        return 0.0
    if z < a + 1.0:
        q = _gamma_q_series(a, z)
    else:
        q = _gamma_q_contfrac(a, z)
    return min(1.0, max(0.0, q))


def chi2_pvalue(chi2: float, dof: int) -> float:
    """Tail probability of a chi-square statistic: Q(dof/2, chi2/2)."""
    if not chi2 >= 0:  # also refuses NaN
        raise ValueError(f"chi2 must be non-negative, got {chi2}")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    return incomplete_gamma_q(dof / 2.0, chi2 / 2.0)


def chi2_test(observed, expected, dof: int) -> tuple[float, float]:
    """Pearson statistic sum (o - e)^2 / e over bins, with its tail on dof."""
    o = np.asarray(observed, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    chi2 = float(np.sum((o - e) ** 2 / e))
    return chi2, chi2_pvalue(chi2, dof)


def erfc_pvalue(v: float) -> float:
    """Two-sided normal tail: erfc(v / sqrt(2)) for v = |statistic|."""
    if not v >= 0:  # also refuses NaN
        raise ValueError(f"v must be non-negative (pass |statistic|), got {v}")
    return math.erfc(v / math.sqrt(2.0))


def proportion_interval(alpha: float, n: int) -> ProportionInterval:
    """Confidence band (1-alpha) +- 3*sqrt(alpha(1-alpha)/n) for pass rates."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    half = 3.0 * math.sqrt(alpha * (1.0 - alpha) / n)
    return ProportionInterval(alpha, n, (1.0 - alpha) - half, (1.0 - alpha) + half)


@dataclass(frozen=True)
class ProportionReport:
    n: int
    proportion: float  # fraction of the n P-values at or above alpha
    interval: ProportionInterval

    @property
    def all_inside(self) -> bool:
        return self.interval.contains(self.proportion)


def proportion_check(pvalues, alpha: float) -> ProportionReport:
    """Pass rate of the P-values against its confidence interval."""
    values = [float(p) for p in pvalues]
    n = len(values)
    interval = proportion_interval(alpha, n)  # rejects an empty list
    return ProportionReport(n, sum(passes(v, alpha) for v in values) / n, interval)


@dataclass(frozen=True)
class UniformityReport:
    chi2: float
    pbar: float
    uniform: bool
    counts: tuple


def pvalue_uniformity(pvalues) -> UniformityReport:
    """Ten-bin chi-square test of P-value uniformity on [0,1).

    Uniform verdict uses the customary threshold P-bar >= 0.0001.
    """
    values = [float(p) for p in pvalues]
    ss = len(values)
    if ss < UNIFORMITY_MIN_SIZE:
        raise ValueError(f"need at least {UNIFORMITY_MIN_SIZE} P-values, got {ss}")
    counts = [0] * 10
    for v in values:
        counts[min(int(v * 10.0), 9)] += 1
    expected = ss / 10.0
    chi2 = sum((f - expected) ** 2 for f in counts) / expected
    pbar = incomplete_gamma_q(4.5, chi2 / 2.0)
    return UniformityReport(chi2, pbar, pbar >= 1e-4, tuple(counts))
