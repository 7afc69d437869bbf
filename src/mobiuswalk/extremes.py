"""Extreme-time statistics of the restricted Mertens walk.

For each segment of T steps the walk starts at 0; we record the first
attainment times of its minimum and maximum.  t_min/T follows the arcsine
law, and tau = t_max - t_min scaled by T follows the Mori-Majumdar-Schehr
density, whose series form is implemented here together with its moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import pi, sinh, sqrt

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, zeta

from .seqgen import BitSequence
from .statcore import PValue, chi2_test

ARCSINE_MOMENTS = (1 / 2, 3 / 8, 5 / 16, 35 / 128, 63 / 256, 231 / 1024)

_MORI_TERM_TOL = 1e-16
_MORI_MAX_TERMS = 100_000


@dataclass(frozen=True)
class SegmentExtremes:
    segment_start: int
    T: int
    t_min: int
    t_max: int
    tau: int  # t_max - t_min, signed


def walk_extremes(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-attainment argmin/argmax per row of a +-1 step matrix.

    The walk includes its starting point 0, so times range over 0..T.
    """
    if steps.ndim != 2:
        raise ValueError("steps must be 2-D (segments x T)")
    walks = np.cumsum(steps, axis=1, dtype=np.int64)
    zeros = np.zeros((steps.shape[0], 1), dtype=np.int64)
    walks = np.concatenate([zeros, walks], axis=1)
    return np.argmin(walks, axis=1), np.argmax(walks, axis=1)


def segment_extremes(seq: BitSequence, segment_start: int, T: int) -> SegmentExtremes:
    mu = seq.slice_mu(segment_start, T).astype(np.int64)
    t_min, t_max = walk_extremes(mu[None, :])
    return SegmentExtremes(segment_start, T, int(t_min[0]), int(t_max[0]),
                           int(t_max[0]) - int(t_min[0]))


def segment_extremes_batch(seq: BitSequence, start_ordinal: int, n_segments: int,
                           T: int, chunk: int = 2000) -> tuple[np.ndarray, np.ndarray]:
    """(t_min, t_max) arrays for n_segments back-to-back segments of length T."""
    if T < 1 or n_segments < 1:
        raise ValueError(f"need T >= 1 and n_segments >= 1, got T={T}, n_segments={n_segments}")
    t_min = np.empty(n_segments, dtype=np.int64)
    t_max = np.empty(n_segments, dtype=np.int64)
    for i in range(0, n_segments, chunk):
        m = min(chunk, n_segments - i)
        mu = seq.slice_mu(start_ordinal + i * T, m * T).astype(np.int8)
        lo, hi = walk_extremes(mu.reshape(m, T))
        t_min[i:i + m] = lo
        t_max[i:i + m] = hi
    return t_min, t_max


def mori_f(x: float) -> float:
    """Scaling density of tau/T (even in x, supported on (-1,1) minus 0).

    Series terms vanish super-fast except near |x| = 1, where the sum is
    taken directly with a hard cap.
    """
    ax = abs(x)
    if not 0.0 < ax < 1.0:
        raise ValueError(f"|x| must lie in (0,1), got {x}")
    if ax < 1e-6:
        return 0.0
    a = sqrt((1.0 - ax) / ax)
    total = 0.0
    for m in range(_MORI_MAX_TERMS):
        arg = (2 * m + 1) * pi * a
        if arg > 745.0:  # sinh overflows; term is below any tolerance
            break
        term = (2 * m + 1) / sinh(arg)
        total += term
        if term < _MORI_TERM_TOL:
            break
    else:
        raise ArithmeticError(f"mori_f series did not converge at x={x}")
    # symmetric sum over all integers m pairs (m, -m-1) into twice the m>=0 sum
    return 2.0 * (1.0 - ax) / (ax * ax) * 2.0 * total


def _mori_f_safe(x: float) -> float:
    ax = abs(x)
    if ax < 1e-9 or ax >= 1.0:
        return 0.0
    return mori_f(x)


@lru_cache(maxsize=64)
def _mori_abs_moment(order: int) -> float:
    val, _ = quad(lambda x: x ** order * _mori_f_safe(x), 0.0, 1.0,
                  epsabs=1e-11, epsrel=1e-11, limit=400)
    return 2.0 * val


def tau_moment_table(max_order: int = 10) -> list[tuple[int, float]]:
    """Theoretical absolute moments <|tau/T|^n> by quadrature of mori_f."""
    return [(n, _mori_abs_moment(n)) for n in range(1, max_order + 1)]


def tau_closed_moments() -> dict[int, float]:
    """The first four absolute moments in closed form (zeta values)."""
    z3, z5 = float(zeta(3)), float(zeta(5))
    return {
        1: (4 * math.log(2) - 1) / 3,
        2: (7 * z3 - 2) / 16,
        3: (147 * z3 - 34) / 480,
        4: (1701 * z3 - 930 * z5 - 182) / 3840,
    }


@lru_cache(maxsize=32)
def _mori_bin_probs(nbins: int) -> np.ndarray:
    edges = np.linspace(-1.0, 1.0, nbins + 1)
    return np.array([quad(_mori_f_safe, edges[i], edges[i + 1],
                          epsabs=1e-10, limit=400)[0]
                     for i in range(nbins)])


def _u_even(n: np.ndarray) -> np.ndarray:
    # C(2n, n) / 4^n without overflow
    n = np.asarray(n, dtype=np.float64)
    return np.exp(gammaln(2 * n + 1) - 2 * gammaln(n + 1) - 2 * n * math.log(2.0))


@lru_cache(maxsize=16)
def discrete_argmin_pmf(T: int) -> np.ndarray:
    """Exact law of the first-attainment argmin time for a T-step fair walk.

    P(t_min = k) factorizes into a strictly-positive reversed head and a
    non-negative tail, both classical ballot-type probabilities.
    """
    k = np.arange(T + 1)
    stay_pos = np.empty(T + 1)
    stay_pos[0] = 1.0
    m = k[1:]
    stay_pos[1:] = 0.5 * _u_even(np.where(m % 2 == 0, m // 2, (m - 1) // 2))
    stay_nonneg = np.empty(T + 1)
    stay_nonneg[0] = 1.0
    stay_nonneg[1:] = _u_even(np.where(m % 2 == 0, m // 2, (m + 1) // 2))
    return stay_pos * stay_nonneg[::-1]


@dataclass(frozen=True)
class FitReport:
    chi2: float
    dof: int
    p_value: PValue
    sample_moments: tuple
    reference_moments: tuple
    n_samples: int


def _binned_fit(obs: np.ndarray, probs: np.ndarray, sample_moments: tuple,
                reference_moments: tuple) -> FitReport:
    # Pearson test over the bins that expect at least 5 of the samples
    n = int(obs.sum())
    expected = probs * n
    keep = expected >= 5.0
    dof = int(keep.sum()) - 1
    chi2, p = chi2_test(obs[keep], expected[keep], dof)
    return FitReport(chi2, dof, p, sample_moments, reference_moments, n)


def arcsine_compare(samples, nbins: int = 50, T: int | None = None,
                    min_samples: int = 1000) -> FitReport:
    """Chi-square of t_min/T samples against the arcsine law.

    With T given the expected bin weights use the exact discrete law of the
    finite walk (the arcsine density is its continuum limit); without T
    they integrate the continuum density.  Sample moments are always
    reported against the continuum values.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {x.size}")
    if np.any((x < 0) | (x > 1)):
        raise ValueError("samples must lie in [0, 1]")
    if T is None:
        edges = np.linspace(0.0, 1.0, nbins + 1)
        cdf = (2.0 / pi) * np.arcsin(np.sqrt(edges))
        probs = np.diff(cdf)
    else:
        pmf = discrete_argmin_pmf(T)
        idx = np.clip((np.arange(T + 1) / T * nbins).astype(np.int64), 0, nbins - 1)
        probs = np.bincount(idx, weights=pmf, minlength=nbins)
    obs = np.bincount(np.clip((x * nbins).astype(np.int64), 0, nbins - 1),
                      minlength=nbins)
    return _binned_fit(obs, probs, tuple(float(np.mean(x ** j)) for j in range(1, 7)),
                       ARCSINE_MOMENTS)


def tau_compare(samples, nbins: int = 50, max_order: int = 10,
                min_samples: int = 1000) -> FitReport:
    """Chi-square of tau/T samples against the Mori scaling density."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {x.size}")
    if np.any((x < -1) | (x > 1)):
        raise ValueError("samples must lie in [-1, 1]")
    probs = _mori_bin_probs(nbins)
    idx = np.clip(((x + 1.0) / 2.0 * nbins).astype(np.int64), 0, nbins - 1)
    ax = np.abs(x)
    return _binned_fit(np.bincount(idx, minlength=nbins), probs,
                       tuple(float(np.mean(ax ** j)) for j in range(1, max_order + 1)),
                       tuple(v for _, v in tau_moment_table(max_order)))


def histogram_rows(samples, nbins: int, domain: tuple[float, float],
                   density_fn) -> list[tuple]:
    """(x_mid, count, empirical_density, theory_density) rows for plots.

    Both raw counts and the density normalization are emitted.
    """
    x = np.asarray(samples, dtype=np.float64)
    lo, hi = domain
    counts, edges = np.histogram(x, bins=nbins, range=domain)
    width = (hi - lo) / nbins
    mids = 0.5 * (edges[:-1] + edges[1:])
    emp = counts / (x.size * width)
    return [(float(m), int(c), float(e), float(density_fn(m)))
            for m, c, e in zip(mids, counts, emp)]
