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

from .seqgen import BitSequence
from .statcore import chi2_test

ARCSINE_MOMENTS = (1 / 2, 3 / 8, 5 / 16, 35 / 128, 63 / 256, 231 / 1024)

_MORI_TERM_TOL = 1e-16
_MORI_MAX_TERMS = 100_000

_CHUNK_STEPS = 1 << 20  # walk steps built at once, whatever the segment length
_FIT_BINS = 50
_FIT_MIN_SAMPLES = 1000

_ZETA3, _ZETA5 = 1.2020569031595942, 1.03692775514337  # scipy's zeta(3), zeta(5)

# The Mori integrals are fixed numbers, so they are tabulated as the reprs
# of scipy's quad results (the tests recompute them).  <|tau/T|^n> for
# n = 1..10 is twice the quad of x^n mori_f(x) over (0, 1), with epsabs =
# epsrel = 1e-11 and limit 400.
_MORI_ABS_MOMENTS = (
    0.590862907413258, 0.4008998951323247, 0.29729659325929036,
    0.23394686978935555, 0.19187509431267769, 0.16217103782030093,
    0.14019929251768895, 0.12334583402589819, 0.11003840412009974,
    0.09928050974419209,
)

# The mass of mori_f on each of _FIT_BINS equal bins of (-1, 1), by quad
# with epsabs 1e-10 and limit 400 (hence the last-digit asymmetry).
_MORI_BIN_PROBS = np.array([
    0.02041099361495194, 0.0212786764168865, 0.022209522438415223,
    0.023178750925004505, 0.024150811352663042, 0.02508930346413772,
    0.025959636024272585, 0.026728656126477107, 0.027363515371425194,
    0.02783046306966881, 0.028093730305136563, 0.02811453750275422,
    0.027850262095948267, 0.02725387350856763, 0.026273885939785965,
    0.024855348102240143, 0.022942896228851824, 0.02048785966898832,
    0.0174632182188829, 0.013893450329754798, 0.00991119048961642,
    0.005854811780483416, 0.0023888429574287374, 0.0004104595067462352,
    5.304560911985657e-06, 5.304560911985657e-06, 0.0004104595067462381,
    0.0023888429574287443, 0.005854811780483385, 0.009911190489616443,
    0.013893450329754798, 0.0174632182188829, 0.02048785966898838,
    0.02294289622885184, 0.02485534810224015, 0.026273885939785885,
    0.02725387350856763, 0.027850262095948267, 0.02811453750275422,
    0.028093730305136642, 0.0278304630696688, 0.027363515371425118,
    0.026728656126477107, 0.025959636024272585, 0.02508930346413772,
    0.02415081135266311, 0.0231787509250045, 0.022209522438415105,
    0.02127867641688656, 0.02041099361495194,
])


def walk_extremes(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-attainment argmin/argmax per row of a +-1 step matrix.

    The walk includes its starting point 0, so times range over 0..T.
    """
    if steps.ndim != 2 or steps.shape[1] == 0:
        raise ValueError("steps must be 2-D (segments x T) with T >= 1")
    # |s_t| <= t for +-1 steps, so int16 holds every walk shorter than 2**15
    # and int32 every walk shorter than 2**31
    T = steps.shape[1]
    walks = np.cumsum(steps, axis=1, dtype=np.int16 if T < 2 ** 15
                      else np.int32 if T < 2 ** 31 else np.int64)
    rows = np.arange(steps.shape[0])
    lo = np.argmin(walks, axis=1)
    hi = np.argmax(walks, axis=1)
    # time 0 holds the walk's 0, so an extreme moves off it only when it is strict
    return (np.where(walks[rows, lo] < 0, lo + 1, 0),
            np.where(walks[rows, hi] > 0, hi + 1, 0))


def segment_extremes_batch(seq: BitSequence, start_ordinal: int, n_segments: int,
                           T: int) -> tuple[np.ndarray, np.ndarray]:
    """(t_min, t_max) arrays for n_segments back-to-back segments of length T.

    The walks are built in whole segments, at most _CHUNK_STEPS steps at a
    time, so memory grows neither with n_segments nor with T up to that
    budget; a segment longer than the budget is built whole, on its own.
    """
    if T < 1 or n_segments < 1:
        raise ValueError(f"need T >= 1 and n_segments >= 1, got T={T}, n_segments={n_segments}")
    if not seq.covers(start_ordinal, n_segments * T):
        raise ValueError(
            f"{n_segments} segments of {T} from ordinal {start_ordinal} not covered by "
            f"sequence [{seq.start_ordinal}, {seq.start_ordinal + seq.length})")
    t_min = np.empty(n_segments, dtype=np.int64)
    t_max = np.empty(n_segments, dtype=np.int64)
    per_chunk = max(1, _CHUNK_STEPS // T)
    for i in range(0, n_segments, per_chunk):
        m = min(per_chunk, n_segments - i)
        mu = seq.slice_mu(start_ordinal + i * T, m * T)
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
    return mori_f(x) if 0.0 < abs(x) < 1.0 else 0.0


def tau_moment_table() -> list[tuple[int, float]]:
    """Theoretical absolute moments <|tau/T|^n>, n = 1..10 (quadratures of mori_f)."""
    return list(enumerate(_MORI_ABS_MOMENTS, 1))


def tau_closed_moments() -> dict[int, float]:
    """The first four absolute moments in closed form (zeta values)."""
    return {
        1: (4 * math.log(2) - 1) / 3,
        2: (7 * _ZETA3 - 2) / 16,
        3: (147 * _ZETA3 - 34) / 480,
        4: (1701 * _ZETA3 - 930 * _ZETA5 - 182) / 3840,
    }


def _u_even(j_max: int) -> np.ndarray:
    """u_j = C(2j, j) / 4^j for j = 0..j_max, the running product of (2i - 1) / (2i)."""
    i = np.arange(1, j_max + 1, dtype=np.float64)
    return np.concatenate(([1.0], np.cumprod((2 * i - 1) / (2 * i))))


@lru_cache(maxsize=16)
def discrete_argmin_pmf(T: int) -> np.ndarray:
    """Exact law of the first-attainment argmin time for a T-step fair walk.

    P(t_min = k) factorizes into a strictly-positive reversed head and a
    non-negative tail, both classical ballot-type probabilities.
    """
    u, m = _u_even((T + 1) // 2), np.arange(1, T + 1)
    stay_pos = np.empty(T + 1)
    stay_pos[0] = 1.0
    stay_pos[1:] = 0.5 * u[m // 2]
    stay_nonneg = np.empty(T + 1)
    stay_nonneg[0] = 1.0
    stay_nonneg[1:] = u[(m + 1) // 2]
    return stay_pos * stay_nonneg[::-1]


@dataclass(frozen=True)
class FitReport:
    chi2: float
    dof: int
    p_value: float
    sample_moments: tuple
    reference_moments: tuple
    n_samples: int


def _binned_fit(u: np.ndarray, probs: np.ndarray, base: np.ndarray,
                reference_moments: tuple) -> FitReport:
    """Pearson test of samples u, scaled to [0, 1], against the weights probs
    of _FIT_BINS equal bins, over the bins that expect at least 5 samples;
    the sample moments are the means of base^j beside the reference ones."""
    if u.size < _FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {_FIT_MIN_SAMPLES} samples, got {u.size}")
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError("samples must lie in the law's support")
    obs = np.bincount(np.clip((u * _FIT_BINS).astype(np.int64), 0, _FIT_BINS - 1),
                      minlength=_FIT_BINS)
    n = int(obs.sum())
    expected = probs * n
    keep = expected >= 5.0
    dof = int(keep.sum()) - 1
    chi2, p = chi2_test(obs[keep], expected[keep], dof)
    sample_moments = tuple(float(np.mean(base ** j))
                           for j in range(1, len(reference_moments) + 1))
    return FitReport(chi2, dof, p, sample_moments, reference_moments, n)


def arcsine_compare(samples, T: int) -> FitReport:
    """Chi-square of t_min/T samples against the exact finite-T law of the
    argmin time, whose continuum limit is the arcsine law.

    Sample moments are reported against the continuum values.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    x = np.asarray(samples, dtype=np.float64)
    idx = np.clip((np.arange(T + 1) / T * _FIT_BINS).astype(np.int64), 0, _FIT_BINS - 1)
    probs = np.bincount(idx, weights=discrete_argmin_pmf(T), minlength=_FIT_BINS)
    return _binned_fit(x, probs, x, ARCSINE_MOMENTS)


def tau_compare(samples) -> FitReport:
    """Chi-square of tau/T samples, in [-1, 1], against the Mori scaling density."""
    x = np.asarray(samples, dtype=np.float64)
    return _binned_fit((x + 1.0) / 2.0, _MORI_BIN_PROBS, np.abs(x), _MORI_ABS_MOMENTS)


def histogram_rows(samples, domain: tuple[float, float], density_fn) -> list[tuple]:
    """(x_mid, count, empirical_density, theory_density) rows for plots,
    one per bin of _FIT_BINS equal bins over the domain.

    Both raw counts and the density normalization are emitted.
    """
    x = np.asarray(samples, dtype=np.float64)
    lo, hi = domain
    counts, edges = np.histogram(x, bins=_FIT_BINS, range=domain)
    width = (hi - lo) / _FIT_BINS
    mids = 0.5 * (edges[:-1] + edges[1:])
    emp = counts / (x.size * width)
    return [(float(m), int(c), float(e), float(density_fn(m)))
            for m, c, e in zip(mids, counts, emp)]
