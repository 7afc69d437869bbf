"""Randomness test battery over bit blocks.

Each test maps a {0,1} block to a statistic and a P-value through the
chi-square or normal tails in statcore.  The battery runner applies a
selection of tests to every block of an ensemble, then aggregates
pass proportions and P-value uniformity per test.

Blocks are numpy uint8 arrays of 0/1; the signed values are 2b - 1.
"""

from __future__ import annotations

import json
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import erf, erfc, log, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mertens import Ensemble
from .seqgen import BitSequence, _signs
from .statcore import (DEFAULT_ALPHA, UNIFORMITY_MIN_SIZE, chi2_pvalue, chi2_test,
                       erfc_pvalue, passes, proportion_check, pvalue_uniformity)

LONGEST_RUN_BITS = 6272
LONGEST_RUN_SUBLEN = 128
LONGEST_RUN_PROBS = (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)

MATRIX_H = 32  # rank matrices are MATRIX_H x MATRIX_H, as in NIST SP 800-22

MAURER_M = 6
MAURER_Q = 640
MAURER_K = 233227
MAURER_MEAN = 5.2177052
MAURER_SIGMA = 0.0020213

ENTROPY_M = 4  # approximate entropy compares m- and (m+1)-bit words

DEFAULT_TEMPLATE = np.array([0, 0, 1, 0, 1, 1, 0, 1], dtype=np.uint8)

EXCURSION_STATES = (-4, -3, -2, -1, 1, 2, 3, 4)
EXCURSION_MIN_CYCLES = 800

_CUSUM_SERIES_TOL = 1e-12


@dataclass(frozen=True)
class TestResult:
    test_name: str
    params: dict
    statistic: float | None
    p_value: float | None
    aux: dict | None = None
    skipped: str | None = None


def _as_bits(block) -> np.ndarray:
    raw = np.asarray(block)
    if raw.ndim != 1:
        raise ValueError("block must be one-dimensional")
    bits = raw.astype(np.uint8, copy=False)
    # any other dtype can hide a non-bit in the cast (0.7 -> 0, 256 -> 0)
    cast_exact = raw.dtype in (np.uint8, np.bool_) or np.array_equal(bits, raw)
    if not cast_exact or (bits.size and bits.max() > 1):
        raise ValueError("block values must be 0 or 1")
    return bits


def _walk(bits: np.ndarray) -> np.ndarray:
    """Partial sums of the +-1 values, in int32 unless they could overflow it."""
    return np.cumsum(_signs(bits, np.int8),
                     dtype=np.int32 if bits.size < 2 ** 31 else np.int64)


class ShortBlock(ValueError):
    """A block holds fewer bits than the test's minimum length."""


def _require(bits: np.ndarray, n_min: int, test: str) -> None:
    if bits.size < n_min:
        raise ShortBlock(f"{test} needs at least {n_min} bits, got {bits.size}")


def _word_codes(words: np.ndarray) -> np.ndarray:
    """Value of each m-bit word along the last axis of a bit array, first bit high.

    The codes use the narrowest unsigned dtype that holds m bits, and
    Python ints (object dtype) above 64 bits.
    """
    m = words.shape[-1]
    codes = np.zeros(words.shape[:-1], dtype=np.min_scalar_type((1 << m) - 1))
    for j in range(m):
        codes <<= 1
        codes |= words[..., j]
    return codes


def _word_counts(bits: np.ndarray, m: int, step: int) -> np.ndarray:
    """Counts of the m-bit codes of the words at bits 0, step, 2 step, ...

    The word positions repeat every lcm(step, 8) bits.  For m <= 9 a word
    lies within the 16-bit pair of packed bytes that starts at its first
    byte, so the words of whole groups are counted from one histogram per
    byte of the group: its pairs shifted right by the smallest shift that
    a word starting there needs, out of which each word's code is summed.
    The words after the last whole group, and all words when m > 9, are
    coded one by one.
    """
    counts = np.zeros(2 ** m, dtype=np.int64)
    n_words = max(0, (bits.size - m) // step + 1)
    group = math.lcm(step, 8)
    whole = n_words // (group // step) if m <= 9 else 0
    if whole:
        # a word of the last group can reach into the byte after it
        packed = np.packbits(bits[:whole * group + 8])
        pairs = packed.astype(np.uint16) << 8
        pairs[:-1] |= packed[1:]
        n_bytes = group // 8
        starts_by_byte = {}
        for pos in range(0, group, step):
            starts_by_byte.setdefault(pos // 8, []).append(pos % 8)
        for byte, starts in starts_by_byte.items():
            top = max(starts)
            hist = np.bincount(pairs[byte:whole * n_bytes:n_bytes] >> (16 - top - m),
                               minlength=2 ** (top + m))
            for r in starts:
                counts += hist.reshape(-1, 2 ** m, 2 ** (top - r)).sum(axis=(0, 2))
    rest = bits[whole * group:]
    if rest.size >= m:
        counts += np.bincount(_word_codes(sliding_window_view(rest, m)[::step]),
                              minlength=2 ** m)
    return counts


def monobit(block) -> TestResult:
    """Balance of ones and zeros: v = |sum of +-1| / sqrt(n)."""
    bits = _as_bits(block)
    _require(bits, 100, "monobit")
    n = bits.size
    ones = int(bits.sum(dtype=np.int64))
    v = abs(2 * ones - n) / sqrt(n)
    return TestResult("monobit", {"n": n}, v, erfc_pvalue(v),
                      aux={"ones": ones, "zeros": n - ones})


def serial_frequency(block, m: int) -> TestResult:
    """Multinomial chi-square of non-overlapping m-bit patterns."""
    if m not in (2, 3, 4, 5):
        raise ValueError(f"m must be in 2..5, got {m}")
    bits = _as_bits(block)
    _require(bits, 5 * (2 ** m) * m, f"serial m={m}")
    n_tuples = bits.size // m
    counts = _word_counts(bits, m, m)
    expected = n_tuples / 2 ** m
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    dof = 2 ** m - 1
    return TestResult(f"serial_m{m}", {"m": m, "tuples": n_tuples},
                      chi2, chi2_pvalue(chi2, dof))


def oscillation(block) -> TestResult:
    """Number of kinks V = 1 + #transitions against 2 L rho (1 - rho)."""
    bits = _as_bits(block)
    _require(bits, 100, "oscillation")
    n = bits.size
    ones = int(bits.sum(dtype=np.int64))
    rho = ones / n
    if rho in (0.0, 1.0):
        raise ValueError("degenerate block: all bits equal")
    v_count = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    stat = (v_count - 2.0 * n * rho * (1.0 - rho)) / (2.0 * rho * (1.0 - rho) * sqrt(n))
    return TestResult("oscillation", {"n": n}, stat,
                      erfc_pvalue(abs(stat)), aux={"V": v_count})


def longest_run_of_ones(block) -> TestResult:
    """Longest 1-run classes over 49 sub-blocks of 128 bits."""
    bits = _as_bits(block)
    _require(bits, LONGEST_RUN_BITS, "longest_run")
    subs = bits[:LONGEST_RUN_BITS].reshape(-1, LONGEST_RUN_SUBLEN)
    n_sub = subs.shape[0]
    # the run ending at position pos (1-based) is pos minus its last zero's position
    pos = np.arange(1, LONGEST_RUN_SUBLEN + 1)
    last_zero = np.maximum.accumulate(np.where(subs == 0, pos, 0), axis=1)
    runs = (pos - last_zero).max(axis=1)
    counts = np.bincount(np.clip(runs - 4, 0, 5), minlength=6)
    chi2, p = chi2_test(counts, n_sub * np.asarray(LONGEST_RUN_PROBS), 5)
    return TestResult("longest_run", {"n": LONGEST_RUN_BITS, "M": 128, "K": 5},
                      chi2, p, aux={"counts": counts.tolist()})


def gf2_rank(rows: list[int]) -> int:
    """Rank of a binary matrix given as row bitmasks, by xor elimination."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            other = pivots.get(low)
            if other is None:
                pivots[low] = row
                rank += 1
                break
            row ^= other
    return rank


def _gf2_ranks(rows: np.ndarray, h: int) -> np.ndarray:
    """GF(2) ranks of n h x h matrices given as an (n, h) array of unsigned rows.

    Gaussian elimination on all matrices at once, one step per column c:
    the first row with bit c set becomes that matrix's pivot and is xored
    into every row with bit c set, itself included.  So the pivot row
    becomes zero and is never a candidate again, and after the step no
    row has bit c set.  A matrix with no such row gets a zero xor.
    """
    rows = rows.copy()
    which = np.arange(rows.shape[0])
    ranks = np.zeros(rows.shape[0], dtype=rows.dtype)
    for c in range(h):
        candidates = (rows >> c) & 1
        pivots = rows[which, candidates.argmax(axis=1)]
        rows ^= candidates * pivots[:, None]
        ranks += (pivots >> c) & 1
    return ranks.astype(np.int64)


def matrix_rank_probability(h: int, r: int) -> float:
    """Probability that a random h x h binary matrix has GF(2) rank r."""
    if not 0 <= r <= h:
        raise ValueError(f"rank must be in 0..{h}, got {r}")
    log2_prob = (r * (2 * h - r) - h * h) * math.log(2.0)
    for i in range(r):
        log2_prob += 2.0 * math.log1p(-(2.0 ** (i - h)))
        log2_prob -= math.log1p(-(2.0 ** (i - r)))
    return math.exp(log2_prob)


def matrix_rank_probability_exact(h: int, r: int) -> Fraction:
    """Same probability as an exact rational (for enumeration cross-checks)."""
    prob = Fraction(2) ** (r * (2 * h - r) - h * h)
    for i in range(r):
        prob *= (1 - Fraction(2) ** (i - h)) ** 2
        prob /= 1 - Fraction(2) ** (i - r)
    return prob


def matrix_rank(block) -> TestResult:
    """Rank classes (32, 31, lower) of disjoint 32 x 32 binary matrices."""
    h = MATRIX_H
    bits = _as_bits(block)
    _require(bits, 38 * h * h, "matrix_rank")
    n_mats = bits.size // (h * h)
    mats = bits[:n_mats * h * h].reshape(n_mats, h, h)
    # each row as one little-endian uint32 whose bit j is column j
    rows = np.packbits(mats, axis=2, bitorder="little").view("<u4")[..., 0]
    ranks = np.bincount(_gf2_ranks(rows, h), minlength=h + 1)
    c_full, c_one = int(ranks[h]), int(ranks[h - 1])
    p_full = matrix_rank_probability(h, h)
    p_one = matrix_rank_probability(h, h - 1)
    c_rest = n_mats - c_full - c_one
    chi2, p = chi2_test([c_full, c_one, c_rest],
                        n_mats * np.array([p_full, p_one, 1.0 - p_full - p_one]), 2)
    return TestResult("matrix_rank", {"H": h, "matrices": n_mats}, chi2, p,
                      aux={"full": c_full, "minus_one": c_one, "rest": c_rest})


def spectral_threshold(n: int) -> float:
    return sqrt(log(1.0 / 0.05) * n)


def spectral_dft(block) -> TestResult:
    """Fraction of DFT peaks below the 95% threshold."""
    bits = _as_bits(block)
    _require(bits, 1000, "spectral")
    if bits.size % 2:
        raise ValueError("spectral test needs an even block length")
    n = bits.size
    mods = np.abs(np.fft.rfft(_signs(bits, np.float64))[:n // 2])
    threshold = spectral_threshold(n)
    n0 = 0.95 * n / 2.0
    ne = int(np.count_nonzero(mods < threshold))
    d = (ne - n0) / sqrt(n * 0.95 * 0.05 / 4.0)
    return TestResult("spectral", {"n": n, "threshold": threshold}, d,
                      erfc_pvalue(abs(d)), aux={"below": ne})


def is_aperiodic(template: np.ndarray) -> bool:
    m = template.size
    return all(not np.array_equal(template[s:], template[:m - s])
               for s in range(1, m))


def nonoverlapping_template(block, template, n_sub: int, sub_len: int) -> TestResult:
    """Occurrences of an aperiodic pattern, sliding 1 on miss and m on hit,
    in each of n_sub sub-blocks of sub_len bits."""
    template = _as_bits(template)
    if template.size == 0:
        raise ValueError("template must hold at least one bit")
    if not is_aperiodic(template):
        raise ValueError("template is periodic; test requires an aperiodic pattern")
    bits = _as_bits(block)
    m = template.size
    if sub_len <= m:
        raise ValueError(f"sub-block length {sub_len} must exceed template size {m}")
    _require(bits, n_sub * sub_len, "template")
    # an aperiodic template has no border, so its occurrences never overlap
    # and sliding m on a hit skips no other hit: W_j counts matching windows
    windows = sliding_window_view(bits[:n_sub * sub_len].reshape(n_sub, sub_len), m, axis=1)
    w = np.count_nonzero(_word_codes(windows) == _word_codes(template), axis=1)
    mean = (sub_len - m + 1) / 2.0 ** m
    var = sub_len * (2.0 ** -m - (2 * m - 1) * 2.0 ** (-2 * m))
    chi2 = float(np.sum((w - mean) ** 2 / var))
    return TestResult("template", {"m": m, "N": n_sub, "L": sub_len,
                                   "B": "".join(map(str, template.tolist()))},
                      chi2, chi2_pvalue(chi2, n_sub),
                      aux={"W": w.tolist(), "mean": mean, "var": var})


def maurer_statistic(block, m_bits: int, q_init: int, k_test: int) -> tuple[float, list[int]]:
    """Average log2 gap between repeats of m-bit words; returns (f, table).

    The table holds the last-occurrence block index per word value after
    the full pass (0 = never seen).
    """
    # the table has 2^m_bits entries
    if not 1 <= m_bits <= 16 or q_init < 0 or k_test < 1:
        raise ValueError(f"need 1 <= m_bits <= 16, q_init >= 0 and k_test >= 1, "
                         f"got {m_bits}, {q_init}, {k_test}")
    bits = _as_bits(block)
    n_blocks = q_init + k_test
    _require(bits, m_bits * n_blocks, "maurer")
    vals = _word_codes(bits[:n_blocks * m_bits].reshape(n_blocks, m_bits))
    # a stable sort lists each value's block indices in increasing order
    order = np.argsort(vals, kind="stable")
    edges = np.searchsorted(vals[order], np.arange(2 ** m_bits + 1))
    total = 0.0
    table = [0] * (2 ** m_bits)
    for v in range(2 ** m_bits):
        pos = order[edges[v]:edges[v + 1]] + 1  # 1-based block indices
        if pos.size == 0:
            continue
        split = int(np.searchsorted(pos, q_init, side="right"))
        table[v] = int(pos[-1])
        if split == pos.size:
            continue
        prev = int(pos[split - 1]) if split else 0
        seq = np.concatenate([[prev], pos[split:]])
        total += float(np.log2(np.diff(seq)).sum())
    return total / k_test, table


def maurer_universal(block) -> TestResult:
    """Compressibility statistic at the standard (M, Q, K) working point."""
    f_n, _ = maurer_statistic(block, MAURER_M, MAURER_Q, MAURER_K)
    stat = abs(f_n - MAURER_MEAN) / (sqrt(2.0) * MAURER_SIGMA)
    return TestResult("maurer", {"M": MAURER_M, "Q": MAURER_Q, "K": MAURER_K},
                      f_n, erfc(stat))


def _phi(counts: np.ndarray, n: int) -> float:
    pi = counts[counts > 0] / n
    return float(np.sum(pi * np.log(pi)))


def entropy_phi(block, m: int) -> float:
    """Sum of pi log pi over overlapping m-bit patterns (wrap-around)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    bits = _as_bits(block)
    _require(bits, m, f"entropy_phi m={m}")
    return _phi(_word_counts(np.concatenate([bits, bits[:m - 1]]), m, 1), bits.size)


def approximate_entropy(block) -> TestResult:
    """Entropy gap of overlapping 4- vs 5-bit pattern frequencies (m = 4)."""
    m = ENTROPY_M
    bits = _as_bits(block)
    _require(bits, 2 ** (m + 5), f"entropy m={m}")
    n = bits.size
    # the m-bit code at each position is its (m+1)-bit code shifted right by
    # one, so the m-bit counts are the (m+1)-bit counts summed in pairs
    counts_m1 = _word_counts(np.concatenate([bits, bits[:m]]), m + 1, 1)
    phi_m = _phi(counts_m1.reshape(-1, 2).sum(axis=1), n)
    phi_m1 = _phi(counts_m1, n)
    chi2 = 2.0 * n * (log(2.0) - (phi_m - phi_m1))
    return TestResult("entropy", {"m": m, "n": n}, chi2,
                      chi2_pvalue(chi2, 2 ** m),
                      aux={"phi_m": phi_m, "phi_m1": phi_m1,
                           "apen": phi_m - phi_m1})


def cusum_reference_cdf(z: float) -> float:
    """Limit law G(z) of the scaled maximum absolute partial sum."""
    if z <= 0.0:
        return 0.0
    def phi(x):
        return 0.5 * (1.0 + erf(x / sqrt(2.0)))
    total = phi(z) - phi(-z)
    k = 1
    while True:
        term = 2.0 * (phi((2 * k + 1) * z) - phi((2 * k - 1) * z))
        total += term if k % 2 == 0 else -term
        if abs(term) < _CUSUM_SERIES_TOL:
            break
        k += 1
    return min(1.0, max(0.0, total))


def cumulative_sums(block) -> TestResult:
    """Maximal absolute excursion of the partial-sum walk."""
    bits = _as_bits(block)
    _require(bits, 100, "cumsum")
    n = bits.size
    walk = _walk(bits)
    t = max(int(walk.max()), -int(walk.min()))
    z = t / sqrt(n)
    return TestResult("cumsum", {"n": n}, z,
                      1.0 - cusum_reference_cdf(z),
                      aux={"max_excursion": t})


def excursion_state_probs(x: int) -> np.ndarray:
    """Visit-count distribution (0..4, >=5) of state x per excursion cycle."""
    ax = abs(x)
    if ax < 1:
        raise ValueError("state must be non-zero")
    p0 = 1.0 - 1.0 / (2.0 * ax)
    probs = [p0]
    for k in range(1, 5):
        probs.append(1.0 / (4.0 * x * x) * p0 ** (k - 1))
    probs.append(1.0 / (2.0 * ax) * p0 ** 4)
    return np.asarray(probs)


def random_excursions(block) -> list[TestResult]:
    """Visit-count tests of the walk states +-1..+-4 over zero-crossing cycles."""
    bits = _as_bits(block)
    _require(bits, 1000, "excursions")
    walk = _walk(bits)
    zeros = np.flatnonzero(walk == 0)
    # cycles end at each zero of the walk and, if it ends off zero, at its end
    j = zeros.size + int(walk[-1] != 0)
    if j < EXCURSION_MIN_CYCLES:
        return [TestResult(f"excursions[{x:+d}]", {"J": j}, None, None,
                           skipped="insufficient cycles")
                for x in EXCURSION_STATES]
    near = np.flatnonzero((np.abs(walk) <= 4) & (walk != 0))
    cycle = np.searchsorted(zeros, near)  # int64: the zeros before each visit
    visits = np.bincount(9 * cycle + (walk[near] + 4), minlength=9 * j).reshape(j, 9)
    results = []
    for x in EXCURSION_STATES:
        nu = np.bincount(np.minimum(visits[:, x + 4], 5), minlength=6)
        chi2, p = chi2_test(nu, j * excursion_state_probs(x), 5)
        results.append(TestResult(f"excursions[{x:+d}]", {"state": x, "J": j},
                                  chi2, p, aux={"nu": nu.tolist()}))
    return results


def cross_correlation_random(block, rng_or_seed) -> TestResult:
    """Dot product with a seeded fair +-1 sequence, scaled by sqrt(n)."""
    bits = _as_bits(block)
    _require(bits, 100, "cross_correlation")
    rng = np.random.default_rng(rng_or_seed)
    n = bits.size
    ref = rng.integers(0, 2, size=n, dtype=np.int8).view(np.uint8)
    # each agreeing position adds 1 to the +-1 dot product, each other one -1
    dot = n - 2 * int(np.count_nonzero(bits != ref))
    stat = abs(dot) / sqrt(n)
    return TestResult("cross_correlation", {"n": n}, stat,
                      erfc_pvalue(stat), aux={"dot": dot})


# -----------------------------------------------------------------------------
# Battery orchestration

# name -> runner(bits, seed, block_index) returning the test's rows; a
# block below the test's minimum length raises ShortBlock.  Runners look
# each test function up when called, so a test rebound on this module (by
# a profiler, say) is the one that runs.
TESTS = {
    "monobit": lambda b, s, i: [monobit(b)],
    **{f"serial_m{m}": lambda b, s, i, m=m: [serial_frequency(b, m)] for m in (2, 3, 4, 5)},
    "oscillation": lambda b, s, i: [oscillation(b)],
    "longest_run": lambda b, s, i: [longest_run_of_ones(b)],
    "matrix_rank": lambda b, s, i: [matrix_rank(b)],
    "spectral": lambda b, s, i: [spectral_dft(b[:b.size - b.size % 2])],
    "template": lambda b, s, i: [nonoverlapping_template(b, DEFAULT_TEMPLATE, 80, 1024)],
    "maurer": lambda b, s, i: [maurer_universal(b)],
    "entropy": lambda b, s, i: [approximate_entropy(b)],
    "cumsum": lambda b, s, i: [cumulative_sums(b)],
    "excursions": lambda b, s, i: random_excursions(b),
    # namespaced substream so reference bits never collide with
    # generator streams keyed by the same (seed, index)
    "cross_correlation": lambda b, s, i: [
        cross_correlation_random(b, np.random.default_rng((s, i, 2)))],
}

DEFAULT_SELECTION = tuple(TESTS)


@dataclass
class BatteryReport:
    alpha: float
    block_results: list = field(default_factory=list)  # (start, len, TestResult)
    proportions: dict = field(default_factory=dict)
    uniformity: dict = field(default_factory=dict)

    def aggregate(self) -> None:
        grouped: dict[str, list[float]] = {}
        for _, _, res in self.block_results:
            if res.skipped is None:
                grouped.setdefault(res.test_name, []).append(res.p_value)
        for name, pvals in grouped.items():
            self.proportions[name] = proportion_check(pvals, self.alpha)
            self.uniformity[name] = (pvalue_uniformity(pvals)
                                     if len(pvals) >= UNIFORMITY_MIN_SIZE else None)

    @property
    def all_proportions_inside(self) -> bool:
        return all(rep.all_inside for rep in self.proportions.values())

    def write_jsonl(self, fh) -> None:
        for start, length, res in self.block_results:
            row = {"test": res.test_name, "params": res.params,
                   "block_start": start, "block_len": length}
            if res.skipped is not None:
                row["skipped"] = res.skipped
            else:
                row.update(statistic=res.statistic, p_value=res.p_value,
                           **{"pass": passes(res.p_value, self.alpha)})
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        summary = {}
        for name, prop in sorted(self.proportions.items()):
            uni = self.uniformity.get(name)
            summary[name] = {
                "count": prop.n,
                "proportion": prop.proportion,
                "interval": [prop.interval.lo, prop.interval.hi],
                "inside": prop.all_inside,
                "uniformity_pbar": None if uni is None else uni.pbar,
                "uniform": None if uni is None else uni.uniform,
            }
        fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")


def run_battery_on_blocks(blocks, selection=DEFAULT_SELECTION, seed: int = 0,
                          alpha: float = DEFAULT_ALPHA,
                          workers: int = 1) -> BatteryReport:
    """Apply the selected tests to (start, bits) blocks and aggregate.

    Tests whose minimum length exceeds a block are recorded as skipped.
    Results are deterministic for fixed seed regardless of worker count.
    Blocks are drawn as needed, about two per worker in flight.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    selection = list(selection)
    if not selection:
        raise ValueError("empty test selection")
    for name in selection:
        if name not in TESTS:
            raise ValueError(f"unknown test {name!r}")
        # a repeat would count each block twice in the pass proportion
        if selection.count(name) > 1:
            raise ValueError(f"test {name!r} selected twice")

    def run_one(item):
        idx, (start, bits) = item
        bits = _as_bits(bits)
        out = []
        for name in selection:
            try:
                results = TESTS[name](bits, seed, idx)
            except ShortBlock:
                results = [TestResult(name, {}, None, None, skipped="insufficient length")]
            out.extend((start, bits.size, res) for res in results)
        return out

    report, pending = BatteryReport(alpha=alpha), deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for item in enumerate(blocks):
            if len(pending) == 2 * workers:
                report.block_results.extend(pending.popleft().result())
            pending.append(pool.submit(run_one, item))
        for future in pending:
            report.block_results.extend(future.result())
    report.aggregate()
    return report


def blocks_from_ensemble(ens: Ensemble, seq: BitSequence):
    for start in ens.starts.tolist():
        yield start, seq.slice_bits(start, ens.block_length)


def run_battery(ens: Ensemble, seq: BitSequence, selection=DEFAULT_SELECTION,
                seed: int = 0, alpha: float = DEFAULT_ALPHA,
                workers: int = 1) -> BatteryReport:
    return run_battery_on_blocks(blocks_from_ensemble(ens, seq), selection,
                                 seed, alpha, workers)


def fair_coin_blocks(seed: int, n_blocks: int, block_len: int):
    """Reference blocks from per-block substreams of a seeded fair coin."""
    for i in range(n_blocks):
        rng = np.random.default_rng((seed, i, 1))
        yield i * block_len, rng.integers(0, 2, size=block_len, dtype=np.uint8)
