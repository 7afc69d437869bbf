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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import erf, erfc, log, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mertens import Ensemble
from .seqgen import BitSequence
from .statcore import (DEFAULT_ALPHA, UNIFORMITY_MIN_SIZE, PValue, chi2_pvalue,
                       chi2_test, erfc_pvalue, proportion_check,
                       pvalue_uniformity)

LONGEST_RUN_BITS = 6272
LONGEST_RUN_SUBLEN = 128
LONGEST_RUN_PROBS = (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)

MAURER_M = 6
MAURER_Q = 640
MAURER_K = 233227
MAURER_MEAN = 5.2177052
MAURER_SIGMA = 0.0020213

DEFAULT_TEMPLATE = np.array([0, 0, 1, 0, 1, 1, 0, 1], dtype=np.uint8)

EXCURSION_STATES = (-4, -3, -2, -1, 1, 2, 3, 4)
EXCURSION_MIN_CYCLES = 800


@dataclass(frozen=True)
class TestResult:
    test_name: str
    params: dict
    statistic: float | None
    p_value: PValue | None
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


def _mu(bits: np.ndarray) -> np.ndarray:
    return 2 * bits.astype(np.int64) - 1


def _require(bits: np.ndarray, n_min: int, test: str) -> None:
    if bits.size < n_min:
        raise ValueError(f"{test} needs at least {n_min} bits, got {bits.size}")


def _word_codes(bits: np.ndarray, m: int, n_words: int) -> np.ndarray:
    """Values of the first n_words non-overlapping m-bit words, first bit high."""
    words = bits[:n_words * m].reshape(n_words, m)
    return words.dot(1 << np.arange(m - 1, -1, -1, dtype=np.int64))


def monobit(block, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Balance of ones and zeros: v = |sum of +-1| / sqrt(n)."""
    bits = _as_bits(block)
    _require(bits, 100, "monobit")
    n = bits.size
    s = 2 * int(bits.sum(dtype=np.int64)) - n
    v = abs(s) / sqrt(n)
    return TestResult("monobit", {"n": n}, v, erfc_pvalue(v, alpha),
                      aux={"ones": int(bits.sum()), "zeros": n - int(bits.sum())})


def serial_frequency(block, m: int, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Multinomial chi-square of non-overlapping m-bit patterns."""
    if m not in (2, 3, 4, 5):
        raise ValueError(f"m must be in 2..5, got {m}")
    bits = _as_bits(block)
    _require(bits, 5 * (2 ** m) * m, f"serial m={m}")
    n_tuples = bits.size // m
    counts = np.bincount(_word_codes(bits, m, n_tuples), minlength=2 ** m)
    expected = n_tuples / 2 ** m
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    dof = 2 ** m - 1
    return TestResult(f"serial_m{m}", {"m": m, "tuples": n_tuples},
                      chi2, chi2_pvalue(chi2, dof, alpha))


def oscillation(block, alpha: float = DEFAULT_ALPHA) -> TestResult:
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
                      erfc_pvalue(abs(stat), alpha), aux={"V": v_count})


def _longest_one_run(bits: np.ndarray) -> int:
    padded = np.concatenate([[0], bits, [0]]).astype(np.int8)
    d = np.diff(padded)
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    return int((ends - starts).max()) if starts.size else 0


def longest_run_of_ones(block, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Longest 1-run classes over 49 sub-blocks of 128 bits."""
    bits = _as_bits(block)
    _require(bits, LONGEST_RUN_BITS, "longest_run")
    bits = bits[:LONGEST_RUN_BITS]
    n_sub = LONGEST_RUN_BITS // LONGEST_RUN_SUBLEN
    counts = np.zeros(6, dtype=np.int64)
    for j in range(n_sub):
        run = _longest_one_run(bits[j * 128:(j + 1) * 128])
        counts[min(max(run - 4, 0), 5)] += 1
    chi2, p = chi2_test(counts, n_sub * np.asarray(LONGEST_RUN_PROBS), 5, alpha)
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


def matrix_rank(block, h: int = 32, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Rank classes (h, h-1, lower) of disjoint h x h binary matrices."""
    if not 1 <= h <= 64:
        raise ValueError(f"h must lie in 1..64 (rows are packed into uint64), got {h}")
    bits = _as_bits(block)
    _require(bits, 38 * h * h, f"matrix_rank h={h}")
    n_mats = bits.size // (h * h)
    mats = bits[:n_mats * h * h].reshape(n_mats, h, h)
    packed = np.packbits(mats, axis=2, bitorder="little")
    # each row as one little-endian uint64 whose bit j is column j
    padded = np.pad(packed, ((0, 0), (0, 0), (0, 8 - packed.shape[2])))
    rows_int = padded.view("<u8")[..., 0]
    ranks = [gf2_rank(rows) for rows in rows_int.tolist()]
    c_full, c_one = ranks.count(h), ranks.count(h - 1)
    p_full = matrix_rank_probability(h, h)
    p_one = matrix_rank_probability(h, h - 1)
    c_rest = n_mats - c_full - c_one
    chi2, p = chi2_test([c_full, c_one, c_rest],
                        n_mats * np.array([p_full, p_one, 1.0 - p_full - p_one]), 2, alpha)
    return TestResult("matrix_rank", {"H": h, "matrices": n_mats}, chi2, p,
                      aux={"full": c_full, "minus_one": c_one, "rest": c_rest})


def spectral_threshold(n: int) -> float:
    return sqrt(log(1.0 / 0.05) * n)


def spectral_dft(block, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Fraction of DFT peaks below the 95% threshold."""
    bits = _as_bits(block)
    _require(bits, 1000, "spectral")
    if bits.size % 2:
        raise ValueError("spectral test needs an even block length")
    n = bits.size
    mods = np.abs(np.fft.rfft(_mu(bits).astype(np.float64)))[:n // 2]
    threshold = spectral_threshold(n)
    n0 = 0.95 * n / 2.0
    ne = int(np.count_nonzero(mods < threshold))
    d = (ne - n0) / sqrt(n * 0.95 * 0.05 / 4.0)
    return TestResult("spectral", {"n": n, "threshold": threshold}, d,
                      erfc_pvalue(abs(d), alpha), aux={"below": ne})


def is_aperiodic(template: np.ndarray) -> bool:
    m = template.size
    return all(not np.array_equal(template[s:], template[:m - s])
               for s in range(1, m))


def nonoverlapping_template(block, template=DEFAULT_TEMPLATE, n_sub: int = 80,
                            sub_len: int = 80, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Occurrences of an aperiodic pattern, sliding 1 on miss and m on hit."""
    template = _as_bits(template)
    if not is_aperiodic(template):
        raise ValueError("template is periodic; test requires an aperiodic pattern")
    bits = _as_bits(block)
    m = template.size
    if sub_len <= m:
        raise ValueError(f"sub-block length {sub_len} must exceed template size {m}")
    _require(bits, n_sub * sub_len, "template")
    w = np.empty(n_sub, dtype=np.int64)
    for j in range(n_sub):
        sub = bits[j * sub_len:(j + 1) * sub_len]
        windows = sliding_window_view(sub, m)
        hits = np.flatnonzero((windows == template).all(axis=1))
        count = 0
        cursor = -1
        for h in hits:
            if h >= cursor:
                count += 1
                cursor = h + m
        w[j] = count
    mean = (sub_len - m + 1) / 2.0 ** m
    var = sub_len * (2.0 ** -m - (2 * m - 1) * 2.0 ** (-2 * m))
    chi2 = float(np.sum((w - mean) ** 2 / var))
    return TestResult("template", {"m": m, "N": n_sub, "L": sub_len,
                                   "B": "".join(map(str, template.tolist()))},
                      chi2, chi2_pvalue(chi2, n_sub, alpha),
                      aux={"W": w.tolist(), "mean": mean, "var": var})


def maurer_statistic(block, m_bits: int, q_init: int, k_test: int) -> tuple[float, list[int]]:
    """Average log2 gap between repeats of m-bit words; returns (f, table).

    The table holds the last-occurrence block index per word value after
    the full pass (0 = never seen).
    """
    bits = _as_bits(block)
    n_blocks = q_init + k_test
    _require(bits, m_bits * n_blocks, "maurer")
    vals = _word_codes(bits, m_bits, n_blocks)
    total = 0.0
    table = [0] * (2 ** m_bits)
    for v in range(2 ** m_bits):
        pos = np.flatnonzero(vals == v) + 1  # 1-based block indices
        if pos.size == 0:
            continue
        init = pos[pos <= q_init]
        test = pos[pos > q_init]
        table[v] = int(pos[-1])
        if test.size == 0:
            continue
        prev = int(init[-1]) if init.size else 0
        seq = np.concatenate([[prev], test])
        total += float(np.log2(np.diff(seq)).sum())
    return total / k_test, table


def maurer_universal(block, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Compressibility statistic at the standard (M, Q, K) working point."""
    f_n, _ = maurer_statistic(block, MAURER_M, MAURER_Q, MAURER_K)
    stat = abs(f_n - MAURER_MEAN) / (sqrt(2.0) * MAURER_SIGMA)
    p = PValue(erfc(stat), alpha)
    return TestResult("maurer", {"M": MAURER_M, "Q": MAURER_Q, "K": MAURER_K},
                      f_n, p)


def entropy_phi(block, m: int) -> float:
    """Sum of pi log pi over overlapping m-bit patterns (wrap-around)."""
    bits = _as_bits(block)
    n = bits.size
    ext = np.concatenate([bits, bits[:m - 1]]) if m > 1 else bits
    vals = np.zeros(n, dtype=np.int64)
    for j in range(m):
        vals = 2 * vals + ext[j:j + n]
    counts = np.bincount(vals, minlength=2 ** m)
    pi = counts[counts > 0] / n
    return float(np.sum(pi * np.log(pi)))


def approximate_entropy(block, m: int = 4, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Entropy gap of overlapping m- vs (m+1)-bit pattern frequencies."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    bits = _as_bits(block)
    _require(bits, 2 ** (m + 5), f"entropy m={m}")
    n = bits.size
    phi_m = entropy_phi(bits, m)
    phi_m1 = entropy_phi(bits, m + 1)
    chi2 = 2.0 * n * (log(2.0) - (phi_m - phi_m1))
    return TestResult("entropy", {"m": m, "n": n}, chi2,
                      chi2_pvalue(chi2, 2 ** m, alpha),
                      aux={"phi_m": phi_m, "phi_m1": phi_m1,
                           "apen": phi_m - phi_m1})


def cusum_reference_cdf(z: float, tol: float = 1e-12) -> float:
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
        if abs(term) < tol:
            break
        k += 1
    return min(1.0, max(0.0, total))


def cusum_reference_asymptote(z: float) -> float:
    return 1.0 - 4.0 / (sqrt(2.0 * math.pi) * z) * math.exp(-z * z / 2.0)


def cumulative_sums(block, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Maximal absolute excursion of the partial-sum walk."""
    bits = _as_bits(block)
    _require(bits, 100, "cumsum")
    n = bits.size
    t = int(np.abs(np.cumsum(_mu(bits))).max())
    z = t / sqrt(n)
    return TestResult("cumsum", {"n": n}, z,
                      PValue(1.0 - cusum_reference_cdf(z), alpha),
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


def excursion_cycle_counts(walk_with_zeros: np.ndarray, state: int) -> np.ndarray:
    """nu_k (k = 0..5) for one state given the zero-padded walk."""
    boundaries = np.flatnonzero(walk_with_zeros == 0)
    j = boundaries.size - 1
    hits = np.flatnonzero(walk_with_zeros == state)
    cycle_of_hit = np.searchsorted(boundaries, hits, side="right") - 1
    per_cycle = np.bincount(cycle_of_hit, minlength=j)
    return np.bincount(np.clip(per_cycle, 0, 5), minlength=6)[:6]


def random_excursions(block, alpha: float = DEFAULT_ALPHA) -> list[TestResult]:
    """Visit-count tests of the walk states +-1..+-4 over zero-crossing cycles."""
    bits = _as_bits(block)
    walk = np.cumsum(_mu(bits))
    padded = np.concatenate([[0], walk, [0]] if walk[-1] != 0 else [[0], walk])
    j = int(np.count_nonzero(padded[1:] == 0))
    if j < EXCURSION_MIN_CYCLES:
        return [TestResult(f"excursions[{x:+d}]", {"J": j}, None, None,
                           skipped="insufficient cycles")
                for x in EXCURSION_STATES]
    results = []
    for x in EXCURSION_STATES:
        nu = excursion_cycle_counts(padded, x)
        chi2, p = chi2_test(nu, j * excursion_state_probs(x), 5, alpha)
        results.append(TestResult(f"excursions[{x:+d}]", {"state": x, "J": j},
                                  chi2, p, aux={"nu": nu.tolist()}))
    return results


def cross_correlation_random(block, rng_or_seed, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Dot product with a seeded fair +-1 sequence, scaled by sqrt(n)."""
    bits = _as_bits(block)
    rng = (rng_or_seed if isinstance(rng_or_seed, np.random.Generator)
           else np.random.default_rng(rng_or_seed))
    n = bits.size
    r = rng.integers(0, 2, size=n, dtype=np.int8).astype(np.int64) * 2 - 1
    dot = int(np.dot(_mu(bits), r))
    stat = abs(dot) / sqrt(n)
    return TestResult("cross_correlation", {"n": n}, stat,
                      erfc_pvalue(stat, alpha), aux={"dot": dot})


def autocorrelation(blocks, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean-centered autocorrelation averaged over blocks; F(0) = 1."""
    acc = None
    count = 0
    for block in blocks:
        a = _mu(_as_bits(block)).astype(np.float64)
        t = a.size
        if t < 10 * max_lag:
            raise ValueError(f"block length {t} must be >= 10 * max_lag")
        c = a - a.mean()
        denom = float(np.dot(c, c))
        nfft = 1 << int(np.ceil(np.log2(2 * t)))
        full = np.fft.irfft(np.abs(np.fft.rfft(c, nfft)) ** 2)[:max_lag + 1]
        gamma = full / denom
        acc = gamma if acc is None else acc + gamma
        count += 1
    if count == 0:
        raise ValueError("no blocks supplied")
    return np.arange(max_lag + 1), acc / count


def correlation_dft(f_series: np.ndarray) -> np.ndarray:
    """Modulus of the DFT of the averaged correlation function."""
    return np.abs(np.fft.fft(np.asarray(f_series, dtype=np.float64)))


# -----------------------------------------------------------------------------
# Battery orchestration

# name -> (minimum block length, runner(bits, alpha, seed, block_index)).
# Runners look each test function up when called, so a test rebound on
# this module (by a profiler, say) is the one that runs.
TESTS = {
    "monobit": (100, lambda b, a, s, i: [monobit(b, a)]),
    **{f"serial_m{m}": (5 * (2 ** m) * m,
                        lambda b, a, s, i, m=m: [serial_frequency(b, m, a)])
       for m in (2, 3, 4, 5)},
    "oscillation": (100, lambda b, a, s, i: [oscillation(b, a)]),
    "longest_run": (LONGEST_RUN_BITS, lambda b, a, s, i: [longest_run_of_ones(b, a)]),
    "matrix_rank": (38 * 32 * 32, lambda b, a, s, i: [matrix_rank(b, 32, a)]),
    "spectral": (1000, lambda b, a, s, i: [spectral_dft(b[:b.size - b.size % 2], a)]),
    "template": (80 * 1024, lambda b, a, s, i: [
        nonoverlapping_template(b, DEFAULT_TEMPLATE, 80, 1024, a)]),
    "maurer": (MAURER_M * (MAURER_Q + MAURER_K),
               lambda b, a, s, i: [maurer_universal(b, a)]),
    "entropy": (2 ** (4 + 5), lambda b, a, s, i: [approximate_entropy(b, 4, a)]),
    "cumsum": (100, lambda b, a, s, i: [cumulative_sums(b, a)]),
    "excursions": (1000, lambda b, a, s, i: random_excursions(b, a)),
    # namespaced substream so reference bits never collide with
    # generator streams keyed by the same (seed, index)
    "cross_correlation": (100, lambda b, a, s, i: [
        cross_correlation_random(b, np.random.default_rng((s, i, 2)), a)]),
}

DEFAULT_SELECTION = tuple(TESTS)


@dataclass
class BatteryReport:
    alpha: float
    block_results: list = field(default_factory=list)  # (start, len, TestResult)
    proportions: dict = field(default_factory=dict)
    uniformity: dict = field(default_factory=dict)

    def per_test(self) -> dict:
        grouped: dict[str, list[TestResult]] = {}
        for _, _, res in self.block_results:
            if res.skipped is None:
                grouped.setdefault(res.test_name, []).append(res)
        return grouped

    def aggregate(self) -> None:
        for name, results in self.per_test().items():
            pvals = [res.p_value.value for res in results]
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
                row.update(statistic=res.statistic, p_value=res.p_value.value,
                           **{"pass": res.p_value.passed})
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
                          workers: int | None = None) -> BatteryReport:
    """Apply the selected tests to (start, bits) blocks and aggregate.

    Tests whose minimum length exceeds a block are recorded as skipped.
    Results are deterministic for fixed seed regardless of worker count.
    """
    blocks = list(blocks)
    selection = list(selection)
    if not selection:
        raise ValueError("empty test selection")
    for name in selection:
        if name not in TESTS:
            raise ValueError(f"unknown test {name!r}")

    def run_one(item):
        idx, (start, bits) = item
        bits = _as_bits(bits)
        out = []
        for name in selection:
            if bits.size < TESTS[name][0]:
                out.append((start, bits.size, TestResult(
                    name, {}, None, None, skipped="insufficient length")))
                continue
            for res in TESTS[name][1](bits, alpha, seed, idx):
                out.append((start, bits.size, res))
        return out

    report = BatteryReport(alpha=alpha)
    with ThreadPoolExecutor(max_workers=max(1, workers or 1)) as pool:
        for chunk in pool.map(run_one, enumerate(blocks)):
            report.block_results.extend(chunk)
    report.aggregate()
    return report


def blocks_from_ensemble(ens: Ensemble, seq: BitSequence):
    for spec in ens.blocks():
        yield spec.start_ordinal, seq.slice_bits(spec.start_ordinal, spec.length)


def run_battery(ens: Ensemble, seq: BitSequence, selection=DEFAULT_SELECTION,
                seed: int = 0, alpha: float = DEFAULT_ALPHA,
                workers: int | None = None) -> BatteryReport:
    return run_battery_on_blocks(blocks_from_ensemble(ens, seq), selection,
                                 seed, alpha, workers)


def fair_coin_blocks(seed: int, n_blocks: int, block_len: int):
    """Reference blocks from per-block substreams of a seeded fair coin."""
    for i in range(n_blocks):
        rng = np.random.default_rng((seed, i, 1))
        yield i * block_len, rng.integers(0, 2, size=block_len, dtype=np.uint8)
