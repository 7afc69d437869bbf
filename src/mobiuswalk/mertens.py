"""Restricted Mertens function, block-variable ensembles, and diagnostics.

The single deterministic sequence is turned into a statistical ensemble by
cutting many disjoint, well separated blocks of equal length; the block
sums play the role of independent copies of the walk displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .seqgen import BitSequence, iter_mobius, nth_squarefree


@dataclass(frozen=True)
class BlockSpec:
    start_ordinal: int
    length: int


@dataclass(frozen=True)
class GapPolicy:
    kind: str  # "fixed" or "random"
    value: int  # gap H for fixed, mean gap D for random

    def __post_init__(self):
        if self.kind not in ("fixed", "random"):
            raise ValueError(f"unknown gap policy {self.kind!r}")
        if self.value < 0:
            raise ValueError(f"gap parameter must be >= 0, got {self.value}")


@dataclass(frozen=True)
class Ensemble:
    bounds: tuple
    block_length: int
    starts: np.ndarray
    policy: GapPolicy
    seed: int | None

    @property
    def n_blocks(self) -> int:
        return int(self.starts.size)

    @property
    def end(self) -> int:
        return int(self.starts[-1]) + self.block_length

    def blocks(self) -> Iterator[BlockSpec]:
        for s in self.starts:
            yield BlockSpec(int(s), self.block_length)


def build_ensemble(l1: int, l2: int, n_blocks: int, block_len: int,
                   policy: GapPolicy, seed: int | None = None) -> Ensemble:
    """Place n_blocks disjoint blocks of block_len inside [l1, l2).

    Fixed policy spaces them by a constant gap; random policy draws gap i
    from a substream keyed by (seed, i), uniform on [D/2, 3D/2], so the
    layout is reproducible regardless of who computes which block.
    """
    if l1 < 1 or l2 <= l1:
        raise ValueError(f"need 1 <= l1 < l2, got [{l1}, {l2})")
    if n_blocks < 1 or block_len < 1:
        raise ValueError("n_blocks and block_len must be >= 1")
    if n_blocks * block_len > l2 - l1:
        raise ValueError(
            f"{n_blocks} blocks of {block_len} cannot fit in [{l1}, {l2})")
    if policy.kind == "fixed":
        gaps = np.full(n_blocks - 1, policy.value, dtype=np.int64)
    else:
        if seed is None:
            raise ValueError("random gap policy requires a seed")
        d = policy.value
        lo, hi = d // 2, (3 * d) // 2
        gaps = np.array(
            [np.random.default_rng((seed, i)).integers(lo, hi + 1)
             for i in range(n_blocks - 1)],
            dtype=np.int64)
    starts = l1 + np.concatenate([[0], np.cumsum(gaps + block_len)])
    if starts[-1] + block_len > l2:
        raise ValueError(
            f"packing infeasible: last block ends at {int(starts[-1]) + block_len}, "
            f"beyond bound {l2}")
    return Ensemble((l1, l2), block_len, starts.astype(np.int64), policy, seed)


def block_variable(spec: BlockSpec, seq: BitSequence) -> int:
    """Sum of the +-1 values over one block: 2 * popcount - length."""
    bits = seq.slice_bits(spec.start_ordinal, spec.length)
    return 2 * int(bits.sum(dtype=np.int64)) - spec.length


def block_sums(ens: Ensemble, seq: BitSequence) -> np.ndarray:
    out = np.empty(ens.n_blocks, dtype=np.int64)
    L = ens.block_length
    for i, s in enumerate(ens.starts):
        bits = seq.slice_bits(int(s), L)
        out[i] = 2 * int(bits.sum(dtype=np.int64)) - L
    return out


def mertens_function(x: int) -> int:
    """M(x): the exact sum of mu(m) over m <= x, in O(x^(2/3)) time.

    mu is sieved to u ~ x^(2/3) into prefix sums.  Each quotient v = x // k
    above u then takes M(v) = 1 - sum_{d>=2} M(v // d): the quotients above
    sqrt(v) one d at a time (v // d = x // (k d) is again a quotient, or at
    most u), the rest t <= sqrt(v) grouped by the v // t - v // (t + 1)
    values of d that share them.  Larger k come first.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    u = min(x, max(math.isqrt(x), int(x ** (2 / 3))))
    small = np.empty(u + 1, dtype=np.int32)  # small[v] = M(v); |M(v)| << 2^31
    small[0] = 0
    for lo, hi, mu in iter_mobius(1, u + 1):
        small[lo:hi] = small[lo - 1] + np.cumsum(mu, dtype=np.int32)
    big = x // (u + 1)  # x // k > u exactly for k <= big
    large = np.zeros(big + 1, dtype=np.int64)  # large[k] = M(x // k)
    for k in range(big, 0, -1):
        v = x // k
        s = math.isqrt(v)
        t = np.arange(1, s + 2, dtype=np.int64)
        grouped = int(np.diff(-(v // t)) @ small[1:s + 1])
        kd = k * np.arange(2, v // (s + 1) + 1, dtype=np.int64)
        inner = kd <= big
        large[k] = (1 - grouped - int(large[kd[inner]].sum())
                    - int(small[x // kd[~inner]].sum()))
    return int(large[1]) if big else int(small[x])


def mertens_restricted(n: int) -> int:
    """M-hat(n): sum of the restricted +-1 coefficients up to ordinal n,
    which is M(sqf_n), since mu vanishes between square-free numbers."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return mertens_function(nth_squarefree(n))


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class MomentReport:
    L: int
    n_blocks: int
    moments: dict
    reference: dict
    z_mean: float
    z_variance: float
    z_fourth: float


def moment_estimates(ens: Ensemble, seq: BitSequence, max_order: int = 4) -> MomentReport:
    """Sample moments of the block variables against random-walk references.

    Even-order references are L^(k/2) (k-1)!!; odd references vanish.
    """
    if not 1 <= max_order <= 8:
        raise ValueError(f"max_order must be in 1..8, got {max_order}")
    b = block_sums(ens, seq).astype(np.float64)
    L = float(ens.block_length)
    moments = {k: float(np.mean(b ** k)) for k in range(1, max_order + 1)}
    reference = {k: (0.0 if k % 2 else L ** (k / 2) * _double_factorial(k - 1))
                 for k in range(1, max_order + 1)}
    z = b / math.sqrt(L)
    return MomentReport(ens.block_length, ens.n_blocks, moments, reference,
                        float(z.mean()), float(z.var()), float(np.mean(z ** 4)))


@dataclass(frozen=True)
class LilProfile:
    ordinals: np.ndarray
    ratios: np.ndarray
    running_max: float


def lil_profile(seq: BitSequence, n_max: int, stride: int = 1000) -> LilProfile:
    """M-hat(n) / sqrt(2 n log log n) sampled every `stride` ordinals.

    The running max is tracked at full resolution over n >= 16 (below
    that the denominator is not defined).
    """
    if n_max < 16:
        raise ValueError(f"n_max must be >= 16, got {n_max}")
    if seq.start_ordinal != 1:
        raise ValueError("profile must start at ordinal 1")
    samples_n, samples_r = [], []
    running_max = 0.0
    carry = 0
    chunk = 1 << 20
    for lo in range(1, n_max + 1, chunk):
        cnt = min(chunk, n_max + 1 - lo)
        mu = seq.slice_mu(lo, cnt).astype(np.int64)
        cum = carry + np.cumsum(mu)
        carry = int(cum[-1])
        ns = np.arange(lo, lo + cnt, dtype=np.float64)
        valid = ns >= 16
        denom = np.sqrt(2.0 * ns[valid] * np.log(np.log(ns[valid])))
        ratios = np.abs(cum[valid]) / denom
        if ratios.size:
            running_max = max(running_max, float(ratios.max()))
        take = np.nonzero((ns % stride == 0) & valid)[0]
        samples_n.extend(ns[take].astype(np.int64))
        samples_r.extend((np.abs(cum[take]) / np.sqrt(
            2.0 * ns[take] * np.log(np.log(ns[take])))).tolist())
    return LilProfile(np.array(samples_n), np.array(samples_r), running_max)


def write_lil_csv(profile: LilProfile, path) -> None:
    """Plot-ready (n, ratio) rows for the iterated-logarithm diagnostic."""
    with open(path, "w") as fh:
        fh.write("n,ratio\n")
        for n, r in zip(profile.ordinals, profile.ratios):
            fh.write(f"{int(n)},{r:.10g}\n")


def write_z_csv(z_values, path) -> None:
    """One standardized block variable per line, for histogram fitting."""
    with open(path, "w") as fh:
        fh.write("z\n")
        for z in np.asarray(z_values, dtype=np.float64):
            fh.write(f"{z:.10g}\n")


def reference_random_walk(seed: int, n: int) -> np.ndarray:
    """Cumulative fair +-1 walk R(0..n) with R(0) = 0, reproducible by seed."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, 2, size=n, dtype=np.int8).astype(np.int64) * 2 - 1
    return np.concatenate([[0], np.cumsum(steps)])


@dataclass(frozen=True)
class PartialSumReport:
    x_max: int
    max_abs_partial_sum: float
    bound_holds: bool
    mertens_over_x: list  # (x, M(x)/x) at decade checkpoints
    guard: float


def mean_and_partial_sum_checks(x_max: int, guard: float = 1e-12) -> PartialSumReport:
    """Scan |sum_{m<=x} mu(m)/m| <= 1 for all x <= x_max (hard theorem) and
    report M(x)/x at decade checkpoints along the way."""
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    checkpoints = [10 ** k for k in range(0, int(math.log10(x_max)) + 1)]
    if checkpoints[-1] != x_max:
        checkpoints.append(x_max)
    max_abs = 0.0
    carry = 0.0
    mertens = 0
    ratios = []
    ci = 0
    for seg_lo, seg_hi, mu in iter_mobius(1, x_max + 1):
        terms = mu / np.arange(seg_lo, seg_hi, dtype=np.float64)
        prefix = carry + np.cumsum(terms)
        max_abs = max(max_abs, float(np.abs(prefix).max()))
        carry = float(prefix[-1])
        cum_mu = np.cumsum(mu, dtype=np.int64)
        while ci < len(checkpoints) and checkpoints[ci] < seg_hi:
            c = checkpoints[ci]
            ratios.append((c, (mertens + int(cum_mu[c - seg_lo])) / c))
            ci += 1
        mertens += int(cum_mu[-1])
    return PartialSumReport(x_max, max_abs, max_abs <= 1.0 + guard, ratios, guard)
