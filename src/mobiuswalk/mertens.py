"""Restricted Mertens function, block-variable ensembles and their moments,
and the partial-sum theorem.

The single deterministic sequence is turned into a statistical ensemble by
cutting many disjoint, well separated blocks of equal length; the block
sums play the role of independent copies of the walk displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqgen import (BitSequence, _prime_table, _sieve_pass, base_primes, iter_mobius,
                     nth_squarefree)

_PARTIAL_SUM_GUARD = 1e-12  # rounding slack of the float prefix sums of mu(m)/m


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
    block_length: int
    starts: np.ndarray

    @property
    def n_blocks(self) -> int:
        return int(self.starts.size)

    @property
    def end(self) -> int:
        return int(self.starts[-1]) + self.block_length


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
    return Ensemble(block_len, starts.astype(np.int64))


def block_sums(ens: Ensemble, seq: BitSequence) -> np.ndarray:
    out = np.empty(ens.n_blocks, dtype=np.int64)
    L = ens.block_length
    for i, s in enumerate(ens.starts):
        bits = seq.slice_bits(int(s), L)
        out[i] = 2 * int(bits.sum(dtype=np.int64)) - L
    return out


def mertens_function(x: int) -> int:
    """M(x), the exact sum of mu(m) over m <= x, on the table of `_prime_table`.

    There H(v) = -pi(v) sums mu over the primes <= v.  For each prime p <=
    sqrt(x), largest first, H(v) -= H(v // p) - H(p) at every v >= p^2 adds
    mu(p m) = -mu(m) for the m in (p, v // p] that are prime or square-free
    with no prime factor <= p: the square-free composites with least prime
    factor p (the second phase of the min_25 sieve).  H(p) is still -pi(p)
    then.  M(x) = 1 + H(x), in the time and memory and within the bound of pi(x).
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    vals, h = _prime_table([x])
    h *= -1
    _sieve_pass(vals, h, base_primes(math.isqrt(x))[::-1], 0)
    return 1 + int(h[-1])


def mertens_restricted(n: int) -> int:
    """M-hat(n): sum of the restricted +-1 coefficients up to ordinal n,
    which is M(sqf_n), since mu vanishes between square-free numbers."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return mertens_function(nth_squarefree(n))


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
    reference = {k: (0.0 if k % 2 else L ** (k / 2) * math.prod(range(k - 1, 0, -2)))
                 for k in range(1, max_order + 1)}
    z = b / math.sqrt(L)
    return MomentReport(ens.block_length, ens.n_blocks, moments, reference,
                        float(z.mean()), float(z.var()), float(np.mean(z ** 4)))


@dataclass(frozen=True)
class PartialSumReport:
    x_max: int
    max_abs_partial_sum: float
    bound_holds: bool
    mertens_over_x: list  # (x, M(x)/x) at decade checkpoints


def mean_and_partial_sum_checks(x_max: int) -> PartialSumReport:
    """Scan |sum_{m<=x} mu(m)/m| <= 1 for all x <= x_max (hard theorem) and
    report M(x)/x, from mertens_function, at decade checkpoints."""
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    checkpoints = [10 ** k for k in range(len(str(x_max)))]  # float log10 rounds 10^15 - 1 up
    if checkpoints[-1] != x_max:
        checkpoints.append(x_max)
    max_abs = 0.0
    carry = 0.0
    for seg_lo, seg_hi, mu in iter_mobius(1, x_max + 1):
        terms = mu / np.arange(seg_lo, seg_hi, dtype=np.float64)
        prefix = carry + np.cumsum(terms)
        max_abs = max(max_abs, float(np.abs(prefix).max()))
        carry = float(prefix[-1])
    ratios = [(c, mertens_function(c) / c) for c in checkpoints]
    return PartialSumReport(x_max, max_abs, max_abs <= 1.0 + _PARTIAL_SUM_GUARD, ratios)
