"""Reference computations the benchmark checks mobiuswalk against.

Nothing here imports mobiuswalk.  Each function is a plain, separately
written route to a value the program also computes: Eratosthenes for
primes and square-free flags, Q(x) from a Mobius table for locating
ordinals, trial division for single Mobius values, Gaussian elimination
for GF(2) ranks, a step-by-step loop for walk extremes, and a byte-level
reader for MSF1 files.
"""

from __future__ import annotations

import math
from math import isqrt

import numpy as np
from scipy.special import expi

MSF_HEADER_BYTES = 22  # magic(4) + u16 version + u64 start + u64 length


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as int64."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags)


def squarefree_flags(n: int) -> np.ndarray:
    """flags[m] is True iff m is square-free, for 0 <= m <= n (0 is not)."""
    flags = np.ones(n + 1, dtype=bool)
    flags[0] = False
    for p in primes_upto(isqrt(n)):
        flags[p * p::p * p] = False
    return flags


def mobius_upto(n: int) -> np.ndarray:
    """mu(m) for 0 <= m <= n as int64 (mu(0) = 0), one prime at a time."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_upto(n):
        mu[p::p] *= -1
        if p * p <= n:
            mu[p * p::p * p] = 0
    return mu


def count_squarefree(x: int, mu: np.ndarray) -> int:
    """Q(x) = sum over d <= sqrt(x) of mu(d) floor(x / d^2); mu must reach sqrt(x)."""
    if x < 1:
        return 0
    r = isqrt(x)
    if r >= mu.size:
        raise ValueError(f"Mobius table ends at {mu.size - 1}, need {r}")
    d = np.arange(1, r + 1, dtype=np.int64)
    return int(np.dot(mu[1:r + 1], x // (d * d)))


def locate_squarefree(n: int, mu: np.ndarray) -> int:
    """The n-th square-free number: the least x with Q(x) >= n."""
    est = int(n * math.pi ** 2 / 6)
    pad = 4 * isqrt(est) + 64
    lo, hi = max(0, est - pad), est + pad
    while lo > 0 and count_squarefree(lo, mu) >= n:
        lo = max(0, lo - pad)
    while count_squarefree(hi, mu) < n:
        hi += pad
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count_squarefree(mid, mu) >= n:
            hi = mid
        else:
            lo = mid
    return hi


def mobius_by_trial_division(m: int, primes: np.ndarray) -> int:
    """mu(m) by dividing out every prime <= sqrt(m); primes must hold them all."""
    ps = primes[:np.searchsorted(primes, isqrt(m), side="right")]
    divisors = ps[m % ps == 0]
    rest = m
    for p in divisors.tolist():
        rest //= p
        if rest % p == 0:
            return 0
    k = divisors.size + (1 if rest > 1 else 0)
    return -1 if k % 2 else 1


def squarefree_bits_from(x: int, count: int, primes: np.ndarray) -> list[int]:
    """(mu + 1) / 2 for the `count` square-free numbers starting at x."""
    bits = []
    m = x
    while len(bits) < count:
        mu = mobius_by_trial_division(m, primes)
        if mu:
            bits.append((mu + 1) // 2)
        m += 1
    return bits


def read_msf(path) -> tuple[bytes, int, int, int, np.ndarray]:
    """(magic, version, start ordinal, bit count, payload) of an MSF1 file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < MSF_HEADER_BYTES:
        raise ValueError(f"{path}: shorter than the MSF1 header")
    magic = data[:4]
    version = int.from_bytes(data[4:6], "little")
    start = int.from_bytes(data[6:14], "little")
    length = int.from_bytes(data[14:22], "little")
    payload = np.frombuffer(data, dtype=np.uint8, offset=MSF_HEADER_BYTES)
    return magic, version, start, length, payload


def payload_bits(payload: np.ndarray, offset: int, count: int) -> np.ndarray:
    """Bits offset .. offset+count-1 of an LSB-first packed payload."""
    idx = np.arange(offset, offset + count, dtype=np.int64)
    return (payload[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1


def gf2_ranks(mats: np.ndarray) -> np.ndarray:
    """GF(2) rank of each matrix in a (n, h, h) 0/1 stack, by row reduction."""
    a = mats.astype(bool)
    n, h, _ = a.shape
    rank = np.zeros(n, dtype=np.int64)
    row_ids = np.arange(h)
    for col in range(h):
        eligible = a[:, :, col] & (row_ids[None, :] >= rank[:, None])
        has = np.flatnonzero(eligible.any(axis=1))
        if has.size == 0:
            continue
        piv = eligible[has].argmax(axis=1)
        r = rank[has]
        pivot_rows = a[has, piv].copy()
        a[has, piv] = a[has, r]
        a[has, r] = pivot_rows
        clear = a[has, :, col]
        clear[np.arange(has.size), r] = False
        a[has] ^= clear[:, :, None] & pivot_rows[:, None, :]
        rank[has] += 1
    return rank


def walk_extremes_loop(bits) -> tuple[int, int]:
    """First times 0..T at which the +-1 walk from 0 hits its min and max."""
    s = low = high = 0
    t_min = t_max = 0
    for t, b in enumerate(bits, 1):
        s += 1 if b else -1
        if s < low:
            low, t_min = s, t
        if s > high:
            high, t_max = s, t
    return t_min, t_max


def li_offset(x: float) -> float:
    """Integral of dt / log(t + 1) over [2, x], as li(x + 1) - li(3)."""
    return float(expi(math.log(x + 1.0)) - expi(math.log(3.0)))
