"""Segmented Mobius sieve and the bit-packed square-free sequence.

The sequence under study lists mu at square-free numbers only, recoded as
bits: bit = (mu + 1) / 2, so 0 stands for mu = -1 and 1 for mu = +1.
Ordinals are 1-based with square-free number #1 equal to 1.

Windows of exact mu values are produced by a classic segmented sieve:
mark multiples of p^2 as zero, divide each entry by every prime p <=
sqrt(hi) that divides it, and flip the sign once more when a single
prime factor > sqrt(hi) is left over.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

DEFAULT_SEGMENT = 1 << 22
MAX_WINDOW = 1 << 26

MAGIC = b"MSF1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQQ")

PI2_OVER_6 = 1.6449340668482264


class SequenceFormatError(ValueError):
    """Raised when a sequence file has a bad magic, version, or size."""


class SegmentBudgetError(RuntimeError):
    """Raised when a single requested window exceeds the memory budget."""


_prime_cache: dict[str, np.ndarray] = {}


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit, cached per process (grows monotonically)."""
    cached = _prime_cache.get("primes")
    if cached is None or _prime_cache["limit"] < limit:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        cached = np.nonzero(sieve)[0].astype(np.int64)
        _prime_cache["primes"] = cached
        _prime_cache["limit"] = limit
    return cached[:np.searchsorted(cached, limit, side="right")].copy()


def is_prime(n: int) -> bool:
    """Trial division of n by the base primes up to sqrt(n)."""
    return n >= 2 and bool(np.all(n % base_primes(isqrt(n)) != 0))


def first_primes(k: int) -> np.ndarray:
    """The first k primes, from base primes over a doubling bound."""
    limit = 16
    while (primes := base_primes(limit)).size < k:
        limit *= 2
    return primes[:k]


@dataclass(frozen=True)
class MobiusWindow:
    """Exact mu values on [lo, hi): values[m - lo] = mu(m)."""

    lo: int
    hi: int
    values: np.ndarray  # int8, entries in {-1, 0, +1}

    def __len__(self):
        return self.hi - self.lo


def _sieve_segment(lo: int, hi: int, primes: np.ndarray, want_omega: bool):
    n = hi - lo
    mu = np.ones(n, dtype=np.int8)
    omega = np.zeros(n, dtype=np.uint8) if want_omega else None
    residue = np.arange(lo, hi, dtype=np.int64)
    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        start = (-lo) % p
        mu[start::p] = -mu[start::p]
        residue[start::p] //= p
        if want_omega:
            omega[start::p] += 1
        p2 = p * p
        mu[(-lo) % p2::p2] = 0
    leftover = residue > 1
    mu[leftover] = -mu[leftover]
    if want_omega:
        omega[leftover] += 1
    if lo == 0:
        mu[0] = 0  # mu(0) undefined; keep the slot inert
    return mu, omega


def iter_mobius(lo: int, hi: int, want_omega: bool = False) -> Iterator[tuple]:
    """Stream (seg_lo, seg_hi, mu[, omega]) covering [lo, hi) in order."""
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    primes = base_primes(isqrt(hi - 1) + 1)
    for seg_lo in range(lo, hi, DEFAULT_SEGMENT):
        seg_hi = min(seg_lo + DEFAULT_SEGMENT, hi)
        mu, omega = _sieve_segment(seg_lo, seg_hi, primes, want_omega)
        if want_omega:
            yield seg_lo, seg_hi, mu, omega
        else:
            yield seg_lo, seg_hi, mu


def mobius_range(lo: int, hi: int) -> MobiusWindow:
    """Exact mu values on [lo, hi) as one in-memory window."""
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi - lo > MAX_WINDOW:
        raise SegmentBudgetError(
            f"window of {hi - lo} integers exceeds budget {MAX_WINDOW}; "
            "use iter_mobius to stream")
    chunks = [mu for _, _, mu in iter_mobius(lo, hi)]
    return MobiusWindow(lo, hi, np.concatenate(chunks))


def squarefree_count(x: int) -> int:
    """Q(x): exact number of square-free integers in [1, x]."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    r = isqrt(x)
    mu = mobius_range(1, r + 1).values.astype(np.int64)
    d = np.arange(1, r + 1, dtype=np.int64)
    return int(np.sum(mu * (x // (d * d))))


def squarefree_multiples(p: int, x: int) -> int:
    """Exact number of square-free m <= x divisible by the prime p: they are
    p*k, k <= x/p square-free and prime to p, so the count is Q(x // p) less
    the same count at x // p, i.e. sum_{j>=1} (-1)^(j-1) Q(x // p^j)."""
    if x < 1 or not is_prime(p):
        raise ValueError(f"need x >= 1 and p prime, got x={x}, p={p}")
    y = x // p
    return squarefree_count(y) - squarefree_multiples(p, y) if y else 0


def nth_squarefree(n: int) -> int:
    """The n-th square-free number (1-based, sqf_1 = 1)."""
    if n < 1:
        raise ValueError(f"ordinal must be >= 1, got {n}")
    # Q(x) = 6x/pi^2 + O(sqrt x): one exact count at the linear estimate x
    # leaves sqf_n near x.  Sieve a window around x, doubled until it holds
    # sqf_n; the square-free numbers of the window in [lo, x] fix its rank.
    x = int(n * PI2_OVER_6)
    q = squarefree_count(x)
    w = 64 + 2 * abs(n - q)
    while True:
        lo = max(1, x - w)
        sqf = lo + np.flatnonzero(mobius_range(lo, x + w).values)
        k = n - q + int(np.count_nonzero(sqf <= x))
        if 1 <= k <= sqf.size:
            return int(sqf[k - 1])
        w *= 2


@dataclass(frozen=True)
class BitSequence:
    """A window of the bit sequence, packed LSB-first within each byte."""

    start_ordinal: int
    length: int
    bits: np.ndarray  # uint8, ceil(length/8) bytes, pad bits zero

    def __post_init__(self):
        if self.start_ordinal < 1:
            raise ValueError(f"start_ordinal must be >= 1, got {self.start_ordinal}")
        if self.bits.size != (self.length + 7) // 8:
            raise ValueError(
                f"payload has {self.bits.size} bytes, expected {(self.length + 7) // 8}")

    @classmethod
    def from_bits(cls, start_ordinal: int, bit_values: np.ndarray) -> "BitSequence":
        packed = np.packbits(bit_values.astype(np.uint8), bitorder="little")
        return cls(start_ordinal, int(bit_values.size), packed)

    def covers(self, ordinal: int, count: int) -> bool:
        return (ordinal >= self.start_ordinal
                and ordinal + count <= self.start_ordinal + self.length)

    def slice_bits(self, ordinal: int, count: int) -> np.ndarray:
        """Unpacked {0,1} values for ordinals [ordinal, ordinal + count)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if not self.covers(ordinal, count):
            raise ValueError(
                f"[{ordinal}, {ordinal + count}) not covered by sequence "
                f"[{self.start_ordinal}, {self.start_ordinal + self.length})")
        off = ordinal - self.start_ordinal
        b_lo, b_hi = off // 8, (off + count + 7) // 8
        unpacked = np.unpackbits(self.bits[b_lo:b_hi], bitorder="little")
        return unpacked[off - 8 * b_lo:off - 8 * b_lo + count]

    def slice_mu(self, ordinal: int, count: int) -> np.ndarray:
        """Signed mu values in {-1,+1} for the same window."""
        return (2 * self.slice_bits(ordinal, count).astype(np.int8) - 1)


def iter_restricted_bits(start_ordinal: int, length: int) -> Iterator[np.ndarray]:
    """Stream unpacked {0,1} chunks of the sequence in ordinal order."""
    if start_ordinal < 1:
        raise ValueError(f"start_ordinal must be >= 1, got {start_ordinal}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    lo = nth_squarefree(start_ordinal)
    hi = nth_squarefree(start_ordinal + length - 1) + 1
    remaining = length
    for _, _, mu in iter_mobius(lo, hi):
        nz = mu[mu != 0]
        if nz.size > remaining:
            nz = nz[:remaining]
        remaining -= nz.size
        yield ((nz + 1) // 2).astype(np.uint8)
        if remaining == 0:
            return
    if remaining:
        raise AssertionError("sieve exhausted before covering the request")


def restricted_sequence(start_ordinal: int, length: int) -> BitSequence:
    """Materialize the bit sequence for [start_ordinal, start_ordinal+length)."""
    chunks = list(iter_restricted_bits(start_ordinal, length))
    return BitSequence.from_bits(start_ordinal, np.concatenate(chunks))


def write_sequence(seq: BitSequence, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, seq.start_ordinal, seq.length))
        seq.bits.tofile(fh)


def read_sequence(path) -> BitSequence:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise SequenceFormatError(f"{path}: truncated header")
        magic, version, start_ordinal, length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise SequenceFormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise SequenceFormatError(f"{path}: unsupported version {version}")
        payload = np.fromfile(fh, dtype=np.uint8)
    expected = (length + 7) // 8
    if payload.size != expected:
        raise SequenceFormatError(
            f"{path}: payload has {payload.size} bytes, expected {expected}")
    return BitSequence(start_ordinal, length, payload)


def generate_sequence_file(path, start_ordinal: int, length: int) -> dict:
    """Stream the sequence straight to disk; returns a small summary.

    Memory use stays bounded by the segment size, so lengths of 1e9+
    ordinals are fine.  On failure the partial file is removed.
    """
    ones = 0
    carry = np.empty(0, dtype=np.uint8)
    with open(path, "wb") as fh:
        try:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, start_ordinal, length))
            for chunk in iter_restricted_bits(start_ordinal, length):
                ones += int(chunk.sum())
                buf = np.concatenate([carry, chunk]) if carry.size else chunk
                whole = (buf.size // 8) * 8
                np.packbits(buf[:whole], bitorder="little").tofile(fh)
                carry = buf[whole:]
            if carry.size:
                np.packbits(carry, bitorder="little").tofile(fh)
        except BaseException:
            # a partial file would pass for a header with a short payload;
            # devices, pipes and symlinks given as the output are left alone
            fh.close()
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
            raise
    return {
        "start_ordinal": start_ordinal,
        "length": length,
        "ones": ones,
        "ones_fraction": ones / length,
    }
