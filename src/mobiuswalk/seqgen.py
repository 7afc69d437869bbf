"""Segmented Mobius sieve and the bit-packed square-free sequence.

The sequence under study lists mu at square-free numbers only, recoded as
bits: bit = (mu + 1) / 2, so 0 stands for mu = -1 and 1 for mu = +1.
Ordinals are 1-based with square-free number #1 equal to 1.

Windows of exact mu values come from a segmented sieve without division:
each entry counts the primes p <= sqrt(hi) dividing it and sums their
floor(16 log2 p), and multiples of p^2 are marked in bit 15 of the same
uint16 accumulator, which no count or sum reaches.  A square-free entry
whose log sum falls well short of its own log has one prime factor >
sqrt(hi) left over (Helfgott, Math. Comp. 89 (2020)).  Primes that hit the
window often are strided slices; the rest, and their squares, are
scattered in one vectorised pass, so a narrow window is cheap.  mu is
assembled by arithmetic, a slice at a time, and square-free entries are taken with
`np.compress`, because a store or a gather through a boolean mask
branches on each entry of a mask that is random to the CPU and cost
about as much as the strided primes.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

DEFAULT_SEGMENT = 1 << 20  # the shortest segment; iter_mobius sets the length
MAX_WINDOW = 1 << 26
_STRIDE_HITS = 64
_MIN_SCATTER = 32  # fewer steps than this are cheaper strided than scattered
_SCATTER_STEPS = 1 << 14  # steps per scattered block at most
_SCATTER_HITS = 1 << 17  # hits per scattered block at most, unless one step has more
_COMPRESS_SLICE = 1 << 16  # entries per slice of mu's assembly and np.compress
_SQUARE = 1 << 15  # the accumulator's mark of a square factor
_TERM_SLICE = 1 << 16  # terms per int64 temporary of an exact count
_PRIME_BLOCK = 1 << 12  # primes whose bounds `_sieve_pass` holds as Python ints at once

MAGIC = b"MSF1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQQ")

PI2_OVER_6 = 1.6449340668482264


class SequenceFormatError(ValueError):
    """Raised when a sequence file has a bad magic, version, or size."""


class SegmentBudgetError(RuntimeError):
    """Raised when a single requested window exceeds the memory budget."""


# The cache is replaced whole, never changed in place: a reader (or a
# thread) that took it sees a limit and its primes from one build.
_prime_cache: dict = {}  # {"limit": n, "primes": the primes <= n, read-only}


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit as a read-only int64 array, cached per process."""
    global _prime_cache
    cache = _prime_cache
    if cache.get("limit", -1) < limit:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        primes = np.nonzero(sieve)[0].astype(np.int64)
        primes.flags.writeable = False
        cache = _prime_cache = {"limit": limit, "primes": primes}
    primes = cache["primes"]
    return primes[:np.searchsorted(primes, limit, side="right")]


def is_prime(n: int) -> bool:
    """Trial division of n by the base primes up to sqrt(n)."""
    return n >= 2 and bool(np.all(n % base_primes(isqrt(n)) != 0))


def prime_counts(xs) -> list[int]:
    """pi(x) for every x of a batch, in order, read from `_prime_table`."""
    xs = [max(int(x), 0) for x in xs]
    if not xs:
        return []
    vals, s = _prime_table(xs)
    return s[np.searchsorted(vals, xs)].tolist()


def _prime_table(xs) -> tuple[np.ndarray, np.ndarray]:
    """(vals, pi(vals)) by one Lucy/Legendre recursion over the xs >= 0.

    Once the primes below p are sieved out, S(v) counts the m in [2, v]
    that are prime or free of prime factors below p.  It starts at v - 1;
    sieving by p takes away the p j with j in (p - 1, v // p] still counted,
    S(v // p) - S(p - 1) of them, from every S(v) with v >= p^2, and after
    the primes up to sqrt(v) S(v) = pi(v).  S depends on v alone, and the
    values x // k close under v -> v // p = x // (k p).  So the whole batch
    keeps one sorted table of distinct values: every v <= r = sqrt(max xs)
    at index v, then the x // k > r of every x.  O(x^(3/4)) time and
    O(sqrt(x)) memory for the largest x.  The table holds at most MAX_WINDOW
    values above r, counted with repeats; a single x has at most r of them.
    """
    distinct = set(xs)
    r, size = prime_counts_budget(distinct, max(distinct))
    vals = np.empty(r + 1 + size, dtype=np.int64)
    vals[:r + 1] = np.arange(r + 1)
    large, at = vals[r + 1:], 0
    for x in distinct:
        quotients = large[at:at + x // (r + 1)]
        quotients[:] = np.arange(quotients.size, 0, -1)
        np.floor_divide(x, quotients, out=quotients)
        at += quotients.size
    large.sort()
    first = np.ones(large.size, dtype=bool)  # repeats go within the table
    np.not_equal(large[1:], large[:-1], out=first[1:])
    size = int(np.count_nonzero(first))
    large[:size] = large[first]
    vals = vals[:r + 1 + size]
    s = vals - 1  # s[i] = S(vals[i])
    s[0] = 0  # never a source; pi(0) reads it
    _sieve_pass(vals, s, base_primes(r), 1)
    return vals, s


def _sieve_pass(vals: np.ndarray, s: np.ndarray, primes: np.ndarray, shift: int) -> None:
    """For each p of the int64 primes in turn, s(v) -= s(v // p) - s(p - shift)
    at every v >= p^2 of a `_prime_table` table, in place."""
    r = isqrt(int(vals[-1]))
    for k in range(0, primes.size, _PRIME_BLOCK):
        block = primes[k:k + _PRIME_BLOCK]
        # the v >= p^2 start at index lo, the v with v // p > r at mid
        bounds = zip(block.tolist(), np.searchsorted(vals, block * block).tolist(),
                     np.searchsorted(vals, block * (r + 1)).tolist())
        for p, lo, mid in bounds:
            below = int(s[p - shift])
            # every right side reads s before the update by p: a source lies
            # below its target, so the slices run down from the top, and each
            # right side is evaluated before it is written
            for b in range(vals.size, lo, -_TERM_SLICE):
                a = max(b - _TERM_SLICE, lo)
                src = vals[a:b] // p  # the index of v // p <= r
                if b > mid:  # a larger v // p is found by value
                    c = max(mid - a, 0)
                    src[c:] = np.searchsorted(vals, src[c:])
                s[a:b] -= s[src] - below


def prime_counts_budget(xs, top: int) -> tuple[int, int]:
    """(r, size) of `prime_counts` at the distinct xs, none above top: r =
    sqrt(max xs), and size counts the x // k > sqrt(top) over the xs, with
    repeats.  Raises SegmentBudgetError if either exceeds MAX_WINDOW.  Both
    grow with each x, and size shrinks as top grows, so lower bounds of the
    distinct xs and an upper bound of their largest refuse only a batch that
    `prime_counts` would refuse."""
    r = isqrt(max(xs))
    if r > MAX_WINDOW:
        raise SegmentBudgetError(f"sqrt({max(xs)}) = {r} exceeds budget {MAX_WINDOW}")
    size = sum(x // (isqrt(top) + 1) for x in xs)
    if size > MAX_WINDOW:
        raise SegmentBudgetError(
            f"{size} quotients above sqrt(max x) = {isqrt(top)}: count exceeds budget "
            f"{MAX_WINDOW}")
    return r, size


def prime_count(x: int) -> int:
    """pi(x): exact number of primes <= x (see `prime_counts`)."""
    return prime_counts([x])[0]


def _hits(lo: int, n: int, steps: np.ndarray, values=None) -> tuple:
    """(idx, val): lo + idx[i] in [lo, lo + n) is a multiple of the step whose
    value is val[i] (val is None without values); each step's hits come in
    order, after those of the steps before it."""
    start = (-lo) % steps
    count = np.maximum((n - 1 - start) // steps + 1, 0)
    # one int64 per hit: the gap to it from the hit before, which is its step
    # but at a step's first hit, where it is the jump from the last hit of
    # the step before; a cumulative sum in place turns the gaps into hits
    idx = np.repeat(steps, count)
    hit = count > 0
    jump = start[hit]
    jump[1:] -= (start + (count - 1) * steps)[hit][:-1]
    idx[(np.cumsum(count) - count)[hit]] = jump
    return np.cumsum(idx, out=idx), None if values is None else np.repeat(values, count)


def _scatter_blocks(steps: np.ndarray, a: int, n: int) -> Iterator[tuple[int, int]]:
    """Bounds (a, b) of consecutive blocks of the sorted steps[a:], each of at
    most _SCATTER_STEPS steps whose hits on n integers, at most n // step + 1
    each, add up to at most _SCATTER_HITS; `_hits` holds a few int64 per hit."""
    while a < steps.size:
        b = min(a + _SCATTER_STEPS, steps.size)
        if (n // int(steps[a]) + 1) * (b - a) > _SCATTER_HITS:  # the first step hits most
            hits = np.cumsum(n // steps[a:b] + 1)
            b = a + max(1, int(np.searchsorted(hits, _SCATTER_HITS, "right")))
        yield a, b
        a = b


def _stride_cut(steps: np.ndarray, n: int) -> int:
    """Steps below the cut hit n integers _STRIDE_HITS times or more and are
    strided; the rest are scattered, unless too few are left to pay for it."""
    cut = int(np.searchsorted(steps, n // _STRIDE_HITS, "right"))
    return cut if steps.size - cut >= _MIN_SCATTER else steps.size


def _sieve_segment(lo: int, hi: int, primes: np.ndarray, want_omega: bool):
    n = hi - lo
    # the sieving primes: every p with p^2 < hi, and always 2 and 3
    primes = primes[:np.searchsorted(primes, max(isqrt(hi - 1), 3), "right")]
    squares = primes * primes
    # acc[i] adds (floor(16 log2 p) << 4) | 1 for each sieving p | lo + i:
    # the low 4 bits count those p, at most 15 (the first 16 primes multiply
    # past 2^63), and the bits above sum S of their logs, S < 16 * 63, so no
    # add reaches bits 14 and 15.  Bit 15 marks a square factor; the marks
    # go first, as stores into zeros, which cost less than setting a bit.
    steps = ((16 * np.log2(primes)).astype(np.uint16) << 4) | 1
    acc = np.zeros(n, dtype=np.uint16)
    cut, cut2 = _stride_cut(primes, n), _stride_cut(squares, n)
    for p2 in squares[:cut2].tolist():
        acc[(-lo) % p2::p2] = _SQUARE
    for a, b in _scatter_blocks(squares, cut2, n):
        acc[_hits(lo, n, squares[a:b])[0]] = _SQUARE
    for p, step in zip(primes[:cut].tolist(), steps[:cut].tolist()):
        acc[(-lo) % p::p] += step
    for a, b in _scatter_blocks(primes, cut, n):
        np.add.at(acc, *_hits(lo, n, primes[a:b], steps[a:b]))
    # Square-free m has at most one prime factor q > sqrt(hi - 1) and c <= 15
    # sieving ones.  Each floor loses under 1 (float error is far below the
    # margin), so 16 log2 m - S < c without q, and >= 16 log2 5 > 37 with q
    # (q >= 5, as 2 and 3 are sieved).  On m in [2^k, 2^(k+1)) that puts S
    # above 16k - 15 without q and below 16k - 21 with it: q is there exactly
    # when S < 16(k - 1), acc < 256(k - 1) < _SQUARE.  mu and omega are built
    # a slice at a time, each slice within one such range of m, so that no
    # temporary spans the segment; int8 outputs come straight from the
    # uint16 loop, with no wide temporary.
    mu = np.empty(n, dtype=np.int8)
    omega = np.empty(n, dtype=np.uint8) if want_omega else None
    a = 0
    while a < n:
        k = (lo + a).bit_length() - 1
        b = min(a + _COMPRESS_SLICE, (2 << k) - lo, n)
        part, out = acc[a:b], mu[a:b]
        leftover = part < 256 * max(k - 1, 0)  # no q below 4, as 2 and 3 are sieved
        np.bitwise_and(part, 1, out=out, casting="unsafe")
        out ^= leftover  # parity of the number of prime factors
        out *= -2
        out += 1
        np.multiply(out, part < _SQUARE, out=out)
        if want_omega:
            np.bitwise_and(part, 15, out=omega[a:b], casting="unsafe")
            omega[a:b] += leftover
        a = b
    return mu, omega


def iter_mobius(lo: int, hi: int, want_omega: bool = False) -> Iterator[tuple]:
    """Stream (seg_lo, seg_hi, mu[, omega]) covering [lo, hi) in order."""
    if not 1 <= lo < hi <= 1 << 63:  # int64 positions, exact packed counts
        raise ValueError(f"need 1 <= lo < hi <= 2^63, got [{lo}, {hi})")
    primes = base_primes(max(isqrt(hi - 1), 3))
    # 2^20 keeps acc in L2.  Each segment also takes (-lo) % p for every
    # base prime in `_hits`, so past 2^14 base primes (hi near 3.3e10) the
    # segment lengthens with them: 1.7 Mi at 1e11, and 2^22 from about 6.8e11
    seg = min(max(DEFAULT_SEGMENT, 64 * primes.size), 4 * DEFAULT_SEGMENT)
    for seg_lo in range(lo, hi, seg):
        seg_hi = min(seg_lo + seg, hi)
        mu, omega = _sieve_segment(seg_lo, seg_hi, primes, want_omega)
        if want_omega:
            yield seg_lo, seg_hi, mu, omega
        else:
            yield seg_lo, seg_hi, mu


def mobius_range(lo: int, hi: int) -> np.ndarray:
    """Exact mu values on [lo, hi) as one int8 array: entry m - lo is mu(m)."""
    if hi - lo > MAX_WINDOW:  # iter_mobius checks 1 <= lo < hi
        raise SegmentBudgetError(
            f"window of {hi - lo} integers exceeds budget {MAX_WINDOW}; "
            "use iter_mobius to stream")
    mu = np.empty(max(hi - lo, 0), dtype=np.int8)  # iter_mobius rejects hi <= lo
    for seg_lo, seg_hi, seg in iter_mobius(lo, hi):
        mu[seg_lo - lo:seg_hi - lo] = seg
    return mu


def _mobius_terms(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(d, mu(d)) for the d in [1, n], int64 and int8, in order and in slices
    of at most _TERM_SLICE, streamed from `iter_mobius`.  n is checked here,
    before any sieve: the slices are made only as they are read."""
    if n > MAX_WINDOW:
        raise SegmentBudgetError(f"mu to {n} exceeds budget {MAX_WINDOW}")
    return ((np.arange(lo + a, min(lo + a + _TERM_SLICE, hi), dtype=np.int64),
             mu[a:a + _TERM_SLICE])
            for lo, hi, mu in iter_mobius(1, n + 1) for a in range(0, hi - lo, _TERM_SLICE))


def squarefree_count(x: int) -> int:
    """Q(x) = sum_{d <= sqrt(x)} mu(d) (x // d^2), the number of square-free
    m <= x: mu(d) summed over the d with d^2 | m is 1 exactly when m is."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return sum(int(mu @ (x // (d * d))) for d, mu in _mobius_terms(isqrt(x)))


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
        sqf = lo + np.flatnonzero(mobius_range(lo, x + w))
        k = n - q + int(np.count_nonzero(sqf <= x))
        if 1 <= k <= sqf.size:
            return int(sqf[k - 1])
        w *= 2


def sqf_bounds(n: int) -> tuple[int, int]:
    """(low, high) with low <= sqf_n <= high, found without sieving.

    With s = isqrt(x), Q(x) = x sum_{d <= s} mu(d) / d^2 - sum_{d <= s}
    mu(d) {x / d^2}.  The first sum is within sum_{d > s} 1 / d^2 < 1 / s of
    6 / pi^2, and the second is below s in size.  As x < (s + 1)^2, x / s + s
    < 2 s + 3, so |Q(x) - 6x / pi^2| < 2 sqrt(x) + 3.  At x = sqf_n, Q(x) = n,
    and each side of that bound is a quadratic in sqrt(x); a relative margin
    of 1e-12 covers the float error.
    """
    if n < 1:
        raise ValueError(f"ordinal must be >= 1, got {n}")
    a = 1 / PI2_OVER_6
    low = ((max(1 + a * (n - 3), 1) ** 0.5 - 1) / a) ** 2
    high = ((1 + (1 + a * (n + 3)) ** 0.5) / a) ** 2
    return max(int(low * (1 - 1e-12)), 1), int(high * (1 + 1e-12)) + 1


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
        return _signs(self.slice_bits(ordinal, count), np.int8)


def _signs(bits: np.ndarray, dtype) -> np.ndarray:
    """The values 2b - 1 in a signed dtype, built without a wider temporary."""
    signs = bits.astype(dtype)
    signs *= 2
    signs -= 1
    return signs


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
        # the bit of each square-free entry is its sign, mu > 0
        bits = np.empty(mu.size, dtype=bool)
        k = 0
        for a in range(0, mu.size, _COMPRESS_SLICE):
            part = mu[a:a + _COMPRESS_SLICE]
            sqf = part != 0
            end = k + int(np.count_nonzero(sqf))
            np.compress(sqf, part > 0, out=bits[k:end])
            k = end
        k = min(k, remaining)
        remaining -= k
        yield bits[:k].view(np.uint8)
        if remaining == 0:
            return
    if remaining:
        raise AssertionError("sieve exhausted before covering the request")


def _iter_packed(start_ordinal: int, length: int) -> Iterator[tuple]:
    """Stream (packed bytes, ones) of the sequence in order: each chunk's whole
    bytes, carrying its last bits into the next, then the zero-padded tail.
    `ones` counts the set bits of the chunk just read, so the tail's is 0."""
    carry = np.empty(0, dtype=np.uint8)
    for chunk in iter_restricted_bits(start_ordinal, length):
        ones = int(np.count_nonzero(chunk))
        buf = np.concatenate([carry, chunk]) if carry.size else chunk
        whole = (buf.size // 8) * 8
        yield np.packbits(buf[:whole], bitorder="little"), ones
        carry = buf[whole:]
    if carry.size:
        yield np.packbits(carry, bitorder="little"), 0


def restricted_sequence(start_ordinal: int, length: int) -> BitSequence:
    """Materialize the bit sequence for [start_ordinal, start_ordinal+length)."""
    # iter_restricted_bits rejects length < 1
    bits = np.empty(max(length + 7, 0) // 8, dtype=np.uint8)
    k = 0
    for packed, _ in _iter_packed(start_ordinal, length):
        bits[k:k + packed.size] = packed
        k += packed.size
    return BitSequence(start_ordinal, length, bits)


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
    with open(path, "wb") as fh:
        try:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, start_ordinal, length))
            for packed, chunk_ones in _iter_packed(start_ordinal, length):
                ones += chunk_ones
                packed.tofile(fh)
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
