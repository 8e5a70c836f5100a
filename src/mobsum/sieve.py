"""Segmented sieves for the Moebius function and primes.

The Moebius function mu(k) is +1 for squarefree k with an even number of
prime factors, -1 for an odd number, and 0 when a square > 1 divides k
(mu(1) = 1).  Blocks over arbitrary offsets [lo, hi] are sieved with the
primes up to max(sqrt(hi), 80), so spot checks at large k never re-sieve
from 1.  Each sieving prime flips the sign of its multiples, zeroes the
multiples of its square and adds its scaled base-2 log to a one-byte lane;
a k whose lane falls short of log k carries one more prime factor, above
the sieving primes, and its sign flips once more.  No k is divided.

`moebius_oracle` is a deterministic trial-division evaluator, kept free of
any sieve machinery so tests can use it as an independent cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

# Default segment length for block sieving; one int8 and one uint8 lane per
# entry, so ~2 MB of scratch at the default.
DEFAULT_BLOCK_CAPACITY = 1 << 20

# The byte-log test of ``_moebius_values``: prime p adds round(_LOG_SCALE *
# log2 p) to the lane, k in [2^e, 2^(e+1)) has a prime cofactor above the
# sieving primes when its lane is below _LOG_SCALE * e - _LOG_SLACK, and the
# sieving primes reach at least _MIN_ROOT.  Sound for every k < 2^63.
_LOG_SCALE = 3
_LOG_SLACK = 7
_MIN_ROOT = 80


class RangeTooLargeError(ValueError):
    """Requested sieve range exceeds the configured block capacity."""


@dataclass(frozen=True)
class MoebiusBlock:
    """Sieved mu values over the contiguous interval [lo, hi], inclusive.

    ``values`` is a read-only int8 array with values[k - lo] = mu(k).
    """

    lo: int
    hi: int
    values: np.ndarray

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def mu(self, k: int) -> int:
        if not self.lo <= k <= self.hi:
            raise IndexError(f"{k} outside block [{self.lo}, {self.hi}]")
        return int(self.values[k - self.lo])


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, strictly increasing, as a read-only array."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return int(self.primes.size)


def _simple_prime_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


@functools.lru_cache(maxsize=8)
def _primes_upto(limit: int) -> np.ndarray:
    if limit < 2:
        arr = np.empty(0, dtype=np.int64)
    else:
        arr = np.nonzero(_simple_prime_mask(limit))[0].astype(np.int64)
    arr.flags.writeable = False
    return arr


def sieve_primes(limit: int) -> PrimeTable:
    """Complete sorted table of primes <= limit."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return PrimeTable(limit=limit, primes=_primes_upto(int(limit)))


def _root_limit(hi: int) -> int:
    """The largest prime a block ending at hi is sieved with."""
    return max(isqrt(hi), _MIN_ROOT)


def _moebius_values(lo: int, hi: int, root_primes: np.ndarray) -> np.ndarray:
    """mu over [lo, hi], hi < 2^63, given the primes up to R = max(isqrt(hi), 80).

    Every prime p <= R flips the sign of its multiples, zeroes those of p^2
    and adds a_p = round(3 log2 p) to their byte lane L (3, 7 and 80 are
    ``_LOG_SCALE``, ``_LOG_SLACK`` and ``_MIN_ROOT``).  A k left with
    mu != 0 is squarefree, k = m c with m the product of its w primes <= R
    and c = 1 or one prime > R (R >= sqrt(hi) makes this hold for every k
    of the block; the argument needs nothing more).  Then L = sum a_p =
    3 log2 m + d with |d| <= w/2 (the float log2 errs far below the
    margins).  Below 2^63 at most 15 primes divide k (the first 16 multiply
    to more than 2^63), so L <= 3 * 63 + 7.5 < 256 and the uint8
    lane never wraps.  For k in the segment [2^e, 2^(e+1)):

        c = 1:   L >= 3 log2 k - 7.5 >= 3e - 7.5, so L >= 3e - 7 as an integer
        c > R:   L <= 3 log2 k - 3 log2 c + 7 < 3(e + 1) - 3 log2 80 + 7 < 3e - 8.9

    (with c > 1, m has at most 14 primes).  So c > 1 exactly when
    L < 3e - 7, and then the sign of mu(k) flips once more.  Only the
    ``root_primes`` up to R are used.
    """
    n = hi - lo + 1
    mu = np.ones(n, dtype=np.int8)
    lane = np.zeros(n, dtype=np.uint8)
    ps = root_primes[: int(np.searchsorted(root_primes, _root_limit(hi), side="right"))]
    logs = np.rint(_LOG_SCALE * np.log2(ps.astype(np.float64))).astype(np.uint8)
    for p, a in zip(ps.tolist(), logs):
        start = (-lo) % p
        v = mu[start::p]
        np.negative(v, out=v)
        w = lane[start::p]
        np.add(w, a, out=w)
        p2 = p * p
        mu[(-lo) % p2 :: p2] = 0
    # the lane becomes the cofactor flag, one power-of-two segment at a time
    for e in range(lo.bit_length() - 1, hi.bit_length()):
        seg = lane[max(lo, 1 << e) - lo : min(hi + 1, 2 << e) - lo]
        np.less(seg, max(_LOG_SCALE * e - _LOG_SLACK, 0), out=seg)
    flip = lane.view(np.int8)
    flip *= mu
    flip <<= 1
    mu -= flip
    mu.flags.writeable = False
    return mu


def sieve_moebius(
    lo: int, hi: int, block_capacity: int = DEFAULT_BLOCK_CAPACITY
) -> MoebiusBlock:
    """Sieve mu(k) for every k in [lo, hi].

    Values are independent of how a larger range is partitioned into blocks.
    Raises RangeTooLargeError when the range exceeds ``block_capacity`` and
    ValueError when lo < 1, hi < lo or hi >= 2^63.
    """
    lo, hi = int(lo), int(hi)
    if lo < 1:
        raise ValueError(f"lo must be >= 1, got {lo}")
    if hi < lo:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if hi >= 1 << 63:
        raise ValueError(f"hi must be below 2^63, got {hi}")
    if hi - lo + 1 > block_capacity:
        raise RangeTooLargeError(
            f"range length {hi - lo + 1} exceeds block capacity {block_capacity}"
        )
    root = _primes_upto(_root_limit(hi))
    return MoebiusBlock(lo=lo, hi=hi, values=_moebius_values(lo, hi, root))


def iter_moebius_blocks(
    lo: int, hi: int, block_size: int = DEFAULT_BLOCK_CAPACITY
) -> Iterator[MoebiusBlock]:
    """Yield consecutive MoebiusBlocks covering [lo, hi].

    Blocks are aligned to absolute multiples of ``block_size`` so the values
    (and any float accumulation order built on them) do not depend on lo.
    """
    if lo < 1 or hi < lo or hi >= 1 << 63:
        raise ValueError(f"bad range [{lo}, {hi}]")
    root = _primes_upto(_root_limit(hi))
    b = (lo - 1) // block_size
    while True:
        blo = max(lo, b * block_size + 1)
        bhi = min(hi, (b + 1) * block_size)
        if blo > bhi:
            return
        yield MoebiusBlock(lo=blo, hi=bhi, values=_moebius_values(blo, bhi, root))
        if bhi == hi:
            return
        b += 1


def moebius_oracle(k: int) -> int:
    """mu(k) by deterministic trial division; independent of the sieve.

    Intended for cross-checks and small arguments (k up to ~10^12).
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return 1
    r = 0
    m = k
    for p in (2, 3):
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            r += 1
    d = 5
    while d * d <= m:
        for p in (d, d + 2):
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                r += 1
        d += 6
    if m > 1:
        r += 1
    return -1 if r & 1 else 1


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (same range as the oracle)."""
    n = int(n)
    if n < 2:
        return False
    for p in (2, 3):
        if n % p == 0:
            return n == p
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def prime_flags(lo: int, hi: int) -> np.ndarray:
    """Boolean primality flags for [lo, hi], segmented like the mu sieve."""
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    n = hi - lo + 1
    flags = np.ones(n, dtype=bool)
    if lo <= 1 <= hi:
        flags[1 - lo] = False
    for p in _primes_upto(isqrt(hi)):
        p = int(p)
        if p * p > hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = False
    flags.flags.writeable = False
    return flags
