"""Summatory functions over the Moebius function and the primes.

Computed here, for real x (non-integer arguments are floored):

    g(x)      = sum_{k<=x} mu(k)/k          (exact rational or certified float)
    f(x)      = sum_{k<=x} mu(k) log(k)/k   (certified float)
    M(x)      = sum_{k<=x} mu(k)            (exact integer, the Mertens function)
    theta(x)  = sum_{p<=x} log p            (certified float, Chebyshev)
    eps(x)    = theta(x)/x - 1              (certified float)
    h(x)      = sum_{p<=x} (log p / p) g(x/p)   (certified float)
    H(x)      = sum_{k<=x} 1/k              (certified float, harmonic)

Exact rational values use a common-denominator representation: with
L = lcm(1..limit), the scaled prefix g(k)*L is an integer, so prefix tables
build with pure integer adds instead of per-term gcd normalisation.  The
rational results are identical; only the encoding differs.  Each g(k)*L has
about 1.44 limit bits, so a list of them costs about 0.18 limit^2 bytes:
the exact checks read them in order from one generator over the mu sieve
(``_scaled_g_stream``, through ``ScaledMoebiusPrefix._reads``) and keep only
what they need, while ``ScaledMoebiusPrefix`` holds the list for the
callers that index it.

``SummatoryTables`` gives certified-float prefix lanes over [1, limit] to
the scan-style consumers.  Bound scans, ``series_scan`` and the convergence
reports read them chunk by chunk (``SummatoryTables._chunks``), streamed
with the bits of the held lanes, so no float lane is full length.  g and f
read mu one 2^20 sieve segment at a time unless the tables hold the int8 mu
lane, which only the tail and h increments and M build: they read mu
outside their own chunk.
All tables are immutable after construction and safe to share read-only.

Each quantity has one definition of its terms and error bound: the point
functions ``g_float``, ``f_value``, ``theta``, ``harmonic``, ``epsilon`` and
``h_direct`` (and ``identities.prime_power_tail``) return their lane's entry
at floor(x), bit for bit, each through the one point read
``SummatoryTables._at``.

A function that takes a caller's ``tables=`` or ``prefix=`` reads them when
they cover the range it needs, builds its own when given None and raises
``ValueError`` when they cover less (``_Table._covering``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Union

import numpy as np

from .certified import (
    EPS,
    CertifiedFloat,
    ZERO,
    _HEADROOM,
    from_exact,
)
from .sieve import (
    DEFAULT_BLOCK_CAPACITY,
    _primes_upto,
    iter_moebius_blocks,
    prime_flags,
    sieve_moebius,
)

# Largest x at which exact-rational evaluation is the default contract;
# common denominators grow like e^x, so costs explode beyond desk scale.
EXACTNESS_CUTOFF = 10_000

Real = Union[int, float, Fraction]


def floor_arg(x: Real) -> int:
    """Floor of a non-negative real argument, computed exactly."""
    if isinstance(x, (int, np.integer)):
        n = int(x)
    elif isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"argument must be finite, got {x}")
        n = math.floor(x)
    elif isinstance(x, Fraction):
        n = math.floor(x)
    else:
        raise TypeError(f"unsupported argument type {type(x)!r}")
    if n < 0:
        raise ValueError(f"argument must be non-negative, got {x}")
    return n


# ---------------------------------------------------------------------------
# Exact prefix tables over a common denominator
# ---------------------------------------------------------------------------


def lcm_upto(n: int) -> int:
    """lcm(1, 2, ..., n) as a product of maximal prime powers."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = 1
    for p in _primes_upto(n):
        p = int(p)
        pk = p
        while pk * p <= n:
            pk *= p
        out *= pk
    return out


def _lane(attr: str):
    """Decorator making a builder method a lazy lane: a ``property`` that
    builds on first read and caches the result in attribute ``attr``."""

    def lane(build):
        @functools.wraps(build)
        def get(self):
            value = getattr(self, attr, None)
            if value is None:
                value = build(self)
                setattr(self, attr, value)
            return value

        return property(get)

    return lane


def _prefix_lane(attr: str) -> property:
    """The lazy lane cached in ``attr`` of a ``SummatoryTables``: the certified
    prefix (``_held_prefix``) of its ``_lane_terms(attr)`` over [0, limit]."""

    def build(self) -> tuple[np.ndarray, np.ndarray]:
        return _held_prefix(self.limit, self.block_size, self._lane_terms(attr))

    return _lane(attr)(build)


class _Table:
    """A table over [1, limit], built by ``cls(limit)``."""

    @classmethod
    def _covering(cls, given, limit: int):
        """The tables a function reads over [1, limit] when its caller passes
        ``given``: ``given`` itself if it covers that range, new tables if it
        is None; raises ``ValueError``, building nothing, if it covers less."""
        if given is None:
            return cls(limit)
        if given.limit < limit:
            raise ValueError(f"{cls.__name__} covers [1, {given.limit}] < {limit}")
        return given


class ScaledMoebiusPrefix(_Table):
    """Exact prefix sums of mu(k)/k, scaled by L = lcm(1..limit).

    ``scaled_g[k] = g(k) * L`` is an integer for every k <= limit, the list
    of ``_scaled_g_stream``.  Companion tables (scaled harmonic numbers,
    scaled cumulative sums of g) are built lazily.  Each list holds limit
    integers of about 1.44 limit bits, so a table costs about 0.18 limit^2
    bytes; the exact checks of ``verify`` and ``converge`` read the stream
    instead (``_reads``) and hold none of them.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self.denominator = lcm_upto(limit)
        gn = [0] * (limit + 1)  # sized once: this table is what its callers hold
        for k, v in enumerate(_scaled_g_stream(limit, self.denominator), 1):
            gn[k] = v
        self.scaled_g = gn

    def g_fraction(self, k: int) -> Fraction:
        return Fraction(self.scaled_g[k], self.denominator)

    @_lane("_scaled_harmonic")
    def scaled_harmonic(self) -> list[int]:
        """H(k) * L as integers, H the harmonic number."""
        L = self.denominator
        return [0, *itertools.accumulate(L // k for k in range(1, self.limit + 1))]

    @_lane("_scaled_g_cumsum")
    def scaled_g_cumsum(self) -> list[int]:
        """(sum_{j<=k} g(j)) * L as integers."""
        return list(itertools.accumulate(self.scaled_g))

    @classmethod
    def _reads(cls, given, hi: int) -> tuple[int, Iterator[int]]:
        """(L, g(k) * L for k = 1 .. hi in order) that an exact check reads
        when its caller passes ``given``: the list of ``given``, which must
        cover hi (``_covering`` raises ``ValueError`` first if it does not),
        or for None ``_scaled_g_stream`` with L = lcm(1..hi), building no
        table.  Each call starts a new pass."""
        if given is None:
            L = lcm_upto(hi)
            return L, _scaled_g_stream(hi, L)
        given = cls._covering(given, hi)
        return given.denominator, itertools.islice(given.scaled_g, 1, hi + 1)


# mu values ``_scaled_g_stream`` reads as Python ints at a time, 32 KiB of list
_MU_READ = 1 << 12


def _scaled_g_stream(limit: int, L: int) -> Iterator[int]:
    """g(k) * L for k = 1, 2, ..., limit, in order, for an L that every
    k <= limit divides: L // k added or subtracted at each squarefree k, with
    mu read one sieve block, ``_MU_READ`` values at a time.  It holds one
    running integer of L's size, so its consumers read the exact prefix in
    O(limit) memory besides what they keep."""
    acc = 0
    for block in iter_moebius_blocks(1, limit):
        for s in range(0, block.values.size, _MU_READ):
            for k, m in enumerate(block.values[s : s + _MU_READ].tolist(), block.lo + s):
                if m > 0:
                    acc += L // k
                elif m:
                    acc -= L // k
                yield acc


def moebius_values_upto(limit: int) -> np.ndarray:
    """mu(0..limit) as one int8 array (mu[0] = 0 placeholder)."""
    out = np.zeros(limit + 1, dtype=np.int8)
    for block in iter_moebius_blocks(1, limit):
        out[block.lo : block.hi + 1] = block.values
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Scalar operations
# ---------------------------------------------------------------------------


def g_exact(x: Real) -> Fraction:
    """sum_{k<=x} mu(k)/k as an exact rational; 0 for x < 1.

    Cost grows like the common denominator lcm(1..x); intended for x up to
    the exactness cutoff (feasible somewhat beyond, at desk patience).  The
    last value of ``_scaled_g_stream``: one running integer, no list.
    """
    n = floor_arg(x)
    if n < 1:
        return Fraction(0)
    L = lcm_upto(n)
    for v in _scaled_g_stream(n, L):
        pass
    return Fraction(v, L)


def big_m(x: Real) -> int:
    """Mertens function M(x) = sum_{k<=x} mu(k); 0 for x < 1."""
    n = floor_arg(x)
    total = 0
    if n >= 1:
        for block in iter_moebius_blocks(1, n):
            total += int(block.values.sum(dtype=np.int64))
    return total


def g_float(x: Real) -> CertifiedFloat:
    """Certified sum_{k<=x} mu(k)/k: the g lane's entry at x, bit for bit,
    holding one 2^20 sieve segment of mu and one 2^15 chunk of floats."""
    n = floor_arg(x)
    return SummatoryTables(n)._at("_g", n) if n else ZERO


def f_value(x: Real) -> CertifiedFloat:
    """Certified sum_{k<=x} mu(k) log(k)/k: the f lane's entry at x.

    Defined for x >= 1; the k = 1 term has weight log 1 = 0, so f is 0 on
    [1, 2).
    """
    n = floor_arg(x)
    if n < 1:
        raise ValueError(f"f is defined for x >= 1, got {x}")
    return SummatoryTables(n)._at("_f", n)


def theta(x: Real) -> CertifiedFloat:
    """Chebyshev theta(x) = sum_{p<=x} log p: the theta lane's entry at x; 0 for x < 2."""
    n = floor_arg(x)
    return SummatoryTables(n)._at("_theta", n) if n else ZERO


def epsilon(x: Real) -> CertifiedFloat:
    """Relative deviation theta(x)/x - 1; by convention 0 at x = 0.  At a
    double x it is ``_eps`` over theta's entry, so at an integer the eps
    lane's entry, bit for bit."""
    xr = x if isinstance(x, Fraction) else Fraction(x)  # floats exactly
    if xr == 0:
        return ZERO
    if xr < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    th = theta(x)
    xf = float(xr)
    if xf != xr:
        return th.mul(from_exact(1 / xr)).add_exact(-1.0)
    [v], [e] = _eps(np.array([xf]), np.array([th.value]), np.array([th.err]))
    return CertifiedFloat(float(v), float(e))


def harmonic(x: Real) -> CertifiedFloat:
    """Certified sum_{k<=x} 1/k for x >= 1: the H lane's entry at x."""
    n = floor_arg(x)
    if n < 1:
        raise ValueError(f"harmonic sum needs x >= 1, got {x}")
    return SummatoryTables(n)._at("_H", n)


def h_direct(x: Real, *, tables: "SummatoryTables | None" = None) -> CertifiedFloat:
    """h(x) = sum_{p<=x} (log p / p) g(x/p), certified: the h lane's entry at
    floor(x), bit for bit, read off ``tables`` if they hold the lane and else
    streamed (``SummatoryTables._at``)."""
    n = floor_arg(x)
    if n < 1:
        raise ValueError(f"h is defined for x >= 1, got {x}")
    return SummatoryTables._covering(tables, n)._at("_h", n)


# ---------------------------------------------------------------------------
# Certified-float prefix tables
# ---------------------------------------------------------------------------


# Largest block of one np.cumsum in the prefix kernel (``_prefix_step``):
# each of its float sums then errs by at most gamma_{2^28} < 2^-25 (1 +
# 2^-24) of the sum of its summands' magnitudes, which ``_ERR_SUM_REL`` and
# ``_HEADROOM`` cover.
MAX_PREFIX_BLOCK = 1 << 28

# Chunk length of the element-wise passes that need a temporary array.
_CHUNK = 1 << 15

# Charged per unit of sum_j |sigma_j| for the rounding of the float sum of a
# prefix block's signed errors sigma_j and of each sigma_j (``_prefix_step``)
_ERR_SUM_REL = 2.0**-24


def _add_scaled_abs(acc: np.ndarray, v: np.ndarray, c: float) -> None:
    """acc += c * |v|, through chunk-sized temporaries."""
    for lo in range(0, v.size, _CHUNK):
        t = np.abs(v[lo : lo + _CHUNK])
        t *= c
        acc[lo : lo + _CHUNK] += t


def _two_sum(a: np.ndarray, b, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The exact errors (a + b) - s of the adds s = fl(a + b), element-wise,
    written into ``out`` and returned; ``b`` (an array or a float) is
    overwritten when it is an array.  ``out`` may be ``a``, and a view of
    one array may give a = s[:-1] and s[1:]: s is read for the last time
    before ``out`` is written.

    Knuth's TwoSum (The Art of Computer Programming, vol. 2, 4.2.2, Thm. B;
    Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26 (2005), Alg. 3.1): with
    b' = s - a and a' = s - b', the error is (a - a') + (b - b'), and every
    one of these operations is exact under round-to-nearest, without
    overflow, whatever the magnitudes of a and b.
    """
    bp = np.subtract(s, a)
    b = np.subtract(b, bp, out=b if isinstance(b, np.ndarray) else None)
    np.subtract(s, bp, out=bp)  # a'
    np.subtract(a, bp, out=out)
    out += b
    return out


def _corrected_sum(t: np.ndarray, mag: float) -> tuple[float, float]:
    """The sum T of the n >= 1 entries of ``t`` (overwritten), and a bound
    on |T - sum t| for any mag >= sum |t|.

    ``np.cumsum`` adds left to right, c_j = fl(c_{j-1} + t_j), and TwoSum
    gives the exact errors delta_j of its n - 1 adds, so sum t = c_n +
    sum delta_j.  ``np.sum`` adds the delta_j in an order it does not fix,
    erring by at most gamma_{n-2} sum |delta_j|, where |delta_j| <= u |c_j|
    <= u (1 + gamma_n) mag: under (n u)^2 mag in all.  T = fl(c_n + that
    sum) rounds once more, by u |T| (1 + u) (Ogita, Rump and Oishi's Sum2).
    The bound is u |T| + (n EPS)^2 mag; the caller's ``_HEADROOM`` covers
    the second order.
    """
    n = t.size
    c = np.cumsum(t)
    delta = _two_sum(c[:-1], t[1:], c[1:], c[:-1])
    T = float(c[-1]) + float(delta.sum())
    return T, 0.5 * EPS * abs(T) + (n * EPS) ** 2 * mag


def _prefix_step(
    v: np.ndarray,
    e: np.ndarray,
    carry: tuple[float, float, float] | None,
    local: tuple[float, float, float] | None = None,
    last_only: bool = False,
    r: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[float, float, float], tuple[float, float, float]]:
    """One chunk of a block of a prefix lane: the prefix kernel.

    From the chunk's terms ``v`` (overwritten) and input errors ``e`` it
    makes its prefix values, returned as a new array, and their bounds, in
    ``e`` (with ``last_only`` only the last entry of each is final; the rest
    stay block-local).  ``r``, if given, holds signed parts of the terms'
    errors, which the kernel sums with its own: term j is t_j + r_j +- e_j.

    Within a block ``np.cumsum`` adds left to right (a test checks it), so
    l_j = fl(l_{j-1} + t_j) from l_0 = t_0, and TwoSum gives every add's
    exact error delta_j = l_{j-1} + t_j - l_j (delta_0 = 0): the block's
    exact sum is l_k + sum_{j<=k} (delta_j + r_j +- e_j).  The kernel sums
    sigma_j = fl(delta_j + r_j) left to right into D_k, and e_j + c
    |sigma_j|, c = ``_ERR_SUM_REL``, into E_k, and publishes (E_k + |D_k|)
    ``_HEADROOM``.  Rounding makes D_k err by at most gamma_{k-1} sum
    |sigma_j| (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 4.2) and each sigma_j by u |sigma_j| (1 + u); with k <=
    ``MAX_PREFIX_BLOCK`` both fit under c sum |sigma_j|.  E_k sums k
    nonnegative numbers, each rounded at most three times, so it lies within
    2^-25 (1 + 2^-24) of the exact sum of its parts, and the last add and
    the product by ``_HEADROOM`` (1 + 2^-24) round once each: the bound
    exceeds that exact sum plus |D_k| by a factor over 1 + 2^-26.  Exact
    terms give exact zero errors, so a single term, or a sum whose adds are
    all exact, is certified at +/- 0.

    ``carry`` is the (value, signed error, magnitude) of the block before,
    None for the block that starts at k = 1: the block's exact prefix lies
    within the magnitude of value + error.  The error and the magnitude start
    the block's D and E (with c |error| in E, the error being one more
    summand of D), and the value is added to every entry, s_k = fl(l_k +
    value), whose TwoSum error joins D_k: d_k = fl(D_k + delta'_k).  That
    add's rounding, u |d_k| (1 + u), fits in the factor's slack over |d_k|,
    and the carry passed on charges it as EPS |d_k|.

    ``local`` is None for a chunk that starts its block, and otherwise the
    block-local (prefix, D, E) where the block's chunk before ended: the
    chunk continues those sums, so a block run as several chunks gets the
    bits of one run as a whole.  Returns the values, the ``local`` of the
    next chunk and the chunk's last (value, signed error, magnitude), the
    carry of the next block when the chunk ends its block.
    """
    prev, t0 = 0.0 if local is None else local[0], float(v[0])
    if local is not None:
        v[0] += prev
    l = np.cumsum(v)
    z = np.empty(v.size, dtype=np.complex128)  # sigma_j, then D_j; E's parts, then E_j
    d, m = z.real, z.imag
    _two_sum(l[:-1], v[1:], l[1:], d[1:])
    d[0] = (prev - (l[0] - (l[0] - prev))) + (t0 - (l[0] - prev))
    if r is not None:
        d += r
    mag = np.abs(d)
    mag *= _ERR_SUM_REL
    np.add(e, mag, out=m)
    if local is not None:
        d[0] += local[1]
        m[0] += local[2]
    elif carry is not None:
        d[0] += carry[1]
        m[0] += carry[2] + _ERR_SUM_REL * abs(carry[1])
    # one cumsum for D and E: a complex add adds the real and the imaginary
    # parts as two float adds, which a test checks bit for bit
    np.cumsum(z, out=z)
    local = float(l[-1]), float(d[-1]), float(m[-1])
    if last_only:
        vals, d, m, e, mag = l[-1:], d[-1:], m[-1:], e[-1:], mag[-1:]
    else:
        vals = l
    if carry is not None:
        s = vals + carry[0]
        d += _two_sum(vals, carry[0], s, mag)
        vals[...] = s
    np.abs(d, out=e)
    e += m
    e *= _HEADROOM
    last_e = (local[2] + EPS * abs(float(d[-1]))) * _HEADROOM
    return l, local, (float(l[-1]), float(d[-1]), last_e)


def _held_prefix(n: int, block_size: int, block_terms) -> tuple[np.ndarray, np.ndarray]:
    """The prefix lane over [0, n] (0 the zero pad) of ``block_terms``: its
    ``_prefix_stream`` in ``_CHUNK`` pieces written into two new arrays, so
    only the lane itself has full length."""
    vals, errs = np.zeros(n + 1), np.zeros(n + 1)
    for lo, v, e in _prefix_stream(n, block_size, block_terms, _CHUNK):
        vals[lo : lo + v.size] = v
        errs[lo : lo + v.size] = e
    vals.flags.writeable = False
    errs.flags.writeable = False
    return vals, errs


def _chunk_grid(n: int, block_size: int, chunk: int) -> Iterator[tuple[int, int]]:
    """The (lo, hi) of the chunks of at most ``chunk`` entries that each
    ``block_size`` block of [1, n] splits into, in order."""
    for blo in range(1, n + 1, block_size):
        bhi = min(blo + block_size - 1, n)
        for lo in range(blo, bhi + 1, chunk):
            yield lo, min(lo + chunk - 1, bhi)


def _prefix_stream(
    n: int, block_size: int, block_terms, chunk: int, last_only: bool = False
) -> Iterator[tuple]:
    """A prefix lane over [1, n] on ``_chunk_grid``, keeping only two carries.

    ``block_terms(lo, hi)`` gives the terms of [lo, hi], their input errors
    and, for g and H, their signed residuals (``_reciprocals``); yields (lo,
    values, bounds), bit for bit the held lane's entries lo..hi
    (with ``last_only``, only each chunk's last entry: ``_prefix_step``).
    """
    carry = local = last = None
    for lo, hi in _chunk_grid(n, block_size, chunk):
        if (lo - 1) % block_size == 0:
            carry, local = last, None
        v, e, *r = block_terms(lo, hi)
        v, local, last = _prefix_step(v, e, carry, local, last_only, *r)
        yield lo, v, e


# -- the terms of each prefix lane over [lo, hi] and their per-term input
# errors (and signed residuals), shared by the held lanes and the streams


def _ks(lo: int, hi: int) -> np.ndarray:
    """The float divisors lo..hi, with k = 0 as 1.0."""
    ks = np.arange(lo, hi + 1, dtype=np.float64)
    if lo == 0:
        ks[0] = 1.0
    return ks


def _reciprocals(lo: int, hi: int, mu: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The terms t_k = mu(k) fl(1/k) of k in [lo, hi] < 2^53 (mu = 1 when
    None; k = 0 taken as 1), their input errors e_k and their signed
    residuals r_k, with mu(k)/k = t_k + r_k +- e_k.

    q = fl(1/k) is a normal double M 2^(b - 1075), M in [2^52, 2^53) its
    integer significand and b its biased exponent, so Q = q 2^106 =
    M 2^(b - 969) is an integer, as q > 2^-54.  rho = 1 - k q has |rho| < u
    (the relative error of a rounding), so rho 2^106 = 2^106 - k Q is an
    integer of magnitude at most 2^53, exact as a double, and congruent to
    -k (Q mod 2^64) mod 2^64, which the wrapping uint64 shift and product
    give.  Then mu(k)/k = mu(k) q (1 + rho) exactly, and r_k = fl(rho 2^106
    t_k) 2^-106 errs by q's rounding and the product's, (2u + u^2) |r_k|:
    e_k = EPS |r_k|, the second order left to ``_HEADROOM``.
    """
    t = np.divide(1.0, _ks(lo, hi))
    bits = t.view(np.uint64)
    w = bits >> np.uint64(52)
    w -= np.uint64(969)
    m = bits & np.uint64((1 << 52) - 1)
    m |= np.uint64(1 << 52)
    np.left_shift(m, w, out=m)  # Q mod 2^64
    m *= np.arange(-lo, -hi - 1, -1, dtype=np.int64).view(np.uint64)
    if mu is not None:
        t *= mu
    r = m.view(np.int64).astype(np.float64)  # rho 2^106
    r *= t
    r *= 2.0**-106
    return t, np.abs(r) * EPS, r


def _g_terms(lo: int, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _reciprocals(lo, lo + mu.size - 1, mu)


def _f_terms(lo: int, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # log charged 2 ulp plus one division: <= 3 ulp per term
    ks = _ks(lo, lo + mu.size - 1)
    terms = np.log(ks)
    terms *= mu
    terms /= ks
    del ks
    ins = np.abs(terms)
    ins *= 3.0 * EPS
    return terms, ins


def _theta_terms(lo: int, hi: int, flags=prime_flags) -> tuple[np.ndarray, np.ndarray]:
    # log p at the primes p in [lo, hi], 0 elsewhere; each log charged 2 ulp
    terms = np.zeros(hi - lo + 1, dtype=np.float64)
    a = max(lo, 1)
    primes = np.flatnonzero(flags(a, hi)) + a
    terms[primes - lo] = np.log(primes.astype(np.float64))
    return terms, terms * (2.0 * EPS)


def _eps_sum_terms(lo: int, hi: int, eps) -> tuple[np.ndarray, np.ndarray]:
    # eps(m-1)/m at m >= 2 off the eps lane (eps(0) = 0): the eps error over
    # m plus one rounding
    terms, ins = np.zeros(hi - lo + 1), np.zeros(hi - lo + 1)
    a = max(lo, 1)
    ms = _ks(a, hi)
    np.divide(eps[0][a - 1 : hi], ms, out=terms[a - lo :])
    np.divide(eps[1][a - 1 : hi], ms, out=ins[a - lo :])
    _add_scaled_abs(ins, terms, EPS)
    return terms, ins


def _weight_terms(mods: np.ndarray, logs: np.ndarray):
    """``block_terms`` of the weights log p / m at the increasing moduli m =
    p^i (log p in ``logs``), 0 elsewhere; each is charged 2 ulp for the log
    and 1 for the division."""

    def terms(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        i, j = np.searchsorted(mods, (lo, hi + 1))
        t = np.zeros(hi - lo + 1, dtype=np.float64)
        t[mods[i:j] - lo] = logs[i:j] / mods[i:j]
        return t, t * (3.0 * EPS)

    return terms


def _moebius_segment(lo: int, hi: int) -> np.ndarray:
    return sieve_moebius(lo, hi, hi - lo + 1).values


class _Segments:
    """``sieve(lo, hi)`` (``prime_flags`` or ``_moebius_segment``) for the
    chunks of a stream over [0, n], which ask for consecutive ranges; lo = 0
    gives the zero pad (mu(0) = 0, 0 not prime) before [1, hi].  A chunk
    inside one segment (s B, (s + 1) B] of [1, n], B =
    DEFAULT_BLOCK_CAPACITY, is cut from that segment's sieve, run once when
    the stream enters it; a range across a segment edge (a whole lane, or a
    chunk astride the edge) is sieved by itself.  So a g or f stream holds
    one segment of mu and sieves each x once."""

    def __init__(self, sieve, n: int):
        self.sieve = sieve
        self.n = n
        self.segment = -1
        self.values = None

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        if lo == 0:
            return np.insert(self(1, hi), 0, 0)
        size = DEFAULT_BLOCK_CAPACITY
        s = (lo - 1) // size
        if (hi - 1) // size != s:
            return self.sieve(lo, hi)
        base = s * size
        if s != self.segment:
            self.segment, self.values = s, self.sieve(base + 1, min(base + size, self.n))
        values = self.values[lo - base - 1 : hi - base]
        if hi - base == self.values.size:  # the stream leaves the segment
            self.segment, self.values = -1, None
        return values


# A modulus with at least this many multiples in the range of
# ``_increment_terms`` adds them as one strided slice; the few multiples of
# the others are scattered together, one ``_CHUNK`` piece at a time.
_STRIDED_MIN = 64


def _increment_terms(
    lo: int,
    hi: int,
    mu: np.ndarray,
    mods: np.ndarray,
    logs: np.ndarray,
    rel_err: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The terms x^-1 sum_{q|x} L_q mu(x/q) over the prime powers q = p^i,
    i >= 2, at x in [lo, hi], and their input errors ``rel_err`` |term|;
    ``mu`` is indexed by x.

    Every add of a numerator is exact (see the tail in
    ``SummatoryTables._lane_terms``), so every x gets the same bits whatever
    range holds it and in whatever order its adds come.  Only the two
    returned arrays have the range's length.
    """
    vals = np.zeros(hi - lo + 1, dtype=np.float64)
    errs = np.empty_like(vals)  # scratch until the end
    m0 = np.maximum(-(-lo // mods), 1)  # the first cofactor of each modulus
    ks = hi // mods - m0 + 1
    dense = ks >= _STRIDED_MIN
    for q, lq, m, k in zip(*(a[dense].tolist() for a in (mods, logs, m0, ks))):
        np.multiply(mu[m : m + k], lq, out=errs[:k])
        vals[m * q - lo :: q] += errs[:k]
    sparse = (ks > 0) & ~dense
    mods, logs = mods[sparse], logs[sparse]
    for a in range(lo, hi + 1, _CHUNK):
        b = min(a + _CHUNK - 1, hi)
        m0 = np.maximum(-(-a // mods), 1)
        ks = b // mods - m0 + 1
        some = ks > 0
        q, lq, m0, ks = mods[some], logs[some], m0[some], ks[some]
        m = np.arange(int(ks.sum()))
        m -= np.repeat(np.cumsum(ks) - ks - m0, ks)  # the cofactors, modulus by modulus
        terms = np.repeat(lq, ks)
        terms *= mu[m]
        m *= np.repeat(q, ks)
        m -= a
        v = vals[a - lo : b - lo + 1]
        np.add.at(v, m, terms)
        v /= _ks(a, b)
    np.abs(vals, out=errs)
    errs *= rel_err
    return vals, errs


def _eps(xs: np.ndarray, th: np.ndarray, th_err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eps = theta/x - 1 at the float x of ``xs`` from theta's values and
    bounds there, with the bound (th_err / x + EPS th / x + EPS |eps|) *
    _HEADROOM.  Element-wise, so any set of x gets the bits of the whole lane."""
    vals = th / xs
    errs = th_err / xs
    _add_scaled_abs(errs, vals, EPS)
    vals -= 1.0
    _add_scaled_abs(errs, vals, EPS)
    errs *= _HEADROOM
    return vals, errs


def _h_terms(lo: int, hi: int, f_terms, tail_terms) -> tuple[np.ndarray, np.ndarray]:
    """The terms x^-1 sum_{p|x} L_p mu(x/p) of h at x in [lo, hi], and their
    input errors, as -(f's term + the tail's term) from ``f_terms`` and
    ``tail_terms`` (each a ``block_terms``).

    sum_{d|x} Lambda(d) mu(x/d) = -mu(x) log x (mu * Lambda = -mu log) splits
    into h's numerator and the tail's.  f's term is nonzero only at
    squarefree x and the tail's only where a square > 1 divides x, so each
    add, of the terms and of their errors, has an exact 0 operand: exact.
    The range is done in ``_CHUNK`` pieces, one term set at a time, so only
    the two returned arrays have its length.
    """
    vals = np.empty(hi - lo + 1, dtype=np.float64)
    errs = np.empty_like(vals)
    for a in range(lo, hi + 1, _CHUNK):
        b = min(a + _CHUNK - 1, hi)
        v, e = vals[a - lo : b - lo + 1], errs[a - lo : b - lo + 1]
        v[:], e[:] = f_terms(a, b)
        tv, te = tail_terms(a, b)
        v += tv
        np.subtract(0.0, v, out=v)  # not -v, which would make the 0 terms -0
        e += te
    return vals, errs


def _running_sums(mu: np.ndarray, grid: Iterator[tuple[int, int]]) -> Iterator[tuple]:
    """(a, M over [a, b]) for the consecutive (a, b) of ``grid``, from 1."""
    total = 0
    for a, b in grid:
        m = np.cumsum(mu[a : b + 1], dtype=np.int64)
        m += total
        total = int(m[-1])
        yield a, m


class SummatoryTables(_Table):
    """Shared certified prefix tables over [1, limit].

    Lazily built lanes (each an array indexed by x, position 0 a zero pad):

        mu          int8 Moebius values
        M           int64 Mertens prefix
        g, g_err    certified prefix of mu(k)/k
        f, f_err    certified prefix of mu(k) log(k)/k
        theta, theta_err    certified Chebyshev prefix
        eps, eps_err        theta/x - 1 pointwise
        E, E_err    certified prefix E(k) = sum_{m=2}^{k} eps(m-1)/m
        H, H_err    certified harmonic prefix
        h, h_err    certified prefix of x^-1 sum_{p|x} log p mu(x/p)
        tail, tail_err      certified prefix of x^-1 sum_{p^i|x, i>=2} log p mu(x/p^i)
        P, P_err    certified prefix P(k) = sum_{p<=k} log p / p
        T, T_err    certified prefix T(k) = sum_{p^i<=k, i>=2} log p / p^i

    The h and tail lanes are h(x) and the prime-power tail summed by their
    increments, which need only mu; h's increment is minus f's and the
    tail's (``_h_terms``).  ``h_direct`` and ``identities.prime_power_tail``
    return their entries.  ``h_certified``, ``tail_certified`` and
    ``_run_sums`` (at every x of a range) sum the same quantities from the g
    lane instead, over the floor-quotient runs of x with the weight lanes P
    and T: the independent side of the decomposition check f = -h - tail,
    which summed by increments holds by construction and checks nothing.

    ``block_size`` is the length of one ``np.cumsum`` in the prefix lanes; it
    changes their low-order bits, and above ``MAX_PREFIX_BLOCK`` (2^28) the
    error bounds are no longer sound, so it raises ``ValueError``.

    Immutable once built; safe to share read-only between scan consumers.
    ``_lane_terms`` gives the terms of every prefix lane (g, f, theta, H, h,
    tail, E, P and T) over any [lo, hi]: each held lane is ``_held_prefix``
    over them, ``_chunks`` streams a lane the tables do not hold and ``_at``
    reads one entry.  E's terms, and so its stream, read the held eps lane.
    mu follows one rule: g's and f's terms read the held mu lane when the
    tables hold it, and else sieve mu one 2^20 segment at a time
    (``_Segments``); only the readers of mu outside their own chunk, the
    tail's and h's increments (at x / q) and M, build the lane.
    """

    def __init__(self, limit: int, block_size: int = DEFAULT_BLOCK_CAPACITY):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if not 1 <= block_size <= MAX_PREFIX_BLOCK:
            raise ValueError(f"block_size must lie in [1, 2^28], got {block_size}")
        self.limit = int(limit)
        self.block_size = int(block_size)

    # -- integer lanes

    @_lane("_mu")
    def mu(self) -> np.ndarray:
        return moebius_values_upto(self.limit)

    @_lane("_M")
    def mertens(self) -> np.ndarray:
        m = self.mu.astype(np.int64)
        np.cumsum(m, out=m)
        m.flags.writeable = False
        return m

    @_lane("_primes")
    def primes(self) -> np.ndarray:
        return _primes_upto(self.limit)

    # -- certified lanes, each a (values, bounds) pair

    g_arrays = _prefix_lane("_g")
    f_arrays = _prefix_lane("_f")
    theta_arrays = _prefix_lane("_theta")
    harmonic_arrays = _prefix_lane("_H")
    h_arrays = _prefix_lane("_h")
    tail_arrays = _prefix_lane("_tail")
    eps_sum_arrays = _prefix_lane("_eps_sum")
    P_arrays = _prefix_lane("_P")
    T_arrays = _prefix_lane("_T")

    @_lane("_eps")
    def eps_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        vals, errs = _eps(_ks(0, self.limit), *self.theta_arrays)
        vals[0] = errs[0] = 0.0
        vals.flags.writeable = False
        errs.flags.writeable = False
        return vals, errs

    def _prime_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """The prime powers p^i <= limit, i >= 2, in increasing order, with log p."""
        n = self.limit
        ps = _primes_upto(isqrt(n))
        mods, logs = [], []
        for p, lp in zip(ps.tolist(), np.log(ps.astype(np.float64)).tolist()):
            q = p * p
            while q <= n:
                mods.append(q)
                logs.append(lp)
                q *= p
        order = np.argsort(mods)
        return np.array(mods, dtype=np.int64)[order], np.array(logs)[order]

    def _lane_terms(self, attr: str):
        """``block_terms(lo, hi)`` of the prefix lane cached in ``attr``
        (``"_g"``, ``"_f"``, ``"_theta"``, ``"_H"``, ``"_h"``, ``"_tail"``,
        ``"_eps_sum"``, ``"_P"`` or ``"_T"``): the lane's terms over [lo, hi],
        their input errors and, for g and H, their signed residuals; lo = 0
        gives the zero pad.  g and f read mu by the class's rule, and E's
        terms read the held eps lane."""
        if attr == "_theta":
            return functools.partial(_theta_terms, flags=_Segments(prime_flags, self.limit))
        if attr == "_H":
            return _reciprocals
        if attr == "_eps_sum":
            return functools.partial(_eps_sum_terms, eps=self.eps_arrays)
        if attr == "_P":
            return _weight_terms(self.primes, np.log(self.primes.astype(np.float64)))
        if attr == "_T":
            return _weight_terms(*self._prime_powers())
        if attr in ("_g", "_f"):
            terms = _g_terms if attr == "_g" else _f_terms
            held = getattr(self, "_mu", None)
            if held is None:
                mu = _Segments(_moebius_segment, self.limit)
                return lambda lo, hi: terms(lo, mu(lo, hi))
            return lambda lo, hi: terms(lo, held[lo : hi + 1])
        # the tail: a numerator is 0 unless x = p^v m with m squarefree and
        # prime to p, and then L_p mu(m) (v = 2) or L_p mu(m) - L_p mu(m) = 0
        # (v >= 3): exact, so only the log (2 EPS) and the division (u) err
        mu, (mods, logs) = self.mu, self._prime_powers()

        def tail(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            return _increment_terms(lo, hi, mu, mods, logs, 2.5 * EPS)

        if attr == "_tail":
            return tail
        f = self._lane_terms("_f")  # on the mu lane the tail has built
        return lambda lo, hi: _h_terms(lo, hi, f, tail)

    def _chunks(self, attr: str, lo: int, hi: int, chunk: int) -> Iterator[tuple]:
        """The lane cached in ``attr`` over [lo, hi] as (a, values, bounds) at
        x in [a, a + values.size), on the ``_chunk_grid`` of ``chunk``: slices
        of the lane if the tables hold it, else a stream that builds no float
        lane but E's, whose terms read the held eps lane: a prefix lane's
        ``_prefix_stream`` from x = 1, eps by ``_eps`` from theta's chunks, M
        (values only) by ``_running_sums`` over the mu lane."""
        held = getattr(self, attr, None)
        grid = _chunk_grid(hi, self.block_size, chunk)
        if attr == "_M":
            chunks = _running_sums(self.mu, grid)
        elif held is not None:
            vals, errs = held
            chunks = ((a, vals[a : b + 1], errs[a : b + 1]) for a, b in grid)
        elif attr == "_eps":
            theta = self._chunks("_theta", lo, hi, chunk)
            chunks = ((a, *_eps(_ks(a, a + t.size - 1), t, e)) for a, t, e in theta)
        else:
            chunks = _prefix_stream(hi, self.block_size, self._lane_terms(attr), chunk)
        for a, *lanes in chunks:
            s = max(lo - a, 0)
            if s < lanes[0].size:
                yield (a + s, *(v[s:] for v in lanes))

    def _at(self, attr: str, x: int) -> CertifiedFloat:
        """Entry x of the prefix lane cached in ``attr``: the held entry, or
        else the last of its ``_prefix_stream`` to x, run in ``_CHUNK`` pieces
        that finish only their last entry: O(chunk) floats at a time, and the
        bits of the held entry."""
        held = getattr(self, attr, None)
        if held is not None:
            return CertifiedFloat(float(held[0][x]), float(held[1][x]))
        for _, v, e in _prefix_stream(x, self.block_size, self._lane_terms(attr), _CHUNK, True):
            pass
        return CertifiedFloat(float(v[-1]), float(e[-1]))

    def _sample(self, attr: str, stride: int, hi: int) -> list[np.ndarray]:
        """The lane ``_chunks`` reads for ``attr`` at x = stride, 2 stride, ...
        <= hi, gathered from each chunk into new arrays: [values, bounds], or
        [M] for ``"_M"``."""
        dtypes = [np.int64] if attr == "_M" else [np.float64] * 2
        out = [np.empty(hi // stride, dtype) for dtype in dtypes]
        for a, *parts in self._chunks(attr, stride, hi, _CHUNK):
            s = -a % stride
            i = (a + s) // stride - 1
            for o, v in zip(out, parts):
                v = v[s::stride]
                o[i : i + v.size] = v
        return out

    # -- pointwise certified accessors

    def h_certified(self, x: int) -> CertifiedFloat:
        """h(x) over the runs of x with the prime weight lane ``P_arrays``."""
        [(v, e)] = self._run_sums(x, x, self.P_arrays)
        return CertifiedFloat(float(v[0]), float(e[0]))

    def tail_certified(self, x: int) -> CertifiedFloat:
        """sum_{p<=x} log p * sum_{i>=2, p^i<=x} g(x/p^i)/p^i, certified (signed),
        over the runs of x with the prime-power weight lane ``T_arrays``."""
        [(v, e)] = self._run_sums(x, x, self.T_arrays)
        return CertifiedFloat(float(v[0]), float(e[0]))

    def _check_arg(self, x: int) -> None:
        if x < 1 or x > self.limit:
            raise ValueError(f"x must lie in [1, {self.limit}], got {x}")

    def _run_sums(self, lo: int, hi: int, *lanes) -> list[tuple[np.ndarray, np.ndarray]]:
        """sum_nu w(nu) g(floor(x/nu)) and its bound at every x in [lo, hi], one
        pair of arrays per weight prefix lane W (``P_arrays``, ``T_arrays``).

        Each x is summed over its floor-quotient runs (``_run_batches``), the
        terms built by ``_run_terms`` and reduced by ``_reduce_runs``; the runs
        are laid out once for all the lanes.
        """
        self._check_arg(lo)
        self._check_arg(hi)
        gv, ge = self.g_arrays
        out = [(np.empty(hi - lo + 1), np.empty(hi - lo + 1)) for _ in lanes]
        for a, q, nu_hi, starts, counts in _run_batches(lo, hi):
            gq, gq_err = gv[q], ge[q]
            b = a - lo
            for (vals, errs), lane in zip(out, lanes):
                terms = _run_terms(gq, gq_err, lane, nu_hi, starts)
                vals[b : b + counts.size], errs[b : b + counts.size] = _reduce_runs(
                    starts, counts, terms
                )
        return out


# ---------------------------------------------------------------------------
# The floor-quotient run kernel
# ---------------------------------------------------------------------------

# Most run positions one batch of ``_run_batches`` lays out (at least one x):
# the kernels' twenty-odd batch arrays then take about 0.7 MB, whatever the range.
_RUN_BATCH = 1 << 12


def _run_counts(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """isqrt(y) of every root y of an int64 array (the float root, corrected
    by one each way) and the number of positions of y's ``_run_layout``."""
    s = np.sqrt(ys).astype(np.int64)
    s -= s * s > ys
    s += (s + 1) * (s + 1) <= ys
    return s, s + ys // (s + 1)


def _run_layout(ys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The floor-quotient runs of every root y of an int64 array, one root
    after another: (q, nu_hi, starts, counts).

    y owns counts[i] positions p = 0 .. counts[i] - 1 from starts[i] on: a
    nu = 1 head (q, nu_hi) = (y, 1), each nu = p + 1 <= isqrt(y) on its own,
    then one run per q = counts[i] - p <= y // (isqrt(y) + 1), which is
    ``fast._runs(y)``'s (q, nu_hi) after the head.  So a run's nu_lo - 1 is
    the nu_hi of the position before it.  One int64 division per position.
    """
    s, counts = _run_counts(ys)
    ends = np.cumsum(counts)
    starts = ends - counts
    sizes = np.column_stack((s, counts - s)).ravel()  # the single nu, then the runs
    d = np.repeat(np.column_stack((starts - 1, ends)).ravel(), sizes)
    d -= np.arange(d.size)  # -(p + 1) at the single nu, then q = counts - p
    single = d < 0
    np.abs(d, out=d)
    z = np.repeat(ys, counts) // d
    return np.where(single, z, d), np.where(single, d, z), starts, counts


def _run_batches(lo: int, hi: int) -> Iterator[tuple]:
    """The floor-quotient runs of every x in [lo, hi], in batches of consecutive x.

    Yields (a, q, nu_hi, starts, counts), the ``_run_layout`` of the x in
    [a, a + counts.size).  A batch holds at most ``_RUN_BATCH`` positions
    unless its one x needs more.
    """
    xs = np.arange(lo, hi + 1, dtype=np.int64)
    _, counts = _run_counts(xs)
    ends = np.cumsum(counts)
    i = 0
    while i < xs.size:
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - counts[i] + _RUN_BATCH, side="right")))
        yield (lo + i, *_run_layout(xs[i:j]))
        i = j


def _run_terms(
    gq: np.ndarray,
    gq_err: np.ndarray,
    lane: tuple[np.ndarray, np.ndarray],
    nu_hi: np.ndarray,
    starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Terms g(q) (W(nu_hi) - W(nu_lo - 1)) of a ``_run_batches`` layout, and
    their input errors, for g read at the runs' q and a certified prefix lane W
    of the weights.  Each term carries the errors of g and of the two lane
    entries, and one rounding for the difference and one for the product."""
    Wv, We = lane
    W1, W1e = Wv[nu_hi], We[nu_hi]
    W0, W0e = np.empty_like(W1), np.empty_like(W1)  # at nu_lo - 1
    W0[1:], W0e[1:] = W1[:-1], W1e[:-1]
    W0[starts] = W0e[starts] = 0.0  # W(0) for the nu = 1 head
    w = W1 - W0
    w_err = W1e + W0e + EPS * np.abs(w)
    t = gq * w
    return t, np.abs(gq) * w_err + gq_err * (np.abs(w) + w_err) + EPS * np.abs(t)


def _reduce_runs(
    starts: np.ndarray, counts: np.ndarray, *term_sets: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-x sums of k term sets laid out alike, and their bounds.

    Each set is reduced by ``np.add.reduceat`` in an order it does not fix,
    and the k sums are added, so x's sum is charged EPS * sum|t| *
    (k * counts + 8), valid for any order, plus the terms' input errors.
    Every x owns at least its head position, so no segment is empty
    (reduceat would return the next term for an empty one).
    """
    (t, ins), *rest = term_sets
    val = np.add.reduceat(t, starts)
    mag = np.abs(t)
    for t2, ins2 in rest:
        val += np.add.reduceat(t2, starts)
        mag += np.abs(t2)
        ins = ins + ins2
    mag = np.add.reduceat(mag, starts)
    ins = np.add.reduceat(ins, starts)
    return val, (EPS * mag * (len(term_sets) * counts + 8.0) + ins) * _HEADROOM


# ---------------------------------------------------------------------------
# Series scanning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePoint:
    x: int
    g: CertifiedFloat
    f: CertifiedFloat
    M: int
    theta: CertifiedFloat
    epsilon: CertifiedFloat
    h: CertifiedFloat


@dataclass(frozen=True)
class SummatorySeries:
    """Columnar table of sample records at x = stride, 2*stride, ...

    Fields are parallel arrays; ``record(i)`` materialises one SamplePoint.
    """

    xs: np.ndarray
    g: np.ndarray
    g_err: np.ndarray
    f: np.ndarray
    f_err: np.ndarray
    M: np.ndarray
    theta: np.ndarray
    theta_err: np.ndarray
    epsilon: np.ndarray
    epsilon_err: np.ndarray
    h: np.ndarray
    h_err: np.ndarray

    def __len__(self) -> int:
        return int(self.xs.size)

    def record(self, i: int) -> SamplePoint:
        return SamplePoint(
            x=int(self.xs[i]),
            g=CertifiedFloat(float(self.g[i]), float(self.g_err[i])),
            f=CertifiedFloat(float(self.f[i]), float(self.f_err[i])),
            M=int(self.M[i]),
            theta=CertifiedFloat(float(self.theta[i]), float(self.theta_err[i])),
            epsilon=CertifiedFloat(float(self.epsilon[i]), float(self.epsilon_err[i])),
            h=CertifiedFloat(float(self.h[i]), float(self.h_err[i])),
        )

    def __iter__(self) -> Iterator[SamplePoint]:
        return (self.record(i) for i in range(len(self)))


def series_scan(
    limit: int, stride: int, *, tables: SummatoryTables | None = None
) -> SummatorySeries:
    """Sample records at multiples of ``stride``, with the bits of the table
    lanes there, gathered chunk by chunk (``SummatoryTables._sample``).

    Each record is the pointwise operations' values and bounds, bit for bit
    (M exactly).  h comes from the increment lane ``h_arrays``, not from
    per-sample run sums, so its low-order bits differ from ``h_certified``'s
    while the intervals overlap.
    """
    if limit < 1 or stride < 1:
        raise ValueError(f"need limit >= 1 and stride >= 1, got {limit}, {stride}")
    tables = SummatoryTables._covering(tables, limit)
    xs = np.arange(stride, limit + 1, stride, dtype=np.int64)
    # h first: its increments build the mu lane, which g, f and M then read
    lanes = ("_h", "_g", "_f", "_theta", "_M")
    h, g, f, theta, M = (tables._sample(a, stride, limit) for a in lanes)
    eps = _eps(xs.astype(np.float64), *theta)
    return SummatorySeries(xs, *g, *f, *M, *theta, *eps, *h)


# ---------------------------------------------------------------------------
# Harmonic differences H(b) - H(m), certified relative to the difference
# ---------------------------------------------------------------------------

_H_SMALL_LIMIT = 512
# the relative charges of ``_harmonic_diff``'s entries: on its log1p path
# (runs from 512 on) and on its table path (runs below 512)
_H_DIFF_REL = 3.53 * EPS
_H_TABLE_REL = EPS * (1.0 + 2.0**-30)


@functools.lru_cache(maxsize=1)
def _small_harmonic() -> tuple[np.ndarray, np.ndarray]:
    """H(n) = hi + lo + e for 0 <= n <= 2 ``_H_SMALL_LIMIT``: hi the double
    nearest H(n) and lo the double nearest H(n) - hi, so |lo| <= u H(n) and
    |e| <= u |lo|, u = EPS/2.  H(n) = S_n / L with L = lcm(1..1024) and the
    integer S_n = sum_{k<=n} L // k, and int/int true division rounds
    correctly."""
    n = 2 * _H_SMALL_LIMIT
    L = lcm_upto(n)
    hi, lo = [], []
    for s in itertools.accumulate((L // k for k in range(1, n + 1)), initial=0):
        h = s / L
        a, p = h.as_integer_ratio()
        hi.append(h)
        lo.append((s * p - a * L) / (L * p))
    return np.array(hi), np.array(lo)


def _harmonic_diff(b: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, r): w = H(b) - H(m) for int64 arrays 0 <= m < b < 2^53, m
    non-increasing and b <= 2 ``_H_SMALL_LIMIT`` wherever m <
    ``_H_SMALL_LIMIT``, and each entry's relative charge r: w errs by at
    most r w.  Let u = EPS/2.

    A run of one nu, b = m + 1, is w = fl(1/b), rounded once: |w - 1/b|
    <= u w (round to nearest, Higham, Thm. 2.3), so r = u.

    Below the limit, w = fl(fl(A) + fl(B)) with A = hi_b - hi_m and
    B = lo_b - lo_m off ``_small_harmonic``, and H(b) - H(m) = A + B + E
    with |E| <= |e_b| + |e_m| <= 16u^2 (|lo| <= 8u there, as H(1024) < 8).
    The three roundings err by at most u |A|, u |B| <= 16u^2 and u w, and
    |A| <= W + |B| + |E|, W = H(b) - H(m), so |w - W| <= u (W + w) + 48u^2
    + O(u^3).  W >= 1/b >= 2^-10, so 48u^2 <= 2^-90 W, and W <= w (1 + 3u):
    |w - W| <= EPS w (1 + 2^-37), under r = ``_H_TABLE_REL`` =
    EPS (1 + 2^-30).  No run subtracts two rounded H(n), whose errors would
    be relative to H and not to w.

    From the limit on (m >= 512), with d = b - m and z = d/m, Euler-Maclaurin
    (the expansion of H and its remainder, NIST DLMF 2.10 and 5.11) gives

        w = log1p(z) - C + rho,  C = (d/(bm)) P,
        P = 1/2 - s1 (1/12 - s2/120),  s1 = 1/b + 1/m,  s2 = 1/b^2 + 1/m^2,

    C being -d/(2bm) + d(b+m)/(12 b^2 m^2) - (1/(120 m^4) - 1/(120 b^4)), and
    H(n) = log n + gamma + 1/(2n) - 1/(12n^2) + 1/(120n^4) - r_n with
    0 < r_n < 1/(252 n^6), so rho = r_m - r_b and |rho| < 1/(252 m^6); gamma
    cancels.  Let L = log1p(z); L >= z/(1+z) = d/b >= 1/(m+1), and C <= L/(2m).
      - z rounds once, and log1p's gain z/((1+z) log1p z) <= 1 passes that
        on as at most u L; log1p itself is charged 2 ulp, 2 EPS L.
      - C: z, 1/b, their product, P and the last product round once each,
        and P's own roundings are under 1.01u P (s1 (...) <= 7e-4 P), so
        C errs by under 5.1u C <= 0.005u L; w = L - C rounds once, u L.
      - |rho| < (m+1)/(252 m^6) L <= 0.51 EPS L at m >= 512.
    In all, 3.5125 EPS L, and L <= w (1 + 1/1023): 3.52 EPS w to first order.
    So r = ``_H_DIFF_REL`` = 3.53 EPS bounds every such entry; its slack and
    ``_HEADROOM`` cover the second order.
    """
    w = np.empty(b.size)
    single = np.flatnonzero(b - m == 1)
    c = int(np.count_nonzero(m >= _H_SMALL_LIMIT))
    if c:
        bl, ml, L = b[:c], m[:c], w[:c]
        z = np.subtract(bl, ml)  # d, and then d/m in its memory
        z = np.divide(z, ml, out=z.view(np.float64))
        np.log1p(z, out=L)
        ib, im = np.divide(1.0, bl), np.divide(1.0, ml)
        z *= ib  # d/(bm)
        s1 = ib + im
        ib *= ib
        im *= im
        ib += im  # s2
        ib *= -1.0 / 120.0
        ib += 1.0 / 12.0
        ib *= s1
        np.subtract(0.5, ib, out=ib)  # P
        z *= ib
        L -= z
    if c < b.size:
        hi, lo = _small_harmonic()
        bs, ms = b[c:], m[c:]
        np.subtract(hi.take(bs), hi.take(ms), out=w[c:])
        w[c:] += lo.take(bs) - lo.take(ms)
    w[single] = np.divide(1.0, b[single])
    r = np.full(b.size, _H_DIFF_REL)
    r[c:] = _H_TABLE_REL
    r[single] = 0.5 * EPS
    return w, r


def harmonic_number(n: int) -> CertifiedFloat:
    """Certified H(n) for 0 <= n < 2^53: the exact table's entry up to
    ``_H_SMALL_LIMIT``, and above it the table's H(512) plus the segment
    (512, n] of ``_harmonic_diff``, which the g recursion's run weights use."""
    if not 0 <= n < 2**53:
        raise ValueError(f"n must lie in [0, 2^53), got {n}")
    hi, lo = _small_harmonic()
    if n <= _H_SMALL_LIMIT:
        return CertifiedFloat(float(hi[n]), abs(float(lo[n])) * _HEADROOM)
    [w], [r] = _harmonic_diff(np.array([n]), np.array([_H_SMALL_LIMIT]))
    v = float(hi[_H_SMALL_LIMIT]) + w
    err = abs(float(lo[_H_SMALL_LIMIT])) + float(r * w) + 0.5 * EPS * v
    return CertifiedFloat(v, err * _HEADROOM)
