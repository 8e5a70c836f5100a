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
rational results are identical; only the encoding differs.

``SummatoryTables`` holds certified-float prefix arrays over [1, limit] for
the scan-style consumers (identity checks, bound scans, series sampling).
All tables are immutable after construction and safe to share read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Union

import numpy as np

from .certified import (
    EPS,
    EULER_GAMMA,
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

# An exact rational value; always in lowest terms with positive denominator.
ExactRational = Fraction

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


def _exact_ratio(x: Real) -> Fraction:
    """The argument as an exact rational (floats via their binary expansion)."""
    return x if isinstance(x, Fraction) else Fraction(x)


def floor_div(x: Real, d: int) -> int:
    """floor(x / d) computed exactly for int, float, or Fraction x."""
    if isinstance(x, (int, np.integer)):
        return int(x) // d
    return math.floor(_exact_ratio(x) / d)


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


class ScaledMoebiusPrefix:
    """Exact prefix sums of mu(k)/k, scaled by L = lcm(1..limit).

    ``scaled_g[k] = g(k) * L`` is an integer for every k <= limit, so the
    whole table builds with integer adds.  Optional companion tables (scaled
    harmonic numbers, scaled cumulative sums of g) are built lazily; they are
    what the exact identity checks consume.
    """

    def __init__(self, limit: int, mu: np.ndarray | None = None):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self.denominator = lcm_upto(limit)
        if mu is None:
            mu = moebius_values_upto(limit)
        L = self.denominator
        gn = [0] * (limit + 1)
        acc = 0
        for k in range(1, limit + 1):
            m = int(mu[k])
            if m:
                acc += m * (L // k)
            gn[k] = acc
        self.scaled_g = gn
        self._scaled_harmonic: list[int] | None = None
        self._scaled_g_cumsum: list[int] | None = None

    def g_fraction(self, k: int) -> Fraction:
        return Fraction(self.scaled_g[k], self.denominator)

    @property
    def scaled_harmonic(self) -> list[int]:
        """H(k) * L as integers, H the harmonic number."""
        if self._scaled_harmonic is None:
            L = self.denominator
            hl = [0] * (self.limit + 1)
            acc = 0
            for k in range(1, self.limit + 1):
                acc += L // k
                hl[k] = acc
            self._scaled_harmonic = hl
        return self._scaled_harmonic

    @property
    def scaled_g_cumsum(self) -> list[int]:
        """(sum_{j<=k} g(j)) * L as integers."""
        if self._scaled_g_cumsum is None:
            sg = [0] * (self.limit + 1)
            acc = 0
            for k in range(1, self.limit + 1):
                acc += self.scaled_g[k]
                sg[k] = acc
            self._scaled_g_cumsum = sg
        return self._scaled_g_cumsum


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
    the exactness cutoff (feasible somewhat beyond, at desk patience).
    """
    n = floor_arg(x)
    if n < 1:
        return Fraction(0)
    pre = ScaledMoebiusPrefix(n)
    return pre.g_fraction(n)


def big_m(x: Real) -> int:
    """Mertens function M(x) = sum_{k<=x} mu(k); 0 for x < 1."""
    n = floor_arg(x)
    total = 0
    if n >= 1:
        for block in iter_moebius_blocks(1, n):
            total += int(block.values.sum(dtype=np.int64))
    return total


def g_float(x: Real) -> CertifiedFloat:
    """Certified sum_{k<=x} mu(k)/k: the g lane's entry at x, in O(block) memory."""
    n = floor_arg(x)
    if n < 1:
        return ZERO
    return _stream_at(n, lambda lo, hi: _g_terms(lo, sieve_moebius(lo, hi).values))


def f_value(x: Real) -> CertifiedFloat:
    """Certified sum_{k<=x} mu(k) log(k)/k: the f lane's entry at x.

    Defined for x >= 1; the k = 1 term has weight log 1 = 0, so f is 0 on
    [1, 2).
    """
    n = floor_arg(x)
    if n < 1:
        raise ValueError(f"f is defined for x >= 1, got {x}")
    return _stream_at(n, lambda lo, hi: _f_terms(lo, sieve_moebius(lo, hi).values))


def theta(x: Real) -> CertifiedFloat:
    """Chebyshev theta(x) = sum_{p<=x} log p: the theta lane's entry at x; 0 for x < 2."""
    n = floor_arg(x)
    if n < 1:
        return ZERO
    return _stream_at(n, _theta_block_terms)


def epsilon(x: Real) -> CertifiedFloat:
    """Relative deviation theta(x)/x - 1; by convention 0 at x = 0."""
    xr = _exact_ratio(x)
    if xr == 0:
        return ZERO
    if xr < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    th = theta(x)
    xf = float(xr)
    if xf == xr:
        return th.div_exact(xf).add_exact(-1.0)
    return th.mul(from_exact(1 / xr)).add_exact(-1.0)


def harmonic(x: Real) -> CertifiedFloat:
    """Certified sum_{k<=x} 1/k for x >= 1: the H lane's entry at x."""
    n = floor_arg(x)
    if n < 1:
        raise ValueError(f"harmonic sum needs x >= 1, got {x}")
    return _stream_at(n, _H_terms)


def h_direct(x: Real, *, tables: "SummatoryTables | None" = None) -> CertifiedFloat:
    """h(x) = sum_{p<=x} (log p / p) g(x/p), certified: ``tables.h_certified``
    on ``SummatoryTables(floor(x))`` unless scan consumers share ``tables``."""
    n = floor_arg(x)
    if n < 1:
        raise ValueError(f"h is defined for x >= 1, got {x}")
    if tables is None:
        tables = SummatoryTables(n)
    return tables.h_certified(n)


# ---------------------------------------------------------------------------
# Certified-float prefix tables
# ---------------------------------------------------------------------------


# Largest block of one np.cumsum in ``_prefix_with_err``: the bound's own
# float sum over a block is then off by under block * EPS/2 <= 2^-25 of
# itself, which ``_HEADROOM`` (2^-24) covers.
MAX_PREFIX_BLOCK = 1 << 28

# Chunk length of the element-wise passes that need a temporary array.
_CHUNK = 1 << 16


def _add_scaled_abs(
    acc: np.ndarray, v: np.ndarray, c: float, where: np.ndarray | None = None
) -> None:
    """acc += c * |v| (only where ``where`` is set, if given), through
    chunk-sized temporaries."""
    for lo in range(0, v.size, _CHUNK):
        t = np.abs(v[lo : lo + _CHUNK])
        t *= c
        if where is not None:
            t *= where[lo : lo + _CHUNK]
        acc[lo : lo + _CHUNK] += t


def _prefix_step(
    v: np.ndarray, e: np.ndarray, carry: tuple[float, float] | None, last_only: bool = False
) -> tuple[float, float]:
    """One block of ``_prefix_with_err``, in place; returns the next carry.

    The block's terms ``v`` and input errors ``e`` become its prefix values
    and bounds (with ``last_only`` only the last entry of each; the rest stay
    block-local).  ``carry`` is None for the block that starts at k = 1.
    """
    u = 0.5 * EPS
    # adding an exact 0 rounds nothing, so only the nonzero terms' adds are charged
    nonzero = v[1:] != 0.0
    np.cumsum(v, out=v)
    _add_scaled_abs(e[1:], v[1:], u, nonzero)
    np.cumsum(e, out=e)
    if last_only:
        v, e = v[-1:], e[-1:]
    if carry is not None:
        v += carry[0]
        e += carry[1]
        _add_scaled_abs(e, v, u)
    e *= _HEADROOM
    return float(v[-1]), float(e[-1])


def _prefix_with_err(
    terms: np.ndarray, input_err_terms: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative sums of ``terms`` (index 0 unused) with certified bounds.

    Works in place: ``terms`` becomes the prefix and ``input_err_terms`` its
    error bound, so both must be float64 arrays the caller gives up.

    Each block of ``block_size`` terms is summed by ``np.cumsum``, which adds
    left to right, and every block after the first is then offset by the
    last prefix value of the block before (the carry).  Under
    round-to-nearest an add whose result is s errs by at most u * |s|, with
    u = EPS/2, so element k of a block is charged Wilkinson's running bound
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.3)

        sum_{j<=k} (e_j + u * |l_j| [j >= 2, t_j != 0]) + c * (u * |s_k| + err_carry),

    times ``_HEADROOM``.  Here e_j is the term's input error, l_j the
    block's own prefix sums (a block's first element is a term, not a sum,
    and costs nothing, which keeps exact singletons at +/- 0; an add of a
    zero term t_j returns l_{j-1} exactly and costs nothing), and c = 1 in
    every block but the first (the carry add and the carry's own error).
    ``_HEADROOM`` covers the float error of the bound's own cumsum, below
    block_size * u; hence ``MAX_PREFIX_BLOCK``.  ``_prefix_stream`` runs the
    same step over blocks built one at a time.
    """
    terms[0] = input_err_terms[0] = 0.0
    carry = None
    for lo in range(1, terms.size, block_size):
        hi = lo + block_size
        carry = _prefix_step(terms[lo:hi], input_err_terms[lo:hi], carry)
    terms.flags.writeable = False
    input_err_terms.flags.writeable = False
    return terms, input_err_terms


def _prefix_stream(n: int, block_size: int, block_terms) -> Iterator[tuple]:
    """A prefix lane over [1, n], one aligned block at a time, keeping only the carry.

    ``block_terms(lo, hi)`` gives the terms of [lo, hi] and their input errors;
    yields (lo, values, bounds), bit for bit ``_prefix_with_err``'s entries lo..hi.
    """
    carry = None
    for lo in range(1, n + 1, block_size):
        v, e = block_terms(lo, min(lo + block_size - 1, n))
        carry = _prefix_step(v, e, carry)
        yield lo, v, e


def _stream_at(n: int, block_terms) -> CertifiedFloat:
    """Entry n of ``_prefix_stream`` at the default block size, finishing only
    each block's last entry and dropping the block before building the next."""
    carry = None
    for lo in range(1, n + 1, DEFAULT_BLOCK_CAPACITY):
        hi = min(lo + DEFAULT_BLOCK_CAPACITY - 1, n)
        carry = _prefix_step(*block_terms(lo, hi), carry, last_only=True)
    return CertifiedFloat(*carry)


# -- the terms of each prefix lane over [lo, hi] and their per-term input
# errors, shared by the table lanes (lo = 0, the zero pad) and the streams


def _ks(lo: int, hi: int) -> np.ndarray:
    """The float divisors lo..hi, with k = 0 as 1.0."""
    ks = np.arange(lo, hi + 1, dtype=np.float64)
    if lo == 0:
        ks[0] = 1.0
    return ks


def _g_terms(lo: int, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # one inexact division per nonzero term: <= 1 ulp each
    terms = _ks(lo, lo + mu.size - 1)
    np.divide(mu, terms, out=terms)
    ins = np.abs(terms)
    ins *= EPS
    return terms, ins


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


def _theta_terms(lo: int, hi: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # log p at the primes p in [lo, hi], 0 elsewhere; each log charged 2 ulp
    terms = np.zeros(hi - lo + 1, dtype=np.float64)
    terms[primes - lo] = np.log(primes.astype(np.float64))
    return terms, terms * (2.0 * EPS)


def _theta_block_terms(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    return _theta_terms(lo, hi, np.flatnonzero(prime_flags(lo, hi)) + lo)


def _H_terms(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    terms = _ks(lo, hi)
    np.divide(1.0, terms, out=terms)
    ins = terms * EPS
    # 1/k is exact when k is a power of two
    ins[[(1 << i) - lo for i in range(hi.bit_length()) if 1 << i >= lo]] = 0.0
    return terms, ins


class SummatoryTables:
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
    increments, which need only mu.  ``h_certified``, ``tail_certified`` and
    ``_run_sums`` (at every x of a range) sum the same quantities from the g
    lane instead, over the floor-quotient runs of x with the weight lanes P
    and T; the decomposition check f = -h - tail needs that form, because
    summed by increments it reduces to -mu(x) log x and would check nothing.

    ``block_size`` is the length of one ``np.cumsum`` in the prefix lanes; it
    changes their low-order bits, and above ``MAX_PREFIX_BLOCK`` (2^28) the
    error bounds are no longer sound, so it raises ``ValueError``.

    Immutable once built; safe to share read-only between scan consumers.
    A lane dropped with ``_release`` is rebuilt bit for bit on its next read.
    """

    def __init__(self, limit: int, block_size: int = DEFAULT_BLOCK_CAPACITY):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if not 1 <= block_size <= MAX_PREFIX_BLOCK:
            raise ValueError(f"block_size must lie in [1, 2^28], got {block_size}")
        self.limit = int(limit)
        self.block_size = int(block_size)
        self._mu: np.ndarray | None = None
        self._M: np.ndarray | None = None
        self._g: tuple[np.ndarray, np.ndarray] | None = None
        self._f: tuple[np.ndarray, np.ndarray] | None = None
        self._theta: tuple[np.ndarray, np.ndarray] | None = None
        self._eps: tuple[np.ndarray, np.ndarray] | None = None
        self._eps_sum: tuple[np.ndarray, np.ndarray] | None = None
        self._H: tuple[np.ndarray, np.ndarray] | None = None
        self._h: tuple[np.ndarray, np.ndarray] | None = None
        self._tail: tuple[np.ndarray, np.ndarray] | None = None
        self._primes: np.ndarray | None = None
        self._P: tuple[np.ndarray, np.ndarray] | None = None
        self._T: tuple[np.ndarray, np.ndarray] | None = None

    # -- integer lanes

    @property
    def mu(self) -> np.ndarray:
        if self._mu is None:
            self._mu = moebius_values_upto(self.limit)
        return self._mu

    @property
    def mertens(self) -> np.ndarray:
        if self._M is None:
            m = self.mu.astype(np.int64)
            np.cumsum(m, out=m)
            m.flags.writeable = False
            self._M = m
        return self._M

    @property
    def primes(self) -> np.ndarray:
        if self._primes is None:
            self._primes = _primes_upto(self.limit)
        return self._primes

    # -- certified lanes

    def _build_g(self) -> tuple[np.ndarray, np.ndarray]:
        return _prefix_with_err(*_g_terms(0, self.mu), self.block_size)

    def _build_f(self) -> tuple[np.ndarray, np.ndarray]:
        return _prefix_with_err(*_f_terms(0, self.mu), self.block_size)

    def _build_theta(self) -> tuple[np.ndarray, np.ndarray]:
        return _prefix_with_err(*_theta_terms(0, self.limit, self.primes), self.block_size)

    def _build_eps(self) -> tuple[np.ndarray, np.ndarray]:
        # (th_err / x + EPS th / x + EPS |vals|) * _HEADROOM, in place
        th, th_err = self.theta_arrays
        xs = _ks(0, self.limit)
        vals = th / xs
        errs = th_err / xs
        del xs
        _add_scaled_abs(errs, vals, EPS)
        vals -= 1.0
        _add_scaled_abs(errs, vals, EPS)
        errs *= _HEADROOM
        vals[0] = 0.0
        errs[0] = 0.0
        vals.flags.writeable = False
        errs.flags.writeable = False
        return vals, errs

    def _build_eps_sum(self) -> tuple[np.ndarray, np.ndarray]:
        # term m is eps(m-1)/m: the eps error scaled by 1/m plus one rounding
        ev, ee = self.eps_arrays
        ms = _ks(0, self.limit)
        terms = np.zeros(self.limit + 1, dtype=np.float64)
        ins = np.zeros(self.limit + 1, dtype=np.float64)
        np.divide(ev[1:-1], ms[2:], out=terms[2:])
        np.divide(ee[1:-1], ms[2:], out=ins[2:])
        del ms
        _add_scaled_abs(ins, terms, EPS)
        return _prefix_with_err(terms, ins, self.block_size)

    def _build_H(self) -> tuple[np.ndarray, np.ndarray]:
        return _prefix_with_err(*_H_terms(0, self.limit), self.block_size)

    def _build_h(self) -> tuple[np.ndarray, np.ndarray]:
        # the logs L_p in one numerator all carry one sign: for squarefree x
        # every mu(x/p) is -mu(x), and for x = p^2 m with m squarefree only p
        # contributes.  So its c <= omega_max logs add without cancellation:
        # (c - 1) u from the adds, 2 EPS from the logs and u from the
        # division, EPS (2 + omega_max / 2) relative in all
        n = self.limit
        ps = self.primes
        logs = np.log(ps.astype(np.float64))
        small = int(np.searchsorted(ps, isqrt(n), side="right"))
        omega_max, primorial = 0, 1
        for p in ps:
            primorial *= int(p)
            if primorial > n:
                break
            omega_max += 1
        return self._increment_lane(
            ps[:small].tolist(),
            logs[:small].tolist(),
            (2.0 + 0.5 * omega_max) * EPS,
            big=(ps[small:], logs[small:]),
        )

    def _prime_powers(self) -> tuple[list[int], list[float]]:
        """The prime powers p^i <= limit, i >= 2, in (p, i) order, with log p."""
        n = self.limit
        ps = self.primes
        ps = ps[: int(np.searchsorted(ps, isqrt(n), side="right"))]
        mods, logs = [], []
        for p, lp in zip(ps.tolist(), np.log(ps.astype(np.float64)).tolist()):
            q = p * p
            while q <= n:
                mods.append(q)
                logs.append(lp)
                q *= p
        return mods, logs

    def _build_tail(self) -> tuple[np.ndarray, np.ndarray]:
        # a numerator is 0 unless x = p^v m with m squarefree and prime to
        # p, and then L_p mu(m) (v = 2) or L_p mu(m) - L_p mu(m) = 0 (v >= 3):
        # exact, so only the log (2 EPS) and the division (u) err
        return self._increment_lane(*self._prime_powers(), 2.5 * EPS)

    def _build_P(self) -> tuple[np.ndarray, np.ndarray]:
        return self._weight_lane(self.primes, np.log(self.primes.astype(np.float64)))

    def _build_T(self) -> tuple[np.ndarray, np.ndarray]:
        mods, logs = self._prime_powers()
        return self._weight_lane(np.array(mods, dtype=np.int64), np.array(logs))

    def _weight_lane(self, mods: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Certified prefix of the weights log p / m at the moduli m = p^i, 0
        elsewhere; each is charged 2 ulp for the log and 1 for the division."""
        terms = np.zeros(self.limit + 1, dtype=np.float64)
        terms[mods] = logs / mods
        return _prefix_with_err(terms, terms * (3.0 * EPS), self.block_size)

    def _increment_lane(
        self,
        mods: list[int],
        logs: list[float],
        rel_err: float,
        big: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Certified prefix of x^-1 sum_{q|x} L_q mu(x/q) over the moduli q.

        Numerators add one slice per modulus, in the given order.  ``big``
        holds further moduli above sqrt(limit), ascending, with their logs;
        they go by cofactor j <= limit / sqrt(limit), which makes about
        2 sqrt(limit) NumPy calls where one per prime would make pi(limit).
        A numerator still receives its adds in modulus order, because it has
        at most one such prime factor.  The terms are charged ``rel_err``
        each, relative.  Only the two returned arrays have full length.
        """
        n = self.limit
        mu = self.mu
        vals = np.zeros(n + 1, dtype=np.float64)
        errs = np.empty(n + 1, dtype=np.float64)  # scratch until the prefix
        for q, lq in zip(mods, logs):
            k = n // q
            np.multiply(mu[1 : k + 1], lq, out=errs[:k])
            vals[q::q] += errs[:k]
        if big is not None and big[0].size:
            ps, ls = big
            for j in range(1, n // int(ps[0]) + 1):
                m = int(mu[j])
                if m:
                    k = int(np.searchsorted(ps, n // j, side="right"))
                    vals[ps[:k] * j] += m * ls[:k]
        for lo in range(1, n + 1, _CHUNK):
            hi = min(lo + _CHUNK, n + 1)
            vals[lo:hi] /= np.arange(lo, hi, dtype=np.float64)
        np.abs(vals, out=errs)
        errs *= rel_err
        return _prefix_with_err(vals, errs, self.block_size)

    def _release(self, *lanes: str) -> None:
        """Drop the named cached lanes (attribute names such as ``"_g"``) so
        their memory can go; a later read rebuilds them bit for bit."""
        for name in lanes:
            setattr(self, name, None)

    @property
    def g_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._g is None:
            self._g = self._build_g()
        return self._g

    @property
    def f_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._f is None:
            self._f = self._build_f()
        return self._f

    @property
    def theta_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._theta is None:
            self._theta = self._build_theta()
        return self._theta

    @property
    def eps_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eps is None:
            self._eps = self._build_eps()
        return self._eps

    @property
    def eps_sum_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """E(k) = sum_{m=2}^{k} eps(m-1)/m, the weights of the summation by parts."""
        if self._eps_sum is None:
            self._eps_sum = self._build_eps_sum()
        return self._eps_sum

    @property
    def harmonic_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._H is None:
            self._H = self._build_H()
        return self._H

    @property
    def h_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._h is None:
            self._h = self._build_h()
        return self._h

    @property
    def tail_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._tail is None:
            self._tail = self._build_tail()
        return self._tail

    @property
    def P_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """P(k) = sum_{p<=k} log p / p, the weights of h's run sums."""
        if self._P is None:
            self._P = self._build_P()
        return self._P

    @property
    def T_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """T(k) = sum_{p^i<=k, i>=2} log p / p^i, the weights of the tail's run sums."""
        if self._T is None:
            self._T = self._build_T()
        return self._T

    # -- pointwise certified accessors

    def f_certified(self, k: int) -> CertifiedFloat:
        v, e = self.f_arrays
        return CertifiedFloat(float(v[k]), float(e[k]))

    def h_certified(self, x: int) -> CertifiedFloat:
        """h(x) over the runs of x with the prime weight lane ``P_arrays``."""
        [(v, e)] = self._run_sums(x, x, self.P_arrays)
        return CertifiedFloat(float(v[0]), float(e[0]))

    def h_point(self, x: int) -> CertifiedFloat:
        """h(x) from the increment lane ``h_arrays``."""
        self._check_arg(x)
        hv, he = self.h_arrays
        return CertifiedFloat(float(hv[x]), float(he[x]))

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


def _run_batches(lo: int, hi: int) -> Iterator[tuple]:
    """The floor-quotient runs of every x in [lo, hi], in batches of consecutive x.

    Yields (a, q, nu_hi, starts, counts) for the x in [a, a + counts.size):
    x owns counts[i] positions from starts[i] on, a nu = 1 head (q, nu_hi) =
    (x, 1) and then ``fast._runs(x)``'s (q, nu_hi), so a run's nu_lo - 1 is
    the nu_hi of the position before it.  A batch holds at most
    ``_RUN_BATCH`` positions unless its one x needs more.
    """
    xs = np.arange(lo, hi + 1, dtype=np.int64)
    s = np.sqrt(xs).astype(np.int64)  # isqrt(x), after one correction each way
    s -= s * s > xs
    s += (s + 1) * (s + 1) <= xs
    # the head, the single nu in [2, s], and one run per q <= x // (s + 1)
    counts = s + xs // (s + 1)
    ends = np.cumsum(counts)
    i = 0
    while i < xs.size:
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - counts[i] + _RUN_BATCH, side="right")))
        c = counts[i:j]
        starts = np.cumsum(c) - c
        pos = np.arange(int(c.sum()), dtype=np.int64) - np.repeat(starts, c)
        x = np.repeat(xs[i:j], c)
        sx = np.repeat(s[i:j], c)
        single = pos < sx  # nu = pos + 1
        q = np.where(single, x // (pos + 1), x // (sx + 1) - (pos - sx))
        nu_hi = np.where(single, pos + 1, x // q)
        yield lo + i, q, nu_hi, starts, c
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
    """Sample records at multiples of ``stride``, read from the table lanes.

    Each record agrees with the pointwise operations: exactly for the integer
    lanes, within combined error bounds for the certified lanes.  h comes
    from the increment lane ``h_arrays``, not from per-sample run sums, so its
    low-order bits differ from ``h_certified``'s while the intervals overlap.
    """
    if limit < 1 or stride < 1:
        raise ValueError(f"need limit >= 1 and stride >= 1, got {limit}, {stride}")
    if tables is None:
        tables = SummatoryTables(limit)
    elif tables.limit < limit:
        raise ValueError(f"tables cover [1, {tables.limit}] < limit {limit}")
    xs = np.arange(stride, limit + 1, stride, dtype=np.int64)
    gv, ge = tables.g_arrays
    fv, fe = tables.f_arrays
    tv, te = tables.theta_arrays
    ev, ee = tables.eps_arrays
    hv, he = tables.h_arrays
    return SummatorySeries(
        xs=xs,
        g=gv[xs].copy(),
        g_err=ge[xs].copy(),
        f=fv[xs].copy(),
        f_err=fe[xs].copy(),
        M=tables.mertens[xs].copy(),
        theta=tv[xs].copy(),
        theta_err=te[xs].copy(),
        epsilon=ev[xs].copy(),
        epsilon_err=ee[xs].copy(),
        h=hv[xs].copy(),
        h_err=he[xs].copy(),
    )


# ---------------------------------------------------------------------------
# Certified harmonic numbers at large arguments (asymptotic)
# ---------------------------------------------------------------------------

_H_SMALL_LIMIT = 512


def _build_small_harmonic() -> tuple[np.ndarray, np.ndarray]:
    vals = [ZERO]
    acc = Fraction(0)
    for k in range(1, _H_SMALL_LIMIT + 1):
        acc += Fraction(1, k)
        vals.append(from_exact(acc))
    return np.array([c.value for c in vals]), np.array([c.err for c in vals])


_H_SMALL: tuple[np.ndarray, np.ndarray] | None = None


def _harmonic_arrays(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified H(n) and its error bound for an int64 array n >= 0.

    Small n come from an exact table.  Large n use the expansion
    H(n) = log n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4) - r_n with
    0 < r_n < 1/(252 n^6); the published error covers the remainder interval
    plus evaluation rounding.
    """
    global _H_SMALL
    if _H_SMALL is None:
        _H_SMALL = _build_small_harmonic()
    small = n <= _H_SMALL_LIMIT
    nf = np.maximum(n, _H_SMALL_LIMIT).astype(np.float64)
    rem = 1.0 / (252.0 * nf**6)
    v = np.log(nf) + EULER_GAMMA + 0.5 / nf - 1.0 / (12.0 * nf * nf) + 1.0 / (120.0 * nf**4)
    v -= 0.5 * rem
    err = (0.5 * rem + 8.0 * EPS * np.abs(v)) * _HEADROOM
    idx = np.minimum(n, _H_SMALL_LIMIT)
    return np.where(small, _H_SMALL[0][idx], v), np.where(small, _H_SMALL[1][idx], err)


def harmonic_number(n: int) -> CertifiedFloat:
    """Certified H(n) in O(1) for large n; see ``_harmonic_arrays``, which
    the floor-quotient recursion for g uses for its run weights."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    v, e = _harmonic_arrays(np.array([n], dtype=np.int64))
    return CertifiedFloat(float(v[0]), float(e[0]))
