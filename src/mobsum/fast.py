"""Sub-linear evaluation of g(x) and M(x) by floor-quotient recursion.

Both recursions fall out of the unit identities for the weighted and
unweighted divisor sums of mu:

    sum_{nu<=x} (1/nu) g(floor(x/nu)) = 1      =>  g(x) = 1 - sum_{nu>=2} ...
    sum_{nu<=x} M(floor(x/nu)) = 1             =>  M(x) = 1 - sum_{nu>=2} ...

floor(x/nu) takes O(sqrt(x)) distinct values.  Base values are sieved up to
a crossover K (default ~x^(2/3), raised to isqrt(x) when below it); the
values above K are y_j = floor(x/j) for the chain indices j <= J =
floor(x/(K+1)), and floor(y_j/nu) = floor(x/(j nu)), so the terms of y_j's
sum with j nu <= J are chain entries and the rest, its table part T_j, come
off the base table: O(x^(2/3)) work in all.

Neither recursion fills the chain.  The T_k are independent, and Mobius
inversion over the multiples of k <= J gives M(x) = M(J) - sum mu(k) T_k and
g(x) = g(J) - sum mu(k)/k T_k, sums over the squarefree k with no memo
(``_mertens_value``, ``_g_value``).  One kernel computes the T_k of both
(``_tails``): each sums the quotients above isqrt(y) by their runs, over the
q <= sqrt(x).  It takes three choices from a base (``_MertensBase``,
``_GBase``): the weight of a single nu (1 for M, 1/nu for g), the weight of a
run of equal quotient (its count for M, summed by parts against mu, and the
harmonic segment H(nu_hi) - H(nu_lo - 1) for g), and the base table (the
integer M, or the certified g lane with its error bounds).  Of the base
table only the head [0, H], H = max(sqrt(x), 2^20) (at most K), is held: it
serves every run, mu(q), M(J) or g(J) read and the dense bulk of the reads.
The few reads above it, B(y // nu) for nu <= y // (H+1), are summed per k
over one chunk of (H, K] at a time, and the chunk is dropped (``_far``), so
the base table takes memory O(sqrt(x) + 2^20) and not O(x^(2/3)).

Exact mode works in integers scaled by L = lcm(1..x): g(y) * L is an
integer for every y <= x, run weights are differences of scaled harmonic
numbers, and the inverted sum's division by L^2 is checked to be exact.
Certified float mode weighs each run by H(nu_hi) - H(nu_lo - 1) from
``summatory._harmonic_diff``, whose bound is relative to the weight itself
(1/nu for a run of one nu), sums each T_k by the TwoSum-corrected cumsum
of ``summatory._corrected_sum`` and propagates error bounds through the
inversion (``_GBase.tail``).

Cost per index.  Root y = x // k has about 2 sqrt(y) terms, but J is only
O(x^(1/3)), about 200 to 2000 at x = 10^7 .. 10^10, where a NumPy call (1 to
3 microseconds) per index weighs as much as the elements.  The kernel
computes its per-index scalars at once; each k then makes one float division
into one reused buffer (``_quotients``) and the base's fixed handful of
calls over its slices.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import fsum, isqrt

import numpy as np

from .certified import EPS, CertifiedFloat, _HEADROOM
from .sieve import DEFAULT_BLOCK_CAPACITY, iter_moebius_blocks
from .summatory import (
    EXACTNESS_CUTOFF,
    ScaledMoebiusPrefix,
    SummatoryTables,
    _CHUNK,
    _corrected_sum,
    _harmonic_diff,
    _held_prefix,
    _ks,
    moebius_values_upto,
)

def default_crossover(x: int) -> int:
    """Crossover K for root x: ~x^(2/3), at least sqrt(x)+1, below x."""
    k = max(round(x ** (2.0 / 3.0)), isqrt(x) + 1)
    return max(1, min(k, x - 1)) if x > 1 else 1


def _crossover(x: int, crossover: int | None) -> int:
    """The crossover K of both recursions at root x >= 1: ``crossover`` (by
    default ``default_crossover(x)``) capped at x and raised to isqrt(x)."""
    K = default_crossover(x) if crossover is None else min(int(crossover), x)
    return max(K, isqrt(x))


def _runs(y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs (q, nu_lo, nu_hi) of q = floor(y/nu) over nu in [2, y].

    Each nu <= sqrt(y) is its own run; above it every q <= y // (sqrt(y)+1)
    occurs once, ending at nu_hi = y // q.  q strictly decreases along the
    arrays, and nu_lo is the previous run's nu_hi + 1.
    """
    s = isqrt(y)
    nus = np.arange(2, s + 1, dtype=np.int64)
    qs = np.arange(y // (s + 1), 0, -1, dtype=np.int64)
    q = np.concatenate((y // nus, qs))
    hi = np.concatenate((nus, y // qs))
    lo = np.empty_like(hi)
    lo[:1] = 2
    lo[1:] = hi[:-1] + 1
    return q, lo, hi


# ---------------------------------------------------------------------------
# Mertens recursion (exact integers), on the squarefree-k kernel shared with g
# ---------------------------------------------------------------------------

# The base table is int32: |M(k)| <= k, so every table shorter than 2^31 fits.
_MERTENS_TABLE_LIMIT = (1 << 31) - 1
# Roots stay below 2^53, where the float quotients of ``_quotients`` are exact.
_MERTENS_ROOT_LIMIT = (1 << 53) - 1
# Tables up to this limit, the crossovers of roots below about 2.6e5, are views
# of one table, sieved on first use.
_SHARED_TABLE = 1 << 12
# The reads above the head that one chunk of (H, K] serves are laid out at
# most this many at a time.
_FAR_BATCH = 1 << 16


def _table_limit(limit: int) -> int:
    if not 1 <= limit <= _MERTENS_TABLE_LIMIT:
        raise ValueError(
            f"Mertens base table limit must lie in [1, {_MERTENS_TABLE_LIMIT}], got {limit}"
        )
    return limit


def _sieved_table(limit: int) -> np.ndarray:
    """M(0..limit) as int32, one sieve block and one in-place cumsum at a time."""
    M = np.empty(limit + 1, dtype=np.int32)
    M[0] = 0
    for block in iter_moebius_blocks(1, limit):
        seg = M[block.lo : block.hi + 1]
        seg[:] = block.values
        seg[0] += M[block.lo - 1]
        np.cumsum(seg, dtype=np.int32, out=seg)
    M.flags.writeable = False
    return M


@functools.lru_cache(maxsize=1)
def _shared_table() -> np.ndarray:
    return _sieved_table(_SHARED_TABLE)


def _mertens_table(limit: int) -> np.ndarray:
    """M(0..limit) as read-only int32; up to ``_SHARED_TABLE`` a view of one
    shared table, so that small roots cost no sieve."""
    if _table_limit(limit) <= _SHARED_TABLE:
        return _shared_table()[: limit + 1]
    return _sieved_table(limit)


def _head_limit(x: int, K: int) -> int:
    """The head H of the base table [0, K] for roots up to x: the one part
    that is held, at least isqrt(x) (every run and every mu(q), M(J) and
    g(J) read) and at least one sieve block (the dense bulk of the reads)."""
    return min(K, max(isqrt(x), DEFAULT_BLOCK_CAPACITY))


def _moebius_head(M: np.ndarray, s: int) -> np.ndarray:
    """mu(0..s) as int64 off a table of M, mu(q) = M(q) - M(q-1) (mu(0) = 0)."""
    mu = np.zeros(s + 1, dtype=np.int64)
    np.subtract(M[1 : s + 1], M[:s], out=mu[1:])
    return mu


def _quotients(y: int, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """y // d for 1 <= y < 2^53 and float64 integer divisors d, as int64,
    written into ``out`` when it is given.

    When d does not divide y, y = m d - r with 1 <= r < d, and y / d lies
    r/d below m.  Rounding reaches m only if r/d < m 2^-53, that is only if
    y > r (2^53 - 1), so below 2^53 the correctly rounded y / d truncates
    to y // d.  Float division is about twice as fast as int64 division.
    The float quotients are written into ``out``'s own memory and cast to
    int64 there, each element read before it is overwritten.
    """
    if out is None:
        out = np.empty(d.shape, dtype=np.int64)
    f = out.view(np.float64)
    np.divide(y, d, out=f)
    out[...] = f
    return out


def _far(ys: np.ndarray, a: np.ndarray, b: np.ndarray, base) -> np.ndarray:
    """The reads past the head, B(ys_i // nu) for a_i < nu <= b_i: row i
    holds the sums over them of each column of ``base.reads``.

    Each such quotient lies above the head B(0..H): nu <= y // (H+1) puts
    y // nu > H.  ``base.chunks`` gives (H, top], top the largest quotient,
    one chunk [lo, hi] at a time; its reads are nu in (y // (hi+1), y // lo]
    (``_block_reads``), and the chunk is dropped before the next is made.
    """
    sums = np.zeros((ys.size, base.far_width), dtype=base.far_dtype)
    live = b > a
    if not live.any():
        return sums
    top = int((ys[live] // (a[live] + 1)).max())
    for lo, hi, chunk in base.chunks(top):
        first = np.maximum(a, ys // (hi + 1))
        _block_reads(sums, ys, first, np.minimum(b, ys // lo) - first, lo, chunk, base)
    return sums


def _block_reads(
    sums: np.ndarray, ys: np.ndarray, first: np.ndarray, n: np.ndarray, lo: int, chunk, base
) -> None:
    """Add to row i of ``sums`` the columns of ``base.reads`` summed over
    first_i < nu <= first_i + n_i (none where n_i <= 0), read off ``chunk``
    at ys_i // nu - lo: the reads laid out in order of i at most
    ``_FAR_BATCH`` at a time, summed per i by ``np.bincount`` in float64 and
    added in ``base.far_dtype``."""
    off = np.concatenate(([0], np.cumsum(np.maximum(n, 0))))
    index = np.arange(ys.size)
    for p in range(0, int(off[-1]), _FAR_BATCH):
        edges = np.clip(off, p, p + _FAR_BATCH) - p
        i = np.repeat(index, np.diff(edges))
        nu = np.arange(p + 1, p + i.size + 1) - off[i] + first[i]
        q = ys[i] // nu
        q -= lo
        for col, w in enumerate(base.reads(nu, q, chunk)):
            sums[:, col] += np.bincount(i, w, ys.size).astype(base.far_dtype, copy=False)


def _tails(x: int, ks: np.ndarray, K: int, base) -> list:
    """T_k = sum_{nu > J//k} w(nu) B(x // (k nu)), the table part of the unit
    identity at y = x // k, for the int64 chain indices ``ks``, with the
    weight w and base table B of ``base``.

    K >= isqrt(x) is the crossover, J = x // (K+1) and x < 2^53; the base
    holds B over its head [0, H], isqrt(x) <= H <= K.  For s = isqrt(y),
    a = J // k <= s, and k nu > J puts the nu in (a, s] on the base table.
    Above s the quotients are the q <= Q = y // (s+1), q taken by the nu in
    (y // (q+1), y // q], with y // (Q+1) = s and Q <= s, so

        T_k = sum_{nu=a+1}^{s} w(nu) B(y // nu) + sum_{q<=Q} B(q) r_q,

    r_q the run weight of q.  Q <= s <= H puts the runs on the head, and
    y // nu on it for nu > b = max(a, y // (H+1)); the few nu in (a, b] are
    read past it (``_far``).  The scalars of every k are computed at once;
    per k, one float division over a slice of one lane into one reused buffer
    gives y // nu for nu <= s + 1, which ``base.tail`` sums with the far sum.
    """
    ys = x // ks
    ss = np.array([isqrt(y) for y in ys.tolist()], dtype=np.int64)
    Qs = ys // (ss + 1)
    heads = x // (K + 1) // ks
    bs = np.maximum(heads, ys // base.size)
    far = _far(ys, heads, bs, base).tolist()
    nus = np.arange(isqrt(x) + 2, dtype=np.float64)
    buf = np.empty(nus.size - 1, dtype=np.int64)
    return [
        base.tail(_quotients(y, nus[1 : s + 2], buf[: s + 1]), b, s, Q, f)
        for y, s, b, Q, f in zip(ys.tolist(), ss.tolist(), bs.tolist(), Qs.tolist(), far)
    ]


class _MertensBase:
    """M's base for ``_tails``: the table M(0..K), held over its head M(0..H)
    with mu(0..isqrt(x)).  A single nu weighs 1 and a run its count
    y//q - y//(q+1); by parts, with y // (Q+1) = s,

        sum_{q<=Q} M(q) (y//q - y//(q+1)) = sum_{q<=Q} (y // q) mu(q) - s M(Q),

    which reads mu(q) and M(Q) off the head."""

    def __init__(self, head: np.ndarray, mu: np.ndarray):
        self.head, self.mu = head, mu
        self.size = head.size

    def chunks(self, top: int):
        """(lo, hi, M over [lo, hi]) for the blocks of (H, top]: each sieved
        into one reused int32 buffer, and M there the block's cumsum from M at
        the block before."""
        H = self.size - 1
        buf = np.empty(min(top - H, DEFAULT_BLOCK_CAPACITY), dtype=np.int32)
        m = self.head[H:]
        for block in iter_moebius_blocks(H + 1, top):
            lo, hi, carry, m = block.lo, block.hi, m[-1], buf[: len(block)]
            m[:] = block.values
            del block  # before the next block is sieved
            m[0] += carry
            np.cumsum(m, dtype=np.int32, out=m)
            yield lo, hi, m

    # a batch sums at most 2^16 values below 2^31 in magnitude per i: exact in float64
    far_dtype, far_width = np.int64, 1

    @staticmethod
    def reads(nu: np.ndarray, q: np.ndarray, m: np.ndarray) -> tuple:
        return (m.take(q),)

    def tail(self, q: np.ndarray, b: int, s: int, Q: int, far: list) -> int:
        M = self.head
        direct = int(M.take(q[b:s]).sum(dtype=np.int64))
        return far[0] + direct + int(np.dot(q[:Q], self.mu[1 : Q + 1])) - s * int(M[Q])


def _mertens_tails(x: int, ks: np.ndarray, K: int, M: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The T_k of ``_tails`` for M, as int64: M the head of the base table
    over [0, H], isqrt(x) <= H <= K, and mu is mu(0..isqrt(x))."""
    return np.array(_tails(x, ks, K, _MertensBase(M, mu)), dtype=np.int64)


def _mertens_value(x: int, K: int, M: np.ndarray, mu: np.ndarray) -> int:
    """M(x) = M(J) - sum_{k<=J} mu(k) T_k, with K, M, mu and T_k as in
    ``_mertens_tails``: a sum over the squarefree k only.

    Proof.  Let C(j) = M(x // j) for j <= J.  The unit identity at x // k
    splits at nu = J // k into chain entries and T_k: F(k) := sum_{nu <= J/k}
    C(k nu) = 1 - T_k.  So sum_{nu <= J/k} mu(nu) F(k nu) = sum_{m <= J/k}
    C(k m) sum_{nu | m} mu(nu) = C(k), and at k = 1, M(x) = sum_{k<=J} mu(k)
    (1 - T_k) = M(J) - sum mu(k) T_k; J <= isqrt(x) <= H puts M(J) on the head.
    """
    J = x // (K + 1)
    if not J:  # x <= K is the base table's own entry, past the head the read nu = 1 of x
        if x < M.size:
            return int(M[x])
        return int(_far(np.array([x]), np.array([0]), np.array([1]), _MertensBase(M, mu))[0, 0])
    ks = np.flatnonzero(mu[: J + 1])
    return int(M[J]) - int(np.dot(mu[ks], _mertens_tails(x, ks, K, M, mu)))


def _evaluator_crossover(max_x: int, crossover: int | None) -> int:
    """The base-table limit of ``MertensEvaluator(max_x, crossover=crossover)``;
    ValueError, with nothing allocated, for max_x outside [1, 2^53) or a limit
    of 2^31 or more."""
    if not 1 <= max_x <= _MERTENS_ROOT_LIMIT:
        raise ValueError(f"max_x must lie in [1, {_MERTENS_ROOT_LIMIT}], got {max_x}")
    return _table_limit(_crossover(max_x, crossover))


def m_recursive(x: int, *, crossover: int | None = None) -> int:
    """Exact M(x) by the floor-quotient recursion; O(x^(2/3)) time, and
    memory for a head of the base table of max(sqrt(x), 2^20) entries."""
    x = int(x)
    return MertensEvaluator(x, crossover=crossover).value(x)


class MertensEvaluator:
    """Mertens evaluator for batches of roots up to ``max_x`` < 2^53.

    The base table over [0, crossover] is held only over its head [0, H],
    H = min(crossover, max(isqrt(max_x), 2^20)), built once with mu up to
    isqrt(max_x) and shared by every root; each ``value`` or ``chain`` call
    sieves the rest, (H, crossover], one block at a time for the few reads
    that land there.  A crossover below isqrt(max_x) is raised to it, since
    the summation by parts reads M(q) for q <= sqrt(x) off the table; one at
    or above 2^31 raises ValueError before anything is allocated.
    """

    def __init__(self, max_x: int, *, crossover: int | None = None):
        self.max_x = max_x
        self.crossover = _evaluator_crossover(max_x, crossover)
        self.head = _mertens_table(_head_limit(max_x, self.crossover))
        self._mu = _moebius_head(self.head, isqrt(max_x))

    def _root(self, x: int) -> int:
        if not 1 <= x <= self.max_x:
            raise ValueError(f"x must lie in [1, {self.max_x}], got {x}")
        return x

    def chain(self, x: int) -> np.ndarray:
        """M(x // j) at index j for every chain index j <= J = x // (K+1):
        C(j) = 1 - T_j - sum_{nu=2}^{J//j} C(j nu) (``_mertens_value``),
        filled from J down to 1 in O(J log J) integer adds."""
        J = self._root(x) // (self.crossover + 1)
        T = _mertens_tails(x, np.arange(1, J + 1), self.crossover, self.head, self._mu)
        chain = np.concatenate(([0], 1 - T))
        for j in range(J // 2, 0, -1):
            chain[j] -= chain[2 * j :: j].sum()
        return chain

    def value(self, x: int) -> int:
        return _mertens_value(self._root(x), self.crossover, self.head, self._mu)


def mertens_prefix_recursive(limit: int, *, base_limit: int = 1) -> np.ndarray:
    """M(x) for every x in [0, limit] by ascending recursion fill.

    Only [1, base_limit] comes from the sieve (default just M(1)); every
    later entry is the kernel's M(x) with the filled entries [0, x-1] as
    its base table, so J = 1 and M(x) = 1 - T_1.  Used to cross-check the
    recursion against direct sieving, exhaustively.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    base_limit = max(1, min(base_limit, limit))
    base = _mertens_table(base_limit)  # checks its limit before M is allocated
    M = np.zeros(limit + 1, dtype=np.int64)
    M[: base_limit + 1] = base
    for x in range(base_limit + 1, limit + 1):
        if x == base_limit + 1 or isqrt(x) ** 2 == x:  # the head grows with isqrt(x)
            mu = _moebius_head(M, isqrt(x))
        M[x] = _mertens_value(x, x - 1, M[:x], mu)
    return M


# ---------------------------------------------------------------------------
# g recursion, exact mode (lcm-scaled integers)
# ---------------------------------------------------------------------------


def _unit_sum_scaled(y: int, a: int, prefix: ScaledMoebiusPrefix) -> int:
    """sum_{nu=a+1}^{y} (1/nu) g(floor(y/nu)) for 1 <= a <= isqrt(y), scaled
    by L^2, as an integer: over the runs of y from nu = a + 1 on, each the
    scaled harmonic segment times g(q) L off ``prefix``, which covers y // (a+1)."""
    gl = prefix.scaled_g
    hl = prefix.scaled_harmonic
    total = 0
    # _runs(y) starts at nu = 2, and the nu <= isqrt(y) are one run each
    for qq, lo, hi in zip(*(arr[a - 1 :].tolist() for arr in _runs(y))):
        total += (hl[hi] - hl[lo - 1]) * gl[qq]
    return total


def g_recursive_exact(
    x: int, *, crossover: int | None = None, tables: ScaledMoebiusPrefix | None = None
) -> Fraction:
    """Exact g(x) = g(J) - sum_{k<=J} mu(k)/k T_k (``_g_value``) in scaled
    integers, over the squarefree k only and with no chain.

    ``tables`` is an exact prefix covering x; its values g(k) * L for
    k <= crossover are the base table.  With L^2 T_k from
    ``_unit_sum_scaled``, g(x) L^3 = g(J) L^3 - sum mu(k) (L/k) L^2 T_k, whose
    division by L^2 is checked to be exact.
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    K = _crossover(x, crossover)
    tables = ScaledMoebiusPrefix._covering(tables, x)
    L = tables.denominator
    J = x // (K + 1)
    if not J:
        return Fraction(tables.scaled_g[x], L)
    mu = moebius_values_upto(J)
    total = tables.scaled_g[J] * L * L
    for k in np.flatnonzero(mu).tolist():
        total -= int(mu[k]) * (L // k) * _unit_sum_scaled(x // k, J // k, tables)
    # total = g(x) L^3: exact divisibility is a structural invariant
    if total % (L * L):
        raise AssertionError(f"scaled recursion lost exact divisibility at {x}")
    return Fraction(total // (L * L), L)


# ---------------------------------------------------------------------------
# g recursion, certified float mode
# ---------------------------------------------------------------------------


class _GBase:
    """g's base for ``_tails``: the certified g lane of ``tables`` over
    [0, K], held over its head [0, H] and read above it through
    ``tables._chunks``, whose chunks are the held lane's bits whether the
    tables hold the lane or stream it; the tables hold no mu lane, so the
    terms read mu one sieve segment at a time.  A single nu weighs 1/nu and
    a run the harmonic segment H(nu_hi) - H(nu_lo - 1) of ``_harmonic_diff``.

    Every term t = g w carries one rounding of the product, u |t|,
    and the input error w gerr + werr (|g| + gerr).  For a single nu, 1/nu
    rounds once, u w |g| <= u |t| (1 + u): EPS |t| for both.  A run's weight
    errs by werr <= r w, r the run's own charge from ``_harmonic_diff``, so
    its input error is at most w gerr + r w (|g| + gerr), ``gmag`` =
    |g| + gerr.
    """

    def __init__(self, tables: SummatoryTables, H: int, x: int):
        self.tables = tables
        self.size = H + 1
        self.gv, self.ge = _held_prefix(H, tables.block_size, tables._lane_terms("_g"))
        s = isqrt(x)
        self.inv = np.divide(1.0, _ks(0, s + 1))  # 1/nu at nu <= s + 1
        self.gmag = np.abs(self.gv[: s + 2]) + self.ge[: s + 2]
        self.terms = np.empty(2 * s + 2)

    def chunks(self, top: int):
        """(lo, hi, (values, bounds)) over (H, top], ``_CHUNK`` entries at a time."""
        for lo, v, e in self.tables._chunks("_g", self.size, top, _CHUNK):
            yield lo, lo + v.size - 1, (v, e)

    far_dtype, far_width = np.float64, 4

    @staticmethod
    def reads(nu: np.ndarray, q: np.ndarray, chunk: tuple) -> tuple:
        """The terms t = g(q) / nu, |t|, their input errors and a count."""
        v, e = chunk
        w = np.divide(1.0, nu)
        t = v.take(q) * w
        return t, np.abs(t), e.take(q) * w, None

    def tail(self, q: np.ndarray, b: int, s: int, Q: int, far: list) -> tuple[float, float]:
        """(T_k, its bound) from y // nu, nu = 1 .. s + 1, in ``q``.

        The single nu in (b, s] read the head at y // nu; the runs q <= Q
        read it at q and weigh H(y // q) - H(y // (q+1)) from
        ``_harmonic_diff``, all of them in one call, as m = y // (q+1) falls
        along q.  ``_corrected_sum`` adds these terms and the far sum, within
        about u |T_k| of their exact sum.  The far sum of n terms of
        magnitudes A, added in any order in at most 2n additions, errs by at
        most EPS n A besides its terms' own errors.
        """
        gv, ge = self.gv, self.ge
        n = s - b
        t = self.terms[: n + Q + 1]
        qd = q[b:s]
        w = self.inv[b + 1 : s + 1]
        np.multiply(gv.take(qd), w, out=t[:n])
        ins = float(np.dot(ge.take(qd), w))
        w, r = _harmonic_diff(q[:Q], q[1 : Q + 1])
        np.multiply(gv[1 : Q + 1], w, out=t[n:-1])
        r *= w
        ins += float(np.dot(ge[1 : Q + 1], w)) + float(np.dot(self.gmag[1 : Q + 1], r))
        fv, fa, fe, fn = far
        t[-1] = fv
        mag = float(np.abs(t[:-1]).sum())
        ins += EPS * mag + fe + EPS * (fn + 1.0) * fa
        T, rounding = _corrected_sum(t, mag + abs(fv))
        return T, (ins + rounding) * _HEADROOM


def _g_value(x: int, K: int, base: _GBase) -> CertifiedFloat:
    """g(x) = g(J) - sum_{k<=J} mu(k)/k T_k over the squarefree k, with T_k
    from ``_tails`` and ``base`` holding the g lane's head [0, H],
    isqrt(x) <= H <= K.

    Proof.  Let C(j) = g(x // j) for j <= J.  The unit identity at x // k
    splits at nu = J // k into chain entries and T_k: F(k) := sum_{nu <= J/k}
    C(k nu) / nu = 1 - T_k.  So sum_{nu <= J/k} mu(nu)/nu F(k nu) =
    sum_{m <= J/k} C(k m)/m sum_{nu | m} mu(nu) = C(k), and at k = 1,
    g(x) = sum_{k<=J} mu(k)/k (1 - T_k) = g(J) - sum mu(k)/k T_k;
    J <= isqrt(x) <= H puts g(J) on the head.

    Each T_k / k rounds once (u), the sign is exact, and ``math.fsum``
    rounds the sum with g(J) once (u |g(x)|): it returns the correctly
    rounded sum of its inputs (CPython's does, under round-to-nearest; a test
    checks it on cancelling sums).  T_k's bound enters divided by k.
    """
    J = x // (K + 1)
    if not J:  # x <= K is the lane's own entry
        if x < base.size:
            return CertifiedFloat(float(base.gv[x]), float(base.ge[x]))
        return base.tables._at("_g", x)
    mu = moebius_values_upto(J)
    ks = np.flatnonzero(mu)
    tv, te = np.array(_tails(x, ks, K, base)).T
    p = tv / ks
    p *= -mu[ks]
    value = fsum(memoryview(np.concatenate(([base.gv[J]], p))))
    err = float(base.ge[J]) + float((te / ks).sum())
    err += 0.5 * EPS * (float(np.abs(p).sum()) + abs(value))
    return CertifiedFloat(value, err * _HEADROOM)


def g_recursive_float(x: int, *, crossover: int | None = None) -> CertifiedFloat:
    """Certified g(x) by the floor-quotient recursion (``_g_value``);
    O(x^(2/3)) time, and memory for the head of the g lane over
    max(sqrt(x), 2^20) entries, O(sqrt(x)) buffers and one 2^20 sieve
    segment of mu: the g lane's terms read mu segment by segment, as the
    tables hold no mu lane, and the k <= J = x // (K+1) read mu(0..J)."""
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    K = _crossover(x, crossover)
    return _g_value(x, K, _GBase(SummatoryTables(K), _head_limit(x, K), x))


def _g_float_bytes(x: int) -> int:
    """About the peak bytes of ``g_recursive_float(x)`` above the interpreter's:
    the head of the g lane (16 B per entry), the per-root buffers (about 96 B
    per nu <= sqrt(x)) and the stream's sieve segment and chunks."""
    return 16 * _head_limit(x, _crossover(x, None)) + 96 * isqrt(x) + (4 << 20)


def g_recursive(
    x: int, *, exact: bool | None = None, cutoff: int = EXACTNESS_CUTOFF
) -> Fraction | CertifiedFloat:
    """g(x) by floor-quotient recursion: exact rational at or below the
    cutoff (or when forced), certified float above."""
    x = int(x)
    if exact is None:
        exact = x <= cutoff
    if exact:
        return g_recursive_exact(x)
    return g_recursive_float(x)
