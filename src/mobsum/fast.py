"""Sub-linear evaluation of g(x) and M(x) by floor-quotient recursion.

Both recursions fall out of the unit identities for the weighted and
unweighted divisor sums of mu:

    sum_{nu<=x} (1/nu) g(floor(x/nu)) = 1      =>  g(x) = 1 - sum_{nu>=2} ...
    sum_{nu<=x} M(floor(x/nu)) = 1             =>  M(x) = 1 - sum_{nu>=2} ...

floor(x/nu) takes O(sqrt(x)) distinct values.  Base values are sieved up to
a crossover K (default ~x^(2/3), raised to isqrt(x) when below it); the
values above K are y_j = floor(x/j) for the chain indices j <= J =
floor(x/(K+1)), and floor(y_j/nu) = floor(x/(j nu)), so the terms of y_j's
sum with j nu <= J are chain entries and the rest, its table part, come off
the base table: O(x^(2/3)) work in all.

M inverts the chain away.  The table parts T_k are independent, and Mobius
inversion over the multiples of k <= J gives M(x) = M(J) - sum mu(k) T_k, a
sum over the squarefree k with no memo (``_mertens_value``).  Each T_k sums
the quotients above isqrt(y) by parts, over the q <= sqrt(x), with mu read
off the table as M(q) - M(q-1) (``_mertens_tails``).  Of M's int32 base
table only the head [0, H], H = max(sqrt(x), 2^20) (at most K), is held:
it serves every M(Q), mu(q) and M(J) and the dense bulk of the reads.  The
few reads above it, M(y // nu) for nu <= y // (H+1), are summed per k as
each block of (H, K] is sieved, and the block is dropped
(``_mertens_far``), so memory is O(sqrt(x) + 2^20) and not O(x^(2/3)).

g keeps its chain, filled from J down to 1: the same inversion would change
the float bits of its value and bound.  ``_runs(y)`` gives the runs of equal
quotient of one root (exact mode); the certified sum takes those of many
roots at once from ``summatory._run_layout``, the layout of the scans.  A
run weighs its harmonic segment H(nu_hi) - H(nu_lo - 1), a single nu 1/nu;
only the single nu = 2 .. J // j reach above K, read from the chain.

Exact mode works in integers scaled by L = lcm(1..x): g(y) * L is an
integer for every y <= x, run weights are differences of scaled harmonic
numbers, and each level's division by L is checked to be exact.  Certified
float mode takes 1/nu for a single nu (charged 1 ulp) and the asymptotic
harmonic evaluator for longer runs, and propagates error bounds through the
recursion.

Cost per index.  Root y = x // j has about 2 sqrt(y) terms, but J is only
O(x^(1/3)), about 200 to 2000 at x = 10^7 .. 10^10, where a NumPy call (1 to
3 microseconds) per index weighs as much as the elements.  M computes its
per-index scalars at once; each k then makes one float division into one
reused buffer (``_quotients``), a gather-and-sum and a dot.  Certified g
lays out the terms and input errors of a batch of about 2^14 runs of
consecutive indices at once (``_g_float_batch``); each index then takes two
``np.sum`` over its slice in run order and one ``fsum``.  A batch ends
before an index at or below half its first, so the chain entries read are
filled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum, isqrt

import numpy as np

from .certified import EPS, CertifiedFloat, _HEADROOM
from .sieve import DEFAULT_BLOCK_CAPACITY, iter_moebius_blocks
from .summatory import (
    EXACTNESS_CUTOFF,
    ScaledMoebiusPrefix,
    SummatoryTables,
    _harmonic_arrays,
    _run_counts,
    _run_layout,
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


def quotient_blocks(x: int) -> list[tuple[int, int, int]]:
    """Maximal runs (q, nu_lo, nu_hi) with floor(x/nu) = q for nu in the run.

    The runs partition [1, x]; there are at most 2*ceil(sqrt(x)) of them.
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    q, lo, hi = _runs(x)
    return [(x, 1, 1), *zip(q.tolist(), lo.tolist(), hi.tolist())]


@dataclass(frozen=True)
class FloorValueMap:
    """Memo over the distinct floor-quotient arguments of a root x.

    ``small`` holds sieve-computed prefix values for arguments 1..crossover;
    ``large`` maps the chain index j = x // q to the value at argument
    q > crossover (the keys are 1..J).
    """

    x: int
    crossover: int
    small: np.ndarray
    large: dict = field(default_factory=dict)

    def get(self, arg: int) -> int:
        if arg <= self.crossover:
            return int(self.small[arg])
        return self.large[self.x // arg]

    def distinct_count(self) -> int:
        """Distinct floor-quotient arguments the evaluation touched."""
        q, _, _ = _runs(self.x)
        small_args = int(np.count_nonzero(q <= self.crossover)) + (self.x <= self.crossover)
        return small_args + len(self.large)


# ---------------------------------------------------------------------------
# Mertens recursion (exact integers)
# ---------------------------------------------------------------------------

# The base table is int32: |M(k)| <= k, so every table shorter than 2^31 fits.
_MERTENS_TABLE_LIMIT = (1 << 31) - 1
# Roots stay below 2^53, where the float quotients of ``_quotients`` are exact.
_MERTENS_ROOT_LIMIT = (1 << 53) - 1
# Tables up to this limit, the crossovers of roots below about 2.6e5, are views
# of one table, sieved on first use.
_SHARED_TABLE = 1 << 12
# The reads above the head that one block of (H, K] serves are laid out at
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
    that is held, at least isqrt(x) (every M(Q), mu(q) and M(J) read) and
    at least one sieve block (the dense bulk of the reads)."""
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


def _mertens_far(ys: np.ndarray, a: np.ndarray, b: np.ndarray, M: np.ndarray) -> np.ndarray:
    """sum_{a_i < nu <= b_i} M(ys_i // nu) for every i, as int64, where each
    quotient lies above the head M(0..H): nu <= y // (H+1) puts y // nu > H.

    (H, top], top the largest quotient, is sieved one block at a time into
    one int32 buffer: the block's M is its cumsum from M at the block before.
    Its reads are nu in (y // (hi+1), y // lo] for the block [lo, hi]
    (``_block_reads``); the block is dropped before the next is sieved.
    """
    sums = np.zeros(ys.size, dtype=np.int64)
    live = np.flatnonzero(b > a)
    if not live.size:
        return sums
    ys, a, b = ys[live], a[live], b[live]
    H = M.size - 1
    top = int((ys // (a + 1)).max())
    buf = np.empty(min(top - H, DEFAULT_BLOCK_CAPACITY), dtype=np.int32)
    m = M[H:]
    for block in iter_moebius_blocks(H + 1, top):
        lo, hi, carry, m = block.lo, block.hi, m[-1], buf[: len(block)]
        m[:] = block.values
        del block  # before the next block is sieved
        m[0] += carry
        np.cumsum(m, dtype=np.int32, out=m)
        first = np.maximum(a, ys // (hi + 1))
        sums[live] += _block_reads(ys, first, np.minimum(b, ys // lo) - first, m, lo)
    return sums


def _block_reads(
    ys: np.ndarray, first: np.ndarray, n: np.ndarray, m: np.ndarray, lo: int
) -> np.ndarray:
    """sum_{first_i < nu <= first_i + n_i} m[ys_i // nu - lo] for every i
    (none where n_i <= 0), as int64: the reads laid out in order of i at
    most ``_FAR_BATCH`` at a time, gathered, and summed per i by the
    differences of one int64 cumsum."""
    sums = np.zeros(ys.size, dtype=np.int64)
    off = np.concatenate(([0], np.cumsum(np.maximum(n, 0))))
    for p in range(0, int(off[-1]), _FAR_BATCH):
        edges = np.clip(off, p, p + _FAR_BATCH) - p
        i = np.repeat(np.arange(ys.size), np.diff(edges))
        nu = np.arange(p + 1, p + i.size + 1) - off[i] + first[i]
        q = ys[i] // nu
        q -= lo
        cs = np.zeros(i.size + 1, dtype=np.int64)
        np.cumsum(m.take(q), dtype=np.int64, out=cs[1:])
        sums += cs[edges[1:]] - cs[edges[:-1]]
    return sums


def _mertens_tails(x: int, ks: np.ndarray, K: int, M: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """T_k = sum_{nu > J//k} M(x // (k nu)), the table part of the unit
    identity at x // k, for the int64 chain indices ``ks``.

    K >= isqrt(x) is the crossover, J = x // (K+1) and x < 2^53; M is the
    head of the base table over [0, H], isqrt(x) <= H <= K, and mu is
    mu(0..isqrt(x)).  For y = x // k and s = isqrt(y), a = J // k <= s,
    and k nu > J puts the nu in (a, s] on the base table.  Above s the
    quotients are the q <= Q = y // (s+1), each taken y//q - y//(q+1) times;
    by parts, with y // (Q+1) = s and Q <= s,
    T_k = sum_{nu=a+1}^{s} M(y // nu) + sum_{q<=Q} (y // q) mu(q) - s M(Q).
    Q <= s <= H puts M(Q) and mu(q) on the head, and y // nu on it for
    nu > b = max(a, y // (H+1)); the few nu in (a, b] are read past it
    (``_mertens_far``).  The scalars of every k are computed at once; per k,
    one float division over a slice of one lane into one reused buffer gives
    both sums' y // nu.
    """
    ys = x // ks
    ss = np.array([isqrt(y) for y in ys.tolist()], dtype=np.int64)
    Qs = ys // (ss + 1)
    heads = x // (K + 1) // ks
    bs = np.maximum(heads, ys // M.size)
    T = (_mertens_far(ys, heads, bs, M) - ss * M[Qs]).tolist()
    nus = np.arange(isqrt(x) + 1, dtype=np.float64)
    buf = np.empty(nus.size, dtype=np.int64)
    for i, (y, s, b, Q) in enumerate(zip(ys.tolist(), ss.tolist(), bs.tolist(), Qs.tolist())):
        q = _quotients(y, nus[1 : s + 1], buf[:s])
        T[i] += int(M.take(q[b:]).sum(dtype=np.int64)) + int(np.dot(q[:Q], mu[1 : Q + 1]))
    return np.array(T, dtype=np.int64)


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
        return int(_mertens_far(np.array([x]), np.array([0]), np.array([1]), M)[0])
    ks = np.flatnonzero(mu[: J + 1])
    return int(M[J]) - int(np.dot(mu[ks], _mertens_tails(x, ks, K, M, mu)))


def mertens_floor_map(x: int) -> tuple[int, FloorValueMap]:
    """M(x) together with the populated floor-quotient memo, whose small
    side holds the whole base table [0, crossover]."""
    ev = MertensEvaluator(int(x))
    large = dict(enumerate(ev.chain(ev.max_x)[1:].tolist(), 1))
    small = _mertens_table(ev.crossover)
    fmap = FloorValueMap(x=ev.max_x, crossover=ev.crossover, small=small, large=large)
    return fmap.get(ev.max_x), fmap


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


def _unit_sum_scaled(y: int, j: int, K: int, prefix: ScaledMoebiusPrefix, chain: list) -> int:
    """sum_{nu=2}^{y} (1/nu) g(floor(y/nu)) for y = x // j, scaled by L^2, as an integer.

    g(q) * L comes off ``prefix`` for q <= K and off chain entry j nu_hi above.
    """
    gl = prefix.scaled_g
    hl = prefix.scaled_harmonic
    total = 0
    for qq, a, b in zip(*(arr.tolist() for arr in _runs(y))):
        total += (hl[b] - hl[a - 1]) * (gl[qq] if qq <= K else chain[j * b])
    return total


def g_recursive_exact(
    x: int, *, crossover: int | None = None, tables: ScaledMoebiusPrefix | None = None
) -> Fraction:
    """Exact g(x) by the floor-quotient recursion in scaled integers.

    ``tables`` is an exact prefix covering x; its values g(k) * L for
    k <= crossover are the base table, the rest come from the chain.
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    K = _crossover(x, crossover)
    tables = ScaledMoebiusPrefix._covering(tables, x)
    L = tables.denominator
    J = x // (K + 1)
    chain = [0] * (J + 1)
    for j in range(J, 0, -1):
        t = _unit_sum_scaled(x // j, j, K, tables, chain)
        # t = L * (L - g(y) L); exact divisibility is a structural invariant
        if t % L:
            raise AssertionError(f"scaled recursion lost exact divisibility at {x // j}")
        chain[j] = L - t // L
    return Fraction(chain[1] if J else tables.scaled_g[x], L)


# ---------------------------------------------------------------------------
# g recursion, certified float mode
# ---------------------------------------------------------------------------


# Runs per batch of g chain indices: the terms of a batch of consecutive
# indices are laid out at once, in arrays of about this many runs (an index
# with more runs is a batch alone).  Batches of 2^15 runs took about 2.5
# times the page faults of 2^14 in g_recursive_float(10**7), and more time.
_G_BATCH = 1 << 14


def _g_float_batch(
    x: int, js: list[int], J: int, gv: np.ndarray, ge: np.ndarray, cv: np.ndarray, ce: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of the sums sum_{nu=2}^{y} (1/nu) g(floor(y/nu)), y = x // j,
    over the chain indices ``js``, every one above max(js) / 2.

    Over the ``_run_layout`` of the roots, a run weighs w = H(nu_hi) -
    H(nu_lo - 1), with error werr, if nu_hi > nu_lo, else 1/nu_hi.  Its g is
    the chain entry (cv, ce) at j nu for nu = 1 .. min(J // j, isqrt(y)),
    else the base lane entry (gv, ge) at q.  As j nu >= 2j > max(js) for
    nu >= 2, the chain entries read were filled before the batch; the head
    reads the unfilled entry j and is summed by no index.  Returns rows
    (terms w g, their input errors w gerr + werr |g| + EPS |w g|, |w g|) and
    the layout's starts and counts: index i's terms are positions
    starts[i] + 1 .. starts[i] + counts[i] - 1.  Every element gets the
    float operations it gets for one index alone.
    """
    jb = np.array(js, dtype=np.int64)
    q, hi, starts, counts = _run_layout(x // jb)
    w = 1.0 / hi
    werr = EPS * w
    # H is read once at every segment and at the position before it, its nu_lo - 1
    seg = np.zeros(q.size, dtype=bool)
    np.greater(hi[1:], hi[:-1] + 1, out=seg[1:])
    read = seg.copy()
    read[:-1] |= seg[1:]
    Hv, He = _harmonic_arrays(hi[read])
    hseg = Hv[1:] - Hv[:-1]
    He = (He[1:] + He[:-1] + EPS * np.abs(hseg)) * _HEADROOM
    pick = seg[read][1:]  # the segments among the pairs of read positions
    w[seg], werr[seg] = hseg[pick], He[pick]
    m = np.minimum(J // jb, _run_counts(x // jb)[0])
    nu = np.arange(1, int(m.sum()) + 1) - np.repeat(np.cumsum(m) - m, m)
    heads, at = np.repeat(starts - 1, m) + nu, np.repeat(jb, m) * nu
    q[heads] = 0
    g, gerr = gv[q], ge[q]
    g[heads], gerr[heads] = cv[at], ce[at]
    rows = np.empty((3, q.size))
    terms, ins, mags = rows
    np.multiply(w, g, out=terms)
    np.multiply(w, gerr, out=ins)
    np.abs(g, out=g)
    g *= werr
    ins += g
    np.abs(terms, out=mags)
    ins += EPS * mags
    return rows, starts, counts


def _g_float_batches(x: int, J: int):
    """The chain indices J, J - 1, ..., 1 in consecutive batches of about
    ``_G_BATCH`` runs, each index of a batch above half its first."""
    js = np.arange(J, 0, -1, dtype=np.int64)
    batch, runs = [], 0
    for j, c in zip(js.tolist(), _run_counts(x // js)[1].tolist()):
        if batch and (runs >= _G_BATCH or 2 * j <= batch[0]):
            yield batch
            batch, runs = [], 0
        batch.append(j)
        runs += c - 1
    yield batch


def g_recursive_float(x: int, *, crossover: int | None = None) -> CertifiedFloat:
    """Certified g(x) by the floor-quotient recursion; O(x^(2/3)) time.

    The sum of y = x // j over its n runs, the head nu = 2 .. m off the
    chain at j nu and the rest off the base lane, is the ``fsum`` of its
    terms t, with the bound (EPS sum |t| (n + 4) + sum ins) _HEADROOM over
    their input errors ins, both sums by ``np.sum`` over the runs in order.
    The terms of a batch of indices are computed at once (``_g_float_batch``);
    per index only the two sums over its slice and the ``fsum`` remain.
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    K = _crossover(x, crossover)
    gv, ge = SummatoryTables(K).g_arrays
    J = x // (K + 1)
    if not J:
        return CertifiedFloat(float(gv[x]), float(ge[x]))
    cv, ce = np.zeros(J + 1), np.zeros(J + 1)
    for js in _g_float_batches(x, J):
        rows, starts, counts = _g_float_batch(x, js, J, gv, ge, cv, ce)
        for j, a, b in zip(js, (starts + 1).tolist(), (starts + counts).tolist()):
            terms, ins, mags = rows[:, a:b]
            err = (EPS * float(mags.sum()) * (terms.size + 4.0) + float(ins.sum())) * _HEADROOM
            v = 1.0 - fsum(memoryview(terms))
            cv[j], ce[j] = v, (err + EPS * abs(v)) * _HEADROOM
    return CertifiedFloat(float(cv[1]), float(ce[1]))


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
