"""Sub-linear evaluation of g(x) and M(x) by floor-quotient recursion.

Both recursions fall out of the unit identities for the weighted and
unweighted divisor sums of mu:

    sum_{nu<=x} (1/nu) g(floor(x/nu)) = 1      =>  g(x) = 1 - sum_{nu>=2} ...
    sum_{nu<=x} M(floor(x/nu)) = 1             =>  M(x) = 1 - sum_{nu>=2} ...

floor(x/nu) takes O(sqrt(x)) distinct values; sieving base values up to a
crossover K (default ~x^(2/3)) and recursing on the values above it gives
O(x^(2/3)) work overall.  The memo is filled iteratively, never by deep
call chains.

Both recursions work by chain index.  The values above K are y_j =
floor(x/j) for j <= J = floor(x/(K+1)), and floor(y_j/nu) = floor(x/(j nu)),
so the terms of y_j's sum with j nu <= J are the chain entries j nu, filled
from J down to 1, and the rest come off a base table.  Both raise a
crossover below isqrt(x) to it: below it chain indices repeat values.

For M, above s = isqrt(y) the quotients are the q <= Q = floor(y/(s+1)),
each taken floor(y/q) - floor(y/(q+1)) times; summation by parts turns their
sum into sum_{q<=Q} floor(y/q) mu(q) - s M(Q), a sum over the squarefree
q <= sqrt(x) with mu read off the int32 table as M(q) - M(q-1).

For g, ``_runs(y)`` gives the runs of equal quotient of one root (the exact
g sum and unit identity); the certified g sum takes those of many roots at
once from ``summatory._run_layout``, the layout of the scans.  A run's
weight is its harmonic segment H(nu_hi) - H(nu_lo - 1); a single nu has
weight 1/nu.  Since K >= isqrt(x), only single nu reach above K, the head
nu = 2 .. m with m = min(J // j, s), read from the chain as M's are.

Exact mode works in integers scaled by L = lcm(1..x): g(y) * L is an
integer for every y <= x, run weights are differences of scaled harmonic
numbers, and each level's division by L is checked to be exact.  Certified
float mode takes 1/nu for a single nu (charged 1 ulp) and the asymptotic
harmonic evaluator for longer runs, and propagates error bounds through the
recursion.

Cost per chain index.  Root y = x // j has about 2 sqrt(y) terms, so the J
indices above the base table hold O(x^(2/3)) elements in all; but J is only
O(x^(1/3)), about 200 to 2000 at x = 10^7 .. 10^10, and there a NumPy call
(1 to 3 microseconds) per index weighs as much as the elements.  So each
index makes a fixed handful of calls, with the float operations of a plain
per-index loop in the same order:

- M: one ``searchsorted`` for the squarefree head, one strided chain sum
  (for j <= J/2), two float divisions into one reused int64 buffer
  (``_quotients``), one gather-and-sum of the table and one dot product.
- g: the weights, table and chain values, terms and input errors of a
  batch of consecutive indices, about 2^14 runs, are computed at once over
  the run layout of their roots (``_g_float_batch``), where each index's
  terms are one contiguous slice; each index then takes two ``np.sum`` over
  its slice in run order and one ``fsum``.  A batch ends before an index at
  or below half its first, so the chain entries its heads read are filled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum, isqrt
from typing import Union

import numpy as np

from .certified import EPS, CertifiedFloat, _HEADROOM
from .sieve import iter_moebius_blocks
from .summatory import (
    EXACTNESS_CUTOFF,
    ScaledMoebiusPrefix,
    SummatoryTables,
    _harmonic_arrays,
    _run_counts,
    _run_layout,
)

Value = Union[int, float, Fraction]


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

    def get(self, arg: int) -> Value:
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


def _mertens_table(limit: int) -> np.ndarray:
    """M(0..limit) as int32, one sieve block and one in-place cumsum at a time."""
    if not 1 <= limit <= _MERTENS_TABLE_LIMIT:
        raise ValueError(
            f"Mertens base table limit must lie in [1, {_MERTENS_TABLE_LIMIT}], got {limit}"
        )
    M = np.empty(limit + 1, dtype=np.int32)
    M[0] = 0
    for block in iter_moebius_blocks(1, limit):
        seg = M[block.lo : block.hi + 1]
        seg[:] = block.values
        seg[0] += M[block.lo - 1]
        np.cumsum(seg, dtype=np.int32, out=seg)
    M.flags.writeable = False
    return M


def _squarefree_head(M: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The squarefree q <= s as float64 and mu(q), with mu = M(q) - M(q-1)."""
    mu = np.diff(M[: s + 1])
    q = np.flatnonzero(mu) + 1
    return q.astype(np.float64), mu[q - 1].astype(np.int64)


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


def _mertens_chain(x: int, M: np.ndarray, sf: np.ndarray, mu_sf: np.ndarray) -> np.ndarray:
    """M(x // j) for every chain index j in [1, J], J = x // (K+1), at index j.

    M is the base table over [0, K] with K >= isqrt(x), and x < 2^53;
    (sf, mu_sf) are the squarefree q <= isqrt(x) with mu(q).  For y = x // j
    and s = isqrt(y),

        M(y) = 1 - sum_{nu=2}^{s} M(y // nu) - sum_{q<=Q} (y // q) mu(q) + s M(Q)

    with Q = y // (s+1): the quotients of nu > s are the q <= Q, each taken
    y//q - y//(q+1) times, summed by parts (y // (Q+1) = s).  y // nu =
    x // (j nu) is chain entry j nu while j nu <= J and a table entry
    beyond, so the chain fills from J down to 1 with no lookup by value.
    The divisors nu are slices of one float lane and the quotients go to one
    reused buffer, so an index costs a handful of NumPy calls.
    """
    J = x // M.size
    chain = np.zeros(J + 1, dtype=np.int64)
    nus = np.arange(isqrt(x) + 1, dtype=np.float64)
    buf = np.empty(nus.size, dtype=np.int64)
    for j in range(J, 0, -1):
        y = x // j
        s = isqrt(y)
        m = min(J // j, s)
        Q = y // (s + 1)
        n = int(sf.searchsorted(Q, side="right"))
        total = int(chain[2 * j : m * j + 1 : j].sum()) if m > 1 else 0
        total += int(M[_quotients(y, nus[m + 1 : s + 1], buf[: s - m])].sum(dtype=np.int64))
        total += int(np.dot(_quotients(y, sf[:n], buf[:n]), mu_sf[:n])) - s * int(M[Q])
        chain[j] = 1 - total
    return chain


def mertens_floor_map(x: int, *, crossover: int | None = None) -> tuple[int, FloorValueMap]:
    """M(x) together with the populated floor-quotient memo."""
    ev = MertensEvaluator(int(x), crossover=crossover)
    chain = ev.chain(ev.max_x)
    value = int(chain[1]) if chain.size > 1 else int(ev.small[ev.max_x])
    large = dict(zip(range(1, chain.size), chain[1:].tolist()))
    return value, FloorValueMap(x=ev.max_x, crossover=ev.crossover, small=ev.small, large=large)


def _evaluator_crossover(max_x: int, crossover: int | None) -> int:
    """The base-table limit of ``MertensEvaluator(max_x, crossover=crossover)``.

    Raises ValueError, having allocated nothing, when max_x lies outside
    [1, 2^53) or the limit reaches 2^31.
    """
    if not 1 <= max_x <= _MERTENS_ROOT_LIMIT:
        raise ValueError(f"max_x must lie in [1, {_MERTENS_ROOT_LIMIT}], got {max_x}")
    K = _crossover(max_x, crossover)
    if K > _MERTENS_TABLE_LIMIT:
        raise ValueError(
            f"Mertens base table limit must lie in [1, {_MERTENS_TABLE_LIMIT}], got {K}"
        )
    return K


def m_recursive(x: int, *, crossover: int | None = None) -> int:
    """Exact M(x) by the floor-quotient recursion; O(x^(2/3)) time."""
    value, _ = mertens_floor_map(x, crossover=crossover)
    return value


class MertensEvaluator:
    """Mertens evaluator for batches of roots up to ``max_x`` < 2^53.

    The int32 base table over [0, crossover] and its squarefree head are
    built once and shared by every root; each root runs its own chain.  A
    crossover below isqrt(max_x) is raised to it, since the summation by
    parts reads M(q) for q <= sqrt(x) off the table; one at or above 2^31
    raises ValueError before anything is allocated.
    """

    def __init__(self, max_x: int, *, crossover: int | None = None):
        self.max_x = max_x
        self.crossover = _evaluator_crossover(max_x, crossover)
        self.small = _mertens_table(self.crossover)
        self._sf, self._mu_sf = _squarefree_head(self.small, isqrt(max_x))

    def chain(self, x: int) -> np.ndarray:
        """M(x // j) at index j for every j with x // j above the crossover."""
        if not 1 <= x <= self.max_x:
            raise ValueError(f"x must lie in [1, {self.max_x}], got {x}")
        return _mertens_chain(x, self.small, self._sf, self._mu_sf)

    def value(self, x: int) -> int:
        chain = self.chain(x)
        return int(chain[1]) if chain.size > 1 else int(self.small[x])


def mertens_prefix_recursive(limit: int, *, base_limit: int = 1) -> np.ndarray:
    """M(x) for every x in [0, limit] by ascending recursion fill.

    Only [1, base_limit] comes from the sieve (default just M(1)); every
    later entry is the chain kernel's M(x) with the filled entries [0, x-1]
    as its base table.  Used to cross-check the recursion against direct
    sieving, exhaustively.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    base_limit = max(1, min(base_limit, limit))
    base = _mertens_table(base_limit)  # checks its limit before M is allocated
    M = np.zeros(limit + 1, dtype=np.int64)
    M[: base_limit + 1] = base
    s_head = 0
    for x in range(base_limit + 1, limit + 1):
        if isqrt(x) != s_head:
            s_head = isqrt(x)
            sf, mu_sf = _squarefree_head(M, s_head)
        M[x] = _mertens_chain(x, M[:x], sf, mu_sf)[1]
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
    if tables is None:
        tables = ScaledMoebiusPrefix(x)
    elif tables.limit < x:
        raise ValueError(f"tables cover [1, {tables.limit}] < x = {x}")
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


def g_recursive_float(
    x: int, *, crossover: int | None = None, tables: SummatoryTables | None = None
) -> CertifiedFloat:
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
    if tables is None or tables.limit < K:
        tables = SummatoryTables(K)
    gv, ge = tables.g_arrays
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
    x: int,
    *,
    exact: bool | None = None,
    crossover: int | None = None,
    cutoff: int = EXACTNESS_CUTOFF,
) -> Fraction | CertifiedFloat:
    """g(x) by floor-quotient recursion: exact rational at or below the
    cutoff (or when forced), certified float above."""
    x = int(x)
    if exact is None:
        exact = x <= cutoff
    if exact:
        return g_recursive_exact(x, crossover=crossover)
    return g_recursive_float(x, crossover=crossover)
