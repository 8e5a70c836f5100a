"""Sub-linear evaluation of g(x) and M(x) by floor-quotient recursion.

Both recursions fall out of the unit identities for the weighted and
unweighted divisor sums of mu:

    sum_{nu<=x} (1/nu) g(floor(x/nu)) = 1      =>  g(x) = 1 - sum_{nu>=2} ...
    sum_{nu<=x} M(floor(x/nu)) = 1             =>  M(x) = 1 - sum_{nu>=2} ...

floor(x/nu) takes O(sqrt(x)) distinct values; grouping runs of equal
quotient and sieving base values up to a crossover K (default ~x^(2/3))
gives O(x^(2/3)) work overall.  The memo is filled iteratively in
increasing argument order, never by deep call chains.

One enumerator, ``_runs``, yields those runs as arrays; every sum over nu
>= 2 (the M sum, the exact and the certified g sums, the exact unit
identity) is a reduction over its output.  A run's weight is its length for
M and its harmonic segment H(nu_hi) - H(nu_lo - 1) for g; a single nu has
weight 1/nu.

Exact mode works in integers scaled by L = lcm(1..x): g(y) * L is an
integer for every y <= x, run weights are differences of scaled harmonic
numbers, and each level's division by L is checked to be exact.  Certified
float mode takes 1/nu for a single nu (charged 1 ulp) and the asymptotic
harmonic evaluator for longer runs, and propagates error bounds through the
recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum, isqrt
from typing import Union

import numpy as np

from .certified import EPS, CertifiedFloat, _HEADROOM
from .summatory import (
    EXACTNESS_CUTOFF,
    ScaledMoebiusPrefix,
    SummatoryTables,
    _harmonic_arrays,
    moebius_values_upto,
)

Value = Union[int, float, Fraction]


def default_crossover(x: int) -> int:
    """Crossover K for root x: ~x^(2/3), at least sqrt(x)+1, below x."""
    k = max(round(x ** (2.0 / 3.0)), isqrt(x) + 1)
    return max(1, min(k, x - 1)) if x > 1 else 1


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
    ``large`` maps nu = x // q to the value at argument q > crossover (the nu
    keys are dense small integers).
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


def _chain_values(x: int, crossover: int) -> list[int]:
    """Distinct values x//j above the crossover, ascending."""
    if x <= crossover:
        return []
    q, _, _ = _runs(x)
    return q[q > crossover][::-1].tolist() + [x]


# ---------------------------------------------------------------------------
# Mertens recursion (exact integers)
# ---------------------------------------------------------------------------


def _mertens_sum(y: int, K: int, small, by_val: dict) -> int:
    """sum_{nu=2}^{y} M(floor(y/nu)) from the base table and the value memo."""
    q, lo, hi = _runs(y)
    cnt = hi - lo + 1
    k = int(np.count_nonzero(q > K))  # leading runs served by the memo
    total = int(np.dot(cnt[k:], small[q[k:]]))
    for qq, c in zip(q[:k].tolist(), cnt[:k].tolist()):
        total += c * by_val[qq]
    return total


def _mertens_small_table(limit: int) -> np.ndarray:
    mu = moebius_values_upto(limit)
    return np.cumsum(mu, dtype=np.int64)


def mertens_floor_map(x: int, *, crossover: int | None = None) -> tuple[int, FloorValueMap]:
    """M(x) together with the populated floor-quotient memo."""
    ev = MertensEvaluator(int(x), crossover=crossover)
    value = ev.value(ev.max_x)
    large = {ev.max_x // v: m for v, m in ev.by_val.items()}
    return value, FloorValueMap(x=ev.max_x, crossover=ev.crossover, small=ev.small, large=large)


def m_recursive(x: int, *, crossover: int | None = None) -> int:
    """Exact M(x) by the floor-quotient recursion; O(x^(2/3)) time."""
    value, _ = mertens_floor_map(x, crossover=crossover)
    return value


class MertensEvaluator:
    """Shared-memo Mertens evaluator for batches of roots.

    M is a function of its argument alone, so exact values computed for one
    root are sound for every other; sharing the value memo makes repeated
    evaluation (random spot checks, exhaustive sweeps) cheap.
    """

    def __init__(self, max_x: int, *, crossover: int | None = None):
        if max_x < 1:
            raise ValueError(f"max_x must be >= 1, got {max_x}")
        self.max_x = max_x
        self.crossover = (
            default_crossover(max_x) if crossover is None else max(1, min(int(crossover), max_x))
        )
        self.small = _mertens_small_table(self.crossover)
        self.by_val: dict[int, int] = {}

    def value(self, x: int) -> int:
        if not 1 <= x <= self.max_x:
            raise ValueError(f"x must lie in [1, {self.max_x}], got {x}")
        if x <= self.crossover:
            return int(self.small[x])
        cached = self.by_val.get(x)
        if cached is not None:
            return cached
        for y in _chain_values(x, self.crossover):
            if y not in self.by_val:
                self.by_val[y] = 1 - _mertens_sum(y, self.crossover, self.small, self.by_val)
        return self.by_val[x]


def mertens_prefix_recursive(limit: int, *, base_limit: int = 1) -> np.ndarray:
    """M(x) for every x in [0, limit] by ascending recursion fill.

    Only [1, base_limit] comes from the sieve (default just M(1)); every
    later entry is 1 minus the blocked sum of ``MertensEvaluator`` over
    already-filled entries, the table itself serving as the base table.
    Used to cross-check the recursion against direct sieving, exhaustively.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    base_limit = max(1, min(base_limit, limit))
    M = np.zeros(limit + 1, dtype=np.int64)
    M[1 : base_limit + 1] = _mertens_small_table(base_limit)[1:]
    for x in range(base_limit + 1, limit + 1):
        M[x] = 1 - _mertens_sum(x, x, M, {})
    return M


# ---------------------------------------------------------------------------
# g recursion, exact mode (lcm-scaled integers)
# ---------------------------------------------------------------------------


def _unit_sum_scaled(y: int, K: int, prefix: ScaledMoebiusPrefix, by_val: dict) -> int:
    """sum_{nu=2}^{y} (1/nu) g(floor(y/nu)), scaled by L^2, as an integer.

    g(q) * L comes off ``prefix`` for q <= K and from ``by_val`` above.
    """
    gl = prefix.scaled_g
    hl = prefix.scaled_harmonic
    total = 0
    for qq, a, b in zip(*(arr.tolist() for arr in _runs(y))):
        total += (hl[b] - hl[a - 1]) * (gl[qq] if qq <= K else by_val[qq])
    return total


def g_recursive_exact(
    x: int, *, crossover: int | None = None, tables: ScaledMoebiusPrefix | None = None
) -> Fraction:
    """Exact g(x) by the floor-quotient recursion in scaled integers.

    ``tables`` is an exact prefix covering x; its values g(k) * L for
    k <= crossover are the base table, the rest come from the recursion.
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    K = default_crossover(x) if crossover is None else max(1, min(int(crossover), x))
    if tables is None:
        tables = ScaledMoebiusPrefix(x)
    elif tables.limit < x:
        raise ValueError(f"tables cover [1, {tables.limit}] < x = {x}")
    L = tables.denominator
    by_val: dict[int, int] = {}
    for y in _chain_values(x, K):
        t = _unit_sum_scaled(y, K, tables, by_val)
        # t = L * (L - g(y) L); exact divisibility is a structural invariant
        if t % L:
            raise AssertionError(f"scaled recursion lost exact divisibility at {y}")
        by_val[y] = L - t // L
    scaled = tables.scaled_g[x] if x <= K else by_val[x]
    return Fraction(scaled, L)


# ---------------------------------------------------------------------------
# g recursion, certified float mode
# ---------------------------------------------------------------------------

# memoized values are plain (value, err) tuples


def _g_float_sum(
    y: int, K: int, gv, ge, by_val: dict
) -> tuple[float, float]:
    """sum_{nu=2}^{y} (1/nu) g(floor(y/nu)) with a propagated error bound."""
    q, lo, hi = _runs(y)
    k = int(np.count_nonzero(q > K))
    g = np.empty(len(q))
    gerr = np.empty(len(q))
    g[k:] = gv[q[k:]]
    gerr[k:] = ge[q[k:]]
    if k:
        g[:k], gerr[:k] = np.array([by_val[qq] for qq in q[:k].tolist()]).T
    w = 1.0 / hi
    werr = EPS * w
    seg = hi > lo
    hv, he = _harmonic_arrays(hi[seg])
    lv, le = _harmonic_arrays(lo[seg] - 1)
    hseg = hv - lv
    w[seg] = hseg
    werr[seg] = (he + le + EPS * np.abs(hseg)) * _HEADROOM
    terms = w * g
    ins = float(np.sum(w * gerr + werr * np.abs(g) + EPS * np.abs(terms)))
    mag = float(np.sum(np.abs(terms)))
    err = (EPS * mag * (len(terms) + 4.0) + ins) * _HEADROOM
    return fsum(terms.tolist()), err


def g_recursive_float(
    x: int, *, crossover: int | None = None, tables: SummatoryTables | None = None
) -> CertifiedFloat:
    """Certified g(x) by the floor-quotient recursion; O(x^(2/3)) time."""
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    K = default_crossover(x) if crossover is None else max(1, min(int(crossover), x))
    if tables is None or tables.limit < K:
        tables = SummatoryTables(K)
    gv, ge = tables.g_arrays
    by_val: dict[int, tuple[float, float]] = {}
    for y in _chain_values(x, K):
        sv, serr = _g_float_sum(y, K, gv, ge, by_val)
        v = 1.0 - sv
        by_val[y] = (v, (serr + EPS * abs(v)) * _HEADROOM)
    if x <= K:
        return CertifiedFloat(float(gv[x]), float(ge[x]))
    v, e = by_val[x]
    return CertifiedFloat(v, e)


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
