"""Structural identity checks, exact where the arithmetic allows.

Verified here, each at a single evaluation point x:

  * the divisor sum  sum_{n|t} mu(n)  (1 at t = 1, else 0), at one t or at
    every t of a range (``divisor_sum_scan``);
  * the unit identity  sum_{nu<=x} (1/nu) g(x/nu) = 1, checked in exact
    rational arithmetic only (a floating version would merely restate the
    rounding model); ``gram_scan`` checks it at every x of a range by
    telescoping the sum instead of re-summing it, over one in-order pass of
    g(k) L that holds no list of exact values, and decides a sound table in
    int64 (see ``gram_columns``);
  * the prime-power series  F(p, x) = -sum_{i>=1} p^(-i) g(x/p^i), truncated
    where p^i > x since g vanishes below 1;
  * the two-sum decomposition  f(x) = -h(x) - tail(x), where tail collects
    the i >= 2 prime powers;
  * the summation-by-parts rearrangement of h(x) - 1 over the increments of
    theta, its left side read from the h prefix lane.

The decomposition and rearrangement checks at a point are their scans on
[x, x].  The sums sum_nu w(nu) g(x/nu) behind the decomposition's h and
tail and the rearranged right side run over the O(sqrt(x)) floor-quotient
runs of x in the batched kernel of ``summatory`` (``_run_layout``,
``_run_terms`` and ``_reduce_runs``), so both scans cost O(hi^1.5).  ``prime_power_tail`` is the tail lane's entry.

Each scan has a columnar core (``gram_columns``, ``decomposition_columns``
and ``abel_columns``) that gives its verdicts as arrays, which ``verify``
counts; the public scans lay them out as lists of ``IdentityCheck``.

Exact checks carry zero tolerance.  A certified check holds exactly when
the observed difference |lhs - rhs| is within lhs.err + rhs.err.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace
from typing import Callable, Iterator, Union

import numpy as np

from .certified import EPS, CertifiedFloat, _HEADROOM
from .fast import _unit_sum_scaled
from .sieve import is_prime, moebius_oracle
from .summatory import (
    EXACTNESS_CUTOFF,
    Real,
    ScaledMoebiusPrefix,
    SummatoryTables,
    _reduce_runs,
    _run_batches,
    _run_terms,
    floor_arg,
)

class CutoffExceededError(ValueError):
    """Exact-only check requested above the exactness cutoff."""


Value = Union[Fraction, CertifiedFloat]


@dataclass(frozen=True)
class IdentityCheck:
    """Verdict for one identity at one point.

    ``slack`` is 0 for exact checks that hold; for certified checks it is
    a bound on the true |lhs - rhs| (observed difference plus both error
    bounds).
    """

    name: str
    x: int
    lhs: Value
    rhs: Value
    holds: bool
    slack: float


@dataclass(frozen=True)
class IdentityColumns:
    """Verdicts of one identity at every x of [lo, lo + holds.size), as
    arrays: ``holds`` and ``slack`` are those of ``IdentityCheck`` at
    x = lo + i, and ``sides(i)`` gives its lhs and rhs.  ``verify`` counts
    the arrays; the public scans are ``checks()``."""

    name: str
    lo: int
    holds: np.ndarray
    slack: np.ndarray
    sides: Callable[[int], tuple[Value, Value]]

    def checks(self) -> list[IdentityCheck]:
        verdicts = zip(self.holds.tolist(), self.slack.tolist())
        return [
            IdentityCheck(self.name, self.lo + i, *self.sides(i), holds, slack)
            for i, (holds, slack) in enumerate(verdicts)
        ]


def _certified_columns(
    name: str, lo: int, lhs: tuple[np.ndarray, np.ndarray], rhs: tuple[np.ndarray, np.ndarray]
) -> IdentityColumns:
    """The certified check at every x of [lo, ...] from the (value, err)
    arrays of both sides: it holds exactly when |lhs - rhs| <= lhs.err +
    rhs.err, and its slack is |lhs - rhs| + lhs.err + rhs.err."""
    (lv, le), (rv, re) = lhs, rhs
    delta = np.abs(lv - rv)
    budget = le + re

    def sides(i: int) -> tuple[Value, Value]:
        lhs = CertifiedFloat(float(lv[i]), float(le[i]))
        return lhs, CertifiedFloat(float(rv[i]), float(re[i]))

    return IdentityColumns(name, lo, delta <= budget, delta + budget, sides)


def divisor_sum(t: int) -> int:
    """sum_{n|t} mu(n) by explicit divisor enumeration (oracle-backed)."""
    t = int(t)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    total = 0
    for d in range(1, isqrt(t) + 1):
        if t % d == 0:
            total += moebius_oracle(d)
            e = t // d
            if e != d:
                total += moebius_oracle(e)
    return total


def divisor_sum_scan(hi: int) -> np.ndarray:
    """sum_{n|t} mu(n) at index t for every t in [1, hi] (index 0 holds 0).

    mu(d) comes from ``moebius_oracle`` once per d <= hi and is added into
    every multiple of d, so, like ``divisor_sum``, the scan never reads the
    sieve; it costs hi oracle calls and about hi log hi adds.
    """
    if hi < 1:
        raise ValueError(f"hi must be >= 1, got {hi}")
    sums = np.zeros(hi + 1, dtype=np.int64)
    for d in range(1, hi + 1):
        m = moebius_oracle(d)
        if m:
            sums[d::d] += m
    return sums


# ---------------------------------------------------------------------------
# Unit identity for the weighted floor sum (exact)
# ---------------------------------------------------------------------------


def gram_identity(
    x: Real,
    *,
    cutoff: int = EXACTNESS_CUTOFF,
    prefix: ScaledMoebiusPrefix | None = None,
) -> IdentityCheck:
    """Exact check that sum_{nu<=x} (1/nu) g(x/nu) equals 1.

    Exact-rational only by design; raises CutoffExceededError above the
    cutoff unless a caller-supplied exact ``prefix`` covers x.
    """
    n = floor_arg(x)
    if n < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if prefix is None and n > cutoff:
        raise CutoffExceededError(f"exact check at x = {n} exceeds cutoff {cutoff}")
    prefix = ScaledMoebiusPrefix._covering(prefix, n)
    # the nu = 1 term L * g(n) L plus the g recursion's own sum over nu >= 2
    ssum = prefix.denominator * prefix.scaled_g[n] + _unit_sum_scaled(n, 1, prefix)
    return _unit_check(n, ssum, prefix.denominator * prefix.denominator)


def _unit_check(n: int, ssum: int, l2: int) -> IdentityCheck:
    """Verdict of the unit identity at n from its sum scaled by l2 = L^2."""
    holds = ssum == l2
    lhs = Fraction(1) if holds else Fraction(ssum, l2)
    return IdentityCheck(
        name="gram_unit_sum",
        x=n,
        lhs=lhs,
        rhs=Fraction(1),
        holds=holds,
        slack=0.0 if holds else abs(float(lhs - 1)),
    )


def gram_scan(
    lo: int, hi: int, *, prefix: ScaledMoebiusPrefix | None = None
) -> list[IdentityCheck]:
    """gram_identity at every integer in [lo, hi]: the checks of
    ``gram_columns``, which reads g(k) L in one pass over k <= hi, off
    ``prefix`` when given, else streamed (``summatory._scaled_g_stream``)."""
    return gram_columns(lo, hi, prefix).checks()


def _unit_sum_reads(y: int) -> set[int]:
    """The k whose g(k) L and H(k) L the blocked unit sum at y reads (the
    nu = 1 term and ``_unit_sum_scaled(y, 1, .)``): 0 .. isqrt(y) + 1 and
    every y // j, the floor values of y."""
    s = isqrt(y)
    return {*range(s + 2), *(y // j for j in range(1, s + 1))}


def gram_columns(lo: int, hi: int, prefix: ScaledMoebiusPrefix | None) -> IdentityColumns:
    """The unit identity at every x in [lo, hi], telescoped over one pass.

    With S(x) = sum_{nu<=x} (1/nu) g(floor(x/nu)) and g(0) = 0, the floors
    floor(x/nu) and floor((x-1)/nu) differ only when nu | x, and then by
    one, so

        S(x) - S(x-1) = sum_{m|x} (m/x) (g(m) - g(m-1)).

    This is algebra on the floor function alone: it holds for whatever
    numbers the table holds, so the running S(x) equals the blocked sum of
    ``gram_identity`` at every x even on a corrupted table, and each
    verdict, lhs and slack is the same.  Scaled by L^2 the increment is
    (L/x) sum_{m|x} t[m], with t[m] = m (gl[m] - gl[m-1]) and gl = g L.

    The pass writes t[m] = L c[m] + r[m] and keeps only c, in int64.  On a
    sound table t[m] = mu(m) L, so r = 0 and c = mu.  While every m <= x has
    r[m] = 0 and |c[m]| <= 2^62 / hi (so no divisor sum of at most hi of
    them leaves int64), and every y <= x has a[y] = sum_{m|y} c[m] = [y = 1],
    L^2 S(x) = sum_{y<=x} (L/y) L a[y] = L^2: the identity holds at x with
    lhs 1 and slack 0, and no big integer is kept.  From the first x where
    that fails, ``_gram_recurrence`` takes over: it sums every t[m] into
    its multiples from x on as big integers, a second pass over the table,
    and S(x) from there.  A sound table never reaches it.

    As a run-time invariant, the blocked sum at hi (``_unit_sum_scaled``)
    must equal the telescoped one.  It reads g L and H L only at the
    O(sqrt(hi)) floor values of hi (``_unit_sum_reads``), which the pass
    records.  H L is summed beside g L; L // m = |d| wherever t[m] = +-L,
    so only the other m cost a division.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    L, gls = ScaledMoebiusPrefix._reads(prefix, hi)
    c_max = (1 << 62) // hi
    c = np.zeros(hi + 1, dtype=np.int64)
    split_to = hi + 1  # every m below it has t[m] = L c[m], |c[m]| <= c_max
    reads = _unit_sum_reads(hi)
    g_at, h_at = {}, {0: 0}
    prev = hl = 0  # g(0) L = H(0) L = 0
    for m, gl in enumerate(gls, 1):
        d = gl - prev
        prev = gl
        t = m * d
        if t == L:  # as at a squarefree m of a sound table: L // m = d, no division
            cm, r, lm = 1, 0, d
        elif t == -L:
            cm, r, lm = -1, 0, -d
        else:
            (cm, r), lm = divmod(t, L), L // m
        hl += lm
        if m < split_to:
            if r or abs(cm) > c_max:
                split_to = m
            elif cm:
                c[m] = cm
        if m in reads:
            g_at[m], h_at[m] = gl, hl
    a = np.zeros(split_to + 1, dtype=np.int64)  # a[y] - [y = 1] for y < split_to
    for m in np.flatnonzero(c[:split_to]).tolist():
        a[m::m] += c[m]
    a[1] -= 1
    off = np.flatnonzero(a[1:split_to])
    x0 = int(off[0]) + 1 if off.size else split_to  # the first x left to big integers
    l2 = L * L
    holds = np.ones(hi - lo + 1, dtype=bool)
    slack = np.zeros(hi - lo + 1)
    lhs: dict[int, Fraction] = {}
    ssum = l2  # L^2 S(hi) when every x holds
    if x0 <= hi:
        for x, ssum in _gram_recurrence(x0, hi, prefix, l2 if x0 > 1 else 0):
            if x >= lo and ssum != l2:
                lhs[x] = Fraction(ssum, l2)
                holds[x - lo] = False
                slack[x - lo] = abs(float(lhs[x] - 1))
    recorded = SimpleNamespace(scaled_g=g_at, scaled_harmonic=h_at)
    if L * g_at[hi] + _unit_sum_scaled(hi, 1, recorded) != ssum:
        raise AssertionError(f"telescoped unit sum differs from the blocked sum at {hi}")

    def sides(i: int) -> tuple[Value, Value]:
        return lhs.get(lo + i, Fraction(1)), Fraction(1)

    return IdentityColumns("gram_unit_sum", lo, holds, slack, sides)


def _gram_recurrence(
    x0: int, hi: int, prefix: ScaledMoebiusPrefix | None, ssum: int
) -> Iterator[tuple[int, int]]:
    """(x, L^2 S(x)) for x = x0 .. hi, from ssum = L^2 S(x0 - 1): each t[m]
    of a new pass over the table (``gram_columns``) summed into its
    multiples from x0 on as big integers, then (L/x) times each x's sum
    added in turn."""
    L, gls = ScaledMoebiusPrefix._reads(prefix, hi)
    acc = [0] * (hi - x0 + 1)
    prev = 0
    for m, gl in enumerate(gls, 1):
        t = m * (gl - prev)
        prev = gl
        if t:
            for x in range(-(-x0 // m) * m, hi + 1, m):
                acc[x - x0] += t
    for x, t in enumerate(acc, x0):
        if t:
            ssum += L // x * t
        yield x, ssum


# ---------------------------------------------------------------------------
# Prime-power series and the two-sum decomposition
# ---------------------------------------------------------------------------


def capital_f(p: int, x: Real, *, tables: SummatoryTables | None = None) -> CertifiedFloat:
    """-sum_{i>=1} p^(-i) g(x/p^i), truncated once p^i > x.

    The truncation is lossless: g of an argument below 1 is 0.  g is read
    off ``tables``, by default ``SummatoryTables(floor(x/p))``; each of the
    < log2(x) terms is charged its weight's and its product's rounding and g's
    error, the sum EPS * sum|terms| per addition for (terms + 8) additions.
    """
    p = int(p)
    n = floor_arg(x)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p > n:
        raise ValueError(f"need p <= x, got p = {p}, x = {x}")
    top = n // p
    tables = SummatoryTables._covering(tables, top)
    # p^i <= n needs i < n.bit_length()
    mods = np.array([p**i for i in range(1, n.bit_length()) if p**i <= n], dtype=np.int64)
    w = 1.0 / mods  # one rounding each
    gv, ge = tables.g_arrays
    g, g_err = gv[n // mods], ge[n // mods]
    terms = w * g
    ins = float(np.sum(w * g_err + EPS * w * np.abs(g) + EPS * np.abs(terms)))
    err = (EPS * float(np.sum(np.abs(terms))) * (mods.size + 8) + ins) * _HEADROOM
    return CertifiedFloat(-float(np.sum(terms)), err)


def prime_power_tail(x: Real) -> CertifiedFloat:
    """Signed i >= 2 part: sum_{p<=x} log p * sum_{i>=2} p^(-i) g(x/p^i), the
    tail lane's entry at floor(x), bit for bit, streamed one 2^15 chunk at a
    time by ``SummatoryTables(floor(x))._at``."""
    n = floor_arg(x)
    if n < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return SummatoryTables(n)._at("_tail", n)


def decomposition_check(x: Real, *, tables: SummatoryTables | None = None) -> IdentityCheck:
    """Certified check of f(x) = -h(x) - tail(x): ``decomposition_scan`` on
    [floor(x), floor(x)] (default tables: ``SummatoryTables(floor(x))``)."""
    n = floor_arg(x)
    return decomposition_scan(n, n, tables=tables)[0]


# ---------------------------------------------------------------------------
# Summation-by-parts rearrangement
# ---------------------------------------------------------------------------


def abel_rearrangement_check(x: Real, *, tables: SummatoryTables | None = None) -> IdentityCheck:
    """Certified check of the rearranged form of h(x) - 1.

    The right side is  sum_{nu<=x} eps(nu) (g(x/nu) - g(x/(nu+1)))
    + sum_{nu<=x-1} eps(nu)/(nu+1) g(x/(nu+1)); the boundary term vanishes
    because x/(floor(x)+1) < 1.  It is ``abel_scan`` on [floor(x), floor(x)];
    see there for how both sides are evaluated.
    """
    n = floor_arg(x)
    if n < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return abel_scan(n, n, tables=tables)[0]


def _abel_rhs(
    lo: int, hi: int, tables: SummatoryTables
) -> tuple[np.ndarray, np.ndarray]:
    """Right side of the rearrangement and its bound at every x in [lo, hi].

    Over the runs (q, nu_lo, nu_hi) of floor(x/nu) (``_run_batches``, with
    nu = 1 as a run of its own) both sums shrink to one term per run:

      * eps(nu) (g(x/nu) - g(x/(nu+1))) is exactly 0, in floats too, unless
        nu ends a run; there it is eps(nu_hi) (g(q) - g(q')), with q' the
        next run's quotient and 0 after nu = x.  The kept terms are bit
        for bit those of the sum over every nu;
      * sum_{nu_lo<=m<=nu_hi} eps(m-1)/m g(q) = g(q) (E(nu_hi) - E(nu_lo-1))
        with the prefix lane E (``SummatoryTables.eps_sum_arrays``), the run
        kernel's terms (``_run_terms``); the nu = 1 run adds
        g(x) (E(1) - E(0)) = 0 exactly.

    Each term carries its input errors and one rounding per operation, and
    ``_reduce_runs`` sums both term sets of each x together.
    """
    gv, ge = tables.g_arrays
    ev, ee = tables.eps_arrays
    E = tables.eps_sum_arrays
    vals = np.empty(hi - lo + 1)
    errs = np.empty(hi - lo + 1)
    for a, q, nu_hi, starts, counts in _run_batches(lo, hi):
        g1, g1e = gv[q], ge[q]
        g2, g2e = np.empty_like(g1), np.empty_like(g1)  # at the next run's q
        g2[:-1], g2e[:-1] = g1[1:], g1e[1:]
        g2[starts - 1] = g2e[starts - 1] = 0.0  # g(0) after nu = x; [-1] ends the last x
        d = g1 - g2
        d_err = g1e + g2e + EPS * np.abs(d)
        e = ev[nu_hi]
        t1 = e * d
        in1 = np.abs(e) * d_err + ee[nu_hi] * np.abs(d) + EPS * np.abs(t1)
        b = a - lo
        vals[b : b + counts.size], errs[b : b + counts.size] = _reduce_runs(
            starts, counts, (t1, in1), _run_terms(g1, g1e, E, nu_hi, starts)
        )
    return vals, errs


# ---------------------------------------------------------------------------
# Exhaustive scans sharing one table set
# ---------------------------------------------------------------------------


def decomposition_scan(
    lo: int, hi: int, *, tables: SummatoryTables | None = None
) -> list[IdentityCheck]:
    """decomposition_check at every integer in [lo, hi]: the checks of
    ``decomposition_columns``."""
    return decomposition_columns(lo, hi, tables).checks()


def decomposition_columns(lo: int, hi: int, tables: SummatoryTables | None) -> IdentityColumns:
    """f(x) = -h(x) - tail(x) at every x in [lo, hi], as arrays.

    The left side f(x) reads the f prefix lane.  h(x) and the tail come from
    the g lane over the floor-quotient runs of x (``SummatoryTables._run_sums``
    with the weight lanes P and T), O(sqrt(x)) terms per x, so the scan costs
    O(hi^1.5); both share no sum with the f lane.  The right side's negation
    is exact and its one subtraction is charged EPS |rhs| twice over.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    tables = SummatoryTables._covering(tables, hi)
    fv, fe = tables.f_arrays
    (hv, he), (tv, te) = tables._run_sums(lo, hi, tables.P_arrays, tables.T_arrays)
    rv = -hv - tv
    rhs = rv, (he + te + 2.0 * EPS * np.abs(rv)) * _HEADROOM
    return _certified_columns("prime_decomposition", lo, (fv[lo : hi + 1], fe[lo : hi + 1]), rhs)


def abel_scan(
    lo: int, hi: int, *, tables: SummatoryTables | None = None
) -> list[IdentityCheck]:
    """abel_rearrangement_check at every integer in [lo, hi]: the checks of
    ``abel_columns``."""
    return abel_columns(lo, hi, tables).checks()


def abel_columns(lo: int, hi: int, tables: SummatoryTables | None) -> IdentityColumns:
    """The rearrangement of h(x) - 1 at every x in [lo, hi], as arrays.

    The right side comes from ``_abel_rhs``, O(sqrt(x)) terms per x over the
    floor-quotient runs, so the scan costs O(hi^1.5).  The left side
    h(x) - 1 reads the increment lane ``h_arrays``, which shares no sum with
    the right side; it is ``CertifiedFloat.add_exact(-1.0)`` of the entry,
    the same operations on every x at once.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    tables = SummatoryTables._covering(tables, hi)
    rhs = _abel_rhs(lo, hi, tables)
    hv, he = tables.h_arrays
    lv = hv[lo : hi + 1] + -1.0
    lhs = lv, (he[lo : hi + 1] + EPS * np.abs(lv)) * _HEADROOM
    return _certified_columns("abel_rearrangement", lo, lhs, rhs)
