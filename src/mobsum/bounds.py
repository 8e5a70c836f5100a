"""Inequality scans with certified verdicts, and empirical thresholds.

Scanned bounds (each proved unconditionally in classical prime-sum theory;
here re-verified numerically at desk scale):

    |g(x)| <= 1
    |log(x) g(x) - f(x)| <= 3 + gamma
    0 <= theta(x) < 2x           (equivalently -1 <= eps(x) < 1)
    sum_{k<=x} 1/k <= log(x) + 1
    |tail(x)| <= 2 sum_{nu>=1} log(nu)/nu^2

A certified comparison treats a bound as violated only when the whole error
interval sits on the wrong side; a value whose interval straddles the
boundary is reported as indeterminate and fails the scan conservatively.

Each certified scan reads its lanes as streams of chunks of at most
``_SCAN_CHUNK`` consecutive x, classifies each chunk and keeps only the
verdicts.  ``SummatoryTables._chunks`` gives the chunks: slices of a lane
the tables hold, else the lane streamed from x = 1 by the prefix kernel, bit
for bit the held entries.  So no float lane is built at full length.  The g
and f scans read mu one 2^20 sieve segment at a time unless the tables hold
the int8 mu lane, which only the tail scan builds (its increments read mu at
x / q), so only that scan's memory grows with its range, by 1 B per x.  The
verdicts, their order and the maximum ratio are those of one pass over the
whole range.

Convergence reports locate empirical thresholds: the least G with
|eps(nu)| <= delta/3 on [G, scan_limit], and the least sampled xi beyond
which |h(x)|/log x (or |M(x)|/x) stays below delta.  These are explicitly
empirical up to scan_limit; nothing is claimed beyond it.  They read their
lanes the same way: eps in chunks of ``_SCAN_CHUNK`` derived from theta's,
and h and M only at the samples, gathered chunk by chunk
(``SummatoryTables._sample``; M a running int64 sum over mu), with the
bits of the held lanes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .certified import (
    EPS,
    EULER_GAMMA,
    CertifiedFloat,
    _HEADROOM,
)
from .summatory import EXACTNESS_CUTOFF, ScaledMoebiusPrefix, SummatoryTables

GAMMA_PROVENANCE = (
    "embedded double 0.5772156649015329 cross-checked against the "
    "harmonic-minus-log oracle at test time"
)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of scanning one inequality lhs <= rhs over an integer range.

    ``violations`` holds (x, lhs, rhs) triples certified to break the bound;
    ``indeterminate`` holds points whose error interval straddles it.  The
    scan passes only when both lists are empty.
    """

    name: str
    lo: int
    hi: int
    passed: bool
    max_ratio: float
    checked: int
    violations: list = field(default_factory=list)
    indeterminate: list = field(default_factory=list)
    gamma: float | None = None
    note: str = ""


@dataclass(frozen=True)
class ConvergenceReport:
    """Empirical threshold search over [1, scan_limit].

    ``G`` is the least integer with |eps(nu)| <= delta/3 certified on
    [G, scan_limit] (None if no suffix qualifies); ``xi`` the least sampled
    point beyond which every sampled ratio is certified <= delta.  ``samples``
    lists (x, ratio) pairs.  Valid only up to scan_limit.
    """

    kind: str
    delta: float
    scan_limit: int
    stride: int
    G: int | None
    xi: int | None
    samples: list
    bound_ok: bool | None = None
    abel_ok: bool | None = None
    note: str = ""


# x values a bound scan classifies at once: a chunk's dozen float64
# temporaries, 128 KiB each, stay in cache whatever the range
_SCAN_CHUNK = 1 << 14


def _classify(
    lo: int, lhs_val, lhs_err, rhs_val, rhs_err, strict: bool = False
) -> tuple[list, list, float]:
    """Vector verdicts for lhs <= rhs (or < when strict) at x = lo, lo + 1, ...;
    the rhs may be scalars.  Returns (violations, indeterminate, max value ratio)."""
    ok = (
        (lhs_val + lhs_err < rhs_val - rhs_err)
        if strict
        else (lhs_val + lhs_err <= rhs_val - rhs_err)
    )
    bad = (
        (lhs_val - lhs_err >= rhs_val + rhs_err)
        if strict
        else (lhs_val - lhs_err > rhs_val + rhs_err)
    )
    und = ~ok & ~bad
    rv = np.broadcast_to(rhs_val, lhs_val.shape)
    violations = [(lo + int(i), float(lhs_val[i]), float(rv[i])) for i in np.flatnonzero(bad)]
    indeterminate = [(lo + int(i), float(lhs_val[i]), float(rv[i])) for i in np.flatnonzero(und)]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs_val > 0, lhs_val / rhs_val, np.inf)
    return violations, indeterminate, float(np.max(ratios))


def _report(
    name: str, lo: int, hi: int, violations: list, indeterminate: list, max_ratio: float, **extra
) -> BoundReport:
    """The report of a scan of [lo, hi]: it passes with no violations and no
    indeterminate points."""
    return BoundReport(
        name=name,
        lo=lo,
        hi=hi,
        passed=not violations and not indeterminate,
        max_ratio=max_ratio,
        checked=hi - lo + 1,
        violations=violations,
        indeterminate=indeterminate,
        **extra,
    )


def _scan_tables(lo: int, hi: int, tables: SummatoryTables | None) -> SummatoryTables:
    """The tables a bound scan of [lo, hi] reads, once the range checks out."""
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    return SummatoryTables._covering(tables, hi)


class _Verdicts:
    """The verdicts of one scan, fed its chunks (a, lhs, lhs_err, rhs,
    rhs_err) of a range in ascending x, each classified by ``_classify``:
    the lists come out in ascending x, and the max ratio is the whole
    range's, NaN if any ratio is NaN, as ``np.max`` gives."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.violations: list = []
        self.indeterminate: list = []
        self.maxima: list = []

    def add(self, a: int, *sides) -> None:
        v, u, r = _classify(a, *sides, strict=self.strict)
        self.violations += v
        self.indeterminate += u
        self.maxima.append(r)


def _scan(chunks, strict: bool = False) -> tuple[list, list, float]:
    """(violations, indeterminate, max ratio) of ``_Verdicts`` fed ``chunks``."""
    verdicts = _Verdicts(strict)
    for chunk in chunks:
        verdicts.add(*chunk)
    return verdicts.violations, verdicts.indeterminate, float(np.max(verdicts.maxima))


def check_g_bound(
    lo: int,
    hi: int,
    *,
    cutoff: int = EXACTNESS_CUTOFF,
    tables: SummatoryTables | None = None,
    prefix: ScaledMoebiusPrefix | None = None,
) -> BoundReport:
    """Verify |g(x)| <= 1 at every integer x in [lo, hi].

    Exact rational comparison up to ``cutoff``; certified floats (requiring
    |value| + err <= 1) above it.
    """
    [report] = _g_scans(lo, hi, tables, exact=(cutoff, prefix))
    return report


def check_mangoldt_bound(
    lo: int, hi: int, *, tables: SummatoryTables | None = None
) -> BoundReport:
    """Verify |log(x) g(x) - f(x)| <= 3 + gamma on [lo, hi], certified."""
    [report] = _g_scans(lo, hi, tables, mangoldt=True)
    return report


_MANGOLDT_RHS = 3.0 + EULER_GAMMA


def _mangoldt_sides(a: int, g, ge, f, fe) -> tuple:
    """The chunk of the Mangoldt scan at x = a, a + 1, ... from g and f there."""
    lx = np.log(np.arange(a, a + g.size, dtype=np.float64))
    prod = lx * g
    prod_err = np.abs(lx) * ge + 2.0 * EPS * np.abs(lx) * np.abs(g) + EPS * np.abs(prod)
    lhs = np.abs(prod - f)
    lhs_err = (prod_err + fe + EPS * lhs) * _HEADROOM
    return a, lhs, lhs_err, _MANGOLDT_RHS, 2.0 * EPS * _MANGOLDT_RHS


def _g_scans(
    lo: int,
    hi: int,
    tables: SummatoryTables | None,
    exact: tuple[int, ScaledMoebiusPrefix | None] | None = None,
    mangoldt: bool = False,
) -> list[BoundReport]:
    """The reports of ``check_g_bound`` on [lo, hi], when ``exact`` gives its
    (cutoff, prefix), and of ``check_mangoldt_bound``, when ``mangoldt`` is
    set, in that order: both scans read one stream of the g lane.

    The g bound is exact up to the cutoff and certified above it, where the
    stream from lo (the Mangoldt scan's) or from the cutoff serves it; the
    g and f streams run on one grid, so their chunks pair up.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    reports = []
    g_bound, m_bound = _Verdicts(), _Verdicts()
    g_lo = hi + 1  # the first x of the certified g bound
    if exact is not None:
        cutoff, prefix = exact
        exact_hi = min(hi, cutoff)
        violations: list = []
        max_ratio = 0.0
        if lo <= exact_hi:
            L, gls = ScaledMoebiusPrefix._reads(prefix, exact_hi)
            worst = 0
            for x, gl in itertools.islice(enumerate(gls, 1), lo - 1, None):
                a = abs(gl)
                if a > worst:
                    worst = a
                if a > L:
                    violations.append((x, float(Fraction(gl, L)), 1.0))
            max_ratio = float(Fraction(worst, L))
        g_lo = max(lo, exact_hi + 1)
    stream_lo = lo if mangoldt else g_lo
    if stream_lo <= hi:
        tables = SummatoryTables._covering(tables, hi)
        gs = tables._chunks("_g", stream_lo, hi, _SCAN_CHUNK)
        fs = tables._chunks("_f", lo, hi, _SCAN_CHUNK) if mangoldt else itertools.repeat(None)
        for (a, g, ge), f in zip(gs, fs):
            s = max(g_lo - a, 0)
            if s < g.size:
                g_bound.add(a + s, np.abs(g[s:]), ge[s:], 1.0, 0.0)
            if mangoldt:
                m_bound.add(*_mangoldt_sides(a, g, ge, *f[1:]))
    if exact is not None:
        max_ratio = float(np.max([max_ratio, *g_bound.maxima]))
        note = f"exact below {exact_hi + 1}; certified above"
        v, u = violations + g_bound.violations, g_bound.indeterminate
        reports.append(_report("g_unit_bound", lo, hi, v, u, max_ratio, note=note))
    if mangoldt:
        r = float(np.max(m_bound.maxima))
        v, u = m_bound.violations, m_bound.indeterminate
        reports.append(
            _report("mangoldt_bound", lo, hi, v, u, r, gamma=EULER_GAMMA, note=GAMMA_PROVENANCE)
        )
    return reports


def check_theta_bounds(
    lo: int, hi: int, *, tables: SummatoryTables | None = None
) -> BoundReport:
    """Verify 0 <= theta(x) < 2x (so |eps(x)| <= 1 with eps > -1 off x=1), certified."""
    tables = _scan_tables(lo, hi, tables)
    # non-negativity (eps >= -1): the terms are >= 0 and err is a small
    # multiple of th, so th - err only dips below zero if the scan is broken
    negative = []

    def chunks() -> Iterator[tuple]:
        for a, t, e in tables._chunks("_theta", lo, hi, _SCAN_CHUNK):
            negative.extend((a + int(i), float(t[i]), 0.0) for i in np.flatnonzero(t - e < 0.0))
            yield a, t, e, 2.0 * np.arange(a, a + t.size, dtype=np.float64), 0.0

    violations, indeterminate, max_ratio = _scan(chunks(), strict=True)
    indeterminate += negative
    note = "theta < 2x strict; theta >= 0 certifies eps >= -1"
    return _report("theta_mertens_bounds", lo, hi, violations, indeterminate, max_ratio, note=note)


def check_harmonic_bound(
    lo: int, hi: int, *, tables: SummatoryTables | None = None
) -> BoundReport:
    """Verify sum_{k<=x} 1/k <= log(x) + 1 on [lo, hi], certified."""
    tables = _scan_tables(lo, hi, tables)

    def chunks() -> Iterator[tuple]:
        for a, h, he in tables._chunks("_H", lo, hi, _SCAN_CHUNK):
            lx = np.log(np.arange(a, a + h.size, dtype=np.float64))
            rhs = lx + 1.0
            # log(1) = 0 exactly, making rhs exact at x = 1 (the equality case)
            rhs_err = np.where(lx == 0.0, 0.0, (2.0 * EPS * np.abs(lx) + EPS * rhs) * _HEADROOM)
            yield a, h, he, rhs, rhs_err

    return _report("harmonic_log_bound", lo, hi, *_scan(chunks()))


# ---------------------------------------------------------------------------
# Prime-power tail bound
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def log_square_sum_constant() -> CertifiedFloat:
    """sum_{nu>=1} log(nu)/nu^2 (= -zeta'(2)), certified to better than 1e-14.

    Exactly-rounded summation (``math.fsum``) of the terms to N = 2^16, where
    nu^2 is still exact, then a bracket for the rest.  f(t) = log t / t^2 is
    convex for t > e^(5/6), so each f(nu) lies below its mean over
    [nu - 1/2, nu + 1/2] and the trapezoid over [nu, nu + 1] lies above the
    integral.  With F(a) = (log a + 1)/a = int_a^oo f, the remainder
    sum_{nu>N} f(nu) therefore lies in [F(N+1) + f(N+1)/2, F(N+1/2)]; the
    midpoint is taken and half the width charged, plus the rounding of the
    terms, the endpoints and the final add.
    """
    n = 1 << 16
    ks = np.arange(1, n + 1, dtype=np.float64)
    s = math.fsum(memoryview(np.log(ks) / (ks * ks)))
    a, b = n + 0.5, float(n + 1)
    hi_tail = (math.log(a) + 1.0) / a
    lo_tail = (math.log(b) + 1.0) / b + 0.5 * math.log(b) / (b * b)
    val = s + 0.5 * (hi_tail + lo_tail)
    err = (
        0.5 * (hi_tail - lo_tail)
        + 3.0 * EPS * s  # per-term log and division rounding, fsum half-ulp
        + 4.0 * EPS * (hi_tail + lo_tail)  # endpoint logs, adds and divisions
        + 4.0 * EPS * abs(val)
    ) * _HEADROOM
    return CertifiedFloat(val, err)


def check_tail_bound(x: int) -> BoundReport:
    """Verify |tail(x)| <= 2 sum log(nu)/nu^2 at the single point x:
    ``tail_bound_scan`` on [x, x]."""
    return tail_bound_scan(int(x), int(x))


def tail_bound_scan(
    lo: int, hi: int, *, tables: SummatoryTables | None = None
) -> BoundReport:
    """|tail(x)| <= 2 sum log(nu)/nu^2 at every integer in [lo, hi].

    The tail comes from the increment lane ``tail_arrays`` (or its stream),
    which costs about 0.77 hi adds, not from the run sums of ``tail_certified``.
    """
    tables = _scan_tables(lo, hi, tables)
    c = log_square_sum_constant()
    rhs = 2.0 * c.value
    rhs_err = (2.0 * c.err + EPS * 2.0 * c.value) * _HEADROOM
    chunks = tables._chunks("_tail", lo, hi, _SCAN_CHUNK)
    v, u, r = _scan((a, np.abs(t), e, rhs, rhs_err) for a, t, e in chunks)
    note = f"2C with C = {c.value:.12f} +/- {c.err:.2e}"
    return _report("prime_power_tail_bound", lo, hi, v, u, r, note=note)


# ---------------------------------------------------------------------------
# Empirical thresholds
# ---------------------------------------------------------------------------


def _convergence_tables(
    delta: float, scan_limit: int, stride: int, tables: SummatoryTables | None
) -> SummatoryTables:
    """The tables a convergence report over [1, scan_limit] reads, once its
    arguments check out."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if scan_limit < 2:
        raise ValueError(f"scan_limit must be >= 2, got {scan_limit}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return SummatoryTables._covering(tables, scan_limit)


def empirical_G(
    delta: float, scan_limit: int, *, tables: SummatoryTables | None = None
) -> ConvergenceReport:
    """Least G with |eps(nu)| <= delta/3 certified for all nu in [G, scan_limit].

    Empirical up to scan_limit only; G is None when even the suffix {scan_limit}
    fails.
    """
    tables = _convergence_tables(delta, scan_limit, 1, tables)
    bound = delta / 3.0
    G, eps_G = 1, None
    for a, ev, ee in tables._chunks("_eps", 1, scan_limit, _SCAN_CHUNK):
        bad = np.flatnonzero(~(np.abs(ev) + ee <= bound))
        if bad.size:
            G = a + int(bad[-1]) + 1
        if a <= G < a + ev.size:
            eps_G = float(abs(ev[G - a]))
    G = G if G <= scan_limit else None
    samples = [] if G is None else [(G, eps_G)]
    return ConvergenceReport(
        kind="eps_threshold",
        delta=delta,
        scan_limit=scan_limit,
        stride=1,
        G=G,
        xi=None,
        samples=samples,
        note="empirical up to scan_limit; nothing claimed beyond",
    )


def h_convergence(
    delta: float,
    scan_limit: int,
    stride: int = 1,
    *,
    tables: SummatoryTables | None = None,
) -> ConvergenceReport:
    """Sample |h(x)|/log x at multiples of stride and locate xi.

    Also verifies at each sample the assembled envelope
    |h(x)| <= 3G - 2 + (2/3) delta + (2/3) delta log x with G from
    empirical_G(delta, scan_limit); the envelope holds wherever the eps
    threshold was certified, i.e. on the scanned range.
    """
    tables = _convergence_tables(delta, scan_limit, stride, tables)
    G = empirical_G(delta, scan_limit, tables=tables).G
    hv, he = tables._sample("_h", stride, scan_limit)
    xs = range(stride, scan_limit + 1, stride)
    if stride == 1:  # h(1)/log 1 is no ratio
        xs, hv, he = xs[1:], hv[1:], he[1:]
    samples = []
    xi = None
    bound_ok: bool | None = None if G is None else True
    for x, h, h_err in zip(xs, hv.tolist(), he.tolist()):
        lx = math.log(x)
        rv = abs(h) / lx
        rerr = (h_err / lx + 3.0 * EPS * rv) * _HEADROOM
        samples.append((x, rv))
        xi = (xi or x) if rv + rerr <= delta else None  # opens after the last failure
        if G is not None:
            env = (3.0 * G - 2.0) + (2.0 / 3.0) * delta + (2.0 / 3.0) * delta * lx
            env_err = 8.0 * EPS * env
            if abs(h) + h_err > env - env_err:
                bound_ok = False
    return ConvergenceReport(
        kind="h_over_log",
        delta=delta,
        scan_limit=scan_limit,
        stride=stride,
        G=G,
        xi=xi,
        samples=samples,
        bound_ok=bound_ok,
        note="" if G is not None else "no qualifying G; envelope unchecked",
    )


def m_over_x_convergence(
    delta: float,
    scan_limit: int,
    stride: int = 1,
    *,
    cutoff: int = EXACTNESS_CUTOFF,
    tables: SummatoryTables | None = None,
) -> ConvergenceReport:
    """Sample |M(x)|/x and locate xi; re-derive M by exact partial summation.

    At every sample x at or below the cutoff, M(x) = -sum_{k<x} g(k)
    + g(x) floor(x) is checked exactly in scaled integers (zero tolerance).
    """
    tables = _convergence_tables(delta, scan_limit, stride, tables)
    [M] = tables._sample("_M", stride, scan_limit)
    xs = range(stride, scan_limit + 1, stride)
    exact_hi = min(scan_limit, cutoff)
    # g(x) L in order, with sg = (sum_{k<x} g(k)) L running beside it
    L, gls = ScaledMoebiusPrefix._reads(None, exact_hi)
    sg = 0
    samples = []
    xi = None
    abel_ok = True
    for x, m in zip(xs, M.tolist()):
        rv = abs(m) / x
        # |M| and x are exact doubles at desk scale; division by 1 is exact,
        # which preserves the equality case |M(1)|/1 = 1
        rerr = 0.0 if x == 1 else EPS * rv
        samples.append((x, rv))
        xi = (xi or x) if rv + rerr <= delta else None  # opens after the last failure
        if x <= exact_hi:
            for gl in itertools.islice(gls, stride - 1):
                sg += gl
            gl = next(gls)
            if m * L != -sg + gl * x:
                abel_ok = False
            sg += gl
    return ConvergenceReport(
        kind="m_over_x",
        delta=delta,
        scan_limit=scan_limit,
        stride=stride,
        G=None,
        xi=xi,
        samples=samples,
        abel_ok=abel_ok,
        note=f"partial-summation identity checked exactly up to {exact_hi}",
    )


# ---------------------------------------------------------------------------
# Independent gamma oracle
# ---------------------------------------------------------------------------


def gamma_oracle() -> CertifiedFloat:
    """Euler-Mascheroni constant from H(n) - log n at n = 4096, asymptotically
    corrected.

    H(n) is computed exactly (rationals) and rounded once; the correction
    series 1/(2n) - 1/(12 n^2) + 1/(120 n^4) leaves a remainder below
    1/(252 n^6).  Independent of the embedded constant.
    """
    n = 4096
    hn = Fraction(0)
    for k in range(1, n + 1):
        hn += Fraction(1, k)
    nf = float(n)
    v = float(hn) - math.log(nf) - 0.5 / nf + 1.0 / (12.0 * nf * nf) - 1.0 / (
        120.0 * nf**4
    )
    rem = 1.0 / (252.0 * nf**6)
    err = (rem + 2.0 * EPS * abs(math.log(nf)) + 8.0 * EPS * abs(v)) * _HEADROOM
    return CertifiedFloat(v, err)
