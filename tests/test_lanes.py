"""Soundness of the certified prefix lanes against independent references.

The references are exact rationals (``fractions``, the scaled prefix) and
45-digit ``decimal`` sums, never the lanes themselves.
"""

import functools
import math
import random
import statistics
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import mobsum.summatory
from mobsum.bounds import empirical_G, h_convergence, m_over_x_convergence
from mobsum import identities
from mobsum.identities import abel_rearrangement_check, decomposition_scan
from mobsum.sieve import _primes_upto, prime_flags
from mobsum.summatory import (
    MAX_PREFIX_BLOCK,
    ScaledMoebiusPrefix,
    SummatorySeries,
    SummatoryTables,
    _chunk_grid,
    _g_terms,
    _held_prefix,
    _prefix_stream,
    _reciprocals,
    _theta_terms,
    _two_sum,
    lcm_upto,
    moebius_values_upto,
    series_scan,
)

N = 20_000


@pytest.fixture(scope="module")
def tables_20k() -> SummatoryTables:
    return SummatoryTables(N)


def _contains(v: float, e: float, num: int, den: int) -> bool:
    """|v - num/den| <= e, decided in integers."""
    vn, vd = float(v).as_integer_ratio()
    en, ed = float(e).as_integer_ratio()
    return abs(vn * den - num * vd) * ed <= en * den * vd


def _prefix(terms, errs, block: int) -> tuple[np.ndarray, np.ndarray]:
    """The held prefix lane (``_held_prefix``) over [0, len(terms) - 1] of the
    terms and input errors at index 1 on, index 0 the zero pad."""
    terms, errs = np.asarray(terms, dtype=np.float64), np.asarray(errs, dtype=np.float64)
    return _held_prefix(
        terms.size - 1, block, lambda lo, hi: (terms[lo : hi + 1].copy(), errs[lo : hi + 1].copy())
    )


def test_cumsum_adds_left_to_right():
    # the running bound of the prefix kernel charges each prefix value its own
    # rounding, which holds only if np.cumsum adds strictly left to right,
    # also when it writes over its input
    rng = np.random.default_rng(11)
    a = rng.standard_normal(20_000) * np.exp2(rng.integers(-40, 40, 20_000))
    ref, acc = [a[0]], a[0]
    for t in a[1:].tolist():
        acc += t
        ref.append(acc)
    ref = np.array(ref)
    fresh = np.cumsum(a)
    other = np.empty_like(a)
    np.cumsum(a, out=other)
    aliased = a.copy()
    np.cumsum(aliased, out=aliased)
    for got in (fresh, other, aliased):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_prefix_kernel_bound_contains_exact_sums():
    # short sums of random doubles make single roundings near their worst
    # case, so a running term or a carry term charged too little shows
    rng = random.Random(5)
    for block in (1, 2, 3, 5, 64):
        for _ in range(400):
            n = rng.randint(1, 12)
            terms = [0.0] + [
                rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-8, 8) for _ in range(n)
            ]
            vals, errs = _prefix(terms, np.zeros(n + 1), block)
            exact = Fraction(0)
            for k in range(1, n + 1):
                exact += Fraction(terms[k])
                assert abs(Fraction(float(vals[k])) - exact) <= Fraction(float(errs[k])), (
                    block,
                    terms,
                    k,
                )
            assert errs[1] == 0.0  # a single term is exact


def test_complex_cumsum_adds_both_parts_left_to_right():
    # the prefix kernel sums its signed errors and their magnitudes as the
    # real and the imaginary parts of one complex cumsum: each part must get
    # the bits of its own left-to-right sum
    rng = np.random.default_rng(12)
    parts = rng.standard_normal((2, 20_000)) * np.exp2(rng.integers(-40, 40, (2, 20_000)))
    z = np.empty(20_000, dtype=np.complex128)
    z.real, z.imag = parts
    np.cumsum(z, out=z)
    for got, part in zip((z.real, z.imag), parts):
        acc, ref = 0.0, []
        for t in part.tolist():
            acc += t
            ref.append(acc)
        assert np.array_equal(got.view(np.int64), np.array(ref).view(np.int64))


def test_two_sum_is_exact():
    # TwoSum gives the exact error of every add, for random doubles across
    # 80 binades of either sign, and for a scalar second operand
    rng = random.Random(41)
    a, b = (
        np.array([rng.uniform(-1, 1) * 2.0 ** rng.randint(-40, 40) for _ in range(3000)])
        for _ in range(2)
    )
    s = a + b
    err = _two_sum(a.copy(), b.copy(), s, np.empty_like(s))
    for x, y, sx, ex in zip(a.tolist(), b.tolist(), s.tolist(), err.tolist()):
        assert Fraction(x) + Fraction(y) == Fraction(sx) + Fraction(ex), (x, y)
    c = 2.0**-7 / 3.0
    s = a + c
    err = _two_sum(a.copy(), c, s, np.empty_like(s))
    for x, sx, ex in zip(a.tolist(), s.tolist(), err.tolist()):
        assert Fraction(x) + Fraction(c) == Fraction(sx) + Fraction(ex), x


def _lane_contains_exact_sums(terms: list[float], block: int) -> None:
    """Every entry of the prefix lane over exact ``terms`` holds their sum."""
    vals, errs = _prefix(terms, np.zeros(len(terms)), block)
    exact = Fraction(0)
    for k in range(1, len(terms)):
        exact += Fraction(terms[k])
        assert abs(Fraction(float(vals[k])) - exact) <= Fraction(float(errs[k])), (block, k)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_prefix_kernel_charges_the_carry_adds(block):
    # with blocks of one to three terms most adds are carry adds, s_k =
    # fl(l_k + value): only their TwoSum errors, which join the signed error,
    # cover their roundings
    rng = random.Random(block)
    terms = [0.0] + [rng.uniform(-1, 1) * 2.0 ** rng.randint(-30, 30) for _ in range(300)]
    _lane_contains_exact_sums(terms, block)


def test_prefix_kernel_charges_the_error_sum_rounding():
    # the adds' errors 2^-53, 2^-160 and -2^-53 sum to 0 in floats while the
    # prefix errs by 2^-160: only the charge on the error sum covers it
    terms = [0.0, 1.0, 2.0**-53, 2.0**-160, 3 * 2.0**-53]
    vals, errs = _prefix(terms, np.zeros(5), 1 << 20)
    assert Fraction(float(vals[4])) == sum(map(Fraction, terms)) - Fraction(2) ** -160
    assert 2.0**-160 <= errs[4] < 2.0**-70
    _lane_contains_exact_sums(terms, 2)


def test_prefix_kernel_bound_covers_the_input_errors_exact_sum():
    # exact adds, so the bound is the float sum of the input errors alone,
    # which rounds 1 + 2^-53 + 2^-53 down to 1: the headroom covers that
    errs = [0.0, 1.0, 2.0**-53, 2.0**-53, 2.0**-53]
    vals, bounds = _prefix([0.0, 1.0, 1.0, 2.0, 4.0], errs, 1 << 20)
    assert vals.tolist() == [0.0, 1.0, 2.0, 4.0, 8.0]
    for k in range(1, 5):
        assert Fraction(float(bounds[k])) >= sum(map(Fraction, errs[: k + 1])), k


@pytest.mark.parametrize("lo,hi", [(0, 3000), (2**26 - 500, 2**26 + 500), (2**53 - 600, 2**53 - 1)])
def test_reciprocal_terms_carry_their_residuals(lo, hi):
    # mu(k)/k = t + r +- e for g's and H's terms: the residual r of 1/k is
    # exact but for one rounding, which e charges, below and above 2^26
    rng = random.Random(hi)
    mu = np.array([rng.choice((-1, 0, 1)) for _ in range(hi - lo + 1)], dtype=np.int8)
    mu[: 1 if lo == 0 else 0] = 0
    rounded = 0
    for (t, e, r), m in ((_g_terms(lo, mu), mu), (_reciprocals(lo, hi), np.ones_like(mu))):
        for k, mk, tk, ek, rk in zip(range(lo, hi + 1), m.tolist(), t.tolist(), e.tolist(), r.tolist()):
            exact = Fraction(mk, k) - Fraction(tk) if k else Fraction(0)
            assert abs(exact - Fraction(rk)) <= Fraction(ek), k
            rounded += exact != rk
    assert rounded > 0


def test_prefix_kernel_rejects_oversized_blocks():
    with pytest.raises(ValueError):
        SummatoryTables(10, block_size=2**29)
    with pytest.raises(ValueError):
        SummatoryTables(10, block_size=0)
    tables = SummatoryTables(10, block_size=MAX_PREFIX_BLOCK)
    assert tables.g_arrays[0][10] == SummatoryTables(10).g_arrays[0][10]


@pytest.mark.parametrize("block", [None, 1000])
def test_g_lane_contains_exact_value(tables_20k, block):
    tables = tables_20k if block is None else SummatoryTables(N, block_size=block)
    gv, ge = tables.g_arrays
    mu = tables.mu
    L = lcm_upto(N)
    acc = 0
    bad = []
    for k in range(1, N + 1):
        m = int(mu[k])
        if m:
            acc += m * (L // k)
        if not _contains(gv[k], ge[k], acc, L):
            bad.append(k)
    assert not bad, bad[:5]


def _decimal_references(xs: list[int]) -> tuple[dict, dict]:
    """h(x) and tail(x) as 45-digit decimal sums over primes, exact inner g."""
    pre = ScaledMoebiusPrefix(N // 2)
    L = pre.denominator
    scale = 10**50
    primes = _primes_upto(max(xs)).tolist()
    with localcontext() as ctx:
        ctx.prec = 45
        # g(q) floored to 50 decimals; each inner value is off by < 1e-50
        g = [Decimal(pre.scaled_g[q] * scale // L).scaleb(-50) for q in range(N // 2 + 1)]
        ln = {p: Decimal(p).ln() for p in primes}
        h, tail = {}, {}
        for x in xs:
            h[x] = sum((ln[p] / p * g[x // p] for p in primes if p <= x), Decimal(0))
            t = Decimal(0)
            for p in primes:
                q = p * p
                while q <= x:
                    t += ln[p] / q * g[x // q]
                    q *= p
            tail[x] = t
    return h, tail


def _sampled_xs() -> list[int]:
    rng = random.Random(17)
    xs = sorted({1, 2, 3, 4, 8, 9, 30, 210, 4096, N} | {rng.randint(5, N) for _ in range(60)})
    assert len(xs) >= 50
    return xs


def _contains_decimal(v, e, ref: Decimal, slack: Decimal) -> bool:
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(Decimal(float(v)) - ref) <= Decimal(float(e)) + slack


def test_h_and_tail_lanes_contain_decimal_reference(tables_20k):
    # the increment lanes and the run sums over the g lane, which share no sum
    xs = _sampled_xs()
    href, tref = _decimal_references(xs)
    # the references sum at most pi(2e4) terms of 45 digits
    slack = Decimal("1e-38")
    for tables in (tables_20k, SummatoryTables(N, block_size=1000)):
        # the run sums' arrays start at x = 1; pad them to be indexed by x
        runs = [
            (np.concatenate(([0.0], v)), np.concatenate(([0.0], e)))
            for v, e in tables._run_sums(1, N, tables.P_arrays, tables.T_arrays)
        ]
        lanes = (
            (href, tables.h_arrays),
            (tref, tables.tail_arrays),
            (href, runs[0]),
            (tref, runs[1]),
        )
        for ref, (v, e) in lanes:
            for x in xs:
                assert _contains_decimal(v[x], e[x], ref[x], slack), x


def test_run_sums_and_decomposition_are_tight(tables_20k):
    # at least ten times under the identity tolerance at every x
    (_, he), (_, te) = tables_20k._run_sums(1, N, tables_20k.P_arrays, tables_20k.T_arrays)
    assert he.max() < 1e-10 and te.max() < 1e-10
    checks = decomposition_scan(1, N, tables=tables_20k)
    assert all(c.holds for c in checks)
    assert max(c.slack for c in checks) < 1e-10


def test_f_theta_harmonic_lanes_contain_decimal_reference(tables_20k):
    # f = sum mu(k) ln(k)/k, theta = sum_{p<=x} ln p and H = sum 1/k as
    # 45-digit running sums; each of their <= 2e4 adds errs by 1e-45 of a
    # partial sum below 1 + |reference|
    xs = _sampled_xs()
    mu = moebius_values_upto(N)
    primes = set(_primes_upto(N).tolist())
    refs = {"f": {}, "theta": {}, "H": {}}
    f = th = hs = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 45
        for k in range(1, N + 1):
            m = int(mu[k])
            if m and k > 1:
                f += m * Decimal(k).ln() / k
            if k in primes:
                th += Decimal(k).ln()
            hs += Decimal(1) / k
            refs["f"][k], refs["theta"][k], refs["H"][k] = f, th, hs
    for tables in (tables_20k, SummatoryTables(N, block_size=1000)):
        lanes = {"f": tables.f_arrays, "theta": tables.theta_arrays, "H": tables.harmonic_arrays}
        for name, (v, e) in lanes.items():
            for x in xs:
                ref = refs[name][x]
                slack = Decimal("1e-38") * (1 + abs(ref))
                assert _contains_decimal(v[x], e[x], ref, slack), (name, x)


def test_g_and_harmonic_lanes_are_tight(tables_20k):
    # g's and H's terms carry their exact residuals, so their bounds are the
    # lanes' computed errors: against exact rationals at every x <= 2e4,
    # each bound holds and, where the true error is nonzero, is at most 10^4
    # times it, and at most 10 times in the median (both read 1.00001)
    pre = ScaledMoebiusPrefix(N)
    L = pre.denominator
    for (v, e), exact in (
        (tables_20k.g_arrays, pre.scaled_g),
        (tables_20k.harmonic_arrays, pre.scaled_harmonic),
    ):
        ratios = []
        for x in range(1, N + 1):
            vn, vd = float(v[x]).as_integer_ratio()
            en, ed = float(e[x]).as_integer_ratio()
            diff = abs(vn * L - exact[x] * vd)  # the true error times vd L
            assert diff * ed <= en * vd * L, x
            if diff:
                ratios.append(en * vd * L / (ed * diff))
        worst, median = max(ratios), statistics.median(ratios)
        assert len(ratios) > N - 10 and worst <= 1e4 and median <= 10, (worst, median)


def test_log_lanes_are_tight_at_the_sampled_x(tables_20k):
    # f, theta, h and the tail charge every log 2 ulp a priori.  Against
    # their 45-digit decimal references at the sampled x, each bound is at
    # most 10^4 times the true error, and at most 10 times in the median
    # (f 4.6, theta 1.6, h 5.6), but the tail's: a priori charges of 2.5 EPS
    # a term make most of its bound, and its median read 42
    xs = _sampled_xs()
    mu = moebius_values_upto(N)
    primes = set(_primes_upto(N).tolist())
    refs = {"f": {}, "theta": {}}
    f = th = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 45
        for k in range(1, N + 1):
            m = int(mu[k])
            if m and k > 1:
                f += m * Decimal(k).ln() / k
            if k in primes:
                th += Decimal(k).ln()
            refs["f"][k], refs["theta"][k] = f, th
    refs["h"], refs["tail"] = _decimal_references(xs)
    lanes = {
        "f": (tables_20k.f_arrays, 10),
        "theta": (tables_20k.theta_arrays, 10),
        "h": (tables_20k.h_arrays, 10),
        "tail": (tables_20k.tail_arrays, 100),
    }
    for name, ((v, e), median_gate) in lanes.items():
        ratios = []
        with localcontext() as ctx:
            ctx.prec = 60
            for x in xs:
                true_err = abs(Decimal(float(v[x])) - refs[name][x])
                if true_err > Decimal("1e-37"):  # the references' own error
                    ratios.append(float(Decimal(float(e[x])) / true_err))
        worst, median = max(ratios), statistics.median(ratios)
        assert len(ratios) > 60 and worst <= 1e4 and median <= median_gate, (name, worst, median)


def test_abel_right_side_contains_decimal_h(tables_20k):
    # summed by parts, the right side is h(x) - 1 exactly, so its bound must
    # hold the 45-digit h reference minus 1
    rng = random.Random(29)
    xs = sorted({1, 2, 3, 4, 30, 210, 4096, N} | {rng.randint(5, N) for _ in range(40)})
    href, _ = _decimal_references(xs)
    slack = Decimal("1e-38")
    with localcontext() as ctx:
        ctx.prec = 60
        for x in xs:
            rhs = abel_rearrangement_check(x, tables=tables_20k).rhs
            assert abs(Decimal(rhs.value) - (href[x] - 1)) <= Decimal(rhs.err) + slack, x


def test_increment_lanes_overlap_gathers(tables_20k):
    hv, he = tables_20k.h_arrays
    tv, te = tables_20k.tail_arrays
    for x in range(1, N + 1):
        h = tables_20k.h_certified(x)
        t = tables_20k.tail_certified(x)
        assert abs(hv[x] - h.value) <= he[x] + h.err, x
        assert abs(tv[x] - t.value) <= te[x] + t.err, x


def test_series_reads_h_lane(tables_20k):
    s = series_scan(N, 37, tables=tables_20k)
    hv, he = tables_20k.h_arrays
    assert np.array_equal(s.h, hv[s.xs]) and np.array_equal(s.h_err, he[s.xs])


@pytest.mark.parametrize("block_size", [1 << 20, 1000])
def test_h_lane_is_the_prefix_of_minus_f_and_tail_terms(block_size):
    # f's term is nonzero only at squarefree x and the tail's only off them,
    # so -(f's + the tail's) and the sum of their errors are exact, and the
    # lane is the prefix of exactly those terms and errors
    tables = SummatoryTables(N, block_size=block_size)
    fv, fe = tables._lane_terms("_f")(0, N)
    tv, te = tables._lane_terms("_tail")(0, N)
    assert np.all(tables.mu[fv != 0.0] != 0) and np.all(tables.mu[tv != 0.0] == 0)
    assert not np.any((fv != 0.0) & (tv != 0.0))
    terms, errs = 0.0 - (fv + tv), fe + te  # 0 - s, so a zero term is +0
    assert np.array_equal(terms, np.where(fv != 0.0, -fv, -tv))
    assert np.array_equal(errs, np.where(fv != 0.0, fe, te))
    hv, he = tables.h_arrays
    ref = _prefix(terms, errs, block_size)
    assert hv.tobytes() == ref[0].tobytes() and he.tobytes() == ref[1].tobytes()
    assert math.isclose(float(hv[N]), tables.h_certified(N).value, rel_tol=1e-12)


@pytest.mark.parametrize("block", [None, 1000])
def test_eps_sum_lane_contains_exact_sum(tables_20k, block):
    # E(k) = sum_{m=2}^{k} eps(m-1)/m must hold the exact sum of its float
    # terms widened by their input errors: each eps error over m (rounded
    # up) and each division's rounding, at most u |term|
    tables = tables_20k if block is None else SummatoryTables(N, block_size=block)
    ev, ee = tables.eps_arrays
    Ev, Ee = tables.eps_sum_arrays
    assert Ev[0] == Ev[1] == Ee[0] == Ee[1] == 0.0
    rng = random.Random(23)
    ks = {2, 3, 4, 1000, 1001, 4096, N} | {rng.randint(5, N) for _ in range(60)}
    u = Fraction(1, 2**53)
    exact = widen = Fraction(0)
    for m in range(2, N + 1):
        t = float(ev[m - 1]) / m
        exact += Fraction(t)
        widen += Fraction(math.nextafter(float(ee[m - 1]) / m, math.inf)) + u * abs(Fraction(t))
        if m in ks:
            assert abs(Fraction(float(Ev[m])) - exact) + widen <= Fraction(float(Ee[m])), m


# every lazy lane of SummatoryTables and the attribute that caches it
_LANE_CACHES = {
    "mu": "_mu",
    "mertens": "_M",
    "primes": "_primes",
    "g_arrays": "_g",
    "f_arrays": "_f",
    "theta_arrays": "_theta",
    "eps_arrays": "_eps",
    "eps_sum_arrays": "_eps_sum",
    "harmonic_arrays": "_H",
    "h_arrays": "_h",
    "tail_arrays": "_tail",
    "P_arrays": "_P",
    "T_arrays": "_T",
}


def test_lanes_are_cached_properties():
    # plain properties (span tracing wraps them), built once and cached under
    # their attribute
    props = {n for n, v in vars(SummatoryTables).items() if isinstance(v, property)}
    assert props == set(_LANE_CACHES)
    tables = SummatoryTables(3000, block_size=1000)
    for lane, attr in _LANE_CACHES.items():
        first = getattr(tables, lane)
        assert getattr(tables, lane) is first and getattr(tables, attr) is first, lane


# the lanes a bound scan may stream, by cache attribute
_STREAMED = {
    "_g": "g_arrays",
    "_f": "f_arrays",
    "_H": "harmonic_arrays",
    "_theta": "theta_arrays",
    "_h": "h_arrays",
    "_tail": "tail_arrays",
    "_eps_sum": "eps_sum_arrays",
    "_P": "P_arrays",
    "_T": "T_arrays",
}


def test_every_prefix_lane_is_streamed():
    # every certified lane but the pointwise eps is a prefix of its
    # ``_lane_terms``, so none can be built by hand outside them
    prefix_lanes = {
        n
        for n, v in vars(SummatoryTables).items()
        if isinstance(v, property) and v.fget.__wrapped__.__qualname__.startswith("_prefix_lane.")
    }
    arrays = {n for n in _LANE_CACHES if n.endswith("_arrays")}
    assert prefix_lanes == set(_STREAMED.values()) == arrays - {"eps_arrays"}
    assert all(_LANE_CACHES[lane] == attr for attr, lane in _STREAMED.items())


@pytest.mark.parametrize("block_size", [1 << 20, 1000, 7])
def test_prefix_stream_chunks_are_the_held_lane_bit_for_bit(block_size):
    # every chunk of the stream, a block split into chunks or not, has the
    # bytes of the held lane's entries
    n = 30_000
    tables = SummatoryTables(n, block_size=block_size)
    for attr, lane in _STREAMED.items():
        held = getattr(tables, lane)
        for chunk in (1 << 14, 333):
            end = 1
            for lo, *got in _prefix_stream(n, block_size, tables._lane_terms(attr), chunk):
                assert lo == end and 0 < got[0].size <= chunk, (attr, chunk, lo)
                for part, whole in zip(got, held):
                    assert part.tobytes() == whole[lo : lo + part.size].tobytes(), (attr, chunk, lo)
                end = lo + got[0].size
            assert end == n + 1


@pytest.mark.parametrize("block_size,chunk", [(1 << 20, 1 << 14), (1000, 1000)])
def test_theta_stream_sieves_each_segment_once(monkeypatch, block_size, chunk):
    # the theta stream flags its primes one 2^20 segment at a time; on the
    # 1000 grid the chunk [1048001, 1049000] straddles the segment edge and
    # is flagged by itself
    n = (1 << 20) + 3000
    calls = []

    def counted(lo, hi):
        calls.append((lo, hi))
        return prime_flags(lo, hi)

    monkeypatch.setattr(mobsum.summatory, "prime_flags", counted)
    block_terms = SummatoryTables(n, block_size=block_size)._lane_terms("_theta")
    for lo, hi in _chunk_grid(n, block_size, chunk):
        got = block_terms(lo, hi)
        if hi > (1 << 20) - 5000:  # against the terms flagged chunk by chunk
            assert got[0].tobytes() == _theta_terms(lo, hi)[0].tobytes(), (lo, hi)
    straddle = [(1048001, 1049000)] if block_size == 1000 else []
    assert calls == [(1, 1 << 20), *straddle, ((1 << 20) + 1, n)]


@pytest.mark.parametrize("block_size", [1 << 20, 1000])
def test_scan_chunks_from_mid_block_match_held_lane(block_size):
    # a range that starts inside a block streams from x = 1 and is cut at lo;
    # the lane stays unbuilt, and a held lane is read on the same grid
    n, lo, hi = 30_000, 1500, 29_999
    held = SummatoryTables(n, block_size=block_size)
    for attr, lane in _STREAMED.items():
        streamed = SummatoryTables(n, block_size=block_size)
        got = list(streamed._chunks(attr, lo, hi, 333))
        assert getattr(streamed, attr, None) is None, attr
        vals, errs = getattr(held, lane)
        assert got[0][0] == lo
        assert np.concatenate([c[1] for c in got]).tobytes() == vals[lo : hi + 1].tobytes()
        assert np.concatenate([c[2] for c in got]).tobytes() == errs[lo : hi + 1].tobytes()
        assert [c[0] for c in held._chunks(attr, lo, hi, 333)] == [c[0] for c in got]


# the float-lane caches and M, none of which a streamed reader may build
_FULL_LENGTH = ("_g", "_f", "_theta", "_H", "_h", "_tail", "_eps", "_eps_sum", "_P", "_T", "_M")


@functools.lru_cache(maxsize=None)
def _held(n: int, block_size: int) -> SummatoryTables:
    tables = SummatoryTables(n, block_size=block_size)
    for lane in ("g_arrays", "f_arrays", "theta_arrays", "eps_arrays", "h_arrays", "mertens"):
        getattr(tables, lane)
    return tables


def _hex(samples: list) -> list:
    return [(x, float(v).hex()) for x, v in samples]


def _report_bits(r) -> tuple:
    return r.kind, r.G, r.xi, r.bound_ok, r.abel_ok, r.note, _hex(r.samples)


def _held_samples(held: SummatoryTables, n: int, stride: int, delta: float) -> tuple[list, ...]:
    """The samples of empirical_G, h_convergence and m_over_x_convergence,
    read from the held lanes by index."""
    ev, ee = held.eps_arrays
    bad = np.flatnonzero(~(np.abs(ev[1:]) + ee[1:] <= delta / 3.0))
    G = int(bad[-1]) + 2 if bad.size else 1
    eps = [(G, float(abs(ev[G])))] if G <= n else []
    xs = range(stride, n + 1, stride)
    h = [(x, abs(float(held.h_arrays[0][x])) / math.log(x)) for x in xs if x >= 2]
    M = [(x, abs(int(held.mertens[x])) / x) for x in xs]
    return eps, h, M


# past 2^15 x, the chunk of a sample gather; at block size 7 a chunk ends
# every 7 x, so a shorter range crosses enough edges; at 228, G = 229 of
# delta 0.3 opens a chunk
@pytest.mark.parametrize(
    "block_size,n", [(1 << 20, 40_000), (1000, 40_000), (7, 3000), (228, 3000)]
)
@pytest.mark.parametrize("stride", [1, 7, 40_001])
def test_streamed_readers_match_held_lanes_bit_for_bit(block_size, n, stride):
    # series_scan and the convergence reports gather their samples chunk by
    # chunk; on fresh tables they build no float lane and no M, and read the
    # bits of tables that hold the lanes
    held, fresh = _held(n, block_size), SummatoryTables(n, block_size=block_size)
    got, want = series_scan(n, stride, tables=fresh), series_scan(n, stride, tables=held)
    for name in SummatorySeries.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    if stride < n:
        xs = want.xs
        assert want.g.tobytes() == held.g_arrays[0][xs].tobytes()
        assert want.epsilon_err.tobytes() == held.eps_arrays[1][xs].tobytes()
        assert np.array_equal(want.M, held.mertens[xs])
    for delta in (0.3, 10.0, 1e-9):
        eps, h, M = _held_samples(held, n, stride, delta)
        got = empirical_G(delta, n, tables=fresh)
        assert _report_bits(got) == _report_bits(empirical_G(delta, n, tables=held))
        assert _hex(got.samples) == _hex(eps)
        got = h_convergence(delta, n, stride, tables=fresh)
        assert _report_bits(got) == _report_bits(h_convergence(delta, n, stride, tables=held))
        assert _hex(got.samples) == _hex(h)
    got = m_over_x_convergence(0.3, n, stride, cutoff=300, tables=fresh)
    want = m_over_x_convergence(0.3, n, stride, cutoff=300, tables=held)
    assert _report_bits(got) == _report_bits(want) and _hex(got.samples) == _hex(M)
    assert [getattr(fresh, attr, None) for attr in _FULL_LENGTH] == [None] * len(_FULL_LENGTH)


def test_series_scan_memory_is_not_a_full_length_lane():
    # series_scan(10^6, 1000) holds the 1 MB mu lane and chunk-sized arrays;
    # M as one int64 cast of mu would take 8 MB more
    series_scan(1000, 10)  # the sieve's and the kernel's own caches
    tracemalloc.start()
    try:
        s = series_scan(10**6, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(s.M[-1]) == 212 and len(s) == 1000
    assert peak < 6 << 20, peak


def _run_sum_references(n: int, xs: list[int]) -> tuple[dict, ...]:
    """P(k) and T(k) at every k <= n, and h(x) and tail(x) at the x of xs,
    as 40-digit decimal sums with exact inner g (``ScaledMoebiusPrefix``)."""
    pre = ScaledMoebiusPrefix(n)
    L = pre.denominator
    primes = _primes_upto(n).tolist()
    with localcontext() as ctx:
        ctx.prec = 40
        g = [Decimal(v) / L for v in pre.scaled_g]
        # the weights log p / p^i at their moduli p^i <= n
        weights = {}
        for p in primes:
            lp, q, i = Decimal(p).ln(), p, 1
            while q <= n:
                weights[q] = (lp / q, i)
                q, i = q * p, i + 1
        P, T, p_acc, t_acc = {}, {}, Decimal(0), Decimal(0)
        for k in range(n + 1):
            w, i = weights.get(k, (0, 0))
            if i == 1:
                p_acc += w
            elif i:
                t_acc += w
            P[k], T[k] = p_acc, t_acc
        h, tail = {}, {}
        for x in xs:
            h[x] = tail[x] = Decimal(0)
            for q, (w, i) in weights.items():
                if q <= x and i == 1:
                    h[x] += w * g[x // q]
                elif q <= x:
                    tail[x] += w * g[x // q]
    return P, T, h, tail


def test_run_sums_and_their_weights_contain_decimal_references(tables_2k):
    # the weight lanes P and T at every k <= 2000, and at sampled x <= 2000
    # the run sums of h (over P) and of the tail (over T) and the rearranged
    # right side, which is h(x) - 1, each within its bound of a 40-digit
    # reference.  Tightness is not gated: the run terms' a priori charges
    # dominate these bounds (their ratios to the true errors are in CHANGES.md)
    n = 2000
    rng = random.Random(31)
    xs = sorted({1, 2, 3, 4, 8, 30, 210, 1024, n} | {rng.randint(5, n) for _ in range(60)})
    P, T, href, tref = _run_sum_references(n, xs)
    slack = Decimal("1e-36")  # the references sum at most a few thousand 40-digit terms
    for (v, e), ref in ((tables_2k.P_arrays, P), (tables_2k.T_arrays, T)):
        for k in range(n + 1):
            assert _contains_decimal(v[k], e[k], ref[k], slack), k
    (hv, he), (tv, te) = tables_2k._run_sums(1, n, tables_2k.P_arrays, tables_2k.T_arrays)
    av, ae = identities._abel_rhs(1, n, tables_2k)
    sides = (("h", hv, he, href, 0), ("tail", tv, te, tref, 0), ("abel", av, ae, href, 1))
    for name, v, e, ref, shift in sides:
        for x in xs:
            assert _contains_decimal(v[x - 1], e[x - 1], ref[x] - shift, slack), (name, x)
