import math
import random
import statistics
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

import mobsum.fast
from mobsum.fast import (
    MertensEvaluator,
    _GBase,
    _g_value,
    _mertens_table,
    _mertens_tails,
    _mertens_value,
    _moebius_head,
    _quotients,
    _runs,
    default_crossover,
    g_recursive,
    g_recursive_exact,
    g_recursive_float,
    m_recursive,
    mertens_prefix_recursive,
)
from mobsum.sieve import sieve_moebius
from mobsum.certified import EPS, _HEADROOM
from mobsum.summatory import (
    ScaledMoebiusPrefix,
    SummatoryTables,
    _CHUNK,
    _corrected_sum,
    big_m,
    g_exact,
    g_float,
    moebius_values_upto,
)


def _runs_from_one(x: int) -> list[tuple[int, int, int]]:
    """The maximal runs (q, nu_lo, nu_hi) of q = x // nu over [1, x]: the
    nu = 1 head, then ``_runs(x)``."""
    q, lo, hi = _runs(x)
    return [(x, 1, 1), *zip(q.tolist(), lo.tolist(), hi.tolist())]


def test_quotient_blocks_examples():
    assert _runs_from_one(1) == [(1, 1, 1)]
    assert _runs_from_one(10) == [(10, 1, 1), (5, 2, 2), (3, 3, 3), (2, 4, 5), (1, 6, 10)]
    assert len(_runs_from_one(100)) <= 2 * 10  # 2 ceil(sqrt(x))


def test_quotient_blocks_partition_exhaustive():
    for x in range(1, 10**4 + 1):
        blocks = _runs_from_one(x)
        cursor = 1
        for q, lo, hi in blocks:
            assert lo == cursor and hi >= lo
            assert x // lo == q and x // hi == q
            if hi < x:
                assert x // (hi + 1) != q
            cursor = hi + 1
        assert cursor == x + 1
        assert len(blocks) <= 2 * (isqrt(x) + 1)


def test_quotient_blocks_partition_random_large():
    rng = random.Random(3)
    for _ in range(20):
        x = rng.randrange(10**6, 10**9)
        blocks = _runs_from_one(x)
        assert blocks[0] == (x, 1, 1)
        assert blocks[-1][2] == x
        for (q1, _, h1), (_, l2, _) in zip(blocks, blocks[1:]):
            assert l2 == h1 + 1
        assert len(blocks) <= 2 * (isqrt(x) + 1)


def test_m_recursive_examples():
    assert m_recursive(1) == 1
    assert m_recursive(6) == -1


def test_m_recursive_matches_sieve_small():
    for x in range(1, 2001):
        assert m_recursive(x) == big_m(x), x


def test_m_recursive_prefix_fill_matches_sieve():
    from mobsum.summatory import moebius_values_upto

    n = 20000
    rec = mertens_prefix_recursive(n)
    direct = np.cumsum(moebius_values_upto(n), dtype=np.int64)
    assert np.array_equal(rec[1:], direct[1:])


def test_m_recursive_shared_evaluator_random():
    ev = MertensEvaluator(10**6)
    rng = random.Random(11)
    xs = [rng.randrange(1, 10**6) for _ in range(25)]
    from mobsum.summatory import moebius_values_upto

    direct = np.cumsum(moebius_values_upto(10**6), dtype=np.int64)
    for x in xs:
        assert ev.value(x) == int(direct[x]), x


def test_m_recursive_crossover_knob():
    for k in (50, 316, 5000):
        assert m_recursive(10**5, crossover=k) == -48


def test_m_recursive_1e11():
    assert m_recursive(10**11) == -87856  # OEIS A084237


def test_m_recursive_two_crossovers_agree():
    # a gate that needs no table of M: two base tables must give one value,
    # and it must match M(10^11) plus the sieved mu over the offset
    x = 10**11 + 4321
    k = default_crossover(x)
    offset = int(sieve_moebius(10**11 + 1, x).values.sum(dtype=np.int64))
    assert m_recursive(x) == m_recursive(x, crossover=k // 4) == -87856 + offset


def test_m_recursive_every_crossover_to_3000():
    from mobsum.summatory import moebius_values_upto

    M = np.cumsum(moebius_values_upto(3000), dtype=np.int64)
    for x in range(1, 3001):
        # 1 is raised to isqrt(x); x // 2 and x - 1 leave at most one chain index
        for k in (None, 1, x // 2, x - 1):
            assert m_recursive(x, crossover=k) == M[x], (x, k)


def test_mertens_value_is_the_chain_head():
    from mobsum.summatory import moebius_values_upto

    top = 10**7
    M = np.cumsum(moebius_values_upto(top), dtype=np.int32)
    ev = MertensEvaluator(top)
    rng = random.Random(21)
    for x in (rng.randrange(ev.crossover + 1, top + 1) for _ in range(50)):
        chain = ev.chain(x)
        assert ev.value(x) == int(chain[1]), x
        js = np.arange(1, chain.size)
        assert np.array_equal(chain[1:], M[x // js]), x


@pytest.mark.parametrize("q", [2**21, 2**21 + 1, 3 * 2**20, 3 * 2**20 + 1, 2**20 + 1])
def test_mertens_reads_past_the_head_on_block_edges(q):
    # x // 50 = q is the read nu = 50 of T_1, past the head [0, 2^20]: 50 lies
    # in (J, x // (2^20 + 1)].  The head and the whole base table give one T_k
    # at every chain index, and one M(x).
    K, H, nu = 4 * 2**20, 2**20, 50
    head, full = _mertens_table(H), _mertens_table(K)
    for x in (q * nu, q * nu + nu - 1):
        J = x // (K + 1)
        assert J < nu <= x // (H + 1) and x // nu == q
        mu = _moebius_head(head, isqrt(x))
        ks = np.arange(1, J + 1)
        T = _mertens_tails(x, ks, K, head, mu)
        assert np.array_equal(T, _mertens_tails(x, ks, K, full, mu)), x
        assert _mertens_value(x, K, head, mu) == _mertens_value(x, K, full, mu), x


def test_m_recursive_head_only_crossover_agrees():
    # at crossover 2^20 the head is the whole base table; the default reads
    # (2^20, 4.6e6] past it
    x = 10**10 + 4321
    offset = int(sieve_moebius(10**10 + 1, x).values.sum(dtype=np.int64))
    assert m_recursive(x, crossover=2**20) == m_recursive(x) == -33722 + offset


def test_mertens_evaluator_past_the_head():
    from mobsum.summatory import moebius_values_upto

    top = 10**7
    M = np.cumsum(moebius_values_upto(top), dtype=np.int32)
    ev = MertensEvaluator(top, crossover=3 * 2**20 + 7)
    assert ev.head.size == 2**20 + 1
    # J = 3, 1 and 0 (x at and below the crossover, past the head and on it)
    for x in (top, 9_999_991, 3 * 2**20 + 8, 3 * 2**20 + 7, 2**20 + 1, 2**20, 12345):
        chain = ev.chain(x)
        assert chain.size == x // (ev.crossover + 1) + 1
        assert ev.value(x) == int(M[x]), x
        js = np.arange(1, chain.size)
        assert np.array_equal(chain[1:], M[x // js]), x


@pytest.mark.parametrize("x, limit_mib", [(10**10, 12), (10**11, 32)])
def test_m_recursive_memory_is_the_head(x, limit_mib):
    # the whole int32 base table took 20.7 MiB at 10^10 and 91.2 MiB at 10^11;
    # the head is 4 MiB, and (H, K] passes one 2^20 block at a time
    tracemalloc.start()
    try:
        m_recursive(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20, peak / 2**20


def test_m_recursive_far_phase_makes_m_in_pieces():
    # above the head, M is made a quarter block (2^18 entries) at a time in
    # one 1 MiB buffer: a 4 MiB buffer per 2^20 block traced 10.9 MiB here,
    # the pieces 7.9 MiB.  A crossover at the head has no far phase.
    x = 10**10 + 23456
    m_recursive(10**6 + 7)
    tracemalloc.start()
    try:
        got = m_recursive(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20, peak / 2**20
    assert got == m_recursive(x, crossover=2**20)


def test_float_quotients_exact_below_2_53():
    rng = random.Random(7)
    top = 2**53 - 1
    ds = [2, 3, 7, 2**26 + 1, *(rng.randrange(2, 2**27) for _ in range(200))]
    d = np.array(ds, dtype=np.float64)
    # just below a multiple of d is where a rounded quotient could reach the next integer
    ys = [top, top - 1, *(rng.randrange(2**52, top) for _ in range(50))]
    ys += [(top // dd) * dd - 1 for dd in ds] + [(top // dd) * dd for dd in ds]
    for y in ys:
        assert _quotients(y, d).tolist() == [y // dd for dd in ds], y


def test_mertens_chain_is_the_sieved_prefix():
    ev = MertensEvaluator(10**6, crossover=1000)
    for x in (10**6, 999_983, 123_457, 5000, 1001):
        chain = ev.chain(x)
        M = SummatoryTables(x).mertens
        assert chain.size == x // 1001 + 1
        assert [int(v) for v in chain[1:]] == [int(M[x // j]) for j in range(1, chain.size)], x


def test_oversized_base_table_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            MertensEvaluator(10**15, crossover=2**31)
        with pytest.raises(ValueError):
            m_recursive(10**15)  # default crossover 10^10
        with pytest.raises(ValueError):
            mertens_prefix_recursive(2**31, base_limit=2**31)
        with pytest.raises(ValueError):
            MertensEvaluator(2**53, crossover=2**30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_g_recursive_exact_examples():
    assert g_recursive_exact(1) == 1
    assert g_recursive_exact(3) == Fraction(1, 6)


def test_g_recursive_exact_matches_direct_to_500():
    tabs = ScaledMoebiusPrefix(500)
    pre_g = {x: g_exact(x) for x in range(1, 501)}
    for x in range(1, 501):
        assert g_recursive_exact(x, tables=tabs) == pre_g[x], x


def test_g_recursive_float_contains_exact():
    for x in (1, 2, 10, 100, 999, 1500):
        r = g_recursive_float(x)
        assert abs(Fraction(r.value) - g_exact(x)) <= Fraction(r.err), x


def test_g_recursive_float_matches_linear_scan():
    x = 10**5
    rec = g_recursive_float(x)
    lin = g_float(x)
    assert abs(rec.value - lin.value) <= rec.err + lin.err


def test_g_recursive_dispatch():
    assert isinstance(g_recursive(100), Fraction)
    out = g_recursive(100, exact=False)
    assert hasattr(out, "err")
    assert isinstance(g_recursive(10**5, cutoff=10**4), type(out))


def test_g_recursive_crossover_knob():
    expect = g_exact(3000)
    # 1 and 10 lie below isqrt(3000) = 54, where the crossover is raised to 54
    for k in (1, 10, 60, 300, 2000):
        assert g_recursive_exact(3000, crossover=k) == expect
    low, clamped = g_recursive_float(3000, crossover=10), g_recursive_float(3000, crossover=54)
    assert (low.value.hex(), low.err.hex()) == (clamped.value.hex(), clamped.err.hex())


# value and error bound of g_recursive_float, bit for bit: the squarefree-k
# inversion's, each T_k one corrected sum over its terms and the far sum
_G_FLOAT_GOLDEN = [
    (10**7, None, "0x1.a9d283f6e7540p-14", "0x1.b11eace611019p-48"),
    (10**7 + 35276, None, "0x1.a395ec9863480p-14", "0x1.b120944e93b77p-48"),
    (10**8, None, "0x1.577fe3d709300p-16", "0x1.e34fa39a8f970p-48"),
    (3000, 10, "-0x1.b3118e9f5f9b0p-10", "0x1.cf1e674213499p-49"),
    (3000, 300, "-0x1.b3118e9f5f800p-10", "0x1.63c016a539b10p-49"),
    # a chain root with isqrt 1: no single nu, only the run q = 1
    (2, None, "0x1.0000000000000p-1", "0x1.8000028000012p-52"),
    (3, None, "0x1.5555555555554p-3", "0x1.4aaaad01aaabdp-51"),
]


@pytest.mark.parametrize(
    "x, crossover, value, err",
    [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in _G_FLOAT_GOLDEN],
)
def test_g_recursive_float_golden_bits(x, crossover, value, err):
    r = g_recursive_float(x, crossover=crossover)
    assert (r.value.hex(), r.err.hex()) == (value, err)


def test_g_recursive_float_is_sound_and_tight():
    # against exact g at every x <= 400 and at sampled x <= 10^4, at three
    # crossovers (60 puts x < 60 on the lane itself, 10 is raised to isqrt(x))
    pre = ScaledMoebiusPrefix(10**4)
    rng = random.Random(26)
    xs = [*range(1, 401), *sorted(rng.sample(range(401, 10**4), 150)), 10**4]
    ratios = []
    for x in xs:
        exact = pre.g_fraction(x)
        for k in (None, 10, 60):
            r = g_recursive_float(x, crossover=k)
            true_err = abs(Fraction(r.value) - exact)
            assert true_err <= Fraction(r.err), (x, k)
            if true_err:
                ratios.append(r.err / float(true_err))
    # the bound is within a few decades of the true error, not the chain's
    # 10^4..10^6; the median read 52.6 with the lane's computed errors
    assert len(ratios) > 1000 and statistics.median(ratios) <= 5e2, statistics.median(ratios)


def test_g_recursive_float_contains_decimal_where_log1p_weighs_runs():
    # roots y >= 512^2 weigh their runs by log1p (``_harmonic_diff``), which
    # the exact tests at x <= 10^4 never reach: against a 40-digit decimal
    # sum of mu(k)/k, every bound holds and is within 10^4 times the true
    # error, and within 10^3 in the median
    ratios = []
    for x in (3 * 10**5 + 7, 7 * 10**5 + 3, 10**6 + 17):
        mu = moebius_values_upto(x)
        with localcontext() as ctx:
            ctx.prec = 40
            ref = sum((Decimal(int(mu[k])) / k for k in np.flatnonzero(mu).tolist()), Decimal(0))
        r = g_recursive_float(x)
        true_err = abs(Decimal(r.value) - ref)
        assert 0 < true_err <= Decimal(r.err), x
        ratios.append(r.err / float(true_err))
    assert max(ratios) <= 1e4 and statistics.median(ratios) <= 1e3, ratios


def test_g_far_reads_stream_the_held_lane_bits():
    # K = 1.59e6 > H = 2^20: the nu in (J // k, y // (H+1)] read g past the
    # head.  Held or streamed, ``_chunks`` gives the same chunks, so the whole
    # lane and the head alone give one value and bound, bit for bit; a head
    # that is the whole table (no far reads) overlaps them.
    x = 2 * 10**9 + 1234
    K = default_crossover(x)
    H = 2**20
    assert x // (K + 1) < x // (H + 1)
    whole = SummatoryTables(K)
    whole.g_arrays
    held = _g_value(x, K, _GBase(whole, H, x))
    streamed = _g_value(x, K, _GBase(SummatoryTables(K), H, x))
    assert (held.value.hex(), held.err.hex()) == (streamed.value.hex(), streamed.err.hex())
    r = g_recursive_float(x)
    assert (r.value.hex(), r.err.hex()) == (streamed.value.hex(), streamed.err.hex())
    near = _g_value(x, K, _GBase(whole, K, x))
    assert abs(near.value - held.value) <= near.err + held.err
    assert held.err <= 1e-7 * abs(held.value)


def test_g_recursive_float_two_crossovers_at_1e10():
    x = 10**10
    a = g_recursive_float(x)
    b = g_recursive_float(x, crossover=default_crossover(x) // 2)
    assert abs(a.value - b.value) <= a.err + b.err
    assert a.err <= 1e-7 * abs(a.value) and b.err <= 1e-7 * abs(b.value), (a, b)


def test_g_recursive_float_holds_no_mu_lane(monkeypatch):
    # at 10^10 the crossover K = 4.6e6 lies above the head H = 2^20; the g
    # lane's terms read mu one 2^20 segment at a time and the k <= J read
    # mu(0..J), so the tables build no int8 mu lane over [0, K]
    built = []

    class Recorded(SummatoryTables):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(mobsum.fast, "SummatoryTables", Recorded)
    x = 10**10
    r = g_recursive_float(x)
    assert [t.limit for t in built] == [default_crossover(x)] and built[0].limit > 2**20
    assert getattr(built[0], "_mu", None) is None
    assert r.err <= 1e-7 * abs(r.value)


def test_fsum_rounds_correctly():
    # ``_g_value`` charges an fsum result s only u |s|: the correctly rounded sum
    u = 2.0**-53
    cases = [
        [1.0, 1e100, 1.0, -1e100],
        [1.0, u],  # a tie, to even
        [1.0, u, u * u],  # just above the tie
        [1.0, -u / 2, -(u**2)],
        [1e16, 1.0, -1e16, 1e-16],
        [0.1] * 10 + [-1.0],
    ]
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 40)
        terms = [rng.uniform(-1, 1) * 2.0 ** rng.randrange(-60, 60) for _ in range(n)]
        cases.append(terms + [-t for t in terms[::2]])
    for terms in cases:
        assert math.fsum(terms) == float(sum(map(Fraction, terms))), terms


def _corrected_sum_contains(terms: list[float]) -> bool:
    t = np.array(terms)
    T, bound = _corrected_sum(t.copy(), float(np.abs(t).sum()))
    return abs(Fraction(T) - sum(map(Fraction, terms))) <= Fraction(bound * _HEADROOM)


def test_corrected_sum_charges_each_rounding():
    # ``_GBase.tail`` sums each T_k with ``_corrected_sum``.  Its last add
    # rounds: 1 + 2^-70 comes back as 1, which only u |T| covers
    assert _corrected_sum_contains([1.0, 2.0**-70])
    # the error sum rounds: the adds' errors 2^-53, 2^-160 and -2^-53 sum to
    # 0 in floats and T = 0 while the sum is 2^-160, which only the error
    # sum's charge covers
    assert _corrected_sum_contains([1.0, 2.0**-53, 2.0**-160, 3 * 2.0**-53, -(1 + 2.0**-51)])
    # and random cancelling sums, against exact rationals
    rng = random.Random(28)
    for _ in range(300):
        terms = [rng.uniform(-1, 1) * 2.0 ** rng.randrange(-60, 60) for _ in range(rng.randrange(1, 40))]
        assert _corrected_sum_contains(terms + [-t for t in terms[::2]]), terms


def test_g_recursive_float_past_the_head_is_the_lane_entry():
    # J = 0 with x above the held head [0, 2^20]: the lane's own entry,
    # read past the head by ``SummatoryTables._at``
    x = 2**20 + 12345
    r, ref = g_recursive_float(x, crossover=x), g_float(x)
    assert (r.value.hex(), r.err.hex()) == (ref.value.hex(), ref.err.hex())


def test_corrected_sum_in_pieces_is_one_cumsum():
    # ``_corrected_sum`` runs its cumsum and TwoSum in _CHUNK pieces; over
    # several pieces it returns the bits of one cumsum whose adds' exact
    # errors (taken here with rationals) are summed by np.sum
    rng = np.random.default_rng(34)
    for n in (1, 2, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5):
        t = rng.standard_normal(n) * 2.0 ** rng.integers(-40, 40, n)
        c = np.cumsum(t)
        cs, ts = [Fraction(v) for v in c.tolist()], [Fraction(v) for v in t.tolist()]
        delta = np.array([float(cs[j - 1] + ts[j] - cs[j]) for j in range(1, n)])
        mag = float(np.abs(t).sum())
        T, bound = _corrected_sum(t.copy(), mag)
        assert T.hex() == (float(c[-1]) + float(delta.sum())).hex(), n
        assert bound == 0.5 * EPS * abs(T) + (n * EPS) ** 2 * mag, n


def test_g_recursive_float_crossover_knob():
    for x in (3000, 10**4):
        expect = g_exact(x)
        for k in (10, 60, None):
            r = g_recursive_float(x, crossover=k)
            assert abs(Fraction(r.value) - expect) <= Fraction(r.err), (x, k)


def test_validation():
    with pytest.raises(ValueError):
        m_recursive(0)
    with pytest.raises(ValueError):
        g_recursive_exact(0)
