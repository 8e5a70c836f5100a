import math
import random
import statistics
from fractions import Fraction

import numpy as np
import pytest

from mobsum import identities, summatory
from mobsum.certified import EPS, _HEADROOM
from mobsum.fast import _runs
from mobsum.identities import (
    CutoffExceededError,
    IdentityCheck,
    abel_rearrangement_check,
    abel_scan,
    capital_f,
    decomposition_check,
    decomposition_scan,
    divisor_sum,
    divisor_sum_scan,
    gram_identity,
    gram_scan,
    prime_power_tail,
)
from mobsum.summatory import ScaledMoebiusPrefix, SummatoryTables, g_exact, h_direct

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def test_divisor_sum_examples():
    assert divisor_sum(1) == 1
    assert divisor_sum(12) == 0
    assert divisor_sum(7) == 0


def test_divisor_sum_brute_force_cross_check():
    # via full divisor lists, independent of the enumeration under test
    from mobsum.sieve import moebius_oracle

    for t in (1, 2, 36, 97, 360):
        divisors = [d for d in range(1, t + 1) if t % d == 0]
        assert divisor_sum(t) == sum(moebius_oracle(d) for d in divisors)


def test_divisor_sum_exhaustive_small():
    for t in range(2, 10**4 + 1):
        assert divisor_sum(t) == 0, t


def test_divisor_sum_scan_matches_points():
    sums = divisor_sum_scan(3000)
    assert sums.shape == (3001,) and sums[0] == 0
    assert sums[1:].tolist() == [divisor_sum(t) for t in range(1, 3001)]
    with pytest.raises(ValueError):
        divisor_sum_scan(0)


def test_gram_examples():
    for x, terms in ((1, [g_exact(1)]), (2, [g_exact(2), Fraction(1, 2) * g_exact(1)])):
        check = gram_identity(x)
        assert check.holds and check.lhs == 1
        assert sum(terms) == 1
    c3 = gram_identity(3)
    assert c3.holds
    # by hand: g(3) + (1/2) g(3/2) + (1/3) g(1) = 1/6 + 1/2 + 1/3
    assert Fraction(1, 6) + Fraction(1, 2) + Fraction(1, 3) == 1


def test_gram_exhaustive_2000():
    checks = gram_scan(1, 2000)
    assert all(c.holds for c in checks)
    assert all(c.slack == 0.0 for c in checks)


def test_gram_rejects_corrupted_prefix():
    prefix = ScaledMoebiusPrefix(300)
    prefix.scaled_g[97] += 1  # g(97) off by 1/L
    assert not gram_identity(97, prefix=prefix).holds  # the nu = 1 term
    assert not gram_identity(291, prefix=prefix).holds  # the nu = 3 run
    assert all(gram_identity(x, prefix=prefix).holds for x in range(1, 97))


def test_gram_scan_matches_point_checks():
    def point_checks(lo, hi, prefix):
        return [gram_identity(x, prefix=prefix) for x in range(lo, hi + 1)]

    sound = ScaledMoebiusPrefix(2000)
    expected = point_checks(1, 2000, sound)
    assert gram_scan(1, 2000, prefix=sound) == expected
    assert gram_scan(50, 2000, prefix=sound) == expected[49:]
    one = ScaledMoebiusPrefix(300)
    one.scaled_g[97] += 1
    two = ScaledMoebiusPrefix(300)
    two.scaled_g[1] -= 1
    two.scaled_g[2] += two.denominator
    two.scaled_g[150] += 7
    for bad in (one, two):
        checks = gram_scan(1, 300, prefix=bad)
        assert checks == point_checks(1, 300, bad)
        assert any(not c.holds for c in checks)
        assert gram_scan(50, 300, prefix=bad) == checks[49:]


def test_gram_scan_guards(monkeypatch):
    short = ScaledMoebiusPrefix(300)
    short.scaled_g = None  # any read of the table would raise TypeError
    with pytest.raises(ValueError):
        gram_scan(1, 301, prefix=short)
    blocked = identities._unit_sum_scaled
    monkeypatch.setattr(
        identities, "_unit_sum_scaled", lambda *args: blocked(*args) + 1
    )
    with pytest.raises(AssertionError):
        gram_scan(1, 50)


def test_gram_cutoff_error():
    with pytest.raises(CutoffExceededError):
        gram_identity(50, cutoff=10)


def test_capital_f_examples():
    r = capital_f(2, 3)
    assert abs(r.value - (-0.5)) <= r.err + 1e-15
    r = capital_f(3, 3)
    assert abs(r.value - (-1 / 3)) <= r.err + 1e-15
    r = capital_f(2, 4)
    assert abs(r.value - (-0.5)) <= r.err + 1e-15


def test_capital_f_domain_errors():
    with pytest.raises(ValueError):
        capital_f(4, 10)  # not prime
    with pytest.raises(ValueError):
        capital_f(7, 5)  # p > x


def test_capital_f_rejects_undersized_tables():
    with pytest.raises(ValueError):
        capital_f(2, 5000, tables=SummatoryTables(100))


def test_capital_f_is_sound_and_tight():
    # against exact rationals, -sum_i g(x // p^i) / p^i with g(k) L off one
    # ScaledMoebiusPrefix, at about 300 random x <= 10^4 and the first eight
    # primes: each bound holds and, where the true error is nonzero, is at
    # most 10 times it in the median.  ROADMAP item 9's 10^4 rule for the
    # worst case does not hold everywhere: at x = 65 .. 69 and p = 5 the
    # float sum lands within 4e-21 of the exact one, and the bound is 2.4e4
    # times that (one such x is in this sample)
    top = 10**4
    pre, tables = ScaledMoebiusPrefix(top // 2), SummatoryTables(top // 2)
    L = pre.denominator
    rng = random.Random(9)
    xs = [2, 3, 4, 8, 9, 16, 17, 2**13, 3**8, top, *(rng.randrange(2, top + 1) for _ in range(290))]
    ratios = []
    for x in xs:
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            if p > x:
                continue
            r = capital_f(p, x, tables=tables)
            exact, pi = Fraction(0), p
            while pi <= x:
                exact -= Fraction(pre.scaled_g[x // pi], L * pi)
                pi *= p
            diff = abs(Fraction(r.value) - exact)
            assert diff <= Fraction(r.err), (p, x)
            if diff:
                ratios.append(float(Fraction(r.err) / diff))
    assert len(ratios) > 2000 and statistics.median(ratios) <= 10, statistics.median(ratios)


def test_capital_f_truncation_lossless():
    # extending the series one power past the cutoff adds exactly zero:
    # g drops to 0 below 1, so the brute sum over more powers agrees
    for p, x in ((2, 100), (3, 50), (5, 30)):
        r = capital_f(p, x)
        brute = 0.0
        pi = p
        for _ in range(40):
            brute -= float(g_exact(Fraction(x, pi))) / pi
            pi *= p
        assert abs(r.value - brute) <= r.err + 1e-13


def test_decomposition_examples(tables_2k):
    c3 = decomposition_check(3)
    assert c3.holds
    # tail empty below 4 since 2^2 > 3
    assert prime_power_tail(3).value == 0.0
    c1 = decomposition_check(1)
    assert c1.holds and c1.lhs.value == 0.0
    c4 = decomposition_check(4, tables=tables_2k)
    assert c4.holds
    # by hand: h(4) = (log2/2) g(2) + (log3/3) g(4/3); tail(4) = (log2/4) g(1)
    h4 = LOG2 / 2 * 0.5 + LOG3 / 3 * 1.0
    tail4 = LOG2 / 4
    f4 = -LOG2 / 2 - LOG3 / 3
    assert abs((-h4 - tail4) - f4) < 1e-15
    assert abs(c4.lhs.value - f4) < 1e-13


def test_decomposition_scan_holds(tables_2k):
    checks = decomposition_scan(1, 2000, tables=tables_2k)
    assert all(c.holds for c in checks)
    assert max(c.slack for c in checks) < 1e-9


def test_abel_examples(tables_2k):
    c1 = abel_rearrangement_check(1)
    assert c1.holds
    assert abs(c1.lhs.value - (-1.0)) < 1e-12
    assert abs(c1.rhs.value - (-1.0)) < 1e-12
    c2 = abel_rearrangement_check(2)
    assert c2.holds
    assert abs(c2.lhs.value - (h_direct(2).value - 1.0)) < 1e-12
    c10 = abel_rearrangement_check(10, tables=tables_2k)
    assert c10.holds and c10.slack <= 1e-12


def test_abel_rejects_undersized_tables():
    with pytest.raises(ValueError):
        abel_rearrangement_check(500, tables=SummatoryTables(100))
    with pytest.raises(ValueError):
        abel_scan(1, 500, tables=SummatoryTables(100))
    # before any work: these lanes read as 0, so using any of them raises TypeError
    short = SummatoryTables(100)
    short._g = short._f = short._P = short._T = 0
    with pytest.raises(ValueError):
        decomposition_scan(1, 500, tables=short)


def _dense_abel_rhs(n: int, tables: SummatoryTables) -> tuple[float, float]:
    """The rearranged right side at n with one term per nu, and its bound."""
    gv, ge = tables.g_arrays
    ev, ee = tables.eps_arrays
    nu = np.arange(1, n + 1, dtype=np.int64)
    q1 = n // nu
    q2 = n // (nu + 1)
    enu = ev[nu]
    enu_err = ee[nu]
    d = gv[q1] - gv[q2]
    d_err = ge[q1] + ge[q2] + EPS * np.abs(d)
    t1 = enu * d
    in1 = np.abs(enu) * d_err + enu_err * np.abs(d) + EPS * np.abs(t1)
    div = (nu + 1).astype(np.float64)
    gq2 = gv[q2]
    t2 = enu / div * gq2
    in2 = (np.abs(enu) * ge[q2] + enu_err * np.abs(gq2)) / div + 2.0 * EPS * np.abs(t2)
    mag = float(np.sum(np.abs(t1)) + np.sum(np.abs(t2)))
    val = float(np.sum(t1) + np.sum(t2))
    err = (EPS * mag * (2.0 * n + 8.0) + float(np.sum(in1) + np.sum(in2))) * _HEADROOM
    return val, err


def test_abel_run_form_matches_dense_reference(tables_2k):
    for c in abel_scan(1, 2000, tables=tables_2k):
        val, err = _dense_abel_rhs(c.x, tables_2k)
        assert abs(c.rhs.value - val) <= c.rhs.err + err, c.x
        assert c.rhs.err <= 4.0 * err, c.x


def test_abel_scan_equals_point_checks(tables_2k):
    # [1201, 2000] and [1, 2000] need more run positions than one batch holds
    for lo, hi in ((1201, 2000), (1, 2000)):
        positions = sum(q.size + 1 for q, _, _ in map(_runs, range(lo, hi + 1)))
        assert positions > 2 * summatory._RUN_BATCH
    for lo, hi in ((1, 1), (1, 40), (613, 700), (1201, 2000), (1, 2000)):
        scan = abel_scan(lo, hi, tables=tables_2k)
        assert [c.x for c in scan] == list(range(lo, hi + 1))
        assert scan == [abel_rearrangement_check(x, tables=tables_2k) for x in range(lo, hi + 1)]


def test_run_batch_size_does_not_change_scans(tables_2k, monkeypatch):
    # each x's terms are reduced on their own, so the batch layout leaves
    # every bit of every check as it is
    scans = (decomposition_scan, abel_scan)
    ref = {(s, lo): s(lo, 2000, tables=tables_2k) for s in scans for lo in (1, 1500)}
    sums = tables_2k._run_sums(1, 2000, tables_2k.P_arrays, tables_2k.T_arrays)
    monkeypatch.setattr(summatory, "_RUN_BATCH", 7)
    for (s, lo), checks in ref.items():
        assert s(lo, 2000, tables=tables_2k) == checks, (s.__name__, lo)
    for (v, e), (v7, e7) in zip(
        sums, tables_2k._run_sums(1, 2000, tables_2k.P_arrays, tables_2k.T_arrays)
    ):
        assert np.array_equal(v, v7) and np.array_equal(e, e7)


def test_abel_scan_holds(tables_2k):
    checks = abel_scan(1, 2000, tables=tables_2k)
    assert all(c.holds for c in checks)
    assert max(c.slack for c in checks) < 1e-9


@pytest.mark.parametrize("x", [2, 1000, 2000])
@pytest.mark.parametrize(
    "check, lane",
    [(decomposition_check, ("f_arrays", "_f")), (abel_rearrangement_check, ("h_arrays", "_h"))],
)
def test_certified_check_holds_exactly_within_its_bounds(check, lane, x, tables_2k, monkeypatch):
    # the left side's lane entry at x is set 1e-12 outside, then 1e-12
    # inside, lhs.err + rhs.err of the check; with an entry error of 1e-10
    # the 1e-12 stays far above the rounding of the shifted value
    prop, attr = lane
    v, e = (a.copy() for a in getattr(tables_2k, prop))
    monkeypatch.setattr(tables_2k, attr, (v, e))
    e[x] = 1e-10
    for shift, holds in ((1e-12, False), (-1e-12, True)):
        c = check(x, tables=tables_2k)
        v[x] += c.rhs.value - c.lhs.value + c.lhs.err + c.rhs.err + shift
        c = check(x, tables=tables_2k)
        assert c.holds is holds, shift
        excess = abs(c.lhs.value - c.rhs.value) - (c.lhs.err + c.rhs.err)
        assert abs(excess - shift) < 1e-14, excess


def test_abel_brute_force_cross_check():
    # term-by-term with scalar operations, no shared tables
    from mobsum.summatory import epsilon

    for x in (7, 23):
        rhs = 0.0
        for nu in range(1, x + 1):
            e = epsilon(nu).value
            rhs += e * (float(g_exact(Fraction(x, nu))) - float(g_exact(Fraction(x, nu + 1))))
        for nu in range(1, x):
            e = epsilon(nu).value
            rhs += e / (nu + 1) * float(g_exact(Fraction(x, nu + 1)))
        lhs = h_direct(x).value - 1.0
        assert abs(lhs - rhs) < 1e-12, x
        check = abel_rearrangement_check(x)
        assert abs(check.rhs.value - rhs) < 1e-12, x


def test_identitycheck_shape():
    c = gram_identity(5)
    assert isinstance(c, IdentityCheck)
    assert c.name == "gram_unit_sum"
    assert c.x == 5 and c.rhs == 1


# -- the exact prefix streamed, and the unit identity's hand-over


def _scaled_g_reference(n: int) -> tuple[int, list[int]]:
    """L = lcm(1..n) and g(k) L for k <= n from mu by trial division
    (``moebius_oracle``), with no sieve."""
    from mobsum.sieve import moebius_oracle

    L = summatory.lcm_upto(n)
    out, acc = [0], 0
    for k in range(1, n + 1):
        acc += moebius_oracle(k) * (L // k)
        out.append(acc)
    return L, out


@pytest.mark.parametrize("n", [1, 2, 97, 2000, 10**4])
def test_streamed_prefix_equals_the_lists(n, monkeypatch):
    # the stream is ScaledMoebiusPrefix's g list, and the g L and H L that
    # the unit identity's pass records for its end check are the lists' entries
    L, ref = _scaled_g_reference(n)
    pre = ScaledMoebiusPrefix(n)
    assert pre.denominator == L and pre.scaled_g == ref
    assert list(summatory._scaled_g_stream(n, L)) == ref[1:]
    recorded = []
    blocked = identities._unit_sum_scaled

    def spy(y, a, prefix):
        recorded.append(prefix)
        return blocked(y, a, prefix)

    monkeypatch.setattr(identities, "_unit_sum_scaled", spy)
    assert all(c.holds for c in gram_scan(1, n))
    [rec] = recorded
    assert set(rec.scaled_g) == {k for k in identities._unit_sum_reads(n) if 1 <= k <= n}
    assert all(v == pre.scaled_g[k] for k, v in rec.scaled_g.items())
    assert all(v == pre.scaled_harmonic[k] for k, v in rec.scaled_harmonic.items())


def _corrupted(n: int, k: int, step: int) -> ScaledMoebiusPrefix:
    """ScaledMoebiusPrefix(n) with g(j) L raised by ``step`` at every j >= k."""
    pre = ScaledMoebiusPrefix(n)
    pre.scaled_g[k:] = [v + step for v in pre.scaled_g[k:]]
    return pre


def test_gram_scan_hands_over_to_big_integers(monkeypatch):
    # three corrupted prefixes, each equal to the point checks and each
    # reaching the big-integer recurrence at the first x the int64 split
    # cannot decide; a sound table never reaches it
    handed = []
    recurrence = identities._gram_recurrence

    def spy(x0, *args):
        handed.append(x0)
        return recurrence(x0, *args)

    monkeypatch.setattr(identities, "_gram_recurrence", spy)
    assert all(c.holds for c in gram_scan(1, 2000, prefix=ScaledMoebiusPrefix(2000)))
    assert all(c.holds for c in gram_scan(1, 1200))
    assert handed == []
    L = summatory.lcm_upto(1200)
    cases = [
        # (a) off by 1 past m = 1000: r[1009] = 1009
        (_corrupted(1200, 1009, 1), 1009),
        # (b) off by L from 500 on: r = 0 everywhere, but c[500] = 500 + mu(500),
        # so a[500] = 500
        (_corrupted(1200, 500, L), 500),
        # (c) off by 2^70 L from 700 on: c[700] = 700 2^70 leaves int64
        (_corrupted(1200, 700, 2**70 * L), 700),
    ]
    for bad, x0 in cases:
        handed.clear()
        checks = gram_scan(1, 1200, prefix=bad)
        assert handed == [x0]
        assert checks == [gram_identity(x, prefix=bad) for x in range(1, 1201)]
        assert all(c.holds for c in checks[: x0 - 1]) and not checks[x0 - 1].holds
        assert gram_scan(x0 + 7, 1200, prefix=bad) == checks[x0 + 6 :]
