import math
from fractions import Fraction

import numpy as np
import pytest

from mobsum.certified import EPS, CertifiedFloat, _HEADROOM, log_certified
from mobsum.sieve import DEFAULT_BLOCK_CAPACITY, _primes_upto
from mobsum.summatory import (
    ScaledMoebiusPrefix,
    SummatoryTables,
    big_m,
    epsilon,
    f_value,
    g_exact,
    g_float,
    h_direct,
    harmonic,
    harmonic_number,
    lcm_upto,
    series_scan,
    theta,
)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
EPS_SLOP = 1e-15


# -- g ----------------------------------------------------------------------


def test_g_exact_examples():
    assert g_exact(1) == 1
    assert g_exact(0.7) == 0
    assert g_exact(3) == Fraction(1, 6)


def test_g_exact_floors_real_arguments():
    assert g_exact(3.99) == Fraction(1, 6)
    assert g_exact(Fraction(7, 2)) == Fraction(1, 6)


def test_g_float_examples():
    r = g_float(2)
    assert abs(r.value - 0.5) <= r.err
    assert g_float(0).value == 0.0 and g_float(0).err == 0.0
    r4 = g_float(4)
    assert abs(r4.value - 1 / 6) <= r4.err + EPS_SLOP


def test_g_float_within_err_of_exact():
    for x in (1, 2, 10, 97, 500, 1234):
        exact = g_exact(x)
        r = g_float(x)
        assert abs(Fraction(r.value) - exact) <= r.err, x


# -- f ----------------------------------------------------------------------


def test_f_examples():
    assert f_value(1) == CertifiedFloat(0.0, 0.0)
    r2 = f_value(2)
    assert abs(r2.value - (-LOG2 / 2)) <= r2.err + EPS_SLOP
    r3 = f_value(3)
    assert abs(r3.value - (-LOG2 / 2 - LOG3 / 3)) <= r3.err + 1e-14


def test_f_zero_on_1_2():
    assert f_value(1.999).value == 0.0


def test_f_domain_error():
    with pytest.raises(ValueError):
        f_value(0.5)


# -- M ----------------------------------------------------------------------


def test_big_m_examples():
    assert big_m(1) == 1
    assert big_m(6) == -1
    assert big_m(5) == -2
    assert big_m(0.3) == 0


def test_m_prefix_additivity():
    from mobsum.sieve import moebius_oracle

    prev = big_m(1)
    for x in range(2, 300):
        cur = big_m(x)
        assert cur - prev == moebius_oracle(x)
        prev = cur


# -- theta / epsilon ---------------------------------------------------------


def test_theta_examples():
    assert theta(1).value == 0.0 and theta(1).err == 0.0
    r = theta(10)
    assert abs(r.value - math.log(210.0)) <= r.err + 1e-14
    r2 = theta(2)
    assert abs(r2.value - LOG2) <= r2.err + EPS_SLOP


def test_theta_bound_charges_only_prime_adds():
    # theta's terms are 0 off the primes, and adding an exact 0 rounds nothing;
    # charging every add as well would publish about 5.5e-5 here
    assert theta(10**6).err <= 1e-5


def test_theta_steps_only_at_primes():
    from mobsum.sieve import is_prime

    prev = theta(1).value
    for x in range(2, 200):
        cur = theta(x).value
        if is_prime(x):
            assert abs(cur - prev - math.log(x)) < 1e-12
        else:
            assert cur == prev
        prev = cur


def test_epsilon_examples():
    assert epsilon(0).value == 0.0 and epsilon(0).err == 0.0
    r1 = epsilon(1)
    assert r1.value == -1.0
    r10 = epsilon(10)
    assert abs(r10.value - (math.log(210.0) / 10 - 1)) <= r10.err + 1e-14


def test_epsilon_at_least_minus_one():
    for x in list(range(1, 500)) + [10**4]:
        r = epsilon(x)
        assert r.value + r.err >= -1.0, x


# -- harmonic ----------------------------------------------------------------


def test_harmonic_examples():
    r1 = harmonic(1)
    assert r1.value == 1.0 and r1.err == 0.0
    r4 = harmonic(4)
    assert abs(r4.value - 25 / 12) <= r4.err + EPS_SLOP
    r2 = harmonic(2)
    assert r2.value == 1.5


def test_harmonic_strictly_increasing():
    values = [harmonic(x).value for x in range(1, 100)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_harmonic_number_asymptotic_matches_direct():
    for n in (513, 1000, 4096, 10**5):
        em = harmonic_number(n)
        direct = harmonic(n)
        assert abs(em.value - direct.value) <= em.err + direct.err, n


def test_harmonic_number_small_table_exact():
    hn = harmonic_number(4)
    assert abs(hn.value - 25 / 12) <= hn.err + EPS_SLOP


# -- h -----------------------------------------------------------------------


def test_h_examples():
    assert h_direct(1).value == 0.0 and h_direct(1).err == 0.0
    r2 = h_direct(2)
    assert abs(r2.value - LOG2 / 2) <= r2.err + EPS_SLOP
    r3 = h_direct(3)
    assert abs(r3.value - (LOG2 / 2 + LOG3 / 3)) <= r3.err + 1e-14


def test_h_brute_force_cross_check():
    # independent brute force: h(x) = sum over primes of (log p / p) g(x/p)
    from mobsum.sieve import is_prime

    for x in (5, 17, 30, 101):
        brute = math.fsum(
            math.log(p) / p * float(g_exact(Fraction(x, p)))
            for p in range(2, x + 1)
            if is_prime(p)
        )
        r = h_direct(x)
        assert abs(r.value - brute) <= r.err + 1e-12, x


def test_h_direct_rejects_undersized_tables():
    with pytest.raises(ValueError):
        h_direct(5000, tables=SummatoryTables(100))


# -- scaled prefix -----------------------------------------------------------


def test_lcm_upto():
    assert lcm_upto(1) == 1
    assert lcm_upto(10) == 2520
    assert lcm_upto(12) == 27720


def test_scaled_prefix_matches_g_exact(prefix_2k):
    for k in (1, 2, 3, 10, 541, 2000):
        assert prefix_2k.g_fraction(k) == g_exact(k)


def test_exact_float_consistency_to_2000(prefix_2k, tables_2k):
    gv, ge = tables_2k.g_arrays
    for k in range(1, 2001):
        assert abs(Fraction(float(gv[k])) - prefix_2k.g_fraction(k)) <= Fraction(
            float(ge[k])
        ), k


def test_exact_float_consistency_to_1e5():
    # full-range consistency: the certified interval always contains the
    # exact rational (compared through its correctly rounded double)
    from mobsum.certified import EPS

    n = 10**5
    pre = ScaledMoebiusPrefix(n)
    gv, ge = SummatoryTables(n).g_arrays
    L = pre.denominator
    bad = [
        k
        for k in range(1, n + 1)
        if abs(gv[k] - pre.scaled_g[k] / L) > ge[k] + EPS * abs(gv[k])
    ]
    assert not bad, bad[:5]


# -- series scan -------------------------------------------------------------


def test_series_scan_examples():
    s = series_scan(6, 1)
    assert len(s) == 6
    r6 = s.record(5)
    assert r6.M == -1
    assert abs(r6.g.value - float(Fraction(2, 15))) <= r6.g.err + EPS_SLOP
    s1 = series_scan(1, 1)
    r1 = s1.record(0)
    assert r1.g.value == 1.0 and r1.M == 1 and r1.theta.value == 0.0
    s2 = series_scan(10, 5)
    assert s2.xs.tolist() == [5, 10]
    assert abs(s2.record(1).theta.value - math.log(210.0)) < 1e-12


def test_series_scan_matches_pointwise(tables_2k):
    s = series_scan(200, 7, tables=tables_2k)
    for rec in s:
        x = rec.x
        assert rec.M == big_m(x)
        gx = g_float(x)
        assert abs(rec.g.value - gx.value) <= rec.g.err + gx.err
        fx = f_value(x)
        assert abs(rec.f.value - fx.value) <= rec.f.err + fx.err
        tx = theta(x)
        assert abs(rec.theta.value - tx.value) <= rec.theta.err + tx.err
        ex = epsilon(x)
        assert abs(rec.epsilon.value - ex.value) <= rec.epsilon.err + ex.err
        hx = h_direct(x)
        assert abs(rec.h.value - hx.value) <= rec.h.err + hx.err


def test_series_m_additivity():
    s = series_scan(500, 1)
    mu_sum = np.diff(s.M)
    from mobsum.summatory import moebius_values_upto

    mu = moebius_values_upto(500)
    assert np.array_equal(mu_sum, mu[2:501].astype(np.int64))


def test_series_theta_monotone():
    s = series_scan(300, 1)
    assert np.all(np.diff(s.theta) >= 0)


def test_series_validates_arguments():
    with pytest.raises(ValueError):
        series_scan(0, 1)
    with pytest.raises(ValueError):
        series_scan(10, 0)


# -- tables ------------------------------------------------------------------


def test_tables_h_matches_h_direct(tables_2k):
    for x in (1, 2, 3, 50, 777, 2000):
        a = tables_2k.h_certified(x)
        b = h_direct(x)
        assert abs(a.value - b.value) <= a.err + b.err, x


def _dense_gather(
    tables: SummatoryTables, upto: int, mods: list[int], w: list[float], werr: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """sum_m w_m g(x // m) at every x in [0, upto], one term per modulus m,
    with its bound: each term charged its product error plus one rounding,
    the sum EPS * sum|terms| per addition for (terms + 8) additions."""
    gv, ge = tables.g_arrays
    vals = np.zeros(upto + 1)
    mag = np.zeros(upto + 1)
    ins = np.zeros(upto + 1)
    nterms = np.zeros(upto + 1)
    for m, wm, em in zip(mods, w, werr):
        idx = np.arange(m, upto + 1, dtype=np.int64) // m
        gval = gv[idx]
        term = wm * gval
        vals[m:] += term
        mag[m:] += np.abs(term)
        ins[m:] += wm * ge[idx] + em * np.abs(gval) + EPS * np.abs(term)
        nterms[m:] += 1.0
    return vals, (EPS * mag * (nterms + 8.0) + ins) * _HEADROOM


def _dense_h(tables: SummatoryTables, upto: int) -> tuple[np.ndarray, np.ndarray]:
    """h at every x in [0, upto], one term per prime."""
    ps = _primes_upto(upto).tolist()
    w = [math.log(p) / p for p in ps]
    return _dense_gather(tables, upto, ps, w, [3.0 * EPS * v for v in w])


def _dense_tail(tables: SummatoryTables, upto: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime-power tail at every x in [0, upto], one term per p^i, i >= 2."""
    mods, w, werr = [], [], []
    for p in _primes_upto(math.isqrt(upto)).tolist():
        lp = log_certified(p)
        q = p * p
        while q <= upto:
            mods.append(q)
            w.append(lp.value / q)
            werr.append(lp.err / q + EPS * lp.value / q)
            q *= p
    return _dense_gather(tables, upto, mods, w, werr)


def test_tables_h_dense_matches_gather_path(tables_2k):
    # the run sums overlap the direct sum over the primes at every x
    hv, he = _dense_h(tables_2k, 2000)
    (rv, re), _ = tables_2k._run_sums(1, 2000, tables_2k.P_arrays, tables_2k.T_arrays)
    for x in range(1, 2001):
        assert abs(hv[x] - rv[x - 1]) <= he[x] + re[x - 1], x
    for x in (1, 2, 3, 50, 777, 2000):
        assert tables_2k.h_certified(x) == CertifiedFloat(float(rv[x - 1]), float(re[x - 1]))


def test_tables_tail_lanes_match_scalar_tail(tables_2k):
    # prime_power_tail without tables sums on its own SummatoryTables(x)
    from mobsum.identities import prime_power_tail

    tv, te = _dense_tail(tables_2k, 2000)
    _, (rv, re) = tables_2k._run_sums(1, 2000, tables_2k.P_arrays, tables_2k.T_arrays)
    for x in range(1, 2001):
        ref = prime_power_tail(x)
        assert abs(tv[x] - ref.value) <= te[x] + ref.err, x
        assert abs(rv[x - 1] - tv[x]) <= re[x - 1] + te[x], x
    for x in (1, 4, 8, 9, 777, 2000):
        point = tables_2k.tail_certified(x)
        assert point == CertifiedFloat(float(rv[x - 1]), float(re[x - 1])), x


def test_scalars_equal_lane_entries_across_blocks():
    # the scalars stream the lanes' prefix kernel one sieve block at a time;
    # equal values and bounds on both sides of the block edges pin the carry
    B = DEFAULT_BLOCK_CAPACITY
    xs = (1, 2, B - 1, B, B + 1, 2 * B + 1)
    for scalar, lane in (
        (g_float, "g_arrays"),
        (f_value, "f_arrays"),
        (theta, "theta_arrays"),
        (harmonic, "harmonic_arrays"),
    ):
        v, e = getattr(SummatoryTables(2 * B + 1), lane)
        for x in xs:
            assert scalar(x) == CertifiedFloat(float(v[x]), float(e[x])), (lane, x)


def test_tables_limit_validation(tables_2k):
    with pytest.raises(ValueError):
        tables_2k.h_certified(2001)
    with pytest.raises(ValueError):
        SummatoryTables(0)
