import math
from fractions import Fraction

import numpy as np
import pytest

import mobsum.sieve
from mobsum import bounds
from mobsum.bounds import (
    BoundReport,
    check_g_bound,
    check_harmonic_bound,
    check_mangoldt_bound,
    check_tail_bound,
    check_theta_bounds,
    empirical_G,
    gamma_oracle,
    h_convergence,
    log_square_sum_constant,
    m_over_x_convergence,
    tail_bound_scan,
)
from mobsum.certified import EULER_GAMMA
from mobsum.cli import _check_row, _fmt
from mobsum.summatory import ScaledMoebiusPrefix, SummatoryTables


def test_g_bound_examples():
    r = check_g_bound(1, 100)
    assert r.passed and r.max_ratio == 1.0  # attained at x = 1
    r2 = check_g_bound(2, 2)
    assert r2.passed and abs(r2.max_ratio - 0.5) < 1e-15


def test_g_bound_spans_cutoff():
    r = check_g_bound(1, 1500, cutoff=1000)
    assert r.passed
    assert r.checked == 1500


def test_mangoldt_scan_sieves_mu_once(monkeypatch):
    # on default tables the g and f streams read mu through the tables' one
    # segment reader, chunk by chunk in turn, so each x is sieved once
    sieved = []
    real = mobsum.sieve._moebius_values

    def counted(lo, hi, root_primes):
        sieved.append(hi - lo + 1)
        return real(lo, hi, root_primes)

    monkeypatch.setattr(mobsum.sieve, "_moebius_values", counted)
    n = 2 * 2**20 + 5
    assert check_mangoldt_bound(1, n).passed
    assert sum(sieved) == n == 2_097_157


def test_mangoldt_examples(tables_2k):
    r = check_mangoldt_bound(1, 1, tables=tables_2k)
    assert r.passed and r.max_ratio == 0.0
    assert r.gamma == EULER_GAMMA
    r3 = check_mangoldt_bound(3, 3, tables=tables_2k)
    assert r3.passed
    lhs = r3.max_ratio * (3 + EULER_GAMMA)
    expect = abs(math.log(3.0) / 6 + (math.log(2.0) / 2 + math.log(3.0) / 3))
    assert abs(lhs - expect) < 1e-12
    assert check_mangoldt_bound(1, 2000, tables=tables_2k).passed


def test_theta_bounds_examples():
    assert check_theta_bounds(1, 1).passed
    r = check_theta_bounds(10, 10)
    assert r.passed
    assert abs(r.max_ratio - math.log(210.0) / 20) < 1e-12
    assert check_theta_bounds(1, 10**5).passed


def test_theta_bounds_offset_range_matches_full():
    a = check_theta_bounds(50, 3000)
    b = check_theta_bounds(1, 3000)
    assert a.passed and b.passed
    assert abs(a.max_ratio - b.max_ratio) < 1e-15  # max sits above x = 50


def test_harmonic_bound_examples(tables_2k):
    r1 = check_harmonic_bound(1, 1, tables=tables_2k)
    assert r1.passed and r1.max_ratio == 1.0  # equality at x = 1
    r2 = check_harmonic_bound(2, 2, tables=tables_2k)
    assert r2.passed
    assert abs(r2.max_ratio - 1.5 / (math.log(2.0) + 1)) < 1e-12
    assert check_harmonic_bound(1, 2000, tables=tables_2k).passed


def test_tail_constant_certified():
    c = log_square_sum_constant()
    assert abs(c.value - 0.9375482543) < 1e-9
    assert c.err < 1e-10


def test_tail_constant_contains_zeta_prime_2():
    # the constant is -zeta'(2) = 0.937548254315843753702574094568... (OEIS
    # A073002), given here to 30 digits, so off by under 1e-30
    c = log_square_sum_constant()
    ref = Fraction("0.937548254315843753702574094568")
    assert abs(Fraction(c.value) - ref) + Fraction(1, 10**30) <= Fraction(c.err)
    assert c.err < 1e-10


def test_tail_bound_examples(tables_2k):
    r3 = check_tail_bound(3)
    assert r3.passed and r3.max_ratio == 0.0  # tail empty, 2^2 > 3
    assert check_tail_bound(1).passed
    scan = tail_bound_scan(1, 2000, tables=tables_2k)
    assert scan.passed and scan.max_ratio < 1.0


def test_report_shape(tables_2k):
    r = check_harmonic_bound(1, 10, tables=tables_2k)
    assert isinstance(r, BoundReport)
    assert r.violations == [] and r.indeterminate == []
    assert r.checked == 10


def test_empirical_g_trivial_delta(tables_2k):
    rep = empirical_G(3.3, 2000, tables=tables_2k)
    assert rep.G == 1  # delta/3 = 1.1 exceeds the global |eps| <= 1 envelope


def test_empirical_g_absent(tables_2k):
    rep = empirical_G(1e-9, 1000, tables=tables_2k)
    assert rep.G is None


def test_empirical_g_suffix_is_certified(tables_2k):
    rep = empirical_G(0.5, 2000, tables=tables_2k)
    assert rep.G is not None
    ev, ee = tables_2k.eps_arrays
    for nu in range(rep.G, 2001):
        assert abs(ev[nu]) + ee[nu] <= 0.5 / 3
    if rep.G > 1:
        assert abs(ev[rep.G - 1]) + ee[rep.G - 1] > 0.5 / 3


def test_empirical_g_monotone_in_delta(tables_2k):
    deltas = [0.2, 0.4, 0.8, 1.6]
    gs = [empirical_G(d, 2000, tables=tables_2k).G for d in deltas]
    assert all(g is not None for g in gs)
    assert all(a >= b for a, b in zip(gs, gs[1:]))


def test_empirical_g_validates():
    with pytest.raises(ValueError):
        empirical_G(-1.0, 100)
    with pytest.raises(ValueError):
        empirical_G(0.1, 1)


def test_h_convergence_huge_delta(tables_2k):
    rep = h_convergence(10.0, 100, 1, tables=tables_2k)
    assert rep.xi == 2  # first sample with a positive logarithm
    assert rep.bound_ok is True


def test_h_convergence_moderate(tables_2k):
    rep = h_convergence(0.9, 2000, 100, tables=tables_2k)
    assert rep.xi is not None
    assert all(r <= 0.9 for _, r in rep.samples if _ >= rep.xi)
    assert rep.bound_ok is True
    assert rep.G is not None


def test_h_convergence_envelope_definition(tables_2k):
    # every sampled |h| sits under 3G - 2 + (2/3) delta (1 + log x)
    delta = 0.9
    rep = h_convergence(delta, 2000, 50, tables=tables_2k)
    hv, he = tables_2k.h_arrays
    for x, _ in rep.samples:
        env = 3.0 * rep.G - 2.0 + (2.0 / 3.0) * delta + (2.0 / 3.0) * delta * math.log(x)
        assert abs(hv[x]) + he[x] <= env, x


def test_h_convergence_validates():
    with pytest.raises(ValueError):
        h_convergence(0.0, 100)
    with pytest.raises(ValueError):
        h_convergence(0.1, 1)


def test_m_over_x_trivial(tables_2k):
    rep = m_over_x_convergence(1.0, 100, 1, tables=tables_2k)
    assert rep.xi == 1  # |M(x)|/x <= 1 with equality only at x = 1
    assert rep.abel_ok


def test_m_over_x_abel_identity_exact(tables_2k):
    rep = m_over_x_convergence(0.5, 2000, 13, tables=tables_2k)
    assert rep.abel_ok
    # hand check at x = 3: -(g(1) + g(2)) + g(3) * 3 = -3/2 + 1/2 = -1 = M(3)
    from fractions import Fraction

    from mobsum.summatory import big_m, g_exact

    assert -(g_exact(1) + g_exact(2)) + g_exact(3) * 3 == Fraction(-1) == big_m(3)


def test_m_over_x_validates():
    with pytest.raises(ValueError):
        m_over_x_convergence(-0.1, 100)


def test_gamma_oracle_agreement():
    g = gamma_oracle()
    assert g.err < 1e-12
    assert abs(g.value - EULER_GAMMA) <= g.err + 1e-12


# -- the chunk driver of the certified scans

_SCANS = {
    "g": lambda lo, hi, t: check_g_bound(lo, hi, cutoff=0, tables=t),
    "mangoldt": lambda lo, hi, t: check_mangoldt_bound(lo, hi, tables=t),
    "theta": lambda lo, hi, t: check_theta_bounds(lo, hi, tables=t),
    "harmonic": lambda lo, hi, t: check_harmonic_bound(lo, hi, tables=t),
    "tail": lambda lo, hi, t: tail_bound_scan(lo, hi, tables=t),
}
# the lane each scan reads last (property, cache attribute)
_LANES = {
    "g": ("g_arrays", "_g"),
    "mangoldt": ("f_arrays", "_f"),
    "theta": ("theta_arrays", "_theta"),
    "harmonic": ("harmonic_arrays", "_H"),
    "tail": ("tail_arrays", "_tail"),
}


@pytest.mark.parametrize("lo", [1, 1234])
@pytest.mark.parametrize("scan", sorted(_SCANS))
def test_streamed_scan_reports_equal_held_lane_reports(scan, lo):
    # with tables=None a scan streams its lanes from mu and builds none of
    # them; with every lane built it reads slices: the reports are equal
    hi = 30_000
    full = SummatoryTables(hi)
    for prop, _ in _LANES.values():
        getattr(full, prop)
    held = _SCANS[scan](lo, hi, full)
    streamed = _SCANS[scan](lo, hi, None)
    # (g(1) = 1 +/- EPS is indeterminate, as the lane always gave it)
    assert held == streamed and not held.violations
    assert held.max_ratio.hex() == streamed.max_ratio.hex()


@pytest.fixture(scope="module")
def tables_20k() -> SummatoryTables:
    return SummatoryTables(20000)


def _corrupt(scan: str, tables: SummatoryTables, points: dict, monkeypatch) -> None:
    """Set the (value, err) of ``scan``'s lane at the given x, for this test only."""
    prop, attr = _LANES[scan]
    v, e = (a.copy() for a in getattr(tables, prop))
    for x, (pv, pe) in points.items():
        v[x], e[x] = pv, pe
    monkeypatch.setattr(tables, attr, (v, e))


@pytest.mark.parametrize("scan", sorted(_SCANS))
def test_scan_chunk_size_does_not_change_reports(scan, tables_20k, monkeypatch):
    hi = 20000
    for lo in (1, 5, bounds._SCAN_CHUNK + 1):
        ref = _SCANS[scan](lo, hi, tables_20k)
        for chunk in (7, hi):
            monkeypatch.setattr(bounds, "_SCAN_CHUNK", chunk)
            assert _SCANS[scan](lo, hi, tables_20k) == ref, (lo, chunk)
        monkeypatch.undo()


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("scan", sorted(_SCANS))
def test_scan_reports_each_spike_once_in_x_order(scan, chunk, tables_20k, monkeypatch):
    hi = 20000
    if chunk is None:
        chunk = bounds._SCAN_CHUNK
    else:
        monkeypatch.setattr(bounds, "_SCAN_CHUNK", chunk)
    # lo, the last and first x of the first two chunks, and hi; the chunks
    # start at lo = 1.  Even spikes break the bound, odd ones straddle it.
    xs = sorted({1, chunk, chunk + 1, min(2 * chunk, hi), hi})
    points = {}
    for i, x in enumerate(xs):
        if i % 2 == 0:
            points[x] = (1e6, 0.0)
        else:  # theta >= 0 is checked too, so its straddle stays positive
            points[x] = (2.0 * x, 1.0) if scan == "theta" else (0.0, 1e6)
    _corrupt(scan, tables_20k, points, monkeypatch)
    r = _SCANS[scan](1, hi, tables_20k)
    assert [v[0] for v in r.violations] == xs[0::2]
    assert [u[0] for u in r.indeterminate] == xs[1::2]
    assert not r.passed


@pytest.mark.parametrize("x", [1, 7, 8, 1000, 20000])
@pytest.mark.parametrize("scan", ["g", "mangoldt", "harmonic", "theta", "tail"])
def test_scan_nan_lane_entry_fails_with_nan_max(scan, x, tables_20k, monkeypatch):
    # one NaN is one indeterminate point, and the max ratio is NaN, as the
    # single pass over the whole range gave, also when g's exact part has
    # ratios of its own
    monkeypatch.setattr(bounds, "_SCAN_CHUNK", 7)
    _corrupt(scan, tables_20k, {x: (math.nan, 0.0)}, monkeypatch)
    if scan == "g" and x > 1:
        # the lane's g(1) = 1 +/- EPS is indeterminate, so x = 1 goes exact
        r = check_g_bound(1, 20000, cutoff=1, tables=tables_20k)
    else:
        r = _SCANS[scan](1, 20000, tables_20k)
    assert [u[0] for u in r.indeterminate] == [x]
    assert r.violations == []
    assert math.isnan(r.max_ratio)
    counts = (r.checked, len(r.violations), len(r.indeterminate))
    row, ok = _check_row(r.name, r.lo, r.hi, *counts, _fmt(r.max_ratio), r.note)
    assert row[4:8] == ["0", "1", "nan", "FAIL"] and not ok


# -- the tables a caller passes in

# each function that takes a caller's tables or prefix, over [1, 300] with
# its exact part (cutoff 20) where it has one
_SITES = {
    "g_bound": lambda t, p: check_g_bound(1, 300, cutoff=20, tables=t, prefix=p),
    "mangoldt": lambda t, p: check_mangoldt_bound(1, 300, tables=t),
    "theta": lambda t, p: check_theta_bounds(1, 300, tables=t),
    "harmonic": lambda t, p: check_harmonic_bound(1, 300, tables=t),
    "tail": lambda t, p: tail_bound_scan(1, 300, tables=t),
    "empirical_G": lambda t, p: empirical_G(0.3, 300, tables=t),
    "h_convergence": lambda t, p: h_convergence(0.3, 300, 7, tables=t),
    "m_over_x": lambda t, p: m_over_x_convergence(0.3, 300, 7, cutoff=20, tables=t),
}


def _build_nothing(monkeypatch) -> None:
    """Make any table construction fail, for the rest of this test."""

    def built(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(SummatoryTables, "__init__", built)
    monkeypatch.setattr(ScaledMoebiusPrefix, "__init__", built)


@pytest.mark.parametrize(
    "site,short", [(s, "tables") for s in sorted(_SITES)] + [("g_bound", "prefix")]
)
def test_undersized_tables_are_refused_and_none_builds_its_own(site, short, monkeypatch):
    # tables covering the range are read, None builds the same, and tables
    # that cover less raise ValueError before anything is built
    call = _SITES[site]
    tables, prefix = SummatoryTables(300), ScaledMoebiusPrefix(20)
    assert call(None, None) == call(tables, prefix)
    if short == "tables":
        tables = SummatoryTables(299)
    else:
        prefix = ScaledMoebiusPrefix(19)
    _build_nothing(monkeypatch)
    with pytest.raises(ValueError):
        call(tables, prefix)


def test_g_bound_exact_part_reports_violations(monkeypatch):
    prefix = ScaledMoebiusPrefix(100)
    L = prefix.denominator
    gn = list(prefix.scaled_g)
    gn[37], gn[50] = 2 * L, -3 * L
    monkeypatch.setattr(prefix, "scaled_g", gn)
    r = check_g_bound(1, 100, prefix=prefix)
    assert r.violations == [(37, 2.0, 1.0), (50, -3.0, 1.0)]
    assert r.max_ratio == 3.0 and not r.passed


def test_h_convergence_envelope_fails_on_a_spike(monkeypatch):
    tables = SummatoryTables(2000)
    v, e = (a.copy() for a in tables.h_arrays)
    v[1000] = 1e6
    monkeypatch.setattr(tables, "_h", (v, e))
    rep = h_convergence(0.9, 2000, 50, tables=tables)
    assert rep.G is not None and rep.bound_ok is False


def test_m_over_x_partial_summation_fails_on_a_wrong_mu(monkeypatch):
    # M is summed from the tables' mu, the exact side from a prefix of its own
    tables = SummatoryTables(2000)
    mu = tables.mu.copy()
    assert mu[1000] == 0
    mu[1000] = 1
    monkeypatch.setattr(tables, "_mu", mu)
    assert m_over_x_convergence(0.5, 2000, 13, tables=tables).abel_ok is False
    monkeypatch.undo()
    assert m_over_x_convergence(0.5, 2000, 13, tables=tables).abel_ok is True
