"""The batched floor-quotient run kernel: its layout against ``fast._runs``,
and its bounds against exact sums over synthetic lanes whose published
errors are attained."""

import random
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest

from mobsum import summatory
from mobsum.certified import EPS
from mobsum.fast import _crossover, _runs
from mobsum.identities import _abel_rhs
from mobsum.summatory import _reduce_runs, _run_batches, _run_counts, _run_layout, _run_terms


def _reference_layout(lo: int, hi: int) -> tuple[list, list, list]:
    q, nu_hi, counts = [], [], []
    for x in range(lo, hi + 1):
        rq, _, rh = _runs(x)
        q += [x, *rq.tolist()]
        nu_hi += [1, *rh.tolist()]
        counts.append(rq.size + 1)
    return q, nu_hi, counts


def _layout(lo: int, hi: int) -> tuple[list, list, list]:
    q, nu_hi, counts = [], [], []
    nxt = lo
    for a, bq, bh, starts, c in _run_batches(lo, hi):
        assert a == nxt and c.size >= 1
        assert starts.tolist() == (np.cumsum(c) - c).tolist()
        assert bq.size == bh.size == int(c.sum())
        assert c.size == 1 or bq.size <= summatory._RUN_BATCH
        q += bq.tolist()
        nu_hi += bh.tolist()
        counts += c.tolist()
        nxt = a + c.size
    assert nxt == hi + 1
    return q, nu_hi, counts


@pytest.mark.parametrize("batch", [None, 7])
def test_run_batches_match_runs(batch, monkeypatch):
    if batch is not None:
        monkeypatch.setattr(summatory, "_RUN_BATCH", batch)
    # [1, 3000] spans several batches of the default size
    assert sum(2 * int(x**0.5) for x in range(1, 3001)) > 10 * summatory._RUN_BATCH
    for lo, hi in ((1, 1), (1, 70), (997, 1100), (10**6, 10**6 + 50), (1, 3000)):
        assert _layout(lo, hi) == _reference_layout(lo, hi), (lo, hi)


def test_run_layout_of_chain_roots_matches_runs():
    # the chain roots x // j, j = J .. 1, of a recursion at x: not consecutive
    x = 10**7 + 35276
    J = x // (_crossover(x, None) + 1)
    ys = x // np.arange(J, 0, -1, dtype=np.int64)
    assert J > 100 and (np.diff(ys) > 1).any()
    q, nu_hi, starts, counts = _run_layout(ys)
    assert starts.tolist() == (np.cumsum(counts) - counts).tolist()
    assert q.size == nu_hi.size == int(counts.sum())
    for y, a, c in zip(ys.tolist(), starts.tolist(), counts.tolist()):
        rq, _, rh = _runs(y)
        assert (q[a], nu_hi[a]) == (y, 1)
        assert q[a + 1 : a + c].tolist() == rq.tolist(), y
        assert nu_hi[a + 1 : a + c].tolist() == rh.tolist(), y


def test_run_counts_isqrt_next_to_squares():
    # the float root rounds up to s just below s^2 once s is near 2^26, and
    # past 2^53 the float of n is rounded too; only the isqrt is computed,
    # no layout of roots this large
    top = isqrt(2**53)
    rng = np.random.default_rng(5)
    s = np.concatenate(
        (
            np.arange(1, 1 << 16),
            rng.integers(1 << 16, top, 1 << 16),
            np.arange(top - (1 << 16), top + 1),
            rng.integers(top, 1 << 31, 1 << 12),
        )
    ).astype(np.int64)
    for n in (s * s - 1, s * s, s * s + 2 * s):
        got, _ = _run_counts(n)
        assert got.tolist() == [isqrt(v) for v in n.tolist()]


# -- synthetic lanes whose true values sit at an edge of their intervals


def _lane(rng: random.Random, n: int, rel_err: float, prefix: bool):
    """Published (values, errors) over [0, n] with entry 0 exact at 0, and the
    exact values, each the published value moved by exactly its error, up or
    down at random."""
    vals, acc = [0.0], 0.0
    for _ in range(n):
        t = rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-6, 2)
        acc = acc + abs(t) if prefix else t
        vals.append(acc)
    errs = [0.0] + [abs(v) * rel_err * rng.uniform(0.5, 1.0) for v in vals[1:]]
    exact = [Fraction(v) + rng.choice((-1, 1)) * Fraction(e) for v, e in zip(vals, errs)]
    return (np.array(vals), np.array(errs)), exact


def _exact_run_sum(x: int, g: list, W: list) -> Fraction:
    """sum over the runs of x of g(q) (W(nu_hi) - W(nu_lo - 1)), exactly."""
    q, lo, hi = _runs(x)
    total = g[x] * (W[1] - W[0])
    for qq, a, b in zip(q.tolist(), lo.tolist(), hi.tolist()):
        total += g[qq] * (W[b] - W[a - 1])
    return total


def _contains(v: float, e: float, exact: Fraction) -> bool:
    return abs(Fraction(float(v)) - exact) <= Fraction(float(e))


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("noisy", ["g", "W", "both"])
def test_run_kernel_contains_exact_sum(noisy, lanes):
    # every input error is attained, with random signs, so a dropped charge
    # on g or on the weight lane shows; with two lanes the term sets are
    # reduced together, as the rearrangement reduces its two sums
    rng = random.Random(31 + lanes)
    hi = 80
    g_err = 1e-6 if noisy in ("g", "both") else 0.0
    w_err = 1e-6 if noisy in ("W", "both") else 0.0
    for _ in range(40):
        g, g_exact = _lane(rng, hi, g_err, prefix=False)
        ws = [_lane(rng, hi, w_err, prefix=True) for _ in range(lanes)]
        for a, q, nu_hi, starts, counts in _run_batches(1, hi):
            gq, gq_err = g[0][q], g[1][q]
            terms = [_run_terms(gq, gq_err, w, nu_hi, starts) for w, _ in ws]
            vals, errs = _reduce_runs(starts, counts, *terms)
            for i, x in enumerate(range(a, a + counts.size)):
                exact = sum(_exact_run_sum(x, g_exact, w_exact) for _, w_exact in ws)
                assert _contains(vals[i], errs[i], exact), (noisy, x)


def test_reduce_runs_charges_the_reduction():
    # exact inputs and weights W(k) = k, so every term is its g value exactly;
    # eight ones and then terms just under half an ulp of 1 lose every small
    # term to rounding, added left to right or in NumPy's eight-way pairwise
    # order, so only the reduction charge covers the sum
    n = 120
    small = 0.99 * 2.0**-53
    gq = np.array([1.0] * 8 + [small] * (n - 8))
    lane = (np.arange(n + 1, dtype=np.float64), np.zeros(n + 1))
    nu_hi = np.arange(1, n + 1, dtype=np.int64)
    starts = np.array([0])
    counts = np.array([n])
    for k in (1, 2):
        terms = [_run_terms(gq, np.zeros(n), lane, nu_hi, starts)] * k
        vals, errs = _reduce_runs(starts, counts, *terms)
        exact = k * (8 + (n - 8) * Fraction(small))
        assert _contains(vals[0], errs[0], exact), k
        assert errs[0] < 2 * EPS * k * 8 * (k * n + 8)


@pytest.mark.parametrize("noisy", ["g", "eps", "E"])
def test_abel_rhs_contains_exact_sum(noisy):
    # the rearranged right side over synthetic g, eps and E lanes with
    # attained errors: its first sum charges d's g errors and eps's errors,
    # its second sum is the run kernel's with W = E
    rng = random.Random(43)
    hi = 80
    rel = {name: (1e-6 if name == noisy else 0.0) for name in ("g", "eps", "E")}
    for _ in range(40):
        g, g_exact = _lane(rng, hi, rel["g"], prefix=False)
        eps, eps_exact = _lane(rng, hi, rel["eps"], prefix=False)
        E, E_exact = _lane(rng, hi, rel["E"], prefix=True)
        tables = SimpleNamespace(g_arrays=g, eps_arrays=eps, eps_sum_arrays=E)
        vals, errs = _abel_rhs(1, hi, tables)
        for x in range(1, hi + 1):
            q, _, nu_hi = _runs(x)
            qs = [x, *q.tolist()]
            his = [1, *nu_hi.tolist()]
            first = sum(
                eps_exact[b] * (g_exact[a] - (g_exact[qs[j + 1]] if j + 1 < len(qs) else 0))
                for j, (a, b) in enumerate(zip(qs, his))
            )
            exact = first + _exact_run_sum(x, g_exact, E_exact)
            assert _contains(vals[x - 1], errs[x - 1], exact), (noisy, x)
