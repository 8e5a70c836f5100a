"""The vectorized table row kernel against the '%' formats it replaces.

Every cell the kernel decides must be byte-identical to '%.17g' / '%.16e'
(or '%d'); a cell it cannot decide must be reported, so that its row goes
through ``_TABLE_ROW``.
"""

import math
from fractions import Fraction

import numpy as np

from mobsum.cli import _TABLE_CELLS, _TABLE_ROW, _decimal17, _digit_field, _table_chunk

_RNG = np.random.default_rng(20080101)


def _render(kind: str, v: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The cells of kind "g", "e" or "d" for the column v, and which of them
    the kernel decided."""
    if kind == "d":
        D, p, decided = np.abs(v), np.zeros_like(v), np.ones(v.shape, bool)
    else:
        D, p, decided = _decimal17(v)
    cell, width = _TABLE_CELLS[kind]
    out = np.zeros((len(v), width), np.uint8)
    cell(out, v, D, p, *_digit_field(D))
    out[:, -1] = ord("\n")  # the separator slot, which the cell leaves alone
    return out.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1], decided


def _check(v) -> np.ndarray:
    """Asserts both float kernels on v; returns the cells either deferred."""
    v = np.asarray(v, dtype=np.float64)
    deferred = np.zeros(v.shape, bool)
    for kind, fmt in (("g", "%.17g"), ("e", "%.16e")):
        got, decided = _render(kind, v)
        for x, s in zip(v[decided].tolist(), np.array(got, dtype=object)[decided]):
            assert s == fmt % x, (fmt, x.hex(), s)
        deferred |= ~decided
    return deferred


def _neighbours(xs, steps: int = 3) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    out = [xs]
    up = down = xs
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_random_doubles_over_all_binades():
    bits = _RNG.integers(0, 2**64, size=2 * 10**5, dtype=np.uint64)
    v = bits.view(np.float64)
    deferred = _check(v)
    a = np.abs(v)
    inside = (a >= 1e-292) & (a < 1e17)  # p = 16 - floor(log10|v|) in [0, 308]
    assert deferred[~inside].all()
    assert inside.sum() > 10**5
    assert deferred[inside].mean() < 1e-3


def test_random_doubles_of_table_magnitudes():
    # both signs, every binade from 2^-60 to 2^55: the range of g, f, theta,
    # epsilon, h and their error bounds
    e = _RNG.integers(-60, 56, size=10**5)
    v = np.ldexp(_RNG.uniform(1, 2, e.size), e) * _RNG.choice([-1.0, 1.0], e.size)
    assert _check(v).mean() < 1e-3


def test_zeros_infinities_nan_and_subnormals_defer():
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.225073858507201e-308]
    assert _check(special).all()
    assert not _check([2.2250738585072014e-308 * 1e16, -1e-292 * 1.5]).any()


def test_powers_of_ten_and_their_neighbours():
    _check(_neighbours([float(f"1e{k}") for k in range(-300, 18)]))
    _check(_neighbours([-float(f"1e{k}") for k in range(-30, 18)]))


def test_integers_near_2_53_and_powers_of_ten():
    above = [2**53 + d for d in range(-40, 41)] + [10**16 + d for d in range(2, 41)]
    above += [10**15 + d for d in range(1, 41)]
    assert not _check([float(i) for i in above] + [-float(i) for i in above]).any()
    # below a power of ten log10 may round up to it, and 10^15, 10^16 give
    # D = 10^16: those defer; 10^17 and above are out of range
    below = [10**16 - d for d in range(0, 41)] + [10**17 + d for d in range(-400, 401, 16)]
    _check([float(i) for i in below] + [-float(i) for i in below])
    _check(_neighbours([123.0, 1200.0, 99999999999999984.0]))


def test_doubles_just_below_a_power_of_ten_are_decided():
    # log10 rounds up to k + 1 at these, so p starts one short and is stepped
    below = [float(10**16 - d) for d in range(2, 22, 2)]  # every double in [10^16 - 21, 10^16)
    for x, count in ((1e-5, 4), (0.1, 2)):
        for _ in range(count):
            x = np.nextafter(x, 0.0)
            below.append(x)
    assert not _check(below + [-x for x in below]).any()


def test_positional_and_scientific_switch_points():
    # '%.17g' is positional for -4 <= k < 17 and scientific outside; the
    # rounding of 17 digits can carry a value across the switch
    edges = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 9.9999999999999995e-6]
    _check(_neighbours(edges + [-x for x in edges], steps=8))
    above = np.nextafter([1e-5, 1e-4, 1e16], np.inf)
    assert not _check(above).any()
    got, _ = _render("g", np.concatenate([above, [1.5e-5, 1.5e-4, 0.5, 1234.5, 1.25e16]]))
    assert got == [
        "1.0000000000000003e-05",
        "0.00010000000000000002",
        "10000000000000002",
        "1.5e-05",
        "0.00014999999999999999",
        "0.5",
        "1234.5",
        "12500000000000000",
    ]


def _exact_ties() -> list[float]:
    """Doubles whose 18th significant digit is an exact 5 followed by
    nothing: |v| 10^p = N / 10 with N an 18-digit odd multiple of 5^(p+1)."""
    out = []
    for p in range(1, 25):
        f = 5 ** (p + 1)
        lo, hi = -(-(10**17) // f), min(10**18 // f, 2**53)
        for m in _RNG.integers(lo, hi, size=40).tolist():
            m |= 1
            if m < hi:
                out.append(math.ldexp(m, -(p + 1)))
    for v in out:
        s = Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))
        assert s.denominator == 2
    return out


def test_exact_ties_round_half_even():
    ties = _exact_ties()
    deferred = _check(ties + [-t for t in ties])
    # 10^p is a double for p <= 22: those ties are decided, the rest defer
    assert deferred.sum() < len(ties) * 2 // 10
    assert "%.17g" % 1000000000000000.25 == "1000000000000000.2"
    assert not _check([1000000000000000.25, 1000000000000000.75]).any()


def _near_ties() -> list[float]:
    """Doubles m 2^-(p+q) whose |v| 10^p lies within 3 2^-q of a half-integer
    but not on it, for p = 23, where 10^p is not a double."""
    p, out = 23, []
    inv = pow(5**p, -1, 2**52)
    for q in (50, 51, 52):
        for j in (-3, -2, -1, 1, 2, 3):
            r = ((2 ** (q - 1) + j) * inv) % 2**q
            for t in range(2 ** (52 - q), 2 ** (53 - q)):
                m = r + t * 2**q
                if 2**52 <= m < 2**53:
                    out.append(math.ldexp(m, -(p + q)))
    for v in out:
        frac = (Fraction(v) * 10**p) % 1
        assert frac != Fraction(1, 2) and abs(frac - Fraction(1, 2)) < Fraction(4, 2**50)
    return out


def test_near_ties_defer_where_the_product_is_inexact():
    near = _near_ties()
    assert len(near) > 30
    assert _check(near).all()


def test_integer_cells():
    powers = 10 ** np.arange(17)
    v = np.concatenate([np.arange(-1100, 1100), powers, powers - 1, [2**53 - 1, -(2**53)]])
    got, decided = _render("d", v)
    assert decided.all()
    assert got == ["%d" % x for x in v.tolist()]


def test_chunk_rows_match_the_reference_line():
    n = 3000
    cols = [np.arange(1, n + 1, dtype=np.int64)]
    for kind in "gegedgegge":
        if kind == "d":
            cols.append(_RNG.integers(-(10**6), 10**6, n))
        else:
            e = _RNG.integers(-30, 20, n)
            cols.append(np.ldexp(_RNG.uniform(-2, 2, n), e))
    for c in cols[1:]:  # zero cells defer their rows to the reference line
        c[_RNG.integers(0, n, 40)] = 0
    assert _TABLE_ROW.count("%") == len(cols)
    want = "".join(_TABLE_ROW % row for row in zip(*(c.tolist() for c in cols)))
    assert _table_chunk(cols) == want
