"""Command-line front door: tables, verification, convergence scans, benchmarks.

Subcommands
-----------
table     CSV of (x, g, f, M, theta, epsilon, h) sample points
verify    run every identity and bound check up to a limit; exit 1 on failure
converge  empirical thresholds G and xi for |h|/log x and |M|/x
fast      cross-check the sub-linear evaluators against direct summation
bench     sieve block-size and crossover timings

All numbers are serialized with 17 significant digits (round-trip safe for
doubles); error bounds use scientific notation.  ``table`` prints its rows
a chunk at a time through a vectorized kernel that gives the bytes of
'%.17g' and '%.16e'; a row holding a cell it cannot decide (zero,
non-finite, outside [1e-292, 1e17), at or just below a power of ten, or
within 2^-20 of a rounding tie where the scale 10^p is not a double) goes
through '%' itself.  Output is UTF-8 with LF line endings, byte-identical
across runs for identical configuration (timings in ``fast``/``bench``
excepted).

Exit status: 0 all checks passed; 1 any check failed or was indeterminate;
2 usage or I/O error, or an input whose tables would not fit in memory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import sys
import time
from types import SimpleNamespace
from typing import IO, Iterable, Iterator

import numpy as np

from . import bounds as bounds_mod
from . import fast as fast_mod
from . import identities as ident_mod
from . import sieve as sieve_mod
from .certified import EULER_GAMMA
from .sieve import iter_moebius_blocks
from .summatory import (
    EXACTNESS_CUTOFF,
    SummatorySeries,
    SummatoryTables,
    big_m,
    g_exact,
    g_float,
    series_scan,
)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _fmt_err(v: float) -> str:
    return format(float(v), ".16e")


def _fits(args: argparse.Namespace, need: int) -> bool:
    """Whether the subcommand's rough peak above the interpreter's own,
    ``need`` bytes, fits in the memory available, and if not, says so."""
    avail = sieve_mod._available_bytes()
    if need > avail:
        mib = f"about {need / 2**20:.0f} MiB, more than the {avail / 2**20:.0f} MiB available"
        print(f"mobsum: {args.command} --limit {args.limit} needs {mib}", file=sys.stderr)
    return need <= avail


def _exact_int_bytes(n: int) -> int:
    """About the bytes of one exact value g(k) L or H(k) L with
    L = lcm(1..n), an integer of about 1.44 n bits."""
    return 18 * n // 100 + 32


def _verify_exact_bytes(n: int) -> int:
    """About the peak bytes of ``verify``'s exact and identity checks up to
    n: a few exact values at a time, the about 4 sqrt(n) of them that the
    unit identity's end check records, and the identity tables' lanes over
    [1, n], about 160 B per x."""
    return (4 * math.isqrt(n) + 16) * _exact_int_bytes(n) + 160 * n


def _output(path: str | None):
    """A context manager giving stdout for None or "-", else the file at
    ``path``, which it closes."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_rows(out: IO[str], rows: Iterable[list[str]]) -> None:
    for row in rows:
        out.write(",".join(cell.replace(",", ";") for cell in row) + "\n")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


_TABLE_HEADER = "x,g,g_err,f,f_err,M,theta,theta_err,epsilon,h,h_err\n"
# '%.17g' and '%.16e' are the routines behind _fmt and _fmt_err.  _table_chunk
# prints the same bytes, and renders a row through this line where it cannot
# decide a cell: this line is the reference the kernel is tested against.
_TABLE_ROW = "%d,%.17g,%.16e,%.17g,%.16e,%d,%.17g,%.16e,%.17g,%.17g,%.16e\n"
_TABLE_CHUNK = 1 << 12


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10^p for p in [0, 308]: the nearest double, and the double nearest
    the rest, from the exact integers."""
    near, rest, t = [], [], 1
    for _ in range(309):
        near.append(float(t))
        rest.append(float(t - int(near[-1])))
        t *= 10
    return np.array(near), np.array(rest)


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, hi and lo of at most 26 significant bits each
    (Veltkamp's split, for |a| < 2^996)."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _field_masks(lo, hi) -> np.ndarray:
    """Masks over a 20-byte digit field keeping digits j in [lo, hi], one
    "V20" item per (lo, hi) pair.  Digit j sits at byte 3 + j: j in [0, 16]
    are D's 17 digits, j in [-3, -1] three leading '0's."""
    j = np.arange(-3, 17)
    keep = (j >= np.asarray(lo)[..., None]) & (j <= np.asarray(hi)[..., None])
    return (keep.astype(np.uint8) * 255).view("V20")[..., 0]


@functools.lru_cache(maxsize=1)
def _tables() -> SimpleNamespace:
    """The kernel's constant tables, built on its first use, so that the
    commands other than ``table`` do not pay for them."""
    t = SimpleNamespace()
    t.P10, t.P10_REST = _powers_of_ten()
    # the split of P10, taken at a scale where 2^27 * 10^308 does not overflow
    t.P10_HI, t.P10_LO = (h * 2.0**600 for h in _veltkamp(t.P10 * 2.0**-600))
    g4 = np.arange(10**4, dtype=np.int16)
    # "0000" ... "9999" as uint32 words of four ASCII digits
    digits = np.stack([g4 // 1000, g4 // 100 % 10, g4 // 10 % 10, g4 % 10], axis=-1)
    t.DIGITS4 = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    # trailing zero digits of each four-digit group, 4 for 0000
    t.TZ4 = (g4 % 10 == 0).astype(np.int8) + (g4 % 100 == 0) + (g4 % 1000 == 0) + (g4 == 0)
    # %.17g: the digit after which the point goes, kp = k for k >= -4, where the
    # number is positional ('0.0001...' reads the leading '0's at j < 0), and 0
    # below, where it is scientific; the part before the point, by kp + 4; the
    # part after it, digits kp + 1 ... L (the last nonzero digit), by (kp + 4, L)
    kp = np.arange(-4, 17)
    t.G_INT = _field_masks(np.minimum(kp, 0).clip(-1), np.maximum(kp, -1))
    t.G_FRAC = _field_masks(kp[:, None] + 1, np.arange(17)).ravel()
    # %d: the digits from the first nonzero one, by its index (16 for 0)
    t.D_INT = _field_masks(np.arange(17), 16)
    t.POW10_INT = 10 ** np.arange(17, dtype=np.int64)
    # the exponent suffix of 10^(16-p) for p in [0, 308], NUL-padded to a uint64
    # word; '%.17g' has one only where it is scientific, 16 - p < -4
    t.EXP_E = np.array([b"e%+03d" % (16 - p) for p in range(309)], dtype="S8").view(np.uint64)
    t.EXP_G = np.where(np.arange(309) > 20, t.EXP_E, np.uint64(0))
    return t


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, t) for |v| = a > 0 at the exponents p in [0, 308]: hi = fl(a P)
    and t = fl(lo + c), as in ``_decimal17``."""
    tab = _tables()
    ah, al = _veltkamp(a)
    bh, bl = tab.P10_HI[p], tab.P10_LO[p]
    hi = a * tab.P10[p]
    t = (((ah * bh - hi) + ah * bl + al * bh) + al * bl) + a * tab.P10_REST[p]
    return hi, t


def _decimal17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, p, decided) for a float64 array v: where ``decided``, |v| rounded
    half-even to 17 significant digits, as '%.17g' and '%.16e' round it, is
    D 10^-p with D in (10^16, 10^17), so its decimal exponent is k = 16 - p.

    p = 16 - floor(log10 |v|), and S = |v| 10^p is formed as hi + lo + c
    (``_scaled``): hi + lo = |v| P exactly (Dekker's TwoProduct over
    Veltkamp splits), P the double nearest 10^p, and c = fl(|v| fl(10^p -
    P)).  log10 rounds up to k + 1 for some doubles just below 10^(k+1);
    there S < 10^16, seen as hi < 10^16 or hi = 10^16 with t < 0, and S is
    formed again with p + 1.  D = hi + rint(t) with
    t = fl(lo + c); hi > 2^53 + 32 for every decided D, so hi is an even
    integer and D's parity is rint(t)'s: rint rounds S half-even whenever t
    is S - hi or on the same side of the half-integer next to it.

    For p <= 22, 10^p is a double, c = 0 and t = lo = S - hi exactly, so no
    cell is left undecided as a tie and exact ties round half-even.  For
    p > 22, |10^p - P| <= 2^-53 P, the rest is stored within 2^-53 of itself
    and c is rounded once, so |c - |v|(10^p - P)| <= (2^-52 + 2^-105) 2^-53
    |v| P < 2^-48, as |v| P < 2^56.5 where D < 10^17.  |lo| <= 8 and |c| < 12,
    so t = fl(lo + c) adds at most 2^-49: t is within 2^-47 of S - hi.  A cell
    whose t lies within 2^-20 of a half-integer is left undecided; outside
    that margin, t rounds the way S does.

    Also undecided: zero and non-finite v, p outside [0, 308] (|v| >= 10^17
    or below 10^-292), and D outside (10^16, 10^17), where a rounding carry
    or an S within 2^-47 of 10^16 puts it.
    """
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = 16.0 - np.floor(np.log10(a))
    decided = (p >= 0) & (p <= 308)
    a = np.where(decided, a, 1.0)
    p = np.where(decided, p, 16.0).astype(np.intp)
    hi, t = _scaled(a, p)
    short = np.nonzero(((hi < 1e16) | ((hi == 1e16) & (t < 0))) & (p < 308))
    p[short] += 1
    hi[short], t[short] = _scaled(a[short], p[short])
    r = np.rint(t)
    near_tie = (np.abs(t - r) > 0.5 - 2.0**-20) & (p > 22)
    D = hi.astype(np.int64) + r.astype(np.int64)
    decided &= ~near_tie & (D > 10**16) & (D < 10**17)
    return D, p, decided


def _digit_field(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For an int64 array 0 <= D < 10^17: its four-digit groups, shape
    (5, *D.shape), the leading digit alone in the first, and its 20-byte
    ASCII fields, shape (*D.shape, 5) uint32: '000' and D's 17 digits."""
    g = np.empty((5,) + D.shape, np.intp)
    a = D // 10**8
    b = D - a * 10**8
    np.floor_divide(a, 10**8, out=g[0])
    a -= g[0] * 10**8
    np.floor_divide(a, 10**4, out=g[1])
    np.subtract(a, g[1] * 10**4, out=g[2])
    np.floor_divide(b, 10**4, out=g[3])
    np.subtract(b, g[3] * 10**4, out=g[4])
    return g, _tables().DIGITS4.take(np.moveaxis(g, 0, -1))


def _sign(out: np.ndarray, v: np.ndarray) -> None:
    out[:, 0] = (v < 0) * np.uint8(ord("-"))


# Each cell writer fills ``out``, a fixed-width slot per row, from the column
# v, its 17 digits D (|v| itself for '%d'), their exponent p (see
# _decimal17), groups and ASCII field (see _digit_field).  The last byte of
# the slot is left for the separator.


def _cell_g(out, v, D, p, groups, field) -> None:
    """'%.17g' in 51 bytes: sign, integer part, point, fraction, exponent."""
    tab = _tables()
    tz = tab.TZ4[groups[4]]
    for w in (3, 2, 1):
        tz += (tz == 4 * (4 - w)) * tab.TZ4[groups[w]]
    last = 16 - tz
    k = 16 - p
    kp = np.where(k >= -4, k, 0)
    _sign(out, v)
    mask = tab.G_INT.take(kp + 4).view(np.uint32).reshape(-1, 5)
    np.bitwise_and(field, mask, out=out[:, 1:21].view(np.uint32))
    out[:, 21] = (last > kp) * np.uint8(ord("."))
    mask = tab.G_FRAC.take((kp + 4) * 17 + last).view(np.uint32).reshape(-1, 5)
    np.bitwise_and(field, mask, out=out[:, 22:42].view(np.uint32))
    out[:, 42:50].view(np.uint64)[:, 0] = tab.EXP_G.take(p)


def _cell_e(out, v, D, p, groups, field) -> None:
    """'%.16e' in 28 bytes: sign, first digit, point, 16 digits, exponent."""
    _sign(out, v)
    out[:, 1] = field.view(np.uint8)[:, 3]
    out[:, 2] = ord(".")
    out[:, 3:19].view(np.uint32)[...] = field[:, 1:]
    out[:, 19:27].view(np.uint64)[:, 0] = _tables().EXP_E.take(p)


def _cell_d(out, v, D, p, groups, field) -> None:
    """'%d' in 22 bytes: sign, digits from the first nonzero one."""
    _sign(out, v)
    tab = _tables()
    first = 17 - np.maximum(np.searchsorted(tab.POW10_INT, D, side="right"), 1)
    mask = tab.D_INT.take(first).view(np.uint32).reshape(-1, 5)
    np.bitwise_and(field, mask, out=out[:, 1:21].view(np.uint32))


_TABLE_CELLS = {"d": (_cell_d, 22), "g": (_cell_g, 51), "e": (_cell_e, 28)}
_TABLE_KINDS = [c.strip()[-1] for c in _TABLE_ROW.split(",")]
_TABLE_FLOATS = [i for i, kind in enumerate(_TABLE_KINDS) if kind != "d"]
_TABLE_INTS = [i for i, kind in enumerate(_TABLE_KINDS) if kind == "d"]
_TABLE_WIDTH = sum(_TABLE_CELLS[kind][1] for kind in _TABLE_KINDS)


def _table_chunk(columns: list[np.ndarray]) -> str:
    """The _TABLE_ROW lines of the rows in ``columns``, as one string.

    The float columns are decided together, and the digits of every column
    are made together; each cell is then laid out in a fixed-width slot of
    ASCII bytes, NUL where a character is left out (the sign of a positive
    number, a stripped zero, an absent point or exponent), and the NULs are
    deleted from the whole chunk in one pass.  A row holding a cell that
    ``_decimal17`` leaves undecided is rendered by ``_TABLE_ROW`` in its place.
    """
    n = len(columns[0])
    D = np.empty((len(columns), n), np.int64)
    p = np.zeros_like(D)
    floats = np.stack([columns[i] for i in _TABLE_FLOATS])
    D[_TABLE_FLOATS], p[_TABLE_FLOATS], decided = _decimal17(floats)
    D[_TABLE_INTS] = np.abs(np.stack([columns[i] for i in _TABLE_INTS]))
    groups, field = _digit_field(D)
    decided = decided.all(axis=0)
    rows = np.empty((n, _TABLE_WIDTH), np.uint8)
    o = 0
    for c, (v, kind) in enumerate(zip(columns, _TABLE_KINDS)):
        cell, width = _TABLE_CELLS[kind]
        cell(rows[:, o : o + width], v, D[c], p[c], groups[:, c], field[c])
        o += width
        rows[:, o - 1] = ord(",")
    rows[:, -1] = ord("\n")
    rows[~decided] = 0
    body = rows.tobytes().translate(None, b"\0").decode("ascii")
    if decided.all():
        return body
    ends = np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
    pieces, start = [], 0
    for i in np.flatnonzero(~decided).tolist():
        pieces += [body[start : ends[i]], _TABLE_ROW % tuple(c[i].item() for c in columns)]
        start = ends[i]
    pieces.append(body[start:])
    return "".join(pieces)


def _table_lines(series: SummatorySeries) -> Iterator[str]:
    """The header, then the rows a chunk at a time, made as they are written."""
    s = series
    columns = (s.xs, s.g, s.g_err, s.f, s.f_err, s.M, s.theta, s.theta_err, s.epsilon, s.h, s.h_err)
    yield _TABLE_HEADER
    for lo in range(0, len(series), _TABLE_CHUNK):
        yield _table_chunk([c[lo : lo + _TABLE_CHUNK] for c in columns])


def _cmd_table(args: argparse.Namespace) -> int:
    # the int8 mu lane and its streams, about 2.3 B per x, and the series, 103 B per sample
    if not _fits(args, 3 * args.limit + 104 * (args.limit // args.stride)):
        return 2
    series = series_scan(args.limit, args.stride)
    with _output(args.out) as out:
        out.writelines(_table_lines(series))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


_VERIFY_HEADER = "check,lo,hi,items,failures,indeterminate,max_metric,verdict,note\n"


def _check_row(
    name: str, lo: int, hi: int, items: int, failures: int, indeterminate: int, metric: str, note=""
) -> tuple[list[str], bool]:
    """One row of ``verify`` and whether its check passed: with no failures
    and no indeterminate items."""
    ok = failures == indeterminate == 0
    cells = (name, lo, hi, items, failures, indeterminate, metric, "pass" if ok else "FAIL", note)
    return [str(c) for c in cells], ok


def _cmd_verify(args: argparse.Namespace) -> int:
    limit = args.limit
    cutoff = args.cutoff
    exact_hi = min(limit, cutoff)
    # the int8 mu lane that the bound scans stream from, 1 B per x
    if not _fits(args, limit + _verify_exact_bytes(exact_hi)):
        return 2
    # the bound scans stream their lanes from mu, the one full-length lane,
    # built first so that the g and f streams read it and do not sieve again
    tables = SummatoryTables(limit)
    tables.mu

    sums = ident_mod.divisor_sum_scan(exact_hi).tolist()
    div_bad = sum(1 for t in range(1, exact_hi + 1) if sums[t] != (1 if t == 1 else 0))
    results = [_check_row("divisor_sum_unit", 1, exact_hi, exact_hi, div_bad, 0, _fmt(0.0))]

    # the identity scans read their lanes only up to exact_hi, so their tables
    # stop there; each gives its verdicts as arrays, counted here
    ident_tables = SummatoryTables(exact_hi)
    for columns in (
        lambda: ident_mod.gram_columns(1, exact_hi, None),
        lambda: ident_mod.decomposition_columns(1, exact_hi, ident_tables),
        lambda: ident_mod.abel_columns(1, exact_hi, ident_tables),
    ):
        c = columns()
        failures, slack = int(np.count_nonzero(~c.holds)), _fmt_err(c.slack.max())
        results.append(_check_row(c.name, 1, exact_hi, c.holds.size, failures, 0, slack))
        del c

    reports = [
        # the g bound and the Mangoldt scan read one stream of the g lane
        *bounds_mod._g_scans(1, limit, tables, exact=(cutoff, None), mangoldt=True),
        bounds_mod.check_theta_bounds(1, limit, tables=tables),
        bounds_mod.check_harmonic_bound(1, limit, tables=tables),
        bounds_mod.tail_bound_scan(1, limit, tables=tables),
    ]
    for r in reports:
        counts = (r.checked, len(r.violations), len(r.indeterminate))
        results.append(_check_row(r.name, r.lo, r.hi, *counts, _fmt(r.max_ratio), r.note))

    all_ok = all(ok for _, ok in results)
    with _output(args.out) as out:
        out.write(_VERIFY_HEADER)
        _write_rows(out, (row for row, _ in results))
        out.write(f"# gamma={_fmt(EULER_GAMMA)} cutoff={cutoff} verdict={'pass' if all_ok else 'FAIL'}\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def _cmd_converge(args: argparse.Namespace) -> int:
    # the int8 mu lane and its streams, about 1.3 B per x, the reports'
    # samples (Python objects), about 308 B each, and the few exact values
    # of the partial-summation check held at a time
    need = 2 * args.limit + 310 * (args.limit // args.stride)
    if not _fits(args, need + 8 * _exact_int_bytes(min(args.limit, args.cutoff))):
        return 2
    tables = SummatoryTables(args.limit)
    hrep = bounds_mod.h_convergence(args.delta, args.limit, args.stride, tables=tables)
    mrep = bounds_mod.m_over_x_convergence(
        args.delta, args.limit, args.stride, cutoff=args.cutoff, tables=tables
    )
    # h is sampled at the x of M but x = 1, a sample at stride 1 only
    blank = [""] if args.stride == 1 else []
    ratios_h = itertools.chain(blank, (_fmt(r) for _, r in hrep.samples))
    with _output(args.out) as out:
        out.write("x,ratio_h,ratio_M\n")
        for (x, ratio_m), rh in zip(mrep.samples, ratios_h):
            out.write(f"{x},{rh},{_fmt(ratio_m)}\n")
        g_str = str(hrep.G) if hrep.G is not None else "none"
        xi_h = str(hrep.xi) if hrep.xi is not None else "none"
        xi_m = str(mrep.xi) if mrep.xi is not None else "none"
        out.write(f"G={g_str},xi_h={xi_h},xi_M={xi_m}\n")
    # absent thresholds are empirical findings, not check failures; only a
    # broken exact identity or a violated envelope bound fails the run
    ok = hrep.bound_ok in (True, None) and mrep.abel_ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# fast
# ---------------------------------------------------------------------------


def _timed(fn, x: int):
    """fn(x) and the seconds it took."""
    t0 = time.perf_counter()
    return fn(x), time.perf_counter() - t0


def _cmd_fast(args: argparse.Namespace) -> int:
    x = args.limit
    # the certified g recursion holds more than m_recursive and the streamed
    # direct sums; the exact one, two lists of x exact values
    exact = 2 * x * _exact_int_bytes(x) if x <= args.cutoff else 0
    if not _fits(args, fast_mod._g_float_bytes(x) + exact):
        return 2
    m_rec, t_rec = _timed(fast_mod.m_recursive, x)
    m_dir, t_dir = _timed(big_m, x)
    checks = [(f"M({x})", str(m_rec), str(m_dir), m_rec == m_dir, t_rec, t_dir)]
    if x <= args.cutoff:
        g_rec, t_rec = _timed(fast_mod.g_recursive_exact, x)
        g_dir, t_dir = _timed(g_exact, x)
        agree = g_rec == g_dir
        g_rec, g_dir = float(g_rec), float(g_dir)
    else:
        g_rec, t_rec = _timed(fast_mod.g_recursive_float, x)
        g_dir, t_dir = _timed(g_float, x)
        agree = abs(g_rec.value - g_dir.value) <= g_rec.err + g_dir.err
        g_rec, g_dir = g_rec.value, g_dir.value
    checks.append((f"g({x})", _fmt(g_rec), _fmt(g_dir), agree, t_rec, t_dir))
    rows = [["quantity", "recursive", "direct", "agrees", "sec_recursive", "sec_direct"]]
    rows += [[q, r, d, str(a).lower(), f"{tr:.3f}", f"{td:.3f}"] for q, r, d, a, tr, td in checks]
    ok = all(c[3] for c in checks)
    with _output(args.out) as out:
        _write_rows(out, rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = [["operation", "parameter", "seconds", "detail"]]
    for shift in (16, 18, 20, 22):
        bs = 1 << shift
        t0 = time.perf_counter()
        total = 0
        for block in iter_moebius_blocks(1, args.limit, block_size=bs):
            total += int(block.values.sum(dtype="int64"))
        dt = time.perf_counter() - t0
        rows.append(["sieve_moebius", f"block=2^{shift}", f"{dt:.3f}", f"M={total}"])
    base = fast_mod.default_crossover(args.limit)
    for factor, k in (("0.5x", base // 2), ("1.0x", base), ("2.0x", base * 2)):
        k = max(1, min(k, args.limit))
        t0 = time.perf_counter()
        m = fast_mod.m_recursive(args.limit, crossover=k)
        dt = time.perf_counter() - t0
        rows.append(["m_recursive", f"crossover={factor}({k})", f"{dt:.3f}", f"M={m}"])
    with _output(args.out) as out:
        _write_rows(out, rows)
    return 0


# ---------------------------------------------------------------------------
# parser / main
# ---------------------------------------------------------------------------


def _add_common(
    p: argparse.ArgumentParser,
    *,
    stride: bool = False,
    delta: bool = False,
    cutoff: bool = False,
) -> None:
    p.add_argument("--limit", type=int, required=True, help="upper end of the scan range")
    if stride:
        p.add_argument("--stride", type=int, default=1, help="sampling stride (default 1)")
    if delta:
        p.add_argument("--delta", type=float, required=True, help="target bound delta")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    if cutoff:
        p.add_argument(
            "--cutoff",
            type=int,
            default=EXACTNESS_CUTOFF,
            help="exact-rational cutoff (default %(default)s)",
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mobsum",
        description="Moebius/Mertens summatory functions: tables, verification, thresholds.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("table", help="CSV table of summatory sample points")
    _add_common(p, stride=True)
    p.set_defaults(fn=_cmd_table)
    p = sub.add_parser("verify", help="run identity and bound checks")
    _add_common(p, cutoff=True)
    p.set_defaults(fn=_cmd_verify)
    p = sub.add_parser("converge", help="empirical convergence thresholds")
    _add_common(p, stride=True, delta=True, cutoff=True)
    p.set_defaults(fn=_cmd_converge)
    p = sub.add_parser("fast", help="cross-check sub-linear evaluators")
    _add_common(p, cutoff=True)
    p.set_defaults(fn=_cmd_fast)
    p = sub.add_parser("bench", help="sieve and recursion timings")
    _add_common(p)
    p.set_defaults(fn=_cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.limit < 1:
        ap.error("--limit must be >= 1")
    if args.command == "converge" and args.limit < 2:
        ap.error("converge needs --limit >= 2")
    if getattr(args, "stride", 1) < 1:
        ap.error("--stride must be >= 1")
    delta = getattr(args, "delta", 1.0)
    if not (math.isfinite(delta) and delta > 0):
        ap.error("--delta must be positive and finite")
    if getattr(args, "cutoff", 1) < 1:
        ap.error("--cutoff must be >= 1")
    if args.command in ("fast", "bench"):
        # bench's largest base table is twice the default crossover
        k = 2 * fast_mod.default_crossover(args.limit) if args.command == "bench" else None
        try:
            fast_mod._evaluator_crossover(args.limit, k)
        except ValueError as exc:
            ap.error(f"--limit {args.limit} is too large for {args.command}: {exc}")
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"mobsum: I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
