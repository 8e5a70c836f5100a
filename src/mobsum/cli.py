"""Command-line front door: tables, verification, convergence scans, benchmarks.

Subcommands
-----------
table     CSV of (x, g, f, M, theta, epsilon, h) sample points
verify    run every identity and bound check up to a limit; exit 1 on failure
converge  empirical thresholds G and xi for |h|/log x and |M|/x
fast      cross-check the sub-linear evaluators against direct summation
bench     sieve block-size and crossover timings

All numbers are serialized with 17 significant digits (round-trip safe for
doubles); error bounds use scientific notation.  Output is UTF-8 with LF
line endings, byte-identical across runs for identical configuration
(timings in ``fast``/``bench`` excepted).

Exit status: 0 all checks passed; 1 any check failed or was indeterminate;
2 usage or I/O error, or an input whose tables would not fit in memory.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from typing import IO, Iterable, Iterator

from . import bounds as bounds_mod
from . import fast as fast_mod
from . import identities as ident_mod
from . import sieve as sieve_mod
from .certified import EULER_GAMMA
from .sieve import DEFAULT_BLOCK_CAPACITY, iter_moebius_blocks
from .summatory import (
    EXACTNESS_CUTOFF,
    MAX_PREFIX_BLOCK,
    ScaledMoebiusPrefix,
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


def _fits(args: argparse.Namespace, need: int, exact: int = 0) -> bool:
    """Whether the subcommand's rough peak above the interpreter's own fits in
    the memory available, and if not, says so: ``need`` bytes plus the exact
    checks up to ``exact``, two lists of 1.44 n-bit integers, 0.18 n^2 B each."""
    need += 2 * (18 * exact * exact // 100)
    avail = sieve_mod._available_bytes()
    if need > avail:
        mib = f"about {need / 2**20:.0f} MiB, more than the {avail / 2**20:.0f} MiB available"
        print(f"mobsum: {args.command} --limit {args.limit} needs {mib}", file=sys.stderr)
    return need <= avail


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
# '%.17g' and '%.16e' are the routines behind _fmt and _fmt_err
_TABLE_ROW = "%d,%.17g,%.16e,%.17g,%.16e,%d,%.17g,%.16e,%.17g,%.17g,%.16e\n"
_TABLE_CHUNK = 1 << 12


def _table_lines(series: SummatorySeries) -> Iterator[str]:
    """The header, then one formatted line per sample, made as they are written.

    Columns are converted to Python numbers a chunk of rows at a time, so
    the rows never exist all at once.
    """
    s = series
    columns = (s.xs, s.g, s.g_err, s.f, s.f_err, s.M, s.theta, s.theta_err, s.epsilon, s.h, s.h_err)
    yield _TABLE_HEADER
    for lo in range(0, len(series), _TABLE_CHUNK):
        for row in zip(*(c[lo : lo + _TABLE_CHUNK].tolist() for c in columns)):
            yield _TABLE_ROW % row


def _cmd_table(args: argparse.Namespace) -> int:
    # the lanes take about 90 B per x, the series about 104 B per sample
    if not _fits(args, 90 * args.limit + 110 * (args.limit // args.stride)):
        return 2
    # no reference to the tables is kept: they are freed before the rows are written
    tables = SummatoryTables(args.limit, block_size=args.blocksize)
    series = series_scan(args.limit, args.stride, tables=tables)
    del tables
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
    if not _fits(args, limit, exact=exact_hi):
        return 2
    # the bound scans stream their lanes from mu, the one full-length lane built here
    tables = SummatoryTables(limit, block_size=args.blocksize)
    prefix = ScaledMoebiusPrefix(exact_hi)

    sums = ident_mod.divisor_sum_scan(exact_hi).tolist()
    div_bad = sum(1 for t in range(1, exact_hi + 1) if sums[t] != (1 if t == 1 else 0))
    results = [_check_row("divisor_sum_unit", 1, exact_hi, exact_hi, div_bad, 0, _fmt(0.0))]

    # the identity scans read their lanes only up to exact_hi, so their tables stop there
    ident_tables = SummatoryTables(exact_hi, block_size=args.blocksize)
    for name, scan, kw in (
        ("gram_unit_sum", ident_mod.gram_scan, {"prefix": prefix}),
        ("prime_decomposition", ident_mod.decomposition_scan, {"tables": ident_tables}),
        ("abel_rearrangement", ident_mod.abel_scan, {"tables": ident_tables}),
    ):
        checks = scan(1, exact_hi, **kw)
        failures = sum(not c.holds for c in checks)
        slack = _fmt_err(max((c.slack for c in checks), default=0.0))
        results.append(_check_row(name, 1, exact_hi, len(checks), failures, 0, slack))
        del checks

    reports = [
        bounds_mod.check_g_bound(1, limit, cutoff=cutoff, tables=tables, prefix=prefix),
        bounds_mod.check_mangoldt_bound(1, limit, tables=tables),
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
    # the lanes take about 58 B per x, the samples (Python objects) about 673 B each
    need = 60 * args.limit + 680 * (args.limit // args.stride)
    if not _fits(args, need, exact=min(args.limit, args.cutoff)):
        return 2
    tables = SummatoryTables(args.limit, block_size=args.blocksize)
    grep = bounds_mod.empirical_G(args.delta, args.limit, tables=tables)
    hrep = bounds_mod.h_convergence(args.delta, args.limit, args.stride, tables=tables)
    mrep = bounds_mod.m_over_x_convergence(
        args.delta, args.limit, args.stride, cutoff=args.cutoff, tables=tables
    )
    h_by_x = dict(hrep.samples)
    rows = [["x", "ratio_h", "ratio_M"]]
    for x, ratio_m in mrep.samples:
        rh = h_by_x.get(x)
        rows.append([str(x), _fmt(rh) if rh is not None else "", _fmt(ratio_m)])
    with _output(args.out) as out:
        _write_rows(out, rows)
        g_str = str(grep.G) if grep.G is not None else "none"
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
    # the base lane of the certified g recursion takes about 22 B per entry
    if not _fits(args, 24 * fast_mod.default_crossover(x), exact=x if x <= args.cutoff else 0):
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
    blocksize: bool = False,
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
    if blocksize:
        p.add_argument(
            "--blocksize",
            type=int,
            default=DEFAULT_BLOCK_CAPACITY,
            help="block length of the float prefix sums (default %(default)s)",
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mobsum",
        description="Moebius/Mertens summatory functions: tables, verification, thresholds.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("table", help="CSV table of summatory sample points")
    _add_common(p, stride=True, blocksize=True)
    p.set_defaults(fn=_cmd_table)
    p = sub.add_parser("verify", help="run identity and bound checks")
    _add_common(p, cutoff=True, blocksize=True)
    p.set_defaults(fn=_cmd_verify)
    p = sub.add_parser("converge", help="empirical convergence thresholds")
    _add_common(p, stride=True, delta=True, cutoff=True, blocksize=True)
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
    if not 1 <= getattr(args, "blocksize", 1) <= MAX_PREFIX_BLOCK:
        ap.error("--blocksize must lie in [1, 2^28]")
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
