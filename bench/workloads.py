"""The benchmark's workloads: inputs from a seed, the child command, output checks.

Each workload draws its sizes or roots from its seed within a narrow band,
so the work per run barely moves with the seed, and the program receives
only those inputs.  Every output is checked against values computed another
way; one checked item (a verify row, a table row, a recursion root, the run
verdict) is one operation of ``attempted``.

``g_err_rel`` and ``h_err_rel`` are the published error bound over |value|
at a fixed anchor argument of each workload, so they repeat exactly across
seeds.  They are read from the workload's own output where it carries the
value (the table's anchor row; g at 10^7 in ``recursion``), and otherwise
from an untimed probe run ``mobsum table --limit A --stride A`` of the same
build at the anchor A.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from mobsum.certified import EPS
from mobsum.fast import default_crossover, m_recursive
from mobsum.sieve import sieve_moebius
from mobsum.summatory import EXACTNESS_CUTOFF, ScaledMoebiusPrefix, g_float

BENCH = Path(__file__).resolve().parent
CLI = ["-m", "mobsum.cli"]
TABLE_COLUMNS = [
    "x", "g", "g_err", "f", "f_err", "M", "theta", "theta_err", "epsilon", "h", "h_err"
]
VERIFY_COLUMNS = [
    "check", "lo", "hi", "items", "failures", "indeterminate", "max_metric", "verdict", "note"
]
# M(10^k), OEIS A084237
MERTENS_POWERS_OF_TEN = {9: -222, 10: -33722, 11: -87856}


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def item(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes


def parse_csv(text: str, columns: list[str]) -> list[dict[str, str]]:
    """Rows of a mobsum CSV as dicts; raises ValueError on a wrong header."""
    lines = text.splitlines()
    if not lines or lines[0].split(",") != columns:
        raise ValueError("missing or wrong CSV header")
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"malformed row {line!r}")
        rows.append(dict(zip(columns, cells)))
    return rows


def table_row_err_rel(row: dict[str, str]) -> dict[str, float]:
    return {
        "g_err_rel": float(row["g_err"]) / abs(float(row["g"])),
        "h_err_rel": float(row["h_err"]) / abs(float(row["h"])),
    }


def probe_command(anchor: int) -> list[str]:
    return [*CLI, "table", "--limit", str(anchor), "--stride", str(anchor)]


class Workload:
    name: str
    # fixed argument of the probe run, or None when the output carries g and h
    anchor: int | None = None

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}/{seed}")

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def command(self, inputs: dict) -> list[str]:
        """Interpreter arguments of the untraced run."""
        raise NotImplementedError

    def traced_command(self, inputs: dict, spans_path: str) -> list[str]:
        cmd = self.command(inputs)
        mode, args = ("cli", cmd[2:]) if cmd[:2] == CLI else ("recursion", cmd[1:])
        return [str(BENCH / "tracer.py"), spans_path, mode, *args]

    def check(self, inputs: dict, out: str, code: int) -> Tally:
        raise NotImplementedError

    def err_rel(self, inputs: dict, out: str, probe_row: dict[str, str] | None) -> dict:
        """g_err_rel, h_err_rel and the certified.* per-layer ratios."""
        lane = table_row_err_rel(probe_row)
        return {
            **lane,
            "certified.g_err_rel.lane": lane["g_err_rel"],
            "certified.g_err_rel.1e7": 0.0,
        }


class Verify(Workload):
    """``mobsum verify`` at a seeded limit and cutoff, each within 0.5% above its base."""

    def __init__(self, name: str, limit: int, cutoff: int) -> None:
        self.name, self.limit, self.cutoff = name, limit, cutoff
        self.anchor = limit

    def inputs(self, seed: int) -> dict:
        rng = self.rng(seed)
        return {
            "limit": self.limit + rng.randrange(self.limit // 200),
            "cutoff": self.cutoff + rng.randrange(max(1, self.cutoff // 200)),
        }

    def command(self, inputs: dict) -> list[str]:
        limit, cutoff = str(inputs["limit"]), str(inputs["cutoff"])
        return [*CLI, "verify", "--limit", limit, "--cutoff", cutoff]

    def check(self, inputs: dict, out: str, code: int) -> Tally:
        limit, cutoff = inputs["limit"], inputs["cutoff"]
        exact_hi = min(limit, cutoff)
        expected = {
            "divisor_sum_unit": exact_hi,
            "gram_unit_sum": exact_hi,
            "prime_decomposition": exact_hi,
            "abel_rearrangement": exact_hi,
            "g_unit_bound": limit,
            "mangoldt_bound": limit,
            "theta_mertens_bounds": limit,
            "harmonic_log_bound": limit,
            "prime_power_tail_bound": limit,
        }
        tally = Tally()
        try:
            rows = {row["check"]: row for row in parse_csv(out, VERIFY_COLUMNS)}
        except ValueError as exc:
            rows = {}
            tally.notes.append(str(exc))
        for name, hi in expected.items():
            row = rows.get(name)
            ok = (
                row is not None
                and row["lo"] == "1"
                and row["hi"] == str(hi)
                and row["items"] == str(hi)
                and row["failures"] == "0"
                and row["indeterminate"] == "0"
                and row["verdict"] == "pass"
            )
            tally.item(ok, f"{self.name}: row {name}: {row}")
        footer = out.splitlines()[-1] if out else ""
        tally.item(
            code == 0
            and footer.startswith("# gamma=")
            and footer.endswith(f" cutoff={cutoff} verdict=pass"),
            f"{self.name}: exit {code}, footer {footer!r}",
        )
        return tally


class TableScan(Workload):
    """``mobsum table`` at a fixed stride and a seeded limit within 0.5% above its base.

    The base limit is always a row; it is the anchor of g_err_rel and h_err_rel.
    """

    name = "table-scan"
    m_samples = 12

    def __init__(self, limit: int, stride: int) -> None:
        self.limit, self.stride = limit, stride

    def inputs(self, seed: int) -> dict:
        rng = self.rng(seed)
        extra = self.stride * rng.randrange(self.limit // (200 * self.stride))
        limit = self.limit + extra
        rows = limit // self.stride
        sampled = sorted(rng.sample(range(1, rows + 1), self.m_samples))
        return {"limit": limit, "m_rows": [k * self.stride for k in sampled]}

    def command(self, inputs: dict) -> list[str]:
        return [*CLI, "table", "--limit", str(inputs["limit"]), "--stride", str(self.stride)]

    def check(self, inputs: dict, out: str, code: int) -> Tally:
        limit = inputs["limit"]
        tally = Tally()
        try:
            rows = parse_csv(out, TABLE_COLUMNS)
        except ValueError as exc:
            rows = []
            tally.notes.append(str(exc))
        # M is checked at the sampled rows, the anchor and the last row
        m_rows = set(inputs["m_rows"]) | {self.limit, limit - limit % self.stride}
        prefix = _exact_prefix(min(EXACTNESS_CUTOFF, limit))
        expected = range(self.stride, limit + 1, self.stride)
        for i, x in enumerate(expected):
            row = rows[i] if i < len(rows) else None
            tally.item(
                row is not None and _table_row_ok(row, x, x in m_rows, prefix),
                f"{self.name}: row for x={x}: {row}",
            )
        tally.item(
            code == 0 and len(rows) == len(expected), f"{self.name}: exit {code}, {len(rows)} rows"
        )
        return tally

    def err_rel(self, inputs: dict, out: str, probe_row) -> dict[str, float]:
        row = parse_csv(out, TABLE_COLUMNS)[self.limit // self.stride - 1]
        return super().err_rel(inputs, out, row)


def _table_row_ok(row: dict[str, str], x: int, check_m: bool, prefix) -> bool:
    try:
        return _table_row_holds(row, x, check_m, prefix)
    except ValueError:
        return False


def _table_row_holds(row: dict[str, str], x: int, check_m: bool, prefix) -> bool:
    if row["x"] != str(x):
        return False
    errs = [float(row[c]) for c in ("g_err", "f_err", "theta_err", "h_err")]
    if not all(math.isfinite(e) and e >= 0.0 for e in errs):
        return False
    if check_m and int(row["M"]) != m_recursive(x):
        return False
    if x <= prefix.limit:
        exact = Fraction(prefix.scaled_g[x], prefix.denominator)
        if abs(Fraction(float(row["g"])) - exact) > Fraction(float(row["g_err"])):
            return False
    return True


@functools.lru_cache(maxsize=1)
def _exact_prefix(limit: int) -> ScaledMoebiusPrefix:
    return ScaledMoebiusPrefix(limit)


class Recursion(Workload):
    """bench/recursion.py: exact M at the first power of ten and at 10^k + r for
    each decade k, certified g at its root and at root + r, with seeded r < 2^16.

    g_err_rel is read at the g root.  The recursion computes no h, so h_err_rel
    and the lane ratio come from a probe at the crossover K of the g root: the
    top of the base table that the g recursion reads.
    """

    name = "recursion"
    max_offset = 1 << 16

    def __init__(self, m_decades: tuple[int, ...], g_root: int) -> None:
        self.m_decades, self.g_root = m_decades, g_root
        self.anchor = default_crossover(g_root)

    def inputs(self, seed: int) -> dict:
        rng = self.rng(seed)
        m = [10 ** self.m_decades[0]]
        m += [10**k + rng.randrange(1, self.max_offset) for k in self.m_decades]
        return {"m": m, "g": [self.g_root, self.g_root + rng.randrange(1, self.max_offset)]}

    def command(self, inputs: dict) -> list[str]:
        return [
            str(BENCH / "recursion.py"),
            "--m", *map(str, inputs["m"]),
            "--g", *map(str, inputs["g"]),
        ]

    def check(self, inputs: dict, out: str, code: int) -> Tally:
        tally = Tally()
        results = {}
        for line in out.splitlines():
            try:
                rec = json.loads(line)
                results[(rec["fn"], rec["x"])] = rec
            except (ValueError, KeyError, TypeError):
                tally.notes.append(f"{self.name}: bad line {line!r}")
        for x in inputs["m"]:
            rec = results.get(("M", x))
            ok = rec is not None and rec["value"] == _mertens_reference(x)
            tally.item(ok, f"{self.name}: M({x}) = {rec}")
        g0, g1 = (results.get(("g", x)) for x in inputs["g"])
        tally.item(g0 is not None and _g_root_ok(g0), f"{self.name}: g({self.g_root}) = {g0}")
        tally.item(
            g0 is not None and g1 is not None and _g_offset_ok(g0, g1),
            f"{self.name}: g({inputs['g'][1]}) = {g1} against g({self.g_root}) = {g0}",
        )
        tally.item(code == 0, f"{self.name}: exit {code}")
        return tally

    def err_rel(self, inputs: dict, out: str, probe_row) -> dict[str, float]:
        m = super().err_rel(inputs, out, probe_row)
        for line in out.splitlines():
            rec = json.loads(line)
            if rec["fn"] == "g" and rec["x"] == self.g_root:
                m["g_err_rel"] = m["certified.g_err_rel.1e7"] = rec["err"] / abs(rec["value"])
        return m


def _mertens_reference(x: int) -> int:
    """M(x) from M(10^k), 10^k the largest power of ten <= x, plus the sieved offset."""
    k = len(str(x)) - 1
    if x == 10**k:
        return MERTENS_POWERS_OF_TEN[k]
    return MERTENS_POWERS_OF_TEN[k] + int(sieve_moebius(10**k + 1, x).values.sum(dtype="int64"))


@functools.lru_cache(maxsize=1)
def _g_direct(x: int) -> tuple[float, float]:
    g = g_float(x)
    return float(g.value), float(g.err)


def _g_root_ok(rec: dict) -> bool:
    """g at the root overlaps the direct compensated sum of mu(k)/k."""
    v, e = _g_direct(rec["x"])
    return abs(rec["value"] - v) <= rec["err"] + e


def _g_offset_ok(g0: dict, g1: dict) -> bool:
    """g(10^k + r) - g(10^k) agrees with the sieved sum of mu(k)/k over the offset."""
    lo, hi = g0["x"] + 1, g1["x"]
    mu = sieve_moebius(lo, hi).values
    terms = [int(m) / k for k, m in zip(range(lo, hi + 1), mu.tolist()) if m]
    s = math.fsum(terms)
    diff = g1["value"] - g0["value"]
    # each term rounds once, fsum and the difference once more
    rounding = EPS * (sum(abs(t) for t in terms) + abs(s) + abs(diff))
    return abs(diff - s) <= g0["err"] + g1["err"] + rounding


# Each workload stresses one group of layers and bypasses the others; the
# reasons and the traced shares are recorded in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Verify("verify-exact", limit=100_000, cutoff=2_000),
        Verify("verify-wide", limit=500_000, cutoff=200),
        TableScan(limit=200_000, stride=20),
        Recursion(m_decades=(9, 10), g_root=10**7),
    )
}
