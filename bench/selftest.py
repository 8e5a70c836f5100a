"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload once at a tiny size, untraced and traced, and checks
that each metric named in BENCHMARK.json comes out with its unit, a finite
value and no failed check, and that predictions.json names only metrics and
workloads that exist.  Then corrupts one output of each workload and
checks that the corruption is counted in ``failed``, and so in fail_frac.
Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

import run
import workloads

TINY = {
    "verify-exact": workloads.Verify("verify-exact", limit=3_000, cutoff=120),
    "verify-wide": workloads.Verify("verify-wide", limit=6_000, cutoff=40),
    "table-scan": workloads.TableScan(limit=4_000, stride=20),
    "recursion": workloads.Recursion(m_decades=(9,), g_root=10**5),
}


def corrupt(name: str, out: str) -> str:
    """A plausible but wrong version of a workload's output."""
    lines = out.splitlines(keepends=True)
    if name.startswith("verify"):
        # one x fewer than the range it claims to have checked
        cells = lines[5].split(",")
        cells[3] = str(int(cells[3]) - 1)
        lines[5] = ",".join(cells)
    elif name == "table-scan":
        # g(20) with its sign flipped: outside the exact g's interval
        cells = lines[1].split(",")
        cells[1] = cells[1][1:] if cells[1].startswith("-") else "-" + cells[1]
        lines[1] = ",".join(cells)
    else:
        rec = json.loads(lines[0])
        rec["value"] += 1
        lines[0] = json.dumps(rec) + "\n"
    return "".join(lines)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    with open(run.BENCH / "predictions.json", encoding="utf-8") as fh:
        for pred in json.load(fh)["predictions"]:
            named = {pred["metric"], *pred["moves"], *pred["on"], *pred["not_on"]}
            unknown = named - set(expected[0]) - set(expected[1]) - set(workloads.WORKLOADS)
            if unknown:
                problems.append(f"predictions.json names unknown {sorted(unknown)}")
    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        for name, workload in TINY.items():
            for trace in (0, 1):
                result = run.measure(workload, seed=1, seconds=0, trace=bool(trace), tmp=Path(tmp))
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    diff = sorted(set(got.items()) ^ set(expected[trace].items()))
                    problems.append(f"{name} trace={trace}: metrics differ: {diff}")
                if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                    problems.append(f"{name} trace={trace}: a metric is not finite")
                if result["failed"] or not result["correct"]:
                    problems.append(f"{name} trace={trace}: {result['failed']} checks failed")

            inputs = workload.inputs(1)
            child = run.Runner(Path(tmp)).run(workload.command(inputs))
            checker = run.Checker(workload, inputs)
            checker(child)
            clean_failed = checker.tally.failed
            checker(dataclasses.replace(child, out=corrupt(name, child.out)))
            tally = checker.tally
            if clean_failed or tally.failed == 0:
                problems.append(f"{name}: corrupted output not counted (failed={tally.failed})")
            print(f"{name}: fail_frac with one corrupted output = {tally.failed}/{tally.attempted}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
