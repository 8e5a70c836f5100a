"""Alternating parent/change pairs of one benchmark workload.

    python scripts/ab_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seed S

Runs ``python3 bench/run.py --workload W --seed SEED --seconds T --trace 0``
from the root of each source tree, N pairs in all.  Pair i uses seed S + i
on both sides, and the side that runs first alternates: the parent in the
even pairs, the change in the odd ones.  For every end-to-end metric of the
parent tree's ``BENCHMARK.json`` it prints:

- each pair: the parent's value, the change's value, and which one is
  better (a tie counts for neither);
- each side's median and quartiles (linear interpolation, as
  ``statistics.quantiles(..., method="inclusive")``);
- how many pairs the change won;
- whether a gain holds by the rule: the change wins at least nine tenths of
  the pairs, and the medians differ, in the change's favour, by more than
  the parent's interquartile range.

Before pair 0 it runs ``python -m compileall -q src`` in both trees.  A
harness started with ``PYTHONDONTWRITEBYTECODE=1`` in a tree with no
``.pyc`` files compiles ``mobsum`` on import, and that compile raises the
harness's high-water RSS, which floors its children's ``peak_rss_mb``: a
fresh tree's first pair read about 2 MiB high.  Compiled once, both trees
start alike.

Only the standard library is used, and neither tree is written to beyond
that compile and what ``bench/run.py`` itself does.  Exits 1 when a run
fails or reports an incorrect output, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one ``bench/run.py --trace 0`` run in ``tree``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: seed {seed}: incorrect output ({result['failed']} failed)")
    return result


def compile_tree(tree: Path) -> None:
    """Write the ``.pyc`` files of the tree's ``src`` (see the module docstring)."""
    cmd = [sys.executable, "-m", "compileall", "-q", "src"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: compileall exit {proc.returncode}\n{proc.stdout}{proc.stderr}")


def end_to_end(tree: Path) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from the tree's BENCHMARK.json."""
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(name: str, better: str, pairs: list[tuple[float, float]]) -> list[str]:
    sign = -1.0 if better == "lower" else 1.0
    lines = [f"{name} ({better} is better)"]
    wins = 0
    for i, (p, c) in enumerate(pairs):
        gain = sign * (c - p)
        wins += gain > 0
        verdict = "change" if gain > 0 else "parent" if gain < 0 else "tie"
        lines.append(f"  pair {i}: parent {p:.6g}  change {c:.6g}  better: {verdict}")
    (p1, pm, p3), (c1, cm, c3) = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
    lines.append(f"  parent median {pm:.6g}  quartiles [{p1:.6g}, {p3:.6g}]  IQR {p3 - p1:.6g}")
    lines.append(f"  change median {cm:.6g}  quartiles [{c1:.6g}, {c3:.6g}]")
    rel = f" ({(cm - pm) / pm:+.1%})" if pm else ""
    holds = wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1
    lines.append(f"  change wins {wins}/{len(pairs)}; median gap {cm - pm:+.6g}{rel}")
    rule = "yes" if holds else "no"
    lines.append(f"  gain by the rule (>= 9/10 wins, gap above the parent IQR): {rule}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ab_pairs", description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent source tree")
    ap.add_argument("change", type=Path, help="root of the changed source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)

    metrics = end_to_end(args.parent)
    pairs: dict[str, list[tuple[float, float]]] = {name: [] for name in metrics}
    try:
        for tree in (args.parent, args.change):
            compile_tree(tree)
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            got = {side: run_bench(tree, args.workload, seed, args.seconds) for side, tree in order}
            for name in metrics:
                p, c = (got[side]["metrics"][name]["value"] for side in ("parent", "change"))
                pairs[name].append((p, c))
            walls = (f"{side} {got[side]['metrics']['wall_s']['value']:.4g}" for side, _ in order)
            print(f"pair {i} seed {seed}: " + "  ".join(walls), file=sys.stderr, flush=True)
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        return 1
    last = args.seed + args.pairs - 1
    print(f"workload {args.workload}, {args.pairs} pairs, seeds {args.seed}..{last}")
    for name, better in metrics.items():
        print("\n".join(report(name, better, pairs[name])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
