"""Print the SHA-256 of the six golden CSVs of this checkout, or how they
differ from another checkout's.

Runs ``python -m mobsum.cli`` from the ``src`` directory next to this
script, once per configuration, and prints one line per CSV: its digest and
the arguments that made it.  The CSVs must stay byte-identical across a
change that claims the same behaviour, so two checkouts compare by the
digests alone:

    python scripts/golden_csvs.py

With ``--against DIR`` it also runs the ``src`` directory of the checkout at
DIR and prints, for each CSV, the columns in which the two differ: a change
that may touch only some columns (say ``*_err`` and ``max_metric``) proves
it with one command.

    python scripts/golden_csvs.py --against ../parent

A line that is no CSV row of the header's width (the ``# gamma=...`` line
of ``verify``, the thresholds line of ``converge``) is compared whole and
named by its first field.  Exits with the first nonzero status of a run,
after printing its stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = [
    ["verify", "--limit", "100000"],
    ["verify", "--limit", "500000", "--cutoff", "200"],
    ["table", "--limit", "200000", "--stride", "20"],
    ["table", "--limit", "10000", "--stride", "1"],
    ["converge", "--delta", "0.3", "--limit", "100000", "--stride", "100"],
    # stride 1: the x = 1 row, which has no ratio_h, and samples on chunk edges
    ["converge", "--delta", "0.3", "--limit", "20000", "--stride", "1"],
]


def csvs(src: Path) -> list[bytes]:
    """The CSV of every configuration, made by the package under ``src``;
    raises ``subprocess.CalledProcessError`` on the first failed run."""
    # without PYTHONDONTWRITEBYTECODE the children reuse the package's bytecode
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        for args in CONFIGS:
            argv = [sys.executable, "-m", "mobsum.cli", *args, "--out", str(path)]
            subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            out.append(path.read_bytes())
    return out


def differing_columns(ours: bytes, theirs: bytes) -> list[str]:
    """The header's columns in which two CSVs differ, in header order, then
    the first field of each other line that differs, and "rows" if the two
    have different numbers of lines."""
    a, b = ours.decode().splitlines(), theirs.decode().splitlines()
    header = a[0].split(",")
    diff = set() if a[0] == b[0] else {"header"}
    if len(a) != len(b):
        diff.add("rows")
    for x, y in zip(a[1:], b[1:]):
        cx, cy = x.split(","), y.split(",")
        if len(cx) == len(cy) == len(header) and not x.startswith("#"):
            diff.update(h for h, p, q in zip(header, cx, cy) if p != q)
        elif x != y:
            diff.add(cx[0])
    return [h for h in header if h in diff] + sorted(diff - set(header))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, help="a checkout to compare the CSVs with")
    args = ap.parse_args(argv)
    roots = [Path(__file__).resolve().parents[1]]
    if args.against is not None:
        roots.append(args.against.resolve())
    try:
        ours, *theirs = (csvs(root / "src") for root in roots)
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr)
        return exc.returncode
    for i, config in enumerate(CONFIGS):
        line = f"{hashlib.sha256(ours[i]).hexdigest()} {' '.join(config)}"
        if theirs:
            diff = differing_columns(ours[i], theirs[0][i])
            line += ": " + ("differs in " + ", ".join(diff) if diff else "identical")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
