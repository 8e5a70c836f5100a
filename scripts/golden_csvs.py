"""Print the SHA-256 of the six golden CSVs of this checkout.

Runs ``python -m mobsum.cli`` from the ``src`` directory next to this
script, once per configuration, and prints one line per CSV: its digest and
the arguments that made it.  The CSVs must stay byte-identical across a
change that claims the same behaviour, so two checkouts compare by the
digests alone:

    python scripts/golden_csvs.py

Exits with the first nonzero status of a run, after printing its stderr.
"""

from __future__ import annotations

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


def main() -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    # without PYTHONDONTWRITEBYTECODE the children reuse the package's bytecode
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for args in CONFIGS:
            argv = [sys.executable, "-m", "mobsum.cli", *args, "--out", str(out)]
            done = subprocess.run(argv, env=env, capture_output=True, text=True)
            if done.returncode:
                sys.stderr.write(done.stderr)
                return done.returncode
            print(hashlib.sha256(out.read_bytes()).hexdigest(), " ".join(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
