"""The recursion workload: exact M and certified g by floor-quotient recursion.

    python3 bench/recursion.py --m X [X ...] --g X [X ...]

Calls ``mobsum.fast.m_recursive`` at every ``--m`` root, then
``mobsum.fast.g_recursive_float`` at every ``--g`` root, and prints one JSON
object per root: ``{"fn": "M", "x": x, "value": v}`` or
``{"fn": "g", "x": x, "value": v, "err": e}``.
"""

from __future__ import annotations

import argparse
import json
import sys

from mobsum import fast


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="recursion")
    ap.add_argument("--m", type=int, nargs="*", default=[])
    ap.add_argument("--g", type=int, nargs="*", default=[])
    args = ap.parse_args(argv)
    for x in args.m:
        print(json.dumps({"fn": "M", "x": x, "value": fast.m_recursive(x)}))
    for x in args.g:
        g = fast.g_recursive_float(x)
        print(json.dumps({"fn": "g", "x": x, "value": float(g.value), "err": float(g.err)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
