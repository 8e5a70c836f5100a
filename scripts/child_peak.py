"""Wall time and peak RSS of a command, each run a fresh child.

    python3 -S scripts/child_peak.py [--runs N] ARGV...

Spawns ARGV (looked up on PATH) N times in a row, default 3, reaps each run
with ``wait4``, and prints one line per run and then the medians:

    run 1: 0.123 s, 45.6 MiB
    ...
    median: 0.123 s, 45.6 MiB over 3 runs

The time is the spawn-to-reap wall time; the peak is the child's
``ru_maxrss``.  Linux carries ``ru_maxrss`` across ``exec``, so a child can
read no lower than its parent's RSS at spawn: run this spawner under
``python3 -S``, which skips ``site`` and keeps that floor near 10 MiB.  Only
the standard library is used.  Exits with the first nonzero exit code of a
run, after printing what it measured.
"""

from __future__ import annotations

import os
import statistics
import sys
import time


def run_once(argv: list[str]) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MiB of one run of ``argv``."""
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def main(args: list[str]) -> int:
    runs = 3
    if args[:1] == ["--runs"]:
        runs, args = int(args[1]), args[2:]
    if not args or runs < 1:
        print("usage: python3 -S scripts/child_peak.py [--runs N] ARGV...", file=sys.stderr)
        return 2
    walls, peaks, code = [], [], 0
    for i in range(runs):
        rc, wall, peak = run_once(args)
        print(f"run {i + 1}: {wall:.3f} s, {peak:.1f} MiB" + (f", exit {rc}" if rc else ""))
        walls.append(wall)
        peaks.append(peak)
        code = code or rc
    wall, peak = statistics.median(walls), statistics.median(peaks)
    print(f"median: {wall:.3f} s, {peak:.1f} MiB over {runs} runs")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
