"""The mobsum benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source tree: the program under test is ``src/mobsum``
of that tree, imported with ``PYTHONPATH=src``; nothing is installed.

One run measures one workload (see workloads.py).  Every run of the program
is a fresh child process, one at a time, with a pinned environment
(single-threaded BLAS/OpenMP), so the load is one process on one core.
After one untimed warm-up run the workload is repeated until ``--seconds``
have passed (at least three times), and before every repetition one
set-up child imports ``mobsum.cli`` and signals that it is ready.

With ``--trace 0`` the last line reports the end-to-end metrics: the
medians of wall time (spawn to exit) and of the child's own peak RSS (from
``wait4``), the median set-up time (spawn to ``mobsum.cli`` imported), and
the relative error bounds of g and h at the workload's anchor.  With
``--trace 1`` untraced and traced repetitions alternate (see tracer.py and
layers.py) and the last line reports the per-layer metrics: the medians
over the traced repetitions, plus the tracing overhead, the traced median
wall time minus the untraced one.

Every output is checked; ``attempted`` counts the checked items, ``failed``
those that did not hold, and ``fail_frac`` in the summary line is their
ratio.  The run exits 0 after printing its result, 1 when the program could
not be run or measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "mobsum" / "cli.py").is_file():
    sys.exit(f"bench: no program under test at {SRC / 'mobsum'}")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import workloads  # noqa: E402

MIN_REPEATS = 3
# the whole run, warm-up, checks and probe included, must end well within 180 s
DEADLINE_S = 170
SETUP_CODE = "import mobsum.cli, os; os.write(1, b'.')"

PER_LAYER_UNITS = {
    **layers.UNITS,
    "certified.g_err_rel.1e7": "ratio",
    "certified.g_err_rel.lane": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "g_err_rel": "ratio",
    "h_err_rel": "ratio",
}


class BenchError(RuntimeError):
    """The program could not be run or measured."""


def child_env() -> dict[str, str]:
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    code: int
    out: str


class Runner:
    """Spawns children of the benchmark's interpreter and reaps each one."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.env = child_env()

    def _spawn(self, args: list[str], actions) -> int:
        argv = [sys.executable, *args]
        return os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)

    @staticmethod
    def _reap(pid: int):
        """wait4 on one child; kill it if the wait is interrupted."""
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        return os.waitstatus_to_exitcode(status), usage

    def run(self, args: list[str]) -> ChildRun:
        out_path, err_path = self.tmp / "out.txt", self.tmp / "err.txt"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = self._spawn(args, actions)
        code, usage = self._reap(pid)
        wall = time.perf_counter() - t0
        if code != 0:
            sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace")[-2000:])
        # ru_maxrss of one reaped child is that child's own peak, in KiB on Linux
        return ChildRun(wall, usage.ru_maxrss / 1024.0, code, out_path.read_text(encoding="utf-8"))

    def setup(self) -> float:
        """Seconds from spawning a child until it has imported mobsum.cli."""
        r, w = os.pipe()
        try:
            t0 = time.perf_counter()
            pid = self._spawn(["-c", SETUP_CODE], [(os.POSIX_SPAWN_DUP2, w, 1)])
        finally:
            os.close(w)
        try:
            ready = os.read(r, 1)
            elapsed = time.perf_counter() - t0
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(r)
            code, _ = self._reap(pid)
        if ready != b"." or code != 0:
            raise BenchError(f"set-up child failed (exit {code})")
        return elapsed


class Checker:
    """Checks each distinct output once; repeated identical outputs reuse the verdict."""

    def __init__(self, workload: workloads.Workload, inputs: dict) -> None:
        self.workload, self.inputs = workload, inputs
        self.tally = workloads.Tally()
        self.cache: dict[tuple[int, str], object] = {}

    def __call__(self, run: ChildRun) -> None:
        key = (run.code, hashlib.sha256(run.out.encode()).hexdigest())
        if key not in self.cache:
            self.cache[key] = self.workload.check(self.inputs, run.out, run.code)
        self.tally.add(self.cache[key])


def probe_row(runner: Runner, workload: workloads.Workload, checker: Checker) -> dict | None:
    """The anchor row of an untimed ``mobsum table`` probe, when the workload needs one."""
    if workload.anchor is None:
        return None
    run = runner.run(workloads.probe_command(workload.anchor))
    try:
        rows = workloads.parse_csv(run.out, workloads.TABLE_COLUMNS)
        ok = run.code == 0 and len(rows) == 1 and rows[0]["x"] == str(workload.anchor)
    except ValueError:
        ok = False
    checker.tally.item(ok, f"probe at {workload.anchor}: exit {run.code}")
    if not ok:
        raise BenchError(f"probe run at {workload.anchor} failed")
    return rows[0]


def measure(
    workload: workloads.Workload, seed: int, seconds: float, trace: bool, tmp: Path
) -> dict:
    inputs = workload.inputs(seed)
    runner = Runner(tmp)
    check = Checker(workload, inputs)
    spans_path = tmp / "spans.json"

    warm = runner.run(workload.command(inputs))
    check(warm)
    walls, rss, setups, traced_walls, layer_runs = [], [], [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(walls) < MIN_REPEATS:
        setups.append(runner.setup())
        run = runner.run(workload.command(inputs))
        check(run)
        walls.append(run.wall_s)
        rss.append(run.peak_rss_mb)
        if trace:
            run = runner.run(workload.traced_command(inputs, str(spans_path)))
            check(run)
            traced_walls.append(run.wall_s)
            data = json.loads(spans_path.read_text(encoding="utf-8"))
            layer_runs.append(layers.analyse(data["spans"], data["lane_bytes_per_entry"]))
    err = workload.err_rel(inputs, warm.out, probe_row(runner, workload, check))

    if trace:
        metrics = {
            name: statistics.median(run[name] for run in layer_runs) for name in layers.UNITS
        }
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        metrics["certified.g_err_rel.1e7"] = err["certified.g_err_rel.1e7"]
        metrics["certified.g_err_rel.lane"] = err["certified.g_err_rel.lane"]
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "g_err_rel": err["g_err_rel"],
            "h_err_rel": err["h_err_rel"],
        }
        units = END_TO_END_UNITS
    for note in check.tally.notes[:20]:
        print(f"check failed: {note}", file=sys.stderr)
    return {
        "correct": check.tally.failed == 0,
        "attempted": check.tally.attempted,
        "failed": check.tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "repeats": len(walls),
    }


def summary(name: str, result: dict) -> str:
    frac = result["failed"] / result["attempted"]
    cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    cells.append(f"fail_frac={frac:.6g} ({result['failed']}/{result['attempted']})")
    return f"{name:13s} repeats={result['repeats']} " + "  ".join(cells)


def _on_alarm(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload != "all":
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(DEADLINE_S)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    results = {}
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            results[name] = measure(workload, args.seed, args.seconds, bool(args.trace), tmp)
            print(summary(name, results[name]), flush=True)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    else:
        result = results[args.workload]
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
