import hashlib
import importlib.util
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mobsum
from mobsum.cli import _TABLE_HEADER, _TABLE_ROW, main
from mobsum.summatory import SummatoryTables, g_exact, series_scan


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_schema_and_rows(capsys):
    code, out = _run(capsys, "table", "--limit", "100", "--stride", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,g,g_err,f,f_err,M,theta,theta_err,epsilon,h,h_err"
    assert len(lines) == 101
    row3 = lines[3].split(",")
    assert row3[0] == "3"
    assert row3[5] == "-1"  # M(3)
    assert abs(float(row3[1]) - 1 / 6) < 1e-12  # g(3)
    assert float(row3[2]) > 0  # g_err scientific field parses
    assert lines[-1].split(",")[0] == "100"


def test_table_stride(capsys):
    code, out = _run(capsys, "table", "--limit", "10", "--stride", "5")
    lines = out.splitlines()
    assert [r.split(",")[0] for r in lines[1:]] == ["5", "10"]
    row10 = lines[2].split(",")
    assert abs(float(row10[6]) - math.log(210.0)) < 1e-12  # theta(10)


def _reference_table(limit: int, stride: int) -> str:
    s = series_scan(limit, stride, tables=SummatoryTables(limit))
    cols = (s.xs, s.g, s.g_err, s.f, s.f_err, s.M, s.theta, s.theta_err, s.epsilon, s.h, s.h_err)
    return _TABLE_HEADER + "".join(_TABLE_ROW % row for row in zip(*(c.tolist() for c in cols)))


@pytest.mark.parametrize("limit,stride", [(3000, 1), (5, 10)])
def test_table_is_the_reference_rendering(capsys, limit, stride):
    code, out = _run(capsys, "table", "--limit", str(limit), "--stride", str(stride))
    assert code == 0
    assert out == _reference_table(limit, stride)
    if stride > limit:
        assert out == _TABLE_HEADER
    else:
        # f, theta and h are 0 at x = 1, a value the kernel leaves to '%',
        # and g(1) = 1 is exact
        zero = "0.0000000000000000e+00"
        row1 = f"1,1,{zero},0,{zero},1,0,{zero},-1,0,{zero}"
        assert out.splitlines()[1] == row1


def test_table_writes_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, _ = _run(capsys, "table", "--limit", "5", "--out", str(target))
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert text.startswith("x,g,")
    assert text.endswith("\n") and "\r" not in text


def test_verify_small_passes(capsys):
    code, out = _run(capsys, "verify", "--limit", "500")
    assert code == 0
    lines = out.splitlines()
    names = [r.split(",")[0] for r in lines[1:] if not r.startswith("#")]
    assert names == [
        "divisor_sum_unit",
        "gram_unit_sum",
        "prime_decomposition",
        "abel_rearrangement",
        "g_unit_bound",
        "mangoldt_bound",
        "theta_mertens_bounds",
        "harmonic_log_bound",
        "prime_power_tail_bound",
    ]
    assert all(r.split(",")[7] == "pass" for r in lines[1:] if not r.startswith("#"))
    assert lines[-1].startswith("# gamma=0.57721566490153")


def test_verify_deterministic(capsys):
    _, first = _run(capsys, "verify", "--limit", "400")
    _, second = _run(capsys, "verify", "--limit", "400")
    assert first == second


def test_verify_csv_cells_are_comma_free(capsys):
    _, out = _run(capsys, "verify", "--limit", "200")
    header = out.splitlines()[0].count(",")
    for line in out.splitlines()[1:]:
        if line.startswith("#"):
            continue
        assert line.count(",") == header, line


def test_converge_output(capsys):
    code, out = _run(
        capsys, "converge", "--delta", "0.9", "--limit", "2000", "--stride", "100"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,ratio_h,ratio_M"
    assert len(lines) == 22  # 20 samples + header + footer
    footer = lines[-1]
    assert footer.startswith("G=") and ",xi_h=" in footer and ",xi_M=" in footer


def test_fast_crosscheck(capsys):
    code, out = _run(capsys, "fast", "--limit", "20000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("quantity,recursive,direct,agrees")
    assert all(r.split(",")[3] == "true" for r in lines[1:])


def test_fast_at_the_cutoff_checks_g_exactly(capsys):
    # at or below --cutoff both sides of g are exact rationals, shown rounded
    code, out = _run(capsys, "fast", "--limit", "1000", "--cutoff", "1000")
    assert code == 0
    rows = [r.split(",")[:4] for r in out.splitlines()[1:]]
    assert rows[0] == ["M(1000)", "2", "2", "true"]
    assert rows[1][0] == "g(1000)" and rows[1][1] == rows[1][2] and rows[1][3] == "true"
    assert float(rows[1][1]) == float(g_exact(1000))


def test_fast_memory_estimate_is_the_g_footprint(monkeypatch, capsys):
    # the certified g recursion holds the int8 mu lane over [0, K], the head
    # of the g lane and O(sqrt(x)) buffers; 24 B per base-table entry, the
    # whole g lane, would ask 10.4 GiB at 10^13
    monkeypatch.setattr(mobsum.sieve, "_available_bytes", lambda: 0)
    assert main(["fast", "--limit", str(10**13)]) == 2
    err = capsys.readouterr().err
    mib = int(re.search(r"needs about (\d+) MiB", err).group(1))
    assert 0 < mib < 2048, err


# the SHA-256 of the CSVs of scripts/golden_csvs.py's configurations, in order
_GOLDEN = [
    "2d800f23c4d97709e47a56c310633dcf88e2fdff21e09b796cf8ac8d4f05c27e",  # verify 1e5
    "ca5b0b6c1a0090f5175425615ba838e61b1be29e3a800ea7aec2d79cbaeeefe8",  # verify 5e5 cutoff 200
    "46c92101779430d5b5bc32a8ff5309e1ca2a76e04b4f299a6dd18eca63108769",  # table 2e5 stride 20
    "a66ea84a42a5f3d1a63011a934c304a88865ceaeb949388c4c154d5d69747857",  # table 1e4 stride 1
    "690719ad6b3487a046dd5e4f7b1c0a3e7bafdc905c0637e8cc19e00447042589",  # converge 1e5 stride 100
    "a75bf88506171310685e2fcd0092901adfcd96f8d9527685402286621ff60db5",  # converge 2e4 stride 1
]


def test_golden_csvs_are_byte_identical(tmp_path):
    # the CSVs that scripts/golden_csvs.py prints the digests of, made in process
    script = Path(mobsum.__file__).resolve().parents[2] / "scripts" / "golden_csvs.py"
    spec = importlib.util.spec_from_file_location("golden_csvs", script)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    out = tmp_path / "out.csv"
    digests = []
    for args in golden.CONFIGS:
        assert main([*args, "--out", str(out)]) == 0, args
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == _GOLDEN


def test_commands_sieve_mu_once(monkeypatch, tmp_path):
    # table samples h first, whose increments build the mu lane that g, f and
    # M then read; verify builds the lane before its g and f streams.  Only
    # verify's checks over [1, cutoff] sieve more: the exact stream twice, and
    # the identity tables' mu lane and their g and f streams
    sieved = []
    real = mobsum.sieve._moebius_values

    def counted(lo, hi, root_primes):
        sieved.append(hi - lo + 1)
        return real(lo, hi, root_primes)

    monkeypatch.setattr(mobsum.sieve, "_moebius_values", counted)
    out = str(tmp_path / "out.csv")
    assert main(["table", "--limit", "200000", "--stride", "20", "--out", out]) == 0
    assert sum(sieved) == 200_000
    sieved.clear()
    assert main(["verify", "--limit", "500000", "--cutoff", "200", "--out", out]) == 0
    assert 500_000 < sum(sieved) <= 501_000


def test_bench_runs(capsys):
    code, out = _run(capsys, "bench", "--limit", "50000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "operation,parameter,seconds,detail"
    ops = {r.split(",")[0] for r in lines[1:]}
    assert ops == {"sieve_moebius", "m_recursive"}


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--limit", "100"])  # missing required --delta
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table"])  # missing required --limit
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "--limit", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    for argv in (
        ["verify", "--limit", "1000", "--blocksize", "-5"],
        ["converge", "--delta", "0.3", "--limit", "1000", "--blocksize", "-1"],
        ["table", "--limit", "100", "--blocksize", "0"],
        ["verify", "--limit", "100", "--cutoff", "0"],
        ["converge", "--delta", "0.3", "--limit", "100", "--cutoff", "0"],
        ["converge", "--delta", "0.3", "--limit", "1"],
        ["converge", "--delta", "nan", "--limit", "100"],
        ["converge", "--delta", "inf", "--limit", "100"],
        ["table", "--limit", "100", "--blocksize", str(2**29)],
        ["table", "--limit", "10", "--cutoff", "5"],
        ["fast", "--limit", "100", "--blocksize", "4096"],
        ["bench", "--limit", "1000", "--cutoff", "5", "--blocksize", "7"],
        # Mertens base tables at or above 2^31 entries, roots at or above 2^53
        ["fast", "--limit", "100000000000000"],
        ["bench", "--limit", str(2**45)],
        ["fast", "--limit", str(2**53)],
        ["bench", "--limit", str(2**53)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_unwritable_output_exits_2(tmp_path, capsys):
    bad = tmp_path / "missing_dir" / "out.csv"
    code = main(["table", "--limit", "5", "--out", str(bad)])
    capsys.readouterr()
    assert code == 2


def _child_env(src: str) -> dict[str, str]:
    """This process's environment for a child that imports mobsum from
    ``src``, without PYTHONDONTWRITEBYTECODE: the children write and reuse
    the package's bytecode instead of compiling it from source each time."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return {**env, "PYTHONPATH": src}


# Spawns ARGV, reaps it with wait4 and prints its exit code and ru_maxrss.
_REAP = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_verify_wide_peak_rss(tmp_path):
    # ru_maxrss survives exec, so a child spawned by this large test process
    # would report this process's peak; a small interpreter spawns it instead
    src = str(Path(mobsum.__file__).resolve().parents[1])
    argv = [sys.executable, "-c", _REAP, sys.executable, "-m", "mobsum.cli", "verify"]
    argv += ["--limit", "500000", "--cutoff", "200", "--out", str(tmp_path / "verify.csv")]
    env = _child_env(src)
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300, check=True)
    code, maxrss_kib = map(int, done.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < 160, maxrss_kib


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_verify_frees_lanes_after_last_reader(tmp_path):
    # the bound scans stream their lanes in chunks, so the 2 MB mu lane is the
    # only one of full length; held g and f lanes would take 64 MB here
    src = str(Path(mobsum.__file__).resolve().parents[1])
    argv = [sys.executable, "-c", _REAP, sys.executable, "-m", "mobsum.cli", "verify"]
    argv += ["--limit", "2000000", "--cutoff", "200", "--out", str(tmp_path / "verify.csv")]
    env = _child_env(src)
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300, check=True)
    code, maxrss_kib = map(int, done.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < 128, maxrss_kib


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_verify_streamed_scans_peak_rss(tmp_path):
    # held lanes took about 35 B per x, 346 MiB here; streamed, the bound
    # scans keep only the 10 MB mu lane at full length
    src = str(Path(mobsum.__file__).resolve().parents[1])
    argv = [sys.executable, "-c", _REAP, sys.executable, "-m", "mobsum.cli", "verify"]
    argv += ["--limit", "10000000", "--cutoff", "200", "--out", str(tmp_path / "verify.csv")]
    env = _child_env(src)
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300, check=True)
    code, maxrss_kib = map(int, done.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < 80, maxrss_kib


def test_verify_beyond_memory_exits_2_before_allocating(capsys):
    # a mu lane of 10^13 bytes, lanes of tens of bytes per x to 10^13, the
    # about 4 sqrt(N) exact values of 0.18 N bytes each that verify's unit
    # identity records at N = 10^8, and fast's exact lists of about
    # 0.18 N^2 bytes each at N = 10^6, exceed any memory this runs in
    tracemalloc.start()
    try:
        codes = [
            main(["verify", "--limit", str(10**13)]),
            main(["verify", "--limit", str(10**8), "--cutoff", str(10**8)]),
            main(["table", "--limit", str(10**13)]),
            main(["converge", "--delta", "0.3", "--limit", str(10**13)]),
            main(["fast", "--limit", str(10**6), "--cutoff", str(10**6)]),
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert codes == [2] * 5
    assert peak < 1 << 20, peak
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("MiB available") == 5


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_verify_exact_cutoff_peak_rss(tmp_path):
    # the rearrangement scan over [1, 2e4] lays out its runs in batches of a
    # fixed size; all of them at once would add about 0.5 GB.  The exact
    # checks stream g L and hold no list of 2e4 exact values, about 70 MB
    # each: the run peaks near 36 MiB
    src = str(Path(mobsum.__file__).resolve().parents[1])
    argv = [sys.executable, "-c", _REAP, sys.executable, "-m", "mobsum.cli", "verify"]
    argv += ["--limit", "20000", "--cutoff", "20000", "--out", str(tmp_path / "verify.csv")]
    env = _child_env(src)
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300, check=True)
    code, maxrss_kib = map(int, done.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < 72, maxrss_kib


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_m_recursive_peak_rss():
    # the int32 base table of M(10^10) has 4.6e6 entries, filled one sieve block at a time
    src = str(Path(mobsum.__file__).resolve().parents[1])
    script = "from mobsum.fast import m_recursive; assert m_recursive(10**10) == -33722"
    argv = [sys.executable, "-c", _REAP, sys.executable, "-c", script]
    env = _child_env(src)
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300, check=True)
    code, maxrss_kib = map(int, done.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < 90, maxrss_kib
