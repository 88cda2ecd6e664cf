"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests

They check the harness, not dp2: seeded inputs, op accounting, the
statistics, the independent lattice arithmetic behind the answer checks, and
that the benchmark refuses to run without the sources.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def test_same_seed_same_inputs():
    pool = workloads.load_queries()
    assert workloads.h0_round(5, 0) == workloads.h0_round(5, 0)
    assert workloads.query_round(5, 2, pool) == workloads.query_round(5, 2, pool)
    assert workloads.gauge_round(5, 1) == workloads.gauge_round(5, 1)


def test_other_seed_other_inputs():
    pool = workloads.load_queries()
    assert workloads.h0_round(5, 0) != workloads.h0_round(6, 0)
    assert workloads.h0_round(5, 0) != workloads.h0_round(5, 1)
    assert [e["argv"] for e in workloads.query_round(5, 0, pool)] != \
        [e["argv"] for e in workloads.query_round(6, 0, pool)]
    assert workloads.gauge_round(5, 0) != workloads.gauge_round(6, 0)


def test_rounds_have_fixed_composition():
    for seed in (1, 2):
        categories = [cat for cat, _ in workloads.h0_round(seed, 0)]
        assert {c: categories.count(c) for c in set(categories)} == dict(workloads.H0_ROUND)
        slots = sorted(e["slot"] for e in workloads.query_round(seed, 0, workloads.load_queries()))
        assert slots == list(range(workloads.QUERY_SLOTS))
        assert sorted(workloads.gauge_round(seed, 0)) == sorted(workloads.disjoint_gauges())


# ---------------------------------------------------------------------------
# op accounting
# ---------------------------------------------------------------------------


def square(x):
    return x * x


def check_square(x, answer):
    return None if answer == x * x else f"{x}^2 != {answer}"


def test_wrong_answer_counts_as_failed():
    def op(x):
        return 7 if x == 2 else square(x)

    results = harness.run_ops([1, 2, 3], op, check_square)
    assert [r.failed for r in results] == [False, True, False]
    assert [r.wrong for r in results] == [False, True, False]
    summary = harness.summarize(results, [3], [1024])
    assert (summary["attempted"], summary["failed"], summary["wrong"]) == (3, 1, 1)
    assert summary["ok_share"] == pytest.approx(2 / 3)


def test_raising_op_counts_as_failed_and_the_run_goes_on():
    def op(x):
        if x == 2:
            raise RecursionError("maximum recursion depth exceeded")
        return square(x)

    results = harness.run_ops([1, 2, 3, 4], op, check_square)
    assert len(results) == 4
    assert [r.failed for r in results] == [False, True, False, False]
    assert not any(r.wrong for r in results)
    assert results[1].note.startswith("RecursionError")
    summary = harness.summarize(results, [2, 2], [2048])
    assert summary["failed_share"] == 0.25
    assert summary["peak_rss_mb"] == 2.0


def test_p50_is_the_mean_of_round_medians():
    results = [harness.OpResult(s) for s in (0.001, 0.001, 0.003, 0.002, 0.002, 0.002)]
    summary = harness.summarize(results, [3, 3], [1])
    assert summary["op_p50_ms"] == pytest.approx(1.5)
    assert summary["pooled_p50_ms"] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        harness.summarize(results, [3, 2], [1])


@pytest.mark.parametrize("n, beyond, percentile", [(100, 10, 90.0), (10000, 500, 95.0)])
def test_tail_has_ten_samples_beyond_it_up_to_p95(n, beyond, percentile):
    values = [float(v) for v in range(n)]
    value, got = harness.tail(values)
    assert sum(v > value for v in values) == beyond
    assert got == percentile


def test_tail_of_few_samples_is_the_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# ---------------------------------------------------------------------------
# the independent arithmetic behind the checks
# ---------------------------------------------------------------------------


def test_lattice_facts():
    curves = workloads.curves()
    assert len(set(curves)) == 56
    assert all(workloads.dot(c, c) == -1 and workloads.dot(c, workloads.H) == 1 for c in curves)
    assert len(workloads.disjoint_gauges()) == 56 * 27
    for alpha in workloads.simple_roots():
        assert workloads.dot(alpha, alpha) == -2 and workloads.dot(alpha, workloads.H) == 0
        # a reflection permutes the (-1)-curves
        assert {workloads.reflect(c, alpha) for c in curves} == set(curves)


def test_check_dims_closed_forms():
    h = workloads.H
    assert workloads.check_dims("nef", workloads.scale(4, h), (21, 0, 0)) is None
    assert workloads.check_dims("nef", workloads.scale(4, h), (20, 0, 0)) is not None
    e1 = (0, 1, 0, 0, 0, 0, 0, 0)
    assert workloads.check_dims("deep", workloads.scale(600, e1), (1, 600 * 599 // 2, 0)) is None
    assert workloads.check_dims("deep", workloads.scale(600, e1), (1, 0, 0)) is not None
    assert workloads.check_dims("small", e1, (1, 0, 0)) is None
    assert workloads.check_dims("small", e1, (1, 1, 0)) is not None  # breaks Riemann-Roch


def test_query_pool_holds_the_readme_values():
    by_argv = {tuple(e["argv"]): e for e in workloads.load_queries()}
    assert by_argv[("cohom", "h0", "H")]["stdout"] == "3\n"
    assert by_argv[("galois", "class", "C67-E5")]["stdout"].endswith("] = 101000\n")
    assert by_argv[("cohom", "les", "0,1,?,0")]["stdout"] == "solved: 0, 1, 1, 0\n"
    documented_errors = [e for e in by_argv.values() if e["exit"] == 1]
    assert documented_errors and all(e["stderr_prefix"] == "error:" for e in documented_errors)


def test_check_query():
    entry = {"exit": 0, "stdout": "3\n", "stderr_prefix": ""}
    assert workloads.check_query(entry, 0, "3\n", "") is None
    assert workloads.check_query(entry, 0, "4\n", "") is not None
    assert workloads.check_query(entry, 1, "3\n", "") is not None
    error = {"exit": 1, "stdout": "", "stderr_prefix": "error:"}
    assert workloads.check_query(error, 1, "", "error: not a cocycle\n") is None
    assert workloads.check_query(error, 1, "", "Traceback ...\n") is not None


def test_replay_golden_has_the_summary_line():
    golden = workloads.replay_golden()
    assert golden.rstrip("\n").splitlines()[-1] == workloads.REPLAY_SUMMARY
    assert workloads.check_replay(0, golden, "", golden) is None
    assert workloads.check_replay(0, golden.replace("PASS", "FAIL", 1), "", golden) is not None


# ---------------------------------------------------------------------------
# the contract with the caller
# ---------------------------------------------------------------------------


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "h0-corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
