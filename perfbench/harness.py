"""Op accounting, child processes and statistics shared by the benchmark."""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class OpResult:
    """One attempted op: wall time, and whether it failed and why.

    An op fails if it raises (for a CLI op: prints a traceback or exits with
    an undocumented status) or if its answer fails the check; the second kind
    is a wrong answer and makes the whole run incorrect.
    """

    seconds: float
    failed: bool = False
    wrong: bool = False
    note: str = ""

    def to_list(self) -> list:
        return [self.seconds, self.failed, self.wrong, self.note]

    @staticmethod
    def from_list(row: list) -> "OpResult":
        return OpResult(*row)


class OpFailed(Exception):
    """An op ended without an answer, e.g. a CLI child that printed a traceback."""


def run_op(op, item, check) -> OpResult:
    """Time op(item) and check its answer; a raising op is counted, never fatal."""
    start = time.perf_counter()
    try:
        answer = op(item)
    except Exception as exc:  # an op's failure is a measurement, the run goes on
        return OpResult(time.perf_counter() - start, failed=True,
                        note=f"{type(exc).__name__}: {str(exc)[:200]}")
    seconds = time.perf_counter() - start
    problem = check(item, answer)
    if problem is not None:
        return OpResult(seconds, failed=True, wrong=True, note=problem)
    return OpResult(seconds)


def run_ops(items, op, check, around=None) -> list[OpResult]:
    """run_op over every item; ``around(i)``, if given, is a context entered per op."""
    results = []
    for i, item in enumerate(items):
        if around is None:
            results.append(run_op(op, item, check))
            continue
        with around(i):
            results.append(run_op(op, item, check))
    return results


@dataclass(frozen=True)
class Child:
    code: int
    stdout: str
    stderr: str
    rss_kb: int
    seconds: float


def spawn(argv: list[str], env: dict[str, str], scratch: Path) -> Child:
    """Run a child to completion with its output in files; wait4 gives its own peak RSS."""
    out, err = scratch / "child.out", scratch / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return Child(os.waitstatus_to_exitcode(status),
                 out.read_text(errors="replace"), err.read_text(errors="replace"),
                 usage.ru_maxrss, seconds)


TAIL_CAP = 95.0  # percent


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, at most p95.

    With n sorted samples and n < 200 that is the 11th largest.  Beyond
    p95 of a long run of sub-millisecond ops the value is set by bursts of
    the machine's scheduling stalls, which slow ten or so consecutive ops at
    a time, not by the program.  With fewer than 11 samples the maximum is
    returned, with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    beyond = max(10, math.ceil(n * (100 - TAIL_CAP) / 100))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def summarize(results: list[OpResult], round_sizes: list[int], rss_kb: list[int]) -> dict:
    """The end-to-end op metrics of one run, with the counts behind them.

    ``op_p50_ms`` is the mean over rounds of each round's median op time.
    Every round runs in fresh processes, and a fresh process on a shared
    machine can run at one of two speeds; the median of the pooled ops then
    jumps between the two, while the mean of the per-round medians moves
    smoothly with the share of slow rounds.
    """
    times = [r.seconds for r in results]
    if sum(round_sizes) != len(times):
        raise ValueError(f"round sizes cover {sum(round_sizes)} ops, not {len(times)}")
    medians, start = [], 0
    for size in round_sizes:
        medians.append(statistics.median(times[start:start + size]))
        start += size
    failed = sum(r.failed for r in results)
    tail_value, tail_pct = tail(times)
    return {
        "attempted": len(results),
        "failed": failed,
        "wrong": sum(r.wrong for r in results),
        "op_p50_ms": 1e3 * statistics.fmean(medians),
        "pooled_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail_value,
        "tail_percentile": tail_pct,
        "ops_per_s": len(times) / sum(times),
        "failed_share": failed / len(results),
        "ok_share": (len(results) - failed) / len(results),
        "peak_rss_mb": max(rss_kb) / 1024,
    }
