"""The dp2 benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; dp2 is imported from ``src``.
Workloads (BENCHMARK.json says why each was chosen):

    replay-cold  a fresh ``python -m dp2 replay all`` per op
    query-cold   a fresh ``python -m dp2 <query>`` per op, seeded query mix
    h0-corpus    cohom.cohom_dims per op over seeded classes, in-process
    gauge-sweep  OrderModel + both order replays per op over the 1512 gauges

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs ops untraced and then the same ops traced, and prints the per-layer
metrics and the tracing overhead.  Every answer is checked.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  The
result with its environment, and the spans of a traced run, are written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import harness
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("replay-cold", "query-cold", "h0-corpus", "gauge-sweep")
SETUP_PROBES = 7
UNTRACED_SHARE = 1 / 4  # of --seconds, for the untraced half of a traced run

# the ten slowest claims of a cold replay when the benchmark was defined
TOP_CLAIMS = ("PIC.SCAN", "GAL.EE.COCYCLE", "GAL.KER.GEN", "GAL.DISJ.ALL63", "GAL.REPR.ALL63",
              "PIC.HH", "GAL.REPR.E1E3", "SIG.ISOMETRY", "SIG.PAIRS", "GAL.IM.GEN")

E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
             "ok_share": "share", "peak_rss_mb": "MB"}


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, self.env.get("PYTHONPATH")]))
        self.rss_kb: list[int] = []
        self.round_sizes: list[int] = []
        self.check_problems: list[str] = []
        self.traces: list[dict] = []
        self.imports: list[dict[str, float]] = []
        self.spans: list[dict] = []
        self.traced_ops = 0
        self.info: dict = {}
        if workload == "replay-cold":
            self.golden = workloads.replay_golden()
        if workload == "query-cold":
            self.pool = workloads.load_queries()

    def child(self, argv: list[str]) -> harness.Child:
        result = harness.spawn([sys.executable, *argv], self.env, OUT)
        self.rss_kb.append(result.rss_kb)
        return result

    def probe_setup(self) -> float:
        """One fresh interpreter until import dp2 and its lazy set-up are done."""
        start = time.perf_counter()
        result = harness.spawn([sys.executable, str(HERE / "worker.py"), "setup"], self.env, OUT)
        if result.code != 0:
            raise RuntimeError(f"set-up probe failed with exit {result.code}:\n{result.stderr}")
        self.info = json.loads(result.stdout.splitlines()[-1])
        return self.info.pop("ready") - start

    def measure(self, seconds: float, traced: bool, rounds: int | None = None, probes: int = 0):
        """Whole rounds until ``seconds`` of them are done (or a given number of rounds).

        The set-up probes are spread evenly over the same time, between rounds,
        and their own time does not count towards ``seconds``.
        """
        results, setup_times, index = [], [], 0
        start, probing = time.perf_counter(), 0.0

        def elapsed():
            return time.perf_counter() - start - probing

        while index < rounds if rounds is not None else (index == 0 or elapsed() < seconds):
            while len(setup_times) < probes and elapsed() >= len(setup_times) * seconds / probes:
                before = time.perf_counter()
                setup_times.append(self.probe_setup())
                probing += time.perf_counter() - before
            batch = self.run_round(index, traced)
            self.round_sizes.append(len(batch))
            results += batch
            index += 1
        while len(setup_times) < probes:
            setup_times.append(self.probe_setup())
        return results, index, setup_times

    def run_round(self, index: int, traced: bool) -> list[harness.OpResult]:
        if self.workload in ("h0-corpus", "gauge-sweep"):
            return self.worker_round(index, traced)
        if self.workload == "replay-cold":
            entries = [None]
        else:
            entries = workloads.query_round(self.seed, index, self.pool)
        op = self.traced_cli if traced else self.cold_cli
        return harness.run_ops(entries, lambda entry: op(entry, index), self.check_cli)

    # -- cold ops ------------------------------------------------------------

    def cold_cli(self, entry, index: int) -> harness.Child:
        return _documented(self.child(["-m", "dp2", *_argv(entry)]))

    def traced_cli(self, entry, index: int) -> harness.Child:
        op_id = f"{index}.{self.traced_ops}"
        trace_file = OUT / "trace.json"
        trace_file.unlink(missing_ok=True)
        spec = {"argv": _argv(entry), "op": op_id, "parent": f"op{op_id}", "trace_file": str(trace_file)}
        result = self.child(["-X", "importtime", str(HERE / "worker.py"), "cli", json.dumps(spec)])
        imports, stderr = tracing.split_importtime(result.stderr)
        self.imports.append(imports)
        if trace_file.exists():
            self.add_trace(json.loads(trace_file.read_text()), spec["parent"], result.seconds)
        self.traced_ops += 1
        return _documented(harness.Child(result.code, result.stdout, stderr,
                                         result.rss_kb, result.seconds))

    def check_cli(self, entry, child: harness.Child) -> str | None:
        if entry is None:
            return workloads.check_replay(child.code, child.stdout, child.stderr, self.golden)
        return workloads.check_query(entry, child.code, child.stdout, child.stderr)

    # -- in-process rounds -----------------------------------------------------

    def worker_round(self, index: int, traced: bool) -> list[harness.OpResult]:
        mode = "h0" if self.workload == "h0-corpus" else "gauge"
        spec = {"seed": self.seed, "round": index, "trace": traced, "parent": f"round{index}"}
        argv = [str(HERE / "worker.py"), mode, json.dumps(spec)]
        result = self.child(["-X", "importtime", *argv] if traced else argv)
        if result.code != 0:
            raise RuntimeError(f"{mode} round {index} failed with exit {result.code}:\n"
                               f"{result.stderr[-2000:]}")
        payload = json.loads(result.stdout.splitlines()[-1])
        self.check_problems += payload["check_problems"]
        if traced:
            self.imports.append(tracing.split_importtime(result.stderr)[0])
            self.add_trace(payload["trace"], spec["parent"], result.seconds)
            self.traced_ops += payload["trace"]["ops"]
        return [harness.OpResult.from_list(row) for row in payload["ops"]]

    def add_trace(self, trace: dict, span_id: str, seconds: float) -> None:
        self.spans.append({"id": span_id, "name": f"{self.workload} child", "op": None,
                           "parent": None, "seconds": seconds})
        self.spans += trace.pop("spans")
        self.traces.append(trace)


def _argv(entry) -> list[str]:
    return workloads.REPLAY_ARGV if entry is None else entry["argv"]


def _documented(child: harness.Child) -> harness.Child:
    """A CLI child that printed a traceback or used an undocumented exit status failed."""
    if "Traceback (most recent call last)" in child.stderr:
        lines = child.stderr.strip().splitlines()
        raise harness.OpFailed(f"traceback, {lines[-1][:200]}")
    if child.code not in (0, 1, 2):
        raise harness.OpFailed(f"undocumented exit status {child.code}")
    return child


def environment(info: dict) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "numpy": info.get("numpy"), "numba_imports": info.get("numba"),
            "kernels_backend": info.get("backend"), "loadavg": loadavg}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dp2" / "__init__.py").is_file():
        print(f"no dp2 sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed)

    if args.trace:
        plain, rounds, setup_times = bench.measure(args.seconds * UNTRACED_SHARE, traced=False, probes=1)
        rss_kb = list(bench.rss_kb)
        traced, _, _ = bench.measure(0, traced=True, rounds=rounds)
        results = plain + traced
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    else:
        results, rounds, setup_times = bench.measure(args.seconds, traced=False, probes=SETUP_PROBES)
        rss_kb = bench.rss_kb
    env = environment(bench.info)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    summary = harness.summarize(results, bench.round_sizes, rss_kb)
    correct = summary["wrong"] == 0 and not bench.check_problems
    print(f"rounds {rounds}  ops {summary['attempted']}  correct {str(correct).lower()}")
    print(f"failed_share {summary['failed_share']:.6f}  ({summary['failed']} failed of "
          f"{summary['attempted']} attempted, {summary['wrong']} of them wrong answers)")
    reasons = collections.Counter(r.note[:100] for r in results if r.failed)
    for reason, count in reasons.most_common(3):
        print(f"failure x{count}: {reason}")
    for problem in bench.check_problems[:5]:
        print(f"check failed: {problem}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "environment": env,
              "failed_share": summary["failed_share"], "setup_seconds": setup_times,
              "round_sizes": bench.round_sizes, "op_seconds": [r.seconds for r in results]}
    if args.trace:
        layer, bases = tracing.layer_metrics(bench.traces, bench.imports, bench.traced_ops, TOP_CLAIMS)
        layer["trace.overhead_ratio"] = (overhead, "ratio")
        for name, (value, unit) in layer.items():
            print(f"{name:32s} {value:16.6f} {unit}")
        hits, lookups = bases["h0_cache"]
        print(f"h0 cache hit ratio base: {hits} hits of {lookups} lookups; "
              f"per-op values are over {bases['ops']} traced ops")
        if bases["top_claims"]:
            print("top claims (ms per op): "
                  + ", ".join(f"{c} {v:.2f}" for c, v in bases["top_claims"]))
        print(f"tracing overhead: {overhead:.3f}x (traced op time over untraced, same ops)")
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(bench.spans))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        values = {"setup_s": statistics.median(setup_times), **summary}
        n = summary["attempted"]
        print(f"setup_s      {values['setup_s']:.4f} s   (median of {len(setup_times)} fresh interpreters)")
        print(f"op_p50_ms    {values['op_p50_ms']:.4f} ms  (mean of the medians of {rounds} rounds; "
              f"pooled median {values['pooled_p50_ms']:.4f} ms, n = {n})")
        beyond = round(n * (100 - summary["tail_percentile"]) / 100)
        print(f"op_tail_ms   {values['op_tail_ms']:.4f} ms  (p{summary['tail_percentile']:.2f}, "
              f"{beyond} samples beyond it, n = {n})")
        print(f"ops_per_s    {values['ops_per_s']:.4f} 1/s")
        print(f"ok_share     {values['ok_share']:.6f}  (1 - failed_share)")
        print(f"peak_rss_mb  {values['peak_rss_mb']:.2f} MB  (largest ru_maxrss of the op processes)")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    result = {"correct": correct, "attempted": summary["attempted"], "failed": summary["failed"],
              "metrics": metrics}
    record.update(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
