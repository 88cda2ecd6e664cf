"""Spans and per-module profile aggregation for the traced run.

Spans are recorded by the benchmark's own code around its calls into dp2
(and around a few module attributes it replaces with timing wrappers); they
stay in memory and are written out when the run ends.  Self time and call
counts per layer come from cProfile, aggregated by ``src/dp2/<module>.py``.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("picard", "kernels", "intlinalg", "galois", "cohom", "chern", "order",
          "replay", "reporting", "cli")

# functions whose call count or cumulative time is a per-layer metric
CALLS = ("galois.class_of", "intlinalg.solve")
CUMULATIVE = ("galois._cohomology", "galois._pair_table",
              "kernels.box_scan", "kernels.pair_class_codes")


class Tracer:
    """Spans with name, start, end, parent and op id, kept in memory."""

    def __init__(self, prefix: str = "", parent: str | None = None):
        self.spans: list[dict] = []
        self.op: str | None = None
        self._prefix = prefix
        self._stack: list[str] = [] if parent is None else [parent]

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": f"{self._prefix}{len(self.spans)}", "name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, name: str, describe=None) -> None:
        """Replace module.name by a wrapper that records a span around each call.

        Only calls that go through the module attribute are seen, so this is
        used for functions that no module calls recursively through its own
        globals.
        """
        original = getattr(module, name)
        layer = module.__name__.rsplit(".", 1)[-1]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = describe(*args, **kwargs) if describe else {}
            with self.span(f"{layer}.{name}", **attrs):
                return original(*args, **kwargs)

        setattr(module, name, traced)


def layer_of(filename: str) -> str | None:
    path = Path(filename)
    if path.parent.name == "dp2" and path.suffix == ".py" and path.stem in LAYERS:
        return path.stem
    return None


def aggregate(profile: cProfile.Profile) -> dict:
    """Self milliseconds per layer, plus the counted and cumulative functions."""
    self_ms = {layer: 0.0 for layer in LAYERS}
    calls = {name: 0 for name in CALLS}
    cumulative = {name: 0.0 for name in CUMULATIVE}
    for (filename, _, func), (_, ncalls, tottime, cumtime, _) in pstats.Stats(profile).stats.items():
        layer = layer_of(filename)
        if layer is None:
            continue
        self_ms[layer] += 1e3 * tottime
        key = f"{layer}.{func}"
        if key in calls:
            calls[key] += ncalls
        if key in cumulative:
            cumulative[key] += 1e3 * cumtime
    return {"self_ms": self_ms, "calls": calls, "cum_ms": cumulative}


def merge(total: dict, part: dict) -> None:
    """Add one child's aggregate into a running total of the same shape."""
    for key, value in part.items():
        if isinstance(value, dict):
            merge(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value


def layer_metrics(traces: list[dict], imports: list[dict[str, float]], ops: int,
                  claims: tuple[str, ...]) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics of a traced run, per traced op, and the bases behind its ratios.

    Times and counts are divided by the number of traced ops; import times
    are the median over the traced processes.
    """
    total: dict = {}
    for trace in traces:
        merge(total, {k: trace[k] for k in ("self_ms", "calls", "cum_ms")})
    cum, calls, self_ms = total.get("cum_ms", {}), total.get("calls", {}), total.get("self_ms", {})
    ops = max(ops, 1)
    hits = sum(t["h0_cache"][0] for t in traces if t.get("h0_cache"))
    lookups = sum(sum(t["h0_cache"]) for t in traces if t.get("h0_cache"))
    claim_ms: dict[str, float] = {}
    for trace in traces:
        for claim, ms in trace.get("claim_ms", {}).items():
            claim_ms[claim] = claim_ms.get(claim, 0.0) + ms / ops

    def imported(name):
        values = [sample[name] for sample in imports if name in sample]
        return statistics.median(values) if values else 0.0

    metrics = {
        "import.dp2_ms": (imported("dp2"), "ms"),
        "import.numpy_ms": (imported("numpy"), "ms"),
        "kernels.box_scan_ms": (cum.get("kernels.box_scan", 0.0) / ops, "ms"),
        "kernels.box_points": (sum(t.get("box_points", 0) for t in traces) / ops, "count"),
        "kernels.pair_codes_ms": (cum.get("kernels.pair_class_codes", 0.0) / ops, "ms"),
        "galois.derive_ms": (cum.get("galois._cohomology", 0.0) / ops, "ms"),
        "galois.pair_table_ms": (cum.get("galois._pair_table", 0.0) / ops, "ms"),
        "galois.class_of_calls": (calls.get("galois.class_of", 0) / ops, "count"),
        "intlinalg.solve_calls": (calls.get("intlinalg.solve", 0) / ops, "count"),
        "cohom.h0_calls": (lookups / ops, "count"),
        "cohom.h0_cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0) / ops, "ms")
    for claim in claims:
        metrics[f"replay.claim_ms.{claim}"] = (claim_ms.get(claim, 0.0), "ms")
    bases = {"h0_cache": (hits, lookups), "ops": ops,
             "top_claims": sorted(claim_ms.items(), key=lambda kv: -kv[1])[:10]}
    return metrics, bases


def split_importtime(stderr: str) -> tuple[dict[str, float], str]:
    """Cumulative import milliseconds per module from ``-X importtime``, and the rest of stderr."""
    cumulative: dict[str, float] = {}
    rest = []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e3
    return cumulative, "".join(rest)
