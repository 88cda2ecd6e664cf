"""Child process of the benchmark.

    python perfbench/worker.py setup
    python perfbench/worker.py h0|gauge '{"seed": 1, "round": 0, "trace": false}'
    python perfbench/worker.py cli '{"argv": [...], "op": "0.3", "parent": "op0.3", "trace_file": "..."}'

``setup`` imports dp2, finishes its lazy set-up and prints when it was ready.
``h0`` and ``gauge`` run one round of in-process ops after the set-up and
print the op results (and, traced, the profile and spans) as one JSON line.
``cli`` is the traced stand-in for a cold ``python -m dp2 ...``: it calls
``dp2.cli.main`` under cProfile with the same stdout, stderr and exit status,
and writes its profile and spans to ``trace_file``.
"""

from __future__ import annotations

import cProfile
import inspect
import json
import random
import sys
import time

import harness
import tracing
import workloads

WEYL_SAMPLES = 100  # per h0-corpus round


def lazy_setup() -> None:
    """What every first query pays: the census, H^1 and the first difference pair."""
    from dp2 import galois, picard

    picard.enumerate_exceptional()
    galois.h1_galois()
    galois.represent_as_difference(galois.CohClass.from_bits("100000"))


def h0_cache() -> list[int] | None:
    """(hits, misses) of cohom.h0's cache while the function exposes one."""
    from dp2 import cohom

    info = getattr(cohom.h0, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return [stats.hits, stats.misses]


def cmd_setup() -> None:
    import dp2  # noqa: F401

    lazy_setup()
    ready = time.perf_counter()
    import numpy

    try:
        from dp2 import kernels
        backend = kernels.active_backend()
    except ImportError:
        backend = None
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    print(json.dumps({"ready": ready, "numpy": numpy.__version__, "numba": have_numba,
                      "backend": backend}))


# ---------------------------------------------------------------------------
# in-process rounds
# ---------------------------------------------------------------------------


def h0_ops(spec: dict):
    from dp2 import cohom
    from dp2.picard import DivClass

    items = [(cat, d, DivClass(d)) for cat, d in workloads.h0_round(spec["seed"], spec["round"])]

    def op(item):
        return cohom.cohom_dims(item[2]).as_tuple()

    def check(item, dims):
        return workloads.check_dims(item[0], item[1], dims)

    return "cohom.cohom_dims", items, op, check


def w_e7_problems(spec: dict, items, results) -> list[str]:
    """Sampled W(E7) invariance of (h0, h1, h2), outside the timed region.

    The sample is drawn from answered classes with h0 or h2 nonzero, where
    peeling does real work, and each is moved by a word of three simple
    reflections.
    """
    from dp2 import cohom
    from dp2.picard import DivClass

    rng = random.Random(f"weyl:{spec['seed']}:{spec['round']}")
    roots = workloads.simple_roots()
    candidates = [(d, cohom.cohom_dims(cls).as_tuple()) for (cat, d, cls), r in zip(items, results)
                  if not r.failed and cat in ("small", "medium")]
    candidates = [(d, dims) for d, dims in candidates if dims[0] or dims[2]]
    problems = []
    for d, dims in rng.sample(candidates, min(WEYL_SAMPLES, len(candidates))):
        image = d
        for _ in range(3):
            image = workloads.reflect(image, rng.choice(roots))
        moved = cohom.cohom_dims(DivClass(image)).as_tuple()
        if moved != dims:
            problems.append(f"h({d}) = {dims} but h({image}) = {moved} for a W(E7) image")
    return problems


def gauge_ops(spec: dict):
    from dp2 import order, picard
    from dp2.picard import DivClass

    cs = workloads.curves()
    items = [(cs[i], cs[j], picard.classify(DivClass(cs[i])), picard.classify(DivClass(cs[j])))
             for i, j in workloads.gauge_round(spec["seed"], spec["round"])]

    def op(item):
        model = order.OrderModel(item[2], item[3])
        reports = order.replay_exceptional(model) + order.replay_orthogonality(model)
        return [r.id for r in reports], all(r.passed for r in reports), reports[0].computed["chi"]

    def check(item, answer):
        return workloads.check_gauge(item[0], item[1], answer)

    return "order.gauge", items, op, check


def cmd_round(mode: str, spec: dict) -> None:
    lazy_setup()
    name, items, op, check = (h0_ops if mode == "h0" else gauge_ops)(spec)
    tracer = tracing.Tracer(prefix=f"r{spec['round']}.", parent=spec.get("parent"))
    profile = cProfile.Profile() if spec["trace"] else None
    cache_before = h0_cache()
    if profile is None:
        results = harness.run_ops(items, op, check)
    else:
        def around(i):
            tracer.op = f"{spec['round']}.{i}"
            return tracer.span(name)

        profile.enable()
        results = harness.run_ops(items, op, check, around)
        profile.disable()
    cache_after = h0_cache()
    out = {"ops": [r.to_list() for r in results],
           "check_problems": w_e7_problems(spec, items, results) if mode == "h0" else []}
    if profile is not None:
        out["trace"] = {**tracing.aggregate(profile), "ops": len(items), "spans": tracer.spans,
                        "h0_cache": _delta(cache_before, cache_after)}
    print(json.dumps(out))


def _delta(before, after):
    if before is None or after is None:
        return None
    return [a - b for a, b in zip(after, before)]


# ---------------------------------------------------------------------------
# traced CLI op
# ---------------------------------------------------------------------------


def cmd_cli(spec: dict) -> int:
    tracer = tracing.Tracer(prefix=f"{spec['op']}.", parent=spec["parent"])
    tracer.op = spec["op"]
    with tracer.span("import dp2"):
        from dp2 import cli, replay
    _wrap_kernels(tracer)
    claim_ms: dict[str, float] = {}

    def timed_run_all(prefix=None):
        reports = []
        for claim_id in replay.all_claim_ids():
            if prefix is None or claim_id.startswith(prefix):
                with tracer.span("replay.run_one", claim=claim_id) as record:
                    reports.append(replay.run_one(claim_id))
                claim_ms[claim_id] = 1e3 * (record["end"] - record["start"])
        return reports

    replay.run_all = timed_run_all
    profile = cProfile.Profile()
    cache_before = h0_cache()
    try:
        with tracer.span("cli.main", argv=spec["argv"]):
            profile.enable()
            try:
                return cli.main(spec["argv"])
            finally:
                profile.disable()
    finally:
        points = sum(s.get("points", 0) for s in tracer.spans)
        trace = {**tracing.aggregate(profile), "ops": 1, "spans": tracer.spans,
                 "h0_cache": _delta(cache_before, h0_cache()), "claim_ms": claim_ms,
                 "box_points": points}
        with open(spec["trace_file"], "w") as fh:
            json.dump(trace, fh)


def _wrap_kernels(tracer: tracing.Tracer) -> None:
    try:
        from dp2 import kernels
    except ImportError:
        return
    if hasattr(kernels, "box_scan"):
        signature = inspect.signature(kernels.box_scan)

        def describe(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            dmax, mmax = bound.arguments["dmax"], bound.arguments["mmax"]
            return {"points": (2 * dmax + 1) * (2 * mmax + 1) ** 7}

        tracer.wrap(kernels, "box_scan", describe)
    if hasattr(kernels, "pair_class_codes"):
        tracer.wrap(kernels, "pair_class_codes")


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        cmd_setup()
        return 0
    spec = json.loads(argv[1])
    if mode == "cli":
        return cmd_cli(spec)
    cmd_round(mode, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
