"""Regenerate the reference outputs under perfbench/data.

    PYTHONPATH=src python3 perfbench/make_golden.py

``replay_all.txt`` is the stdout of ``python -m dp2 replay all``.
``queries.json`` is the query-cold pool: per slot, CLI argument lists with the
expected exit status, stdout and stderr prefix.  Ordinary queries take their
reference from the CLI, after checks that do not go through dp2's own
cohomology code (Riemann-Roch, closed forms, the values the README
documents).  Deep classes k*C take theirs from the closed form
h(kC) = (1, k(k-1)/2, 0), because the CLI cannot answer them at this commit.
Run this only when an output is meant to change, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys

import workloads
from workloads import DATA, H, add, chi, curves, scale

PER_SLOT = 20
POOL_SEED = 2409


def require(condition: bool, what) -> None:
    if not condition:
        raise RuntimeError(f"reference check failed: {what}")


def vec(d) -> str:
    return ",".join(str(x) for x in d)


def divisor_argv(prefix: list[str], text: str) -> list[str]:
    return prefix + (["--", text] if text.startswith("-") else [text])


def random_class(rng, bound):
    return tuple(rng.randint(-bound, bound) for _ in range(8))


def slot_queries(rng: random.Random) -> dict[int, list[tuple[list[str], tuple | None]]]:
    """argv per slot, each with the coordinates it queries when that is known."""
    cs = curves()
    names = (["H", "K", "L", "F"] + [f"E{i}" for i in range(1, 8)]
             + [f"L{i}{j}" for i in range(1, 8) for j in range(i + 1, 8)])
    slots: dict[int, list] = {s: [] for s in range(workloads.QUERY_SLOTS)}
    slots[1].append((["cohom", "h0", "H"], H))
    slots[3].append((["cohom", "les", "0,1,?,0"], None))
    slots[4].append((["galois", "class", "C67-E5"], None))
    slots[5].append((["galois", "represent", "101000"], None))
    slots[6].append((["chern", "chi", "F-H"], None))
    slots[7].append((["chern", "pairing", "--lhs", "2,F,1", "--rhs", "2,F,1"], None))
    slots[8] += [(["order", "model"], None),
                 (["order", "ext", "--src", "E1", "--tgt", "E3;L23"], None),
                 (["order", "ext", "--src", "H", "--tgt", "H;F", "--induced"], None)]
    while any(len(v) < PER_SLOT for v in slots.values()):
        d = random_class(rng, rng.choice((3, 6)))
        slots[0].append((divisor_argv(["cohom", "dims"], vec(d)), d))
        if rng.random() < 0.3:
            n = rng.randint(1, 60)
            slots[1].append((["cohom", "h0", f"{n}H"], scale(n, H)))
        else:
            d = random_class(rng, 6)
            slots[1].append((divisor_argv(["cohom", "h0"], vec(d)), d))
        d = random_class(rng, 4)
        slots[2].append((divisor_argv(["cohom", "witness"], vec(d)), d))
        seq = [rng.choice(["?", "0", "1", "2", "3"]) for _ in range(rng.randint(3, 6))]
        slots[3].append((["cohom", "les", ",".join(seq)], None))
        a, b = rng.sample(range(len(cs)), 2)
        cocycle = add(cs[a], cs[b], -1) if rng.random() < 0.7 else random_class(rng, 2)
        slots[4].append((divisor_argv(["galois", "class"], vec(cocycle)), None))
        bits = "".join(rng.choice("01") for _ in range(6))
        slots[5].append((["galois", "represent", bits] + (["--json"] if rng.random() < 0.3 else []), None))
        d = random_class(rng, 8)
        slots[6].append((divisor_argv(["chern", "chi"], vec(d)), d))
        lhs = f"{rng.randint(1, 3)},{rng.choice(names)},{rng.randint(-2, 3)}"
        rhs = f"{rng.randint(1, 3)},{rng.choice(names)},{rng.randint(-2, 3)}"
        slots[7].append((["chern", "pairing", "--lhs", lhs, "--rhs", rhs], None))
        src, tgt = rng.choice(names[4:]), ";".join(rng.sample(names[4:], rng.randint(1, 2)))
        slots[8].append((["order", "ext", "--src", src, "--tgt", tgt], None))
        k, c = rng.randint(600, 2000), rng.choice(cs)
        slots[9].append((["cohom", rng.choice(["dims", "h0"]), vec(scale(k, c))], scale(k, c)))
    return {s: v[:PER_SLOT] for s, v in slots.items()}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from dp2 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def deep_reference(argv: list[str], d) -> tuple[int, str, str]:
    from dp2.picard import DivClass, format_divisor

    k = workloads.dot(d, H)
    h1 = k * (k - 1) // 2
    if argv[1] == "h0":
        return 0, "1\n", ""
    return 0, f"h({format_divisor(DivClass(d))}) = (1, {h1}, 0), chi = {chi(d)}\n", ""


def independent_check(argv: list[str], d, code: int, stdout: str) -> None:
    """Cross-checks that do not go through dp2's cohomology code."""
    if argv[:2] == ["cohom", "dims"] and d is not None:
        head = stdout.splitlines()[0]
        dims = tuple(int(x) for x in head.split("= (")[1].split(")")[0].split(","))
        require(workloads.check_dims("any", d, dims) is None, (argv, stdout))
        require(head.endswith(f"chi = {chi(d)}"), (argv, stdout))
    if argv[:2] == ["cohom", "h0"] and d is not None and argv[2].endswith("H"):
        n = d[0] // 3
        require(stdout == f"{n * n + n + 1}\n", (argv, stdout))
    if argv[:2] == ["chern", "chi"] and d is not None:
        require(stdout == f"{chi(d)}\n", (argv, stdout))


# the README's examples, as suffixes of the expected stdout
README_VALUES = {
    ("cohom", "h0", "H"): "3\n",
    ("galois", "class", "C67-E5"): "] = 101000\n",
    ("cohom", "les", "0,1,?,0"): "solved: 0, 1, 1, 0\n",
    ("chern", "chi", "F-H"): "0\n",
    ("chern", "pairing", "--lhs", "2,F,1", "--rhs", "2,F,1"): "0\n",
}


def make_queries() -> list[dict]:
    pool = []
    for slot, queries in slot_queries(random.Random(POOL_SEED)).items():
        for argv, d in queries:
            if slot == workloads.QUERY_SLOTS - 1:
                code, stdout, stderr = deep_reference(argv, d)
            else:
                code, stdout, stderr = run_cli(argv)
                independent_check(argv, d, code, stdout)
            if tuple(argv) in README_VALUES:
                require(code == 0 and stdout.endswith(README_VALUES[tuple(argv)]), (argv, stdout))
            require(code in (0, 1, 2) and "Traceback" not in stderr, (argv, stderr))
            prefix = "" if not stderr else stderr.split(":")[0] + ":"
            pool.append({"slot": slot, "argv": argv, "exit": code, "stdout": stdout,
                         "stderr_prefix": prefix})
    return pool


def main() -> int:
    replay = subprocess.run([sys.executable, "-m", "dp2", *workloads.REPLAY_ARGV],
                            capture_output=True, text=True, check=True)
    require(replay.stdout.rstrip("\n").splitlines()[-1] == workloads.REPLAY_SUMMARY, "replay summary")
    (DATA / "replay_all.txt").write_text(replay.stdout)
    pool = make_queries()
    (DATA / "queries.json").write_text(json.dumps(pool, indent=1) + "\n")
    print(f"wrote {len(pool)} queries and the replay golden to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
