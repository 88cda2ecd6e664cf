"""Seeded inputs and answer checks for the four benchmark workloads.

Everything here is the benchmark's own arithmetic on the rank-8 lattice
(L, E1..E7) with the form diag(1, -1, ..., -1); none of it calls dp2, so the
checks do not only trust the code under test.

Inputs come in rounds of fixed composition.  A run measures whole rounds, so
the share of ops of each kind (and with it the share of ops that hit the
known recursion defect) is the same on every run and every seed.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

RANK = 8
H = (3, -1, -1, -1, -1, -1, -1, -1)

# h0-corpus round composition: (category, count)
H0_ROUND = (("small", 480), ("medium", 480), ("nef", 16), ("mixed", 12), ("deep", 12))
QUERY_SLOTS = 10  # one query per slot in every query-cold round


# ---------------------------------------------------------------------------
# the lattice, independently of dp2
# ---------------------------------------------------------------------------


def dot(a, b) -> int:
    return a[0] * b[0] - sum(a[i] * b[i] for i in range(1, RANK))


def add(a, b, k: int = 1):
    return tuple(x + k * y for x, y in zip(a, b))


def scale(k: int, a):
    return tuple(k * x for x in a)


def chi(d) -> int:
    """Riemann-Roch with canonical class -H: chi(D) = D.(D + H)/2 + 1."""
    num = dot(d, add(d, H))
    if num % 2:
        raise ValueError(f"D.(D+H) is odd for {d}")
    return num // 2 + 1


def _unit(i: int):
    return tuple(1 if j == i else 0 for j in range(RANK))


def curves() -> list[tuple[int, ...]]:
    """The 56 classes with D.D = -1 and D.H = 1: E_i, L_ij, C_ij, D_i."""
    out = [_unit(i) for i in range(1, 8)]
    for i, j in itertools.combinations(range(1, 8), 2):
        out.append(tuple([1] + [-1 if k in (i, j) else 0 for k in range(1, 8)]))
    for i, j in itertools.combinations(range(1, 8), 2):
        out.append(tuple([2] + [0 if k in (i, j) else -1 for k in range(1, 8)]))
    for i in range(1, 8):
        out.append(tuple([3] + [-2 if k == i else -1 for k in range(1, 8)]))
    return out


def simple_roots() -> list[tuple[int, ...]]:
    """E_i - E_{i+1} for i = 1..6 and the Cremona root L - E1 - E2 - E3."""
    roots = [add(_unit(i), _unit(i + 1), -1) for i in range(1, 7)]
    roots.append((1, -1, -1, -1, 0, 0, 0, 0))
    return roots


def reflect(d, alpha):
    """s(D) = D + (D.alpha) alpha, for a root with alpha.alpha = -2."""
    return add(d, alpha, dot(d, alpha))


def disjoint_gauges() -> list[tuple[int, int]]:
    """All ordered pairs (i, j) of disjoint exceptional curves: 56 * 27 = 1512."""
    cs = curves()
    return [(i, j) for i in range(len(cs)) for j in range(len(cs))
            if i != j and dot(cs[i], cs[j]) == 0]


# ---------------------------------------------------------------------------
# h0-corpus
# ---------------------------------------------------------------------------


def _rng(seed: int, index: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{index}")


def h0_round(seed: int, index: int) -> list[tuple[str, tuple[int, ...]]]:
    """One round of classes for cohom_dims, as (category, coordinates).

    small/medium: random coordinates with |c| <= 5 / 20;
    nef: n*H with n up to 2000 (closed form h0 = n^2 + n + 1);
    mixed: a*H - b*E_i like 300H - 250E3, peel chains of 100..350 curves;
    deep: k*C for a (-1)-curve C and 600 <= k <= 2000, whose peel chains are
    longer than the interpreter's recursion limit allows at this commit.
    """
    rng = _rng(seed, index, "h0")
    cs = curves()
    items = []
    for category, count in H0_ROUND:
        for _ in range(count):
            if category == "small":
                d = tuple(rng.randint(-5, 5) for _ in range(RANK))
            elif category == "medium":
                d = tuple(rng.randint(-20, 20) for _ in range(RANK))
            elif category == "nef":
                d = scale(rng.randint(1, 2000), H)
            elif category == "mixed":
                a = rng.randint(360, 600)
                b = (a + rng.randint(100, 350)) // 2
                d = add(scale(a, H), _unit(rng.randint(1, 7)), -b)
            else:
                d = scale(rng.randint(600, 2000), rng.choice(cs))
            items.append((category, d))
    rng.shuffle(items)
    return items


def check_dims(category: str, d, dims) -> str | None:
    """None if (h0, h1, h2) of D passes the independent checks, else the reason."""
    h0, h1, h2 = dims
    if min(dims) < 0:
        return f"negative dimension {dims} for {d}"
    if h0 - h1 + h2 != chi(d):
        return f"h0 - h1 + h2 = {h0 - h1 + h2} but chi = {chi(d)} for {d}"
    if category == "nef":
        n = d[0] // 3
        if dims != (n * n + n + 1, 0, 0):
            return f"h({n}H) = {dims}, expected ({n * n + n + 1}, 0, 0)"
    if category == "deep":
        k = dot(d, H)  # D = k*C with C.H = 1
        if dims != (1, k * (k - 1) // 2, 0):
            return f"h({k}C) = {dims}, expected (1, {k * (k - 1) // 2}, 0)"
    return None


# ---------------------------------------------------------------------------
# query-cold
# ---------------------------------------------------------------------------


def load_queries() -> list[dict]:
    """The query pool: argv, expected exit status, stdout and stderr prefix."""
    return json.loads((DATA / "queries.json").read_text())


def query_round(seed: int, index: int, pool: list[dict]) -> list[dict]:
    """One query per slot, drawn from that slot's part of the pool, in seeded order."""
    rng = _rng(seed, index, "query")
    by_slot: dict[int, list[dict]] = {}
    for entry in pool:
        by_slot.setdefault(entry["slot"], []).append(entry)
    picked = [rng.choice(by_slot[slot]) for slot in sorted(by_slot)]
    rng.shuffle(picked)
    return picked


def check_query(entry: dict, code: int, stdout: str, stderr: str) -> str | None:
    """None if a CLI run matches its reference entry, else the reason."""
    if code != entry["exit"]:
        return f"exit {code}, expected {entry['exit']}"
    if stdout != entry["stdout"]:
        return f"stdout {stdout!r}, expected {entry['stdout']!r}"
    prefix = entry["stderr_prefix"]
    if (prefix and not stderr.startswith(prefix)) or (not prefix and stderr):
        return f"stderr {stderr!r}, expected prefix {prefix!r}"
    return None


# ---------------------------------------------------------------------------
# replay-cold and gauge-sweep
# ---------------------------------------------------------------------------

REPLAY_ARGV = ["replay", "all"]
REPLAY_SUMMARY = "80 claims: 79 passed, 0 failed, 1 flagged known-discrepancy"


def replay_golden() -> str:
    return (DATA / "replay_all.txt").read_text()


def check_replay(code: int, stdout: str, stderr: str, golden: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    if stdout != golden:
        return "stdout differs from the golden replay"
    if stdout.rstrip("\n").splitlines()[-1] != REPLAY_SUMMARY:
        return "summary line differs"
    if stderr:
        return f"unexpected stderr {stderr[:200]!r}"
    return None


GAUGE_REPORT_IDS = ("ORD.EXC.HL", "ORD.EXC", "ORD.CANON", "ORTH.I0", "ORTH.I2",
                    "ORTH.H1MH", "ORTH.EXT2HO", "L53", "ORTH.I1")


def gauge_round(seed: int, index: int) -> list[tuple[int, int]]:
    """All 1512 disjoint gauges in a seeded order."""
    gauges = disjoint_gauges()
    _rng(seed, index, "gauge").shuffle(gauges)
    return gauges


def check_gauge(e, eprime, answer) -> str | None:
    """answer: (report ids, all passed, chi of E - E' as the order computed it)."""
    ids, passed, chi_l = answer
    if tuple(ids) != GAUGE_REPORT_IDS:
        return f"report ids {ids}"
    if not passed:
        return "a report failed"
    if chi_l != chi(add(e, eprime, -1)):
        return f"chi(E - E') = {chi_l}, expected {chi(add(e, eprime, -1))}"
    return None
