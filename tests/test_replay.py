import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dp2 import galois, order, replay
from dp2.errors import InternalInconsistency, UnknownClaim
from dp2.galois import sigma
from dp2.picard import ZERO, L
from dp2.reporting import failures, render_json_lines, render_text

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def reports():
    return replay.run_all()


def test_all_claims_pass_except_the_flagged_one(reports):
    bad = [r for r in reports if not r.passed]
    assert [r.id for r in bad] == ["SIGMA.FORMULA-DISCREPANCY"]
    assert bad[0].known_discrepancy
    assert failures(reports) == []


def test_exactly_one_known_discrepancy(reports):
    flagged = [r for r in reports if r.known_discrepancy]
    assert [r.id for r in flagged] == ["SIGMA.FORMULA-DISCREPANCY"]
    assert flagged[0].computed["printed_square"] == -62


def test_ids_unique_and_stable(reports):
    ids = [r.id for r in reports]
    assert len(ids) == len(set(ids))
    assert ids == replay.all_claim_ids()
    for required in ["PIC.COUNT56", "GAL.H1", "CHI.ZERO", "EXTA1.IV", "L53",
                     "ORTH.I1", "SIGMA.FORMULA-DISCREPANCY"]:
        assert required in ids


def test_run_one():
    report = replay.run_one("CHI.ZERO")
    assert report.passed and report.expected == 0
    report = replay.run_one("L53")
    assert report.passed and report.expected == 1
    report = replay.run_one("GAL.H1")
    assert report.computed == [2, 2, 2, 2, 2, 2]
    with pytest.raises(UnknownClaim):
        replay.run_one("NOPE")


def test_filter_prefix():
    subset = replay.run_all(prefix="ORTH.")
    assert [r.id for r in subset] == ["ORTH.I0", "ORTH.I2", "ORTH.H1MH",
                                      "ORTH.EXT2HO", "ORTH.I1"]


CHAINS = {
    "replay_branch_points": ["RAM.SPLITS", "EXTA1.IV", "EXTA1.IV.B", "EXTA1.IV.C",
                             "EXTA2.ZERO", "EXT01.EQ", "KS.CASEII", "KS.SPLIT"],
    "replay_exceptional": ["ORD.EXC.HL", "ORD.EXC", "ORD.CANON"],
    "replay_orthogonality": ["ORTH.I0", "ORTH.I2", "ORTH.H1MH", "ORTH.EXT2HO", "L53", "ORTH.I1"],
}


def test_two_full_replays_run_each_chain_and_ramification_twice(monkeypatch):
    # an entry runs once per run_all, and nothing is kept between calls
    calls = []
    for name in [*CHAINS, "ramification"]:
        real = getattr(order, name)
        monkeypatch.setattr(order, name, lambda model, name=name, real=real:
                            calls.append(name) or real(model))
    first, second = replay.run_all(), replay.run_all()
    assert first == second
    assert sorted(calls) == sorted(2 * [*CHAINS, "ramification"])


@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("damage", ["drop", "reorder"])
def test_a_chain_that_misreports_its_ids_is_refused(monkeypatch, chain, damage):
    real = getattr(order, chain)

    def damaged(model):
        reports = real(model)
        return reports[1:] if damage == "drop" else reports[::-1]

    monkeypatch.setattr(order, chain, damaged)
    with pytest.raises(InternalInconsistency):
        replay.run_all()
    with pytest.raises(InternalInconsistency):
        replay.run_one(CHAINS[chain][-1])


# test_filter_prefix covers "ORTH.", which keeps five of its chain's six reports
@pytest.mark.parametrize("prefix, ids", [
    ("L5", ["L53"]),
    ("EXTA1.", ["EXTA1.IV", "EXTA1.IV.B", "EXTA1.IV.C"]),
    ("KS.", ["KS.CASEII", "KS.SPLIT"]),
    ("ORD.", ["ORD.MODEL", "ORD.EXC.HL", "ORD.EXC", "ORD.CANON"]),
])
def test_filter_keeps_only_the_matching_reports_of_a_chain(prefix, ids):
    assert [r.id for r in replay.run_all(prefix)] == ids


# every claim of the registry, chain or not: no value may depend on the claims run before it
@pytest.mark.parametrize("claim_id", replay.all_claim_ids())
def test_run_one_of_a_chain_claim_equals_its_full_replay_report(reports, claim_id):
    assert replay.run_one(claim_id) == {r.id: r for r in reports}[claim_id]


def test_output_is_deterministic(reports):
    again = replay.run_all()
    assert render_text(reports) == render_text(again)
    assert render_json_lines(reports) == render_json_lines(again)


def test_json_lines_schema(reports):
    for line in render_json_lines(reports).splitlines():
        payload = json.loads(line)
        assert set(payload) == {"id", "description", "expected", "computed",
                                "pass", "paper_ref", "known_discrepancy"}
        assert isinstance(payload["pass"], bool)


def test_render_text_summary(reports):
    text = render_text(reports)
    assert text.splitlines()[-1].startswith(f"{len(reports)} claims:")
    assert "FLAG SIGMA.FORMULA-DISCREPANCY" in text
    assert "0 failed" in text


def test_every_claim_cites_a_source_or_is_derived(reports):
    for r in reports:
        assert r.paper_ref == "derived" or len(r.paper_ref) > 10


def test_replay_runs_without_numpy():
    # the replay is pure Python; a heavy array import would cost every cold start
    script = ("import sys, dp2, dp2.cli\n"
              "code = dp2.cli.main(['replay', 'all'])\n"
              "print(sorted({'numpy', 'numba'} & set(sys.modules)), code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] 0"


def test_one_claim_without_the_model_skips_the_derivation():
    # CHI.OO needs no order model; the model builds are counted from before the
    # registry is imported, and CHI.FH, which reads the model, shows that the
    # count sees them
    script = ("from dp2 import order\n"
              "builds = []\n"
              "real = order.standard_model\n"
              "order.standard_model = lambda: builds.append(1) or real()\n"
              "from dp2 import replay\n"
              "assert replay.run_one('CHI.OO').passed\n"
              "print(len(builds))\n"
              "assert replay.run_one('CHI.FH').passed\n"
              "print(len(builds))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n1\n"


@pytest.mark.parametrize("flags, golden", [
    ([], ROOT / "perfbench" / "data" / "replay_all.txt"),
    (["--json"], ROOT / "tests" / "data" / "replay_all.jsonl"),
])
def test_replay_all_matches_frozen_output(flags, golden):
    # a cold `dp2 replay all` must reproduce the frozen text and JSON byte for byte,
    # whatever the hash seed, so no output order may follow set or dict hashing
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "dp2", "replay", "all", *flags],
                              capture_output=True, cwd=ROOT, timeout=120,
                              env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == golden.read_bytes(), f"PYTHONHASHSEED={seed}"


def _failing_differences(curves):
    # direct route: apply 1 + sigma to every ordered difference
    return [(a, b) for a, b in itertools.product(curves, repeat=2)
            if sigma(a - b) + (a - b) != ZERO]


def test_cocycle_claim_agrees_with_every_pair():
    curves = replay.enumerate_exceptional()
    assert len(curves) == 56
    assert _failing_differences(curves) == []
    assert replay.run_one("GAL.EE.COCYCLE").computed is True


def test_cocycle_claim_fails_when_a_non_curve_joins(monkeypatch):
    curves = replay.enumerate_exceptional() + [L]
    monkeypatch.setattr(replay, "enumerate_exceptional", lambda: curves)
    report = replay.run_one("GAL.EE.COCYCLE")
    assert report.computed is False and not report.passed
    assert _failing_differences(curves)


def test_cocycle_claim_computes_no_classes(monkeypatch):
    # the claim decides ker(1 + sigma) membership only; no e-basis coordinates
    calls = []

    def counting(d, real=galois.class_of):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(galois, "class_of", counting)
    monkeypatch.setattr(replay, "class_of", counting)
    assert replay.run_one("GAL.EE.COCYCLE").computed is True
    assert calls == []


def test_e1e3_claim_fails_for_a_non_curve_partner(monkeypatch):
    real = galois.represent_as_difference

    def with_fake_partner(bits):
        e, _ = real(bits)
        return e, L

    monkeypatch.setattr(galois, "represent_as_difference", with_fake_partner)
    report = replay.run_one("GAL.REPR.E1E3")
    assert report.computed["pair_is_exceptional"] is False
    assert not report.passed
