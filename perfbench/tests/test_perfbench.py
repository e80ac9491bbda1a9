"""Tests of the benchmark itself:

    python3 -m pytest perfbench/tests -q

They run real passes against the checkout's pincover, so they take about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_injected_wrong_answer_counts_as_failed(monkeypatch):
    envelope = run.Child.envelope

    def corrupted(self):
        env = envelope(self)
        if "ops" in env:  # a families pass, not a set-up child
            env["ops"][0][2] = dict(env["ops"][0][2], b1_2=-1, count=-1, coker_pull_dim=-1,
                                    w2=-1)
        return env

    monkeypatch.setattr(run.Child, "envelope", corrupted)
    result = run.run_workload("families", seed=3, seconds=0.01, trace=False)
    assert len(result["passes"]) == 1
    assert run.counts(result) == {"attempted": 100, "failed": 1}


def test_injected_wrong_cli_output_fails_its_digest():
    argv = ["homology", "k2", "--format", "json"]
    child = run.Child([sys.executable, "-m", "pincover.cli"] + argv)
    payload = json.loads(child.stdout)
    digests = run._load_digests()
    assert digests[workloads.cli_key(argv)] == oracle.canonical_digest(payload)
    payload["results"]["b1_2"] += 2
    assert digests[workloads.cli_key(argv)] != oracle.canonical_digest(payload)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_run_prints_every_named_metric(trace, section):
    proc = _bench("--workload", "families", "--seed", "0", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:  # every metric, named ones too, is printed for a reader
        assert f" {name} " in proc.stdout


def test_all_reports_each_workloads_own_peak_rss():
    proc = _bench("--workload", "all", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    rss = {w: result["metrics"][f"{w}.peak_rss_mb"]["value"] for w in run.WORKLOADS}
    # verify's children are the largest; a peak shared across workloads would hide the others
    assert rss["families"] < rss["verify"] and rss["cli"] < rss["verify"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_follow_the_seed_and_do_not_repeat_within_a_run():
    assert workloads.family_pass(5, 0) == workloads.family_pass(5, 0)
    words = [tuple(map(tuple, s["word"])) for i in range(8) for s in workloads.family_pass(5, i)]
    assert len(set(words)) == len(words)
    a, b = workloads.CliDraw(5), workloads.CliDraw(5)
    assert [a.next_pass() for _ in range(3)] == [b.next_pass() for _ in range(3)]


def test_oracle_matches_the_classification_of_small_surfaces():
    assert oracle.check_homology("n2", 0, {"h0": [1, []], "h1": [1, [2]], "h2": [0, []],
                                           "b1_2": 2}) is None
    assert oracle.check_descend("n1", 0, "pin+", {"count": 0, "torsor_count": 0,
                                                  "exists": False, "consistent": True}) is None
    assert oracle.check_descend("n1", 0, "pin-", {"count": 0, "torsor_count": 0,
                                                  "exists": False, "consistent": True})
