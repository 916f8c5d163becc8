"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    result, detail = run.measure(name, 3, 0.2, 0, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["error_rate"] == 0.0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(detail["deep_probe"]) == set(workloads.DEEP_PROBES)
    if name == "battery":
        assert len(detail["stdout_sha256"]) == 1  # every pass printed the same


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(name):
    result, detail = run.measure(name, 3, 0.2, 1, size="tiny")
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert detail["spans_recorded"] > 0


def test_wrong_reference_answer_raises_error_rate(monkeypatch):
    monkeypatch.setattr(workloads, "ref_add", lambda m, n: (m, m + n + 1))
    result, detail = run.measure("scaled_eval", 3, 0.2, 0, size="tiny")
    assert detail["error_rate"] > 0
    assert not result["correct"] and result["failed"] > 0


def test_reference_answers_match_the_corpus_programs():
    # corpus/add.pcf is add 3 4; corpus/ackermann.pcf is A(2, 2).
    assert workloads.ref_add(3, 4) == (3, 7)
    assert workloads.ref_ackermann(2, 2) == (15, 7)
    assert workloads.ref_ackermann(3, 3)[1] == 61


def test_tracer_puts_every_attribute_back():
    pc = workloads.import_costpcf()
    mods = [pc.syntax, pc.typecheck, pc.machine, pc.denote, pc.harness, pc.cli]
    before = [dict(vars(m)) for m in mods]
    add, later = pc.cost.CostModel.add, pc.denote.Later
    tracer = Tracer()
    with tracer:
        assert pc.machine.sx.subst is not before[0]["subst"]
        t = pc.syntax.parse("(bind (ret zero) x (step 2 (ret x)))")
        assert pc.machine.run(t, 100, pc.cost.DEFAULT_MODEL)[0] == 2
    assert [dict(vars(m)) for m in mods] == before
    assert pc.cost.CostModel.add is add and pc.denote.Later is later
    assert tracer.calls("machine.run") == 1 and tracer.machine_steps == 2
    assert tracer.calls("syntax.subst") == 1


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "spans"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frontend", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
