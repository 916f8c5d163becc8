"""Acceptance criteria, run at full scale with their time budgets.

Each criterion appends one PASS/FAIL line to the terminal summary (see
conftest.py).  A criterion fails if its suite reports any failure or its
budget is exceeded.  Scales and tolerances are fixed; do not shrink them to
make a red run green.
"""

import hashlib
import subprocess
import sys
import time

import costpcf.harness as hz
import costpcf.syntax as sx
from costpcf.cost import DEFAULT_MODEL
from costpcf.harness import (
    check_adequacy, check_laws, check_noninterference, check_sequencing_laws, check_soundness,
    gen_ni_arg_pairs, gen_ni_functions, gen_programs,
    gen_sequencing_instances, load_corpus, run_suite,
)
from test_machine import check_eval, walk_both
from test_typecheck import check_preservation


def _criterion(log, number, name, budget_s, fn):
    t0 = time.monotonic()
    try:
        detail = fn()
    except BaseException as e:
        elapsed = time.monotonic() - t0
        log.append(f"FAIL  criterion {number} ({name}): {e} [{elapsed:.1f}s]")
        raise
    elapsed = time.monotonic() - t0
    line = f"criterion {number} ({name}): {detail} [{elapsed:.1f}s / {budget_s:.0f}s budget]"
    if elapsed > budget_s:
        log.append("FAIL  " + line)
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.1f}s")
    log.append("PASS  " + line)


def _assert_clean(report):
    assert report.failures == (), \
        f"{report.name}: {len(report.failures)} failure(s); first: {report.failures[0].to_json()}"
    return report


def test_criterion_1_monad_and_algebra_laws(acceptance_log):
    def go():
        rep = _assert_clean(check_laws(seed=11, cases=1000, fuel=10_000))
        return f"{rep.cases} random delay/cost instances per law, 0 failures"
    _criterion(acceptance_log, 1, "monad and cost-algebra laws", 10, go)


def test_criterion_2_machine_metatheory(acceptance_log):
    def go():
        programs = gen_programs(12, 500, hz._GROUND_F, terminating_frac=0.6,
                                depth_range=(2, 8))
        for t, target in programs:
            walk_both(t, 25)
            check_preservation(t, target, 25)
            check_eval(t, 10_000)
        return (f"{len(programs)} generated programs (depth 2..8): determinism "
                "against the oracle, preservation, functionality, fuel monotonicity")
    _criterion(acceptance_log, 2, "machine metatheory", 30, go)


def test_criterion_3_sequencing_laws(acceptance_log):
    def go():
        instances = gen_sequencing_instances(13, 200, fuel=20_000)
        per_law = {}
        for inst in instances:
            per_law[inst.law] = per_law.get(inst.law, 0) + 1
        assert all(n >= 200 for n in per_law.values()), per_law
        rep = _assert_clean(check_sequencing_laws(instances, fuel=100_000))
        return f"{rep.cases} terminating instances across {len(per_law)} laws, 0 failures"
    _criterion(acceptance_log, 3, "sequencing laws", 60, go)


def test_criterion_4_soundness_on_corpus(acceptance_log):
    def go():
        corpus = load_corpus()
        assert len(corpus) == 25
        rep = _assert_clean(check_soundness(corpus, fuel=100_000))
        return ("per-transition and big-step agreement on the 25-program "
                "corpus at fuel 1e5, 0 failures")
    _criterion(acceptance_log, 4, "denotational soundness", 60, go)


def test_criterion_5_adequacy(acceptance_log):
    def go():
        programs = [(n, t) for n, t in load_corpus()
                    if hz._ground_f_type(t, DEFAULT_MODEL) == sx.F(sx.UNIT)]
        fuzz = gen_programs(15, 200, (sx.F(sx.UNIT),), terminating_frac=0.6,
                            depth_range=(2, 6))
        programs += [(f"fuzz[{i}]", t) for i, (t, _) in enumerate(fuzz)]
        rep = _assert_clean(check_adequacy(programs, fuel=100_000))
        return (f"profile vs denotation on {rep.cases} programs "
                f"(corpus subset + 200 fuzzed), 0 stabilized disagreements")
    _criterion(acceptance_log, 5, "cost-sensitive adequacy", 120, go)


def test_criterion_6_noninterference(acceptance_log):
    def go():
        functions = gen_ni_functions(16, 100)
        pairs = gen_ni_arg_pairs(17, 20, fuel=20_000)
        assert len(functions) == 100 and len(pairs) == 20
        rep = _assert_clean(check_noninterference(functions, pairs, fuel=100_000))
        return (f"{rep.cases} function/argument-pair cases incl. extensional "
                "reruns, 0 value disagreements")
    _criterion(acceptance_log, 6, "noninterference", 120, go)


def test_criterion_7_deterministic_reports(acceptance_log):
    def go():
        cmd = [sys.executable, "-m", "costpcf.cli", "check", "all", "--seed", "1"]
        r1 = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        r2 = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        assert r1.returncode == 0, r1.stdout + r1.stderr
        assert r2.returncode == 0
        assert r1.stdout == r2.stdout, "reports differ between runs"
        assert r1.stdout.count("\n") == len(hz.SUITES)
        assert hashlib.sha256(r1.stdout.encode()).hexdigest() == (
            "4d400e0595542ac5c22507fadf26ba72210d70a1b5e986b5e88075766bacc5df")
        return "two `check all --seed 1` runs byte-identical"
    _criterion(acceptance_log, 7, "report determinism", 300, go)
