"""Harness: generator, corpus, suites, failure reports.

The generator's oracle is the typechecker run in checking mode: every output
must inhabit its target type.  Suite runs here are smoke-scale; the full
acceptance-scale runs live in test_acceptance.py.
"""

import json
import random

import pytest

import costpcf.harness as hz
import costpcf.machine as mc
import costpcf.syntax as sx
from costpcf.cost import DEFAULT_MODEL, Phase, vector_monoid, CostModel
from costpcf.harness import (
    CheckReport, Failure, GenConfig, SUITES, check_adequacy, check_laws,
    check_noninterference, check_sequencing_laws, check_soundness,
    gen_ni_arg_pairs, gen_ni_functions, gen_programs,
    gen_sequencing_instances, gen_term, load_corpus, run_suite,
)
from costpcf.syntax import ANS, F, NAT, UNIT, Arrow, Ret, U
from costpcf.typecheck import Computation, infer

TARGETS = (
    F(UNIT), F(NAT), F(ANS),
    Arrow(NAT, F(NAT)),
    Arrow(U(F(UNIT)), F(ANS)),
)


def test_gen_depth_zero_base_cases():
    assert gen_term(GenConfig(seed=0, max_depth=0, target=F(NAT))) == Ret(sx.ZERO)
    assert gen_term(GenConfig(seed=0, max_depth=0, target=F(UNIT))) == Ret(sx.TRIV)


def test_gen_is_deterministic():
    cfg = GenConfig(seed=123456, max_depth=5, target=F(NAT))
    assert gen_term(cfg) == gen_term(cfg)
    cfg2 = GenConfig(seed=123457, max_depth=5, target=F(NAT))
    assert gen_term(cfg) != gen_term(cfg2)  # astronomically unlikely otherwise


def test_gen_inhabits_target_over_ten_thousand_seeds():
    rng = random.Random(4096)
    for i in range(10_000):
        target = TARGETS[i % len(TARGETS)]
        cfg = GenConfig(
            seed=rng.randrange(2**62),
            max_depth=rng.randint(0, 6),
            target=target,
            fix_probability=rng.choice((0.0, 0.25, 0.6)),
            terminating=bool(i % 2),
        )
        t = gen_term(cfg)
        j = infer((), t, expected=target)
        assert j.classification == Computation(target)


def test_gen_respects_vector_monoid():
    vec = vector_monoid(2)
    rng = random.Random(7)
    for _ in range(200):
        cfg = GenConfig(seed=rng.randrange(2**62), max_depth=5,
                        target=F(UNIT), monoid=vec, terminating=True)
        t = gen_term(cfg)
        assert infer((), t, expected=F(UNIT), monoid=vec).classification \
            == Computation(F(UNIT))


def test_terminating_mode_terminates():
    """Structural countdown recursion: every program settles."""
    programs = gen_programs(31337, 300, (F(UNIT), F(NAT), F(ANS)),
                            terminating_frac=1.0)
    for t, _ in programs:
        assert mc.run(t, 50_000) is not None, sx.print_term(t)


def test_nonterminating_mode_produces_some_divergence():
    programs = gen_programs(420, 150, (F(UNIT),), terminating_frac=0.0,
                            fix_probability=0.6)
    diverged = sum(1 for t, _ in programs if mc.run(t, 3000) is None)
    assert diverged >= 10  # plenty of genuine loops in the stream


def test_gen_programs_deterministic_batch():
    a = gen_programs(99, 40, (F(UNIT),), terminating_frac=0.5)
    b = gen_programs(99, 40, (F(UNIT),), terminating_frac=0.5)
    assert a == b


# ---------------------------------------------------------------------------
# Corpus

def test_corpus_loads_sorted_and_welltyped():
    corpus = load_corpus()
    names = [n for n, _ in corpus]
    assert len(corpus) == 25
    assert names == sorted(names)
    assert all(n.endswith(".pcf") for n in names)
    for name, t in corpus:
        infer((), t)  # no corpus program is ambiguous or ill-typed


def test_corpus_covers_every_constructor():
    seen = set()
    def visit(t):
        seen.add(type(t).__name__)
        for f in getattr(t, "__dataclass_fields__", ()):
            v = getattr(t, f)
            if hasattr(v, "__dataclass_fields__"):
                visit(v)
    for _, t in load_corpus():
        visit(t)
    assert {"Var", "Zero", "Succ", "Triv", "Yes", "No", "Ret", "Step",
            "Bind", "Ifz", "Fix", "Lam", "Ap"} <= seen


# ---------------------------------------------------------------------------
# Suites at smoke scale

def test_laws_suite_smoke():
    rep = check_laws(seed=5, cases=60, fuel=4000)
    assert rep.name == "laws"
    assert rep.cases == 60
    assert rep.failures == ()


def test_soundness_suite_smoke():
    rep = check_soundness(load_corpus(), fuel=100_000,
                          divergent_observe_fuel=20_000)
    assert rep.failures == ()
    assert rep.cases == 25


def test_adequacy_suite_smoke():
    programs = [(n, t) for n, t in load_corpus()
                if hz._is_unit_program(t, DEFAULT_MODEL)]
    assert len(programs) >= 10
    rep = check_adequacy(programs, fuel=100_000)
    assert rep.failures == ()


def test_sequencing_suite_smoke():
    instances = gen_sequencing_instances(17, 25, 20_000)
    by_law = {}
    for inst in instances:
        by_law.setdefault(inst.law, []).append(inst)
    assert set(by_law) == {"eval-seq", "prof-seq", "prof-assoc", "comm-app-seq"}
    assert all(len(v) == 25 for v in by_law.values())
    rep = check_sequencing_laws(instances, fuel=100_000)
    assert rep.failures == ()


def test_noninterference_suite_smoke():
    fns = gen_ni_functions(21, 10)
    pairs = gen_ni_arg_pairs(22, 8, fuel=20_000)
    assert len(fns) == 10 and len(pairs) == 8
    for f in fns:
        assert infer((), f).classification == Computation(Arrow(U(F(UNIT)), F(ANS)))
    for x, y in pairs:
        assert isinstance(mc.profile(x, 20_000), mc.Defined)
        assert isinstance(mc.profile(y, 20_000), mc.Defined)
    rep = check_noninterference(fns, pairs, fuel=20_000)
    assert rep.cases == 80
    assert rep.failures == ()


def test_run_suite_dispatch_and_determinism():
    for name in SUITES:
        reports = run_suite(name, seed=9, fuel=50_000, cases=12)
        assert len(reports) == 1 and reports[0].failures == ()
    a = [r.to_json() for r in run_suite("laws", seed=3, fuel=5000, cases=30)]
    b = [r.to_json() for r in run_suite("laws", seed=3, fuel=5000, cases=30)]
    assert a == b
    with pytest.raises(ValueError):
        run_suite("nonsense", seed=0, fuel=100)


def test_run_suite_all_covers_every_suite():
    reports = run_suite("all", seed=2, fuel=30_000, cases=8)
    assert [r.name for r in reports] == list(SUITES)
    assert all(r.failures == () for r in reports)


def test_report_json_shape():
    rep = CheckReport("laws", 3, (Failure("case", ("(ret triv)",), "boom", 7),))
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["check"] == "laws"
    assert blob["cases"] == 3
    assert len(blob["failures"]) == 1
    f = blob["failures"][0]
    assert set(f) == {"case", "terms", "detail", "fuel"}
    assert f["case"] == "case"
    assert f["terms"] == ["(ret triv)"]
    assert f["detail"] == "boom"
    assert f["fuel"] == 7


def test_soundness_runs_under_vector_monoid():
    vec = CostModel(monoid=vector_monoid(2))
    programs = gen_programs(55, 25, (F(UNIT), F(ANS)), terminating_frac=0.8,
                            monoid=vec.monoid)
    rep = check_soundness([(f"g{i}", t) for i, (t, _) in enumerate(programs)],
                          fuel=20_000, model=vec)
    assert rep.failures == ()


def _countdown3():
    return [(n, t) for n, t in load_corpus() if n == "countdown3.pcf"]


def test_soundness_reports_a_per_step_fault(monkeypatch):
    """Sharing each observation between two transitions still catches a
    single transition whose cost is off by one."""
    real_out = mc.out
    seen = []

    def out_off_by_one_once(e, model=DEFAULT_MODEL):
        r = real_out(e, model)
        if isinstance(r, mc.Next):
            seen.append(e)
            if len(seen) == 2:
                return mc.Next(model.add(r.cost, 1), r.term)
        return r

    monkeypatch.setattr(mc, "out", out_off_by_one_once)
    rep = check_soundness(_countdown3(), fuel=10_000)
    assert [f.case for f in rep.failures] == ["per-step:countdown3.pcf"]
    assert rep.failures[0].detail.startswith("transition 1: costs differ")
    assert rep.failures[0].terms[1] == sx.print_term(seen[1])


def test_soundness_reports_a_wrong_machine_total(monkeypatch):
    real_run = mc.run

    def run_overcharging(e, fuel, model=DEFAULT_MODEL):
        total, terminal, used = real_run(e, fuel, model)
        return model.add(total, 1), terminal, used

    monkeypatch.setattr(mc, "run", run_overcharging)
    rep = check_soundness(_countdown3(), fuel=10_000)
    assert [f.case for f in rep.failures] == ["big-step:countdown3.pcf"]
    assert rep.failures[0].detail == "cost 3 != machine 4"


@pytest.mark.parametrize("model", [
    CostModel(monoid=vector_monoid(2)),
    DEFAULT_MODEL.with_phase(Phase.EXTENSIONAL),
], ids=["vec:2", "ext"])
def test_every_suite_passes_under_vector_monoid_and_extensional_phase(model):
    reports = run_suite("all", seed=4, fuel=5000, model=model, cases=6)
    assert [r.name for r in reports] == list(SUITES)
    assert all(r.failures == () for r in reports)
