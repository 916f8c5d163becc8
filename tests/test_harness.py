"""Harness: generator, corpus, suites, failure reports.

The generator's oracle is the typechecker run in checking mode: every output
must inhabit its target type.  Suite runs here are smoke-scale; the full
acceptance-scale runs live in test_acceptance.py.
"""

import hashlib
import json
import random

import pytest

import costpcf.denote as dn
import costpcf.harness as hz
import costpcf.machine as mc
import costpcf.syntax as sx
from costpcf.cli import DEFAULT_FUEL
from costpcf.cost import DEFAULT_MODEL, STAR, Phase, vector_monoid, CostModel
from costpcf.harness import (
    CheckReport, Failure, GenConfig, SUITES, adequacy_verdict, agreement,
    check_adequacy, check_laws, check_noninterference, check_sequencing_laws,
    check_soundness, gen_ni_arg_pairs, gen_ni_functions, gen_programs,
    gen_sequencing_instances, gen_term, load_corpus, run_suite,
)
from costpcf.outcome import DIVERGES, EXHAUSTED, Defined
from costpcf.syntax import ANS, F, NAT, UNIT, Arrow, Ret, U
from costpcf.typecheck import Computation, TypeCheckError, check_program, infer

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


def battery_digest(monkeypatch, seed):
    """sha256 over the printed terms `check all --seed <seed> --cases 100
    --fuel 5000` generates for its suites, in order, with the law name of
    each sequencing instance; the suites themselves are not run."""
    h = hashlib.sha256()

    def feed(label, terms):
        h.update(" ".join((label,) + tuple(sx.print_term(t) for t in terms)).encode() + b"\n")

    def programs(progs, *_):
        for label, t in progs:
            feed(label, (t,))

    def instances(insts, *_):
        for inst in insts:
            feed(inst.law, inst.parts)

    def ni(functions, pairs, *_):
        for f in functions:
            feed("fn", (f,))
        for x, y in pairs:
            feed("pair", (x, y))

    def spy(name, record):
        def check(*args):
            record(*args)
            return CheckReport(name, 0, ())
        return check

    monkeypatch.setattr(hz, "check_laws", spy("laws", lambda *_: None))
    monkeypatch.setattr(hz, "check_soundness", spy("soundness", programs))
    monkeypatch.setattr(hz, "check_adequacy", spy("adequacy", programs))
    monkeypatch.setattr(hz, "check_sequencing_laws", spy("sequencing", instances))
    monkeypatch.setattr(hz, "check_noninterference", spy("noninterference", ni))
    run_suite("all", seed, 5000, DEFAULT_MODEL, cases=100)
    return h.hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (1, "60d47d32fb17f02acff711af0f45c26c8d9c44699523b5493710f8a8a5c5bf40"),
    (47, "47914e2a33f81858f3dd4471adc8ccccb3ff6d6a2dd4d3ed1308fe45ec2746f3"),
])
def test_battery_generators_produce_pinned_terms(monkeypatch, seed, digest):
    """Every program, sequencing instance, function and argument pair the
    battery generates is pinned: a change to any rng draw shows here even
    when the suites' reports, which print only counts, stay the same."""
    assert battery_digest(monkeypatch, seed) == digest


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
    rep = check_soundness(load_corpus(), fuel=100_000)
    assert rep.failures == ()
    assert rep.cases == 25


def first_accepted_ground_f_type(t, model):
    """The reference rule: the first of F unit, F nat and F ans that
    `check_program` accepts, or None."""
    for ft in (F(UNIT), F(NAT), F(ANS)):
        try:
            check_program(t, ft, monoid=model.monoid)
            return ft
        except TypeCheckError:
            continue
    return None


# Programs whose type inference leaves open, or that fail a ground check.
OPEN_PROGRAMS = (
    "(fix x x)", "(fix x (step 1 x))", "(bind (fix x x) y (ret y))",
    "(bind (fix x x) y (ret triv))", "(bind (fix x x) y (ifz y (ret yes) p (ret no)))",
    "(ap (fix x x) 3)", "(fix f (lam nat n (ap f n)))", "(lam nat n (fix x x))",
    "(ret (fix x x))", "3", "yes", "(ap (ret triv) 3)",
)


def test_ground_f_type_is_the_first_ground_type_that_checks():
    vec2 = CostModel(vector_monoid(2))
    programs = [t for _, t in load_corpus()]
    programs += [sx.parse(src) for src in OPEN_PROGRAMS]
    programs += [sx.parse(src, vec2.monoid) for src in ("(step [1,2] (ret triv))",
                                                         "(step [0,3] (fix x x))")]
    for frac in (0.0, 1.0):
        for monoid in (DEFAULT_MODEL.monoid, vec2.monoid):
            programs += [t for t, _ in gen_programs(3, 150, hz._GROUND_F, terminating_frac=frac,
                                                    monoid=monoid, depth_range=(2, 5))]
    seen = set()
    for t in programs:
        for model in (DEFAULT_MODEL, vec2):
            want = first_accepted_ground_f_type(t, model)
            assert hz._ground_f_type(t, model) == want, sx.print_term(t)
            seen.add(want)
    assert seen == {F(UNIT), F(NAT), F(ANS), None}


def test_adequacy_suite_smoke():
    programs = [(n, t) for n, t in load_corpus()
                if hz._ground_f_type(t, DEFAULT_MODEL) == F(UNIT)]
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


def test_noninterference_sees_an_unsealed_extensional_cost(monkeypatch):
    """An `add` that seals only STAR operands leaves Extensional costs raw.
    The Extensional `eq` still equates every cost, so the answers agree and
    only the seal check can report it."""
    def leaky_add(self, a, b):
        return STAR if a is STAR or b is STAR else self.monoid.add(a, b)

    monkeypatch.setattr(CostModel, "add", leaky_add)
    rep = check_noninterference(gen_ni_functions(21, 10), gen_ni_arg_pairs(22, 8, fuel=20_000),
                                fuel=20_000)
    assert rep.failures
    assert {f.detail for f in rep.failures} == {"extensional cost failed to seal"}


def test_run_suite_dispatch_and_determinism():
    for name in SUITES:
        reports = run_suite(name, seed=9, fuel=50_000, cases=12)
        assert len(reports) == 1 and reports[0].failures == ()
    a = [r.to_json() for r in run_suite("laws", seed=3, fuel=5000, cases=30)]
    b = [r.to_json() for r in run_suite("laws", seed=3, fuel=5000, cases=30)]
    assert a == b
    with pytest.raises(ValueError):
        run_suite("nonsense", seed=0, fuel=100)


def test_each_suite_answers_the_same_alone_and_after_all(monkeypatch):
    """Each named suite's machine runs share one memo, which starts empty,
    so neither its reports nor any machine answer in it (the step at which
    a repeat is proved included) depend on what ran before it."""
    answers = []
    real = mc.settle

    def settle(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(mc, "settle", settle)

    def alone():
        runs = {}
        for name in SUITES:
            answers.clear()
            reports = [r.to_json() for r in run_suite(name, 1, 5000, cases=100)]
            runs[name] = (reports, list(answers))
        return runs

    first = alone()
    assert sum(len(a) for _, a in first.values()) > 5000
    run_suite("all", 1, 5000, cases=100)
    assert alone() == first


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
    real_trace = mc.trace
    traces = []

    def trace_off_by_one_once(e, fuel, model=DEFAULT_MODEL, terms=True):
        tr = real_trace(e, fuel, model, terms)
        traces.append(tr)
        (first, (cost, term), *rest) = tr.steps
        return mc.Trace((first, (model.add(cost, 1), term), *rest), tr.total, tr.truncated)

    monkeypatch.setattr(mc, "trace", trace_off_by_one_once)
    rep = check_soundness(_countdown3(), fuel=10_000)
    assert [f.case for f in rep.failures] == ["per-step:countdown3.pcf"]
    assert rep.failures[0].detail.startswith("transition 1: costs differ")
    assert rep.failures[0].terms[1] == sx.print_term(traces[0].steps[0][1])


def test_soundness_reads_one_trace_per_checked_program(monkeypatch):
    """Every transition soundness checks comes from one `trace` of its
    program; no transition is recomputed one `out` call at a time."""
    calls = {"trace": 0, "out": 0}

    def counting(name):
        real = getattr(mc, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(mc, name, spy)

    counting("trace")
    counting("out")
    corpus = load_corpus()
    rep = check_soundness(corpus, fuel=10_000)
    assert rep.failures == ()
    # The corpus's three arrow-typed programs are skipped.
    assert (len(corpus), calls) == (25, {"trace": 22, "out": 0})


def test_soundness_reports_a_wrong_machine_total(monkeypatch):
    real_settle = mc.settle

    def settle_overcharging(e, fuel, model=DEFAULT_MODEL):
        outcome, used = real_settle(e, fuel, model)
        return Defined(model.add(outcome.cost, 1), outcome.value), used

    monkeypatch.setattr(mc, "settle", settle_overcharging)
    rep = check_soundness(_countdown3(), fuel=10_000)
    assert [f.case for f in rep.failures] == ["big-step:countdown3.pcf"]
    assert rep.failures[0].detail == "costs differ: 3 vs 4"  # denotation vs machine


SEQUENCING_LEFT_SIDES = {
    "eval-seq": lambda e, g: sx.Bind(e, g),
    "prof-seq": lambda e, g: sx.Bind(e, g),
    "prof-assoc": lambda e, g, i: sx.Bind(sx.Bind(e, g), i),
    "comm-app-seq": lambda e, g, w: sx.Ap(sx.Bind(e, g), w),
}


@pytest.mark.parametrize("fault", ["overcharge", "exhaust"])
@pytest.mark.parametrize("law", list(SEQUENCING_LEFT_SIDES))
def test_sequencing_reports_a_faulty_left_side(monkeypatch, law, fault):
    """A machine that overcharges, or never settles, the left side of one
    law fails exactly that law's cases."""
    instances = gen_sequencing_instances(17, 3, 20_000)
    left = {SEQUENCING_LEFT_SIDES[inst.law](*inst.parts)
            for inst in instances if inst.law == law}
    real_settle = mc.settle

    def faulty_settle(e, fuel, model=DEFAULT_MODEL):
        outcome, used = real_settle(e, fuel, model)
        if e not in left:
            return outcome, used
        if fault == "exhaust":
            return EXHAUSTED, fuel
        return Defined(model.add(outcome.cost, 1), outcome.value), used

    monkeypatch.setattr(mc, "settle", faulty_settle)
    rep = check_sequencing_laws(instances, fuel=100_000)
    expected = [f"{law}[{idx}]" for idx, inst in enumerate(instances) if inst.law == law]
    assert len(expected) == 3
    assert [f.case for f in rep.failures] == expected
    assert all(f.detail.startswith("sides settle to") for f in rep.failures)


def test_sequencing_fails_a_law_whose_sides_both_do_not_settle(monkeypatch):
    """Two sides that agree in not settling are no instance of the law."""
    instances = gen_sequencing_instances(17, 2, 20_000)
    monkeypatch.setattr(mc, "settle", lambda e, fuel, model=DEFAULT_MODEL: (EXHAUSTED, fuel))
    rep = check_sequencing_laws(instances, fuel=100_000)
    cases = [f"{inst.law}[{idx}]" for idx, inst in enumerate(instances)]
    assert [f.case for f in rep.failures] == cases
    assert rep.failures[0].detail == "sides settle to Exhausted and Exhausted"


# ---------------------------------------------------------------------------
# The one agreement rule

ONE = Defined(1, dn.TRIV)


@pytest.mark.parametrize("o1, o2, retry, agree", [
    pytest.param(ONE, ONE, None, True, id="defined-equal"),
    pytest.param(ONE, Defined(2, dn.TRIV), None, False, id="defined-costs-differ"),
    pytest.param(ONE, Defined(1, dn.V_YES), None, False, id="defined-values-differ"),
    pytest.param(ONE, DIVERGES, None, False, id="defined-diverges"),
    pytest.param(DIVERGES, ONE, None, False, id="diverges-defined"),
    pytest.param(ONE, EXHAUSTED, 2, True, id="defined-exhausted"),
    pytest.param(EXHAUSTED, ONE, 1, True, id="exhausted-defined"),
    pytest.param(DIVERGES, DIVERGES, None, True, id="diverges-diverges"),
    pytest.param(DIVERGES, EXHAUSTED, None, True, id="diverges-exhausted"),
    pytest.param(EXHAUSTED, DIVERGES, None, True, id="exhausted-diverges"),
    pytest.param(EXHAUSTED, EXHAUSTED, None, True, id="exhausted-exhausted"),
])
def test_agreement_rule(o1, o2, retry, agree):
    """Each cell of the rule.  Only an Exhausted side facing a Defined one is
    observed again, once, at 4x fuel; here it then settles as the other."""
    again = []

    def observer(side):
        def observe(fuel):
            again.append((side, fuel))
            return ONE
        return observe

    why, _, _ = agreement(o1, o2, observer(1), observer(2), 100, DEFAULT_MODEL)
    assert again == ([] if retry is None else [(retry, 400)])
    assert (why is None) == agree


@pytest.mark.parametrize("terminal, value, why", [
    ("triv", dn.TRIV, None), ("yes", dn.V_YES, None), ("no", dn.V_NO, None),
    ("0", dn.VNum(0), None), ("7", dn.VNum(7), None),
    ("yes", dn.V_NO, "values differ: 'yes' vs 'no'"), ("6", dn.VNum(7), "values differ: 6 vs 7"),
    ("(ret 3)", dn.VThunk(dn.denote_closed(sx.parse("(ret 3)"))), None),
])
def test_disagreement_reads_each_answer_as_ground_data(terminal, value, why):
    """Each semantics reads its own answer; thunks compare on cost only."""
    o1, o2 = Defined(3, Ret(sx.parse(terminal))), Defined(3, value)
    assert hz.disagreement(o1, o2, DEFAULT_MODEL) == why


def test_soundness_catches_a_denotation_that_misreads_numerals(monkeypatch):
    """Denoted numerals that saturate at 6 fail add.pcf, 3 + 4 on the machine.
    The mutant wraps the compiler of value positions, where numerals are
    compiled; the suite parses its programs afresh, so every node it denotes
    is compiled under the mutant."""
    real = dn._value_code

    def saturating(t):
        code = real(t)

        def saturated(env, model):
            v = code(env, model)
            return dn.VNum(min(v.n, 6)) if isinstance(v, dn.VNum) else v
        return saturated

    monkeypatch.setattr(dn, "_value_code", saturating)
    (rep,) = run_suite("soundness", 1, 5000)
    assert {f.case: f.detail for f in rep.failures}["big-step:add.pcf"] == "values differ: 6 vs 7"


def test_agreement_reports_a_retry_that_still_does_not_settle():
    why, o1, _ = agreement(EXHAUSTED, ONE, lambda f: DIVERGES, None, 100, DEFAULT_MODEL)
    assert o1 is DIVERGES
    assert why == "definedness differs: Diverges vs Defined(cost=1, value=VTriv)"


def spy_on_both_semantics(monkeypatch, outcome, below):
    """Record the fuel of every machine run and denotation observation; the
    machine answers `outcome` at any fuel below `below`."""
    calls = {"settle": [], "observe": []}
    real_settle, real_observe = mc.settle, dn.observe

    def settle(e, fuel, model=DEFAULT_MODEL):
        calls["settle"].append(fuel)
        return (outcome, 0) if fuel < below else real_settle(e, fuel, model)

    def observe(d, fuel, model=DEFAULT_MODEL):
        calls["observe"].append(fuel)
        return real_observe(d, fuel, model)

    monkeypatch.setattr(mc, "settle", settle)
    monkeypatch.setattr(dn, "observe", observe)
    return calls


def test_adequacy_never_retries_a_proved_divergence(monkeypatch):
    calls = spy_on_both_semantics(monkeypatch, DIVERGES, below=10**9)
    why, m, d, fuel = adequacy_verdict(sx.parse("(step 2 (ret triv))"), 100, DEFAULT_MODEL)
    assert why == "definedness differs: Diverges vs Defined(cost=2, value=VTriv)"
    assert (m, d, fuel) == (DIVERGES, Defined(2, dn.TRIV), 100)
    assert calls == {"settle": [100], "observe": [100]}


def test_adequacy_retries_an_exhausted_side_once_at_four_times_the_fuel(monkeypatch):
    calls = spy_on_both_semantics(monkeypatch, EXHAUSTED, below=400)
    why, m, d, fuel = adequacy_verdict(sx.parse("(step 2 (ret triv))"), 100, DEFAULT_MODEL)
    assert why is None
    assert (m, d, fuel) == (Defined(2, Ret(sx.TRIV)), Defined(2, dn.TRIV), 400)
    assert calls == {"settle": [100, 400], "observe": [100]}


def test_laws_meet_proved_divergences(monkeypatch):
    """Some generated delays never settle, so the laws compare Diverges
    outcomes too, not only Defined and Exhausted ones.  Each side of each of
    the six laws is unwound exactly once.  Every side here settles or is
    proved divergent within 6 Laters, so the cap is 3, low enough that some
    sides are still Exhausted at it."""
    seen = []
    real = dn.unwind

    def unwind(d, fuel, model=DEFAULT_MODEL):
        outcome, used = real(d, fuel, model)
        seen.append(outcome)
        return outcome, used

    monkeypatch.setattr(dn, "unwind", unwind)
    assert check_laws(seed=5, cases=60, fuel=3).failures == ()
    assert len(seen) == 60 * 12
    assert seen.count(DIVERGES) >= 20
    assert any(isinstance(o, Defined) for o in seen) and EXHAUSTED in seen


@pytest.mark.parametrize("fault, detail, laws", [
    ("extra-later", "Laters needed differ", {"dist", "algebra-bind"}),
    ("cost-twice", "costs differ", {"dist"}),
], ids=["extra-later", "cost-twice"])
def test_laws_see_laters_used_and_costs(monkeypatch, fault, detail, laws):
    """Two faults in `charge` that leave every side's definedness at the cap
    as it was: one more Later on every returner result that is not Done, or
    the cost added twice.  The laws report each by what it changed."""
    real = dn.charge

    def charge(c, d, model=DEFAULT_MODEL):
        if fault == "cost-twice":
            return real(c, real(c, d, model), model)
        r = real(c, d, model)
        # A Later is not applicable, so a charged function is left as it is.
        return r if isinstance(r, dn.Done) or isinstance(d, dn.FunComp) else dn.Later(lambda: r)

    monkeypatch.setattr(dn, "charge", charge)
    failures = check_laws(seed=1, cases=100, fuel=5000).failures
    assert failures
    assert all(f.detail.startswith(detail) for f in failures)
    assert {f.case.split("[")[0] for f in failures} == laws


def test_laws_treat_a_proved_and_an_unproved_divergence_alike(monkeypatch):
    """Every continuation diverges: on its first call through one shared
    Later, which `observe` proves, later through fresh Laters, which it never
    can.  So left unit meets Diverges against Exhausted: both not Defined."""
    def unproved():
        return dn.Later(unproved)

    def gen_kont(rng, model, depth):
        calls = []

        def k(v):
            calls.append(v)
            return dn.bottom() if len(calls) == 1 else unproved()
        return k

    monkeypatch.setattr(hz, "_gen_kont", gen_kont)
    k = gen_kont(None, None, 0)
    right, left = k(dn.TRIV), dn.bindT(dn.eta(dn.TRIV), k)
    assert (dn.observe(right, 64), dn.observe(left, 64)) == (DIVERGES, EXHAUSTED)
    rep = check_laws(seed=5, cases=20, fuel=64)
    assert rep.failures == ()


def test_check_all_proves_every_divergence_in_its_batteries(monkeypatch):
    """Every ground program of the `check all --seed 1` soundness and
    adequacy batteries that does not settle is proved divergent by both
    semantics, at the fuels those suites use."""
    seen = {}

    def spy(name):
        def check(programs, fuel, model=DEFAULT_MODEL):
            seen[name] = (programs, fuel)
            return CheckReport(name, len(programs), ())
        return check

    monkeypatch.setattr(hz, "check_soundness", spy("soundness"))
    monkeypatch.setattr(hz, "check_adequacy", spy("adequacy"))
    rng = random.Random(1)  # run_suite("all") draws one seed per suite, in order
    seeds = {name: rng.randrange(2**62) for name in SUITES}
    for name in ("soundness", "adequacy"):
        run_suite(name, seeds[name], DEFAULT_FUEL)
    divergent = {}
    for name, (programs, fuel) in seen.items():
        divergent[name] = 0
        for label, t in programs:
            if hz._ground_f_type(t, DEFAULT_MODEL) is None:
                continue
            machine = mc.settle(t, fuel)[0]
            if isinstance(machine, Defined):
                continue
            divergent[name] += 1
            assert machine is DIVERGES, (name, label)
            assert dn.observe(dn.denote_closed(t).to_delay(), fuel) is DIVERGES, (name, label)
    assert divergent == {"soundness": 11, "adequacy": 5}


@pytest.mark.parametrize("model", [
    CostModel(monoid=vector_monoid(2)),
    DEFAULT_MODEL.with_phase(Phase.EXTENSIONAL),
], ids=["vec:2", "ext"])
def test_every_suite_passes_under_vector_monoid_and_extensional_phase(model):
    reports = run_suite("all", seed=4, fuel=5000, model=model, cases=6)
    assert [r.name for r in reports] == list(SUITES)
    assert all(r.failures == () for r in reports)
