"""Harness: generator, corpus, suites, failure reports.

The generator's oracle is the typechecker run in checking mode: every output
must inhabit its target type.  Suite runs here are smoke-scale; the full
acceptance-scale runs live in test_acceptance.py.
"""

import hashlib
import json
import random
import sys

import pytest

import costpcf.denote as dn
import costpcf.harness as hz
import costpcf.machine as mc
import costpcf.syntax as sx
from costpcf.cli import DEFAULT_FUEL, main
from costpcf.cost import DEFAULT_MODEL, STAR, Phase, vector_monoid, CostModel
from costpcf.harness import (
    CheckReport, Failure, GenConfig, SUITES, adequacy_verdict,
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
        assert isinstance(mc.settle(t, 50_000)[0], Defined), sx.print_term(t)


def test_nonterminating_mode_produces_some_divergence():
    programs = gen_programs(420, 150, (F(UNIT),), terminating_frac=0.0)
    diverged = sum(1 for t, _ in programs if not isinstance(mc.settle(t, 3000)[0], Defined))
    assert diverged >= 10  # plenty of genuine loops in the stream


def test_gen_programs_deterministic_batch():
    a = gen_programs(99, 40, (F(UNIT),), terminating_frac=0.5)
    b = gen_programs(99, 40, (F(UNIT),), terminating_frac=0.5)
    assert a == b


def gen_term_digest(monoid):
    """sha256 over the printed `gen_term` output at every key of the
    generator's production table: each target shape (returner, arrow and a
    thunk value), depth 0-7, both modes, with and without a context that
    holds a nat and forcible thunks."""
    h = hashlib.sha256()
    for target in TARGETS + (U(F(NAT)),):
        comp = target.comp if isinstance(target, U) else target
        for ctx in ((), (NAT, U(comp), U(F(UNIT)))):
            for depth in range(8):
                for terminating in (False, True):
                    for seed in range(5):
                        cfg = GenConfig(seed=seed, max_depth=depth, target=target,
                                        monoid=monoid, terminating=terminating)
                        h.update(sx.print_term(gen_term(cfg, ctx)).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("monoid, digest", [
    (DEFAULT_MODEL.monoid, "8496b072d19ee60d84726747f97ffb3eca2cccb0fcba3a7372f133a22b8df21f"),
    (vector_monoid(2), "807fb1d519a9edacf9add4ab8e5ac3d969fa2498cc5f614c3ed1faf46fa6d3a6"),
], ids=["nat", "vec:2"])
def test_gen_term_stream_is_pinned(monoid, digest):
    """The generator's random stream: every rng draw in the same order with
    the same arguments gives the same terms at every table key."""
    assert gen_term_digest(monoid) == digest


def battery_digest(monkeypatch, seed, model):
    """sha256 over the printed terms `check all --seed <seed> --cases 100
    --fuel 5000` generates for its suites under `model`, in order, with the
    law name of each sequencing instance; the suites themselves are not
    run."""
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
    run_suite("all", seed, 5000, model, cases=100)
    return h.hexdigest()


# (seed, model, id label, digest); a nat row's id is "<seed>-<digest>".
_BATTERY_PINS = [
    (1, DEFAULT_MODEL, "", "60d47d32fb17f02acff711af0f45c26c8d9c44699523b5493710f8a8a5c5bf40"),
    (47, DEFAULT_MODEL, "", "47914e2a33f81858f3dd4471adc8ccccb3ff6d6a2dd4d3ed1308fe45ec2746f3"),
    (1, CostModel(vector_monoid(2)), "vec:2-",
     "a19d8fa032a9684a5882710a63646b1b962919252e0ecd456868533c9a1c404d"),
]


@pytest.mark.parametrize("seed, model, digest", [
    pytest.param(seed, model, digest, id=f"{seed}-{label}{digest}")
    for seed, model, label, digest in _BATTERY_PINS
])
def test_battery_generators_produce_pinned_terms(monkeypatch, seed, model, digest):
    """Every program, sequencing instance, function and argument pair the
    battery generates is pinned: a change to any rng draw shows here even
    when the suites' reports, which print only counts, stay the same."""
    assert battery_digest(monkeypatch, seed, model) == digest


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
        for thunk in (x, y):
            outcome = mc.settle(thunk, 20_000)[0]
            assert isinstance(outcome, Defined) and outcome.value == Ret(sx.TRIV)
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


def test_check_all_parses_the_corpus_once(monkeypatch, capsys):
    """Soundness and adequacy read one parse of the corpus per run."""
    calls = []
    real = hz.load_corpus

    def load_corpus():
        calls.append(1)
        return real()

    monkeypatch.setattr(hz, "load_corpus", load_corpus)
    assert main(["check", "all", "--seed", "1"]) == 0
    assert len(calls) == 1
    calls.clear()
    run_suite("adequacy", 1, 5000, cases=2)
    assert len(calls) == 1


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
        (first, (cost, term, unfolded), *rest) = tr.steps
        return mc.Trace((first, (model.add(cost, 1), term, unfolded), *rest),
                        tr.total, tr.truncated)

    monkeypatch.setattr(mc, "trace", trace_off_by_one_once)
    rep = check_soundness(_countdown3(), fuel=10_000)
    assert [f.case for f in rep.failures] == ["per-step:countdown3.pcf"]
    assert rep.failures[0].detail.startswith("transition 1: costs differ")
    assert rep.failures[0].terms[1] == sx.print_term(traces[0].steps[0][1])


def test_soundness_reads_one_trace_per_checked_program(monkeypatch):
    """Every transition soundness checks comes from one `trace` of its
    program; no transition is recomputed one `out` call at a time.  The
    big-step verdict settles each program once and unwinds [[e]] once, and
    that observation starts the per-step chain, which observes each later
    [[e_k]] once: 302 transitions, one `observe` each, which unwinds."""
    calls = {"trace": 0, "out": 0, "settle": 0, "observe": 0, "unwind": 0}

    def counting(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    for name in ("trace", "out", "settle"):
        counting(mc, name)
    counting(dn, "observe")
    counting(dn, "unwind")
    corpus = load_corpus()
    rep = check_soundness(corpus, fuel=10_000)
    assert rep.failures == ()
    # The corpus's three arrow-typed programs are skipped.
    assert (len(corpus), calls) == (25, {"trace": 22, "out": 0, "settle": 22, "observe": 302,
                                         "unwind": 22 + 302})


@pytest.mark.parametrize("fuel, cap, traced, checked", [
    # countdown3 unfolds its fix 4 times in 15 transitions: at fuel 4 the
    # machine settles, and the trace runs to the terminal.
    (4, sys.maxsize, 15, 15),
    # At fuel 3 both sides are Exhausted, so only DIVERGENT_STEP_CAP
    # transitions are checked; the 4th unfolding would be the 13th.
    (3, 12, 12, 12),
    # At fuel 1 the 2nd unfolding, the 5th transition, would leave no fuel:
    # the chain stops before it.
    (1, 12, 12, 4),
], ids=["settled", "capped", "fuel-spent"])
def test_soundness_traces_to_the_terminal_or_the_fuel_left(monkeypatch, fuel, cap, traced,
                                                           checked):
    """The trace cap is unbounded when the machine settles and
    DIVERGENT_STEP_CAP otherwise, and the per-step chain stops where the
    transitions' unfoldings have spent the fuel.  With one unit of fuel for
    both semantics, every fuel agrees: no retry is needed."""
    real_trace, real_observe, seen = mc.trace, dn.observe, []

    def spy(e, limit, model=DEFAULT_MODEL):
        result = real_trace(e, limit, model)
        seen.append((limit, len(result.steps)))
        return result

    def observe(d, f, model=DEFAULT_MODEL):
        seen.append(f)
        return real_observe(d, f, model)

    monkeypatch.setattr(mc, "trace", spy)
    monkeypatch.setattr(dn, "observe", observe)
    rep = check_soundness(_countdown3(), fuel=fuel)
    assert rep.failures == ()
    assert seen[0] == (cap, traced)
    # Each checked transition observes [[e_k+1]] at the fuel it leaves.
    lefts = seen[1:]
    assert len(lefts) == checked and min(lefts) >= 0
    assert lefts == [fuel - 1 - i // 4 for i in range(checked)]


def test_soundness_reports_a_wrong_machine_total(monkeypatch):
    """Soundness's big-step check is the adequacy verdict: one planted fault
    gives the same detail, machine first, in both suites."""
    real_settle = mc.settle

    def settle_overcharging(e, fuel, model=DEFAULT_MODEL):
        outcome, used, unfolded = real_settle(e, fuel, model)
        return Defined(model.add(outcome.cost, 1), outcome.value), used, unfolded

    monkeypatch.setattr(mc, "settle", settle_overcharging)
    rep = check_soundness(_countdown3(), fuel=10_000)
    assert [f.case for f in rep.failures] == ["big-step:countdown3.pcf"]
    assert rep.failures[0].detail == "costs differ: 4 vs 3"  # machine vs denotation
    (adequate,) = check_adequacy(_countdown3(), fuel=10_000).failures
    assert adequate.detail == rep.failures[0].detail


SEQUENCING_LEFT_SIDES = {
    "eval-seq": lambda e, g: sx.Bind(e, g),
    "prof-seq": lambda e, g: sx.Bind(e, g),
    "prof-assoc": lambda e, g, i: sx.Bind(sx.Bind(e, g), i),
    "comm-app-seq": lambda e, g, w: sx.Ap(sx.Bind(e, g), w),
}

# The side the check settles itself: g[v] where e settles to ret(v), or the
# law's right side.
SEQUENCING_CHECKED_SIDES = {
    "eval-seq": lambda e, g: sx.subst(g, mc.settle(e, 20_000)[0].value.arg),
    "prof-seq": lambda e, g: sx.subst(g, mc.settle(e, 20_000)[0].value.arg),
    "prof-assoc": lambda e, g, i: sx.Bind(e, sx.Bind(g, sx.shift(i, 1, 1))),
    "comm-app-seq": lambda e, g, w: sx.Bind(e, sx.Ap(g, sx.shift(w, 1))),
}


@pytest.mark.parametrize("fault", ["overcharge", "exhaust"])
@pytest.mark.parametrize("law", list(SEQUENCING_LEFT_SIDES))
def test_sequencing_reports_a_faulty_left_side(monkeypatch, law, fault):
    """A machine that overcharges the left side of one law, or never settles
    the side the check settles itself, fails exactly that law's cases.

    The check reads the left side's outcome from the generator's filter, so
    the overcharging machine is in place while the instances are generated:
    it keeps them Defined, so they are the same instances."""
    instances = gen_sequencing_instances(17, 3, 20_000)
    sides = SEQUENCING_LEFT_SIDES if fault == "overcharge" else SEQUENCING_CHECKED_SIDES
    faulty = {sides[inst.law](*inst.parts) for inst in instances if inst.law == law}
    real_settle = mc.settle

    def faulty_settle(e, fuel, model=DEFAULT_MODEL):
        outcome, used, unfolded = real_settle(e, fuel, model)
        if e not in faulty:
            return outcome, used, unfolded
        if fault == "exhaust":
            return EXHAUSTED, used, fuel
        return Defined(model.add(outcome.cost, 1), outcome.value), used, unfolded

    monkeypatch.setattr(mc, "settle", faulty_settle)
    if fault == "overcharge":
        regenerated = gen_sequencing_instances(17, 3, 20_000)
        assert [i.parts for i in regenerated] == [i.parts for i in instances]
        instances = regenerated
    rep = check_sequencing_laws(instances, fuel=100_000)
    expected = [f"{law}[{idx}]" for idx, inst in enumerate(instances) if inst.law == law]
    assert len(expected) == 3
    assert [f.case for f in rep.failures] == expected
    assert all(f.detail.startswith("sides settle to") for f in rep.failures)


def test_sequencing_instances_hold_both_sides_of_their_law():
    """Each instance keeps its left side's Defined outcome, the same as the
    check's own, larger fuel settles it to, and its right side's term; for
    eval-seq and prof-seq, e's cost, which the check charges onto it."""
    instances = gen_sequencing_instances(17, 5, 20_000)
    assert len(instances) == 20
    for inst in instances:
        assert isinstance(inst.lhs, Defined)
        assert inst.lhs == mc.settle(SEQUENCING_LEFT_SIDES[inst.law](*inst.parts), 100_000)[0]
        assert inst.rhs == SEQUENCING_CHECKED_SIDES[inst.law](*inst.parts)
        if inst.law in ("eval-seq", "prof-seq"):
            assert inst.cost == mc.settle(inst.parts[0], 100_000)[0].cost
        else:
            assert inst.cost is None


# ---------------------------------------------------------------------------
# Noninterference's agreement rule, the one rule with a retry

ONE = Defined(1, Ret(sx.TRIV))
NI_F = sx.parse("(lam (U (F unit)) x (bind x u (ret yes)))")
NI_X, NI_Y = sx.parse("(ret triv)"), sx.parse("(step 1 (ret triv))")


def planted_ni_runs(monkeypatch, answers):
    """A machine that answers `answers[(side, fuel)]`, or else ONE, for NI_F
    applied to NI_X (side "x") or NI_Y ("y"), its cost added under the
    run's model so that an Extensional run seals it; returns the list of
    (side, fuel) of those runs, in order."""
    calls = []
    real_settle = mc.settle

    def settle(e, fuel, model=DEFAULT_MODEL):
        if type(e) is not sx.Ap or e.fun is not NI_F:
            return real_settle(e, fuel, model)
        side = "x" if e.arg is NI_X else "y"
        calls.append((side, fuel))
        outcome = answers.get((side, fuel), ONE)
        if isinstance(outcome, Defined):
            outcome = Defined(model.add(outcome.cost, model.zero()), Ret(outcome.value.arg))
        return outcome, 0, 0

    monkeypatch.setattr(mc, "settle", settle)
    return calls


@pytest.mark.parametrize("o1, o2, retry, agree", [
    pytest.param(ONE, ONE, None, True, id="defined-equal"),
    # Noninterference compares with costs sealed.
    pytest.param(ONE, Defined(2, Ret(sx.TRIV)), None, True, id="defined-costs-differ"),
    pytest.param(ONE, Defined(1, Ret(sx.YES)), None, False, id="defined-values-differ"),
    pytest.param(ONE, DIVERGES, None, False, id="defined-diverges"),
    pytest.param(DIVERGES, ONE, None, False, id="diverges-defined"),
    pytest.param(ONE, EXHAUSTED, "y", True, id="defined-exhausted"),
    pytest.param(EXHAUSTED, ONE, "x", True, id="exhausted-defined"),
    pytest.param(DIVERGES, DIVERGES, None, True, id="diverges-diverges"),
    pytest.param(DIVERGES, EXHAUSTED, None, True, id="diverges-exhausted"),
    pytest.param(EXHAUSTED, DIVERGES, None, True, id="exhausted-diverges"),
    pytest.param(EXHAUSTED, EXHAUSTED, None, True, id="exhausted-exhausted"),
])
def test_agreement_rule(monkeypatch, o1, o2, retry, agree):
    """Each cell of noninterference's rule.  Only an Exhausted run facing a
    Defined one is run again, once, at 4x fuel; here it then settles as
    the other."""
    calls = planted_ni_runs(monkeypatch, {("x", 100): o1, ("y", 100): o2})
    rep = check_noninterference([NI_F], [(NI_X, NI_Y)], 100)
    assert [c for c in calls if c[1] != 100] == ([] if retry is None else [(retry, 400)])
    assert rep.ok == agree


@pytest.mark.parametrize("terminal, value, why", [
    ("triv", dn.TRIV, None), ("yes", dn.V_YES, None), ("no", dn.V_NO, None),
    ("0", dn.VNum(0), None), ("7", dn.VNum(7), None),
    ("yes", dn.V_NO, "values differ: 'yes' vs 'no'"), ("6", dn.VNum(7), "values differ: 6 vs 7"),
    ("(ret 3)", dn.denote_closed(sx.parse("(ret 3)")), None),
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
    assert {f.case: f.detail for f in rep.failures}["big-step:add.pcf"] == "values differ: 7 vs 6"


def test_agreement_reports_a_retry_that_still_does_not_settle(monkeypatch):
    planted_ni_runs(monkeypatch, {("x", 100): EXHAUSTED, ("x", 400): DIVERGES})
    (failure,) = check_noninterference([NI_F], [(NI_X, NI_Y)], 100).failures
    assert failure.detail == (
        "answers differ: definedness differs: Diverges vs Defined(cost=1, value=Ret(arg=Triv()))")


def test_noninterference_retries_an_exhausted_side_once_at_four_times_the_fuel(monkeypatch):
    """The retry settles x, so the pair is checked; each Extensional rerun
    runs at the suite's fuel and is compared with its own side's run there,
    Exhausted for x, not with the retry's answer."""
    calls = planted_ni_runs(monkeypatch, {("x", 100): EXHAUSTED})
    assert check_noninterference([NI_F], [(NI_X, NI_Y)], 100).failures == ()
    assert calls == [("x", 100), ("y", 100), ("x", 400), ("x", 100), ("y", 100)]


def spy_on_both_semantics(monkeypatch, outcome):
    """Record the fuel of every machine run and denotation unwinding; the
    machine answers `outcome`."""
    calls = {"settle": [], "unwind": []}
    real_unwind = dn.unwind

    def settle(e, fuel, model=DEFAULT_MODEL):
        calls["settle"].append(fuel)
        return outcome, 0, 0

    def unwind(d, fuel, model=DEFAULT_MODEL):
        calls["unwind"].append(fuel)
        return real_unwind(d, fuel, model)

    monkeypatch.setattr(mc, "settle", settle)
    monkeypatch.setattr(dn, "unwind", unwind)
    return calls


def test_adequacy_never_retries_a_proved_divergence(monkeypatch):
    calls = spy_on_both_semantics(monkeypatch, DIVERGES)
    why, m, d = adequacy_verdict(sx.parse("(step 2 (ret triv))"), 100, DEFAULT_MODEL)
    assert why == "definedness differs: Diverges vs Defined(cost=2, value=VTriv)"
    assert (m, d) == (DIVERGES, Defined(2, dn.TRIV))
    assert calls == {"settle": [100], "unwind": [100]}


def test_adequacy_never_retries_an_exhausted_side(monkeypatch):
    """Both semantics count fuel in fix unfoldings, so a machine run that is
    Exhausted where the denotation is Defined at the same fuel fails too."""
    calls = spy_on_both_semantics(monkeypatch, EXHAUSTED)
    why, m, d = adequacy_verdict(sx.parse("(step 2 (ret triv))"), 100, DEFAULT_MODEL)
    assert why == "definedness differs: Exhausted vs Defined(cost=2, value=VTriv)"
    assert (m, d) == (EXHAUSTED, Defined(2, dn.TRIV))
    assert calls == {"settle": [100], "unwind": [100]}


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
    ("extra-later", "fuel used differs", {"dist", "algebra-bind"}),
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


def check_all_batteries(monkeypatch):
    """{suite: (programs, fuel)} of the soundness and adequacy batteries of
    `check all --seed 1`, as those suites receive them."""
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
    monkeypatch.undo()
    return seen


def test_check_all_proves_every_divergence_in_its_batteries(monkeypatch):
    """Every ground program of the `check all --seed 1` soundness and
    adequacy batteries that does not settle is proved divergent by both
    semantics, at the fuels those suites use."""
    divergent = {}
    for name, (programs, fuel) in check_all_batteries(monkeypatch).items():
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


def test_unfoldings_equal_laters_on_every_terminating_program(monkeypatch):
    """One unit of fuel for both semantics: on every program of the corpus
    and of the `check all --seed 1` soundness battery that settles, the
    machine's fix unfoldings are the Laters [[e]] unwinds, and an
    unfolding's Later is spent even on the first entry."""
    programs, fuel = check_all_batteries(monkeypatch)["soundness"]
    assert [label for label, _ in programs[:25]] == [name for name, _ in load_corpus()]
    settled = 0
    for label, t in programs:
        if hz._ground_f_type(t, DEFAULT_MODEL) is None:
            continue
        machine, _, unfolded = mc.settle(t, fuel)
        if not isinstance(machine, Defined):
            continue
        settled += 1
        outcome, laters = dn.unwind(dn.denote_closed(t).to_delay(), fuel)
        assert isinstance(outcome, Defined) and laters == unfolded, label
    assert settled == 511


@pytest.mark.parametrize("fuel", range(1, 9))
def test_check_all_finds_nothing_at_small_fuel(capsys, fuel):
    """Both semantics spend one unit per fix unfolding, so a small fuel
    leaves each side unsettled exactly when the other is: no suite reports
    a counterexample that is not there."""
    assert main(["check", "all", "--fuel", str(fuel), "--cases", "2"]) == 0
    capsys.readouterr()


def plant_eager_guard(monkeypatch):
    """Enter a fix body when the fix is denoted, as a guard did before the
    first unfolding cost a Later: only re-entries spend one."""
    real = dn._compile

    def compile_node(t):
        if type(t) is not sx.Fix:
            return real(t)
        body = t.body

        def code(env, model):
            holder = []
            rec = dn.GuardComp(lambda: holder[0])
            holder.append((body._code or dn._compile(body))((rec,) + env, model))
            return holder[0]
        object.__setattr__(t, "_code", code)
        return code

    monkeypatch.setattr(dn, "_compile", compile_node)


def plant_two_later_guard(monkeypatch):
    """A guard whose shared Later unwraps to a second shared Later."""
    def to_delay(self):
        if self._delay is None:
            inner = dn.Later(self.enter)
            self._delay = dn.Later(lambda: inner)
        return self._delay

    monkeypatch.setattr(dn.GuardComp, "to_delay", to_delay)


@pytest.mark.parametrize("plant", [plant_eager_guard, plant_two_later_guard],
                         ids=["no-later-on-entry", "two-laters"])
def test_check_all_reports_a_guard_that_spends_the_wrong_laters(monkeypatch, plant):
    """A guard that spends no Later on a fix's first entry, or two per
    unfolding, answers every program as before, only after other Laters:
    the big-step verdict's fuel-used comparison reports it."""
    plant(monkeypatch)
    failures = {r.name: r.failures for r in run_suite("all", 1, DEFAULT_FUEL) if r.failures}
    assert set(failures) == {"soundness", "adequacy"}
    for rep in failures.values():
        assert all(f.detail.startswith("fuel used differs") for f in rep)
    assert len(failures["adequacy"]) == 51


# The two noninterference rows: (f, x, y) at fuel 3.  In the first, y takes
# more transitions than x but unfolds no fix.  In the second, f forces its
# argument inside a countdown, so f x needs more unfoldings than f y.
NI_ROWS = [
    ("(lam (U (F unit)) x (bind x x1 (ret no)))", "(ret triv)",
     "(bind (step 0 (ret zero)) x (ret triv))"),
    ("(lam (U (F unit)) x (ap (fix x1 (lam nat x2 (ifz x2 (bind x x3 (step 1 (ret yes)))"
     " x3 (ap x1 x3)))) 2))",
     "(ap (fix x (lam nat x1 (ifz x1 (step 0 (step 1 (ret triv))) x2 (step 5 (ap x x2))))) 2)",
     "(ret triv)"),
]


def test_noninterference_compares_each_extensional_rerun_with_its_own_run():
    """Each Extensional rerun runs at the suite's fuel, so it is compared
    with its own side's Intensional run at that fuel, not with an answer
    the retry found at 4x the fuel."""
    for f, x, y in NI_ROWS:
        rep = check_noninterference([sx.parse(f)], [(sx.parse(x), sx.parse(y))], 3)
        assert rep.failures == (), (f, x, y)


@pytest.mark.parametrize("model", [
    CostModel(monoid=vector_monoid(2)),
    DEFAULT_MODEL.with_phase(Phase.EXTENSIONAL),
], ids=["vec:2", "ext"])
def test_every_suite_passes_under_vector_monoid_and_extensional_phase(model):
    reports = run_suite("all", seed=4, fuel=5000, model=model, cases=6)
    assert [r.name for r in reports] == list(SUITES)
    assert all(r.failures == () for r in reports)
