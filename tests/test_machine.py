"""Small-step machine: out, trace, eval, profile.

Differential core: `oracle_out` below recomputes one transition by direct
recursion over the term (head rules at the root, congruence in bind-head and
ap-function position).  The production machine uses a focus/frame-stack
runner, a genuinely different algorithm, so agreement on every reachable
state of every program is a real check, not a tautology.
"""

import pytest

import costpcf.harness as hz
import costpcf.machine as mc
import costpcf.syntax as sx
from costpcf.cost import DEFAULT_MODEL, STAR, Phase, vector_monoid, CostModel
from costpcf.machine import (
    Mismatch, StuckError, Terminal, Next, eval_term, out, profile, run, settle, trace,
)
from costpcf.outcome import DIVERGES, EXHAUSTED, Defined
from costpcf.syntax import (
    NAT, TRIV, ZERO, Ap, Bind, F, Fix, Ifz, Lam, Ret, Step, Succ, Var, parse,
)

# ---------------------------------------------------------------------------
# Evaluation-context oracle

def oracle_out(e, model=DEFAULT_MODEL):
    """(rule, cost, next term) for one transition, or None at a terminal."""
    if isinstance(e, (sx.Ret, sx.Lam)):
        return None
    if isinstance(e, sx.Step):
        return ("step", e.cost, e.body)
    if isinstance(e, sx.Fix):
        return ("fix", model.zero(), sx.subst(e.body, sx.Fix(e.body)))
    if isinstance(e, sx.Ifz):
        if isinstance(e.scrut, sx.Zero):
            return ("ifz-z", model.zero(), e.zcase)
        if isinstance(e.scrut, sx.Succ):
            return ("ifz-s", model.zero(), sx.subst(e.scase, e.scrut.arg))
        raise AssertionError("ifz scrutinee is not a numeral")
    if isinstance(e, sx.Bind):
        if isinstance(e.head, sx.Ret):
            return ("bind-ret", model.zero(), sx.subst(e.cont, e.head.arg))
        rule, c, h = oracle_out(e.head, model)
        return (rule, c, sx.Bind(h, e.cont))
    if isinstance(e, sx.Ap):
        if isinstance(e.fun, sx.Lam):
            return ("beta", model.zero(), sx.subst(e.fun.body, e.arg))
        rule, c, f = oracle_out(e.fun, model)
        return (rule, c, sx.Ap(f, e.arg))
    raise AssertionError(f"stuck: {sx.print_term(e)}")


def walk_both(e, cap, model=DEFAULT_MODEL):
    """Compare machine `out` with the oracle along one trajectory; returns
    the list of (rule, cost) firings."""
    fired = []
    cur = e
    for _ in range(cap):
        want = oracle_out(cur, model)
        got = out(cur, model)
        if want is None:
            assert isinstance(got, Terminal), sx.print_term(cur)
            return fired
        rule, c, nxt = want
        assert isinstance(got, Next), sx.print_term(cur)
        assert model.eq(got.cost, c), sx.print_term(cur)
        assert got.term == nxt, sx.print_term(cur)
        fired.append((rule, c))
        cur = nxt
    return fired


def test_out_agrees_with_oracle_on_corpus():
    for name, t in hz.load_corpus():
        walk_both(t, 300)


def test_out_agrees_with_oracle_on_generated_programs():
    targets = (F(sx.UNIT), F(NAT), F(sx.ANS))
    programs = hz.gen_programs(1447, 300, targets, terminating_frac=0.6)
    for t, _ in programs:
        walk_both(t, 120)


def test_cost_created_only_by_step():
    """A trace's total is exactly the sum over step-rule firings; all other
    rules carry cost zero."""
    programs = [t for _, t in hz.load_corpus()]
    programs += [t for t, _ in hz.gen_programs(88, 120, (F(sx.UNIT), F(NAT)), 0.7)]
    for t in programs:
        fired = walk_both(t, 150)
        for rule, c in fired:
            if rule != "step":
                assert c == 0
        step_total = sum(c for rule, c in fired if rule == "step")
        tr = trace(t, 150)
        if not tr.truncated:
            assert tr.total == step_total


# ---------------------------------------------------------------------------
# Pinned transition examples

def test_out_spec_examples():
    assert out(Bind(Ret(ZERO), Ret(Var(0)))) == Next(0, Ret(ZERO))
    assert out(Step(3, Ret(TRIV))) == Next(3, Ret(TRIV))
    f = Ret(Var(0))
    assert out(Bind(Step(2, Ret(TRIV)), f)) == Next(2, Bind(Ret(TRIV), f))
    assert isinstance(out(Ret(TRIV)), Terminal)
    assert isinstance(out(Lam(NAT, Ret(Var(0)))), Terminal)


def test_head_rules():
    assert out(Fix(Var(0))) == Next(0, Fix(Var(0)))
    assert out(Ifz(ZERO, Ret(TRIV), Ret(Var(0)))) == Next(0, Ret(TRIV))
    assert out(Ifz(Succ(ZERO), Ret(ZERO), Ret(Var(0)))) == Next(0, Ret(ZERO))
    assert out(Ap(Lam(NAT, Ret(Var(0))), ZERO)) == Next(0, Ret(ZERO))
    # congruence under ap's function position
    inner = Step(1, Lam(NAT, Ret(Var(0))))
    assert out(Ap(inner, ZERO)) == Next(1, Ap(Lam(NAT, Ret(Var(0))), ZERO))


def test_out_is_deterministic():
    t = parse("(bind (step 2 (ret zero)) n (ret (succ n)))")
    assert out(t) == out(t) == out(t)


def test_out_raises_on_stuck_terms():
    with pytest.raises(StuckError):
        out(Ap(Ret(ZERO), ZERO))
    with pytest.raises(StuckError):
        out(Bind(Lam(NAT, Ret(Var(0))), Ret(Var(0))))


def test_trace_spec_examples():
    tr = trace(Ret(TRIV), 10)
    assert (len(tr.steps), tr.total, tr.truncated) == (0, 0, False)

    tr = trace(Step(2, Step(3, Ret(TRIV))), 10)
    assert (len(tr.steps), tr.total, tr.truncated) == (2, 5, False)
    assert tr.steps[0] == (2, Step(3, Ret(TRIV)))
    assert tr.steps[1] == (3, Ret(TRIV))

    tr = trace(Fix(Var(0)), 4)
    assert tr.truncated
    assert len(tr.steps) == 4
    assert all(s == (0, Fix(Var(0))) for s in tr.steps)


def test_eval_spec_examples():
    assert eval_term(Ret(TRIV), Ret(TRIV), 1) == Defined(0, Ret(TRIV))
    assert eval_term(Step(2, Step(3, Ret(TRIV))), Ret(TRIV), 10) == Defined(5, Ret(TRIV))
    # (fix x x) unfolds to itself: the second unfolding proves the repeat.
    assert eval_term(Fix(Var(0)), Ret(TRIV), 1) is EXHAUSTED
    for n in (5, 50):
        assert eval_term(Fix(Var(0)), Ret(TRIV), n) is DIVERGES


def test_eval_mismatch_is_definitive():
    assert eval_term(Ret(sx.YES), Ret(sx.NO), 5) == Mismatch()
    assert eval_term(Step(1, Ret(ZERO)), Ret(Succ(ZERO)), 5) == Mismatch()


def test_profile_spec_examples():
    assert profile(Ret(TRIV), 1) == Defined(0, Ret(TRIV))
    assert profile(Bind(Step(1, Ret(TRIV)), Step(2, Ret(TRIV))), 10) == Defined(3, Ret(TRIV))
    assert profile(Step(7, Fix(Var(0))), 100) is DIVERGES


def test_fuel_counts_transitions_not_cost():
    # one transition of cost 7 fits in fuel 1
    assert profile(Step(7, Ret(TRIV)), 1) == Defined(7, Ret(TRIV))
    # fuel 0 can only accept an immediate terminal
    assert profile(Ret(TRIV), 0) == Defined(0, Ret(TRIV))
    assert profile(Step(0, Ret(TRIV)), 0) is EXHAUSTED


def check_eval(t, fuel, model=DEFAULT_MODEL):
    """`eval_term` on a closed ground returner t.  If t settles within fuel: one
    Defined answer from exactly the settling fuel on, none below, Mismatch at
    another ground target.  If not: never Defined; a proved divergence stays."""
    outcome, used = settle(t, fuel, model)
    where = sx.print_term(t)
    if not isinstance(outcome, Defined):
        for f in (0, used // 2, used):
            assert eval_term(t, Ret(TRIV), f, model) in (DIVERGES, EXHAUSTED), where
        assert outcome is EXHAUSTED or eval_term(t, Ret(TRIV), fuel + 37, model) is DIVERGES
        return
    for f in (used, used + 1, used + 37):
        assert eval_term(t, outcome.value, f, model) == outcome, where
    for f in {0, used // 2, used - 1} if used else ():
        assert not isinstance(eval_term(t, outcome.value, f, model), Defined), where
    v = outcome.value.arg
    other = {sx.YES: sx.NO, sx.NO: sx.YES, TRIV: ZERO}.get(v, Succ(v))
    assert eval_term(t, Ret(other), used, model) == Mismatch(), where


def test_fuel_monotonicity_on_generated_programs():
    for t, _ in hz.gen_programs(2921, 150, hz._GROUND_F, terminating_frac=0.5):
        check_eval(t, 400)


def test_eval_functionality():
    """At most one terminal value per program (first projection functional)."""
    for t, _ in hz.gen_programs(616, 120, hz._GROUND_F, terminating_frac=0.9):
        check_eval(t, 2000)


def test_run_returns_settlement():
    total, terminal, used = run(parse("(step 2 (step 3 (ret triv)))"), 10)
    assert (total, terminal, used) == (5, Ret(TRIV), 2)
    assert run(Fix(Var(0)), 50) is None


# ---------------------------------------------------------------------------
# Corpus regression table
#
# Frozen from the evaluation-context oracle and hand traces; any drift in
# machine behavior on the bundled programs fails here with the exact delta.

CORPUS_EXPECT = {
    "ackermann": (15, 149, "(ret 7)"),
    "add": (3, 22, "(ret 7)"),
    "ans_ifz": (0, 2, "(ret yes)"),
    "ans_step": (2, 1, "(ret yes)"),
    "bind_nested": (6, 5, "(ret triv)"),
    "bind_steps": (3, 3, "(ret triv)"),
    "countdown3": (3, 15, "(ret triv)"),
    "countdown5": (10, 23, "(ret triv)"),
    "deep_ifz": (0, 3, "(ret yes)"),
    "double": (3, 18, "(ret 6)"),
    "force_twice": None,  # terminal lambda: 0 steps
    "grow_loop": "diverges",
    "higher_order": (1, 3, "(ret 5)"),
    "ifz_succ": (2, 2, "(ret triv)"),
    "ifz_zero": (1, 2, "(ret triv)"),
    "ignore_thunk": None,
    "mixed_control": (4, 5, "(ret triv)"),
    "omega": "diverges",
    "ret_triv": (0, 0, "(ret triv)"),
    "step_chain_long": (55, 10, "(ret triv)"),
    "step_zero": (0, 1, "(ret triv)"),
    "steps_chain": (5, 2, "(ret triv)"),
    "succ_tower": (0, 0, "(ret 5)"),
    "ticking_loop": "diverges",
    "use_thunk": None,
}


def test_corpus_against_frozen_oracle_values():
    corpus = dict((name[:-4], t) for name, t in hz.load_corpus())
    assert set(corpus) == set(CORPUS_EXPECT)
    for name, want in CORPUS_EXPECT.items():
        t = corpus[name]
        res = run(t, 100_000)
        if want == "diverges":
            assert res is None, name
            continue
        assert res is not None, name
        total, terminal, used = res
        if want is None:
            assert used == 0 and isinstance(terminal, sx.Lam), name
            continue
        cost, steps, printed = want
        assert total == cost, name
        assert used == steps, name
        assert sx.print_term(terminal) == printed, name


def test_vector_costs_accumulate_componentwise():
    v2 = CostModel(monoid=vector_monoid(2))
    t = parse("(step [1,0] (step [0,3] (ret triv)))", monoid=v2.monoid)
    assert profile(t, 10, v2) == Defined((1, 3), Ret(TRIV))


def test_extensional_phase_seals_profile():
    ext = DEFAULT_MODEL.with_phase(Phase.EXTENSIONAL)
    o = profile(parse("(step 2 (step 3 (ret triv)))"), 10, ext)
    assert isinstance(o, Defined)
    assert ext.show(o.cost) == "*"


def test_extensional_settle_costs_star_after_any_transition():
    """The cost object itself: the zero it starts from after no transition,
    STAR after one, also when no `step` fired."""
    ext = DEFAULT_MODEL.with_phase(Phase.EXTENSIONAL)
    assert settle(Ret(TRIV), 10, ext) == (Defined(0, Ret(TRIV)), 0)
    assert settle(Ret(TRIV), 10, ext)[0].cost is not STAR
    for src, used in (("(bind (ret triv) x (ret x))", 1), ("(step 2 (ret triv))", 1),
                      ("(bind (step 0 (ret triv)) x (ret x))", 2)):
        outcome, n = settle(parse(src), 10, ext)
        assert (outcome.cost, outcome.value, n) == (STAR, Ret(TRIV), used), src


# ---------------------------------------------------------------------------
# Repeat check and substitution memo: `run` may answer None early, but only
# where the whole budget answers None too, and `run` and `trace` reuse
# substitutions.  The reference steps a runner whose memo remembers
# nothing; `out`, which builds a fresh runner, and so a fresh memo, for
# every transition, checks the terms of the first steps.

EXACT_FUELS = (0, 1, 2, 3, 7, 64, 2000)


def exactness_programs():
    programs = list(hz.load_corpus())
    for seed in (1, 2, 3):
        gen = hz.gen_programs(seed, 60, hz._GROUND_F, terminating_frac=0.0)
        programs += [(f"gen{seed}[{i}]", t) for i, (t, _) in enumerate(gen)]
    return programs


class Forgetful(dict):
    """A substitution memo that stores nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


def plain_steps(t, fuel):
    """The costs of t's transitions within fuel, stepped one at a time
    without the memo, and the terminal reached, or None if there is none
    within fuel."""
    runner = mc._Runner(t, DEFAULT_MODEL)
    runner.memo = Forgetful()
    costs = []
    for _ in range(fuel):
        cost, used = runner.advance(1)
        if not used:
            break
        costs.append(cost)
    return costs, runner.focus if runner.at_terminal() else None


def out_steps(t, fuel):
    """The (cost, term) transitions of t within fuel, by iterating `out`."""
    steps = []
    for _ in range(fuel):
        nxt = out(t)
        if isinstance(nxt, Terminal):
            break
        t = nxt.term
        steps.append((nxt.cost, t))
    return steps


def test_run_matches_a_plain_step_loop():
    """`settle` answers Diverges only where the plain loop finds no terminal
    within that fuel, nor within 2000 steps more."""
    check_matches_plain_steps()


def fill_shared_memo(headroom):
    """Step a counting loop until the open scope's memo is `headroom`
    entries short of its cap; returns that memo."""
    runner = mc._Runner(parse(COUNTING_LOOP), DEFAULT_MODEL)
    for _ in range(10 * mc.SUBST_MEMO_CAP):
        if len(runner.memo) >= mc.SUBST_MEMO_CAP - headroom:
            return runner.memo
        runner.advance(1)
    raise AssertionError("the memo did not fill: its keys repeat")


def test_run_matches_a_plain_step_loop_inside_a_sharing_scope():
    """Every run of the scope, `trace` included, reuses substitutions other
    runs made, and crosses the clears of a memo that starts nearly full."""
    with mc.sharing():
        memo = fill_shared_memo(headroom=8)
        assert mc._Runner(ZERO, DEFAULT_MODEL).memo is memo
        check_matches_plain_steps()


def test_a_scope_leaves_runs_outside_it_unchanged():
    programs = [t for _, t in exactness_programs()[::7]] + [parse(ADD_300_4)]

    def answers():
        assert mc._Runner(ZERO, DEFAULT_MODEL).memo == {}
        return [settle(t, 2000) for t in programs]

    before = answers()
    with mc.sharing():
        outer = fill_shared_memo(headroom=100)
        with mc.sharing():
            assert mc._Runner(ZERO, DEFAULT_MODEL).memo == {}
            settle(parse(ADD_300_4), 2000)
        assert mc._Runner(ZERO, DEFAULT_MODEL).memo is outer
    assert answers() == before
    with pytest.raises(ZeroDivisionError):
        with mc.sharing():
            settle(parse(ADD_300_4), 2000)
            1 / 0
    assert answers() == before


def test_a_nearly_full_memo_can_delay_a_proof():
    """Why runs share a memo only inside a scope that starts empty: a memo
    that other runs have filled clears at this run's second substitution,
    dropping the first, so the next unfolding rebuilds the inner fix as a
    new node, not the marked one, and the proof comes too late for the
    fuel.  Both fixes use their binder, so both unfoldings substitute; the
    `ifz` takes its zero branch, which substitutes nothing."""
    t = parse("(fix x (fix x1 (step 5 (ifz zero x p x1))))")
    assert settle(t, 7) == (DIVERGES, 5)
    with mc.sharing():
        fill_shared_memo(headroom=1)
        assert settle(t, 7) == (EXHAUSTED, 7)


def test_a_beta_step_on_an_unused_binder_substitutes_nothing():
    """A body that never mentions its binder is the focus after the step,
    the identical object, as `subst` would return it; the step costs zero
    and leaves the shared memo without an entry.  A used binder adds one."""
    body = parse("(step 3 (ret zero))")
    with mc.sharing():
        runner = mc._Runner(Ap(Lam(NAT, body), ZERO), DEFAULT_MODEL)
        assert runner.advance(1) == (0, 1)
        assert runner.focus is body and runner.memo == {}
        runner = mc._Runner(parse("(ap (lam nat x (ret x)) zero)"), DEFAULT_MODEL)
        assert runner.advance(1) == (0, 1)
        assert runner.focus == Ret(ZERO) and len(runner.memo) == 1


def check_matches_plain_steps():
    for name, t in exactness_programs():
        ref, terminal = plain_steps(t, max(EXACT_FUELS) + 2000)
        for fuel in EXACT_FUELS:
            want = ref[:fuel]
            want_done = terminal is not None and len(ref) <= fuel
            tr = trace(t, fuel, terms=False)
            assert [c for c, _ in tr.steps] == want, (name, fuel)
            assert (tr.total, tr.truncated) == (sum(want), not want_done), (name, fuel)
            res = run(t, fuel)
            outcome, used = settle(t, fuel)
            if not want_done:
                assert res is None, (name, fuel)
                if outcome is DIVERGES:
                    assert terminal is None or len(ref) > fuel + 2000, (name, fuel)
                else:
                    assert outcome is EXHAUSTED, (name, fuel)
                continue
            assert res == (sum(want), terminal, len(want)), (name, fuel)
            assert (outcome, used) == (Defined(sum(want), terminal), len(want)), (name, fuel)
        assert trace(t, 64).steps == tuple(out_steps(t, 64)), name


def assert_proves_repeat(t):
    """`settle` proves t's repeat within 7 transitions, counted by the
    `used` it returns.  The fuel is small, so a run that misses its repeat
    fails here at once instead of spinning through a large fuel."""
    outcome, used = settle(t, 10)
    assert outcome is DIVERGES and used <= 7, "the run did not recognise its repeat"


REPEATING_FIXES = ["omega", "ticking_loop", "grow_loop"]

REPEATING_STATES = [
    # The inner fix is rebuilt by every outer unfolding; the memo makes the
    # rebuilt nodes identical, so the mark lands on a node that comes back.
    "(fix x (step 3 (fix x1 (step 0 (step 1 x)))))",
    # Pops its ap frame and pushes one with the identical argument: the
    # whole state repeats, frames included, though a marked frame was popped.
    "(ap (fix r (lam nat x (ap r x))) zero)",
]


@pytest.mark.parametrize("name", REPEATING_FIXES)
def test_run_recognises_a_repeating_fix(name):
    """grow_loop's frame stack grows by one bind per unfolding, yet nothing
    below the mark is ever popped: a repeat all the same."""
    t = dict(hz.load_corpus())[f"{name}.pcf"]
    assert_proves_repeat(t)
    assert run(t, 10**9) is None
    assert profile(t, 10**9) is DIVERGES


@pytest.mark.parametrize("src", REPEATING_STATES)
def test_run_recognises_a_repeating_machine_state(src):
    t = parse(src)
    assert_proves_repeat(t)
    assert run(t, 10**9) is None
    assert profile(t, 10**9) is DIVERGES


def test_run_recognises_every_repeat_inside_a_sharing_scope():
    """The two tests above, twice over inside one scope, so that each run
    starts with the substitutions of the runs before it in the memo."""
    corpus = dict(hz.load_corpus())
    programs = [corpus[f"{name}.pcf"] for name in REPEATING_FIXES]
    programs += [parse(src) for src in REPEATING_STATES]
    with mc.sharing():
        for _ in range(2):
            for t in programs:
                assert_proves_repeat(t)
                assert run(t, 10**9) is None
                assert profile(t, 10**9) is DIVERGES


@pytest.mark.parametrize("name", ["countdown3", "countdown5", "ackermann"])
def test_run_does_not_flag_a_fix_whose_frame_was_popped(name):
    """These unfold one shared fix node again and again, but each time only
    after popping the ap frame that held the previous argument."""
    t = dict(hz.load_corpus())[f"{name}.pcf"]
    cost, steps, printed = CORPUS_EXPECT[name]
    for fuel in (steps, 10**6):
        total, terminal, used = run(t, fuel)
        assert (total, used, sx.print_term(terminal)) == (cost, steps, printed)
    assert run(t, steps - 1) is None
    assert eval_term(t, terminal, steps - 1) is EXHAUSTED


def test_trace_spends_every_step_on_a_repeating_fix():
    t = dict(hz.load_corpus())["grow_loop.pcf"]
    for fuel in (1, 64, 2000):
        tr = trace(t, fuel, terms=False)
        assert tr.truncated and len(tr.steps) == fuel
    tr = trace(t, 64)
    assert tr.truncated and len(tr.steps) == 64


def test_trace_without_terms_keeps_costs_and_total():
    t = parse("(step 2 (bind (step 3 (ret triv)) u (ret u)))")
    full, bare = trace(t, 10), trace(t, 10, terms=False)
    assert [c for c, _ in bare.steps] == [c for c, _ in full.steps]
    assert all(s is None for _, s in bare.steps)
    assert (bare.total, bare.truncated) == (full.total, full.truncated) == (5, False)


COUNTING_LOOP = "(ap (fix f (lam nat n (step 1 (ap f (succ n))))) zero)"
ADD_300_4 = ("(ap (ap (fix f (lam nat m (lam nat n (ifz m (ret n) p "
             "(step 1 (bind (ap (ap f p) n) r (ret (succ r)))))))) 300) 4)")


def memo_sizes(t, fuel):
    """Step a runner one transition at a time; the memo's size after each."""
    runner = mc._Runner(t, DEFAULT_MODEL)
    sizes = []
    for _ in range(fuel):
        if not runner.advance(1)[1]:
            break
        sizes.append(len(runner.memo))
    return sizes


def test_memo_is_exact_across_a_clear():
    t = parse(ADD_300_4)
    sizes = memo_sizes(t, 100_000)
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "the memo was never cleared"
    ref, terminal = plain_steps(t, 100_000)
    assert len(ref) == len(sizes)
    assert run(t, 100_000) == (sum(ref), terminal, len(ref))
    assert sx.print_term(terminal) == "(ret 304)"


def test_memo_never_holds_more_than_its_cap():
    """A loop on ever new numerals misses on every argument it substitutes."""
    t = parse(COUNTING_LOOP)
    sizes = memo_sizes(t, 100_000)
    assert len(sizes) == 100_000
    assert max(sizes) == mc.SUBST_MEMO_CAP
    assert run(t, 5000) is None
