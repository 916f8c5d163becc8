"""Denotational layer: delay structure, cost monad, interpreter.

Law tests compare delays observationally at a fuel ladder that straddles
each side's settling point, so they check both the settled answer and the
unsettled prefix (a law that held only at large fuel would fail here).
"""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import costpcf.denote as dn
import costpcf.harness as hz
import costpcf.machine as mc
import costpcf.syntax as sx
from costpcf.cost import DEFAULT_MODEL, STAR, CostModel, Phase, vector_monoid
from costpcf.denote import (
    DIVERGES, Done, EXHAUSTED, FunComp, Later, VBool, VNum, VTriv,
    bindT, bottom, charge, denote, denote_closed, eta, ground_json,
    laters_needed, observe, unwind,
)

EXT = DEFAULT_MODEL.with_phase(Phase.EXTENSIONAL)


def delays_equal(lhs, rhs, probe=120):
    """Exact observational agreement at every fuel on a straddling ladder."""
    pts = {0, 1, 2, probe}
    for d in (lhs, rhs):
        n = laters_needed(d, probe)
        if n is not None:
            pts.update({max(0, n - 1), n, n + 1})
    for f in sorted(pts):
        o1, o2 = observe(lhs, f), observe(rhs, f)
        # Diverges and Exhausted both mean "not Defined within f".
        if isinstance(o1, dn.Defined) != isinstance(o2, dn.Defined):
            return False
        if isinstance(o1, dn.Defined) and (o1.cost != o2.cost or o1.value != o2.value):
            return False
    return True


# ---------------------------------------------------------------------------
# Random delay trees

_VALUES = st.sampled_from([VNum(0), VNum(3), dn.TRIV, dn.V_YES])
_COSTS = st.integers(min_value=0, max_value=5)


def _inc(v):
    return dn.eta(VNum(v.n + 1)) if isinstance(v, VNum) else dn.eta(v)


KONTS = [
    dn.eta,
    lambda v: charge(3, eta(v)),
    lambda v: Later(lambda: eta(v)),
    _inc,
    lambda v: bottom(),
    lambda v: Later(lambda: charge(1, Later(lambda: eta(v)))),
]

_konts = st.sampled_from(KONTS)

delays = st.recursive(
    st.tuples(_COSTS, _VALUES).map(lambda cv: Done(cv[0], cv[1])),
    lambda sub: st.one_of(
        sub.map(lambda d: Later(lambda: d)),
        st.tuples(_COSTS, sub).map(lambda cd: charge(cd[0], cd[1])),
        st.tuples(sub, _konts).map(lambda dk: bindT(dk[0], dk[1])),
    ),
    max_leaves=6,
)


# ---------------------------------------------------------------------------
# Constructor and observation examples

def test_eta_spec_examples():
    assert eta(dn.TRIV) == Done(0, dn.TRIV)
    assert observe(eta(VNum(3)), 1) == dn.Defined(0, VNum(3))
    assert observe(Done(0, dn.TRIV), 0) == dn.Defined(0, dn.TRIV)


def test_charge_spec_examples():
    for k in (0, 1, 5):
        assert observe(charge(2, eta(dn.TRIV)), k) == dn.Defined(2, dn.TRIV)
    assert delays_equal(charge(0, eta(VNum(1))), eta(VNum(1)))
    # charging cannot make bottom settle
    assert laters_needed(charge(9, bottom()), 300) is None


def test_bindT_spec_examples():
    d = bindT(charge(2, eta(dn.TRIV)), lambda _: charge(3, eta(dn.TRIV)))
    assert observe(d, 10) == dn.Defined(5, dn.TRIV)
    assert laters_needed(bindT(bottom(), dn.eta), 300) is None


def test_observe_bottom_exhausts():
    assert observe(bottom(), 10**6) is DIVERGES
    assert observe(bottom(), 0) is EXHAUSTED


def test_charge_accumulates_left_to_right():
    d = charge(1, charge(2, charge(3, eta(dn.TRIV))))
    assert observe(d, 0) == dn.Defined(6, dn.TRIV)


def test_charge_preserves_later_structure():
    d = Later(lambda: Later(lambda: eta(VNum(7))))
    assert laters_needed(d, 10) == 2
    assert laters_needed(charge(4, d), 10) == 2
    assert laters_needed(bindT(d, dn.eta), 10) == 2


# ---------------------------------------------------------------------------
# Monad and algebra laws

@settings(max_examples=300, deadline=None)
@given(_VALUES, _konts)
def test_left_unit(a, k):
    assert delays_equal(bindT(eta(a), k), k(a))


@settings(max_examples=300, deadline=None)
@given(delays)
def test_right_unit(d):
    assert delays_equal(bindT(d, dn.eta), d)


@settings(max_examples=300, deadline=None)
@given(delays, _konts, _konts)
def test_associativity(d, f, g):
    assert delays_equal(
        bindT(bindT(d, f), g),
        bindT(d, lambda a: bindT(f(a), g)),
    )


@settings(max_examples=300, deadline=None)
@given(_COSTS, delays, _konts)
def test_charge_commutes_with_bind(c, d, k):
    # f#(c (+) e) = c (+) f#(e)
    assert delays_equal(bindT(charge(c, d), k), charge(c, bindT(d, k)))


@settings(max_examples=200, deadline=None)
@given(_COSTS, _COSTS, delays)
def test_charge_composes_additively(c1, c2, d):
    assert delays_equal(charge(c1, charge(c2, d)), charge(c1 + c2, d))


def test_charged_function_applies_pointwise():
    # (c (+) f)(a) = c (+) f(a), stated on the algebra carrier
    fn = FunComp(lambda v: charge(1, eta(v)))
    lhs = charge(2, fn).apply(VNum(4))
    rhs = charge(2, fn.apply(VNum(4)))
    assert delays_equal(lhs, rhs)


@settings(max_examples=300, deadline=None)
@given(delays, _konts, _VALUES)
def test_bind_at_a_function_type_applies_pointwise(d, k, v):
    # bindT(d, \a. f_a)(v) = bindT(d, \a. f_a(v)), f_a returning k's result then a
    def fn(a):
        return FunComp(lambda w: bindT(k(w), lambda _: eta(a)))

    assert delays_equal(bindT(d, fn).apply(v), bindT(d, lambda a: fn(a).apply(v)))


@pytest.mark.parametrize("src, outcome, laters", [
    # The argument reaches the loop's guard through a bind at a function type.
    ("(ap (bind (step 2 (ret triv)) u (fix f (lam nat n (ap f n)))) 0)", DIVERGES, 1),
    # ... and through a charge at a function type.
    ("(ap (step 3 (fix f (lam nat n (ifz n (ret n) p (step 1 (ap f p)))))) 4)",
     dn.Defined(7, VNum(0)), 4),
])
def test_applying_a_charged_or_sequenced_function(src, outcome, laters):
    t = sx.parse(src)
    assert unwind(denote_closed(t).to_delay(), 1000) == (outcome, laters)
    assert hz.check_soundness([(src, t)], 1000) == hz.CheckReport("soundness", 1, ())


# Fuels at which one unwinding is checked to decide every fuel below it.
CAPS = (0, 1, 2, 3, 7, 40)


def assert_unwind_decides_every_fuel(d, model=DEFAULT_MODEL):
    """`observe(d, f)` is what `unwind(d, cap)` implies for it, at every f
    from 0 to cap + 1, for every cap in CAPS."""
    for cap in CAPS:
        o, u = unwind(d, cap, model)
        if o is EXHAUSTED:
            assert u == cap
        for f in range(cap + 2):
            if o is DIVERGES:
                want = DIVERGES if f > u else EXHAUSTED
            elif isinstance(o, dn.Defined):
                want = o if f >= u else EXHAUSTED
            elif f <= cap:
                want = EXHAUSTED
            else:
                continue  # Exhausted at the cap says nothing above it
            assert observe(d, f, model) == want, (cap, o, u, f)


@pytest.mark.parametrize("model", [DEFAULT_MODEL, CostModel(vector_monoid(2))],
                         ids=["nat", "vec2"])
@pytest.mark.parametrize("seed", [1, 2, 3, 47])
def test_unwind_decides_every_fuel_on_generated_law_delays(seed, model):
    """The delays the laws suite compares, divergent leaves included."""
    rng = random.Random(seed)
    kinds = set()
    for _ in range(60):
        d = hz._gen_delay(rng, model, 4)
        assert_unwind_decides_every_fuel(d, model)
        kinds.add(type(unwind(d, 40, model)[0]))
    assert {dn.Defined, dn.Diverges} <= kinds


@settings(max_examples=300, deadline=None)
@given(delays, st.integers(0, 30))
def test_fuel_monotonicity(d, extra):
    assert_unwind_decides_every_fuel(d)
    n = laters_needed(d, 60)
    if n is None:
        if observe(d, 60) is DIVERGES:  # a proof holds at any larger fuel
            assert observe(d, 60 + extra) is DIVERGES
        else:
            assert observe(d, 60) is EXHAUSTED
        return
    settled = observe(d, n)
    assert isinstance(settled, dn.Defined)
    assert observe(d, n + extra) == settled
    if n:
        assert observe(d, n - 1) is EXHAUSTED  # settling point is tight


# ---------------------------------------------------------------------------
# Interpreter

def test_denote_spec_examples():
    c = denote_closed(sx.parse("(step 2 (ret triv))"))
    assert c.to_delay() is c  # a returner denotes its own delay
    assert observe(c.to_delay(), 5) == dn.Defined(2, dn.TRIV)

    c = denote_closed(sx.Ifz(sx.ZERO, sx.Ret(sx.YES), sx.Ret(sx.NO)))
    assert observe(c.to_delay(), 5) == dn.Defined(0, dn.V_YES)

    d = denote_closed(sx.Fix(sx.Var(0))).to_delay()
    assert observe(d, 1000) is DIVERGES
    assert laters_needed(d, 500) is None


def test_denote_under_environment():
    d = denote((sx.NAT,), sx.Ret(sx.Var(0)), (VNum(4),))
    assert observe(d.to_delay(), 1) == dn.Defined(0, VNum(4))
    v = denote((sx.NAT,), sx.Succ(sx.Var(0)), (VNum(4),))
    assert v == VNum(5)


def test_functions_denote_to_applicables():
    f = denote_closed(sx.parse("(lam nat x (step 1 (ret (succ x))))"))
    assert isinstance(f, FunComp)
    out = f.apply(VNum(3)).to_delay()
    assert observe(out, 5) == dn.Defined(1, VNum(4))
    with pytest.raises(TypeError):
        f.to_delay()
    with pytest.raises(TypeError):
        denote_closed(sx.parse("(ret triv)")).apply(VNum(0))


def test_thunks_are_first_class():
    # a thunk argument forced in computation position
    prog = sx.parse("(lam (U (F nat)) x (bind x n (ret (succ n))))")
    f = denote_closed(prog)
    arg = denote_closed(sx.parse("(step 2 (ret 6))"))
    assert observe(f.apply(arg).to_delay(), 10) == dn.Defined(2, VNum(7))


def test_a_thunk_denotes_its_own_computation():
    """[[U X]] = [[X]]: a returned function is its FunComp, and a forced
    variable is its environment entry itself."""
    answer = observe(denote_closed(sx.parse("(ret (lam nat x (ret x)))")), 1)
    assert isinstance(answer.value, FunComp)
    d = denote_closed(sx.parse("(step 2 (ret 6))"))
    assert denote((sx.U(sx.F(sx.NAT)),), sx.Var(0), [d]) is d


def test_fix_unfolds_one_later_per_reentry():
    """The slope of fuel against recursion depth is exactly one."""
    def countdown(n):
        return sx.parse(
            f"(ap (fix r (lam nat n (ifz n (ret triv) p (step 1 (ap r p))))) {n})")
    for n in range(5):
        d = denote_closed(countdown(n)).to_delay()
        assert laters_needed(d, 100) == n
        assert observe(d, 100) == dn.Defined(n, dn.TRIV)


@pytest.mark.parametrize("name", ["omega.pcf", "ticking_loop.pcf", "countdown3.pcf"])
def test_reobserving_a_fix_denotation_matches_a_fresh_one(name):
    """A guard shares one Later across re-entries; observing the same
    denotation again, at any fuel, answers as a fresh denotation does."""
    t = dict(hz.load_corpus())[name]
    shared = denote_closed(t).to_delay()
    for _ in range(2):
        for fuel in range(12):
            assert observe(shared, fuel) == observe(denote_closed(t).to_delay(), fuel)
        assert laters_needed(shared, 12) == laters_needed(denote_closed(t).to_delay(), 12)
    assert laters_needed(shared, 12) == (3 if name == "countdown3.pcf" else None)


def test_guard_reuses_its_later():
    d = denote_closed(sx.parse("(fix x x)")).to_delay()
    assert d.thunk().to_delay() is d  # the unwrap re-enters the same guard
    assert observe(d, 50) is DIVERGES


def test_observe_accepts_a_later_subclass(monkeypatch):
    calls = []

    class CountedLater(Later):
        def __init__(self, thunk):
            def counted():
                calls.append(1)
                return thunk()
            super().__init__(counted)

    d = Later(lambda: CountedLater(lambda: charge(2, eta(VNum(1)))))
    assert observe(d, 1) is EXHAUSTED
    assert observe(d, 2) == dn.Defined(2, VNum(1))
    assert laters_needed(bindT(d, dn.eta), 5) == 2
    # Swapped in for the module's Later, as a tracer does: every unwrap counts.
    monkeypatch.setattr(dn, "Later", CountedLater)
    calls.clear()
    t = dict(hz.load_corpus())["countdown3.pcf"]
    assert observe(denote_closed(t).to_delay(), 10) == dn.Defined(3, dn.TRIV)
    assert len(calls) == 3


def test_ticking_loop_charges_but_never_settles():
    omega_prime = sx.Fix(sx.Step(1, sx.Var(0)))
    d = denote_closed(omega_prime).to_delay()
    for fuel in (0, 1):
        assert observe(d, fuel) is EXHAUSTED
    for fuel in (10, 1000):
        assert observe(d, fuel) is DIVERGES
    # cross-check: the machine's running total grows without bound
    t100 = mc.trace(omega_prime, 100).total
    t200 = mc.trace(omega_prime, 200).total
    assert 0 < t100 < t200


def test_agreement_with_machine_on_simple_programs():
    for src in ("(ret triv)", "(step 4 (ret triv))",
                "(bind (step 1 (ret triv)) u (step 2 (ret triv)))"):
        t = sx.parse(src)
        m = mc.settle(t, 100)[0]
        d = observe(denote_closed(t).to_delay(), 100)
        assert isinstance(m, dn.Defined) and isinstance(d, dn.Defined)
        assert m.value == sx.Ret(sx.TRIV)
        assert m.cost == d.cost


def test_extensional_collapse_on_corpus():
    for name, t in hz.load_corpus():
        try:
            target = hz._ground_f_type(t, DEFAULT_MODEL)
        except Exception:
            target = None
        if target is None:
            continue
        oi = observe(denote_closed(t).to_delay(), 3000)
        oe = observe(denote_closed(t, EXT).to_delay(), 3000, EXT)
        if not isinstance(oi, dn.Defined):
            assert oe is oi, name
            continue
        assert isinstance(oe, dn.Defined), name
        assert oe.value == oi.value, name
        assert EXT.show(oe.cost) == "*", name


def test_ground_json_forms():
    assert ground_json(VNum(7)) == 7
    assert ground_json(dn.V_YES) == "yes"
    assert ground_json(dn.V_NO) == "no"
    assert ground_json(dn.TRIV) == "triv"
    assert ground_json(denote_closed(sx.parse("(ret triv)"))) is None


def test_semantic_value_equality_is_structural_at_ground():
    assert VNum(3) == VNum(3)
    assert VNum(3) != VNum(4)
    assert VBool(True) == dn.V_YES
    assert VTriv() == dn.TRIV


# ---------------------------------------------------------------------------
# Repeat check: `observe` may answer Diverges, but only where the reference
# answers Exhausted at that fuel and with 2000 Laters more.

EXACT_FUELS = (0, 1, 2, 3, 7, 64, 2000)


def plain_unwind(d, fuel, model=DEFAULT_MODEL):
    """(outcome, Laters used), spending every unit of fuel: no repeat check."""
    pending, stack, used = model.zero(), [], 0
    while True:
        if isinstance(d, Later):
            if used == fuel:
                return EXHAUSTED, used
            used += 1
            d = d.thunk()
        elif isinstance(d, dn._Charge):
            pending = model.add(pending, d.cost)
            d = d.inner
        elif isinstance(d, dn._Seq):
            stack.append(d.cont)
            d = d.head
        elif isinstance(d, dn.GuardComp):
            d = d.to_delay()
        elif stack:
            pending = model.add(pending, d.cost)
            d = stack.pop()(d.value)
        else:
            return dn.Defined(model.add(pending, d.cost), d.value), used


def returner_programs():
    programs = [(name, t) for name, t in hz.load_corpus()
                if hz._ground_f_type(t, DEFAULT_MODEL) is not None]
    for seed in (1, 2, 3):
        gen = hz.gen_programs(seed, 60, hz._GROUND_F, terminating_frac=0.0)
        programs += [(f"gen{seed}[{i}]", t) for i, (t, _) in enumerate(gen)]
    return programs


def matches_plain_unwind(got, want, far):
    """observe's answer `got` against the reference's `want` at one fuel and
    `far` at 2000 Laters more."""
    if got is DIVERGES:
        return want is EXHAUSTED and far is EXHAUSTED
    return got == want


def test_observe_matches_a_plain_unwinder():
    for name, t in returner_programs():
        d = denote_closed(t).to_delay()
        # Exhausted this far means Exhausted at every fuel + 2000 below.
        far = plain_unwind(denote_closed(t).to_delay(), max(EXACT_FUELS) + 2000)[0]
        for fuel in EXACT_FUELS:
            want, used = plain_unwind(denote_closed(t).to_delay(), fuel)
            assert matches_plain_unwind(observe(d, fuel), want, far), (name, fuel)
            assert laters_needed(d, fuel) == (None if want is EXHAUSTED else used), (name, fuel)


@settings(max_examples=300, deadline=None)
@given(delays, st.integers(0, 30))
def test_observe_matches_a_plain_unwinder_on_random_delays(d, fuel):
    want, used = plain_unwind(d, fuel)
    assert matches_plain_unwind(observe(d, fuel), want, plain_unwind(d, fuel + 2000)[0])
    assert laters_needed(d, fuel) == (None if want is EXHAUSTED else used)


def later_tripwire(monkeypatch, limit):
    """Swap in a Later that counts unwraps and fails past limit."""
    calls = []

    class Tripwire(Later):
        def __init__(self, thunk):
            def counted():
                calls.append(1)
                assert len(calls) <= limit, "the observation did not recognise its repeat"
                return thunk()
            super().__init__(counted)

    monkeypatch.setattr(dn, "Later", Tripwire)
    return calls


@pytest.mark.parametrize("src", [
    "(fix x x)",
    "(fix x (step 1 x))",
    "(bind (fix x (bind x y (ret triv))) z (ret triv))",  # grow_loop
    # passes its argument on unchanged, so the guard reuses one Later
    "(ap (fix r (lam nat x (ap r x))) 0)",
    # a closed numeral is one VNum, so each re-entry passes the same argument
    "(ap (fix r (lam nat x (ap r 3))) 0)",
    # a function-typed loop from the check all --seed 1 soundness programs
    "(ap (ifz 4 (step 3 (lam (U (F nat)) x (ret zero))) x (fix x1 (step 5 x1)))"
    " (step 5 (ifz zero (ret zero) x (ret zero))))",
])
def test_observe_recognises_a_repeating_later(monkeypatch, src):
    t = sx.parse(src)
    calls = later_tripwire(monkeypatch, 300)
    assert observe(denote_closed(t).to_delay(), 10**9) is DIVERGES
    assert laters_needed(denote_closed(t).to_delay(), 10**9) is None
    assert len(calls) <= 300


@pytest.mark.parametrize("name, laters", [
    ("countdown3.pcf", 3), ("countdown5.pcf", 5), ("ackermann.pcf", 26)])
def test_observe_does_not_flag_a_recursion_on_new_arguments(name, laters):
    t = dict(hz.load_corpus())[name]
    d = denote_closed(t).to_delay()
    assert laters_needed(d, 10**6) == laters
    assert observe(d, laters - 1) is EXHAUSTED
    assert isinstance(observe(d, 10**6), dn.Defined)


def test_a_continuation_returning_the_later_it_follows_is_not_a_repeat():
    """The second unwrap meets the first Later again, but only after the
    continuation pushed before it was popped."""
    later = Later(lambda: eta(VNum(1)))
    d = bindT(later, lambda v: later)
    assert observe(d, 1) is EXHAUSTED
    assert observe(d, 2) == dn.Defined(0, VNum(1))
    assert laters_needed(d, 100) == 2


def test_repeat_check_compares_laters_by_identity():
    """Laters with one thunk are equal (==); only the same object is a
    repeat.  This thunk counts down, rebuilding an equal Later each time."""
    left = [3]

    def thunk():
        left[0] -= 1
        return Later(thunk) if left[0] else eta(VNum(1))

    assert observe(Later(thunk), 10) == dn.Defined(0, VNum(1))


def test_guard_remembers_one_applied_guard():
    g = dn.GuardComp(lambda: FunComp(lambda v: eta(v)))
    refs = []
    for i in range(100):
        a = VNum(i)
        refs.append(weakref.ref(a))
        assert g.apply(a) is g.apply(a)
        assert observe(g.apply(a).to_delay(), 1) == dn.Defined(0, a)
    assert g.apply(VNum(0)) is not g.apply(VNum(0))  # equal is not enough
    del a
    gc.collect()
    assert sum(r() is not None for r in refs) == 0


# ---------------------------------------------------------------------------
# The code compiled for a node and cached on it

VEC2 = CostModel(vector_monoid(2))
VEC2_EXT = VEC2.with_phase(Phase.EXTENSIONAL)
# Every kind of computation node but `step`, whose cost literal would tie the
# parsed node to one monoid.
ALL_FORMS = ("(bind (ap (fix f (lam nat n (ifz n (ret (succ n)) p (ap f p)))) 3)"
             " r (bind (ret (lam nat x (ret x))) g (ap g r)))")


def answer(t, model):
    """The observation of `t`'s denotation under `model`, and its Later count."""
    d = denote_closed(t, model).to_delay()
    return observe(d, 100, model), laters_needed(d, 100, model)


@pytest.mark.parametrize("models", [
    (DEFAULT_MODEL, VEC2, EXT), (EXT, VEC2, DEFAULT_MODEL)], ids=["nat-first", "ext-first"])
def test_one_compiled_node_serves_every_cost_model(models):
    t = sx.parse(ALL_FORMS)
    for model in models:
        got = answer(t, model)
        assert got == answer(sx.parse(ALL_FORMS), model)
        assert got[0].value == VNum(1) and got[1] == 3
        assert got[0].cost == {DEFAULT_MODEL: 0, VEC2: (0, 0), EXT: STAR}[model]
    assert EXT.show(answer(t, EXT)[0].cost) == "*"


@pytest.mark.parametrize("models", [(VEC2, VEC2_EXT), (VEC2_EXT, VEC2)],
                         ids=["int-first", "ext-first"])
def test_one_compiled_node_charges_under_each_phase(models):
    src = "(ap (fix f (lam nat n (ifz n (ret n) p (step [1,2] (ap f p))))) 3)"
    t = sx.parse(src, VEC2.monoid)
    for model in models:
        got = answer(t, model)
        assert got == answer(sx.parse(src, VEC2.monoid), model)
        assert got[0].cost == {VEC2: (3, 6), VEC2_EXT: STAR}[model]


@pytest.mark.parametrize("name", [name for name, t in hz.load_corpus()
                                  if hz._ground_f_type(t, DEFAULT_MODEL) is not None])
def test_a_compiled_node_proves_repeats_as_a_fresh_parse_does(name):
    """Denoting one node twice, the second time from the code cached on it,
    and a fresh parse of the same program once: the same outcome after the
    same number of Laters, in particular the same proof of divergence."""
    t = dict(hz.load_corpus())[name]
    fresh = dict(hz.load_corpus())[name]
    runs = [unwind(denote_closed(u).to_delay(), 2000, DEFAULT_MODEL) for u in (t, t, fresh)]
    assert runs[0] == runs[1] == runs[2]
    needed = [laters_needed(denote_closed(u).to_delay(), 2000) for u in (t, t, fresh)]
    assert needed[0] == needed[1] == needed[2]
    if name in ("omega.pcf", "ticking_loop.pcf", "grow_loop.pcf"):
        assert runs[0][0] is DIVERGES and needed[0] is None
