"""Type system: inference, checking mode, error reporting, preservation."""

import json
import random

import pytest

import costpcf.harness as hz
import costpcf.machine as mc
import costpcf.syntax as sx
from costpcf.cost import NAT_MONOID, get_monoid, vector_monoid
from costpcf.syntax import (
    ANS, NAT, TRIV, UNIT, ZERO,
    Ap, Arrow, Bind, F, Fix, Ifz, Lam, Ret, Step, Succ, U, Var, parse,
    parse_comp_type,
)
from costpcf.typecheck import (
    Computation, TypeCheckError, Value, check_program, infer, program_type, show_type,
)


def test_infer_spec_examples():
    assert infer((), Ret(ZERO)).classification == Computation(F(NAT))
    assert infer((), Lam(NAT, Ret(Var(0)))).classification == Computation(Arrow(NAT, F(NAT)))
    with pytest.raises(TypeCheckError) as ei:
        infer((), Ap(Ret(ZERO), ZERO))
    assert "arrow" in str(ei.value)
    assert not ei.value.ambiguous


def test_check_program_spec_examples():
    check_program(Ret(TRIV), F(UNIT))
    check_program(Fix(Var(0)), F(UNIT))  # body Var 0 : U(F unit) |- F unit
    with pytest.raises(TypeCheckError):
        check_program(Ret(ZERO), F(UNIT))


def test_values_and_computations_classified():
    assert infer((), ZERO).classification == Value(NAT)
    assert infer((), sx.YES).classification == Value(ANS)
    assert infer((), Succ(Succ(ZERO))).classification == Value(NAT)
    assert infer((NAT,), Var(0)).classification == Value(NAT)
    # a computation used as a value reads as its thunk type
    th = infer((U(F(UNIT)),), Var(0))
    assert th.classification == Value(U(F(UNIT)))


def test_judgment_carries_inputs():
    j = infer((NAT,), Ret(Var(0)))
    assert j.context == (NAT,)
    assert j.subject == Ret(Var(0))


def test_bind_and_force():
    t = parse("(bind (ret zero) n (ret (succ n)))")
    assert infer((), t).classification == Computation(F(NAT))
    # forcing a thunk variable: computation position, U-type in context
    assert infer((U(F(NAT)),), Var(0), expected=F(NAT)).classification == Computation(F(NAT))
    # bind whose continuation returns an arrow
    t2 = Bind(Ret(ZERO), Lam(ANS, Ret(Var(0))))
    assert infer((), t2).classification == Computation(Arrow(ANS, F(ANS)))


def test_ifz_branch_agreement():
    good = Ifz(ZERO, Ret(sx.YES), Ret(sx.NO))
    assert infer((), good).classification == Computation(F(ANS))
    with pytest.raises(TypeCheckError) as ei:
        infer((), Ifz(ZERO, Ret(sx.YES), Ret(Var(0))))
    assert "branch" in str(ei.value) or "match" in str(ei.value)
    with pytest.raises(TypeCheckError):
        infer((), Ifz(sx.YES, Ret(ZERO), Ret(ZERO)))  # scrutinee not nat


def test_ambiguous_terms_flagged_and_resolved_by_checking():
    with pytest.raises(TypeCheckError) as ei:
        infer((), Fix(Var(0)))
    assert ei.value.ambiguous
    # checking mode pins every computation type
    for target in (F(UNIT), F(NAT), Arrow(NAT, F(ANS))):
        j = infer((), Fix(Var(0)), expected=target)
        assert j.classification == Computation(target)
    # interior metas that cancel out are not ambiguity
    t = Bind(Ap(Lam(NAT, Ret(Var(0))), ZERO), Ret(TRIV))
    assert infer((), t).classification == Computation(F(UNIT))


def test_checking_mode_rejects_wrong_expectation():
    with pytest.raises(TypeCheckError):
        infer((), Ret(ZERO), expected=F(UNIT))
    with pytest.raises(TypeCheckError):
        infer((), Lam(NAT, Ret(Var(0))), expected=F(NAT))


def test_step_cost_must_inhabit_active_monoid():
    vec = vector_monoid(2)
    t = Step((1, 0), Ret(TRIV))
    assert infer((), t, monoid=vec).classification == Computation(F(UNIT))
    with pytest.raises(TypeCheckError) as ei:
        infer((), t, monoid=NAT_MONOID)
    assert "cost" in str(ei.value)
    with pytest.raises(TypeCheckError):
        infer((), Step(3, Ret(TRIV)), monoid=vec)


def test_error_path_points_at_offender():
    t = Bind(Ret(ZERO), Ifz(sx.YES, Ret(TRIV), Ret(TRIV)))
    try:
        infer((), t)
    except TypeCheckError as e:
        assert e.path  # descends at least into the continuation
        assert e.path[0] == "cont"
    else:
        pytest.fail("no error")


def test_error_json_shape():
    try:
        infer((), Ap(Ret(ZERO), ZERO))
    except TypeCheckError as e:
        blob = json.loads(json.dumps(e.to_json()))
        assert blob["error"] == "type"
        assert isinstance(blob["at"], list)
        assert all(isinstance(p, str) for p in blob["at"])
        assert isinstance(blob["msg"], str)
    else:
        pytest.fail("no error")


# (source, monoid the source is parsed under, expected type or None for
# inference) -> the exact TypeCheckError.to_json() and its ambiguity flag.
TYPE_ERRORS = [
    ("3", "nat", "(F unit)",
     [], "expected computation of type F unit, found value of type nat", False),
    ("(fix x x)", "nat", None,
     [], "ambiguous type: add a surrounding context that determines it", True),
    ("(bind (fix x x) y (ret y))", "nat", None,
     [], "ambiguous type: add a surrounding context that determines it", True),
    ("(fix f (lam nat n (ap f n)))", "nat", None,
     [], "ambiguous type: add a surrounding context that determines it", True),
    ("(fix f (lam nat n (ap f n)))", "nat", "(F unit)",
     [], "expected type: nat -> ? does not match F unit", False),
    ("(ifz 0 (ret triv) p (ret p))", "nat", None,
     [], "ifz branches: unit does not match nat", False),
    ("(bind (fix x x) y (ifz y (ret triv) p (ret 3)))", "nat", None,
     ["cont"], "ifz branches: unit does not match nat", False),
    ("(ifz 0 (fix f (lam nat n (ap f n))) p (ret p))", "nat", None,
     [], "ifz branches: nat -> ? does not match F nat", False),
    ("(ap (ret triv) 3)", "nat", None,
     ["fun"], "ap head has type F unit, not an arrow", False),
    ("(bind (ret 3) x (ap (ret x) x))", "nat", None,
     ["cont", "fun"], "ap head has type F nat, not an arrow", False),
    ("(bind (lam nat n (ret n)) x (ret x))", "nat", None,
     ["head"], "bind head has type nat -> F nat, not an F type", False),
    ("(ret (lam nat n (ap n n)))", "nat", None,
     ["arg", "body", "fun"], "value of type nat used as a computation (not a thunk)", False),
    ("(ap (lam nat n (ret n)) yes)", "nat", None,
     ["arg"], "ap argument: ans does not match nat", False),
    ("(fix x (ret x))", "nat", None,
     [], "fix body: infinite type", False),
    ("(step [1,2] (ret triv))", "vec:2", None,
     [], "step cost (1, 2) is not an element of monoid nat", False),
    ("(ret (succ (succ yes)))", "nat", None,
     ["arg", "arg", "arg"], "succ argument: ans does not match nat", False),
]


@pytest.mark.parametrize("src,monoid,expected,at,msg,ambiguous", TYPE_ERRORS)
def test_type_errors_are_pinned(src, monoid, expected, at, msg, ambiguous):
    t = parse(src, get_monoid(monoid))
    expected = None if expected is None else parse_comp_type(expected)
    with pytest.raises(TypeCheckError) as ei:
        infer((), t, expected=expected)
    assert ei.value.to_json() == {"error": "type", "at": at, "msg": msg}
    assert ei.value.ambiguous is ambiguous


def test_error_paths_name_each_step_outermost_first():
    """The path of an error lists the field taken at each node from the root
    down, also under an open context and under a deep chain of nodes."""
    with pytest.raises(TypeCheckError) as ei:
        infer((NAT,), Ret(Var(3)))
    assert ei.value.to_json() == {"error": "type", "at": ["arg"], "msg": "unbound variable index 3"}
    deep = "(step 1 " * 500 + "(ap (ret triv) 3)" + ")" * 500
    with pytest.raises(TypeCheckError) as ei:
        infer((), parse(deep))
    assert ei.value.path == ("body",) * 500 + ("fun",)
    assert ei.value.msg == "ap head has type F unit, not an arrow"


def test_program_type_reads_an_open_type_at_f_unit():
    assert program_type(parse("(ret 3)")) == F(NAT)
    assert program_type(parse("(lam nat n (ret n))")) == Arrow(NAT, F(NAT))
    assert program_type(parse("3")) == NAT
    assert program_type(parse("(fix x x)")) == F(UNIT)
    assert program_type(parse("(bind (fix x x) y (ret y))")) == F(UNIT)
    # Open computation types read as F unit, open value types as unit.
    assert program_type(parse("(fix f (lam nat n (ap f n)))")) == Arrow(NAT, F(UNIT))
    assert program_type(parse("(ret (fix x x))")) == F(U(F(UNIT)))
    assert program_type(parse("(ap (fix x x) 3)")) == F(UNIT)


def test_show_type_strings():
    assert show_type(F(NAT)) == "F nat"
    assert show_type(Arrow(NAT, F(NAT))) == "nat -> F nat"
    assert show_type(Arrow(U(F(UNIT)), F(ANS))) == "(U (F unit)) -> F ans"
    assert show_type(U(F(UNIT))) == "U (F unit)"


def test_open_terms_and_scoping():
    with pytest.raises(TypeCheckError):
        infer((), Var(0))
    with pytest.raises(TypeCheckError):
        infer((NAT,), Var(1))
    assert infer((NAT, ANS), Var(1)).classification == Value(ANS)


def test_inference_is_deterministic_on_generated_programs():
    """Uniqueness: two runs agree; checking agrees with inference."""
    targets = (F(UNIT), F(NAT), F(ANS), Arrow(NAT, F(NAT)))
    rng = random.Random(515)
    for _ in range(300):
        target = targets[rng.randrange(len(targets))]
        cfg = hz.GenConfig(seed=rng.randrange(2**62), max_depth=rng.randint(0, 5),
                           target=target, terminating=True)
        t = hz.gen_term(cfg)
        a = infer((), t).classification
        b = infer((), t).classification
        assert a == b == Computation(target)


def check_preservation(t, target, steps):
    """Every state within `steps` transitions of closed t checks at `target`."""
    for _ in range(steps):
        r = mc.out(t)
        if isinstance(r, mc.Terminal):
            return
        t = r.term
        assert infer((), t, expected=target).classification == Computation(target), sx.print_term(t)


def test_preservation_along_corpus_traces():
    """Every machine transition keeps the program type (corpus and generated)."""
    for name, t in hz.load_corpus():
        try:
            target = infer((), t).classification.type
        except TypeCheckError as e:
            pytest.fail(f"{name}: {e}")
        if not isinstance(target, sx.F):
            continue  # terminal immediately; nothing to walk
        check_preservation(t, target, 60)
    for t, target in hz.gen_programs(2718, 200, hz._GROUND_F, 0.6, depth_range=(2, 8)):
        check_preservation(t, target, 25)
