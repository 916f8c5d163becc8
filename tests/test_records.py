"""The record contract of the fast-constructing records (`records.record`).

Term nodes, delay nodes, semantic values, `Defined`, `Next`, the compound
types and the type checker's judgments must behave exactly as the frozen
dataclasses they are: the same repr, equality, hash, field list, match
arguments and immutability.  The printer reads the field list, pinned
stdout reads the reprs, and the machine, the denotation, the type checker
and the harness compare records with `==`.
"""

import dataclasses
import weakref

import pytest

import costpcf.denote as dn
import costpcf.machine as mc
import costpcf.outcome as oc
import costpcf.syntax as sx
import costpcf.typecheck as tc

# Every class made by `records.record`, with its fields in order.
FIELDS = {
    sx.Var: ("index",),
    sx.Succ: ("arg",),
    sx.Ret: ("arg",),
    sx.Step: ("cost", "body"),
    sx.Bind: ("head", "cont"),
    sx.Ifz: ("scrut", "zcase", "scase"),
    sx.Fix: ("body",),
    sx.Lam: ("dom", "body"),
    sx.Ap: ("fun", "arg"),
    dn.Done: ("cost", "value"),
    dn.Later: ("thunk",),
    dn._Charge: ("cost", "inner"),
    dn._Seq: ("head", "cont"),
    dn.VNum: ("n",),
    dn.VBool: ("flag",),
    oc.Defined: ("cost", "value"),
    mc.Next: ("cost", "term"),
    sx.U: ("comp",),
    sx.F: ("value",),
    sx.Arrow: ("dom", "cod"),
    tc.Value: ("type",),
    tc.Computation: ("type",),
    tc.TypeJudgment: ("context", "subject", "classification"),
}
TERM_NODES = [cls for cls in FIELDS if issubclass(cls, sx._Node)]
TYPE_RECORDS = (sx.U, sx.F, sx.Arrow, tc.Value, tc.Computation, tc.TypeJudgment)
LEAVES = (sx.Yes, sx.No, sx.Zero, sx.Triv)

records = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


def value(cls, i):
    """A distinct value for a field of `cls`: a variable in a compound term
    node, whose `__init__` reads its children's ranges; otherwise an int."""
    return sx.Var(i) if issubclass(cls, sx._Node) and cls is not sx.Var else i


def values(cls, offset=0):
    return [value(cls, i) for i in range(1 + offset, 1 + offset + len(FIELDS[cls]))]


def sample(cls, offset=0):
    """A record of `cls` whose fields hold distinct values."""
    return cls(*values(cls, offset))


@records
def test_fields_are_listed_in_order(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]


@records
def test_match_args_are_the_fields(cls):
    assert cls.__match_args__ == FIELDS[cls]


@records
def test_each_argument_lands_in_its_field(cls):
    r = sample(cls)
    assert [getattr(r, name) for name in FIELDS[cls]] == values(cls)
    by_keyword = cls(**dict(zip(FIELDS[cls], values(cls))))
    assert by_keyword == r
    assert dataclasses.replace(r) == r


@records
def test_repr_is_the_frozen_dataclass_repr(cls):
    plain = dataclasses.make_dataclass(cls.__name__, FIELDS[cls], frozen=True)
    assert repr(sample(cls)) == repr(plain(*values(cls)))


def test_reprs_in_pinned_output():
    assert repr(oc.Defined(1, dn.TRIV)) == "Defined(cost=1, value=VTriv)"
    assert repr(sx.parse("(step 1 (ret zero))")) == "Step(cost=1, body=Ret(arg=Zero()))"
    assert repr(dn.Done(0, dn.VNum(3))) == "Done(cost=0, value=VNum(n=3))"
    assert repr(mc.Next(0, sx.Var(2))) == "Next(cost=0, term=Var(index=2))"


@records
def test_equality_and_hash_read_every_field(cls):
    r = sample(cls)
    assert r == sample(cls) and hash(r) == hash(sample(cls))
    for i, name in enumerate(FIELDS[cls]):
        other = dataclasses.replace(r, **{name: value(cls, 100 + i)})
        assert r != other, f"{cls.__name__} == ignores {name}"
    assert r != sample(cls, offset=10)


def test_equality_and_hash_agree_with_a_fresh_parse():
    src = ("(bind (ap (fix f (lam nat n (ifz n (ret (succ n)) p (ap f p)))) 3)"
           " r (step 2 (ret r)))")
    a, b = sx.parse(src), sx.parse(src)
    assert a is not b and a == b and hash(a) == hash(b)
    sx.loose_range(a)
    dn.denote_closed(a)  # filling the caches changes neither
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != sx.parse(src.replace("step 2", "step 3"))


@records
def test_fields_cannot_be_assigned(cls):
    r = sample(cls)
    for name in FIELDS[cls]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, name)


@pytest.mark.parametrize("cls", TERM_NODES + list(LEAVES), ids=lambda cls: cls.__name__)
def test_term_nodes_have_only_slots(cls):
    node = sample(cls) if cls in FIELDS else cls()
    assert not hasattr(node, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        node._range = 3
    with pytest.raises(AttributeError):
        node.extra = 3


@pytest.mark.parametrize("cls", TYPE_RECORDS, ids=lambda cls: cls.__name__)
def test_types_and_judgments_have_only_slots(cls):
    r = sample(cls)
    assert not hasattr(r, "__dict__")
    with pytest.raises(AttributeError):
        r.extra = 3


# The loose range of `sample(cls)`, whose fields are Var(1), Var(2), Var(3)
# (Var's own sample is Var(1)): a binder before a field lowers its range by one.
SAMPLE_RANGES = {sx.Var: 2, sx.Succ: 2, sx.Ret: 2, sx.Step: 3, sx.Bind: 2, sx.Ifz: 3,
                 sx.Fix: 1, sx.Lam: 2, sx.Ap: 3}


@pytest.mark.parametrize("cls", TERM_NODES, ids=lambda cls: cls.__name__)
def test_range_is_known_and_code_empty_when_built(cls):
    node = sample(cls)
    assert node._range == SAMPLE_RANGES[cls] and node._code is None
    assert {"_range", "_code"}.isdisjoint(f.name for f in dataclasses.fields(cls))


def test_leaves_are_closed_and_never_compiled():
    for cls in LEAVES:
        assert cls()._range == 0 and cls()._code is None
        assert cls() == cls() and not dataclasses.fields(cls)


def test_ranges_and_compiled_code_are_read_back():
    t = sx.parse("(lam nat x (bind (ret x) y (ret y)))")
    assert sx.loose_range(t) == 0 and sx.loose_range(t.body.head) == 1
    assert t._code is None
    dn.denote_closed(t)
    code = t._code
    assert callable(code)
    dn.denote_closed(t)
    assert t._code is code


def test_a_subclass_that_calls_super_init_is_a_later():
    """The pattern of a tracer that counts every Later it sees unwrapped."""
    unwrapped = []

    class CountedLater(dn.Later):
        def __init__(self, thunk):
            def counted():
                unwrapped.append(1)
                return thunk()
            super().__init__(counted)

    d = CountedLater(lambda: dn.charge(2, CountedLater(lambda: dn.eta(dn.VNum(5)))))
    assert isinstance(d, dn.Later) and d.thunk is not None
    assert dn.observe(d, 1) == dn.EXHAUSTED
    assert dn.observe(d, 2) == dn.Defined(2, dn.VNum(5))
    assert len(unwrapped) == 3


def test_numbers_can_be_weakly_referenced():
    n = dn.VNum(7)
    ref = weakref.ref(n)
    assert ref() is n
