"""Cost monoids and the phase seal.

The monoid laws are checked by randomized enumeration over every registered
instance; the phase tests pin the collapse behavior: under the extensional
phase there is exactly one observable cost.  A string monoid, which does
not commute, pins the order in which both semantics add costs.
"""

import random

import pytest

import costpcf.denote as dn
import costpcf.machine as mc
from costpcf.cost import (
    DEFAULT_MODEL, NAT_MONOID, STAR, CostModel, CostMonoid, Phase, get_monoid, vector_monoid,
)
from costpcf.outcome import Defined
from costpcf.syntax import TRIV, Ret, parse

EXT = DEFAULT_MODEL.with_phase(Phase.EXTENSIONAL)


def _samples(monoid, rng, n):
    return [monoid.sample(rng, 0, 50) for _ in range(n)]


@pytest.mark.parametrize("name", ["nat", "vec:1", "vec:3"])
def test_monoid_laws_randomized(name):
    m = get_monoid(name)
    rng = random.Random(hash(name) & 0xFFFF)
    xs = _samples(m, rng, 1000)
    for i in range(1000):
        a, b, c = xs[i], xs[(i * 7 + 1) % 1000], xs[(i * 13 + 5) % 1000]
        assert m.add(m.add(a, b), c) == m.add(a, m.add(b, c))
        assert m.add(m.zero, a) == a
        assert m.add(a, m.zero) == a
        # == is a congruence for add
        if a == b:
            assert m.add(a, c) == m.add(b, c)


def test_nat_monoid_spec_examples():
    assert DEFAULT_MODEL.add(2, 3) == 5
    assert DEFAULT_MODEL.add(0, 7) == 7
    assert DEFAULT_MODEL.eq(4, 4)
    assert not DEFAULT_MODEL.eq(4, 5)
    assert NAT_MONOID.parse("7") == 7
    assert NAT_MONOID.contains(3)
    assert not NAT_MONOID.contains((1, 2))
    assert not NAT_MONOID.contains(-1)
    assert not NAT_MONOID.contains("3")


def test_vector_monoid_spec_examples():
    v2 = vector_monoid(2)
    assert v2.add((1, 0), (0, 3)) == (1, 3)
    assert v2.zero == (0, 0)
    assert v2.parse("[1,0]") == (1, 0)
    assert v2.show((1, 3)) == "[1,3]"
    assert v2.contains((1, 2))
    assert not v2.contains((1, 2, 3))
    assert not v2.contains(5)


def test_extensional_phase_collapses():
    # zero() keeps the monoid representation so accumulation still runs;
    # every observation (add result, eq, show) is sealed.
    assert EXT.add(STAR, STAR) is STAR
    assert EXT.add(2, 3) is STAR
    assert EXT.add(EXT.zero(), EXT.zero()) is STAR
    assert EXT.eq(STAR, STAR)
    assert EXT.eq(EXT.zero(), STAR)
    assert EXT.eq(2, 3)
    assert EXT.show(EXT.zero()) == "*"
    # intensionally the sealed point stays distinguishable from raw costs
    assert not DEFAULT_MODEL.eq(STAR, 5)
    assert DEFAULT_MODEL.eq(STAR, STAR)
    assert DEFAULT_MODEL.add(STAR, 4) is STAR  # sealing absorbs


def test_star_is_a_singleton():
    assert type(STAR)() is STAR
    assert DEFAULT_MODEL.show(STAR) == "*"
    assert EXT.show(EXT.zero()) == "*"


def test_noninterference_kernel():
    """Random expressions over raw and sealed costs, evaluated extensionally,
    always produce the single collapsed point."""
    rng = random.Random(3)

    def expr(depth):
        if depth <= 0:
            return rng.choice((EXT.zero(), STAR, rng.randrange(100)))
        return EXT.add(expr(depth - 1), expr(depth - 1))

    outputs = {EXT.show(expr(rng.randint(0, 5))) for _ in range(500)}
    assert outputs == {"*"}


def test_registry():
    assert get_monoid("nat") is NAT_MONOID
    assert get_monoid("vec:2").name == "vec:2"
    with pytest.raises(ValueError):
        get_monoid("bogus")
    with pytest.raises(ValueError):
        get_monoid("vec:0")


@pytest.mark.parametrize("name", ["vec:\u0663", "vec:\uff13", "vec:1_0", "vec: 3", "vec:+3", "vec:"])
def test_vector_width_is_ascii_digits_only(name):
    """int() would read these as 3 or 10; a width is ASCII digits only."""
    with pytest.raises(ValueError, match="expected vec:<k>"):
        get_monoid(name)


def test_model_json_forms():
    assert DEFAULT_MODEL.to_json(5) == 5
    vec = CostModel(monoid=vector_monoid(2))
    assert vec.to_json((1, 3)) == [1, 3]
    assert EXT.to_json(EXT.zero()) == "*"


def test_with_phase_is_nondestructive():
    m = DEFAULT_MODEL.with_phase(Phase.EXTENSIONAL)
    assert m.phase is Phase.EXTENSIONAL
    assert DEFAULT_MODEL.phase is Phase.INTENSIONAL
    assert m.extensional and not DEFAULT_MODEL.extensional
    assert m == CostModel(DEFAULT_MODEL.monoid, Phase.EXTENSIONAL)
    assert m.monoid is DEFAULT_MODEL.monoid


# Words under concatenation: "ab" and "ba" differ, so a sum shows its order.
WORDS = CostModel(CostMonoid(
    name="words", zero="", add=lambda a, b: a + b, parse=str, show=str,
    contains=lambda c: isinstance(c, str),
    sample=lambda rng, lo=0, hi=9: "xyz"[rng.randint(0, 2)] * rng.randint(lo, hi),
))


@pytest.mark.parametrize("src, want", [
    ("(bind (step a (ret triv)) x (step b (step c (ret x))))", "abc"),
    # b charges a bind, so observing meets it as a charge node after "a".
    ("(bind (step a (ret triv)) x (step b (bind (step c (ret triv)) y (step d (ret y)))))",
     "abcd"),
])
def test_both_semantics_add_costs_left_to_right(src, want):
    t = parse(src, WORDS.monoid)
    outcome, used, _ = mc.settle(t, 20, WORDS)
    assert outcome == Defined(want, Ret(TRIV))
    tr = mc.trace(t, 20, WORDS, terms=False)
    assert "".join(c for c, _, _ in tr.steps) == want
    assert (tr.total, tr.truncated, len(tr.steps)) == (want, False, used)
    d = dn.denote_closed(t, WORDS).to_delay()
    assert dn.observe(d, 20, WORDS) == Defined(want, dn.TRIV)
