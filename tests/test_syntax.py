"""Syntax layer: parsing, printing, shifting, substitution.

The substitution tests are differential: a named-variable mirror of the term
language serves as the oracle.  Binder names in the mirror are globally
fresh, so naive textual replacement is capture-avoiding by construction, and
comparing results goes through a named -> de Bruijn conversion (alpha
equivalence for free).
"""

import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import costpcf.syntax as sx
from costpcf.syntax import (
    ANS, NAT, TRIV, UNIT, YES, ZERO,
    Ap, Arrow, Bind, F, Fix, Ifz, Lam, ParseError, Ret, Step, Succ, U, Var,
    loose_range, numeral, parse, parse_comp_type, print_comp_type, print_term,
    print_value_type, shift, subst,
)

# ---------------------------------------------------------------------------
# Named-term oracle

_fresh_counter = itertools.count()


def _gensym():
    return f"b{next(_fresh_counter)}"


def to_named(t, names):
    """De Bruijn -> named tuples; `names` lists the context, innermost first."""
    if isinstance(t, Var):
        return ("var", names[t.index])
    if isinstance(t, (sx.Yes, sx.No, sx.Zero, sx.Triv)):
        return (type(t).__name__.lower(),)
    if isinstance(t, Succ):
        return ("succ", to_named(t.arg, names))
    if isinstance(t, Ret):
        return ("ret", to_named(t.arg, names))
    if isinstance(t, Step):
        return ("step", t.cost, to_named(t.body, names))
    if isinstance(t, Bind):
        x = _gensym()
        return ("bind", to_named(t.head, names), x, to_named(t.cont, [x] + names))
    if isinstance(t, Ifz):
        x = _gensym()
        return ("ifz", to_named(t.scrut, names), to_named(t.zcase, names),
                x, to_named(t.scase, [x] + names))
    if isinstance(t, Fix):
        x = _gensym()
        return ("fix", x, to_named(t.body, [x] + names))
    if isinstance(t, Lam):
        x = _gensym()
        return ("lam", t.dom, x, to_named(t.body, [x] + names))
    if isinstance(t, Ap):
        return ("ap", to_named(t.fun, names), to_named(t.arg, names))
    raise TypeError(t)


def named_replace(n, name, repl):
    """Textual substitution; safe because binder names never collide with
    the free names used by the tests (g*) nor with repl's binders (all fresh)."""
    tag = n[0]
    if tag == "var":
        return repl if n[1] == name else n
    if tag in ("yes", "no", "zero", "triv"):
        return n
    if tag == "succ":
        return ("succ", named_replace(n[1], name, repl))
    if tag == "ret":
        return ("ret", named_replace(n[1], name, repl))
    if tag == "step":
        return ("step", n[1], named_replace(n[2], name, repl))
    if tag == "bind":
        return ("bind", named_replace(n[1], name, repl), n[2],
                named_replace(n[3], name, repl))
    if tag == "ifz":
        return ("ifz", named_replace(n[1], name, repl),
                named_replace(n[2], name, repl), n[3],
                named_replace(n[4], name, repl))
    if tag == "fix":
        return ("fix", n[1], named_replace(n[2], name, repl))
    if tag == "lam":
        return ("lam", n[1], n[2], named_replace(n[3], name, repl))
    if tag == "ap":
        return ("ap", named_replace(n[1], name, repl),
                named_replace(n[2], name, repl))
    raise TypeError(n)


def from_named(n, names):
    tag = n[0]
    if tag == "var":
        return Var(names.index(n[1]))
    if tag == "yes":
        return YES
    if tag == "no":
        return sx.NO
    if tag == "zero":
        return ZERO
    if tag == "triv":
        return TRIV
    if tag == "succ":
        return Succ(from_named(n[1], names))
    if tag == "ret":
        return Ret(from_named(n[1], names))
    if tag == "step":
        return Step(n[1], from_named(n[2], names))
    if tag == "bind":
        return Bind(from_named(n[1], names), from_named(n[3], [n[2]] + names))
    if tag == "ifz":
        return Ifz(from_named(n[1], names), from_named(n[2], names),
                   from_named(n[4], [n[3]] + names))
    if tag == "fix":
        return Fix(from_named(n[2], [n[1]] + names))
    if tag == "lam":
        return Lam(n[1], from_named(n[3], [n[2]] + names))
    if tag == "ap":
        return Ap(from_named(n[1], names), from_named(n[2], names))
    raise TypeError(n)


# Untyped but well-scoped random terms; substitution is purely syntactic so
# typability is irrelevant here.
def random_term(rng, nvars, depth):
    leaves = [ZERO, TRIV, YES, sx.NO]
    if nvars:
        leaves += [Var(rng.randrange(nvars)) for _ in range(2)]
    if depth <= 0:
        return rng.choice(leaves)
    kind = rng.choice(
        ["leaf", "succ", "ret", "step", "bind", "ifz", "fix", "lam", "ap"])
    sub = lambda extra=0, d=None: random_term(
        rng, nvars + extra, depth - 1 if d is None else d)
    if kind == "leaf":
        return rng.choice(leaves)
    if kind == "succ":
        return Succ(sub())
    if kind == "ret":
        return Ret(sub())
    if kind == "step":
        return Step(rng.randrange(4), sub())
    if kind == "bind":
        return Bind(sub(), sub(extra=1))
    if kind == "ifz":
        return Ifz(sub(), sub(), sub(extra=1))
    if kind == "fix":
        return Fix(sub(extra=1))
    if kind == "lam":
        return Lam(rng.choice((NAT, UNIT, ANS)), sub(extra=1))
    return Ap(sub(), sub())


def free_indices(t, n):
    """Brute force: the free de Bruijn indices of `t`, in a context of `n`."""
    def names(x):
        if not isinstance(x, tuple) or not x or not isinstance(x[0], str):
            return set()
        if x[0] == "var":
            return {x[1]}
        return set().union(*map(names, x[1:]))
    context = [f"g{i}" for i in range(n)]
    return {context.index(g) for g in names(to_named(t, context)) if g in context}


def fresh_copy(t):
    """Rebuild `t` node by node, so that the copy shares no node with it."""
    if not isinstance(t, sx._Node):
        return t
    return type(t)(*(fresh_copy(getattr(t, f.name)) for f in dataclasses.fields(t)))


def test_subst_matches_named_oracle():
    rng = random.Random(20260814)
    for _ in range(200):
        n = rng.randint(1, 4)
        t = random_term(rng, n, rng.randint(1, 6))
        k = rng.randrange(n)
        r = random_term(rng, n - 1, rng.randint(0, 3))
        # replacement lives in the context with slot k removed
        full = [f"g{i}" for i in range(n)]
        smaller = full[:k] + full[k + 1:]
        expect = from_named(
            named_replace(to_named(t, full), f"g{k}", to_named(r, smaller)),
            smaller,
        )
        # cold caches, then the same objects with warm caches, then a fresh copy
        for tt, rr in ((t, r), (t, r), (fresh_copy(t), fresh_copy(r))):
            assert subst(tt, rr, k) == expect, print_term(t, n)


def test_shift_matches_named_oracle():
    # shift(t, by, c) reads t in its context with `by` fresh slots put in
    # at position c: indices below c stay, the others move up by `by`.
    rng = random.Random(20261018)
    for _ in range(150):
        n = rng.randint(0, 4)
        t = random_term(rng, n, rng.randint(0, 6))
        full = [f"g{i}" for i in range(n)]
        named = to_named(t, full)
        for by in (1, 2, 3):
            for c in range(n + 1):
                wider = full[:c] + [f"h{j}" for j in range(by)] + full[c:]
                expect = from_named(named, wider)
                cold = fresh_copy(t)
                assert shift(cold, by, c) == expect, (print_term(t, n), by, c)
                assert shift(cold, by, c) == expect  # warm caches


def test_loose_range_matches_free_index_scan():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 4)
        t = random_term(rng, n, rng.randint(0, 6))
        free = free_indices(t, n)
        want = 1 + max(free) if free else 0
        assert loose_range(t) == want, print_term(t, n)
        assert loose_range(t) == want  # from the cache


def test_subst_and_shift_return_terms_without_high_indices_unchanged():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(0, 4)
        t = random_term(rng, n, rng.randint(0, 6))
        r = random_term(rng, n, 2)
        free = free_indices(t, n)
        for k in range(n + 2):
            if all(i < k for i in free):
                assert subst(t, r, k) is t
                assert shift(t, 2, k) is t
    # untouched subterms and a closed replacement are shared, not rebuilt
    closed = parse("(lam nat x (ret x))")
    out = subst(Ap(closed, Var(0)), closed)
    assert out == Ap(closed, closed)
    assert out.fun is closed and out.arg is closed
    out = subst(Lam(NAT, Ap(Var(1), Var(0))), closed)
    assert out.body.fun is closed


def test_range_cache_is_invisible():
    rng = random.Random(13)
    for _ in range(200):
        t = random_term(rng, 2, rng.randint(0, 6))
        fresh = fresh_copy(t)
        loose_range(t)
        assert t == fresh and fresh == t
        assert hash(t) == hash(fresh)
        assert repr(t) == repr(fresh)
        assert print_term(t, 2) == print_term(fresh, 2)
    assert [f.name for f in dataclasses.fields(Lam)] == ["dom", "body"]


def test_subst_spec_examples():
    assert subst(Var(0), ZERO, 0) == ZERO
    assert subst(Succ(Var(0)), ZERO, 0) == Succ(ZERO)
    # closed replacement shifts to itself under the binder
    assert subst(Lam(NAT, Var(1)), ZERO, 0) == Lam(NAT, ZERO)
    # the binder's own variable is untouched
    assert subst(Lam(NAT, Var(0)), ZERO, 0) == Lam(NAT, Var(0))


def test_subst_after_shift_is_identity():
    # subst(shift(t, 1, k), r, k) == t: the shifted term never mentions slot k
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 3)
        t = random_term(rng, n, rng.randint(0, 5))
        k = rng.randint(0, n)
        r = random_term(rng, n, 2)
        assert subst(shift(t, 1, k), r, k) == t


def test_shift_by_zero_is_identity():
    rng = random.Random(8)
    for _ in range(100):
        t = random_term(rng, 2, 4)
        assert shift(t, 0) == t
        assert shift(t, 0, 3) == t


# ---------------------------------------------------------------------------
# Parse / print

def test_parse_spec_examples():
    assert parse("(ret zero)") == Ret(ZERO)
    assert parse("(step 2 (ret triv))") == Step(2, Ret(TRIV))
    assert parse("(lam nat x (ret x))") == Lam(NAT, Ret(Var(0)))


def test_print_spec_examples():
    assert print_term(Ret(ZERO)) == "(ret zero)"
    assert print_term(Fix(Var(0))) == "(fix x x)"
    assert print_term(Step(0, Ret(ZERO))) == "(step 0 (ret zero))"


def test_numerals_desugar_and_print():
    assert parse("(ret 3)") == Ret(Succ(Succ(Succ(ZERO))))
    assert numeral(3) == Succ(Succ(Succ(ZERO)))
    assert print_term(Ret(numeral(3))) == "(ret 3)"
    assert print_term(numeral(0)) == "zero"
    # a succ of a non-numeral stays symbolic
    assert print_term(Succ(Var(0)), depth=1) == "(succ x)"


def test_parse_binders_and_shadowing():
    t = parse("(bind (ret zero) x (bind (ret x) x (ret x)))")
    assert t == Bind(Ret(ZERO), Bind(Ret(Var(0)), Ret(Var(0))))
    t2 = parse("(lam nat x (lam ans y (ret x)))")
    assert t2 == Lam(NAT, Lam(ANS, Ret(Var(1))))
    # the inner x shadows the outer one, which is seen again once the inner
    # scope closes
    t3 = parse("(bind (ret zero) x (bind (ret triv) x (ret x)))")
    assert t3 == Bind(Ret(ZERO), Bind(Ret(TRIV), Ret(Var(0))))
    t4 = parse("(bind (ret zero) x (bind (bind (ret triv) x (ret x)) y (ret x)))")
    assert t4 == Bind(Ret(ZERO), Bind(Bind(Ret(TRIV), Ret(Var(0))), Ret(Var(1))))


def test_parse_comments_and_whitespace():
    src = "; header\n(bind (ret zero) n ; tail comment\n  (ret n))\n"
    assert parse(src) == Bind(Ret(ZERO), Ret(Var(0)))
    assert parse("(ret\r\n  zero)\r\n") == Ret(ZERO)


def test_parse_vector_cost_literals():
    from costpcf.cost import vector_monoid
    v2 = vector_monoid(2)
    assert parse("(step [1,0] (ret triv))", monoid=v2) == Step((1, 0), Ret(TRIV))
    assert parse("(step [1,\n0] (ret triv))", monoid=v2) == Step((1, 0), Ret(TRIV))
    assert print_term(Step((1, 0), Ret(TRIV))) == "(step [1,0] (ret triv))"


_KEYWORDS = ("succ", "ret", "step", "bind", "ifz", "fix", "lam", "ap")

# (source, monoid, msg, line, column, expected) of malformed inputs.  The
# first 23 are pinned from the parser as it stood before its grammar became
# one table; tests/test_cli.py pins their `typecheck` output.
PARSE_ERRORS = [
    ("", "nat", "empty input", 1, 1, ("term",)),
    ("(ret", "nat", "unexpected end of input", 1, 5, ("term",)),
    ("(ret zero", "nat", "unexpected end of input", 1, 10, (")",)),
    ("(ret zero) junk", "nat", "trailing input 'junk'", 1, 12, ()),
    (")", "nat", "unexpected ')'", 1, 1, ("term",)),
    ("(ifz zero (ret triv))", "nat", "')' is not a binder name", 1, 21, ("binder name",)),
    ("(step x (ret triv))", "nat", "'x' is not a natural number cost", 1, 7,
     ("nat cost literal",)),
    ("(lam nat (ret zero))", "nat", "'(' is not a binder name", 1, 10, ("binder name",)),
    ("(ret unbound)", "nat", "unbound variable 'unbound'", 1, 6, ()),
    # an unterminated '[' after a newline
    ("(ret\n  (step [1,0 (ret zero)))", "nat", "unterminated '[' literal", 2, 9, ("]",)),
    # a newline inside a cost literal does not count as a line
    ("(step [1,\n0] (ret y))", "vec:2", "unbound variable 'y'", 1, 19, ()),
    # a tab is one column
    ("\t(ret\t@)", "nat", "unexpected '@'", 1, 7, ("term",)),
    ("; a comment ( [\n(ret zero) ; tail\n(ret triv)", "nat", "trailing input '('", 3, 1, ()),
    ("(loop zero)", "nat", "unknown form 'loop'", 1, 2, _KEYWORDS),
    ("((ret zero))", "nat", "unknown form '('", 1, 2, _KEYWORDS),
    ("(lam nat ret (ret zero))", "nat", "'ret' is not a binder name", 1, 10, ("binder name",)),
    ("(lam bool x (ret x))", "nat", "unexpected 'bool' in value type", 1, 6,
     ("ans", "nat", "unit", "(")),
    ("(lam (U (G nat)) x (ret x))", "nat", "unexpected 'G' in computation type", 1, 10,
     ("F", "->")),
    # a carriage return is a blank
    ("(ret\r\n zero)\r\n)", "nat", "trailing input ')'", 3, 1, ()),
    ("(ret\r@)", "nat", "unexpected '@'", 1, 6, ("term",)),
    # ']' is a word character; '[' starts a literal even inside a word
    ("(ret a]b)", "nat", "unexpected 'a]b'", 1, 6, ("term",)),
    ("(ret zero[1])", "nat", "unexpected '[1]'", 1, 10, (")",)),
    ("(bind (ret zero) x)", "nat", "unexpected ')'", 1, 19, ("term",)),
    # a binder's scope ends where its form closes
    ("(bind (bind (ret zero) x (ret x)) y (ret x))", "nat", "unbound variable 'x'", 1, 42, ()),
    # a numeral is what `int` reads: a superscript digit is no digit
    ("(ret ²)", "nat", "unexpected '²'", 1, 6, ("term",)),
    ("(step ² (ret triv))", "nat", "'²' is not a natural number cost", 1, 7,
     ("nat cost literal",)),
    # a lone '[' is reported before any parsing, so before the unknown form
    ("(loop [1", "nat", "unterminated '[' literal", 1, 7, ("]",)),
]


@pytest.mark.parametrize("src, monoid, msg, line, column, expected", PARSE_ERRORS,
                         ids=[case[0] for case in PARSE_ERRORS])
def test_parse_errors(src, monoid, msg, line, column, expected):
    from costpcf.cost import get_monoid
    with pytest.raises(ParseError) as info:
        parse(src, get_monoid(monoid))
    e = info.value
    assert (e.msg, e.line, e.column, e.expected) == (msg, line, column, expected)


def test_non_terms_raise_type_error():
    for bad in (NAT, 3, None, F(NAT)):
        with pytest.raises(TypeError):
            print_term(bad)
        with pytest.raises(TypeError):
            loose_range(bad)


# Separators that a reflowed program puts between two tokens; each "\n" in
# them starts a line.
_SEPARATORS = (" ", "\n", "\t", "\r\n", "\r", "  ; c ( [\n\t", " ;\n\n")
_CANONICAL_TOKEN = re.compile(r"\[[^\]]*\]|[()]|[^ ()]+")


def _reflow(tokens, rng):
    """`tokens` joined by random separators, with a newline inside some
    vector literals; each token's (start, end) offsets; and the offsets of
    the newlines that start lines (none of those inside a literal)."""
    text, spans, breaks = "", [], []
    for tok in tokens:
        if text:
            sep = rng.choice(_SEPARATORS)
            breaks += [len(text) + j for j, c in enumerate(sep) if c == "\n"]
            text += sep
        if tok.startswith("[") and rng.random() < 0.5:
            tok = tok.replace(",", ",\n", 1)
        spans.append((len(text), len(text) + len(tok)))
        text += tok
    return text, spans, breaks


def _line_and_column(offset, breaks):
    """Counted from the offset: lines started before it, and its distance
    from the start of its line."""
    before = [b for b in breaks if b < offset]
    line_start = before[-1] + 1 if before else 0
    return len(before) + 1, offset - line_start + 1


def test_parse_error_positions_are_those_of_the_offending_token():
    from costpcf.cost import vector_monoid
    from costpcf.harness import gen_programs

    v2 = vector_monoid(2)
    targets = (F(UNIT), F(NAT), Arrow(NAT, F(NAT)))
    rng = random.Random(5)
    checked = 0
    for t, _target in gen_programs(14, 40, targets, 0.5, monoid=v2, depth_range=(2, 5)):
        tokens = _CANONICAL_TOKEN.findall(print_term(t))
        text, spans, breaks = _reflow(tokens, rng)
        assert parse(text, v2) == t
        for k in rng.sample(range(len(tokens)), min(6, len(tokens))):
            start, end = spans[k]
            bad = text[:start] + "@" + text[end:]
            with pytest.raises(ParseError) as info:
                parse(bad, v2)
            assert "'@'" in info.value.msg, bad
            assert (info.value.line, info.value.column) == _line_and_column(start, breaks), bad
            # cut off before token k: the error is at the end of input
            cut = text[:start]
            with pytest.raises(ParseError) as info:
                parse(cut, v2)
            if info.value.msg != "empty input":
                assert info.value.msg == "unexpected end of input", cut
                assert (info.value.line, info.value.column) == _line_and_column(len(cut), breaks)
            checked += 1
    assert checked > 150


def test_parse_error_carries_position_and_expectations():
    try:
        parse("(ret\n  @)")
    except ParseError as e:
        assert e.line == 2
        assert e.column >= 1
    else:
        pytest.fail("no ParseError")
    try:
        parse("(ret zero")
    except ParseError as e:
        assert e.expected  # nonempty expectation set
    else:
        pytest.fail("no ParseError")


def test_roundtrip_on_random_terms():
    rng = random.Random(99)
    for _ in range(300):
        t = random_term(rng, 0, rng.randint(0, 6))
        assert parse(print_term(t)) == t


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 6))
def test_roundtrip_property(seed, depth):
    t = random_term(random.Random(seed), 0, depth)
    assert parse(print_term(t)) == t


def test_type_printing_roundtrip():
    cases = [
        F(UNIT),
        F(NAT),
        Arrow(NAT, F(NAT)),
        Arrow(U(F(UNIT)), F(ANS)),
        Arrow(NAT, Arrow(ANS, F(U(Arrow(NAT, F(NAT)))))),
    ]
    for x in cases:
        assert parse_comp_type(print_comp_type(x)) == x
    assert print_value_type(U(F(UNIT))) == "(U (F unit))"


DEEP = 10 ** 4
DEEP_STEP_CHAIN = "(step 1 " * DEEP + "(ret triv)" + ")" * DEEP


def _spine(t, child):
    """How many nodes of `t`'s class lead down through `child`, and the node
    below them: a loop, since `==` on nested dataclasses recurses."""
    kind, n = type(t), 0
    while type(t) is kind:
        t, n = getattr(t, child), n + 1
    return n, t


def test_parse_nests_without_the_python_stack():
    assert _spine(parse(DEEP_STEP_CHAIN), "body") == (DEEP, Ret(TRIV))
    heads = parse("(bind " * DEEP + "(ret zero)" + " x (ret x))" * DEEP)
    assert _spine(heads, "head") == (DEEP, Ret(ZERO))
    # every binder in scope of the next, the innermost one named
    conts = parse("(bind (ret zero) x " * DEEP + "(ret x)" + ")" * DEEP)
    assert _spine(conts, "cont") == (DEEP, Ret(Var(0)))
    outer = parse("(bind (ret zero) y " + "(bind (ret zero) x " * DEEP + "(ret y)" + ")" * (DEEP + 1))
    assert _spine(outer, "cont") == (DEEP + 1, Ret(Var(DEEP)))


def test_terms_are_hashable_and_immutable():
    t = parse("(step 1 (ret zero))")
    assert hash(t) == hash(Step(1, Ret(ZERO)))
    with pytest.raises(Exception):
        t.cost = 2
