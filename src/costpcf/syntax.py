"""Abstract and concrete syntax for the costed CBPV language.

Terms use de Bruijn indices (index 0 is the innermost binder).  Computation
terms double as values at thunk type, so there are no explicit thunk/force
constructors: a computation appearing in value position *is* the thunk.

Concrete syntax is fully parenthesized s-expressions with `;` line comments.
Binders carry names in concrete syntax only; the parser resolves them to
indices and the printer regenerates canonical names from binding depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class Ans:
    def __repr__(self) -> str:
        return "Ans"


@dataclass(frozen=True)
class Nat:
    def __repr__(self) -> str:
        return "Nat"


@dataclass(frozen=True)
class Unit:
    def __repr__(self) -> str:
        return "Unit"


@dataclass(frozen=True)
class U:
    comp: "CompType"


@dataclass(frozen=True)
class F:
    value: "ValueType"


@dataclass(frozen=True)
class Arrow:
    dom: "ValueType"
    cod: "CompType"


ValueType = Union[Ans, Nat, Unit, U]
CompType = Union[F, Arrow]

ANS = Ans()
NAT = Nat()
UNIT = Unit()


# ---------------------------------------------------------------------------
# Terms

# Cost literals are raw monoid elements: int for the nat monoid, tuple of
# ints for vector monoids.  The cost module interprets them.
Cost = Union[int, tuple]


class _Node:
    """Base of the term nodes: the class-level default of the loose-range cache.

    `_range` is a plain class attribute, not a dataclass field, so equality,
    hashing and repr never see it; `loose_range` sets a node's own value as
    an instance attribute the first time it is asked for.
    """

    _range = None


@dataclass(frozen=True)
class Var(_Node):
    index: int


@dataclass(frozen=True)
class Yes(_Node):
    _range = 0


@dataclass(frozen=True)
class No(_Node):
    _range = 0


@dataclass(frozen=True)
class Zero(_Node):
    _range = 0


@dataclass(frozen=True)
class Succ(_Node):
    arg: "Term"


@dataclass(frozen=True)
class Triv(_Node):
    _range = 0


@dataclass(frozen=True)
class Ret(_Node):
    arg: "Term"


@dataclass(frozen=True)
class Step(_Node):
    cost: Cost
    body: "Term"


@dataclass(frozen=True)
class Bind(_Node):
    head: "Term"
    cont: "Term"  # binds 1


@dataclass(frozen=True)
class Ifz(_Node):
    scrut: "Term"
    zcase: "Term"
    scase: "Term"  # binds 1 (the predecessor)


@dataclass(frozen=True)
class Fix(_Node):
    body: "Term"  # binds 1 (the recursive thunk)


@dataclass(frozen=True)
class Lam(_Node):
    dom: ValueType
    body: "Term"  # binds 1


@dataclass(frozen=True)
class Ap(_Node):
    fun: "Term"
    arg: "Term"


Term = Union[Var, Yes, No, Zero, Succ, Triv, Ret, Step, Bind, Ifz, Fix, Lam, Ap]

YES = Yes()
NO = No()
ZERO = Zero()
TRIV = Triv()

# Context: value types, innermost binder first.
Context = tuple


def numeral(n: int) -> Term:
    """Build the Zero/Succ chain for a natural number literal."""
    t: Term = ZERO
    for _ in range(n):
        t = Succ(t)
    return t


def as_numeral(t: Term):
    """Return the int a ground Zero/Succ chain denotes, or None."""
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.arg
    return n if isinstance(t, Zero) else None


# ---------------------------------------------------------------------------
# Binding: loose range, shift and substitution

def loose_range(t: Term) -> int:
    """1 + the largest free de Bruijn index of `t`, or 0 when `t` is closed.

    Computed once per node, on first request, and cached outside the
    dataclass fields (see `_Node`).  Nodes are immutable, so the cached value
    never goes stale.
    """
    r = getattr(t, "_range", None)
    if r is not None:
        return r
    if isinstance(t, Var):
        r = t.index + 1
    elif isinstance(t, (Succ, Ret)):
        r = loose_range(t.arg)
    elif isinstance(t, Step):
        r = loose_range(t.body)
    elif isinstance(t, Bind):
        r = max(loose_range(t.head), loose_range(t.cont) - 1)
    elif isinstance(t, Ifz):
        r = max(loose_range(t.scrut), loose_range(t.zcase), loose_range(t.scase) - 1)
    elif isinstance(t, (Fix, Lam)):
        r = max(loose_range(t.body) - 1, 0)
    elif isinstance(t, Ap):
        r = max(loose_range(t.fun), loose_range(t.arg))
    else:
        raise TypeError(f"not a term: {t!r}")
    # Not `t.__dict__[...]`: touching `__dict__` would give every node a
    # dictionary of its own, nearly doubling its memory.
    object.__setattr__(t, "_range", r)
    return r


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every free index >= cutoff.

    Returns `t` itself when it has no such index (`loose_range(t) <= cutoff`).
    Otherwise only the nodes above an index >= cutoff are rebuilt; every
    other subtree of the result is shared with `t`.
    """
    if loose_range(t) <= cutoff:
        return t
    if isinstance(t, Var):
        return Var(t.index + by)
    if isinstance(t, Succ):
        return Succ(shift(t.arg, by, cutoff))
    if isinstance(t, Ret):
        return Ret(shift(t.arg, by, cutoff))
    if isinstance(t, Step):
        return Step(t.cost, shift(t.body, by, cutoff))
    if isinstance(t, Bind):
        return Bind(shift(t.head, by, cutoff), shift(t.cont, by, cutoff + 1))
    if isinstance(t, Ifz):
        return Ifz(shift(t.scrut, by, cutoff), shift(t.zcase, by, cutoff),
                   shift(t.scase, by, cutoff + 1))
    if isinstance(t, Fix):
        return Fix(shift(t.body, by, cutoff + 1))
    if isinstance(t, Lam):
        return Lam(t.dom, shift(t.body, by, cutoff + 1))
    return Ap(shift(t.fun, by, cutoff), shift(t.arg, by, cutoff))


def subst(t: Term, replacement: Term, index: int = 0) -> Term:
    """Capture-avoiding substitution of `replacement` for de Bruijn `index`.

    `replacement` must be well-scoped in the context *outside* the eliminated
    binder; free indices of `t` above `index` shift down by one.  The shift
    applied at a hit is the number of binders crossed since the top-level
    call, not the current index (those differ whenever index > 0).

    A subterm with no free index >= the current index (`loose_range` at most
    that index) is returned as is, so `subst(t, r, k) is t` when `t` has no
    free index >= k, and the result shares every subtree that does not
    mention the eliminated index or one above it.  A closed replacement is
    returned by `shift` as is, so it is never walked and every hit shares it.

    The walker reads a node's cached range directly, and dispatches on exact
    node type, most frequent first: no class subclasses a term node.
    """
    def go(t: Term, index: int, depth: int) -> Term:
        r = t._range
        if r is None:
            r = loose_range(t)
        if r <= index:
            return t
        kind = type(t)
        if kind is Var:
            return shift(replacement, depth) if t.index == index else Var(t.index - 1)
        if kind is Ifz:
            return Ifz(go(t.scrut, index, depth), go(t.zcase, index, depth),
                       go(t.scase, index + 1, depth + 1))
        if kind is Ap:
            return Ap(go(t.fun, index, depth), go(t.arg, index, depth))
        if kind is Step:
            return Step(t.cost, go(t.body, index, depth))
        if kind is Bind:
            return Bind(go(t.head, index, depth), go(t.cont, index + 1, depth + 1))
        if kind is Lam:
            return Lam(t.dom, go(t.body, index + 1, depth + 1))
        if kind is Ret:
            return Ret(go(t.arg, index, depth))
        if kind is Succ:
            return Succ(go(t.arg, index, depth))
        return Fix(go(t.body, index + 1, depth + 1))

    # Fill the replacement's cache before descending: a hit deep inside `t`
    # must not recurse through the replacement on top of the stack so far.
    loose_range(replacement)
    return go(t, index, 0)


# ---------------------------------------------------------------------------
# Concrete syntax: lexer

class ParseError(Exception):
    def __init__(self, msg: str, line: int, column: int, expected=()):
        self.msg = msg
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        where = f"{line}:{column}"
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"parse error at {where}: {msg}{hint}")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    column: int


def _lex(source: str):
    """Tokens, and the (line, column) just past the last character."""
    toks = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            j = source.find("\n", i)
            j = n if j < 0 else j
            col += j - i
            i = j
        elif ch in "()":
            toks.append(_Tok(ch, line, col))
            col += 1
            i += 1
        elif ch == "[":
            j = source.find("]", i)
            if j < 0:
                raise ParseError("unterminated '[' literal", line, col, ("]",))
            toks.append(_Tok(source[i : j + 1], line, col))
            col += j + 1 - i
            i = j + 1
        else:
            j = i
            while j < n and source[j] not in " \t\r\n();[":
                j += 1
            toks.append(_Tok(source[i:j], line, col))
            col += j - i
            i = j
    return toks, (line, col)


class _Tokens:
    def __init__(self, toks, end):
        self._toks = toks
        self._pos = 0
        self._end = end

    def peek(self):
        return self._toks[self._pos] if self._pos < len(self._toks) else None

    def next(self, expected=()):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", *self._end, expected)
        self._pos += 1
        return t

    def eat(self, text):
        t = self.next((text,))
        if t.text != text:
            raise ParseError(f"unexpected '{t.text}'", t.line, t.column, (text,))
        return t

    def done(self):
        return self._pos >= len(self._toks)


# ---------------------------------------------------------------------------
# Concrete syntax: parser

_TERM_KEYWORDS = ("succ", "ret", "step", "bind", "ifz", "fix", "lam", "ap")
_TYPE_KEYWORDS = ("U", "F", "->")

_ATOMS = {"yes": YES, "no": NO, "zero": ZERO, "triv": TRIV}
_TYPE_ATOMS = {"ans": ANS, "nat": NAT, "unit": UNIT}


def _is_name(text: str) -> bool:
    if text in _ATOMS or text in _TERM_KEYWORDS or text in _TYPE_ATOMS:
        return False
    return text[:1].isalpha() and all(c.isalnum() or c in "_'" for c in text)


def _parse_value_type(ts: _Tokens):
    t = ts.next(("ans", "nat", "unit", "("))
    if t.text in _TYPE_ATOMS:
        return _TYPE_ATOMS[t.text]
    if t.text == "(":
        head = ts.next(("U",))
        if head.text != "U":
            raise ParseError(f"unexpected '{head.text}' in value type", head.line, head.column, ("U",))
        inner = _parse_comp_type(ts)
        ts.eat(")")
        return U(inner)
    raise ParseError(f"unexpected '{t.text}' in value type", t.line, t.column, ("ans", "nat", "unit", "("))


def _parse_comp_type(ts: _Tokens):
    t = ts.eat("(")
    head = ts.next(("F", "->"))
    if head.text == "F":
        a = _parse_value_type(ts)
        ts.eat(")")
        return F(a)
    if head.text == "->":
        a = _parse_value_type(ts)
        x = _parse_comp_type(ts)
        ts.eat(")")
        return Arrow(a, x)
    raise ParseError(f"unexpected '{head.text}' in computation type", head.line, head.column, ("F", "->"))


def _parse_cost(ts: _Tokens, monoid):
    t = ts.next(("cost literal",))
    try:
        return monoid.parse(t.text)
    except ValueError as exc:
        raise ParseError(str(exc), t.line, t.column, (f"{monoid.name} cost literal",)) from None


def _parse_term(ts: _Tokens, names: list, monoid):
    t = ts.next(("term",))
    text = t.text
    if text in _ATOMS:
        return _ATOMS[text]
    if text.isdigit():
        return numeral(int(text))
    if text == "(":
        head = ts.next(_TERM_KEYWORDS)
        kw = head.text
        if kw == "succ":
            arg = _parse_term(ts, names, monoid)
            ts.eat(")")
            return Succ(arg)
        if kw == "ret":
            arg = _parse_term(ts, names, monoid)
            ts.eat(")")
            return Ret(arg)
        if kw == "step":
            cost = _parse_cost(ts, monoid)
            body = _parse_term(ts, names, monoid)
            ts.eat(")")
            return Step(cost, body)
        if kw == "bind":
            headt = _parse_term(ts, names, monoid)
            name = _parse_binder(ts)
            cont = _parse_term(ts, [name] + names, monoid)
            ts.eat(")")
            return Bind(headt, cont)
        if kw == "ifz":
            scrut = _parse_term(ts, names, monoid)
            zcase = _parse_term(ts, names, monoid)
            name = _parse_binder(ts)
            scase = _parse_term(ts, [name] + names, monoid)
            ts.eat(")")
            return Ifz(scrut, zcase, scase)
        if kw == "fix":
            name = _parse_binder(ts)
            body = _parse_term(ts, [name] + names, monoid)
            ts.eat(")")
            return Fix(body)
        if kw == "lam":
            dom = _parse_value_type(ts)
            name = _parse_binder(ts)
            body = _parse_term(ts, [name] + names, monoid)
            ts.eat(")")
            return Lam(dom, body)
        if kw == "ap":
            fun = _parse_term(ts, names, monoid)
            arg = _parse_term(ts, names, monoid)
            ts.eat(")")
            return Ap(fun, arg)
        raise ParseError(f"unknown form '{kw}'", head.line, head.column, _TERM_KEYWORDS)
    if _is_name(text):
        if text in names:
            return Var(names.index(text))
        raise ParseError(f"unbound variable '{text}'", t.line, t.column)
    raise ParseError(f"unexpected '{text}'", t.line, t.column, ("term",))


def _parse_binder(ts: _Tokens) -> str:
    t = ts.next(("binder name",))
    if not _is_name(t.text):
        raise ParseError(f"'{t.text}' is not a binder name", t.line, t.column, ("binder name",))
    return t.text


def parse(source: str, monoid=None) -> Term:
    """Parse one term from s-expression source.  Raises ParseError."""
    if monoid is None:
        from .cost import NAT_MONOID

        monoid = NAT_MONOID
    ts = _Tokens(*_lex(source))
    if ts.done():
        raise ParseError("empty input", 1, 1, ("term",))
    term = _parse_term(ts, [], monoid)
    extra = ts.peek()
    if extra is not None:
        raise ParseError(f"trailing input '{extra.text}'", extra.line, extra.column)
    return term


def parse_comp_type(source: str) -> CompType:
    """Parse a computation type, e.g. "(F nat)" or "(-> nat (F nat))"."""
    ts = _Tokens(*_lex(source))
    ct = _parse_comp_type(ts)
    extra = ts.peek()
    if extra is not None:
        raise ParseError(f"trailing input '{extra.text}'", extra.line, extra.column)
    return ct


# ---------------------------------------------------------------------------
# Concrete syntax: printer

def _show_cost(c: Cost) -> str:
    if isinstance(c, tuple):
        return "[" + ",".join(str(x) for x in c) + "]"
    return str(c)


def print_value_type(a: ValueType) -> str:
    if isinstance(a, Ans):
        return "ans"
    if isinstance(a, Nat):
        return "nat"
    if isinstance(a, Unit):
        return "unit"
    if isinstance(a, U):
        return f"(U {print_comp_type(a.comp)})"
    raise TypeError(f"not a value type: {a!r}")


def print_comp_type(x: CompType) -> str:
    if isinstance(x, F):
        return f"(F {print_value_type(x.value)})"
    if isinstance(x, Arrow):
        return f"(-> {print_value_type(x.dom)} {print_comp_type(x.cod)})"
    raise TypeError(f"not a computation type: {x!r}")


def _binder_name(depth: int) -> str:
    return "x" if depth == 0 else f"x{depth}"


def print_term(t: Term, depth: int = 0) -> str:
    """Canonical form: fully parenthesized, binder names derived from depth."""
    if isinstance(t, Var):
        return _binder_name(depth - 1 - t.index)
    if isinstance(t, Yes):
        return "yes"
    if isinstance(t, No):
        return "no"
    if isinstance(t, Zero):
        return "zero"
    if isinstance(t, Triv):
        return "triv"
    if isinstance(t, Succ):
        n = as_numeral(t)
        if n is not None:
            return str(n)
        return f"(succ {print_term(t.arg, depth)})"
    if isinstance(t, Ret):
        return f"(ret {print_term(t.arg, depth)})"
    if isinstance(t, Step):
        return f"(step {_show_cost(t.cost)} {print_term(t.body, depth)})"
    if isinstance(t, Bind):
        return (
            f"(bind {print_term(t.head, depth)} {_binder_name(depth)}"
            f" {print_term(t.cont, depth + 1)})"
        )
    if isinstance(t, Ifz):
        return (
            f"(ifz {print_term(t.scrut, depth)} {print_term(t.zcase, depth)}"
            f" {_binder_name(depth)} {print_term(t.scase, depth + 1)})"
        )
    if isinstance(t, Fix):
        return f"(fix {_binder_name(depth)} {print_term(t.body, depth + 1)})"
    if isinstance(t, Lam):
        return (
            f"(lam {print_value_type(t.dom)} {_binder_name(depth)}"
            f" {print_term(t.body, depth + 1)})"
        )
    if isinstance(t, Ap):
        return f"(ap {print_term(t.fun, depth)} {print_term(t.arg, depth)})"
    raise TypeError(f"not a term: {t!r}")

