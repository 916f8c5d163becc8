"""Abstract and concrete syntax for the costed CBPV language.

Terms use de Bruijn indices (index 0 is the innermost binder).  Computation
terms double as values at thunk type, so there are no explicit thunk/force
constructors: a computation appearing in value position *is* the thunk.

Concrete syntax is fully parenthesized s-expressions with `;` line comments.
`_FORMS` is the one home of its grammar: for each compound node it gives the
keyword and the parts in concrete order, and both the parser and the printer
read it.  One regex (`_LEXEME`) splits the source into tokens.  Binders carry
names in concrete syntax only; the parser resolves them to indices and the
printer regenerates canonical names from binding depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
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

# The value constructors.  Every other node is a computation, which is a
# value only at thunk type.
VALUE_NODES = (Var, Yes, No, Zero, Succ, Triv)

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


def ground_json(t: Term):
    """A closed ground value as a JSON scalar: "triv", "yes", "no" or its
    numeral's int; None for anything else (a thunk)."""
    if isinstance(t, Triv):
        return "triv"
    if isinstance(t, (Yes, No)):
        return "yes" if isinstance(t, Yes) else "no"
    return as_numeral(t)


# ---------------------------------------------------------------------------
# Binding: loose range, shift and substitution

def loose_range(t: Term) -> int:
    """1 + the largest free de Bruijn index of `t`, or 0 when `t` is closed.

    Computed once per node, on first request, and cached outside the
    dataclass fields (see `_Node`).  Nodes are immutable, so the cached value
    never goes stale.  Dispatches on exact node type, as `_rebuild` does, most
    frequent first (Succ and Ret in the battery and `scaled_eval`).
    """
    r = getattr(t, "_range", None)
    if r is not None:
        return r
    kind = type(t)
    if kind is Succ or kind is Ret:
        r = loose_range(t.arg)
    elif kind is Ap:
        r = max(loose_range(t.fun), loose_range(t.arg))
    elif kind is Ifz:
        r = max(loose_range(t.scrut), loose_range(t.zcase), loose_range(t.scase) - 1)
    elif kind is Step:
        r = loose_range(t.body)
    elif kind is Bind:
        r = max(loose_range(t.head), loose_range(t.cont) - 1)
    elif kind is Var:
        r = t.index + 1
    elif kind is Lam or kind is Fix:
        r = max(loose_range(t.body) - 1, 0)
    else:
        raise TypeError(f"not a term: {t!r}")
    # Not `t.__dict__[...]`: touching `__dict__` would give every node a
    # dictionary of its own, nearly doubling its memory.
    object.__setattr__(t, "_range", r)
    return r


def _rebuild(t: Term, cutoff: int, at_var) -> Term:
    """`t` with every free Var whose index is >= the cutoff replaced by
    `at_var(index, cutoff)`, the cutoff rising by one under each binder.

    A subterm with no such index (`loose_range` at most the cutoff) is
    returned as is, so `_rebuild(t, c, f) is t` when `t` has no free index
    >= c, and only the nodes above a replaced Var are rebuilt: every other
    subtree of the result is shared with `t`.

    The walker reads a node's cached range directly, and dispatches on exact
    node type, most frequent first: no class subclasses a term node.
    """
    r = t._range
    if r is None:
        r = loose_range(t)
    if r <= cutoff:
        return t
    kind = type(t)
    if kind is Var:
        return at_var(t.index, cutoff)
    if kind is Ifz:
        return Ifz(_rebuild(t.scrut, cutoff, at_var), _rebuild(t.zcase, cutoff, at_var),
                   _rebuild(t.scase, cutoff + 1, at_var))
    if kind is Ap:
        return Ap(_rebuild(t.fun, cutoff, at_var), _rebuild(t.arg, cutoff, at_var))
    if kind is Step:
        return Step(t.cost, _rebuild(t.body, cutoff, at_var))
    if kind is Bind:
        return Bind(_rebuild(t.head, cutoff, at_var), _rebuild(t.cont, cutoff + 1, at_var))
    if kind is Lam:
        return Lam(t.dom, _rebuild(t.body, cutoff + 1, at_var))
    if kind is Ret:
        return Ret(_rebuild(t.arg, cutoff, at_var))
    if kind is Succ:
        return Succ(_rebuild(t.arg, cutoff, at_var))
    return Fix(_rebuild(t.body, cutoff + 1, at_var))


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every free index >= cutoff.

    Returns `t` itself when it has no such index (`loose_range(t) <= cutoff`);
    otherwise shares every subtree that has none (see `_rebuild`).
    """
    return _rebuild(t, cutoff, lambda i, _cutoff: Var(i + by))


def subst(t: Term, replacement: Term, index: int = 0) -> Term:
    """Capture-avoiding substitution of `replacement` for de Bruijn `index`.

    `replacement` must be well-scoped in the context *outside* the eliminated
    binder; free indices of `t` above `index` shift down by one.  The shift
    applied at a hit is the number of binders crossed since the top-level
    call, not the current index (those differ whenever index > 0).

    `subst(t, r, k) is t` when `t` has no free index >= k, and the result
    shares every subtree that does not mention the eliminated index or one
    above it (see `_rebuild`).  A closed replacement (the only kind the
    machine substitutes) needs no shift, so every hit shares it as is.
    """
    def at_var(i: int, cutoff: int) -> Term:
        if i != cutoff:
            return Var(i - 1)
        return replacement if closed else shift(replacement, cutoff - index)

    # Fill the replacement's cache before descending: a hit deep inside `t`
    # must not recurse through the replacement on top of the stack so far.
    closed = loose_range(replacement) == 0
    return _rebuild(t, index, at_var)


# ---------------------------------------------------------------------------
# Concrete syntax: the grammar

# The parts of a compound form.  A binder scopes over the subterms after it;
# each other part fills the node's next dataclass field.
_TERM, _BINDER, _COST, _TYPE = "term", "binder", "cost", "type"

# Each compound node's keyword and parts, in concrete order.  Entry order is
# the order a parse error lists the keywords in.
_FORMS = {
    Succ: ("succ", _TERM),
    Ret: ("ret", _TERM),
    Step: ("step", _COST, _TERM),
    Bind: ("bind", _TERM, _BINDER, _TERM),
    Ifz: ("ifz", _TERM, _TERM, _BINDER, _TERM),
    Fix: ("fix", _BINDER, _TERM),
    Lam: ("lam", _TYPE, _BINDER, _TERM),
    Ap: ("ap", _TERM, _TERM),
}

_ATOMS = {"yes": YES, "no": NO, "zero": ZERO, "triv": TRIV}
_TYPE_ATOMS = {"ans": ANS, "nat": NAT, "unit": UNIT}

# The parser's view: keyword -> (node class, parts).
_KEYWORDS = {keyword: (cls, parts) for cls, (keyword, *parts) in _FORMS.items()}
_TERM_KEYWORDS = tuple(_KEYWORDS)


def _printed_form(cls, keyword, parts):
    """The printer's view of one form: its opening text, and each part with
    the field it reads (None for a binder)."""
    names = iter(f.name for f in fields(cls))
    return "(" + keyword, tuple((p, None if p is _BINDER else next(names)) for p in parts)


_PRINTED = {cls: _printed_form(cls, keyword, parts) for cls, (keyword, *parts) in _FORMS.items()}
_ATOM_WORDS = {type(atom): word for word, atom in _ATOMS.items()}


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


# One match per blank run, comment, newline, token or lone '['.  The groups
# say which: 1 a newline, 2 a token (a parenthesis, a bracketed cost literal
# or a word), 3 a '[' with no ']' after it; blanks and comments match none.
# A word is a run of every other character, so each character of the source
# falls in some match.  A newline inside a bracketed literal does not count
# as a line.
_BLANKS = r" \t\r"
_LEXEME = re.compile(
    rf"[{_BLANKS}]+|;[^\n]*|(\n)|([()]|\[[^\]]*\]|[^{_BLANKS}\n();\[]+)|(\[)")


def _lex(source: str):
    """Tokens as (text, line, column), and the (line, column) just past the
    last character."""
    toks = []
    line = 1
    line_start = 0
    for m in _LEXEME.finditer(source):
        group = m.lastindex
        if group == 2:
            toks.append((m.group(2), line, m.start() - line_start + 1))
        elif group == 1:
            line += 1
            line_start = m.end()
        elif group == 3:
            raise ParseError("unterminated '[' literal", line, m.start() - line_start + 1, ("]",))
    return toks, (line, len(source) - line_start + 1)


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
        got, line, column = self.next((text,))
        if got != text:
            raise ParseError(f"unexpected '{got}'", line, column, (text,))

    def done(self):
        return self._pos >= len(self._toks)


# ---------------------------------------------------------------------------
# Concrete syntax: parser

def _is_name(text: str) -> bool:
    if text in _ATOMS or text in _KEYWORDS or text in _TYPE_ATOMS:
        return False
    return text[:1].isalpha() and all(c.isalnum() or c in "_'" for c in text)


def _parse_value_type(ts: _Tokens):
    text, line, column = ts.next(("ans", "nat", "unit", "("))
    if text in _TYPE_ATOMS:
        return _TYPE_ATOMS[text]
    if text == "(":
        head, line, column = ts.next(("U",))
        if head != "U":
            raise ParseError(f"unexpected '{head}' in value type", line, column, ("U",))
        inner = _parse_comp_type(ts)
        ts.eat(")")
        return U(inner)
    raise ParseError(f"unexpected '{text}' in value type", line, column, ("ans", "nat", "unit", "("))


def _parse_comp_type(ts: _Tokens):
    ts.eat("(")
    head, line, column = ts.next(("F", "->"))
    if head == "F":
        a = _parse_value_type(ts)
        ts.eat(")")
        return F(a)
    if head == "->":
        a = _parse_value_type(ts)
        x = _parse_comp_type(ts)
        ts.eat(")")
        return Arrow(a, x)
    raise ParseError(f"unexpected '{head}' in computation type", line, column, ("F", "->"))


def _parse_cost(ts: _Tokens, monoid):
    text, line, column = ts.next(("cost literal",))
    try:
        return monoid.parse(text)
    except ValueError as exc:
        raise ParseError(str(exc), line, column, (f"{monoid.name} cost literal",)) from None


def _parse_term(ts: _Tokens, names: list, monoid):
    text, line, column = ts.next(("term",))
    atom = _ATOMS.get(text)
    if atom is not None:
        return atom
    if text.isdigit():
        return numeral(int(text))
    if text == "(":
        keyword, line, column = ts.next(_TERM_KEYWORDS)
        form = _KEYWORDS.get(keyword)
        if form is None:
            raise ParseError(f"unknown form '{keyword}'", line, column, _TERM_KEYWORDS)
        cls, parts = form
        args = []
        for part in parts:
            if part is _TERM:
                args.append(_parse_term(ts, names, monoid))
            elif part is _BINDER:
                names = [_parse_binder(ts)] + names
            elif part is _COST:
                args.append(_parse_cost(ts, monoid))
            else:
                args.append(_parse_value_type(ts))
        ts.eat(")")
        return cls(*args)
    if _is_name(text):
        if text in names:
            return Var(names.index(text))
        raise ParseError(f"unbound variable '{text}'", line, column)
    raise ParseError(f"unexpected '{text}'", line, column, ("term",))


def _parse_binder(ts: _Tokens) -> str:
    text, line, column = ts.next(("binder name",))
    if not _is_name(text):
        raise ParseError(f"'{text}' is not a binder name", line, column, ("binder name",))
    return text



def parse(source: str, monoid=None) -> Term:
    """Parse one term from s-expression source.  Raises ParseError."""
    if monoid is None:
        from .cost import NAT_MONOID

        monoid = NAT_MONOID
    ts = _Tokens(*_lex(source))
    if ts.done():
        raise ParseError("empty input", 1, 1, ("term",))
    term = _parse_term(ts, [], monoid)
    _no_trailing_input(ts)
    return term


def parse_comp_type(source: str) -> CompType:
    """Parse a computation type, e.g. "(F nat)" or "(-> nat (F nat))"."""
    ts = _Tokens(*_lex(source))
    ct = _parse_comp_type(ts)
    _no_trailing_input(ts)
    return ct


def _no_trailing_input(ts: _Tokens):
    extra = ts.peek()
    if extra is not None:
        text, line, column = extra
        raise ParseError(f"trailing input '{text}'", line, column)


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
    """Canonical form: fully parenthesized, binder names derived from depth,
    numerals as digits."""
    kind = type(t)
    if kind is Var:
        return _binder_name(depth - 1 - t.index)
    word = _ATOM_WORDS.get(kind)
    if word is not None:
        return word
    if kind is Succ:
        n = as_numeral(t)
        if n is not None:
            return str(n)
    form = _PRINTED.get(kind)
    if form is None:
        raise TypeError(f"not a term: {t!r}")
    opening, parts = form
    out = [opening]
    for part, field in parts:
        if part is _TERM:
            out.append(print_term(getattr(t, field), depth))
        elif part is _BINDER:
            out.append(_binder_name(depth))
            depth += 1
        elif part is _COST:
            out.append(_show_cost(getattr(t, field)))
        else:
            out.append(print_value_type(getattr(t, field)))
    return " ".join(out) + ")"
