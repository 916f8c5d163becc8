"""Abstract and concrete syntax for the costed CBPV language.

Terms use de Bruijn indices (index 0 is the innermost binder).  Computation
terms double as values at thunk type, so there are no explicit thunk/force
constructors: a computation appearing in value position *is* the thunk.

Concrete syntax is fully parenthesized s-expressions with `;` line comments.
`_FORMS` is the one home of its grammar: for each compound node it gives the
keyword and the parts in concrete order, and both the parser and the printer
read it.  The token texts come from string operations: one `re.split` cuts
out the cost literals and comments, and the text between them is split at
blanks and parentheses.  The parser reads the tokens in one loop over an
explicit stack.  A ParseError works out its line and column from the source
only when it is raised, by scanning it with `_LEXEME`, the lexical grammar as
one regex.  Binders carry names in concrete syntax only; the parser resolves
them to indices and the printer regenerates canonical names from binding
depth.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import Union

from .cost import NAT_MONOID
from .records import record

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


@record
class U:
    __slots__ = ("comp",)
    comp: "CompType"


@record
class F:
    __slots__ = ("value",)
    value: "ValueType"


@record
class Arrow:
    __slots__ = ("dom", "cod")
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
    """Base of the term nodes: the slots of two caches.

    `_range` holds the node's loose range (see `loose_range`) and `_code`
    the closure its denotation compiles to (`denote._compile`).  Both are
    slots of every node but not dataclass fields, so equality, hashing and
    repr never see them.  A compound node's `__init__` (see
    `records.record`) works out `_range` from its children's, in O(1), and
    sets `_code` to None until the node is first compiled.  Nodes are
    immutable, so neither goes stale.  The range rules are conditional
    expressions rather than calls of `max`, which would add a call to the
    construction of nearly every node the parser builds.
    """

    __slots__ = ("_range", "_code")


class _Leaf(_Node):
    """Base of the nodes with no fields: closed, and never compiled."""

    __slots__ = ()
    _range = 0
    _code = None


@record(_range="index + 1")
class Var(_Node):
    __slots__ = ("index",)
    index: int


@dataclass(frozen=True)
class Yes(_Leaf):
    __slots__ = ()


@dataclass(frozen=True)
class No(_Leaf):
    __slots__ = ()


@dataclass(frozen=True)
class Zero(_Leaf):
    __slots__ = ()


@record(_range="arg._range")
class Succ(_Node):
    __slots__ = ("arg",)
    arg: "Term"


@dataclass(frozen=True)
class Triv(_Leaf):
    __slots__ = ()


@record(_range="arg._range")
class Ret(_Node):
    __slots__ = ("arg",)
    arg: "Term"


@record(_range="body._range")
class Step(_Node):
    __slots__ = ("cost", "body")
    cost: Cost
    body: "Term"


@record(_range="head._range if head._range >= cont._range else cont._range - 1")
class Bind(_Node):
    __slots__ = ("head", "cont")
    head: "Term"
    cont: "Term"  # binds 1


@record(_range="max(scrut._range, zcase._range, scase._range - 1)")
class Ifz(_Node):
    __slots__ = ("scrut", "zcase", "scase")
    scrut: "Term"
    zcase: "Term"
    scase: "Term"  # binds 1 (the predecessor)


@record(_range="body._range - 1 if body._range else 0")
class Fix(_Node):
    __slots__ = ("body",)
    body: "Term"  # binds 1 (the recursive thunk)


@record(_range="body._range - 1 if body._range else 0")
class Lam(_Node):
    __slots__ = ("dom", "body")
    dom: ValueType
    body: "Term"  # binds 1


@record(_range="fun._range if fun._range >= arg._range else arg._range")
class Ap(_Node):
    __slots__ = ("fun", "arg")
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

    Each node works this out from its children's when it is built and keeps
    it in its `_range` slot (see `_Node`), so reading it takes O(1) and no
    walk of `t`.
    """
    if not isinstance(t, _Node):
        raise TypeError(f"not a term: {t!r}")
    return t._range


def _rebuild(t: Term, cutoff: int, at_var, extra) -> Term:
    """`t`, which has a free index >= the cutoff, with each such Var
    replaced by `at_var(index, cutoff, extra)`, the cutoff rising by one
    under each binder.  A child with no such index is shared as is, and
    is checked before any call into it: only the nodes above a replaced Var
    are rebuilt.  `at_var` is a module function and `extra` its data, so a
    call builds no closure.  Dispatch is on exact node type, most frequent
    first: no class subclasses a term node.
    """
    kind = type(t)
    if kind is Var:
        return at_var(t.index, cutoff, extra)
    if kind is Ifz:
        s, z, b = t.scrut, t.zcase, t.scase
        return Ifz(s if s._range <= cutoff else _rebuild(s, cutoff, at_var, extra),
                   z if z._range <= cutoff else _rebuild(z, cutoff, at_var, extra),
                   b if b._range <= cutoff + 1 else _rebuild(b, cutoff + 1, at_var, extra))
    if kind is Ap:
        f, a = t.fun, t.arg
        return Ap(f if f._range <= cutoff else _rebuild(f, cutoff, at_var, extra),
                  a if a._range <= cutoff else _rebuild(a, cutoff, at_var, extra))
    if kind is Step:
        return Step(t.cost, _rebuild(t.body, cutoff, at_var, extra))
    if kind is Bind:
        h, b = t.head, t.cont
        return Bind(h if h._range <= cutoff else _rebuild(h, cutoff, at_var, extra),
                    b if b._range <= cutoff + 1 else _rebuild(b, cutoff + 1, at_var, extra))
    if kind is Lam:
        return Lam(t.dom, _rebuild(t.body, cutoff + 1, at_var, extra))
    if kind is Ret:
        return Ret(_rebuild(t.arg, cutoff, at_var, extra))
    if kind is Succ:
        return Succ(_rebuild(t.arg, cutoff, at_var, extra))
    return Fix(_rebuild(t.body, cutoff + 1, at_var, extra))


# The `at_var` of `shift`, of `subst` with a closed replacement and of
# `subst` with an open one, whose `extra` is (replacement, eliminated index).
def _shifted(index, _cutoff, by):
    return Var(index + by)


def _closed_hit(index, cutoff, replacement):
    return replacement if index == cutoff else Var(index - 1)


def _open_hit(index, cutoff, at):
    return shift(at[0], cutoff - at[1]) if index == cutoff else Var(index - 1)


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every free index >= cutoff.

    Returns `t` itself when it has no such index (`loose_range(t) <= cutoff`);
    otherwise shares every subtree that has none (see `_rebuild`).
    """
    return t if t._range <= cutoff else _rebuild(t, cutoff, _shifted, by)


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
    if t._range <= index:
        return t
    if replacement._range:
        return _rebuild(t, index, _open_hit, (replacement, index))
    return _rebuild(t, index, _closed_hit, replacement)


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


def _printed_form(cls, keyword, parts):
    """The printer's view of one form: its opening text, and each part with
    the field it reads (None for a binder)."""
    names = iter(f.name for f in fields(cls))
    return "(" + keyword, tuple((p, None if p is _BINDER else next(names)) for p in parts)


_PRINTED = {cls: _printed_form(cls, keyword, parts) for cls, (keyword, *parts) in _FORMS.items()}
_ATOM_WORDS = {type(atom): word for word, atom in _ATOMS.items()}
# Each atomic type's word, for the printers here and in `typecheck`.
TYPE_WORDS = {type(atom): word for word, atom in _TYPE_ATOMS.items()}


# ---------------------------------------------------------------------------
# Concrete syntax: parser

class ParseError(Exception):
    def __init__(self, msg: str, line: int, column: int, expected=()):
        self.msg = msg
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"parse error at {line}:{column}: {msg}{hint}")

    def to_json(self) -> dict:
        out = {"error": "parse", "msg": self.msg, "line": self.line, "column": self.column}
        if self.expected:
            out["expected"] = list(self.expected)
        return out


# The lexical grammar as one regex: one match per blank run (newlines
# included), comment or token.  A token is a parenthesis, a bracketed cost
# literal, a word, or a '[' with no ']' after it.  Only a token fills the one
# group, so `findall` gives each token's text and an empty string for each
# blank run and comment.  A word is a run of every other character, so each
# character of the source falls in some match.  `_tokens` gives the same
# tokens faster; `_error` scans with this regex to place a token in the source.
_BLANKS = r" \t\r"
_LEXEME = re.compile(
    rf"[{_BLANKS}\n]+|;[^\n]*|([()]|\[[^\]]*\]|[^{_BLANKS}\n();\[]+|\[)")
_END = ""  # follows the last token; no token is empty

# The two lexemes that blanks and parentheses do not delimit, as `_LEXEME`
# reads them: a bracketed cost literal and a comment.
_RARE = re.compile(r"(\[[^\]]*\]|;[^\n]*)")


def _tokens(source: str) -> list:
    """The token texts of `source`, then `_END`; a lone '[' fails before parsing.

    `_RARE.split` gives the text between literals and comments at even
    positions and each literal or comment at odd ones.  A literal is a token
    and a comment is dropped.  Between them, the only tokens are parentheses
    and words, and only " \\t\\r\\n" and parentheses end a word.  So padding
    each parenthesis with spaces, making every blank a space and splitting
    at spaces gives the tokens, with empty strings between them to drop.
    (`str.split()` with no argument would also split at characters such as
    '\\x0b' and '\\xa0', which are word characters.)  A '[' left in that
    text has no ']' after it; `_LEXEME` finds where.
    """
    toks = []
    for n, piece in enumerate(_RARE.split(source)):
        if n % 2:
            if piece[0] == "[":
                toks.append(piece)
        elif "[" in piece:
            whole = list(filter(None, _LEXEME.findall(source)))
            raise _error(source, whole, whole.index("["), "unterminated '[' literal", ("]",))
        else:
            toks += (piece.replace("(", " ( ").replace(")", " ) ").replace("\t", " ")
                     .replace("\r", " ").replace("\n", " ").split(" "))
    toks = list(filter(None, toks))
    toks.append(_END)
    return toks


def _error(source: str, toks: list, k: int, msg: str, expected=()) -> ParseError:
    """A ParseError at token k, or at the end of input if token k is `_END`.
    Its (line, column) comes from scanning `source` again, counting only the
    newlines of blank runs: one inside a bracketed literal starts no line."""
    if toks[k] is _END:
        msg = "unexpected end of input"
    line, line_start, at = 1, 0, len(source)
    for m in _LEXEME.finditer(source):
        if m.lastindex:
            if not k:
                at = m.start()
                break
            k -= 1
        elif "\n" in m.group():
            line += m.group().count("\n")
            line_start = m.start() + m.group().rindex("\n") + 1
    return ParseError(msg, line, at - line_start + 1, expected)


def _is_name(text: str) -> bool:
    if text in _ATOMS or text in _KEYWORDS or text in _TYPE_ATOMS:
        return False
    return text[:1].isalpha() and (text.isalnum() or all(c.isalnum() or c in "_'" for c in text))


def _close(source: str, toks: list, i: int) -> int:
    """The index after the ')' at token i."""
    if toks[i] != ")":
        raise _error(source, toks, i, f"unexpected '{toks[i]}'", (")",))
    return i + 1


def _parse_value_type(source: str, toks: list, i: int):
    """The value type at token i, and the index after it."""
    text = toks[i]
    if text in _TYPE_ATOMS:
        return _TYPE_ATOMS[text], i + 1
    if text != "(":
        raise _error(source, toks, i, f"unexpected '{text}' in value type", (*_TYPE_ATOMS, "("))
    if toks[i + 1] != "U":
        raise _error(source, toks, i + 1, f"unexpected '{toks[i + 1]}' in value type", ("U",))
    inner, i = _parse_comp_type(source, toks, i + 2)
    return U(inner), _close(source, toks, i)


def _parse_comp_type(source: str, toks: list, i: int):
    """The computation type at token i, and the index after it."""
    if toks[i] != "(":
        raise _error(source, toks, i, f"unexpected '{toks[i]}'", ("(",))
    head = toks[i + 1]
    if head not in ("F", "->"):
        raise _error(source, toks, i + 1, f"unexpected '{head}' in computation type", ("F", "->"))
    a, i = _parse_value_type(source, toks, i + 2)
    if head == "->":
        x, i = _parse_comp_type(source, toks, i)
        return Arrow(a, x), _close(source, toks, i)
    return F(a), _close(source, toks, i)


def _parse_term(source: str, toks: list, i: int, monoid):
    """The term at token i, and the index after it.

    One loop over an explicit stack, so nesting costs no Python stack.  The
    locals hold the open form: its class, its parts, how many are left to
    read (the next is `parts[-k]`) and its arguments so far.  Opening a form
    pushes them and closing it pops them; the top level is a one-part form
    with no class.  The binder names in scope are one list, outermost first:
    a binder's name is appended when read and popped when its form closes.
    `levels` maps each name to the stack of positions in that list that bind
    it, so the innermost binder of a name is found in O(1).
    """
    if toks[i] is _END:
        raise ParseError("empty input", 1, 1, ("term",))
    stack, names, levels = [], [], defaultdict(list)
    cls, parts, k, args = None, (_TERM,), 1, []
    while True:
        while (part := parts[-k]) is not _TERM:
            k -= 1
            text = toks[i]
            if part is _BINDER:
                if not _is_name(text):
                    raise _error(source, toks, i, f"'{text}' is not a binder name",
                                 ("binder name",))
                levels[text].append(len(names))
                names.append(text)
                i += 1
            elif part is _COST:
                try:
                    args.append(monoid.parse(text))
                except ValueError as exc:
                    expected = "cost literal" if text is _END else f"{monoid.name} cost literal"
                    raise _error(source, toks, i, str(exc), (expected,)) from None
                i += 1
            else:
                a, i = _parse_value_type(source, toks, i)
                args.append(a)
        k -= 1
        text = toks[i]
        i += 1
        if text == "(":
            form = _KEYWORDS.get(toks[i])
            if form is None:
                raise _error(source, toks, i, f"unknown form '{toks[i]}'", _KEYWORDS)
            i += 1
            stack.append((cls, parts, k, args))
            cls, parts = form
            k, args = len(parts), []
            continue
        term = _ATOMS.get(text)
        if term is None:
            if text.isascii() and text.isdecimal():
                try:
                    term = numeral(int(text))
                except ValueError as exc:  # past the interpreter's digit limit
                    raise _error(source, toks, i - 1, str(exc)) from None
            elif depths := levels.get(text):
                term = Var(len(names) - 1 - depths[-1])
            elif _is_name(text):
                raise _error(source, toks, i - 1, f"unbound variable '{text}'")
            else:
                raise _error(source, toks, i - 1, f"unexpected '{text}'", ("term",))
        args.append(term)
        while not k:  # close each form that `term` completes
            if not stack:
                return args[0], i
            i = _close(source, toks, i)
            term = cls(*args)
            if _BINDER in parts:  # a form binds at most one name
                levels[names.pop()].pop()
            cls, parts, k, args = stack.pop()
            args.append(term)


def _parse_all(source: str, parse_at, *extra):
    """What `parse_at` reads from token 0 of `source`, which must be all of it."""
    toks = _tokens(source)
    found, i = parse_at(source, toks, 0, *extra)
    if toks[i] is not _END:
        raise _error(source, toks, i, f"trailing input '{toks[i]}'")
    return found


def parse(source: str, monoid=NAT_MONOID) -> Term:
    """Parse one term from s-expression source.  Raises ParseError."""
    return _parse_all(source, _parse_term, monoid)


def parse_comp_type(source: str) -> CompType:
    """Parse a computation type, e.g. "(F nat)" or "(-> nat (F nat))"."""
    return _parse_all(source, _parse_comp_type)


# ---------------------------------------------------------------------------
# Concrete syntax: printer

def _show_cost(c: Cost) -> str:
    if isinstance(c, tuple):
        return "[" + ",".join(str(x) for x in c) + "]"
    return str(c)


def print_value_type(a: ValueType) -> str:
    word = TYPE_WORDS.get(type(a))
    if word is not None:
        return word
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
