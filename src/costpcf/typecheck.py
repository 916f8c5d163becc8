"""Syntax-directed type checker for the value/computation discipline.

Every constructor is syntax-directed and `lam` carries its domain, so
inference is nearly pure bottom-up.  The one gap is `fix`, whose binder type
U(X) mentions the result type X; we close it with unification metavariables.
A term is well-typed when constraints solve; its classification is the unique
zonked result.  An underdetermined result type (the bare `fix x x`) is
reported as ambiguous; checking against an expected type resolves it, and
`program_type` reads each open metavariable at a default type.

A node costs O(1) work beyond unifying its types and, at a binder, copying
the context.  Dispatch, on terms and types alike, is on exact type, most
frequent first: no class subclasses a term node or a type.  A node hands
each child the link `(path, field)` (None at the root), not a copy of its
path; `_at` spells the links out only when a TypeCheckError is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .cost import NAT_MONOID
from .records import record


@record
class Value:
    __slots__ = ("type",)
    type: object  # ValueType


@record
class Computation:
    __slots__ = ("type",)
    type: object  # CompType


@record
class TypeJudgment:
    __slots__ = ("context", "subject", "classification")
    context: tuple
    subject: object
    classification: object  # Value | Computation


class TypeCheckError(Exception):
    """A typing failure, carrying the path to the offending subterm.

    `ambiguous` marks the one non-failure case: the term is well typed but
    its type is not determined by the term alone (bare recursion like
    `(fix x x)`); checking against an expected type resolves it.
    """

    def __init__(self, msg: str, path: tuple = (), ambiguous: bool = False):
        self.msg = msg
        self.path = tuple(path)
        self.ambiguous = ambiguous
        at = "/".join(self.path) if self.path else "<root>"
        super().__init__(f"type error at {at}: {msg}")

    def to_json(self) -> dict:
        return {"error": "type", "at": list(self.path), "msg": self.msg}


def _at(path) -> tuple:
    """The fields along the linked `path`, outermost first."""
    fields = []
    while path is not None:
        path, field = path
        fields.append(field)
    return tuple(reversed(fields))


@dataclass(frozen=True, eq=False)
class _Meta:
    """Type metavariable (identity-based).  Whether it stands for a value or
    a computation type follows from where it occurs."""


def show_type(t) -> str:
    """Human-readable type, e.g. "F nat" or "nat -> F nat"."""
    kind = type(t)
    if kind is sx.F:
        inner = show_type(t.value)
        return f"F ({inner})" if type(t.value) is sx.U else f"F {inner}"
    if kind is sx.Arrow:
        dom = f"({show_type(t.dom)})" if type(t.dom) is sx.U else show_type(t.dom)
        return f"{dom} -> {show_type(t.cod)}"
    if kind is sx.U:
        return f"U ({show_type(t.comp)})"
    return "?" if kind is _Meta else sx.TYPE_WORDS.get(kind) or repr(t)


class _Infer:
    """One inference pass, solving the unification constraints on its
    metavariables as it meets them.  `value` and `comp` take the context
    (innermost binder first) and the node's linked path, and call
    themselves once per child: a node costs one Python frame."""

    def __init__(self, monoid):
        self.monoid = monoid
        self.solutions: dict = {}
        self.meta = None  # the last `fix` metavariable: without one, none exists

    def resolve(self, t):
        # Keyed by the meta itself (identity hash): an id() could be reused.
        solutions = self.solutions
        while type(t) is _Meta and t in solutions:
            t = solutions[t]
        return t

    def zonk(self, t, default=False, comp=True):
        """t with each solved metavariable replaced by its solution.  With
        `default`, an unsolved one reads as `F unit` where a computation type
        stands (`comp`: t is one) and as `unit` where a value type does."""
        t = self.resolve(t)
        kind = type(t)
        if kind is sx.F:
            return sx.F(self.zonk(t.value, default, False))
        if kind is sx.Arrow:
            return sx.Arrow(self.zonk(t.dom, default, False), self.zonk(t.cod, default, True))
        if kind is sx.U:
            return sx.U(self.zonk(t.comp, default, True))
        if kind is _Meta and default:
            return sx.F(sx.UNIT) if comp else sx.UNIT
        return t

    def _occurs(self, t, meta=None) -> bool:
        """Whether `t` mentions `meta` (when None: any unsolved metavariable)."""
        t = self.resolve(t)
        kind = type(t)
        if kind is sx.F:
            return self._occurs(t.value, meta)
        if kind is sx.Arrow:
            return self._occurs(t.dom, meta) or self._occurs(t.cod, meta)
        if kind is sx.U:
            return self._occurs(t.comp, meta)
        return kind is _Meta and (meta is None or t is meta)

    def unify(self, a, b, path, what):
        if type(a) is _Meta or type(b) is _Meta:
            a, b = self.resolve(a), self.resolve(b)
        if a is b:
            return
        kind = type(a)
        if kind is _Meta or type(b) is _Meta:
            if kind is not _Meta:
                a, b = b, a
            if self._occurs(b, a):
                raise TypeCheckError(f"{what}: infinite type", _at(path))
            self.solutions[a] = b
        elif kind is not type(b):
            raise TypeCheckError(
                f"{what}: {show_type(self.zonk(a))} does not match {show_type(self.zonk(b))}", _at(path))
        elif kind is sx.F:
            self.unify(a.value, b.value, path, what)
        elif kind is sx.Arrow:
            self.unify(a.dom, b.dom, path, what)
            self.unify(a.cod, b.cod, path, what)
        elif kind is sx.U:
            self.unify(a.comp, b.comp, path, what)

    def _split(self, t, shape, path, error):
        """`t` as a `shape` type (sx.U, sx.F or sx.Arrow).  An unsolved
        metavariable is solved to that shape over fresh ones; any other type
        raises `error`, its "{}" standing for that type."""
        if type(t) is _Meta:
            t = self.resolve(t)
            if type(t) is _Meta:
                fresh = sx.Arrow(_Meta(), _Meta()) if shape is sx.Arrow else shape(_Meta())
                return self.solutions.setdefault(t, fresh)
        if type(t) is shape:
            return t
        raise TypeCheckError(error.format(show_type(self.zonk(t))), _at(path))

    # Value-type inference; computation terms coerce to thunk type U(X).
    def value(self, ctx, t, path):
        kind = type(t)
        if kind is sx.Succ:
            at = (path, "arg")
            a = self.value(ctx, t.arg, at)
            if a is not sx.NAT:
                self.unify(a, sx.NAT, at, "succ argument")
            return sx.NAT
        if kind is sx.Zero:
            return sx.NAT
        if kind is sx.Var:
            if not (0 <= t.index < len(ctx)):
                raise TypeCheckError(f"unbound variable index {t.index}", _at(path))
            return ctx[t.index]
        if kind is sx.Triv:
            return sx.UNIT
        if kind is sx.Yes or kind is sx.No:
            return sx.ANS
        return sx.U(self.comp(ctx, t, path))

    # Computation-type inference; thunk-typed values coerce to computations.
    def comp(self, ctx, t, path):
        kind = type(t)
        if kind is sx.Ret:
            return sx.F(self.value(ctx, t.arg, (path, "arg")))
        if kind is sx.Step:
            if not self.monoid.contains(t.cost):
                raise TypeCheckError(
                    f"step cost {t.cost!r} is not an element of monoid {self.monoid.name}", _at(path))
            return self.comp(ctx, t.body, (path, "body"))
        if kind is sx.Ap:
            at = (path, "fun")
            fun = self._split(self.comp(ctx, t.fun, at), sx.Arrow, at, "ap head has type {}, not an arrow")
            at = (path, "arg")
            self.unify(self.value(ctx, t.arg, at), fun.dom, at, "ap argument")
            return fun.cod
        if kind is sx.Bind:
            at = (path, "head")
            head = self._split(self.comp(ctx, t.head, at), sx.F, at, "bind head has type {}, not an F type")
            return self.comp((head.value,) + ctx, t.cont, (path, "cont"))
        if kind is sx.Ifz:
            at = (path, "scrut")
            self.unify(self.value(ctx, t.scrut, at), sx.NAT, at, "ifz scrutinee")
            x = self.comp(ctx, t.zcase, (path, "zcase"))
            self.unify(x, self.comp((sx.NAT,) + ctx, t.scase, (path, "scase")), path, "ifz branches")
            return x
        if kind is sx.Lam:
            return sx.Arrow(t.dom, self.comp((t.dom,) + ctx, t.body, (path, "body")))
        if kind is sx.Fix:
            x = self.meta = _Meta()
            self.unify(self.comp((sx.U(x),) + ctx, t.body, (path, "body")), x, path, "fix body")
            return x
        if kind in sx.VALUE_NODES:
            return self._split(self.value(ctx, t, path), sx.U, path,
                               "value of type {} used as a computation (not a thunk)").comp
        raise TypeCheckError(f"not a term: {t!r}", _at(path))


def infer(ctx, t, expected=None, monoid=NAT_MONOID) -> TypeJudgment:
    """Infer the unique classification of t in ctx.
    `expected` (a CompType) switches to checking mode: the result must unify
    with it, which also determines otherwise-ambiguous `fix` types."""
    ctx = tuple(ctx)
    inf = _Infer(monoid)
    if type(t) not in sx.VALUE_NODES:
        kind, ty = Computation, inf.comp(ctx, t, None)
        if expected is not None:
            inf.unify(ty, expected, None, "expected type")
    elif expected is None:
        kind, ty = Value, inf.value(ctx, t, None)
    else:
        # A value checks against a computation type only via the thunk reading.
        a = inf.value(ctx, t, None)
        if type(inf.resolve(a)) not in (sx.U, _Meta):
            raise TypeCheckError(f"expected computation of type {show_type(expected)}, "
                                 f"found value of type {show_type(inf.zonk(a))}")
        inf.unify(a, sx.U(expected), None, "expected type")
        kind, ty = Computation, expected
    if inf.meta is not None:
        ty = inf.zonk(ty)
        if inf._occurs(ty):
            raise TypeCheckError("ambiguous type: add a surrounding context that determines it", ambiguous=True)
    return TypeJudgment(ctx, t, kind(ty))


def check_program(t, expected, monoid=NAT_MONOID):
    """The TypeJudgment of closed t checked at `expected`, or TypeCheckError."""
    return infer((), t, expected=expected, monoid=monoid)


def program_type(t, monoid=NAT_MONOID):
    """The type a closed program is run and observed at: its inferred type,
    each metavariable left open read as `F unit` where a computation type
    stands and as `unit` where a value type does (the paper's adequacy
    observes complete programs at base type).  So `(fix x x)` reads at
    `F unit`, `(ret (fix x x))` at `F (U (F unit))` and `(fix f (lam nat n
    (ap f n)))` at `nat -> F unit`.  Raises TypeCheckError if t is ill typed."""
    inf = _Infer(monoid)
    if type(t) in sx.VALUE_NODES:
        return inf.zonk(inf.value((), t, None), default=True, comp=False)
    return inf.zonk(inf.comp((), t, None), default=True)
