"""Syntax-directed type checker for the value/computation discipline.

Every constructor is syntax-directed and `lam` carries its domain, so
inference is nearly pure bottom-up.  The one gap is `fix`, whose binder type
U(X) mentions the result type X; we close it with unification metavariables.
A term is well-typed when constraints solve; its classification is the unique
zonked result.  If the result type itself is underdetermined (for example the
bare `fix x x`), inference reports ambiguity, but checking against an expected
type seeds the metavariable and succeeds, and `program_type` reads each open
metavariable at a default type.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .cost import NAT_MONOID


@dataclass(frozen=True)
class Value:
    type: object  # ValueType


@dataclass(frozen=True)
class Computation:
    type: object  # CompType


@dataclass(frozen=True)
class TypeJudgment:
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


@dataclass(frozen=True, eq=False)
class _Meta:
    """Type metavariable (identity-based).  Whether it stands for a value or
    a computation type follows from where it occurs."""


def show_type(t) -> str:
    """Human-readable type, e.g. "F nat" or "nat -> F nat"."""
    if isinstance(t, _Meta):
        return "?"
    word = sx.TYPE_WORDS.get(type(t))
    if word is not None:
        return word
    if isinstance(t, sx.U):
        return f"U ({show_type(t.comp)})"
    if isinstance(t, sx.F):
        inner = show_type(t.value)
        if isinstance(t.value, sx.U):
            inner = f"({inner})"
        return f"F {inner}"
    if isinstance(t, sx.Arrow):
        dom = show_type(t.dom)
        if isinstance(t.dom, sx.U):
            dom = f"({dom})"
        return f"{dom} -> {show_type(t.cod)}"
    return repr(t)


class _Infer:
    """One inference pass, solving the unification constraints on its
    metavariables as it meets them."""

    def __init__(self, monoid):
        self.monoid = monoid
        self.solutions: dict = {}

    def resolve(self, t):
        # Keyed by the meta object itself (identity hash): an id()-keyed dict
        # would let a collected meta's address be reused by a fresh one.
        while isinstance(t, _Meta) and t in self.solutions:
            t = self.solutions[t]
        return t

    def zonk(self, t, default=False, comp=True):
        """t with each solved metavariable replaced by its solution.  With
        `default`, an unsolved one reads as `F unit` where a computation type
        stands (`comp`: t is one) and as `unit` where a value type does."""
        t = self.resolve(t)
        if isinstance(t, _Meta) and default:
            return sx.F(sx.UNIT) if comp else sx.UNIT
        if isinstance(t, sx.U):
            return sx.U(self.zonk(t.comp, default, True))
        if isinstance(t, sx.F):
            return sx.F(self.zonk(t.value, default, False))
        if isinstance(t, sx.Arrow):
            return sx.Arrow(self.zonk(t.dom, default, False), self.zonk(t.cod, default, True))
        return t

    def _occurs(self, t, meta=None) -> bool:
        """Whether `t` mentions `meta`, or any unsolved metavariable when
        `meta` is None."""
        t = self.resolve(t)
        if isinstance(t, _Meta):
            return meta is None or t is meta
        if isinstance(t, sx.U):
            return self._occurs(t.comp, meta)
        if isinstance(t, sx.F):
            return self._occurs(t.value, meta)
        if isinstance(t, sx.Arrow):
            return self._occurs(t.dom, meta) or self._occurs(t.cod, meta)
        return False

    def unify(self, a, b, path, what):
        a = self.resolve(a)
        b = self.resolve(b)
        if a is b:
            return
        if isinstance(a, _Meta):
            if self._occurs(b, a):
                raise TypeCheckError(f"{what}: infinite type", path)
            self.solutions[a] = b
            return
        if isinstance(b, _Meta):
            self.unify(b, a, path, what)
            return
        if isinstance(a, (sx.Ans, sx.Nat, sx.Unit)) and type(a) is type(b):
            return
        if isinstance(a, sx.U) and isinstance(b, sx.U):
            self.unify(a.comp, b.comp, path, what)
            return
        if isinstance(a, sx.F) and isinstance(b, sx.F):
            self.unify(a.value, b.value, path, what)
            return
        if isinstance(a, sx.Arrow) and isinstance(b, sx.Arrow):
            self.unify(a.dom, b.dom, path, what)
            self.unify(a.cod, b.cod, path, what)
            return
        raise TypeCheckError(f"{what}: {show_type(self.zonk(a))} does not match {show_type(self.zonk(b))}", path)

    def _split(self, t, shape, path, what, error):
        """The parts of `t` as a `shape` type (sx.U, sx.F or sx.Arrow).  An
        unsolved metavariable is solved to that shape over fresh ones; any
        other type raises `error`, its "{}" standing for that type."""
        t = self.resolve(t)
        if isinstance(t, _Meta):
            parts = tuple(_Meta() for _ in shape.__match_args__)
            self.unify(t, shape(*parts), path, what)
            return parts
        if isinstance(t, shape):
            return tuple(getattr(t, name) for name in shape.__match_args__)
        raise TypeCheckError(error.format(show_type(self.zonk(t))), path)

    # Value-type inference; computation terms coerce to thunk type U(X).
    def value(self, ctx, t, path):
        if isinstance(t, sx.Var):
            if not (0 <= t.index < len(ctx)):
                raise TypeCheckError(f"unbound variable index {t.index}", path)
            return ctx[t.index]
        if isinstance(t, (sx.Yes, sx.No)):
            return sx.ANS
        if isinstance(t, sx.Zero):
            return sx.NAT
        if isinstance(t, sx.Succ):
            a = self.value(ctx, t.arg, path + ("arg",))
            self.unify(a, sx.NAT, path + ("arg",), "succ argument")
            return sx.NAT
        if isinstance(t, sx.Triv):
            return sx.UNIT
        return sx.U(self.comp(ctx, t, path))

    # Computation-type inference; thunk-typed values coerce to computations.
    def comp(self, ctx, t, path):
        if isinstance(t, sx.VALUE_NODES):
            (x,) = self._split(self.value(ctx, t, path), sx.U, path, "forced value",
                               "value of type {} used as a computation (not a thunk)")
            return x
        if isinstance(t, sx.Ret):
            return sx.F(self.value(ctx, t.arg, path + ("arg",)))
        if isinstance(t, sx.Step):
            if not self.monoid.contains(t.cost):
                raise TypeCheckError(
                    f"step cost {t.cost!r} is not an element of monoid {self.monoid.name}", path
                )
            return self.comp(ctx, t.body, path + ("body",))
        if isinstance(t, sx.Bind):
            (a,) = self._split(self.comp(ctx, t.head, path + ("head",)), sx.F, path + ("head",),
                               "bind head", "bind head has type {}, not an F type")
            return self.comp((a,) + ctx, t.cont, path + ("cont",))
        if isinstance(t, sx.Ifz):
            sc = self.value(ctx, t.scrut, path + ("scrut",))
            self.unify(sc, sx.NAT, path + ("scrut",), "ifz scrutinee")
            zx = self.comp(ctx, t.zcase, path + ("zcase",))
            sxx = self.comp((sx.NAT,) + ctx, t.scase, path + ("scase",))
            self.unify(zx, sxx, path, "ifz branches")
            return zx
        if isinstance(t, sx.Fix):
            x = _Meta()
            body = self.comp((sx.U(x),) + ctx, t.body, path + ("body",))
            self.unify(body, x, path, "fix body")
            return x
        if isinstance(t, sx.Lam):
            body = self.comp((t.dom,) + ctx, t.body, path + ("body",))
            return sx.Arrow(t.dom, body)
        if isinstance(t, sx.Ap):
            dom, cod = self._split(self.comp(ctx, t.fun, path + ("fun",)), sx.Arrow, path + ("fun",),
                                   "ap head", "ap head has type {}, not an arrow")
            a = self.value(ctx, t.arg, path + ("arg",))
            self.unify(a, dom, path + ("arg",), "ap argument")
            return cod
        raise TypeCheckError(f"not a term: {t!r}", path)


def infer(ctx, t, expected=None, monoid=NAT_MONOID) -> TypeJudgment:
    """Infer the unique classification of t in ctx.

    `expected` (a CompType) switches to checking mode: the result must unify
    with it, which also determines otherwise-ambiguous `fix` types.
    """
    ctx = tuple(ctx)
    inf = _Infer(monoid)
    if not isinstance(t, sx.VALUE_NODES):
        kind, ty = Computation, inf.comp(ctx, t, ())
        if expected is not None:
            inf.unify(ty, expected, (), "expected type")
    elif expected is None:
        kind, ty = Value, inf.value(ctx, t, ())
    else:
        # A value checks against a computation type only via the thunk reading.
        a = inf.value(ctx, t, ())
        if not isinstance(inf.resolve(a), (sx.U, _Meta)):
            raise TypeCheckError(
                f"expected computation of type {show_type(expected)}, found value of type {show_type(inf.zonk(a))}",
                (),
            )
        inf.unify(a, sx.U(expected), (), "expected type")
        kind, ty = Computation, expected
    ty = inf.zonk(ty)
    if inf._occurs(ty):
        raise TypeCheckError(
            "ambiguous type: add a surrounding context that determines it",
            (), ambiguous=True)
    return TypeJudgment(ctx, t, kind(ty))


def check_program(t, expected, monoid=NAT_MONOID):
    """Check a closed computation against an expected type.  Returns the
    TypeJudgment on success, raises TypeCheckError otherwise."""
    return infer((), t, expected=expected, monoid=monoid)


def program_type(t, monoid=NAT_MONOID):
    """The type a closed program is run and observed at: its inferred type,
    each metavariable that inference leaves open read as `F unit` where a
    computation type stands and as `unit` where a value type does (the
    paper's adequacy observes complete programs at base type).  So
    `(fix x x)` reads at `F unit`, `(ret (fix x x))` at `F (U (F unit))` and
    `(fix f (lam nat n (ap f n)))` at `nat -> F unit`.  Raises
    TypeCheckError when the term is ill typed."""
    inf = _Infer(monoid)
    if isinstance(t, sx.VALUE_NODES):
        return inf.zonk(inf.value((), t, ()), default=True, comp=False)
    return inf.zonk(inf.comp((), t, ()), default=True)
