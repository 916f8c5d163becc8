"""Syntax-directed type checker for the value/computation discipline.

Every constructor is syntax-directed and `lam` carries its domain, so
inference is nearly pure bottom-up.  The one gap is `fix`, whose binder type
U(X) mentions the result type X; we close it with unification metavariables.
A term is well-typed when constraints solve; its classification is the unique
zonked result.  If the result type itself is underdetermined (for example the
bare `fix x x`), inference reports ambiguity, but checking against an expected
type seeds the metavariable and succeeds.
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
class _VMeta:
    """Value-type metavariable (identity-based)."""


@dataclass(frozen=True, eq=False)
class _CMeta:
    """Computation-type metavariable (identity-based)."""


class _Solver:
    def __init__(self):
        self.solutions: dict = {}

    def fresh_v(self) -> _VMeta:
        return _VMeta()

    def fresh_c(self) -> _CMeta:
        return _CMeta()

    def resolve(self, t):
        # Keyed by the meta object itself (identity hash): an id()-keyed dict
        # would let a collected meta's address be reused by a fresh one.
        while isinstance(t, (_VMeta, _CMeta)) and t in self.solutions:
            t = self.solutions[t]
        return t

    def zonk(self, t):
        t = self.resolve(t)
        if isinstance(t, sx.U):
            return sx.U(self.zonk(t.comp))
        if isinstance(t, sx.F):
            return sx.F(self.zonk(t.value))
        if isinstance(t, sx.Arrow):
            return sx.Arrow(self.zonk(t.dom), self.zonk(t.cod))
        return t

    def _occurs(self, meta, t) -> bool:
        t = self.resolve(t)
        if t is meta:
            return True
        if isinstance(t, sx.U):
            return self._occurs(meta, t.comp)
        if isinstance(t, sx.F):
            return self._occurs(meta, t.value)
        if isinstance(t, sx.Arrow):
            return self._occurs(meta, t.dom) or self._occurs(meta, t.cod)
        return False

    def unify(self, a, b, path, what):
        a = self.resolve(a)
        b = self.resolve(b)
        if a is b:
            return
        if isinstance(a, (_VMeta, _CMeta)):
            if self._occurs(a, b):
                raise TypeCheckError(f"{what}: infinite type", path)
            self.solutions[a] = b
            return
        if isinstance(b, (_VMeta, _CMeta)):
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
        raise TypeCheckError(f"{what}: {_show(self.zonk(a))} does not match {_show(self.zonk(b))}", path)

    def has_meta(self, t) -> bool:
        t = self.resolve(t)
        if isinstance(t, (_VMeta, _CMeta)):
            return True
        if isinstance(t, sx.U):
            return self.has_meta(t.comp)
        if isinstance(t, sx.F):
            return self.has_meta(t.value)
        if isinstance(t, sx.Arrow):
            return self.has_meta(t.dom) or self.has_meta(t.cod)
        return False


def _show(t) -> str:
    """Human-readable type, e.g. "F nat" or "nat -> F nat"."""
    if isinstance(t, (_VMeta, _CMeta)):
        return "?"
    if isinstance(t, sx.Ans):
        return "ans"
    if isinstance(t, sx.Nat):
        return "nat"
    if isinstance(t, sx.Unit):
        return "unit"
    if isinstance(t, sx.U):
        return f"U ({_show(t.comp)})"
    if isinstance(t, sx.F):
        inner = _show(t.value)
        if isinstance(t.value, sx.U):
            inner = f"({inner})"
        return f"F {inner}"
    if isinstance(t, sx.Arrow):
        dom = _show(t.dom)
        if isinstance(t.dom, sx.U):
            dom = f"({dom})"
        return f"{dom} -> {_show(t.cod)}"
    return repr(t)


show_type = _show

_VALUE_LEAVES = (sx.Var, sx.Yes, sx.No, sx.Zero, sx.Succ, sx.Triv)


def is_value_term(t) -> bool:
    """Intrinsic value constructors; computations are values only at thunk type."""
    return isinstance(t, _VALUE_LEAVES)


class _Infer:
    def __init__(self, monoid):
        self.monoid = monoid
        self.s = _Solver()

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
            self.s.unify(a, sx.NAT, path + ("arg",), "succ argument")
            return sx.NAT
        if isinstance(t, sx.Triv):
            return sx.UNIT
        return sx.U(self.comp(ctx, t, path))

    # Computation-type inference; thunk-typed values coerce to computations.
    def comp(self, ctx, t, path):
        if is_value_term(t):
            a = self.value(ctx, t, path)
            a = self.s.resolve(a)
            if isinstance(a, sx.U):
                return a.comp
            if isinstance(a, _VMeta):
                x = self.s.fresh_c()
                self.s.unify(a, sx.U(x), path, "forced value")
                return x
            raise TypeCheckError(
                f"value of type {_show(self.s.zonk(a))} used as a computation (not a thunk)", path
            )
        if isinstance(t, sx.Ret):
            return sx.F(self.value(ctx, t.arg, path + ("arg",)))
        if isinstance(t, sx.Step):
            if not self.monoid.contains(t.cost):
                raise TypeCheckError(
                    f"step cost {t.cost!r} is not an element of monoid {self.monoid.name}", path
                )
            return self.comp(ctx, t.body, path + ("body",))
        if isinstance(t, sx.Bind):
            h = self.s.resolve(self.comp(ctx, t.head, path + ("head",)))
            if isinstance(h, sx.F):
                a = h.value
            elif isinstance(h, _CMeta):
                a = self.s.fresh_v()
                self.s.unify(h, sx.F(a), path + ("head",), "bind head")
            else:
                raise TypeCheckError(
                    f"bind head has type {_show(self.s.zonk(h))}, not an F type", path + ("head",)
                )
            return self.comp((a,) + ctx, t.cont, path + ("cont",))
        if isinstance(t, sx.Ifz):
            sc = self.value(ctx, t.scrut, path + ("scrut",))
            self.s.unify(sc, sx.NAT, path + ("scrut",), "ifz scrutinee")
            zx = self.comp(ctx, t.zcase, path + ("zcase",))
            sxx = self.comp((sx.NAT,) + ctx, t.scase, path + ("scase",))
            self.s.unify(zx, sxx, path, "ifz branches")
            return zx
        if isinstance(t, sx.Fix):
            x = self.s.fresh_c()
            body = self.comp((sx.U(x),) + ctx, t.body, path + ("body",))
            self.s.unify(body, x, path, "fix body")
            return x
        if isinstance(t, sx.Lam):
            body = self.comp((t.dom,) + ctx, t.body, path + ("body",))
            return sx.Arrow(t.dom, body)
        if isinstance(t, sx.Ap):
            f = self.s.resolve(self.comp(ctx, t.fun, path + ("fun",)))
            if isinstance(f, sx.Arrow):
                dom, cod = f.dom, f.cod
            elif isinstance(f, _CMeta):
                dom, cod = self.s.fresh_v(), self.s.fresh_c()
                self.s.unify(f, sx.Arrow(dom, cod), path + ("fun",), "ap head")
            else:
                raise TypeCheckError(
                    f"ap head has type {_show(self.s.zonk(f))}, not an arrow", path + ("fun",)
                )
            a = self.value(ctx, t.arg, path + ("arg",))
            self.s.unify(a, dom, path + ("arg",), "ap argument")
            return cod
        raise TypeCheckError(f"not a term: {t!r}", path)


def infer(ctx, t, expected=None, monoid=NAT_MONOID) -> TypeJudgment:
    """Infer the unique classification of t in ctx.

    `expected` (a CompType) switches to checking mode: the result must unify
    with it, which also determines otherwise-ambiguous `fix` types.
    """
    ctx = tuple(ctx)
    inf = _Infer(monoid)
    if is_value_term(t):
        a = inf.value(ctx, t, ())
        if expected is not None:
            # A value checks against a computation type only via the thunk reading.
            a_r = inf.s.resolve(a)
            if isinstance(a_r, (sx.U, _VMeta)):
                inf.s.unify(a_r, sx.U(expected), (), "expected type")
                x = inf.s.zonk(expected)
                return TypeJudgment(ctx, t, Computation(x))
            raise TypeCheckError(
                f"expected computation of type {_show(expected)}, found value of type {_show(inf.s.zonk(a))}",
                (),
            )
        a = inf.s.zonk(a)
        if inf.s.has_meta(a):
            raise TypeCheckError(
                "ambiguous type: add a surrounding context that determines it",
                (), ambiguous=True)
        return TypeJudgment(ctx, t, Value(a))
    x = inf.comp(ctx, t, ())
    if expected is not None:
        inf.s.unify(x, expected, (), "expected type")
    x = inf.s.zonk(x)
    if inf.s.has_meta(x):
        raise TypeCheckError(
            "ambiguous type: add a surrounding context that determines it",
            (), ambiguous=True)
    return TypeJudgment(ctx, t, Computation(x))


def check_program(t, expected, monoid=NAT_MONOID):
    """Check a closed computation against an expected type.  Returns the
    TypeJudgment on success, raises TypeCheckError otherwise."""
    return infer((), t, expected=expected, monoid=monoid)
