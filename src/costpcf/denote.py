"""Denotational cost semantics: the partial cost monad as a delay structure.

A computation of returner type denotes an element of T A = L(C x A): a
possibly infinite unfolding that, if it completes, yields one accumulated
cost and one value.  The denotation of a returner is that delay itself.
`Done` and `Later` are the semantic constructors; two administrative nodes
(_Charge, _Seq) keep cost charging and sequencing O(1) per observation
step, so left-nested binds and unbounded charge chains do not blow up.
Administrative nodes are invisible to fuel: `unwind` spends fuel on Later
unwraps only, so `charge` and `bindT` leave the Later structure of their
arguments intact.

A computation of function type denotes a `FunComp`, and the algebra at a
function type is pointwise: applying a `_Charge` or `_Seq` node pushes the
argument inside it.  Every computation has `to_delay` (the delay itself, or
a guard's Later) and `apply`; well-typedness guarantees each is only used
in the mode its type supports, and the other raises TypeError.  A thunk
denotes its own computation, [[U X]] = [[X]]: a computation in value
position is its own value, and a forced variable is read as it is.

Fixed points unfold lazily: [[fix x.e]] is a guard, which x is bound to,
and each unfolding, the first included, costs exactly one Later, as it
costs the machine one unit of fuel.  This makes every denotation
productive and observation fuel-monotone.  A guard enters the body when
first forced and builds its Later once; every unfolding shares both, and
`unwind` reads a guard as that Later; fuel is still charged per unwrap,
never per object.  `unwind` stops early and answers Diverges once it
meets the same Later again in a state that proves it repeats forever.

The denotation [[e]] : [[Gamma]] -> T[[A]] is built once per term node, by
recursion on the syntax, and then applied to environments: `_compile` turns
a computation node into a closure `(env, model) -> computation` and caches
it on the node itself (the `_code` slot of `syntax._Node`).  The model is
an argument, so one cached closure serves every cost model and phase.
Bodies of `lam` and `fix`, the branches of `ifz` and `bind` continuations
are compiled when first entered; everything else when its parent is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import syntax as sx
from .cost import DEFAULT_MODEL, CostModel
# Callers also read the outcome classes here, as dn.Defined and so on.
from .outcome import DIVERGES, EXHAUSTED, Defined, Diverges, Exhausted
from .records import record


# ---------------------------------------------------------------------------
# Semantic values

@dataclass(frozen=True)
class VTriv:
    def __repr__(self) -> str:
        return "VTriv"


@record
class VBool:
    __slots__ = ("flag",)
    flag: bool


@record
class VNum:
    # Weakly referable, so a test can check that no guard keeps one alive.
    __slots__ = ("n", "__weakref__")
    n: int


TRIV = VTriv()
V_YES = VBool(True)
V_NO = VBool(False)


def ground_json(v):
    """Ground values as JSON scalars; None for thunks/functions."""
    if isinstance(v, VTriv):
        return "triv"
    if isinstance(v, VBool):
        return "yes" if v.flag else "no"
    if isinstance(v, VNum):
        return v.n
    return None


# ---------------------------------------------------------------------------
# The delay structure

class _Delay:
    """A delay node: a returner computation that is its own delay."""

    __slots__ = ()

    def to_delay(self):
        return self

    def apply(self, v):
        raise TypeError(f"{type(self).__name__} is not a function computation")


@record
class Done(_Delay):
    __slots__ = ("cost", "value")
    cost: object
    value: object


@record
class Later(_Delay):
    __slots__ = ("thunk",)
    thunk: Callable  # () -> Delay


@record
class _Charge(_Delay):
    __slots__ = ("cost", "inner")
    cost: object
    inner: object

    def apply(self, v):
        return _Charge(self.cost, self.inner.apply(v))


@record
class _Seq(_Delay):
    __slots__ = ("head", "cont")
    head: object
    cont: Callable  # value -> Delay

    def apply(self, v):
        cont = self.cont
        return _Seq(self.head, lambda a: cont(a).apply(v))


def bottom() -> Later:
    """The Delay that is Later forever."""
    d = Later(lambda: d)
    return d


def eta(a, model: CostModel = DEFAULT_MODEL) -> Done:
    """Unit of T: immediately done at zero cost."""
    return Done(model.zero(), a)


def charge(c, d, model: CostModel = DEFAULT_MODEL):
    """Add c (on the left) to the eventual cost of d, at any computation
    type: at a function type, to the cost of every application of d.

    The Later structure of d is untouched, so charging never changes how
    much fuel an observation needs.
    """
    if isinstance(d, Done):
        return Done(model.add(c, d.cost), d.value)
    return _Charge(c, d)


def bindT(d, k):
    """Kleisli sequencing: costs add, partiality composes.  At a function
    type, k returns functions and an argument is passed on to k's result."""
    return _Seq(d, k)


def unwind(d, fuel, model: CostModel = DEFAULT_MODEL):
    """Unwrap at most `fuel` Laters of d: (outcome, Laters used), the
    outcome Defined(cost, value), Diverges or Exhausted.

    One unwinding at `fuel` gives the outcome at every fuel f up to it:
    Defined after u Laters is Defined for f >= u and Exhausted below;
    Diverges after u Laters is Exhausted for f <= u and Diverges above, as
    the fuel check runs before the repeat check; Exhausted (u = fuel) is
    Exhausted at every f <= fuel.

    Dispatch is on exact node type, Later first; a fix guard is read as
    its shared Later.  Later is read per call (a tracer may swap in a
    counting subclass); other subclasses of it take the isinstance fallback
    once and are then dispatched as Later.

    A delay that provably repeats forever answers Diverges at once: at each
    power-of-two count of unwraps the Later and the continuation stack
    height are marked.  If the same Later (by identity) comes back while
    none of the continuations present at the mark has been popped, the
    unwinding since the mark used only that Later and the continuations it
    pushed itself; thunks and continuations are pure, so it recurs without
    end."""
    later = Later
    add = model.add
    pending = model.zero()
    stack: list = []
    push = stack.append
    pop = stack.pop
    used = 0
    mark = None
    mark_height = low = 0
    while True:
        tp = type(d)
        if tp is later:
            if used >= fuel:
                return EXHAUSTED, used
            if d is mark and low >= mark_height:
                return DIVERGES, used
            used += 1
            if not used & (used - 1):
                mark = d
                mark_height = low = len(stack)
            d = d.thunk()
        elif tp is _Charge:
            pending = add(pending, d.cost)
            d = d.inner
        elif tp is _Seq:
            push(d.cont)
            d = d.head
        elif tp is Done:
            pending = add(pending, d.cost)
            if not stack:
                return Defined(pending, d.value), used
            d = pop()(d.value)
            if len(stack) < low:
                low = len(stack)
        elif tp is GuardComp:
            d = d.to_delay()
        elif isinstance(d, Later):
            later = tp
        else:
            raise TypeError(f"not a delay: {d!r}")


def observe(d, fuel: int, model: CostModel = DEFAULT_MODEL):
    """Unwrap at most `fuel` Laters: Defined, Diverges or Exhausted, the
    outcome `unwind` gives.  Defined and Diverges answers are fuel-monotone.

    Costs accumulate left-to-right in encounter order, which is evaluation
    order, so non-commutative monoids are respected.
    """
    return unwind(d, fuel, model)[0]


def laters_needed(d, limit: int, model: CostModel = DEFAULT_MODEL):
    """Smallest fuel at which d is Defined, or None if above limit: the
    Laters `unwind` used when it answers Defined."""
    outcome, used = unwind(d, limit, model)
    return used if isinstance(outcome, Defined) else None


# ---------------------------------------------------------------------------
# Semantic computations that are not delay nodes

class FunComp:
    """A function: a host function from semantic values to computations.

    The function is stored as the instance's own `apply` slot, so applying
    it calls the host function with no frame in between."""

    __slots__ = ("apply",)

    def __init__(self, fn):
        self.apply = fn

    def to_delay(self):
        raise TypeError("FunComp is not a returner computation")


class GuardComp:
    """[[fix x.e]]: one Later per unfolding, the first included, in either
    mode.  Its Later is built once and shared, and `unwind` reads the guard
    as it; each unwrap still spends one fuel.  It also keeps the guard it
    built for its last argument (one slot, compared by identity), so a loop
    that passes its argument on unchanged meets the same Later again."""

    __slots__ = ("enter", "_delay", "_arg", "_applied")

    def __init__(self, enter):
        self.enter = enter  # () -> computation
        self._delay = None
        self._arg = self._applied = None

    def to_delay(self):
        if self._delay is None:
            # The Later holds `enter`, not self: no guard -> Later -> guard cycle.
            self._delay = Later(self.enter)
        return self._delay

    def apply(self, v):
        if v is not self._arg:
            enter = self.enter
            self._arg = v
            self._applied = GuardComp(lambda: enter().apply(v))
        return self._applied


# ---------------------------------------------------------------------------
# The compiler
#
# A cached closure captures only compile-time data: child closures, child
# nodes still to compile, indices, costs and closed numerals.  It never
# captures an environment, a model, or a value or computation built at run
# time, so it can be shared by every denotation of its node.  A child that may
# never run is compiled on first entry, through the node's cache; a value
# position compiles through `_value_code` to a closure that only its parent
# holds, or to a computation's own cached closure.  Dispatch is on exact node
# type, most frequent first, as in `unwind`: no class subclasses a term node.
# Each child is fetched as `c._code or _compile(c)`, inline, so compiling a
# chain takes one stack frame per node.

def _compile(t):
    """The closure of computation node `t`, compiled and cached on `t`.  A
    Var here is in computation position: it forces the thunk it is bound to."""
    tp = type(t)
    if tp is sx.Ap:
        fun = t.fun
        fun = fun._code or _compile(fun)
        arg = _value_code(t.arg)

        def code(env, model):
            return fun(env, model).apply(arg(env, model))
    elif tp is sx.Ifz:
        scrut = _value_code(t.scrut)
        zcase, scase = t.zcase, t.scase

        def code(env, model):
            n = scrut(env, model).n
            if n == 0:
                return (zcase._code or _compile(zcase))(env, model)
            return (scase._code or _compile(scase))((VNum(n - 1),) + env, model)
    elif tp is sx.Lam:
        body = t.body

        def code(env, model):
            return FunComp(lambda v: (body._code or _compile(body))((v,) + env, model))
    elif tp is sx.Ret:
        arg = _value_code(t.arg)

        def code(env, model):
            return Done(model.zero(), arg(env, model))
    elif tp is sx.Bind:
        head = t.head
        head = head._code or _compile(head)
        cont = t.cont

        def code(env, model):
            return _Seq(head(env, model),
                        lambda a: (cont._code or _compile(cont))((a,) + env, model))
    elif tp is sx.Var:
        i = t.index

        def code(env, model):
            return env[i]
    elif tp is sx.Step:
        cost = t.cost
        body = t.body
        body = body._code or _compile(body)

        def code(env, model):
            return charge(cost, body(env, model), model)
    elif tp is sx.Fix:
        body = t.body

        def code(env, model):
            entered = []  # the body, entered at the first unfolding

            def enter():
                if not entered:
                    entered.append((body._code or _compile(body))((rec,) + env, model))
                return entered[0]
            rec = GuardComp(enter)
            return rec
    else:
        raise TypeError(f"not a computation term: {t!r}")
    # `_code` is a slot of the frozen node, not a field: this writes it past
    # the dataclass's `__setattr__`, which refuses every assignment.
    object.__setattr__(t, "_code", code)
    return code


def _value_code(t):
    """The closure `(env, model) -> semantic value` of `t` in value position.

    A numeral is one VNum: its Succ chain is counted down to its base here,
    at compile time.  On Zero the VNum is built now and every evaluation
    shares it; on a variable bound to a number, one is built per evaluation.
    """
    tp = type(t)
    if tp is sx.Var:
        i = t.index
        return lambda env, model: env[i]
    if tp is sx.Succ or tp is sx.Zero:
        k = 0
        while type(t) is sx.Succ:
            k += 1
            t = t.arg
        if type(t) is sx.Zero:
            v = VNum(k)
            return lambda env, model: v
        i = t.index
        return lambda env, model: VNum(env[i].n + k)
    if tp is sx.Triv:
        return lambda env, model: TRIV
    if tp is sx.Yes:
        return lambda env, model: V_YES
    if tp is sx.No:
        return lambda env, model: V_NO
    # A computation in value position is its own thunk: [[U X]] = [[X]].
    return t._code or _compile(t)


def denote(ctx, t, env, model: CostModel = DEFAULT_MODEL):
    """Compositional interpretation: a semantic value for a value node, a
    computation (a delay node, FunComp or GuardComp) otherwise.

    Precondition: t typechecks in ctx and env matches ctx pointwise.
    """
    if isinstance(t, sx.VALUE_NODES):
        return _value_code(t)(tuple(env), model)
    return (t._code or _compile(t))(tuple(env), model)


def denote_closed(t, model: CostModel = DEFAULT_MODEL):
    """Denotation of a closed computation."""
    return (t._code or _compile(t))((), model)
