"""Denotational cost semantics: the partial cost monad as a delay structure.

A computation of returner type denotes an element of T A = L(C x A): a
possibly infinite unfolding that, if it completes, yields one accumulated
cost and one value.  `Done` and `Later` are the semantic constructors;
internally two administrative nodes (_Charge, _Seq) keep cost charging and
sequencing O(1) per observation step, so left-nested binds and unbounded
charge chains do not blow up.  Administrative nodes are invisible to fuel:
`observe` spends fuel on Later unwraps only, so `charge` and `bindT` leave
the Later structure of their arguments intact.

Fixed points unfold lazily: each re-entry into a `fix` body goes through a
guard that costs exactly one Later, making every denotation productive and
observation fuel-monotone.  A guard builds its Later once and every
re-entry shares it; fuel is still charged per unwrap, never per object.
`observe` stops early and answers Diverges once it meets the same Later
again in a state that proves it repeats forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import syntax as sx
from .cost import DEFAULT_MODEL, CostModel
# Callers also read the outcome classes here, as dn.Defined and so on.
from .outcome import DIVERGES, EXHAUSTED, Defined, Diverges, Exhausted


# ---------------------------------------------------------------------------
# Semantic values

@dataclass(frozen=True)
class VTriv:
    def __repr__(self) -> str:
        return "VTriv"


@dataclass(frozen=True)
class VBool:
    flag: bool


@dataclass(frozen=True)
class VNum:
    n: int


@dataclass(frozen=True)
class VThunk:
    comp: object  # SemComp


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

@dataclass(frozen=True)
class Done:
    cost: object
    value: object


@dataclass(frozen=True)
class Later:
    thunk: Callable  # () -> Delay


@dataclass(frozen=True)
class _Charge:
    cost: object
    inner: object


@dataclass(frozen=True)
class _Seq:
    head: object
    cont: Callable  # value -> Delay


def bottom() -> Later:
    """The Delay that is Later forever."""
    d = Later(lambda: d)
    return d


def eta(a, model: CostModel = DEFAULT_MODEL) -> Done:
    """Unit of T: immediately done at zero cost."""
    return Done(model.zero(), a)


def charge(c, d, model: CostModel = DEFAULT_MODEL):
    """Add c (on the left) to the eventual cost of d.

    The Later structure of d is untouched, so charging never changes how
    much fuel an observation needs.
    """
    if isinstance(d, Done):
        return Done(model.add(c, d.cost), d.value)
    return _Charge(c, d)


def bindT(d, k):
    """Kleisli sequencing: costs add, partiality composes."""
    return _Seq(d, k)


def _unwind(d, fuel, model):
    """Unwrap at most `fuel` Laters of d: (outcome, Laters used), the
    outcome Defined(cost, value), Diverges or Exhausted.

    Dispatch is on exact node type, Later first.  Later is read per call (a
    tracer may swap in a counting subclass); other subclasses of it take the
    isinstance fallback once and are then dispatched as Later.

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
        elif isinstance(d, Later):
            later = tp
        else:
            raise TypeError(f"not a delay: {d!r}")


def observe(d, fuel: int, model: CostModel = DEFAULT_MODEL):
    """Unwrap at most `fuel` Laters: Defined, Diverges or Exhausted.  Defined
    and Diverges answers are fuel-monotone.

    Costs accumulate left-to-right in encounter order, which is evaluation
    order, so non-commutative monoids are respected.
    """
    return _unwind(d, fuel, model)[0]


def laters_needed(d, limit: int, model: CostModel = DEFAULT_MODEL):
    """Smallest fuel at which d is Defined, or None if above limit.

    Used by the laws suite and by tests to assert that combinators preserve
    Later structure.
    """
    outcome, used = _unwind(d, limit, model)
    return used if isinstance(outcome, Defined) else None


# ---------------------------------------------------------------------------
# Semantic computations

class SemComp:
    """A denoted computation: observable as a delay at returner type,
    applicable at function type.  Well-typedness guarantees each instance is
    only ever used in the mode its type supports."""

    def to_delay(self):
        raise TypeError(f"{type(self).__name__} is not a returner computation")

    def apply(self, v) -> "SemComp":
        raise TypeError(f"{type(self).__name__} is not a function computation")


class FComp(SemComp):
    """A returner: wraps a Delay."""

    __slots__ = ("delay",)

    def __init__(self, delay):
        self.delay = delay

    def to_delay(self):
        return self.delay


class FunComp(SemComp):
    """A function: a host function from semantic values to computations."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def apply(self, v) -> SemComp:
        return self.fn(v)


class BindComp(SemComp):
    """Sequencing at any computation type: the T-algebra applied pointwise.

    At returner type this is bindT; at function type the pending argument is
    pushed into the continuation.
    """

    __slots__ = ("head", "cont")

    def __init__(self, head: SemComp, cont):
        self.head = head
        self.cont = cont  # value -> SemComp

    def to_delay(self):
        return bindT(self.head.to_delay(), lambda a: self.cont(a).to_delay())

    def apply(self, v) -> SemComp:
        return BindComp(self.head, lambda a: self.cont(a).apply(v))


class ChargeComp(SemComp):
    """Cost charging at any computation type, applied pointwise at arrows."""

    __slots__ = ("cost", "inner", "model")

    def __init__(self, cost, inner: SemComp, model: CostModel):
        self.cost = cost
        self.inner = inner
        self.model = model

    def to_delay(self):
        return charge(self.cost, self.inner.to_delay(), self.model)

    def apply(self, v) -> SemComp:
        return ChargeComp(self.cost, self.inner.apply(v), self.model)


class GuardComp(SemComp):
    """A fix re-entry point: one Later per unfolding, in either mode.  Its
    Later is built once and shared; each unwrap still spends one fuel.  It
    also keeps the guard it built for its last argument (one slot, compared
    by identity), so a loop that passes its argument on unchanged meets the
    same Later again."""

    __slots__ = ("enter", "_delay", "_arg", "_applied")

    def __init__(self, enter):
        self.enter = enter  # () -> SemComp
        self._delay = None
        self._arg = self._applied = None

    def to_delay(self):
        if self._delay is None:
            enter = self.enter  # not self: no guard -> Later -> guard cycle
            self._delay = Later(lambda: enter().to_delay())
        return self._delay

    def apply(self, v) -> SemComp:
        if v is not self._arg:
            enter = self.enter
            self._arg = v
            self._applied = GuardComp(lambda: enter().apply(v))
        return self._applied


# ---------------------------------------------------------------------------
# The interpreter

def _dval(t, env, model):
    """Dispatch is on exact node type, most frequent first in the `check
    all` battery, as in `_unwind`: no class subclasses a term node."""
    tp = type(t)
    if tp is sx.Var:
        return env[t.index]
    if tp is sx.Succ:
        # One VNum per numeral: count the Succ chain down to its base, Zero
        # or a variable bound to a number.
        k = 0
        while type(t) is sx.Succ:
            k += 1
            t = t.arg
        return VNum(k if type(t) is sx.Zero else _dval(t, env, model).n + k)
    if tp is sx.Zero:
        return VNum(0)
    if tp is sx.Triv:
        return TRIV
    if tp is sx.Yes:
        return V_YES
    if tp is sx.No:
        return V_NO
    # A computation in value position is its own thunk.
    return VThunk(_dcomp(t, env, model))


def _dcomp(t, env, model) -> SemComp:
    """Dispatch as in `_dval`."""
    tp = type(t)
    if tp is sx.Ap:
        return _dcomp(t.fun, env, model).apply(_dval(t.arg, env, model))
    if tp is sx.Ifz:
        n = _dval(t.scrut, env, model).n
        if n == 0:
            return _dcomp(t.zcase, env, model)
        return _dcomp(t.scase, (VNum(n - 1),) + env, model)
    if tp is sx.Lam:
        body = t.body
        return FunComp(lambda v: _dcomp(body, (v,) + env, model))
    if tp is sx.Ret:
        return FComp(eta(_dval(t.arg, env, model), model))
    if tp is sx.Bind:
        cont = t.cont
        return BindComp(
            _dcomp(t.head, env, model),
            lambda a: _dcomp(cont, (a,) + env, model),
        )
    if tp is sx.Var:
        return env[t.index].comp
    if tp is sx.Step:
        return ChargeComp(t.cost, _dcomp(t.body, env, model), model)
    if tp is sx.Fix:
        holder = [None]
        rec = VThunk(GuardComp(lambda: holder[0]))
        holder[0] = _dcomp(t.body, (rec,) + env, model)
        return holder[0]
    raise TypeError(f"not a computation term: {t!r}")


def denote(ctx, t, env, model: CostModel = DEFAULT_MODEL):
    """Compositional interpretation: SemValue for values, SemComp otherwise.

    Precondition: t typechecks in ctx and env matches ctx pointwise.
    """
    if isinstance(t, sx.VALUE_NODES):
        return _dval(t, tuple(env), model)
    return _dcomp(t, tuple(env), model)


def denote_closed(t, model: CostModel = DEFAULT_MODEL) -> SemComp:
    """Denotation of a closed computation."""
    return _dcomp(t, (), model)
