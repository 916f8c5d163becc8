"""Cost-instrumented small-step machine and fuel-bounded evaluation.

The transition relation reduces closed computations with head rules

    bind(ret(a), f)   -> 0, f[a]
    ap(lam(e), v)     -> 0, e[v]
    fix(e)            -> 0, e[fix(e)]
    ifz(zero, e0, e1) -> 0, e0
    ifz(succ(v), ...) -> 0, e1[v]
    step^c(e)         -> c, e

plus congruence in the head of `bind` and the function position of `ap`
(ifz scrutinees and ap arguments are values by typing, so nowhere else).
Terminal states are exactly `ret(v)` and `lam(e)`.

`out` exposes single transitions; eval/trace run on a persistent frame stack,
so finding the next redex under a long bind/ap spine costs O(1) per step
instead of O(depth).  The substitution a head rule performs is not O(1): it
rebuilds only the subterms that mention the bound index and shares the rest,
and the replacement, always closed here, is shared rather than copied (see
`syntax.subst`).  One fuel unit is one fired head rule, which is exactly one
`out` transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import syntax as sx
from .cost import DEFAULT_MODEL, CostModel


class StuckError(Exception):
    """No rule applies to a supposedly well-typed closed computation."""

    def __init__(self, term):
        self.term = term
        super().__init__(f"machine stuck at: {sx.print_term(term)}")


@dataclass(frozen=True)
class Terminal:
    def __repr__(self) -> str:
        return "Terminal"


@dataclass(frozen=True)
class Next:
    cost: object
    term: object


TERMINAL = Terminal()

StepResult = object  # Terminal | Next


@dataclass(frozen=True)
class Defined:
    cost: object


@dataclass(frozen=True)
class Mismatch:
    pass


@dataclass(frozen=True)
class Exhausted:
    fuel_used: int


CostedOutcome = object  # Defined | Mismatch | Exhausted

MISMATCH = Mismatch()


@dataclass(frozen=True)
class Trace:
    steps: tuple  # of (cost, Term)
    total: object
    truncated: bool


def is_terminal(t) -> bool:
    return isinstance(t, (sx.Ret, sx.Lam))


# Frames: ("bind", cont) for bind(_, cont); ("ap", arg) for ap(_, arg).


def _plug(frames, t):
    for kind, payload in reversed(frames):
        t = sx.Bind(t, payload) if kind == "bind" else sx.Ap(t, payload)
    return t


class _Runner:
    """Focus + frame stack form of the machine; fires one head rule per step."""

    def __init__(self, term, model: CostModel):
        self.focus = term
        self.frames: list = []
        self.model = model

    def current_term(self):
        return _plug(self.frames, self.focus)

    def at_terminal(self) -> bool:
        return not self.frames and is_terminal(self.focus)

    def step(self) -> Optional[object]:
        """Fire one transition; returns its cost, or None at a terminal."""
        focus = self.focus
        frames = self.frames
        while True:
            if isinstance(focus, sx.Bind):
                if isinstance(focus.head, sx.Ret):
                    self.focus = sx.subst(focus.cont, focus.head.arg)
                    return self.model.zero()
                frames.append(("bind", focus.cont))
                focus = focus.head
                continue
            if isinstance(focus, sx.Ap):
                if isinstance(focus.fun, sx.Lam):
                    self.focus = sx.subst(focus.fun.body, focus.arg)
                    return self.model.zero()
                frames.append(("ap", focus.arg))
                focus = focus.fun
                continue
            if isinstance(focus, sx.Step):
                self.focus = focus.body
                return focus.cost
            if isinstance(focus, sx.Fix):
                self.focus = sx.subst(focus.body, focus)
                return self.model.zero()
            if isinstance(focus, sx.Ifz):
                scrut = focus.scrut
                if isinstance(scrut, sx.Zero):
                    self.focus = focus.zcase
                    return self.model.zero()
                if isinstance(scrut, sx.Succ):
                    self.focus = sx.subst(focus.scase, scrut.arg)
                    return self.model.zero()
                self.focus = focus
                raise StuckError(self.current_term())
            if isinstance(focus, sx.Ret):
                if not frames:
                    self.focus = focus
                    return None
                if frames[-1][0] == "bind":
                    cont = frames.pop()[1]
                    self.focus = sx.subst(cont, focus.arg)
                    return self.model.zero()
                self.focus = focus
                raise StuckError(self.current_term())
            if isinstance(focus, sx.Lam):
                if not frames:
                    self.focus = focus
                    return None
                if frames[-1][0] == "ap":
                    arg = frames.pop()[1]
                    self.focus = sx.subst(focus.body, arg)
                    return self.model.zero()
                self.focus = focus
                raise StuckError(self.current_term())
            # Values and variables are not computations: stuck.
            self.focus = focus
            raise StuckError(self.current_term())


def out(e, model: CostModel = DEFAULT_MODEL) -> StepResult:
    """One transition of the closed computation e, or Terminal."""
    runner = _Runner(e, model)
    cost = runner.step()
    if cost is None:
        return TERMINAL
    return Next(cost, runner.current_term())


def trace(e, fuel: int, model: CostModel = DEFAULT_MODEL) -> Trace:
    """Iterate `out` at most fuel times, recording each (cost, term) step."""
    runner = _Runner(e, model)
    steps = []
    total = model.zero()
    for _ in range(fuel):
        cost = runner.step()
        if cost is None:
            break
        total = model.add(total, cost)
        steps.append((cost, runner.current_term()))
    return Trace(tuple(steps), total, not runner.at_terminal())


def run(e, fuel: int, model: CostModel = DEFAULT_MODEL):
    """Drive e to a terminal within fuel.

    Returns (total cost, terminal term, steps used) or None when the budget
    is exhausted first.
    """
    runner = _Runner(e, model)
    total = model.zero()
    used = 0
    for _ in range(fuel):
        cost = runner.step()
        if cost is None:
            break
        total = model.add(total, cost)
        used += 1
    if runner.at_terminal():
        return total, runner.focus, used
    return None


def eval_term(e, v, fuel: int, model: CostModel = DEFAULT_MODEL) -> CostedOutcome:
    """Run e and compare its terminal against the target terminal v.

    Defined(cost) when the terminal structurally equals v; Mismatch when it
    differs; Exhausted(fuel) when the budget runs out first.
    """
    res = run(e, fuel, model)
    if res is None:
        return Exhausted(fuel)
    total, terminal, _used = res
    if terminal == v:
        return Defined(total)
    return MISMATCH


def profile(e, fuel: int, model: CostModel = DEFAULT_MODEL) -> CostedOutcome:
    """eval against ret(triv): the cost profile of a unit-typed computation."""
    return eval_term(e, sx.Ret(sx.TRIV), fuel, model)
