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
`syntax.subst`).  Within one run it is also done once per (body, replacement)
pair of node objects: the runner memoises it by identity, so a fix unfolding
or a numeral substituted into the same body again returns the earlier result,
the identical object.  The memo holds at most SUBST_MEMO_CAP entries; `out`
builds a fresh runner, and so a fresh memo, per call.  One fuel unit is one
fired head rule, which is exactly one `out` transition, hit or miss.
`settle`, behind `run`, `eval_term` and `profile`, stops early and answers
Diverges once it proves that a fix unfolding repeats forever; `trace` and
`out` never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import syntax as sx
from .cost import DEFAULT_MODEL, CostModel
from .outcome import DIVERGES, EXHAUSTED, Defined


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
class Mismatch:
    """eval_term's answer for a terminal other than the target."""


MISMATCH = Mismatch()


@dataclass(frozen=True)
class Trace:
    steps: tuple  # of (cost, Term), or (cost, None) without terms
    total: object
    truncated: bool


def is_terminal(t) -> bool:
    return isinstance(t, (sx.Ret, sx.Lam))


# Frames: ("bind", cont) for bind(_, cont); ("ap", arg) for ap(_, arg).


def _plug(frames, t):
    for kind, payload in reversed(frames):
        t = sx.Bind(t, payload) if kind == "bind" else sx.Ap(t, payload)
    return t


# Entries the substitution memo of one run holds before it is cleared.
SUBST_MEMO_CAP = 1024


class _Runner:
    """Focus + frame stack form of the machine; fires one head rule per step."""

    def __init__(self, term, model: CostModel, watch: bool = False):
        self.focus = term
        self.frames: list = []
        self.model = model
        # (id(body), id(arg)) -> (body, arg, body[arg]); see `subst`.
        self.memo: dict = {}
        # Repeat check, on when `watch` (see `run`): fix unfoldings so far,
        # the fix node and a copy of the frame stack marked at the last
        # power-of-two count, and the lowest stack height since then.
        self.watch = watch
        self.fixes = 0
        self.mark = None
        self.snapshot: list = []
        self.low = 0

    def current_term(self):
        return _plug(self.frames, self.focus)

    def at_terminal(self) -> bool:
        return not self.frames and is_terminal(self.focus)

    def subst(self, body, arg):
        """body[arg] at index 0, computed once per (body, arg) pair by identity.

        `subst` is pure and nodes are immutable, so a hit is exact.  Each
        entry keeps its body and arg alive, so their ids cannot be reused
        while it exists; the memo is cleared when it reaches SUBST_MEMO_CAP
        entries, which bounds a run's memory."""
        key = (id(body), id(arg))
        hit = self.memo.get(key)
        if hit is not None:
            return hit[2]
        if len(self.memo) >= SUBST_MEMO_CAP:
            self.memo.clear()
        result = sx.subst(body, arg)
        self.memo[key] = (body, arg, result)
        return result

    def repeats(self) -> bool:
        """Whether unfolding the marked fix node again now repeats the state
        at the mark, so the run would go on forever.

        Either no frame present at the mark has been popped since, or the
        stack is back at the marked height and every frame from the lowest
        height since the mark up is the marked one at that height: the same
        kind with the identical payload (`is`, since `==` on terms recurses)."""
        frames, low, snapshot = self.frames, self.low, self.snapshot
        if low >= len(snapshot):
            return True
        if len(frames) != len(snapshot):
            return False
        for i in range(len(frames) - 1, low - 1, -1):
            kind, payload = frames[i]
            if kind != snapshot[i][0] or payload is not snapshot[i][1]:
                return False
        return True

    def step(self) -> Optional[object]:
        """Fire one transition; returns its cost, or None at a terminal or,
        when watching, at a proven repeat (`at_terminal` tells them apart)."""
        focus = self.focus
        frames = self.frames
        while True:
            if isinstance(focus, sx.Bind):
                if isinstance(focus.head, sx.Ret):
                    self.focus = self.subst(focus.cont, focus.head.arg)
                    return self.model.zero()
                frames.append(("bind", focus.cont))
                focus = focus.head
                continue
            if isinstance(focus, sx.Ap):
                if isinstance(focus.fun, sx.Lam):
                    self.focus = self.subst(focus.fun.body, focus.arg)
                    return self.model.zero()
                frames.append(("ap", focus.arg))
                focus = focus.fun
                continue
            if isinstance(focus, sx.Step):
                self.focus = focus.body
                return focus.cost
            if isinstance(focus, sx.Fix):
                if self.watch:
                    if focus is self.mark and self.repeats():
                        self.focus = focus
                        return None
                    self.fixes += 1
                    if not self.fixes & (self.fixes - 1):
                        self.mark = focus
                        self.snapshot = frames.copy()
                        self.low = len(frames)
                self.focus = self.subst(focus.body, focus)
                return self.model.zero()
            if isinstance(focus, sx.Ifz):
                scrut = focus.scrut
                if isinstance(scrut, sx.Zero):
                    self.focus = focus.zcase
                    return self.model.zero()
                if isinstance(scrut, sx.Succ):
                    self.focus = self.subst(focus.scase, scrut.arg)
                    return self.model.zero()
                self.focus = focus
                raise StuckError(self.current_term())
            if isinstance(focus, sx.Ret):
                if not frames:
                    self.focus = focus
                    return None
                if frames[-1][0] == "bind":
                    cont = frames.pop()[1]
                    if len(frames) < self.low:
                        self.low = len(frames)
                    self.focus = self.subst(cont, focus.arg)
                    return self.model.zero()
                self.focus = focus
                raise StuckError(self.current_term())
            if isinstance(focus, sx.Lam):
                if not frames:
                    self.focus = focus
                    return None
                if frames[-1][0] == "ap":
                    arg = frames.pop()[1]
                    if len(frames) < self.low:
                        self.low = len(frames)
                    self.focus = self.subst(focus.body, arg)
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


def trace(e, fuel: int, model: CostModel = DEFAULT_MODEL, terms: bool = True) -> Trace:
    """Iterate `out` at most fuel times, recording each (cost, term) step.

    With terms=False each step records None for its term, so no term is
    rebuilt from the frame stack per step."""
    runner = _Runner(e, model)
    steps = []
    total = model.zero()
    for _ in range(fuel):
        cost = runner.step()
        if cost is None:
            break
        total = model.add(total, cost)
        steps.append((cost, runner.current_term() if terms else None))
    return Trace(tuple(steps), total, not runner.at_terminal())


def settle(e, fuel: int, model: CostModel = DEFAULT_MODEL):
    """Drive e towards a terminal within fuel: (outcome, steps used).

    The outcome is Defined(total cost, terminal term), Diverges, or
    Exhausted when the budget runs out first.  A run that provably repeats
    forever answers Diverges at once: at each power-of-two count of fix
    unfoldings the runner marks the fix node, the frame stack height and a
    copy of the frames (Brent's cycle detection).  When the same node (by
    identity) is unfolded again, the run repeats without end in two cases.
    If none of the frames present at the mark has been popped, the steps
    since the mark used only that node and the frames they pushed
    themselves, so they recur, allowing the stack to grow.  If the stack is
    back at the marked height and every frame from the lowest height since
    the mark up has the marked frame's kind and the identical payload, the
    whole machine state is the marked one.  Identity implies structural
    equality, so both are exact; the substitution memo (see the module
    docstring) makes equal unfoldings identical, so loops that rebuild an
    inner fix or pass an argument on unchanged are caught too.  The loop
    only stops short of its budget at a terminal or at such a repeat, so
    which one it was is read off once, after the loop.  `trace` and `out`
    never take this shortcut.
    """
    runner = _Runner(e, model, watch=True)
    total = model.zero()
    used = 0
    for _ in range(fuel):
        cost = runner.step()
        if cost is None:
            break
        total = model.add(total, cost)
        used += 1
    if runner.at_terminal():
        return Defined(total, runner.focus), used
    return (DIVERGES if used < fuel else EXHAUSTED), used


def run(e, fuel: int, model: CostModel = DEFAULT_MODEL):
    """`settle` as (total cost, terminal term, steps used), or None when e
    does not settle within fuel (it diverges or the budget runs out)."""
    outcome, used = settle(e, fuel, model)
    if isinstance(outcome, Defined):
        return outcome.cost, outcome.value, used
    return None


def eval_term(e, v, fuel: int, model: CostModel = DEFAULT_MODEL):
    """Run e and compare its terminal against the target terminal v.

    Defined(cost, v) when the terminal structurally equals v; Mismatch when
    it differs; otherwise `settle`'s Diverges or Exhausted.
    """
    outcome = settle(e, fuel, model)[0]
    if isinstance(outcome, Defined) and outcome.value != v:
        return MISMATCH
    return outcome


def profile(e, fuel: int, model: CostModel = DEFAULT_MODEL):
    """eval against ret(triv): the cost profile of a unit-typed computation."""
    return eval_term(e, sx.Ret(sx.TRIV), fuel, model)
