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

The machine has one driver loop, `_drive`: it fires head rules on a frame
stack that persists across its calls, so finding the next redex under a long
bind/ap spine costs O(1) per step instead of O(depth).  `settle` calls it
once for the whole run and `trace` once per transition; `out` is `trace`
cut at one transition.  `run`, `eval_term` and `profile` are views over
`settle`; they and `out` are kept only for the benchmark and the tests, and
nothing else in the package calls them.  A head rule whose body never
mentions its binder (`_range` 0) substitutes nothing: the body itself, the
object `subst` would return, is the next focus, with no memo lookup and no
memo entry.  Any other substitution a head rule performs is not O(1): it
rebuilds only the subterms that mention the bound index and shares the rest,
and the replacement, always closed here, is shared rather than copied (see
`syntax.subst`).  It is also done once per (body, replacement) pair of node
objects: each run memoises it by identity, so a fix unfolding or a numeral
substituted into the same body again returns the earlier result, the
identical object.  The memo holds at most SUBST_MEMO_CAP entries.  Each run,
and each `out` call, has a fresh memo of its own, except inside a `sharing()`
scope, where every run uses the scope's one memo: the harness opens one per
named suite, whose runs redo each other's substitutions.  The memo is never
process-wide: which nodes it holds decides the step at which `settle` proves
a repeat, and so whether it does within its fuel, and a suite's answers must
not depend on what ran before it.  Costs add left to right, in the order the
`step`s fire.  `settle`'s fuel counts fix unfoldings, each one `Later` of
the denotation; `trace`'s counts transitions, and says which unfolded a fix.
`settle` stops early and answers Diverges once it proves that a fix
unfolding repeats forever; `trace` and `out` never do.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass

from . import syntax as sx
from .syntax import Ap, Bind, Fix, Ifz, Lam, Ret, Step, Succ, Zero
from .cost import DEFAULT_MODEL, CostModel
from .outcome import DIVERGES, EXHAUSTED, Defined
from .records import record


class StuckError(Exception):
    """No rule applies to a supposedly well-typed closed computation."""

    def __init__(self, term):
        self.term = term
        super().__init__(f"machine stuck at: {sx.print_term(term)}")


@dataclass(frozen=True)
class Terminal:
    def __repr__(self) -> str:
        return "Terminal"


@record
class Next:
    __slots__ = ("cost", "term")
    cost: object
    term: object


TERMINAL = Terminal()


@dataclass(frozen=True)
class Mismatch:
    """eval_term's answer for a terminal other than the target."""


MISMATCH = Mismatch()


@dataclass(frozen=True)
class Trace:
    steps: tuple  # of (cost, Term or None without terms, whether it unfolded a fix)
    total: object
    truncated: bool


# Frames: the Bind or Ap node the focus was taken from, which stands for
# bind(_, its cont) or ap(_, its arg).


def _plug(frames, t):
    for f in reversed(frames):
        t = Bind(t, f.cont) if type(f) is Bind else Ap(t, f.arg)
    return t


# Entries a substitution memo holds before it is cleared.
SUBST_MEMO_CAP = 1024

# The memo of the innermost open `sharing` scope, or None outside any.
_shared_memo = None


@contextmanager
def sharing():
    """Give every run started inside this scope one substitution memo.

    Outside any scope each run, and each `out` call, has a fresh memo.  A
    scope starts empty, also inside another one, so the runs in it answer
    the same whatever ran before it."""
    global _shared_memo
    outer, _shared_memo = _shared_memo, {}
    try:
        yield
    finally:
        _shared_memo = outer


def _memo() -> dict:
    """The substitution memo of a new run: (id(body), id(arg)) -> (body, arg,
    body[arg]), the open scope's, or a fresh one outside any scope."""
    return {} if _shared_memo is None else _shared_memo


def _terminal(focus, frames) -> bool:
    return not frames and isinstance(focus, (Ret, Lam))


def _drive(focus, frames, memo, model: CostModel, steps: int, unfolds: int):
    """Fire at most `steps` transitions, `unfolds` of them fix unfoldings,
    from the state `focus` under `frames`, which it pushes and pops in
    place: (the new focus, their costs added left to right, the transitions
    fired, the fixes unfolded).  It stops early at a terminal, at a fix past
    the budget or at a repeat proven among this call's transitions (see
    `settle`); `_terminal` tells a terminal from the other two.

    This is the machine's one dispatch loop.  Dispatch is on exact node
    type, most frequent first in the `check all` battery: no class
    subclasses a term node.  Only a fired `step` adds its cost; the other
    head rules cost zero.  A call that fires transitions but no `step`
    returns zero plus zero, not zero itself: under the Extensional phase
    that is STAR, as after any transition.

    `subst` is pure and nodes are immutable, so a memo hit is exact,
    whichever run made the entry.  Each entry keeps its body and arg alive,
    so their ids cannot be reused while it exists."""
    push, pop = frames.append, frames.pop
    add = model.add
    total = zero = model.zero()
    used = 0
    # Repeat check: fix unfoldings so far, the fix node and a copy of the
    # frame stack marked at the last power-of-two count that leaves fuel for
    # another unfolding, and the lowest stack height since then.
    fixes = low = 0
    mark = None
    snapshot: list = []
    while used < steps:
        kind = type(focus)
        if kind is Ap:
            fun = focus.fun
            if type(fun) is not Lam:
                push(focus)
                focus = fun
                continue
            body, arg = fun.body, focus.arg
        elif kind is Ret:
            if not frames:
                break
            if type(frames[-1]) is not Bind:
                raise StuckError(_plug(frames, focus))
            body, arg = pop().cont, focus.arg
            if len(frames) < low:
                low = len(frames)
        elif kind is Ifz:
            scrut = focus.scrut
            if type(scrut) is Zero:
                focus = focus.zcase
                used += 1
                continue
            if type(scrut) is not Succ:
                raise StuckError(_plug(frames, focus))
            body, arg = focus.scase, scrut.arg
        elif kind is Step:
            total = add(total, focus.cost)
            focus = focus.body
            used += 1
            continue
        elif kind is Lam:
            if not frames:
                break
            if type(frames[-1]) is not Ap:
                raise StuckError(_plug(frames, focus))
            body, arg = focus.body, pop().arg
            if len(frames) < low:
                low = len(frames)
        elif kind is Fix:
            if fixes >= unfolds or (focus is mark and _repeats(frames, low, snapshot)):
                break
            fixes += 1
            if not fixes & (fixes - 1) and fixes < unfolds:
                mark = focus
                snapshot = frames.copy()
                low = len(frames)
            body, arg = focus.body, focus
        elif kind is Bind:
            head = focus.head
            if type(head) is not Ret:
                push(focus)
                focus = head
                continue
            body, arg = focus.cont, head.arg
        else:
            raise StuckError(_plug(frames, focus))  # not a computation
        if body._range:
            key = (id(body), id(arg))
            hit = memo.get(key)
            if hit is None:
                if len(memo) >= SUBST_MEMO_CAP:
                    memo.clear()
                hit = memo[key] = (body, arg, sx.subst(body, arg))
            body = hit[2]
        focus = body
        used += 1
    if used and total is zero:
        total = add(total, zero)
    return focus, total, used, fixes


def _repeats(frames, low, snapshot) -> bool:
    """Whether unfolding the marked fix node again now repeats the state at
    the mark, so the run would go on forever.

    Either no frame present at the mark has been popped since, or the stack
    is back at the marked height and every frame from the lowest height
    since the mark up is the marked one at that height: the same kind with
    the identical payload, its `cont` or `arg` (`is`, since `==` on terms
    recurses).  The frame nodes themselves may differ: a memo clear can
    rebuild the node around the same payload."""
    if low >= len(snapshot):
        return True
    if len(frames) != len(snapshot):
        return False
    for i in range(len(frames) - 1, low - 1, -1):
        f, g = frames[i], snapshot[i]
        kind = type(f)
        if kind is not type(g) or (
                f.cont is not g.cont if kind is Bind else f.arg is not g.arg):
            return False
    return True


def out(e, model: CostModel = DEFAULT_MODEL) -> Next | Terminal:
    """One transition of the closed computation e, or Terminal."""
    steps = trace(e, 1, model).steps
    return Next(*steps[0][:2]) if steps else TERMINAL


def trace(e, fuel: int, model: CostModel = DEFAULT_MODEL, terms: bool = True) -> Trace:
    """Fire at most fuel transitions one at a time, recording each step as
    (cost, term, whether it unfolded a fix).

    With terms=False each step records None for its term, so no term is
    rebuilt from the frame stack per step."""
    focus, frames, memo = e, [], _memo()
    steps = []
    total = model.zero()
    for _ in range(fuel):
        focus, cost, used, unfolded = _drive(focus, frames, memo, model, 1, 1)
        if not used:
            break
        total = model.add(total, cost)
        steps.append((cost, _plug(frames, focus) if terms else None, unfolded == 1))
    return Trace(tuple(steps), total, not _terminal(focus, frames))


def settle(e, fuel: int, model: CostModel = DEFAULT_MODEL):
    """Drive e towards a terminal within fuel fix unfoldings: (outcome,
    transitions fired, fixes unfolded).

    The outcome is Defined(total cost, terminal term), Diverges, or
    Exhausted when the budget runs out first.  Other transitions are free:
    only `fix` recurses.  A run that provably repeats forever answers
    Diverges at once: at each power-of-two count of fix unfoldings the
    driver marks the fix node, the frame stack height and a copy of the
    frames (Brent's cycle detection).  When the same node (by identity) is
    unfolded again, the run repeats without end in two cases.  If none of
    the frames present at the mark has been popped, the steps since the
    mark used only that node and the frames they pushed themselves, so they
    recur, allowing the stack to grow.  If the stack is back at the marked
    height and every frame from the lowest height since the mark up has the
    marked frame's kind and the identical payload, the whole machine state
    is the marked one.  Identity implies structural equality, so both are
    exact; the substitution memo (see the module docstring) makes equal
    unfoldings identical, so loops that rebuild an inner fix or pass an
    argument on unchanged are caught too.  The fuel check runs first, as in
    `denote.unwind`, so the run stops short of its budget only at a
    terminal or at such a repeat, and which one it was is read off once,
    afterwards.  `trace` and `out` never take this shortcut.
    """
    frames = []
    focus, total, used, unfolded = _drive(e, frames, _memo(), model, sys.maxsize, fuel)
    if _terminal(focus, frames):
        return Defined(total, focus), used, unfolded
    return (DIVERGES if unfolded < fuel else EXHAUSTED), used, unfolded


def run(e, fuel: int, model: CostModel = DEFAULT_MODEL):
    """`settle` as (total cost, terminal term, transitions fired), or None
    when e does not settle within fuel (it diverges or the budget runs out)."""
    outcome, used, _ = settle(e, fuel, model)
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
