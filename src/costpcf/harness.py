"""Differential and property-based validation of the metatheory.

The harness generates well-typed terms type-directed from one weighted
table of productions (`_GRAMMAR`), runs the machine and the denotational
interpreter side by side, and checks the properties the two semantics must
satisfy together: monad/cost-algebra laws, per-step and big-step soundness,
cost adequacy, the sequencing laws, and cost noninterference.  Fuel is one
unit in both semantics, a fix unfolding or a Later, so they compare exactly.
Every check is deterministic given (seed, fuel, monoid, phase).

Terminating instances come from a countdown-combinator discipline: recursion
is only ever generated as a fix applied to a numeral whose body recurses on
the structural predecessor, so generated "terminating mode" programs halt on
every input while still exercising fix, bind, application, and step charging.
"""

from __future__ import annotations

import functools
import random
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from importlib import resources
from itertools import accumulate

from . import denote as dn
from . import machine as mc
from . import syntax as sx
from .cost import DEFAULT_MODEL, NAT_MONOID, STAR, CostModel, Phase
from .outcome import EXHAUSTED, Defined
from .typecheck import TypeCheckError, program_type


# ---------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class Failure:
    case: str
    terms: tuple
    detail: str
    fuel: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CheckReport:
    name: str
    cases: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "cases": self.cases,
            "failures": [f.to_json() for f in self.failures],
        }


# ---------------------------------------------------------------------------
# Typed term generation

@dataclass(frozen=True)
class GenConfig:
    seed: int
    max_depth: int = 5
    target: object = field(default_factory=lambda: sx.F(sx.UNIT))
    monoid: object = NAT_MONOID
    terminating: bool = False


_GROUND = (sx.UNIT, sx.NAT, sx.ANS)
_GROUND_F = tuple(sx.F(a) for a in _GROUND)

# Bounds of the cost a generated `step` charges (see CostMonoid.sample).
STEP_COST_RANGE = (0, 5)

# Generation-time placeholder that hides a binder from subterm generation
# (used to keep countdown recursion structural: helper code under the zero
# branch must not call the recursive thunk).
_MASK = object()


_BASE_VALUES = {sx.Nat: sx.ZERO, sx.Unit: sx.TRIV, sx.Ans: sx.YES}


class _Gen:
    def __init__(self, rng, cfg: GenConfig):
        self.rng = rng
        self.cfg = cfg

    def cost(self):
        return self.cfg.monoid.sample(self.rng, *STEP_COST_RANGE)

    def pick_value_type(self, depth):
        if depth > 1 and self.rng.random() < 0.12:
            return sx.U(sx.F(self.rng.choice(_GROUND)))
        return self.rng.choice(_GROUND)

    def base_value(self, a):
        if type(a) is sx.U:
            return self.base_comp((), a.comp)
        return _BASE_VALUES[type(a)]

    def base_comp(self, ctx, x):
        if type(x) is sx.F:
            return sx.Ret(self.base_value(x.value))
        return sx.Lam(x.dom, self.base_comp((x.dom,) + ctx, x.cod))

    def value(self, ctx, a, depth):
        vs = [i for i, t in enumerate(ctx) if t == a]
        if vs and self.rng.random() < 0.35:
            return sx.Var(self.rng.choice(vs))
        if depth <= 0:
            return self.base_value(a)
        ta = type(a)
        if ta is sx.Ans:
            return self.rng.choice((sx.YES, sx.NO))
        if ta is sx.Nat:
            if self.rng.random() < 0.75:
                return sx.numeral(self.rng.randint(0, 4))
            return sx.Succ(self.value(ctx, a, depth - 1))
        if ta is sx.Unit:
            return sx.TRIV
        if ta is sx.U:
            return self.comp(ctx, a.comp, depth - 1)
        raise TypeError(f"no values at {a!r}")

    def comp(self, ctx, x, depth):
        if depth <= 0:
            return self.base_comp(ctx, x)
        forcible = any(type(t) is sx.U and t.comp == x for t in ctx)
        cum, total, builders = _productions(type(x) is sx.F, depth >= 2, forcible)
        return builders[bisect_right(cum, self.rng.random() * total)](self, ctx, x, depth)

    # The productions, each building a computation of type x at depth >= 1.

    def ret(self, ctx, x, depth):
        return sx.Ret(self.value(ctx, x.value, depth - 1))

    def step(self, ctx, x, depth):
        return sx.Step(self.cost(), self.comp(ctx, x, depth - 1))

    def bind(self, ctx, x, depth):
        b = self._bind_head_type(ctx, depth)
        return sx.Bind(self.comp(ctx, sx.F(b), depth - 1), self.comp((b,) + ctx, x, depth - 1))

    def ifz(self, ctx, x, depth):
        return sx.Ifz(self.value(ctx, sx.NAT, depth - 1), self.comp(ctx, x, depth - 1),
                      self.comp((sx.NAT,) + ctx, x, depth - 1))

    def ap(self, ctx, x, depth):
        b = self.pick_value_type(depth)
        return sx.Ap(self.comp(ctx, sx.Arrow(b, x), depth - 1), self.value(ctx, b, depth - 1))

    def lam(self, ctx, x, depth):
        return sx.Lam(x.dom, self.comp((x.dom,) + ctx, x.cod, depth - 1))

    def force(self, ctx, x, depth):
        return sx.Var(self.rng.choice(
            [i for i, t in enumerate(ctx) if type(t) is sx.U and t.comp == x]))

    def fix(self, ctx, x, depth):
        if self.cfg.terminating:
            return self.countdown(ctx, x, depth)
        body = self.comp((sx.U(x),) + ctx, x, depth - 1)
        if self.rng.random() < 0.7:
            body = sx.Step(self.cost(), body)
        return sx.Fix(body)

    def _bind_head_type(self, ctx, depth):
        thunked = [t.comp.value for t in ctx if type(t) is sx.U and type(t.comp) is sx.F]
        if thunked and self.rng.random() < 0.4:
            return self.rng.choice(thunked)
        return self.pick_value_type(depth)

    def countdown(self, ctx, x, depth):
        """fix applied to a numeral, recursing on the structural predecessor."""
        zctx = (sx.NAT, _MASK) + ctx
        zcase = self.comp(zctx, x, depth - 1)
        call = sx.Ap(sx.Var(2), sx.Var(0))
        scase = sx.Step(self.cost(), call) if self.rng.random() < 0.85 else call
        if type(x) is sx.F and self.rng.random() < 0.35:
            cont_ctx = (x.value, sx.NAT, sx.NAT, _MASK) + ctx
            scase = sx.Bind(scase, self.comp(cont_ctx, x, depth - 1))
        fn = sx.Fix(sx.Lam(sx.NAT, sx.Ifz(sx.Var(0), zcase, scase)))
        nat_vars = [i for i, t in enumerate(ctx) if t == sx.NAT]
        if nat_vars and self.rng.random() < 0.2:
            arg = sx.Var(self.rng.choice(nat_vars))
        else:
            arg = sx.numeral(self.rng.randint(0, 4))
        return sx.Ap(fn, arg)


# The grammar of computations at depth >= 1, per target shape (a returner
# F a, or a function a -> X): (weight, needs depth >= 2, builder).
_GRAMMAR = {
    True: ((3.0, False, _Gen.ret), (2.0, False, _Gen.step), (2.0, False, _Gen.bind),
           (1.5, False, _Gen.ifz), (1.5, True, _Gen.ap)),
    False: ((5.0, False, _Gen.lam), (1.0, False, _Gen.step), (1.0, True, _Gen.bind),
            (0.7, True, _Gen.ifz)),
}


@functools.cache
def _productions(returner, deep, forcible):
    """(cumulative weights, total, builders) of the rows `comp` draws from:
    the shape's grammar rows the depth allows, then `force` when a context
    variable is a thunk of the target, then `fix` at depth >= 2.  A draw
    picks the first row whose cumulative weight exceeds it; `builders`
    repeats the last row for a draw that rounding puts past them all."""
    rows = [(w, build) for w, needs_deep, build in _GRAMMAR[returner] if deep or not needs_deep]
    if forcible:
        rows.append((1.5, _Gen.force))
    if deep:
        rows.append((1.5, _Gen.fix))
    builders = tuple(build for _, build in rows)
    return (tuple(accumulate(w for w, _ in rows)), sum(w for w, _ in rows),
            builders + builders[-1:])


def gen_term(cfg: GenConfig, ctx=()):
    """Deterministic well-typed term of cfg.target under ctx, the types of
    the free variables (index 0 first): a computation, or a value when
    cfg.target is a value type."""
    gen = _Gen(random.Random(cfg.seed), cfg)
    if isinstance(cfg.target, (sx.F, sx.Arrow)):
        return gen.comp(ctx, cfg.target, cfg.max_depth)
    return gen.value(ctx, cfg.target, cfg.max_depth)


def _gen_terminating(rng, target, depth_range, monoid, ctx=()):
    """gen_term in terminating mode, its seed and depth drawn from rng."""
    cfg = GenConfig(seed=rng.randrange(2**62), max_depth=rng.randint(*depth_range),
                    target=target, monoid=monoid, terminating=True)
    return gen_term(cfg, ctx)


def gen_programs(seed, count, targets, terminating_frac, monoid=NAT_MONOID,
                 depth_range=(3, 6)):
    """A deterministic batch of generated programs (term, target) pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        target = targets[rng.randrange(len(targets))]
        cfg = GenConfig(
            seed=rng.randrange(2**62),
            max_depth=rng.randint(*depth_range),
            target=target,
            monoid=monoid,
            terminating=rng.random() < terminating_frac,
        )
        out.append((gen_term(cfg), target))
    return out


# ---------------------------------------------------------------------------
# Corpus

def load_corpus():
    """The bundled .pcf programs as (name, term) pairs, sorted by name."""
    root = resources.files("costpcf").joinpath("corpus")
    entries = sorted(p.name for p in root.iterdir() if p.name.endswith(".pcf"))
    out = []
    for name in entries:
        src = root.joinpath(name).read_text(encoding="utf-8")
        out.append((name, sx.parse(src)))
    return out


# ---------------------------------------------------------------------------
# Agreement: one comparison, and one exact rule for runs at one fuel

def _answer(value):
    """A Defined outcome's value as ground data, read by the semantics that
    produced it: a machine terminal ret(v) by `sx.ground_json`, a semantic
    value by `dn.ground_json`.  A thunk or a function reads as None."""
    if isinstance(value, sx.Ret):
        return sx.ground_json(value.arg)
    return dn.ground_json(value)


def disagreement(o1, o2, model):
    """Why outcomes o1 and o2 disagree, or None when they agree.

    Two Defined outcomes agree when their costs are equal (`model.eq`) and
    so are their answers (`_answer`), so two answers that are not ground
    compare on definedness and cost only.  A Defined outcome disagrees with
    any other; two that are not Defined (Diverges or Exhausted) agree:
    neither settled."""
    d1, d2 = isinstance(o1, Defined), isinstance(o2, Defined)
    if d1 and d2:
        if not model.eq(o1.cost, o2.cost):
            return f"costs differ: {model.show(o1.cost)} vs {model.show(o2.cost)}"
        a1, a2 = _answer(o1.value), _answer(o2.value)
        if a1 != a2:
            return f"values differ: {a1!r} vs {a2!r}"
        return None
    if d1 or d2:
        return f"definedness differs: {o1!r} vs {o2!r}"
    return None


def exact_disagreement(side1, side2, model):
    """Why two runs at one fuel f, each (outcome, fuel used), disagree, or
    None: `disagreement`, and when both are Defined, equal fuel used.  A run
    Defined after u units is Defined at every fuel from u to f and not
    below, so this finds nothing exactly when the two agree at every fuel
    up to f: the rule is exact, with no retry."""
    (o1, u1), (o2, u2) = side1, side2
    why = disagreement(o1, o2, model)
    if why is None and isinstance(o1, Defined) and u1 != u2:
        why = f"fuel used differs: {u1} vs {u2}"
    return why


def _charged(c, outcome, model):
    """The outcome of charge(c, d) given d's: charging keeps Laters."""
    if isinstance(outcome, Defined):
        return Defined(model.add(c, outcome.cost), outcome.value)
    return outcome


# ---------------------------------------------------------------------------
# Suite: monad and cost-algebra laws

# Share of generated delay leaves that never settle.
DIVERGENT_LEAF_FRAC = 0.1


def _gen_divergent_delay(rng, model):
    """A delay that is Later forever: bottom, or a loop that charges a cost
    per Later.  Both come back to the same Later, so `observe` proves them."""
    if rng.random() < 0.5:
        return dn.bottom()
    c = model.monoid.sample(rng, 0, 9)
    loop = dn.Later(lambda: dn.charge(c, loop, model))
    return loop


def _gen_delay(rng, model, depth):
    m = model.monoid
    r = rng.random()
    if depth <= 0 or r < 0.3:
        if rng.random() < DIVERGENT_LEAF_FRAC:
            return _gen_divergent_delay(rng, model)
        return dn.Done(m.sample(rng, 0, 9), dn.VNum(rng.randint(0, 9)))
    if r < 0.5:
        inner = _gen_delay(rng, model, depth - 1)
        return dn.Later(lambda: inner)
    if r < 0.75:
        return dn.charge(m.sample(rng, 0, 9), _gen_delay(rng, model, depth - 1), model)
    return dn.bindT(_gen_delay(rng, model, depth - 1), _gen_kont(rng, model, depth - 1))


def _gen_kont(rng, model, depth):
    m = model.monoid
    kind = rng.randrange(5)
    if kind == 0:
        return lambda v: dn.eta(v, model)
    if kind == 1:
        return lambda v: dn.eta(dn.VNum(v.n + 1) if isinstance(v, dn.VNum) else v, model)
    if kind == 2:
        c = m.sample(rng, 0, 9)
        return lambda v: dn.charge(c, dn.eta(v, model), model)
    if kind == 3:
        return lambda v: dn.Later(lambda: dn.eta(v, model))
    d = _gen_delay(rng, model, depth)
    return lambda v: d


def check_laws(seed, cases, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """Monad unit/associativity for (eta, bindT), distributive-law coherence,
    and the three derived cost-algebra laws, as observational equalities.

    Each side is unwound once, at `fuel`, to (outcome, Laters used), and
    the two agree by `exact_disagreement`, where Diverges and Exhausted both
    mean "not Defined within that fuel".  Some generated delays never
    settle, so proved divergences meet the laws too."""
    rng = random.Random(seed)
    failures = []
    m = model.monoid

    def compare(case, side1, side2):
        why = exact_disagreement(side1, side2, model)
        if why is not None:
            failures.append(Failure(case, (), why, fuel))

    def law(case, lhs, rhs):
        compare(case, dn.unwind(lhs, fuel, model), dn.unwind(rhs, fuel, model))

    for i in range(cases):
        a = dn.VNum(rng.randint(0, 9))
        c = m.sample(rng, 0, 9)
        d = _gen_delay(rng, model, 4)
        k = _gen_kont(rng, model, 3)
        g = _gen_kont(rng, model, 3)

        # Monad left unit: bindT(eta a, k) = k a.
        law(f"left-unit[{i}]", dn.bindT(dn.eta(a, model), k), k(a))
        # Monad right unit: bindT(d, eta) = d.
        law(f"right-unit[{i}]", dn.bindT(d, lambda v: dn.eta(v, model)), d)
        # Monad associativity.
        law(f"assoc[{i}]", dn.bindT(dn.bindT(d, k), g),
            dn.bindT(d, lambda v: dn.bindT(k(v), g)))
        # Distributive-law coherence: charging commutes with the delay
        # structure: it never changes the Laters needed, and on a settled
        # computation it adds on the left.
        o_d, n_d = dn.unwind(d, fuel, model)
        compare(f"dist[{i}]", dn.unwind(dn.charge(c, d, model), fuel, model),
                (_charged(c, o_d, model), n_d))
        # Algebra law: f#(c (+) e) = c (+) f#(e).
        law(f"algebra-bind[{i}]", dn.bindT(dn.charge(c, d, model), k),
            dn.charge(c, dn.bindT(d, k), model))
        # Algebra law at arrows: (c (+) f)(a) = c (+) (f a).
        inner_c = m.sample(rng, 0, 9)
        fn = dn.FunComp(lambda v, _c=inner_c: dn.charge(_c, dn.eta(v, model), model))
        law(f"algebra-apply[{i}]", dn.charge(c, fn, model).apply(a),
            dn.charge(c, fn.apply(a), model))

    return CheckReport("laws", cases, tuple(failures))


# ---------------------------------------------------------------------------
# Suite: soundness (per-step and big-step)

# Transitions checked per ground program that does not settle.
DIVERGENT_STEP_CAP = 12


def _ground_f_type(t, model):
    """The ground returner type the closed term is observed at, if any."""
    try:
        ct = program_type(t, model.monoid)
    except TypeCheckError:
        return None
    return ct if ct in _GROUND_F else None


def check_soundness(programs, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """Per transition e -> (c, e'), [[e]] at fuel f agrees by `disagreement`
    with c (+) [[e']] at f less its unfoldings; big-step: `adequacy_verdict`.

    The transitions come from one `mc.trace` of the program: programs the
    machine settles get every transition checked; the others are capped at
    DIVERGENT_STEP_CAP transitions (their transition graphs are cyclic
    modulo substitution, so a small prefix already covers each rule), and
    stop where their unfoldings have spent the fuel.  The chain starts from
    the verdict's observation of [[e]], and each [[e_k]] along the run is
    observed once and shared by the two transitions it borders.  `programs`
    is a list of (name, term) pairs; only those of a ground returner type
    are checked, the others are skipped (they still count in `cases`).
    """
    failures = []
    for name, e in programs:
        if _ground_f_type(e, model) is None:
            continue
        verdict, machine, o_lhs = adequacy_verdict(e, fuel, model)
        cap = sys.maxsize if isinstance(machine, Defined) else DIVERGENT_STEP_CAP

        # Prop: one transition preserves the denotation up to charging.
        steps = mc.trace(e, cap, model).steps
        left = fuel
        for stepno, (cost, term, unfolded) in enumerate(steps):
            left -= unfolded
            if left < 0:
                break
            o_nxt = dn.observe(dn.denote_closed(term, model).to_delay(), left, model)
            why = disagreement(o_lhs, _charged(cost, o_nxt, model), model)
            if why:
                before = steps[stepno - 1][1] if stepno else e
                failures.append(Failure(
                    f"per-step:{name}", (sx.print_term(e), sx.print_term(before)),
                    f"transition {stepno}: {why}", fuel))
                break
            o_lhs = o_nxt

        # Thm: machine evaluation is reflected exactly in the denotation.
        if verdict:
            failures.append(Failure(f"big-step:{name}", (sx.print_term(e),), verdict, fuel))
    return CheckReport("soundness", len(programs), tuple(failures))


# ---------------------------------------------------------------------------
# Suite: adequacy at the observation type

def check_adequacy(programs, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """The machine and [[e]] agree by `adequacy_verdict`: in definedness,
    exact cost and value, and in fuel used, fix unfoldings against Laters."""
    failures = []
    for name, e in programs:
        verdict = adequacy_verdict(e, fuel, model)[0]
        if verdict is not None:
            failures.append(Failure(f"adequacy:{name}", (sx.print_term(e),), verdict, fuel))
    return CheckReport("adequacy", len(programs), tuple(failures))


def adequacy_verdict(e, fuel, model):
    """(detail, machine outcome, denotation outcome) of one `mc.settle` of e
    and one `dn.unwind` of [[e]] at `fuel`, whose fix unfoldings and Laters
    are one unit; detail is None when they agree by `exact_disagreement`.
    Adequacy and soundness's big-step check both read this one verdict."""
    machine, _, unfolded = mc.settle(e, fuel, model)
    denotation, laters = dn.unwind(dn.denote_closed(e, model).to_delay(), fuel, model)
    why = exact_disagreement((machine, unfolded), (denotation, laters), model)
    return why, machine, denotation


# ---------------------------------------------------------------------------
# Suite: sequencing laws

@dataclass(frozen=True)
class SequencingInstance:
    law: str  # eval-seq | prof-seq | prof-assoc | comm-app-seq
    parts: tuple
    lhs: Defined  # the left side's outcome, which the generator's filter settled
    rhs: sx.Term  # the right side, which the check settles
    cost: object  # eval-seq and prof-seq: e's cost, charged onto rhs's outcome; else None


def gen_sequencing_instances(seed, cases_per_law, fuel, model: CostModel = DEFAULT_MODEL):
    """Generate terminating instances of each law: up to cases_per_law per
    law, fewer when cases_per_law * 30 attempts do not find that many.

    eval-seq and prof-seq: bind(e, g) against g[v], where e settles to
    ret(v).  prof-assoc: the two nestings of bind.  comm-app-seq:
    ap(bind(e, g), w) against bind(e, ap(g, w)).  An instance is kept when
    its left side (and e) settles at `fuel`, and so at any larger fuel."""
    rng = random.Random(seed)
    monoid = model.monoid
    instances = []

    def tgen(target, ctx=()):
        return _gen_terminating(rng, target, (2, 4), monoid, ctx)

    def settled(t):
        """t's outcome if it settles, else None."""
        outcome = mc.settle(t, fuel, model)[0]
        return outcome if isinstance(outcome, Defined) else None

    ground = list(_GROUND)
    for law in ("eval-seq", "prof-seq", "prof-assoc", "comm-app-seq"):
        made = 0
        attempts = 0
        while made < cases_per_law and attempts < cases_per_law * 30:
            attempts += 1
            a = ground[rng.randrange(3)]
            b = ground[rng.randrange(3)]
            e = tgen(sx.F(a))
            cost = None
            if law in ("eval-seq", "prof-seq"):
                g = tgen(sx.F(b if law == "eval-seq" else sx.UNIT), ctx=(a,))
                parts = (e, g)
                first = settled(e)
                if not (first and (lhs := settled(sx.Bind(e, g)))):
                    continue
                cost, rhs = first.cost, sx.subst(g, first.value.arg)
            elif law == "prof-assoc":
                g = tgen(sx.F(b), ctx=(a,))
                i = tgen(sx.F(sx.UNIT), ctx=(b,))
                parts = (e, g, i)
                if not (lhs := settled(sx.Bind(sx.Bind(e, g), i))):
                    continue
                rhs = sx.Bind(e, sx.Bind(g, sx.shift(i, 1, 1)))
            else:
                g = tgen(sx.Arrow(b, sx.F(sx.UNIT)), ctx=(a,))
                w = gen_term(GenConfig(seed=rng.randrange(2**62), max_depth=2, target=b,
                                       monoid=monoid, terminating=True))
                parts = (e, g, w)
                if not (lhs := settled(sx.Ap(sx.Bind(e, g), w))):
                    continue
                rhs = sx.Bind(e, sx.Ap(g, sx.shift(w, 1)))
            instances.append(SequencingInstance(law, parts, lhs, rhs, cost))
            made += 1
    return instances


def check_sequencing_laws(instances, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """Each law's right side settles on the machine, is charged with the
    instance's cost if it has one, and agrees by `disagreement` in cost and
    terminal with its left side's outcome."""
    failures = []
    for idx, inst in enumerate(instances):
        rhs = mc.settle(inst.rhs, fuel, model)[0]
        if inst.cost is not None:
            rhs = _charged(inst.cost, rhs, model)
        if disagreement(inst.lhs, rhs, model):
            failures.append(Failure(
                f"{inst.law}[{idx}]", tuple(sx.print_term(t) for t in inst.parts),
                f"sides settle to {inst.lhs!r} and {rhs!r}", fuel))
    return CheckReport("sequencing", len(instances), tuple(failures))


# ---------------------------------------------------------------------------
# Suite: noninterference

def gen_ni_functions(seed, count, monoid=NAT_MONOID):
    """Functions of type U(F unit) -> F ans, generated terminating."""
    rng = random.Random(seed)
    arg_t = sx.U(sx.F(sx.UNIT))
    return [sx.Lam(arg_t, _gen_terminating(rng, sx.F(sx.ANS), (2, 5), monoid, (arg_t,)))
            for _ in range(count)]


def gen_ni_arg_pairs(seed, count, fuel, model: CostModel = DEFAULT_MODEL):
    """Up to count pairs of terminating U(F unit) thunks, fewer when count * 30
    attempts do not find that many; about half are step^k perturbations of
    one underlying thunk, the rest independent."""
    rng = random.Random(seed)
    pairs = []
    attempts = 0

    def thunk():
        t = _gen_terminating(rng, sx.F(sx.UNIT), (1, 4), model.monoid)
        return t if isinstance(mc.settle(t, fuel, model)[0], Defined) else None

    while len(pairs) < count and attempts < count * 30:
        attempts += 1
        x = thunk()
        if x is None:
            continue
        if rng.random() < 0.5:
            y = sx.Step(model.monoid.sample(rng, 1, 9), x)
        else:
            y = thunk()
            if y is None:
                continue
        pairs.append((x, y))
    return pairs


# Noninterference reruns a side that ran out at this many times the fuel.
RETRY_FACTOR = 4


def check_noninterference(functions, args, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """Terminating arguments of thunk type differ only in cost, so every
    function U(F unit) -> F ans must send both members of a pair to the same
    answer: the two runs agree by `disagreement` with costs sealed (the
    Extensional model's `eq`).  They are different programs, whose fuel
    needs may differ, so an Exhausted run facing a Defined one is run once
    more at RETRY_FACTOR times the fuel.  A pair on which neither run
    settles is vacuous.  Each run is repeated under the Extensional phase
    at its own fuel, where it must answer as before and, if Defined, with
    its cost collapsed to the sealed point."""
    failures = []
    ext = model.with_phase(Phase.EXTENSIONAL)
    cases = 0

    def fail(name, detail, terms):
        failures.append(Failure(name, tuple(sx.print_term(t) for t in terms), detail, fuel))

    for fidx, f in enumerate(functions):
        for aidx, (x, y) in enumerate(args):
            cases += 1
            name = f"ni[{fidx}/{aidx}]"
            fx, fy = sx.Ap(f, x), sx.Ap(f, y)
            ox, oy = ix, iy = mc.settle(fx, fuel, model)[0], mc.settle(fy, fuel, model)[0]
            if ox is EXHAUSTED and isinstance(oy, Defined):
                ox = mc.settle(fx, RETRY_FACTOR * fuel, model)[0]
            elif oy is EXHAUSTED and isinstance(ox, Defined):
                oy = mc.settle(fy, RETRY_FACTOR * fuel, model)[0]
            why = disagreement(ox, oy, ext)
            if why:
                fail(name, f"answers differ: {why}", (f, x, y))
                continue
            if not isinstance(ox, Defined):
                continue  # not a terminating pair for this function; vacuous
            ex, ey = mc.settle(fx, fuel, ext)[0], mc.settle(fy, fuel, ext)[0]
            if disagreement(ex, ix, ext) or disagreement(ey, iy, ext):
                fail(name, "extensional rerun changed the answer", (f, x, y))
            elif (isinstance(ex, Defined) and ex.cost is not STAR
                  or isinstance(ey, Defined) and ey.cost is not STAR):
                fail(name, "extensional cost failed to seal", (f,))
    return CheckReport("noninterference", cases, tuple(failures))


# ---------------------------------------------------------------------------
# Suite orchestration

# Each suite's default case count, in report order.
_DEFAULT_CASES = {
    "laws": 1000,
    "soundness": 500,
    "adequacy": 200,
    "sequencing": 200,
    "noninterference": 100,
}
SUITES = tuple(_DEFAULT_CASES)


def run_suite(name, seed, fuel, model: CostModel = DEFAULT_MODEL, cases=None):
    """Run one named suite (or "all") and return a list of CheckReports.

    Every machine run of a named suite, its generators' filter runs
    included, shares one substitution memo (`mc.sharing`): the suite's runs
    redo each other's substitutions.  Each suite gets a fresh one, so its
    reports are the same whichever suites ran before it.  The corpus is
    parsed at most once per call, when a suite first reads it."""
    rng = random.Random(seed)
    runs = [(s, rng.randrange(2**62)) for s in SUITES] if name == "all" else [(name, seed)]
    corpus = functools.cache(load_corpus)
    reports = []
    for suite, suite_seed in runs:
        with mc.sharing():
            reports += _run_named_suite(suite, suite_seed, fuel, model, cases, corpus)
    return reports


def _run_named_suite(name, seed, fuel, model, cases, corpus):
    n = cases if cases is not None else _DEFAULT_CASES.get(name)
    if name == "laws":
        return [check_laws(seed, n, min(fuel, 10_000), model)]
    if name == "soundness":
        programs = list(corpus())
        gen = gen_programs(seed, n, _GROUND_F, terminating_frac=0.7,
                           monoid=model.monoid, depth_range=(2, 5))
        programs += [(f"gen[{i}]", t) for i, (t, _) in enumerate(gen)]
        return [check_soundness(programs, fuel, model)]
    if name == "adequacy":
        programs = [(nm, t) for nm, t in corpus()
                    if _ground_f_type(t, model) == sx.F(sx.UNIT)]
        gen = gen_programs(seed, n, (sx.F(sx.UNIT),), terminating_frac=0.6,
                           monoid=model.monoid, depth_range=(2, 6))
        programs += [(f"fuzz[{i}]", t) for i, (t, _) in enumerate(gen)]
        return [check_adequacy(programs, fuel, model)]
    if name == "sequencing":
        instances = gen_sequencing_instances(seed, n, min(fuel, 20_000), model)
        return [check_sequencing_laws(instances, fuel, model)]
    if name == "noninterference":
        rng = random.Random(seed)
        functions = gen_ni_functions(rng.randrange(2**62), n, model.monoid)
        pairs = gen_ni_arg_pairs(rng.randrange(2**62), 20, min(fuel, 20_000), model)
        return [check_noninterference(functions, pairs, fuel, model)]
    raise ValueError(f"unknown suite '{name}' (expected one of {', '.join(SUITES)} or all)")
