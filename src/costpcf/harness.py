"""Differential and property-based validation of the metatheory.

The harness generates well-typed terms type-directed, runs the machine and
the denotational interpreter side by side, and checks the properties the two
semantics must satisfy together: monad/cost-algebra laws, per-step and
big-step soundness, cost adequacy, the sequencing laws, and cost
noninterference.
Every check is deterministic given (seed, fuel, monoid, phase).

Terminating instances come from a countdown-combinator discipline: recursion
is only ever generated as a fix applied to a numeral whose body recurses on
the structural predecessor, so generated "terminating mode" programs halt on
every input while still exercising fix, bind, application, and step charging.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from importlib import resources

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
        return {
            "case": self.case,
            "terms": list(self.terms),
            "detail": self.detail,
            "fuel": self.fuel,
        }


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
    fix_probability: float = 0.25
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


def _wchoice(rng, pairs):
    total = sum(w for w, _ in pairs)
    r = rng.random() * total
    acc = 0.0
    for w, item in pairs:
        acc += w
        if r < acc:
            return item
    return pairs[-1][1]


class _Gen:
    def __init__(self, rng, cfg: GenConfig):
        self.rng = rng
        self.cfg = cfg

    def cost(self):
        return self.cfg.monoid.sample(self.rng, *STEP_COST_RANGE)

    def _vars_of(self, ctx, a):
        return [i for i, t in enumerate(ctx) if t == a]

    def pick_value_type(self, ctx, depth):
        if depth > 1 and self.rng.random() < 0.12:
            return sx.U(sx.F(self.rng.choice(_GROUND)))
        return self.rng.choice(_GROUND)

    def base_value(self, a):
        if isinstance(a, sx.Nat):
            return sx.ZERO
        if isinstance(a, sx.Unit):
            return sx.TRIV
        if isinstance(a, sx.Ans):
            return sx.YES
        if isinstance(a, sx.U):
            return self.base_comp((), a.comp)
        raise TypeError(f"no base value at {a!r}")

    def base_comp(self, ctx, x):
        if isinstance(x, sx.F):
            return sx.Ret(self.base_value(x.value))
        return sx.Lam(x.dom, self.base_comp((x.dom,) + ctx, x.cod))

    def value(self, ctx, a, depth):
        vs = self._vars_of(ctx, a)
        if vs and self.rng.random() < 0.35:
            return sx.Var(self.rng.choice(vs))
        if depth <= 0:
            return self.base_value(a)
        if isinstance(a, sx.Ans):
            return self.rng.choice((sx.YES, sx.NO))
        if isinstance(a, sx.Nat):
            if self.rng.random() < 0.75:
                return sx.numeral(self.rng.randint(0, 4))
            return sx.Succ(self.value(ctx, a, depth - 1))
        if isinstance(a, sx.Unit):
            return sx.TRIV
        if isinstance(a, sx.U):
            return self.comp(ctx, a.comp, depth - 1)
        raise TypeError(f"no values at {a!r}")

    def comp(self, ctx, x, depth):
        if depth <= 0:
            return self.base_comp(ctx, x)
        force_vars = self._vars_of(ctx, sx.U(x))
        choices = []
        if isinstance(x, sx.F):
            choices.append((3.0, "ret"))
            choices.append((2.0, "step"))
            choices.append((2.0, "bind"))
            choices.append((1.5, "ifz"))
            if depth >= 2:
                choices.append((1.5, "ap"))
        else:
            choices.append((5.0, "lam"))
            choices.append((1.0, "step"))
            if depth >= 2:
                choices.append((1.0, "bind"))
                choices.append((0.7, "ifz"))
        if force_vars:
            choices.append((1.5, "force"))
        if depth >= 2:
            choices.append((6.0 * self.cfg.fix_probability, "fix"))
        kind = _wchoice(self.rng, choices)
        if kind == "ret":
            return sx.Ret(self.value(ctx, x.value, depth - 1))
        if kind == "step":
            return sx.Step(self.cost(), self.comp(ctx, x, depth - 1))
        if kind == "bind":
            b = self._bind_head_type(ctx, depth)
            head = self.comp(ctx, sx.F(b), depth - 1)
            cont = self.comp((b,) + ctx, x, depth - 1)
            return sx.Bind(head, cont)
        if kind == "ifz":
            scrut = self.value(ctx, sx.NAT, depth - 1)
            zcase = self.comp(ctx, x, depth - 1)
            scase = self.comp((sx.NAT,) + ctx, x, depth - 1)
            return sx.Ifz(scrut, zcase, scase)
        if kind == "ap":
            b = self.pick_value_type(ctx, depth)
            fun = self.comp(ctx, sx.Arrow(b, x), depth - 1)
            arg = self.value(ctx, b, depth - 1)
            return sx.Ap(fun, arg)
        if kind == "lam":
            return sx.Lam(x.dom, self.comp((x.dom,) + ctx, x.cod, depth - 1))
        if kind == "force":
            return sx.Var(self.rng.choice(force_vars))
        if kind == "fix":
            return self.fix(ctx, x, depth)
        raise AssertionError(kind)

    def _bind_head_type(self, ctx, depth):
        thunked = [t.comp.value for t in ctx if isinstance(t, sx.U) and isinstance(t.comp, sx.F)]
        if thunked and self.rng.random() < 0.4:
            return self.rng.choice(thunked)
        return self.pick_value_type(ctx, depth)

    def fix(self, ctx, x, depth):
        if self.cfg.terminating:
            return self.countdown(ctx, x, depth)
        body = self.comp((sx.U(x),) + ctx, x, depth - 1)
        if self.rng.random() < 0.7:
            body = sx.Step(self.cost(), body)
        return sx.Fix(body)

    def countdown(self, ctx, x, depth):
        """fix applied to a numeral, recursing on the structural predecessor."""
        zctx = (sx.NAT, _MASK) + ctx
        zcase = self.comp(zctx, x, depth - 1)
        call = sx.Ap(sx.Var(2), sx.Var(0))
        scase = sx.Step(self.cost(), call) if self.rng.random() < 0.85 else call
        if isinstance(x, sx.F) and self.rng.random() < 0.35:
            cont_ctx = (x.value, sx.NAT, sx.NAT, _MASK) + ctx
            scase = sx.Bind(scase, self.comp(cont_ctx, x, depth - 1))
        fn = sx.Fix(sx.Lam(sx.NAT, sx.Ifz(sx.Var(0), zcase, scase)))
        nat_vars = self._vars_of(ctx, sx.NAT)
        if nat_vars and self.rng.random() < 0.2:
            arg = sx.Var(self.rng.choice(nat_vars))
        else:
            arg = sx.numeral(self.rng.randint(0, 4))
        return sx.Ap(fn, arg)


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
                 depth_range=(3, 6), fix_probability=0.25):
    """A deterministic batch of generated programs (term, target) pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        target = targets[rng.randrange(len(targets))]
        cfg = GenConfig(
            seed=rng.randrange(2**62),
            max_depth=rng.randint(*depth_range),
            target=target,
            fix_probability=fix_probability,
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
# Agreement: one comparison and one retry rule, shared by every suite

RETRY_FACTOR = 4


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


def agreement(o1, o2, again1, again2, fuel, model):
    """The one agreement rule for outcomes o1, o2 observed at `fuel`:
    (disagreement, o1, o2) after at most one retry.

    An Exhausted side facing a Defined one may only be short of fuel, so it
    is observed once more at RETRY_FACTOR times the fuel, by again1 or
    again2 (fuel -> outcome).  Diverges facing Defined is a proof that they
    differ: no fuel can excuse it, so it is never retried."""
    if o1 is EXHAUSTED and isinstance(o2, Defined):
        o1 = again1(RETRY_FACTOR * fuel)
    elif o2 is EXHAUSTED and isinstance(o1, Defined):
        o2 = again2(RETRY_FACTOR * fuel)
    return disagreement(o1, o2, model), o1, o2


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

    Each side is unwound once, at `fuel`, to (outcome, Laters used).  Two
    sides agree at every fuel up to `fuel` exactly when their outcomes agree
    there and, if both are Defined, they used the same Laters: `unwind` says
    how one unwinding decides every smaller fuel.  So the check is exact,
    with no retry: Diverges and Exhausted both mean "not Defined within that
    fuel".  Some generated delays never settle, so proved divergences meet
    the laws too."""
    rng = random.Random(seed)
    failures = []
    m = model.monoid

    def compare(case, side1, side2):
        (o1, u1), (o2, u2) = side1, side2
        why = disagreement(o1, o2, model)
        if why is None and isinstance(o1, Defined) and u1 != u2:
            why = f"Laters needed differ: {u1} vs {u2}"
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
    """Per transition e -> (c, e'): [[e]] = c (+) [[e']].  Per terminating
    program with terminal ret(v): [[e]] is Defined with the machine's cost
    and the answer v (compared as ground data, see `disagreement`).

    Per program that does not settle: the machine and [[e]] both diverge
    or run out of fuel.  Both checks use the one agreement rule.

    The transitions come from one `mc.trace` of the program: terminating
    programs get every transition checked; divergent ones are capped at
    DIVERGENT_STEP_CAP transitions (their transition graphs are cyclic
    modulo substitution, so a small prefix already covers each rule).  Each
    [[e_k]] along the run is observed once and shared by the two
    transitions it borders.  `programs` is a list of (name, term) pairs;
    only those of a ground returner type are checked, the others are
    skipped (they still count in `cases`).
    """
    failures = []
    for name, e in programs:
        if _ground_f_type(e, model) is None:
            continue
        machine, used = mc.settle(e, fuel, model)
        cap = used if isinstance(machine, Defined) else DIVERGENT_STEP_CAP

        # Prop: one transition preserves the denotation up to charging.
        whole = lhs = dn.denote_closed(e, model).to_delay()
        obs = o_lhs = dn.observe(lhs, fuel, model)
        steps = mc.trace(e, cap, model).steps
        for stepno, (cost, term) in enumerate(steps):
            nxt = dn.denote_closed(term, model).to_delay()
            o_nxt = dn.observe(nxt, fuel, model)
            why = agreement(o_lhs, _charged(cost, o_nxt, model),
                            lambda f: dn.observe(lhs, f, model),
                            lambda f: _charged(cost, dn.observe(nxt, f, model), model),
                            fuel, model)[0]
            if why:
                before = steps[stepno - 1][1] if stepno else e
                failures.append(Failure(
                    f"per-step:{name}", (sx.print_term(e), sx.print_term(before)),
                    f"transition {stepno}: {why}", fuel))
                break
            lhs, o_lhs = nxt, o_nxt

        # Thm: machine evaluation is reflected exactly in the denotation.
        why = agreement(obs, machine, lambda f: dn.observe(whole, f, model),
                        lambda f: mc.settle(e, f, model)[0], fuel, model)[0]
        if why:
            failures.append(Failure(f"big-step:{name}", (sx.print_term(e),), why, fuel))
    return CheckReport("soundness", len(programs), tuple(failures))


# ---------------------------------------------------------------------------
# Suite: adequacy at the observation type

def check_adequacy(programs, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """The machine and [[e]] agree by the one agreement rule: in
    definedness, exact cost and value (machine steps and Laters are
    different budgets, which the rule's one retry allows for)."""
    failures = []
    for name, e in programs:
        verdict = adequacy_verdict(e, fuel, model)[0]
        if verdict is not None:
            failures.append(Failure(f"adequacy:{name}", (sx.print_term(e),), verdict, fuel))
    return CheckReport("adequacy", len(programs), tuple(failures))


def adequacy_verdict(e, fuel, model):
    """(detail, machine outcome, denotation outcome, the machine's fuel) of
    the runs decided on; detail is None when they agree."""
    delay = dn.denote_closed(e, model).to_delay()
    fuels = []

    def machine(f):
        fuels.append(f)
        return mc.settle(e, f, model)[0]

    def denotation(f):
        return dn.observe(delay, f, model)

    why, m, d = agreement(machine(fuel), denotation(fuel), machine, denotation, fuel, model)
    return why, m, d, fuels[-1]


# ---------------------------------------------------------------------------
# Suite: sequencing laws

@dataclass(frozen=True)
class SequencingInstance:
    law: str  # eval-seq | prof-seq | prof-assoc | comm-app-seq
    parts: tuple


def gen_sequencing_instances(seed, cases_per_law, fuel, model: CostModel = DEFAULT_MODEL):
    """Generate terminating instances of each law: up to cases_per_law per
    law, fewer when cases_per_law * 30 attempts do not find that many."""
    rng = random.Random(seed)
    monoid = model.monoid
    instances = []

    def tgen(target, ctx=()):
        return _gen_terminating(rng, target, (2, 4), monoid, ctx)

    def terminates(t):
        return isinstance(mc.settle(t, fuel, model)[0], Defined)

    ground = list(_GROUND)
    for law in ("eval-seq", "prof-seq", "prof-assoc", "comm-app-seq"):
        made = 0
        attempts = 0
        while made < cases_per_law and attempts < cases_per_law * 30:
            attempts += 1
            a = ground[rng.randrange(3)]
            b = ground[rng.randrange(3)]
            e = tgen(sx.F(a))
            if law in ("eval-seq", "prof-seq"):
                g = tgen(sx.F(b if law == "eval-seq" else sx.UNIT), ctx=(a,))
                if not terminates(e) or not terminates(sx.Bind(e, g)):
                    continue
                parts = (e, g)
            elif law == "prof-assoc":
                g = tgen(sx.F(b), ctx=(a,))
                i = tgen(sx.F(sx.UNIT), ctx=(b,))
                if not terminates(sx.Bind(sx.Bind(e, g), i)):
                    continue
                parts = (e, g, i)
            else:
                g = tgen(sx.Arrow(b, sx.F(sx.UNIT)), ctx=(a,))
                w = gen_term(GenConfig(seed=rng.randrange(2**62), max_depth=2, target=b,
                                       monoid=monoid, terminating=True))
                if not terminates(sx.Ap(sx.Bind(e, g), w)):
                    continue
                parts = (e, g, w)
            instances.append(SequencingInstance(law, parts))
            made += 1
    return instances


def _sequencing_sides(inst, fuel, model):
    """The machine outcomes of the two sides of inst's law.

    eval-seq and prof-seq: bind(e, g) against e's cost charged onto the
    outcome of g[v], where e settles to ret(v) (e's own outcome when it does
    not settle).  prof-assoc: the two nestings of bind.  comm-app-seq:
    ap(bind(e, g), w) against bind(e, ap(g, w))."""
    def settle(t):
        return mc.settle(t, fuel, model)[0]

    if inst.law in ("eval-seq", "prof-seq"):
        e, g = inst.parts
        first = settle(e)
        if isinstance(first, Defined):
            rest = _charged(first.cost, settle(sx.subst(g, first.value.arg)), model)
        else:
            rest = first
        return settle(sx.Bind(e, g)), rest
    if inst.law == "prof-assoc":
        e, g, i = inst.parts
        return settle(sx.Bind(sx.Bind(e, g), i)), settle(sx.Bind(e, sx.Bind(g, sx.shift(i, 1, 1))))
    e, g, w = inst.parts
    return settle(sx.Ap(sx.Bind(e, g), w)), settle(sx.Bind(e, sx.Ap(g, sx.shift(w, 1))))


def check_sequencing_laws(instances, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """Each law's two sides settle on the machine, and agree by
    `disagreement` in cost and terminal."""
    failures = []
    for idx, inst in enumerate(instances):
        lhs, rhs = _sequencing_sides(inst, fuel, model)
        if not isinstance(lhs, Defined) or disagreement(lhs, rhs, model):
            failures.append(Failure(
                f"{inst.law}[{idx}]", tuple(sx.print_term(t) for t in inst.parts),
                f"sides settle to {lhs!r} and {rhs!r}", fuel))
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


def check_noninterference(functions, args, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """Terminating arguments of thunk type differ only in cost, so every
    function U(F unit) -> F ans must send both members of a pair to the same
    answer: the two runs agree by the one agreement rule with costs sealed
    (the Extensional model's `eq`).  A pair on which neither run settles is
    vacuous.  Each run is repeated under the Extensional phase, where the
    costs themselves must collapse to the sealed point."""
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
            why, ox, _ = agreement(mc.settle(fx, fuel, model)[0], mc.settle(fy, fuel, model)[0],
                                   lambda n: mc.settle(fx, n, model)[0],
                                   lambda n: mc.settle(fy, n, model)[0], fuel, ext)
            if why:
                fail(name, f"answers differ: {why}", (f, x, y))
                continue
            if not isinstance(ox, Defined):
                continue  # not a terminating pair for this function; vacuous
            ex = mc.settle(fx, fuel, ext)[0]
            ey = mc.settle(fy, fuel, ext)[0]
            if disagreement(ex, ox, ext) or disagreement(ey, ox, ext):
                fail(name, "extensional rerun changed the answer", (f, x, y))
            elif ex.cost is not STAR or ey.cost is not STAR:
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
    reports are the same whichever suites ran before it."""
    if name == "all":
        rng = random.Random(seed)
        reports = []
        for suite in SUITES:
            reports.extend(run_suite(suite, rng.randrange(2**62), fuel, model, cases))
        return reports
    with mc.sharing():
        return _run_named_suite(name, seed, fuel, model, cases)


def _run_named_suite(name, seed, fuel, model, cases):
    n = cases if cases is not None else _DEFAULT_CASES.get(name)
    if name == "laws":
        return [check_laws(seed, n, min(fuel, 10_000), model)]
    if name == "soundness":
        programs = list(load_corpus())
        gen = gen_programs(seed, n, _GROUND_F, terminating_frac=0.7,
                           monoid=model.monoid, depth_range=(2, 5))
        programs += [(f"gen[{i}]", t) for i, (t, _) in enumerate(gen)]
        return [check_soundness(programs, fuel, model)]
    if name == "adequacy":
        programs = [(nm, t) for nm, t in load_corpus()
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
