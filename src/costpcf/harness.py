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
from .cost import DEFAULT_MODEL, NAT_MONOID, CostModel, Phase
from .typecheck import TypeCheckError, check_program, infer


# ---------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class Failure:
    case: str
    terms: tuple
    detail: str
    fuel: int
    minimized: object = None

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "terms": list(self.terms),
            "detail": self.detail,
            "fuel": self.fuel,
            "minimized": self.minimized,
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
    step_cost_range: tuple = (0, 5)
    monoid: object = NAT_MONOID
    terminating: bool = False


_GROUND = (sx.UNIT, sx.NAT, sx.ANS)

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
        lo, hi = self.cfg.step_cost_range
        return self.cfg.monoid.sample(self.rng, lo, hi)

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


def gen_term(cfg: GenConfig):
    """Deterministic closed well-typed term of cfg.target."""
    rng = random.Random(cfg.seed)
    return _Gen(rng, cfg).comp((), cfg.target, cfg.max_depth)


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
# Shared comparison helpers

def _obs_agree(o1, o2, lhs, rhs, fuel, model):
    """Agreement of observations o1, o2 of delays lhs, rhs at `fuel`.

    Returns (ok, detail).  Agreement: both Defined with equal cost and equal
    ground value, or both Exhausted (a one-sided Exhausted is re-observed
    from its delay at 2x fuel first).
    """
    if isinstance(o1, dn.Exhausted) != isinstance(o2, dn.Exhausted):
        if isinstance(o1, dn.Exhausted):
            o1 = dn.observe(lhs, 2 * fuel, model)
        else:
            o2 = dn.observe(rhs, 2 * fuel, model)
    if isinstance(o1, dn.Exhausted) and isinstance(o2, dn.Exhausted):
        return True, ""
    if isinstance(o1, dn.Exhausted) or isinstance(o2, dn.Exhausted):
        return False, f"one side exhausted: {o1!r} vs {o2!r}"
    if not model.eq(o1.cost, o2.cost):
        return False, f"costs differ: {model.show(o1.cost)} vs {model.show(o2.cost)}"
    if o1.value != o2.value:
        return False, f"values differ: {o1.value!r} vs {o2.value!r}"
    return True, ""


# ---------------------------------------------------------------------------
# Suite: monad and cost-algebra laws

def _gen_delay(rng, model, depth):
    m = model.monoid
    r = rng.random()
    if depth <= 0 or r < 0.3:
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


def _law_fuels(rng, lhs, rhs, fuel, model):
    """Fuel sample points: boundaries around each side's settling point."""
    pts = {0, 1, fuel}
    for d in (lhs, rhs):
        n = dn.laters_needed(d, min(fuel, 10_000), model)
        if n is not None:
            pts.update({max(0, n - 1), n, n + 1})
    pts.add(rng.randint(0, 8))
    return sorted(pts)


def _delays_equal_at(lhs, rhs, fuels, model):
    for f in fuels:
        o1 = dn.observe(lhs, f, model)
        o2 = dn.observe(rhs, f, model)
        e1 = isinstance(o1, dn.Exhausted)
        e2 = isinstance(o2, dn.Exhausted)
        if e1 != e2:
            return False, f"fuel {f}: {o1!r} vs {o2!r}"
        if not e1:
            if not model.eq(o1.cost, o2.cost) or o1.value != o2.value:
                return False, f"fuel {f}: {o1!r} vs {o2!r}"
    return True, ""


def check_laws(seed, cases, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """Monad unit/associativity for (eta, bindT), distributive-law coherence,
    and the three derived cost-algebra laws, as observational equalities."""
    rng = random.Random(seed)
    failures = []
    m = model.monoid

    def fail(case, detail, parts=()):
        failures.append(Failure(case, tuple(parts), detail, fuel))

    for i in range(cases):
        a = dn.VNum(rng.randint(0, 9))
        c = m.sample(rng, 0, 9)
        d = _gen_delay(rng, model, 4)
        k = _gen_kont(rng, model, 3)
        g = _gen_kont(rng, model, 3)

        # Monad left unit: bindT(eta a, k) = k a.
        lhs, rhs = dn.bindT(dn.eta(a, model), k), k(a)
        ok, why = _delays_equal_at(lhs, rhs, _law_fuels(rng, lhs, rhs, fuel, model), model)
        if not ok:
            fail(f"left-unit[{i}]", why)
        # Monad right unit: bindT(d, eta) = d.
        lhs, rhs = dn.bindT(d, lambda v: dn.eta(v, model)), d
        ok, why = _delays_equal_at(lhs, rhs, _law_fuels(rng, lhs, rhs, fuel, model), model)
        if not ok:
            fail(f"right-unit[{i}]", why)
        # Monad associativity.
        lhs = dn.bindT(dn.bindT(d, k), g)
        rhs = dn.bindT(d, lambda v: dn.bindT(k(v), g))
        ok, why = _delays_equal_at(lhs, rhs, _law_fuels(rng, lhs, rhs, fuel, model), model)
        if not ok:
            fail(f"assoc[{i}]", why)
        # Distributive-law coherence: charging commutes with the delay
        # structure: it never changes the fuel needed, and on a settled
        # computation it adds on the left.
        ch = dn.charge(c, d, model)
        n_d = dn.laters_needed(d, min(fuel, 10_000), model)
        n_ch = dn.laters_needed(ch, min(fuel, 10_000), model)
        if n_d != n_ch:
            fail(f"dist-fuel[{i}]", f"laters changed {n_d} -> {n_ch}")
        o_d = dn.observe(d, fuel, model)
        o_ch = dn.observe(ch, fuel, model)
        if isinstance(o_d, dn.Defined) != isinstance(o_ch, dn.Defined):
            fail(f"dist-support[{i}]", f"{o_d!r} vs {o_ch!r}")
        elif isinstance(o_d, dn.Defined):
            want = model.add(c, o_d.cost)
            if not model.eq(o_ch.cost, want) or o_ch.value != o_d.value:
                fail(f"dist-cost[{i}]", f"{o_ch!r} vs charge {model.show(c)} over {o_d!r}")
        # Algebra law: f#(c (+) e) = c (+) f#(e).
        lhs = dn.bindT(dn.charge(c, d, model), k)
        rhs = dn.charge(c, dn.bindT(d, k), model)
        ok, why = _delays_equal_at(lhs, rhs, _law_fuels(rng, lhs, rhs, fuel, model), model)
        if not ok:
            fail(f"algebra-bind[{i}]", why)
        # Algebra law at arrows: (c (+) f)(a) = c (+) (f a).
        inner_c = m.sample(rng, 0, 9)
        fn = dn.FunComp(lambda v, _c=inner_c: dn.FComp(dn.charge(_c, dn.eta(v, model), model)))
        lhs = dn.ChargeComp(c, fn, model).apply(a).to_delay()
        rhs = dn.charge(c, fn.apply(a).to_delay(), model)
        ok, why = _delays_equal_at(lhs, rhs, _law_fuels(rng, lhs, rhs, fuel, model), model)
        if not ok:
            fail(f"algebra-apply[{i}]", why)

    return CheckReport("laws", cases, tuple(failures))


# ---------------------------------------------------------------------------
# Suite: machine metatheory (determinism, preservation, eval functionality,
# fuel monotonicity)

def _tweak_ground(v):
    """A different ground value of the same type, for functionality checks."""
    if isinstance(v, sx.Yes):
        return sx.NO
    if isinstance(v, sx.No):
        return sx.YES
    if isinstance(v, (sx.Zero, sx.Succ)):
        return sx.Succ(v)
    return None


def check_machine_metatheory(seed, cases, fuel, model: CostModel = DEFAULT_MODEL,
                             max_depth=8, step_cap=25) -> CheckReport:
    rng = random.Random(seed)
    failures = []
    targets = (sx.F(sx.UNIT), sx.F(sx.NAT), sx.F(sx.ANS))
    programs = gen_programs(seed=rng.randrange(2**62), count=cases, targets=targets,
                            terminating_frac=0.6, monoid=model.monoid,
                            depth_range=(2, max_depth))

    for idx, (e, target) in enumerate(programs):
        name = f"meta[{idx}]"
        printed = sx.print_term(e)
        # Checking mode pins divergent skeletons like (fix x x) whose type
        # is not determined by the term alone.
        judgment = infer((), e, expected=target, monoid=model.monoid)

        # Determinism: out is a function.
        cur = e
        for _ in range(3):
            r1 = mc.out(cur, model)
            r2 = mc.out(cur, model)
            if r1 != r2:
                failures.append(Failure(name, (printed,), f"out not deterministic: {r1!r} vs {r2!r}", fuel))
                break
            if isinstance(r1, mc.Terminal):
                break
            cur = r1.term

        # Preservation: every reachable state checks at the initial type.
        ct = judgment.classification.type
        cur = e
        for stepno in range(step_cap):
            r = mc.out(cur, model)
            if isinstance(r, mc.Terminal):
                break
            cur = r.term
            try:
                check_program(cur, ct, monoid=model.monoid)
            except TypeCheckError as err:
                failures.append(Failure(
                    name, (printed, sx.print_term(cur)),
                    f"preservation broken at step {stepno}: {err}", fuel))
                break

        # Eval functionality and fuel monotonicity on the machine outcome.
        res = mc.run(e, fuel, model)
        if res is not None:
            total, terminal, used = res
            o_exact = mc.eval_term(e, terminal, used, model)
            if o_exact != mc.Defined(total):
                failures.append(Failure(
                    name, (printed,), f"eval at exact fuel {used}: {o_exact!r}", fuel))
            o_more = mc.eval_term(e, terminal, used + rng.randint(1, 50), model)
            if o_more != mc.Defined(total):
                failures.append(Failure(
                    name, (printed,), f"eval not fuel-monotone: {o_more!r}", fuel))
            if used > 0:
                o_less = mc.eval_term(e, terminal, rng.randrange(used), model)
                if isinstance(o_less, mc.Defined):
                    failures.append(Failure(
                        name, (printed,), "eval Defined below the settling fuel", fuel))
            if isinstance(terminal, sx.Ret):
                other = _tweak_ground(terminal.arg)
                if other is not None:
                    o_other = mc.eval_term(e, sx.Ret(other), fuel, model)
                    if isinstance(o_other, mc.Defined):
                        failures.append(Failure(
                            name, (printed,),
                            "eval functional violation: Defined at two targets", fuel))
                    if o_other != mc.MISMATCH:
                        failures.append(Failure(
                            name, (printed,), f"expected Mismatch, got {o_other!r}", fuel))
        else:
            small = rng.randint(0, 30)
            o_small = mc.eval_term(e, sx.Ret(sx.TRIV), small, model)
            if o_small != mc.Exhausted(small):
                failures.append(Failure(
                    name, (printed,),
                    f"unsettled program gave {o_small!r} at fuel {small}", fuel))

    return CheckReport("machine-metatheory", cases, tuple(failures))


# ---------------------------------------------------------------------------
# Suite: soundness (per-step and big-step)

_GROUND_F = (sx.F(sx.UNIT), sx.F(sx.NAT), sx.F(sx.ANS))


def _ground_f_type(t, model):
    """First ground returner type the closed term checks at, if any."""
    for ft in _GROUND_F:
        try:
            check_program(t, ft, monoid=model.monoid)
            return ft
        except TypeCheckError:
            continue
    return None


def check_soundness(programs, fuel, model: CostModel = DEFAULT_MODEL,
                    divergent_step_cap=12,
                    divergent_observe_fuel=None) -> CheckReport:
    """Per transition e -> (c, e'): [[e]] = c (+) [[e']].  Per terminating
    program with terminal v: [[e]] = Defined(machine cost, [[v]]).

    Terminating programs get every transition checked; divergent ones are
    capped at divergent_step_cap transitions (their transition graphs are
    cyclic modulo substitution, so a small prefix already covers each rule).
    Each [[e_k]] along the run is observed once and shared by the two
    transitions it borders; only a one-sided Exhausted re-observes, at 2x.
    `programs` holds (name, term) pairs; ground returner types get the full
    check, other types only the vacuous terminal cases.
    """
    failures = []
    if divergent_observe_fuel is None:
        divergent_observe_fuel = fuel
    cases = 0
    for name, e in programs:
        cases += 1
        if _ground_f_type(e, model) is None:
            continue
        printed = sx.print_term(e)

        res = mc.run(e, fuel, model)
        diverged = res is None
        cap = divergent_step_cap if diverged else res[2]
        obs_fuel = divergent_observe_fuel if diverged else fuel

        # Prop: one transition preserves the denotation up to charging.
        # charge keeps Laters, so c (+) obs([[e']]) is exactly obs(c (+) [[e']]).
        cur = e
        lhs = dn.denote_closed(e, model).to_delay()
        obs = o_lhs = dn.observe(lhs, obs_fuel, model)
        for stepno in range(cap):
            r = mc.out(cur, model)
            if isinstance(r, mc.Terminal):
                break
            nxt = dn.denote_closed(r.term, model).to_delay()
            o_nxt = dn.observe(nxt, obs_fuel, model)
            o_rhs = (dn.Defined(model.add(r.cost, o_nxt.cost), o_nxt.value)
                     if isinstance(o_nxt, dn.Defined) else o_nxt)
            ok, why = _obs_agree(o_lhs, o_rhs, lhs, dn.charge(r.cost, nxt, model),
                                 obs_fuel, model)
            if not ok:
                failures.append(Failure(
                    f"per-step:{name}", (printed, sx.print_term(cur)),
                    f"transition {stepno}: {why}", obs_fuel))
                break
            cur, lhs, o_lhs = r.term, nxt, o_nxt

        # Thm: machine evaluation is reflected exactly in the denotation.
        # Terminating programs have obs_fuel == fuel: `obs` observed [[e]].
        if not diverged:
            total, terminal, _used = res
            if isinstance(obs, dn.Exhausted):
                failures.append(Failure(
                    f"big-step:{name}", (printed,),
                    f"machine Defined({model.show(total)}) but denotation exhausted", fuel))
            else:
                want_value = dn.denote((), terminal.arg, (), model)
                if not model.eq(obs.cost, total):
                    failures.append(Failure(
                        f"big-step:{name}", (printed,),
                        f"cost {model.show(obs.cost)} != machine {model.show(total)}", fuel))
                elif obs.value != want_value:
                    failures.append(Failure(
                        f"big-step:{name}", (printed,),
                        f"value {obs.value!r} != {want_value!r}", fuel))
    return CheckReport("soundness", cases, tuple(failures))


# ---------------------------------------------------------------------------
# Suite: adequacy at the observation type

def check_adequacy(programs, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """profile(e) and observing [[e]] agree in definedness and exact cost.

    Defined/Exhausted disagreements are retried once at 4x fuel before being
    reported (machine steps and Laters are structurally different budgets).
    """
    failures = []
    cases = 0
    for name, e in programs:
        cases += 1
        printed = sx.print_term(e)
        verdict = _adequacy_verdict(e, fuel, model)[0]
        if verdict is not None:
            failures.append(Failure(f"adequacy:{name}", (printed,), verdict, fuel))
    return CheckReport("adequacy", cases, tuple(failures))


def _adequacy_verdict(e, fuel, model):
    """(detail, machine profile, denotation observation, fuel) of the runs
    decided on; detail is None when they agree."""
    for f in (fuel, 4 * fuel):
        m = mc.profile(e, f, model)
        d = dn.observe(dn.denote_closed(e, model).to_delay(), f, model)
        agreed, why = _profile_obs_agree(m, d, model)
        if agreed or not (isinstance(m, mc.Exhausted) or isinstance(d, dn.Exhausted)):
            break
    return (None if agreed else why), m, d, f


def _profile_obs_agree(m, d, model):
    m_def = isinstance(m, mc.Defined)
    d_def = isinstance(d, dn.Defined)
    if m_def and d_def:
        if model.eq(m.cost, d.cost):
            return True, ""
        return False, f"costs differ: machine {model.show(m.cost)} vs denotation {model.show(d.cost)}"
    if isinstance(m, mc.Mismatch):
        return False, "profile hit a mismatched terminal (type error upstream)"
    if not m_def and not d_def:
        return True, ""
    return False, f"definedness differs: machine {m!r} vs denotation {d!r}"


# ---------------------------------------------------------------------------
# Suite: sequencing laws

@dataclass(frozen=True)
class SequencingInstance:
    law: str  # eval-seq | prof-seq | prof-assoc | comm-app-seq
    parts: tuple


def gen_sequencing_instances(seed, cases_per_law, fuel, model: CostModel = DEFAULT_MODEL):
    """Generate >= cases_per_law terminating instances of each law."""
    rng = random.Random(seed)
    monoid = model.monoid
    instances = []

    def tgen(target, ctx=(), depth=None):
        cfg = GenConfig(
            seed=rng.randrange(2**62),
            max_depth=depth if depth is not None else rng.randint(2, 4),
            target=target,
            monoid=monoid,
            terminating=True,
        )
        return _Gen(random.Random(cfg.seed), cfg).comp(ctx, target, cfg.max_depth)

    def terminates(t):
        return mc.run(t, fuel, model) is not None

    ground = list(_GROUND)
    for law in ("eval-seq", "prof-seq", "prof-assoc", "comm-app-seq"):
        made = 0
        attempts = 0
        while made < cases_per_law and attempts < cases_per_law * 30:
            attempts += 1
            a = ground[rng.randrange(3)]
            b = ground[rng.randrange(3)]
            if law == "eval-seq":
                e = tgen(sx.F(a))
                g = tgen(sx.F(b), ctx=(a,))
                if not terminates(e) or not terminates(sx.Bind(e, g)):
                    continue
                instances.append(SequencingInstance(law, (e, g)))
            elif law == "prof-seq":
                e = tgen(sx.F(a))
                g = tgen(sx.F(sx.UNIT), ctx=(a,))
                if not terminates(e) or not terminates(sx.Bind(e, g)):
                    continue
                instances.append(SequencingInstance(law, (e, g)))
            elif law == "prof-assoc":
                e = tgen(sx.F(a))
                g = tgen(sx.F(b), ctx=(a,))
                i = tgen(sx.F(sx.UNIT), ctx=(b,))
                if not terminates(sx.Bind(sx.Bind(e, g), i)):
                    continue
                instances.append(SequencingInstance(law, (e, g, i)))
            else:
                e = tgen(sx.F(a))
                g = tgen(sx.Arrow(b, sx.F(sx.UNIT)), ctx=(a,))
                w = _Gen(random.Random(rng.randrange(2**62)),
                         GenConfig(seed=0, monoid=monoid, terminating=True)).value((), b, 2)
                if not terminates(sx.Ap(sx.Bind(e, g), w)):
                    continue
                instances.append(SequencingInstance(law, (e, g, w)))
            made += 1
    return instances


def check_sequencing_laws(instances, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    failures = []
    for idx, inst in enumerate(instances):
        name = f"{inst.law}[{idx}]"
        if inst.law in ("eval-seq", "prof-seq"):
            e, g = inst.parts
            r_e = mc.run(e, fuel, model)
            if r_e is None:
                failures.append(Failure(name, (sx.print_term(e),), "component e did not settle", fuel))
                continue
            c1, term_e, _ = r_e
            v = term_e.arg
            r_g = mc.run(sx.subst(g, v), fuel, model)
            if r_g is None:
                failures.append(Failure(name, (sx.print_term(g),), "component g[v] did not settle", fuel))
                continue
            c2, term_g, _ = r_g
            want = model.add(c1, c2)
            if inst.law == "eval-seq":
                got = mc.eval_term(sx.Bind(e, g), term_g, fuel, model)
            else:
                got = mc.profile(sx.Bind(e, g), fuel, model)
            if got != mc.Defined(want):
                failures.append(Failure(
                    name, (sx.print_term(e), sx.print_term(g)),
                    f"bind cost {got!r}, expected Defined({model.show(want)})", fuel))
        elif inst.law == "prof-assoc":
            e, g, i = inst.parts
            lhs = sx.Bind(sx.Bind(e, g), i)
            rhs = sx.Bind(e, sx.Bind(g, sx.shift(i, 1, 1)))
            o1 = mc.profile(lhs, fuel, model)
            o2 = mc.profile(rhs, fuel, model)
            if o1 != o2 or not isinstance(o1, mc.Defined):
                failures.append(Failure(
                    name, tuple(sx.print_term(t) for t in inst.parts),
                    f"profile disagrees: {o1!r} vs {o2!r}", fuel))
        else:  # comm-app-seq
            e, g, w = inst.parts
            lhs = sx.Ap(sx.Bind(e, g), w)
            rhs = sx.Bind(e, sx.Ap(g, sx.shift(w, 1)))
            r1 = mc.run(lhs, fuel, model)
            r2 = mc.run(rhs, fuel, model)
            if r1 is None or r2 is None:
                failures.append(Failure(
                    name, tuple(sx.print_term(t) for t in inst.parts),
                    "application did not settle", fuel))
                continue
            c1, t1, _ = r1
            c2, t2, _ = r2
            if not model.eq(c1, c2) or t1 != t2:
                failures.append(Failure(
                    name, tuple(sx.print_term(t) for t in inst.parts),
                    f"outcomes differ: ({model.show(c1)}, {sx.print_term(t1)}) vs "
                    f"({model.show(c2)}, {sx.print_term(t2)})", fuel))
    return CheckReport("sequencing", len(instances), tuple(failures))


# ---------------------------------------------------------------------------
# Suite: noninterference

def gen_ni_functions(seed, count, monoid=NAT_MONOID):
    """Functions of type U(F unit) -> F ans, generated terminating."""
    rng = random.Random(seed)
    out = []
    arg_t = sx.U(sx.F(sx.UNIT))
    for _ in range(count):
        cfg = GenConfig(
            seed=rng.randrange(2**62),
            max_depth=rng.randint(2, 5),
            target=sx.F(sx.ANS),
            monoid=monoid,
            terminating=True,
        )
        body = _Gen(random.Random(cfg.seed), cfg).comp((arg_t,), sx.F(sx.ANS), cfg.max_depth)
        out.append(sx.Lam(arg_t, body))
    return out


def gen_ni_arg_pairs(seed, count, fuel, model: CostModel = DEFAULT_MODEL):
    """Pairs of terminating U(F unit) thunks; half are step^k perturbations
    of one underlying thunk, half independent."""
    rng = random.Random(seed)
    pairs = []
    attempts = 0
    while len(pairs) < count and attempts < count * 30:
        attempts += 1
        cfg = GenConfig(
            seed=rng.randrange(2**62),
            max_depth=rng.randint(1, 4),
            target=sx.F(sx.UNIT),
            monoid=model.monoid,
            terminating=True,
        )
        x = gen_term(cfg)
        if not isinstance(mc.profile(x, fuel, model), mc.Defined):
            continue
        if rng.random() < 0.5:
            k = model.monoid.sample(rng, 1, 9)
            y = sx.Step(k, x)
        else:
            cfg2 = GenConfig(
                seed=rng.randrange(2**62),
                max_depth=rng.randint(1, 4),
                target=sx.F(sx.UNIT),
                monoid=model.monoid,
                terminating=True,
            )
            y = gen_term(cfg2)
            if not isinstance(mc.profile(y, fuel, model), mc.Defined):
                continue
        pairs.append((x, y))
    return pairs


def check_noninterference(functions, args, fuel, model: CostModel = DEFAULT_MODEL) -> CheckReport:
    """Terminating arguments of thunk type differ only in cost, so every
    function U(F unit) -> F ans must send both members of a pair to the same
    answer (costs may differ).  Each run is repeated under the Extensional
    phase, where the costs themselves must collapse to the sealed point."""
    failures = []
    ext = model.with_phase(Phase.EXTENSIONAL)
    cases = 0
    for fidx, f in enumerate(functions):
        for aidx, (x, y) in enumerate(args):
            cases += 1
            name = f"ni[{fidx}/{aidx}]"
            rx = mc.run(sx.Ap(f, x), fuel, model)
            ry = mc.run(sx.Ap(f, y), fuel, model)
            if rx is None or ry is None:
                rx = rx or mc.run(sx.Ap(f, x), 4 * fuel, model)
                ry = ry or mc.run(sx.Ap(f, y), 4 * fuel, model)
            if rx is None or ry is None:
                continue  # not a terminating pair for this function; vacuous
            _, tx, _ = rx
            _, ty, _ = ry
            if tx != ty:
                failures.append(Failure(
                    name,
                    (sx.print_term(f), sx.print_term(x), sx.print_term(y)),
                    f"answers differ: {sx.print_term(tx)} vs {sx.print_term(ty)}",
                    fuel,
                ))
                continue
            ex = mc.run(sx.Ap(f, x), fuel, ext)
            ey = mc.run(sx.Ap(f, y), fuel, ext)
            if ex is None or ey is None or ex[1] != ey[1] or ex[1] != tx:
                failures.append(Failure(
                    name,
                    (sx.print_term(f), sx.print_term(x), sx.print_term(y)),
                    "extensional rerun changed the answer",
                    fuel,
                ))
                continue
            if ext.show(ex[0]) != "*" or ext.show(ey[0]) != "*":
                failures.append(Failure(
                    name,
                    (sx.print_term(f),),
                    "extensional cost failed to seal",
                    fuel,
                ))
    return CheckReport("noninterference", cases, tuple(failures))


# ---------------------------------------------------------------------------
# Counterexample minimization

def _paths(t):
    """Pre-order positions as tuples of field names."""
    out = [()]
    if isinstance(t, (sx.Succ, sx.Ret)):
        out += [("arg",) + p for p in _paths(t.arg)]
    elif isinstance(t, sx.Step):
        out += [("body",) + p for p in _paths(t.body)]
    elif isinstance(t, sx.Bind):
        out += [("head",) + p for p in _paths(t.head)]
        out += [("cont",) + p for p in _paths(t.cont)]
    elif isinstance(t, sx.Ifz):
        out += [("scrut",) + p for p in _paths(t.scrut)]
        out += [("zcase",) + p for p in _paths(t.zcase)]
        out += [("scase",) + p for p in _paths(t.scase)]
    elif isinstance(t, (sx.Fix, sx.Lam)):
        out += [("body",) + p for p in _paths(t.body)]
    elif isinstance(t, sx.Ap):
        out += [("fun",) + p for p in _paths(t.fun)]
        out += [("arg",) + p for p in _paths(t.arg)]
    return out


def _get(t, path):
    for field_name in path:
        t = getattr(t, field_name)
    return t


def _put(t, path, sub):
    if not path:
        return sub
    head, rest = path[0], path[1:]
    child = _put(getattr(t, head), rest, sub)
    if isinstance(t, sx.Succ):
        return sx.Succ(child)
    if isinstance(t, sx.Ret):
        return sx.Ret(child)
    if isinstance(t, sx.Step):
        return sx.Step(t.cost, child)
    if isinstance(t, sx.Bind):
        return sx.Bind(child, t.cont) if head == "head" else sx.Bind(t.head, child)
    if isinstance(t, sx.Ifz):
        if head == "scrut":
            return sx.Ifz(child, t.zcase, t.scase)
        if head == "zcase":
            return sx.Ifz(t.scrut, child, t.scase)
        return sx.Ifz(t.scrut, t.zcase, child)
    if isinstance(t, sx.Fix):
        return sx.Fix(child)
    if isinstance(t, sx.Lam):
        return sx.Lam(t.dom, child)
    if isinstance(t, sx.Ap):
        return sx.Ap(child, t.arg) if head == "fun" else sx.Ap(t.fun, child)
    raise TypeError(f"cannot rebuild through {t!r}")


_BASE_REPLACEMENTS = (
    sx.Ret(sx.TRIV), sx.Ret(sx.ZERO), sx.Ret(sx.YES),
    sx.TRIV, sx.ZERO, sx.YES, sx.NO,
)


def _local_candidates(s):
    cands = []
    if isinstance(s, sx.Step):
        cands.append(s.body)
    if isinstance(s, sx.Succ):
        cands.append(s.arg)
    if isinstance(s, sx.Bind):
        cands.append(sx.subst(s.cont, sx.ZERO))
        cands.append(sx.subst(s.cont, sx.TRIV))
        cands.append(sx.subst(s.cont, sx.YES))
        cands.append(s.head)
    if isinstance(s, sx.Ifz):
        cands.append(s.zcase)
        cands.append(sx.subst(s.scase, sx.ZERO))
    if isinstance(s, sx.Ap) and isinstance(s.fun, sx.Lam):
        cands.append(sx.subst(s.fun.body, s.arg))
    cands.extend(_BASE_REPLACEMENTS)
    return cands


def minimize(counterexample, still_fails, expected=None, monoid=NAT_MONOID):
    """Greedy shrinking that preserves typing and failure.

    `counterexample` is a Term or tuple of Terms; `still_fails` receives the
    same shape.  Each accepted step strictly reduces total size, so the loop
    terminates and is the identity on non-failing inputs (nothing is accepted
    when still_fails(original) is false, since candidates must fail too).
    """
    if isinstance(counterexample, tuple):
        parts = list(counterexample)
        for i in range(len(parts)):
            def fails_at(cand, i=i):
                probe = parts.copy()
                probe[i] = cand
                return still_fails(tuple(probe))

            exp_i = expected[i] if isinstance(expected, (list, tuple)) else expected
            parts[i] = minimize(parts[i], fails_at, exp_i, monoid)
        return tuple(parts)

    cur = counterexample
    try:
        base = infer((), cur, expected=expected, monoid=monoid).classification
    except TypeCheckError:
        return cur

    def well_typed(t):
        try:
            return infer((), t, expected=expected, monoid=monoid).classification == base
        except TypeCheckError:
            return False

    improved = True
    while improved:
        improved = False
        for path in _paths(cur):
            sub = _get(cur, path)
            for cand_sub in _local_candidates(sub):
                if sx.term_size(cand_sub) >= sx.term_size(sub):
                    continue
                cand = _put(cur, path, cand_sub)
                if not well_typed(cand):
                    continue
                if not still_fails(cand):
                    continue
                cur = cand
                improved = True
                break
            if improved:
                break
    return cur


# ---------------------------------------------------------------------------
# Suite orchestration

SUITES = ("laws", "soundness", "adequacy", "sequencing", "noninterference")

_DEFAULT_CASES = {
    "laws": 1000,
    "soundness": 500,
    "adequacy": 200,
    "sequencing": 200,
    "noninterference": 100,
}


def run_suite(name, seed, fuel, model: CostModel = DEFAULT_MODEL, cases=None):
    """Run one named suite (or "all") and return a list of CheckReports."""
    if name == "all":
        rng = random.Random(seed)
        reports = []
        for suite in SUITES:
            reports.extend(run_suite(suite, rng.randrange(2**62), fuel, model, cases))
        return reports

    n = cases if cases is not None else _DEFAULT_CASES.get(name)
    if name == "laws":
        return [check_laws(seed, n, min(fuel, 10_000), model)]
    if name == "soundness":
        programs = list(load_corpus())
        gen = gen_programs(seed, n, _GROUND_F, terminating_frac=0.7,
                           monoid=model.monoid, depth_range=(2, 5))
        programs += [(f"gen[{i}]", t) for i, (t, _) in enumerate(gen)]
        return [check_soundness(programs, fuel, model,
                                divergent_observe_fuel=min(fuel, 20_000))]
    if name == "adequacy":
        programs = [(nm, t) for nm, t in load_corpus() if _is_unit_program(t, model)]
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


def _is_unit_program(t, model):
    try:
        check_program(t, sx.F(sx.UNIT), monoid=model.monoid)
        return True
    except TypeCheckError:
        return False
