"""The three workloads: inputs from a seed, one timed pass, answer checks.

Each workload has `setup(pc, seed, size)`, which builds its inputs from an
imported costpcf (`pc`), and `run_pass(pc, inputs)`, which runs them once in
a closed loop (one caller, the next item starts when the previous one ends)
and returns one `Item` per input.  Every call into costpcf goes through a
module attribute (`pc.syntax.parse`, not a saved reference), so the tracer
can swap those attributes.

`size` is "full" for the benchmark and "tiny" for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

# The same machine/observation budget the CLI uses by default.
FUEL = 100_000

ADD_SRC = ("(ap (ap (fix f (lam nat m (lam nat n (ifz m (ret n) p "
           "(step 1 (bind (ap (ap f p) n) r (ret (succ r)))))))) {m}) {n})")
ACK_SRC = ("(ap (ap (fix a (lam nat m (lam nat n (ifz m (ret (succ n)) p "
           "(ifz n (step 1 (ap (ap a p) 1)) q "
           "(step 1 (bind (ap (ap a m) q) r (ap (ap a p) r)))))))) {m}) {n})")

# scaled_eval sizes.  Five adders and two Ackermanns make the item count
# per pass odd, so the median item is one program's time, not a boundary
# between two programs.  All stay below Python's recursion limit.
SCALED = {
    "full": {"add": (50, 100, 200, 300, 400), "ack": ((3, 2), (3, 3))},
    "tiny": {"add": (5, 10), "ack": ((2, 1),)},
}

FRONTEND_PROGRAMS = {"full": 1000, "tiny": 20}

# `costpcf check all`, smaller than its defaults so that a pass is short.
# At the defaults a pass takes about 18 s: a run holds two, and load from
# elsewhere on a shared host changes within a pass, so neither best-of-N
# nor calibration (see run.py) could steady it.  At --cases 100 --fuel 5000
# a pass takes about 1.5 s, and most of it still goes to observing the
# divergent soundness programs.  "tiny" is for the benchmark's own tests.
BATTERY_ARGS = {
    "full": ["check", "all", "--seed", "1", "--cases", "100", "--fuel", "5000"],
    "tiny": ["check", "all", "--seed", "1", "--cases", "2", "--fuel", "2000"],
}

# Inputs past Python's recursion limit (ROADMAP item 2).  Run once per
# invocation, outside the timed loop, and reported by how many raise.
DEEP_PROBES = {
    "add 1000 4": ADD_SRC.format(m=1000, n=4),
    "step chain 2000": "(step 1 " * 2000 + "(ret triv)" + ")" * 2000,
}


@dataclass
class Item:
    seconds: float
    ok: bool
    note: str = ""
    digest: str = ""  # battery: sha256 of the captured stdout


def import_costpcf():
    """Import costpcf afresh (dropping any loaded copy) and return its modules."""
    for name in [n for n in sys.modules if n == "costpcf" or n.startswith("costpcf.")]:
        del sys.modules[name]
    importlib.import_module("costpcf.cli")
    mods = {n: sys.modules[f"costpcf.{n}"]
            for n in ("syntax", "typecheck", "machine", "denote", "cost", "harness", "cli")}
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# Reference answers, in plain Python and independent of costpcf

def ref_add(m, n):
    """(cost, value) of `add m n`: one charged step per unfolding on m."""
    return m, m + n


def ref_ackermann(m, n):
    """(cost, value) of Ackermann: A(m, n) and the calls with m > 0, each of
    which charges one step."""
    charged = 0
    pending = [m]
    while pending:
        m = pending.pop()
        if m == 0:
            n += 1
        elif n == 0:
            charged += 1
            pending.append(m - 1)
            n = 1
        else:
            charged += 1
            pending.append(m - 1)
            pending.append(m)
            n -= 1
    return charged, n


# ---------------------------------------------------------------------------
# battery: the `check all` command, in-process

def battery_setup(pc, seed, size):
    # `check all` time varies about 2x with its --seed, so every run uses
    # the same command and the workload seed is not passed on.
    return {"args": BATTERY_ARGS[size]}


def battery_pass(pc, inputs):
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = pc.cli.main(list(inputs["args"]))
    except Exception as e:  # noqa: BLE001 - an exception is a failed item
        return [Item(time.perf_counter() - start, False, f"raised {type(e).__name__}: {e}")]
    seconds = time.perf_counter() - start
    out = buf.getvalue()
    digest = hashlib.sha256(out.encode()).hexdigest()
    return [Item(seconds, *_battery_verdict(pc, code, out), digest=digest)]


def _battery_verdict(pc, code, out):
    if code != 0:
        return False, f"exit code {code}"
    lines = out.splitlines()
    try:
        reports = [json.loads(line) for line in lines]
    except json.JSONDecodeError:
        return False, "a report line is not JSON"
    if [r.get("check") for r in reports] != list(pc.harness.SUITES):
        return False, f"report lines {[r.get('check') for r in reports]}"
    bad = [r["check"] for r in reports if r.get("failures") != []]
    if bad:
        return False, f"failures in {bad}"
    return True, ""


# ---------------------------------------------------------------------------
# scaled_eval: long terminating programs through both semantics

def scaled_setup(pc, seed, size):
    rng = random.Random(seed)
    items = []
    for m in SCALED[size]["add"]:
        n = rng.randint(0, 9)
        items.append((f"add {m} {n}", ADD_SRC.format(m=m, n=n), ref_add(m, n)))
    for m, n in SCALED[size]["ack"]:
        items.append((f"ack {m} {n}", ACK_SRC.format(m=m, n=n), ref_ackermann(m, n)))
    rng.shuffle(items)
    return {"items": items}


def scaled_pass(pc, inputs):
    sx, tc, mc, dn, cost = pc.syntax, pc.typecheck, pc.machine, pc.denote, pc.cost
    model = cost.DEFAULT_MODEL
    out = []
    for label, src, (want_cost, want_value) in inputs["items"]:
        start = time.perf_counter()
        try:
            t = sx.parse(src)
            judgment = tc.infer((), t)
            res = mc.run(t, FUEL, model)
            obs = dn.observe(dn.denote_closed(t, model).to_delay(), FUEL, model)
        except Exception as e:  # noqa: BLE001 - an exception is a failed item
            out.append(Item(time.perf_counter() - start, False, f"{label}: {type(e).__name__}"))
            continue
        seconds = time.perf_counter() - start
        note = _scaled_verdict(sx, dn, judgment, res, obs, want_cost, want_value)
        out.append(Item(seconds, not note, f"{label}: {note}" if note else ""))
    return out


def _scaled_verdict(sx, dn, judgment, res, obs, want_cost, want_value):
    if judgment.classification.type != sx.F(sx.NAT):
        return f"type {judgment.classification.type!r}"
    if res is None:
        return "machine ran out of fuel"
    total, terminal, _steps = res
    got = sx.as_numeral(terminal.arg) if isinstance(terminal, sx.Ret) else None
    if (total, got) != (want_cost, want_value):
        return f"machine gave ({total}, {got}), want ({want_cost}, {want_value})"
    if not isinstance(obs, dn.Defined):
        return "denotation exhausted"
    if (obs.cost, obs.value) != (want_cost, dn.VNum(want_value)):
        return f"denotation gave ({obs.cost}, {obs.value!r}), want ({want_cost}, {want_value})"
    return ""


# ---------------------------------------------------------------------------
# frontend: parse, typecheck and print round trips

def frontend_setup(pc, seed, size):
    sx, tc, h = pc.syntax, pc.typecheck, pc.harness
    targets = (sx.F(sx.UNIT), sx.F(sx.NAT), sx.F(sx.ANS))
    programs = h.gen_programs(seed, FRONTEND_PROGRAMS[size], targets, terminating_frac=0.7,
                              depth_range=(2, 5))
    for _name, t in h.load_corpus():
        try:
            target = tc.infer((), t).classification.type
        except tc.TypeCheckError as e:
            if not e.ambiguous:
                raise
            target = sx.F(sx.UNIT)  # e.g. (fix x x) checks at every type
        programs.append((t, target))
    items = [(sx.print_term(t), target) for t, target in programs]
    random.Random(seed).shuffle(items)
    return {"items": items}


def frontend_pass(pc, inputs):
    sx, tc = pc.syntax, pc.typecheck
    out = []
    for text, target in inputs["items"]:
        start = time.perf_counter()
        try:
            t = sx.parse(text)
            judgment = tc.check_program(t, target)
            printed = sx.print_term(t)
        except Exception as e:  # noqa: BLE001 - an exception is a failed item
            out.append(Item(time.perf_counter() - start, False, f"{text[:60]}: {type(e).__name__}"))
            continue
        seconds = time.perf_counter() - start
        if printed != text:
            out.append(Item(seconds, False, f"round trip changed {text[:60]}"))
        elif judgment.classification.type != target:
            out.append(Item(seconds, False, f"type of {text[:60]} is not {target!r}"))
        else:
            out.append(Item(seconds, True))
    return out


WORKLOADS = {
    "battery": (battery_setup, battery_pass),
    "scaled_eval": (scaled_setup, scaled_pass),
    "frontend": (frontend_setup, frontend_pass),
}


def deep_probe(pc):
    """Run each deep input through parse, infer, machine and denotation.

    Returns {label: "" when every stage answers, else "<stage>: <error>"}.
    """
    sx, tc, mc, dn, cost = pc.syntax, pc.typecheck, pc.machine, pc.denote, pc.cost
    model = cost.DEFAULT_MODEL
    out = {}
    for label, src in DEEP_PROBES.items():
        stage = "parse"
        try:
            t = sx.parse(src)
            stage = "typecheck"
            tc.infer((), t)
            stage = "machine"
            mc.run(t, FUEL, model)
            stage = "denote"
            dn.observe(dn.denote_closed(t, model).to_delay(), FUEL, model)
            out[label] = ""
        except Exception as e:  # noqa: BLE001 - what raised is the finding
            out[label] = f"{stage}: {type(e).__name__}"
    return out
