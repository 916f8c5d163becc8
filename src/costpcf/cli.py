"""Command-line front end.

Exit codes: 0 success, 1 user error (bad flags, unreadable/ill-typed input,
input nested too deep for the Python stack), 2 check/adequacy failure,
3 internal error.  All machine-facing output is
single-line compact JSON so repeated runs are byte-comparable; --pretty
switches the single-file commands to a short human-readable line.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import denote as dn
from . import machine as mc
from . import syntax as sx
from .cost import CostModel, Phase, get_monoid
from .harness import SUITES, adequacy_verdict, run_suite
from .outcome import Defined
from .typecheck import Computation, TypeCheckError, check_program, infer, show_type

DEFAULT_FUEL = 100_000


def _emit(obj):
    click.echo(json.dumps(obj, separators=(",", ":")))


def _resolve_fuel(fuel):
    if fuel is None:
        env = os.environ.get("COSTPCF_FUEL", "").strip()
        if env:
            try:
                fuel = int(env)
            except ValueError:
                raise click.UsageError(f"COSTPCF_FUEL={env!r} is not an integer")
        else:
            fuel = DEFAULT_FUEL
    if fuel < 1:
        raise click.UsageError("fuel must be >= 1")
    return fuel


def _resolve_model(monoid, phase):
    try:
        m = get_monoid(monoid)
    except ValueError as e:
        raise click.UsageError(str(e))
    return CostModel(m, Phase.INTENSIONAL if phase == "int" else Phase.EXTENSIONAL)


def _load(path, model):
    with open(path, encoding="utf-8") as fh:
        src = fh.read()
    return sx.parse(src, model.monoid)


def _parse_error_json(e: sx.ParseError):
    out = {"error": "parse", "msg": e.msg, "line": e.line, "column": e.column}
    if e.expected:
        out["expected"] = e.expected
    return out


_common_options = (
    click.option("--fuel", type=int, default=None,
                 help=f"Transition/observation budget (default {DEFAULT_FUEL}, or COSTPCF_FUEL)."),
    click.option("--monoid", default="nat", show_default=True,
                 help="Cost monoid: nat or vec:<k>."),
    click.option("--phase", type=click.Choice(("int", "ext")), default="int",
                 show_default=True, help="Intensional (costs visible) or extensional (sealed)."),
    click.option("--json/--pretty", "as_json", default=True,
                 help="Compact JSON (default) or a human-readable line."),
)


def _with_common(fn):
    for opt in reversed(_common_options):
        fn = opt(fn)
    return fn


@click.group()
def cli():
    """Typecheck, run, interpret, and validate cost-annotated programs."""


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--monoid", default="nat", show_default=True,
              help="Cost monoid: nat or vec:<k>.")
@click.option("--json/--pretty", "as_json", default=True)
def typecheck(path, monoid, as_json):
    """Print the inferred type of the program in PATH."""
    model = _resolve_model(monoid, "int")
    judgment = infer((), _load(path, model), monoid=model.monoid)
    shown = show_type(judgment.classification.type)
    if as_json:
        _emit({"type": shown})
    else:
        click.echo(shown)
    return 0


def _well_typed_for_run(t, model):
    """Well-typedness gate for machine commands: t must be a computation.
    Ambiguity is not an error (the term is typeable, just not uniquely)."""
    try:
        judgment = infer((), t, monoid=model.monoid)
    except TypeCheckError as e:
        if not e.ambiguous:
            raise
        return t
    if not isinstance(judgment.classification, Computation):
        raise TypeCheckError("the machine runs computations, not values")
    return t


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", "with_trace", is_flag=True, default=False,
              help="Include the per-step (cost, term) list.")
@_with_common
def step(path, with_trace, fuel, monoid, phase, as_json):
    """Run the abstract machine on PATH and summarize the trace."""
    fuel = _resolve_fuel(fuel)
    model = _resolve_model(monoid, phase)
    t = _well_typed_for_run(_load(path, model), model)
    tr = mc.trace(t, fuel, model, terms=with_trace)
    status = "truncated" if tr.truncated else "terminal"
    payload = {"status": status, "steps": len(tr.steps), "total": model.to_json(tr.total)}
    if with_trace:
        payload["trace"] = [
            {"cost": model.to_json(c), "term": sx.print_term(s)} for c, s in tr.steps
        ]
    if as_json:
        _emit(payload)
    else:
        click.echo(f"{status} after {len(tr.steps)} steps, total cost {model.show(tr.total)}")
        if with_trace:
            for c, s in tr.steps:
                click.echo(f"  {model.show(c)}  {sx.print_term(s)}")
    return 0


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_with_common
def profile(path, fuel, monoid, phase, as_json):
    """Total cost of running PATH (a unit-returner) to completion."""
    fuel = _resolve_fuel(fuel)
    model = _resolve_model(monoid, phase)
    t = _load(path, model)
    check_program(t, sx.F(sx.UNIT), monoid=model.monoid)
    res = mc.profile(t, fuel, model)
    if res is mc.MISMATCH:
        _emit({"error": "internal", "msg": "profile reached a non-unit terminal"})
        return 3
    if isinstance(res, Defined):
        if as_json:
            _emit({"status": "defined", "cost": model.to_json(res.cost)})
        else:
            click.echo(f"defined, cost {model.show(res.cost)}")
    elif as_json:
        _emit({"status": "exhausted", "fuel": fuel})
    else:
        click.echo(f"exhausted at fuel {fuel}")
    return 0


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_with_common
def denote(path, fuel, monoid, phase, as_json):
    """Observe the denotation of PATH (a returner) at the given fuel."""
    fuel = _resolve_fuel(fuel)
    model = _resolve_model(monoid, phase)
    t = _load(path, model)
    try:
        judgment = infer((), t, monoid=model.monoid)
    except TypeCheckError as e:
        if not e.ambiguous:
            raise
        # Typeable at every computation type (e.g. (fix x x)): observe at
        # the canonical observation type F unit.
        judgment = infer((), t, expected=sx.F(sx.UNIT), monoid=model.monoid)
    ct = judgment.classification.type
    if not isinstance(ct, sx.F):
        _emit({"error": "type", "at": [], "msg": "denote requires a returner (F) program"})
        return 1
    obs = dn.observe(dn.denote_closed(t, model).to_delay(), fuel, model)
    if isinstance(obs, Defined):
        payload = {"status": "defined", "cost": model.to_json(obs.cost),
                   "value": dn.ground_json(obs.value)}
    else:
        payload = {"status": "exhausted", "cost": None, "value": None}
    if as_json:
        _emit(payload)
    else:
        if payload["status"] == "defined":
            click.echo(f"defined, cost {model.show(obs.cost)}, value {payload['value']}")
        else:
            click.echo("exhausted")
    return 0


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_with_common
def adequacy(path, fuel, monoid, phase, as_json):
    """Check that machine profile and denotation agree on PATH."""
    fuel = _resolve_fuel(fuel)
    model = _resolve_model(monoid, phase)
    t = _load(path, model)
    check_program(t, sx.F(sx.UNIT), monoid=model.monoid)
    verdict, m, d, fuel = adequacy_verdict(t, fuel, model)
    machine_part = ({"status": "defined", "cost": model.to_json(m.cost)}
                    if isinstance(m, Defined)
                    else {"status": "exhausted", "fuel": fuel})
    denote_part = ({"status": "defined", "cost": model.to_json(d.cost)}
                   if isinstance(d, Defined)
                   else {"status": "exhausted"})
    agree = verdict is None
    payload = {"agree": agree, "machine": machine_part, "denotation": denote_part}
    if not agree:
        payload["detail"] = verdict
    if as_json:
        _emit(payload)
    else:
        click.echo("agree" if agree else f"DISAGREE: {verdict}")
    return 0 if agree else 2


@cli.command()
@click.argument("suite", type=click.Choice(SUITES + ("all",)))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cases", type=int, default=None,
              help="Cases per suite (suite-specific default when omitted).")
@click.option("--fuel", type=int, default=None)
@click.option("--monoid", default="nat", show_default=True)
@click.option("--phase", type=click.Choice(("int", "ext")), default="int", show_default=True)
def check(suite, seed, cases, fuel, monoid, phase):
    """Run a validation suite; one JSON report line per check."""
    fuel = _resolve_fuel(fuel)
    model = _resolve_model(monoid, phase)
    if cases is not None and cases < 1:
        raise click.UsageError("cases must be >= 1")
    reports = run_suite(suite, seed, fuel, model, cases)
    ok = True
    for rep in reports:
        _emit(rep.to_json())
        ok = ok and rep.ok
    return 0 if ok else 2


def main(argv=None) -> int:
    try:
        rv = cli.main(args=argv, prog_name="costpcf", standalone_mode=False)
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.ClickException as e:
        click.echo(f"error: {e.format_message()}", err=True)
        return 1
    except click.exceptions.Abort:
        return 1
    except sx.ParseError as e:
        _emit(_parse_error_json(e))
        return 1
    except TypeCheckError as e:
        _emit(e.to_json())
        return 1
    except RecursionError as e:
        _emit({"error": "depth", "msg": str(e)})
        return 1
    except mc.StuckError as e:
        _emit({"error": "internal", "msg": f"machine stuck at {sx.print_term(e.term)}"})
        return 3
    except Exception as e:  # noqa: BLE001 - last-resort internal error mapping
        click.echo(f"internal error: {e}", err=True)
        return 3
    return int(rv) if rv is not None else 0


if __name__ == "__main__":
    sys.exit(main())
