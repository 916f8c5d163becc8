"""Command-line front end.

Exit codes: 0 success, 1 user error (bad flags, unreadable, non-UTF-8 or
ill-typed input, input nested too deep for the Python stack), 2 check/adequacy
failure, 3 internal error.  All machine-facing output is single-line compact
JSON so repeated runs are byte-comparable; --pretty switches the single-file
commands to a short human-readable line.

`profile`, `denote` and `adequacy` report each outcome by its status:
"defined", "diverges" when the run is proved to repeat forever, or
"exhausted" when the fuel runs out first with no such proof.
"""

from __future__ import annotations

import json
import sys

import click

from . import denote as dn
from . import machine as mc
from . import syntax as sx
from .cost import CostModel, Phase, get_monoid
from .harness import SUITES, adequacy_verdict, run_suite
from .outcome import DIVERGES, Defined
from .typecheck import TypeCheckError, check_program, infer, program_type, show_type

DEFAULT_FUEL = 100_000


def _emit(obj):
    click.echo(json.dumps(obj, separators=(",", ":")))


def _resolve_fuel(fuel):
    if fuel < 1:
        raise click.UsageError("fuel must be >= 1")
    return fuel


def _resolve_model(monoid, phase):
    try:
        m = get_monoid(monoid)
    except ValueError as e:
        raise click.UsageError(str(e))
    return CostModel(m, Phase(phase))


def _load(path, model):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            src = fh.read()
    except UnicodeDecodeError as e:
        raise click.FileError(path, hint=f"not UTF-8 ({e.reason} at byte {e.start})")
    return sx.parse(src, model.monoid)


def _load_run(path, fuel, monoid, phase):
    """A running command's program in PATH, its fuel and its cost model."""
    fuel = _resolve_fuel(fuel)
    model = _resolve_model(monoid, phase)
    return _load(path, model), fuel, model


def _status(outcome, model, **unsettled):
    """The {"status": ...} payload of an outcome: "defined" with its cost, or
    "diverges"/"exhausted" with the command's own `unsettled` keys."""
    if isinstance(outcome, Defined):
        return {"status": "defined", "cost": model.to_json(outcome.cost)}
    return {"status": "diverges" if outcome is DIVERGES else "exhausted", **unsettled}


class _Integer(click.ParamType):
    """An integer written in ASCII digits, with an optional leading '-'.

    The rule of numerals, costs and `vec:<k>`: click's `int` would also read
    '٣', '３', '1_0', '+3' and ' 3'.  A range check is the command's.
    """

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):  # a default
            return value
        digits = value[1:] if value.startswith("-") else value
        if digits.isascii() and digits.isdecimal():
            try:
                return int(value)
            except ValueError:  # past the interpreter's digit limit
                pass
        self.fail(f"{value!r} is not a valid integer.", param, ctx)


_INTEGER = _Integer()


# Each option some commands share, declared once; a command stacks the ones
# it takes.
_fuel_option = click.option(
    "--fuel", type=_INTEGER, default=DEFAULT_FUEL, show_default=True,
    help="Transition/observation budget.")
_monoid_option = click.option(
    "--monoid", default="nat", show_default=True, help="Cost monoid: nat or vec:<k>.")
_phase_option = click.option(
    "--phase", type=click.Choice([p.value for p in Phase]), default=Phase.INTENSIONAL.value,
    show_default=True, help="Intensional (costs visible) or extensional (sealed).")
_json_option = click.option(
    "--json/--pretty", "as_json", default=True,
    help="Compact JSON (default) or a human-readable line.")


@click.group()
def cli():
    """Typecheck, run, interpret, and validate cost-annotated programs."""


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_monoid_option
@_json_option
def typecheck(path, monoid, as_json):
    """Print the inferred type of the program in PATH."""
    model = _resolve_model(monoid, Phase.INTENSIONAL.value)
    judgment = infer((), _load(path, model), monoid=model.monoid)
    shown = show_type(judgment.classification.type)
    if as_json:
        _emit({"type": shown})
    else:
        click.echo(shown)
    return 0


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", "with_trace", is_flag=True, default=False,
              help="Include the per-step (cost, term) list.")
@_fuel_option
@_monoid_option
@_phase_option
@_json_option
def step(path, with_trace, fuel, monoid, phase, as_json):
    """Run the abstract machine on PATH and summarize the trace."""
    t, fuel, model = _load_run(path, fuel, monoid, phase)
    if not isinstance(program_type(t, model.monoid), (sx.F, sx.Arrow)):
        raise TypeCheckError("the machine runs computations, not values")
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
@_fuel_option
@_monoid_option
@_phase_option
@_json_option
def profile(path, fuel, monoid, phase, as_json):
    """Total cost of running PATH (a unit-returner) to completion."""
    t, fuel, model = _load_run(path, fuel, monoid, phase)
    check_program(t, sx.F(sx.UNIT), monoid=model.monoid)
    res = mc.settle(t, fuel, model)[0]
    if as_json:
        _emit(_status(res, model, fuel=fuel))
    elif isinstance(res, Defined):
        click.echo(f"defined, cost {model.show(res.cost)}")
    else:
        click.echo("diverges" if res is DIVERGES else f"exhausted at fuel {fuel}")
    return 0


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_fuel_option
@_monoid_option
@_phase_option
@_json_option
def denote(path, fuel, monoid, phase, as_json):
    """Observe the denotation of PATH (a returner) at the given fuel."""
    t, fuel, model = _load_run(path, fuel, monoid, phase)
    if not isinstance(program_type(t, model.monoid), sx.F):
        raise TypeCheckError("denote requires a returner (F) program")
    obs = dn.observe(dn.denote_closed(t, model).to_delay(), fuel, model)
    payload = _status(obs, model, cost=None, value=None)
    if isinstance(obs, Defined):
        payload["value"] = dn.ground_json(obs.value)
    if as_json:
        _emit(payload)
    elif not isinstance(obs, Defined):
        click.echo(payload["status"])
    else:
        # A thunk has no ground value to show.
        value = "" if payload["value"] is None else f", value {payload['value']}"
        click.echo(f"defined, cost {model.show(obs.cost)}{value}")
    return 0


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_fuel_option
@_monoid_option
@_phase_option
@_json_option
def adequacy(path, fuel, monoid, phase, as_json):
    """Check that machine profile and denotation agree on PATH."""
    t, fuel, model = _load_run(path, fuel, monoid, phase)
    check_program(t, sx.F(sx.UNIT), monoid=model.monoid)
    verdict, m, d, fuel = adequacy_verdict(t, fuel, model)
    agree = verdict is None
    payload = {"agree": agree, "machine": _status(m, model, fuel=fuel),
               "denotation": _status(d, model)}
    if not agree:
        payload["detail"] = verdict
    if as_json:
        _emit(payload)
    else:
        click.echo("agree" if agree else f"DISAGREE: {verdict}")
    return 0 if agree else 2


@cli.command()
@click.argument("suite", type=click.Choice(SUITES + ("all",)))
@click.option("--seed", type=_INTEGER, default=0, show_default=True)
@click.option("--cases", type=_INTEGER, default=None,
              help="Cases per suite (suite-specific default when omitted).")
@_fuel_option
@_monoid_option
@_phase_option
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
    except (sx.ParseError, TypeCheckError) as e:
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
