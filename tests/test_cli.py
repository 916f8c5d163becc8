"""Command-line interface: output shapes, exit codes, determinism.

Most tests drive `main(argv)` in-process and read captured stdout; a couple
run the CLI in a subprocess to cover the packaging wiring.
"""

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

import pytest

import costpcf.harness as hz
import costpcf.machine as mc
import costpcf.syntax as sx
from costpcf.cli import main
from costpcf.harness import CheckReport, Failure


def corpus_path(name):
    return str(resources.files("costpcf").joinpath("corpus", name))


@pytest.fixture
def pcf(tmp_path):
    def write(src, name="prog.pcf"):
        p = tmp_path / name
        p.write_text(src, encoding="utf-8")
        return str(p)
    return write


def run_main(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# typecheck

def test_typecheck_corpus_adder(capsys):
    rc, out, _ = run_main(capsys, "typecheck", corpus_path("add.pcf"))
    assert rc == 0
    assert out == '{"type":"F nat"}\n'


def test_typecheck_arrow_program(capsys):
    rc, out, _ = run_main(capsys, "typecheck", corpus_path("use_thunk.pcf"))
    assert rc == 0
    assert json.loads(out) == {"type": "(U (F unit)) -> F ans"}


def test_typecheck_ill_typed_file(capsys, pcf):
    rc, out, _ = run_main(capsys, "typecheck", pcf("(ap (ret zero) zero)"))
    assert rc == 1
    blob = json.loads(out)
    assert blob["error"] == "type"
    assert "msg" in blob and "at" in blob


def test_typecheck_empty_file_is_parse_error(capsys, pcf):
    rc, out, _ = run_main(capsys, "typecheck", pcf(""))
    assert rc == 1
    blob = json.loads(out)
    assert blob["error"] == "parse"
    assert {"msg", "line", "column"} <= set(blob)


def test_typecheck_parse_error_position(capsys, pcf):
    # End of input is reported just past the last character.
    for src, line, column in [("(ret zero", 1, 10),
                              ("(ret zero ; open", 1, 17),
                              ("(ret zero\n  ; open\n", 3, 1)]:
        rc, out, _ = run_main(capsys, "typecheck", pcf(src))
        assert rc == 1
        blob = json.loads(out)
        assert (blob["error"], blob["line"], blob["column"]) == ("parse", line, column), src


FILE_COMMANDS = ["typecheck", "step", "profile", "denote", "adequacy"]
USER_ERRORS = [
    ("(bind (ret zero) x", "parse"),
    ("(ap (ret zero) zero)", "type"),
    # typechecking recurses once per succ of the numeral
    ("(bind (ret 1200) x (ret triv))", "depth"),
]
# (argv, source or corpus program, error): every file command on each
# source above, then inputs that only one command fails on.
USER_ERROR_CASES = [([command], src, error)
                    for src, error in USER_ERRORS for command in FILE_COMMANDS] + [
    # by step 2000 the term is a bind spine 2000 deep, and printing recurses
    (["step", "--fuel", "2000", "--trace"], "grow_loop.pcf", "depth"),
    # a value is well typed, but the machine runs only computations
    (["step"], "3", "type"),
]


@pytest.mark.parametrize("argv, src, error", USER_ERROR_CASES,
                         ids=[f"{src}-{error}-{' '.join(argv)}"
                              for argv, src, error in USER_ERROR_CASES])
def test_file_commands_report_user_errors_as_one_json_line(capsys, pcf, argv, src, error):
    path = corpus_path(src) if src.endswith(".pcf") else pcf(src)
    rc, out, err = run_main(capsys, argv[0], path, *argv[1:])
    assert rc == 1
    assert err == ""
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == error


# ---------------------------------------------------------------------------
# profile / denote / step / adequacy

def test_profile_defined(capsys, pcf):
    rc, out, _ = run_main(capsys, "profile", pcf("(step 2 (ret triv))"))
    assert rc == 0
    assert out == '{"status":"defined","cost":2}\n'


# Counts up forever on ever new numerals, so no run can prove it repeats.
COUNTING_LOOP = "(ap (fix f (lam nat n (step 1 (ap f (succ n))))) zero)"


def test_profile_exhausted_at_default_fuel(capsys, pcf):
    rc, out, _ = run_main(capsys, "profile", pcf(COUNTING_LOOP))
    assert rc == 0
    assert out == '{"status":"exhausted","fuel":100000}\n'


def test_profile_reports_a_proved_divergence(capsys, pcf):
    rc, out, _ = run_main(capsys, "profile", pcf("(fix x x)"))
    assert rc == 0
    assert out == '{"status":"diverges","fuel":100000}\n'
    rc, out, _ = run_main(capsys, "profile", pcf("(fix x x)"), "--pretty")
    assert out == "diverges\n"


def test_profile_extensional_phase(capsys, pcf):
    rc, out, _ = run_main(
        capsys, "profile", pcf("(step 2 (ret triv))"), "--phase", "ext")
    assert rc == 0
    assert out == '{"status":"defined","cost":"*"}\n'


def test_profile_requires_unit_type(capsys, pcf):
    rc, out, _ = run_main(capsys, "profile", pcf("(ret zero)"))
    assert rc == 1
    assert json.loads(out)["error"] == "type"


def test_profile_vector_monoid(capsys, pcf):
    rc, out, _ = run_main(
        capsys, "profile", pcf("(step [1,2] (step [2,0] (ret triv)))"),
        "--monoid", "vec:2")
    assert rc == 0
    assert json.loads(out) == {"status": "defined", "cost": [3, 2]}


def test_denote_defined(capsys, pcf):
    rc, out, _ = run_main(capsys, "denote", pcf("(step 2 (ret triv))"))
    assert rc == 0
    assert json.loads(out) == {"status": "defined", "cost": 2, "value": "triv"}


def test_denote_ans_value(capsys, pcf):
    rc, out, _ = run_main(capsys, "denote", pcf("(step 2 (ret yes))"))
    assert rc == 0
    assert json.loads(out) == {"status": "defined", "cost": 2, "value": "yes"}


def test_denote_divergent_falls_back_to_unit_type(capsys, pcf):
    rc, out, _ = run_main(capsys, "denote", pcf("(fix x x)"), "--fuel", "50")
    assert rc == 0
    assert json.loads(out) == {"status": "diverges", "cost": None, "value": None}


def test_denote_rejects_function_programs(capsys, pcf):
    rc, out, _ = run_main(capsys, "denote", pcf("(lam nat x (ret x))"))
    assert rc == 1
    assert json.loads(out)["error"] == "type"


def test_step_summary_and_trace(capsys, pcf):
    path = pcf("(step 2 (step 3 (ret triv)))")
    rc, out, _ = run_main(capsys, "step", path)
    assert rc == 0
    assert json.loads(out) == {"status": "terminal", "steps": 2, "total": 5}

    rc, out, _ = run_main(capsys, "step", path, "--trace")
    blob = json.loads(out)
    assert blob["trace"] == [
        {"cost": 2, "term": "(step 3 (ret triv))"},
        {"cost": 3, "term": "(ret triv)"},
    ]


def test_step_truncation(capsys, pcf):
    rc, out, _ = run_main(capsys, "step", pcf("(fix x x)"), "--fuel", "4")
    assert rc == 0
    assert json.loads(out) == {"status": "truncated", "steps": 4, "total": 0}


def test_adequacy_command_agrees_on_corpus_program(capsys):
    rc, out, _ = run_main(capsys, "adequacy", corpus_path("countdown3.pcf"))
    assert rc == 0
    blob = json.loads(out)
    assert blob["agree"] is True
    assert blob["machine"] == {"status": "defined", "cost": 3}
    assert blob["denotation"] == {"status": "defined", "cost": 3}


def test_adequacy_command_on_divergent_program(capsys, pcf):
    rc, out, _ = run_main(capsys, "adequacy", pcf("(fix x x)"), "--fuel", "60")
    assert rc == 0
    assert json.loads(out) == {
        "agree": True,
        "machine": {"status": "diverges", "fuel": 60},
        "denotation": {"status": "diverges"},
    }


def test_adequacy_reports_the_runs_it_decided_on(capsys, pcf):
    """At fuel 2 the machine runs out on five binds but the denotation needs
    no Later; the 4x retry agrees, and the payload shows those runs."""
    src = ("(bind (ret triv) a (bind (ret triv) b (bind (ret triv) c "
           "(bind (ret triv) d (step 1 (ret triv))))))")
    rc, out, _ = run_main(capsys, "adequacy", pcf(src), "--fuel", "2", "--json")
    assert rc == 0
    assert json.loads(out) == {
        "agree": True,
        "machine": {"status": "defined", "cost": 1},
        "denotation": {"status": "defined", "cost": 1},
    }


# ---------------------------------------------------------------------------
# check

def test_check_laws_small_and_deterministic(capsys):
    rc1, out1, _ = run_main(capsys, "check", "laws", "--cases", "20", "--seed", "1")
    rc2, out2, _ = run_main(capsys, "check", "laws", "--cases", "20", "--seed", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2
    blob = json.loads(out1)
    assert blob == {"check": "laws", "cases": 20, "failures": []}


def test_check_emits_one_line_per_report(capsys):
    rc, out, _ = run_main(capsys, "check", "all", "--cases", "4",
                          "--seed", "3", "--fuel", "20000")
    assert rc == 0
    lines = out.strip().split("\n")
    assert [json.loads(l)["check"] for l in lines] == list(hz.SUITES)


def test_check_failure_exit_code(capsys, monkeypatch):
    bad = CheckReport("laws", 1, (Failure("c", ("(ret triv)",), "boom", 9),))
    monkeypatch.setattr("costpcf.cli.run_suite", lambda *a, **k: [bad])
    rc, out, _ = run_main(capsys, "check", "laws")
    assert rc == 2
    assert json.loads(out)["failures"][0]["detail"] == "boom"


def test_check_rejects_unknown_suite(capsys):
    rc, _, err = run_main(capsys, "check", "nonsense")
    assert rc == 1
    assert "nonsense" in err


def test_check_rejects_bad_cases(capsys):
    rc, _, err = run_main(capsys, "check", "laws", "--cases", "0")
    assert rc == 1


# ---------------------------------------------------------------------------
# Shared flags and error mapping

def test_missing_file_is_user_error(capsys):
    rc, _, err = run_main(capsys, "profile", "/nonexistent/x.pcf")
    assert rc == 1
    assert err


def test_fuel_validation(capsys, pcf):
    path = pcf("(ret triv)")
    rc, _, err = run_main(capsys, "profile", path, "--fuel", "0")
    assert rc == 1
    rc, _, err = run_main(capsys, "profile", path, "--fuel", "-3")
    assert rc == 1


def test_unknown_monoid(capsys, pcf):
    rc, _, err = run_main(capsys, "profile", pcf("(ret triv)"), "--monoid", "weird")
    assert rc == 1
    assert "weird" in err


def test_fuel_env_override(capsys, pcf, monkeypatch):
    path = pcf(COUNTING_LOOP)
    monkeypatch.setenv("COSTPCF_FUEL", "7")
    rc, out, _ = run_main(capsys, "profile", path)
    assert rc == 0
    assert json.loads(out) == {"status": "exhausted", "fuel": 7}
    # an explicit flag beats the environment
    rc, out, _ = run_main(capsys, "profile", path, "--fuel", "3")
    assert json.loads(out) == {"status": "exhausted", "fuel": 3}


def test_fuel_env_invalid(capsys, pcf, monkeypatch):
    monkeypatch.setenv("COSTPCF_FUEL", "lots")
    rc, _, err = run_main(capsys, "profile", pcf("(ret triv)"))
    assert rc == 1


def test_pretty_output_mode(capsys, pcf):
    rc, out, _ = run_main(capsys, "profile", pcf("(step 2 (ret triv))"), "--pretty")
    assert rc == 0
    assert "defined" in out and "2" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_internal_error_maps_to_exit_3(capsys, pcf, monkeypatch):
    def boom(*a, **k):
        raise mc.StuckError(sx.Ret(sx.ZERO))
    monkeypatch.setattr("costpcf.machine.trace", boom)
    rc, out, _ = run_main(capsys, "step", pcf("(ret triv)"))
    assert rc == 3
    assert json.loads(out)["error"] == "internal"


def test_no_arguments_shows_usage(capsys):
    rc, out, err = run_main(capsys)
    assert rc in (0, 1)  # click prints group help
    assert "Usage" in out or "Usage" in err or "Commands" in out


# ---------------------------------------------------------------------------
# Console script

def test_console_script_end_to_end(tmp_path):
    """The `[project.scripts]` target resolves and runs like the installed script.

    The wrapper an install generates does `sys.exit(<func>())` after importing
    the target; this runs exactly that in a fresh interpreter, so the test
    needs no install.
    """
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["costpcf"]
    module, func = target.split(":")
    p = tmp_path / "p.pcf"
    p.write_text("(step 2 (ret triv))", encoding="utf-8")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    r = subprocess.run([sys.executable, "-c", wrapper, "profile", str(p)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == '{"status":"defined","cost":2}\n'


def test_module_entry_point(tmp_path):
    p = tmp_path / "p.pcf"
    p.write_text("(ret triv)", encoding="utf-8")
    r = subprocess.run([sys.executable, "-m", "costpcf.cli", "typecheck", str(p)],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"type": "F unit"}
