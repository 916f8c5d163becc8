"""Command-line interface: output shapes, exit codes, determinism.

Most tests drive `main(argv)` in-process and read captured stdout; a couple
run the CLI in a subprocess to cover the packaging wiring.
"""

import hashlib
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

import costpcf.denote as dn
import costpcf.harness as hz
import costpcf.machine as mc
import costpcf.syntax as sx
from costpcf.cli import cli, main
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


@pytest.mark.parametrize("src, line, column", [
    ("(ret\r@)", 1, 6),                   # a lone carriage return is a blank
    ("(ret\r\n zero)\r\n)", 3, 1),        # CRLF ends a line
])
def test_typecheck_reads_a_file_as_parse_reads_its_text(capsys, tmp_path, src, line, column):
    path = tmp_path / "prog.pcf"
    path.write_bytes(src.encode("utf-8"))
    rc, out, _ = run_main(capsys, "typecheck", str(path))
    with pytest.raises(sx.ParseError) as info:
        sx.parse(src)
    e = info.value
    blob = json.loads(out)
    assert rc == 1
    assert (blob["msg"], blob["line"], blob["column"]) == (e.msg, e.line, e.column)
    assert (e.line, e.column) == (line, column)


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


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_a_numeral_past_the_int_digit_limit_is_a_parse_error(capsys, pcf, command):
    """`int` refuses a string of more than 4,300 digits; that is the user's
    error at the numeral, not an internal one."""
    rc, out, err = run_main(capsys, command, pcf("(ret " + "1" * 4301 + ")"))
    assert (rc, err) == (1, "")
    blob = json.loads(out)
    assert (blob["error"], blob["line"], blob["column"]) == ("parse", 1, 6)


def test_deep_step_chain_parses_and_the_type_checker_refuses_it(capsys, pcf):
    from test_syntax import DEEP_STEP_CHAIN

    sx.parse(DEEP_STEP_CHAIN)
    rc, out, err = run_main(capsys, "typecheck", pcf(DEEP_STEP_CHAIN))
    assert (rc, err, json.loads(out)["error"]) == (1, "", "depth")


def test_denote_answers_a_deep_step_chain(pcf):
    """Compiling a `step` chain and building its computation take one stack
    frame per `step`.  A fresh interpreter, so that pytest's own frames do
    not count against the recursion limit."""
    path = pcf("(step 1 " * 950 + "(ret triv)" + ")" * 950)
    r = subprocess.run([sys.executable, "-m", "costpcf.cli", "denote", path],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, '{"status":"defined","cost":950,"value":"triv"}\n')


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


def test_denote_of_a_thunk_shows_no_value(capsys, pcf):
    path = pcf("(ret (ret 3))")
    rc, out, _ = run_main(capsys, "denote", path)
    assert rc == 0
    assert out == '{"status":"defined","cost":0,"value":null}\n'
    rc, out, _ = run_main(capsys, "denote", path, "--pretty")
    assert rc == 0
    assert out == "defined, cost 0\n"


@pytest.mark.parametrize("command,src,line", [
    ("profile", "(step 2 (ret triv))", "defined, cost 2"),
    ("profile", "(fix x x)", "diverges"),
    ("profile", COUNTING_LOOP, "exhausted at fuel 40"),
    ("denote", "(step 2 (ret 4))", "defined, cost 2, value 4"),
    ("denote", "(fix x x)", "diverges"),
    ("denote", COUNTING_LOOP, "exhausted"),
])
def test_pretty_status_lines(capsys, pcf, command, src, line):
    rc, out, _ = run_main(capsys, command, pcf(src), "--fuel", "40", "--pretty")
    assert rc == 0
    assert out == line + "\n"


def test_denote_rejects_function_programs(capsys, pcf):
    rc, out, _ = run_main(capsys, "denote", pcf("(lam nat x (ret x))"))
    assert rc == 1
    assert json.loads(out)["error"] == "type"


# Open types, read at F (U (F unit)) and at nat -> F unit (`program_type`).
@pytest.mark.parametrize("command,src,rc,out", [
    ("step", "(ret (fix x x))", 0, '{"status":"terminal","steps":0,"total":0}'),
    ("denote", "(ret (fix x x))", 0, '{"status":"defined","cost":0,"value":null}'),
    ("step", "(fix f (lam nat n (ap f n)))", 0, '{"status":"terminal","steps":1,"total":0}'),
    ("denote", "(fix f (lam nat n (ap f n)))", 1,
     '{"error":"type","at":[],"msg":"denote requires a returner (F) program"}'),
])
def test_running_commands_read_an_open_type_at_its_default(capsys, pcf, command, src, rc, out):
    assert run_main(capsys, command, pcf(src))[:2] == (rc, out + "\n")


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


def test_step_trace_pretty_prints_one_line_per_transition(capsys, pcf):
    """The summary line, then `  <cost>  <term>` for each transition."""
    rc, out, _ = run_main(capsys, "step", pcf("(step 2 (step 3 (ret triv)))"),
                          "--trace", "--pretty")
    assert rc == 0
    assert out == ("terminal after 2 steps, total cost 5\n"
                   "  2  (step 3 (ret triv))\n"
                   "  3  (ret triv)\n")


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
    """Five binds and no fix: at fuel 2 both semantics settle, since each
    spends fuel only on fix unfoldings, and the payload shows those runs."""
    src = ("(bind (ret triv) a (bind (ret triv) b (bind (ret triv) c "
           "(bind (ret triv) d (step 1 (ret triv))))))")
    rc, out, _ = run_main(capsys, "adequacy", pcf(src), "--fuel", "2", "--json")
    assert rc == 0
    assert json.loads(out) == {
        "agree": True,
        "machine": {"status": "defined", "cost": 1},
        "denotation": {"status": "defined", "cost": 1},
    }


def test_adequacy_command_exits_2_on_a_planted_disagreement(capsys, pcf, monkeypatch):
    """A denotation that drops every charge disagrees with the machine."""
    monkeypatch.setattr(dn, "charge", lambda c, d, model: d)
    path = pcf("(step 2 (ret triv))")
    rc, out, _ = run_main(capsys, "adequacy", path)
    assert rc == 2
    assert json.loads(out) == {
        "agree": False,
        "machine": {"status": "defined", "cost": 2},
        "denotation": {"status": "defined", "cost": 0},
        "detail": "costs differ: 2 vs 0",
    }
    assert run_main(capsys, "adequacy", path, "--pretty")[:2] == (
        2, "DISAGREE: costs differ: 2 vs 0\n")


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


# The sha256 of what `check` prints at the battery's settings: the battery
# under each cost model, then each suite alone.  A suite alone prints what it
# prints inside `check all`: every suite's machine runs share a substitution
# memo that starts empty.
CHECK_PINS = [
    ("all", (), "e8a9d8ef287928aec59d8e19ba953dcc317f6affbfd11fe3903298a2a13184f4"),
    ("all", ("--phase", "ext"),
     "e8a9d8ef287928aec59d8e19ba953dcc317f6affbfd11fe3903298a2a13184f4"),
    ("all", ("--monoid", "vec:2"),
     "7487e247df6f47f6b3abcd3eb7d284a1c4c0fc96d58755c3cb5aa4314b5d1c52"),
    ("laws", (), "4a3033f39d9983430f4f82d84b9f4a2599c689183301ce2cd1b09d91854e31e3"),
    ("soundness", (), "dbee0a6d2b403ce45b6db5dee10ae49632e8513e50f3d4217133fdeeff3fdd00"),
    ("adequacy", (), "ce5c37663c63040b778b0a3db583410b9ba3b275399f3396f605842736399e03"),
    ("sequencing", (), "d7a68cae3e54ea871898af77c87ae25c6f82542887e3dc75b0b262ab656cb778"),
    ("noninterference", (),
     "1dedaa3e9600028b83e411fa14a671914e51b537c5b2e1a23b9204d263ac9971"),
]


@pytest.mark.parametrize("suite, flags, sha256", CHECK_PINS,
                         ids=[" ".join((suite, *flags)) for suite, flags, _ in CHECK_PINS])
def test_check_stdout_matches_its_pin(capsys, suite, flags, sha256):
    rc, out, _ = run_main(capsys, "check", suite, "--seed", "1", "--cases", "100",
                          "--fuel", "5000", *flags)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# The sha256 of what commands print over the whole corpus, in sorted file
# order: each command's stdout on each program, then a line
# `<command> <file> exit <code>`.  `denote` exits 1 on the 3 non-returners,
# `adequacy` on the 11 non-unit programs, and both report omega, grow_loop and
# ticking_loop as "diverges".  Under vec:2 most programs pin the parse error
# of their nat cost literals.  A node's cached closure takes the cost model
# as an argument, so no answer may depend on which model denoted it first.
CORPUS_PINS = [
    ("typecheck step denote adequacy",
     [("typecheck",), ("step", "--fuel", "2000"), ("denote", "--fuel", "2000"),
      ("adequacy", "--fuel", "2000")],
     "bafbdf36158110ed0dffdc1509cf027a7dab787af7601017a11cff16da1bf198"),
    ("denote vec:2", [("denote", "--fuel", "2000", "--monoid", "vec:2")],
     "6800a5ad510ed555a4ae294d5995351fb2aa02be6bef0b80b7fe1b4886702e07"),
    ("denote ext", [("denote", "--fuel", "2000", "--phase", "ext")],
     "22b80e754b60cfb9563ab4dd23a6c7eac5f84085b64b871ebe04f977f88015a9"),
    # Every transition of every corpus program, one (cost, term) line each.
    ("step trace", [("step", "--fuel", "200", "--trace")],
     "960130f48735ca0746776f1de74130e97c713171b83db9960ad10ab5a751c9d2"),
    ("profile", [("profile", "--fuel", "2000")],
     "5abaeca20e974e7a2838d3ce89c02d706fe1f36e7238f1584a8f50362f7f10b3"),
    # The --pretty line of each single-file command.
    ("pretty",
     [("typecheck", "--pretty"), ("step", "--fuel", "2000", "--pretty"),
      ("profile", "--fuel", "2000", "--pretty"), ("denote", "--fuel", "2000", "--pretty"),
      ("adequacy", "--fuel", "2000", "--pretty")],
     "aef50e0d0717ca407ac2c16d028885dca60694b5dd234e8bb0c33bbde05fd23a"),
]


@pytest.mark.parametrize("commands, sha256", [pin[1:] for pin in CORPUS_PINS],
                         ids=[pin[0] for pin in CORPUS_PINS])
def test_corpus_stdout_matches_its_pin(capsys, commands, sha256):
    out = []
    for name, _ in hz.load_corpus():
        for command, *flags in commands:
            rc = main([command, corpus_path(name), *flags])
            out.append(f"{capsys.readouterr().out}{command} {name} exit {rc}\n")
    assert hashlib.sha256("".join(out).encode()).hexdigest() == sha256


def test_malformed_sources_match_their_pinned_parse_errors(capsys, tmp_path):
    """The parse error of each of the first 23 malformed sources of
    tests/test_syntax.py through `typecheck`: every field of its JSON line,
    and its exit code."""
    from test_syntax import PARSE_ERRORS
    out = []
    for n, (src, monoid, *_) in enumerate(PARSE_ERRORS[:23], 1):
        path = tmp_path / f"bad_{n}.pcf"
        path.write_bytes(src.encode())
        flags = () if monoid == "nat" else ("--monoid", monoid)
        rc = main(["typecheck", str(path), *flags])
        out.append(f"{capsys.readouterr().out}typecheck bad_{n} exit {rc}\n")
    assert hashlib.sha256("".join(out).encode()).hexdigest() == (
        "21c2bd6382a6ff793e73033b6b7772f131ada577a19d61b9487f973a2f21f1c9")


def test_check_rejects_unknown_suite(capsys):
    rc, _, err = run_main(capsys, "check", "nonsense")
    assert rc == 1
    assert "nonsense" in err


def test_check_rejects_bad_cases(capsys):
    rc, _, err = run_main(capsys, "check", "laws", "--cases", "0")
    assert rc == 1


# ---------------------------------------------------------------------------
# Shared flags and error mapping

UNREADABLE_CASES = [(kind, command) for kind in ("missing", "not-utf8")
                    for command in FILE_COMMANDS]


@pytest.mark.parametrize("kind, command", UNREADABLE_CASES,
                         ids=[f"{kind}-{command}" for kind, command in UNREADABLE_CASES])
def test_unreadable_file_is_user_error(capsys, tmp_path, kind, command):
    path = tmp_path / "x.pcf"
    if kind == "not-utf8":
        path.write_bytes(b"(ret \xff)")
    rc, out, err = run_main(capsys, command, str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


def test_fuel_validation(capsys, pcf):
    path = pcf("(ret triv)")
    rc, _, err = run_main(capsys, "profile", path, "--fuel", "0")
    assert rc == 1
    rc, _, err = run_main(capsys, "profile", path, "--fuel", "-3")
    assert rc == 1


def test_front_door_errors_come_in_order_fuel_monoid_parse(capsys, pcf):
    """A running command checks --fuel, then --monoid, then parses PATH."""
    path = pcf("(bind (ret zero) x")
    rc, out, err = run_main(capsys, "profile", path, "--fuel", "0", "--monoid", "weird")
    assert (rc, out, err) == (1, "", "error: fuel must be >= 1\n")
    rc, out, err = run_main(capsys, "profile", path, "--monoid", "weird")
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "weird" in err
    rc, out, err = run_main(capsys, "profile", path)
    assert (rc, err) == (1, "")
    assert json.loads(out)["error"] == "parse"


# Each integer option, with the rest of a command line that takes it.  The
# seed and case count are read before any case runs.
INTEGER_OPTIONS = [("--fuel", ("profile", "PATH")), ("--seed", ("check", "laws")),
                   ("--cases", ("check", "laws"))]
# Integers that click's `int` reads but that are not ASCII digits with an
# optional leading '-', the rule of numerals, costs and vec:<k>.
NOT_ASCII_INTEGERS = ("٣", "３", "1_0", "+3", " 3")


@pytest.mark.parametrize("option, command", INTEGER_OPTIONS, ids=[o for o, _ in INTEGER_OPTIONS])
@pytest.mark.parametrize("value", NOT_ASCII_INTEGERS)
def test_integer_options_read_ascii_digits_only(capsys, pcf, option, command, value):
    argv = [pcf("(ret triv)") if a == "PATH" else a for a in command]
    rc, out, err = run_main(capsys, *argv, option, value)
    assert (rc, out) == (1, "")
    assert err == f"error: Invalid value for '{option}': {value!r} is not a valid integer.\n"


def test_a_negative_integer_option_reaches_its_range_check(capsys, pcf):
    rc, _, err = run_main(capsys, "profile", pcf("(ret triv)"), "--fuel", "-3")
    assert (rc, err) == (1, "error: fuel must be >= 1\n")
    rc, _, err = run_main(capsys, "check", "laws", "--cases", "-2")
    assert (rc, err) == (1, "error: cases must be >= 1\n")


def test_unknown_monoid(capsys, pcf):
    rc, _, err = run_main(capsys, "profile", pcf("(ret triv)"), "--monoid", "weird")
    assert rc == 1
    assert "weird" in err


def test_fuel_flag_sets_the_budget(capsys, pcf):
    rc, out, _ = run_main(capsys, "profile", pcf(COUNTING_LOOP), "--fuel", "3")
    assert rc == 0
    assert json.loads(out) == {"status": "exhausted", "fuel": 3}


# The options that several commands take, by parameter name.
SHARED_OPTIONS = ("fuel", "monoid", "phase", "as_json")


def test_shared_options_are_declared_once():
    """Every command that takes a shared option takes the same one: the same
    flags, default, type and help."""
    takers = {name: [] for name in SHARED_OPTIONS}
    for command in cli.commands.values():
        for p in command.params:
            if p.name in takers:
                takers[p.name].append(
                    (p.opts, p.secondary_opts, p.default, p.type.to_info_dict(), p.help))
    for name, declared in takers.items():
        assert len(declared) >= 2, name
        assert all(d == declared[0] for d in declared), name
        assert declared[0][-1], f"--{name} has no help text"


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
