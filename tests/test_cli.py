"""Command line driver: commands, emitters, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from defuncc import kernel
from defuncc.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def separate_run(*argv: str, **env: str) -> tuple[int, str, str]:
    """The command in a process of its own, with `env` added to the environment."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "defuncc.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_check_prints_the_main_type(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "two_plus_two.cc"))
    assert code == 0
    assert out.strip() == "Nat"


def test_check_dependent_compose_type(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "compose_dependent.cc"))
    assert code == 0
    assert out.startswith("(A : Type 0) ->")


def test_eval_agrees_across_targets(capsys):
    code, cc_out, _ = run(capsys, "eval", str(CORPUS / "two_plus_two.cc"))
    assert code == 0
    code, dcc_out, _ = run(
        capsys, "eval", "--target", "dcc", str(CORPUS / "two_plus_two.cc")
    )
    assert code == 0
    assert cc_out.strip() == dcc_out.strip() == "4"


def test_defun_emits_parseable_text(capsys):
    code, out, _ = run(capsys, "defun", str(CORPUS / "compose_dependent.cc"))
    assert code == 0
    assert out.count("label l") == 6
    assert out.strip().endswith("l0{}")


def test_defun_emits_json(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "defun", "--emit", "json", "--out", str(target),
        str(CORPUS / "compose_simply_typed.cc"),
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert [e["name"] for e in data["labels"]] == ["l2", "l1", "l0"]


@pytest.mark.parametrize("emit", ["text", "json"])
def test_defun_stdout_is_the_out_file(capsys, tmp_path, emit):
    src = str(CORPUS / "compose_dependent.cc")
    target = tmp_path / "out"
    code, printed, _ = run(capsys, "defun", "--emit", emit, src)
    assert code == 0
    code, quiet, _ = run(capsys, "defun", "--emit", emit, "--out", str(target), src)
    assert code == 0 and quiet == ""
    assert printed == target.read_text()
    assert printed.endswith("\n") and not printed.endswith("\n\n")


def test_defun_output_round_trips_through_checkdcc_and_refun(capsys, tmp_path):
    target = tmp_path / "compose.dcc"
    code, _, _ = run(
        capsys, "defun", "--out", str(target),
        str(CORPUS / "compose_simply_typed.cc"),
    )
    assert code == 0
    code, out, _ = run(capsys, "checkdcc", str(target))
    assert code == 0
    assert "main: (B -> C) -> (A -> B) -> A -> C" in out
    code, out, _ = run(capsys, "refun", str(target))
    assert code == 0
    assert "fun (f : B -> C) =>" in out


def test_commands_back_to_back_in_one_process_match_separate_runs(capsys, tmp_path):
    """The parser is built once per process; a usage error in between and a
    failing command leave it as it was."""
    source, bad = str(CORPUS / "compose_dependent.cc"), str(CORPUS / "bad" / "illtyped.cc")
    dcc = tmp_path / "compose.dcc"
    commands = [
        ("defun", "--emit", "text", source), ("defun", "--emit", "json", source),
        ("checkdcc", str(dcc)), ("refun", str(dcc)), ("defun", bad),
    ]
    dcc.write_text(separate_run("defun", source)[1])
    separate = [separate_run(*argv) for argv in commands]
    assert [code for code, _, _ in separate] == [0, 0, 0, 0, 1]
    for _ in range(2):
        assert [run(capsys, *argv) for argv in commands] == separate
        with pytest.raises(SystemExit):
            main(["defun", "--emit", "yaml", source])
        assert "invalid choice: 'yaml'" in capsys.readouterr().err


def test_refun_of_a_long_lambda_chain_prints_the_source_back(capsys, tmp_path):
    """Each label's closure passes its telescope names on unchanged; refun
    must still rebuild the whole chain, here 120 lambdas deep."""
    n = 120
    source = tmp_path / "lambdas.cc"
    source.write_text("".join(f"fun (x{i} : Nat) => " for i in range(1, n + 1)) + f"add x1 x{n}\n")
    target = tmp_path / "lambdas.dcc"
    assert run(capsys, "defun", "--out", str(target), str(source))[0] == 0
    code, out, _ = run(capsys, "refun", str(target))
    assert code == 0
    assert out == source.read_text()


@pytest.mark.parametrize("x", "xyzuvw")
def test_lambda_chains_go_through_the_emit_pipeline_with_any_binder_letter(capsys, tmp_path, x):
    """The translate-emit pipeline on the lambda chains the benchmark writes,
    whose binder letter its seed draws from `xyzuvw`: `defun` as text and as
    JSON, then `checkdcc` and `refun` on the text, each exits 0, and `refun`
    prints the source back."""
    for n in (20, 60):
        text = "".join(f"fun ({x}{i} : Nat) => " for i in range(1, n + 1)) + f"add {x}1 {x}{n}\n"
        source, target = tmp_path / f"lambdas-{n}.cc", tmp_path / f"lambdas-{n}.dcc"
        source.write_text(text)
        code, emitted, _ = run(capsys, "defun", "--emit", "text", str(source))
        assert code == 0
        code, doc, _ = run(capsys, "defun", "--emit", "json", str(source))
        assert code == 0 and len(json.loads(doc)["labels"]) == n
        target.write_text(emitted)
        code, checked, _ = run(capsys, "checkdcc", str(target))
        assert code == 0 and checked.splitlines()[0] == "label context: ok"
        assert run(capsys, "refun", str(target)) == (0, text, "")


def test_checkdcc_of_a_lambda_chain_renames_no_binder(capsys, tmp_path, monkeypatch):
    """The emitted return types `Nat -> ... -> Nat` bind only the anonymous
    binder `_`, which the kernel never renames (it renamed 1,711 binders
    while checking the 60-lambda chain)."""
    source, target = tmp_path / "lambdas.cc", tmp_path / "lambdas.dcc"
    source.write_text("".join(f"fun (x{i} : Nat) => " for i in range(1, 61)) + "add x1 x60\n")
    assert run(capsys, "defun", "--out", str(target), str(source))[0] == 0
    renamed = []
    freshen = kernel.freshen_binder

    def spy(*args):
        renamed.append(args)
        return freshen(*args)

    monkeypatch.setattr(kernel, "freshen_binder", spy)
    code, out, _ = run(capsys, "checkdcc", str(target))
    assert code == 0 and out.splitlines()[0] == "label context: ok"
    assert renamed == []


def test_a_binder_made_free_by_a_closure_keeps_its_meaning(capsys, tmp_path):
    """Renaming a product's binder only when it is free in the codomain is
    unsound: here the source codomain does not mention `x`, but its
    translation does, through the closure of the label for `fun z`, which
    captures the axiom `x`.  The product must not keep its binder `x`."""
    path = tmp_path / "capture.cc"
    path.write_text(
        "axiom B : Type 0;\naxiom x : B;\naxiom P : B -> Type 0;\naxiom y : P x;\n"
        "axiom Q : P x -> Type 0;\n(x : Nat) -> Q ((fun (z : Nat) => y) 0)\n"
    )
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    results = [line for line in out.splitlines() if ": main: " in line]
    assert len(results) == 6 and all(": ok" in line for line in results)
    code, out, _ = run(capsys, "defun", str(path))
    assert code == 0 and out.splitlines()[-1] == "Nat -> Q (l0{B, P, x, y} 0)"


def test_verify_single_file(capsys):
    code, out, _ = run(capsys, "verify", str(CORPUS / "poly_id.cc"))
    assert code == 0
    assert "diagram: ok" in out


def test_ill_typed_source_exits_one(capsys):
    code, _, err = run(capsys, "check", str(CORPUS / "bad" / "illtyped.cc"))
    assert code == 1
    assert "error" in err


def test_parse_error_exits_two(capsys, tmp_path):
    broken = tmp_path / "broken.cc"
    broken.write_text("fun (x : ) => x\n")
    code, _, err = run(capsys, "check", str(broken))
    assert code == 2
    assert "parse error" in err


def test_missing_file_exits_two(capsys):
    code, _, _ = run(capsys, "check", str(CORPUS / "does_not_exist.cc"))
    assert code == 2


@pytest.mark.parametrize("command", ["check", "defun", "checkdcc", "eval", "refun", "verify"])
def test_non_utf8_file_exits_two(capsys, tmp_path, command):
    garbled = tmp_path / "garbled.cc"
    garbled.write_bytes(b"axiom A : Type 0;\n\xff\xfe\n")
    code, _, err = run(capsys, command, str(garbled))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "defun", "checkdcc", "eval", "refun"])
def test_directory_as_file_exits_two(capsys, tmp_path, command):
    code, _, err = run(capsys, command, str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_reads_utf8_under_the_c_locale(tmp_path):
    path = tmp_path / "accent.cc"
    path.write_text("-- café\nadd 2 2\n", encoding="utf-8")
    proc = separate_run("check", str(path), PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="C")
    assert proc == (0, "Nat\n", "")


def test_verify_directory_goes_on_past_bad_files(capsys, tmp_path):
    (tmp_path / "two_plus_two.cc").write_text((CORPUS / "two_plus_two.cc").read_text())
    (tmp_path / "garbled.cc").write_bytes(b"axiom A : Type 0;\n\xff\xfe\n")
    (tmp_path / "broken.cc").write_text("add 1 1\n)\n")
    code, out, _ = run(capsys, "verify", str(tmp_path))
    lines = out.splitlines()
    assert code == 2
    assert lines[0].startswith("broken.cc: parse error: 2:1: ")
    assert lines[1].startswith("garbled.cc: error: input is not UTF-8 text (")
    assert lines[2:] and all(line.startswith("two_plus_two.cc: ") for line in lines[2:])
    assert lines[-1].startswith("two_plus_two.cc: main: commuting-diagram: ok")


def test_verify_directory_with_a_failing_check_exits_three(capsys, tmp_path):
    (tmp_path / "unknown_label.dcc").write_text((CORPUS / "bad" / "unknown_label.dcc").read_text())
    (tmp_path / "two_plus_two.cc").write_text((CORPUS / "two_plus_two.cc").read_text())
    code, out, err = run(capsys, "verify", str(tmp_path))
    assert code == 3
    assert "verification failed" in err
    assert "unknown_label.dcc: main: FAIL (label l1 is not declared in the label context)" in out


def test_verify_directory_with_no_input_file_exits_two(capsys, tmp_path):
    """Verifying nothing is no pass: a mistyped or empty directory is an input error."""
    (tmp_path / "notes.txt").write_text("add 1 1\n")
    (tmp_path / "sub.cc").mkdir()
    err = f"error: no .cc or .dcc file in {tmp_path}\n"
    assert run(capsys, "verify", str(tmp_path)) == (2, "", err)


def test_verify_failure_exits_three(capsys):
    code, _, err = run(
        capsys, "verify", str(CORPUS / "bad" / "unknown_label.dcc")
    )
    assert code == 3
    assert "verification failed" in err


@pytest.mark.parametrize("suffix", [".cc", ".dcc"])
def test_duplicate_axiom_is_a_parse_error(capsys, tmp_path, suffix):
    dup = tmp_path / f"dup{suffix}"
    dup.write_text("axiom A : Type 0;\naxiom A : Type 0;\nA\n")
    command = "check" if suffix == ".cc" else "checkdcc"
    code, _, err = run(capsys, command, str(dup))
    assert code == 2
    assert "parse error: 2:7: duplicate axiom 'A'" in err


DEEP = "add 1 (" * 1200 + "0" + ")" * 1200 + "\n"
TOO_DEEP = "error: input nests too deeply to check (recursion limit reached)"


def test_verify_file_nested_too_deeply_exits_one(capsys, tmp_path):
    deep = tmp_path / "deep.cc"
    deep.write_text(DEEP)
    assert run(capsys, "verify", str(deep)) == (1, "", f"{TOO_DEEP}\n")


def test_verify_directory_goes_on_past_a_file_nested_too_deeply(capsys, tmp_path):
    (tmp_path / "deep.cc").write_text(DEEP)
    (tmp_path / "two_plus_two.cc").write_text((CORPUS / "two_plus_two.cc").read_text())
    code, out, err = run(capsys, "verify", str(tmp_path))
    lines = out.splitlines()
    assert (code, err) == (2, "")
    assert lines[0] == f"deep.cc: {TOO_DEEP}"
    assert lines[-1].startswith("two_plus_two.cc: main: commuting-diagram: ok")


def test_input_nested_too_deeply_exits_one(capsys, tmp_path):
    deep = tmp_path / "deep.cc"
    deep.write_text("add 1 (" * 1200 + "0" + ")" * 1200 + "\n")
    code, _, err = run(capsys, "check", str(deep))
    assert code == 1
    assert err.startswith("error: input nests too deeply")
    assert "Traceback" not in err


def test_check_nested_too_deeply_prints_one_line(capsys, tmp_path):
    deep = tmp_path / "deep.cc"
    deep.write_text(DEEP)
    assert run(capsys, "check", str(deep)) == (1, "", f"{TOO_DEEP}\n")


def deep_eta_source(n: int) -> str:
    """A definition whose type and body's type differ by one eta expansion
    under n `Nat` binders and the binder `h`."""
    return (
        "axiom P : (Nat -> Nat) -> Type 0;\n"
        "axiom q : (h : Nat -> Nat) -> P h;\n"
        f"def t : {'Nat -> ' * n}(h : Nat -> Nat) -> P (fun (y : Nat) => h y) :=\n"
        f"  {''.join(f'fun (x{i} : Nat) => ' for i in range(1, n + 1))}"
        "fun (h : Nat -> Nat) => q h;\n"
        "t\n"
    )


@pytest.mark.parametrize("n", [62, 300, 450])
def test_an_eta_difference_under_many_binders_checks(tmp_path, n):
    """Conversion has no depth cutoff: it once answered "not equal" past 64
    nested comparisons, and rejected this body from n=62 on."""
    path = tmp_path / "deep_eta.cc"
    path.write_text(deep_eta_source(n))
    code, out, err = separate_run("check", str(path))
    assert (code, err) == (0, "")
    assert out == "Nat -> " * n + "(h : Nat -> Nat) -> P h\n"


def test_an_eta_difference_under_too_many_binders_nests_too_deeply(tmp_path):
    path = tmp_path / "deep_eta.cc"
    path.write_text(deep_eta_source(600))
    assert separate_run("check", str(path)) == (1, "", f"{TOO_DEEP}\n")


DEFS = (
    "def f : Nat := 1;\n"
    "def g : Type 0 := 2;\n"
    "def k : Nat := add 1 Nat;\n"
    "def h : Nat := Nat;\n"
    "h\n"
)


@pytest.mark.parametrize("command", ["check", "defun", "eval"])
def test_commands_stop_at_the_first_failing_definition(capsys, tmp_path, command):
    path = tmp_path / "defs.cc"
    path.write_text(DEFS)
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == "error: def g: body has type Nat, annotation says Type 0\n"


def test_verify_reports_every_definition(capsys, tmp_path):
    path = tmp_path / "defs.cc"
    path.write_text(DEFS)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    assert [line for line in out.splitlines() if "annotation" in line] == [
        "defs.cc: def f: annotation: ok",
        "defs.cc: def g: annotation: FAIL (body has type Nat)",
        "defs.cc: def k: annotation: FAIL (type mismatch in right operand of add: "
        "expected Nat, got Type 0)",
        "defs.cc: def h: annotation: FAIL (body has type Type 0)",
    ]


def test_foreign_constructor_is_printed_as_a_term(capsys, tmp_path):
    path = tmp_path / "lam.dcc"
    path.write_text("label l0 {} (y : Nat) -> Nat := (fun (y : Nat) => y) y;\nl0{}\n")
    code, out, _ = run(capsys, "checkdcc", str(path))
    assert code == 1
    assert out == (
        "label context: FAIL (expected a type (a term of some universe): constructor "
        "not part of the target calculus: fun (y : Nat) => y)\n"
    )


@pytest.mark.parametrize("command", ["checkdcc", "eval", "refun"])
def test_foreign_constructor_in_the_main_term_is_named(capsys, tmp_path, command):
    path = tmp_path / "lam.dcc"
    path.write_text("fun (y : Nat) => y\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert "constructor not part of the target calculus: fun (y : Nat) => y" in out + err


@pytest.mark.parametrize(
    "text,message",
    [
        ("def f : Nat := 1;\ndef f : Nat := 2;\nf\n", "2:5: duplicate definition 'f'"),
        ("axiom f : Nat;\ndef f : Nat := 2;\nf\n", "2:5: definition 'f' reuses the name of an earlier axiom"),
        ("def f : Nat := 2;\naxiom f : Nat;\nf\n", "2:7: axiom 'f' reuses the name of an earlier definition"),
    ],
)
@pytest.mark.parametrize("suffix", [".cc", ".dcc"])
def test_repeated_declaration_is_a_parse_error(capsys, tmp_path, suffix, text, message):
    path = tmp_path / f"dup{suffix}"
    path.write_text(text)
    command = "eval" if suffix == ".cc" else "checkdcc"
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


def test_repeated_label_block_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "dup.dcc"
    path.write_text(
        "label l0 {} (y : Nat) -> Nat := y;\n"
        "label l1 {} (y : Nat) -> Nat := y;\n"
        "label l0 {} (y : Nat) -> Nat := y;\n"
        "l0{}\n"
    )
    code, _, err = run(capsys, "checkdcc", str(path))
    assert (code, err) == (2, "parse error: 3:7: duplicate label 'l0'\n")


BAD_DCC_ERRORS = {
    "closure_arity.dcc": "label l0 expects 1 closure argument(s), got 0",
    "closure_type.dcc": "closure argument 0 of l0: expected Nat, got Type 0",
    "telescope_scope.dcc": (
        "closure telescope of l0: type of 'x' mentions later or unbound names ['A']"
    ),
    "universe_mismatch.dcc": "type mismatch in body of l0: expected Type 0, got Type 1",
    "unknown_label.dcc": "label l1 is not declared in the label context",
}


@pytest.mark.parametrize("name", sorted(p.name for p in (CORPUS / "bad").glob("*.dcc")))
@pytest.mark.parametrize("command", ["eval", "refun"])
def test_ill_typed_label_file_exits_one(capsys, command, name):
    # telescope_scope.dcc and universe_mismatch.dcc are rejected only by the
    # label-context check, which both commands make before inference
    code, out, err = run(capsys, command, str(CORPUS / "bad" / name))
    assert (code, out, err) == (1, "", f"error: {BAD_DCC_ERRORS[name]}\n")


# `add` as an operand or an argument, and where its parse error points
ADD_ARGUMENTS = [
    ("add 2 add", "1:10"),
    ("add add 1 2", "1:12"),
    ("axiom n : Nat; add add 1 (add 1 n)", "1:35"),
]


@pytest.mark.parametrize("text,where", ADD_ARGUMENTS)
@pytest.mark.parametrize("suffix,command", [
    (".cc", "check"), (".cc", "defun"), (".cc", "eval"), (".cc", "verify"),
    (".dcc", "checkdcc"), (".dcc", "eval"), (".dcc", "refun"), (".dcc", "verify")])
def test_add_as_an_argument_is_a_parse_error(capsys, tmp_path, suffix, command, text, where):
    path = tmp_path / f"add{suffix}"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    message = f"parse error: {where}: 'add' cannot appear as an argument; parenthesize"
    assert (code, out, err) == (2, "", f"{message}\n")


# the commands run on every generated input, by the input's suffix
CLI_COMMANDS = {
    ".cc": [["check"], ["defun", "--emit", "text"], ["eval"], ["verify"]],
    ".dcc": [["checkdcc"], ["refun"], ["eval"]],
}


def test_no_input_makes_a_command_raise(capsys, tmp_path, mutants):
    """A property over generated inputs (Claessen & Hughes, "QuickCheck",
    ICFP 2000): every command on every fixed-seed mutant of a corpus or golden
    file exits 0, 1, 2 or 3, and none raises.  The `add` inputs come first:
    they once ended every command in a traceback."""
    cases = [(suffix, text) for text, _ in ADD_ARGUMENTS for suffix in CLI_COMMANDS]
    codes = set()
    for i, (suffix, text) in enumerate(cases + mutants(600, seed=7)):
        path = tmp_path / f"m{i}{suffix}"
        path.write_text(text)
        for command in CLI_COMMANDS[suffix]:
            argv = ["--budget", "20000", *command, str(path)]
            codes.add(main(argv))
            assert codes <= {0, 1, 2, 3}, (argv, text)
        capsys.readouterr()
    assert codes == {0, 1, 2, 3}  # the inputs reach every verdict


COMMANDS = [["check"], ["defun"], ["checkdcc"], ["eval"], ["refun"], ["verify"]]


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_a_budget_below_one_is_a_usage_error(capsys, command, budget):
    """No command runs on a budget that allows no step: argparse rejects it
    with exit 2 before the file is read, where it used to run and fail every
    check that needs a step (`verify` exited 3)."""
    with pytest.raises(SystemExit) as exc:
        main(["--budget", budget, *command, str(CORPUS / "twice.cc")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --budget: must be at least 1, not {budget}" in err


def test_a_budget_of_one_step_still_runs(capsys):
    code, out, _ = run(capsys, "--budget", "1", "check", str(CORPUS / "two_plus_two.cc"))
    assert (code, out) == (0, "Nat\n")


BIG = "9" * 5000  # past the 4,300 digits `int` and `str` convert by default


def test_a_budget_of_any_length_is_read_whole(capsys):
    code, out, _ = run(capsys, "--budget", BIG, "check", str(CORPUS / "two_plus_two.cc"))
    assert (code, out) == (0, "Nat\n")
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "0" * 5000, "check", str(CORPUS / "two_plus_two.cc")])
    assert exc.value.code == 2
    assert "argument --budget: must be at least 1, not 000" in capsys.readouterr().err


def test_numerals_levels_and_label_ids_of_any_length_go_through_every_command(
    capsys, tmp_path
):
    """A numeral, a `Type` level and a label id of 5,000 digits each parse
    and print exactly through every command that reads them."""
    nat, level, label = (tmp_path / name for name in ("nat.cc", "level.cc", "label.dcc"))
    nat.write_text(f"{BIG}\n")
    level.write_text(f"fun (A : Type {BIG}) => A\n")
    label.write_text(f"label l{BIG} {{}} (x : Nat) -> Nat := x;\nl{BIG}{{}}\n")
    expected = {
        ("check", nat): "Nat\n",
        ("eval", nat): f"{BIG}\n",
        ("eval", "--target", "dcc", nat): f"{BIG}\n",
        ("defun", nat): f"{BIG}\n",
        ("check", level): f"Type {BIG} -> Type {BIG}\n",
        ("eval", level): f"fun (A : Type {BIG}) => A\n",
        ("defun", level): f"label l0 {{}} (A : Type {BIG}) -> Type {BIG} := A;\nl0{{}}\n",
        ("checkdcc", label): "label context: ok\nmain: Nat -> Nat\n",
        ("eval", label): f"l{BIG}{{}}\n",
        ("refun", label): "fun (x : Nat) => x\n",
        ("verify", label): "label.dcc: label context: ok\nlabel.dcc: main: Nat -> Nat\n",
    }
    for argv, out in expected.items():
        assert run(capsys, *map(str, argv)) == (0, out, ""), argv
    code, out, _ = run(capsys, "defun", "--emit", "json", str(level))
    assert code == 0 and json.loads(out)["labels"][0]["ret"] == f"Type {BIG}"
    for path in (nat, level):
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and out.count(": ok") == 7, out  # the context and the six checks
    assert f"ground value {BIG}" in run(capsys, "verify", str(nat))[1]
    universe = tmp_path / "universe.cc"
    universe.write_text(f"Type {BIG}\n")
    assert run(capsys, "check", str(universe)) == (0, f"Type 1{'0' * 5000}\n", "")


def test_a_sum_of_any_length_prints_exactly(capsys, tmp_path):
    """Two 4,300-digit numerals add to a 4,301-digit sum, which `eval` and
    the ground-value detail of `verify` print whole, with no traceback."""
    path = tmp_path / "sum.cc"
    path.write_text(f"add {'9' * 4300} {'9' * 4300}\n")
    total = "1" + "9" * 4299 + "8"
    assert run(capsys, "eval", str(path)) == (0, f"{total}\n", "")
    assert run(capsys, "eval", "--target", "dcc", str(path)) == (0, f"{total}\n", "")
    code, out, err = separate_run("verify", str(path))
    assert (code, err) == (0, "")
    assert f"sum.cc: main: reduction-preservation: ok (ground value {total})\n" in out
