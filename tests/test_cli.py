"""Command line driver: commands, emitters, and exit codes."""

import json
from pathlib import Path

import pytest

from defuncc.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_input_nested_too_deeply_exits_one(capsys, tmp_path):
    deep = tmp_path / "deep.cc"
    deep.write_text("add 1 (" * 1200 + "0" + ")" * 1200 + "\n")
    code, _, err = run(capsys, "check", str(deep))
    assert code == 1
    assert err.startswith("error: input nests too deeply")
    assert "Traceback" not in err


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
