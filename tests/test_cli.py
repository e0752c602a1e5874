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
