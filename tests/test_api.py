"""The public surface: every export has a reader, and the README's Library
example runs as printed."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import defuncc

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _names_read(path: Path) -> set[str]:
    """The names a module loads, bare or as an attribute."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _program_readers() -> set[str]:
    files = [p for p in (ROOT / "src" / "defuncc").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "scripts").glob("*.py")
    return set().union(*map(_names_read, files))


READ = _program_readers()


@pytest.mark.parametrize("name", defuncc.__all__)
def test_every_export_has_a_reader(name):
    """An export nothing in the package, the scripts or the README reads is a
    public entry point the pipeline does not use."""
    assert name in READ or re.search(rf"\b{re.escape(name)}\b", README), name


def test_readme_library_example_prints_what_it_says():
    section = README[README.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    expected = [line.split("# ")[-1] for line in code.splitlines() if "print(" in line]
    assert out.getvalue().splitlines() == expected == ["A -> A", "l0{A}", "fun (x : A) => x"]
