"""The names the benchmark's tracer wraps still exist in the program.

`perfbench/tracing.py` replaces names in defuncc's modules at run time, and
`perfbench/workloads.py` calls a few entry points directly.  A refactor that
renames or drops one of them would otherwise only show up in a minutes-long
traced benchmark run.  These tests read both files as text (nothing under
`perfbench/` is imported or written) and look each name up in defuncc.
"""

import ast
import importlib
from pathlib import Path

import pytest

from defuncc.harness import ALL_CHECKS
from defuncc.syntax import Ctx, Universe

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "defuncc"


def _constants(path: Path) -> dict[str, object]:
    """The literal module-level assignments of a file."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    out[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return out


def _program_homes(path: Path) -> dict[str, tuple[str, str]]:
    """`workloads.Program`'s attributes: attribute -> (defuncc module, name),
    from assignments such as `self.x = mods["cc"].y` or `h = mods["harness"]`."""
    tree = ast.parse(path.read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Program")
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")

    def module_of(expr) -> str | None:
        if isinstance(expr, ast.Subscript) and isinstance(expr.slice, ast.Constant):
            return expr.slice.value
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        return None

    aliases: dict[str, str] = {}
    homes: dict[str, tuple[str, str]] = {}
    for stmt in init.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target, value = stmt.targets[0], stmt.value
        if isinstance(target, ast.Name) and module_of(value) is not None:
            aliases[target.id] = module_of(value)
        elif isinstance(target, ast.Attribute) and isinstance(value, ast.Attribute):
            module = module_of(value.value)
            if module is not None:
                homes[target.attr] = (module, value.attr)
    return homes


TRACING = _constants(PERFBENCH / "tracing.py")


def _module(name: str):
    return importlib.import_module(f"defuncc.{name}")


@pytest.mark.parametrize("caller", list(TRACING["CALL_SITES"]))
def test_call_site_names_exist(caller):
    module = _module(caller)
    missing = [n for n in TRACING["CALL_SITES"][caller] if not callable(getattr(module, n, None))]
    assert missing == [], f"defuncc.{caller} lacks {missing}"


def test_program_calls_exist():
    homes = _program_homes(PERFBENCH / "workloads.py")
    for attr in TRACING["PROGRAM_CALLS"]:
        assert attr in homes, f"workloads.Program has no attribute {attr}"
        module, name = homes[attr]
        assert callable(getattr(_module(module), name, None)), f"defuncc.{module}.{name}"


@pytest.mark.parametrize("caller", ["harness", "sigma"])
def test_translation_methods_exist(caller):
    translation = _module(caller).Translation
    for method in TRACING["TRANSLATION_METHODS"]:
        assert callable(getattr(translation, method, None)), f"Translation.{method}"


def test_check_names_follow_all_checks():
    names = tuple(check(Ctx(), Universe(0)).name for check in ALL_CHECKS)
    assert names == TRACING["CHECK_NAMES"]


def _unused_imports(path: Path) -> set[str]:
    """The names a module imports (from `__future__` aside) and never reads."""
    tree = ast.parse(path.read_text())
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_unused_imports_are_only_the_tracers_hooks(path):
    """An import a module never reads stays only as a name the tracer replaces
    in that module; any other one was stranded by a deletion."""
    module = path.stem
    hooks = set(TRACING["CALL_SITES"].get(module, ()))
    if module in ("harness", "sigma"):
        hooks.add("Translation")
    assert _unused_imports(path) <= hooks, f"defuncc.{module}"
