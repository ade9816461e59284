"""Every module of the package uses each name it imports, every name that
``__init__`` re-exports has a caller outside the tests, and the number of
settable values is pinned."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "conehj"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) \
    + sorted((ROOT / "bench").glob("*.py"))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detector_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .cones import lift_lj, project_pj\n" \
             "np.zeros(project_pj)\n"
    assert _unused_imports(source) == ["lift_lj", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def _unreferenced_exports(init_source: str, caller_sources) -> list:
    exported = {a.asname or a.name
                for node in ast.walk(ast.parse(init_source))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    referenced = set()
    for source in caller_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(exported - referenced)


def test_export_detector_flags_a_name_no_caller_uses():
    init = "from .cones import lift_lj, project_pj, rearrange_sharp\n"
    callers = ["x = project_pj(path, j)\n", "y = cones.rearrange_sharp(x)\n"]
    assert _unreferenced_exports(init, callers) == ["lift_lj"]


def test_every_export_has_a_caller_outside_tests():
    callers = [p.read_text() for p in CALLERS]
    assert _unreferenced_exports((SRC / "__init__.py").read_text(), callers) == []


def _settable_values(sources) -> int:
    """Defaulted function parameters plus ``--flag`` arguments of argparse."""
    count = 0
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                count += len(args.defaults)
                count += sum(d is not None for d in args.kw_defaults)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument" and node.args
                  and isinstance(node.args[0], ast.Constant)
                  and str(node.args[0].value).startswith("--")):
                count += 1
    return count


def test_settable_value_counter():
    source = "def f(a, b=1, *, c, d=None):\n    g = lambda r=2: r\n" \
             "p.add_argument('command')\np.add_argument('--seed', default=0)\n"
    assert _settable_values([source]) == 3


def test_settable_values_are_pinned():
    # a change that adds or removes a knob moves this pin in its own diff
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert _settable_values(sources) == 45
