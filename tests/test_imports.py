"""Every module of the package uses each name it imports, every name that
``__init__`` re-exports has a caller outside the tests, only
``nonlinearity`` knows where xibar changes branch, no module takes a matrix
product with the cell widths, the number of settable values is pinned, and
no command loads scipy."""

import ast
import json
import os
import subprocess
import sys
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


def _xibar_internals(source: str) -> list:
    """``_seam*`` attributes and ``Polynomial`` names that a source reads.

    Either one in a module means it re-derives where xibar changes branch,
    which is ``nonlinearity``'s alone (``Regularization._seam`` and
    ``Regularization.deriv_sup``).
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return sorted(n for n in names if n.startswith("_seam") or n == "Polynomial")


def test_internals_detector_flags_seams_and_polynomials():
    source = "from numpy.polynomial import Polynomial as P\nimport numpy as np\n" \
             "from .nonlinearity import _seam_point, regularize\n" \
             "s0 = regularize(m)._seam.s0\nxi = np.polynomial.Polynomial([0.0])\n" \
             "v = regularize(m).deriv_sup(0.0, 1.0)\n"
    assert _xibar_internals(source) == ["Polynomial", "_seam", "_seam_point"]
    assert _xibar_internals("v = reg.deriv_sup(-1.0, 1.0)\nseam = 2\n") == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "nonlinearity.py"],
                         ids=lambda p: p.name)
def test_only_nonlinearity_knows_the_seams_of_xibar(path):
    assert _xibar_internals(path.read_text()) == []


def _width_products(source: str) -> list:
    """Line numbers of ``@`` or ``dot`` products that take the cell widths.

    The widths are a name ``w`` or ``widths`` or an attribute ``.widths``
    anywhere in an operand.  A product's row depends on the batch and
    the BLAS build, so a cell sum is ``Partition.integrate``'s alone.
    """
    def widths_in(node):
        return any((isinstance(n, ast.Name) and n.id in ("w", "widths"))
                   or (isinstance(n, ast.Attribute) and n.attr == "widths")
                   for n in ast.walk(node))

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) == "dot":
            operands = [node.func, *node.args]
        else:
            continue
        if any(widths_in(o) for o in operands):
            lines.append(node.lineno)
    return lines


def test_width_product_detector_flags_each_form():
    source = "v = X @ (w * h)\nu = pen @ w\nq = np.dot(b, j.widths)\n" \
             "r = widths.dot(v)\ns = a @ j.partition.widths\n" \
             "ok = Y @ Xw.T\nok = j.integrate(v)\nok = w * slope\n" \
             "ok = np.dot(a, b)\nok = A @ v\n"
    assert _width_products(source) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_takes_a_product_with_the_cell_widths(path):
    assert _width_products(path.read_text()) == []


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


# the package runs on numpy alone; each probe runs in a fresh interpreter
# and reports the scipy modules loaded
PROBE = """
import json, sys
{preload}
{action}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

SOFTPLUS = {"kind": "softplus",
            "profile": {"weights": [0.4, 0.5], "thresholds": [0.3, 1.2],
                        "scales": [0.4, 0.8]}}
XI = {"poly": {"2": 1.0}}
CONFIGS = {
    "spinglass": {"N_list": [2], "beta": 0.5, "t_list": [0.25],
                  "measure": {"atoms": [[[0.0]], [[0.3]]],
                              "levels": [0.0, 0.5, 1.0]},
                  "cascade": {"M": 8}, "replicas": 4, "hj_level": 2},
    "converge": {"psi": SOFTPLUS, "xi": XI, "levels": [4, 8, 16], "points": 4,
                 "radius": 2.0, "slope_max": -0.4},
    "compare": {"psi": SOFTPLUS, "xi": XI, "T": 0.25, "dx": 0.05,
                "x_max": 1.0},
    "solve": {"psi": SOFTPLUS, "xi": XI, "partition": {"uniform": 2},
              "times": [0.5], "samples": [[0.1, 0.4]], "method": "hopf_lax"},
}


def _scipy_loaded(action: str, preload: str = "") -> list:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c",
                           PROBE.format(preload=preload, action=action)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli(command: str, tmp_path) -> str:
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(CONFIGS[command]))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    return ("from conehj.cli import main\n"
            f"if main({argv!r}) != 0:\n    sys.exit('{command} failed')")


@pytest.mark.parametrize("module", ["conehj", "conehj.cli"])
def test_import_loads_no_scipy(module):
    assert _scipy_loaded(f"import {module}") == []


@pytest.mark.parametrize("command", ["spinglass", "converge", "compare"])
def test_command_without_slsqp_loads_no_scipy(command, tmp_path):
    assert _scipy_loaded(_cli(command, tmp_path)) == []


def test_hopf_lax_solve_loads_no_scipy(tmp_path):
    # with the three commands above, no command loads scipy
    assert _scipy_loaded(_cli("solve", tmp_path)) == []


def test_scipy_probe_sees_a_preloaded_scipy():
    # the no-scipy tests above can fail: the same probe, in a process that
    # imported scipy.optimize before conehj, reports it
    loaded = _scipy_loaded("import conehj.cli", preload="import scipy.optimize")
    assert loaded != [] and "scipy.optimize" in loaded
