"""Tests that pyproject.toml declares only what the package can deliver,
that the package's modules share only public names, that every name a
package or test module imports is used there, or, in the package, wrapped
there by the benchmark's TRACED table (bench/run.py), and that every
private module-level name of the package is read in it."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import support

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "infocal"
TESTS = Path(__file__).resolve().parent


def project_table():
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_declared_dependencies_import():
    for requirement in project_table().get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_script_targets_resolve():
    for script, target in project_table().get("scripts", {}).items():
        module, _, attrs = target.partition(":")
        obj = importlib.import_module(module)
        for attr in attrs.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), script


def private_cross_module_imports(source):
    """`from <infocal module> import _name` in source, and `alias._name`
    where alias is an infocal module imported as `from . import mod as alias`."""
    found, modules = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "infocal"):
            path = [part for part in (node.module or "").split(".") if part]
            found += [part for part in path if part.startswith("_")]
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(alias.name)
                elif not node.module or node.module == "infocal":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 5
    found = {p.name: private_cross_module_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_import_finder_finds_them():
    source = "from .problem import _damped_step, solve\nfrom . import imu as im\nim._mv(1, 2)\nfrom infocal._x import y\n"
    assert private_cross_module_imports(source) == ["_damped_step", "_x", "im._mv"]


def unused_imports(source):
    """The names that source's imports bind, `from __future__` aside, and
    that no ast.Name in it reads; `import a.b` binds a."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_imports():
    # an import the benchmark wraps on a package module is pinned by the
    # benchmark
    traced = support.traced_table()
    found = {}
    for p in sorted(PACKAGE.glob("*.py")):
        found[p.stem] = set(unused_imports(p.read_text())) - {attr for module, attr in traced if module == "infocal." + p.stem}
    for p in sorted(TESTS.glob("*.py")):
        found["tests/" + p.name] = set(unused_imports(p.read_text()))
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_finder_finds_them():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .geometry import so3_exp, so3_log as log\nx: np.ndarray = so3_exp(1)\n"
    )
    assert unused_imports(source) == ["os", "log"]


def unused_private_names(sources):
    """The module-level names that sources define (def, class or
    assignment) and that start with one underscore, but that no ast.Name
    in any of sources reads."""
    trees = [ast.parse(source) for source in sources]
    read = {n.id for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    defined = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in defined if name.startswith("_") and not name.startswith("__") and name not in read]


def test_no_unused_private_names():
    # private names are not imported across modules (above), so one that
    # the package does not read is dead code
    assert unused_private_names([p.read_text() for p in sorted(PACKAGE.glob("*.py"))]) == []


def test_unused_private_name_finder_finds_them():
    sources = [
        "__all__ = []\n_A, _B = 1, 2\n_C: int = 3\ndef _f(x=_A):\n    return _g()\nclass _K:\n    pass\n",
        "def _g():\n    _local = 1\n    return _C\n_h = 4\n",
    ]
    assert unused_private_names(sources) == ["_B", "_f", "_K", "_h"]
