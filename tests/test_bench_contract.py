"""The names the benchmark takes from infocal still exist.

bench/run.py wraps each (module, attribute) of its TRACED table with a
tracer, which raises AttributeError for a missing name; bench/sim.py
imports infocal names and bench/workloads.py calls them as module
attributes.  The files are read with ast, not imported: run.py pins BLAS
environment variables when it is imported.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text())


def _infocal_modules(tree):
    """Local name -> module, for each `from infocal import <module> [as name]`."""
    return {
        a.asname or a.name: "infocal." + a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "infocal"
        for a in node.names
    }


def test_traced_table_resolves():
    tree = _tree("run.py")
    aliases = _infocal_modules(tree)
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]
    ]
    assert table.elts
    for entry in table.elts:
        head, _, rest = ast.unparse(entry.elts[0]).partition(".")
        module = importlib.import_module(".".join(filter(None, (aliases.get(head, head), rest))))
        attr = ast.literal_eval(entry.elts[1])
        assert hasattr(module, attr), "%s.%s" % (module.__name__, attr)


def test_simulator_imports_resolve():
    imports = [n for n in ast.walk(_tree("sim.py")) if isinstance(n, ast.ImportFrom) and n.module.startswith("infocal.")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for a in node.names:
            assert hasattr(module, a.name), "%s.%s" % (node.module, a.name)


def test_workload_calls_resolve():
    tree = _tree("workloads.py")
    aliases = _infocal_modules(tree)
    assert aliases
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            module = importlib.import_module(aliases[node.value.id])
            assert hasattr(module, node.attr), "%s.%s" % (module.__name__, node.attr)
