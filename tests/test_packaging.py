"""Tests that pyproject.toml declares only what the package can deliver."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
