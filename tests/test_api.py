import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import arrcohom

MODULES = sorted(info.name for info in pkgutil.iter_modules(arrcohom.__path__))


def test_modules_found():
    assert {"geometry", "modp", "orlik_solomon", "aomoto"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a name left in __all__ after its object is gone breaks star imports
    mod = importlib.import_module(f"arrcohom.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_no_assert_in_src():
    # invariants are explicit errors: python -O strips assert statements
    found = []
    for path in sorted(Path(arrcohom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("name", ["orlik_solomon", "aomoto", "degeneration"])
def test_algebra_layers_read_only_incidences(name):
    # everything after deconing sees incidence data, never coordinates
    path = Path(arrcohom.__file__).parent / f"{name}.py"
    imported = [alias.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names
                if "geometry" in f"{node.module}.{alias.name}"]
    assert imported == ["AffineArrangement"]
