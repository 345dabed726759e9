"""Every package the suite and the benchmark import is one that an install
as the README says provides: the standard library, numpy, gdbound, a module
of their own, or a package listed in pyproject's `test` extra.  A missing
one would drop a test module at collection or skip its tests unseen.  The
package itself imports only the standard library and numpy, its one
runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "gdbound").glob("*.py"))


def extra_packages():
    """The distribution names in pyproject's `test` extra."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^test = \[(.*?)\]", text, re.MULTILINE | re.DOTALL).group(1)
    return {re.match(r"[\w.-]+", req).group().lower()
            for req in re.findall(r'"([^"]+)"', listed)}


def imported(source: Path):
    """Top-level names of the modules a file imports, with import statements
    anywhere in it and `pytest.importorskip` calls."""
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "importorskip" and node.args
              and isinstance(node.args[0], ast.Constant)):
            yield node.args[0].value.split(".")[0]


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_installed_by_the_test_extra(source):
    local = {path.stem for path in SOURCES}
    allowed = set(sys.stdlib_module_names) | {"numpy", "gdbound"} | local | extra_packages()
    missing = sorted(set(imported(source)) - allowed)
    assert not missing, f"{source.name} imports {missing}, not in the test extra"



@pytest.mark.parametrize("source", PACKAGE, ids=lambda path: f"gdbound/{path.name}")
def test_the_package_imports_only_numpy_and_the_standard_library(source):
    missing = sorted(set(imported(source)) - set(sys.stdlib_module_names) - {"numpy"})
    assert not missing, f"{source.name} imports {missing}; the runtime depends on numpy alone"
