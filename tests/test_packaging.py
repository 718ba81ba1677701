"""pyproject.toml declares every third-party module the code imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def declared(requirements: list[str]) -> set[str]:
    """Import names of PEP 508 requirements (``pytest-benchmark`` ->
    ``pytest_benchmark``)."""
    return {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0]
        .lower()
        .replace("-", "_")
        for requirement in requirements
    }


def third_party_imports(*trees: str) -> dict[str, set[str]]:
    """Top-level imported modules that are neither stdlib nor local,
    each mapped to the files that import it."""
    roots = {p.stem for p in [*ROOT.iterdir(), *(ROOT / "src").iterdir()]}
    found: dict[str, set[str]] = {}
    for tree in trees:
        for path in sorted((ROOT / tree).rglob("*.py")):
            local = roots | {p.stem for p in path.parent.iterdir()}
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top not in sys.stdlib_module_names | local:
                        found.setdefault(top, set()).add(
                            str(path.relative_to(ROOT))
                        )
    return found


@pytest.fixture(scope="module")
def project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def test_runtime_imports_are_dependencies(project):
    runtime = declared(project["dependencies"])
    missing = {
        module: files
        for module, files in third_party_imports("src/repro").items()
        if module not in runtime
    }
    assert not missing, f"undeclared runtime imports: {missing}"


def test_test_imports_are_declared(project):
    allowed = declared(project["dependencies"]) | declared(
        project["optional-dependencies"]["test"]
    )
    missing = {
        module: files
        for module, files in third_party_imports(
            "tests", "benchmarks"
        ).items()
        if module not in allowed
    }
    assert not missing, f"undeclared test imports: {missing}"
