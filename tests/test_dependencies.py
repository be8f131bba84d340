"""The third-party packages ``src/`` imports are exactly the ones
``pyproject.toml`` declares: none undeclared, none declared but unused.

Function-level imports count too (``channel.lambda_oracle`` imports scipy
only when called).  Thread pools have one owner: ``rng``, which splits
every row-blocked draw.  The schemes share one round pipeline: the
orchestrator names a scheme only as a key of its scheme table.  A run
depends only on its config and flags: no module reads the environment.
A failing Hypothesis example, whose report imports libcst, fails one test
under this project's warning filters and leaves the session running.
"""

import ast
import re
import subprocess
import sys
import tomllib
from pathlib import Path

from optivote.config import SCHEMES

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    """Top-level names of every absolute import under src/, at any depth."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_imports_match_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_")
                for spec in project["dependencies"]}
    third_party = imported_packages() - set(sys.stdlib_module_names) - {"optivote"}
    assert third_party == declared == {"numpy", "scipy"}


def test_only_rng_imports_concurrent_futures():
    importers = set()
    for path in (ROOT / "src" / "optivote").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "concurrent" for name in names):
                importers.add(path.name)
    assert importers == {"rng.py"}


def test_scheme_names_appear_only_as_scheme_table_keys():
    # Catches a per-scheme branch: a comparison, an `in` tuple or a match case.
    tree = ast.parse((ROOT / "src" / "optivote" / "orchestrator.py").read_text())
    table = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_SCHEMES"])
    keys = {id(key) for key in table.keys}
    elsewhere = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                 and node.value in SCHEMES and id(node) not in keys]
    assert elsewhere == [], f"scheme names outside _SCHEMES on lines {elsewhere}"


def test_no_module_reads_the_environment():
    env = {"environ", "environb", "getenv", "getenvb"}
    readers = []
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in env
                    and getattr(node.value, "id", None) == "os") or (
                    isinstance(node, ast.ImportFrom) and node.module == "os"
                    and {alias.name for alias in node.names} & env):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_failing_property_example_fails_one_test(tmp_path):
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n    assert x < 5\n\n\n"
        "def test_after():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c",
         str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1 and "1 failed, 1 passed" in proc.stdout, proc.stdout
