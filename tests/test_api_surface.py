"""No public function or class without a caller.

Every public module-level function or class in ``src/moeapap`` must be
referred to by some identifier (a name or an attribute) other than its own
``def``/``class`` line, in the package, in ``scripts/`` or in the
acceptance suite.  Other tests do not count: a name only the unit tests use
is dead code.  The package also refers to itself only relatively, so a
checkout's ``src/moeapap`` loaded under another name runs its own code.
"""

import ast
import hashlib
import importlib.util
import sys
from pathlib import Path

import moeapap

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moeapap"


def _public_definitions():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.name, node.lineno


def _references():
    """Identifier -> set of (file, line) where it is used."""
    paths = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    found: dict[str, set] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.setdefault(node.id, set()).add((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                found.setdefault(node.attr, set()).add((path, node.lineno))
    return found


def test_every_public_name_has_a_caller():
    refs = _references()
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, name, line in _public_definitions()
        if not refs.get(name, set()) - {(path, line)}
    ]
    assert not unused, "public names with no caller: " + ", ".join(unused)


def test_one_process_pool():
    """Parallelism happens in one place: one function of the package refers
    to ``ProcessPoolExecutor``."""
    users = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name != "ProcessPoolExecutor" or not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            owner = [n for scope, n in scopes if scope.lineno <= node.lineno <= scope.end_lineno]
            users.add((path.relative_to(ROOT), owner[-1] if owner else "<module>"))
    assert len(users) == 1, f"ProcessPoolExecutor used in {sorted(users)}"


def _absolute_self_references(tree):
    """Lines of ``import moeapap...``, ``from moeapap... import`` and
    ``files("moeapap...")`` or ``import_module("moeapap...")`` calls."""
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Call) and node.args:
            called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            if called in ("files", "import_module"):
                names = [getattr(node.args[0], "value", None)]
        if any(isinstance(n, str) and (n == "moeapap" or n.startswith("moeapap.")) for n in names):
            yield node.lineno


def test_package_refers_to_itself_only_relatively():
    """``benchmarks/bench.py --against`` imports another checkout's
    ``src/moeapap`` as ``moeapap_against``; an absolute self-reference there
    would read this checkout's code or data instead of its own."""
    found = [f"{path.relative_to(ROOT)}:{line}" for path in sorted(PACKAGE.rglob("*.py"))
             for line in _absolute_self_references(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, "absolute self-references: " + ", ".join(found)


def test_checkout_loaded_under_another_name_runs_the_same(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # bench.py prepends src/ and perfbench/
    spec = importlib.util.spec_from_file_location("bench", ROOT / "benchmarks" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    try:
        other = bench._load_checkout(ROOT)
        digests = []
        for package in (moeapap, other):
            algorithms, problem, budget = bench._run_args(package, "WFG4", (12, 5))
            assert algorithms.__name__ == f"{package.__name__}.algorithms"
            result = algorithms.run(bench._config(package, bench.CONFIGS["mopso/omopso"]),
                                    problem, budget, 3)
            s = result.solution_set
            digests.append(hashlib.sha256(s.objectives.tobytes() + s.decisions.tobytes()).hexdigest())
        assert digests[0] == digests[1]
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "moeapap_against"]:
            del sys.modules[name]
