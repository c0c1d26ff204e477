"""No public function or class without a caller.

Every public module-level function or class in ``src/moeapap`` must be
referred to by some identifier (a name or an attribute) other than its own
``def``/``class`` line, in the package, in ``scripts/`` or in the
acceptance suite.  Other tests do not count: a name only the unit tests use
is dead code.
"""

import ast
from pathlib import Path

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
