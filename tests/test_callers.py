"""Every public top-level function and class in src/pntap has a caller.

A caller is a reference from code outside the tests: another top-level
statement of src/pntap, or perfbench/*.py and scripts/*.py other than
their test files.  A reference is a name, an attribute or a dotted name
string (perfbench/trace.py names what it wraps as "module", "Class.method"
strings).  Imports, docstrings and a definition's own body do not count,
so re-exporting a name from pntap/__init__.py gives it no caller.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pntap"

# public names no program code calls yet, each kept for a named reason
ALLOWED = {
    "psi_from_characters": "acceptance criterion 7 reconstructs psi(x; q, a) with it",
    "low_count_twice_bound": "ROADMAP item 5 checks it on every primitive character built",
    "omega_low_sum": "ROADMAP item 5 runs it on the Dirichlet zeros built",
}


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def _referenced(node: ast.AST, docstrings: set[int]) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and id(sub) not in docstrings:
            names.update(sub.value.split("."))
    return names


def _definitions_and_references():
    """(public top-level names of src/pntap, names referenced by callers)."""
    defined, refs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        for stmt in tree.body:
            names = _referenced(stmt, docs)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined.add(stmt.name)
                names.discard(stmt.name)
            refs |= names
    for path in sorted([*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        if not path.name.startswith("test_"):
            tree = ast.parse(path.read_text())
            refs |= _referenced(tree, _docstrings(tree))
    return defined, refs


def test_every_public_function_has_a_caller():
    defined, refs = _definitions_and_references()
    uncalled = sorted(defined - refs - set(ALLOWED))
    assert uncalled == [], f"public names only tests call: {uncalled}"


def test_allow_list_holds_only_uncalled_names():
    # an allowed name that gains a caller leaves the list
    defined, refs = _definitions_and_references()
    assert set(ALLOWED) <= defined
    assert set(ALLOWED) & refs == set()
