"""Every public top-level function and class in src/pntap has a caller.

A caller is a reference from code outside the tests: another top-level
statement of src/pntap, or perfbench/*.py and scripts/*.py other than
their test files.  A reference is a name, an attribute or a dotted name
string (perfbench/trace.py names what it wraps as "module", "Class.method"
strings).  Imports, docstrings and a definition's own body do not count,
so re-exporting a name from pntap/__init__.py gives it no caller.

Every defaulted parameter of src/pntap is named in DEFAULTS with the
reason it has a default, so a new default, like a new option, needs one.
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

# every defaulted parameter of src/pntap as (module, function, parameter);
# a method is "Class.method", a nested function "outer.inner"
DEFAULTS = {
    ("arith", "prime_segments", "segment"):
        "the kernel passes its pass's segment; the sieve tests and criterion 7 take the default",
    ("arith", "prime_segments", "base"):
        "the kernel passes the base primes it sieves once per pass; criterion 7 does not",
    ("arith", "higher_prime_powers", "base"):
        "the kernel passes the base primes it sieves once per pass; criterion 7 does not",
    ("arith", "_lambda_sums", "x"):
        "psi1 passes weight by (x - n); the pi, theta and psi passes do not",
    ("arith", "_lambda_sums", "segment"):
        "ResidueCounter and lambda_sum_interval pass theirs; residue_masses takes the default",
    ("arith", "ResidueCounter.__init__", "segment"):
        "tests cut passes inside and across small segments; program callers take the default",
    ("arith", "lambda_sum_interval", "segment"):
        "tests sieve windows in small segments; short_interval_psi_delta takes the default",
    ("cli", "_load_zeros", "kind"):
        "the lehman suite loads Dirichlet zeros; the zeta suites take the default",
    ("cli", "main", "argv"):
        "perfbench and the tests pass argv; the console script reads sys.argv",
    ("constants", "soz_constants_small", "omega"):
        "ROADMAP item 5 sets omega from the Dirichlet zeros it builds",
    ("constants", "ap_constants", "clamp_omega1"):
        "the small-moduli chain clamps Omega1; ROADMAP item 1 settles the general chain's fold",
    ("constants", "chain", "small"): "--small sets it",
    ("constants", "chain", "self_consistent"): "--self-consistent sets it",
    ("constants", "evaluate_bounds", "consts"): "the principal kind needs no constants",
    ("errors", "ParseError.__init__", "line_number"):
        "unpickling rebuilds a ParseError from its message alone",
    ("quadrature", "integrate", "tol"):
        "tests set it to reach the tolerance and the ConvergenceError paths",
    ("quadrature", "integrate", "max_intervals"):
        "a test sets it to run out of intervals",
    ("verify", "BoundReport.add", "what"): "the suites label their samples; tests need not",
    ("verify", "BoundReport.add", "skip_nonpositive_rhs"):
        "the suites whose right-hand side can be non-positive set it",
    ("verify", "verify_psi1_explicit", "t_trunc"):
        "--t-trunc sets it; without it the suite truncates at min(1e4, the table's height)",
    ("zeros", "load_zero_table", "kind"):
        "the CLI's Dirichlet suites set it; zeta tables take the default",
    ("zeros", "load_zero_table", "label"): "the CLI sets it to pick one character's zeros",
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


def _defaulted_parameters():
    """(module, function, parameter) of every defaulted parameter of src/pntap."""
    out = set()

    def visit(node, module, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = sub.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                out.update((module, prefix + sub.name, a.arg) for a in named)
                visit(sub, module, prefix + sub.name + ".")
            elif isinstance(sub, ast.ClassDef):
                visit(sub, module, prefix + sub.name + ".")
            else:
                visit(sub, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return out


def test_every_public_function_has_a_caller():
    defined, refs = _definitions_and_references()
    uncalled = sorted(defined - refs - set(ALLOWED))
    assert uncalled == [], f"public names only tests call: {uncalled}"


def test_allow_list_holds_only_uncalled_names():
    # an allowed name that gains a caller leaves the list
    defined, refs = _definitions_and_references()
    assert set(ALLOWED) <= defined
    assert set(ALLOWED) & refs == set()


def test_every_default_is_named():
    # a new default joins DEFAULTS with its reason; a removed one leaves it
    got = _defaulted_parameters()
    assert sorted(got - set(DEFAULTS)) == [], "defaults without a reason"
    assert sorted(set(DEFAULTS) - got) == [], "named defaults that are gone"
