"""Every public top-level function and class in src/pntap has a caller.

A caller is a reference from code outside the tests: another top-level
statement of src/pntap, or perfbench/*.py and scripts/*.py other than
their test files.  A reference is a name, an attribute or a dotted name
string (perfbench/trace.py names what it wraps as "module", "Class.method"
strings).  Imports, docstrings and a definition's own body do not count,
so re-exporting a name from pntap/__init__.py gives it no caller.

Every defaulted parameter of src/pntap is named in DEFAULTS with the
reason it has a default, so a new default, like a new option, needs one.
The field defaults of a @dataclass body count as defaulted parameters of
its Class.__init__, in field order (a field(init=False) is no parameter).
A reason names callers, and the calls of those same files show them: some
call passes the parameter, by keyword, by position or as a replace(...)
keyword, and some call takes its default.  Otherwise only tests set the
option or take the default.
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
    ("arith", "_lambda_sums", "x"):
        "psi1 passes weight by (x - n); the pi, theta and psi passes do not",
    ("cli", "_load_zeros", "kind"):
        "the lehman suite loads Dirichlet zeros; the zeta suites take the default",
    ("cli", "main", "argv"):
        "perfbench and the tests pass argv; the console script reads sys.argv",
    ("constants", "soz_constants_small", "omega"):
        "ROADMAP item 5 sets omega from the Dirichlet zeros it builds",
    ("constants", "ap_constants", "clamp_omega1"):
        "the small-moduli chain clamps Omega1; ROADMAP item 1 settles the general chain's fold",
    ("constants", "chain", "self_consistent"): "--self-consistent sets it",
    ("constants", "evaluate_bounds", "consts"): "the principal kind needs no constants",
    ("quadrature", "integrate", "tol"):
        "tests set it to reach the tolerance and the ConvergenceError paths",
    ("quadrature", "integrate", "max_intervals"):
        "a test sets it to run out of intervals",
    ("verify", "BoundReport.add", "skip_nonpositive_rhs"):
        "the suites whose right-hand side can be non-positive set it",
    ("zeros", "load_zero_table", "kind"):
        "the CLI's Dirichlet suites set it; the tests load zeta tables with the default",
    ("zeros", "load_zero_table", "label"): "the CLI sets it to pick one character's zeros",
    # dataclass fields
    ("constants", "SozConstants.__init__", "small_moduli"):
        "soz_constants_small replaces it; the general record takes the default",
    ("constants", "TwistedPsiConstants.__init__", "small_moduli"):
        "twisted_psi_constants_small replaces it; the general record takes the default",
    ("constants", "TwistedPsiConstants.__init__", "sigma6"):
        "twisted_psi_constants_small replaces it; the general record has none",
    ("constants", "TwistedPsiConstants.__init__", "sigma7"):
        "twisted_psi_constants_small replaces it; the general record has none",
    ("verify", "BoundSample.__init__", "skipped"):
        "BoundReport.add sets it for a non-positive right-hand side; the other samples take it",
    ("zeros", "ZeroTable.__init__", "label"):
        "the loader passes a Dirichlet table's label; the zeta zero generator has none",
}

# DEFAULTS entries that no call of program code passes, or that every such
# call passes, each kept for a named reason
TESTS_ONLY = {
    ("constants", "soz_constants_small", "omega"):
        "never passed: ROADMAP item 5 sets omega from the Dirichlet zeros it builds",
    ("quadrature", "integrate", "tol"): "never called: the tests' reference integrator",
    ("quadrature", "integrate", "max_intervals"): "never called: the tests' reference integrator",
    ("zeros", "load_zero_table", "kind"):
        "always passed: perfbench/test_checks.py takes the default, and it changes "
        "only with the benchmark",
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


def _caller_files() -> list[Path]:
    """perfbench/*.py and scripts/*.py other than their test files."""
    return [path for path in sorted([*(ROOT / "perfbench").glob("*.py"),
                                     *(ROOT / "scripts").glob("*.py")])
            if not path.name.startswith("test_")]


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
    for path in _caller_files():
        tree = ast.parse(path.read_text())
        refs |= _referenced(tree, _docstrings(tree))
    return defined, refs


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _init_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) for each __init__ field of a @dataclass body,
    in field order."""
    out = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            out.append((stmt.target.id, "default" in keywords or "default_factory" in keywords))
        else:
            out.append((stmt.target.id, value is not None))
    return out


def _defaulted_parameters():
    """{(module, function, parameter): (required, position)} for every
    defaulted parameter of src/pntap: the number of parameters a call must
    pass by position or keyword, and the parameter's position in a call
    (None if keyword-only); a method's self is not counted.  A dataclass
    field with a default is a parameter of its Class.__init__."""
    out = {}

    def visit(node, module, prefix, in_class):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = sub.args
                positional = [a.arg for a in args.posonlyargs + args.args][in_class:]
                required = len(positional) - len(args.defaults)
                for i, name in enumerate(positional[required:], required):
                    out[module, prefix + sub.name, name] = (required, i)
                for a, d in zip(args.kwonlyargs, args.kw_defaults):
                    if d is not None:
                        out[module, prefix + sub.name, a.arg] = (required, None)
                visit(sub, module, prefix + sub.name + ".", False)
            elif isinstance(sub, ast.ClassDef):
                if _is_dataclass(sub):
                    fields = _init_fields(sub)
                    required = sum(not has_default for _, has_default in fields)
                    for i, (name, has_default) in enumerate(fields):
                        if has_default:
                            out[module, prefix + sub.name + ".__init__", name] = (required, i)
                visit(sub, module, prefix + sub.name + ".", True)
            else:
                visit(sub, module, prefix, in_class)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", False)
    return out


def _passes_and_takes():
    """The DEFAULTS entries some call of program code passes, and those
    some such call leaves to their default.

    A call counts for a function when it names it (a constructor call names
    the class of an __init__) and passes at least the required arguments,
    so set.add(x) and the kernel's own four-argument add do not count for
    BoundReport.add.  A replace(...) keyword passes the field of that name
    of every class; the record it copies is not known from the syntax."""
    calls = []
    for path in [*sorted(SRC.glob("*.py")), *_caller_files()]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.append((name, len(node.args), {k.arg for k in node.keywords}))
    passed, taken = set(), set()
    for (module, function, param), (required, position) in _defaulted_parameters().items():
        parts = function.split(".")
        name = parts[-2] if parts[-1] == "__init__" else parts[-1]
        for called, n_args, keywords in calls:
            if called == "replace" and parts[-1] == "__init__" and param in keywords:
                passed.add((module, function, param))
            if called != name or n_args + len(keywords) < required:
                continue
            if param in keywords or (position is not None and n_args > position):
                passed.add((module, function, param))
            else:
                taken.add((module, function, param))
    return passed, taken


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
    got = set(_defaulted_parameters())
    assert sorted(got - set(DEFAULTS)) == [], "defaults without a reason"
    assert sorted(set(DEFAULTS) - got) == [], "named defaults that are gone"


def test_program_code_passes_and_takes_every_default():
    # an option only tests set, or a default only tests take, has no reason
    passed, taken = _passes_and_takes()
    checked = set(DEFAULTS) - set(TESTS_ONLY)
    unset, untaken = sorted(checked - passed), sorted(checked - taken)
    assert not unset and not untaken, \
        f"no program call passes {unset}; every program call passes {untaken}"


def test_tests_only_list_holds_only_such_defaults():
    # an entry whose parameter gains the caller it lacked leaves the list
    passed, taken = _passes_and_takes()
    assert set(TESTS_ONLY) <= set(DEFAULTS)
    assert sorted(k for k in TESTS_ONLY if k in passed and k in taken) == []
