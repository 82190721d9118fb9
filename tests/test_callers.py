"""Every public top-level function and class in src/pntap has a caller.

A caller is a reference from code outside the tests: another top-level
statement of src/pntap, or perfbench/*.py and scripts/*.py other than
their test files.  A reference is a name, an attribute or a dotted name
string (perfbench/trace.py names what it wraps as "module", "Class.method"
strings).  Imports, docstrings, the text of f-strings and a definition's
own body do not count, so re-exporting a name from pntap/__init__.py gives
it no caller.

Every defaulted parameter of src/pntap is named in DEFAULTS with the
reason it has a default, so a new default, like a new option, needs one.
The field defaults of a @dataclass body count as defaulted parameters of
its Class.__init__, in field order (a field(init=False) is no parameter).
A reason names callers, and the calls of those same files show them: some
call passes the parameter, by keyword, by position or as a replace(...)
keyword, and some call takes its default.  Otherwise only tests set the
option or take the default.

Every @dataclass field and every method or property of a class of
src/pntap has a reader in program code, where an attribute or a dotted name
string names it; the class's own __post_init__ does not count.  A field that
only tests read is named in FIELDS_TESTS_ONLY with its reason.  Every cache
of src/pntap is named in CACHES with program traffic that hits it.
"""
import ast
import importlib
from pathlib import Path

from perfbench import workloads
from pntap import cli

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


# record fields that only tests read, each kept for a named reason; every
# other field, method and property of src/pntap has a reader in program code
FIELDS_TESTS_ONLY = {
    ("arith", "DirichletCharacter", "parity"): "tests check chi(-1) = (-1)^parity",
    ("arith", "DirichletCharacter", "conductor"):
        "tests check it against the least modulus that induces the character",
    ("constants", "SozConstants", "nu1"):
        "audit term of k2: tests check k2 - k2~ = 0.94873 + nu1 - nu1~; the validator reads it",
    ("constants", "SozConstants", "nu2"):
        "audit term of k1: tests check nu1 log q + nu2 against the Lehman bound",
    ("constants", "SozConstants", "nu3"): "audit term of k2: tests pin it equal in both chains",
    ("constants", "SozConstants", "nu4"): "audit term of k1: tests pin it equal in both chains",
    ("constants", "SozConstants", "f1"):
        "audit term: tests pin its 1/(8 pi) cap, which only the validator reads",
    ("constants", "SozConstants", "f2"):
        "audit term: tests pin its 1/(2 pi) cap, which only the validator reads",
    ("constants", "SozConstants", "f3"): "audit term of k1: tests pin it equal in both chains",
    ("constants", "ShortIntervalConstants", "ell2"): "tests rebuild ell4 from it with mpmath",
    ("constants", "TwistedPsiConstants", "sigma4"): "tests check k5 = sigma4 when k2 > 0",
    ("constants", "TwistedPsiConstants", "sigma5"): "tests check k5 = sigma5 when k2 < 0",
    ("constants", "TwistedPsiConstants", "sigma6"):
        "tests check that it holds the anchor's k1~, frozen and self-consistent",
    ("constants", "TwistedPsiConstants", "sigma7"): "tests check sigma7 = k2~ log 3",
    ("quadrature", "QuadResult", "abs_error_estimate"):
        "tests check the reference integrator's error estimate",
}


def _off_grid_constants():
    # each off-grid row's chain asks again for the kappa and the zero-sum
    # integrals that its first link computed
    cli.main(["constants", "--which", "all", "--small", "--self-consistent",
              "--log-x0", "18.3", "--log-x0", "37.5"])


def _twisted_characters():
    # theta right after psi at the same x and q
    workloads.run_twisted_characters(workloads.prepare_twisted_characters(1, ROOT))


# every lru_cache or cache function of src/pntap as (module, function), with
# the program traffic that hits it
CACHES = {
    ("constants", "_live_quad"): _off_grid_constants,
    ("constants", "optimize_kappa"): _off_grid_constants,
    ("arith", "_last_masses"): _twisted_characters,
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
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)} \
        | _attributes_read(node, docstrings)


def _attributes_read(node: ast.AST, docstrings: set[int]) -> set[str]:
    """The references in node that can name an attribute: an attribute, or
    a part of a dotted name string (not of a docstring or an f-string's text)."""
    texts = docstrings | {id(v) for sub in ast.walk(node) if isinstance(sub, ast.JoinedStr)
                          for v in sub.values}
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and id(sub) not in texts:
            names.update(sub.value.split("."))
    return names


def _caller_files() -> list[Path]:
    """perfbench/*.py and scripts/*.py other than their test files."""
    return [path for path in sorted([*(ROOT / "perfbench").glob("*.py"),
                                     *(ROOT / "scripts").glob("*.py")])
            if not path.name.startswith("test_")]


def _member_reads():
    """(members, read): members holds (module, Class, member) for every
    @dataclass field and every non-dunder method or property of a top-level
    class of src/pntap, read those members some program code reads.

    A member is read where an attribute or a dotted name string names it
    (see _attributes_read); a local variable or a keyword of the same name
    reads nothing.  A class's own __post_init__ reads none of its members:
    a value only its validator reads has no reader."""
    members, refs, own = set(), set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        for stmt in tree.body:
            if not isinstance(stmt, ast.ClassDef):
                refs |= _attributes_read(stmt, docs)
                continue
            cls = path.stem, stmt.name
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef) and sub.name == "__post_init__":
                    own[cls] = _attributes_read(sub, docs)
                    continue
                if _is_dataclass(stmt) and isinstance(sub, ast.AnnAssign):
                    members.add((*cls, sub.target.id))
                elif isinstance(sub, ast.FunctionDef) \
                        and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    members.add((*cls, sub.name))
                refs |= _attributes_read(sub, docs)
    for path in _caller_files():
        tree = ast.parse(path.read_text())
        refs |= _attributes_read(tree, _docstrings(tree))
    read = {(module, cls, name) for module, cls, name in members
            if name in refs or any(name in names for c, names in own.items()
                                   if c != (module, cls))}
    return members, read


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


def _cached_functions() -> set[tuple[str, str]]:
    """(module, function) for every function of src/pntap decorated with
    lru_cache or cache."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    d = d.func if isinstance(d, ast.Call) else d
                    if getattr(d, "id", getattr(d, "attr", None)) in ("lru_cache", "cache"):
                        out.add((path.stem, node.name))
    return out


def test_every_field_and_method_has_a_reader():
    # a value only tests read joins FIELDS_TESTS_ONLY with its reason; one nothing reads goes
    members, read = _member_reads()
    unread = sorted(members - read - set(FIELDS_TESTS_ONLY))
    assert unread == [], f"fields and methods no program code reads: {unread}"


def test_fields_tests_only_list_holds_only_such_fields():
    # an entry that gains a program reader, or whose field is gone, leaves the list
    members, read = _member_reads()
    assert sorted(set(FIELDS_TESTS_ONLY) - members) == [], "named fields that are gone"
    assert sorted(set(FIELDS_TESTS_ONLY) & read) == [], "named fields that program code reads"


def test_every_cache_serves_its_traffic(capsys):
    # a cache joins CACHES with the program traffic that hits it, or goes
    assert sorted(_cached_functions() ^ set(CACHES)) == [], "caches not named, or named and gone"
    missed = []
    for (module, name), traffic in CACHES.items():
        cached = getattr(importlib.import_module(f"pntap.{module}"), name)
        cached.cache_clear()
        traffic()
        if cached.cache_info().hits < 1:
            missed.append((module, name, traffic.__name__))
    assert missed == [], f"caches their traffic never hits: {missed}"
