"""Public surface: a name without a leading underscore is public, and nothing else declares it.

No module keeps an ``__all__`` and the package re-exports nothing, so
names are imported from their modules.  Every public module-level name,
public method and public constructor has a caller outside tests, and
every default parameter of one is passed by such a caller, or an entry
below names the check it is kept for.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import joinlab

MODULES = ["joinlab"] + [f"joinlab.{m}" for m in ("f2core", "ledger", "qsim", "joins", "reductions", "cli")]
ROOT = Path(__file__).resolve().parents[1]
# the code whose reads count as callers: src/joinlab and perfbench, tests aside
CODE = sorted((ROOT / "src" / "joinlab").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_attributes(name):
    """No module narrows its public names with ``__all__``, and the package holds only its submodules.

    A star import then binds every global without a leading underscore.
    """
    module = importlib.import_module(name)
    assert "__all__" not in vars(module)
    if module is joinlab:
        # importing joinlab.<m> binds <m> on the package; anything else there is a re-export
        extra = {
            attr
            for attr, value in vars(joinlab).items()
            if not (attr.startswith("__") and attr.endswith("__"))
            and getattr(value, "__name__", None) != f"joinlab.{attr}"
        }
        assert not extra, f"the package holds more than its submodules and dunders: {sorted(extra)}"


# public methods that only tests reach, each kept for the test that needs it
TEST_ONLY_METHODS = {
    "ledger.CommLedger.amounts": "the ledger digests of test_pinned_behaviour.py hash every amount",
    "ledger.CommLedger.report": "test_acceptance.py::test_criterion_8_invariant_suite checks its totals "
    "against the ledger's bits and qubits",
}


def _attribute_reads(node) -> tuple[Counter, Counter]:
    """Attribute names read under ``node``, and (owner, name) pairs for reads off a name or an attribute."""
    names, owned = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
            owner = getattr(sub.value, "id", None) or getattr(sub.value, "attr", None)
            if owner:
                owned[owner, sub.attr] += 1
    return names, owned


def test_public_methods_have_callers_outside_tests():
    """A public method or property of a ``joinlab`` class is read in code of src/ or perfbench/, tests aside.

    Reads inside the method's own body do not count, and neither do strings
    such as the span names perfbench's tracer wraps by.  Instance methods and
    properties match by attribute name, so one named like a builtin's method
    (``get``, say) would pass on any dict read.  Class and static methods
    must be read off their class (``Class.method`` or ``module.Class.method``)
    or off ``cls``.
    """
    trees = {path: ast.parse(path.read_text()) for path in CODE}
    names, owned = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_owned = _attribute_reads(tree)
        names += tree_names
        owned += tree_owned
    methods = [
        (f"{path.stem}.{cls.name}.{fn.name}", cls.name, fn)
        for path, tree in trees.items()
        if path.parent.name == "joinlab"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    ]
    uncalled = set()
    for qualified, cls, fn in methods:
        own_names, own_owned = _attribute_reads(fn)
        if {d.id for d in fn.decorator_list if isinstance(d, ast.Name)} & {"classmethod", "staticmethod"}:
            called = any(owned[owner, fn.name] > own_owned[owner, fn.name] for owner in (cls, "cls"))
        else:
            called = names[fn.name] > own_names[fn.name]
        if not called:
            uncalled.add(qualified)
    assert not uncalled - TEST_ONLY_METHODS.keys(), f"public methods only tests call: {sorted(uncalled)}"
    # an allowed name that gains a caller leaves the list
    assert uncalled == TEST_ONLY_METHODS.keys()


# public functions that only tests reach, each kept for the check that needs it
TEST_ONLY_FUNCTIONS = {
    "qsim.grover_search": "the qsim digest in test_pinned_behaviour.py pins its draws and charges",
    "joins.freivalds_round": "acceptance criterion 6 checks one probe round against the dense product",
}


def _uncalled_top_level(kinds) -> set[str]:
    """Public top-level names of src/joinlab defined by a statement of ``kinds`` that code never reads.

    A name counts where it is read as a name or an attribute in a top-level
    statement of src/ or perfbench/ other than its own definition, so
    recursion and imports do not count, and neither do strings such as the
    span names perfbench's tracer wraps by.  Matching is by name, as for
    the public methods above.
    """
    statements, defined = [], []
    for path in CODE:
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            statements.append((stmt, names))
            if path.parent.name != "joinlab" or not isinstance(stmt, kinds):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            else:
                assigned = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                targets = [target.id for target in assigned if isinstance(target, ast.Name)]
            defined += [(f"{path.stem}.{name}", name, stmt) for name in targets if not name.startswith("_")]
    return {
        qualified
        for qualified, name, stmt in defined
        if not any(other is not stmt and name in names for other, names in statements)
    }


def test_public_functions_have_callers_outside_tests():
    """A public module-level function of ``joinlab`` is named in code of src/ or perfbench/, tests aside."""
    uncalled = _uncalled_top_level(ast.FunctionDef)
    assert not uncalled - TEST_ONLY_FUNCTIONS.keys(), f"public functions only tests call: {sorted(uncalled)}"
    # an allowed name that gains a caller leaves the list
    assert uncalled == TEST_ONLY_FUNCTIONS.keys()


def test_public_classes_and_constants_have_callers_outside_tests():
    """A public module-level class or constant of ``joinlab`` is named in code of src/ or perfbench/, tests aside."""
    uncalled = _uncalled_top_level((ast.ClassDef, ast.Assign, ast.AnnAssign))
    assert not uncalled, f"public classes and constants only tests read: {sorted(uncalled)}"


def test_public_constructors_have_callers_outside_tests():
    """A public ``joinlab`` class with its own ``__init__`` is constructed in code of src/ or perfbench/, tests aside.

    A construction calls the class by name, bare or as an attribute
    (``qsim.BipartiteGraph(...)``), or calls ``cls`` in one of the class's
    own class methods.  Otherwise the class is read only for its other
    members, and its constructor is an API that only tests use.
    """
    trees = {path: ast.parse(path.read_text()) for path in CODE}
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    uncalled = set()
    for path, tree in trees.items():
        if path.parent.name != "joinlab":
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            methods = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef)]
            if "__init__" not in {fn.name for fn in methods}:
                continue
            by_cls = any(
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "cls"
                for fn in methods
                if any(getattr(d, "id", None) == "classmethod" for d in fn.decorator_list)
                for node in ast.walk(fn)
            )
            if cls.name not in called and not by_cls:
                uncalled.add(f"{path.stem}.{cls.name}")
    assert not uncalled, f"public classes whose constructor only tests call: {sorted(uncalled)}"


# default parameters that no caller outside tests passes, each kept for the check that needs it
TEST_ONLY_DEFAULTS = {
    "cli.fit_exponent": (("n_boot",), "acceptance criteria 3 and 4 fit with a 100-sample bootstrap"),
    "cli.main": (("argv",), "test_cli.py drives the commands in-process; the console script passes none"),
    "qsim.disj": (("plan",), "acceptance criterion 4 runs disj under fixed plans"),
    "qsim.grover_search": (
        ("phase", "directions", "stats"),
        "the qsim digest hashes stats, and test_qsim.py recomputes charges under its own phase and directions",
    ),
}


def _defaults(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each parameter of ``fn`` that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(p, arg.arg) for p, arg in enumerate(positional) if p >= first]
    return out + [(None, arg.arg) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]


def test_default_parameters_are_passed_outside_tests():
    """A default parameter of a public ``joinlab`` function or method is passed by code of src/ or perfbench/.

    A call passes it by keyword, by position, or by ``*`` or ``**``
    unpacking.  Calls match by the name called, bare or as an attribute;
    a method called off an instance does not pass ``self``, so its
    positions shift by one.  A default that no caller sets is a constant,
    unless an entry above names the check it is kept for.
    """
    trees = {path: ast.parse(path.read_text()) for path in CODE}
    calls = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    ]
    # (qualified name, definition, 1 where a call leaves self or cls implicit)
    functions = []
    for path, tree in trees.items():
        if path.parent.name != "joinlab":
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                functions.append((f"{path.stem}.{stmt.name}", stmt, 0))
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for fn in stmt.body:
                    if isinstance(fn, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                        functions.append((f"{path.stem}.{stmt.name}.{fn.name}", fn, 0 if static else 1))
    unpassed = {}
    for qualified, fn, bound in functions:
        if fn.name.startswith("_"):
            continue
        mine = [c for c in calls if fn.name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))]
        for position, name in _defaults(fn):
            passed = any(
                any(k.arg in (name, None) for k in c.keywords)
                or any(isinstance(a, ast.Starred) for a in c.args)
                or (position is not None and len(c.args) + bound > position)
                for c in mine
            )
            if not passed:
                unpassed.setdefault(qualified, []).append(name)
    allowed = {qualified: list(names) for qualified, (names, _) in TEST_ONLY_DEFAULTS.items()}
    assert unpassed == allowed, f"default parameters only tests pass: {unpassed}"
