"""Public surface: a name without a leading underscore is public, and nothing else declares it.

No module keeps an ``__all__`` and the package re-exports nothing, so
names are imported from their modules.  Every public module-level name and
every public method has a caller outside tests, or an entry below that
names the check it is kept for.
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
