"""Public surface: every exported name exists, so star imports keep working."""

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
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_run_bmm_entry_point_is_exported():
    assert joinlab.bmm_with_trace is joinlab.joins.bmm_with_trace


# public methods that only tests reach, each kept for the test that needs it
TEST_ONLY_METHODS = {
    "qsim.GroverPlan.fixed": "test_acceptance.py::test_criterion_4_exact_grover_and_witness_distribution "
    "runs fixed-iteration plans against the statevector curve",
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


def test_public_functions_have_callers_outside_tests():
    """A public module-level function of ``joinlab`` is named in code of src/ or perfbench/, tests aside.

    A name counts where it is read as a name or an attribute in a top-level
    statement other than its own definition, so recursion and imports do
    not count, and neither do strings such as ``__all__`` entries or the
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
            if path.parent.name == "joinlab" and isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                defined.append((f"{path.stem}.{stmt.name}", stmt))
    uncalled = {
        qualified
        for qualified, fn in defined
        if not any(other is not fn and fn.name in names for other, names in statements)
    }
    assert not uncalled - TEST_ONLY_FUNCTIONS.keys(), f"public functions only tests call: {sorted(uncalled)}"
    # an allowed name that gains a caller leaves the list
    assert uncalled == TEST_ONLY_FUNCTIONS.keys()
