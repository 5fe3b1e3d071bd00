"""Public surface: every exported name exists, so star imports keep working."""

import ast
import importlib
from pathlib import Path

import pytest

import joinlab

MODULES = ["joinlab"] + [f"joinlab.{m}" for m in ("f2core", "ledger", "qsim", "joins", "reductions", "cli")]
ROOT = Path(__file__).resolve().parents[1]


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


def _public_methods(classes=("BitVector", "BitMatrix")):
    """(class, method, is a classmethod) for each public method of the packed-bit classes."""
    tree = ast.parse((ROOT / "src" / "joinlab" / "f2core.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
                    yield node.name, fn.name, "classmethod" in decorators


def test_packed_bit_methods_have_callers_outside_tests():
    """A public BitVector/BitMatrix method is read somewhere in src/ or perfbench/, tests aside.

    Instance methods match by attribute name, so one named like a builtin's
    method (``get``, say) would pass on any dict read.  Class methods must be read off
    their class (or ``cls``), or named as ``"Class.method"`` the way
    perfbench's tracer names what it wraps.
    """
    reads, on_class = set(), set()
    for path in sorted((ROOT / "src" / "joinlab").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                reads.add(node.attr)
                if isinstance(node.value, ast.Name):
                    on_class.add((node.value.id, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.count(".") == 1:
                on_class.add(tuple(node.value.split(".")))
    unused = [
        f"{cls}.{name}"
        for cls, name, is_class in _public_methods()
        if not ((cls, name) in on_class or ("cls", name) in on_class if is_class else name in reads)
    ]
    assert not unused, f"public methods only tests call: {unused}"


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
    the packed-bit methods above.
    """
    statements, defined = [], []
    for path in sorted((ROOT / "src" / "joinlab").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
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
