"""Public surface: every exported name exists, so star imports keep working."""

import importlib

import pytest

MODULES = ["joinlab"] + [f"joinlab.{m}" for m in ("f2core", "ledger", "qsim", "joins", "reductions", "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_attributes(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
