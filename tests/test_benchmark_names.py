"""The program names the benchmark harness binds by name still resolve.

``perfbench/run.py`` stamps each command's first compute call by a
``"shannop.MODULE:FUNCTION"`` string, and ``perfbench/child.py`` wraps the
methods in ``TRACED_METHODS``.  Both are read as text: importing ``run.py``
would set the BLAS thread variables of this process.
"""

import ast
import importlib
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def stamp_targets():
    text = (PERFBENCH / "run.py").read_text()
    return sorted(set(re.findall(r'"shannop\.(\w+):(\w+)"', text)))


def traced_methods():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED_METHODS"
            for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("child.py defines no TRACED_METHODS")


def test_stamped_functions_resolve():
    targets = stamp_targets()
    assert targets
    for module, func in targets:
        obj = getattr(importlib.import_module(f"shannop.{module}"), func, None)
        assert callable(obj), f"shannop.{module}:{func}"


def test_traced_methods_resolve():
    methods = traced_methods()
    assert methods
    for module, cls, meth in methods:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, meth, None)), f"{module}.{cls}.{meth}"
