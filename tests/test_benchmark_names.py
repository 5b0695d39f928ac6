"""The program names the benchmark harness binds by name still resolve.

``perfbench/run.py`` stamps each command's first compute call by a
``"shannop.MODULE:FUNCTION"`` string, and ``perfbench/child.py`` wraps the
methods in ``TRACED_METHODS``.  Both are read as text: importing ``run.py``
would set the BLAS thread variables of this process.  ``child.py`` sets
none, so it is loaded by path to feed its ``Record`` every result shape a
traced run hands it.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import shannop as sp
from shannop.generate import random_field

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


def test_record_reads_every_traced_result(tmp_path):
    spec = importlib.util.spec_from_file_location("child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    rec = child.Record(str(tmp_path / "record.json"))
    grid = sp.GridSpec((16, 16))
    base = sp.build_tensorial_partition(grid)
    part = sp.refine_packet(base, 1)
    rec.observe("shannop.bands.build_mra_partition", (grid,),
                sp.build_mra_partition(grid))
    rec.observe("shannop.bands.build_tensorial_partition", (grid,), base)
    rec.observe("shannop.bands.refine_packet", (base, 1), part)
    assert rec.partition == (len(part.ids), len(part.dc_indices))
    rec.observe("shannop.bands.build_mra_partition", (grid,),
                sp.build_mra_partition(grid))
    rec.observe("shannop.bands.build_tensorial_partition", (grid, 1),
                sp.build_tensorial_partition(grid, 1))
    assert rec.partition == (len(part.ids), len(part.dc_indices))

    sym = sp.ImplicitLaplacian(1e6)
    pc = sp.implicit_laplacian_precond(1e6, part)
    rec.observe("shannop.precond.BandPreconditioner.rate_bounds", (pc,),
                pc.rate_bounds())
    rec.observe("shannop.precond.leray_rate_bounds", (part,),
                sp.leray_rate_bounds(part))
    rec.observe("shannop.precond.rate_implicit_laplacian", (1e6, 1.0, 2.0),
                sp.rate_implicit_laplacian(1e6, 1.0, 2.0))
    rec.observe("shannop.precond.rate_kantorovich", (1.0, 2.0),
                sp.rate_kantorovich(1.0, 2.0))
    band = part.band(part.ids[0])
    rec.observe("shannop.precond.sampled_contraction", (sym, pc, band),
                sp.sampled_contraction(sym, pc, band))
    v = random_field(grid, 1, seed=1)
    rec.observe("shannop.solver.richardson_solve", (sym, pc, v),
                sp.richardson_solve(sym, pc, v))
    u = random_field(grid, 2, seed=2)
    result = sp.helmholtz_decompose(u, part)
    rec.observe("shannop.solver.helmholtz_decompose", (u, part), result)
    assert rec.report == (result[-1].iterations, result[-1].fitted_rate)
    assert rec.counts == {"precond.sampled_contraction_calls": 1}
    rec.dump(returncode=0)
