"""Heap bounds, measured with tracemalloc, on both solvers, the full and
half-spectrum transforms and SWF1 writes.  tracemalloc counts numpy's data
buffers, so the peaks are deterministic for a given input shape."""

import math
import tracemalloc

import pytest

import shannop as sp
from shannop.generate import random_field
from shannop.grid import forward_half_transform, inverse_half_transform
from shannop.io import write_field


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while ``fn(*args)`` runs, results included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("sizes", [(512, 512), (64, 64, 64)], ids=["512sq", "64cube"])
def test_helmholtz_heap_peak_is_bounded_by_the_input(sizes, depth):
    grid = sp.GridSpec(sizes)
    part = sp.refine_packet(sp.build_tensorial_partition(grid), depth)
    u = random_field(grid, grid.dim, seed=7)
    nbytes = u.values.nbytes
    peak = traced_peak(sp.helmholtz_decompose, u, part)
    assert peak <= 4.8 * nbytes, f"heap peak {peak / nbytes:.2f}x the input"


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("sizes", [(512, 512), (64, 64, 64)], ids=["512sq", "64cube"])
def test_richardson_heap_peak_is_bounded_by_the_input(sizes, depth):
    grid = sp.GridSpec(sizes)
    part = sp.refine_packet(sp.build_tensorial_partition(grid), depth)
    pc = sp.implicit_laplacian_precond(1e6, part)
    v = random_field(grid, 1, seed=7)
    nbytes = v.values.nbytes
    peak = traced_peak(sp.richardson_solve, sp.ImplicitLaplacian(1e6), pc, v)
    assert peak <= 3.2 * nbytes, f"heap peak {peak / nbytes:.2f}x the input"


def test_forward_transform_writes_its_output_and_little_else():
    grid = sp.GridSpec((64, 64, 64))
    field = random_field(grid, 1, seed=5)
    nbytes = grid.npoints * 16  # the complex spectrum it returns
    peak = traced_peak(sp.forward_transform, field)
    assert peak <= 1.25 * nbytes, f"heap peak {peak / nbytes:.2f}x the output"


def test_forward_half_transform_runs_its_stages_in_place():
    grid = sp.GridSpec((64, 64, 64))
    field = random_field(grid, 2, seed=5)
    nbytes = 2 * math.prod(grid.half_sizes) * 16  # the half spectrum it returns
    peak = traced_peak(forward_half_transform, field)
    assert peak <= 1.1 * nbytes, f"heap peak {peak / nbytes:.2f}x the output"


def test_inverse_half_transform_runs_its_stages_in_its_argument():
    grid = sp.GridSpec((64, 64, 64))
    modes = forward_half_transform(random_field(grid, 2, seed=6))
    nbytes = 2 * grid.npoints * 8  # the real samples it returns
    # RealField's finiteness check adds a bool mask, 1/8 of the samples.
    peak = traced_peak(inverse_half_transform, grid, modes)
    assert peak <= 1.25 * nbytes, f"heap peak {peak / nbytes:.2f}x the output"


def test_write_field_streams_the_samples(tmp_path):
    grid = sp.GridSpec((64, 64, 64))
    field = random_field(grid, 1, seed=3)
    path = tmp_path / "f.swf"
    nbytes = field.values.nbytes
    peak = traced_peak(write_field, field, path)
    assert peak < nbytes / 2, f"writing allocated {peak / nbytes:.2f}x the samples"
    assert path.stat().st_size == 24 + nbytes
