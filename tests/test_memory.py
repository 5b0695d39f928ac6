"""Heap bounds, measured with tracemalloc, on partitions, both solvers,
band analysis, the full and half-spectrum transforms and SWF1 writes.
tracemalloc counts numpy's data buffers, so the peaks are deterministic
for a given input shape."""

import math
import tracemalloc

import numpy as np
import pytest

import shannop as sp
from shannop.bands import gather_rows
from shannop.generate import random_field
from shannop.grid import (
    forward_half_transform,
    half_sum_squares,
    inverse_half_transform,
)
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
    assert peak <= 4.6 * nbytes, f"heap peak {peak / nbytes:.2f}x the input"


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("sizes", [(512, 512), (64, 64, 64)], ids=["512sq", "64cube"])
def test_richardson_heap_peak_is_bounded_by_the_input(sizes, depth):
    grid = sp.GridSpec(sizes)
    part = sp.refine_packet(sp.build_tensorial_partition(grid), depth)
    pc = sp.implicit_laplacian_precond(1e6, part)
    v = random_field(grid, 1, seed=7)
    nbytes = v.values.nbytes
    peak = traced_peak(sp.richardson_solve, sp.ImplicitLaplacian(1e6), pc, v)
    assert peak <= 2.9 * nbytes, f"heap peak {peak / nbytes:.2f}x the input"


@pytest.mark.parametrize("depth", [0, 1])
def test_matrix_symbol_richardson_heap_peak_is_bounded_by_the_input(depth):
    # G is one real 3x3 matrix per half-grid mode, 1.55x the input alone.
    grid = sp.GridSpec((64, 64, 64))
    part = sp.refine_packet(sp.build_tensorial_partition(grid), depth)
    sym = sp.Product(sp.Identity(3), sp.ImplicitLaplacian(1e6))
    entries = sp.implicit_laplacian_precond(1e6, part).entries * np.eye(3)
    pc = sp.given_entries(sym, part, entries)
    v = random_field(grid, 3, seed=7)
    nbytes = v.values.nbytes
    peak = traced_peak(sp.richardson_solve, sym, pc, v)
    assert peak <= 4.2 * nbytes, f"heap peak {peak / nbytes:.2f}x the input"


def decompose(field, part):
    """The library path of ``shannop decompose`` after the partition: the
    half transform, analysis, both energies, synthesis and the
    reconstruction difference and its norm."""
    spec = forward_half_transform(field)
    banded = sp.analyze(spec, part)
    planes = [0, part.grid.sizes[-1] // 2]
    half_sum_squares(spec, planes)
    banded.total_energy()
    recon = sp.synthesize(banded)
    recon -= spec
    half_sum_squares(recon, planes)


@pytest.mark.parametrize("components", [1, 3])
@pytest.mark.parametrize("depth", [0, 2])
def test_decompose_heap_peak_is_bounded_by_the_input(depth, components):
    # The half spectrum, its band-major copy and the synthesized half
    # spectrum are each 1.03x the input; the partition holds the half
    # layout before the call.
    grid = sp.GridSpec((64, 64, 64))
    part = sp.refine_packet(sp.build_tensorial_partition(grid), depth)
    field = random_field(grid, components, seed=9)
    nbytes = field.values.nbytes
    peak = traced_peak(decompose, field, part)
    assert peak <= 3.5 * nbytes, f"heap peak {peak / nbytes:.2f}x the input"


@pytest.mark.parametrize("depth", [0, 2])
def test_a_partition_holds_its_half_layout_and_little_else(depth):
    # A full-grid layout, 4 bytes per grid mode, would be 1.9x the half
    # layout.  Besides the half layout a partition holds 8 bytes per
    # self-conjugate position and, per band, its id, index entry, edges
    # and two offsets, about 270 bytes at depth 2.
    grid = sp.GridSpec((64, 64, 64))
    base = sp.build_tensorial_partition(grid)  # also warms numpy's caches
    tracemalloc.start()
    try:
        if depth:
            part = sp.refine_packet(base, depth)
        else:
            part = sp.build_tensorial_partition(grid)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    layout = 4 * math.prod(grid.half_sizes)
    bound = 1.1 * layout + 8 * len(part.half.sc) + 300 * len(part.ids) + 16384
    assert held <= bound, f"partition holds {held / layout:.2f}x its half layout"


def test_gather_rows_writes_its_output_and_little_else():
    # np.take copies an int32 index array to intp whole, half the output's
    # bytes for one complex row, unless it is given the indices in blocks.
    grid = sp.GridSpec((64, 64, 64))
    perm = sp.build_tensorial_partition(grid).half.perm
    flat = forward_half_transform(random_field(grid, 1, seed=5)).reshape(1, -1)
    nbytes = flat.nbytes  # the gathered copy it returns
    peak = traced_peak(gather_rows, flat, perm)
    assert peak <= 1.05 * nbytes, f"heap peak {peak / nbytes:.2f}x the output"


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
