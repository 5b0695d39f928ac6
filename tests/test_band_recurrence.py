"""The per-band coefficient path shared by the Richardson plan and the
sampled certificates, and the grid invariant it relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.grid import evaluate_on_grid
from shannop.precond import given_entries
from shannop.solver import _richardson_plan


def build(grid, scheme, depth):
    if scheme == "mra":
        part = sp.build_mra_partition(grid)
    else:
        part = sp.build_tensorial_partition(grid)
    return sp.refine_packet(part, depth)


def segments(half):
    """Slices of each half band's modes in the plan's band-major order."""
    return [slice(lo, hi) for lo, hi in zip(half.offsets, half.offsets[1:])]


def full_grid_positions(half, grid):
    """Row-major full-grid positions of the modes the half layout names."""
    n, h = grid.sizes[-1], grid.half_sizes[-1]
    return (half.perm // h) * n + half.perm % h


def diagonal_ilap_pair(part, alphas=(10.0, 1e3)):
    """A 2x2 diagonal matrix symbol with per-band diagonal constant entries."""
    sym = sp.Sum(
        sp.Product(sp.Delta(1, 1, 2), sp.ImplicitLaplacian(alphas[0])),
        sp.Product(sp.Delta(2, 2, 2), sp.ImplicitLaplacian(alphas[1])),
    )
    entries = []
    for band in part.bands:
        a, b, _ = sp.band_extrema(band, mode_exact=False)
        omega_sq = 0.5 * (a * a + b * b)
        entries.append(np.diag([1.0 + alpha * omega_sq for alpha in alphas]))
    return sym, given_entries(sym, part, entries)


schemes = st.sampled_from(["tensorial", "mra"])


@settings(max_examples=40, deadline=None)
@given(
    exps=st.integers(1, 3).flatmap(
        lambda dim: st.tuples(*([st.integers(2, 5)] * dim))
    ),
    scheme=schemes,
    depth=st.integers(0, 2),
)
def test_no_band_mode_on_a_nyquist_plane(exps, scheme, depth):
    if scheme == "mra":
        exps = (exps[0],) * len(exps)  # MRA needs an isotropic grid
    grid = sp.GridSpec(tuple(2**e for e in exps))
    part = build(grid, scheme, depth)
    for band in part.bands:
        for i in range(grid.dim):
            assert grid.nyquist(i) not in band.axis_wavevectors(i)


@pytest.mark.parametrize("scheme,depth", [
    ("tensorial", 0), ("tensorial", 1), ("mra", 0),
])
def test_certificate_reads_the_scalar_plan(scheme, depth):
    part = build(sp.GridSpec((32, 32)), scheme, depth)
    sym = sp.ImplicitLaplacian(1e6)
    pc = sp.implicit_laplacian_precond(1e6, part)
    half = part.half
    g, _, _ = _richardson_plan(sym, pc)
    assert g.ndim == 1
    for band, seg in zip(part.bands, segments(half)):
        assert sp.sampled_contraction(sym, pc, band) == np.abs(g[seg]).max()


def test_certificate_reads_the_matrix_plan():
    part = build(sp.GridSpec((32, 32)), "tensorial", 0)
    sym, pc = diagonal_ilap_pair(part)
    half = part.half
    g, _, _ = _richardson_plan(sym, pc)
    assert g.shape[1:] == (2, 2)
    for band, seg in zip(part.bands, segments(half)):
        sv = np.linalg.svd(g[seg], compute_uv=False)[:, 0].max()
        assert sp.sampled_contraction(sym, pc, band) == sv


@pytest.mark.parametrize("sizes", [(32, 32), (16, 16, 16)])
@pytest.mark.parametrize("scheme,depth", [
    ("tensorial", 0), ("tensorial", 1), ("mra", 0),
])
def test_plan_matches_full_grid_evaluation(sizes, scheme, depth):
    grid = sp.GridSpec(sizes)
    part = build(grid, scheme, depth)
    sym = sp.ImplicitLaplacian(1e4)
    pc = sp.implicit_laplacian_precond(1e4, part)
    half = part.half
    g, pbands, pdc = _richardson_plan(sym, pc)
    p = np.concatenate(
        [np.full(seg.stop - seg.start, pk) for pk, seg in zip(pbands, segments(half))]
        + [pdc]
    )
    vals, _ = evaluate_on_grid(sym, grid)
    assert np.array_equal(g, 1.0 - vals[full_grid_positions(half, grid), 0, 0] * p)
