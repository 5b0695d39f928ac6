"""The half-spectrum layout every partition stores, over random 1D-3D
power-of-two grids, tensorial, MRA and packet partitions.

A real field's spectrum is Hermitian, so the solvers keep only the modes
with last-axis index <= N_last/2 (``numpy.fft.rfftn``'s half grid), in the
partition's band-major order, and count every value twice in a norm except
on the self-conjugate planes k_last = 0 and N_last/2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.generate import random_field
from shannop.grid import forward_half_transform
from shannop.solver import _norm

from conftest import half_layout_cut, reference_wavevectors, wavevector_table

SETTINGS = settings(max_examples=30, deadline=None)


def exps_of(max_exp):
    return st.integers(1, 3).flatmap(
        lambda dim: st.tuples(*([st.integers(2, max_exp)] * dim))
    )


def build(exps, scheme, depth):
    if scheme == "mra":
        exps = (exps[0],) * len(exps)  # MRA needs an isotropic grid
        part = sp.build_mra_partition(sp.GridSpec(tuple(2**e for e in exps)))
    else:
        part = sp.build_tensorial_partition(sp.GridSpec(tuple(2**e for e in exps)))
    return sp.refine_packet(part, depth)


partitions = st.builds(
    build, exps_of(6), st.sampled_from(["tensorial", "mra"]), st.integers(0, 2)
)


def full_positions(perm, grid):
    """Row-major full-grid positions of half-grid positions."""
    n, h = grid.sizes[-1], grid.half_sizes[-1]
    return (perm // h) * n + perm % h


@SETTINGS
@given(part=partitions)
def test_half_layout_lists_each_half_grid_position_once(part):
    grid = part.grid
    half = part.half
    assert half.perm.dtype == np.int32
    assert np.array_equal(np.sort(half.perm), np.arange(np.prod(grid.half_sizes)))

    # Its order is the full layout's with the other half left out.
    n = grid.sizes[-1]
    full = part.perm
    kept = full[full % n <= n // 2]
    assert np.array_equal(full_positions(half.perm, grid), kept)

    # The wavevectors of the layout, on the band and the dc parts alike
    # (dc rows include Nyquist planes), and the self-conjugate positions,
    # the last-axis planes 0 and N_last/2.
    wavevectors = wavevector_table(grid)[kept]
    assert np.array_equal(grid.wavevectors(half.perm, half=True).T, wavevectors)
    # Band i's segment holds its modes with k_last >= 0 (no band mode sits
    # on a Nyquist plane), in row-major sub-box order.
    assert len(half.offsets) == len(part.bands) + 1
    for band, lo, hi in zip(part.bands, half.offsets, half.offsets[1:]):
        K = reference_wavevectors(band)
        assert np.array_equal(wavevectors[lo:hi], K[K[:, -1] >= 0])
    dc = part.dc_indices
    assert len(half.perm) - half.offsets[-1] == np.count_nonzero(dc % n <= n // 2)
    last = wavevectors[:, -1]
    sc = np.flatnonzero((last == 0) | (last == grid.nyquist(grid.dim - 1)))
    assert np.array_equal(half.sc, sc)


schemes = st.sampled_from(["tensorial", "mra"])


@settings(max_examples=40, deadline=None)
@given(
    part=st.one_of(
        st.builds(build, exps_of(6), schemes, st.integers(0, 2)),
        st.builds(build, exps_of(5), schemes, st.just(3)),
        # Refinement chains: a refined partition refined again.
        st.builds(sp.refine_packet, st.builds(build, exps_of(5), schemes,
                                              st.integers(1, 2)),
                  st.integers(1, 2)),
    ),
    chunk=st.sampled_from([7, 64, 1000, 1 << 16]),
)
def test_half_layout_is_the_cut_of_the_full_layout(part, chunk):
    """The builders write the half layout straight from their per-axis
    pieces; it must equal the full layout, written on request, cut to the
    half grid, whatever chunks the cut takes: chunks that start inside a
    band, at a band's start or in the dc set, or hold several whole
    bands.  The dc positions the partition derives from the half layout
    are the full layout's."""
    perm, offsets, sc = half_layout_cut(part, chunk)
    half = part.half
    for got, want in [(half.perm, perm), (half.offsets, offsets), (half.sc, sc)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert half.perm.dtype == np.int32
    full = part.perm
    assert np.array_equal(part.dc_indices, full[part.offsets[-1] :])


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_half_layout_does_not_depend_on_its_chunk(chunk):
    """Fixed cases of the property above, down to one position a chunk:
    the cut of the full layout gives the builders' half layout whatever
    its chunk size."""
    parts = [build((3, 4, 2), "tensorial", 1), build((5, 5), "mra", 2),
             build((6,), "mra", 0)]
    for part in parts:
        perm, offsets, sc = half_layout_cut(part, chunk)
        half = part.half
        for got, want in [(half.perm, perm), (half.offsets, offsets),
                          (half.sc, sc)]:
            assert got.dtype == want.dtype and np.array_equal(got, want)


@SETTINGS
@given(part=partitions, components=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_weighted_half_norm_is_the_full_spectrum_norm(part, components, seed):
    field = random_field(part.grid, components, seed=seed)
    half = part.half
    flat = forward_half_transform(field).reshape(components, -1)
    full = sp.forward_transform(field).l2_norm()
    assert abs(_norm(flat[:, half.perm], half.sc) - full) <= 1e-13 * full
    # The same weights in natural half-grid order, by last-axis plane.
    planes = [0, part.grid.sizes[-1] // 2]
    assert abs(_norm(forward_half_transform(field), planes) - full) <= 1e-13 * full


@settings(max_examples=25, deadline=None)
@given(
    part=st.one_of(
        st.builds(build, exps_of(5), st.just("mra"), st.integers(0, 1)),
        st.builds(build, st.tuples(st.integers(2, 8)),
                  st.sampled_from(["tensorial", "mra"]), st.integers(0, 2)),
    ),
    seed=st.integers(0, 2**32 - 1),
    log_alpha=st.floats(0.0, 6.0),
)
def test_richardson_matches_exact_solve_on_mra_and_1d_partitions(
    part, seed, log_alpha
):
    """MRA bands of type 0 on the last axis hold self-conjugate modes, so
    weight 1 occurs inside bands; in 1D the dc set is the two
    self-conjugate modes."""
    cfg = sp.SolveConfig(tol=1e-10)
    alpha = 10.0**log_alpha
    sym = sp.ImplicitLaplacian(alpha)
    pc = sp.implicit_laplacian_precond(alpha, part)
    v = random_field(part.grid, 1, seed=seed)
    u, rep = sp.richardson_solve(sym, pc, v, cfg)
    assert rep.converged
    assert max(rep.ratios(), default=0.0) <= rep.theoretical_rate + 1e-9
    ref = sp.exact_solve(sym, v)
    assert (u - ref).l2_norm() <= 10 * cfg.tol * ref.l2_norm()
