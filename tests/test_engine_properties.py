"""Property tests of the sweep engine against the exact modewise oracles,
over random power-of-two 2D/3D grids, fields and packet depths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.generate import random_field
from shannop.precond import band_omega, leray_lambda
from shannop.solver import spectral_divergence

from conftest import reference_wavevectors

CFG = sp.SolveConfig(tol=1e-10)
SETTINGS = settings(max_examples=25, deadline=None)

grids = st.integers(2, 3).flatmap(
    lambda dim: st.tuples(*([st.integers(2, 6)] * dim))
).map(lambda exps: sp.GridSpec(tuple(2**e for e in exps)))
seeds = st.integers(0, 2**32 - 1)
depths = st.integers(0, 1)


def partition(grid, depth):
    return sp.refine_packet(sp.build_tensorial_partition(grid), depth)


@SETTINGS
@given(grid=grids, seed=seeds, depth=depths)
def test_helmholtz_matches_exact_leray(grid, seed, depth):
    part = partition(grid, depth)
    u = random_field(grid, grid.dim, seed=seed)
    unorm = u.l2_norm()
    udiv, ucurl, rep = sp.helmholtz_decompose(u, part, CFG)
    assert rep.converged
    ediv, ecurl = sp.exact_leray(u)
    assert (udiv - ediv).l2_norm() <= 10 * CFG.tol * unorm
    assert (ucurl - ecurl).l2_norm() <= 10 * CFG.tol * unorm

    # After sweep 1 every mode contracts by its own eigenvalue lambda.
    lam_max = max(
        float(np.max(np.abs(leray_lambda(
            band_omega(band), reference_wavevectors(band)
        ))))
        for band in part.bands
    )
    assert all(r <= lam_max * (1 + 1e-12) for r in rep.ratios()[1:])

    # The last divergence entry measures the returned field.
    measured = np.linalg.norm(spectral_divergence(sp.forward_transform(udiv)))
    kmax = max(grid.sizes) / 2
    assert len(rep.divergence_history) == rep.iterations
    assert abs(rep.divergence_history[-1] - measured) <= 1e-15 * kmax * unorm


@SETTINGS
@given(
    grid=grids,
    seed=seeds,
    depth=depths,
    log_alpha=st.floats(0.0, 6.0),
)
def test_richardson_matches_exact_solve(grid, seed, depth, log_alpha):
    alpha = 10.0**log_alpha
    sym = sp.ImplicitLaplacian(alpha)
    pc = sp.implicit_laplacian_precond(alpha, partition(grid, depth))
    v = random_field(grid, 1, seed=seed)
    u, rep = sp.richardson_solve(sym, pc, v, CFG)
    assert rep.converged
    assert max(rep.ratios()) <= rep.theoretical_rate + 1e-9
    ref = sp.exact_solve(sym, v)
    assert (u - ref).l2_norm() <= 10 * CFG.tol * ref.l2_norm()
