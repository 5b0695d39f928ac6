"""The Richardson sweep on per-mode magnitudes against the complex-vector
recurrence it replaces, rebuilt here from ``_richardson_plan``: the same
sweep counts, and residuals and outputs equal to roundoff; and the solve's
exact equivariance under power-of-two scaling of its input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.generate import random_field
from shannop.grid import _apply, forward_half_transform, inverse_half_transform
from shannop.solver import _norm, _norm_scale, _richardson_plan

from conftest import partitions


def vector_state_solve(A, pc, v, cfg):
    """Richardson with one complex residual vector and sum per mode.

    Each sweep runs S += r, r = G r, and measures the norm of w r (w the
    norm weight); the output is P S.  Returns (u, residuals)."""
    grid = v.grid
    half = pc.partition.half
    r = forward_half_transform(v).reshape(v.components, -1)[:, half.perm]
    g, pbands, pdc = _richardson_plan(A, pc)
    scale = _norm_scale(grid, cfg.norm)
    w = None if scale is None else scale.ravel()[half.perm]
    residuals = [_norm(r, half.sc, w)]
    S = np.zeros_like(r)
    while residuals[-1] > cfg.tol * residuals[0] and len(residuals) <= cfg.max_iter:
        S += r
        r = _apply(g, r)
        residuals.append(_norm(r, half.sc, w))
    p = np.concatenate([np.repeat(pbands, np.diff(half.offsets), axis=0), pdc])
    u = np.empty((v.components,) + grid.half_sizes, complex)
    u.reshape(v.components, -1)[:, half.perm] = _apply(p, S)
    return inverse_half_transform(grid, u), residuals


def problem(part, kind, n, alpha):
    """(symbol, preconditioner) of ``kind``: the implicit Laplacian, that
    plus the complex i xi_1, or Id_n times the implicit Laplacian, each
    with the implicit-Laplacian entries."""
    ilap, pc = sp.ImplicitLaplacian(alpha), sp.implicit_laplacian_precond(alpha, part)
    if kind == "ilap":
        return ilap, pc
    e = pc.entries
    if kind == "complex":
        sym = sp.Sum(ilap, sp.Xi(1))
        return sym, sp.given_entries(sym, part, e)
    sym = sp.Product(sp.Identity(n), ilap)
    return sym, sp.given_entries(sym, part, e * np.eye(n))


def field(grid, n, seed, flat):
    """A random n-component field; with ``flat`` constant along axis 0, so
    every mode with k_0 != 0 is exactly zero."""
    v = random_field(grid, n, seed=seed)
    if flat:
        v.values[:] = v.values[:, :1]
    return v


@settings(max_examples=150, deadline=None)
@given(
    part=partitions(),
    kind=st.sampled_from(["ilap", "complex", "matrix"]),
    n=st.integers(1, 3),
    alpha=st.sampled_from([1.0, 1e2, 1e6]),
    norm=st.sampled_from([0.0, 1.0, -0.5]),
    flat=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_magnitude_sweep_matches_the_vector_recurrence(
    part, kind, n, alpha, norm, flat, seed
):
    sym, pc = problem(part, kind, n, alpha)
    v = field(part.grid, n, seed, flat)
    cfg = sp.SolveConfig(norm=norm)
    u, rep = sp.richardson_solve(sym, pc, v, cfg)
    ref, residuals = vector_state_solve(sym, pc, v, cfg)

    assert rep.iterations == len(residuals) - 1
    np.testing.assert_allclose(rep.residual_history, residuals, rtol=1e-13, atol=0)
    assert (u - ref).l2_norm() <= 1e-14 * ref.l2_norm()


def test_zero_field_solves_to_zero():
    part = sp.build_tensorial_partition(sp.GridSpec((16, 8)))
    pc = sp.implicit_laplacian_precond(1e2, part)
    v = sp.RealField(part.grid, np.zeros((2, 16, 8)))
    u, rep = sp.richardson_solve(sp.ImplicitLaplacian(1e2), pc, v)
    assert rep.iterations == 0 and rep.residual_history == [0.0]
    assert not np.any(u.values)


@pytest.mark.parametrize("alpha", [1.0, 1e6])
def test_power_of_two_scaling_is_exact(alpha):
    """Scaling v by 2^k scales every per-mode value of the solve by 2^k
    without rounding, so u scales bit for bit and the sweep count stays."""
    part = sp.build_tensorial_partition(sp.GridSpec((64, 64)))
    sym, pc = sp.ImplicitLaplacian(alpha), sp.implicit_laplacian_precond(alpha, part)
    v = random_field(part.grid, 1, seed=11)
    u, rep = sp.richardson_solve(sym, pc, v)
    for k in range(-500, 501, 20):
        vk = sp.RealField(part.grid, np.ldexp(v.values, k))
        uk, repk = sp.richardson_solve(sym, pc, vk)
        assert repk.iterations == rep.iterations
        assert np.array_equal(uk.values, np.ldexp(u.values, k)), k
