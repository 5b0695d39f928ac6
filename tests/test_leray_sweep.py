"""The Helmholtz sweep on real per-mode state against the complex-state
recurrence it replaces, rebuilt here from ``_leray_blocks``: the same sweep
counts, and residuals, divergence entries and outputs equal to roundoff."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.generate import random_field
from shannop.grid import _axis_sum, forward_half_transform, inverse_half_transform
from shannop.precond import _leray_omega
from shannop.solver import _leray_blocks, _norm, _norm_scale, _split_modes

grids = st.one_of(
    st.tuples(st.integers(2, 6), st.integers(2, 6)),
    st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)),
).map(lambda exps: sp.GridSpec(tuple(2**e for e in exps)))


def complex_state_split(u, part, cfg):
    """The split with one complex remainder t and sum S per band mode.

    Sweep 1 leaves t = t_1; each later sweep runs S += t, t = lambda t.
    A sweep's residual is the norm of |c| w t (w the norm weight) and its
    divergence entry the norm of xi.mv1 + (xi.m) S over the band modes,
    with the dc set's divergence added in quadrature.  Returns (u_div,
    u_curl, residuals, divergence entries), the last entry the plan's.
    """
    grid, d = u.grid, u.grid.dim
    half = part.half
    nb = half.offsets[-1]
    perm, dc = half.perm[:nb], half.perm[nb:]
    split = np.searchsorted(half.sc, nb)
    sc, sc_dc = half.sc[:split], half.sc[split:] - nb
    spec = forward_half_transform(u)
    scale = _norm_scale(grid, cfg.norm)
    ref = _norm(spec, [0, grid.sizes[-1] // 2], scale)
    flat = spec.reshape(d, -1)
    kdc = grid.wavevectors(dc, half=True, effective=True)
    div_dc, curl_dc = _split_modes(kdc, flat[:, dc])
    div_dc_sq = _norm(np.sum(kdc * div_dc, axis=0), sc_dc) ** 2
    v0 = flat[:, perm]
    sb = None if scale is None else scale.ravel()[perm]
    residuals = [_norm(v0, sc, sb)]
    if residuals[0] <= cfg.tol * ref:
        v0[:] = 0.0
    omega = _leray_omega(part.edges, part.ids)

    lam, cw = np.empty(nb), np.empty(nb)
    t, dv1 = np.empty(nb, complex), np.empty(nb, complex)
    xm = np.empty(nb)
    for sl, xi, lam_b, csq, _, m, _, mv1, t_b in _leray_blocks(grid, half, omega, v0):
        lam[sl], t[sl] = lam_b, t_b
        cw[sl] = np.sqrt(csq) if sb is None else np.sqrt(csq) * sb[sl]
        dv1[sl] = _axis_sum(xi * mv1)
        xm[sl] = _axis_sum(xi * m)

    S = np.zeros(nb, complex)
    entries = []
    while residuals[-1] > cfg.tol * ref and len(residuals) <= cfg.max_iter:
        if entries:
            S += t
            t = lam * t
        residuals.append(_norm(cw * t, sc))
        entries.append(math.sqrt(_norm(dv1 + xm * S, sc) ** 2 + div_dc_sq))

    udiv = np.empty((d,) + grid.half_sizes, complex)
    ucurl = np.empty_like(udiv)
    fdiv, fcurl = udiv.reshape(d, -1), ucurl.reshape(d, -1)
    for sl, _, _, _, l, m, lv1, mv1, _ in _leray_blocks(grid, half, omega, v0, lam):
        fdiv[:, perm[sl]] = mv1 + m * S[sl]
        fcurl[:, perm[sl]] = lv1 + l * S[sl]
    fdiv[:, dc], fcurl[:, dc] = div_dc, curl_dc
    return (
        inverse_half_transform(grid, udiv),
        inverse_half_transform(grid, ucurl),
        residuals,
        entries,
    )


@settings(max_examples=100, deadline=None)
@given(
    grid=grids,
    depth=st.integers(0, 2),
    norm=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_state_sweep_matches_the_complex_state_recurrence(
    grid, depth, norm, seed
):
    part = sp.refine_packet(sp.build_tensorial_partition(grid), depth)
    u = random_field(grid, grid.dim, seed=seed)
    cfg = sp.SolveConfig(norm=norm)
    udiv, ucurl, rep = sp.helmholtz_decompose(u, part, cfg)
    rdiv, rcurl, residuals, entries = complex_state_split(u, part, cfg)

    assert rep.iterations == len(residuals) - 1
    np.testing.assert_allclose(rep.residual_history, residuals, rtol=1e-13, atol=0)
    got = rep.divergence_history
    assert len(got) == len(entries)
    assert all(math.isfinite(x) and x >= 0 for x in got)
    np.testing.assert_allclose(got[:-1], entries[:-1], rtol=1e-12, atol=0)
    unorm = u.l2_norm()
    assert (udiv - rdiv).l2_norm() <= 1e-14 * unorm
    assert (ucurl - rcurl).l2_norm() <= 1e-14 * unorm


@pytest.mark.parametrize("norm", [0.0, 1.0])
@pytest.mark.parametrize("depth", [0, 1])
def test_power_of_two_scaling_is_exact(depth, norm):
    """Scaling u by 2^k scales every per-mode value of the split by 2^k, or
    its square by 4^k, without rounding: the outputs, residuals and
    divergence entries scale bit for bit and the sweep count stays.  On
    this 64x32 grid that holds for k down to -400; from k = -480 the
    squares underflow."""
    grid = sp.GridSpec((64, 32))
    part = sp.refine_packet(sp.build_tensorial_partition(grid), depth)
    u = random_field(grid, 2, seed=13)
    cfg = sp.SolveConfig(norm=norm)
    udiv, ucurl, rep = sp.helmholtz_decompose(u, part, cfg)
    for k in range(-400, 401, 20):
        uk = sp.RealField(grid, np.ldexp(u.values, k))
        udk, uck, repk = sp.helmholtz_decompose(uk, part, cfg)
        assert repk.iterations == rep.iterations, k
        assert np.array_equal(udk.values, np.ldexp(udiv.values, k)), k
        assert np.array_equal(uck.values, np.ldexp(ucurl.values, k)), k
        for got, want in [(repk.residual_history, rep.residual_history),
                          (repk.divergence_history, rep.divergence_history)]:
            assert got == [math.ldexp(x, k) for x in want], k
