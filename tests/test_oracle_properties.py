"""The half-spectrum oracles and gradient generator against their
full-complex-spectrum references in conftest.

Both sides take the same modes from the same ``rfftn`` and apply the same
per-mode closed form; they differ in the inverse transform (``irfftn``
against the real part of a complex ``ifftn``), whose rounding grows like
log2 N.  ``roundoff`` bounds the l2 distance relative to the reference by
16 eps log2 N: 6.4e-14 at 2^18 points, where 512^2, 64^3 and 128^3
fields show 2.6e-16 to 4.0e-16."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.errors import ArityError, SingularModeError
from shannop.generate import gradient_field, random_field
from shannop.grid import evaluate_on_grid

from conftest import full_exact_leray, full_exact_solve, full_gradient_field

ZERO, SKIP, ERROR = (sp.SingularModePolicy.ZERO, sp.SingularModePolicy.SKIP,
                     sp.SingularModePolicy.ERROR)


def roundoff(grid):
    return 16 * np.finfo(float).eps * math.log2(grid.npoints)


@st.composite
def grids(draw):
    """A 1-D to 3-D grid of 4 to 32 points per axis."""
    dim = draw(st.integers(1, 3))
    return sp.GridSpec(tuple(2 ** draw(st.integers(2, 5)) for _ in range(dim)))


@st.composite
def symbols(draw, dim, kind):
    """A scalar, square or rectangular symbol on ``dim`` axes, singular on
    a plane or at the zero mode for about half the draws."""
    axis = draw(st.integers(1, dim))
    alpha = draw(st.sampled_from([0.5, 3.0, 1e6]))
    if kind == "scalar":
        options = [sp.XiInv(axis), sp.ImplicitLaplacian(alpha), sp.Xi(axis),
                   sp.Sum(sp.Const([[2.0]]), sp.NegLaplacian()), sp.NegLaplacian()]
    elif kind == "square":
        options = [
            sp.Sum(sp.Identity(2), sp.Product(sp.Delta(1, 2, 2), sp.Xi(axis))),
            sp.LerayP(dim),
            sp.Sum(sp.Product(sp.Delta(1, 1, 2), sp.ImplicitLaplacian(alpha)),
                   sp.Product(sp.Delta(2, 2, 2), sp.XiInv(axis))),
        ]
    else:
        options = [
            sp.Product(sp.Const([[1.0, 0.5, -1.0]]), sp.ImplicitLaplacian(alpha)),
            sp.Product(sp.Const([[1.0], [-2.0]]), sp.XiInv(axis)),
            sp.Product(sp.Const([[1.0, -1.0]]), sp.XiInv(axis)),
        ]
        if dim > 1:
            options += [sp.Gradient(dim), sp.Divergence(dim)]
    return draw(st.sampled_from(options))


@pytest.mark.parametrize("kind", ["scalar", "square", "rectangular"])
@pytest.mark.parametrize("policy", [ZERO, SKIP, ERROR])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_exact_solve_matches_the_full_spectrum_reference(policy, kind, data):
    grid = data.draw(grids())
    A = data.draw(symbols(grid.dim, kind))
    n = data.draw(st.integers(1, 3)) if A.is_scalar else A.shape[0]
    v = random_field(grid, n, seed=data.draw(st.integers(0, 2**16)))
    _, singular = evaluate_on_grid(A, grid, SKIP)
    if policy == ERROR and singular.any():
        with pytest.raises(SingularModeError) as want:
            full_exact_solve(A, v, policy)
        with pytest.raises(SingularModeError) as got:
            sp.exact_solve(A, v, policy)
        assert got.value.mode == want.value.mode
        return
    ref = full_exact_solve(A, v, ZERO)
    if policy == SKIP and singular.any():
        if ref.components != n:
            with pytest.raises(ArityError) as want:
                u = random_field(grid, A.shape[1])
                sp.apply_modewise(sp.forward_transform(u), A, policy)
            with pytest.raises(ArityError, match=re.escape(str(want.value))):
                sp.exact_solve(A, v, policy)
            return
        # Singular modes keep v, as apply_modewise leaves them.
        spec = sp.forward_transform(v)
        spec.flat()[:, ~singular] = 0.0
        ref = ref + sp.inverse_transform(spec, check=False)
    u = sp.exact_solve(A, v, policy)
    assert u.components == ref.components
    assert (u - ref).l2_norm() <= roundoff(grid) * ref.l2_norm()


@settings(max_examples=40, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**16))
def test_exact_leray_matches_the_full_spectrum_reference(grid, seed):
    u = random_field(grid, grid.dim, seed)
    for part, ref in zip(sp.exact_leray(u), full_exact_leray(u)):
        assert (part - ref).l2_norm() <= roundoff(grid) * u.l2_norm()


@settings(max_examples=40, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**16))
def test_gradient_field_matches_the_full_spectrum_reference(grid, seed):
    ref = full_gradient_field(grid, seed)
    u = gradient_field(grid, seed)
    assert u.components == grid.dim
    assert (u - ref).l2_norm() <= roundoff(grid) * ref.l2_norm()
