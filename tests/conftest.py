"""Helpers shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

import shannop as sp


def reference_wavevectors(band):
    """(nmodes, d) float wavevectors of a band's modes, rows in row-major
    sub-box order, from whole-axis wavevectors and meshgrid: the per-band
    reference that layouts and certificates are checked against."""
    axes = [
        band.grid.axis_wavevectors(i)[ix] for i, ix in enumerate(band.axis_indices)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(float)


@st.composite
def partitions(draw, min_dim=1, schemes=("tensorial", "mra")):
    """A tensorial or MRA partition of a 1D-3D grid of 4 to 16 points per
    axis (MRA grids are isotropic), refined to packet depth 0-2."""
    dim = draw(st.integers(min_dim, 3))
    scheme = draw(st.sampled_from(schemes))
    if scheme == "mra":
        sizes = (2 ** draw(st.integers(2, 4)),) * dim
        part = sp.build_mra_partition(sp.GridSpec(sizes))
    else:
        sizes = tuple(2 ** draw(st.integers(2, 4)) for _ in range(dim))
        part = sp.build_tensorial_partition(sp.GridSpec(sizes))
    return sp.refine_packet(part, draw(st.integers(0, 2)))
