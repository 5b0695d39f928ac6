"""Helpers shared by the test modules."""

import numpy as np


def reference_wavevectors(band):
    """(nmodes, d) float wavevectors of a band's modes, rows in row-major
    sub-box order, from whole-axis wavevectors and meshgrid: the per-band
    reference that layouts and certificates are checked against."""
    axes = [
        band.grid.axis_wavevectors(i)[ix] for i, ix in enumerate(band.axis_indices)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(float)
