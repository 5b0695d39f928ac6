"""Helpers shared by the test modules."""

import math

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


def half_layout_cut(part, chunk=1 << 16):
    """(perm, offsets, sc) of the half layout cut from the full-grid layout
    ``part.perm``, ``chunk`` positions at a time: the entries with last-axis
    index <= N_last/2, in the same order, as half-grid positions, each
    band's count of them, and the positions of those with last-axis index
    0 or N_last/2.  The reference for ``Partition.half``.

    A chunk adds its kept positions to the count of each band it meets,
    the first from the chunk's start, as ``layout_blocks`` cuts blocks; the
    dc set counts as one more band.
    """
    full = part.perm
    n = part.grid.sizes[-1]
    h = n // 2
    perm = np.empty(math.prod(part.grid.half_sizes), dtype=full.dtype)
    counts = np.zeros_like(part.offsets)
    sc, pos = [], 0
    for lo in range(0, len(full), chunk):
        piece = full[lo : lo + chunk]
        last = piece & (n - 1)  # last-axis indices; n is a power of two
        keep = last <= h
        first = int(part.offsets.searchsorted(lo, "right")) - 1
        end = int(part.offsets.searchsorted(lo + len(piece)))
        starts = part.offsets[first:end] - lo
        starts[0] = 0
        counts[first:end] += np.add.reduceat(keep, starts, dtype=counts.dtype)
        last = last[keep]
        out = perm[pos : pos + len(last)]
        np.right_shift(piece[keep], n.bit_length() - 1, out=out)
        out *= h + 1
        out += last
        sc.append(np.flatnonzero((last == 0) | (last == h)) + pos)
        pos += len(last)
    offsets = np.zeros_like(part.offsets)
    np.cumsum(counts[:-1], out=offsets[1:])
    return perm, offsets, np.concatenate(sc)
