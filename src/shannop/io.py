"""SWF1 field files.

Layout: magic ``SWF1``, then little-endian u32 dimension, u32 component
count, one u32 per axis size, then the float64 samples (component-major,
row-major within a component).  Write then read is bit-exact.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import StructuralError
from .grid import GridSpec, RealField

MAGIC = b"SWF1"


def write_field(field: RealField, path) -> None:
    """Write an SWF1 file: the header, then the samples straight from the
    field's array, with no copy of them in memory."""
    grid = field.grid
    header = MAGIC + struct.pack(
        f"<II{grid.dim}I", grid.dim, field.components, *grid.sizes
    )
    with open(path, "wb") as fh:
        fh.write(header)
        np.ascontiguousarray(field.values, dtype="<f8").tofile(fh)


def read_field(path) -> RealField:
    """Read an SWF1 file.  The header and the file length are checked
    before the samples are read, straight into one float64 array."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != MAGIC:
            raise StructuralError(f"{path}: not an SWF1 field file")
        d, m = struct.unpack("<II", head[4:12])
        if not 1 <= d <= 3:
            raise StructuralError(f"{path}: bad dimension {d}")
        if m < 1:
            raise StructuralError(f"{path}: field has no components")
        raw_sizes = fh.read(4 * d)
        if len(raw_sizes) < 4 * d:
            raise StructuralError(f"{path}: truncated header")
        grid = GridSpec(struct.unpack(f"<{d}I", raw_sizes))
        expected = m * grid.npoints * 8
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:
            raise StructuralError(
                f"{path}: expected {expected} sample bytes, found {found}"
            )
        values = np.fromfile(fh, dtype="<f8", count=expected // 8)
    try:
        return RealField(grid, values.reshape((m,) + grid.sizes))
    except StructuralError as exc:  # a sample that is not finite
        raise StructuralError(f"{path}: {exc}") from None
