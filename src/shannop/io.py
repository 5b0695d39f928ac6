"""SWF1 field files.

Layout: magic ``SWF1``, then little-endian u32 dimension, u32 component
count, one u32 per axis size, then the float64 samples (component-major,
row-major within a component).  Write then read is bit-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import StructuralError
from .grid import GridSpec, RealField

MAGIC = b"SWF1"


def write_field(field: RealField, path) -> None:
    grid = field.grid
    header = MAGIC + struct.pack(
        f"<II{grid.dim}I", grid.dim, field.components, *grid.sizes
    )
    data = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    Path(path).write_bytes(header + data)


def read_field(path) -> RealField:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise StructuralError(f"{path}: not an SWF1 field file")
    d, m = struct.unpack("<II", raw[4:12])
    if not 1 <= d <= 3:
        raise StructuralError(f"{path}: bad dimension {d}")
    if m < 1:
        raise StructuralError(f"{path}: field has no components")
    if len(raw) < 12 + 4 * d:
        raise StructuralError(f"{path}: truncated header")
    sizes = struct.unpack(f"<{d}I", raw[12 : 12 + 4 * d])
    grid = GridSpec(sizes)
    offset = 12 + 4 * d
    expected = m * grid.npoints * 8
    if len(raw) != offset + expected:
        raise StructuralError(
            f"{path}: expected {expected} sample bytes, found {len(raw) - offset}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=offset).reshape(
        (m,) + grid.sizes
    )
    return RealField(grid, values.astype(float))
