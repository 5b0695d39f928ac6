"""SWF1 round trips, rejection of cut and overflowing headers, and Parseval,
over random 1D-3D power-of-two grids and component counts."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.errors import StructuralError

SETTINGS = settings(max_examples=30, deadline=None)

grids = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(*([st.integers(2, 6)] * dim))
).map(lambda exps: sp.GridSpec(tuple(2**e for e in exps)))


def random_field(grid, components, seed):
    """Samples spread over many binades, so a lossy path would show."""
    rng = np.random.default_rng(seed)
    shape = (components,) + grid.sizes
    return sp.RealField(
        grid, rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    )


@SETTINGS
@given(grid=grids, components=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_swf1_round_trip_is_bit_exact(grid, components, seed):
    field = random_field(grid, components, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.swf"
        sp.write_field(field, path)
        back = sp.read_field(path)
    assert back.grid == grid
    assert back.values.tobytes() == field.values.tobytes()


@SETTINGS
@given(grid=grids, components=st.integers(1, 4))
def test_cut_headers_raise_structural_error(grid, components):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.swf"
        sp.write_field(random_field(grid, components, 0), path)
        raw = path.read_bytes()
        header = 12 + 4 * grid.dim
        for length in list(range(header + 1)) + [len(raw) - 1]:
            path.write_bytes(raw[:length])
            with pytest.raises(StructuralError):
                sp.read_field(path)


def test_header_whose_mode_count_overflows_int64_raises(tmp_path):
    path = tmp_path / "huge.swf"
    path.write_bytes(b"SWF1" + struct.pack("<II3I", 3, 1, *[2**31] * 3))
    with pytest.raises(StructuralError, match="expected"):
        sp.read_field(path)


@SETTINGS
@given(grid=grids, components=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_parseval(grid, components, seed):
    rng = np.random.default_rng(seed)
    field = sp.RealField(grid, rng.standard_normal((components,) + grid.sizes))
    spec = sp.forward_transform(field)
    assert abs(spec.l2_norm() - field.l2_norm()) <= 1e-13 * field.l2_norm()
    back = sp.inverse_transform(spec)
    assert np.max(np.abs(back.values - field.values)) <= 1e-12 * np.max(
        np.abs(field.values)
    )
