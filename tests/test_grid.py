"""Transforms, norms, modewise application and field files."""

import struct
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.errors import RealityViolationError, StructuralError
from shannop.generate import random_field
from shannop.grid import (
    evaluate_modes,
    evaluate_on_grid,
    forward_half_transform,
    inverse_half_transform,
    is_hermitian,
    ksq_table,
)
from shannop.symbols import eval_many

from conftest import wavevector_table


def grid_points(grid):
    axes = [np.arange(n) * 2 * np.pi / n for n in grid.sizes]
    return np.meshgrid(*axes, indexing="ij")


class TestGridSpec:
    def test_valid(self):
        g = sp.GridSpec((8, 16))
        assert g.dim == 2 and g.npoints == 128

    @pytest.mark.parametrize("sizes", [(6,), (2,), (8, 8, 8, 8), ()])
    def test_invalid(self, sizes):
        with pytest.raises(StructuralError):
            sp.GridSpec(sizes)

    def test_wavevector_range(self):
        g = sp.GridSpec((8,))
        k = g.axis_wavevectors(0)
        assert k.min() == -4 and k.max() == 3
        assert g.nyquist(0) == -4


class TestForwardTransform:
    def test_zero_field(self):
        g = sp.GridSpec((16, 16))
        s = sp.forward_transform(sp.RealField(g, np.zeros((1, 16, 16))))
        assert np.all(s.modes == 0)

    def test_single_cosine(self):
        g = sp.GridSpec((32,))
        (x,) = grid_points(g)
        s = sp.forward_transform(sp.RealField(g, np.cos(3 * x)[None]))
        flat = s.flat()[0]
        nz = np.flatnonzero(np.abs(flat) > 1e-12)
        k = g.axis_wavevectors(0)
        assert sorted(k[nz]) == [-3, 3]
        assert abs(abs(flat[nz[0]]) - abs(flat[nz[1]])) < 1e-14

    def test_parseval_random(self):
        g = sp.GridSpec((64, 64))
        f = random_field(g, 2, seed=0)
        s = sp.forward_transform(f)
        assert abs(s.l2_norm() - f.l2_norm()) <= 1e-12 * f.l2_norm()

    def test_hermitian(self):
        g = sp.GridSpec((16, 8))
        s = sp.forward_transform(random_field(g, 1, seed=1))
        assert is_hermitian(s)


@settings(max_examples=30, deadline=None)
@given(
    exps=st.integers(1, 3).flatmap(lambda d: st.tuples(*[st.integers(2, 5)] * d)),
    components=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_transform_is_the_hermitian_extension_of_the_half_spectrum(
    exps, components, seed
):
    grid = sp.GridSpec(tuple(2**e for e in exps))
    f = random_field(grid, components, seed)
    full = sp.forward_transform(f).modes
    n = grid.sizes[-1]

    def bits(x):
        return np.ascontiguousarray(x).view(np.uint8)

    half = forward_half_transform(f)
    assert np.array_equal(bits(full[..., : n // 2 + 1]), bits(half))
    # reflected[..., k] is full[..., -k mod N] on every axis.
    reflected = full
    for ax in range(1, grid.dim + 1):
        reflected = np.roll(np.flip(reflected, axis=ax), 1, axis=ax)
    rest = slice(n // 2 + 1, None)
    assert np.array_equal(bits(full[..., rest]), bits(np.conj(reflected[..., rest])))
    ref = np.fft.fftn(f.values, axes=tuple(range(1, grid.dim + 1)), norm="ortho")
    assert np.max(np.abs(full - ref)) <= 1e-14 * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None)
@given(
    exps=st.integers(1, 3).flatmap(lambda d: st.tuples(*[st.integers(2, 5)] * d)),
    components=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_half_transform_is_irfftn_bit_for_bit(exps, components, seed):
    """The inverse runs its stages in place in its argument; its output is
    ``irfftn``'s on an untouched copy of that argument."""
    grid = sp.GridSpec(tuple(2**e for e in exps))
    modes = forward_half_transform(random_field(grid, components, seed))
    modes[..., 1] += 0.25j  # a spectrum that is not a real field's
    axes = tuple(range(1, grid.dim + 1))
    ref = np.fft.irfftn(modes.copy(), s=grid.sizes, axes=axes, norm="ortho")
    out = inverse_half_transform(grid, modes).values
    assert out.shape == ref.shape
    assert np.array_equal(out.view(np.uint8), ref.view(np.uint8))


class TestInverseTransform:
    def test_roundtrip(self):
        g = sp.GridSpec((128,))
        f = random_field(g, 1, seed=2)
        back = sp.inverse_transform(sp.forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(
            np.abs(f.values)
        )

    def test_single_mode_pair_is_cosine(self):
        g = sp.GridSpec((16,))
        modes = np.zeros((1, 16), dtype=complex)
        modes[0, 1] = 0.5
        modes[0, -1] = 0.5
        f = sp.inverse_transform(sp.SpectralField(g, modes))
        (x,) = grid_points(g)
        expected = np.cos(x) / np.sqrt(16)
        assert np.max(np.abs(f.values[0] - expected)) < 1e-14

    def test_spectral_roundtrip(self):
        g = sp.GridSpec((32, 32))
        s = sp.forward_transform(random_field(g, 1, seed=3))
        again = sp.forward_transform(sp.inverse_transform(s))
        assert np.max(np.abs(again.modes - s.modes)) <= 1e-12 * s.l2_norm()

    def test_non_hermitian_rejected(self):
        g = sp.GridSpec((16,))
        modes = np.zeros((1, 16), dtype=complex)
        modes[0, 1] = 1.0  # no conjugate partner
        with pytest.raises(RealityViolationError):
            sp.inverse_transform(sp.SpectralField(g, modes))


class TestSobolevNorm:
    def test_order_zero_is_l2(self):
        g = sp.GridSpec((32, 32))
        s = sp.forward_transform(random_field(g, 1, seed=4))
        assert abs(sp.sobolev_norm(s, 0.0) - s.l2_norm()) < 1e-14 * s.l2_norm()

    def test_single_mode_values(self):
        g = sp.GridSpec((8, 8))
        modes = np.zeros((1, 8, 8), dtype=complex)
        modes[0, 1, 0] = 1.0
        s = sp.SpectralField(g, modes)
        assert abs(sp.sobolev_norm(s, 1.0) - np.sqrt(2)) < 1e-14
        modes2 = np.zeros((1, 8, 8), dtype=complex)
        modes2[0, 2, 0] = 1.0
        s2 = sp.SpectralField(g, modes2)
        assert abs(sp.sobolev_norm(s2, -1.0) - 5 ** -0.5) < 1e-14


class TestApplyModewise:
    def test_identity(self):
        g = sp.GridSpec((16, 16))
        s = sp.forward_transform(random_field(g, 2, seed=5))
        out = sp.apply_modewise(s, sp.Identity(1))
        assert np.array_equal(out.modes, s.modes)

    def test_implicit_laplacian_scaling(self):
        g = sp.GridSpec((8, 8))
        modes = np.zeros((1, 8, 8), dtype=complex)
        modes[0, 1, 1] = 1.0
        modes[0, -1, -1] = 1.0
        s = sp.SpectralField(g, modes)
        out = sp.apply_modewise(s, sp.ImplicitLaplacian(1.0))
        assert abs(out.modes[0, 1, 1] - 3.0) < 1e-14

    def test_laplacian_pinv_roundtrip(self):
        g = sp.GridSpec((32, 32))
        f = random_field(g, 1, seed=6)
        f = sp.RealField(g, f.values - f.values.mean())
        neg = sp.NegLaplacian()
        lap = sp.apply_modewise(sp.forward_transform(f), neg)
        back = sp.exact_solve(neg, sp.inverse_transform(lap))
        assert (back - f).l2_norm() <= 1e-10 * f.l2_norm()

    def test_linearity(self):
        g = sp.GridSpec((16, 16))
        s1 = sp.forward_transform(random_field(g, 2, seed=7))
        s2 = sp.forward_transform(random_field(g, 2, seed=8))
        sym = sp.LerayP(2)
        combo = sp.SpectralField(g, 2.0 * s1.modes - 0.5 * s2.modes)
        lhs = sp.apply_modewise(combo, sym)
        rhs = (
            2.0 * sp.apply_modewise(s1, sym).modes
            - 0.5 * sp.apply_modewise(s2, sym).modes
        )
        assert np.max(np.abs(lhs.modes - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    @pytest.mark.parametrize(
        "sym", [sp.Xi(1), sp.NegLaplacian(), sp.LerayP(2), sp.Gradient(2)]
    )
    def test_reality_preserved(self, sym):
        g = sp.GridSpec((16, 16))
        comps = sym.shape[1] if not sym.is_scalar else 2
        s = sp.forward_transform(random_field(g, comps, seed=9))
        out = sp.apply_modewise(s, sym)
        sp.inverse_transform(out)  # raises if the result is not real
        assert is_hermitian(out, tol=1e-10)

    def test_odd_symbol_zeroes_nyquist(self):
        g = sp.GridSpec((8,))
        vals, _ = evaluate_on_grid(sp.Xi(1), g)
        K = wavevector_table(g)
        nyq_row = np.flatnonzero(K[:, 0] == -4)[0]
        assert vals[nyq_row, 0, 0] == 0
        other = np.flatnonzero(K[:, 0] == 3)[0]
        assert vals[other, 0, 0] == 3j

    def test_even_symbol_keeps_nyquist(self):
        g = sp.GridSpec((8,))
        vals, _ = evaluate_on_grid(sp.NegLaplacian(), g)
        K = wavevector_table(g)
        nyq_row = np.flatnonzero(K[:, 0] == -4)[0]
        assert vals[nyq_row, 0, 0] == 16.0


# Symbols of each parity, built for a grid of dimension d: odd ones vanish
# on a Nyquist plane of an odd axis under the averaging convention, even
# ones keep their value there.
SYMBOLS = {
    "xi": lambda d: sp.Xi(d),
    "gradient": lambda d: sp.Gradient(d),
    "xi * nlap": lambda d: sp.Xi(1) * sp.NegLaplacian(),
    "nlap": lambda d: sp.NegLaplacian(),
    "ilap": lambda d: sp.ImplicitLaplacian(2.5),
    "xi * xi": lambda d: sp.Xi(1) * sp.Xi(d),
    "leray": lambda d: sp.LerayP(d),
}


def nyquist_average_reference(expr, grid, K):
    """Row by row, the symbol averaged over the sign choices of the row's
    Nyquist components (the symbol itself where there are none)."""
    nyq = np.array([grid.nyquist(i) for i in range(grid.dim)], dtype=float)
    rows = []
    for k in K:
        axes = np.flatnonzero(k == nyq)
        acc = np.zeros(eval_many(expr, k[None])[0].shape[1:], dtype=complex)
        for signs in product((1.0, -1.0), repeat=len(axes)):
            ks = k.copy()
            ks[axes] = np.array(signs) * np.abs(ks[axes])
            acc += eval_many(expr, ks[None])[0][0]
        rows.append(acc / 2 ** len(axes))
    return np.array(rows)


@settings(max_examples=40, deadline=None)
@given(
    exps=st.integers(1, 3).flatmap(lambda d: st.tuples(*[st.integers(2, 4)] * d)),
    name=st.sampled_from(sorted(SYMBOLS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_modes_averages_each_nyquist_row(exps, name, seed):
    grid = sp.GridSpec(tuple(2**e for e in exps))
    expr = SYMBOLS[name](grid.dim)
    table = wavevector_table(grid).astype(float)
    rng = np.random.default_rng(seed)
    K = table[rng.choice(len(table), size=min(len(table), 120), replace=False)]
    values, _ = evaluate_modes(expr, grid, K)
    np.testing.assert_array_equal(
        values, nyquist_average_reference(expr, grid, K)
    )


def test_ksq_table_matches_wavevectors():
    g = sp.GridSpec((8, 4))
    K = wavevector_table(g)
    assert np.array_equal(ksq_table(g), np.sum(K.astype(float) ** 2, axis=1))


class TestFieldFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        g = sp.GridSpec((16, 8))
        f = random_field(g, 3, seed=10)
        path = tmp_path / "field.swf"
        sp.write_field(f, path)
        back = sp.read_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)
        sp.write_field(back, tmp_path / "copy.swf")
        assert (tmp_path / "copy.swf").read_bytes() == path.read_bytes()

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(StructuralError):
            sp.read_field(path)

    def test_truncated(self, tmp_path):
        g = sp.GridSpec((8,))
        f = random_field(g, 1, seed=11)
        path = tmp_path / "trunc.swf"
        sp.write_field(f, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(StructuralError):
            sp.read_field(path)

    def test_zero_components_rejected(self, tmp_path):
        path = tmp_path / "empty.swf"
        path.write_bytes(b"SWF1" + struct.pack("<II2I", 2, 0, 8, 8))
        with pytest.raises(StructuralError, match="component"):
            sp.read_field(path)
