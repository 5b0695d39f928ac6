"""Partition construction, band projection and the derivation maps."""

import signal

import numpy as np
import pytest

import shannop as sp
from shannop.bands import (
    FrequencyBand,
    Partition,
    _HalfLayout,
    band_extrema,
    dump_partition,
)
from shannop.errors import (
    ArityError,
    PartitionConsistencyError,
    StructuralError,
    UnsupportedSchemeError,
)
from shannop.generate import random_field
from shannop.solver import kappa_table

from conftest import reference_wavevectors


def band_mode_set(band):
    return {tuple(row) for row in reference_wavevectors(band)}


def all_mode_sets(part):
    claimed = [band_mode_set(b) for b in part.bands]
    from shannop.grid import wavevector_table

    dc = {tuple(row) for row in wavevector_table(part.grid)[part.dc_indices]}
    return claimed, dc


class TestTensorial:
    def test_1d_eight_points(self):
        part = sp.build_tensorial_partition(sp.GridSpec((8,)))
        by_id = {b.id: band_mode_set(b) for b in part.bands}
        assert by_id[(0,)] == {(1,), (-1,)}
        assert by_id[(1,)] == {(2,), (3,), (-2,), (-3,)}
        _, dc = all_mode_sets(part)
        assert dc == {(0,), (-4,)}

    def test_2d_4x4_single_band(self):
        part = sp.build_tensorial_partition(sp.GridSpec((4, 4)))
        assert len(part.bands) == 1
        assert band_mode_set(part.bands[0]) == {
            (1, 1), (1, -1), (-1, 1), (-1, -1)
        }
        assert len(part.dc_indices) == 12

    def test_axis_zero_modes_go_to_dc(self):
        part = sp.build_tensorial_partition(sp.GridSpec((8, 8)))
        _, dc = all_mode_sets(part)
        assert (3, 0) in dc
        assert (0, 2) in dc
        band = part.band((1, 0))
        assert (3, 1) in band_mode_set(band)

    @pytest.mark.parametrize("sizes", [(8,), (16, 8), (8, 8, 8)])
    def test_exact_cover(self, sizes):
        part = sp.build_tensorial_partition(sp.GridSpec(sizes))
        part.check_disjoint()
        claimed, dc = all_mode_sets(part)
        union = set().union(*claimed) | dc
        assert len(union) == part.grid.npoints
        assert sum(len(s) for s in claimed) + len(dc) == part.grid.npoints

    def test_dyadic_boxes(self):
        part = sp.build_tensorial_partition(sp.GridSpec((16, 32)))
        for band in part.bands:
            for lo, hi in band.box:
                assert hi == 2 * lo

    def test_sign_symmetry(self):
        part = sp.build_tensorial_partition(sp.GridSpec((16, 16)))
        for band in part.bands:
            modes = band_mode_set(band)
            assert all(tuple(-k for k in m) in modes for m in modes)


class TestMRA:
    def test_4x4_three_bands(self):
        part = sp.build_mra_partition(sp.GridSpec((4, 4)))
        ids = [b.id for b in part.bands]
        assert ids == [(0, (0, 1)), (0, (1, 0)), (0, (1, 1))]

    def test_8x8_level1_full_type(self):
        part = sp.build_mra_partition(sp.GridSpec((8, 8)))
        band = part.band((1, (1, 1)))
        modes = band_mode_set(band)
        assert modes == {
            (s1 * a, s2 * b)
            for a in (2, 3)
            for b in (2, 3)
            for s1 in (1, -1)
            for s2 in (1, -1)
        }

    def test_scaling_axis_includes_zero(self):
        part = sp.build_mra_partition(sp.GridSpec((8, 8)))
        band = part.band((1, (1, 0)))
        assert (2, 0) in band_mode_set(band)

    def test_anisotropic_rejected(self):
        with pytest.raises(UnsupportedSchemeError):
            sp.build_mra_partition(sp.GridSpec((8, 16)))

    def test_exact_cover(self):
        part = sp.build_mra_partition(sp.GridSpec((16, 16)))
        part.check_disjoint()

    def test_energy_additivity(self):
        grid = sp.GridSpec((64, 64))
        part = sp.build_mra_partition(grid)
        for seed in range(10):
            f = random_field(grid, 1, seed=seed)
            s = sp.forward_transform(f)
            banded = sp.analyze(s, part)
            total = s.l2_norm() ** 2
            assert abs(banded.total_energy() - total) <= 1e-12 * total


class TestPacketRefinement:
    def test_depth_one_halves(self):
        part = sp.build_tensorial_partition(sp.GridSpec((16,)))
        refined = sp.refine_packet(part, 1)
        boxes = [b.box[0] for b in refined.bands if b.id[0] == (2,)]
        assert boxes == [(4.0, 6.0), (6.0, 8.0)]

    def test_depth_zero_identity(self):
        part = sp.build_tensorial_partition(sp.GridSpec((16,)))
        assert sp.refine_packet(part, 0) is part

    def test_depth_two_quarters(self):
        part = sp.build_tensorial_partition(sp.GridSpec((16,)))
        refined = sp.refine_packet(part, 2)
        boxes = [b.box[0] for b in refined.bands if b.id[0] == (2,)]
        assert boxes == [(4.0, 5.0), (5.0, 6.0), (6.0, 7.0), (7.0, 8.0)]

    def test_nesting(self):
        part = sp.build_tensorial_partition(sp.GridSpec((32, 32)))
        twice = sp.refine_packet(sp.refine_packet(part, 1), 1)
        once = sp.refine_packet(part, 2)
        ids_twice = {b.id: band_mode_set(b) for b in twice.bands}
        ids_once = {b.id: band_mode_set(b) for b in once.bands}
        assert ids_twice == ids_once

    def test_empty_subbands_dropped(self):
        part = sp.build_tensorial_partition(sp.GridSpec((8,)))
        refined = sp.refine_packet(part, 1)
        # [1,2) splits into [1,1.5) and [1.5,2); the second holds no integer.
        assert refined.dropped_empty >= 1
        refined.check_disjoint()

    def test_deep_refinement_builds_only_nonempty_pieces(self):
        # 2^40 pieces per band axis; on 16^2 only 7 magnitudes per axis
        # exist, so the refinement has 49 one-magnitude sub-bands.
        part = sp.build_tensorial_partition(sp.GridSpec((16, 16)))

        def give_up(signum, frame):
            raise TimeoutError

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(10)
        try:
            refined = sp.refine_packet(part, 40)
        except TimeoutError:
            refined = None  # asserted outside the handler's traceback
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert refined is not None, "refine_packet(part, 40) ran for over 10 s"
        refined.check_disjoint()
        assert len(refined.bands) == 49
        assert refined.dropped_empty == 9 * 2**80 - 49

    def test_depth_beyond_exact_box_edges_refused(self):
        part = sp.build_tensorial_partition(sp.GridSpec((16, 16)))
        assert sp.refine_packet(part, 52).packet_depth == 52
        with pytest.raises(StructuralError, match="packet depth 53 is above 52"):
            sp.refine_packet(sp.refine_packet(part, 1), 52)

    def test_extrema_ratio_shrinks(self):
        part = sp.build_tensorial_partition(sp.GridSpec((32,)))
        band = part.band((3,))
        a0, b0, _ = band_extrema(band, mode_exact=False)
        refined = sp.refine_packet(part, 1)
        for b in refined.bands:
            if b.id[0] != (3,):
                continue
            a1, b1, per_axis = band_extrema(b, mode_exact=False)
            assert b1 / a1 <= b0 / a0 + 1e-15
            lo, hi = per_axis[0]
            assert hi / lo in (1.5, 4 / 3)


class TestCheckDisjoint:
    """Hand-built 1D partitions on 8 points whose half layouts' band and dc
    sizes add up to the 5 half-grid positions, so only the exact set check
    can reject them.  The valid tensorial partition's half layout is bands
    [1] and [2, 3] plus dc [0, 4]; its full layout, written on request,
    is bands [1, 7] and [2, 3, 5, 6] plus dc [0, 4]."""

    @staticmethod
    def partition(low, high, dc):
        grid = sp.GridSpec((8,))
        edges = np.array([[[1.0, 2.0]], [[2.0, 4.0]]])
        offsets = np.array([0, 2, 6])
        perm = np.array(low + high + dc, dtype=np.int32)
        half = _HalfLayout(
            perm,
            np.array([0, len(low), len(low) + len(high)]),
            np.flatnonzero((perm == 0) | (perm == 4)),
        )
        return Partition(grid, "tensorial", 0, [(0,), (1,)], edges, offsets, half)

    def test_valid_partition_passes(self):
        self.partition([1], [2, 3], [0, 4]).check_disjoint()

    def test_overlap_raises(self):
        # Position 1 is claimed twice and position 4 by nobody.
        part = self.partition([1], [1, 2, 3], [0])
        with pytest.raises(PartitionConsistencyError, match="overlap"):
            part.check_disjoint()

    @pytest.mark.parametrize("high,dc", [
        ([2, 2], [0, 4]),  # a band lists position 2 twice, 3 is missed
        ([2, 3], [0, 0]),  # the dc set lists position 0 twice, 4 is missed
    ])
    def test_gap_raises(self, high, dc):
        part = self.partition([1], high, dc)
        with pytest.raises(PartitionConsistencyError, match="cover"):
            part.check_disjoint()


def test_flat_indices_of_a_band_beyond_int32_positions():
    # No partition is built on a grid an int32 layout cannot index, but a
    # hand-built band there still gets its positions.
    grid = sp.GridSpec((2048, 2048, 2048))
    ix = np.array([1, 2047])
    band = FrequencyBand(grid, (0,), ((1.0, 2048.0),) * 3, (ix, ix, ix))
    mesh = np.meshgrid(ix, ix, ix, indexing="ij")
    want = np.ravel_multi_index([m.ravel() for m in mesh], grid.sizes)
    assert np.array_equal(band.flat_indices(), want)


class TestBandExtrema:
    def test_continuous_2d(self):
        part = sp.build_tensorial_partition(sp.GridSpec((8, 8)))
        a, b, _ = band_extrema(part.band((0, 0)), mode_exact=False)
        assert abs(a * a - 2.0) < 1e-14 and abs(b * b - 8.0) < 1e-14

    def test_mode_exact_1d(self):
        part = sp.build_tensorial_partition(sp.GridSpec((16,)))
        band = part.band((2,))
        a, b, _ = band_extrema(band, mode_exact=True)
        assert (a, b) == (4.0, 7.0)
        a2, b2, _ = band_extrema(band, mode_exact=False)
        assert (a2, b2) == (4.0, 8.0)

    def test_empty_band_errors(self):
        part = sp.build_tensorial_partition(sp.GridSpec((8, 8)))
        band = part.bands[0]
        import dataclasses

        empty = dataclasses.replace(
            band, axis_indices=(np.array([], dtype=int),) * 2
        )
        with pytest.raises(StructuralError):
            band_extrema(empty)


class TestAnalyzeSynthesize:
    def test_zero_field(self):
        grid = sp.GridSpec((16, 16))
        part = sp.build_tensorial_partition(grid)
        s = sp.SpectralField(grid, np.zeros((1, 16, 16), dtype=complex))
        banded = sp.analyze(s, part)
        assert banded.total_energy() == 0.0

    def test_single_mode_location(self):
        grid = sp.GridSpec((8, 8))
        part = sp.build_tensorial_partition(grid)
        modes = np.zeros((1, 8, 8), dtype=complex)
        modes[0, 3, 1] = 1.0
        modes[0, -3, -1] = 1.0
        banded = sp.analyze(sp.SpectralField(grid, modes), part)
        energies = {bid: banded.band_energy(bid) for bid in banded.band_coeffs}
        assert abs(energies.pop((1, 0)) - 2.0) < 1e-15
        assert all(e == 0.0 for e in energies.values())
        assert banded.dc_energy() == 0.0

    @pytest.mark.parametrize("spec,message", [
        (sp.SpectralField(sp.GridSpec((32, 32)), np.zeros((1, 32, 32))),
         "grids differ"),
        (np.zeros((1, 16, 16), dtype=complex), "does not match grid"),  # full shape
    ])
    def test_spectrum_of_another_shape_rejected(self, spec, message):
        part = sp.build_tensorial_partition(sp.GridSpec((16, 16)))
        with pytest.raises(StructuralError, match=message):
            sp.analyze(spec, part)

    def test_roundtrip_bit_exact(self):
        grid = sp.GridSpec((32, 16))
        part = sp.refine_packet(sp.build_tensorial_partition(grid), 1)
        s = sp.forward_transform(random_field(grid, 2, seed=12))
        assert np.array_equal(sp.synthesize(sp.analyze(s, part)).modes, s.modes)

    def test_energy_additivity_tensorial(self):
        grid = sp.GridSpec((64, 64))
        part = sp.build_tensorial_partition(grid)
        for seed in range(10):
            s = sp.forward_transform(random_field(grid, 1, seed=seed))
            banded = sp.analyze(s, part)
            total = s.l2_norm() ** 2
            assert abs(banded.total_energy() - total) <= 1e-12 * total

    def test_family_tag_synthesis_factor(self):
        grid = sp.GridSpec((32, 32))
        part = sp.build_tensorial_partition(grid)
        s = sp.forward_transform(random_field(grid, 1, seed=13))
        banded = sp.analyze(s, part)
        lifted = sp.apply_lemarie_integral(banded, 1)
        assert lifted.family.nu == (1, 0)
        direct = sp.synthesize(lifted)
        # Same thing assembled by hand: scatter, then multiply each band
        # mode by the axis-1 family weight.
        expected = np.zeros_like(s.modes)
        for band in part.bands:
            k1 = band.axis_wavevectors(0).astype(float)
            scale = band.axis_scale(0)
            factor = (4.0 * scale) / (1j * k1)
            block = lifted.band_coeffs[band.id] * factor[None, :, None]
            expected[(slice(None),) + np.ix_(*band.axis_indices)] = block
        expected.reshape(1, -1)[:, part.dc_indices] = lifted.dc_coeffs
        assert np.max(np.abs(direct.modes - expected)) < 1e-13


class TestLemarieDerivation:
    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("seed,smooth", [(3, False), (4, True)])
    def test_derivative_oracle(self, axis, seed, smooth):
        grid = sp.GridSpec((64, 64))
        part = sp.build_tensorial_partition(grid)
        f = random_field(grid, 1, seed=seed)
        if smooth:
            spec = sp.forward_transform(f)
            flat = spec.flat()
            damp = np.exp(-0.05 * np.sum(kappa_table(grid) ** 2, axis=1))
            spec = sp.SpectralField(
                grid, (flat * damp[None, :]).reshape(spec.modes.shape)
            )
            f = sp.inverse_transform(spec)
        s = sp.forward_transform(f)
        banded = sp.analyze(s, part)
        got = sp.synthesize(sp.apply_lemarie_derivative(banded, axis)).flat()
        kap = kappa_table(grid)[:, axis - 1]
        want = 1j * kap[None, :] * s.flat()
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1)

    def test_derivative_integral_roundtrip(self):
        grid = sp.GridSpec((32, 32))
        part = sp.build_tensorial_partition(grid)
        s = sp.forward_transform(random_field(grid, 1, seed=14))
        flat = s.flat().copy()
        flat[:, kappa_table(grid)[:, 0] == 0] = 0.0  # integrable along axis 1
        s = sp.SpectralField(grid, flat.reshape(s.modes.shape))
        banded = sp.analyze(s, part)
        back = sp.synthesize(
            sp.apply_lemarie_integral(sp.apply_lemarie_derivative(banded, 1), 1)
        )
        assert np.max(np.abs(back.modes - s.modes)) <= 1e-12 * s.l2_norm()
        assert sp.apply_lemarie_integral(
            sp.apply_lemarie_derivative(banded, 1), 1
        ).family.nu == (0, 0)

    def test_constant_along_axis_derivative_is_zero(self):
        grid = sp.GridSpec((16, 16))
        part = sp.build_tensorial_partition(grid)
        values = np.cos(3 * np.arange(16) * 2 * np.pi / 16)[None, None, :]
        f = sp.RealField(grid, np.broadcast_to(values, (1, 16, 16)).copy())
        banded = sp.analyze(sp.forward_transform(f), part)
        d = sp.synthesize(sp.apply_lemarie_derivative(banded, 1))
        assert np.max(np.abs(d.modes)) < 1e-14

    def test_mra_rejected(self):
        grid = sp.GridSpec((16, 16))
        banded = sp.analyze(
            sp.forward_transform(random_field(grid, 1, seed=15)),
            sp.build_mra_partition(grid),
        )
        with pytest.raises(UnsupportedSchemeError):
            sp.apply_lemarie_derivative(banded, 1)

    @pytest.mark.parametrize("axis", [0, 3])
    @pytest.mark.parametrize("op", ["apply_lemarie_derivative", "apply_lemarie_integral"])
    def test_axis_out_of_range_rejected(self, op, axis):
        grid = sp.GridSpec((16, 16))
        banded = sp.analyze(
            sp.forward_transform(random_field(grid, 1, seed=15)),
            sp.build_tensorial_partition(grid),
        )
        with pytest.raises(ArityError, match=f"axis {axis} out of range"):
            getattr(sp, op)(banded, axis)


class TestDump:
    def test_format_and_determinism(self):
        part = sp.build_tensorial_partition(sp.GridSpec((8, 8)))
        text = dump_partition(part)
        assert text == dump_partition(sp.build_tensorial_partition(sp.GridSpec((8, 8))))
        lines = text.strip().splitlines()
        assert lines[0] == "band (0,0) box 1,2 1,2 modes 4"
        assert lines[-1] == "dc modes 28"

    def test_packet_dump_fractional_edges(self):
        part = sp.refine_packet(sp.build_tensorial_partition(sp.GridSpec((8,))), 1)
        text = dump_partition(part)
        assert "box 1,1.5" in text
        assert "dropped" in text
