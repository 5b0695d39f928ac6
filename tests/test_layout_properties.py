"""Band projection, band energies and per-band wavevectors against
references built per band from ``np.ix_`` and ``grid.axis_wavevectors``,
over random 1D-3D power-of-two grids, tensorial, MRA and packet partitions
(refined once or twice, and deep enough for empty and ragged pieces) and
1-3 components.

Everything here is compared bit for bit: the band layout is a reordering
of modes, so no value it produces may differ in the last digit from the
per-band reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.generate import random_field
from shannop.grid import forward_half_transform
from shannop.precond import band_omega, leray_lambda
from shannop.symbols import eval_many

from conftest import reference_wavevectors

SETTINGS = settings(max_examples=30, deadline=None)

partitions = st.tuples(
    st.integers(1, 3).flatmap(lambda dim: st.tuples(*([st.integers(2, 6)] * dim))),
    st.sampled_from(["tensorial", "mra"]),
    st.integers(0, 2),
)


def build(exps, scheme, depth):
    if scheme == "mra":
        exps = (exps[0],) * len(exps)  # MRA needs an isotropic grid
        part = sp.build_mra_partition(sp.GridSpec(tuple(2**e for e in exps)))
    else:
        part = sp.build_tensorial_partition(sp.GridSpec(tuple(2**e for e in exps)))
    return sp.refine_packet(part, depth)


def random_spectrum(grid, components, seed):
    rng = np.random.default_rng(seed)
    shape = (components,) + grid.sizes
    return sp.SpectralField(
        grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


def bits(x):
    return np.ascontiguousarray(x).view(np.uint8)


# Besides the partitions above: refining a refined partition, whose
# sub-bands of different parents interleave in sorted order, and depths 3-5
# on grids up to 32 per axis, where pieces narrower than one mode are empty
# or hold one magnitude and MRA's first piece on a [0, 2^j) axis holds
# k = 0, one mode fewer than the others.
layout_partitions = st.one_of(
    partitions.map(lambda p: build(*p)),
    partitions.map(lambda p: sp.refine_packet(build(p[0], p[1], 1), 1)),
    st.builds(
        build,
        st.integers(1, 3).flatmap(lambda dim: st.tuples(*[st.integers(2, 5)] * dim)),
        st.sampled_from(["tensorial", "mra"]),
        st.integers(3, 5),
    ),
)


@settings(max_examples=45, deadline=None)
@given(part=layout_partitions)
def test_layout_is_the_band_positions_then_dc(part):
    flat = []
    for band in part.bands:
        mesh = np.meshgrid(*band.axis_indices, indexing="ij")
        want = np.ravel_multi_index([m.ravel() for m in mesh], part.grid.sizes)
        assert np.array_equal(band.flat_indices(), want)
        flat.append(want)
    perm = part.perm
    assert perm.dtype == np.int32
    assert np.array_equal(perm, np.concatenate(flat + [part.dc_indices]))
    assert np.array_equal(
        part.offsets, np.cumsum([0] + [band.nmodes for band in part.bands])
    )


@settings(max_examples=40, deadline=None)
@given(
    exps=st.integers(1, 3).flatmap(lambda dim: st.tuples(*[st.integers(2, 5)] * dim)),
    depth=st.integers(0, 3),
)
def test_tensorial_band_modes_are_never_self_conjugate(exps, depth):
    """A tensorial band holds last-axis indices 2^j <= |k| < 2^(j+1) with
    2^(j+1) <= N/2, and packets split those intervals: k = 0 and k = N/2
    are dc modes, so every self-conjugate position of the half layout lies
    in its dc part.  The Helmholtz split counts each band value twice."""
    half = build(exps, "tensorial", depth).half
    assert np.all(half.sc >= half.offsets[-1])


@SETTINGS
@given(part=partitions, components=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_analyze_synthesize_and_energies_match_per_band_reference(
    part, components, seed
):
    part = build(*part)
    s = random_spectrum(part.grid, components, seed)
    banded = sp.analyze(s, part)
    assert np.array_equal(bits(sp.synthesize(banded).modes), bits(s.modes))

    # The references are C-order copies, as a band block was before any
    # band layout existed: np.sum's order follows the memory layout.
    band_energies = []
    for band in part.bands:
        block = s.modes[(slice(None),) + np.ix_(*band.axis_indices)].copy()
        got = banded.band_coeffs[band.id]
        assert got.shape == block.shape
        assert np.array_equal(bits(got), bits(block))
        energy = float(np.sum(np.abs(block) ** 2))
        assert banded.band_energy(band.id) == energy
        band_energies.append(energy)
    dc = s.flat()[:, part.dc_indices].copy()
    assert np.array_equal(bits(banded.dc_coeffs), bits(dc))
    dc_energy = float(np.sum(np.abs(dc) ** 2))
    assert banded.dc_energy() == dc_energy
    assert banded.total_energy() == dc_energy + sum(band_energies)


@SETTINGS
@given(part=partitions, components=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_half_form_round_trips_and_keeps_the_full_energies(part, components, seed):
    """The half form, from the half spectrum of a real field, against the
    full form of its full spectrum.  Synthesis returns the half spectrum
    bit for bit, and each band's view is the full one without its
    last-axis indices above N_last/2.  Band, dc and total energies equal
    the full form's to roundoff, which holds only because every band holds
    both signs of its last-axis interval: a value counts twice, for its
    mode and the mode's reflection, except on the self-conjugate planes."""
    part = build(*part)
    grid = part.grid
    field = random_field(grid, components, seed=seed)
    spec = forward_half_transform(field)
    full = sp.analyze(sp.forward_transform(field), part)
    half = sp.analyze(spec, part)
    assert np.array_equal(bits(sp.synthesize(half)), bits(spec))

    n = grid.sizes[-1]
    for band in part.bands:
        kept = band.axis_indices[-1] <= n // 2
        want = full.band_coeffs[band.id][..., kept]
        assert np.array_equal(bits(half.band_coeffs[band.id]), bits(want))
        energy = full.band_energy(band.id)
        assert abs(half.band_energy(band.id) - energy) <= 1e-13 * energy
    energy = full.dc_energy()
    assert abs(half.dc_energy() - energy) <= 1e-13 * energy
    energy = full.total_energy()
    assert abs(half.total_energy() - energy) <= 1e-13 * energy

    # The Lemarie maps act per mode, so on the half form they give the
    # full form's values on the half grid.
    if part.base_scheme == "tensorial":
        h = grid.half_sizes[-1]
        for axis in range(1, grid.dim + 1):
            got = sp.synthesize(sp.apply_lemarie_derivative(half, axis))
            want = sp.synthesize(sp.apply_lemarie_derivative(full, axis))
            assert np.array_equal(bits(got), bits(want.modes[..., :h]))


@SETTINGS
@given(
    exps=st.integers(1, 3).flatmap(lambda dim: st.tuples(*[st.integers(2, 5)] * dim)),
    scheme=st.sampled_from(["tensorial", "mra"]),
    depth=st.integers(0, 3),
    components=st.integers(1, 3),
)
def test_band_views_take_the_band_shapes(exps, scheme, depth, components):
    """A view is (m, *sub-box) in the full form; in the half form the last
    axis keeps the band's indices <= N_last/2."""
    part = build(exps, scheme, depth)
    grid = part.grid
    field = random_field(grid, components, seed=1)
    full = sp.analyze(sp.forward_transform(field), part)
    half = sp.analyze(forward_half_transform(field), part)
    for band in part.bands:
        kept = np.count_nonzero(band.axis_indices[-1] <= grid.sizes[-1] // 2)
        assert full.band_coeffs[band.id].shape == (components,) + band.shape
        want = (components,) + band.shape[:-1] + (kept,)
        assert half.band_coeffs[band.id].shape == want


def test_axis_count_counts_the_magnitudes_in_an_interval():
    from shannop.bands import _axis_count

    for n in (4, 8, 32):
        mags = np.abs(sp.GridSpec((n,)).axis_wavevectors(0))
        edges = np.arange(0, n // 2 + 2, 0.25)
        for lo in edges:
            for hi in edges[edges >= lo]:
                want = np.count_nonzero((mags >= lo) & (mags < hi))
                assert _axis_count(lo, hi, n) == want, (lo, hi, n)


@SETTINGS
@given(part=partitions, alpha=st.sampled_from([1.0, 1e6]))
def test_certificates_match_meshgrid_reference(part, alpha):
    part = build(*part)
    sym = sp.ImplicitLaplacian(alpha)
    pc = sp.implicit_laplacian_precond(alpha, part)
    perm = part.perm
    for band, entry in zip(part.bands, pc.entries):
        for i, ix in enumerate(band.axis_indices):
            want = band.grid.axis_wavevectors(i)[ix]
            got = band.axis_wavevectors(i)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        K = reference_wavevectors(band)
        modes = part.grid.wavevectors(perm[part.segment(band.id)]).T
        assert np.array_equal(modes, K)
        a, _ = eval_many(sym, K)
        p = 1.0 / entry[0, 0]
        want = float(np.abs(1.0 - a[:, 0, 0].real * p).max())
        assert sp.sampled_contraction(sym, pc, band) == want
        if part.base_scheme == "tensorial":
            lam = leray_lambda(band_omega(band), modes)
            want = float(np.max(np.abs(leray_lambda(band_omega(band), K))))
            assert float(np.max(np.abs(lam))) == want
