"""The block loops over the band-major layout against per-band references,
bit for bit, over random 1D-3D power-of-two grids, tensorial, MRA and
packet partitions, with blocks of a few positions so that they cut bands.

Blocking changes no per-mode operation: the Richardson plan, the sampled
and Leray certificates, the Leray rate bounds and the band energies must
equal what one band at a time gives, to the last bit.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop import bands
from shannop.grid import evaluate_modes, wavevector_table
from shannop.precond import (
    BandEntry,
    BandPreconditioner,
    RateBound,
    band_inverses,
    band_omega,
    band_recurrence,
    leray_lambda,
    leray_rate_bounds,
    leray_sampled,
    rate_kantorovich,
)
from shannop.solver import _half_layout, _real_if_exact, _richardson_plan
from shannop.symbols import eval_many

SETTINGS = settings(max_examples=25, deadline=None)

blocks = st.sampled_from([1, 3, 7, 13, 33])


@st.composite
def partitions(draw, min_dim=1, schemes=("tensorial", "mra")):
    dim = draw(st.integers(min_dim, 3))
    scheme = draw(st.sampled_from(schemes))
    if scheme == "mra":
        sizes = (2 ** draw(st.integers(2, 4)),) * dim
        part = sp.build_mra_partition(sp.GridSpec(sizes))
    else:
        sizes = tuple(2 ** draw(st.integers(2, 4)) for _ in range(dim))
        part = sp.build_tensorial_partition(sp.GridSpec(sizes))
    return sp.refine_packet(part, draw(st.integers(0, 2)))


def diagonal_pair(part, alphas=(10.0, 1e3)):
    """A 2x2 diagonal matrix symbol with per-band diagonal entries."""
    sym = sp.Sum(
        sp.Product(sp.Delta(1, 1, 2), sp.ImplicitLaplacian(alphas[0])),
        sp.Product(sp.Delta(2, 2, 2), sp.ImplicitLaplacian(alphas[1])),
    )
    entries = {}
    for band in part.bands:
        a, b, _ = sp.band_extrema(band, mode_exact=False)
        w2 = 0.5 * (a * a + b * b)
        entries[band.id] = BandEntry(np.diag([1.0 + al * w2 for al in alphas]))
    return sym, BandPreconditioner(part, sym, entries, "custom", False)


def full_positions(perm, grid):
    n, h = grid.sizes[-1], grid.half_sizes[-1]
    return (perm // h) * n + perm % h


@SETTINGS
@given(part=partitions(), block=blocks)
def test_layout_blocks_cover_the_bands_in_order(part, block):
    with mock.patch.object(bands, "_BLOCK", block):
        for whole in (False, True):
            pos = 0
            for sl, first, last, counts in bands.layout_blocks(part.offsets, whole):
                assert sl.start == pos
                pos = sl.stop
                lo = np.maximum(part.offsets[first:last], sl.start)
                hi = np.minimum(part.offsets[first + 1 : last + 1], pos)
                assert np.array_equal(counts, hi - lo)
                assert np.all(counts > 0) and np.sum(counts) == pos - sl.start
                if whole:
                    assert sl.start == part.offsets[first]
                    assert pos == part.offsets[last]
                    assert pos - sl.start <= block or last == first + 1
                else:
                    assert pos - sl.start <= block
            assert pos == part.offsets[-1]


@SETTINGS
@given(part=partitions(), block=blocks, matrix=st.booleans())
def test_plan_matches_per_band_reference(part, block, matrix):
    grid = part.grid
    if matrix:
        sym, pc = diagonal_pair(part)
    else:
        sym = sp.ImplicitLaplacian(1e4)
        pc = sp.implicit_laplacian_precond(1e4, part)
    half = _half_layout(part)
    with mock.patch.object(bands, "_BLOCK", block):
        g, p, pdc = _richardson_plan(sym, pc, half)
    o = half.offsets
    for j, (band, lo, hi) in enumerate(zip(part.bands, o, o[1:])):
        pk = band_inverses(sym, pc, [band])
        assert np.array_equal(p[j : j + 1], pk)
        K = grid.wavevectors(half.perm[lo:hi], half=True)
        assert np.array_equal(g[lo:hi], band_recurrence(sym, pk, K, [hi - lo]))

    # The dc part: the pseudo-inverse of the symbol under the Nyquist
    # convention, at wavevectors from the full-grid table.
    kdc = wavevector_table(grid)[full_positions(half.perm[o[-1] :], grid)]
    a, _ = evaluate_modes(sym, grid, kdc)
    if matrix:
        want_p = _real_if_exact(sp.pseudo_inverse(a))
        want_g = _real_if_exact(np.eye(2) - a @ want_p)
    else:
        a = _real_if_exact(a[:, 0, 0])
        want_p = np.where(a == 0, 0.0, 1.0 / np.where(a == 0, 1.0, a))
        want_g = 1.0 - a * want_p
    assert np.array_equal(pdc, want_p)
    assert np.array_equal(g[o[-1] :], want_g)


@SETTINGS
@given(part=partitions(), block=blocks, alpha=st.sampled_from([1.0, 1e6]))
def test_sampled_contraction_matches_per_band_reference(part, block, alpha):
    sym = sp.ImplicitLaplacian(alpha)
    pc = sp.implicit_laplacian_precond(alpha, part)
    with mock.patch.object(bands, "_BLOCK", block):
        got = [sp.sampled_contraction(sym, pc, band) for band in part.bands]
    for band, rho in zip(part.bands, got):
        a, _ = eval_many(sym, band.mode_wavevectors().astype(float))
        p = 1.0 / pc.entries[band.id].matrix[0, 0]
        assert rho == float(np.abs(1.0 - a[:, 0, 0].real * p).max())


@SETTINGS
@given(part=partitions(min_dim=2, schemes=("tensorial",)), block=blocks)
def test_leray_certificates_match_per_band_reference(part, block):
    with mock.patch.object(bands, "_BLOCK", block):
        worst = leray_sampled(part)
    expected = []
    for band, got in zip(part.bands, worst.tolist()):
        omega = band_omega(band)
        K = band.mode_wavevectors().astype(float)
        lam = leray_lambda(omega, K)
        assert got == float(np.max(np.abs(lam)))
        assert np.array_equal(leray_lambda(np.tile(omega, (len(K), 1)), K), lam)
        wsq = np.sum(omega**2)
        old = 1.0 - np.sum(K**2, axis=1) * np.sum(omega**4 / (wsq**2 * K**2), axis=1)
        assert np.array_equal(lam, old)
        b = float(max(hi / lo for (_, hi), lo in zip(band.box, omega)))
        expected.append(
            RateBound(band.id, 1.0, b, rate_kantorovich(1.0, b), "kantorovich")
        )
    assert leray_rate_bounds(part) == expected


@SETTINGS
@given(part=partitions(), block=blocks, components=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_total_energy_matches_per_band_reference(part, block, components, seed):
    rng = np.random.default_rng(seed)
    shape = (components,) + part.grid.sizes
    spec = sp.SpectralField(
        part.grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    banded = sp.analyze(spec, part)
    with mock.patch.object(bands, "_BLOCK", block):
        total = banded.total_energy()
    energies = [banded.band_energy(band.id) for band in part.bands]
    assert total == banded.dc_energy() + sum(energies)
