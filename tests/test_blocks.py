"""The block loops over the band-major layout against per-band references,
bit for bit, over random 1D-3D power-of-two grids, tensorial, MRA and
packet partitions, with blocks of a few positions so that they cut bands.

Blocking changes no per-mode operation: the Richardson plan, the sampled
and Leray certificates, the Leray rate bounds, the Helmholtz plan's
eigenvalues and the band energies must equal what one band at a time
gives, to the last bit.  So must the preconditioner records: entries and
bounds built for all bands at once, and the optimal scalar constants and
their refusals.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop import bands
from shannop.errors import NotInvertibleOnBandError
from shannop.grid import evaluate_modes
from shannop.precond import (
    RateBound,
    _real_if_exact,
    band_inverses,
    band_omega,
    band_recurrence,
    given_entries,
    leray_lambda,
    leray_rate_bounds,
    leray_sampled,
    rate_kantorovich,
)
from shannop.solver import _leray_blocks, _richardson_plan
from shannop.symbols import eval_many

from conftest import partitions, reference_wavevectors, wavevector_table

SETTINGS = settings(max_examples=25, deadline=None)

blocks = st.sampled_from([1, 3, 7, 13, 33])


def diagonal_pair(part, alphas=(10.0, 1e3)):
    """A 2x2 diagonal matrix symbol with per-band diagonal entries."""
    sym = sp.Sum(
        sp.Product(sp.Delta(1, 1, 2), sp.ImplicitLaplacian(alphas[0])),
        sp.Product(sp.Delta(2, 2, 2), sp.ImplicitLaplacian(alphas[1])),
    )
    entries = []
    for band in part.bands:
        a, b, _ = sp.band_extrema(band, mode_exact=False)
        w2 = 0.5 * (a * a + b * b)
        entries.append(np.diag([1.0 + al * w2 for al in alphas]))
    return sym, given_entries(sym, part, entries)


def full_positions(perm, grid):
    n, h = grid.sizes[-1], grid.half_sizes[-1]
    return (perm // h) * n + perm % h


@SETTINGS
@given(part=partitions(), block=blocks)
def test_layout_blocks_cover_the_bands_in_order(part, block):
    with mock.patch.object(bands, "_BLOCK", block):
        pos = 0
        for sl, first, last, counts in bands.layout_blocks(part.offsets):
            assert sl.start == pos
            pos = sl.stop
            lo = np.maximum(part.offsets[first:last], sl.start)
            hi = np.minimum(part.offsets[first + 1 : last + 1], pos)
            assert np.array_equal(counts, hi - lo)
            assert np.all(counts > 0) and np.sum(counts) == pos - sl.start
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
    half = part.half
    with mock.patch.object(bands, "_BLOCK", block):
        g, p, pdc = _richardson_plan(sym, pc)
    o = half.offsets
    for j, (band, lo, hi) in enumerate(zip(part.bands, o, o[1:])):
        pk = band_inverses(sym, pc, range(j, j + 1))
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
    for band, rho, entry in zip(part.bands, got, pc.entries):
        a, _ = eval_many(sym, reference_wavevectors(band))
        p = 1.0 / entry[0, 0]
        assert rho == float(np.abs(1.0 - a[:, 0, 0].real * p).max())


def coupled_pair(part):
    """A 2x2 symbol coupled by i xi_1 off the diagonal, so G = Id - A P is
    complex and its norm takes the SVD path, with ``diagonal_pair``'s
    entries."""
    diagonal, pc = diagonal_pair(part)
    sym = sp.Sum(diagonal, sp.Sum(
        sp.Product(sp.Delta(1, 2, 2), sp.Xi(1)),
        sp.Product(sp.Delta(2, 1, 2), sp.Scale(0.5, sp.Xi(1))),
    ))
    return sym, given_entries(sym, part, pc.entries)


@SETTINGS
@given(part=partitions(), block=blocks, matrix=st.booleans())
def test_certificates_of_complex_symbols_are_full_grid_maxima(part, block, matrix):
    """The certificates sample the half layout, where a complex symbol's
    values at the reflected modes, left out, are the conjugates of those
    kept.  The sups must be the maxima over every band mode of the full
    layout, bit for bit, for |G| and for the largest singular value of a
    complex 2x2 G."""
    if matrix:
        sym, pc = coupled_pair(part)
    else:
        sym = sp.Sum(sp.ImplicitLaplacian(1e4), sp.Xi(1))
        entries = sp.implicit_laplacian_precond(1e4, part).entries
        pc = given_entries(sym, part, entries)
    with mock.patch.object(bands, "_BLOCK", block):
        got = [sp.sampled_contraction(sym, pc, band) for band in part.bands]
    full = part.perm
    p = band_inverses(sym, pc, range(len(part.ids)))
    for i, (lo, hi) in enumerate(zip(part.offsets, part.offsets[1:])):
        K = part.grid.wavevectors(full[lo:hi])
        g = band_recurrence(sym, p[i : i + 1], K, [hi - lo])
        norms = np.abs(g) if g.ndim == 1 else np.linalg.svd(g, compute_uv=False)[:, 0]
        assert got[i] == float(norms.max())
    assert np.array_equal(pc.bounds.rho, got)


@SETTINGS
@given(part=partitions(min_dim=2, schemes=("tensorial",)), block=blocks)
def test_leray_certificates_match_per_band_reference(part, block):
    with mock.patch.object(bands, "_BLOCK", block):
        worst = leray_sampled(part)
    expected = []
    for band, got in zip(part.bands, worst.tolist()):
        omega = band_omega(band)
        K = reference_wavevectors(band)
        lam = leray_lambda(omega, K)
        assert got == float(np.max(np.abs(lam)))
        ones = np.ones(len(K), dtype=int)
        assert np.array_equal(leray_lambda(np.tile(omega, (len(K), 1)), K, ones), lam)
        wsq = np.sum(omega**2)
        old = 1.0 - np.sum(K**2, axis=1) * np.sum(omega**4 / (wsq**2 * K**2), axis=1)
        assert np.array_equal(lam, old)
        b = float(max(hi / lo for (_, hi), lo in zip(band.box, omega)))
        expected.append(
            RateBound(band.id, 1.0, b, rate_kantorovich(1.0, b), "kantorovich")
        )
    assert leray_rate_bounds(part) == expected


@SETTINGS
@given(part=partitions(min_dim=2, schemes=("tensorial",)), block=blocks)
def test_helmholtz_plan_runs_leray_lambda(part, block):
    grid = part.grid
    half = part.half
    o = half.offsets
    omega = np.array([band_omega(band) for band in part.bands])
    lam = np.empty(o[-1])
    v0 = np.zeros((grid.dim, o[-1]), dtype=complex)
    with mock.patch.object(bands, "_BLOCK", block):
        for sl, _, lam_b, *_ in _leray_blocks(grid, half, omega, v0):
            lam[sl] = lam_b
    for band, lo, hi in zip(part.bands, o, o[1:]):
        K = grid.wavevectors(half.perm[lo:hi], half=True).T
        assert np.array_equal(lam[lo:hi], leray_lambda(band_omega(band), K))


def scalar_optimal_reference(sym, part, mode_exact):
    """``scalar_optimal`` one band at a time: its (entries, bounds) from the
    symbol's values at the band's modes or box corners, or the message of
    the first band's refusal."""
    entries, bounds = [], []
    for band, box in zip(part.bands, part.edges):
        if mode_exact:
            K = reference_wavevectors(band)
        else:
            K = np.array(np.meshgrid(*box, indexing="ij")).reshape(part.grid.dim, -1).T
        v = eval_many(sym, K)[0][:, 0, 0]
        if not np.all(np.isfinite(v)):
            return f"symbol is not finite on band {band.id}"
        if np.max(np.abs(v.imag)) > 1e-12 * max(np.max(np.abs(v)), 1e-300):
            return f"symbol is not real on band {band.id}"
        re = v.real
        if re.min() <= 0 < re.max() or re.max() == 0:
            return str(NotInvertibleOnBandError(band.id))
        m, M = float(np.abs(re).min()), float(np.abs(re).max())
        entries.append(np.copysign(0.5 * (m + M), re.max()))
        bounds.append(RateBound(band.id, m, M, (M - m) / (M + m), "sampled-sup"))
    return np.reshape(entries, (-1, 1, 1)), bounds


@SETTINGS
@given(part=partitions(), block=st.integers(1, 33), mode_exact=st.booleans(),
       operator=st.sampled_from([
           "nlap", "nlap + 2", "ilap(1e3)", "-(nlap + 1)", "xi(1) * xi(1)",
           "xi(1)", "nlap - 5", "xiinv(1) * xiinv(1)",
       ]))
def test_scalar_optimal_matches_per_band_reference(part, block, mode_exact, operator):
    sym = sp.parse_symbol(operator, part.grid.dim)
    want = scalar_optimal_reference(sym, part, mode_exact)
    with mock.patch.object(bands, "_BLOCK", block):
        try:
            pc = sp.scalar_optimal(sym, part, mode_exact)
        except NotInvertibleOnBandError as exc:
            assert str(exc) == want
            return
    entries, bounds = want
    assert np.array_equal(pc.entries, entries)
    assert pc.rate_bounds() == bounds


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


@SETTINGS
@given(part=partitions(), alpha=st.sampled_from([0.0, 1.0, 1e4, 1e6]),
       mode_exact=st.booleans())
def test_implicit_laplacian_record_matches_per_band_formulas(part, alpha, mode_exact):
    pc = sp.implicit_laplacian_precond(alpha, part, mode_exact)
    assert pc.entries.shape == (len(part.bands), 1, 1)
    for band, entry, rb in zip(part.bands, pc.entries, pc.rate_bounds(), strict=True):
        a, b, _ = sp.band_extrema(band, mode_exact)
        rho = sp.rate_implicit_laplacian(alpha, a, b)
        assert rb == RateBound(band.id, a, b, rho, "implicit-laplacian")
        assert type(rb.rho) is float
        assert entry[0, 0] == 1.0 + alpha * (0.5 * (a * a + b * b))


@SETTINGS
@given(part=partitions(), block=blocks, matrix=st.booleans())
def test_given_entries_bounds_are_the_sampled_sups(part, block, matrix):
    with mock.patch.object(bands, "_BLOCK", block):
        if matrix:
            sym, pc = diagonal_pair(part)
        else:
            sym = sp.ImplicitLaplacian(1e4)
            entries = sp.implicit_laplacian_precond(1e4, part).entries
            pc = given_entries(sym, part, entries)
    expected = []
    for band in part.bands:
        a, b, _ = sp.band_extrema(band, mode_exact=False)
        rho = sp.sampled_contraction(sym, pc, band)
        expected.append(RateBound(band.id, a, b, rho, "sampled-sup"))
    assert pc.rate_bounds() == expected


@SETTINGS
@given(part=partitions(), data=st.data(), factor=st.sampled_from([0.5, 1.01, -1.0]))
def test_scaled_entry_changes_only_its_band(part, data, factor):
    sym = sp.ImplicitLaplacian(1e4)
    pc = sp.implicit_laplacian_precond(1e4, part)
    entries, before = pc.entries.copy(), list(pc.rate_bounds())
    i = data.draw(st.integers(0, len(part.bands) - 1))
    band = part.bands[i]
    scaled = pc.with_scaled_entry(band.id, factor)
    assert np.array_equal(pc.entries, entries) and pc.rate_bounds() == before
    want = entries.copy()
    want[i] *= factor
    assert np.array_equal(scaled.entries, want)
    after = scaled.rate_bounds()
    assert after[:i] + after[i + 1 :] == before[:i] + before[i + 1 :]
    rho = sp.sampled_contraction(sym, scaled, band)
    assert after[i] == RateBound(band.id, before[i].a, before[i].b, rho, "sampled-sup")
