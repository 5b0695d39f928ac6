"""Preconditioner constructions, rate formulas and contraction sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.errors import ArityError, NotInvertibleOnBandError
from shannop.generate import random_field
from shannop.precond import (
    BandPreconditioner,
    RateBound,
    band_omega,
    leray_lambda,
    leray_matrices,
    leray_rate_bounds,
    rate_kantorovich,
)
from shannop.solver import _richardson_plan
from shannop.symbols import eval_many

from conftest import partitions, reference_wavevectors
from test_richardson_sweep import vector_state_solve


def tensorial(sizes):
    return sp.build_tensorial_partition(sp.GridSpec(sizes))


class TestScalarOptimal:
    def test_constant_symbol(self):
        part = tensorial((16, 16))
        pc = sp.scalar_optimal(sp.Const([[3.0]]), part)
        for entry in pc.entries:
            assert abs(entry[0, 0] - 3.0) < 1e-15

    def test_mode_exact_quadratic(self):
        part = tensorial((16,))
        pc = sp.scalar_optimal(sp.NegLaplacian(), part, mode_exact=True)
        entry = pc.entries[2]  # band (2,), modes 4..7: values 16..49
        assert abs(entry[0, 0] - 0.5 * (16 + 49)) < 1e-12
        rho = sp.sampled_contraction(sp.NegLaplacian(), pc, part.band((2,)))
        assert abs(rho - (49 - 16) / (49 + 16)) < 1e-13

    def test_continuous_corners(self):
        part = tensorial((16,))
        pc = sp.scalar_optimal(sp.NegLaplacian(), part, mode_exact=False)
        entry = pc.entries[2]  # band (2,), box [4,8): values 16..64
        assert abs(entry[0, 0] - 0.5 * (16 + 64)) < 1e-12

    def test_agrees_with_laplacian_rule(self):
        part = tensorial((16, 16))
        alpha = 3.7
        pc_scalar = sp.scalar_optimal(
            sp.ImplicitLaplacian(alpha), part, mode_exact=False
        )
        pc_rule = sp.implicit_laplacian_precond(alpha, part, mode_exact=False)
        for e_scalar, e_rule in zip(pc_scalar.entries, pc_rule.entries):
            assert abs(e_scalar[0, 0] - e_rule[0, 0]) < 1e-12

    def test_negative_symbol_keeps_sign(self):
        part = tensorial((16,))
        pc = sp.scalar_optimal(sp.Scale(-1.0, sp.NegLaplacian()), part)
        assert pc.entries[2][0, 0] < 0  # band (2,)

    def test_sign_change_rejected(self):
        part = tensorial((16,))
        # |k|^2 - 30 changes sign on the band with modes 4..7.
        sym = sp.Sum(sp.NegLaplacian(), sp.Const([[-30.0]]))
        with pytest.raises(NotInvertibleOnBandError):
            sp.scalar_optimal(sym, part)

    def test_non_finite_band_values_name_the_band(self):
        part = tensorial((16,))
        sym = sp.Scale(1e300, sp.Scale(1e300, sp.NegLaplacian()))
        for mode_exact in (True, False):
            with pytest.raises(NotInvertibleOnBandError, match="not finite") as err:
                sp.scalar_optimal(sym, part, mode_exact=mode_exact)
            assert err.value.band_id == part.bands[0].id

    def test_matrix_symbol_rejected(self):
        with pytest.raises(ArityError):
            sp.scalar_optimal(sp.LerayP(2), tensorial((8, 8)))


class TestImplicitLaplacianPrecond:
    def test_alpha_zero_identity(self):
        part = tensorial((16, 16))
        pc = sp.implicit_laplacian_precond(0.0, part)
        for entry in pc.entries:
            assert entry[0, 0] == 1.0

    def test_midpoint_rule(self):
        part = tensorial((8, 8))
        pc = sp.implicit_laplacian_precond(1.0, part)
        # Band box [1,2)^2: a^2=2, b^2=8, omega^2=5.
        assert abs(pc.entries[0][0, 0] - 6.0) < 1e-14  # band (0, 0)

    def test_rate_bounds_match_formula(self):
        part = tensorial((32, 32))
        alpha = 1e6
        pc = sp.implicit_laplacian_precond(alpha, part)
        for rb in pc.rate_bounds():
            assert rb.formula == "implicit-laplacian"
            assert abs(
                rb.rho - sp.rate_implicit_laplacian(alpha, rb.a, rb.b)
            ) < 1e-15
            assert rb.rho < 0.6


class TestRateFormulas:
    def test_limit_three_fifths(self):
        for a in (1.0, 2.0, 7.0):
            assert abs(sp.rate_implicit_laplacian(1e12, a, 2 * a) - 0.6) < 1e-9

    def test_packet_limit(self):
        assert abs(sp.rate_implicit_laplacian(1e12, 1.0, 1.5) - 5 / 13) < 1e-9

    def test_alpha_zero(self):
        assert sp.rate_implicit_laplacian(0.0, 1.0, 2.0) == 0.0

    def test_monotone_in_alpha_and_ratio(self):
        rates = [sp.rate_implicit_laplacian(a, 1.0, 2.0) for a in (0.1, 1, 10)]
        assert rates == sorted(rates)
        rates = [sp.rate_implicit_laplacian(1.0, 1.0, b) for b in (1.2, 1.6, 2.0)]
        assert rates == sorted(rates)

    def test_kantorovich_values(self):
        assert abs(sp.rate_kantorovich(1, 2) - 9 / 16) < 1e-15
        assert abs(sp.rate_kantorovich(1, 1.5) - 25 / 144) < 1e-15
        assert sp.rate_kantorovich(3, 3) == 0.0

    def test_kantorovich_scale_invariance(self):
        for a, b in ((2, 5), (0.5, 0.7), (4, 8)):
            assert abs(
                sp.rate_kantorovich(a, b) - sp.rate_kantorovich(1.0, b / a)
            ) < 1e-13


class TestLerayOperators:
    def test_tree_matches_fast_path(self):
        part = tensorial((16, 16))
        band = part.band((1, 2))
        mw_sym, lw_sym = sp.leray_band_operators(band)
        K = reference_wavevectors(band)
        mw_tree, _ = eval_many(mw_sym, K)
        lw_tree, _ = eval_many(lw_sym, K)
        mw_fast, lw_fast = leray_matrices(band_omega(band), K)
        assert np.max(np.abs(mw_tree - mw_fast)) < 1e-13
        assert np.max(np.abs(lw_tree - lw_fast)) < 1e-13

    def test_row_annihilation(self):
        part = tensorial((32, 32))
        for band in part.bands:
            K = reference_wavevectors(band)
            mw, _ = leray_matrices(band_omega(band), K)
            rows = np.einsum("ki,kij->kj", K, mw)
            assert np.max(np.abs(rows)) < 1e-12

    def test_gradient_form(self):
        part = tensorial((16, 16))
        band = part.band((0, 1))
        K = reference_wavevectors(band)
        _, lw = leray_matrices(band_omega(band), K)
        rng = np.random.default_rng(0)
        v = rng.standard_normal((K.shape[0], 2)) + 1j * rng.standard_normal(
            (K.shape[0], 2)
        )
        lv = np.einsum("kij,kj->ki", lw, v)
        cross = lv[:, 0] * K[:, 1] - lv[:, 1] * K[:, 0]
        assert np.max(np.abs(cross)) < 1e-12

    def test_corner_eigenvalue(self):
        part = tensorial((8, 8))
        band = part.band((0, 0))
        omega = band_omega(band)
        K = np.array([[1.0, 2.0]])
        mw, lw = leray_matrices(omega, K)
        resid = np.eye(2) - mw[0] - lw[0]
        eigs = sorted(np.linalg.eigvals(resid), key=abs)
        assert abs(eigs[0]) < 1e-14
        assert abs(eigs[1] - (-9 / 16)) < 1e-14
        assert abs(leray_lambda(omega, K)[0] - (-9 / 16)) < 1e-14

    @pytest.mark.parametrize("sizes,depth", [((64, 64), 0), ((64, 32), 2),
                                             ((16, 16, 16), 0), ((16, 32, 16), 1)])
    def test_rank_one_residual_closed_form(self, sizes, depth):
        """Id - Mw - Lw = c (xi - |xi|^2 c / |w|^2)^T / |w|^2 with
        c_i = w_i^2 / xi_i, at random modes of random bands, relative to
        the terms the residual is the difference of; the form without the
        second 1/|w|^2 is far off."""
        part = sp.refine_packet(tensorial(sizes), depth)
        rng = np.random.default_rng(sum(sizes) + depth)
        for i in rng.choice(len(part.bands), size=8):
            band = part.bands[i]
            K = reference_wavevectors(band)
            K = K[rng.choice(len(K), size=min(len(K), 16), replace=False)]
            omega = band_omega(band)
            mw, lw = leray_matrices(omega, K)
            resid = np.eye(len(sizes)) - mw - lw
            wsq = np.sum(omega**2)
            c = omega**2 / K
            ksq = np.sum(K**2, axis=1, keepdims=True)
            want = c[:, :, None] * (K - ksq * c / wsq)[:, None, :] / wsq
            scale = 1.0 + np.max(np.abs(mw) + np.abs(lw), axis=(1, 2))
            err = np.max(np.abs(resid - want), axis=(1, 2))
            assert np.all(err <= 1e-13 * scale)
            wrong = c[:, :, None] * (K - ksq * c)[:, None, :] / wsq
            assert np.max(np.abs(resid - wrong)) > 1e-3 * scale.max()

    def test_constructible_pair(self):
        band = tensorial((8, 8)).band((0, 0))
        mw, lw = sp.leray_band_operators(band)
        assert sp.is_constructible(mw) and sp.is_constructible(lw)
        assert sp.reality_check(mw) and sp.reality_check(lw)

    def test_rate_bounds(self):
        part = tensorial((32, 32))
        for rb in leray_rate_bounds(part):
            assert rb.formula == "kantorovich"
            assert abs(rb.rho - 9 / 16) < 1e-14
        refined = sp.refine_packet(part, 1)
        for rb in leray_rate_bounds(refined):
            assert rb.rho <= 25 / 144 + 1e-14

    def test_mra_band_rejected(self):
        part = sp.build_mra_partition(sp.GridSpec((8, 8)))
        with pytest.raises(ArityError):
            sp.leray_band_operators(part.band((1, (1, 0))))


@settings(max_examples=40, deadline=None)
@given(
    exps=st.integers(1, 3).flatmap(
        lambda dim: st.tuples(*([st.integers(2, 5)] * dim))
    ),
    depth=st.integers(0, 2),
)
def test_leray_rate_bounds_are_the_per_band_box_ratios(exps, depth):
    """Each band's Kantorovich bound over the per-axis ratios of its box
    edges to its scales ``band_omega``, field for field."""
    part = sp.refine_packet(tensorial(tuple(2**e for e in exps)), depth)
    expected = []
    for band in part.bands:
        omega = band_omega(band)
        a = float(min(lo / w for (lo, _), w in zip(band.box, omega)))
        b = float(max(hi / w for (_, hi), w in zip(band.box, omega)))
        expected.append(
            RateBound(band.id, a, b, rate_kantorovich(a, b), "kantorovich")
        )
    assert leray_rate_bounds(part) == expected


class TestSampledContraction:
    def test_identity_symbol(self):
        part = tensorial((16, 16))
        pc = sp.scalar_optimal(sp.Identity(1), part)
        for band in part.bands:
            assert sp.sampled_contraction(sp.Identity(1), pc, band) == 0.0

    def test_ilap_continuous_bound(self):
        part = tensorial((32,))
        sym = sp.ImplicitLaplacian(1e12)
        pc = sp.implicit_laplacian_precond(1e12, part, mode_exact=False)
        pc_exact = sp.implicit_laplacian_precond(1e12, part, mode_exact=True)
        for band in part.bands:
            rho = sp.sampled_contraction(sym, pc, band)
            assert rho <= 0.6 + 1e-9
            rho_exact = sp.sampled_contraction(sym, pc_exact, band)
            if band.nmodes > 2:  # a spread of modes to take advantage of
                assert rho_exact < rho

    def test_matrix_entry_path(self):
        part = tensorial((16, 16))
        band = part.band((0, 1))
        mw_sym, lw_sym = sp.leray_band_operators(band)
        bundle = sp.Sum(mw_sym, lw_sym)
        pc = sp.given_entries(bundle, part, [np.eye(2)] * len(part.bands))
        rho = sp.sampled_contraction(bundle, pc, band)
        # Independent path: explicit matrices and a direct svd.
        K = reference_wavevectors(band)
        mw, lw = leray_matrices(band_omega(band), K)
        sv = np.linalg.svd(np.eye(2) - mw - lw, compute_uv=False)
        assert abs(rho - sv[:, 0].max()) < 1e-12
        assert rho > 0

    def test_optimal_beats_perturbation(self):
        rng = np.random.default_rng(42)
        part = tensorial((32, 32))
        for _ in range(10):
            alpha = 10.0 ** rng.uniform(-2, 6)
            c = 10.0 ** rng.uniform(-1, 1)
            sym = sp.Scale(c, sp.ImplicitLaplacian(alpha))
            pc = sp.scalar_optimal(sym, part, mode_exact=True)
            band = part.bands[rng.integers(len(part.bands))]
            base = sp.sampled_contraction(sym, pc, band)
            for factor in (1.01, 0.99):
                worse = sp.sampled_contraction(
                    sym, pc.with_scaled_entry(band.id, factor), band
                )
                assert base <= worse + 1e-12


class TestEntriesShape:
    """Entries have their symbol's shape: (nbands,) + ``target.shape``."""

    def test_matrix_entries_for_a_scalar_symbol(self):
        part = tensorial((16, 16))
        sym = sp.ImplicitLaplacian(10.0)
        entries = sp.implicit_laplacian_precond(10.0, part).entries * np.eye(2)
        with pytest.raises(ArityError):
            pc = sp.given_entries(sym, part, entries)
            sp.richardson_solve(sym, pc, random_field(part.grid, 1, seed=3))

    def test_scalar_entries_for_a_matrix_symbol(self):
        part = tensorial((16, 16))
        sym = sp.Product(sp.Identity(2), sp.ImplicitLaplacian(10.0))
        entries = sp.implicit_laplacian_precond(10.0, part).entries
        with pytest.raises(ArityError):
            sp.given_entries(sym, part, entries)

    def test_every_construction_checks(self):
        pc = sp.implicit_laplacian_precond(10.0, tensorial((16, 16)))
        with pytest.raises(ArityError):
            BandPreconditioner(pc.partition, pc.target, pc.entries[1:], pc.bounds)
        with pytest.raises(ArityError):
            BandPreconditioner(
                pc.partition, sp.Identity(2), pc.entries, pc.bounds
            )


@settings(max_examples=30, deadline=None)
@given(
    part=partitions(),
    n=st.integers(1, 3),
    alpha=st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**16),
)
def test_diagonal_matrix_symbol_solves_like_its_scalar(part, n, alpha, seed):
    """Id_n times a scalar symbol, with entries e Id_n, runs the matrix plan,
    the matrix dc pseudo-inverse and the matrix apply.  Its plan must be
    the scalar symbol's with entries e, times Id_n, bit for bit.  Id_1
    times the scalar is a scalar symbol, so its solve must be the scalar's
    bit for bit.  For n > 1 the solve sweeps the residual vectors, where
    the scalar's sweeps their per-mode magnitudes: it must be the vector
    recurrence rebuilt from its plan bit for bit, and give the scalar's
    sweep count, and residuals and output to roundoff."""
    scalar = sp.ImplicitLaplacian(alpha)
    matrix = sp.Product(sp.Identity(n), scalar)
    e = sp.implicit_laplacian_precond(alpha, part).entries
    pc_s = sp.given_entries(scalar, part, e)
    pc_m = sp.given_entries(matrix, part, e * np.eye(n))
    plans = _richardson_plan(matrix, pc_m), _richardson_plan(scalar, pc_s)
    for got, want in zip(*plans):
        assert np.array_equal(got.reshape(-1, n, n), want[:, None, None] * np.eye(n))
    v = random_field(part.grid, n, seed=seed)
    u_s, rep_s = sp.richardson_solve(scalar, pc_s, v)
    u_m, rep_m = sp.richardson_solve(matrix, pc_m, v)
    if n == 1:
        assert rep_m.residual_history == rep_s.residual_history
        assert np.array_equal(u_m.values, u_s.values)
        return
    ref, residuals = vector_state_solve(matrix, pc_m, v, sp.SolveConfig())
    assert rep_m.residual_history == residuals
    assert np.array_equal(u_m.values, ref.values)
    assert rep_m.iterations == rep_s.iterations
    np.testing.assert_allclose(
        rep_m.residual_history, rep_s.residual_history, rtol=1e-13, atol=0
    )
    assert (u_m - u_s).l2_norm() <= 1e-14 * u_s.l2_norm()
