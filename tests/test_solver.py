"""Richardson iteration, Helmholtz split, oracles, and rate estimation."""

import json

import numpy as np
import pytest

import shannop as sp
from shannop.errors import (
    ArityError,
    BoundViolationError,
    DivergenceError,
    InsufficientDataError,
    UnsupportedSchemeError,
)
from shannop.generate import gradient_field, random_field, solenoidal_field
from shannop.precond import given_entries, sampled_contraction
from shannop.solver import spectral_divergence

from conftest import kappa_table


def tensorial(sizes):
    return sp.build_tensorial_partition(sp.GridSpec(sizes))


class TestEstimateRate:
    def test_geometric_sequence(self):
        h = [0.3**n for n in range(12)]
        assert abs(sp.estimate_rate(h) - 0.3) < 1e-12

    def test_constant_history(self):
        assert abs(sp.estimate_rate([2.0] * 8) - 1.0) < 1e-14

    def test_window_rule(self):
        h = [1, 0.5, 0.3, 0.18, 0.108]
        assert abs(sp.estimate_rate(h, window=3) - 0.6) < 1e-12

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            sp.estimate_rate([1.0, 0.5])

    def test_exact_zero_tail(self):
        assert sp.estimate_rate([1.0, 0.5, 0.25, 0.0, 0.0]) > 0


class TestExactSolve:
    def test_identity(self):
        grid = sp.GridSpec((16, 16))
        v = random_field(grid, 2, seed=0)
        out = sp.exact_solve(sp.Identity(1), v)
        assert (out - v).l2_norm() < 1e-13 * v.l2_norm()

    def test_implicit_laplacian_division(self):
        grid = sp.GridSpec((32, 32))
        v = random_field(grid, 1, seed=1)
        u = sp.exact_solve(sp.ImplicitLaplacian(2.0), v)
        back = sp.inverse_transform(
            sp.apply_modewise(sp.forward_transform(u), sp.ImplicitLaplacian(2.0))
        )
        assert (back - v).l2_norm() < 1e-12 * v.l2_norm()

    def test_neg_laplacian_roundtrip_mean_free(self):
        grid = sp.GridSpec((32, 32))
        raw = random_field(grid, 1, seed=2)
        v = sp.RealField(grid, raw.values - raw.values.mean())
        u = sp.exact_solve(sp.NegLaplacian(), v)
        again = sp.inverse_transform(
            sp.apply_modewise(sp.forward_transform(u), sp.NegLaplacian())
        )
        # Solve-then-apply reproduces v away from the zero mode.
        diff = sp.forward_transform(again - v).flat()
        live = np.any(kappa_table(grid) != 0, axis=1)
        assert np.max(np.abs(diff[:, live])) < 1e-10 * v.l2_norm()

    def test_skip_policy_leaves_singular_modes_untouched(self):
        # LerayP is singular at the zero mode only: under SKIP the solve
        # keeps the mean, as apply_modewise does, and matches the ZERO
        # solve elsewhere.
        grid = sp.GridSpec((8, 8))
        v = random_field(grid, 2, seed=4)
        mean = sp.forward_transform(v).flat()[:, 0]
        assert np.min(np.abs(mean)) > 0.1
        kept = sp.apply_modewise(sp.forward_transform(v), sp.LerayP(2), "skip")
        assert np.array_equal(kept.flat()[:, 0], mean)
        u = sp.forward_transform(sp.exact_solve(sp.LerayP(2), v, "skip")).flat()
        zero = sp.forward_transform(sp.exact_solve(sp.LerayP(2), v, "zero")).flat()
        tol = 1e-14 * v.l2_norm()
        assert np.max(np.abs(u[:, 0] - mean)) <= tol
        assert np.max(np.abs(zero[:, 0])) <= tol
        assert np.max(np.abs(u[:, 1:] - zero[:, 1:])) <= tol

    def test_skip_policy_refuses_a_rectangular_symbol_with_singular_modes(self):
        grid = sp.GridSpec((8, 8))
        A = sp.Product(sp.Gradient(2), sp.XiInv(1))  # 2 x 1, singular at k_1 = 0
        with pytest.raises(ArityError, match="SKIP policy needs a square symbol"):
            sp.exact_solve(A, random_field(grid, 2, seed=4), "skip")
        u = sp.exact_solve(A, random_field(grid, 2, seed=4), "zero")
        assert u.components == 1


class TestExactLeray:
    def test_gradient_field_is_pure_curl(self):
        grid = sp.GridSpec((32, 32))
        u = gradient_field(grid, seed=3)
        udiv, ucurl = sp.exact_leray(u)
        assert udiv.l2_norm() < 1e-12 * u.l2_norm()
        assert (ucurl - u).l2_norm() < 1e-12 * u.l2_norm()

    def test_solenoidal_field_is_pure_div(self):
        grid = sp.GridSpec((32, 32))
        u = solenoidal_field(grid, seed=4)
        _, ucurl = sp.exact_leray(u)
        assert ucurl.l2_norm() < 1e-12 * u.l2_norm()

    def test_orthogonality_and_energy(self):
        grid = sp.GridSpec((64, 64))
        u = random_field(grid, 2, seed=5)
        udiv, ucurl = sp.exact_leray(u)
        inner = float(np.sum(udiv.values * ucurl.values))
        assert abs(inner) <= 1e-12 * u.l2_norm() ** 2
        total = u.l2_norm() ** 2
        split = udiv.l2_norm() ** 2 + ucurl.l2_norm() ** 2
        assert abs(total - split) <= 1e-12 * total

    def test_mean_goes_to_div_part(self):
        grid = sp.GridSpec((16, 16))
        u = sp.RealField(grid, np.ones((2, 16, 16)))
        udiv, ucurl = sp.exact_leray(u)
        assert (udiv - u).l2_norm() < 1e-14
        assert ucurl.l2_norm() < 1e-14

    def test_divergence_free_output(self):
        grid = sp.GridSpec((32, 32))
        udiv, _ = sp.exact_leray(random_field(grid, 2, seed=6))
        div = spectral_divergence(sp.forward_transform(udiv))
        assert np.max(np.abs(div)) < 1e-12


class TestRichardson:
    def test_identity_converges_in_one(self):
        grid = sp.GridSpec((16, 16))
        part = tensorial((16, 16))
        v = random_field(grid, 1, seed=7)
        pc = sp.scalar_optimal(sp.Identity(1), part)
        u, rep = sp.richardson_solve(sp.Identity(1), pc, v)
        assert rep.converged and rep.iterations == 1
        assert (u - v).l2_norm() < 1e-12 * v.l2_norm()

    def test_matches_exact_solve(self):
        grid = sp.GridSpec((64, 64))
        part = tensorial((64, 64))
        sym = sp.ImplicitLaplacian(1e6)
        pc = sp.implicit_laplacian_precond(1e6, part)
        cfg = sp.SolveConfig(tol=1e-10)
        for seed in range(3):
            v = random_field(grid, 1, seed=seed)
            u, rep = sp.richardson_solve(sym, pc, v, cfg)
            assert rep.converged
            assert rep.fitted_rate <= rep.theoretical_rate + 0.02
            ref = sp.exact_solve(sym, v)
            assert (u - ref).l2_norm() <= 10 * cfg.tol * ref.l2_norm()

    def test_complex_symbol_keeps_complex_coefficients(self):
        # i(k - k^3) vanishes on the first band of a 16-point axis (|k| = 1)
        # and not on the others: the plan's G turns complex after a real
        # first segment, and no imaginary part may be dropped.
        grid = sp.GridSpec((16,))
        part = tensorial((16,))
        sym = sp.parse_symbol("ilap(100) + xi(1) + xi(1)*xi(1)*xi(1)", 1)
        pc = sp.implicit_laplacian_precond(100.0, part)
        v = random_field(grid, 1, seed=9)
        cfg = sp.SolveConfig(tol=1e-10)
        u, rep = sp.richardson_solve(sym, pc, v, cfg)
        assert rep.converged
        ref = sp.exact_solve(sym, v)
        assert (u - ref).l2_norm() <= 10 * cfg.tol * ref.l2_norm()

    def test_contraction_certificate(self):
        grid = sp.GridSpec((32, 32))
        part = tensorial((32, 32))
        sym = sp.ImplicitLaplacian(100.0)
        pc = sp.implicit_laplacian_precond(100.0, part)
        v = random_field(grid, 1, seed=8)
        _, rep = sp.richardson_solve(sym, pc, v)
        cert = max(
            sampled_contraction(sym, pc, band) for band in part.bands
        )
        assert max(rep.ratios()) <= cert + 1e-9

    def test_scalar_optimal_preconditioner_path(self):
        grid = sp.GridSpec((32, 32))
        part = tensorial((32, 32))
        sym = sp.Sum(sp.Const([[2.0]]), sp.NegLaplacian())
        pc = sp.scalar_optimal(sym, part)
        v = random_field(grid, 1, seed=9)
        u, rep = sp.richardson_solve(sym, pc, v)
        assert rep.converged
        ref = sp.exact_solve(sym, v)
        assert (u - ref).l2_norm() <= 1e-9 * ref.l2_norm()

    def test_vector_field_scalar_symbol(self):
        grid = sp.GridSpec((32, 32))
        part = tensorial((32, 32))
        sym = sp.ImplicitLaplacian(10.0)
        pc = sp.implicit_laplacian_precond(10.0, part)
        v = random_field(grid, 2, seed=10)
        u, rep = sp.richardson_solve(sym, pc, v)
        assert rep.converged
        ref = sp.exact_solve(sym, v)
        assert (u - ref).l2_norm() <= 1e-9 * ref.l2_norm()

    def test_strict_bound_refusal(self):
        grid = sp.GridSpec((16, 16))
        part = tensorial((16, 16))
        sym = sp.NegLaplacian()
        pc = sp.scalar_optimal(sym, part)
        bad = pc.with_scaled_entry(part.bands[0].id, 0.05)  # rho >= 1 there
        v = random_field(grid, 1, seed=11)
        with pytest.raises(BoundViolationError) as err:
            sp.richardson_solve(sym, bad, v)
        assert err.value.band_id == part.bands[0].id

    def test_divergence_detection(self):
        grid = sp.GridSpec((16, 16))
        part = tensorial((16, 16))
        sym = sp.NegLaplacian()
        pc = sp.scalar_optimal(sym, part)
        bad = pc.with_scaled_entry(part.bands[0].id, -1.0)  # wrong sign
        v = random_field(grid, 1, seed=12)
        cfg = sp.SolveConfig(strict=False, max_iter=50)
        with pytest.raises(DivergenceError) as err:
            sp.richardson_solve(sym, bad, v, cfg)
        assert err.value.report.iterations >= 5

    def test_matrix_symbol_constant_entries(self):
        grid = sp.GridSpec((32, 32))
        part = tensorial((32, 32))
        alphas = (10.0, 1e3)
        sym = sp.Sum(
            sp.Product(sp.Delta(1, 1, 2), sp.ImplicitLaplacian(alphas[0])),
            sp.Product(sp.Delta(2, 2, 2), sp.ImplicitLaplacian(alphas[1])),
        )
        entries = []
        for band in part.bands:
            a, b, _ = sp.band_extrema(band, mode_exact=False)
            omega_sq = 0.5 * (a * a + b * b)
            entries.append(np.diag([1.0 + alpha * omega_sq for alpha in alphas]))
        pc = given_entries(sym, part, entries)
        v = random_field(grid, 2, seed=25)
        cfg = sp.SolveConfig(tol=1e-10)
        u, rep = sp.richardson_solve(sym, pc, v, cfg)
        assert rep.converged
        assert rep.theoretical_rate < 0.6
        ref = sp.exact_solve(sym, v)
        assert (u - ref).l2_norm() <= 10 * cfg.tol * ref.l2_norm()

    def test_grid_mismatch(self):
        part = tensorial((16, 16))
        v = random_field(sp.GridSpec((32, 32)), 1, seed=13)
        pc = sp.scalar_optimal(sp.Identity(1), part)
        with pytest.raises(ArityError):
            sp.richardson_solve(sp.Identity(1), pc, v)

    def test_sobolev_residual_norm(self):
        grid = sp.GridSpec((32, 32))
        part = tensorial((32, 32))
        sym = sp.ImplicitLaplacian(1.0)
        pc = sp.implicit_laplacian_precond(1.0, part)
        v = random_field(grid, 1, seed=14)
        _, rep = sp.richardson_solve(sym, pc, v, sp.SolveConfig(norm=-1.0))
        assert rep.converged

    def test_reproducible_reports(self):
        grid = sp.GridSpec((32, 32))
        part = tensorial((32, 32))
        sym = sp.ImplicitLaplacian(1e4)
        pc = sp.implicit_laplacian_precond(1e4, part)
        v = random_field(grid, 1, seed=15)
        _, rep1 = sp.richardson_solve(sym, pc, v)
        _, rep2 = sp.richardson_solve(sym, pc, v)
        assert rep1.residual_history == rep2.residual_history


@pytest.mark.parametrize("call,message", [
    ("richardson_solve", "symbol takes 3 components, field has 2"),
    ("exact_solve", "symbol produces 3 components, field has 2"),
    ("exact_leray", "one component per axis"),  # 3 components on a 2-D grid
])
def test_component_count_mismatch_refused(call, message):
    grid = sp.GridSpec((16, 16))
    sym = sp.Identity(3)  # a 3x3 symbol, given a 2-component field
    v = random_field(grid, 2, seed=13)
    with pytest.raises(ArityError, match=message):
        if call == "richardson_solve":
            part = tensorial((16, 16))
            pc = given_entries(sym, part, [np.eye(3)] * len(part.ids))
            sp.richardson_solve(sym, pc, v)
        elif call == "exact_solve":
            sp.exact_solve(sym, v)
        else:
            sp.exact_leray(random_field(grid, 3, seed=13))


class TestNonFinite:
    @staticmethod
    def nan_preconditioner(part):
        pc = sp.implicit_laplacian_precond(100.0, part)
        entries = pc.entries.copy()
        entries[0] = np.nan
        return given_entries(pc.target, part, entries)

    def test_nan_entry_refused_under_strict(self):
        part = tensorial((16, 16))
        pc = self.nan_preconditioner(part)
        v = random_field(part.grid, 1, seed=24)
        with pytest.raises(BoundViolationError) as err:
            sp.richardson_solve(sp.ImplicitLaplacian(100.0), pc, v)
        assert err.value.band_id == part.bands[0].id
        assert "not finite" in str(err.value)

    def test_nan_entry_named_as_divergence(self):
        part = tensorial((16, 16))
        pc = self.nan_preconditioner(part)
        v = random_field(part.grid, 1, seed=24)
        cfg = sp.SolveConfig(strict=False)
        with pytest.raises(DivergenceError, match="non-finite residual at sweep 1"):
            sp.richardson_solve(sp.ImplicitLaplacian(100.0), pc, v, cfg)


class TestHelmholtz:
    def test_divergence_free_input_stays_in_div_part(self):
        grid = sp.GridSpec((32, 32))
        part = tensorial((32, 32))
        u = solenoidal_field(grid, seed=16)
        udiv, ucurl, rep = sp.helmholtz_decompose(u, part)
        assert rep.converged
        assert ucurl.l2_norm() <= 1e-9 * u.l2_norm()
        assert (udiv - u).l2_norm() <= 1e-9 * u.l2_norm()

    def test_split_properties(self):
        grid = sp.GridSpec((64, 64))
        part = tensorial((64, 64))
        u = random_field(grid, 2, seed=17)
        cfg = sp.SolveConfig(tol=1e-11)
        udiv, ucurl, rep = sp.helmholtz_decompose(u, part, cfg)
        assert rep.converged
        assert (udiv + ucurl - u).l2_norm() <= 1e-9 * u.l2_norm()
        div = spectral_divergence(sp.forward_transform(udiv))
        assert np.linalg.norm(div) <= 1e-10 * u.l2_norm()
        ediv, ecurl = sp.exact_leray(u)
        assert (udiv - ediv).l2_norm() <= 10 * cfg.tol * u.l2_norm()
        assert (ucurl - ecurl).l2_norm() <= 10 * cfg.tol * u.l2_norm()
        assert max(rep.divergence_history) <= 1e-10 * u.l2_norm()

    def test_curl_part_parallel_to_wavevector(self):
        grid = sp.GridSpec((32, 32))
        part = tensorial((32, 32))
        u = random_field(grid, 2, seed=18)
        _, ucurl, _ = sp.helmholtz_decompose(u, part, sp.SolveConfig(tol=1e-11))
        flat = sp.forward_transform(ucurl).flat()
        kap = kappa_table(grid).T
        cross = flat[0] * kap[1] - flat[1] * kap[0]
        assert np.max(np.abs(cross)) <= 1e-10 * u.l2_norm()

    def test_requires_tensorial(self):
        grid = sp.GridSpec((16, 16))
        u = random_field(grid, 2, seed=19)
        with pytest.raises(UnsupportedSchemeError):
            sp.helmholtz_decompose(u, sp.build_mra_partition(grid))

    def test_requires_vector_components(self):
        grid = sp.GridSpec((16, 16))
        u = random_field(grid, 1, seed=20)
        with pytest.raises(ArityError):
            sp.helmholtz_decompose(u, tensorial((16, 16)))

    def test_partition_of_another_grid_refused(self):
        u = random_field(sp.GridSpec((16, 16)), 2, seed=20)
        with pytest.raises(ArityError, match="partition grid differs"):
            sp.helmholtz_decompose(u, tensorial((32, 32)))

    @staticmethod
    def constant_field():
        grid = sp.GridSpec((16, 16))
        return sp.RealField(grid, np.stack([np.full((16, 16), 1.5),
                                            np.full((16, 16), -0.25)]))

    def test_constant_field_converges_before_the_first_sweep(self):
        u = self.constant_field()
        udiv, ucurl, rep = sp.helmholtz_decompose(u, tensorial((16, 16)))
        assert rep.iterations == 0 and rep.converged
        assert rep.residual_history == [0.0]
        assert rep.divergence_history == []
        assert np.array_equal(udiv.values, u.values)
        assert not ucurl.values.any()

    def test_band_residual_below_tol_is_dropped_at_sweep_0(self):
        # Noise puts band modes ~1e-12 into the field, far below tol times
        # its norm: the split stops at sweep 0 and leaves them out of both
        # outputs.
        u = self.constant_field()
        noise = np.random.default_rng(3).standard_normal(u.values.shape)
        u = sp.RealField(u.grid, u.values + 1e-12 * noise)
        part = tensorial((16, 16))
        cfg = sp.SolveConfig()
        udiv, ucurl, rep = sp.helmholtz_decompose(u, part, cfg)
        assert rep.iterations == 0 and rep.converged
        assert rep.divergence_history == []
        band = part.half.perm[: part.half.offsets[-1]]

        def band_modes(f):
            return np.abs(sp.forward_half_transform(f).reshape(2, -1)[:, band])

        norm = u.l2_norm()
        assert band_modes(u).max() > 1e-12
        assert band_modes(udiv).max() <= 1e-14 * norm
        assert band_modes(ucurl).max() <= 1e-14 * norm
        assert (udiv + ucurl - u).l2_norm() <= cfg.tol * norm

    def test_1d_rejected(self):
        grid = sp.GridSpec((16,))
        u = random_field(grid, 1, seed=21)
        with pytest.raises(UnsupportedSchemeError):
            sp.helmholtz_decompose(u, tensorial((16,)))


class TestReportSerialization:
    def test_json_keys(self):
        grid = sp.GridSpec((32, 32))
        part = tensorial((32, 32))
        u = random_field(grid, 2, seed=22)
        _, _, rep = sp.helmholtz_decompose(u, part)
        payload = json.loads(rep.to_json())
        for key in ("iterations", "converged", "fitted_rate",
                    "theoretical_rate", "residuals"):
            assert key in payload
        assert payload["iterations"] == rep.iterations
        assert "divergence_residuals" in payload

    def test_csv_parses(self):
        grid = sp.GridSpec((32, 32))
        part = tensorial((32, 32))
        v = random_field(grid, 1, seed=23)
        pc = sp.implicit_laplacian_precond(100.0, part)
        _, rep = sp.richardson_solve(sp.ImplicitLaplacian(100.0), pc, v)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "iter,residual,ratio"
        first = lines[1].split(",")
        assert int(first[0]) == 0 and float(first[1]) > 0
        ratios = [float(parts[2]) for parts in
                  (ln.split(",") for ln in lines[2:]) if parts[2]]
        assert all(r < 1 for r in ratios)
