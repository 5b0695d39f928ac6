"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.  Every tolerance is fixed here, not calibrated.
"""

import time

import numpy as np
import pytest

import shannop as sp
from shannop.generate import corner_mode_field, random_field
from shannop.precond import (
    band_omega,
    leray_lambda,
    leray_matrices,
    sampled_contraction,
)
from shannop.solver import kappa_table, spectral_divergence

from conftest import reference_wavevectors


def announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {verdict}: {name}{suffix}")


def partitions_for(grid):
    base = sp.build_tensorial_partition(grid)
    return {
        "tensorial": base,
        "mra": sp.build_mra_partition(grid),
        "packet1": sp.refine_packet(base, 1),
        "packet2": sp.refine_packet(base, 2),
    }


def test_criterion_01_perfect_reconstruction():
    worst_err, worst_time = 0.0, 0.0
    ok = True
    for sizes in ((128, 128), (64, 64, 64)):
        grid = sp.GridSpec(sizes)
        v = random_field(grid, 1, seed=101)
        spec = sp.forward_transform(v)
        for name, part in partitions_for(grid).items():
            start = time.perf_counter()
            recon = sp.synthesize(sp.analyze(spec, part))
            elapsed = time.perf_counter() - start
            err = float(np.linalg.norm(recon.modes - spec.modes)) / spec.l2_norm()
            worst_err = max(worst_err, err)
            worst_time = max(worst_time, elapsed)
            ok = ok and err <= 1e-12 and elapsed < 5.0
    announce(1, "perfect reconstruction", ok,
             f"worst rel err {worst_err:.2e}, worst time {worst_time:.2f}s")
    assert ok


def test_criterion_02_band_energy_additivity():
    grid = sp.GridSpec((64, 64))
    part = sp.build_tensorial_partition(grid)
    worst = 0.0
    for seed in range(100):
        spec = sp.forward_transform(random_field(grid, 1, seed=seed))
        banded = sp.analyze(spec, part)
        total = spec.l2_norm() ** 2
        worst = max(worst, abs(banded.total_energy() - total) / total)
    ok = worst <= 1e-12
    announce(2, "band energy additivity over 100 fields", ok,
             f"worst rel err {worst:.2e}")
    assert ok


def _ilap_rate_run(scheme: str, ratio_bound: float, n_rhs: int = 20):
    grid = sp.GridSpec((128, 128))
    if scheme == "tensorial":
        part = sp.build_tensorial_partition(grid)
    elif scheme == "mra":
        part = sp.build_mra_partition(grid)
    else:
        part = sp.refine_packet(sp.build_tensorial_partition(grid), 1)
    alpha = 1e6
    sym = sp.ImplicitLaplacian(alpha)
    pc = sp.implicit_laplacian_precond(alpha, part)
    cfg = sp.SolveConfig(tol=1e-10)
    worst_ratio, worst_oracle = 0.0, 0.0
    for seed in range(n_rhs):
        v = random_field(grid, 1, seed=200 + seed)
        u, rep = sp.richardson_solve(sym, pc, v, cfg)
        assert rep.converged
        worst_ratio = max(worst_ratio, max(rep.ratios()))
        ref = sp.exact_solve(sym, v)
        worst_oracle = max(
            worst_oracle, (u - ref).l2_norm() / ref.l2_norm()
        )
    return worst_ratio, worst_oracle, pc, sym, cfg


def test_criterion_03_tensorial_implicit_laplacian_rate():
    start = time.perf_counter()
    worst_ratio, worst_oracle, pc, sym, cfg = _ilap_rate_run("tensorial", 0.62)
    grid = sp.GridSpec((128, 128))
    corner = corner_mode_field(grid)
    _, rep = sp.richardson_solve(sym, pc, corner, cfg)
    elapsed = time.perf_counter() - start
    ok = (
        worst_ratio <= 0.6 + 0.02
        and rep.fitted_rate >= 0.5
        and worst_oracle <= 10 * cfg.tol
        and elapsed < 30.0
    )
    announce(3, "tensorial implicit-Laplacian rate 3/5", ok,
             f"worst ratio {worst_ratio:.4f}, corner fitted "
             f"{rep.fitted_rate:.4f}, oracle {worst_oracle:.2e}, "
             f"{elapsed:.1f}s")
    assert ok


def test_criterion_04_mra_rate():
    worst_ratio, worst_oracle, _, _, cfg = _ilap_rate_run("mra", 0.52)
    ok = worst_ratio <= 0.5 + 0.02 and worst_oracle <= 10 * cfg.tol
    announce(4, "MRA implicit-Laplacian rate d/(d+2)", ok,
             f"worst ratio {worst_ratio:.4f}")
    assert ok


def test_criterion_05_packet_rate():
    worst_ratio, worst_oracle, _, _, cfg = _ilap_rate_run("packet1", 0.40)
    ok = worst_ratio <= 5 / 13 + 0.02 and worst_oracle <= 10 * cfg.tol
    announce(5, "depth-1 packet implicit-Laplacian rate 5/13", ok,
             f"worst ratio {worst_ratio:.4f}")
    assert ok


def test_criterion_06_leray_rates():
    cfg = sp.SolveConfig(tol=1e-10)
    worst_plain, worst_packet = 0.0, 0.0
    cases = [
        ((128, 128), 0, 10),
        ((64, 64, 64), 0, 2),
        ((128, 128), 1, 10),
        ((64, 64, 64), 1, 1),
    ]
    for sizes, depth, n_fields in cases:
        grid = sp.GridSpec(sizes)
        part = sp.build_tensorial_partition(grid)
        if depth:
            part = sp.refine_packet(part, depth)
        for seed in range(n_fields):
            u = random_field(grid, grid.dim, seed=300 + seed)
            _, _, rep = sp.helmholtz_decompose(u, part, cfg)
            assert rep.converged
            worst = max(rep.ratios())
            if depth:
                worst_packet = max(worst_packet, worst)
            else:
                worst_plain = max(worst_plain, worst)
    ok = worst_plain <= 9 / 16 + 0.02 and worst_packet <= 25 / 144 + 0.02
    announce(6, "Leray rates 9/16 and 25/144", ok,
             f"worst plain {worst_plain:.4f}, worst packet {worst_packet:.4f}")
    assert ok


def test_criterion_07_leray_correctness():
    cfg = sp.SolveConfig(tol=1e-11)
    ok = True
    details = []
    for sizes in ((128, 128), (64, 64, 64)):
        grid = sp.GridSpec(sizes)
        part = sp.build_tensorial_partition(grid)
        u = random_field(grid, grid.dim, seed=400)
        unorm = u.l2_norm()
        udiv, ucurl, rep = sp.helmholtz_decompose(u, part, cfg)
        sum_err = (udiv + ucurl - u).l2_norm() / unorm
        div_now = float(
            np.linalg.norm(spectral_divergence(sp.forward_transform(udiv)))
        ) / unorm
        div_every = max(rep.divergence_history) / unorm
        flat = sp.forward_transform(ucurl).flat()
        kap = kappa_table(grid).T
        if grid.dim == 2:
            cross = np.abs(flat[0] * kap[1] - flat[1] * kap[0]).max()
        else:
            cross = max(
                np.abs(flat[i] * kap[j] - flat[j] * kap[i]).max()
                for i, j in ((0, 1), (0, 2), (1, 2))
            )
        energy_err = abs(
            unorm**2 - udiv.l2_norm() ** 2 - ucurl.l2_norm() ** 2
        ) / unorm**2
        ediv, _ = sp.exact_leray(u)
        oracle = (udiv - ediv).l2_norm() / unorm
        case_ok = (
            rep.converged
            and sum_err <= 1e-9
            and div_now <= 1e-10
            and div_every <= 1e-10
            and cross / unorm <= 1e-10
            and energy_err <= 1e-10
            and oracle <= 10 * cfg.tol
        )
        ok = ok and case_ok
        details.append(
            f"{len(sizes)}D sum {sum_err:.1e} div {div_every:.1e} "
            f"energy {energy_err:.1e} oracle {oracle:.1e}"
        )
    announce(7, "Leray split correctness", ok, "; ".join(details))
    assert ok


def test_criterion_08_eigenstructure():
    rng = np.random.default_rng(500)
    ok = True
    worst_extra, worst_match = 0.0, 0.0
    for sizes in ((64, 64), (16, 16, 16)):
        grid = sp.GridSpec(sizes)
        part = sp.build_tensorial_partition(grid)
        for band in part.bands:
            modes = reference_wavevectors(band)
            pick = rng.integers(0, len(modes), size=1000)
            K = modes[pick]
            omega = band_omega(band)
            mw, lw = leray_matrices(omega, K)
            resid = np.eye(grid.dim) - mw - lw
            eigs = np.linalg.eigvals(resid)
            lam = leray_lambda(omega, K)
            dist = np.abs(eigs - lam[:, None])
            closest = np.argmin(dist, axis=1)
            match_err = dist[np.arange(len(K)), closest].max()
            rest = np.abs(eigs).copy()
            rest[np.arange(len(K)), closest] = 0.0
            extra = rest.max()
            worst_match = max(worst_match, float(match_err))
            worst_extra = max(worst_extra, float(extra))
            ok = ok and match_err <= 1e-10 and extra <= 1e-10
    # Corner modes of isotropic 2D bands: lambda = -9/16 exactly.
    grid = sp.GridSpec((64, 64))
    part = sp.build_tensorial_partition(grid)
    corner_err = 0.0
    for band in part.bands:
        lo = [b[0] for b in band.box]
        if lo[0] != lo[1]:
            continue
        omega = band_omega(band)
        for zx, zy in ((1, 2), (2, 1)):
            for sx in (1, -1):
                for sy in (1, -1):
                    K = np.array([[sx * zx * lo[0], sy * zy * lo[1]]])
                    corner_err = max(
                        corner_err, abs(leray_lambda(omega, K)[0] + 9 / 16)
                    )
                    mw, lw = leray_matrices(omega, K)
                    eigs = np.linalg.eigvals(np.eye(2) - mw[0] - lw[0])
                    corner_err = max(
                        corner_err, float(np.min(np.abs(eigs + 9 / 16)))
                    )
    ok = ok and corner_err <= 1e-12
    announce(8, "residual-operator eigenstructure", ok,
             f"match {worst_match:.1e}, extra {worst_extra:.1e}, "
             f"corner {corner_err:.1e}")
    assert ok


def test_criterion_09_derivative_exactness():
    grid = sp.GridSpec((64, 64))
    part = sp.build_tensorial_partition(grid)
    worst = 0.0
    for seed, smooth in ((600, False), (601, True)):
        f = random_field(grid, 1, seed=seed)
        spec = sp.forward_transform(f)
        if smooth:
            damp = np.exp(-0.1 * np.sum(kappa_table(grid) ** 2, axis=1))
            spec = sp.SpectralField(
                grid, (spec.flat() * damp[None, :]).reshape(spec.modes.shape)
            )
        banded = sp.analyze(spec, part)
        for axis in (1, 2):
            got = sp.synthesize(
                sp.apply_lemarie_derivative(banded, axis)
            ).flat()
            want = 1j * kappa_table(grid)[:, axis - 1][None, :] * spec.flat()
            scale = max(float(np.max(np.abs(want))), 1e-300)
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    ok = worst <= 1e-12
    announce(9, "derivation-map exactness", ok, f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_10_rate_formulas_and_optimality():
    checks = [
        abs(sp.rate_kantorovich(1, 2) - 9 / 16) == 0.0,
        abs(sp.rate_kantorovich(1, 1.5) - 25 / 144) < 1e-15,
    ]
    for a in (1.0, 3.0, 17.0):
        checks.append(abs(sp.rate_implicit_laplacian(1e12, a, 2 * a) - 0.6) <= 1e-9)

    rng = np.random.default_rng(700)
    grids = [sp.GridSpec((32, 32)), sp.GridSpec((64,)), sp.GridSpec((16, 16, 16))]
    parts = [sp.build_tensorial_partition(g) for g in grids]
    beaten = 0
    for _ in range(50):
        part = parts[rng.integers(len(parts))]
        alpha = 10.0 ** rng.uniform(-3, 8)
        c = 10.0 ** rng.uniform(-2, 2)
        form = rng.integers(3)
        if form == 0:
            sym = sp.Scale(c, sp.ImplicitLaplacian(alpha))
        elif form == 1:
            sym = sp.Scale(c, sp.NegLaplacian())
        else:
            sym = sp.Sum(sp.Const([[c]]), sp.Scale(alpha, sp.NegLaplacian()))
        pc = sp.scalar_optimal(sym, part, mode_exact=True)
        band = part.bands[rng.integers(len(part.bands))]
        base = sampled_contraction(sym, pc, band)
        worse_up = sampled_contraction(
            sym, pc.with_scaled_entry(band.id, 1.01), band
        )
        worse_dn = sampled_contraction(
            sym, pc.with_scaled_entry(band.id, 0.99), band
        )
        if base <= worse_up + 1e-12 and base <= worse_dn + 1e-12:
            beaten += 1
    checks.append(beaten == 50)
    ok = all(checks)
    announce(10, "closed-form rates and scalar optimality", ok,
             f"optimality held on {beaten}/50 pairs")
    assert ok


def test_criterion_11_counterexample_fixtures():
    # Scalar fixture: p(xi) = exp(i xi) on the band [pi, 2pi].  No real
    # constant gives sup |1 - p/mu| < 1.
    xi = np.linspace(np.pi, 2 * np.pi, 513)
    p = np.exp(1j * xi)
    mus = np.concatenate([
        np.logspace(-2, 2, 5000),
        -np.logspace(-2, 2, 5000),
    ])
    sups = np.max(np.abs(1.0 - p[None, :] / mus[:, None]), axis=1)
    scalar_best = float(sups.min())

    # Matrix fixture: rotation by xi_1 on [pi, 2pi]^2, approximants the
    # rotation-scalings mu = r R(theta).  For those, ||Id - M mu^+||_2 =
    # |1 - exp(i(xi - theta))/r| (verified against an svd below).
    rs = np.logspace(-2, 2, 100)
    thetas = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    phase = xi[None, None, :] - thetas[None, :, None]
    dev = np.abs(1.0 - np.exp(1j * phase) / rs[:, None, None])
    matrix_best = float(dev.max(axis=2).min())

    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    spot = 0.0
    for r, t, x in ((0.5, 1.0, 3.5), (2.0, 4.0, 5.0), (1.0, 0.0, np.pi)):
        direct = np.linalg.svd(
            np.eye(2) - rot(x) @ np.linalg.pinv(r * rot(t)),
            compute_uv=False,
        )[0]
        closed = abs(1.0 - np.exp(1j * (x - t)) / r)
        spot = max(spot, abs(direct - closed))

    ok = scalar_best >= 1.0 - 1e-12 and matrix_best >= 1.0 - 1e-12 and spot < 1e-12
    announce(11, "inapproximable symbol fixtures", ok,
             f"best scalar {scalar_best:.6f}, best matrix {matrix_best:.6f}")
    assert ok


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
