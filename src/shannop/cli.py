"""Command-line front end.

Subcommands: gen-field, decompose, solve-ilap, helmholtz, rates, verify.
Exit codes: 0 success, 2 usage, file-format or file-access error,
3 divergence, 4 refusal because a contraction bound is >= 1.
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_BOUND = 4


def _parse_grid(text: str):
    from .grid import GridSpec

    try:
        sizes = tuple(int(part) for part in text.lower().split("x"))
        return GridSpec(sizes)
    except Exception as exc:
        raise SystemExit(_usage_error(f"bad grid {text!r}: {exc}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _build_partition(grid, scheme: str, packet_depth: int):
    from .bands import build_mra_partition, build_tensorial_partition, refine_packet

    if scheme == "tensorial":
        part = build_tensorial_partition(grid)
    elif scheme == "mra":
        part = build_mra_partition(grid)
    else:
        raise SystemExit(_usage_error(f"unknown scheme {scheme!r}"))
    if packet_depth:
        part = refine_packet(part, packet_depth)
    return part


def _write_report(report, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(report.to_json())


def _solve_exit(report, tol: float) -> int:
    if report.converged:
        return EXIT_OK
    h = report.residual_history
    print(f"error: not converged after {report.iterations} sweeps "
          f"(residual {h[-1] / h[0]:.3e} > tol {tol!r})", file=sys.stderr)
    return EXIT_DIVERGED


def cmd_gen_field(args) -> int:
    from .generate import make_field
    from .io import write_field

    grid = _parse_grid(args.grid)
    field = make_field(grid, args.kind, args.components, args.seed)
    write_field(field, args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    import numpy as np

    from .bands import analyze, dump_partition, synthesize
    from .grid import forward_transform
    from .io import read_field

    field = read_field(args.infile)
    part = _build_partition(field.grid, args.scheme, args.packet_depth)
    text = dump_partition(part)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    spec = forward_transform(field)
    del field  # the samples are not needed once transformed
    banded = analyze(spec, part)
    total = spec.l2_norm() ** 2
    err = abs(banded.total_energy() - total) / max(total, 1e-300)
    recon = synthesize(banded)
    recon.modes -= spec.modes  # in place: one spectrum-sized array fewer
    recon_err = recon.l2_norm() / max(spec.l2_norm(), 1e-300)
    print(f"total_energy {total!r} band_energy_rel_err {err:.3e} "
          f"reconstruction_rel_err {recon_err:.3e}")
    return EXIT_OK


def cmd_solve_ilap(args) -> int:
    from .io import read_field, write_field
    from .precond import implicit_laplacian_precond
    from .solver import SolveConfig, richardson_solve
    from .symbols import ImplicitLaplacian

    field = read_field(args.infile)
    part = _build_partition(field.grid, args.scheme, args.packet_depth)
    pc = implicit_laplacian_precond(args.alpha, part)
    cfg = SolveConfig(max_iter=args.max_iter, tol=args.tol)
    u, report = richardson_solve(ImplicitLaplacian(args.alpha), pc, field, cfg)
    if args.out:
        write_field(u, args.out)
    _write_report(report, args.report)
    return _solve_exit(report, args.tol)


def cmd_helmholtz(args) -> int:
    from .io import read_field, write_field
    from .solver import SolveConfig, helmholtz_decompose

    field = read_field(args.infile)
    part = _build_partition(field.grid, "tensorial", args.packet_depth)
    cfg = SolveConfig(max_iter=args.max_iter, tol=args.tol)
    udiv, ucurl, report = helmholtz_decompose(field, part, cfg)
    if args.out_div:
        write_field(udiv, args.out_div)
    if args.out_curl:
        write_field(ucurl, args.out_curl)
    _write_report(report, args.report)
    return _solve_exit(report, args.tol)


def cmd_rates(args) -> int:
    from .precond import (
        implicit_laplacian_precond,
        leray_rate_bounds,
        leray_sampled,
        sampled_contraction,
        scalar_optimal,
    )
    from .symbols import ImplicitLaplacian, parse_symbol

    operator = args.operator
    if operator is not None and args.alpha is not None:
        return _usage_error(
            "--alpha sets the default operator and cannot be combined with "
            "--operator; write ilap(ALPHA) in --operator instead"
        )
    grid = _parse_grid(args.grid)
    leray = operator is not None and operator.strip() == "leray"
    if leray and grid.dim not in (2, 3):
        return _usage_error(
            f"leray rates need a 2D or 3D grid, got {args.grid!r}"
        )
    part = _build_partition(grid, args.scheme, args.packet_depth)

    rows = []
    if leray:
        bounds = leray_rate_bounds(part)
        for rb, samp in zip(bounds, leray_sampled(part).tolist()):
            rows.append((rb.band_id, rb.a, rb.b, rb.rho, samp, rb.formula))
    else:
        if operator is None:
            sym = ImplicitLaplacian(1e6 if args.alpha is None else args.alpha)
        else:
            try:
                sym = parse_symbol(operator, grid.dim)
            except Exception as exc:
                return _usage_error(str(exc))
        if isinstance(sym, ImplicitLaplacian):
            pc = implicit_laplacian_precond(sym.alpha, part)
        elif sym.is_scalar:
            pc = scalar_optimal(sym, part, mode_exact=True)
        else:
            return _usage_error(
                "rates supports scalar operators and 'leray'"
            )
        for band, rb in zip(part.bands, pc.rate_bounds()):
            samp = sampled_contraction(sym, pc, band)
            rows.append((band.id, rb.a, rb.b, rb.rho, samp, rb.formula))

    lines = ["band_id,a,b,rho_theoretical,rho_sampled,formula"]
    for band_id, a, b, theo, samp, formula in rows:
        ident = repr(band_id).replace(" ", "").replace(",", ";")
        lines.append(f"{ident},{a!r},{b!r},{theo!r},{samp!r},{formula}")
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _verify_reconstruction(failures: list) -> None:
    import numpy as np

    from .bands import (
        analyze,
        build_mra_partition,
        build_tensorial_partition,
        refine_packet,
        synthesize,
    )
    from .generate import random_field
    from .grid import GridSpec, forward_transform

    cases = []
    for sizes in ((128, 128), (64, 64, 64)):
        grid = GridSpec(sizes)
        base = build_tensorial_partition(grid)
        cases.append((f"tensorial {sizes}", base))
        cases.append((f"mra {sizes}", build_mra_partition(grid)))
        cases.append((f"packet1 {sizes}", refine_packet(base, 1)))
        cases.append((f"packet2 {sizes}", refine_packet(base, 2)))
    for name, part in cases:
        v = random_field(part.grid, 1, seed=1)
        spec = forward_transform(v)
        recon = synthesize(analyze(spec, part))
        err = float(np.linalg.norm(recon.modes - spec.modes)) / spec.l2_norm()
        _report_check(failures, f"reconstruction {name}", err <= 1e-12, f"rel_err={err:.2e}")


def _verify_oracle(failures: list) -> None:
    import numpy as np

    from .bands import build_tensorial_partition
    from .generate import random_field
    from .grid import GridSpec
    from .precond import implicit_laplacian_precond
    from .solver import exact_leray, exact_solve, helmholtz_decompose, richardson_solve
    from .symbols import ImplicitLaplacian

    grid = GridSpec((128, 128))
    part = build_tensorial_partition(grid)
    v = random_field(grid, 1, seed=2)
    pc = implicit_laplacian_precond(1e6, part)
    u, rep = richardson_solve(ImplicitLaplacian(1e6), pc, v)
    ref = exact_solve(ImplicitLaplacian(1e6), v)
    err = (u - ref).l2_norm() / ref.l2_norm()
    _report_check(
        failures, "richardson matches exact solve",
        rep.converged and err <= 1e-9, f"rel_err={err:.2e}",
    )
    w = random_field(grid, 2, seed=3)
    udiv, ucurl, rep2 = helmholtz_decompose(w, part)
    ediv, _ = exact_leray(w)
    err2 = (udiv - ediv).l2_norm() / w.l2_norm()
    _report_check(
        failures, "helmholtz matches exact projector",
        rep2.converged and err2 <= 1e-9, f"rel_err={err2:.2e}",
    )
    sum_err = (udiv + ucurl - w).l2_norm() / w.l2_norm()
    _report_check(failures, "helmholtz parts sum to input", sum_err <= 1e-9,
                  f"rel_err={sum_err:.2e}")


def _verify_rates(failures: list) -> None:
    from .bands import build_tensorial_partition, refine_packet
    from .generate import random_field
    from .grid import GridSpec
    from .precond import (
        implicit_laplacian_precond,
        rate_implicit_laplacian,
        rate_kantorovich,
    )
    from .solver import SolveConfig, helmholtz_decompose, richardson_solve
    from .symbols import ImplicitLaplacian

    ok = abs(rate_kantorovich(1, 2) - 9 / 16) < 1e-15
    _report_check(failures, "kantorovich(1,2) = 9/16", ok)
    ok = abs(rate_kantorovich(1, 1.5) - 25 / 144) < 1e-15
    _report_check(failures, "kantorovich(1,1.5) = 25/144", ok)
    ok = abs(rate_implicit_laplacian(1e12, 1.0, 2.0) - 0.6) < 1e-9
    _report_check(failures, "implicit-laplacian limit rate 3/5", ok)

    grid = GridSpec((128, 128))
    part = build_tensorial_partition(grid)
    v = random_field(grid, 1, seed=4)
    pc = implicit_laplacian_precond(1e6, part)
    _, rep = richardson_solve(ImplicitLaplacian(1e6), pc, v)
    worst = max(rep.ratios())
    _report_check(failures, "tensorial ratios within 3/5 + 0.02",
                  worst <= 0.6 + 0.02, f"max_ratio={worst:.4f}")
    w = random_field(grid, 2, seed=5)
    _, _, rep2 = helmholtz_decompose(w, refine_packet(part, 1), SolveConfig())
    worst2 = max(rep2.ratios())
    _report_check(failures, "leray packet ratios within 25/144 + 0.02",
                  worst2 <= 25 / 144 + 0.02, f"max_ratio={worst2:.4f}")


def _report_check(failures: list, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {name}{suffix}")
    if not ok:
        failures.append(name)


def cmd_verify(args) -> int:
    failures: list = []
    if args.suite in ("reconstruction", "all"):
        _verify_reconstruction(failures)
    if args.suite in ("oracle", "all"):
        _verify_oracle(failures)
    if args.suite in ("rates", "all"):
        _verify_rates(failures)
    return EXIT_OK if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shannop",
        description="Band-preconditioned spectral solvers on periodic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-field", help="generate a deterministic test field")
    p.add_argument("--grid", required=True, help="sizes like 128x128")
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--kind", default="random",
                   choices=["random", "gradient", "solenoidal", "corner-mode"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_field)

    p = sub.add_parser("decompose", help="dump a partition and band energies")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--scheme", default="tensorial", choices=["tensorial", "mra"])
    p.add_argument("--packet-depth", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("solve-ilap", help="solve (Id - alpha*Laplacian) u = v")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--scheme", default="tensorial", choices=["tensorial", "mra"])
    p.add_argument("--packet-depth", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=cmd_solve_ilap)

    p = sub.add_parser("helmholtz", help="split a vector field into "
                       "divergence-free and gradient parts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-div", default=None)
    p.add_argument("--out-curl", default=None)
    p.add_argument("--packet-depth", type=int, default=0)
    p.add_argument("--report", default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=cmd_helmholtz)

    p = sub.add_parser("rates", help="emit the per-band rate table as CSV")
    p.add_argument("--operator", default=None,
                   help="symbol expression, or 'leray'")
    p.add_argument("--grid", required=True)
    p.add_argument("--scheme", default="tensorial", choices=["tensorial", "mra"])
    p.add_argument("--packet-depth", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None,
                   help="alpha of the default operator ilap(alpha), 1e6 if "
                        "unset; not with --operator")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("verify", help="run the built-in check suites")
    p.add_argument("--suite", default="all",
                   choices=["reconstruction", "oracle", "rates", "all"])
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    from .errors import BoundViolationError, DivergenceError, ShannopError

    try:
        return args.func(args)
    except BoundViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ShannopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
