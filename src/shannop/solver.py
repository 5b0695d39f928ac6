"""Band-preconditioned Richardson iteration, the iterative Helmholtz/Leray
split, and the exact modewise oracles they are checked against.

Everything runs in spectral space: a field is transformed once on entry and
once on exit.  Both iterations are fixed per-mode linear recurrences.  Each
solver starts by building a plan: one gather of the spectrum into the
partition's band-major layout (``Partition.perm``: sorted band ids, then
the dc set) and per-mode coefficients in the same order.  One sweep loop,
``_iterate``, then runs ``S += r; r = g r`` on contiguous arrays, and one
scatter assembles the output on exit.  The order of every reduction is
fixed, so reports are bit-reproducible for identical inputs.

The dc set (zero mode, axis-zero planes, Nyquist planes) is excluded from
every contraction theorem, so both solvers treat it by one exact modewise
solve instead of iterating.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bands import Partition
from .errors import (
    ArityError,
    BoundViolationError,
    DivergenceError,
    InsufficientDataError,
    UnsupportedSchemeError,
)
from .grid import (
    GridSpec,
    RealField,
    SpectralField,
    effective_axis_wavevectors,
    evaluate_modes,
    evaluate_on_grid,
    forward_transform,
    inverse_transform,
    ksq_table,
)
from .precond import (
    BandPreconditioner,
    RateBound,
    _real_if_exact,
    band_omega,
    band_recurrence,
    leray_rate_bounds,
    pseudo_inverse,
)
from .symbols import SingularModePolicy, SymbolExpr


@dataclass
class SolveConfig:
    """Iteration limits and the norm used for residual measurement.

    ``norm`` is the Sobolev order of the residual norm (0 = plain L2).
    With ``strict`` set, a theoretical contraction bound >= 1 refuses to
    run instead of iterating blindly.
    """

    max_iter: int = 200
    tol: float = 1e-10
    norm: float = 0.0
    strict: bool = True

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ArityError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ArityError("max_iter must be at least 1")


@dataclass
class SolveReport:
    """Residual history with fitted and theoretical contraction rates."""

    iterations: int
    residual_history: list
    fitted_rate: float
    theoretical_rate: float
    converged: bool
    per_band_rates: list | None = None
    divergence_history: list | None = None

    def ratios(self) -> list:
        h = self.residual_history
        return [
            h[i + 1] / h[i] for i in range(len(h) - 1) if h[i] > 0
        ]

    def to_json(self) -> str:
        payload = {
            "iterations": self.iterations,
            "converged": self.converged,
            "fitted_rate": self.fitted_rate,
            "theoretical_rate": self.theoretical_rate,
            "residuals": list(self.residual_history),
        }
        if self.divergence_history is not None:
            payload["divergence_residuals"] = list(self.divergence_history)
        if self.per_band_rates is not None:
            payload["per_band"] = [
                {
                    "band": repr(rb.band_id).replace(" ", ""),
                    "a": rb.a,
                    "b": rb.b,
                    "rho": rb.rho,
                    "formula": rb.formula,
                }
                for rb in self.per_band_rates
            ]
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        lines = ["iter,residual,ratio"]
        h = self.residual_history
        for i, r in enumerate(h):
            ratio = "" if i == 0 or h[i - 1] == 0 else repr(r / h[i - 1])
            lines.append(f"{i},{r!r},{ratio}")
        return "\n".join(lines) + "\n"


def estimate_rate(history, window: int | None = None) -> float:
    """Geometric mean of the trailing residual ratios.

    The window defaults to max(5, half the available ratios).  Requires at
    least three positive history entries.
    """
    h = [float(x) for x in history]
    if len(h) < 3:
        raise InsufficientDataError("need at least 3 residuals to fit a rate")
    if any(x <= 0 for x in h):
        h = h[: next(i for i, x in enumerate(h) if x <= 0)]
        if len(h) < 3:
            return 0.0
    ratios = np.array([h[i + 1] / h[i] for i in range(len(h) - 1)])
    if window is None:
        window = max(5, len(ratios) // 2)
    tail = ratios[-min(window, len(ratios)) :]
    return float(np.exp(np.mean(np.log(tail))))


def kappa_table(grid: GridSpec) -> np.ndarray:
    """Effective wavevectors of all grid modes, (npoints, d), row-major."""
    axes = [effective_axis_wavevectors(grid, i) for i in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def spectral_divergence(spec: SpectralField) -> np.ndarray:
    """Flat spectrum of div(u) using the effective wavevectors."""
    grid = spec.grid
    if spec.components != grid.dim:
        raise ArityError("divergence needs one component per axis")
    kappa = np.ix_(
        *(effective_axis_wavevectors(grid, i) for i in range(grid.dim))
    )
    return 1j * sum(k * modes for k, modes in zip(kappa, spec.modes)).ravel()


def _norm_scale(grid: GridSpec, t: float) -> np.ndarray | None:
    """Square roots of the residual weights (1 + |k|^2)^t; None for l2."""
    return None if t == 0.0 else (1.0 + ksq_table(grid)) ** (0.5 * t)


def _norm(x: np.ndarray, scale: np.ndarray | None = None) -> float:
    """l2 norm of a complex array with the last axis weighted by ``scale``."""
    if scale is not None:
        x = x * scale
    v = np.ascontiguousarray(x).view(float).ravel()
    return float(np.sqrt(v @ v))


def _split_modes(kappa: np.ndarray, flat: np.ndarray):
    """Exact modewise split of ``flat`` (d, M) into the part orthogonal to
    the wavevectors ``kappa`` (d, M) and the part parallel to them; modes
    with zero wavevector go entirely to the orthogonal part."""
    ksq = np.sum(kappa**2, axis=0)
    safe = np.where(ksq == 0, 1.0, ksq)
    curl = kappa * (np.sum(kappa * flat, axis=0) / safe)[None, :]
    curl[:, ksq == 0] = 0.0
    return flat - curl, curl


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


def exact_solve(
    A: SymbolExpr,
    v: RealField,
    policy: str = SingularModePolicy.ZERO,
) -> RealField:
    """Modewise pseudo-inverse solution of A u = v (the solver oracle)."""
    spec = forward_transform(v)
    vals, _ = evaluate_on_grid(A, v.grid, policy)
    flat = spec.flat()
    if A.is_scalar:
        s = vals[:, 0, 0]
        inv = np.where(s == 0, 0.0, 1.0 / np.where(s == 0, 1.0, s))
        out = inv[None, :] * flat
        ncomp = v.components
    else:
        if A.shape[0] != v.components:
            raise ArityError(
                f"symbol produces {A.shape[0]} components, field has "
                f"{v.components}"
            )
        pinv = pseudo_inverse(vals)
        out = np.einsum("kij,jk->ik", pinv, flat)
        ncomp = A.shape[1]
    return inverse_transform(
        SpectralField(v.grid, out.reshape((ncomp,) + v.grid.sizes)), check=False
    )


def exact_leray(u: RealField) -> tuple[RealField, RealField]:
    """Exact modewise Helmholtz split u = u_div + u_curl.

    Uses the effective wavevectors, so it is exactly compatible with the
    spectral divergence and gradient: div(u_div) = 0 to roundoff and u_curl
    is modewise parallel to the wavevector.  Modes with zero effective
    wavevector (the mean and pure-Nyquist corners) go entirely to u_div;
    constants are divergence-free.
    """
    if u.components != u.grid.dim:
        raise ArityError("Helmholtz split needs one component per axis")
    div, curl = _split_modes(
        kappa_table(u.grid).T, forward_transform(u).flat()
    )
    shape = (u.components,) + u.grid.sizes
    return (
        inverse_transform(SpectralField(u.grid, div.reshape(shape)), check=False),
        inverse_transform(SpectralField(u.grid, curl.reshape(shape)), check=False),
    )


# ---------------------------------------------------------------------------
# The recurrence engine and Richardson iteration
# ---------------------------------------------------------------------------


def _check_bounds(bounds: list[RateBound], strict: bool) -> float:
    """Worst contraction bound; a non-finite bound counts as the worst."""

    def key(rb):
        return rb.rho if math.isfinite(rb.rho) else math.inf

    worst = max(bounds, key=key, default=None)
    if worst is None:
        return 0.0
    if strict and key(worst) >= 1.0:
        raise BoundViolationError(worst.band_id, worst.rho)
    return worst.rho


def _finish(report: SolveReport) -> SolveReport:
    h = report.residual_history
    report.fitted_rate = estimate_rate(h) if len(h) >= 3 else float("nan")
    return report


def _iterate(r, g, scale, ref, report, cfg, observe=None):
    """The sweep loop of both solvers: ``S += r; r = g r`` per mode.

    ``g`` is one scalar (M,) or one matrix (M, n, n) per mode.  The loop
    continues from the residual history and sweep count in ``report`` and
    updates them in place; before each sweep it tests the last residual
    for non-finite values, the stop, growth and the sweep cap.
    ``observe(S)`` runs after each sweep.  Returns the accumulated S.
    """
    S = np.zeros_like(r)
    history = report.residual_history
    growth = 0
    while True:
        res = history[-1]
        if not math.isfinite(res):
            raise DivergenceError(
                _finish(report),
                f"non-finite residual at sweep {report.iterations}",
            )
        if res <= cfg.tol * ref:
            report.converged = True
            break
        growth = growth + 1 if report.iterations and res > history[-2] else 0
        if growth >= 5:
            raise DivergenceError(_finish(report))
        if report.iterations >= cfg.max_iter:
            break
        report.iterations += 1
        S += r
        if g.ndim == 1:
            r *= g
        else:
            r = np.einsum("kij,jk->ik", g, r)
        history.append(_norm(r, scale))
        if observe is not None:
            observe(S)
    _finish(report)
    return S


def _richardson_plan(A: SymbolExpr, pc: BandPreconditioner):
    """The partition's band-major order ``perm`` and, in that order,
    per-mode G = Id - A P and P: ``band_recurrence`` on every band, and on
    dc modes P the pseudo-inverse of A under the Nyquist convention.  One
    scalar per mode for a scalar symbol with 1x1 entries, else one matrix
    per mode."""
    part = pc.partition
    grid = part.grid
    dc = part.dc_indices
    gs, ps = zip(*(
        band_recurrence(A, pc.entries[band.id], band) for band in part.bands
    ))
    kdc = np.stack([
        grid.axis_wavevectors(i)[ix]
        for i, ix in enumerate(np.unravel_index(dc, grid.sizes))
    ], axis=1)
    a, _ = evaluate_modes(A, grid, kdc, SingularModePolicy.ZERO)
    if gs[0].ndim == 1:
        a = _real_if_exact(a[:, 0, 0])
        p = np.where(a == 0, 0.0, 1.0 / np.where(a == 0, 1.0, a))
        g = 1.0 - a * p
    else:
        if A.is_scalar:
            a = a[:, 0, 0, None, None] * np.eye(gs[0].shape[1])
        p = pseudo_inverse(a)
        g = np.eye(a.shape[1]) - a @ p
    return (
        part.perm,
        _real_if_exact(np.concatenate(gs + (g,))),
        _real_if_exact(np.concatenate(ps + (p,))),
    )


def richardson_solve(
    A: SymbolExpr,
    pc: BandPreconditioner,
    v: RealField,
    cfg: SolveConfig | None = None,
) -> tuple[RealField, SolveReport]:
    """Solve A u = v by the band-preconditioned residual iteration.

    Starting from u = 0 and residual v, each sweep adds the band entries'
    inverses applied to the residual and subtracts A applied to the update;
    dc modes are solved exactly on the first sweep.  Per mode this is the
    recurrence r <- (Id - A P) r with u = P (r_0 + r_1 + ...), so the
    solution is assembled once, at exit.  Stops when the relative residual
    (in the configured norm) reaches ``tol``.
    """
    cfg = cfg or SolveConfig()
    part = pc.partition
    if v.grid != part.grid:
        raise ArityError("preconditioner partition grid differs from field grid")
    if not A.is_scalar and A.shape[1] != v.components:
        raise ArityError(
            f"symbol takes {A.shape[1]} components, field has {v.components}"
        )
    ncols = v.components if A.is_scalar else A.shape[1]

    bounds = pc.rate_bounds()
    theoretical = _check_bounds(bounds, cfg.strict)
    perm, g, p = _richardson_plan(A, pc)
    scale = _norm_scale(v.grid, cfg.norm)
    if scale is not None:
        scale = scale[perm]

    r = forward_transform(v).flat()[:, perm]
    ref = _norm(r, scale)
    report = SolveReport(0, [ref], float("nan"), theoretical, False, bounds)
    S = _iterate(r, g, scale, ref, report, cfg)

    u_flat = np.empty((ncols, v.grid.npoints), dtype=complex)
    u_flat[:, perm] = p * S if p.ndim == 1 else np.einsum("kij,jk->ik", p, S)
    u_spec = SpectralField(v.grid, u_flat.reshape((ncols,) + v.grid.sizes))
    return inverse_transform(u_spec, check=False), report


# ---------------------------------------------------------------------------
# Iterative Helmholtz split (Leray projector)
# ---------------------------------------------------------------------------


def helmholtz_decompose(
    u: RealField,
    part: Partition,
    cfg: SolveConfig | None = None,
) -> tuple[RealField, RealField, SolveReport]:
    """Split u into divergence-free and gradient parts by band iteration.

    Each sweep applies the band's divergence-free and gradient-part
    operators Mw, Lw to the remainder and accumulates the two outputs.  The
    residual operator Id - Mw - Lw is rank one, c (xi - |xi|^2 c)^T / |w|^2
    with c_i = w_i^2 / xi_i, so after the first sweep the remainder is
    c t with one complex scalar t per mode, and every later sweep is
    t <- lambda t with lambda the closed-form eigenvalue; its outputs are
    m t and l t with fixed per-mode vectors m, l.  The accumulated
    divergence-free part has zero spectral divergence after every sweep,
    not just at convergence.  The dc set is assigned exactly up front
    (mean to the divergence-free part).
    """
    cfg = cfg or SolveConfig()
    d = u.grid.dim
    if d not in (2, 3):
        raise UnsupportedSchemeError("Helmholtz split needs a 2D or 3D grid")
    if u.components != d:
        raise ArityError("Helmholtz split needs one component per axis")
    if part.base_scheme != "tensorial":
        raise UnsupportedSchemeError("Helmholtz split needs a tensorial partition")
    if u.grid != part.grid:
        raise ArityError("partition grid differs from field grid")

    bounds = leray_rate_bounds(part, mode_exact=False)
    theoretical = _check_bounds(bounds, cfg.strict)
    grid = u.grid
    flat = forward_transform(u).flat()
    scale = _norm_scale(grid, cfg.norm)
    ref = _norm(flat, scale)

    # Exact dc assignment along the effective wavevectors.
    dc = part.dc_indices
    kdc = np.stack([
        effective_axis_wavevectors(grid, i)[ix]
        for i, ix in enumerate(np.unravel_index(dc, grid.sizes))
    ])
    div_dc, curl_dc = _split_modes(kdc, flat[:, dc])

    # Band-major plan: per-mode wavevectors xi, c = w^2 / xi, the
    # eigenvalue lambda and the output vectors m, l.
    bands = part.bands
    offsets = part.offsets.tolist()
    perm = part.perm[: offsets[-1]]
    xi = np.empty((d, offsets[-1]))
    for b, lo, hi in zip(bands, offsets, offsets[1:]):
        xi[:, lo:hi] = b.mode_wavevectors().T
    w2 = np.repeat([band_omega(b) ** 2 for b in bands],
                   [b.nmodes for b in bands], axis=0).T
    wsq = np.sum(w2, axis=0)
    c = w2 / xi
    csq = np.sum(c**2, axis=0)
    lam = 1.0 - np.sum(xi**2, axis=0) * csq / wsq**2
    l = xi * (csq / wsq)
    m = c * (1.0 - lam) - l

    v0 = flat[:, perm]
    sb = None if scale is None else scale[perm]
    report = SolveReport(
        0, [_norm(v0, sb)], float("nan"), theoretical, False, bounds, []
    )
    sweep = report.residual_history[0] > cfg.tol * ref
    if not sweep:
        v0[:] = 0.0

    # Sweep 1 on the full vectors; its remainder is exactly c t.
    lv1 = xi * (np.sum(c * v0, axis=0) / wsq)
    y = v0 - lv1
    t = np.sum(xi * y, axis=0) / wsq
    mv1 = y - c * t

    # Divergence of the accumulated part, by linearity in S.
    dv1 = np.sum(xi * mv1, axis=0)
    xm = np.sum(xi * m, axis=0)
    div_dc_sq = _norm(np.sum(kdc * div_dc, axis=0)) ** 2

    def observe(S):
        report.divergence_history.append(
            math.sqrt(_norm(dv1 + xm * S) ** 2 + div_dc_sq)
        )

    tscale = np.sqrt(csq) if sb is None else np.sqrt(csq) * sb
    if sweep:
        report.iterations = 1
        report.residual_history.append(_norm(t, tscale))
        observe(0.0)
    S = _iterate(t, lam, tscale, ref, report, cfg, observe)

    udiv = np.empty((d, grid.npoints), dtype=complex)
    ucurl = np.empty_like(udiv)
    udiv[:, perm] = mv1 + m * S
    udiv[:, dc] = div_dc
    ucurl[:, perm] = lv1 + l * S
    ucurl[:, dc] = curl_dc
    shape = (d,) + grid.sizes
    div_spec = SpectralField(grid, udiv.reshape(shape))
    if report.divergence_history:
        report.divergence_history[-1] = _norm(spectral_divergence(div_spec))
    return (
        inverse_transform(div_spec, check=False),
        inverse_transform(SpectralField(grid, ucurl.reshape(shape)), check=False),
        report,
    )
