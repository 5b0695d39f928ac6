"""Band-preconditioned Richardson iteration, the iterative Helmholtz/Leray
split, and the exact modewise oracles they are checked against.

Both solvers run on the half spectrum of a real field: ``rfftn`` once on
entry and ``irfftn`` once on exit.  Every symbol satisfies
M(-xi) = conj(M(xi)) and every band holds both signs of each axis
interval, so the modes with last-axis index above N_last/2 would only
repeat the conjugates of the others.  Both iterations are fixed per-mode
linear recurrences.  Each solver starts by building a plan: the
partition's band-major layout (``Partition.perm``: sorted band ids, then
the dc set) cut to the half grid, one gather of the spectrum into it, and
per-mode coefficients in the same order.  One sweep loop, ``_iterate``,
then runs ``S += r; r = g r`` on contiguous arrays, and one scatter
assembles the output on exit.  Residuals are full-spectrum norms: a
half-spectrum value counts twice, for its mode and the mode's reflection,
except on the self-conjugate planes k_last = 0 and k_last = -N_last/2,
which count once.  Every reduction runs in a fixed order and without BLAS,
so reports are bit-reproducible for identical inputs at any thread count.

The exact oracles stay on full complex spectra, an independent yardstick
for the solvers.  The dc set (zero mode, axis-zero planes, Nyquist planes)
is excluded from every contraction theorem, so both solvers treat it by
one exact modewise solve instead of iterating.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bands import Partition, layout_blocks
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
    _axis_sum,
    effective_axis_wavevectors,
    evaluate_modes,
    evaluate_on_grid,
    forward_half_transform,
    forward_transform,
    inverse_half_transform,
    inverse_transform,
    ksq_table,
    sum_squares,
)
from .precond import (
    BandPreconditioner,
    RateBound,
    _real_if_exact,
    band_inverses,
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
    return grid.wavevectors(np.arange(grid.npoints), effective=True).T.copy()


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
    """Square roots of the residual weights (1 + |k|^2)^t on the half grid,
    shaped ``grid.half_sizes``; None for l2."""
    if t == 0.0:
        return None
    ksq = ksq_table(grid).reshape(grid.sizes)[..., : grid.half_sizes[-1]]
    return (1.0 + ksq) ** (0.5 * t)


def _norm(x: np.ndarray, sc, scale: np.ndarray | None = None) -> float:
    """Full-spectrum l2 norm of half-spectrum values ``x``, the last axis
    weighted by ``scale``.  Each value stands for its mode and the mode's
    reflection, so it counts twice, except at the self-conjugate last-axis
    positions ``sc`` (last-axis index 0 or N_last/2), which count once."""
    if scale is not None:
        x = x * scale
    return math.sqrt(2.0 * sum_squares(x) - sum_squares(x[..., sc]))


@dataclass(frozen=True)
class _HalfLayout:
    """The partition's band-major layout restricted to the half grid.

    ``perm`` lists flat half-grid positions: the entries of
    ``Partition.perm`` whose last-axis index is <= N_last/2, in the same
    order.  Band i occupies ``perm[offsets[i]:offsets[i + 1]]`` and the dc
    set ``perm[offsets[-1]:]``.  ``sc`` lists the layout positions of
    self-conjugate modes.
    """

    perm: np.ndarray
    offsets: list
    sc: np.ndarray


def _half_layout(part: Partition) -> _HalfLayout:
    n = part.grid.sizes[-1]
    h = n // 2
    last = part.perm & (n - 1)  # n is a power of two
    keep = last <= h
    last = last[keep]
    perm = (part.perm[keep] >> (n.bit_length() - 1)) * (h + 1)
    perm += last
    # Count per segment (reduceat casts keep to int64); each band keeps some.
    o = part.offsets.tolist()
    counts = [np.count_nonzero(keep[a:b]) for a, b in zip(o, o[1:])]
    offsets = np.cumsum([0] + counts).tolist()
    sc = np.flatnonzero((last == 0) | (last == h))
    return _HalfLayout(perm, offsets, sc)


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


def _iterate(r, g, sc, scale, ref, report, cfg, observe=None):
    """The sweep loop of both solvers: ``S += r; r = g r`` per mode.

    ``g`` is one scalar (M,) or one matrix (M, n, n) per mode.  Residuals
    are measured by ``_norm`` with the self-conjugate positions ``sc`` and
    weights ``scale``.  The loop continues from the residual history and
    sweep count in ``report`` and updates them in place; before each sweep
    it tests the last residual for non-finite values, the stop, growth and
    the sweep cap.  ``observe(S)`` runs after each sweep.  Returns the
    accumulated S.
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
        history.append(_norm(r, sc, scale))
        if observe is not None:
            observe(S)
    _finish(report)
    return S


def _richardson_plan(A: SymbolExpr, pc: BandPreconditioner, half: _HalfLayout):
    """Per-mode G = Id - A P in the order of the half layout, and P: one
    per band (``band_inverses``), with G by ``band_recurrence`` a block at a
    time, and on the dc set one per mode, the pseudo-inverse of A under
    the Nyquist convention.  G is one scalar per mode for a scalar symbol
    with 1x1 entries, else one matrix per mode; it is complex only if some
    mode's value is.  Returns (G, band P array, dc P)."""
    grid = pc.partition.grid
    nb = half.offsets[-1]
    pbands = band_inverses(A, pc, pc.partition.bands)
    kdc = grid.wavevectors(half.perm[nb:], half=True).T
    a, _ = evaluate_modes(A, grid, kdc, SingularModePolicy.ZERO)
    if pbands.ndim == 1:
        a = _real_if_exact(a[:, 0, 0])
        pdc = np.where(a == 0, 0.0, 1.0 / np.where(a == 0, 1.0, a))
        gdc = 1.0 - a * pdc
    else:
        if A.is_scalar:
            a = a[:, 0, 0, None, None] * np.eye(pbands.shape[1])
        pdc = _real_if_exact(pseudo_inverse(a))
        gdc = _real_if_exact(np.eye(a.shape[1]) - a @ pdc)
    g = np.empty((len(half.perm),) + pbands.shape[1:], gdc.dtype)
    g[nb:] = gdc
    for sl, first, last, counts in layout_blocks(half.offsets):
        K = grid.wavevectors(half.perm[sl], half=True)
        gk = band_recurrence(A, pbands[first:last], K, counts)
        if np.iscomplexobj(gk) and not np.iscomplexobj(g):
            g = g.astype(complex)
        g[sl] = gk
    return g, pbands, pdc


def _apply(p: np.ndarray, S: np.ndarray) -> None:
    """S <- P S in place on (n, M) values, for one P per mode, (M,n,n) or (M,)."""
    if p.ndim == 3:
        S[:] = np.einsum("kij,jk->ik", p, S)
    else:
        S *= p


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

    The plan holds G per mode, P once per band and per mode only on the dc
    set.  Each large array is dropped at its last use: the spectrum once
    gathered, G after the sweep loop, and the sums S and the layout before
    the inverse transform.
    """
    cfg = cfg or SolveConfig()
    part = pc.partition
    grid = v.grid
    if grid != part.grid:
        raise ArityError("preconditioner partition grid differs from field grid")
    if not A.is_scalar and A.shape[1] != v.components:
        raise ArityError(
            f"symbol takes {A.shape[1]} components, field has {v.components}"
        )
    ncols = v.components if A.is_scalar else A.shape[1]

    bounds = pc.rate_bounds()
    theoretical = _check_bounds(bounds, cfg.strict)
    half = _half_layout(part)
    r = forward_half_transform(v).reshape(v.components, -1)[:, half.perm]
    g, pbands, pdc = _richardson_plan(A, pc, half)
    scale = _norm_scale(grid, cfg.norm)
    if scale is not None:
        scale = scale.ravel()[half.perm]

    ref = _norm(r, half.sc, scale)
    report = SolveReport(0, [ref], float("nan"), theoretical, False, bounds)
    S = _iterate(r, g, half.sc, scale, ref, report, cfg)
    del r, g, scale

    for sl, first, last, counts in layout_blocks(half.offsets):
        _apply(np.repeat(pbands[first:last], counts, axis=0), S[:, sl])
    _apply(pdc, S[:, half.offsets[-1] :])
    u = np.empty((ncols,) + grid.half_sizes, dtype=complex)
    u.reshape(ncols, -1)[:, half.perm] = S
    del S, half
    return inverse_half_transform(grid, u), report


# ---------------------------------------------------------------------------
# Iterative Helmholtz split (Leray projector)
# ---------------------------------------------------------------------------


def _leray_blocks(grid: GridSpec, half: _HalfLayout, omega_sq, v0, lam=None):
    """Sweep 1 of the Leray iteration over ``layout_blocks`` of the half
    layout, so its per-mode vectors exist one block at a time.

    Per mode, with xi its wavevector and w^2 its band's row of
    ``omega_sq`` (nbands, d): c = w^2 / xi, the eigenvalue
    lambda = 1 - |xi|^2 |c|^2 / |w|^4 (read from ``lam`` when given), the
    output vectors l = xi |c|^2 / |w|^2 and m = c (1 - lambda) - l; and on
    the band-major spectrum ``v0`` (d, M) lv1 = xi (c.v0) / |w|^2, the
    remainder coefficient t = xi.(v0 - lv1) / |w|^2 and
    mv1 = v0 - lv1 - c t.  Yields (slice, xi, lambda, |c|^2, l, m, lv1,
    mv1, t) per block.
    """
    wsq_band = np.sum(omega_sq, axis=1)
    omega_sq = omega_sq.T
    for sl, first, last, counts in layout_blocks(half.offsets):
        xi = grid.wavevectors(half.perm[sl], half=True)
        wsq = np.repeat(wsq_band[first:last], counts)
        c = np.repeat(omega_sq[:, first:last], counts, axis=1)
        c /= xi
        csq = _axis_sum(c**2)
        if lam is None:
            lam_b = 1.0 - _axis_sum(xi**2) * csq / wsq**2
        else:
            lam_b = lam[sl]
        l = xi * (csq / wsq)
        m = c * (1.0 - lam_b) - l
        lv1 = xi * (_axis_sum(c * v0[:, sl]) / wsq)
        mv1 = v0[:, sl] - lv1
        t = _axis_sum(xi * mv1) / wsq
        mv1 -= c * t
        yield sl, xi, lam_b, csq, l, m, lv1, mv1, t


def helmholtz_decompose(
    u: RealField,
    part: Partition,
    cfg: SolveConfig | None = None,
) -> tuple[RealField, RealField, SolveReport]:
    """Split u into divergence-free and gradient parts by band iteration.

    Each sweep applies the band's divergence-free and gradient-part
    operators Mw, Lw to the remainder and accumulates the two outputs.  The
    residual operator Id - Mw - Lw is rank one,
    c (xi - |xi|^2 c / |w|^2)^T / |w|^2 with c_i = w_i^2 / xi_i, so after
    the first sweep the remainder is c t with one complex scalar t per
    mode, and every later sweep is t <- lambda t with lambda the
    closed-form eigenvalue; its outputs are m t and l t with fixed
    per-mode vectors m, l.  The accumulated divergence-free part has zero
    spectral divergence after every sweep, not just at convergence.  The
    dc set is assigned exactly up front (mean to the divergence-free part).

    Besides the gathered band spectrum v0, the plan keeps one value per
    band mode for each of t, lambda, |c| times the norm weight and the two
    roundoff terms of the divergence entry, and the sweep loop adds the
    accumulator S.  The d-vectors xi, c, l, m and sweep 1's outputs exist
    only block by block (``_leray_blocks``): once to fill the plan, and
    once at exit to assemble u_div = v0 - lv1 - c t_1 + m S and
    u_curl = lv1 + l S straight into half spectra.
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

    bounds = leray_rate_bounds(part)
    theoretical = _check_bounds(bounds, cfg.strict)
    grid = u.grid
    half = _half_layout(part)
    nb = half.offsets[-1]
    perm, dc = half.perm[:nb], half.perm[nb:]
    split = np.searchsorted(half.sc, nb)
    sc, sc_dc = half.sc[:split], half.sc[split:] - nb
    planes = [0, grid.sizes[-1] // 2]  # the self-conjugate last-axis indices
    spec = forward_half_transform(u)
    scale = _norm_scale(grid, cfg.norm)
    ref = _norm(spec, planes, scale)
    flat = spec.reshape(d, -1)

    # Exact dc assignment along the effective wavevectors, which are 0 on
    # each axis's Nyquist plane.
    kdc = grid.wavevectors(dc, half=True, effective=True)
    div_dc, curl_dc = _split_modes(kdc, flat[:, dc])
    div_dc_sq = _norm(np.sum(kdc * div_dc, axis=0), sc_dc) ** 2

    v0 = flat[:, perm]
    del spec, flat, kdc
    sb = None if scale is None else scale.ravel()[perm]
    report = SolveReport(
        0, [_norm(v0, sc, sb)], float("nan"), theoretical, False, bounds, []
    )
    sweep = report.residual_history[0] > cfg.tol * ref
    if not sweep:
        v0[:] = 0.0

    # The bands' squared scales: band_omega's lower box edges, read in one
    # pass; leray_rate_bounds has already refused a band at zero frequency.
    omega_sq = np.array([[lo for lo, _ in b.box] for b in part.bands]) ** 2

    # The plan, block by block.  Sweep 1 leaves the remainder c t, and the
    # divergence of the accumulated part is dv1 + xm S, by linearity in S.
    lam = np.empty(nb)
    tscale = np.empty(nb)
    t = np.empty(nb, dtype=complex)
    dv1 = np.empty(nb, dtype=complex)
    xm = np.empty(nb)
    for sl, xi, lam_b, csq, _, m, _, mv1, t_b in _leray_blocks(
        grid, half, omega_sq, v0
    ):
        lam[sl] = lam_b
        tscale[sl] = np.sqrt(csq) if sb is None else np.sqrt(csq) * sb[sl]
        t[sl] = t_b
        dv1[sl] = _axis_sum(xi * mv1)
        xm[sl] = _axis_sum(xi * m)
    del sb

    def observe(S):
        report.divergence_history.append(
            math.sqrt(_norm(dv1 + xm * S, sc) ** 2 + div_dc_sq)
        )

    if sweep:
        report.iterations = 1
        report.residual_history.append(_norm(t, sc, tscale))
        observe(0.0)
    S = _iterate(t, lam, sc, tscale, ref, report, cfg, observe)
    del t, tscale, dv1, xm

    # The outputs, block by block into half spectra.  The last divergence
    # entry is measured on u_div, without the factor i, which leaves the
    # norm unchanged.
    udiv = np.empty((d,) + grid.half_sizes, dtype=complex)
    ucurl = np.empty_like(udiv)
    fdiv, fcurl = udiv.reshape(d, -1), ucurl.reshape(d, -1)
    for sl, _, _, _, l, m, lv1, mv1, _ in _leray_blocks(
        grid, half, omega_sq, v0, lam
    ):
        mv1 += m * S[sl]
        lv1 += l * S[sl]
        fdiv[:, perm[sl]] = mv1
        fcurl[:, perm[sl]] = lv1
    fdiv[:, dc] = div_dc
    fcurl[:, dc] = curl_dc
    del v0, S, lam, fdiv, fcurl
    if report.divergence_history:
        kappa = [effective_axis_wavevectors(grid, i) for i in range(d)]
        kappa[-1] = kappa[-1][: grid.half_sizes[-1]]
        div = sum(k * comp for k, comp in zip(np.ix_(*kappa), udiv))
        report.divergence_history[-1] = _norm(div, planes)
        del div
    udiv = inverse_half_transform(grid, udiv)
    return udiv, inverse_half_transform(grid, ucurl), report
