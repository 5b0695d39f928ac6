"""Band-preconditioned Richardson iteration, the iterative Helmholtz/Leray
split, and the exact modewise oracles they are checked against.

Both solvers run on the half spectrum of a real field: ``rfftn`` once on
entry and ``irfftn`` once on exit, each in place.  Every symbol satisfies
M(-xi) = conj(M(xi)) and every band holds both signs of each axis
interval, so the modes with last-axis index above N_last/2 would only
repeat the conjugates of the others.  Both iterations are fixed per-mode
linear recurrences.  Each solver starts by building a plan: one gather
of the spectrum into the partition's half layout (``Partition.half``: the
band modes on the half grid, by sorted band id, then the dc set), and
per-mode coefficients in the same order.  One sweep loop, ``_iterate``,
then runs ``S += r; r = g r`` on contiguous arrays, and one scatter
assembles the output on exit.  Where g is one number per mode, each
mode's residual is one fixed complex vector times a power of g: after
sweep 1 of the Helmholtz split, and from the start of Richardson for a
scalar symbol.  There the loop runs on one number per mode, real when g
is, and the complex outputs are formed once, at exit.  Residuals are
full-spectrum norms: a half-spectrum value counts twice, for its mode and
the mode's reflection, except on the self-conjugate planes k_last = 0 and
k_last = -N_last/2, which count once.  Every reduction runs in a fixed
order and without BLAS, so reports are bit-reproducible for identical
inputs at any thread count.

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

from .bands import Partition, _HalfLayout, layout_blocks
from .bands import gather_rows, scatter_rows
from .errors import ArityError, BoundViolationError, DivergenceError
from .errors import InsufficientDataError, StructuralError, UnsupportedSchemeError
from .grid import GridSpec, RealField, SpectralField, _apply, _axis_sum
from .grid import effective_axis_wavevectors, evaluate_modes, evaluate_on_grid
from .grid import forward_half_transform, forward_transform, half_sum_squares
from .grid import inverse_half_transform, inverse_transform, ksq_table
from .grid import self_conjugate_planes
from .precond import BandPreconditioner, RateBounds, _leray_bounds, _leray_omega
from .precond import _pinv, _recurrence, band_inverses, band_recurrence, leray_lambda
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
    per_band_rates: RateBounds
    divergence_history: list | None = None

    def ratios(self) -> list:
        h = self.residual_history
        return [
            h[i + 1] / h[i] for i in range(len(h) - 1) if h[i] > 0
        ]

    def to_json(self) -> str:
        """Strict JSON: a non-finite float is written as null."""
        payload = {
            "iterations": self.iterations,
            "converged": self.converged,
            "fitted_rate": _finite(self.fitted_rate),
            "theoretical_rate": _finite(self.theoretical_rate),
            "residuals": [_finite(x) for x in self.residual_history],
        }
        if self.divergence_history is not None:
            payload["divergence_residuals"] = [
                _finite(x) for x in self.divergence_history
            ]
        payload["per_band"] = [
            {
                "band": repr(band_id).replace(" ", ""),
                "a": _finite(a),
                "b": _finite(b),
                "rho": _finite(rho),
                "formula": formula,
            }
            for band_id, a, b, rho, formula in self.per_band_rates.rows()
        ]
        return json.dumps(payload, indent=2, allow_nan=False)

    def to_csv(self) -> str:
        lines = ["iter,residual,ratio"]
        h = self.residual_history
        for i, r in enumerate(h):
            ratio = "" if i == 0 or h[i - 1] == 0 else repr(r / h[i - 1])
            lines.append(f"{i},{r!r},{ratio}")
        return "\n".join(lines) + "\n"


def _finite(x: float):
    """``x``, or None, which JSON writes as null, if it is not finite."""
    return x if math.isfinite(x) else None


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
    weighted by ``scale``: the root of ``half_sum_squares`` with the
    self-conjugate last-axis positions ``sc``."""
    if scale is not None:
        x = x * scale
    return math.sqrt(half_sum_squares(x, sc))


def _reference(x: np.ndarray, sc, scale: np.ndarray | None = None) -> float:
    """``_norm`` of a solve's input, refused if it overflows float64, since
    no stop test relative to it could hold."""
    ref = _norm(x, sc, scale)
    if not math.isfinite(ref):
        raise StructuralError("the field's norm (the root of the sum of its "
                              "squared Fourier modes) is not finite in float64")
    return ref


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
    if not A.is_scalar and A.shape[0] != v.components:
        raise ArityError(
            f"symbol produces {A.shape[0]} components, field has {v.components}"
        )
    vals, _ = evaluate_on_grid(A, v.grid, policy)
    out = _apply(_pinv(vals), forward_transform(v).flat())
    return inverse_transform(
        SpectralField(v.grid, out.reshape((len(out),) + v.grid.sizes)), check=False
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


def _check_bounds(bounds: RateBounds, strict: bool) -> float:
    """Worst contraction bound, the first band's if several are worst; a
    non-finite bound counts as the worst."""
    rho = np.where(np.isfinite(bounds.rho), bounds.rho, np.inf)
    i = int(np.argmax(rho))
    if strict and rho[i] >= 1.0:
        raise BoundViolationError(bounds.ids[i], bounds.rho[i])
    return float(bounds.rho[i])


def _finish(report: SolveReport) -> SolveReport:
    h = report.residual_history
    report.fitted_rate = estimate_rate(h) if len(h) >= 3 else float("nan")
    return report


def _iterate(r, g, sc, ref, report, cfg, observe=None):
    """The sweep loop of both solvers: ``S += r; r = g r`` per mode.

    ``g`` is one scalar (M,) or one matrix (M, n, n) per mode.  Residuals
    are measured by ``_norm`` with the self-conjugate positions ``sc``;
    both solvers fold the norm's weights into ``r``.  The loop continues
    from the residual history and sweep count in ``report`` and updates
    them in place; before each sweep it tests the
    last residual for non-finite values, the stop, growth and the sweep
    cap.  ``observe(S)`` runs after each sweep.  Returns the accumulated S.
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
        _sweep(g, r)
        history.append(_norm(r, sc))
        if observe is not None:
            observe(S)
    _finish(report)
    return S


def _sweep(g: np.ndarray, r: np.ndarray) -> None:
    """r <- g r per mode, in place (``_apply``): for one matrix per mode a
    block of modes at a time, so no second residual array exists."""
    if g.ndim == 1:
        _apply(g, r)
        return
    for sl, _, _, _ in layout_blocks([0, len(g)], width=math.prod(g.shape[1:])):
        r[:, sl] = _apply(g[sl], r[:, sl])


def _magnitudes(r: np.ndarray, scale: np.ndarray | None) -> np.ndarray:
    """Per-mode length of the residual ``r`` (n, M) over its components,
    times the norm weights ``scale``: each component's ``np.abs``, joined
    by ``np.hypot``, so no value is squared and none overflows or
    underflows where ``r`` does not."""
    rho = np.abs(r[0])
    for comp in r[1:]:
        np.hypot(rho, np.abs(comp), out=rho)
    if scale is not None:
        rho *= scale
    return rho


def _richardson_plan(A: SymbolExpr, pc: BandPreconditioner):
    """Per-mode G = Id - A P in the order of the partition's half layout,
    and P: one per band (``band_inverses``), with G by ``band_recurrence`` a
    block at a time, and on the dc set one per mode, the pseudo-inverse of
    A under the Nyquist convention (``_pinv``), with G by the same
    ``_recurrence``.  G is one scalar per mode for a scalar symbol, else one
    matrix per mode; it is complex only if some mode's value is.  The form
    of G chooses the sweep state of ``richardson_solve``.  The dc set is
    taken a block at a time too, and blocks are sized by the values of one
    mode's G (``layout_blocks``' width), so the symbol values,
    pseudo-inverses and their temporaries stay the size of a scalar
    symbol's block.  Returns (G, band P array, dc P)."""
    grid, half = pc.partition.grid, pc.partition.half
    nb = half.offsets[-1]
    pbands = band_inverses(A, pc, range(len(pc.partition.ids)))
    width = math.prod(pbands.shape[1:])
    pdc, gdc = [], []
    for sl, _, _, _ in layout_blocks([nb, len(half.perm)], width=width):
        kdc = grid.wavevectors(half.perm[sl], half=True).T
        a, _ = evaluate_modes(A, grid, kdc, SingularModePolicy.ZERO)
        pdc.append(_pinv(a))
        gdc.append(_recurrence(a, pdc[-1]))
    pdc, gdc = np.concatenate(pdc), np.concatenate(gdc)
    g = np.empty((len(half.perm),) + pbands.shape[1:], gdc.dtype)
    g[nb:] = gdc
    for sl, first, last, counts in layout_blocks(half.offsets, width=width):
        K = grid.wavevectors(half.perm[sl], half=True)
        gk = band_recurrence(A, pbands[first:last], K, counts)
        if np.iscomplexobj(gk) and not np.iscomplexobj(g):
            g = g.astype(complex)
        g[sl] = gk
    return g, pbands, pdc


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

    For a scalar symbol the sweeps run on per-mode magnitudes: with g the
    mode's G, r_j = g^j r_0, so the loop runs ``S += rho; rho *= g`` on
    rho_j = g^j |r_0| w (w the norm weight), real when g is, and the
    residual is the norm of rho.  At exit u = r_0 P S / rho_0 per mode,
    with rho_0 recomputed and 0 where it is 0.  For a matrix symbol the
    sweeps run on the weighted residual r w itself, and u = P S / w.

    The plan holds G per mode, P once per band and per mode only on the dc
    set.  Each large array is dropped at its last use: the spectrum once
    gathered, G after the sweep loop, and the sums S before the inverse
    transform.  Both transforms run in place
    (``forward_half_transform``, ``inverse_half_transform``).  For a scalar
    symbol r_0 is scaled in place and scattered into one new half
    spectrum; for a matrix symbol the sweeps update r in place
    (``_sweep``), and u is assembled in its memory.  Either way the inverse
    transform overwrites u.
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

    bounds = pc.bounds
    theoretical = _check_bounds(bounds, cfg.strict)
    half = part.half
    r = gather_rows(forward_half_transform(v).reshape(v.components, -1), half.perm)
    g, pbands, pdc = _richardson_plan(A, pc)
    scale = _norm_scale(grid, cfg.norm)
    if scale is not None:
        scale = scale.ravel()[half.perm]
    if g.ndim == 1:  # r_j = g^j r_0: sweep the magnitudes
        # g = 1 - a p is complex if a or p is, so S can take P at exit.
        state = _magnitudes(r, scale).astype(g.dtype, copy=False)
    else:  # G commutes with the per-mode weight
        state = r
        if scale is not None:
            state *= scale

    ref = _reference(state, half.sc)
    report = SolveReport(0, [ref], float("nan"), theoretical, False, bounds)
    S = _iterate(state, g, half.sc, ref, report, cfg)
    del state, g

    for sl, first, last, counts in layout_blocks(half.offsets):
        p = np.repeat(pbands[first:last], counts, axis=0)
        S[..., sl] = _apply(p, S[..., sl])
    dc = slice(half.offsets[-1], None)
    S[..., dc] = _apply(pdc, S[..., dc])
    if S.ndim == 1:
        # S sums rho_j = g^j rho_0, and is 0 wherever rho_0 is.
        rho = _magnitudes(r, scale)
        np.divide(S, rho, out=S, where=rho != 0)
        r *= S
        del rho, S
        u = np.empty((ncols,) + grid.half_sizes, dtype=complex)
        scatter_rows(u.reshape(ncols, -1), half.perm, r)
    else:
        if scale is not None:
            S /= scale
        # u fills the memory of the residual: ncols == v.components, so it
        # holds as many values.
        u = r.reshape((ncols,) + grid.half_sizes)
        scatter_rows(u.reshape(ncols, -1), half.perm, S)
        del S
    del r, scale
    return inverse_half_transform(grid, u), report


# ---------------------------------------------------------------------------
# Iterative Helmholtz split (Leray projector)
# ---------------------------------------------------------------------------


def _leray_blocks(grid: GridSpec, half: _HalfLayout, omega, v0, lam=None):
    """Sweep 1 of the Leray iteration over ``layout_blocks`` of the half
    layout, so its per-mode vectors exist one block at a time.

    Per mode, with xi its wavevector and w its band's row of the scales
    ``omega`` (nbands, d): c = w^2 / xi, the eigenvalue lambda
    (``leray_lambda``, the form the certificates bound, or read from
    ``lam`` when given), the output vectors l = xi |c|^2 / |w|^2 and
    m = c (1 - lambda) - l; and on the band-major spectrum ``v0`` (d, M)
    lv1 = xi (c.v0) / |w|^2, the remainder coefficient
    t = xi.(v0 - lv1) / |w|^2 and mv1 = v0 - lv1 - c t.  Yields (slice,
    xi, lambda, |c|^2, l, m, lv1, mv1, t) per block.
    """
    omega_sq = (omega**2).T
    wsq_band = _axis_sum(omega_sq)
    for sl, first, last, counts in layout_blocks(half.offsets):
        xi = grid.wavevectors(half.perm[sl], half=True)
        wsq = np.repeat(wsq_band[first:last], counts)
        c = np.repeat(omega_sq[:, first:last], counts, axis=1)
        c /= xi
        csq = _axis_sum(c**2)
        if lam is None:
            lam_b = leray_lambda(omega[first:last], xi.T, counts)
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
    the first sweep the remainder is c t_1 with one complex scalar t_1 per
    mode, and every later sweep multiplies it by the closed-form
    eigenvalue lambda: after sweep n it is c t_1 pi with the real
    pi = lambda^(n - 1), and the sum of the remainders is c t_1 sigma with
    sigma = 1 + lambda + ... + lambda^(n - 2).  The sweeps therefore run
    on real arrays, and the outputs are
    u_div = v0 - lv1 - c t_1 + m t_1 sigma and u_curl = lv1 + l t_1 sigma
    with fixed per-mode vectors m, l.  The accumulated divergence-free part
    has zero spectral divergence after every sweep, not just at
    convergence.  The dc set is assigned exactly up front (mean to the
    divergence-free part).

    The sweeps run on rho = a pi from rho_0 = a, a = |c| |t_1| times the
    norm weight, so the residual is the norm of rho, S sums a sigma and
    sigma = S / a at exit.  A divergence entry is the norm of
    xi.mv1 + (xi.m) t_1 sigma: per mode A + 2 B sigma + C sigma^2 with
    A = |xi.mv1|^2, B = Re(conj(xi.mv1) (xi.m) t_1), C = |(xi.m) t_1|^2.
    The plan stores B / a and C / a^2 (0 where a, and so t_1, is 0), and
    the entry reads sum(A) + sum(B S / a) + sum(C S^2 / a^2) off the plan,
    each sum in a fixed order; it is roundoff, and below zero reads 0.

    Besides the gathered band spectrum v0, the plan keeps lambda and one
    real array of rows rho, a, B / a and C / a^2, plus the sum of A.  The
    d-vectors xi, c, l, m and sweep 1's outputs exist only block by block
    (``_leray_blocks``): once to fill the plan, and once at exit to write
    both outputs, with the recomputed t_1 times sigma, into half spectra,
    one row at a time (``scatter_rows``), in which the inverse transforms
    then run in place.
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

    bounds = _leray_bounds(part)
    theoretical = _check_bounds(bounds, cfg.strict)
    grid = u.grid
    half = part.half
    nb = half.offsets[-1]
    perm, dc = half.perm[:nb], half.perm[nb:]
    planes = self_conjugate_planes(grid)
    spec = forward_half_transform(u)
    scale = _norm_scale(grid, cfg.norm)
    ref = _reference(spec, planes, scale)
    flat = spec.reshape(d, -1)

    # Exact dc assignment along the effective wavevectors, which are 0 on
    # each axis's Nyquist plane.
    kdc = grid.wavevectors(dc, half=True, effective=True)
    div_dc, curl_dc = _split_modes(kdc, flat[:, dc])
    div_dc_sq = _norm(np.sum(kdc * div_dc, axis=0), half.sc - nb) ** 2

    v0 = gather_rows(flat, perm)
    del spec, flat, kdc
    sb = None if scale is None else scale.ravel()[perm]
    # Band modes are never self-conjugate: each counts twice in a norm.
    report = SolveReport(
        0, [_norm(v0, [], sb)], float("nan"), theoretical, False, bounds, []
    )
    sweep = report.residual_history[0] > cfg.tol * ref
    if not sweep:
        v0[:] = 0.0

    # The bands' scales, band_omega's lower box edges.
    omega = _leray_omega(part.edges, part.ids)

    # The plan, block by block, with A in the rho row until it is summed.
    lam = np.empty(nb)
    state = np.empty((4, nb))
    rho, a, B, C = state
    for sl, xi, lam_b, csq, _, m, _, mv1, t in _leray_blocks(
        grid, half, omega, v0
    ):
        lam[sl] = lam_b
        np.multiply(np.sqrt(csq), np.abs(t), out=a[sl])
        if sb is not None:
            a[sl] *= sb[sl]
        dv = _axis_sum(xi * mv1)
        t *= _axis_sum(xi * m)
        rho[sl] = dv.real**2 + dv.imag**2
        B[sl] = dv.real * t.real + dv.imag * t.imag
        C[sl] = t.real**2 + t.imag**2
    del sb
    # A positive float is at least the least subnormal, so the maximum
    # changes a only where it is 0, and there B and C are 0.
    A_sum = float(np.einsum("i->", rho))
    rho[:] = a
    np.maximum(a, math.ulp(0.0), out=a)
    B /= a
    C /= a
    C /= a

    def observe(S):
        # A + 2 B sigma + C sigma^2, each band mode counted twice.
        sq = A_sum
        if S is not None:
            sq += 2.0 * float(np.einsum("i,i->", B, S))
            sq += float(np.einsum("i,i,i->", C, S, S))
        report.divergence_history.append(math.sqrt(max(2.0 * sq, 0.0) + div_dc_sq))

    if sweep:
        report.iterations = 1
        report.residual_history.append(_norm(rho, []))
        observe(None)
    sigma = _iterate(rho, lam, [], ref, report, cfg, observe)
    sigma /= a
    del state, rho, a, B, C

    # The outputs, block by block into half spectra.  The last divergence
    # entry is measured on u_div, without the factor i, which leaves the
    # norm unchanged.
    udiv = np.empty((d,) + grid.half_sizes, dtype=complex)
    ucurl = np.empty_like(udiv)
    fdiv, fcurl = udiv.reshape(d, -1), ucurl.reshape(d, -1)
    for sl, _, _, _, l, m, lv1, mv1, t in _leray_blocks(
        grid, half, omega, v0, lam
    ):
        t *= sigma[sl]
        mv1 += m * t
        lv1 += l * t
        scatter_rows(fdiv, perm[sl], mv1)
        scatter_rows(fcurl, perm[sl], lv1)
    fdiv[:, dc] = div_dc
    fcurl[:, dc] = curl_dc
    del v0, sigma, lam, fdiv, fcurl
    if report.divergence_history:
        kappa = [effective_axis_wavevectors(grid, i) for i in range(d)]
        kappa[-1] = kappa[-1][: grid.half_sizes[-1]]
        div = sum(k * comp for k, comp in zip(np.ix_(*kappa), udiv))
        report.divergence_history[-1] = _norm(div, planes)
        del div
    udiv = inverse_half_transform(grid, udiv)
    return udiv, inverse_half_transform(grid, ucurl), report
