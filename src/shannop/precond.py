"""Per-band approximation operators and their contraction-rate bounds.

A band preconditioner assigns each band of a partition a constant real
matrix approximating the target symbol on that band; dc modes are always
solved by an exact modewise pseudo-inverse of the target.  Closed-form
constructions:

* the optimal constant for a positive scalar symbol, equalizing the relative
  deviation at the band's extreme values;
* the implicit-Laplacian rule (1 + alpha*w^2) with w^2 the midpoint of the
  band's squared-frequency range;
* the divergence-free / gradient-part operator pair used by the iterative
  Leray projector, built from the first-order generators with the band's
  per-axis dyadic scales baked in.

No general minimax optimizer over matrix approximants is provided; the
achieved contraction is certified a posteriori by ``sampled_contraction``.
The certificate and the Richardson plan read the same per-mode
coefficients from ``band_recurrence``, block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bands
from .bands import FrequencyBand, Partition, band_extrema, layout_blocks
from .errors import ArityError, NotInvertibleOnBandError
from .grid import _axis_sum
from .symbols import (
    Delta,
    Identity,
    Product,
    Scale,
    Sum,
    SymbolExpr,
    Xi,
    XiInv,
    eval_many,
    pseudo_inverse,
)

FORMULA_ILAP = "implicit-laplacian"
FORMULA_KANTOROVICH = "kantorovich"
FORMULA_SAMPLED = "sampled-sup"


@dataclass
class RateBound:
    """Contraction bound for one band; rho < 1 certifies convergence."""

    band_id: tuple
    a: float
    b: float
    rho: float
    formula: str


@dataclass
class BandEntry:
    """Approximation operator on one band: a constant matrix."""

    matrix: np.ndarray
    stats: dict | None = None


@dataclass
class BandPreconditioner:
    """One entry per band of a partition, approximating ``target``."""

    partition: Partition
    target: SymbolExpr
    entries: dict  # band id -> BandEntry
    kind: str
    mode_exact: bool

    def entry(self, band_id) -> BandEntry:
        return self.entries[band_id]

    def rate_bounds(self) -> list[RateBound]:
        """Per-band contraction bounds consistent with how the entries were
        built (same extrema flavor)."""
        bounds = []
        for band in self.partition.bands:
            st = self.entries[band.id].stats or {}
            if self.kind == "implicit-laplacian":
                a, b = st["a"], st["b"]
                rho = rate_implicit_laplacian(st["alpha"], a, b)
                bounds.append(RateBound(band.id, a, b, rho, FORMULA_ILAP))
            elif self.kind == "scalar-optimal":
                m, M = st["m"], st["M"]
                rho = (M - m) / (M + m) if M + m > 0 else 0.0
                bounds.append(RateBound(band.id, m, M, rho, FORMULA_SAMPLED))
            else:
                rho = sampled_contraction(self.target, self, band)
                a, b, _ = band_extrema(band, self.mode_exact)
                bounds.append(RateBound(band.id, a, b, rho, FORMULA_SAMPLED))
        return bounds

    def with_scaled_entry(self, band_id, factor: float) -> "BandPreconditioner":
        """Copy with one band's constant entry scaled (perturbation probe)."""
        entries = dict(self.entries)
        old = entries[band_id]
        entries[band_id] = BandEntry(matrix=old.matrix * factor, stats=old.stats)
        return BandPreconditioner(
            self.partition, self.target, entries, "custom", self.mode_exact
        )


# ---------------------------------------------------------------------------
# Rate formulas
# ---------------------------------------------------------------------------


def rate_implicit_laplacian(alpha: float, a: float, b: float) -> float:
    """Contraction of the implicit Laplacian with the midpoint rule on a
    band with squared frequencies in [a^2, b^2]."""
    if not 0 < a <= b:
        raise ArityError("need 0 < a <= b")
    return alpha * (b * b - a * a) / (2.0 + alpha * (a * a + b * b))


def rate_kantorovich(a: float, b: float) -> float:
    """Kantorovich bound (1/4)(a/b + b/a)^2 - 1 for per-axis ratios in
    [a, b]; this is the Leray iteration's eigenvalue bound."""
    if not 0 < a <= b:
        raise ArityError("need 0 < a <= b")
    return 0.25 * (a / b + b / a) ** 2 - 1.0


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def _scalar_band_values(sym: SymbolExpr, part: Partition, band, mode_exact: bool):
    """Real values of a scalar symbol over a band (modes or box corners)."""
    if mode_exact:
        K = part.grid.wavevectors(part.perm[part.segment(band.id)]).T
    else:
        corners = np.array(np.meshgrid(*band.box, indexing="ij"))
        K = corners.reshape(band.dim, -1).T
    with np.errstate(over="ignore", invalid="ignore"):  # reported by band below
        values, _ = eval_many(sym, K)
    flat = values[:, 0, 0]
    if not np.all(np.isfinite(flat)):
        raise NotInvertibleOnBandError(
            band.id, f"symbol is not finite on band {band.id}"
        )
    scale = max(np.max(np.abs(flat)), 1e-300)
    if np.max(np.abs(flat.imag)) > 1e-12 * scale:
        raise NotInvertibleOnBandError(
            band.id, f"symbol is not real on band {band.id}"
        )
    return flat.real


def scalar_optimal(
    sym: SymbolExpr, part: Partition, mode_exact: bool = True
) -> BandPreconditioner:
    """Optimal constant per band for a scalar symbol of constant sign.

    The constant w = (m + M)/2, with m, M the extreme magnitudes of the
    symbol on the band, minimizes the contraction sup |1 - p/w| by
    equalizing the deviation at both ends, achieving (M - m)/(M + m).
    Box-corner extrema (mode_exact=False) are only valid for coordinatewise
    monotone symbols.
    """
    if sym.shape != (1, 1):
        raise ArityError("scalar_optimal needs a scalar symbol")
    entries = {}
    for band in part.bands:
        vals = _scalar_band_values(sym, part, band, mode_exact)
        if vals.min() <= 0 < vals.max() or vals.max() == 0:
            raise NotInvertibleOnBandError(band.id)
        sign = 1.0 if vals.max() > 0 else -1.0
        mags = np.abs(vals)
        m, M = float(mags.min()), float(mags.max())
        if m == 0:
            raise NotInvertibleOnBandError(band.id)
        omega = sign * 0.5 * (m + M)
        entries[band.id] = BandEntry(
            matrix=np.array([[omega]]), stats={"m": m, "M": M, "omega": omega}
        )
    return BandPreconditioner(part, sym, entries, "scalar-optimal", mode_exact)


def implicit_laplacian_precond(
    alpha: float, part: Partition, mode_exact: bool = False
) -> BandPreconditioner:
    """Constant (1 + alpha*w^2) per band with w^2 = (a^2 + b^2)/2.

    By default the extrema come from the continuous band box, which
    reproduces the closed-form limit rates; mode-exact extrema give a
    slightly tighter constant for the discrete modes actually present.
    """
    from .symbols import ImplicitLaplacian

    sym = ImplicitLaplacian(alpha)
    entries = {}
    for band in part.bands:
        a, b, _ = band_extrema(band, mode_exact)
        # alpha*(a^2 + b^2) bounds the entry, the rate formula and the
        # symbol at every band mode, so if it is finite none of them is inf.
        if not math.isfinite(alpha * (a * a + b * b)):
            raise ArityError(
                f"alpha {alpha!r} is too large: 1 + alpha*|k|^2 overflows "
                f"on band {band.id}"
            )
        omega_sq = 0.5 * (a * a + b * b)
        entries[band.id] = BandEntry(
            matrix=np.array([[1.0 + alpha * omega_sq]]),
            stats={"a": a, "b": b, "alpha": alpha, "omega_sq": omega_sq},
        )
    return BandPreconditioner(
        part, sym, entries, "implicit-laplacian", mode_exact
    )


def band_omega(band: FrequencyBand) -> np.ndarray:
    """Per-axis scale parameters of a band: the lower box edges.

    For an unrefined tensorial band these are the dyadic scales 2^j_i;
    packet sub-bands keep their own (finer) lower edges, which is what
    tightens the Leray rate under refinement.
    """
    lows = np.array([lo for lo, _ in band.box], dtype=float)
    if np.any(lows <= 0):
        raise ArityError(
            f"band {band.id} touches zero frequency; Leray operators need a "
            f"tensorial band"
        )
    return lows


def leray_band_operators(band: FrequencyBand) -> tuple[SymbolExpr, SymbolExpr]:
    """The divergence-free approximation and gradient extraction operators
    for one tensorial band, as symbols with the band's scales baked in.

    With w the per-axis scales and n = d components:

      Mw = (Id - (1/|w|^2) col[w_i^2/xi_i] row[xi_j])
           (Id - (1/|w|^2) col[xi_i] row[w_j^2/xi_j])
      Lw = (1/|w|^2) col[xi_i] row[w_j^2/xi_j]

    Both are built from matrix units and the first-order generators, so the
    pair is a constructible approximation of the (non-constructible in
    d > 2) exact projector.  xi^T Mw = 0 at every band mode and Lw output
    is modewise parallel to xi.
    """
    omega = band_omega(band)
    n = band.dim
    wsq = float(np.sum(omega**2))

    def rank_one(coef_on_row: bool) -> SymbolExpr:
        # col[w_a^2/xi_a] row[xi_b] or col[xi_a] row[w_b^2/xi_b].
        terms = None
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                i, j = (a, b) if coef_on_row else (b, a)
                factor = Product(Delta(a, b, n), Product(Xi(i), XiInv(j)))
                term = Scale(float(omega[j - 1] ** 2), factor)
                terms = term if terms is None else Sum(terms, term)
        return terms

    left = Sum(Identity(n), Scale(-1.0 / wsq, rank_one(coef_on_row=False)))
    right = Sum(Identity(n), Scale(-1.0 / wsq, rank_one(coef_on_row=True)))
    mw = Product(left, right)
    lw = Scale(1.0 / wsq, rank_one(coef_on_row=True))
    return mw, lw


def leray_matrices(omega: np.ndarray, K: np.ndarray):
    """Fast explicit evaluation of the Leray band operators.

    Returns (Mw, Lw) as (M, d, d) arrays for wavevectors K (M, d) with all
    components nonzero.
    """
    omega = np.asarray(omega, dtype=float)
    K = np.asarray(K, dtype=float)
    wsq = np.sum(omega**2)
    d = K.shape[1]
    eye = np.eye(d)
    c = (omega**2)[None, :] / K  # (M, d): w_i^2 / xi_i
    left = eye - c[:, :, None] * K[:, None, :] / wsq
    lw = K[:, :, None] * c[:, None, :] / wsq
    mw = left @ (eye - lw)
    return mw, lw


def leray_lambda(omega: np.ndarray, K: np.ndarray, counts=None) -> np.ndarray:
    """Closed-form nonzero eigenvalue of Id - Mw - Lw at each wavevector:
    1 - (sum xi_k^2)(sum w_k^4 / (|w|^4 xi_k^2)), for one band's scales
    ``omega`` (d,), one row of scales per wavevector (M, d), or one row per
    band with ``counts`` rows of K each; each way gives the same values."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim == 1:
        omega, counts = omega[None], [len(K)]
    counts = 1 if counts is None else counts
    w4 = np.repeat((omega**4).T, counts, axis=1)
    wsq = np.repeat(np.sum(omega**2, axis=1) ** 2, counts)
    xsq = np.asarray(K, dtype=float).T ** 2
    return 1.0 - _axis_sum(xsq) * _axis_sum(w4 / (wsq * xsq))


def _band_edges(part: Partition) -> np.ndarray:
    """The bands' box edges, (nbands, d, 2); ``band_omega`` refuses the
    first band that touches zero frequency."""
    edges = np.array([b.box for b in part.bands], dtype=float)
    for i in np.flatnonzero(np.any(edges[:, :, 0] <= 0, axis=1))[:1]:
        band_omega(part.bands[i])
    return edges


def leray_rate_bounds(part: Partition) -> list[RateBound]:
    """Kantorovich bounds per band from the per-axis ratios of the box
    edges to the band's scales, its lower edges: a = 1 and
    b = max_i hi_i / lo_i, read from the box edges of all bands at once."""
    edges = _band_edges(part)
    ratios = np.max(edges[:, :, 1] / edges[:, :, 0], axis=1).tolist()
    return [
        RateBound(band.id, 1.0, b, rate_kantorovich(1.0, b), FORMULA_KANTOROVICH)
        for band, b in zip(part.bands, ratios)
    ]


def leray_sampled(part: Partition) -> np.ndarray:
    """Each band's sup of |lambda| over its modes: ``leray_lambda`` once
    per block of the layout, the band maxima merged across blocks."""
    omega = _band_edges(part)[:, :, 0]
    worst = np.zeros(len(part.bands))
    for sl, first, last, counts in layout_blocks(part.offsets):
        K = part.grid.wavevectors(part.perm[sl]).T
        lam = np.abs(leray_lambda(omega[first:last], K, counts))
        seg = worst[first:last]
        np.maximum(seg, np.maximum.reduceat(lam, np.cumsum(counts) - counts), out=seg)
    return worst


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def _real_if_exact(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.real) if not np.any(x.imag) else x


def band_inverses(sym: SymbolExpr, pc: BandPreconditioner, band_list) -> np.ndarray:
    """Each listed band's P = entry^+, (nbands,) for a scalar symbol with
    1x1 entries, else (nbands, n, n).  A finite entry whose P overflows is
    refused by its band's id; a non-finite one is left to the certificate."""
    E = np.array([pc.entries[b.id].matrix for b in band_list])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if sym.is_scalar and E.shape[1:] == (1, 1):
            p = 1.0 / E[:, 0, 0]
        else:
            p = _real_if_exact(pseudo_inverse(E))
    if not np.isfinite(p).all():
        for band, e, pk in zip(band_list, E, p):
            if np.isfinite(e).all() and not np.isfinite(pk).all():
                raise NotInvertibleOnBandError(
                    band.id, f"the entry {e.tolist()} on band {band.id} has no "
                    "finite inverse")
    return p


def band_recurrence(sym: SymbolExpr, p: np.ndarray, K: np.ndarray, counts):
    """Per-mode G = Id - A(k) P on a block of modes with wavevectors K
    (d, M): ``counts[j]`` modes of band j after band j - 1's, with band
    j's P ``p[j]`` from ``band_inverses``.  G is one scalar per mode for
    scalar P, else one matrix per mode, and complex only if some value is.
    No band mode of any scheme lies on a Nyquist plane, so the symbol is
    evaluated directly at K."""
    a, _ = eval_many(sym, K.T)
    p = np.repeat(p, counts, axis=0)
    if p.ndim == 1:
        return 1.0 - _real_if_exact(a[:, 0, 0]) * p
    if sym.is_scalar:
        a = a[:, 0, 0, None, None] * np.eye(p.shape[1])
    return _real_if_exact(np.eye(a.shape[1]) - a @ p)


def sampled_contraction(
    sym: SymbolExpr, pc: BandPreconditioner, band: FrequencyBand
) -> float:
    """Achieved contraction sup over the band's modes of ||G(k)||_2, read
    from the same ``band_recurrence`` coefficients the solver iterates, a
    block of the band's segment at a time; the certificate for the bound."""
    if isinstance(band, tuple):
        band = pc.partition.band(band)
    part = pc.partition
    p = band_inverses(sym, pc, [band])
    seg = part.segment(band.id)
    worst = 0.0
    for lo in range(seg.start, seg.stop, bands._BLOCK):
        pos = part.perm[lo : min(lo + bands._BLOCK, seg.stop)]
        g = band_recurrence(sym, p, part.grid.wavevectors(pos), [len(pos)])
        g = np.abs(g) if g.ndim == 1 else np.linalg.svd(g, compute_uv=False)[:, 0]
        worst = np.maximum(worst, g.max())
    return float(worst)
