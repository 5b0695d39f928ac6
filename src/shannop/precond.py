"""Per-band approximation operators and their contraction-rate bounds.

A band preconditioner holds one constant real matrix per band of a
partition, approximating the target symbol there, and the bands'
contraction bounds, built together as one ``RateBounds`` record of arrays;
``RateBound`` objects, one per band, are built only on request
(``rate_bounds()``, ``leray_rate_bounds``).  dc modes are always solved by
an exact modewise pseudo-inverse of the target.  Constructions: the optimal
constant for a scalar symbol of constant sign; the implicit-Laplacian
midpoint rule (1 + alpha*w^2); given entries (no minimax optimizer over
matrix approximants is provided), bounded by their sampled sups; and the
Leray divergence-free / gradient-part operator pair, with the band's
per-axis scales baked in.  Entries have their symbol's shape: one 1x1
entry per band for a scalar symbol, one n x m entry for an n x m one.  The
certificates read the per-mode coefficients the Richardson plan iterates
(``band_recurrence``) and take every band maximum, and ``scalar_optimal``
its extrema, in one blocked loop.  The certificates bound and the Helmholtz
sweep runs one Leray eigenvalue, ``leray_lambda``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bands import FrequencyBand, Partition, layout_blocks
from .errors import ArityError, NotInvertibleOnBandError
from .grid import _axis_sum
from .symbols import (
    Delta,
    Identity,
    ImplicitLaplacian,
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
class RateBounds:
    """Every band's contraction bound, in band order: the band ``ids``,
    float64 arrays ``a``, ``b`` and ``rho``, and one ``formula`` per band."""

    ids: list
    a: np.ndarray
    b: np.ndarray
    rho: np.ndarray
    formula: list

    def rows(self):
        """(band id, a, b, rho, formula) per band, as Python values."""
        arrays = (self.a.tolist(), self.b.tolist(), self.rho.tolist())
        return zip(self.ids, *arrays, self.formula)

    def tolist(self) -> list[RateBound]:
        return [RateBound(*row) for row in self.rows()]


def _rate_bounds(part: Partition, a, b, rho, formula: str) -> RateBounds:
    return RateBounds(part.ids, a, b, rho, [formula] * len(part.ids))


@dataclass
class BandPreconditioner:
    """One constant entry per band of a partition, approximating ``target``:
    ``entries`` is (nbands,) + ``target.shape`` and ``bounds`` the bands'
    ``RateBounds``, both in the order of ``partition.ids`` and built
    together."""

    partition: Partition
    target: SymbolExpr
    entries: np.ndarray
    bounds: RateBounds

    def __post_init__(self):
        want = (len(self.partition.ids),) + tuple(self.target.shape)
        if np.shape(self.entries) != want:
            raise ArityError(
                f"entries of shape {np.shape(self.entries)} do not match "
                f"{want}: one entry of the symbol's shape per band"
            )

    def rate_bounds(self) -> list[RateBound]:
        """The per-band contraction bounds stored with the entries, as
        ``RateBound``s built on each call."""
        return self.bounds.tolist()

    def with_scaled_entry(self, band_id, factor: float) -> "BandPreconditioner":
        """Copy with one band's constant entry scaled (perturbation probe);
        that band's bound becomes its sampled sup, the others are kept."""
        i = self.partition._index[band_id]
        pc = replace(self, entries=self.entries.copy())
        pc.entries[i] *= factor
        rho, formula = self.bounds.rho.copy(), list(self.bounds.formula)
        rho[i] = _sampled(pc.target, pc, range(i, i + 1))[0]
        formula[i] = FORMULA_SAMPLED
        pc.bounds = replace(self.bounds, rho=rho, formula=formula)
        return pc


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


def scalar_optimal(
    sym: SymbolExpr, part: Partition, mode_exact: bool = True
) -> BandPreconditioner:
    """Optimal constant per band for a scalar symbol of constant sign.

    The constant w = (m + M)/2, with m, M the extreme magnitudes of the
    symbol on the band, minimizes the contraction sup |1 - p/w| by
    equalizing the deviation at both ends, achieving (M - m)/(M + m).
    The extrema run over the band's modes in the blocked band loop, or with
    mode_exact=False over all bands' box corners at once, which is only
    valid for coordinatewise monotone symbols.  The first band on which the
    symbol is not finite, not real or not of one sign is refused.
    """
    if sym.shape != (1, 1):
        raise ArityError("scalar_optimal needs a scalar symbol")

    def extremes(K):
        # Rows whose maxima give max and min of the real part, max and min
        # of its magnitude, and the largest |value| and |imaginary part|.
        with np.errstate(over="ignore", invalid="ignore"):  # reported by band below
            a = eval_many(sym, K)[0][:, 0, 0]
        re = np.abs(a.real)
        return np.stack([a.real, -a.real, re, -re, np.abs(a), np.abs(a.imag)])

    if mode_exact:
        rows = _band_maxima(part, range(len(part.ids)), lambda K, *_: extremes(K.T))
    else:
        d = part.grid.dim
        corners = part.edges[:, np.arange(d), list(np.ndindex(*[2] * d))]
        rows = extremes(corners.reshape(-1, d))
        rows = rows.reshape(len(rows), len(part.ids), -1).max(axis=2)
    hi, lo, M, m, mag, im = rows
    lo, m = -lo, -m
    finite = np.isfinite(M) & np.isfinite(im)
    real = ~(im > 1e-12 * np.maximum(mag, 1e-300))
    refused = ~(finite & real) | (lo <= 0) & (0 < hi) | (hi == 0)
    for i in np.flatnonzero(refused)[:1]:
        why = "finite" if not finite[i] else "real" if not real[i] else "invertible"
        raise NotInvertibleOnBandError(
            part.ids[i], f"symbol is not {why} on band {part.ids[i]}"
        )
    entries = np.copysign(0.5 * (m + M), hi)
    bounds = _rate_bounds(part, m, M, (M - m) / (M + m), FORMULA_SAMPLED)
    return BandPreconditioner(part, sym, entries.reshape(-1, 1, 1), bounds)


def implicit_laplacian_precond(
    alpha: float, part: Partition, mode_exact: bool = False
) -> BandPreconditioner:
    """Constant (1 + alpha*w^2) per band with w^2 = (a^2 + b^2)/2, and the
    band's ``rate_implicit_laplacian``, for all bands at once.

    By default the extrema come from the continuous band box, which
    reproduces the closed-form limit rates; mode-exact extrema give a
    slightly tighter constant for the discrete modes actually present.
    """
    sym = ImplicitLaplacian(alpha)
    a, b = _corner_norms(part, mode_exact)
    with np.errstate(over="ignore"):  # refused by band below
        s = alpha * (a * a + b * b)
    # s bounds the entry, the rate formula and the symbol at every band
    # mode, so if it is finite none of them is inf.
    for i in np.flatnonzero(~np.isfinite(s))[:1]:
        raise ArityError(
            f"alpha {alpha!r} is too large: 1 + alpha*|k|^2 overflows "
            f"on band {part.ids[i]}"
        )
    entries = 1.0 + alpha * (0.5 * (a * a + b * b))
    rho = alpha * (b * b - a * a) / (2.0 + s)
    bounds = _rate_bounds(part, a, b, rho, FORMULA_ILAP)
    return BandPreconditioner(part, sym, entries.reshape(-1, 1, 1), bounds)


def given_entries(sym: SymbolExpr, part: Partition, entries) -> BandPreconditioner:
    """The constant ``entries``, one of ``sym``'s shape per band in the
    order of ``part.ids`` (1x1 for a scalar symbol), approximating ``sym``;
    each band's bound is its sampled sup (``sampled_contraction``), with
    a, b the norms of its box corners."""
    pc = BandPreconditioner(part, sym, np.asarray(entries, dtype=float), None)
    a, b = _corner_norms(part)
    rho = _sampled(sym, pc, range(len(part.ids)))
    pc.bounds = _rate_bounds(part, a, b, rho, FORMULA_SAMPLED)
    return pc


def _corner_norms(part: Partition, mode_exact: bool = False):
    """``band_extrema``'s a and b for all bands at once: the norms of the
    low and high corners of the box, or of the modes' per-axis extreme |k|.
    Every axis interval holds every integer magnitude it spans, so those
    are ceil(lo) and ceil(hi) - 1."""
    edges = part.edges
    if mode_exact:
        edges = np.ceil(edges)
        edges[:, :, 1] -= 1.0
    sq = edges.T ** 2  # (2, d, nbands)
    return np.sqrt(_axis_sum(sq[0])), np.sqrt(_axis_sum(sq[1]))


def band_omega(band: FrequencyBand) -> np.ndarray:
    """Per-axis scale parameters of a band: the lower box edges.

    For an unrefined tensorial band these are the dyadic scales 2^j_i;
    packet sub-bands keep their own (finer) lower edges, which is what
    tightens the Leray rate under refinement.
    """
    return _leray_omega(np.array([band.box], dtype=float), [band.id])[0]


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
    ``omega`` (d,), or one row per band with ``counts`` rows of K each;
    both ways give the same values."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim == 1:
        omega, counts = omega[None], [len(K)]
    w4 = np.repeat((omega**4).T, counts, axis=1)
    wsq = np.repeat(np.sum(omega**2, axis=1) ** 2, counts)
    xsq = np.asarray(K, dtype=float).T ** 2
    return 1.0 - _axis_sum(xsq) * _axis_sum(w4 / (wsq * xsq))


def _leray_omega(edges: np.ndarray, ids) -> np.ndarray:
    """``band_omega`` of the bands ``ids`` with boxes ``edges`` (nbands, d, 2)."""
    omega = edges[:, :, 0]
    for i in np.flatnonzero(np.any(omega <= 0, axis=1))[:1]:
        raise ArityError(
            f"band {ids[i]} touches zero frequency; Leray operators need a "
            f"tensorial band"
        )
    return omega


def _leray_bounds(part: Partition) -> RateBounds:
    """Kantorovich bounds per band from the per-axis ratios of the box
    edges to the band's scales, its lower edges: a = 1 and
    b = max_i hi_i / lo_i, read from the box edges of all bands at once.
    With a = 1, rho = 0.25 (1/b + b)^2 - 1 equals ``rate_kantorovich``."""
    b = np.max(part.edges[:, :, 1] / _leray_omega(part.edges, part.ids), axis=1)
    rho = 0.25 * (1.0 / b + b) ** 2 - 1.0
    return _rate_bounds(part, np.ones_like(b), b, rho, FORMULA_KANTOROVICH)


def leray_rate_bounds(part: Partition) -> list[RateBound]:
    """``_leray_bounds`` as one ``RateBound`` per band."""
    return _leray_bounds(part).tolist()


def leray_sampled(part: Partition) -> np.ndarray:
    """Each band's sup over its modes of |``leray_lambda``|."""
    omega = _leray_omega(part.edges, part.ids)

    def lam(K, first, last, counts):
        return np.abs(leray_lambda(omega[first:last], K.T, counts))

    return _band_maxima(part, range(len(part.ids)), lam)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def _real_if_exact(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.real) if not np.any(x.imag) else x


def _pinv(a: np.ndarray) -> np.ndarray:
    """Per-mode pseudo-inverse of symbol values ``a`` (M, n, m): for a
    scalar symbol one scalar per mode, 0 where ``a`` is, else (M, m, n);
    real if every value is."""
    if a.shape[1:] == (1, 1):
        a = _real_if_exact(a[:, 0, 0])
        return np.where(a == 0, 0.0, 1.0 / np.where(a == 0, 1.0, a))
    return _real_if_exact(pseudo_inverse(a))


def _recurrence(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-mode G = Id - A P from symbol values ``a`` (M, n, m) and one P
    per mode: one scalar G per mode for scalar P (M,), else one matrix;
    complex only if some value is."""
    if p.ndim == 1:
        return 1.0 - _real_if_exact(a[:, 0, 0]) * p
    return _real_if_exact(np.eye(a.shape[1]) - a @ p)


def band_inverses(sym: SymbolExpr, pc: BandPreconditioner, bands: range) -> np.ndarray:
    """P = entry^+ for a range of bands, (nbands,) for a scalar symbol,
    else (nbands, m, n).  A finite entry whose P overflows, such as a zero
    scalar, is refused by its band's id; a non-finite one is left to the
    certificate."""
    E = pc.entries[bands.start : bands.stop]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p = 1.0 / E[:, 0, 0] if sym.is_scalar else _pinv(E)
    if not np.isfinite(p).all():
        for i, e, pk in zip(bands, E, p):
            if np.isfinite(e).all() and not np.isfinite(pk).all():
                band_id = pc.partition.ids[i]
                raise NotInvertibleOnBandError(
                    band_id, f"the entry {e.tolist()} on band {band_id} has no "
                    "finite inverse")
    return p


def band_recurrence(sym: SymbolExpr, p: np.ndarray, K: np.ndarray, counts):
    """Per-mode G = Id - A(k) P (``_recurrence``) on a block of modes with
    wavevectors K (d, M): ``counts[j]`` modes of band j after band j - 1's,
    with band j's P ``p[j]`` from ``band_inverses``.  No band mode of any
    scheme lies on a Nyquist plane, so the symbol is evaluated directly at
    K."""
    a, _ = eval_many(sym, K.T)
    return _recurrence(a, np.repeat(p, counts, axis=0))


def _band_maxima(part: Partition, bands: range, values) -> np.ndarray:
    """Each band's maximum over its modes of ``values(K, first, last, counts)``
    for the range ``bands``, called per ``layout_blocks`` block of the half
    layout with its wavevectors K (d, M), ``counts[j]`` of them in band
    ``bands[first + j]``: one value per mode (M,), or k rows (k, M) for
    (k, nbands) maxima.  A band mode off the half grid is the reflection -k
    of one on it, where every symbol takes the conjugate value, so the
    values the certificates take, magnitudes and real parts, repeat there."""
    half = part.half
    worst = None
    for sl, first, last, counts in layout_blocks(
        half.offsets[bands.start : bands.stop + 1]
    ):
        K = part.grid.wavevectors(half.perm[sl], half=True)
        v = values(K, first, last, counts)
        if worst is None:
            worst = np.full(v.shape[:-1] + (len(bands),), -np.inf)
        seg = worst[..., first:last]
        starts = np.cumsum(counts) - counts
        np.maximum(seg, np.maximum.reduceat(v, starts, axis=-1), out=seg)
    return worst


def _sampled(sym: SymbolExpr, pc: BandPreconditioner, bands: range) -> np.ndarray:
    """The sup over each band's modes of ||G(k)||_2, for the range ``bands``."""
    p = band_inverses(sym, pc, bands)

    def norms(K, first, last, counts):
        g = band_recurrence(sym, p[first:last], K, counts)
        return np.abs(g) if g.ndim == 1 else np.linalg.svd(g, compute_uv=False)[:, 0]

    return _band_maxima(pc.partition, bands, norms)


def sampled_contraction(
    sym: SymbolExpr, pc: BandPreconditioner, band: FrequencyBand
) -> float:
    """Achieved contraction sup over the band's modes of ||G(k)||_2, read
    from the same ``band_recurrence`` coefficients the solver iterates, a
    block of the band's segment at a time; the certificate for the bound."""
    i = pc.partition._index[band.id]
    return float(_sampled(sym, pc, range(i, i + 1))[0])
