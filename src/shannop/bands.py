"""Dyadic frequency-band partitions and band-space field representations.

Three partition schemes cover the grid modes exactly once:

* tensorial: bands indexed by a per-axis level tuple j, each axis interval
  [2^j_i, 2^(j_i+1)) in wavevector magnitude;
* MRA (isotropic grids): bands indexed by (level, type) with the type a
  nonzero 0/1 vector; a 0 axis spans [0, 2^j), a 1 axis [2^j, 2^(j+1));
* packet refinement: every band interval split into 2^depth equal parts.

A mode k belongs to an axis interval [lo, hi) when lo <= |k_i| < hi, both
signs included; the half-open rule keeps adjacent bands disjoint.  Modes
not claimed by any band (the zero mode, axis-zero planes in the tensorial
scheme, Nyquist planes) live in the partition's dc set, which solvers
treat by exact modewise operations.

Band projection and synthesis are zero-phase: a band restriction simply
copies mode coefficients, so synthesize(analyze(s)) == s bit for bit.
Synthesis of a derived family multiplies each band coefficient by an exact
per-mode spectral factor, making differentiation by coefficient scaling an
identity in exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArityError,
    PartitionConsistencyError,
    StructuralError,
    UnsupportedSchemeError,
)
from .grid import GridSpec, SpectralField, effective_axis_wavevectors


def _flatten(obj) -> tuple:
    if isinstance(obj, tuple):
        out = ()
        for item in obj:
            out += _flatten(item)
        return out
    return (obj,)


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


@dataclass(eq=False)
class FrequencyBand:
    """One frequency box and the grid modes inside it.

    ``axis_indices[i]`` lists the positions along axis i (in FFT layout)
    whose magnitude falls in the box; the band's mode set is the Cartesian
    product of those index lists.
    """

    grid: GridSpec
    id: tuple
    box: tuple  # ((lo, hi), ...) per axis
    axis_indices: tuple  # one int index array per axis

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def nmodes(self) -> int:
        return math.prod(len(ix) for ix in self.axis_indices)

    def sort_key(self) -> tuple:
        return _flatten(self.id)

    def axis_wavevectors(self, axis: int) -> np.ndarray:
        return self.grid.axis_wavevectors(axis)[self.axis_indices[axis]]

    def mode_wavevectors(self) -> np.ndarray:
        """Materialize the band's modes as an (nmodes, d) integer array."""
        per_axis = [self.axis_wavevectors(i) for i in range(self.dim)]
        mesh = np.meshgrid(*per_axis, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def flat_indices(self) -> np.ndarray:
        """Row-major positions of the band's modes in the flattened grid."""
        mesh = np.meshgrid(*self.axis_indices, indexing="ij")
        return np.ravel_multi_index(
            [m.ravel() for m in mesh], self.grid.sizes
        )

    def selector(self) -> tuple:
        """np.ix_ selector for extracting the band's sub-box per component."""
        return np.ix_(*self.axis_indices)

    def axis_scale(self, axis: int) -> float:
        """Dyadic scale 2^j of the band along ``axis`` (0-based).

        For an unrefined band this is the lower box edge; for a packet
        sub-band it is the lower edge of the dyadic octave containing it.
        """
        lo = self.box[axis][0]
        if lo <= 0:
            raise StructuralError("axis touches zero frequency; no dyadic scale")
        return float(2.0 ** math.floor(math.log2(lo)))


def band_extrema(band: FrequencyBand, mode_exact: bool = True):
    """Frequency extrema (a, b, per_axis) of a band.

    With ``mode_exact`` the extrema run over the actual grid modes, so
    a = min |k| and b = max |k|; otherwise over the continuous box, so
    a^2 = sum lo_i^2 and b^2 = sum hi_i^2.  per_axis lists the (low, high)
    pair used on each axis.
    """
    if band.nmodes == 0:
        raise StructuralError(f"band {band.id} is empty")
    per_axis = []
    if mode_exact:
        for i in range(band.dim):
            mags = np.abs(band.axis_wavevectors(i))
            per_axis.append((float(mags.min()), float(mags.max())))
    else:
        per_axis = [(float(lo), float(hi)) for lo, hi in band.box]
    a = math.sqrt(sum(lo * lo for lo, _ in per_axis))
    b = math.sqrt(sum(hi * hi for _, hi in per_axis))
    return a, b, per_axis


@dataclass(eq=False)
class Partition:
    """A disjoint cover of all grid modes by bands plus a dc set."""

    grid: GridSpec
    base_scheme: str  # "tensorial" | "mra"
    packet_depth: int
    bands: list
    dc_indices: np.ndarray
    dropped_empty: int = 0
    _by_id: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.bands = sorted(self.bands, key=FrequencyBand.sort_key)
        self._by_id = {b.id: b for b in self.bands}
        claimed = sum(b.nmodes for b in self.bands)
        if claimed + len(self.dc_indices) != self.grid.npoints:
            raise PartitionConsistencyError(
                f"bands + dc cover {claimed + len(self.dc_indices)} of "
                f"{self.grid.npoints} modes"
            )

    @property
    def scheme(self) -> str:
        if self.packet_depth > 0:
            return f"packet({self.packet_depth})"
        return self.base_scheme

    def band(self, band_id) -> FrequencyBand:
        return self._by_id[band_id]

    def check_disjoint(self) -> None:
        """Exact set check: every mode claimed at most once."""
        counts = _claim_counts(self.grid, self.bands)
        counts[self.dc_indices] += 1
        _check_claims(counts)


def _claim_counts(grid: GridSpec, bands) -> np.ndarray:
    """Flat count, per grid mode, of the bands whose box holds it."""
    counts = np.zeros(grid.sizes, dtype=np.int32)
    for b in bands:
        counts[b.selector()] += 1
    return counts.ravel()


def _check_claims(counts: np.ndarray) -> None:
    if counts.max() > 1:
        raise PartitionConsistencyError("bands overlap")
    if counts.min() < 1:
        raise PartitionConsistencyError("bands and dc do not cover the grid")


def _base_partition(grid: GridSpec, scheme: str, boxes) -> Partition:
    """Bands from (id, box) pairs; every mode no band holds goes to dc.

    Each distinct (axis, lo, hi) interval is resolved once per build, so
    bands sharing it share its index array, which is made read-only.  The
    dc set and the overlap and cover check come from one claim count.
    """
    mags = [np.abs(grid.axis_wavevectors(i)) for i in range(grid.dim)]
    table = {}
    bands = []
    for band_id, box in boxes:
        for i, (lo, hi) in enumerate(box):
            if (i, lo, hi) not in table:
                ix = np.flatnonzero((mags[i] >= lo) & (mags[i] < hi))
                ix.flags.writeable = False
                table[i, lo, hi] = ix
        idx = tuple(table[i, lo, hi] for i, (lo, hi) in enumerate(box))
        bands.append(FrequencyBand(grid, band_id, box, idx))
    counts = _claim_counts(grid, bands)
    dc = np.flatnonzero(counts == 0)
    part = Partition(grid, scheme, 0, bands, dc)
    counts[dc] += 1
    _check_claims(counts)
    return part


def build_tensorial_partition(grid: GridSpec) -> Partition:
    """Anisotropic splitting: per-axis dyadic octaves, indexed by a level
    tuple.  Axis magnitudes 0 and the Nyquist magnitude go to dc."""
    level_counts = [int(math.log2(n)) - 1 for n in grid.sizes]
    boxes = (
        (j, tuple((float(2**ji), float(2 ** (ji + 1))) for ji in j))
        for j in np.ndindex(*level_counts)
    )
    return _base_partition(grid, "tensorial", boxes)


def build_mra_partition(grid: GridSpec) -> Partition:
    """Isotropic splitting indexed by (level, type), type a nonzero 0/1
    vector: type-0 axes span [0, 2^j), type-1 axes [2^j, 2^(j+1))."""
    if len(set(grid.sizes)) != 1:
        raise UnsupportedSchemeError(
            f"MRA partitions need an isotropic grid, got sizes {grid.sizes}"
        )
    levels = int(math.log2(grid.sizes[0])) - 1
    boxes = (
        ((j, eps), tuple(
            (float(2**j), float(2 ** (j + 1))) if e else (0.0, float(2**j))
            for e in eps
        ))
        for j in range(levels)
        for eps in np.ndindex(*([2] * grid.dim))
        if any(eps)
    )
    return _base_partition(grid, "mra", boxes)


def refine_packet(part: Partition, depth: int) -> Partition:
    """Split every band interval into 2^depth equal parts per axis.

    Each band's per-axis index list is split into its 2^depth pieces and
    the sub-bands are the Cartesian products of the non-empty pieces.
    Sub-boxes with an empty axis hold no grid modes; they are dropped and
    counted in the result's ``dropped_empty``.  Depth 0 returns the
    partition unchanged.  Refining by 1 twice yields the same bands as
    refining by 2 once.
    """
    if depth < 0:
        raise StructuralError("packet depth must be nonnegative")
    if depth == 0:
        return part
    splits = 2**depth
    mags = [np.abs(part.grid.axis_wavevectors(i)) for i in range(part.grid.dim)]
    bands = []
    dropped = part.dropped_empty
    for b in part.bands:
        if part.packet_depth > 0:
            root_id, path = b.id
        else:
            root_id, path = b.id, (0,) * b.dim
        pieces = []  # per axis: the non-empty (path entry, interval, indices)
        for i, ((lo, hi), ix, p) in enumerate(zip(b.box, b.axis_indices, path)):
            m = mags[i][ix]
            width = (hi - lo) / splits
            kept = []
            for s in range(splits):
                sub = (lo + s * width, lo + (s + 1) * width)
                sub_ix = ix[(m >= sub[0]) & (m < sub[1])]
                if len(sub_ix):
                    kept.append((p * splits + s, sub, sub_ix))
            pieces.append(kept)
        dropped += splits**b.dim - math.prod(len(kept) for kept in pieces)
        for combo in itertools.product(*pieces):
            new_path, box, idx = zip(*combo)
            bands.append(FrequencyBand(part.grid, (root_id, new_path), box, idx))
    refined = Partition(
        part.grid,
        part.base_scheme,
        part.packet_depth + depth,
        bands,
        part.dc_indices,
        dropped,
    )
    refined.check_disjoint()
    return refined


# ---------------------------------------------------------------------------
# Band-space fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyTag:
    """Per-axis derivation order of the wavelet family carried by a
    BandedField; order 0 is the base Shannon family."""

    nu: tuple

    @staticmethod
    def neutral(dim: int) -> "FamilyTag":
        return FamilyTag((0,) * dim)


@dataclass
class BandedField:
    """Per-band spectral restrictions of a field, plus the dc restriction."""

    partition: Partition
    components: int
    band_coeffs: dict  # band id -> complex array (m, *sub-box shape)
    dc_coeffs: np.ndarray  # (m, n_dc)
    family: FamilyTag

    def band_energy(self, band_id) -> float:
        return float(np.sum(np.abs(self.band_coeffs[band_id]) ** 2))

    def dc_energy(self) -> float:
        return float(np.sum(np.abs(self.dc_coeffs) ** 2))

    def total_energy(self) -> float:
        return self.dc_energy() + sum(
            self.band_energy(bid) for bid in self.band_coeffs
        )


def analyze(spec: SpectralField, part: Partition) -> BandedField:
    """Split a spectrum into its band restrictions (lossless copy)."""
    if spec.grid != part.grid:
        raise StructuralError("field and partition grids differ")
    coeffs = {}
    for b in part.bands:
        coeffs[b.id] = spec.modes[(slice(None),) + b.selector()].copy()
    dc = spec.flat()[:, part.dc_indices].copy()
    return BandedField(
        part, spec.components, coeffs, dc, FamilyTag.neutral(part.grid.dim)
    )


def _family_factor(nu: int, k: np.ndarray, scale: float) -> np.ndarray:
    # Spectral weight of a family derived nu times: synthesis with family
    # order nu-1 equals i*k times synthesis with order nu once coefficients
    # are scaled by 4*scale, hence the closed form below.
    return ((4.0 * scale) / (1j * k)) ** nu


def synthesize(banded: BandedField) -> SpectralField:
    """Scatter band restrictions back into a full spectrum.

    For a non-neutral family tag each band coefficient is multiplied by the
    exact per-mode family factor; the neutral tag makes this the inverse of
    ``analyze`` down to the bit.
    """
    part = banded.partition
    claimed = sum(b.nmodes for b in part.bands) + len(part.dc_indices)
    if claimed != part.grid.npoints:
        raise PartitionConsistencyError("corrupted partition")
    out = np.zeros((banded.components,) + part.grid.sizes, dtype=complex)
    nu = banded.family.nu
    for b in part.bands:
        block = banded.band_coeffs[b.id]
        for axis, order in enumerate(nu):
            if order == 0:
                continue
            k = b.axis_wavevectors(axis).astype(float)
            factor = _family_factor(order, k, b.axis_scale(axis))
            shape = [1] * (part.grid.dim + 1)
            shape[axis + 1] = len(k)
            block = block * factor.reshape(shape)
        out[(slice(None),) + b.selector()] = block
    out.reshape(banded.components, -1)[:, part.dc_indices] = banded.dc_coeffs
    return SpectralField(part.grid, out)


def _require_tensorial(part: Partition, op: str) -> None:
    if part.base_scheme != "tensorial":
        raise UnsupportedSchemeError(f"{op} needs a tensorial partition")


def apply_lemarie_derivative(banded: BandedField, axis: int) -> BandedField:
    """Differentiate along ``axis`` (1-based) by coefficient scaling.

    Band coefficients are multiplied by 4 times the band's dyadic scale on
    that axis and the family order drops by one; synthesis of the result
    equals i*k_axis times synthesis of the input exactly.  The dc modes are
    multiplied by i*k_axis directly (zero on the Nyquist plane).
    """
    part = banded.partition
    _require_tensorial(part, "derivation")
    if not 1 <= axis <= part.grid.dim:
        raise ArityError(f"axis {axis} out of range for dimension {part.grid.dim}")
    ax = axis - 1
    coeffs = {
        b.id: banded.band_coeffs[b.id] * (4.0 * b.axis_scale(ax))
        for b in part.bands
    }
    ix = np.unravel_index(part.dc_indices, part.grid.sizes)[ax]
    dc = banded.dc_coeffs * (1j * effective_axis_wavevectors(part.grid, ax)[ix])
    nu = tuple(
        order - 1 if i == ax else order for i, order in enumerate(banded.family.nu)
    )
    return BandedField(part, banded.components, coeffs, dc, FamilyTag(nu))


def apply_lemarie_integral(banded: BandedField, axis: int) -> BandedField:
    """Inverse of the derivative map: divide band coefficients by 4 times
    the axis scale and raise the family order by one.

    On dc modes this is the pseudo-inverse of multiplication by i*k_axis:
    modes with zero (or Nyquist) component on the axis have no periodic
    antiderivative and are set to zero.
    """
    part = banded.partition
    _require_tensorial(part, "integration")
    if not 1 <= axis <= part.grid.dim:
        raise ArityError(f"axis {axis} out of range for dimension {part.grid.dim}")
    ax = axis - 1
    coeffs = {
        b.id: banded.band_coeffs[b.id] / (4.0 * b.axis_scale(ax))
        for b in part.bands
    }
    ix = np.unravel_index(part.dc_indices, part.grid.sizes)[ax]
    k = effective_axis_wavevectors(part.grid, ax)[ix]
    inv = np.where(k == 0, 0.0, 1.0 / (1j * np.where(k == 0, 1.0, k)))
    dc = banded.dc_coeffs * inv
    nu = tuple(
        order + 1 if i == ax else order for i, order in enumerate(banded.family.nu)
    )
    return BandedField(part, banded.components, coeffs, dc, FamilyTag(nu))


def dump_partition(part: Partition) -> str:
    """Deterministic text dump: one line per band, lexicographic id order."""
    lines = []
    for b in part.bands:
        ident = repr(b.id).replace(" ", "")
        box = " ".join(f"{_fmt_num(lo)},{_fmt_num(hi)}" for lo, hi in b.box)
        lines.append(f"band {ident} box {box} modes {b.nmodes}")
    lines.append(f"dc modes {len(part.dc_indices)}")
    if part.dropped_empty:
        lines.append(f"dropped {part.dropped_empty}")
    return "\n".join(lines) + "\n"
