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

Each partition lays its modes out once, band-major (``Partition.perm``):
band projection is one gather into that layout and synthesis one scatter
out of it.  Both are zero-phase: a band restriction simply copies mode
coefficients, so synthesize(analyze(s)) == s bit for bit.
Synthesis of a derived family multiplies each band coefficient by an exact
per-mode spectral factor, making differentiation by coefficient scaling an
identity in exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
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


def _write_flat_indices(bands, out: np.ndarray) -> int:
    """Write the bands' row-major grid positions into the 1-D ``out``, band
    after band, each in row-major sub-box order; return how many.

    Each position is the broadcast sum of per-axis offsets ix * stride,
    computed once per index array that bands share within the call."""
    sizes = bands[0].grid.sizes if bands else ()
    d = len(sizes)
    strides = [math.prod(sizes[i + 1 :]) for i in range(d)]
    offsets = {}  # (axis, id of a shared index array) -> shaped ix * stride
    pos = 0
    for b in bands:
        n = b.nmodes
        seg = out[pos : pos + n].reshape(b.shape)
        for i, ix in enumerate(b.axis_indices):
            key = (i, id(ix))
            if key not in offsets:
                offsets[key] = (ix * strides[i]).reshape((-1,) + (1,) * (d - 1 - i))
            if i == 0:
                seg[...] = offsets[key]
            else:
                seg += offsets[key]
        pos += n
    return pos


_BLOCK = 8192  # positions per block of a band-major layout


def layout_blocks(offsets, whole_bands: bool = False):
    """Positions ``offsets[0]`` to ``offsets[-1]`` of a band-major layout
    (band i from ``offsets[i]``, none empty) in blocks of at most
    ``_BLOCK``, as (slice, first, last, counts): the bands first to last - 1
    the block meets and how many of its positions each holds.  With
    ``whole_bands`` a block is a run of whole bands, or one long band."""
    offsets = np.asarray(offsets)
    lo, end = int(offsets[0]), int(offsets[-1])
    while lo < end:
        hi = min(lo + _BLOCK, end)
        first = int(np.searchsorted(offsets, lo, "right")) - 1
        last = int(np.searchsorted(offsets, hi))
        if whole_bands:  # lo is a band's start; end at a band's end
            last = max(first + 1, int(np.searchsorted(offsets, hi, "right")) - 1)
            hi = int(offsets[last])
        counts = np.diff(np.clip(offsets[first : last + 1], lo, hi))
        yield slice(lo, hi), first, last, counts
        lo = hi


def _marked(positions: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of the n grid modes that ``positions`` lists."""
    mask = np.zeros(n, dtype=bool)
    mask[positions] = True
    return mask


def _layout_buffer(grid: GridSpec) -> np.ndarray:
    if grid.npoints > np.iinfo(np.int32).max:
        raise StructuralError(
            f"grid {grid.sizes} has {grid.npoints} modes, more than an int32 "
            f"band layout can index"
        )
    return np.empty(grid.npoints, dtype=np.int32)


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
    def shape(self) -> tuple:
        """Sub-box shape: the number of band positions along each axis."""
        return tuple(map(len, self.axis_indices))

    @property
    def nmodes(self) -> int:
        return math.prod(self.shape)

    def sort_key(self) -> tuple:
        return _flatten(self.id)

    def axis_wavevectors(self, axis: int) -> np.ndarray:
        """Integer wavevectors of the band's positions along ``axis``."""
        ix = self.axis_indices[axis]
        n = self.grid.sizes[axis]
        return np.where(ix < n // 2, ix, ix - n)

    def mode_wavevectors(self) -> np.ndarray:
        """Materialize the band's modes as an (nmodes, d) integer array,
        rows in row-major sub-box order.  It is stored axis by axis, so
        each column is contiguous for the per-axis sums symbols take."""
        d = self.dim
        out = np.empty((d,) + self.shape, dtype=np.int64)
        for i in range(d):
            out[i] = self.axis_wavevectors(i).reshape((-1,) + (1,) * (d - 1 - i))
        return out.reshape(d, -1).T

    def flat_indices(self) -> np.ndarray:
        """Row-major positions of the band's modes in the flattened grid."""
        out = np.empty(self.nmodes, dtype=np.intp)
        _write_flat_indices([self], out)
        return out

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
    if mode_exact:
        mags = [np.abs(band.axis_wavevectors(i)) for i in range(band.dim)]
        per_axis = [(float(m.min()), float(m.max())) for m in mags]
    else:
        per_axis = [(float(lo), float(hi)) for lo, hi in band.box]
    a = math.sqrt(sum(lo * lo for lo, _ in per_axis))
    b = math.sqrt(sum(hi * hi for _, hi in per_axis))
    return a, b, per_axis


@dataclass(eq=False)
class Partition:
    """A disjoint cover of all grid modes by bands plus a dc set.

    ``perm`` is the band-major layout: the flat grid positions of the band
    modes, band by sorted id and each band in row-major sub-box order,
    then the dc set.  Band i occupies ``perm[offsets[i]:offsets[i + 1]]``
    and the dc set ``perm[offsets[-1]:]``.  A builder that already wrote
    the band part passes it in, with the bands in sorted order; otherwise
    the bands are sorted and it is written from them.
    """

    grid: GridSpec
    base_scheme: str  # "tensorial" | "mra"
    packet_depth: int
    bands: list
    dc_indices: np.ndarray
    dropped_empty: int = 0
    perm: np.ndarray | None = field(default=None, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.perm is None:
            self.bands = sorted(self.bands, key=FrequencyBand.sort_key)
        self._index = {b.id: i for i, b in enumerate(self.bands)}
        self.offsets = np.cumsum([0] + [b.nmodes for b in self.bands])
        claimed = int(self.offsets[-1])
        if claimed + len(self.dc_indices) != self.grid.npoints:
            raise PartitionConsistencyError(
                f"bands + dc cover {claimed + len(self.dc_indices)} of "
                f"{self.grid.npoints} modes"
            )
        if self.perm is None:
            self.perm = _layout_buffer(self.grid)
            _write_flat_indices(self.bands, self.perm)
        self.perm[claimed:] = self.dc_indices

    def band(self, band_id) -> FrequencyBand:
        return self.bands[self._index[band_id]]

    def segment(self, band_id) -> slice:
        """Positions of the band's modes in ``perm``."""
        i = self._index[band_id]
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def check_disjoint(self) -> None:
        """Exact set check: every mode claimed by exactly one band or dc.

        A layout of npoints positions that marks every grid mode lists
        each once and passes.  Else each band and the dc set claim their
        positions as sets, so a band listing a mode twice leaves a gap
        rather than an overlap.
        """
        n = self.grid.npoints
        if _marked(self.perm, n).all():
            return
        counts = np.zeros(n, dtype=np.int32)
        bounds = self.offsets.tolist() + [n]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            counts[self.perm[lo:hi]] += 1
        if counts.max() > 1:
            raise PartitionConsistencyError("bands overlap")
        if counts.min() < 1:
            raise PartitionConsistencyError("bands and dc do not cover the grid")


def _base_partition(grid: GridSpec, scheme: str, boxes) -> Partition:
    """Bands from (id, box) pairs; every mode no band holds goes to dc.

    Each distinct (axis, lo, hi) interval is resolved once per build, so
    bands sharing it share its index array, which is made read-only.  The
    band layout is written first and the dc set is what it leaves out.
    Interval indices are unique, so an overlap leaves more band and dc
    modes than grid modes, which the partition's mode count rejects.
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
    bands.sort(key=FrequencyBand.sort_key)
    perm = _layout_buffer(grid)
    claimed = _write_flat_indices(bands, perm)
    dc = np.flatnonzero(~_marked(perm[:claimed], grid.npoints))
    return Partition(grid, scheme, 0, bands, dc, perm=perm)


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


# A base interval [lo, hi) has hi - lo = 2^j and edges below 2^(j+1), so
# its edges at packet depth D need D + 1 significant bits: float64 holds
# them exactly up to D = 52.
_MAX_PACKET_DEPTH = 52


def _axis_pieces(mag: np.ndarray, ix: np.ndarray, lo: float, hi: float, splits: int):
    """The non-empty pieces of [lo, hi) cut into ``splits`` equal parts, for
    the axis indices ``ix`` with magnitudes ``mag[ix]`` in it: (piece
    number, interval, read-only indices) each, in piece order, the indices
    in their order in ``ix``.

    Widths are dyadic, so each piece number floor((|k| - lo) / width) is
    exact; a stable sort groups the indices by piece.
    """
    width = (hi - lo) / splits
    piece = np.floor((mag[ix] - lo) / width)
    order = np.argsort(piece, kind="stable")
    piece, ix = piece[order], ix[order]
    ix.flags.writeable = False
    starts = np.flatnonzero(np.diff(piece, prepend=-1.0))
    return [
        (s, (lo + s * width, lo + (s + 1) * width), sub_ix)
        for s, sub_ix in zip(
            piece[starts].astype(int).tolist(), np.split(ix, starts[1:])
        )
    ]


def refine_packet(part: Partition, depth: int) -> Partition:
    """Split every band interval into 2^depth equal parts per axis.

    Each band's per-axis index list is split into its non-empty pieces,
    found from each index's piece number rather than by visiting all 2^depth
    of them, and the sub-bands are the Cartesian products of those pieces.
    Sub-boxes with an empty axis hold no grid modes; they are dropped and
    counted in the result's ``dropped_empty``.  Depth 0 returns the
    partition unchanged.  Refining by 1 twice yields the same bands as
    refining by 2 once.
    """
    if depth < 0:
        raise StructuralError("packet depth must be nonnegative")
    if depth == 0:
        return part
    if part.packet_depth + depth > _MAX_PACKET_DEPTH:
        raise StructuralError(
            f"packet depth {part.packet_depth + depth} is above "
            f"{_MAX_PACKET_DEPTH}: finer box edges are not exact in float64"
        )
    splits = 2**depth
    mags = [np.abs(part.grid.axis_wavevectors(i)) for i in range(part.grid.dim)]
    # A band's axis indices are all those with magnitude in its interval,
    # so bands sharing an (axis, lo, hi) share its pieces.
    table = {}
    bands = []
    dropped = part.dropped_empty
    for b in part.bands:
        if part.packet_depth > 0:
            root_id, path = b.id
        else:
            root_id, path = b.id, (0,) * b.dim
        pieces = []  # per axis: the non-empty (path entry, interval, indices)
        for i, ((lo, hi), ix, p) in enumerate(zip(b.box, b.axis_indices, path)):
            if (i, lo, hi) not in table:
                table[i, lo, hi] = _axis_pieces(mags[i], ix, lo, hi, splits)
            pieces.append([(p * splits + s, sub, sub_ix)
                           for s, sub, sub_ix in table[i, lo, hi]])
        dropped += splits**b.dim - math.prod(len(kept) for kept in pieces)
        for combo in itertools.product(*pieces):
            new_path, box, idx = zip(*combo)
            bands.append(FrequencyBand(part.grid, (root_id, new_path), box, idx))
    if part.packet_depth > 0:
        # Sub-bands of different parents interleave in path order; refined
        # from a base partition they come out sorted already.
        bands.sort(key=FrequencyBand.sort_key)
    perm = _layout_buffer(part.grid)
    _write_flat_indices(bands, perm)
    refined = Partition(
        part.grid,
        part.base_scheme,
        part.packet_depth + depth,
        bands,
        part.dc_indices,
        dropped,
        perm=perm,
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


class _BandViews(Mapping):
    """Band id -> (m, *sub-box) view of a band-major coefficient array."""

    def __init__(self, partition: Partition, coeffs: np.ndarray):
        self.partition, self.coeffs = partition, coeffs

    def __getitem__(self, band_id) -> np.ndarray:
        shape = (len(self.coeffs),) + self.partition.band(band_id).shape
        return self.coeffs[:, self.partition.segment(band_id)].reshape(shape)

    def __iter__(self):
        return (b.id for b in self.partition.bands)

    def __len__(self) -> int:
        return len(self.partition.bands)


@dataclass
class BandedField:
    """A field's modes in its partition's band-major layout: column j of
    ``coeffs`` is grid mode ``partition.perm[j]``."""

    partition: Partition
    coeffs: np.ndarray  # (m, npoints)
    family: FamilyTag

    @property
    def components(self) -> int:
        return len(self.coeffs)

    @property
    def band_coeffs(self) -> Mapping:
        """Band id -> the band's (m, *sub-box) coefficients, as views."""
        return _BandViews(self.partition, self.coeffs)

    @property
    def dc_coeffs(self) -> np.ndarray:
        return self.coeffs[:, self.partition.offsets[-1] :]

    def band_energy(self, band_id) -> float:
        return float(np.sum(np.abs(self.band_coeffs[band_id]) ** 2))

    def dc_energy(self) -> float:
        return float(np.sum(np.abs(self.dc_coeffs) ** 2))

    def total_energy(self) -> float:
        # |x|^2 a block of whole bands at a time, and per band one pairwise
        # sum in band_energy's order, so totals agree bit for bit.
        energies = []
        blocks = layout_blocks(self.partition.offsets, whole_bands=True)
        for sl, _, _, counts in blocks:
            sq = np.abs(self.coeffs[:, sl]) ** 2
            ends = np.cumsum(counts).tolist()
            for lo, hi in zip([0] + ends, ends):
                energies.append(float(np.add.reduce(sq[:, lo:hi].ravel())))
        dc = float(np.add.reduce((np.abs(self.dc_coeffs) ** 2).ravel()))
        return dc + sum(energies)


def analyze(spec: SpectralField, part: Partition) -> BandedField:
    """Gather a spectrum into its partition's band-major layout (lossless)."""
    if spec.grid != part.grid:
        raise StructuralError("field and partition grids differ")
    # Indexing with int32 needs no intp copy of perm, but its result is
    # column-major when there are several components.
    coeffs = np.ascontiguousarray(spec.flat()[:, part.perm])
    return BandedField(part, coeffs, FamilyTag.neutral(part.grid.dim))


def _family_factor(nu: int, k: np.ndarray, scale: float) -> np.ndarray:
    # Spectral weight of a family derived nu times: synthesis with family
    # order nu-1 equals i*k times synthesis with order nu once coefficients
    # are scaled by 4*scale, hence the closed form below.
    return ((4.0 * scale) / (1j * k)) ** nu


def synthesize(banded: BandedField) -> SpectralField:
    """Scatter band-major coefficients back into a full spectrum.

    For a non-neutral family tag each band coefficient is multiplied by the
    exact per-mode family factor; the neutral tag makes this the inverse of
    ``analyze`` down to the bit.
    """
    part = banded.partition
    coeffs = banded.coeffs
    if any(banded.family.nu):
        coeffs = coeffs.copy()
        views = _BandViews(part, coeffs)
        for b in part.bands:
            block = views[b.id]
            for axis, order in enumerate(banded.family.nu):
                if order:
                    k = b.axis_wavevectors(axis).astype(float)
                    factor = _family_factor(order, k, b.axis_scale(axis))
                    block *= factor.reshape((-1,) + (1,) * (b.dim - 1 - axis))
    out = np.zeros_like(coeffs)
    out[:, part.perm] = coeffs
    return SpectralField(part.grid, out.reshape((len(coeffs),) + part.grid.sizes))


def _lemarie_setup(banded: BandedField, axis: int, op: str, step: int):
    """Validate a Lemarie map on ``axis`` (1-based); return the per-mode
    band factor 4 * axis scale, the effective dc wavevectors on the axis
    and the family tag with the axis order moved by ``step``."""
    part = banded.partition
    if part.base_scheme != "tensorial":
        raise UnsupportedSchemeError(f"{op} needs a tensorial partition")
    if not 1 <= axis <= part.grid.dim:
        raise ArityError(f"axis {axis} out of range for dimension {part.grid.dim}")
    ax = axis - 1
    scale = np.repeat(
        [4.0 * b.axis_scale(ax) for b in part.bands], np.diff(part.offsets)
    )
    ix = np.unravel_index(part.dc_indices, part.grid.sizes)[ax]
    nu = list(banded.family.nu)
    nu[ax] += step
    return scale, effective_axis_wavevectors(part.grid, ax)[ix], FamilyTag(tuple(nu))


def apply_lemarie_derivative(banded: BandedField, axis: int) -> BandedField:
    """Differentiate along ``axis`` (1-based) by coefficient scaling.

    Band coefficients are multiplied by 4 times the band's dyadic scale on
    that axis and the family order drops by one; synthesis of the result
    equals i*k_axis times synthesis of the input exactly.  The dc modes are
    multiplied by i*k_axis directly (zero on the Nyquist plane).
    """
    scale, k, family = _lemarie_setup(banded, axis, "derivation", -1)
    coeffs = banded.coeffs * np.concatenate([scale, 1j * k])
    return BandedField(banded.partition, coeffs, family)


def apply_lemarie_integral(banded: BandedField, axis: int) -> BandedField:
    """Inverse of the derivative map: divide band coefficients by 4 times
    the axis scale and raise the family order by one.

    On dc modes this is the pseudo-inverse of multiplication by i*k_axis:
    modes with zero (or Nyquist) component on the axis have no periodic
    antiderivative and are set to zero.
    """
    scale, k, family = _lemarie_setup(banded, axis, "integration", 1)
    nb = len(scale)
    coeffs = np.empty_like(banded.coeffs)
    np.divide(banded.coeffs[:, :nb], scale, out=coeffs[:, :nb])
    inv = np.where(k == 0, 0.0, 1.0 / (1j * np.where(k == 0, 1.0, k)))
    np.multiply(banded.coeffs[:, nb:], inv, out=coeffs[:, nb:])
    return BandedField(banded.partition, coeffs, family)


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
