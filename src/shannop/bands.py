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

A partition is arrays that its builder writes once: the sorted band ids,
their box edges, their mode counts on the grid (``Partition.offsets``) and
the band-major layout of their modes on the half grid of a real field's
spectrum (``Partition.half``), which solvers, half-form analysis and the
certificates read.  Every band holds both signs of each axis interval, so
it keeps, on the half grid, the modes whose reflections it leaves out.
The full-grid layout (``Partition.perm``), which full-form analysis and
``check_disjoint`` read, is written by the same writer only on request.
``FrequencyBand`` objects are built from the arrays only on request.
Band projection is one gather into a layout and synthesis one scatter out
of it.  Both are zero-phase: a band restriction simply copies mode
coefficients, so synthesize(analyze(s)) == s bit for bit.
Synthesis of a derived family multiplies each band coefficient by an exact
per-mode spectral factor, making differentiation by coefficient scaling an
identity in exact arithmetic.
"""

from __future__ import annotations

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


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _strides(sizes) -> list:
    """Row-major strides, in elements, of a grid of the given sizes."""
    return [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]


def _axis_block(pieces, stride: int, dtype=np.int32):
    """One axis of a parent band, for ``_write_layout``: its m index pieces
    as an (m, q) block of offsets ix * stride, in the dtype of the layout
    it goes into, row r piece r padded to the longest length q; the (m, q)
    mask of the entries that are not padding, or None where no piece is
    short; and the number of entries, the sum of the piece lengths."""
    lengths = np.array([len(ix) for ix in pieces])
    q = int(lengths.max())
    block = np.zeros((len(pieces), q), dtype=dtype)
    for row, ix in zip(block, pieces):
        row[: len(ix)] = ix
    block *= stride
    inside = None if (lengths == q).all() else np.arange(q) < lengths[:, None]
    return block, inside, int(lengths.sum())


def _write_layout(parents, out: np.ndarray) -> int:
    """Write, parent after parent, the row-major grid positions of each
    parent band's sub-boxes into the 1-D ``out``; return how many.

    A parent is one ``_axis_block`` per axis, and its sub-boxes are the
    Cartesian products of one piece per axis, in ``itertools.product``
    order, each in row-major order.  Axis i's (m_i, q_i) block broadcast
    over axes i and d + i of an (m_0, ..., m_{d-1}, q_0, ..., q_{d-1})
    array adds up to the positions in exactly that order.  The blocks of
    the axes after the first add up to a small array first, which runs
    along the last d - 1 axes as contiguously as the output does, so a
    parent takes one pass with long inner loops, straight into ``out``
    unless some piece is short; then a mask leaves the padding out."""
    pos = 0
    for axes in parents:
        d = len(axes)
        shape = [blk.shape[j] for j in (0, 1) for blk, _, _ in axes]
        n = math.prod(count for _, _, count in axes)
        ragged = any(inside is not None for _, inside, _ in axes)
        if ragged:
            box = np.empty(shape, out.dtype)
        else:
            box = out[pos : pos + n].reshape(shape)
        mask, tail = True, 0
        for i in reversed(range(d)):
            block, inside, _ = axes[i]
            where = [1] * (2 * d)
            where[i], where[d + i] = block.shape
            if i:
                tail = tail + block.reshape(where)
            else:
                np.add(block.reshape(where), tail, out=box)
            if inside is not None:
                mask = mask & inside.reshape(where)
        if ragged:
            out[pos : pos + n] = box[np.broadcast_to(mask, shape)]
        pos += n
    return pos


_BLOCK = 8192  # values per block of a band-major layout (layout_blocks)


def layout_blocks(offsets, width: int = 1):
    """Positions ``offsets[0]`` to ``offsets[-1]`` of a band-major layout
    (band i from ``offsets[i]``, none empty) in blocks of at most
    ``_BLOCK // width`` (at least one), for ``width`` values per position,
    as (slice, first, last, counts): the bands first to last - 1 the block
    meets and how many of its positions each holds."""
    offsets = np.asarray(offsets)
    lo, end = int(offsets[0]), int(offsets[-1])
    size = max(_BLOCK // width, 1)
    while lo < end:
        hi = min(lo + size, end)
        first = int(offsets.searchsorted(lo, "right")) - 1
        last = int(offsets.searchsorted(hi))
        # Only the end bands stick out of [lo, hi).
        edges = offsets[first : last + 1].copy()
        edges[0], edges[-1] = lo, hi
        yield slice(lo, hi), first, last, edges[1:] - edges[:-1]
        lo = hi


def _marked(positions: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of the n grid modes that ``positions`` lists."""
    mask = np.zeros(n, dtype=bool)
    mask[positions] = True
    return mask


def _layout_buffer(grid: GridSpec, sizes: tuple) -> np.ndarray:
    """An int32 layout of every position of ``sizes``, ``grid``'s sizes or
    its half grid's, refused before it is allocated if int32 cannot index
    it."""
    n = math.prod(sizes)
    if n > np.iinfo(np.int32).max:
        where = "modes" if sizes == grid.sizes else "half-grid positions"
        raise StructuralError(
            f"grid {grid.sizes} has {n} {where}, more than an int32 band "
            f"layout can index"
        )
    return np.empty(n, dtype=np.int32)


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

    def axis_wavevectors(self, axis: int) -> np.ndarray:
        """Integer wavevectors of the band's positions along ``axis``."""
        ix = self.axis_indices[axis]
        n = self.grid.sizes[axis]
        return np.where(ix < n // 2, ix, ix - n)

    def flat_indices(self) -> np.ndarray:
        """Row-major positions of the band's modes in the flattened grid."""
        out = np.empty(self.nmodes, dtype=np.intp)
        pairs = zip(self.axis_indices, _strides(self.grid.sizes))
        _write_layout([[_axis_block([ix], s, out.dtype) for ix, s in pairs]], out)
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


def _axis_count(lo: float, hi: float, n: int) -> int:
    """How many positions of an n-point axis have a magnitude in [lo, hi):
    wavevectors 0 to n/2 - 1 and -1 to -n/2, each an integer range."""
    a, b = math.ceil(lo), math.ceil(hi)
    return max(min(b, n // 2) - max(a, 0), 0) + max(min(b, n // 2 + 1) - max(a, 1), 0)


def _distinct_intervals(edges: np.ndarray):
    """Per axis of (nbands, d, 2) box ``edges``: its distinct (lo, hi)
    intervals as float pairs, and each band's number among them."""
    for lo, hi in edges.transpose(1, 2, 0):
        # Each (lo, hi) as one complex number, which np.unique can group.
        pairs, at = np.unique(lo + 1j * hi, return_inverse=True)
        yield [(z.real, z.imag) for z in pairs.tolist()], at


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


@dataclass(frozen=True)
class _HalfLayout:
    """A partition's band-major layout on the half grid
    (``GridSpec.half_sizes``): ``perm`` lists half-grid positions, band
    i's modes with last-axis index <= N_last/2 in row-major sub-box order
    at ``perm[offsets[i]:offsets[i + 1]]``, then the dc set's from
    ``offsets[-1]``, ascending.  ``sc`` lists, ascending, the layout
    positions of self-conjugate modes (last-axis index 0 or N_last/2).
    """

    perm: np.ndarray
    offsets: np.ndarray
    sc: np.ndarray


@dataclass(eq=False)
class Partition:
    """A disjoint cover of all grid modes by bands plus a dc set, held as
    arrays that the builder writes once.

    ``ids`` lists the band ids in sorted order and ``edges`` (nbands, d, 2)
    holds their boxes, (lo, hi) per axis.  Band i holds
    ``offsets[i + 1] - offsets[i]`` grid modes, and the dc set the rest.
    ``half`` is the band-major layout on the half grid, the one layout a
    partition stores.  The full-grid layout, ``perm``, is written on each
    access.  ``FrequencyBand`` objects are built only on request
    (``band``, ``bands``).
    """

    grid: GridSpec
    base_scheme: str  # "tensorial" | "mra"
    packet_depth: int
    ids: list = field(repr=False)
    edges: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    half: _HalfLayout = field(repr=False)
    dropped_empty: int = 0
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._index = dict(zip(self.ids, range(len(self.ids))))

    @property
    def perm(self) -> np.ndarray:
        """The full-grid band-major layout, written anew by ``_subdivide``
        on each access: the flat grid positions of the band modes, band by
        band and each band in row-major sub-box order, band i at
        ``perm[offsets[i]:offsets[i + 1]]``, then the dc set's, ascending.
        It is the builder's layout for the grid, scheme and depth."""
        grid = self.grid
        return _subdivide(grid, self.base_scheme, self.packet_depth, grid.sizes)[3]

    @property
    def dc_indices(self) -> np.ndarray:
        """Flat grid positions of the dc set, ascending: those of the half
        layout's dc set and, off the half grid, their reflections."""
        half, sizes = self.half, self.grid.sizes
        ix = np.unravel_index(half.perm[half.offsets[-1] :], self.grid.half_sizes)
        # A last-axis index 0 or N_last/2 reflects onto the half grid.
        off = ix[-1] % (sizes[-1] // 2) != 0
        mirror = [-i[off] % n for i, n in zip(ix, sizes)]
        pos = np.concatenate(
            [np.ravel_multi_index(ix, sizes), np.ravel_multi_index(mirror, sizes)]
        )
        pos.sort()
        return pos

    @property
    def bands(self) -> list:
        """Every band as a ``FrequencyBand``, in ``ids`` order, built anew on
        each access."""
        return self._bands(range(len(self.ids)))

    def band(self, band_id) -> FrequencyBand:
        return self._bands([self._index[band_id]])[0]

    def _bands(self, rows) -> list:
        """The bands ``rows`` as ``FrequencyBand``s, each distinct (axis, lo,
        hi) interval resolved once per call to one read-only index array."""
        boxes, indices = [], []  # per axis, each band's interval and indices
        for i, (pairs, at) in enumerate(_distinct_intervals(self.edges[rows])):
            mag = np.abs(self.grid.axis_wavevectors(i))
            table = []
            for lo, hi in pairs:
                table.append(np.flatnonzero((mag >= lo) & (mag < hi)))
                table[-1].flags.writeable = False
            at = at.tolist()
            boxes.append(map(pairs.__getitem__, at))
            indices.append(map(table.__getitem__, at))
        return [
            FrequencyBand(self.grid, self.ids[r], box, idx)
            for r, box, idx in zip(rows, zip(*boxes), zip(*indices))
        ]

    def segment(self, band_id) -> slice:
        """Positions of the band's modes in ``perm``."""
        i = self._index[band_id]
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def check_disjoint(self) -> None:
        """Exact set check of both layouts, the stored half layout on the
        half grid and the full one, written here, on the grid: every
        position claimed by exactly one band or dc.

        A layout that lists each position of its grid once passes.  Else
        each band and the dc set claim their positions as sets, so a band
        listing a position twice leaves a gap rather than an overlap.
        """
        grid = self.grid
        for sizes, perm, offsets in [
            (grid.half_sizes, self.half.perm, self.half.offsets),
            (grid.sizes, self.perm, self.offsets),
        ]:
            n = math.prod(sizes)
            if len(perm) == n and _marked(perm, n).all():
                continue
            counts = np.zeros(n, dtype=np.int32)
            bounds = offsets.tolist() + [len(perm)]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                counts[perm[lo:hi]] += 1
            if counts.max() > 1:
                raise PartitionConsistencyError("bands overlap")
            if counts.min() < 1:
                raise PartitionConsistencyError("bands and dc do not cover the grid")


def _base_boxes(grid: GridSpec, scheme: str) -> list:
    """(id, box) of the scheme's base bands, in sorted id order."""
    if scheme == "tensorial":
        level_counts = [int(math.log2(n)) - 1 for n in grid.sizes]
        return [  # np.ndindex order is sorted order
            (j, tuple((float(2**ji), float(2 ** (ji + 1))) for ji in j))
            for j in np.ndindex(*level_counts)
        ]
    levels = int(math.log2(grid.sizes[0])) - 1
    return [  # sorted (level, type) order
        ((j, eps), tuple(
            (float(2**j), float(2 ** (j + 1))) if e else (0.0, float(2**j))
            for e in eps
        ))
        for j in range(levels)
        for eps in np.ndindex(*([2] * grid.dim))
        if any(eps)
    ]


# A base interval [lo, hi) has hi - lo = 2^j and edges below 2^(j+1), so
# its edges at packet depth D need D + 1 significant bits: float64 holds
# them exactly up to D = 52.
_MAX_PACKET_DEPTH = 52


def _packet_depth(depth: int, start: int = 0) -> int:
    """The packet depth ``start + depth`` of ``depth`` more levels, refused
    if ``depth`` is negative or the total is above ``_MAX_PACKET_DEPTH``."""
    if depth < 0:
        raise StructuralError("packet depth must be nonnegative")
    if start + depth > _MAX_PACKET_DEPTH:
        raise StructuralError(
            f"packet depth {start + depth} is above "
            f"{_MAX_PACKET_DEPTH}: finer box edges are not exact in float64"
        )
    return start + depth


def _axis_pieces(mag: np.ndarray, lo: float, hi: float, splits: int):
    """The non-empty pieces of [lo, hi) cut into ``splits`` equal parts, for
    the axis positions whose magnitudes ``mag`` lie in it: their piece
    numbers, their (m, 2) intervals and their index arrays, in piece order,
    each ascending.

    Widths are dyadic, so each piece number floor((|k| - lo) / width) and
    each interval edge is exact; a stable sort groups the indices by piece.
    """
    ix = np.flatnonzero((mag >= lo) & (mag < hi))
    if splits == 1:
        return np.zeros(1, dtype=int), np.array([[lo, hi]]), [ix]
    width = (hi - lo) / splits
    piece = np.floor((mag[ix] - lo) / width)
    order = np.argsort(piece, kind="stable")
    piece, ix = piece[order], ix[order]
    starts = np.flatnonzero(np.diff(piece, prepend=-1.0))
    s = piece[starts]
    intervals = np.stack([lo + s * width, lo + (s + 1) * width], axis=1)
    return s.astype(int), intervals, np.split(ix, starts[1:])


def _subdivide(grid: GridSpec, scheme: str, depth: int, sizes: tuple):
    """The scheme's base bands, each cut into 2^depth equal parts per axis,
    and their band-major layout on ``sizes``, the grid's or its half
    grid's, with every position no band holds in dc: the one writer of
    every layout.

    A band's sub-bands are the Cartesian products of its axes' non-empty
    pieces (at depth 0 the whole intervals, and the band keeps its base
    id; deeper, a sub-band's id is (base id, per-axis piece numbers)), so a
    sub-box with an empty axis is left out.  A base band's sub-bands take
    one ``_write_layout`` pass, with the strides of ``sizes`` and the
    last-axis indices below ``sizes[-1]``; the edges and mode counts of all
    sub-bands are gathered at once from the pieces' intervals and lengths,
    in the same order.  Base bands come in sorted id order, so the
    sub-bands do too.  On the half grid a piece keeps its indices
    <= N_last/2, never none, since it holds both signs of its magnitudes.
    Interval indices are unique, so an overlap leaves more band and dc
    positions than grid positions, which the position count rejects.

    Returns the ids, the edges, the bands' offsets by their mode counts on
    the grid, the layout, its band offsets and the number of empty
    sub-boxes left out, 2^(depth d) per base band less the bands.
    """
    perm = _layout_buffer(grid, sizes)
    splits = 2**depth
    d = grid.dim
    mags = [np.abs(grid.axis_wavevectors(i)) for i in range(d)]
    strides = _strides(sizes)
    boxes = _base_boxes(grid, scheme)
    # A band's axis indices are all those with magnitude in its interval,
    # so bands sharing an (axis, lo, hi) share its pieces and their block.
    table = {}  # (axis, lo, hi) -> entry number
    numbers, intervals, lengths, blocks = [], [], [], []  # per entry
    entries = []  # per base band, its axes' entry numbers
    for _, box in boxes:
        row = []
        for i, (lo, hi) in enumerate(box):
            e = table.get((i, lo, hi))
            if e is None:
                s, edge, pieces = _axis_pieces(mags[i], lo, hi, splits)
                full = [len(ix) for ix in pieces]
                if i == d - 1:
                    pieces = [ix[ix < sizes[-1]] for ix in pieces]
                e = table[i, lo, hi] = len(numbers)
                numbers.append(s)
                intervals.append(edge)
                # The pieces' lengths on the grid and on ``sizes``, (2, m).
                lengths.append([full, [len(ix) for ix in pieces]])
                blocks.append(_axis_block(pieces, strides[i]))
            row.append(e)
        entries.append(row)
    parents = [[blocks[e] for e in row] for row in entries]
    # Sub-band t of a base band is the t-th of the Cartesian product of its
    # axes' pieces, the last axis fastest: the digits of t in the mixed
    # radix of the piece counts pick each axis's piece out of the entries,
    # which are concatenated, entry e's pieces from first[e].
    entries = np.array(entries)
    m = np.array([len(s) for s in numbers])
    first = np.cumsum(m) - m
    numbers, intervals = np.concatenate(numbers), np.concatenate(intervals)
    lengths = np.concatenate(lengths, axis=1)
    radix = m[entries]
    nsub = np.prod(radix, axis=1)
    base = np.repeat(np.arange(len(boxes)), nsub)
    rest = np.arange(len(base)) - np.repeat(np.cumsum(nsub) - nsub, nsub)
    edges = np.empty((len(base), d, 2))
    counts = np.ones((2, len(base)), dtype=np.int64)
    digits = [None] * d
    for i in reversed(range(d)):
        rest, digit = np.divmod(rest, radix[base, i])
        at = first[entries[base, i]] + digit
        edges[:, i] = intervals[at]
        counts *= lengths[:, at]
        digits[i] = numbers[at].tolist()
    base_ids = [base_id for base_id, _ in boxes]
    if depth:  # a sub-band's id is (base id, its piece numbers)
        ids = list(zip(map(base_ids.__getitem__, base.tolist()), zip(*digits)))
    else:  # one piece per axis, the whole interval: the base bands
        ids = base_ids
    claimed = _write_layout(parents, perm)
    dc = np.flatnonzero(~_marked(perm[:claimed], len(perm)))
    if claimed + len(dc) != len(perm):
        raise PartitionConsistencyError(
            f"bands + dc cover {claimed + len(dc)} of {len(perm)} positions"
        )
    perm[claimed:] = dc
    offsets = np.zeros((2, len(ids) + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=offsets[:, 1:])
    dropped = 2 ** (depth * d) * len(boxes) - len(ids)
    return ids, edges, offsets[0], perm, offsets[1], dropped


def _self_conjugate(grid: GridSpec, edges: np.ndarray, perm, offsets) -> np.ndarray:
    """Ascending positions in the half layout ``perm`` (band offsets
    ``offsets``) of its self-conjugate modes, last-axis index 0 or
    N_last/2.  No band holds the Nyquist magnitude, so a band holds them
    only if its last-axis interval [0, hi) starts at 0.  Its last-axis
    indices are then 0 to L - 1, L = ceil(hi), so they are every L-th
    position from its start.  The dc set's are read off its positions."""
    h = grid.half_sizes[-1]
    nb = offsets[-1]
    last = perm[nb:] % h
    dc = np.flatnonzero((last == 0) | (last == h - 1)) + nb
    band = [
        np.arange(offsets[i], offsets[i + 1], math.ceil(edges[i, -1, 1]))
        for i in np.flatnonzero(edges[:, -1, 0] == 0)
    ]
    return np.concatenate(band + [dc])


def _partition(grid: GridSpec, scheme: str, depth: int) -> Partition:
    """The partition ``_subdivide`` writes on the half grid."""
    ids, edges, offsets, perm, half_offsets, dropped = _subdivide(
        grid, scheme, depth, grid.half_sizes
    )
    sc = _self_conjugate(grid, edges, perm, half_offsets)
    half = _HalfLayout(perm, half_offsets, sc)
    return Partition(grid, scheme, depth, ids, edges, offsets, half, dropped)


def build_tensorial_partition(grid: GridSpec, packet_depth: int = 0) -> Partition:
    """Anisotropic splitting: per-axis dyadic octaves [2^j_i, 2^(j_i+1)),
    indexed by a level tuple j, each cut into 2^packet_depth equal parts
    per axis, written by one ``_subdivide`` call.  Axis magnitudes 0 and
    the Nyquist magnitude go to dc.  Empty sub-boxes are dropped, so
    ``dropped_empty`` is 2^(packet_depth d) per octave box less the bands,
    as ``refine_packet`` of the depth-0 partition gives."""
    return _partition(grid, "tensorial", _packet_depth(packet_depth))


def build_mra_partition(grid: GridSpec, packet_depth: int = 0) -> Partition:
    """Isotropic splitting indexed by (level, type), type a nonzero 0/1
    vector: type-0 axes span [0, 2^j), type-1 axes [2^j, 2^(j+1)); each
    box cut into 2^packet_depth equal parts per axis, written by one
    ``_subdivide`` call, with ``dropped_empty`` as for
    ``build_tensorial_partition``."""
    if len(set(grid.sizes)) != 1:
        raise UnsupportedSchemeError(
            f"MRA partitions need an isotropic grid, got sizes {grid.sizes}"
        )
    return _partition(grid, "mra", _packet_depth(packet_depth))


def refine_packet(part: Partition, depth: int) -> Partition:
    """Split every band interval into 2^depth equal parts per axis.

    The result is the partition ``_subdivide`` writes for ``part``'s grid
    and scheme at the total depth ``part.packet_depth + depth``, so
    refining by 1 twice yields the same bands as refining by 2 once.
    Sub-boxes with an empty axis hold no grid modes and are dropped:
    ``dropped_empty`` adds to ``part``'s the 2^(depth*d) sub-boxes of each
    band of ``part`` less the bands kept.
    Depth 0 returns the partition unchanged.
    """
    if depth == 0:
        return part
    total = _packet_depth(depth, part.packet_depth)
    grid = part.grid
    refined = _partition(grid, part.base_scheme, total)
    refined.dropped_empty = (
        part.dropped_empty + 2 ** (depth * grid.dim) * len(part.ids)
        - len(refined.ids)
    )
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


def gather_rows(flat: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``flat[:, perm]`` made row by row, so it is row-major.  ``np.take``
    copies its indices to intp, so it takes ``_BLOCK`` at a time; every
    layout position is in range, so ``mode="clip"`` only unbuffers it."""
    out = np.empty((len(flat), len(perm)), flat.dtype)
    for lo in range(0, len(perm), _BLOCK):
        ix = perm[lo : lo + _BLOCK]
        for row, src in zip(out, flat):
            np.take(src, ix, out=row[lo : lo + _BLOCK], mode="clip")
    return out


def scatter_rows(out: np.ndarray, perm: np.ndarray, values: np.ndarray) -> None:
    """``out[:, perm] = values`` row by row, each write along one row."""
    for row, src in zip(out, values):
        row[perm] = src


class _BandViews(Mapping):
    """Band id -> (m, *sub-box) view of a band-major coefficient array; in
    the half form the sub-box keeps the last-axis indices <= N_last/2."""

    def __init__(self, banded: "BandedField"):
        self.banded = banded

    def __getitem__(self, band_id) -> np.ndarray:
        part, coeffs = self.banded.partition, self.banded.coeffs
        _, offsets, _ = self.banded._layout()
        i = part._index[band_id]
        # The leading axes are whole in either form; the last takes the rest.
        lead = zip(part.edges[i, :-1].tolist(), part.grid.sizes)
        shape = [len(coeffs)] + [_axis_count(lo, hi, n) for (lo, hi), n in lead]
        return coeffs[:, offsets[i] : offsets[i + 1]].reshape(shape + [-1])

    def __iter__(self):
        return iter(self.banded.partition.ids)

    def __len__(self) -> int:
        return len(self.banded.partition.ids)


@dataclass
class BandedField:
    """A field's modes in its partition's band-major layout.

    In the full form column j of ``coeffs`` is grid mode ``perm[j]``, the
    full-grid layout ``analyze`` read, which the field keeps.  In the half
    form (``perm`` None), which ``analyze`` makes from the half spectrum of
    a real field, column j is half-grid position ``partition.half.perm[j]``:
    each band keeps the modes of its sub-box whose last-axis index is
    <= N_last/2, in the same order, and the modes it leaves out are the
    conjugates of their reflections, which the band also holds, since it
    holds both signs of each axis interval.  Energies are those of the full
    spectrum in either form.
    """

    partition: Partition
    coeffs: np.ndarray  # (m, columns of the layout)
    family: FamilyTag
    perm: np.ndarray | None = None

    def _layout(self):
        """(perm, offsets, grid shape) of the layout the columns follow."""
        part = self.partition
        if self.perm is None:
            return part.half.perm, part.half.offsets, part.grid.half_sizes
        return self.perm, part.offsets, part.grid.sizes

    @property
    def components(self) -> int:
        return len(self.coeffs)

    @property
    def band_coeffs(self) -> Mapping:
        """Band id -> the band's (m, *sub-box) coefficients, as views."""
        return _BandViews(self)

    @property
    def dc_coeffs(self) -> np.ndarray:
        _, offsets, _ = self._layout()
        return self.coeffs[:, offsets[-1] :]

    def _squares(self, lo: int, hi: int) -> np.ndarray:
        """|x|^2 of columns lo to hi - 1, each times the number of modes it
        stands for: 1 in the full form; in the half form 2, for the mode and
        its reflection, and 1 at self-conjugate positions.  The weights are
        exact scalings."""
        sq = np.abs(self.coeffs[:, lo:hi]) ** 2
        if self.perm is None:
            sc = self.partition.half.sc
            sq *= 2.0
            sq[:, sc[sc.searchsorted(lo) : sc.searchsorted(hi)] - lo] *= 0.5
        return sq

    def band_energy(self, band_id) -> float:
        _, offsets, _ = self._layout()
        i = self.partition._index[band_id]
        return float(np.add.reduce(self._squares(offsets[i], offsets[i + 1]).ravel()))

    def dc_energy(self) -> float:
        _, offsets, _ = self._layout()
        hi = self.coeffs.shape[1]
        return float(np.add.reduce(self._squares(offsets[-1], hi).ravel()))

    def total_energy(self) -> float:
        # One pairwise sum per band in band_energy's order, so the total
        # agrees with theirs bit for bit: k consecutive bands of one length
        # n, at most a block at a time, are the rows of a C-contiguous
        # (k, m n) array, each row a band's raveled squares, reduced along
        # axis 1.
        _, offsets, _ = self._layout()
        m = len(self.coeffs)
        lengths = np.diff(offsets)
        energies = np.empty(len(lengths))
        starts = np.flatnonzero(np.diff(lengths, prepend=-1)).tolist()
        for first, end in zip(starts, starts[1:] + [len(lengths)]):
            n = int(lengths[first])
            step = max(_BLOCK // (m * n), 1)
            for lo in range(first, end, step):
                k = min(step, end - lo)
                sq = self._squares(offsets[lo], offsets[lo + k]).reshape(m, k, n)
                sq = np.ascontiguousarray(sq.transpose(1, 0, 2)).reshape(k, -1)
                energies[lo : lo + k] = np.add.reduce(sq, axis=1)
        return self.dc_energy() + sum(energies.tolist())


def analyze(spec, part: Partition) -> BandedField:
    """Gather a spectrum into its partition's band-major layout (lossless).

    A ``SpectralField`` gives the full form, on the full-grid layout,
    which is written here.  The half spectrum of a real field, an array of
    shape (m, *grid.half_sizes) as ``forward_half_transform`` returns it,
    gives the half form, on the partition's half layout.
    """
    grid = part.grid
    if isinstance(spec, SpectralField):
        if spec.grid != grid:
            raise StructuralError("field and partition grids differ")
        perm = part.perm
        coeffs = gather_rows(spec.flat(), perm)
    else:
        if spec.shape[1:] != grid.half_sizes:
            raise StructuralError(
                f"half spectrum of shape {spec.shape} does not match grid "
                f"{grid.sizes}"
            )
        perm = None
        coeffs = gather_rows(spec.reshape(len(spec), -1), part.half.perm)
    return BandedField(part, coeffs, FamilyTag.neutral(grid.dim), perm)


def _family_factor(nu: int, k: np.ndarray, scale: float) -> np.ndarray:
    # Spectral weight of a family derived nu times: synthesis with family
    # order nu-1 equals i*k times synthesis with order nu once coefficients
    # are scaled by 4*scale, hence the closed form below.
    return ((4.0 * scale) / (1j * k)) ** nu


def synthesize(banded: BandedField):
    """Scatter band-major coefficients back into a spectrum: a
    ``SpectralField`` from the full form, and from the half form the half
    spectrum, an array of shape (m, *grid.half_sizes) that
    ``inverse_half_transform`` takes.

    For a non-neutral family tag each band coefficient is multiplied by the
    exact per-mode family factor; the neutral tag makes this the inverse of
    ``analyze`` down to the bit.
    """
    part = banded.partition
    perm, offsets, shape = banded._layout()
    coeffs = banded.coeffs
    if any(banded.family.nu):
        nb = offsets[-1]
        coeffs = coeffs.copy()
        K = part.grid.wavevectors(perm[:nb], half=banded.perm is None)
        for axis, order in enumerate(banded.family.nu):
            if order:
                scale = np.repeat(_axis_scales(part, axis), np.diff(offsets))
                coeffs[:, :nb] *= _family_factor(order, K[axis], scale)
    out = np.empty_like(coeffs)
    scatter_rows(out, perm, coeffs)  # perm lists every grid position once
    out = out.reshape((len(coeffs),) + shape)
    return out if banded.perm is None else SpectralField(part.grid, out)


def _axis_scales(part: Partition, axis: int) -> np.ndarray:
    """``FrequencyBand.axis_scale`` of every band on ``axis`` (0-based)."""
    lo = part.edges[:, axis, 0]
    if np.any(lo <= 0):
        raise StructuralError("axis touches zero frequency; no dyadic scale")
    return 2.0 ** np.floor(np.log2(lo))


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
    perm, offsets, shape = banded._layout()
    scale = np.repeat(4.0 * _axis_scales(part, ax), np.diff(offsets))
    ix = np.unravel_index(perm[offsets[-1] :], shape)[ax]
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
    return BandedField(banded.partition, coeffs, family, banded.perm)


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
    return BandedField(banded.partition, coeffs, family, banded.perm)


def band_labels(ids) -> list:
    """Each band id as the dump, the rate table and the solve report write
    it: ``repr(band_id)`` without spaces.  A pair, such as a packet id
    (base id, piece numbers), is joined from its parts' labels, each
    distinct part formatted once per call; a builder's ids are made of
    ints, so equal parts have equal text."""
    text, labels = {}, []
    for band_id in ids:
        if type(band_id) is not tuple or len(band_id) != 2:
            labels.append(repr(band_id).replace(" ", ""))
            continue
        a, b = band_id
        sa = text.get(a)
        if sa is None:
            sa = text[a] = repr(a).replace(" ", "")
        sb = text.get(b)
        if sb is None:
            sb = text[b] = repr(b).replace(" ", "")
        labels.append(f"({sa},{sb})")
    return labels


def dump_partition(part: Partition) -> str:
    """Deterministic text dump: one line per band, lexicographic id order.
    Each distinct interval of an axis, base id and piece tuple is formatted
    once per call."""
    boxes = None
    for pairs, at in _distinct_intervals(part.edges):
        text = [f"{_fmt_num(lo)},{_fmt_num(hi)}" for lo, hi in pairs]
        text = np.array(text, dtype=object)[at]
        boxes = text if boxes is None else boxes + " " + text
    counts = np.diff(part.offsets).tolist()
    rows = zip(band_labels(part.ids), boxes.tolist(), counts)
    lines = [f"band {ident} box {box} modes {n}" for ident, box, n in rows]
    lines.append(f"dc modes {part.grid.npoints - int(part.offsets[-1])}")
    if part.dropped_empty:
        lines.append(f"dropped {part.dropped_empty}")
    return "\n".join(lines) + "\n"
