"""Partition builders against a brute-force reference over random grids.

The reference enumerates every box and every packet sub-box, resolves each
axis interval on the whole axis from ``grid.axis_wavevectors`` and takes the
dc set as the complement of the bands' union.  The builders must reproduce
it exactly: band ids, boxes, order, per-axis index arrays, dc set and the
count of dropped empty sub-boxes.
"""

import itertools
import math
from operator import attrgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp


def flatten(obj):
    if isinstance(obj, tuple):
        return tuple(x for item in obj for x in flatten(item))
    return (obj,)


def resolve(grid, axis, lo, hi):
    mags = np.abs(grid.axis_wavevectors(axis))
    return np.flatnonzero((lo <= mags) & (mags < hi))


def reference(grid, scheme, depth):
    """(bands as (id, box, axis indices) in order, dc indices, dropped)."""
    d = grid.dim
    if scheme == "tensorial":
        levels = [range(int(math.log2(n)) - 1) for n in grid.sizes]
        roots = [
            (j, tuple((2.0**ji, 2.0 ** (ji + 1)) for ji in j))
            for j in itertools.product(*levels)
        ]
    else:
        roots = [
            ((j, eps), tuple(
                (2.0**j, 2.0 ** (j + 1)) if e else (0.0, 2.0**j) for e in eps
            ))
            for j in range(int(math.log2(grid.sizes[0])) - 1)
            for eps in itertools.product((0, 1), repeat=d)
            if any(eps)
        ]
    boxes, dropped = roots, 0
    if depth > 0:
        splits = 2**depth
        boxes = []
        for root_id, box in roots:
            for step in itertools.product(range(splits), repeat=d):
                sub = tuple(
                    (lo + s * ((hi - lo) / splits),
                     lo + (s + 1) * ((hi - lo) / splits))
                    for (lo, hi), s in zip(box, step)
                )
                if any(len(resolve(grid, i, lo, hi)) == 0
                       for i, (lo, hi) in enumerate(sub)):
                    dropped += 1
                else:
                    boxes.append(((root_id, step), sub))
    bands = [
        (band_id, box, [resolve(grid, i, lo, hi) for i, (lo, hi) in enumerate(box)])
        for band_id, box in sorted(boxes, key=lambda b: flatten(b[0]))
    ]
    claimed = np.zeros(grid.sizes, dtype=bool)
    for _, _, idx in bands:
        claimed[np.ix_(*idx)] = True
    return bands, np.flatnonzero(~claimed.ravel()), dropped


def build(grid, scheme, depth):
    if scheme == "mra":
        part = sp.build_mra_partition(grid)
    else:
        part = sp.build_tensorial_partition(grid)
    return sp.refine_packet(part, depth)


grids = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(*([st.integers(2, 6)] * dim))
)


@settings(max_examples=40, deadline=None)
@given(exps=grids, scheme=st.sampled_from(["tensorial", "mra"]),
       depth=st.integers(0, 2))
def test_builders_match_the_brute_force_reference(exps, scheme, depth):
    if scheme == "mra":
        exps = (exps[0],) * len(exps)  # MRA needs an isotropic grid
    grid = sp.GridSpec(tuple(2**e for e in exps))
    part = build(grid, scheme, depth)
    bands, dc, dropped = reference(grid, scheme, depth)
    assert [b.id for b in part.bands] == [band_id for band_id, _, _ in bands]
    assert [b.box for b in part.bands] == [box for _, box, _ in bands]
    for band, (_, _, idx) in zip(part.bands, bands):
        for i in range(grid.dim):
            assert np.array_equal(band.axis_indices[i], idx[i])
            assert band.axis_indices[i].dtype == idx[i].dtype
    assert np.array_equal(part.dc_indices, dc)
    assert part.dropped_empty == dropped


@settings(max_examples=25, deadline=None)
@given(exps=grids, scheme=st.sampled_from(["tensorial", "mra"]))
def test_refining_twice_by_one_equals_refining_by_two(exps, scheme):
    if scheme == "mra":
        exps = (exps[0],) * len(exps)
    base = build(sp.GridSpec(tuple(2**e for e in exps)), scheme, 0)
    d = base.grid.dim
    p1 = sp.refine_packet(base, 1)
    for k, once in [(1, sp.refine_packet(base, 2)), (2, sp.refine_packet(base, 3))]:
        chain = sp.refine_packet(p1, k)
        assert chain.packet_depth == once.packet_depth
        assert [b.id for b in chain.bands] == [b.id for b in once.bands]
        for a, b in zip(chain.bands, once.bands):
            assert all(np.array_equal(x, y)
                       for x, y in zip(a.axis_indices, b.axis_indices))
        # The full layout is written from the grid, scheme and depth alone;
        # the partition stores the half layout.
        for name in ("offsets", "edges", "dc_indices", "half.perm",
                     "half.offsets", "half.sc"):
            x, y = attrgetter(name)(chain), attrgetter(name)(once)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        # Each step drops the empty sub-boxes of the bands it refines.
        dropped = p1.dropped_empty + 2 ** (k * d) * len(p1.ids) - len(once.ids)
        assert chain.dropped_empty == dropped
