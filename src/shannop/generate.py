"""Deterministic test-field generators used by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .bands import build_tensorial_partition
from .errors import ArityError, StructuralError
from .grid import GridSpec, RealField, SpectralField, forward_transform, inverse_transform
from .solver import exact_leray, kappa_table


def random_field(grid: GridSpec, components: int = 1, seed: int = 0) -> RealField:
    rng = np.random.default_rng(seed)
    return RealField(grid, rng.standard_normal((components,) + grid.sizes))


def gradient_field(grid: GridSpec, seed: int = 0) -> RealField:
    """The gradient of a random scalar potential (pure curl-part field)."""
    p = forward_transform(random_field(grid, 1, seed)).flat()[0]
    kappa = kappa_table(grid).T
    out = 1j * kappa * p[None, :]
    return inverse_transform(
        SpectralField(grid, out.reshape((grid.dim,) + grid.sizes)), check=False
    )


def solenoidal_field(grid: GridSpec, seed: int = 0) -> RealField:
    """Divergence-free projection of random vector noise."""
    udiv, _ = exact_leray(random_field(grid, grid.dim, seed))
    return udiv


def corner_mode_field(grid: GridSpec, components: int = 1) -> RealField:
    """Unit energy at the extremal modes of the highest tensorial band.

    Places real coefficients at the band's minimal and maximal wavevectors
    (and their reflections), which probes the worst-case contraction of a
    band-constant operator.
    """
    part = build_tensorial_partition(grid)
    band = part.band(part.ids[-1])
    lo_corner = [int(min(np.abs(band.axis_wavevectors(i)))) for i in range(grid.dim)]
    hi_corner = [int(max(np.abs(band.axis_wavevectors(i)))) for i in range(grid.dim)]
    modes = np.zeros((components,) + grid.sizes, dtype=complex)
    for corner in (lo_corner, hi_corner):
        for signs in ([1] * grid.dim, [-1] * grid.dim):
            pos = tuple((s * c) % n for s, c, n in zip(signs, corner, grid.sizes))
            modes[(slice(None),) + pos] = 1.0
    spec = SpectralField(grid, modes)
    norm = spec.l2_norm()
    spec.modes /= norm
    return inverse_transform(spec, check=False)


KINDS = ("random", "gradient", "solenoidal", "corner-mode")


def make_field(
    grid: GridSpec, kind: str, components: int, seed: int
) -> RealField:
    if components < 1:
        raise StructuralError(f"components must be at least 1, got {components}")
    if seed < 0:
        raise StructuralError(f"seed must be a nonnegative integer, got {seed}")
    if kind == "random":
        return random_field(grid, components, seed)
    if kind == "gradient":
        if components != grid.dim:
            raise ArityError("gradient fields have one component per axis")
        return gradient_field(grid, seed)
    if kind == "solenoidal":
        if components != grid.dim:
            raise ArityError("solenoidal fields have one component per axis")
        return solenoidal_field(grid, seed)
    if kind == "corner-mode":
        return corner_mode_field(grid, components)
    raise ArityError(f"unknown field kind {kind!r}")
