"""Periodic grids, sampled fields and their discrete Fourier representations.

The domain is fixed to [0, 2*pi)^d with power-of-two point counts, so the
wavevectors are the integers k_i in [-N_i/2, N_i/2) and a continuous
frequency maps to a grid mode with no scale factor.  Transforms use the
unitary convention (forward and inverse each carry (prod N)^(-1/2)), which
makes Parseval exact: the l2 norm of the samples equals the l2 norm of the
modes.

The Nyquist plane k_i = -N_i/2 is its own reflection, so applying a symbol
there uses the average of the symbol over the +-Nyquist sign choices.  For
even symbols this changes nothing; for odd ones (i*xi_i) it zeroes the
plane, which is the standard convention that keeps real fields real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ArityError, RealityViolationError, StructuralError
from .symbols import SingularModePolicy, SymbolExpr, eval_many


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """A periodic grid on [0, 2*pi)^d; every size a power of two >= 4."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not 1 <= len(sizes) <= 3:
            raise StructuralError(f"dimension must be 1 to 3, got {len(sizes)}")
        for n in sizes:
            if not _is_pow2(n) or n < 4:
                raise StructuralError(f"size {n} is not a power of two >= 4")

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @property
    def npoints(self) -> int:
        return math.prod(self.sizes)

    @property
    def half_sizes(self) -> tuple[int, ...]:
        """Shape of the half grid ``numpy.fft.rfftn`` returns: last-axis
        indices 0..N_last/2 only."""
        return self.sizes[:-1] + (self.sizes[-1] // 2 + 1,)

    def axis_wavevectors(self, axis: int) -> np.ndarray:
        """Integer wavevectors along ``axis`` in FFT layout (0-based axis)."""
        n = self.sizes[axis]
        return (np.fft.fftfreq(n) * n).astype(np.int64)

    def nyquist(self, axis: int) -> int:
        return -self.sizes[axis] // 2

    def wavevectors(self, pos: np.ndarray, half: bool = False, effective: bool = False):
        """Integer wavevectors, (d, M) float, of the flat row-major
        positions ``pos`` on the grid, or with ``half`` on the half grid;
        with ``effective``, 0 on each axis's Nyquist plane, as
        ``effective_axis_wavevectors`` has them.  Every size is a power of
        two, so the axis indices come by shifts and masks, and index ix
        maps to ix below N/2 and to ix - N from N/2 on, as
        ``axis_wavevectors`` maps it."""
        n = self.sizes[-1]
        if half:
            row = pos // (n // 2 + 1)
            last = pos - row * (n // 2 + 1)
        else:
            row, last = pos >> (n.bit_length() - 1), pos
        xi = np.empty((self.dim, len(pos)))
        xi[-1] = ((last + n // 2) & (n - 1)) - n // 2
        for i in range(self.dim - 2, -1, -1):
            n = self.sizes[i]
            xi[i] = ((row + n // 2) & (n - 1)) - n // 2
            row >>= n.bit_length() - 1
        if effective:
            for i, k in enumerate(xi):
                k[k == self.nyquist(i)] = 0.0
        return xi


def _axis_sum(x: np.ndarray) -> np.ndarray:
    """The rows of the (d, M) array ``x`` added first to last, which is how
    ``np.sum(x, axis=0)`` adds a C-contiguous one, and how ``np.sum`` adds
    each row of an (M, d) array along axis 1, but for any M."""
    s = x[0] + x[1] if len(x) > 1 else x[0].copy()
    for row in x[2:]:
        s += row
    return s


def effective_axis_wavevectors(grid: GridSpec, axis: int) -> np.ndarray:
    """Wavevectors along ``axis`` with the Nyquist entry mapped to 0: the
    value odd first-order symbols take there under the averaging
    convention."""
    k = grid.axis_wavevectors(axis).astype(float)
    k[k == grid.nyquist(axis)] = 0.0
    return k


def wavevector_table(grid: GridSpec) -> np.ndarray:
    """All grid modes as an (npoints, d) integer array in row-major order."""
    axes = [grid.axis_wavevectors(i) for i in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def ksq_table(grid: GridSpec) -> np.ndarray:
    """|k|^2 of all grid modes in row-major order."""
    axes = np.ix_(*(grid.axis_wavevectors(i).astype(float) ** 2
                    for i in range(grid.dim)))
    return sum(axes).ravel()


@dataclass
class RealField:
    """Real samples of an m-component field, component-major then row-major."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape == self.grid.sizes:
            v = v[None]
        if v.ndim != self.grid.dim + 1 or v.shape[1:] != self.grid.sizes:
            raise StructuralError(
                f"values of shape {v.shape} do not match grid {self.grid.sizes}"
            )
        if not np.all(np.isfinite(v)):
            raise StructuralError("field values must be finite")
        self.values = v

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def l2_norm(self) -> float:
        return math.sqrt(sum_squares(self.values))

    def __add__(self, other: "RealField") -> "RealField":
        return RealField(self.grid, self.values + other.values)

    def __sub__(self, other: "RealField") -> "RealField":
        return RealField(self.grid, self.values - other.values)


@dataclass
class SpectralField:
    """Complex Fourier modes of a field, unitary normalization, FFT layout."""

    grid: GridSpec
    modes: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.modes, dtype=complex)
        if m.shape == self.grid.sizes:
            m = m[None]
        if m.ndim != self.grid.dim + 1 or m.shape[1:] != self.grid.sizes:
            raise StructuralError(
                f"modes of shape {m.shape} do not match grid {self.grid.sizes}"
            )
        self.modes = m

    @property
    def components(self) -> int:
        return self.modes.shape[0]

    def flat(self) -> np.ndarray:
        """(components, npoints) view aligned with wavevector_table order."""
        return self.modes.reshape(self.components, -1)

    def l2_norm(self) -> float:
        return math.sqrt(sum_squares(self.modes))

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.modes.copy())


def forward_transform(field: RealField) -> SpectralField:
    """Unitary DFT of each component."""
    axes = tuple(range(1, field.grid.dim + 1))
    modes = np.fft.fftn(field.values, axes=axes, norm="ortho")
    return SpectralField(field.grid, modes)


def inverse_transform(
    spec: SpectralField, reality_tol: float = 1e-10, check: bool = True
) -> RealField:
    """Unitary inverse DFT; raises if the spectrum is not Hermitian.

    The imaginary residue of the inverse transform is compared against
    ``reality_tol`` times the field magnitude.  Internal callers whose
    spectra are Hermitian by construction pass ``check=False``; a field
    that is zero up to cancellation noise would otherwise trip the
    self-relative test.
    """
    axes = tuple(range(1, spec.grid.dim + 1))
    values = np.fft.ifftn(spec.modes, axes=axes, norm="ortho")
    if check:
        scale = max(float(np.max(np.abs(values))), 1e-300)
        residue = float(np.max(np.abs(values.imag)))
        if residue > reality_tol * scale:
            raise RealityViolationError(
                f"imaginary residue {residue:.3e} exceeds {reality_tol:.1e} of "
                f"the field magnitude; spectrum does not represent a real field"
            )
    return RealField(spec.grid, values.real)


def forward_half_transform(field: RealField) -> np.ndarray:
    """Unitary DFT of each component on the half grid
    (``numpy.fft.rfftn``), shape (m, *grid.half_sizes).  The modes it
    leaves out, last-axis index above N_last/2, are the conjugates of
    their reflections."""
    axes = tuple(range(1, field.grid.dim + 1))
    return np.fft.rfftn(field.values, axes=axes, norm="ortho")


def inverse_half_transform(grid: GridSpec, modes: np.ndarray) -> RealField:
    """Inverse of ``forward_half_transform`` (``numpy.fft.irfftn``): the real
    field whose spectrum is the Hermitian extension of ``modes``."""
    axes = tuple(range(1, grid.dim + 1))
    values = np.fft.irfftn(modes, s=grid.sizes, axes=axes, norm="ortho")
    return RealField(grid, values)


def sum_squares(x: np.ndarray) -> float:
    """Sum of the squared real and imaginary parts of ``x``.

    einsum's own loop, in a fixed order: a BLAS dot (``@``,
    ``np.linalg.norm``) splits the sum by the BLAS thread count, so its
    last digits depend on it."""
    v = np.ascontiguousarray(x).view(float).ravel()
    return float(np.einsum("i,i->", v, v))


def is_hermitian(spec: SpectralField, tol: float = 1e-12) -> bool:
    """Check modes(-k) == conj(modes(k)) exactly on the discrete torus."""
    m = spec.modes
    reflected = m
    for ax in range(1, spec.grid.dim + 1):
        reflected = np.roll(np.flip(reflected, axis=ax), 1, axis=ax)
    scale = max(float(np.max(np.abs(m))), 1e-300)
    return bool(np.max(np.abs(reflected - np.conj(m))) <= tol * scale)


def sobolev_norm(spec: SpectralField, t: float = 0.0) -> float:
    """Weighted norm (sum over modes of (1+|k|^2)^t |coef|^2)^(1/2)."""
    if t == 0.0:
        return spec.l2_norm()
    weights = (1.0 + ksq_table(spec.grid)) ** t
    flat = spec.flat()
    return float(np.sqrt(np.sum(weights * np.abs(flat) ** 2).real))


# ---------------------------------------------------------------------------
# Symbol evaluation on a grid
# ---------------------------------------------------------------------------


def evaluate_modes(
    expr: SymbolExpr,
    grid: GridSpec,
    K: np.ndarray,
    policy: str = SingularModePolicy.ZERO,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a symbol at the grid modes K (M, d) with the Nyquist
    convention.

    Modes with one or more components on the Nyquist plane get the average
    of the symbol over the sign choices of those components, which is what
    keeps the output spectrum Hermitian.  Returns (values, skipped) like
    ``eval_many``: values has shape (M, n, m).
    """
    K = np.asarray(K, dtype=float)
    values, skipped = eval_many(expr, K, policy)
    # Group rows by which axes sit on the Nyquist plane, as a bitmask with
    # bit i for axis i, then average the symbol over sign flips of those
    # axes, one mask at a time (at most 2^d - 1 of them).
    mask = sum((K[:, i] == grid.nyquist(i)) << i for i in range(grid.dim))
    rows = np.flatnonzero(mask)
    if rows.size:
        masks = mask[rows]
        for pat in range(1, 2**grid.dim):
            sel = rows[masks == pat]
            if not sel.size:
                continue
            flip_axes = [i for i in range(grid.dim) if pat >> i & 1]
            acc = np.zeros_like(values[sel])
            for signs in product((1.0, -1.0), repeat=len(flip_axes)):
                Ks = K[sel].copy()
                for ax, s in zip(flip_axes, signs):
                    Ks[:, ax] = s * np.abs(Ks[:, ax])
                v, _ = eval_many(expr, Ks, policy)
                acc += v
            values[sel] = acc / 2 ** len(flip_axes)
    return values, skipped


def evaluate_on_grid(
    expr: SymbolExpr,
    grid: GridSpec,
    policy: str = SingularModePolicy.ZERO,
) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate_modes`` at every grid mode, in row-major order."""
    return evaluate_modes(expr, grid, wavevector_table(grid), policy)


def apply_modewise(
    spec: SpectralField,
    expr: SymbolExpr,
    policy: str = SingularModePolicy.ZERO,
) -> SpectralField:
    """Multiply each mode's component vector by the symbol matrix.

    A scalar symbol broadcasts over the components.  Under the SKIP policy
    singular modes pass through unchanged (square symbols only).
    """
    n, m = expr.shape
    if not expr.is_scalar and m != spec.components:
        raise ArityError(
            f"symbol takes {m} components but field has {spec.components}"
        )
    values, skipped = evaluate_on_grid(expr, spec.grid, policy)
    flat = spec.flat()
    if expr.is_scalar:
        out = values[:, 0, 0][None, :] * flat
        ncomp = spec.components
    else:
        out = np.einsum("kij,jk->ik", values, flat)
        ncomp = n
    if skipped.any():
        if ncomp != spec.components:
            raise ArityError(
                "SKIP policy needs a square symbol to leave modes untouched"
            )
        out[:, skipped] = flat[:, skipped]
    return SpectralField(spec.grid, out.reshape((ncomp,) + spec.grid.sizes))
