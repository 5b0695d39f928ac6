"""Exception types shared across the package."""

import math


class ShannopError(Exception):
    """Base class for all package errors."""


class StructuralError(ShannopError):
    """Malformed input: wrong sizes, shapes, or file format."""


class RealityViolationError(ShannopError):
    """A spectrum that should represent a real field is not Hermitian-symmetric."""


class ArityError(ShannopError):
    """Symbol shapes do not compose, or a symbol does not match a field."""


class SingularModeError(ShannopError):
    """A symbol was evaluated at a mode where it is singular under the Error policy."""

    def __init__(self, mode, message=None):
        self.mode = tuple(int(c) for c in mode)
        super().__init__(message or f"symbol is singular at mode {self.mode}")


class UnsupportedSchemeError(ShannopError):
    """Partition scheme not available for this grid (e.g. MRA on anisotropic grids)."""


class PartitionConsistencyError(ShannopError):
    """Bands overlap or fail to cover the grid modes."""


class NotInvertibleOnBandError(ShannopError):
    """A scalar symbol changes sign or vanishes inside a band."""

    def __init__(self, band_id, message=None):
        self.band_id = band_id
        super().__init__(message or f"symbol is not invertible on band {band_id}")


class BoundViolationError(ShannopError):
    """A contraction bound is >= 1 or not finite, so the iteration is refused
    in strict mode."""

    def __init__(self, band_id, rho, message=None):
        self.band_id = band_id
        self.rho = float(rho)
        if message is None:
            message = (
                f"contraction bound {self.rho:.6f} >= 1 on band {band_id}"
                if math.isfinite(self.rho)
                else f"contraction bound {self.rho} is not finite on band {band_id}"
            )
        super().__init__(message)


class DivergenceError(ShannopError):
    """The residual grew over several consecutive iterations."""

    def __init__(self, report, message=None):
        self.report = report
        super().__init__(message or "residual diverged")


class InsufficientDataError(ShannopError):
    """Not enough history entries to estimate a rate."""


class SymbolParseError(ShannopError):
    """Syntax error in the textual symbol grammar."""

    def __init__(self, message, position):
        self.position = int(position)
        super().__init__(f"{message} (at position {self.position})")
