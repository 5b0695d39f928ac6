"""Shannon-band approximations of constant-coefficient operators on
periodic grids: dyadic frequency partitions, per-band preconditioners,
Richardson iteration and the iterative Leray projector."""

from .bands import (
    BandedField,
    FamilyTag,
    FrequencyBand,
    Partition,
    analyze,
    apply_lemarie_derivative,
    apply_lemarie_integral,
    band_extrema,
    build_mra_partition,
    build_tensorial_partition,
    dump_partition,
    refine_packet,
    synthesize,
)
from .grid import (
    GridSpec,
    RealField,
    SpectralField,
    apply_modewise,
    forward_half_transform,
    forward_transform,
    inverse_half_transform,
    inverse_transform,
    sobolev_norm,
)
from .io import read_field, write_field
from .precond import (
    BandPreconditioner,
    RateBound,
    RateBounds,
    given_entries,
    implicit_laplacian_precond,
    leray_band_operators,
    leray_rate_bounds,
    rate_implicit_laplacian,
    rate_kantorovich,
    sampled_contraction,
    scalar_optimal,
)
from .solver import (
    SolveConfig,
    SolveReport,
    estimate_rate,
    exact_leray,
    exact_solve,
    helmholtz_decompose,
    richardson_solve,
)
from .symbols import (
    Const,
    Delta,
    Divergence,
    Gradient,
    Identity,
    ImplicitLaplacian,
    LerayP,
    NegLaplacian,
    Product,
    Scale,
    SingularModePolicy,
    Sum,
    SymbolExpr,
    Xi,
    XiInv,
    eval_symbol,
    is_constructible,
    parse_symbol,
    pseudo_inverse,
    reality_check,
)

__version__ = "0.1.0"
