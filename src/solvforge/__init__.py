"""solvforge: exactly solvable radial potentials by algebraic transforms.

Constructs potentials V(r) and closed-form solutions of the generalized
radial equation  -phi'' + V phi = gamma^2 h(r) phi  from seed solutions of a
known base problem, for single channels (one-step and chained transforms,
M-fold seed sets) and coupled multichannel systems, and verifies every
construction against an independent residual oracle.
"""

__version__ = "0.1.0"

from ._kernels import kernel_backend
from .errors import (
    BlowupError,
    BoundaryError,
    ConfigError,
    DirectionMismatchError,
    DomainError,
    DuplicateSpectralError,
    ExprSyntaxError,
    ForgeError,
    GridMismatchError,
    GridTooSmallError,
    InvalidWeightError,
    NonFiniteFieldError,
    NonUniformShiftError,
    SeedRejectedError,
    SingularPotentialError,
    SingularSeedError,
    UnknownIdentifierError,
)
from .expr import AnalyticExpr, call, differentiate, evaluate_on_grid, parse
from .grid import (
    Direction,
    RadialGrid,
    SampledField,
    constant_field,
    field_from_arrays,
    integrate_prefix,
    signed_prefix,
    wronskian,
)
from .solver import (
    JOST_AT_RIGHT,
    REGULAR_AT_LEFT,
    CustomBC,
    JostAtRight,
    RegularAtLeft,
    Solution,
    default_grid,
    seed_from_expression,
    solve,
)
from .verify import (
    ResidualReport,
    check_wronskian_integral,
    matrix_residual,
    residual,
)
from .darboux import (
    DarbouxTransform,
    chain_second_step,
    darboux_potential,
    darboux_solution,
    darboux_transform,
)
from .bargmann import (
    BargmannSeed,
    BargmannSeedSet,
    PMatrix,
    bargmann_potential,
    bargmann_solution,
    make_seed_set,
    p_matrix,
    transformed_seed_solutions,
)
from .multichannel import (
    ChannelSystem,
    diagonal_base_system,
    multichannel_potential,
    multichannel_solution,
    multichannel_solutions,
    seed_vectors,
    transform_denominator,
    transformed_seed_vectors,
)

__all__ = [
    "__version__",
    "kernel_backend",
    # expressions
    "AnalyticExpr",
    "parse",
    "differentiate",
    "evaluate_on_grid",
    "call",
    # grids and fields
    "RadialGrid",
    "SampledField",
    "Direction",
    "constant_field",
    "field_from_arrays",
    "wronskian",
    "integrate_prefix",
    "signed_prefix",
    # solver
    "Solution",
    "solve",
    "seed_from_expression",
    "default_grid",
    "RegularAtLeft",
    "JostAtRight",
    "CustomBC",
    "REGULAR_AT_LEFT",
    "JOST_AT_RIGHT",
    # verification
    "ResidualReport",
    "residual",
    "matrix_residual",
    "check_wronskian_integral",
    # transforms
    "DarbouxTransform",
    "darboux_transform",
    "darboux_potential",
    "darboux_solution",
    "chain_second_step",
    "BargmannSeed",
    "BargmannSeedSet",
    "PMatrix",
    "make_seed_set",
    "p_matrix",
    "bargmann_potential",
    "bargmann_solution",
    "transformed_seed_solutions",
    "ChannelSystem",
    "diagonal_base_system",
    "seed_vectors",
    "transform_denominator",
    "transformed_seed_vectors",
    "multichannel_potential",
    "multichannel_solution",
    "multichannel_solutions",
    # errors
    "ForgeError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "DomainError",
    "GridMismatchError",
    "GridTooSmallError",
    "InvalidWeightError",
    "BoundaryError",
    "BlowupError",
    "SeedRejectedError",
    "SingularSeedError",
    "SingularPotentialError",
    "DuplicateSpectralError",
    "DirectionMismatchError",
    "NonFiniteFieldError",
    "NonUniformShiftError",
    "ConfigError",
]
