"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ForgeError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(ForgeError):
    """Expression text could not be parsed; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    """Identifier other than `r` or a known function name."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class DomainError(ForgeError):
    """Evaluation left the domain of an expression (log of a non-positive
    value, negative sqrt argument, overflow, ...).  `node` is the grid node
    index when the evaluation ran over a grid, else None."""

    def __init__(self, message: str, node: int | None = None):
        if node is not None:
            message = f"{message} (grid node {node})"
        super().__init__(message)
        self.node = node


class GridMismatchError(ForgeError):
    """Operands sampled on different grids."""


class GridTooSmallError(ForgeError):
    """Grid has too few nodes for the requested stencil."""


class InvalidWeightError(ForgeError):
    """Weight function h(r) is not strictly positive on the grid."""

    def __init__(self, node: int):
        super().__init__(f"weight function must be positive; violated at node {node}")
        self.node = node


class BoundaryError(ForgeError):
    """Boundary condition cannot be realised (no decaying branch, underflow)."""


class BlowupError(ForgeError):
    """Integration produced a non-finite or astronomically large value."""

    def __init__(self, node: int):
        super().__init__(f"integration blew up at node {node}")
        self.node = node


class SeedRejectedError(ForgeError):
    """Candidate seed failed the residual check against its base problem."""

    def __init__(self, report, text: str | None = None):
        what = f"seed {text!r}" if text else "seed"
        super().__init__(
            f"{what} rejected: residual max_rel={report.max_rel:.3e} "
            f"exceeds tol={report.tol:.3e} (max_abs={report.max_abs:.3e} "
            f"at node {report.argmax_node})"
        )
        self.report = report


class SingularSeedError(ForgeError):
    """Seed has a node (zero) inside the working interval."""

    def __init__(self, node: int):
        super().__init__(f"seed vanishes near node {node}; transform would be singular")
        self.node = node


class SingularPotentialError(ForgeError):
    """Transform denominator (P matrix determinant or chain factor) crossed
    zero, or (`how`) left the range of a double."""

    def __init__(
        self, node: int, what: str = "transform denominator", how: str = "is singular or changes sign"
    ):
        super().__init__(f"{what} {how} at node {node}")
        self.node = node


class NonFiniteFieldError(ForgeError, ValueError):
    """A sampled field holds a non-finite entry, typically a construction that
    overflowed; `node` is the first such grid node.  A ValueError as well, so
    callers that refuse bad values as ValueError keep doing so."""

    def __init__(self, what: str, node: int):
        super().__init__(f"{what} contains a non-finite entry at node {node}")
        self.node = node


class DuplicateSpectralError(ForgeError):
    """Two spectral parameters coincide (or nearly so) where they must differ."""


class DirectionMismatchError(ForgeError):
    """Integration direction is inconsistent with the boundary-condition class
    of the supplied solutions (regular pairs with from-left, decaying/Jost-type
    with from-right; mixing classes in one seed set is not supported)."""


class NonUniformShiftError(ForgeError):
    """Multichannel evaluation spectra must be a rigid shift of the seed
    spectra; the transform identities close only along that line."""


class ConfigError(ForgeError):
    """Job configuration or input artifact violates the documented schema."""
