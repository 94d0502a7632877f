"""Exception types shared across the package.

Every error raised on a user-facing path derives from DarcyError so callers
can catch one base class. The CLI maps subclasses to distinct exit codes.
"""
from __future__ import annotations


class DarcyError(Exception):
    """Base class for all package errors."""


class InvalidMeshError(DarcyError):
    """Mesh data that violates a model requirement.

    ``rejected`` names the item at fault, when there is one: ``("node",
    id)``, ``("element", id)``, ``("condition", i)`` for the ``i``-th
    condition in ``Mesh.bc_faces`` order, or ``("sigma", 0)``. ``line`` is
    the 1-based line of the mesh file that holds it, when known.
    """

    def __init__(
        self, message: str, line: int | None = None, rejected: tuple[str, int] | None = None
    ):
        self.line = line
        self.rejected = rejected
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MeshFormatError(InvalidMeshError):
    """A mesh file that does not follow the text format."""


class ConfigurationError(DarcyError):
    """Inconsistent or unsupported run configuration."""


class SingularSystemError(DarcyError):
    """The assembled system is singular.

    The standard cause is a connected component whose boundary carries no
    natural (prescribed pressure) condition, leaving its constant pressure
    mode unconstrained.

    ``member`` is the index of the singular matrix when a stack of matrices
    was factored, and ``None`` otherwise.
    """

    def __init__(self, message: str, member: int | None = None):
        self.member = member
        super().__init__(message)


class ConstraintDeficiencyError(DarcyError):
    """A substructure's coarse constraints cannot fix its local kernel."""


class IndefiniteOperatorError(DarcyError):
    """An operator required to be positive definite produced a nonpositive
    quadratic form during iteration."""
