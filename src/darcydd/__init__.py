"""Substructured solver for Darcy flow in fractured porous media.

Mixed-hybrid lowest-order finite elements on mixed-dimensional simplicial
meshes, reduced to an interface problem over substructures and solved by
conjugate gradients with a coarse-corrected substructure preconditioner.

The package exports the pipeline entry points shown in the README and the
error types; everything else is imported from its module.
"""

from .assembly import assemble
from .bddc import BddcPreconditioner, build_constraints
from .errors import (
    ConfigurationError,
    ConstraintDeficiencyError,
    DarcyError,
    IndefiniteOperatorError,
    InvalidMeshError,
    MeshFormatError,
    SingularSystemError,
)
from .krylov import PcgConfig, pcg
from .mesh import (
    generate_cross_fracture_cube,
    generate_unit_cube,
    generate_unit_square,
)
from .partition import (
    classify_interface,
    compute_weights,
    partition_elements,
    select_corners,
)
from .subsolve import InterfaceOperator, build_substructures, recover_solution

__version__ = "0.1.0"

__all__ = [
    "BddcPreconditioner",
    "ConfigurationError",
    "ConstraintDeficiencyError",
    "DarcyError",
    "IndefiniteOperatorError",
    "InterfaceOperator",
    "InvalidMeshError",
    "MeshFormatError",
    "PcgConfig",
    "SingularSystemError",
    "assemble",
    "build_constraints",
    "build_substructures",
    "classify_interface",
    "compute_weights",
    "generate_cross_fracture_cube",
    "generate_unit_cube",
    "generate_unit_square",
    "partition_elements",
    "pcg",
    "recover_solution",
    "select_corners",
]
