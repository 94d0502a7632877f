"""Substructured solver for Darcy flow in fractured porous media.

Mixed-hybrid lowest-order finite elements on mixed-dimensional simplicial
meshes, reduced to an interface problem over substructures and solved by
conjugate gradients with a coarse-corrected substructure preconditioner.
"""

from .assembly import (
    BlockSystem,
    SolutionTriple,
    assemble,
    full_solve_direct,
    mass_balance_residual,
    rt0_local,
)
from .bddc import BddcPreconditioner, ConstraintSet, build_constraints
from .errors import (
    ConfigurationError,
    ConstraintDeficiencyError,
    DarcyError,
    IndefiniteOperatorError,
    InvalidMeshError,
    MeshFormatError,
    SingularSystemError,
)
from .krylov import (
    PcgConfig,
    SolveReport,
    extreme_tridiagonal_eigenvalues,
    lanczos_condition,
    pcg,
)
from .ldlt import IndefiniteFactorization, factor_symmetric_indefinite
from .mesh import (
    BoundaryCondition,
    CouplingLink,
    Element,
    Mesh,
    detect_couplings,
    generate_cross_fracture_cube,
    generate_unit_cube,
    generate_unit_square,
    meshes_equal,
    read_mesh,
    write_mesh,
)
from .partition import (
    InterfaceLayout,
    Partition,
    classify_interface,
    compute_weights,
    partition_elements,
    select_corners,
)
from .subsolve import (
    InterfaceOperator,
    SubstructureOperator,
    build_substructures,
    parallel_map,
    recover_solution,
)
from .cli import RunConfig, RunResult, report_csv, run, run_suite

__version__ = "0.1.0"

__all__ = [
    "BddcPreconditioner",
    "BlockSystem",
    "BoundaryCondition",
    "ConfigurationError",
    "ConstraintDeficiencyError",
    "ConstraintSet",
    "CouplingLink",
    "DarcyError",
    "Element",
    "IndefiniteFactorization",
    "IndefiniteOperatorError",
    "InterfaceLayout",
    "InterfaceOperator",
    "InvalidMeshError",
    "Mesh",
    "MeshFormatError",
    "Partition",
    "PcgConfig",
    "RunConfig",
    "RunResult",
    "SingularSystemError",
    "SolutionTriple",
    "SolveReport",
    "SubstructureOperator",
    "assemble",
    "build_constraints",
    "build_substructures",
    "classify_interface",
    "compute_weights",
    "detect_couplings",
    "extreme_tridiagonal_eigenvalues",
    "factor_symmetric_indefinite",
    "full_solve_direct",
    "generate_cross_fracture_cube",
    "generate_unit_cube",
    "generate_unit_square",
    "lanczos_condition",
    "mass_balance_residual",
    "meshes_equal",
    "parallel_map",
    "partition_elements",
    "pcg",
    "read_mesh",
    "recover_solution",
    "report_csv",
    "rt0_local",
    "run",
    "run_suite",
    "select_corners",
    "write_mesh",
]
