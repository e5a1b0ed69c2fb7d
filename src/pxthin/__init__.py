"""Finite element experiments for thin obstacle problems driven by
variable-exponent energies on the half-disk.
"""

from .analysis import (HolderReport, IterationConstants, ScanReport,
                       admissible_radius, gradient_holder_fit,
                       higher_integrability_scan, iteration_constants,
                       iteration_suite, monotonicity_check, theoretical_alpha)
from .comparison import (DecayReport, ReferenceReport, build_reference,
                         comparison_decay, compute_M, reference_report,
                         reflect_and_check)
from .energy import EnergySetup, energy, hessian, residual
from .errors import (ConfigError, ConvergenceError, DomainError, FormatError,
                     NumericError, PreconditionError, PxthinError,
                     ResolutionError, ResourceError)
from .exponent import ExponentField, estimate_holder_seminorm
from .mesh import (TriMesh, build, extract_halfball_submesh, mesh_hash,
                   quadrature_rule, save_mesh)
from .solver import (ObstacleProblem, SolveReport, load_solution,
                     save_solution, solve, vi_check)
from .vxspace import (CampanatoProfile, FeFunction, campanato_profile,
                      luxemburg_norm, modular)

__version__ = "0.1.0"

__all__ = [
    "CampanatoProfile", "ConfigError", "ConvergenceError", "DecayReport",
    "DomainError", "EnergySetup", "ExponentField", "FeFunction",
    "FormatError", "HolderReport", "IterationConstants", "NumericError",
    "ObstacleProblem", "PreconditionError", "PxthinError", "ReferenceReport",
    "ResolutionError", "ResourceError", "ScanReport", "SolveReport",
    "TriMesh", "admissible_radius", "build", "build_reference",
    "campanato_profile", "comparison_decay", "compute_M", "energy",
    "estimate_holder_seminorm", "extract_halfball_submesh",
    "gradient_holder_fit", "hessian", "higher_integrability_scan",
    "iteration_constants", "iteration_suite", "load_solution",
    "luxemburg_norm", "mesh_hash", "modular", "monotonicity_check",
    "quadrature_rule", "reference_report", "reflect_and_check", "residual",
    "save_mesh", "save_solution", "solve", "theoretical_alpha", "vi_check",
]
