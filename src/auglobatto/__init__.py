"""Augmented Lobatto pseudospectral collocation for optimal control.

The package splits into five layers: orthogonal-polynomial grids
(``orthopoly``), differentiation matrices on those grids
(``discretization``), benchmark problem definitions (``ocp``), the
transcription of a problem into an equality-constrained program
(``transcribe``), and a dense Newton KKT solver (``nlpsolve``).  The
``cli`` module wires them into a small command-line tool.
"""

from .discretization import (
    DiffMatrix,
    build_basis,
    build_dual_D,
    build_new_lobatto_D,
    build_standard_lobatto_D,
    condition_number,
    numerical_rank,
    runge_bound,
    verify_definition,
)
from .nlpsolve import (
    MaxIterationsError,
    SingularKktError,
    solve,
)
from .ocp import AnalyticTruth, OcpDefinition, nonlinear_ivp, orbit_raising
from .orthopoly import (
    NodeSet,
    legendre_eval,
    lobatto_eval,
    lobatto_nodes,
)
from .transcribe import (
    Method,
    Solution,
    Transcript,
    assemble_solution,
    costate_leading_coefficient,
    extract_costates,
    kkt_residuals,
    transcribe,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticTruth",
    "DiffMatrix",
    "MaxIterationsError",
    "Method",
    "NodeSet",
    "OcpDefinition",
    "SingularKktError",
    "Solution",
    "Transcript",
    "assemble_solution",
    "build_basis",
    "build_dual_D",
    "build_new_lobatto_D",
    "build_standard_lobatto_D",
    "condition_number",
    "costate_leading_coefficient",
    "extract_costates",
    "kkt_residuals",
    "legendre_eval",
    "lobatto_eval",
    "lobatto_nodes",
    "nonlinear_ivp",
    "numerical_rank",
    "orbit_raising",
    "runge_bound",
    "solve",
    "transcribe",
    "verify_definition",
]
