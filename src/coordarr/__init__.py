"""Bigraded cohomology of complements of complex coordinate subspace
arrangements, computed through three independent finite models, with the
induced Hodge filtration, explicit cycle resolvents, and numerically
validated Cauchy-type integral representation kernels."""

from .complexes import (
    CodimensionOneWarning,
    ComplexError,
    SimplicialComplex,
    parse_complex,
)
from .linalg import BigradedTable, CheckFailed, CohomologyBlock, ExactMatrix, SnfResult
from .resolvents import Resolvent, UChain, build_resolvent
from .kernels import (
    KernelData,
    KernelUnavailableError,
    PolyFunction,
    QuadratureSpec,
    build_kernel,
    evaluate_representation,
    parse_polynomial,
)

__all__ = [
    "CodimensionOneWarning",
    "ComplexError",
    "SimplicialComplex",
    "parse_complex",
    "BigradedTable",
    "CheckFailed",
    "CohomologyBlock",
    "ExactMatrix",
    "SnfResult",
    "Resolvent",
    "UChain",
    "build_resolvent",
    "KernelData",
    "KernelUnavailableError",
    "PolyFunction",
    "QuadratureSpec",
    "build_kernel",
    "evaluate_representation",
    "parse_polynomial",
]

__version__ = "0.1.0"
