"""np3kit: Newman-Penrose spin-coefficient toolkit for 3-dimensional
Riemannian manifolds given by orthonormal frames of symbolic vector fields.

Quick tour:

    >>> from np3kit import catalog, classify, spin_coefficients
    >>> spec = catalog.get_spec("example1")
    >>> classify.__module__  # library layout mirrors the pipeline
    'np3kit.classify'
    >>> spin_coefficients(spec).rho.evaluate((0.0, 0.0, 0.0))
    (-1-0.5j)
"""

from . import catalog, ektau
from .classify import (EinsteinVerdict, NotTransSasakian, StructureClass,
                       classify, conformal_foliation_residual_many, einstein_check,
                       induced_structure, ts_identity_residuals_many)
from .expr import (DomainError, Expr, ParseError, UnboundParameter,
                   differentiate, evaluate, parse, simplify, unparse)
from .frame import (CurvatureData, DegenerateFrame, ManifoldSpec, SchemaError,
                    connection_table, covariant_derivative, default_samples,
                    kulkarni_nomizu_residual, load_manifold, riemann,
                    spec_to_document, structure_functions)
from .npcore import (GaugeAngle, KinematicDecomposition, SpinCoefficients,
                     bianchi_residuals_many, gauge_transform, kinematics, np_frame,
                     sachs_residuals_many, spin_coefficients, weighted_derivative)
from .sampling import InsufficientSamples
from .suites import run_suite, run_suites
from .xi import (CongruenceReport, divergence_xi, harmonicity_residual,
                 parallel_and_collinearity, rough_laplacian_xi)

__version__ = "0.1.0"
