"""np3kit: Newman-Penrose spin-coefficient toolkit for 3-dimensional
Riemannian manifolds given by orthonormal frames of symbolic vector fields.

Quick tour:

    >>> from np3kit import catalog, classify, spin_coefficients
    >>> spec = catalog.get_spec("example1")
    >>> classify.__module__  # library layout mirrors the pipeline
    'np3kit.classify'
    >>> spin_coefficients(spec).evaluate((0.0, 0.0, 0.0))["rho"]
    (-0.9999999999999998-0.4999999999999999j)
"""

from . import catalog, ektau
from .cexpr import eval_forms, residual
from .classify import (EinsteinVerdict, NotTransSasakian, StructureClass,
                       classify, einstein_check, ts_identity_forms)
from .expr import (DomainError, Expr, ParseError, UnboundParameter,
                   differentiate, parse, unparse)
from .frame import (CurvatureData, DegenerateFrame, ManifoldSpec, SchemaError,
                    connection_table, covariant_derivative, default_samples,
                    kulkarni_nomizu_forms, load_manifold, riemann,
                    spec_to_document, structure_functions)
from .npcore import (KinematicDecomposition, SpinCoefficients, bianchi_forms,
                     gauge_transform, kinematics, np_frame, np_metric_forms,
                     ricci_from_sachs_forms, sachs_forms, spin_coefficients,
                     weighted_derivative)
from .sampling import InsufficientSamples
from .suites import run_suite, run_suites
from .xi import (CongruenceReport, divergence_xi, parallel_and_collinearity,
                 rough_laplacian_xi)

__version__ = "0.1.0"
