"""histq: a finite-dimensional laboratory for history-space quantum mechanics.

Evaluates decoherence functionals on tensor-product history spaces by
independent constructions (time-ordered products, a doubled-space series, a
trace-class kernel held by its nonzero entries, and a streaming variant),
extends them to quadratic forms on the algebraic tensor product, reproduces
divergence and unboundedness phenomena through truncation probes, and checks
consistency of Boolean history families.
"""

__version__ = "0.1.0"

from .errors import (HistqError, NumericalError, ShapeError, SizeCapError,
                     ValidationError)
from .historyspace import (DensityOperator, HistoryProjection, HomogeneousHistory,
                           Projection, density_from_matrix, density_from_spectral,
                           embed_homogeneous, homogeneous_history,
                           history_projection, validate_projection)
from .decoherence import (AxiomReport, Evaluator, ILSOperator, build_M, d_direct,
                          d_series, d_via_M, d_via_M_streaming, make_evaluator,
                          verify_axioms)
from .quadform import (SimpleTensorSum, D_form, identity_element, pi_map,
                       simple_tensor_sum, unboundedness_probe, uniqueness_check)
from .divergence import (DecoherenceValue, TruncationSchedule, default_schedule,
                         q_u, swap_unitary, truncated_d)
from .consistency import (ConsistencyReport, HistoryFamily, SearchResult,
                          build_family, check_consistent, diag_excess_search)

__all__ = [
    "__version__",
    "HistqError", "ShapeError", "ValidationError", "SizeCapError", "NumericalError",
    "Projection", "DensityOperator", "HomogeneousHistory", "HistoryProjection",
    "validate_projection", "density_from_spectral", "density_from_matrix",
    "homogeneous_history", "history_projection", "embed_homogeneous",
    "Evaluator", "AxiomReport", "ILSOperator", "make_evaluator", "verify_axioms",
    "d_direct", "d_series", "d_via_M", "d_via_M_streaming", "build_M",
    "SimpleTensorSum", "simple_tensor_sum", "identity_element", "pi_map", "D_form",
    "uniqueness_check", "unboundedness_probe",
    "TruncationSchedule", "DecoherenceValue", "default_schedule", "swap_unitary",
    "q_u", "truncated_d",
    "HistoryFamily", "ConsistencyReport", "SearchResult", "build_family",
    "check_consistent", "diag_excess_search",
]
