"""histq: a finite-dimensional laboratory for history-space quantum mechanics.

Evaluates decoherence functionals on tensor-product history spaces by
independent constructions (time-ordered products, a doubled-space series, a
trace-class kernel held by its nonzero entries, and a streaming variant),
extends them to quadratic forms on the algebraic tensor product, reproduces
divergence and unboundedness phenomena through truncation probes, and checks
consistency of Boolean history families.

``import histq`` loads none of the submodules.  Each name in ``__all__`` is
looked up in its home module, which is imported on first use, and again on
every access: the package keeps no copy of it.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "errors": ("HistqError", "ShapeError", "ValidationError", "SizeCapError",
               "NumericalError"),
    "historyspace": ("Projection", "DensityOperator", "HomogeneousHistory",
                     "HistoryProjection", "validate_projection",
                     "density_from_spectral", "density_from_matrix",
                     "homogeneous_history", "history_projection", "embed_homogeneous"),
    "decoherence": ("Evaluator", "AxiomReport", "ILSOperator", "make_evaluator",
                    "verify_axioms", "d_direct", "d_series", "d_via_M",
                    "d_via_M_streaming", "build_M"),
    "quadform": ("SimpleTensorSum", "simple_tensor_sum", "identity_element", "pi_map",
                 "D_form", "uniqueness_check", "unboundedness_probe"),
    "divergence": ("TruncationSchedule", "DecoherenceValue", "default_schedule",
                   "swap_unitary", "q_u", "truncated_d"),
    "consistency": ("HistoryFamily", "ConsistencyReport", "SearchResult",
                    "build_family", "check_consistent", "diag_excess_search"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
