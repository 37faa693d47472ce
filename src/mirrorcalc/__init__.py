"""mirrorcalc: exact computation of Gromov-Witten numbers K_d and
instanton numbers n_d for concavex sums of line bundles on P^n, via
hypergeometric Euler data, symbolic verification of its defining
identities, and mirror transformations.  Each export, and each module
named in _EXPORTS as ``mirrorcalc.<module>``, is imported on first use
(PEP 562): importing the package loads none of its modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the names it exports
    "algebra": ("Polynomial", "PolyRing", "RationalFunction", "bar_involution", "rf_equal",
                "weight_ring"),
    "bundles": ("CRITICAL_BUNDLES", "OmegaClass", "SplittingType", "omega_class"),
    "cohomseries": ("CohomSeries", "integrate_pn", "scale_by"),
    "eulerdata": ("EulerDataClosed", "EulerDataTable", "RestrictionSequence",
                  "VerificationReport", "build_hypergeom_data", "check_degree_bound",
                  "check_gluing", "check_linked", "check_mirror_linked", "check_reciprocity",
                  "endpoint_weights_data", "lagrange_map", "mirror_transform", "to_table"),
    "pipeline": ("PipelineCase", "PipelineResult", "build_hypergeom_series", "classify",
                 "compute_normalization", "extract_euler_numbers", "frobenius_basis",
                 "invert_multicover", "run_pipeline"),
    "qseries": ("NEG_INF", "ScalarQSeries", "TSeries", "qseries_reversion"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:  # the import binds the submodule here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # never cached here, so a name patched in its module is patched here too
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
