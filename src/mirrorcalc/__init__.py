"""mirrorcalc: exact computation of Gromov-Witten numbers K_d and
instanton numbers n_d for concavex sums of line bundles on P^n, via
hypergeometric Euler data, symbolic verification of its defining
identities, and mirror transformations.
"""

__version__ = "0.1.0"

from .algebra import (NEG_INF, Polynomial, PolyRing, RationalFunction,
                      alpha_degree, bar_involution, rf_equal, weight_ring)
from .bundles import CRITICAL_BUNDLES, OmegaClass, SplittingType, omega_class
from .cohomseries import CohomSeries, integrate_pn, scale_by
from .eulerdata import (EulerDataClosed, EulerDataTable, RestrictionSequence,
                        VerificationReport, build_hypergeom_data,
                        check_degree_bound, check_gluing, check_linked,
                        check_mirror_linked, check_reciprocity, endpoint_weights_data,
                        lagrange_map, mirror_transform, to_table)
from .pipeline import (PipelineCase, PipelineResult, build_hypergeom_series,
                       classify, compute_normalization, extract_euler_numbers,
                       frobenius_basis, invert_multicover, run_pipeline)
from .qseries import ScalarQSeries, TSeries, qseries_reversion

__all__ = [
    "NEG_INF", "Polynomial", "PolyRing", "RationalFunction", "alpha_degree",
    "bar_involution", "rf_equal", "weight_ring",
    "CRITICAL_BUNDLES", "OmegaClass", "SplittingType", "omega_class",
    "CohomSeries", "integrate_pn", "scale_by",
    "EulerDataClosed", "EulerDataTable", "RestrictionSequence",
    "VerificationReport", "build_hypergeom_data", "check_degree_bound",
    "check_gluing", "check_linked", "check_mirror_linked", "check_reciprocity",
    "endpoint_weights_data", "lagrange_map", "mirror_transform", "to_table",
    "PipelineCase", "PipelineResult", "build_hypergeom_series", "classify",
    "compute_normalization", "extract_euler_numbers", "frobenius_basis",
    "invert_multicover", "run_pipeline",
    "ScalarQSeries", "TSeries", "qseries_reversion",
    "__version__",
]
