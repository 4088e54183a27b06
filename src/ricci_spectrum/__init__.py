"""Exact Ollivier-Ricci curvature and Laplacian eigenvalue bounds on graphs.

The package works on finite weighted undirected graphs that may carry
self-loops.  Everything that can be exact is exact (rational arithmetic for
weights, walk measures, transport costs, curvature); the eigensolver is the
one float component, with documented tolerances.

Main entry points:

* build_graph, is_bipartite, neighbor_partition  (graph)
* one_step_measure, t_step_measure, neighborhood_graph, lazy_graph  (walk)
* wasserstein, dual_certificate, verify_plan  (transport)
* ricci_curvature, lower_bound_formula, upper_bound_formula,
  global_lower_bound, sharpness_case  (curvature)
* spectrum.spectrum, eigenpairs, verify_transfer_identity, rayleigh_ratio  (spectrum)
* ollivier_lower, largest_upper, sandwich_bounds, transfer_bounds,
  joint_neighbor_bounds, contraction_audit, metric_audit,
  curvature_transfer_check, k_scan  (bounds)
"""

__version__ = "0.1.0"

from .graph import (
    UNREACHABLE,
    NeighborhoodPartition,
    WeightedGraph,
    build_graph,
    is_bipartite,
    neighbor_partition,
)
from .walk import (
    ProbMeasure,
    first_complete_t,
    heat_kernel,
    lazy_graph,
    neighborhood_graph,
    one_step_measure,
    t_step_measure,
)
from .transport import (
    DualCertificate,
    TransportPlan,
    dual_certificate,
    verify_plan,
    wasserstein,
)
from .curvature import (
    BoundFormulaResult,
    CurvatureValue,
    global_lower_bound,
    lower_bound_formula,
    ricci_curvature,
    sharpness_case,
    unweighted_terms,
    upper_bound_formula,
)
from .spectrum import (
    EigenPair,
    Spectrum,
    eigenpairs,
    laplacian_apply,
    rayleigh_ratio,
    verify_transfer_identity,
)
from .bounds import (
    BoundReport,
    ContractionAudit,
    CurvatureTransferAudit,
    KScanRow,
    KScanTable,
    MetricAudit,
    contraction_audit,
    curvature_transfer_check,
    joint_neighbor_bounds,
    k_scan,
    largest_upper,
    metric_audit,
    ollivier_lower,
    sandwich_bounds,
    transfer_bounds,
)
from . import errors, tolerances

__all__ = [
    "__version__",
    "UNREACHABLE",
    "WeightedGraph",
    "NeighborhoodPartition",
    "build_graph",
    "is_bipartite",
    "neighbor_partition",
    "ProbMeasure",
    "one_step_measure",
    "t_step_measure",
    "neighborhood_graph",
    "heat_kernel",
    "lazy_graph",
    "first_complete_t",
    "TransportPlan",
    "DualCertificate",
    "wasserstein",
    "verify_plan",
    "dual_certificate",
    "CurvatureValue",
    "BoundFormulaResult",
    "ricci_curvature",
    "lower_bound_formula",
    "upper_bound_formula",
    "global_lower_bound",
    "sharpness_case",
    "unweighted_terms",
    "Spectrum",
    "EigenPair",
    "eigenpairs",
    "laplacian_apply",
    "verify_transfer_identity",
    "rayleigh_ratio",
    "BoundReport",
    "ContractionAudit",
    "MetricAudit",
    "CurvatureTransferAudit",
    "KScanRow",
    "KScanTable",
    "ollivier_lower",
    "largest_upper",
    "sandwich_bounds",
    "transfer_bounds",
    "joint_neighbor_bounds",
    "contraction_audit",
    "metric_audit",
    "curvature_transfer_check",
    "k_scan",
    "errors",
    "tolerances",
]
