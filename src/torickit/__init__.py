"""torickit: exact computations on fans of smooth toric varieties.

The toolkit validates fans, analyzes homogeneous coordinate and degree
data, decides membership in spaces of based holomorphic maps from the
sphere by exact polynomial arithmetic, and computes the stability
dimension of the inclusion into the double loop space, cross-checked by an
independent region-propagation oracle.
"""

from .catalog import CatalogEntry, builder_for, c2_fan, cp_fan, hirzebruch_fan, load_catalog
from .cones import (
    SimplicialCone,
    cone_contains,
    intersection_is_common_face,
    is_smooth_cone,
    primitivize,
)
from .cox import CoxGroupReport, DegreeVector, complete_degrees, cox_report, degree_of
from .fans import (
    Fan,
    ValidationReport,
    enumerate_subfans,
    fan_isomorphism,
    is_complete,
    is_nonface,
    is_smooth,
    isomorphism_classes,
    nonface_family,
    primitive_collections,
    r_min,
    validate_fan,
)
from .gaussian import GaussianRational
from .holmap import (
    Configuration,
    EvaluationResult,
    PolyTuple,
    StabilizationResult,
    config_is_member,
    config_to_polytuple,
    evaluate,
    is_member,
    scanning_snapshot,
    stabilize,
    violating_collections,
)
from .lattice import (
    IntegerMatrix,
    SmithDecomposition,
    kernel_basis,
    positive_kernel_vector,
    smith_normal_form,
    spans_lattice,
)
from .stability import (
    DiscriminantDims,
    StabilityReport,
    discriminant_dims,
    stability_report,
    stable_range_replay,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "Configuration",
    "CoxGroupReport",
    "DegreeVector",
    "DiscriminantDims",
    "EvaluationResult",
    "Fan",
    "GaussianRational",
    "IntegerMatrix",
    "PolyTuple",
    "SimplicialCone",
    "SmithDecomposition",
    "StabilityReport",
    "StabilizationResult",
    "ValidationReport",
    "builder_for",
    "c2_fan",
    "complete_degrees",
    "cone_contains",
    "config_is_member",
    "config_to_polytuple",
    "cox_report",
    "cp_fan",
    "degree_of",
    "discriminant_dims",
    "enumerate_subfans",
    "evaluate",
    "fan_isomorphism",
    "hirzebruch_fan",
    "intersection_is_common_face",
    "is_complete",
    "is_member",
    "is_nonface",
    "is_smooth",
    "is_smooth_cone",
    "isomorphism_classes",
    "kernel_basis",
    "load_catalog",
    "nonface_family",
    "positive_kernel_vector",
    "primitive_collections",
    "primitivize",
    "r_min",
    "scanning_snapshot",
    "smith_normal_form",
    "spans_lattice",
    "stability_report",
    "stabilize",
    "stable_range_replay",
    "validate_fan",
    "violating_collections",
]
