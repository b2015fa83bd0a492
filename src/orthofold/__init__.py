"""Stratification toolkit for compact matrix group actions.

Computes stabilizers, slice representations, orbit-type and isostabilizer
decompositions, local-model fingerprints with the Klein partition they
induce, quotient dimension maps, and interval quotient models for a catalog
of concrete actions.
"""

__version__ = "0.1.0"

from .actions import (
    ActionModel,
    ManifoldModel,
    act,
    catalog,
    catalog_ids,
    get_action,
    parse_point,
)
from .errors import (
    ClassificationError,
    CorrespondenceError,
    InputError,
    OrthofoldError,
    PointSpecError,
    RepExtractionError,
    StabilizerError,
    UnknownActionError,
)
from .isotropy import (
    SliceRep,
    StabilizerData,
    canonical_weight_rows,
    normal_slice,
    reps_equivalent,
    slice_representation,
    stabilizer,
    transport_element,
)
from .numerics import DEFAULT_TOL, Tolerance
from .quotient import (
    CorrespondenceReport,
    KleinPartition,
    LocalModelFingerprint,
    StratifiedInterval,
    compare_partitions,
    correspondence,
    frontier_check,
    inverse_klein,
    klein_equivalent,
    klein_partition,
    local_model,
    orbifold_criterion,
    quotient_interval_model,
)
from .strata import (
    PartitionOfM,
    SampleCloud,
    SingularityLabel,
    build_cloud,
    classify_singularity,
    isostabilizer_decomposition,
    orbit_type_partition,
    principal_dimension,
    quotient_dimension,
    singularity_labels,
    toric_consistency,
    toric_depth,
)

__all__ = [
    "ActionModel",
    "ManifoldModel",
    "act",
    "catalog",
    "catalog_ids",
    "get_action",
    "parse_point",
    "ClassificationError",
    "CorrespondenceError",
    "InputError",
    "OrthofoldError",
    "PointSpecError",
    "RepExtractionError",
    "StabilizerError",
    "UnknownActionError",
    "SliceRep",
    "StabilizerData",
    "canonical_weight_rows",
    "normal_slice",
    "reps_equivalent",
    "slice_representation",
    "stabilizer",
    "transport_element",
    "DEFAULT_TOL",
    "Tolerance",
    "CorrespondenceReport",
    "KleinPartition",
    "LocalModelFingerprint",
    "StratifiedInterval",
    "compare_partitions",
    "correspondence",
    "frontier_check",
    "inverse_klein",
    "klein_equivalent",
    "klein_partition",
    "local_model",
    "orbifold_criterion",
    "quotient_interval_model",
    "PartitionOfM",
    "SampleCloud",
    "SingularityLabel",
    "build_cloud",
    "classify_singularity",
    "isostabilizer_decomposition",
    "orbit_type_partition",
    "principal_dimension",
    "quotient_dimension",
    "singularity_labels",
    "toric_consistency",
    "toric_depth",
    "__version__",
]
