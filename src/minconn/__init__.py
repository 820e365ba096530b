"""Tools for minimally k-connected and minimally k-edge-connected graphs.

The package revolves around four classes of graphs.  A graph is
*edge-minimally k-connected* when it is k-connected but deleting any single
edge destroys that, *vertex-minimally k-connected* when deleting any single
vertex destroys it, and similarly for k-edge-connectivity (where multigraphs
are allowed).  Alongside the classification predicates there are witness
finders that locate the low-degree vertices these classes are guaranteed to
contain, generators for the extremal constructions that show the guarantees
are tight, and estimators for the degrees of the ends of the infinite
families that play the same role for infinite graphs.
"""

from types import ModuleType as _ModuleType

from .connectivity import (
    Connectivity,
    Cut,
    DisjointPaths,
    Separator,
    edge_connectivity,
    is_k_connected,
    is_k_edge_connected,
    max_disjoint_paths,
    min_cut_containing_edge,
    min_edge_cut,
    min_separator_containing,
    min_vertex_separator,
    vertex_connectivity,
)
from .constructions import (
    LabeledGraph,
    band_graph,
    cycle_clique_strong,
    cycle_clique_strong_odd,
    multipath,
    path_square_example,
)
from .enumeration import canonical_key, enumerate_all, enumerate_graphs, random_graphs
from .errors import (
    ClassMismatch,
    EmptyRegion,
    InvalidParams,
    MinconnError,
    NoSuchEdge,
    NotConverged,
    PreconditionViolated,
    TooLarge,
    TooSmall,
    ValidationFailed,
)
from .families import (
    Ball,
    CertifyReport,
    EndDegreeEstimate,
    EndDescriptor,
    Family,
    FamilyValidation,
    ball,
    certify_essential_edges,
    end_degree_estimate,
    make_family,
    validate_family,
)
from .graphs import (
    Graph,
    MixedSet,
    MultiGraph,
    Region,
    cartesian_product,
    complete_graph,
    cycle_graph,
    degree_profile,
    path_graph,
    region_of,
    small_degree_set,
    square,
    strong_product,
)
from .minimality import (
    MinimalityClass,
    ClassificationReport,
    PredicateResult,
    check_class,
    classify,
    is_edge_min_k_connected,
    is_edge_min_k_edge_connected,
    is_vertex_min_k_connected,
    is_vertex_min_k_edge_connected,
)
from .witnesses import (
    CrossingSeparatorsTrace,
    EdgeMinWitnessTrace,
    MinimalRegionResult,
    VertexMinEdgeWitnessTrace,
    WitnessReport,
    crossing_separators_witness,
    default_profound_region,
    degree_bound,
    edge_min_witness_pair,
    minimal_region_small_edge_boundary,
    required_count,
    small_component_witness,
    vertex_min_edge_witness_pair,
    witness_report,
)

__version__ = "0.1.0"

# the public API: every name imported above
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
