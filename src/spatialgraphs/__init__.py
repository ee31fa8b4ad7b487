"""Exchange-family generation, cycle analysis, minor checks, and
statistical verification of knot/link lemmas on sampled spatial embeddings
of graphs."""

__version__ = "0.1.0"

from .canon import (
    Certificate,
    automorphisms,
    canonical_form,
    canonical_labeling,
    edge_orbits,
    is_isomorphic,
    vertex_orbits,
)
from .cycles import (
    MinorModel,
    all_cycles,
    cycle_order,
    disjoint_cycle_tuples,
    format_cycle,
    gamma3_empty,
    has_disjoint_cycles,
    parse_cycle,
)
from .diagrams import (
    GenericityError,
    SpatialDiagram,
    assign_over_under,
    build_convex_diagram,
    diagram_from_json,
    diagram_to_json,
    extract_gauss,
    random_knot_diagram,
)
from .exchange import (
    ClosureResult,
    FamilyRecord,
    Move,
    Transition,
    closure,
    delta_y,
    phi_maps,
    replay_provenance,
    triangles,
    write_manifest,
    y_delta,
)
from .invariants import (
    GaussLink,
    Passage,
    a2,
    alpha,
    conway_polynomial,
    dichotomy_witness,
    format_gauss,
    linking_number,
    parse_gauss,
    poly_str,
)
from .minors import has_minor, one_step_reductions, verify_minor_script
from .multigraph import (
    ContractEdge,
    DeleteEdge,
    DeleteVertex,
    GraphError,
    MultiGraph,
    ReductionScript,
    complete_graph,
    contract_edge,
    delete_edge,
    delete_vertex,
    format_edge_list,
    from_pairs,
    parse_edge_list,
    simplify,
)
from .planarity import apex_witness, is_k_apex, is_planar

from . import catalog, claims

__all__ = [name for name in dir() if not name.startswith("_")]
