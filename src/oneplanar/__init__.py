"""Algorithms on 1-planar drawings.

A 1-planar drawing is stored planarized: each crossing is an explicit
degree-4 vertex in a rotation system.  On top of that representation the
package provides validation and the 4v-8 edge bound, canonical
triangulation, neighborhood structure census, the unavoidable
configuration and light-subgraph finders, an exact-rational discharging
engine, and acyclic edge coloring within max(2*maxdeg-2, maxdeg+83)
colors (plain and list variants) with a verifier and an exact oracle.
"""

from .model import (
    AbstractGraph,
    Crossing,
    EdgeBoundReport,
    FaceList,
    InvalidDrawingError,
    MalformedDrawingError,
    OnePlanarDrawing,
    OnePlanarError,
    ValidationReport,
    associated_plane_graph,
    edge_bound_check,
    normalize_edge,
    trace_faces,
    validate_drawing,
)
from .triangulation import (
    CanonicalTriangulation,
    StepFourDeadlock,
    TriangulationError,
    canonical_triangulate,
    is_canonical,
)
from .structure import (
    Configuration,
    ConfigurationNotFound,
    MinDegreeError,
    StructureCensus,
    check_observations,
    classify_mirror_triangle,
    classify_neighbors,
    find_configuration,
    find_light_path3,
    find_light_star3,
)
from .discharging import (
    AuditReport,
    ChargeLedger,
    Transfer,
    apply_rules,
    audit,
    initial_charges,
    replay,
    special_faces,
)
from .coloring import (
    EdgeColoring,
    EliminationPlan,
    ExtensionFailed,
    ListTooSmall,
    PlanStep,
    acyclic_edge_color,
    acyclic_edge_color_lists,
    build_elimination_plan,
    color_run,
    oracle_chi_a,
    palette_size,
    verify_acyclic,
)
from .corpus import (
    NAMED_INSTANCES,
    Graph6Error,
    DrawingFormatError,
    XorShift64Star,
    gen_plane_triangulation,
    gen_random_oneplanar,
    named_instance,
    parse_graph6,
    read_drawing_json,
    save_drawing,
    write_drawing_json,
    write_graph6,
)

__version__ = "0.1.0"
