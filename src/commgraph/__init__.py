"""Commuting graphs of generalized dihedral groups over finite abelian groups.

Every closed-form invariant (structure, degrees, edges, chromatic number,
detour eccentricities, metric dimension, resolving polynomial) is paired with
an independent brute-force oracle; reports state where the two agree.
"""

from .abelian import MAX_ORDER, AbelianGroup, GroupSpecError, parse_group_spec
from .dihedral import (
    DihedralElement,
    ElementaryAbelian2Error,
    OmegaPartition,
    all_elements,
    block_label,
    center,
    commutes,
    commutes_by_multiplication,
    d_identity,
    d_mul,
    format_element,
    omega_partition,
    part_kind,
)
from .graph import (
    CapExceededError,
    CommutingGraph,
    GraphShapeError,
    build_commuting_graph,
    build_structural_graph,
    check_parameters,
    edge_sets_equal,
    to_adjacency_csv,
    to_dot,
)
from .invariants import (
    chromatic_number_formula,
    chromatic_number_oracle,
    construct_coloring,
    degree_formula,
    edge_count_formula,
    is_proper_coloring,
)
from .detour import (
    DetourProfile,
    detour_ecc_formula,
    detour_ecc_oracle,
    detour_ecc_reference,
    detour_profile,
    detour_radius_diameter_formula,
)
from .resolving import (
    ResolvingPolynomial,
    distance_matrix,
    exists_resolving_set,
    is_resolving,
    metric_dimension_formula,
    metric_dimension_oracle,
    resolving_polynomial_formula,
    resolving_polynomial_oracle,
    twin_lower_bound,
)
from .report import (
    CSV_COLUMNS,
    Caps,
    DEFAULT_CAPS,
    all_abelian_specs,
    build_report,
    report_for_spec,
    report_to_row,
    run_sweep,
)

__version__ = "0.1.0"
