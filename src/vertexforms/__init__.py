"""Exact combinatorics of six- and eight-vertex models on rectangular grids.

Six-vertex states are studied through discrete 1-forms over F3 and
proper 3-colorings (forms_rect, toroidal), eight-vertex states through
F2 linear algebra (eightvertex), and families of Boltzmann weights
through the Yang-Baxter equation (yangbaxter).  Counts and partition
functions come from one transfer sweep (transfer).  All arithmetic is
exact: prime fields and rationals, never floats.
"""

from .algebra import (
    GF2,
    GF3,
    QQ,
    FieldMatrix,
    PrimeField,
    RationalField,
    mat_sub,
    mat_vec,
    matmul,
    nullspace_basis,
    pivot_columns,
    rank,
    rref,
)
from .grid import (
    SIZE_GUARD_BITS,
    BoundarySpec,
    GridShape,
    LatticeState,
    SizeGuardError,
    StateFormatError,
    boundary_of,
    deserialize_boundary,
    deserialize_state,
    edges_at_vertex,
    guard_size,
    serialize_boundary,
    serialize_state,
)
from .forms_rect import (
    Coloring,
    OneForm,
    ScalarField,
    antiderivative,
    closedness_matrix,
    coloring_from_form,
    count_colorings,
    count_six,
    enumerate_closed,
    enumerate_six,
    exterior_derivative,
    form_from_coloring,
    form_to_state,
    is_admissible_form,
    is_admissible_six,
    is_closed,
    is_proper,
    random_closed_form,
    random_proper_coloring,
    state_to_form,
)
from .transfer import (
    EIGHT_VERTEX,
    PATTERNS,
    SIX_VERTEX,
    count_states,
    weighted_sum,
)
from .toroidal import (
    CohomologyDecomposition,
    FiberEntry,
    PeriodicField,
    ToroidalOneForm,
    admissible_shifts,
    count_six_toroidal,
    decompose,
    enumerate_six_toroidal,
    has_toroidal_boundary,
    index_reduce,
    is_closed_toroidal,
    is_sparse,
    reconstruct,
    sparse_fibers,
    state_to_sparse,
    state_to_toroidal_form,
    toroidal_derivatives,
)
from .eightvertex import (
    DefectMap,
    boundary_parity,
    construct_state,
    count_total,
    count_valid_boundaries,
    count_with_boundary,
    defect_map,
    defect_vector,
    enumerate_eight,
    is_admissible_eight,
)
from .yangbaxter import (
    RESIDUALS28_LABELS,
    BoundaryHex,
    ConditionReport,
    SolveReport,
    VertexWeights,
    WeightFormatError,
    check_necessary_conditions,
    component,
    deserialize_weights,
    embed,
    f_invariant,
    g_invariant,
    matrix_to_weights,
    partition_function,
    residuals28,
    serialize_weights,
    solve_R,
    star_triangle_residual,
    star_triangle_residuals,
    weights_from_vector,
    weights_to_matrix,
    yb_commutator,
)
