"""Exact combinatorics of six- and eight-vertex models on rectangular grids.

Six-vertex states are studied through discrete 1-forms over F3 and
proper 3-colorings (forms_rect, toroidal), eight-vertex states through
F2 linear algebra (eightvertex), and families of Boltzmann weights
through the Yang-Baxter equation (yangbaxter).  Counts and partition
functions come from one transfer sweep, and state listings from one
column walk on the same vertex table (transfer).  All arithmetic is
exact: prime fields and rationals, never floats.

Importing the package loads no submodule: each public name below is
resolved from its module on first use (PEP 562), so a process pays
only for the modules it reads.
"""

import importlib

# module -> the public names it exports through the package
_EXPORTS = {
    "algebra": (
        "GF2", "GF3", "QQ", "Field", "FieldMatrix", "mat_sub", "matmul",
        "nullspace_basis", "pivot_columns", "rank", "rref",
    ),
    "grid": (
        "SIZE_GUARD_BITS", "BoundarySpec", "GridShape", "LatticeState",
        "InputError", "SizeGuardError", "StateFormatError", "WeightConditionError", "WeightFormatError",
        "boundary_of", "deserialize_boundary", "deserialize_state", "edges_at_vertex",
        "guard_size", "serialize_boundary", "serialize_state", "state_doc",
    ),
    "forms_rect": (
        "Coloring", "OneForm", "ScalarField", "antiderivative", "closedness_matrix",
        "coloring_from_form", "count_colorings", "count_six", "closed_form_tables",
        "enumerate_closed", "enumerate_six", "exterior_derivative",
        "form_from_coloring", "is_admissible_form",
        "is_admissible_six", "is_closed", "is_proper", "random_closed_form",
        "random_closed_forms", "random_proper_coloring", "six_state_tables",
        "state_to_form",
    ),
    "transfer": (
        "EIGHT_VERTEX", "PATTERNS", "SIX_VERTEX", "count_states", "state_tables",
        "weighted_sum",
    ),
    "toroidal": (
        "CohomologyDecomposition", "FiberEntry", "PeriodicField", "ToroidalOneForm",
        "admissible_shifts", "count_six_toroidal", "decompose",
        "closed_toroidal_tables", "enumerate_closed_toroidal", "enumerate_six_toroidal",
        "has_toroidal_boundary", "is_closed_toroidal", "is_sparse",
        "reconstruct", "sparse_fibers", "state_to_sparse", "state_to_toroidal_form",
        "toroidal_derivatives", "toroidal_state_tables",
    ),
    "eightvertex": (
        "boundary_parity", "construct_state", "count_total", "count_valid_boundaries",
        "count_with_boundary", "defect_map", "eight_state_tables", "enumerate_eight",
        "is_admissible_eight",
    ),
    "yangbaxter": (
        "RESIDUALS28_LABELS", "RESIDUALS28_ROWS", "STAR_TRIANGLE_TABLE",
        "ConditionReport", "SolveReport", "VertexWeights", "check_necessary_conditions",
        "commutator_vanishes", "component", "deserialize_weights", "embed",
        "f_invariant", "g_invariant", "partition_function", "residuals28",
        "residuals28_of", "serialize_weights", "solve_R", "star_triangle_residuals",
        "weights_from_vector", "weights_to_matrix", "yb_commutator",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:  # a submodule not yet imported
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _HOME.keys() | _EXPORTS.keys())
