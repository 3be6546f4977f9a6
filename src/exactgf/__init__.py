"""Exact-arithmetic toolkit for guessing and certifying rational
generating functions: C-finite recurrence fitting, Matrix-Tree counting on
graph-times-path families, vertical-edge statistics, and banded Toeplitz
determinant/permanent transfer schemes."""

from .cfinite import CFiniteSpec, c_to_r, guess_rec, guess_rec1, guess_sym_rec, seq_from_rec
from .core import (
    LinearSolution,
    Matrix,
    Poly,
    Rational,
    RationalFunction,
    det_bareiss,
    poly_gcd,
    solve_linear,
    taylor_coeffs,
)
from .graphs import (
    LabeledGraph,
    VAR_V,
    grid_graph,
    laplacian,
    path_graph,
    product_with_path,
    spanning_tree_count,
    two_forest_count,
    ver_polynomial,
)
from .spanning import (
    GFResult,
    MomentsReport,
    c_poly,
    resistance_bound_constant,
    gf_grid,
    gf_spanning,
    gf_two_forest,
    gf_ver,
    gf_ver_grid,
    moments,
    resistance,
    substitute_v,
)
from .toeplitz import (
    ToeplitzSpec,
    TransferScheme,
    children_scheme,
    expand_minor,
    gf_family_guess,
    gf_transfer,
    matrix_from_spec,
    ryser_permanent,
    transfer_sequence,
    value_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
