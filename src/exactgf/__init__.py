"""Exact-arithmetic toolkit for guessing and certifying rational
generating functions: C-finite recurrence fitting, Matrix-Tree counting on
graph-times-path families, vertical-edge statistics, and banded Toeplitz
determinant/permanent transfer schemes.

Importing the package loads none of its submodules: each public name,
and each submodule name, is imported on first access (PEP 562), so a
program pays only for the modules it uses."""

from importlib import import_module as _import_module

#: Each submodule and the public names it exports.
_EXPORTS = {
    "cfinite": ("CFiniteSpec", "c_to_r", "guess_rec", "guess_rec1", "guess_sym_rec",
                "seq_from_rec"),
    "core": ("LinearSolution", "Matrix", "Poly", "Rational", "RationalFunction",
             "det_bareiss", "poly_gcd", "solve_linear", "taylor_coeffs"),
    "graphs": ("LabeledGraph", "VAR_V", "grid_graph", "laplacian", "path_graph",
               "product_with_path", "spanning_tree_count", "two_forest_count",
               "ver_polynomial"),
    "spanning": ("GFResult", "MomentsReport", "c_poly", "resistance_bound_constant",
                 "gf_grid", "gf_spanning", "gf_two_forest", "gf_ver", "gf_ver_grid",
                 "moments", "resistance", "substitute_v"),
    "toeplitz": ("ToeplitzSpec", "TransferScheme", "children_scheme", "expand_minor",
                 "gf_family_guess", "gf_transfer", "matrix_from_spec", "ryser_permanent",
                 "transfer_sequence", "value_sequence"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cfinite", "cli", "core", "errors", "graphs", "spanning", "toeplitz")

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    elif name in _SOURCE:
        value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
