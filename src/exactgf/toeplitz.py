"""Almost-diagonal (banded) Toeplitz matrices: construction from the
row/column prefix description, determinant and permanent sequences, and
their generating functions by two independent routes.

A family is given by the first k1 entries of the first row and the first
k2 entries of the first column (shared corner entry).  The entry on
diagonal offset o = column - row is

    d(o) = row[o]   for 0 <= o < k1,
    d(o) = col[-o]  for -k2 < o < 0,
    d(o) = 0        otherwise.

Route one guesses a recurrence from a window of exactly computed values.
Route two expands recursively along the first row and observes that every
minor that can ever appear is described, dimension-independently, by the
set of diagonal offsets of its surviving columns inside the window
(-k2, k1): exactly k2 - 1 columns are missing from that window, all other
columns are intact.  Cofactor expansion acts on those offset patterns by
delete-shift-refill, and the pattern space is finite.  With T the
transition matrix of the m patterns, f(A_n) = (T^n)_(root,root): sparse
integer products give the values, and by Cayley-Hamilton one fit of order
<= m through 2m + 4 of them is a proof, not a guess (Wiedemann's scheme).
States are keyed by offset pattern (not by entry values), so families with
repeated values are handled correctly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Matrix, RationalFunction, _bareiss_pivots, det_bareiss
# not called here; perfbench/tracing.py wraps these bindings
from .core import solve_linear, taylor_coeffs  # noqa: F401
from .errors import (
    BadState,
    BudgetExceeded,
    InconsistentSpec,
    InternalInconsistency,
    NoFitWithinBudget,
)
from .cfinite import HELD_OUT, fit, guess_rec, guess_window

#: Largest dimension the exponential permanent oracle will accept.
PERMANENT_ORACLE_CAP = 20


@dataclass(frozen=True)
class ToeplitzSpec:
    """Dimension plus first-row and first-column prefixes."""

    n: int
    row: tuple
    col: tuple

    def __post_init__(self):
        row, col = _checked_prefixes(self.row, self.col)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        if self.n < 1:
            raise ValueError("dimension must be positive")


def _checked_prefixes(row, col):
    """(row, col) as tuples; InconsistentSpec unless both are nonempty and
    share entry (1,1)."""
    row, col = tuple(row), tuple(col)
    if not row or not col:
        raise InconsistentSpec("prefixes must be nonempty")
    if row[0] != col[0]:
        raise InconsistentSpec("row and column prefixes must share entry (1,1)")
    return row, col


def matrix_from_spec(spec: ToeplitzSpec) -> Matrix:
    """The n x n matrix with the given diagonal stencil: row i is the slice
    of d(-(n-1)), ..., d(n-1) that starts at d(-i)."""
    n = spec.n
    row, col = spec.row[:n], spec.col[1:n]
    stencil = (0,) * (n - 1 - len(col)) + col[::-1] + row + (0,) * (n - len(row))
    return Matrix(stencil[n - 1 - i:2 * n - 1 - i] for i in range(n))


# ---------------------------------------------------------------------------
# permanents
# ---------------------------------------------------------------------------

def ryser_permanent(m: Matrix):
    """Permanent by Ryser's inclusion-exclusion with Gray-code updates.

    Exponential in the dimension; callers cap it (see value_sequence)."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("permanent needs a square matrix")
    if n == 0:
        return 1
    rows = m.rows
    sums = [0] * n
    total = 0
    gray = 0
    bits = 0
    for s in range(1, 1 << n):
        new_gray = s ^ (s >> 1)
        j = (gray ^ new_gray).bit_length() - 1
        if new_gray & (1 << j):
            for i in range(n):
                sums[i] += rows[i][j]
            bits += 1
        else:
            for i in range(n):
                sums[i] -= rows[i][j]
            bits -= 1
        gray = new_gray
        prod = 1
        for x in sums:
            prod *= x
            if not prod:
                break
        if prod:
            total += -prod if bits & 1 else prod
    return -total if n & 1 else total


# ---------------------------------------------------------------------------
# value sequences and the guessing route
# ---------------------------------------------------------------------------

def value_sequence(row, col, mode: str, count: int):
    """[f(A_1), ..., f(A_count)] where f is det or perm.

    Every A_n is the leading block of A_count, so one exact elimination of
    A_count yields all the determinants as its pivots; from its first zero
    pivot on, where the elimination swaps rows, each further one is its
    own det_bareiss.  Permanents use the inclusion-exclusion oracle up to
    dimension 20 (BudgetExceeded beyond that, pointing at
    transfer_sequence, which has no such cap)."""
    if mode not in ("det", "perm"):
        raise ValueError("mode must be 'det' or 'perm'")
    if count < 1:
        raise ValueError("count must be positive")
    if mode == "perm" and count > PERMANENT_ORACLE_CAP:
        raise BudgetExceeded(
            f"permanent oracle is capped at n={PERMANENT_ORACLE_CAP}; "
            f"use transfer_sequence(children_scheme(row, col, 'perm'), count)"
        )
    out = []
    if mode == "det":
        for d in _bareiss_pivots(matrix_from_spec(ToeplitzSpec(count, row, col))):
            out.append(d)
            if not d:
                break
    for n in range(len(out) + 1, count + 1):
        m = matrix_from_spec(ToeplitzSpec(n, row, col))
        out.append(det_bareiss(m) if mode == "det" else ryser_permanent(m))
    return out


def gf_family_guess(row, col, mode: str, fit_start: int = 10,
                    fit_end: int = 50) -> RationalFunction:
    """Generating function 1 + sum(f(A_n) t^n) fitted on the window
    [fit_start, fit_end] of exactly computed values.

    cfinite.fit guesses on that window of 1, f(A_1), ..., f(A_fit_end) (1
    for the empty matrix), emits the function and checks it against every
    term.  f(A_n) has a recurrence of order <= scheme_size_bound(row, col)
    (gf_transfer), so the window 1..guess_window of that bound always
    fits, and the fit is proved."""
    if not 1 <= fit_start < fit_end:
        raise ValueError("need 1 <= fit_start < fit_end")
    data = value_sequence(row, col, mode, fit_end)
    spec, rf = fit([1, *data], fit_start, fit_end + 1 - fit_start, guess_rec)
    if spec is None:
        raise NoFitWithinBudget(f"no recurrence found on window {fit_start}..{fit_end}", data)
    if rf is None:
        raise NoFitWithinBudget("window recurrence does not extend to the whole sequence", data)
    return rf


# ---------------------------------------------------------------------------
# the transfer route: minor shapes and their closure
# ---------------------------------------------------------------------------

class TransferScheme:
    """Closed set of minor states plus signed, t-weighted transitions.

    A state is the sorted tuple of diagonal offsets, relative to the
    minor's first row, of the window columns still present; states[0] is
    the root (the full matrix).  transitions[i] lists (coefficient,
    target_index) pairs for state i; coefficients carry the cofactor
    signs in det mode and are unsigned in perm mode."""

    __slots__ = ("row", "col", "mode", "states", "transitions")

    def __init__(self, row, col, mode, states, transitions):
        self.row = tuple(row)
        self.col = tuple(col)
        self.mode = mode
        self.states = tuple(states)
        self.transitions = tuple(tuple(t) for t in transitions)

    def __len__(self):
        return len(self.states)


def _diag_value(row, col, o: int):
    if 0 <= o < len(row):
        return row[o]
    if 0 < -o < len(col):
        return col[-o]
    return 0


def _prefixes(row, col, offsets):
    """The entry prefixes, up to their last nonzero entry, of the first
    row and first column of the minor with these sorted offsets: the
    human-readable form of a state.  The minor contributes 0 in every
    dimension when either is empty."""
    vals = [_diag_value(row, col, o) for o in offsets]
    while vals and not vals[-1]:
        vals.pop()
    col_vals = [_diag_value(row, col, o) for o in range(offsets[0], -len(col), -1)]
    while col_vals and not col_vals[-1]:
        col_vals.pop()
    return tuple(vals), tuple(col_vals)


def expand_minor(row, col, offsets, mode: str = "det"):
    """One cofactor-expansion step along the first row of the minor with
    the given sorted offsets.

    Returns (coefficient, child_offsets) pairs for each nonzero first-row
    entry; children whose first row or first column is all zero (their
    determinant and permanent are 0) are returned too and pruned by
    children_scheme."""
    if mode not in ("det", "perm"):
        raise ValueError("mode must be 'det' or 'perm'")
    k1, k2 = len(row), len(col)
    offsets = tuple(offsets)
    if (len(offsets) != k1 or any(o < -k2 or o > k1 - 1 for o in offsets)
            or any(a >= b for a, b in zip(offsets, offsets[1:]))):
        raise BadState(f"offsets {offsets} impossible for a {k1}/{k2} family")
    out = []
    for pos, o in enumerate(offsets):
        value = _diag_value(row, col, o)
        if not value:
            continue
        sign = 1 if (mode == "perm" or pos % 2 == 0) else -1
        child = tuple(x - 1 for x in offsets if x != o) + (k1 - 1,)
        out.append((sign * value, child))
    return tuple(out)


def children_scheme(row, col, mode: str = "det") -> TransferScheme:
    """Least fixed point of expand_minor from the root range(k1), with
    zero-contribution states (empty column prefix) pruned.

    Only the column prefix can be empty.  Let K be the largest offset
    with d(K) != 0; K >= 0 as soon as the root has a child.  Index the
    rows and columns of A_n from 0: the minor left after expanding rows
    0..j-1 has lost one column c per row i < j, with d(c - i) != 0, so
    c <= i + K < j + K.  Column j + K is still there, and its entry in
    the minor's first row, row j, is d(K) != 0: every reachable state
    has a nonempty row prefix.

    Every kept state contains offset k1 - 1 (the column refilled by each
    expansion, and the root's last), and a nonempty column prefix puts
    its other k1 - 1 offsets in -k2 + 1 .. k1 - 2, so the closure has at
    most C(k1 + k2 - 2, k1 - 1) states (scheme_size_bound) and needs no
    cap; the bound is tight (252 states for the all-ones 6/6 band)."""
    row, col = _checked_prefixes(row, col)
    states = [tuple(range(len(row)))]
    index = {states[0]: 0}
    raw_transitions = []
    for offsets in states:  # grows while it is walked: breadth-first order
        transitions = []
        for coeff, child in expand_minor(row, col, offsets, mode):
            if child not in index:
                if not _prefixes(row, col, child)[1]:
                    continue  # an all-zero first column: 0 in every dimension
                index[child] = len(states)
                states.append(child)
            transitions.append((coeff, index[child]))
        raw_transitions.append(transitions)
    return TransferScheme(row, col, mode, states, raw_transitions)


def scheme_size_bound(row, col) -> int:
    """C(k1 + k2 - 2, k1 - 1), children_scheme's proved bound on its states."""
    return math.comb(len(row) + len(col) - 2, len(row) - 1)


def transfer_sequence(scheme: TransferScheme, count: int) -> list:
    """[c_0, ..., c_count] with c_n = (T^n)_(root,root) = f(A_n) (c_0 = 1,
    the empty matrix), T the scheme's transition matrix, by sparse
    products x <- Tx from the root's unit vector: there is no cap on n,
    and integer families stay in the integers."""
    x = [1] + [0] * (len(scheme) - 1)
    out = [1]
    for _ in range(count):
        x = [sum(c * x[j] for c, j in transitions) for transitions in scheme.transitions]
        out.append(x[0])
    return out


def gf_transfer(row, col, mode: str = "det") -> RationalFunction:
    """Generating function 1 + sum(f(A_n) t^n) from the transfer scheme.

    With m states, Cayley-Hamilton gives transfer_sequence a recurrence of
    order at most m, and any order-m recurrence through 2m of its terms
    matches it forever, so the fit of cfinite.fit to its first
    guess_window(m) = 2m + 4 terms (orders <= m) is proved, not guessed;
    HELD_OUT more terms are generated and replayed with them.  A failed
    fit is a bug and raises InternalInconsistency."""
    scheme = children_scheme(row, col, mode)
    m = len(scheme)
    _spec, rf = fit(transfer_sequence(scheme, guess_window(m) - 1 + HELD_OUT), 0,
                    guess_window(m), guess_rec)
    if rf is None:
        raise InternalInconsistency(f"{m} transfer states but no order-{m} recurrence")
    return rf


def _state_to_json(scheme: TransferScheme, offsets) -> dict:
    row, col = _prefixes(scheme.row, scheme.col, offsets)
    return {
        "offsets": list(offsets),
        "row": [str(x) for x in row],
        "col": [str(x) for x in col],
    }


def scheme_to_json(scheme: TransferScheme) -> dict:
    """Stable debugging dump: states in closure order, then transitions."""
    return {
        "row": [str(x) for x in scheme.row],
        "col": [str(x) for x in scheme.col],
        "mode": scheme.mode,
        "states": [_state_to_json(scheme, s) for s in scheme.states],
        "transitions": [
            [[str(c), j] for c, j in row] for row in scheme.transitions
        ],
    }

