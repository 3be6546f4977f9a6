"""Banded Toeplitz families: construction, value sequences, minor-state
schemes, and the two generating-function routes."""
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from exactgf import (
    Matrix,
    Poly,
    RationalFunction,
    ToeplitzSpec,
    c_to_r,
    children_scheme,
    det_bareiss,
    expand_minor,
    gf_family_guess,
    gf_transfer,
    guess_rec1,
    matrix_from_spec,
    ryser_permanent,
    taylor_coeffs,
    transfer_sequence,
    value_sequence,
)
from exactgf import toeplitz
from exactgf.cfinite import guess_window
from exactgf.errors import (
    BadState,
    BudgetExceeded,
    InconsistentSpec,
    InternalInconsistency,
    NoFitWithinBudget,
)
from exactgf.toeplitz import _prefixes, scheme_size_bound, scheme_to_json

from oracles import (
    children_scheme_minor_states,
    gf_transfer_field,
    matrix_from_spec_entrywise,
    naive_det,
    permutation_permanent,
    random_toeplitz_prefixes,
    scheme_to_json_minor_states,
)


def rf(num, den):
    return RationalFunction(Poly(num), Poly(den))


# --- construction -------------------------------------------------------------

def test_matrix_from_spec_displayed_example():
    m = matrix_from_spec(ToeplitzSpec(6, (1, 2, 3), (1, 4)))
    assert m.rows == (
        (1, 2, 3, 0, 0, 0),
        (4, 1, 2, 3, 0, 0),
        (0, 4, 1, 2, 3, 0),
        (0, 0, 4, 1, 2, 3),
        (0, 0, 0, 4, 1, 2),
        (0, 0, 0, 0, 4, 1),
    )


_ENTRIES = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))


@given(st.lists(_ENTRIES, min_size=1, max_size=6), st.lists(_ENTRIES, max_size=5))
def test_matrix_from_spec_matches_the_entrywise_oracle(row, col_tail):
    # every n from 1 up, so n < len(row) and n < len(col) are both covered
    col = [row[0], *col_tail]
    for n in range(1, len(row) + len(col) + 2):
        spec = ToeplitzSpec(n, row, col)
        assert repr(matrix_from_spec(spec)) == repr(matrix_from_spec_entrywise(spec))


def test_matrix_from_spec_trivial():
    assert matrix_from_spec(ToeplitzSpec(1, (7,), (7,))).rows == ((7,),)
    m = matrix_from_spec(ToeplitzSpec(3, (1, 2), (1, 4)))
    assert m.rows == ((1, 2, 0), (4, 1, 2), (0, 4, 1))


def test_matrix_from_spec_rejects_mismatched_corner():
    with pytest.raises(InconsistentSpec):
        ToeplitzSpec(3, (1, 2), (2, 4))


def test_zero_pattern_invariant():
    rng = random.Random(50)
    for _ in range(40):
        row, col = random_toeplitz_prefixes(rng)
        n = rng.randint(1, 7)
        m = matrix_from_spec(ToeplitzSpec(n, row, col))
        k1, k2 = len(row), len(col)
        for i in range(n):
            for j in range(n):
                if j - i >= k1 or i - j >= k2:
                    assert m[i, j] == 0


# --- value sequences -------------------------------------------------------------

def test_det_sequence_frozen_oracle_values():
    # direct cofactor expansion of the 1x1..3x3 matrices gives 2, -8, 5
    assert value_sequence([2, 3], [2, 4, 5], "det", 3) == [2, -8, 5]


def test_det_sequence_diagonal_powers():
    assert value_sequence([7], [7], "det", 4) == [7, 49, 343, 2401]


def test_perm_sequence_fibonacci():
    assert value_sequence([1, 1], [1, 1], "perm", 3) == [1, 2, 3]
    assert value_sequence([1, 1], [1, 1], "perm", 8) == [1, 2, 3, 5, 8, 13, 21, 34]


def test_det_sequence_past_a_zero_pivot():
    assert value_sequence([0, 1], [0, 1], "det", 6) == [0, -1, 0, 1, 0, -1]
    assert value_sequence([0], [0, 1], "det", 3) == [0, 0, 0]


def test_perm_oracle_cap():
    with pytest.raises(BudgetExceeded):
        value_sequence([1, 1], [1, 1], "perm", 21)


def test_perm_transfer_mode_beyond_cap():
    got = transfer_sequence(children_scheme([1, 1], [1, 1], "perm"), 25)[1:]
    fib = [1, 2]
    while len(fib) < 25:
        fib.append(fib[-1] + fib[-2])
    assert got == fib


def test_ryser_matches_permutation_brute_force():
    rng = random.Random(60)
    for _ in range(60):
        n = rng.randint(0, 6)
        m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert ryser_permanent(m) == permutation_permanent(m)


# --- guessing route ------------------------------------------------------------

def test_gf_family_guess_known_example():
    got = gf_family_guess([2, 3], [2, 4, 5], "det", 10, 50)
    assert got == rf([1], [1, -2, 12, -45])  # == -1/(45t^3-12t^2+2t-1)


def test_gf_family_guess_geometric():
    assert gf_family_guess([3], [3], "det", 2, 12) == rf([1], [1, -3])


def test_gf_family_guess_perm_fibonacci():
    got = gf_family_guess([1, 1], [1, 1], "perm", 2, 16)
    assert got == rf([1], [1, -1, -1])


# --- minor states and schemes ------------------------------------------------------

def test_expand_minor_diagonal_self_loop():
    assert expand_minor([7], [7], (0,)) == ((7, (0,)),)


def test_expand_minor_banded_example():
    row, col = [2, 3], [2, 4, 5]
    children = expand_minor(row, col, (0, 1))
    assert children == ((2, (0, 1)), (-3, (-1, 1)))
    assert _prefixes(row, col, (0, 1)) == ((2, 3), (2, 4, 5))  # the family itself
    assert _prefixes(row, col, (-1, 1)) == ((4, 3), (4, 5))    # shortened column


def test_expand_minor_soundness_against_minors():
    # det(minor) = sum(coeff * det(child minor)) for each scheme state,
    # checked by rebuilding the concrete minors inside a fixed dimension
    for row, col in (([2, 3], [2, 4, 5]), ([1, 2], [1, 4]), ([1, 1, 2], [1, 3])):
        scheme = children_scheme(row, col)
        dim = len(row) + len(col) + 2
        for idx, state in enumerate(scheme.states):
            parent = _minor_matrix(row, col, state, dim)
            want = naive_det(parent)
            acc = 0
            for coeff, j in scheme.transitions[idx]:
                child = _minor_matrix(row, col, scheme.states[j], dim - 1)
                acc += coeff * naive_det(child)
            assert acc == want


def _minor_matrix(row, col, offsets, dim) -> Matrix:
    """Concrete dim x dim matrix of the minor a state describes: rows are
    consecutive, window columns are the given offsets, then the full tail."""
    k1 = len(row)

    def entry(o):
        if 0 <= o < k1:
            return row[o]
        if 0 < -o < len(col):
            return col[-o]
        return 0

    # tail columns continue right after the window
    cols = list(offsets) + list(range(k1, k1 + dim - len(offsets)))
    rows = []
    for i in range(dim):
        rows.append([entry(c - i) for c in cols[:dim]])
    return Matrix(rows)


def test_children_scheme_sizes():
    assert len(children_scheme([7], [7])) == 1
    assert len(children_scheme([1, 2], [1, 4])) == 2   # frozen instrumentation
    assert len(children_scheme([2, 3], [2, 4, 5])) == 3


def test_children_scheme_closure_invariant():
    rng = random.Random(71)
    for _ in range(25):
        row, col = random_toeplitz_prefixes(rng)
        if row[0] == 0 and all(x == 0 for x in row):
            continue
        scheme = children_scheme(row, col)
        n_states = len(scheme.states)
        assert len(scheme.transitions) == n_states
        for trans in scheme.transitions:
            for coeff, j in trans:
                assert 0 <= j < n_states
                assert coeff != 0
        # reachability: BFS construction implies every state is reachable
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for _c, j in scheme.transitions[i]:
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        assert seen == set(range(n_states))


def test_expand_minor_rejects_alien_state():
    # a 2/3 family's states are two increasing offsets in -3..1
    for offsets in ((0,), (0, 1, 2), (0, 2), (-4, 0), (1, 0), (1, 1)):
        with pytest.raises(BadState):
            expand_minor([2, 3], [2, 4, 5], offsets)
    with pytest.raises(InconsistentSpec):
        children_scheme([2, 3], [1, 4, 5])


@pytest.mark.parametrize("row, col", (([0, 1], [0, 0]), ([0], [0, 3]), ([0, 2, 1], [0, 0, 0])))
def test_dead_root_is_one_state_without_transitions(row, col):
    # an all-zero first column (or first row) makes every A_n singular
    for mode in ("det", "perm"):
        scheme = children_scheme(row, col, mode)
        assert scheme.states == (tuple(range(len(row))),)
        assert scheme.transitions == ((),)
        assert transfer_sequence(scheme, 4) == [1, 0, 0, 0, 0]
        assert gf_transfer(row, col, mode) == rf([1], [1])


def test_every_route_rejects_an_empty_prefix():
    # the scheme route checks the prefixes as ToeplitzSpec does, before
    # reading entry (1,1)
    for row, col in (([], [1]), ([1], []), ([], [])):
        with pytest.raises(InconsistentSpec, match="nonempty"):
            ToeplitzSpec(2, row, col)
        with pytest.raises(InconsistentSpec, match="nonempty"):
            children_scheme(row, col)
        with pytest.raises(InconsistentSpec, match="nonempty"):
            gf_transfer(row, col)
        with pytest.raises(InconsistentSpec, match="nonempty"):
            value_sequence(row, col, "det", 3)


def test_children_scheme_bound_is_tight():
    assert len(children_scheme([1] * 6, [1] * 6)) == comb(10, 5) == 252


# --- transfer route -----------------------------------------------------------------

def test_gf_transfer_known_example():
    got = gf_transfer([2, 3], [2, 4, 5], "det")
    assert got == rf([1], [1, -2, 12, -45])


def test_gf_transfer_diagonal():
    assert gf_transfer([5], [5], "det") == rf([1], [1, -5])


def test_gf_transfer_perm_fibonacci():
    assert gf_transfer([1, 1], [1, 1], "perm") == rf([1], [1, -1, -1])


_ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def _bands(draw, width=3):
    """Row and column prefixes of a band up to width/width sharing their
    corner, with int and Fraction entries."""
    corner = draw(_ENTRIES)
    row = [corner] + draw(st.lists(_ENTRIES, max_size=width - 1))
    col = [corner] + draw(st.lists(_ENTRIES, max_size=width - 1))
    return row, col


@settings(max_examples=150, deadline=None)
@given(_bands(width=5), st.sampled_from(("det", "perm")))
@example(([0, 1, 0], [0, 0, 2]), "det")
@example(([0, 2, 0, 1], [0, 1]), "perm")
@example(([0, Fraction(1, 2)], [0, 0, 0, 3]), "det")
def test_children_scheme_matches_the_minor_state_closure(band, mode):
    row, col = band
    scheme = children_scheme(row, col, mode)
    oracle = children_scheme_minor_states(row, col, mode)
    assert json.dumps(scheme_to_json(scheme)) == json.dumps(scheme_to_json_minor_states(oracle))
    assert transfer_sequence(scheme, 12) == transfer_sequence(oracle, 12)
    assert len(scheme) <= scheme_size_bound(row, col) == comb(len(row) + len(col) - 2,
                                                               len(row) - 1)


def _zero_one_bands(width):
    """Every band up to width/width with entries 0 and 1."""
    for k1 in range(1, width + 1):
        for k2 in range(1, width + 1):
            for bits in range(2 ** (k1 + k2 - 1)):
                entries = [bits >> i & 1 for i in range(k1 + k2 - 1)]
                yield entries[:k1], entries[:1] + entries[k1:]


def test_liveness_is_the_column_prefix_on_every_small_zero_one_band():
    # children_scheme tests only the column prefix, as its docstring proves
    # every reachable row prefix nonempty; the closure that tests both agrees
    for row, col in _zero_one_bands(4):
        for mode in ("det", "perm"):
            scheme = children_scheme(row, col, mode)
            oracle = children_scheme_minor_states(row, col, mode)
            assert len(scheme) == len(oracle)
            assert scheme_to_json(scheme) == scheme_to_json_minor_states(oracle)
            if scheme.transitions[0]:
                assert all(_prefixes(row, col, s)[0] for s in scheme.states)


@settings(max_examples=80, deadline=None)
@given(_bands(width=4), st.integers(1, 20))
def test_det_sequence_from_one_elimination_matches_per_term(band, count):
    # small entries make zero leading minors common, which exercises the
    # per-term fallback after the first zero pivot
    row, col = band
    assert value_sequence(row, col, "det", count) == [
        det_bareiss(matrix_from_spec(ToeplitzSpec(n, row, col))) for n in range(1, count + 1)]


@settings(max_examples=60, deadline=None)
@given(_bands(), st.sampled_from(("det", "perm")))
def test_transfer_matches_field_solve(band, mode):
    row, col = band
    assert gf_transfer(row, col, mode) == gf_transfer_field(row, col, mode)


@settings(max_examples=40, deadline=None)
@given(_bands(width=4), st.sampled_from(("det", "perm")), st.integers(1, 20))
def test_transfer_sequence_matches_oracle(band, mode, n):
    row, col = band
    if mode == "perm":
        n = min(n, 12)
    scheme = children_scheme(row, col, mode)
    assert transfer_sequence(scheme, n)[1:] == value_sequence(row, col, mode, n)
    # Cayley-Hamilton: the order is at most the number of states
    assert gf_transfer(row, col, mode).den.degree <= len(scheme)


def test_transfer_four_four_band_matches_guess():
    # order 20, beyond gf_family_guess's default window 10..50; the field
    # solve oracle takes 15-17 s on it (2.1 GHz Xeon), so the guess
    # route is the reference
    row, col = [2, 1, 1, 1], [2, 3, 3, 3]
    got = gf_transfer(row, col, "det")
    assert got.den.degree == 20
    assert got == gf_family_guess(row, col, "det", 10, 70)


@settings(max_examples=40, deadline=None)
@given(_bands(width=4), st.sampled_from(("det", "perm")))
def test_transfer_gcd_free_emission_matches_canonical(band, mode):
    # gf_transfer emits its minimal fit without a gcd; the canonical
    # constructor, gcd included, must give the same value
    row, col = band
    scheme = children_scheme(row, col, mode)
    m = len(scheme)
    spec = guess_rec1(transfer_sequence(scheme, 2 * m + 2), m)
    got = gf_transfer(row, col, mode)
    assert got == c_to_r(spec)
    assert repr(got) == repr(c_to_r(spec))


def test_gf_transfer_replays_its_held_out_terms(monkeypatch):
    # c_(W+1), the first term past the proved window c_1..c_W, off by one,
    # fails the replay
    def off_by_one(scheme, count, real=toeplitz.transfer_sequence):
        out = real(scheme, count)
        window = guess_window(len(scheme))
        if count > window:
            out[window + 1] += 1
        return out

    monkeypatch.setattr(toeplitz, "transfer_sequence", off_by_one)
    with pytest.raises(InternalInconsistency):
        gf_transfer([2, 1, 1], [2, 3, 3], "det")


@pytest.mark.parametrize("mode, n", (("det", 30), ("perm", 12)))
def test_transfer_five_five_band(mode, n):
    # 70 states and order 70; the series is checked against determinants
    # (Bareiss) and permanents (Ryser)
    row, col = [2, 1, 1, 1, 1], [2, 3, 3, 3, 3]
    assert len(children_scheme(row, col, mode)) == 70
    gf = gf_transfer(row, col, mode)
    assert gf.den.degree == 70
    assert taylor_coeffs(gf, n + 1) == [1] + value_sequence(row, col, mode, n)


def test_transfer_series_matches_determinants():
    rng = random.Random(83)
    for _ in range(12):
        row, col = random_toeplitz_prefixes(rng)
        gf = gf_transfer(row, col, "det")
        series = taylor_coeffs(gf, 26)
        data = value_sequence(row, col, "det", 25)
        assert series[0] == 1
        assert series[1:] == [Fraction(x) for x in data]


def test_transfer_series_matches_permanents():
    rng = random.Random(97)
    for _ in range(8):
        row, col = random_toeplitz_prefixes(rng, max_band=3, lo=-2, hi=2)
        gf = gf_transfer(row, col, "perm")
        series = taylor_coeffs(gf, 13)
        data = value_sequence(row, col, "perm", 12)
        assert series[1:] == [Fraction(x) for x in data]


def test_cross_method_agreement_random():
    rng = random.Random(111)
    done = 0
    while done < 10:
        row, col = random_toeplitz_prefixes(rng)
        try:
            guessed = gf_family_guess(row, col, "det", 8, 40)
        except NoFitWithinBudget:
            continue  # degenerate window; the transfer route is the oracle
        assert guessed == gf_transfer(row, col, "det")
        done += 1
