"""Recurrence guessing, replay, and conversion to generating functions."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactgf import (
    CFiniteSpec,
    Poly,
    RationalFunction,
    c_to_r,
    guess_rec,
    guess_rec1,
    guess_sym_rec,
    seq_from_rec,
    taylor_coeffs,
)
from exactgf.errors import DataTooShort

A001353 = [1, 4, 15, 56, 209, 780, 2911, 10864, 40545, 151316]


def test_guess_rec1_constant():
    spec = guess_rec1([1, 1, 1, 1, 1, 1, 1], 1)
    assert spec.initial == (1,) and list(spec.rec) == [1]


def test_guess_rec1_grid_two_rows():
    spec = guess_rec1(A001353, 2)
    assert list(spec.initial) == [1, 4]
    assert list(spec.rec) == [4, -1]


def test_guess_rec1_rejects_broken_geometric():
    assert guess_rec1([1, 2, 4, 8, 16, 32, 64, 129], 1) is None


def test_guess_rec1_data_too_short():
    with pytest.raises(DataTooShort):
        guess_rec1([1, 2, 3, 4], 1)


def test_guess_rec_minimal_order():
    spec = guess_rec(A001353)
    assert list(spec.rec) == [4, -1]
    assert guess_rec([1, 2, 4, 8, 16, 32, 64, 128, 256, 512]).rec == (2,)


def test_guess_rec_too_short_returns_none():
    assert guess_rec([1, 2, 3]) is None


def test_guess_rec_order_exact_when_no_lower_fit():
    # tribonacci has no order-1 or order-2 fit, so exactly 3 is reported
    data = [0, 1, 1]
    while len(data) < 12:
        data.append(data[-1] + data[-2] + data[-3])
    assert guess_rec(data).order == 3


def test_guess_sym_rec_matches_plain_when_palindromic():
    # needs only 7 terms where the plain guesser would need 7 as well for
    # order 2, but the symmetric system has a single unknown
    spec = guess_sym_rec([1, 4, 15, 56, 209, 780, 2911])
    assert list(spec.rec) == [4, -1]


def test_guess_sym_rec_all_ones():
    spec = guess_sym_rec([1, 1, 1, 1, 1, 1])
    assert list(spec.rec) == [1]


def test_guess_sym_and_plain_agree_as_sequences():
    rng = random.Random(9)
    for _ in range(60):
        d = rng.randint(1, 4)
        spec = CFiniteSpec(
            [Fraction(rng.randint(-4, 4)) for _ in range(d)],
            [Fraction(rng.randint(-3, 3)) for _ in range(d)],
        )
        data = seq_from_rec(spec, 4 * d + 8)
        plain = guess_rec(data)
        sym = guess_sym_rec(data)
        assert plain is not None
        if sym is not None:
            n = 4 * len(data)
            assert seq_from_rec(plain, n) == seq_from_rec(sym, n)


_NON_INTEGER_SCALES = st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(
    lambda c: c.denominator > 1)


@st.composite
def _random_specs(draw):
    d = draw(st.integers(1, 4))
    return CFiniteSpec(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)),
                       draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))


@st.composite
def _palindromic_specs(draw):
    """Denominator 1 - sum(r[i] t^i) with c_i = eps * c_(d-i), c_0 = 1."""
    d = draw(st.integers(1, 5))
    eps = draw(st.sampled_from((1, -1)))
    c = [1] + [0] * d
    for i in range(1, d // 2 + 1):
        ci = draw(st.integers(-4, 4)) if 2 * i != d or eps == 1 else 0
        c[i], c[d - i] = ci, eps * ci
    c[d] = eps
    return CFiniteSpec(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)),
                       [-x for x in c[1:]])


def _same_fit_after_scaling(guesser, data, scale):
    plain = guesser(data)
    scaled = guesser([scale * x for x in data])
    assert (plain is None) == (scaled is None)
    if plain is not None:
        assert scaled.rec == plain.rec
        assert all(isinstance(r, Fraction) for r in scaled.rec)
        assert scaled.initial == tuple(scale * x for x in plain.initial)


@settings(max_examples=80, deadline=None)
@given(_random_specs(), _NON_INTEGER_SCALES)
def test_guess_rec_is_scale_invariant(spec, scale):
    _same_fit_after_scaling(guess_rec, seq_from_rec(spec, 2 * spec.order + 6), scale)


@settings(max_examples=80, deadline=None)
@given(_palindromic_specs(), _NON_INTEGER_SCALES)
def test_guess_sym_rec_is_scale_invariant(spec, scale):
    data = seq_from_rec(spec, spec.order + (spec.order + 1) // 2 + 5)
    assert guess_sym_rec(data) is not None
    _same_fit_after_scaling(guess_sym_rec, data, scale)


def test_seq_from_rec_examples():
    assert seq_from_rec(CFiniteSpec([1, 4], [4, -1]), 6) == [1, 4, 15, 56, 209, 780]
    assert seq_from_rec(CFiniteSpec([1], [1]), 4) == [1, 1, 1, 1]
    fib = seq_from_rec(CFiniteSpec([0, 1], [1, 1]), 8)
    assert fib == [0, 1, 1, 2, 3, 5, 8, 13]


def test_round_trip_random_specs():
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randint(1, 4)
        spec = CFiniteSpec(
            [Fraction(rng.randint(-5, 5)) for _ in range(d)],
            [Fraction(rng.randint(-3, 3)) for _ in range(d)],
        )
        data = seq_from_rec(spec, 2 * d + 6)
        guessed = guess_rec(data)
        assert guessed is not None
        assert guessed.order <= d
        # sequences must agree well beyond the data window
        n = 4 * d
        assert seq_from_rec(guessed, n) == seq_from_rec(spec, n)


def test_c_to_r_fibonacci_style():
    f = c_to_r(CFiniteSpec([1, 1], [1, 1]))
    assert f == RationalFunction(Poly([1]), Poly([1, -1, -1]))


def test_c_to_r_grid_two_rows():
    f = c_to_r(CFiniteSpec([1, 4], [4, -1]))
    assert f == RationalFunction(Poly([1]), Poly([1, -4, 1]))


def test_c_to_r_geometric():
    f = c_to_r(CFiniteSpec([1], [1]))
    assert f == RationalFunction(Poly([1]), Poly([1, -1]))


def test_c_to_r_series_matches_replay():
    rng = random.Random(23)
    for _ in range(60):
        d = rng.randint(1, 4)
        spec = CFiniteSpec(
            [Fraction(rng.randint(-5, 5)) for _ in range(d)],
            [Fraction(rng.randint(-3, 3)) for _ in range(d)],
        )
        f = c_to_r(spec)
        n = 2 * d + 12
        assert taylor_coeffs(f, n) == seq_from_rec(spec, n)


def test_guess_rec_polynomial_data():
    # terms are polynomials in v; the recurrence lives over Q(v)
    v = Poly([0, 1])
    a = Poly([1])
    data = [a, v]
    for _ in range(10):
        data.append((v + 1) * data[-1] - data[-2])
    spec = guess_rec(data)
    assert spec is not None
    assert spec.order == 2
    assert spec.rec[0] == v + 1
    assert spec.rec[1] == Poly([-1])


def test_grid_three_rows_order_four():
    # first 20 spanning-tree counts of the 3-row grid family
    from exactgf import grid_graph, spanning_tree_count

    data = [spanning_tree_count(grid_graph(3, n)) for n in range(1, 21)]
    spec = guess_rec(data)
    assert spec.order == 4
    assert [Fraction(r) for r in spec.rec] == [15, -32, 15, -1]


def test_grid_four_rows_symmetric_order_eight():
    # 28 terms suffice for the symmetric guesser at order 8; the implied
    # denominator is the known degree-8 palindrome
    from exactgf import grid_graph, spanning_tree_count

    data = [spanning_tree_count(grid_graph(4, n)) for n in range(1, 29)]
    spec = guess_sym_rec(data)
    assert spec.order == 8
    den = [1] + [-r for r in spec.rec]
    assert den == [1, -56, 672, -2632, 4094, -2632, 672, -56, 1]
