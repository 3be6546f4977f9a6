"""Exact arithmetic core: polynomials, rational functions, determinants,
linear solving."""
import math
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from exactgf import (
    LinearSolution,
    Matrix,
    Poly,
    RationalFunction,
    det_bareiss,
    poly_gcd,
    solve_linear,
    taylor_coeffs,
)
from exactgf.core import _dom_exact_div, _newton_interpolate, bandwidth
from exactgf.errors import InexactDivision, ShapeError, ZeroDenominator
from exactgf.graphs import Evals, Jet
from exactgf.toeplitz import ToeplitzSpec, matrix_from_spec

from oracles import (
    FieldRF,
    bandwidth_all_entries,
    dom_exact_div_ladder,
    naive_det,
    solve_linear_field,
)


# --- polynomials ------------------------------------------------------------

def test_poly_canonical_form():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly().degree == float("-inf")
    assert Poly([5]).degree == 0


def test_poly_add_cancellation():
    assert Poly([1, 1]) + Poly([0, -1]) == Poly([1])


def test_poly_mul_difference_of_squares():
    assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])


def test_poly_exact_div_inverts_mul():
    assert Poly([1, 0, -1]).exact_div(Poly([1, 1])) == Poly([1, -1])


def test_poly_exact_div_rejects_remainder():
    with pytest.raises(InexactDivision):
        Poly([1, 0, 1]).exact_div(Poly([1, 1]))


def test_poly_power_is_repeated_product_and_a_negative_exponent_raises():
    p = Poly([1, -2, 3])
    assert p ** 0 == Poly([1]) and p ** 5 == p * p * p * p * p
    # -1 >> 1 == -1: a squaring loop on n >>= 1 would never end
    with pytest.raises(ValueError):
        Poly((1, 1)) ** -1


def test_poly_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(200):
        def rp():
            return Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
        p, q, r = rp(), rp(), rp()
        assert (p + q) * r == p * r + q * r
        if q:
            assert (p * q).exact_div(q) == p


def test_poly_eval_and_derivative():
    p = Poly([1, 2, 3])  # 1 + 2x + 3x^2
    assert p.eval(2) == 17
    assert p.derivative() == Poly([2, 6])
    assert Poly([7]).derivative() == Poly()


# --- gcd -----------------------------------------------------------------------

def test_poly_gcd_is_primitive_with_positive_lead():
    assert poly_gcd(Poly([1, 0, -1]), Poly([-2, -2])) == Poly([1, 1])
    assert poly_gcd(Poly([Fraction(1, 2), Fraction(1, 3)]), Poly([3, 2])) == Poly([3, 2])
    # one zero argument: the other one, made primitive
    assert poly_gcd(Poly(), Poly([2, 4])) == Poly([1, 2])
    assert poly_gcd(Poly([2, 4]), Poly()) == Poly([1, 2])
    assert poly_gcd(Poly(), Poly([-3])) == Poly([1])
    assert poly_gcd(Poly(), Poly()) == Poly()


def test_poly_gcd_rejects_non_scalar_coefficients():
    with pytest.raises(TypeError):
        poly_gcd(Poly([Poly([0, 1]), 1]), Poly([1, 1]))
    with pytest.raises(TypeError):
        poly_gcd(Poly([1]), Poly([RationalFunction(Poly([1]), Poly([1, 1]))]))


# --- rational functions ------------------------------------------------------

def test_ratfunc_counting_shape():
    f = RationalFunction(Poly([0, 1]), Poly([1, -1]))
    assert f.num == Poly([0, 1]) and f.den == Poly([1, -1])


def test_ratfunc_common_factor_removed():
    f = RationalFunction(Poly([0, 2]), Poly([2, -2]))
    assert f == RationalFunction(Poly([0, 1]), Poly([1, -1]))


def test_ratfunc_integer_numerators_stay_ints():
    # an integral scale must not turn int coefficients into Fraction(k, 1)
    from exactgf import gf_grid, gf_transfer

    f = RationalFunction(Poly([0, 2]), Poly([-2, 4]))
    assert f.num.coeffs == (0, -1)
    for gf in (f, gf_grid(2).gf, gf_transfer([2, 3], [2, 4, 5], "det"),
               gf_transfer([2, -1, 3], [2, 3, -1], "perm")):
        assert all(type(c) is int for c in gf.num.coeffs + gf.den.coeffs), gf


def test_ratfunc_polynomial_result():
    f = RationalFunction(Poly([0, -1, 1]), Poly([-1, 1]))  # (t^2-t)/(t-1)
    assert f.num == Poly([0, 1]) and f.den == Poly([1])


def test_ratfunc_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RationalFunction(Poly([1]), Poly())


def test_ratfunc_idempotent_and_scale_invariant():
    rng = random.Random(3)
    for _ in range(100):
        def rp(lo=0):
            return Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(rng.randint(lo, 4))])
        num, den, g = rp(), rp(1), rp(1)
        if not den or not g:
            continue
        base = RationalFunction(num, den)
        again = RationalFunction(base.num, base.den)
        scaled = RationalFunction(num * g, den * g)
        assert base == again == scaled


def test_ratfunc_zero_is_unique():
    assert RationalFunction(Poly(), Poly([3, 1])) == RationalFunction(Poly())


def test_ratfunc_field_ops():
    # field arithmetic lives on the test oracle's FieldRF only
    one_minus_t = FieldRF(Poly([1]), Poly([1, -1]))
    t = FieldRF(Poly([0, 1]))
    prod = one_minus_t * t
    assert prod == RationalFunction(Poly([0, 1]), Poly([1, -1]))
    assert prod / t == one_minus_t
    assert one_minus_t - one_minus_t == RationalFunction(Poly())
    for name in ("_coerce", "__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        assert not hasattr(RationalFunction, name)


_V_POLYS = st.lists(st.integers(-3, 3), max_size=3).map(Poly)
_NONZERO_V_POLYS = _V_POLYS.filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.lists(_V_POLYS, min_size=1, max_size=3),
       st.lists(_V_POLYS, min_size=1, max_size=3).filter(lambda cs: cs[0]),
       _NONZERO_V_POLYS, st.sampled_from((1, -1)))
def test_bivariate_ratfunc_independent_of_build_order(num_cs, den_cs, u, sign):
    # a common factor u in Z[v] (either sign) cancels into the same
    # representative: joint Z[v] content removed, lowest den coefficient
    # (by t, then v) positive
    u = u * sign
    base = RationalFunction(Poly(num_cs), Poly(den_cs))
    scaled = RationalFunction(Poly([c * u for c in num_cs]), Poly([c * u for c in den_cs]))
    assert base == scaled
    assert hash(base) == hash(scaled)
    if base:
        coeffs = [c for p in (base.num, base.den) for c in p.coeffs]
        assert all(isinstance(c, Poly) for c in coeffs)
        content = Poly()
        for c in coeffs:
            content = poly_gcd(content, c)
        assert content == Poly([1])
        ints = [x for c in coeffs for x in c.coeffs]
        assert all(isinstance(x, int) for x in ints)
        assert math.gcd(*ints) == 1
        first = next(x for c in base.den.coeffs for x in c.coeffs if x)
        assert first > 0


def test_bivariate_ratfunc_sign_and_content():
    v = Poly([0, 1])
    f = RationalFunction(Poly([0, -(2 * v + 2)]), Poly([-(4 * v + 4), 2 * v + 2]))
    assert f.num == Poly([Poly(), Poly([1])])
    assert f.den == Poly([Poly([2]), Poly([-1])])


def test_taylor_geometric():
    f = RationalFunction(Poly([1]), Poly([1, -1]))
    assert taylor_coeffs(f, 5) == [1, 1, 1, 1, 1]


# --- interpolation ------------------------------------------------------------

def test_interpolation_recovers_random_polynomials():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 9)
        ints = [rng.randint(-50, 50) for _ in range(rng.randint(0, n))]
        fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for _ in range(rng.randint(0, n))]
        start = rng.randint(-5, 40)
        for coeffs in (ints, fracs):
            p = Poly(coeffs)
            got = _newton_interpolate([p.eval(x) for x in range(n)])
            assert len(got) == n
            assert Poly(got) == p
            assert Poly(_newton_interpolate([p.eval(start + x) for x in range(n)], start)) == p
        assert all(type(c) is int for c in
                   _newton_interpolate([Poly(ints).eval(x) for x in range(n)]))
        assert all(type(c) is Fraction for c in
                   _newton_interpolate([Fraction(Poly(ints).eval(x)) for x in range(n)]))


def test_interpolation_integer_values_rational_coefficients():
    # x(x-1)/2 takes integer values at integers but has half-integer coefficients
    assert _newton_interpolate([0, 0, 1, 3]) == [0, Fraction(-1, 2), Fraction(1, 2), 0]
    assert _newton_interpolate([]) == []
    assert _newton_interpolate([7]) == [7]


# --- jets ---------------------------------------------------------------------

_JET_COEFFS = st.integers(-30, 30)


@st.composite
def _jet_pairs(draw):
    k = draw(st.integers(1, 6))
    a, b = (draw(st.lists(_JET_COEFFS, min_size=k, max_size=k)) for _ in range(2))
    return Jet(a), Jet(b)


@settings(max_examples=200, deadline=None)
@given(_jet_pairs())
def test_jet_ring_operations_are_truncated_poly_operations(pair):
    a, b = pair
    k = len(a.values)

    def trunc(p):
        return list(p.coeffs[:k]) + [0] * (k - len(p.coeffs[:k]))

    pa, pb = Poly(a.values), Poly(b.values)
    assert list((a * b).values) == trunc(pa * pb)
    assert list((a + b).values) == trunc(pa + pb)
    assert list((a - b).values) == trunc(pa - pb)
    assert list((a ** 3).values) == trunc(pa ** 3)
    assert list((3 - a).values) == trunc(3 - pa)
    assert list((a * -2).values) == list((-2 * a).values) == trunc(pa * -2)


@settings(max_examples=200, deadline=None)
@given(_jet_pairs())
def test_jet_exact_division_round_trip(pair):
    a, b = pair
    if b.values[0]:
        assert (a * b) // b == a
    if any(b.values):
        assert (a * 7) // 7 == a


def test_jet_inexact_division_raises():
    with pytest.raises(InexactDivision):
        Jet((1, 1)) // Jet((2, 0))  # 1/2 + ...
    with pytest.raises(InexactDivision):
        Jet((2, 1)) // Jet((2, 0))  # 1 + e/2
    with pytest.raises(InexactDivision):
        Jet((1, 1)) // 3
    with pytest.raises(InexactDivision):
        Jet((0, 1)) // Jet((0, 1))  # no unique quotient by a non-unit
    assert Jet((2, 3, 1)) // Jet((1, 1, 0)) == Jet((2, 1, 0))  # (1 + e)(2 + e)
    assert 4 // Jet((2, 0)) == Jet((2, 0)) == 2


def test_jet_equality_and_truth():
    assert Jet((5, 0, 0)) == 5 and 5 == Jet((5, 0, 0))
    assert Jet((5, 1)) != 5 and Jet((5, 1)) != Jet((5, 2))
    assert not Jet((0, 0, 0)) and Jet((0, 0, 1)) and Jet((3,))
    assert Jet((1, 1)) ** 0 == 1
    with pytest.raises(ValueError):
        Jet((2, 0)) ** -1
    with pytest.raises(ValueError):
        Jet(())
    with pytest.raises(TypeError):
        Jet((1, 2)) + Jet((1, 2, 3))
    with pytest.raises(TypeError):
        Jet((1, 2)) * Fraction(1, 2)


@st.composite
def _jet_matrices(draw):
    """n x n jet matrices whose constant terms are strictly diagonally
    dominant, so every Bareiss pivot has a nonzero constant term."""
    n = draw(st.integers(0, 5))
    k = draw(st.integers(1, 4))
    rows = [[draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
             for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        row[i][0] = sum(abs(x[0]) for x in row) + draw(st.integers(1, 3))
    return Matrix([[Jet(x) for x in row] for row in rows])


@settings(max_examples=100, deadline=None)
@given(_jet_matrices())
def test_det_bareiss_over_jets_matches_cofactor(m):
    assert det_bareiss(m) == naive_det(m)


# --- polynomials in evaluation form ---------------------------------------------

@st.composite
def _evals_pairs(draw):
    k = draw(st.integers(1, 6))
    return tuple(draw(st.lists(st.integers(-10**9, 10**9), min_size=k, max_size=k))
                 for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(_evals_pairs(), st.integers(-50, 50))
def test_evals_ring_operations_are_pointwise_int_operations(pair, c):
    xs, ys = pair
    a, b = Evals(xs), Evals(ys)

    def each(f, *args):
        return tuple(map(f, *args))

    assert (a + b).values == each(lambda x, y: x + y, xs, ys)
    assert (a - b).values == each(lambda x, y: x - y, xs, ys)
    assert (a * b).values == each(lambda x, y: x * y, xs, ys)
    assert (a + c).values == (c + a).values == each(lambda x: x + c, xs)
    assert (a - c).values == each(lambda x: x - c, xs)
    assert (c - a).values == each(lambda x: c - x, xs)
    assert (a * c).values == (c * a).values == each(lambda x: x * c, xs)
    assert (-a).values == each(lambda x: -x, xs)
    assert (a ** 3).values == each(lambda x: x ** 3, xs)
    if all(ys):
        assert (a // b).values == each(lambda x, y: x // y, xs, ys)
    if c:
        assert (a // c).values == each(lambda x: x // c, xs)
    assert bool(a) == any(xs)
    assert (a == b) == (xs == ys) and (a != b) == (xs != ys)
    assert (a == c) == all(x == c for x in xs) == (c == a)


#: the elementwise rings (core._Elementwise): jets and Evals of one to four entries
_ELEMENTWISE = st.lists(st.integers(-6, 6), min_size=1, max_size=4).flatmap(
    lambda xs: st.sampled_from((Jet(xs), Evals(xs))))


@settings(max_examples=200, deadline=None)
@given(_ELEMENTWISE, st.integers(-6, 6), st.integers(0, 5))
@example(Evals((2, 3)), 1, 2)
def test_elementwise_rings_keep_their_class_and_power_by_repeated_product(a, c, n):
    ring = type(a)
    for x in (a + c, c + a, a + a, a - c, c - a, a - a, -a, a * c, a ** n):
        assert type(x) is ring, x
    assert repr(a) == f"{ring.__name__}({a.values!r})" and bool(a) == any(a.values)
    assert a ** n == reduce(mul, [a] * n, 1)
    with pytest.raises(ValueError):  # never a float, nor a quotient off the ring
        a ** -1


def test_evals_floor_division_is_unchecked_and_exact_division_checks_every_point():
    # inside an elimination the divisions are exact, and // does not check
    # them, like int //; det_bareiss's _dom_exact_div checks every point
    assert Evals((7, 9)) // 2 == Evals((3, 4))
    assert _dom_exact_div(Evals((6, 8)), 2) == Evals((3, 4))
    assert _dom_exact_div(12, Evals((3, 4))) == Evals((4, 3))
    assert _dom_exact_div(Evals((6, 8)), Evals((3, 4))) == 2
    for a, b in ((Evals((6, 7)), 2), (Evals((6, 8)), Evals((3, 3))), (7, Evals((7, 2)))):
        with pytest.raises(InexactDivision):
            _dom_exact_div(a, b)
    with pytest.raises(TypeError):
        Evals((1, 2)) + Evals((1, 2, 3))


def test_evals_truth_is_any_point_so_zero_skips_stay_exact():
    # the corner is 0 at the first point only: bandwidth and det_bareiss's
    # scaling must still treat it as an entry
    assert Evals((0, 3)) and not Evals((0, 0))

    def m(c):
        return Matrix([[2, 1, c], [1, 2, 1], [c, 1, 2]])

    assert det_bareiss(m(Evals((0, 3)))) == Evals((det_bareiss(m(0)), det_bareiss(m(3))))


def test_exact_division_keeps_each_operand_type_on_its_own_branch():
    # ints (bools among them) take the int path first: an exact int quotient
    # or InexactDivision, never a float or a Fraction
    assert _dom_exact_div(-12, 4) == -3 and type(_dom_exact_div(-12, 4)) is int
    assert type(_dom_exact_div(True, True)) is int and _dom_exact_div(6, True) == 6
    for a, b in ((7, 2), (-7, 2), (1, 3), (True, 2)):
        with pytest.raises(InexactDivision):
            _dom_exact_div(a, b)
    # Fractions divide in the field
    assert _dom_exact_div(Fraction(1, 2), Fraction(1, 3)) == Fraction(3, 2)
    assert _dom_exact_div(7, Fraction(2)) == Fraction(7, 2)
    # Polys divide exactly, with an int on either side
    assert _dom_exact_div(Poly((2, 4)), 2) == Poly((1, 2))
    assert _dom_exact_div(Poly((1, 0, -1)), Poly((1, 1))) == Poly((1, -1))
    assert _dom_exact_div(6, Poly((3,))) == Poly((2,))
    with pytest.raises(InexactDivision):
        _dom_exact_div(Poly((1, 0, 1)), Poly((1, 1)))
    # Evals and Jets keep their own quotients
    assert _dom_exact_div(True, Evals((1, 1))) == Evals((1, 1))
    assert type(_dom_exact_div(Evals((6, 8)), 2)) is Evals
    assert _dom_exact_div(Jet((2, 3, 1)), Jet((1, 1, 0))) == Jet((2, 1, 0))
    assert type(_dom_exact_div(4, Jet((2, 0)))) is Jet
    with pytest.raises(InexactDivision):
        _dom_exact_div(Jet((1, 1)), 3)


_INTS = st.one_of(st.booleans(), st.integers(-6, 6))
_SCALARS = st.one_of(_INTS, st.fractions(-4, 4, max_denominator=4))
#: each elimination ring with the constants that act in it
_RINGS = (
    (_SCALARS, _SCALARS),
    (st.lists(_SCALARS, max_size=3).map(Poly), _SCALARS),
    (st.lists(st.integers(-6, 6), min_size=3, max_size=3).map(Jet), _INTS),
    (st.lists(st.integers(-6, 6), min_size=2, max_size=2).map(Evals), _INTS),
)


@st.composite
def _division_pairs(draw):
    """(a, b) from one ring, each an element or a constant; half the time
    a is a multiple q * b, so exact quotients are common."""
    elements, constants = draw(st.sampled_from(_RINGS))
    a, b, q = (draw(st.one_of(elements, constants)) for _ in range(3))
    return (q * b if draw(st.booleans()) else a), b


def _outcome(divide, a, b):
    try:
        q = divide(a, b)
    except (InexactDivision, ZeroDivisionError) as exc:
        return type(exc)
    return type(q), repr(q)


@settings(max_examples=400, deadline=None)
@given(_division_pairs())
@example((Poly((6,)), Fraction(3)))
@example((True, Evals((1, 2))))
@example((Jet((2, 3, 1)), Jet((0, 1, 0))))
def test_ring_division_protocol_matches_the_type_ladder(pair):
    # the same quotient of the same type, or the same error, as one
    # isinstance branch per ring
    assert _outcome(_dom_exact_div, *pair) == _outcome(dom_exact_div_ladder, *pair)


@st.composite
def _sparse_matrices(draw, entries):
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return Matrix([[draw(entries) for _ in range(ncols)] for _ in range(nrows)])


_SPARSE_INTS = st.sampled_from((0, 0, 0, 0, 1, -3))
#: two-point Evals; four in five of the nonzero ones are 0 at one point
_SPARSE_EVALS = st.tuples(st.sampled_from((0, 0, 2)), st.sampled_from((0, 0, -1))).map(Evals)


@given(st.one_of(_sparse_matrices(_SPARSE_INTS), _sparse_matrices(_SPARSE_EVALS)))
@example(Matrix([[0, 0, 0, 5], [0] * 4]))
@example(Matrix([[0], [0], [0], [Evals((0, 1))]]))
@example(Matrix([[Evals((0, 0))] * 3] * 3))
def test_bandwidth_matches_the_all_entries_scan(m):
    assert bandwidth(m) == bandwidth_all_entries(m)


# --- determinants -------------------------------------------------------------

def test_det_small():
    assert det_bareiss(Matrix([[1, 2], [3, 4]])) == -2
    assert det_bareiss(Matrix.identity(5)) == 1
    assert det_bareiss(Matrix([])) == 1
    assert det_bareiss(Matrix([[7]])) == 7


def test_det_nonsquare_rejected():
    with pytest.raises(ShapeError):
        det_bareiss(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_det_six_by_six_banded_vs_cofactor():
    m = matrix_from_spec(ToeplitzSpec(6, (1, 2, 3), (1, 4)))
    value = det_bareiss(m)
    assert value == naive_det(m)
    assert value == 25  # frozen from the cofactor oracle


def test_det_matches_cofactor_on_randoms():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(0, 6)
        m = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert det_bareiss(m) == naive_det(m)


def test_det_banded_with_zero_pivots_falls_back():
    # singular leading minors: the window widens at the first zero pivot
    rows = [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 0],
    ]
    m = Matrix(rows)
    assert det_bareiss(m) == naive_det(m)


def test_det_polynomial_entries():
    v = Poly([0, 1])
    m = Matrix([[v, -v], [-v, v + 2]])
    # det = v(v+2) - v^2 = 2v
    assert det_bareiss(m) == Poly([0, 2])


def test_det_diagonal_matrices():
    # regression: bandwidth-0 matrices once skipped the final rescale
    m = Matrix([[1, 0, 0], [0, 4, 0], [0, 0, 2]])
    assert det_bareiss(m) == 8
    assert det_bareiss(Matrix([[3, 0], [0, 0]])) == 0


def test_det_banded_large_tridiagonal():
    # continuants: det of tridiag(1, x, 1) with x = 2 is n + 1
    n = 60
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
        if i + 1 < n:
            rows[i][i + 1] = 1
            rows[i + 1][i] = 1
    assert det_bareiss(Matrix(rows)) == n + 1


_ZERO_HEAVY = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
_DET_ENTRIES = st.sampled_from((
    _ZERO_HEAVY,
    st.builds(Fraction, _ZERO_HEAVY, st.sampled_from((1, 2, 3))),
    st.one_of(st.just(Poly()), st.lists(_ZERO_HEAVY, max_size=3).map(Poly)),
))


@st.composite
def _banded_matrices(draw):
    """n x n, n in 0..8, with zero-heavy int, Fraction or Poly entries
    inside a band of any half-width w in 0..n-1 and zeros outside it."""
    n = draw(st.integers(0, 8))
    w = draw(st.integers(0, max(n - 1, 0)))
    entry = draw(_DET_ENTRIES)
    return Matrix([[draw(entry) if abs(i - j) <= w else 0 for j in range(n)]
                   for i in range(n)])


@settings(max_examples=300, deadline=None)
@given(_banded_matrices())
def test_det_bareiss_matches_cofactor_on_random_bands(m):
    assert det_bareiss(m) == naive_det(m)


@st.composite
def _singular_leading_blocks(draw):
    """n x n int matrices, n in 2..8, whose leading (j+1) x (j+1) block is
    singular: row j repeats row i < j up to column j.  A random half of
    the entries are then made Fractions, equal as values."""
    n = draw(st.integers(2, 8))
    rows = [[draw(_ZERO_HEAVY) for _ in range(n)] for _ in range(n)]
    j = draw(st.integers(1, n - 1))
    i = draw(st.integers(0, j - 1))
    rows[j][:j + 1] = rows[i][:j + 1]
    return rows


@settings(max_examples=300, deadline=None)
@given(_singular_leading_blocks(), st.booleans())
def test_int_elimination_divides_exactly_past_singular_leading_blocks(rows, mixed):
    # an all-int matrix divides with the unchecked //: Sylvester's identity,
    # row swaps included, must keep every quotient exact; a matrix with a
    # Fraction entry keeps the checked division and gives the same value
    if mixed:
        rows = [[Fraction(x) if (i + j) % 2 else x for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    m = Matrix(rows)
    assert det_bareiss(m) == naive_det(m)


def test_det_zero_pivot_mid_elimination_widens_window():
    # half-width 1; the stage-1 pivot 2*1 - 2*1 vanishes after the previous
    # pivot 2 has scaled the entering column 2, so the window widens at r = 1
    # and every entry beyond column 2 must take that factor too
    rows = [
        [2, 1, 0, 0, 0, 0, 0],
        [2, 1, 3, 0, 0, 0, 0],
        [0, 1, 2, 1, 0, 0, 0],
        [0, 0, 1, 3, 1, 0, 0],
        [0, 0, 0, 1, 2, 1, 0],
        [0, 0, 0, 0, 1, 2, 1],
        [0, 0, 0, 0, 0, 1, 3],
    ]
    m = Matrix(rows)
    assert det_bareiss(m) == naive_det(m) == -96
    v = Poly([0, 1])
    poly_rows = [[x * v + 1 if x else 0 for x in row] for row in rows]
    assert det_bareiss(Matrix(poly_rows)) == naive_det(Matrix(poly_rows))


# --- linear solving -----------------------------------------------------------

def test_solve_unique():
    out = solve_linear(Matrix([[Fraction(1)]]), [Fraction(5)])
    assert out.status == LinearSolution.UNIQUE
    assert out.solution == [Fraction(5)]


def test_solve_inconsistent():
    out = solve_linear(
        Matrix([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]),
        [Fraction(2), Fraction(3)],
    )
    assert out.status == LinearSolution.INCONSISTENT


def test_solve_underdetermined_witness():
    m = Matrix([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    out = solve_linear(m, [Fraction(2), Fraction(2)])
    assert out.status == LinearSolution.UNDERDETERMINED
    x = out.solution
    assert x[0] + x[1] == 2


def test_solve_shape_mismatch():
    with pytest.raises(ShapeError):
        solve_linear(Matrix([[Fraction(1)]]), [Fraction(1), Fraction(2)])


def test_solve_recovers_solution_random():
    rng = random.Random(5)
    for _ in range(100):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = Matrix([[Fraction(rng.randint(-6, 6)) for _ in range(nc)]
                    for _ in range(nr)])
        x = [Fraction(rng.randint(-4, 4)) for _ in range(nc)]
        b = [sum(a[i, j] * x[j] for j in range(nc)) for i in range(nr)]
        out = solve_linear(a, b)
        assert out.status != LinearSolution.INCONSISTENT
        got = out.solution
        for i in range(nr):
            assert sum(a[i, j] * got[j] for j in range(nc)) == b[i]


def test_solve_over_rational_function_field():
    # the Q(t) solve is the oracle's; solve_linear is Fraction-only
    t = FieldRF(Poly([0, 1]))
    one = FieldRF(1)
    # x - t*y = 1, y = t*x  =>  x = 1/(1-t^2)
    m = Matrix([[one, -t], [-t, one]])
    out = solve_linear_field(m, [one, FieldRF(0)])
    assert out.status == LinearSolution.UNIQUE
    assert out.solution[0] == RationalFunction(Poly([1]), Poly([1, 0, -1]))


_SMALL_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _field_systems(draw):
    """A Fraction system A x = b with a chosen status.  A = L R has rank
    exactly r: L holds I_r in r of its rows and R holds I_r in r of its
    columns.  Every A y = L (R y) agrees with R y on those r rows of L,
    so an inconsistent b is zero there and nonzero elsewhere."""
    status = draw(st.sampled_from((LinearSolution.UNIQUE, LinearSolution.UNDERDETERMINED,
                                   LinearSolution.INCONSISTENT)))
    nc = draw(st.integers(1, 4))
    if status == LinearSolution.UNIQUE:
        r = nc
        nr = draw(st.integers(nc, 5))
    elif status == LinearSolution.UNDERDETERMINED:
        r = draw(st.integers(0, nc - 1))
        nr = draw(st.integers(max(r, 1), 5))
    else:
        r = draw(st.integers(0, nc))
        nr = draw(st.integers(r + 1, 5))
    one, zero = Fraction(1), Fraction(0)
    rows_of_l = [[one if i == k else zero for k in range(r)] for i in range(r)]
    rows_of_l += [[draw(_SMALL_FRACTIONS) for _ in range(r)] for _ in range(nr - r)]
    row_perm = draw(st.permutations(range(nr)))
    lmat = [rows_of_l[i] for i in row_perm]
    cols_of_r = [[one if i == k else zero for i in range(r)] for k in range(r)]
    cols_of_r += [[draw(_SMALL_FRACTIONS) for _ in range(r)] for _ in range(nc - r)]
    col_perm = draw(st.permutations(range(nc)))
    rmat_cols = [cols_of_r[j] for j in col_perm]
    a = [[sum((lmat[i][k] * rmat_cols[j][k] for k in range(r)), zero) for j in range(nc)]
         for i in range(nr)]
    if status == LinearSolution.INCONSISTENT:
        tail = [draw(_SMALL_FRACTIONS) for _ in range(nr - r)]
        if not any(tail):
            tail[0] = one
        b_unpermuted = [zero] * r + tail
        b = [b_unpermuted[i] for i in row_perm]
    else:
        x = [draw(_SMALL_FRACTIONS) for _ in range(nc)]
        b = [sum((a[i][j] * x[j] for j in range(nc)), zero) for i in range(nr)]
    return Matrix(a), b, status


@settings(max_examples=300, deadline=None)
@given(_field_systems())
def test_solve_linear_matches_field_gauss_jordan(system):
    a, b, status = system
    got = solve_linear(a, b)
    want = solve_linear_field(a, b)
    assert got.status == want.status == status
    assert repr(got.solution) == repr(want.solution)
    if status != LinearSolution.INCONSISTENT:
        for i in range(a.nrows):
            assert sum(a[i, j] * got.solution[j] for j in range(a.ncols)) == b[i]
