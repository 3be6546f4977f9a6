"""sympy as an independent, test-only oracle for determinants with
polynomial entries and for the canonical form of bivariate rational
functions (the package itself never imports sympy)."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from exactgf import Matrix, Poly, RationalFunction, det_bareiss, gf_ver_grid

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
T, V = sympy.symbols("t v")


def _to_sympy(m: Matrix):
    return sympy.Matrix(m.nrows, m.ncols, [e.eval(X) for row in m.rows for e in row])


def _coeffs(expr):
    """Ascending coefficients of a polynomial in x, trailing zeros dropped."""
    return Poly(int(c) for c in reversed(sympy.Poly(sympy.expand(expr), X).all_coeffs()))


_POLYS = st.lists(st.integers(-3, 3), max_size=3).map(Poly)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.just(Poly()), _POLYS), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_polynomial_entries_match_sympy(rows):
    m = Matrix(rows)
    assert det_bareiss(m) == _coeffs(_to_sympy(m).det(method="berkowitz"))


def test_characteristic_polynomials_match_sympy():
    # det(x I - A) over Z[x], for banded and dense integer matrices A
    rng = random.Random(29)
    x = Poly([0, 1])
    for _ in range(40):
        n = rng.randint(1, 7)
        w = rng.randint(0, n - 1)
        a = [[rng.choice((0, 0, 1, -1, 2)) if abs(i - j) <= w else 0 for j in range(n)]
             for i in range(n)]
        char = Matrix([[(x if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)])
        want = _coeffs(sympy.Matrix(a).charpoly(X).as_expr())
        assert det_bareiss(char) == want


def _bivariate(p: Poly):
    """A polynomial in t with coefficients in Z[v] (or Z) as a sympy expression."""
    return sum(((c.eval(V) if isinstance(c, Poly) else c) * T**i
                for i, c in enumerate(p.coeffs)), sympy.Integer(0))


_V_POLYS = st.lists(st.integers(-3, 3), max_size=3).map(Poly)


@settings(max_examples=40, deadline=None)
@given(st.lists(_V_POLYS, min_size=1, max_size=3).filter(any),
       st.lists(_V_POLYS, min_size=1, max_size=3).filter(any),
       _V_POLYS.filter(bool))
def test_bivariate_canonical_form_matches_sympy(num_cs, den_cs, u):
    # build with a common factor u(v), then check against sympy: the same
    # function (cancel), no content left in Z[v], lowest den coefficient
    # (by t, then v) positive
    rf = RationalFunction(Poly([c * u for c in num_cs]), Poly([c * u for c in den_cs]))
    num, den = _bivariate(rf.num), _bivariate(rf.den)
    assert sympy.cancel(num / den - _bivariate(Poly(num_cs)) / _bivariate(Poly(den_cs))) == 0
    coeffs = sympy.Poly(num, T).all_coeffs() + sympy.Poly(den, T).all_coeffs()
    assert sympy.gcd_list([sympy.expand(c) for c in coeffs]) in (1, -1)
    first_t = next(c for c in reversed(sympy.Poly(den, T).all_coeffs()) if c != 0)
    assert next(x for x in reversed(sympy.Poly(first_t, V).all_coeffs()) if x != 0) > 0



@pytest.mark.parametrize("k", (2, 3))
def test_ver_grid_functions_are_in_lowest_terms(k):
    # the pipelines emit minimal-order fits, so num and den are coprime in
    # Q(v)[t] and bivariate equality is canonical on them
    gf = gf_ver_grid(k).gf
    assert sympy.gcd(_bivariate(gf.num), _bivariate(gf.den)) == 1
