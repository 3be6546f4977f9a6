"""Generating-function pipelines: spanning trees, two-component forests,
resistance, the bivariate vertical-edge statistic, and its moments."""
import math
from decimal import Decimal
from itertools import islice
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from exactgf import (
    LabeledGraph,
    Matrix,
    Poly,
    RationalFunction,
    c_poly,
    det_bareiss,
    resistance_bound_constant,
    gf_grid,
    gf_spanning,
    gf_two_forest,
    gf_ver,
    gf_ver_grid,
    laplacian,
    moments,
    path_graph,
    product_with_path,
    resistance,
    substitute_v,
    taylor_coeffs,
    two_forest_count,
    grid_graph,
)
from exactgf import cfinite, core, graphs, spanning, toeplitz
from exactgf.cfinite import (CFiniteSpec, _at_points, _recurrence_holds, guess_rec, guess_sym_rec,
                             seq_from_rec)
from exactgf.errors import BadVertexPair, InternalInconsistency, NoFitWithinBudget, NotConnected

from oracles import (
    decimal_ratio_whole,
    gf_by_forward_window,
    gf_ver_by_interpolation,
    laplacian_minor_dense,
    moments_by_interpolation,
    moments_by_jet_minor,
    resistance_by_product_minor,
)


def rf(num, den):
    return RationalFunction(Poly(num), Poly(den))


@st.composite
def _connected_multigraphs(draw, max_vertices=4, max_mult=2):
    """Connected multigraphs on 2..max_vertices vertices with multiplicities
    1..max_mult: a random spanning tree plus random extra edges."""
    n = draw(st.integers(2, max_vertices))
    edges = [(draw(st.integers(0, v - 1)), v, "other", draw(st.integers(1, max_mult)))
             for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] != uv[1])
    edges += [(u, v, "other", m) for (u, v), m in
              draw(st.lists(st.tuples(pairs, st.integers(1, max_mult)), max_size=3))]
    return LabeledGraph(n, tuple(edges))


# --- spanning trees -------------------------------------------------------------

def test_gf_spanning_single_vertex_row():
    out = gf_spanning(LabeledGraph(1, ()))
    assert out.gf == rf([0, 1], [1, -1])
    assert out.offset == 1


def test_gf_spanning_two_rows():
    out = gf_spanning(path_graph(2))
    assert out.gf == rf([0, 1], [1, -4, 1])


def test_gf_spanning_three_rows():
    out = gf_spanning(path_graph(3))
    assert out.gf == rf([0, 1, 0, -1], [1, -15, 32, -15, 1])


def test_gf_grid_guessers_agree():
    for k in (1, 2, 3, 4):
        plain = gf_grid(k)
        sym = gf_spanning(path_graph(k), guesser="symmetric")
        assert plain.gf == sym.gf


@pytest.mark.parametrize("fit", (lambda: gf_grid(1).gf, lambda: gf_grid(3).gf,
                                 lambda: gf_grid(4).gf, lambda: gf_grid(4, "symmetric").gf,
                                 lambda: gf_two_forest(1).gf, lambda: gf_two_forest(3).gf,
                                 lambda: toeplitz.gf_transfer([2, 3], [2, 4, 5]),
                                 lambda: toeplitz.gf_family_guess([2, 3], [2, 4, 5], "det", 1, 10)),
                         ids=("grid-1", "grid-3", "grid-4", "grid-4-symmetric", "two-forest-1",
                              "two-forest-3", "transfer", "family-guess"))
def test_one_gcd_per_univariate_fit(monkeypatch, fit):
    # no gcd at all: a fit is the minimal recurrence, so cfinite.fit emits
    # it without one, and the result is still the canonical form of its value
    calls = []
    real = core.poly_gcd
    monkeypatch.setattr(core, "poly_gcd", lambda a, b: calls.append(1) or real(a, b))
    gf = fit()
    assert len(calls) == 0
    assert repr(gf) == repr(RationalFunction(gf.num, gf.den))


def test_gf_spanning_series_matches_data_with_held_out():
    out = gf_grid(3)
    series = taylor_coeffs(out.gf, out.data_used + 1)
    from exactgf import spanning_tree_count

    for n in range(1, out.data_used + 1):
        assert series[n] == spanning_tree_count(grid_graph(3, n))
    # the window mirrors terms -5..6 from the first 6, and 6 more are held out
    assert out.data_used == out.spec.order + 2 + spanning.HELD_OUT


def test_empty_base_graph_gives_the_empty_products():
    # every G x P_n is the empty graph, whose one spanning "tree" is empty
    empty = LabeledGraph(0, ())
    assert gf_spanning(empty).gf == rf([0, 1], [1, -1])
    assert gf_ver(empty).gf == RationalFunction(Poly([Poly([]), Poly([1])]),
                                                Poly([Poly([1]), Poly([-1])]))


def test_gf_spanning_disconnected_base_rejected():
    with pytest.raises(NotConnected):
        gf_spanning(LabeledGraph(2, ()))


def test_gf_spanning_budget_exhaustion_carries_data():
    with pytest.raises(NoFitWithinBudget) as info:
        gf_grid(4, max_terms=14)  # order 8 needs 20 fit terms
    data = info.value.data
    from exactgf import spanning_tree_count

    assert len(data) == 7 + spanning.HELD_OUT  # the window is terms -6..7
    assert data[:3] == [spanning_tree_count(grid_graph(4, n)) for n in (1, 2, 3)]


def test_denominator_palindromic_k_le_4():
    for k in (2, 3, 4):
        den = list(gf_grid(k).gf.den.coeffs)
        assert den == den[::-1]


@settings(max_examples=15, deadline=None)
@given(_connected_multigraphs(max_vertices=4, max_mult=3))
@example(path_graph(4))
@example(LabeledGraph(4, tuple((i, j, "other") for i in range(4) for j in range(i + 1, 4))))
def test_denominators_are_palindromic_up_to_sign(g):
    # D(t) = +-t^d D(1/t) over Z and over Z[v] (gf_spanning's proof)
    for den in (gf_spanning(g).spec.den, gf_ver(g).spec.den):
        assert den[::-1] in (den, tuple(-c for c in den))


@settings(max_examples=15, deadline=None)
@given(_connected_multigraphs(max_vertices=5, max_mult=3))
@example(LabeledGraph(0, ()))
@example(LabeledGraph(1, ()))
def test_mirrored_fits_are_the_forward_window_fits(g):
    # the window mirrored about n = 0 fits what terms 1..2B + 4 fit, from a
    # prefix of their data; the symmetric guesser never refuses a tree fit
    for got, want in ((gf_spanning(g), gf_by_forward_window(g)),
                      (gf_spanning(g, "symmetric"), gf_by_forward_window(g, guess_sym_rec)),
                      (gf_ver(g), gf_by_forward_window(g, ver=True))):
        assert repr(got.gf) == repr(want.gf) and repr(got.spec) == repr(want.spec)
        assert got.data == want.data[:got.data_used]


@settings(max_examples=15, deadline=None)
@given(_connected_multigraphs(max_vertices=5, max_mult=3))
@example(LabeledGraph(0, ()))
@example(LabeledGraph(1, ()))
@example(path_graph(4))
def test_the_mirrored_counts_satisfy_the_forward_denominator(g):
    # tau_(-n) = sigma tau_n, and tau_(-B-1..B+2) satisfies the D fitted on
    # tau_(1..2B+4) alone, at w = 1 and at points of v
    bound, (sign, tau0) = graphs._order_bound(g), graphs._tree_mirror(g)
    points = graphs.Evals(range(1, 6))
    for w, den in ((1, gf_by_forward_window(g).spec.den),
                   (points, _at_points(gf_by_forward_window(g, ver=True).spec.den, 5))):
        taus = list(islice(graphs._tree_minors(g, w), bound + 2))
        mirrored = [*(sign * x for x in reversed(taus[:bound + 1])), 0 * w + tau0, *taus]
        assert len(mirrored) == 2 * bound + 4 and _recurrence_holds(mirrored, den)


# --- first-round sizing from the order bound ---------------------------------------

def _forest_bound(k):
    return (k + 3) * 2 ** (k - 2) if k > 1 else 2


def _complete_graph(k):
    return LabeledGraph(k, tuple((i, j, "other") for i in range(k) for j in range(i + 1, k)))


_STAR = LabeledGraph(4, ((0, 1, "other"), (0, 2, "other"), (0, 3, "other")))
_CYCLE = LabeledGraph(4, ((0, 1, "other"), (1, 2, "other"), (2, 3, "other"), (3, 0, "other")))


def _guess_rounds(monkeypatch):
    rounds = []
    real = spanning.guess_rec
    monkeypatch.setattr(spanning, "guess_rec", lambda d: rounds.append(len(d)) or real(d))
    return rounds


@pytest.mark.parametrize(
    "fit, bound, mirrored",
    [(lambda k=k: gf_grid(k), 2 ** (k - 1), True) for k in range(1, 6)]
    + [(lambda k=k: gf_two_forest(k), _forest_bound(k), False) for k in range(1, 5)]
    + [(lambda k=k: gf_ver_grid(k), 2 ** (k - 1), True) for k in range(1, 4)]
    # user graphs: eigenvalues 6 (x5); 4 (x3); 1 (x2), 4; 2 (x2), 4
    + [(lambda: gf_spanning(_complete_graph(6)), 6, True),
       (lambda: gf_ver(_complete_graph(4)), 4, True),
       (lambda: gf_ver(_STAR), 6, True), (lambda: gf_ver(_CYCLE), 6, True)],
    ids=[f"grid-{k}" for k in range(1, 6)] + [f"two-forest-{k}" for k in range(1, 5)]
    + [f"ver-{k}" for k in range(1, 4)] + ["tree-K6", "ver-K4", "ver-star", "ver-C4"])
def test_the_order_bound_sizes_one_guess(monkeypatch, fit, bound, mirrored):
    # trees and v-polynomials guess on terms -(B + 1)..B + 2, mirrored from
    # the first B + 2 of them; two-forests on terms 1..2B + 4
    rounds = _guess_rounds(monkeypatch)
    out = fit()
    generated = bound + 2 if mirrored else 2 * bound + 4
    assert rounds == [2 * bound + 4] and out.data_used == generated + spanning.HELD_OUT


def _corrupted_stream(n):
    """A stand-in for graphs._tree_minors whose term n is off by one."""
    def stream(*a, real=graphs._tree_minors, **kw):
        return (t + (i == n) for i, t in enumerate(real(*a, **kw), 1))
    return stream


def test_one_round_tells_no_fit_from_a_broken_bound(monkeypatch):
    # a bound below the order 8: one guess on 2 * 1 + 4 terms and no fit,
    # which the full window's proved bound says cannot happen; capped at
    # 5 terms, terms -1..3, the same no-fit is honest
    with monkeypatch.context() as m:
        m.setattr(spanning, "_order_bound", lambda g: 1)
        rounds = _guess_rounds(m)
        with pytest.raises(InternalInconsistency, match="fit to 6 terms is none"):
            gf_grid(4)
        with pytest.raises(NoFitWithinBudget, match=r"terms -1\.\.3 of the 9 generated") as info:
            gf_grid(4, max_terms=5)
    assert rounds == [6, 5] and len(info.value.data) == 3 + spanning.HELD_OUT
    # term 12 is held out of gf_grid(3)'s 12-term window, terms -5..6: a fit
    # that misses it within the proved bound 4 is a bug, below the full
    # window a no-fit
    monkeypatch.setattr(spanning, "_tree_minors", _corrupted_stream(12))
    with pytest.raises(InternalInconsistency, match="held-out"):
        gf_grid(3)
    with pytest.raises(NoFitWithinBudget, match=r"terms -4\.\.6 of the 12 generated"):
        gf_grid(3, max_terms=11)  # no order <= 3 fits 11 terms
    # a bound 5 above the order: the capped 12-term window fits order 4,
    # which misses term 12
    monkeypatch.setattr(spanning, "_order_bound", lambda g: 5)
    with pytest.raises(NoFitWithinBudget, match=r"terms -5\.\.6 of the 12 generated"):
        gf_grid(3, max_terms=12)


@pytest.mark.parametrize("k", range(1, 9))
def test_order_bound_of_paths_and_complete_graphs(k):
    # simple nonzero eigenvalues for a path, one eigenvalue k of multiplicity k - 1 for K_k
    assert graphs._order_bound(path_graph(k)) == 2 ** (k - 1)
    assert graphs._order_bound(_complete_graph(k)) == k


def test_order_bound_is_computed_once_per_graph(monkeypatch):
    cones = []
    real = graphs.ver_polynomial
    monkeypatch.setattr(graphs, "ver_polynomial", lambda h: cones.append(h) or real(h))
    graphs._order_bound.cache_clear()
    graphs._cone.cache_clear()
    assert gf_grid(4) == gf_grid(4)
    assert [h.n_vertices for h in cones] == [5]  # one cone minor, over path_graph(4) + apex


@settings(max_examples=30, deadline=None)
@given(_connected_multigraphs(max_vertices=5))
@example(LabeledGraph(1, ()))
def test_tree_order_is_at_most_the_kronecker_bound(g):
    cones = []
    real = graphs.ver_polynomial
    with pytest.MonkeyPatch.context() as m:
        m.setattr(graphs, "ver_polynomial", lambda h: cones.append(real(h)) or cones[-1])
        graphs._order_bound.cache_clear()  # a cached bound would not see the spy
        graphs._cone.cache_clear()
        bound = graphs._order_bound(g)
    # the cone's ver_polynomial is x p = det(xI + L(g))
    k, x = g.n_vertices, Poly((0, 1))
    lap = laplacian(g)
    assert cones == [det_bareiss(Matrix([[x * (i == j) + lap[i, j] for j in range(k)]
                                         for i in range(k)]))]
    with pytest.MonkeyPatch.context() as m:
        rounds = _guess_rounds(m)
        out = gf_spanning(g)
    assert out.spec.order <= bound and rounds == [2 * bound + 4]


@settings(max_examples=30, deadline=None)
@given(_connected_multigraphs(), st.integers(0, 3), st.integers(0, 3))
@example(LabeledGraph(1, ()), 0, 0)
@example(LabeledGraph(2, ((0, 1, "other", 2),)), 1, 0)
def test_corner_forest_order_is_at_most_the_forest_bound(g, a, b):
    # gf_two_forest's proof holds for any connected base graph and corners
    k = g.n_vertices
    bound = _forest_bound(k)
    data = [f for f, _tau in islice(graphs._corner_counts(g, a % k, b % k), 2 * bound + 10)]
    spec = guess_rec(data[:2 * bound + 4])
    assert spec is not None and spec.order <= bound
    assert seq_from_rec(spec, len(data)) == data


@pytest.mark.parametrize("k", range(1, 6))
def test_two_forest_order_is_the_forest_bound(k):
    out = gf_two_forest(k)
    assert out.spec.order == out.gf.den.degree == _forest_bound(k)


# --- two-component forests / resistance ------------------------------------------

def test_gf_two_forest_path_row():
    out = gf_two_forest(1)
    assert out.gf == rf([0, 0, 1], [1, -2, 1])  # t^2/(1-t)^2
    assert out.data[:4] == (0, 1, 2, 3)  # n = 1: one vertex cannot be separated


def test_corrupted_sweep_fails_the_spot_check(monkeypatch):
    # doubled data satisfy the same recurrence, so only the comparison of
    # the last term with its per-term count can catch them; the stream is
    # doubled in graphs too, so a per-term count that ran it would double
    # with it and miss them: this is the check's independence of its data
    def doubled_trees(*a, real=graphs._tree_minors, **kw):
        return (2 * t for t in real(*a, **kw))

    def doubled_forests(*a, real=graphs._corner_counts, **kw):
        return ((2 * f, tau) for f, tau in real(*a, **kw))

    for name, fake, run in (
            ("_tree_minors", doubled_trees, lambda: gf_grid(3)),
            ("_corner_counts", doubled_forests, lambda: gf_two_forest(2)),
            ("_tree_minors", doubled_trees, lambda: gf_ver_grid(2))):
        with monkeypatch.context() as m:
            for module in (spanning, graphs):
                m.setattr(module, name, fake)
            with pytest.raises(InternalInconsistency, match="per-term"):
                run()


def test_one_wrong_point_of_the_last_v_polynomial_fails(monkeypatch):
    # the last term of gf_ver is replayed, and compared with its per-term
    # count, at every one of its n p + 1 points: one wrong point in the
    # data fails the held-out replay, one in the count the spot check
    def off(x):
        return graphs.Evals((*x.values[:-1], x.values[-1] + 1))

    last = gf_ver_grid(2).data_used
    real_stream, real_grounded = spanning._tree_minors, spanning.spanning_tree_count
    with monkeypatch.context() as m:
        m.setattr(spanning, "_tree_minors", lambda g, w: (
            off(x) if n == last else x for n, x in enumerate(real_stream(g, w), 1)))
        with pytest.raises(InternalInconsistency, match="held-out"):
            gf_ver_grid(2)
    # spanning_tree_count in spanning is graphs._grounded, the spot check's route
    monkeypatch.setattr(spanning, "spanning_tree_count",
                        lambda g, w, n: off(real_grounded(g, w, n)))
    with pytest.raises(InternalInconsistency, match="per-term"):
        gf_ver_grid(2)


def test_fits_build_no_product_graph(monkeypatch):
    # the data of gf_spanning and gf_ver and their spot checks all run on
    # the base graph
    fits = (lambda: gf_grid(3), lambda: gf_spanning(_complete_graph(4)), lambda: gf_ver_grid(2))
    want = [fit() for fit in fits]  # the base graphs' cone minors, cached per graph

    def never(*args):
        raise AssertionError("a fit built or eliminated the product graph")

    # spanning binds neither name: raising=False puts them there all the same
    for module in (graphs, spanning):
        for name in ("product_with_path", "_laplacian_minor"):
            monkeypatch.setattr(module, name, never, raising=False)
    monkeypatch.setattr(spanning, "grid_graph", never)
    assert [fit() for fit in fits] == want


def test_gf_two_forest_two_rows_structure():
    out = gf_two_forest(2)
    assert taylor_coeffs(out.gf, 3)[2] == 4  # frozen brute force at n=2
    f2_den = Poly([1, -4, 1])
    expected = f2_den * f2_den * Poly([1, -1])
    assert out.gf.den == expected


def test_c_poly_values():
    assert c_poly(2) == Poly([-1, 1])                      # t - 1
    assert c_poly(3) == Poly([1, -8, 17, -8, 1])


def test_c_poly_needs_k_at_least_two():
    with pytest.raises(ValueError):
        c_poly(1)


def test_resistance_examples():
    # k * n = 2: one edge, and the pivot before the last is the empty minor
    assert resistance(1, 2) == resistance(2, 1) == 1
    for n in range(2, 30):
        assert resistance(1, n) == n - 1
    assert resistance(141, 1) == 140
    assert resistance(2, 2) == 1
    r = resistance(2, 40)
    assert Fraction(39, 2) <= r <= Fraction(39, 2) + Fraction(1, 2)


def test_resistance_matches_counts():
    for k, n in ((2, 3), (3, 3), (3, 4)):
        g = grid_graph(k, n)
        from exactgf import spanning_tree_count

        want = Fraction(two_forest_count(g, 0, k * n - 1),
                        spanning_tree_count(g))
        assert resistance(k, n) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 10))
def test_resistance_is_the_ratio_of_dense_minors(k, n):
    assume(k * n >= 2)
    g = grid_graph(k, n)
    last = k * n - 1
    assert resistance(k, n) == Fraction(laplacian_minor_dense(g, {0, last}),
                                        laplacian_minor_dense(g, {last}))


def test_resistance_builds_no_product_graph(monkeypatch):
    cases = ((3, 7), (2, 40), (5, 3), (7, 2))
    want = [resistance_by_product_minor(k, n) for k, n in cases]

    def never(*args):
        raise AssertionError("resistance built or eliminated the product graph")

    for k in (2, 3):  # the base graphs' cone minors, cached per graph
        graphs._cone(path_graph(k))
    for name in ("product_with_path", "_laplacian_minor"):
        monkeypatch.setattr(graphs, name, never)
    monkeypatch.setattr(spanning, "grid_graph", never)
    assert [resistance(k, n) for k, n in cases] == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 60))
@example(8, 60)
def test_resistance_is_the_product_minor_route(k, n):
    assume(k * n >= 2)
    assert resistance(k, n) == resistance_by_product_minor(k, n)


def test_resistance_of_a_path_needs_no_solve(monkeypatch):
    def never(*args):
        raise AssertionError("a path's resistance ran the transfer solve")

    monkeypatch.setattr(spanning, "_corner_counts", never)
    assert resistance(141, 1) == 140
    assert [resistance(1, n) for n in range(2, 30)] == list(range(1, 29))


def test_resistance_rejects_non_positive_sizes():
    for k, n in ((-2, -3), (3, -1), (-1, 3), (0, 5), (4, 0)):
        with pytest.raises(ValueError, match="positive"):
            resistance(k, n)
    with pytest.raises(BadVertexPair):
        resistance(1, 1)
    for k in (0, -2):
        with pytest.raises(ValueError, match="k must be positive"):
            resistance_bound_constant(k)


@settings(max_examples=60, deadline=None)
@given(_connected_multigraphs(max_vertices=5), st.integers(1, 15), st.integers(0, 4),
       st.integers(0, 4))
@example(LabeledGraph(1, ()), 5, 0, 0)
@example(LabeledGraph(2, ((0, 1, "other", 2),)), 1, 1, 0)
@example(path_graph(3), 1, 2, 2)  # one layer, one vertex: nothing to separate
def test_corner_counts_are_the_product_minors(g, n, a, b):
    k = g.n_vertices
    a, b = a % k, b % k
    forests, tau = graphs._corner_count(g, a, b, n)
    assert tau == graphs._tree_minor(g, 1, n)
    h, far = product_with_path(g, n), (n - 1) * k + b
    if far == a:
        assert forests == 0
        return
    assert forests == two_forest_count(h, a, far)
    assert Fraction(forests, tau) == Fraction(laplacian_minor_dense(h, {a, far}),
                                              laplacian_minor_dense(h, {far}))


def test_resistance_bound_constant_values():
    assert resistance_bound_constant(2) == Fraction(1, 2)
    assert resistance_bound_constant(3) == Fraction(10, 9)


# --- bivariate vertical-edge pipeline ----------------------------------------------

def test_gf_ver_two_rows_closed_form():
    out = gf_ver_grid(2)
    num = [list(c.coeffs) if isinstance(c, Poly) else c for c in out.gf.num.coeffs]
    den = [list(c.coeffs) if isinstance(c, Poly) else c for c in out.gf.den.coeffs]
    assert num == [[], [0, 1]]
    assert den == [[1], [-2, -2], [1]]


def test_gf_ver_starts_one_batch_per_fit_round(monkeypatch):
    sweeps, rounds = [], []
    real_stream, real_guess = spanning._tree_minors, spanning.guess_rec
    monkeypatch.setattr(spanning, "_tree_minors",
                        lambda *a: sweeps.append(a[1]) or real_stream(*a))
    monkeypatch.setattr(spanning, "guess_rec", lambda d: rounds.append(len(d)) or real_guess(d))
    out = gf_ver_grid(3)
    # one round on 12 terms mirrored from 6, and 6 more held out: term 12
    # has degree <= 24, so v = 1..25
    assert rounds == [12] and [w.values for w in sweeps] == [tuple(range(1, 26))]
    assert out.data_used == 12


@settings(max_examples=25, deadline=None)
@given(_connected_multigraphs())
@example(path_graph(1))  # p = 0: one point of v
@example(LabeledGraph(0, ()))
def test_gf_ver_matches_the_interpolation_route(g):
    got, want = gf_ver(g), gf_ver_by_interpolation(g)
    assert repr(got.gf) == repr(want.gf) and repr(got.spec) == repr(want.spec)
    assert got.data == want.data[:got.data_used]


def test_a_denominator_above_its_degree_bound_is_never_emitted(monkeypatch):
    # D_1 + (v - 1)(v - 2)...(v - P) agrees with D_1 at every streamed point
    # v = 1..P, so only the bound deg D_i <= i p tells it from the true D_1
    real = spanning.guess_rec

    def forged(window):
        spec = real(window)
        size = len(window[-1].values)
        vanishing = math.prod((Poly([-x, 1]) for x in range(1, size + 1)), start=Poly([1]))
        return CFiniteSpec(spec.initial, (spec.den[0], spec.den[1] + vanishing, *spec.den[2:]))

    interpolated = []
    monkeypatch.setattr(spanning, "guess_rec", forged)
    monkeypatch.setattr(cfinite, "_polys", lambda *a, real=cfinite._polys:
                        interpolated.append(a) or real(*a))
    with pytest.raises(InternalInconsistency, match="D_i has v-degree above i p"):
        gf_ver_grid(2)  # 10 terms of v-degree <= n: v = 1..11, and D_1 has degree 11
    assert interpolated == []  # no numerator was interpolated


def test_gf_ver_specializes_to_spanning():
    for k in (1, 2, 3):
        bi = gf_ver_grid(k)
        assert substitute_v(bi.gf, 1) == gf_grid(k).gf


# The 5-row denominator, pinned from one run of the Z[v]-solve route
# (oracles._fit_exact at order 16), which takes minutes.
G5_DEN = (
    [1],
    [-16, -64, -84, -40, -5],
    [120, 896, 2632, 3872, 3026, 1200, 190],
    [-560, -5824, -25116, -58488, -80039, -65392, -30734, -7400, -655],
    [1820, 23296, 126672, 384192, 715572, 847104, 635896, 291824, 75506, 9600, 550],
    [-4368, -64064, -404404, -1448360, -3260653, -4822192, -4746678, -3077832, -1269923,
     -312560, -41860, -3000, -125],
    [8008, 128128, 888888, 3532000, 8937678, 15134672, 17518258, 13887552, 7423128, 2580000,
     546320, 63200, 3275],
    [-11440, -192192, -1405404, -5915064, -15961703, -29101024, -36765756, -32436304,
     -19832526, -8191760, -2165340, -326600, -20775],
    [12870, 219648, 1633632, 7003776, 19292248, 36011264, 46777648, 42684320, 27215340,
     11855040, 3359060, 558400, 41650],
    [-11440, -192192, -1405404, -5915064, -15961703, -29101024, -36765756, -32436304,
     -19832526, -8191760, -2165340, -326600, -20775],
    [8008, 128128, 888888, 3532000, 8937678, 15134672, 17518258, 13887552, 7423128, 2580000,
     546320, 63200, 3275],
    [-4368, -64064, -404404, -1448360, -3260653, -4822192, -4746678, -3077832, -1269923,
     -312560, -41860, -3000, -125],
    [1820, 23296, 126672, 384192, 715572, 847104, 635896, 291824, 75506, 9600, 550],
    [-560, -5824, -25116, -58488, -80039, -65392, -30734, -7400, -655],
    [120, 896, 2632, 3872, 3026, 1200, 190],
    [-16, -64, -84, -40, -5],
    [1],
)


def test_gf_ver_five_rows_pinned():
    bi = gf_ver_grid(5)
    assert bi.spec.order == 16
    assert bi.gf.den == Poly([Poly(c) for c in G5_DEN])
    assert substitute_v(bi.gf, 1) == gf_grid(5).gf


def test_gf_ver_at_zero_counts_vertical_free_trees():
    # v = 0 keeps only spanning trees with no vertical edge; for two rows
    # only n = 1 has one (the single rung)
    out = substitute_v(gf_ver_grid(2).gf, 0)
    assert taylor_coeffs(out, 6) == [0, 0, 0, 0, 0, 0]


def test_gf_ver_data_round_trip():
    from exactgf import ver_polynomial

    out = gf_ver_grid(2)
    series = taylor_coeffs(out.gf, 7)
    for n in range(1, 7):
        want = ver_polynomial(grid_graph(2, n))
        got = series[n]
        got = got if isinstance(got, Poly) else Poly((got,))
        assert got == want


def test_gf_ver_general_base_graph():
    triangle = LabeledGraph(3, ((0, 1, "other"), (1, 2, "other"), (0, 2, "other")))
    out = gf_ver(triangle)
    s1 = substitute_v(out.gf, 1)
    plain = gf_spanning(triangle)
    assert s1 == plain.gf


# --- moments ---------------------------------------------------------------------

def test_moments_two_by_two():
    rep = moments(path_graph(2), 2)
    assert rep.mean == Fraction(3, 2)
    assert rep.variance == Fraction(1, 4)


def test_moments_one_row_degenerate():
    rep = moments(path_graph(1), 9)
    assert rep.mean == 0
    assert rep.variance == 0
    assert rep.skewness is None and rep.kurtosis is None


def test_moments_single_vertex():
    # the reduced Laplacian of one vertex has no rows: the minor is 1
    assert moments(path_graph(1), 1) == moments_by_interpolation(path_graph(1), 1)
    rep = moments(path_graph(1), 1)
    assert (rep.n, rep.mean, rep.variance, rep.skewness) == (1, 0, 0, None)


@settings(max_examples=40, deadline=None)
@given(_connected_multigraphs(), st.integers(1, 8))
def test_moments_match_interpolation_oracle(g, n):
    assert moments(g, n) == moments_by_jet_minor(g, n) == moments_by_interpolation(g, n)


_HUGE = st.builds(lambda m, e: m * 3 ** e, st.integers(1, 10 ** 40), st.integers(0, 30000))


@settings(max_examples=60, deadline=None)
@given(_HUGE, _HUGE, _HUGE, _HUGE, st.booleans(), st.sampled_from((Fraction(3, 2), Fraction(2))))
@example(0, 1, 1, 1, False, Fraction(3, 2))
def test_decimal_ratio_is_the_whole_conversion(p, q, r, s, negative, power):
    # the 200-bit shift changes no digit of the 30 against whole conversion
    num, var = Fraction(-p if negative else p, q), Fraction(r, s)
    assert spanning._decimal_ratio(num, var, power) == decimal_ratio_whole(num, var, power)


def test_moments_need_a_layer():
    with pytest.raises(ValueError):
        moments(path_graph(2), 0)


def test_moments_build_no_product_graph(monkeypatch):
    want = [moments_by_jet_minor(path_graph(k), n) for k, n in ((3, 1), (3, 7), (1, 4))]

    def never(*args):
        raise AssertionError("moments built or eliminated the product graph")

    graphs._cone(path_graph(3))  # the base graph's cone minor, cached per graph
    for name in ("product_with_path", "_laplacian_minor"):
        monkeypatch.setattr(graphs, name, never)
    monkeypatch.setattr(spanning, "grid_graph", never)
    assert [moments(path_graph(k), n) for k, n in ((3, 1), (3, 7), (1, 4))] == want


@settings(max_examples=40, deadline=None)
@given(_connected_multigraphs(max_vertices=5), st.integers(2, 12))
@example(LabeledGraph(2, ((0, 1, "other", 2),)), 2)
@example(LabeledGraph(4, ((0, 1, "other", 1), (2, 3, "other", 2))), 3)  # disconnected: all 0
@example(LabeledGraph(5, tuple((0, v, "other", 1) for v in range(1, 5))), 2)  # a star: dense
def test_tree_minor_is_the_product_graph_minor(g, n):
    h = product_with_path(g, n)
    for w in (0, 1, 3, graphs.Jet((1, 1, 0, 0, 0)), graphs.Evals(range(1, 6))):
        got = graphs._tree_minor(g, w, n)
        want = graphs._laplacian_minor(h, {h.n_vertices - 1}, w)
        assert type(got) is type(want) and got == want


def test_moments_eliminate_in_the_grounded_band(monkeypatch):
    # one elimination, in the band of the grounded block of a_n(w L): for a
    # path min(n, k - 2), not the dense k - 2
    want = moments_by_jet_minor(path_graph(6), 3)
    graphs._cone(path_graph(6))  # the base graph's cone minor, cached per graph
    bands, real = [], graphs._eliminated
    monkeypatch.setattr(graphs, "_eliminated", lambda column, w: bands.append(w) or real(column, w))
    assert moments(path_graph(6), 3) == want and bands == [3]
    for k, n, band in ((100, 2, 2), (100, 3, 3), (6, 9, 4)):
        del bands[:]
        moments(path_graph(k), n)
        assert bands == [band]


def test_tree_minors_bad_pivot_fails_the_spot_check(monkeypatch):
    # det M_n is P_n itself: a wrong pivot at k = 2 is no longer caught by a
    # division.  Doubled, its data fit the mirrored window, so it reaches
    # the fit, whose spot check refuses it; a constant 5 breaks the mirror,
    # so no recurrence fits the full window
    graphs._cone(path_graph(2))  # the base graph's cone minor, cached per graph
    monkeypatch.setattr(graphs, "_eliminated",
                        lambda column, w: iter([([[2 * column(0)[-1]]], 1)]))
    with pytest.raises(InternalInconsistency, match="term 10 of the data differs"):
        gf_grid(2)  # the stream of a fit's data
    monkeypatch.setattr(graphs, "_eliminated", lambda column, w: iter([([[5]], 1)]))
    with pytest.raises(InternalInconsistency, match="fit to 8 terms is none"):
        gf_grid(2)


def test_moments_disconnected_raises():
    with pytest.raises(NotConnected):
        moments(LabeledGraph(2, ()), 1)


def test_moments_match_direct_enumeration():
    # exact distribution over the 4-cycle's 4 spanning trees
    rep = moments(path_graph(2), 2)
    xs = [1, 1, 2, 2]
    mean = Fraction(sum(xs), 4)
    var = Fraction(sum(x * x for x in xs), 4) - mean**2
    assert rep.mean == mean and rep.variance == var
    mu4 = sum((Fraction(x) - mean) ** 4 for x in xs) / 4
    assert rep.kurtosis == Decimal(str(float(mu4 / var**2)))

