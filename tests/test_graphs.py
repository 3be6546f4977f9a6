"""Grid graphs, products with paths, Laplacians, and exact counting."""
import random
import tracemalloc
from itertools import islice
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from exactgf import (
    LabeledGraph,
    Matrix,
    Poly,
    VAR_V,
    gf_ver_grid,
    grid_graph,
    laplacian,
    moments,
    path_graph,
    product_with_path,
    spanning_tree_count,
    two_forest_count,
    ver_polynomial,
)
from exactgf import graphs
from exactgf.core import _newton_interpolate
from exactgf.errors import BadVertexPair, InternalInconsistency
from exactgf.graphs import (
    Evals,
    Jet,
    _laplacian_minor,
    _tree_minors,
    _ver_points,
    graph_from_json_dict,
)
from exactgf.spanning import _as_data

import oracles
from test_spanning import _complete_graph, _connected_multigraphs
from oracles import (
    continuants_by_doubling,
    laplacian_minor_dense,
    last_pivots,
    layer_sweep,
    random_labeled_graph,
    second_difference,
    spanning_tree_count_bruteforce,
    two_forest_count_bruteforce,
    ver_polynomial_bruteforce,
    ver_polynomial_per_point,
    ver_sweep_per_point,
)


# --- construction -------------------------------------------------------------

def test_grid_2x2_is_four_cycle():
    g = grid_graph(2, 2)
    assert g.n_vertices == 4
    assert len(g.edges) == 4
    labels = sorted(e[2] for e in g.edges)
    assert labels == ["horizontal", "horizontal", "vertical", "vertical"]


def test_grid_path_case():
    g = grid_graph(1, 5)
    assert g.n_vertices == 5
    assert len(g.edges) == 4
    assert all(e[2] == "horizontal" for e in g.edges)


def test_grid_3x2_counts():
    g = grid_graph(3, 2)
    assert g.n_vertices == 6
    assert len(g.edges) == 7
    verticals = [e for e in g.edges if e[2] == "vertical"]
    assert len(verticals) == 4


def test_product_single_vertex_gives_path():
    g = product_with_path(LabeledGraph(1, ()), 4)
    assert g.n_vertices == 4
    assert len(g.edges) == 3
    assert all(e[2] == "horizontal" for e in g.edges)


def test_product_path2_equals_grid2():
    got = product_with_path(path_graph(2), 5)
    want = grid_graph(2, 5)
    assert got.n_vertices == want.n_vertices
    assert sorted(got.edges) == sorted(want.edges)


@pytest.mark.parametrize("k, n", [(1, 3), (3, 4), (4, 2)])
def test_grid_graph_is_the_product_of_a_path(k, n):
    assert grid_graph(k, n) == product_with_path(path_graph(k), n)


def test_product_triangle_prism():
    triangle = LabeledGraph(3, ((0, 1, "other"), (1, 2, "other"), (0, 2, "other")))
    prism = product_with_path(triangle, 2)
    assert prism.n_vertices == 6
    assert len(prism.edges) == 9


def test_self_loops_rejected():
    with pytest.raises(ValueError):
        LabeledGraph(2, ((0, 0, "other"),))


# --- Laplacians -----------------------------------------------------------------

def test_laplacian_four_cycle():
    lap = laplacian(grid_graph(2, 2))
    assert [lap[i, i] for i in range(4)] == [2, 2, 2, 2]
    for i in range(4):
        assert sum(lap[i, j] for j in range(4)) == 0


def test_laplacian_single_edge():
    lap = laplacian(LabeledGraph(2, ((0, 1, "other"),)))
    assert lap == Matrix([[1, -1], [-1, 1]])


def test_laplacian_symbolic_single_vertical_edge():
    lap = laplacian(grid_graph(2, 1), vertical_weight=VAR_V)
    v = Poly([0, 1])
    assert lap[0, 0] == v and lap[1, 1] == v
    assert lap[0, 1] == -v and lap[1, 0] == -v


def test_laplacian_symbolic_row_sums_zero():
    lap = laplacian(grid_graph(3, 3), vertical_weight=VAR_V)
    n = 9
    for i in range(n):
        acc = Poly()
        for j in range(n):
            acc = acc + lap[i, j]
        assert not acc


# --- counting --------------------------------------------------------------------

def test_spanning_tree_counts_grid_two_rows():
    assert spanning_tree_count(grid_graph(2, 2)) == 4
    assert spanning_tree_count(grid_graph(2, 3)) == 15


def test_spanning_tree_count_trees_have_one():
    assert spanning_tree_count(path_graph(7)) == 1
    assert spanning_tree_count(grid_graph(1, 9)) == 1


def test_spanning_tree_count_disconnected_zero():
    g = LabeledGraph(4, ((0, 1, "other"), (2, 3, "other")))
    assert spanning_tree_count(g) == 0


def test_two_forest_path_endpoints():
    for n in (2, 3, 6):
        g = grid_graph(1, n)
        assert two_forest_count(g, 0, n - 1) == n - 1


def test_two_forest_grid22_diagonal():
    assert two_forest_count(grid_graph(2, 2), 0, 3) == 4  # frozen brute force


def test_two_forest_isolated_pair():
    g = LabeledGraph(2, ())
    assert two_forest_count(g, 0, 1) == 1  # empty forest


def test_two_forest_same_vertex_rejected():
    with pytest.raises(BadVertexPair):
        two_forest_count(grid_graph(2, 2), 1, 1)


def test_two_forest_vertex_outside_graph_rejected():
    for a, b in ((0, 99), (-1, 99), (-1, 0), (0, -1), (4, 0)):
        with pytest.raises(BadVertexPair):
            two_forest_count(grid_graph(2, 2), a, b)


def test_ver_polynomial_examples():
    assert ver_polynomial(grid_graph(2, 1)) == Poly([0, 1])           # v
    assert ver_polynomial(grid_graph(2, 2)) == Poly([0, 2, 2])        # 2v + 2v^2
    assert ver_polynomial(grid_graph(1, 6)) == Poly([1])              # no verticals


def test_ver_polynomial_specializations():
    for k, n in ((2, 3), (3, 2), (3, 3)):
        g = grid_graph(k, n)
        p = ver_polynomial(g)
        assert p.eval(1) == spanning_tree_count(g)
        assert all(c >= 0 for c in p.coeffs)


def test_ver_polynomial_matches_symbolic_determinant():
    from exactgf import det_bareiss

    for k, n in ((2, 2), (2, 3), (3, 2)):
        g = grid_graph(k, n)
        lap = laplacian(g, vertical_weight=VAR_V)
        sym = det_bareiss(lap.delete_rows_cols({g.n_vertices - 1}))
        assert ver_polynomial(g) == sym


def test_cofactor_choice_and_relabeling_invariance():
    rng = random.Random(77)
    for _ in range(30):
        g = random_labeled_graph(rng, max_vertices=5, max_edges=8)
        lap = laplacian(g)
        from exactgf import det_bareiss

        base = det_bareiss(lap.delete_rows_cols({g.n_vertices - 1}))
        other = det_bareiss(lap.delete_rows_cols({0}))
        assert base == other
        # relabel vertices by a random permutation
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        relabeled = LabeledGraph(
            g.n_vertices,
            tuple((perm[u], perm[v], lab, m) for u, v, lab, m in g.edges),
        )
        assert spanning_tree_count(relabeled) == spanning_tree_count(g)


def test_counts_match_bruteforce_on_randoms():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_labeled_graph(rng, max_vertices=5, max_edges=8)
        assert spanning_tree_count(g) == spanning_tree_count_bruteforce(g)
        a, b = rng.sample(range(g.n_vertices), 2)
        assert two_forest_count(g, a, b) == two_forest_count_bruteforce(g, a, b)
        assert ver_polynomial(g) == ver_polynomial_bruteforce(g)


def test_multiedges_are_distinguishable():
    g = LabeledGraph(2, ((0, 1, "vertical", 3),))
    assert spanning_tree_count(g) == 3
    assert ver_polynomial(g) == Poly([0, 3])
    assert spanning_tree_count_bruteforce(g) == 3


def test_graph_json_round_trip():
    obj = {"n": 3, "edges": [[0, 1, "vertical", 2], [1, 2, "horizontal"]]}
    g = graph_from_json_dict(obj)
    assert g.n_vertices == 3
    assert g.edges == ((0, 1, "vertical", 2), (1, 2, "horizontal", 1))
    with pytest.raises(ValueError):
        graph_from_json_dict({"edges": []})


def test_graph_json_takes_integers_of_any_size_from_zero_vertices():
    assert graph_from_json_dict({"n": 0, "edges": []}).n_vertices == 0
    heavy = graph_from_json_dict({"n": 2, "edges": [[0, 1, "other", 7 ** 3000]]})
    assert heavy.edges == ((0, 1, "other", 7 ** 3000),)


# --- streamed Laplacian minors against the dense path ------------------------------

@st.composite
def _multigraphs(draw, max_vertices=8):
    """Random labeled multigraphs, often disconnected; half of them are
    relabeled by a random permutation, which widens the band."""
    n = draw(st.integers(1, max_vertices))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] != uv[1])
    edges = draw(st.lists(
        st.tuples(pairs, st.sampled_from(("vertical", "horizontal", "other")),
                  st.integers(1, 3)),
        max_size=12 if n > 1 else 0))
    perm = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        perm = list(range(n))
    return LabeledGraph(n, tuple((perm[u], perm[v], label, mult)
                                 for (u, v), label, mult in edges))


@st.composite
def _minors(draw, max_vertices=8, min_drop=0, max_drop=3):
    """A graph from _multigraphs and a set of its vertices to delete."""
    g = draw(_multigraphs(max_vertices))
    drop = draw(st.sets(st.integers(0, g.n_vertices - 1), min_size=min_drop,
                        max_size=min(max_drop, g.n_vertices)))
    return g, drop


# minors whose only zero pivot is the last one (at positive weights): the
# whole Laplacian of a connected graph, and a path 1-2 followed by the
# isolated vertex 3
_LAST_PIVOT_ZERO = ((grid_graph(2, 3), set()),
                    (LabeledGraph(4, ((0, 1, "vertical", 1), (1, 2, "other", 2))), {0}))


@settings(max_examples=150, deadline=None)
@given(_minors(), st.sampled_from((0, 1, 2, 5)))
@example(_LAST_PIVOT_ZERO[0], 1)
@example(_LAST_PIVOT_ZERO[1], 2)
@example((LabeledGraph(3, ((1, 2, "other", 1),)), set()), 1)  # first pivot 0
def test_laplacian_minor_matches_dense(case, x):
    g, drop = case
    minor = laplacian_minor_dense(g, drop, x)
    assert _laplacian_minor(g, drop, x) == minor
    # the pivot before the last is the minor without the last kept vertex
    kept = [v for v in range(g.n_vertices) if v not in drop]
    before = laplacian_minor_dense(g, drop | set(kept[-1:]), x) if kept else 1
    assert last_pivots(g, drop, x) == (before, minor)


@settings(max_examples=20, deadline=None)
@given(_multigraphs(max_vertices=5), st.integers(1, 12))
@example(LabeledGraph(1, ()), 4)  # a path: one tree, n - 1 corner forests
@example(LabeledGraph(4, ((0, 1, "other", 1), (2, 3, "vertical", 2))), 3)  # disconnected
def test_jumps_match_the_public_counters_on_products(g, n):
    # the spot checks' routes on g, against the streamed minors of g x P_n
    p = product_with_path(g, n)
    assert graphs._grounded(g, 1, n) == spanning_tree_count(p)
    points = graphs._ver_points(g, n)
    assert graphs._grounded(g, points, n) == ver_polynomial(p).eval(points)
    # every pair of a layer-1 and a layer-n vertex of a connected g
    k, far = g.n_vertices, p.n_vertices - g.n_vertices
    if g.is_connected():
        for a in range(k):
            for b in range(k):
                if a != far + b:
                    assert graphs._corner_count(g, a, b, n)[0] == two_forest_count(p, a, far + b)


def test_jumps_eliminate_no_product_graph(monkeypatch):
    def never(*args):
        raise AssertionError("a jump eliminated the product graph")

    g, h = grid_graph(3, 5), grid_graph(2, 4)
    points = graphs._ver_points(path_graph(2), 4)
    want = [laplacian_minor_dense(g, {14}), laplacian_minor_dense(g, {1, 14}),
            laplacian_minor_dense(h, {7}, VAR_V).eval(points)]
    tau = next(islice(graphs._tree_minors(path_graph(10), 1), 199, None))
    for k in (2, 3, 10):  # the base graphs' cone minors, cached per graph
        graphs._cone(path_graph(k))
    for name in ("product_with_path", "_laplacian_minor"):
        monkeypatch.setattr(graphs, name, never)
    assert graphs._grounded(path_graph(10), 1, 200) == tau
    assert [graphs._grounded(path_graph(3), 1, 5), graphs._corner_count(path_graph(3), 1, 2, 5)[0],
            graphs._grounded(path_graph(2), points, 4)] == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_public_counts_on_products_match_dense(data):
    h = product_with_path(data.draw(_multigraphs(max_vertices=4)),
                          data.draw(st.integers(1, 3)))
    last = h.n_vertices - 1
    assert spanning_tree_count(h) == laplacian_minor_dense(h, {last})
    assert ver_polynomial(h) == laplacian_minor_dense(h, {last}, VAR_V)
    if h.n_vertices > 1:
        a, b = data.draw(st.lists(st.integers(0, last), min_size=2, max_size=2,
                                  unique=True))
        assert two_forest_count(h, a, b) == laplacian_minor_dense(h, {a, b})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_layer_sweep_matches_per_term_minors(data):
    # labels of g do not matter: product_with_path makes every edge of g vertical
    g = data.draw(_multigraphs(max_vertices=5))
    x = data.draw(st.sampled_from((0, 1, 2, 3)))
    layers = data.draw(st.integers(1, 5))
    k = g.n_vertices
    trees = list(islice(layer_sweep(g, x), layers))
    forests = list(islice(layer_sweep(g, x, forests=True), layers))
    for n in range(1, layers + 1):
        h = product_with_path(g, n)
        last = k * n - 1
        assert trees[n - 1] == _laplacian_minor(h, {last}, x)
        assert forests[n - 1] == (_laplacian_minor(h, {0, last}, x) if last else 0)
        if x == 1:
            assert trees[n - 1] == spanning_tree_count(h)
            assert forests[n - 1] == (two_forest_count(h, 0, last) if last else 0)


@settings(max_examples=60, deadline=None)
@given(_multigraphs(max_vertices=5), st.integers(1, 6))
@example(LabeledGraph(1, ()), 4)
@example(LabeledGraph(2, ((0, 1, "other", 2),)), 5)
@example(LabeledGraph(4, ((0, 1, "other", 1), (2, 3, "other", 2))), 3)  # disconnected: all 0
def test_streams_match_the_layer_sweep(g, layers):
    # the fit data's recurrence streams against the product elimination they replaced
    for w in (0, 1, 2, Evals((1, 2, 3)), Jet((1, 1, 0))):
        got = list(islice(graphs._tree_minors(g, w), layers))
        want = list(islice(layer_sweep(g, w), layers))
        assert [type(x) for x in got] == [type(x) for x in want] and got == want
    if g.is_connected():
        got = list(islice(graphs._corner_counts(g, 0, g.n_vertices - 1), layers))
        assert [f for f, _tau in got] == list(islice(layer_sweep(g, 1, forests=True), layers))
        assert [tau for _f, tau in got] == list(islice(layer_sweep(g, 1), layers))


@settings(max_examples=30, deadline=None)
@given(_connected_multigraphs(max_vertices=5),
       st.one_of(st.integers(1, 40), st.sampled_from((100, 257))),
       st.sampled_from((1, 2, Evals((1, 2, 3)), Jet((1, 1, 0)))))
@example(LabeledGraph(1, ()), 257, 1)
@example(LabeledGraph(1, ()), 3, Jet((1, 1, 0)))
@example(path_graph(2), 2, Evals((1, 2, 3)))
@example(path_graph(2), 3, Jet((1, 1, 0)))
@example(path_graph(5), 3, Jet((1, 1, 0)))  # s = 5: truncated modulo z^(n + 1) below n = s,
@example(path_graph(5), 4, Jet((1, 1, 0)))  # reduced modulo z p(z) from n = s on
@example(path_graph(5), 5, Jet((1, 1, 0)))
@example(path_graph(5), 6, Jet((1, 1, 0)))
@example(_complete_graph(5), 3, Evals((1, 2, 3)))
@example(_complete_graph(5), 4, Evals((1, 2, 3)))
@example(_complete_graph(5), 5, Evals((1, 2, 3)))
@example(_complete_graph(5), 6, Evals((1, 2, 3)))
@example(path_graph(30), 2, Jet((1, 1, 0)))  # large s, small n: three powers of L(g)
def test_every_jump_is_its_stream_item(g, n, w):
    # the jump's scalar continuants, truncated (n < s) or reduced modulo
    # the characteristic polynomial (n >= s), evaluated against the
    # k-square matrix doubling they replaced, and each count against item
    # n of the sequential stream it skips
    def item(stream):
        return next(islice(stream, n - 1, None))

    k = g.n_vertices
    a, _identity = graphs._scaled(g, w)
    t = [[x + 2 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    want = continuants_by_doubling(t, n)
    at = graphs._jump(g, w, n)
    assert [at(1, 0, 0), at(0, 1, 0), at(0, 0, 1)] == list(want)
    assert at(1, -2, 1) == second_difference(want)
    got, want = graphs._tree_minor(g, w, n), item(graphs._tree_minors(g, w))
    assert type(got) is type(want) and got == want
    got = graphs._grounded(g, w, n)
    assert type(got) is type(want) and got == want
    for a, b in ((0, k - 1), (k - 1, 0), (k // 2, k // 2)):
        assert graphs._corner_count(g, a, b, n) == item(graphs._corner_counts(g, a, b))


def test_tree_minors_eliminates_the_grounded_block(monkeypatch):
    # the data stream's matrix is the grounded block M_n that every jump
    # eliminates: the rows it hands _last_pivot at n are the lower triangle
    # of _grounded_block(g, w, n)
    rng = random.Random(2018)
    multigraph = next(h for h in iter(lambda: random_labeled_graph(rng, 5, 9), None)
                      if h.is_connected() and h.n_vertices >= 3)
    complete = LabeledGraph(4, tuple((u, v, "other", 1) for u in range(4) for v in range(u)))
    rows, real = [], graphs._last_pivot

    def recording(column, size, w, zero):
        rows.append([column(e) for e in range(size)])
        return real(column, size, w, zero)

    monkeypatch.setattr(graphs, "_last_pivot", recording)
    for g in (path_graph(4), complete, multigraph):
        layers = 2 * g.n_vertices + 1
        for w in (1, Evals((1, 2, 3)), Jet((1, 1, 0))):
            want = [[row[:e + 1] for e, row in enumerate(graphs._grounded_block(g, w, n))]
                    for n in range(1, layers + 1)]
            del rows[:]  # the jumps' cone minors from n = k on ran _last_pivot too
            list(islice(graphs._tree_minors(g, w), layers))
            assert rows == want


def test_corner_count_evaluates_only_what_it_reads(monkeypatch):
    # one jump, evaluated for the first k - 1 rows of a_n, rows a and b of
    # C_n and row b of U_(n-1), never in full, on each side of n = s = 4
    calls, jump = [], graphs._jump

    def recording(*args):
        at = jump(*args)
        full = at(1, 0, 0)
        assert at(1, 0, 0, rows=(3, 1)) == [full[3], full[1]]
        return lambda *c, rows: calls.append((c, tuple(rows))) or at(*c, rows=rows)

    monkeypatch.setattr(graphs, "_jump", recording)
    g = path_graph(4)
    for n in (2, 4, 5, 40):
        for a, b in ((0, 3), (3, 0), (1, 2), (2, 2)):
            del calls[:]
            want = next(islice(graphs._corner_counts(g, a, b), n - 1, None))
            assert graphs._corner_count(g, a, b, n) == want
            assert sorted(calls) == [((-1, 1, 0), (a, b)), ((1, -2, 1), (0, 1, 2)),
                                     ((1, 0, 0), (b,))]
        # the tree minor's two routes read the first k - 1 rows of a_n alone
        del calls[:]
        want = next(islice(graphs._tree_minors(g, 1), n - 1, None))
        assert graphs._grounded(g, 1, n) == graphs._tree_minor(g, 1, n) == want
        assert calls == [((1, -2, 1), (0, 1, 2))] * 2


def test_jumps_reduce_only_past_the_matrix_size(monkeypatch):
    # below n = s the scalar continuants are truncated modulo z^(n + 1), so
    # no characteristic polynomial is built; from n = s on they are reduced
    # modulo it.  Two modular products per bit of n below the top one, no
    # ring divides, and one graph's jumps build each power of L(g) once
    bases = (path_graph(12), _complete_graph(5))
    for g in bases:
        graphs._cone(g)  # per graph, cached: its cone minor divides

    def never(*args):
        raise AssertionError("the jump divided")

    for ring in (Jet, Evals):
        for name in ("__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__"):
            monkeypatch.setattr(ring, name, never, raising=False)
    calls = []
    for name in ("_cone", "_mulmod", "_step"):
        monkeypatch.setattr(graphs, name, lambda *a, name=name, real=getattr(graphs, name):
                            calls.append(name) or real(*a))
    graphs._prefix.cache_clear()
    for g in bases:
        s = g.n_vertices
        del calls[:]
        for w in (1, Jet((1, 1, 0)), Evals((1, 2))):
            for n in (*range(1, s + 2), 2 * s, 257):
                before = len(calls)
                graphs._jump(g, w, n)(1, -2, 1)
                assert ("_cone" in calls[before:]) == (n >= s)
                assert calls[before:].count("_mulmod") == 2 * (n.bit_length() - 1)
        assert calls.count("_step") == s - 1  # (-L(g))^i for 0 < i < s, once


@settings(max_examples=40, deadline=None)
@given(_multigraphs(max_vertices=4), st.integers(1, 9))
@example(path_graph(1), 3)  # no vertical edge: one point, and int minors at n = 1
def test_ver_sweep_matches_ver_polynomial(g, count):
    # the terms in evaluation form, at v = 1..count p + 1, and interpolated
    evals = list(islice(_tree_minors(g, _ver_points(g, count)), count))
    got = list(_as_data(evals))
    assert got == list(islice(ver_sweep_per_point(g), count))
    assert got == [ver_polynomial(product_with_path(g, n)) for n in range(1, len(got) + 1)]
    per_layer = min(sum(mult for *_edge, mult in g.edges), g.n_vertices - 1)
    points = Evals(range(1, count * per_layer + 2))
    assert evals == [p.eval(points) for p in got]


@settings(max_examples=80, deadline=None)
@given(_multigraphs())
def test_ver_polynomial_matches_the_per_point_oracle(g):
    assert ver_polynomial(g) == ver_polynomial_per_point(g)


def test_ver_polynomial_degree_bound_counts_tree_edges(monkeypatch):
    # 300 parallel vertical edges, but a spanning tree of 2 vertices has one
    # edge: the polynomial is interpolated from v = 1, 2 only, in one minor
    calls = []
    real = graphs._laplacian_minor
    monkeypatch.setattr(graphs, "_laplacian_minor", lambda *a: calls.append(a) or real(*a))
    assert ver_polynomial(LabeledGraph(2, ((0, 1, "vertical", 300),))) == Poly([0, 300])
    assert len(calls) == 1 and calls[0][2] == Evals((1, 2))


def test_ver_polynomial_is_one_stream(monkeypatch):
    # one streamed minor over Evals carries every point of v, on any graph,
    # a product included, and no det_bareiss runs
    def never(m):
        raise AssertionError("ver_polynomial called det_bareiss")

    cases = [(g, laplacian_minor_dense(g, {g.n_vertices - 1}, VAR_V))
             for g in (grid_graph(3, 4), _complete_graph(4), LabeledGraph(3, ((0, 2, "other", 2),)))]
    streams, real_stream = [], graphs._eliminated
    monkeypatch.setattr(graphs, "_eliminated", lambda *a: streams.append(a) or real_stream(*a))
    monkeypatch.setattr(graphs, "det_bareiss", never)
    for g, want in cases:
        del streams[:]
        assert ver_polynomial(g) == want
        assert len(streams) == 1


def test_layer_sweep_two_forests_of_a_path():
    # k = 1: at n = 1 both marked vertices are the single vertex, so 0
    assert list(islice(layer_sweep(path_graph(1), forests=True), 5)) == [0, 1, 2, 3, 4]
    assert [f for f, _tau in islice(graphs._corner_counts(path_graph(1), 0, 0), 5)] == [
        0, 1, 2, 3, 4]


def test_layer_sweep_zero_pivot_is_internal(monkeypatch):
    monkeypatch.setattr(oracles, "_eliminated", lambda column, w: iter([([[0]], 1)] * 3))
    with pytest.raises(InternalInconsistency):
        list(islice(layer_sweep(path_graph(2)), 3))


def test_pivot_zero_at_some_points_only_is_internal(monkeypatch):
    # pointwise at positive weights a pivot vanishes at every point or at none
    mixed = Evals((0, 5))
    monkeypatch.setattr(graphs, "_eliminated", lambda column, w: iter([([[mixed]], 1)] * 3))
    with pytest.raises(InternalInconsistency, match="some points"):
        _laplacian_minor(grid_graph(2, 2), {3}, Evals((1, 2)))
    with pytest.raises(InternalInconsistency, match="some points"):
        next(graphs._tree_minors(path_graph(2), Evals((1, 2))))


def test_points_below_one_are_rejected():
    # at v = 0 a product falls apart, and a pivot could vanish there alone
    with pytest.raises(ValueError):
        _laplacian_minor(grid_graph(2, 2), {3}, Evals((0, 1)))
    with pytest.raises(ValueError):
        next(graphs._tree_minors(path_graph(2), Evals((0, 1))))


def _taylor_at_one(g, drop, k):
    """The first k Taylor coefficients at v = 1 of the minor: the dense
    integer minors at v = 0..D, interpolated, then expanded at v = 1."""
    d_bound = sum(m for _u, _v, label, m in g.edges if label == "vertical")
    p = Poly(_newton_interpolate([laplacian_minor_dense(g, drop, x)
                                  for x in range(d_bound + 1)]))
    return [sum(c * comb(i, j) for i, c in enumerate(p.coeffs)) for j in range(k)]


def _jet_minor(g, drop, k):
    """_laplacian_minor at v = 1 + e over Z[e]/(e^k), as k coefficients."""
    got = _laplacian_minor(g, drop, Jet(((1, 1) + (0,) * (k - 2))[:k]))
    return list(got.values if isinstance(got, Jet) else (got,) + (0,) * (k - 1))


@settings(max_examples=80, deadline=None)
@given(_minors(max_vertices=6, min_drop=1, max_drop=2), st.integers(1, 5))
@example(_LAST_PIVOT_ZERO[0], 3)
@example(_LAST_PIVOT_ZERO[1], 3)
def test_jet_laplacian_minor_is_the_taylor_expansion_at_one(case, k):
    g, drop = case
    assert _jet_minor(g, drop, k) == _taylor_at_one(g, drop, k)


def test_minors_stay_in_the_weight_ring_without_a_vertical_edge():
    # path_graph(1) has no vertical edge, so no entry carries the weight
    g = path_graph(1)
    for n in (1, 2, 5):
        minor = _laplacian_minor(product_with_path(g, n), {n - 1}, Jet((1, 1, 0)))
        assert type(minor) is Jet and minor == 1  # a path is its one spanning tree
    h = product_with_path(g, 2)
    for drop, pivots in (({1}, (1, 1)), ({5}, (1, 0)), ({0, 1}, (1, 1))):
        got = last_pivots(h, drop, Jet((2, 0, 0)))
        assert all(type(p) is Jet for p in got) and got == pivots
    for h in (g, LabeledGraph(0, ())):  # the empty product too
        got = list(islice(graphs._tree_minors(h, Evals((1, 2))), 4))
        assert [(type(x), x.values) for x in got] == [(Evals, (1, 1))] * 4
    got = ver_polynomial(product_with_path(g, 3))  # a path: no vertical edge
    assert got == Poly([1])
    assert repr(gf_ver_grid(1)) == (
        "GFResult(gf=RationalFunction([Poly([]), Poly([1])], [Poly([1]), Poly([-1])]), "
        "spec=CFiniteSpec(initial=(Poly([1]),), den=(Poly([1]), Poly([-1]))), "
        f"data=({', '.join(['Poly([1])'] * 9)}), offset=1)")
    for n in (1, 5, 30):
        assert repr(moments(g, n)) == (f"MomentsReport(n={n}, mean=Fraction(0, 1), "
                                       "variance=Fraction(0, 1), skewness=None, kurtosis=None)")


def test_laplacian_minor_rejects_negative_weight():
    with pytest.raises(ValueError):
        _laplacian_minor(grid_graph(2, 2), {3}, -1)
    with pytest.raises(ValueError):
        _laplacian_minor(grid_graph(2, 2), {3}, Jet((0, 1)))
    for w in (-1, Jet((0, 1))):  # the tree stream too: its zero pivots need w >= 0
        with pytest.raises(ValueError):
            next(graphs._tree_minors(path_graph(3), w))


def test_laplacian_minor_is_the_last_pivot_without_det_bareiss(monkeypatch):
    def never(m):
        raise AssertionError("_laplacian_minor called det_bareiss")

    monkeypatch.setattr(graphs, "det_bareiss", never)
    g = grid_graph(4, 30)
    assert spanning_tree_count(g) == laplacian_minor_dense(g, {119})
    assert two_forest_count(g, 0, 119) == laplacian_minor_dense(g, {0, 119})
    h = grid_graph(3, 4)
    assert _jet_minor(h, {11}, 4) == _taylor_at_one(h, {11}, 4)


def test_resistance_memory_stays_small():
    from exactgf import resistance

    tracemalloc.start()
    try:
        resistance(2, 1000)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_ver_polynomial_non_integer_coefficient_is_internal(monkeypatch):
    # values x(x-1)/2 interpolate to x^2/2 - x/2: not an integer polynomial
    monkeypatch.setattr(graphs, "_laplacian_minor", lambda g, drop, x=1: x * (x - 1) // 2)
    with pytest.raises(InternalInconsistency):
        ver_polynomial(grid_graph(2, 2))
