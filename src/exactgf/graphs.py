"""Grid graphs, graph-times-path products, and exact tree/forest counting
through Laplacian minors.

Vertices of a k x n grid are numbered column-major: (i, j) with 1 <= i <= k,
1 <= j <= n maps to (j-1)*k + (i-1), so each layer of the product occupies a
contiguous index block and every edge joins vertices at most k apart.

Every count is a Laplacian minor (matrix-tree theorem), and every minor is
computed by _laplacian_minor straight from the edge list: rows are built
one at a time holding only their band, streamed through fraction-free
(Bareiss) elimination in a window of half-bandwidth w, and the last w x w
block goes to det_bareiss.  No dense Laplacian is built, so a minor of a
graph with N vertices and E edges costs O(N + E + N*w^2) time and
O(N + E + w^2) memory; for G x P_n, w is the number of vertices of G.
Vertical weights may be core.Jet series (spanning.moments uses 1 + e).
laplacian() builds the dense (optionally v-weighted) matrix, which the
tests use as the reference for these minors.

Edges carry an orientation label: edges inside a layer are "vertical",
edges between consecutive layers are "horizontal".  The vertical label is
what the weighted Laplacian marks with the variable v when counting
spanning trees by their number of vertical edges.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Jet, Matrix, Poly, _newton_interpolate, det_bareiss
from .errors import BadVertexPair, InternalInconsistency

VERTICAL = "vertical"
HORIZONTAL = "horizontal"
OTHER = "other"

_LABELS = (VERTICAL, HORIZONTAL, OTHER)

#: The weight marker for building the v-weighted Laplacian.
VAR_V = Poly((0, 1))


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected multigraph with labeled edges.

    edges is a tuple of (u, v, label, multiplicity) with 0-based vertex
    indices, u != v, and label one of vertical/horizontal/other.
    """

    n_vertices: int
    edges: tuple

    def __post_init__(self):
        norm = []
        for e in self.edges:
            if len(e) == 3:
                u, v, label = e
                mult = 1
            else:
                u, v, label, mult = e
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"vertex out of range in edge {e}")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if label not in _LABELS:
                raise ValueError(f"unknown label {label!r}")
            if mult < 1:
                raise ValueError("multiplicity must be positive")
            norm.append((u, v, label, mult))
        object.__setattr__(self, "edges", tuple(norm))

    def is_connected(self) -> bool:
        if self.n_vertices <= 1:
            return True
        parent = list(range(self.n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comp = self.n_vertices
        for u, v, _label, _m in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comp -= 1
        return comp == 1


def grid_graph(k: int, n: int) -> LabeledGraph:
    """The k x n grid graph with unit-step adjacency."""
    if k < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")

    def idx(i, j):
        return (j - 1) * k + (i - 1)

    edges = []
    for j in range(1, n + 1):
        for i in range(1, k + 1):
            if i < k:
                edges.append((idx(i, j), idx(i + 1, j), VERTICAL, 1))
            if j < n:
                edges.append((idx(i, j), idx(i, j + 1), HORIZONTAL, 1))
    return LabeledGraph(k * n, tuple(edges))


def path_graph(k: int) -> LabeledGraph:
    """Path on k vertices; edges labeled vertical (it is grid_graph(k, 1))."""
    return grid_graph(k, 1)


def product_with_path(g: LabeledGraph, n: int) -> LabeledGraph:
    """n stacked copies of g, consecutive copies joined vertex-to-vertex.

    All intra-copy edges are labeled vertical, the copy-to-copy edges
    horizontal, so grid_graph(k, n) == product_with_path(path_graph(k), n).
    """
    if n < 1:
        raise ValueError("need at least one layer")
    k = g.n_vertices
    edges = []
    for j in range(n):
        base = j * k
        for u, v, _label, mult in g.edges:
            edges.append((base + u, base + v, VERTICAL, mult))
        if j + 1 < n:
            for u in range(k):
                edges.append((base + u, base + k + u, HORIZONTAL, 1))
    return LabeledGraph(k * n, tuple(edges))


def laplacian(g: LabeledGraph, vertical_weight=1) -> Matrix:
    """Weighted Laplacian: off-diagonal (i,j) entry is minus the total
    weight of edges between i and j; rows sum to zero.

    vertical_weight applies to vertical edges only: pass 1 for plain
    counting, VAR_V for the polynomial statistic, or any exact scalar to
    evaluate that polynomial Laplacian at a point.
    """
    n = g.n_vertices
    symbolic = isinstance(vertical_weight, Poly)
    zero = Poly() if symbolic else 0
    rows = [[zero] * n for _ in range(n)]
    for u, v, label, mult in g.edges:
        w = vertical_weight * mult if label == VERTICAL else mult
        if symbolic and not isinstance(w, Poly):
            w = Poly((w,))
        rows[u][v] = rows[u][v] - w
        rows[v][u] = rows[v][u] - w
        rows[u][u] = rows[u][u] + w
        rows[v][v] = rows[v][v] + w
    return Matrix(rows)


def _laplacian_minor(g: LabeledGraph, drop, vertical_weight=1):
    """det of the Laplacian of g, with vertical edges weighted by
    vertical_weight, after deleting the rows and columns in drop
    (vertices outside the graph are ignored:
    spanning_tree_count of the 0-vertex graph drops vertex -1 and gets 1;
    two_forest_count checks its vertices before calling).

    The kept vertices keep their order, and w is the largest index gap
    along an edge of nonzero weight, so the minor is banded with
    half-bandwidth w.  Rows enter a window of w + 1 rows as the
    elimination reaches them, holding only their entries from the
    diagonal rightwards (the matrix and every Bareiss stage are
    symmetric).  An entry entering after pivot p is scaled by p, the
    factor Bareiss would have given it had it been inside the window all
    along.  The last m = max(w, 1) rows form the bordered block B whose
    determinant, by Sylvester's identity, is prev^(m-1) times the minor,
    with prev the last pivot taken; det_bareiss computes det B.

    The weight is a non-negative int or a Jet with constant term >= 1.
    Each pivot is a leading principal minor, a polynomial in the edge
    weights with non-negative coefficients (it counts rooted spanning
    forests), so a jet pivot's constant term, its value at positive
    weights, is 0 only when the pivot is.  At positive weights the matrix
    is positive semidefinite, and a PSD matrix with a singular leading
    principal submatrix is singular: a zero pivot before the last block
    means the minor is 0, and every divisor is nonzero at e = 0.
    """
    low = vertical_weight.coeffs[0] - 1 if isinstance(vertical_weight, Jet) else vertical_weight
    if not isinstance(low, int) or low < 0:
        raise ValueError("vertical_weight must be an int >= 0 or a Jet with constant term >= 1")
    pos = [None] * g.n_vertices
    n = 0
    for v in range(g.n_vertices):
        if v not in drop:
            pos[v] = n
            n += 1
    if not n:
        return 1
    diag = [0] * n
    off = {}  # (i, j) with i < j -> total weight joining kept vertices i, j
    w = 0
    for u, v, label, mult in g.edges:
        weight = vertical_weight * mult if label == VERTICAL else mult
        if not weight:
            continue
        i, j = pos[u], pos[v]
        if i is not None:
            diag[i] += weight
        if j is not None:
            diag[j] += weight
        if i is not None and j is not None:
            if i > j:
                i, j = j, i
            off[i, j] = off.get((i, j), 0) + weight
            if j - i > w:
                w = j - i
    m = max(w, 1)
    # upper[a] is row r + a of the window, from its diagonal to column r + w
    upper = [[diag[i]] + [-off.get((i, j), 0) for j in range(i + 1, w + 1)]
             for i in range(w + 1)]
    prev = 1
    for r in range(n - m):
        top = upper[0]
        p = top[0]
        if not p:
            return 0
        upper = [[(p * x - f * y) // prev for x, y in zip(row, top[a:])]
                 for a, (row, f) in enumerate(zip(upper[1:], top[1:]), 1)]
        e = r + w + 1
        if e < n:
            for t, row in enumerate(upper, r + 1):
                row.append(-off.get((t, e), 0) * p)
            upper.append([diag[e] * p])
        prev = p
    block = [[0] * m for _ in range(m)]
    for a, row in enumerate(upper):
        for c, x in enumerate(row, a):
            block[a][c] = block[c][a] = x
    return det_bareiss(Matrix(block)) // prev ** (m - 1)


def spanning_tree_count(g: LabeledGraph) -> int:
    """Number of spanning trees: the Laplacian minor without the last
    vertex (0 when g is disconnected)."""
    return _laplacian_minor(g, {g.n_vertices - 1})


def two_forest_count(g: LabeledGraph, a: int, b: int) -> int:
    """Spanning forests with exactly two components, one containing a and
    the other containing b: the Laplacian minor with rows and columns
    {a, b} deleted (all-minors matrix-tree)."""
    if a == b:
        raise BadVertexPair("the two marked vertices must differ")
    if not (0 <= a < g.n_vertices and 0 <= b < g.n_vertices):
        raise BadVertexPair(f"marked vertices {a}, {b} are not both in 0..{g.n_vertices - 1}")
    return _laplacian_minor(g, {a, b})


def ver_polynomial(g: LabeledGraph) -> Poly:
    """Spanning-tree polynomial in v, weighting each tree by v^(number of
    vertical edges).

    The v-weighted Laplacian minor without the last vertex has degree at
    most D, the total vertical multiplicity.  It is evaluated at
    v = 0..D as D + 1 integer minors and recovered by forward-difference
    interpolation; a non-integer coefficient would be a bug and raises
    InternalInconsistency.  Evaluating the result at 1 gives the plain
    spanning-tree count.
    """
    d_bound = sum(m for _u, _v, label, m in g.edges if label == VERTICAL)
    if d_bound == 0:
        return Poly((spanning_tree_count(g),))
    drop = {g.n_vertices - 1}
    coeffs = _newton_interpolate([_laplacian_minor(g, drop, x) for x in range(d_bound + 1)])
    if not all(isinstance(c, int) for c in coeffs):
        raise InternalInconsistency("interpolation produced a non-integer")
    return Poly(coeffs)


def graph_from_json_dict(obj) -> LabeledGraph:
    """Build a graph from the JSON wire format
    {"n": int, "edges": [[u, v, label, mult], ...]} (mult optional)."""
    try:
        n = int(obj["n"])
        edges = tuple(tuple(e) for e in obj["edges"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    return LabeledGraph(n, edges)
