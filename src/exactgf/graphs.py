"""Grid graphs, graph-times-path products, and exact tree/forest counting
through Laplacian minors.

Vertices of a k x n grid are numbered column-major: (i, j) with 1 <= i <= k,
1 <= j <= n maps to (j-1)*k + (i-1), so each layer of the product occupies a
contiguous index block and every edge joins vertices at most k apart.

Every count is a Laplacian minor (matrix-tree theorem).  _laplacian_minor
computes one straight from the edge list: rows are built one at a time
holding only their band, streamed through fraction-free (Bareiss)
elimination in a window of half-bandwidth w (_eliminated), and the last
pivot is the minor.  No dense Laplacian is built, so a minor of a graph
with N vertices and E edges costs O(N + E + N*w^2) time and O(N + E +
w^2) memory; for G x P_n, w is the number of vertices of G.
Vertical weights may be Jet series or Evals, the points v = 1, 2, ... of
a polynomial in evaluation form: one elimination over Evals gives a
v-polynomial's values at every point.  Both rings are defined here, and
every minor and pivot comes back in the weight's ring, even when no edge
carries the weight.
The products G x P_n are never eliminated: they are counted from G's own
recurrences (the all-minors route of Chaiken 1982).  The Laplacian
Kronecker sum gives _order_bound, a bound on the recurrence order of the
counts from G's Laplacian spectrum, and _kronecker_minors, the minors of
G x P_n for n = 1, 2, ... in the weight's ring, each one streamed
elimination of a (|V(G)| - 1)-square matrix; _ver_terms runs it over
Evals for the first N v-polynomials, at the points the last of them
needs.  The layer transfer recurrence on |V(G)| + 1 vectors (_transfer)
gives _corner_counts, the trees and corner two-forests of G x P_n for
n = 1, 2, ..., each from one bordered |V(G)|-square determinant, and a
grounded matrix whose det_bareiss is the minor (_grounded).  A graph from
product_with_path(G, n) of a connected G remembers G and n, so
spanning_tree_count and ver_polynomial of it are _grounded, and
two_forest_count between layers 1 and n is _corner_counts; every other
graph keeps _laplacian_minor, which stays their test oracle.  laplacian()
builds the dense (optionally v-weighted) matrix, G's for those routes and
the tests' reference for these minors.

Edges carry an orientation label: edges inside a layer are "vertical",
edges between consecutive layers are "horizontal".  The vertical label is
what the weighted Laplacian marks with the variable v when counting
spanning trees by their number of vertical edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, repeat
from operator import add, eq, floordiv, mul, neg, sub

from .core import (Matrix, Poly, _bareiss_pivots, _dom_exact_div, _newton_interpolate, det_bareiss,
                   poly_gcd)
from .errors import BadVertexPair, InexactDivision, InternalInconsistency

VERTICAL = "vertical"
HORIZONTAL = "horizontal"
OTHER = "other"

_LABELS = (VERTICAL, HORIZONTAL, OTHER)

#: The weight marker for building the v-weighted Laplacian.
VAR_V = Poly((0, 1))


# weight rings: / is the checked exact division of det_bareiss's protocol,
# // the unchecked quotient that _eliminated divides by

class Jet:
    """An immutable element c_0 + c_1 e + ... + c_(K-1) e^(K-1) of
    Z[e]/(e^K).  A polynomial evaluated at a + e gives its Taylor
    coefficients at a, so a determinant over jets reads K - 1 derivatives
    off one elimination.  Ints act as constant jets.  / and // are both
    exact division by a jet (or int) with nonzero constant term, a unit of
    Q[e]/(e^K); they raise InexactDivision when the quotient is not an
    integer jet.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a jet needs at least one coefficient")

    def _lift(self, other):
        if isinstance(other, int):
            return (other,) + (0,) * (len(self.coeffs) - 1)
        if not isinstance(other, Jet) or len(other.coeffs) != len(self.coeffs):
            raise TypeError(f"{other!r} is not a jet of length {len(self.coeffs)}")
        return other.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Jet(self._lift(other))
        return isinstance(other, Jet) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Jet({self.coeffs!r})"

    def __neg__(self):
        return Jet(-c for c in self.coeffs)

    def __add__(self, other):
        return Jet(x + y for x, y in zip(self.coeffs, self._lift(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Jet(x - y for x, y in zip(self.coeffs, self._lift(other)))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Jet(c * other for c in self.coeffs)
        b = self._lift(other)
        out = [0] * len(b)
        for i, x in enumerate(self.coeffs):
            if x:
                for j in range(len(b) - i):
                    out[i + j] += x * b[j]
        return Jet(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("a jet power needs a non-negative exponent")
        out = Jet(self._lift(1))
        for _ in range(n):
            out = out * self
        return out

    def __floordiv__(self, other):
        b = self._lift(other)
        if not b[0]:
            raise InexactDivision(f"{other!r} has a zero constant term")
        q = []
        for j, c in enumerate(self.coeffs):
            for i in range(1, j + 1):
                c -= b[i] * q[j - i]
            c, r = divmod(c, b[0])
            if r:
                raise InexactDivision(f"{self!r} is not divisible by {other!r}")
            q.append(c)
        return Jet(q)

    def __rfloordiv__(self, other):
        return Jet(self._lift(other)) // self

    __truediv__ = __floordiv__
    __rtruediv__ = __rfloordiv__


class Evals:
    """An integer polynomial in v in evaluation form: its values at fixed
    points v = s, s + 1, ....  Ints act as constants, and + - * / // **
    act pointwise through map with operator functions, so the per-point
    arithmetic runs in C and one elimination over Evals is one elimination
    per point.  / is exact at every point or raises InexactDivision; //
    floors unchecked, like int //, for the divisions Bareiss knows to be
    exact.  A value is true when it is nonzero at some point, so `if x:`
    skips only entries that are 0 at every point.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        # the operations pass lists: a tuple built from a map is resized to
        # its length, so one of fewer than 20 points is never taken from
        # CPython's free list of short tuples, yet freed into it, which
        # then fills up
        self.values = tuple(values)

    def _lift(self, other):
        if isinstance(other, Evals):
            if len(other.values) != len(self.values):
                raise TypeError(f"{other!r} is not at the {len(self.values)} points of {self!r}")
            return other.values
        return repeat(other)

    def __bool__(self):
        return any(self.values)

    def __eq__(self, other):
        if isinstance(other, Evals):
            return self.values == other.values
        return all(map(eq, self.values, repeat(other)))

    def __repr__(self):
        return f"Evals({self.values!r})"

    def __neg__(self):
        return Evals([*map(neg, self.values)])

    def __add__(self, other):
        return Evals([*map(add, self.values, self._lift(other))])

    __radd__ = __add__

    def __sub__(self, other):
        return Evals([*map(sub, self.values, self._lift(other))])

    def __rsub__(self, other):
        return Evals([*map(sub, self._lift(other), self.values)])

    def __mul__(self, other):
        return Evals([*map(mul, self.values, self._lift(other))])

    __rmul__ = __mul__

    def __truediv__(self, other):
        qr = [*map(divmod, self.values, self._lift(other))]
        if any(r for _q, r in qr):
            raise InexactDivision(f"{self!r} is not divisible by {other!r}")
        return Evals([q for q, _r in qr])

    def __rtruediv__(self, other):
        return Evals([other] * len(self.values)) / self

    def __floordiv__(self, other):
        return Evals([*map(floordiv, self.values, self._lift(other))])

    def __pow__(self, n: int):
        return Evals([*map(pow, self.values, repeat(n))])


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected multigraph with labeled edges.

    edges is a tuple of (u, v, label, multiplicity) with 0-based vertex
    indices, u != v, and label one of vertical/horizontal/other.
    """

    n_vertices: int
    edges: tuple
    # (g, n) when product_with_path(g, n) built this graph with n >= 2 and
    # a connected g with |V(g)| >= 1: the counters then run g's
    # recurrences, not this graph's minors; it takes no part in ==, hash or
    # repr
    _factor: tuple | None = field(default=None, init=False, compare=False, repr=False)

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
    """The k x n grid graph with unit-step adjacency:
    product_with_path(path_graph(k), n)."""
    return product_with_path(path_graph(k), n)


def path_graph(k: int) -> LabeledGraph:
    """Path on k vertices; edges labeled vertical."""
    if k < 1:
        raise ValueError("a path needs at least one vertex")
    return LabeledGraph(k, tuple((i, i + 1, VERTICAL, 1) for i in range(k - 1)))


def product_with_path(g: LabeledGraph, n: int) -> LabeledGraph:
    """n stacked copies of g, consecutive copies joined vertex-to-vertex.

    All intra-copy edges are labeled vertical, the copy-to-copy edges
    horizontal.  For n >= 2 and a nonempty connected g the result
    remembers (g, n), so spanning_tree_count, ver_polynomial and
    two_forest_count between layers 1 and n count from g's recurrences
    without eliminating it.
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
    product = LabeledGraph(k * n, tuple(edges))
    if n >= 2 and k and g.is_connected():
        object.__setattr__(product, "_factor", (g, n))
    return product


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
    """The minor of the Laplacian of g, with vertical edges weighted by
    vertical_weight, that deletes the rows and columns in drop (vertices
    outside the graph are ignored: spanning_tree_count of the 0-vertex
    graph drops vertex -1 and gets 1; two_forest_count checks its vertices
    before calling), as the last pivot of one streamed elimination.

    The kept vertices keep their order, and w is the largest index gap
    along an edge of nonzero weight, so the minor is banded with
    half-bandwidth w and its rows stream through _eliminated.  Pivot r is
    the leading (r+1) x (r+1) principal minor (Sylvester's identity), so
    the last pivot is the minor itself.

    The weight is a non-negative int, a Jet with constant term >= 1 or
    Evals at points v >= 1 (_check_weight).  Each pivot is a leading
    principal minor, a polynomial in the edge weights with non-negative
    coefficients (it counts rooted spanning forests), so a jet pivot's
    constant term, its value at positive weights, is 0 only when the pivot
    is, and an Evals pivot is 0 at one positive point exactly when it is 0
    at all of them.  At positive weights the matrix is positive
    semidefinite, and a PSD matrix with a singular leading principal
    submatrix is singular (x^T A x = 0 implies A x = 0): after the first
    zero pivot every later leading minor, the last one included, is 0, and
    every divisor is nonzero at e = 0 and at every point.  The argument
    holds pointwise, so an Evals pivot that is 0 at some points only is a
    bug and raises InternalInconsistency.  The points start at v = 1, not
    0: at v = 0 G x P_n falls apart, and its pivots could vanish at v = 0
    alone.  The minor is in the weight's ring, even when no kept edge
    carries the weight.
    """
    _check_weight(vertical_weight)
    zero = 0 * vertical_weight
    kept = [v for v in range(g.n_vertices) if v not in drop]
    n, pos = len(kept), [-1] * g.n_vertices
    for i, v in enumerate(kept):
        pos[v] = i
    # diag[-1] takes the deleted ends' weights; diag[0] starts in the weight's
    # ring, so pivot 0 is in it and so is every entry eliminated with it
    diag = [zero] + [0] * n
    off = {}  # (i, j) with i < j -> total weight joining kept vertices i, j
    w = 0
    for u, v, label, mult in g.edges:
        weight = vertical_weight * mult if label == VERTICAL else mult
        if not weight:
            continue
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        diag[i] += weight
        diag[j] += weight
        if i >= 0:
            off[i, j] = off.get((i, j), 0) + weight
            if j - i > w:
                w = j - i

    def column(e):
        if e < n:
            return [-off.get((t, e), 0) for t in range(max(0, e - w), e)] + [diag[e]]

    last = zero + 1
    for _r, (upper, _p) in zip(range(n), _eliminated(column, w)):
        if _zero_pivot(last := upper[0][0]):
            return zero
    return last


def _check_weight(vertical_weight):
    """Raise ValueError unless vertical_weight is an int >= 0, a Jet with
    constant term >= 1 or Evals at points >= 1."""
    low = (vertical_weight.coeffs[0] - 1 if isinstance(vertical_weight, Jet)
           else min(vertical_weight.values) - 1 if isinstance(vertical_weight, Evals)
           else vertical_weight)
    if not isinstance(low, int) or low < 0:
        raise ValueError("vertical_weight must be an int >= 0, a Jet with constant term >= 1 "
                         "or Evals at points >= 1")


def _zero_pivot(p) -> bool:
    """Whether the pivot p is 0.  An Evals pivot must be 0 at all of its
    points or at none (see _laplacian_minor); one that is 0 at some points
    only raises InternalInconsistency."""
    if isinstance(p, Evals) and p and not all(p.values):
        raise InternalInconsistency("a pivot is 0 at some points of v but not at all")
    return not p


def _eliminated(column, w):
    """Stream a symmetric matrix of half-bandwidth w, row by row, through
    fraction-free (Bareiss) elimination in a window of w + 1 rows.

    column(e) lists row e's entries in columns max(0, e - w)..e - 1 and
    then its diagonal (None past the last row).  Before pivot r = 0, 1, ...
    this yields (upper, prev): upper[a] is row r + a from its diagonal to
    column r + w at Bareiss stage r, and prev is pivot r - 1 (1 at r = 0),
    so upper is prev times the Schur complement of the leading r x r block
    (Sylvester's identity).  An entry entering after pivot p is scaled by
    p, the factor Bareiss would have given it had it been inside the window
    all along.  Before the last pivot, prev is the leading minor without
    the last row.  The caller stops at a zero pivot."""
    upper, p = [], 1
    for e in count():
        col = column(e)
        if col is not None:
            for row, x in zip(upper, col):
                row.append(x * p)
            upper.append([col[-1] * p])
        if e >= w:  # the window is full
            yield upper, p
            top = upper[0]
            prev, p = p, top[0]
            upper = [[(p * x - f * y) // prev for x, y in zip(row, top[a:])]
                     for a, (row, f) in enumerate(zip(upper[1:], top[1:]), 1)]


def spanning_tree_count(g: LabeledGraph) -> int:
    """Number of spanning trees: the Laplacian minor without the last
    vertex (0 when g is disconnected); for a product_with_path(h, n) of a
    connected h, _grounded(h, n, 1), det_bareiss of the grounded matrix of
    h's layer transfer recurrence."""
    if g._factor:
        return _grounded(*g._factor, 1)
    return _laplacian_minor(g, {g.n_vertices - 1})


def two_forest_count(g: LabeledGraph, a: int, b: int) -> int:
    """Spanning forests with exactly two components, one containing a and
    the other containing b: the Laplacian minor with rows and columns
    {a, b} deleted (all-minors matrix-tree).  For a product_with_path(h, n)
    of a connected h, with one of a, b in layer 1 and the other in layer
    n, it is item n of h's layer transfer stream _corner_counts."""
    if a == b:
        raise BadVertexPair("the two marked vertices must differ")
    if not (0 <= a < g.n_vertices and 0 <= b < g.n_vertices):
        raise BadVertexPair(f"marked vertices {a}, {b} are not both in 0..{g.n_vertices - 1}")
    if g._factor:
        h, n = g._factor
        low, high = sorted((a, b))
        last = (n - 1) * h.n_vertices  # layer n's first vertex
        if low < h.n_vertices and high >= last:
            return next(_corner_counts(h, low, high - last, start=n))[0]
    return _laplacian_minor(g, {a, b})


def ver_polynomial(g: LabeledGraph) -> Poly:
    """Spanning-tree polynomial in v, weighting each tree by v^(number of
    vertical edges).

    The v-weighted Laplacian minor without the last vertex has degree at
    most D, the total vertical multiplicity or the |V| - 1 edges of a
    spanning tree, whichever is smaller.  One streamed minor over Evals
    (for a product_with_path(h, n), _grounded of h) gives its values
    at v = 1..D + 1, and forward-difference interpolation recovers it; a
    non-integer coefficient would be a bug and raises
    InternalInconsistency.  Evaluating the result at 1 gives the plain
    spanning-tree count.
    """
    d_bound = min(sum(m for _u, _v, label, m in g.edges if label == VERTICAL),
                  max(g.n_vertices - 1, 0))
    points = Evals(range(1, d_bound + 2))
    minor = (_grounded(*g._factor, points) if g._factor
             else _laplacian_minor(g, {g.n_vertices - 1}, points))
    return _interpolated(minor.values)


@lru_cache(maxsize=64)
def _order_bound(g: LabeledGraph) -> int:
    """A proved bound B on the order of the recurrence of the spanning-tree
    counts of g x P_n, n = 1, 2, ..., for a connected g with k vertices,
    and of the vertical-edge polynomials over Q(v): B = prod(m + 1) over
    the distinct nonzero eigenvalues of L(g), m their multiplicities.
    B is 2^(k-1) for a path, whose k - 1 nonzero eigenvalues are simple
    (so for the k-row grids; k = 7 has order 48 at v = 1), k for K_k, and
    1 for k <= 1 (an empty product).

    L(g x P_n) = L(g) (+) L(P_n) is a Kronecker sum, so its eigenvalues are
    lambda_i + mu_j, and with lambda_0 = 0 and prod_{j>0} mu_j = n the
    matrix-tree theorem gives tau = (1/k) prod_{i=1}^{k-1} det(lambda_i I +
    L(P_n)).  Each factor a_n is a continuant: a_0 = 0, a_1 = lambda_i and
    a_n = (lambda_i + 2) a_{n-1} - a_{n-2}, whose characteristic roots r,
    1/r differ as r + 1/r = lambda_i + 2 > 2.  So a_n = alpha r^n +
    beta r^-n, and an eigenvalue of multiplicity m contributes a_n^m, a sum
    of m + 1 geometric terms: tau is a sum of at most B of them.  With
    weight v on g's edges L(g) becomes v L(g), whose eigenvalues v lambda_i
    keep their multiplicities: the same holds over Q(v) and at each v >= 1.

    The multiplicities are those of the roots of p = det(xI + L(g)) / x =
    prod(x + lambda_i), i = 1..k-1.  xI + L(g) is the Laplacian of the cone
    over g (an apex joined to every vertex by an edge of weight x) without
    the apex, so x p is ver_polynomial of the cone with g's edges labeled
    other.  In the chain p_0 = p, p_(j+1) = gcd(p_j, p_j'), p_j has degree
    sum(max(m - j, 0)), so deg p_j - deg p_(j+1) eigenvalues have
    multiplicity above j."""
    k = g.n_vertices
    cone = LabeledGraph(k + 1, tuple((u, v, OTHER, mult) for u, v, _label, mult in g.edges)
                        + tuple((u, k, VERTICAL, 1) for u in range(k)))
    p = Poly(ver_polynomial(cone).coeffs[1:])  # the zero polynomial for k = 0
    degrees = [max(p.degree, 0)]
    while degrees[-1]:
        p = poly_gcd(p, p.derivative())
        degrees.append(p.degree)
    above = [a - b for a, b in zip(degrees, degrees[1:])] + [0]  # multiplicity above j
    return math.prod((m + 1) ** (above[m - 1] - above[m]) for m in range(1, len(above)))


def _kronecker_minors(g: LabeledGraph, vertical_weight, start: int = 1):
    """Yield _laplacian_minor(product_with_path(g, n), {k n - 1}, w) for
    n = start, start + 1, ..., in w's ring, g with k vertices, from a
    recurrence on (k-1)-square matrices: one step and, from n = start on,
    one streamed elimination per n.

    It is P_n = (1/k) prod a_n(w lambda_i) (_order_bound).  On R^k/<1>, in
    the images of e_1..e_(k-1), L(g) is L^ = C L_red (L_red: L(g) less its
    last row and column; C = I + J, det C = k), so its eigenvalues are the
    lambda_i, prod f(lambda_i) = det f(L^) and P_n = det a_n(w L^) / k.
    B_j = a_j(w L^) C has B_0 = 0, B_1 = w L^ C, B_j = (w L^ + 2I) B_(j-1)
    - B_(j-2), and B_n = C^(1/2) a_n(w S) C^(1/2), S = C^(1/2) L_red C^(1/2),
    is symmetric: P_n = det B_n / k^2.  S is PSD and a_n(y) = det(yI +
    L(P_n)) is 0 at 0 and > 0 for y > 0, so B_n is PSD at w >= 0 with the
    kernel C^(-1/2) ker S at every w > 0.  As in _laplacian_minor, a zero
    pivot makes B_n singular, its leading block holding a kernel vector, so
    a pivot 0 at w = 1 is 0 at all w > 0: jet pivots are 0 or units, Evals
    pivots 0 at all points or none."""
    _check_weight(vertical_weight)
    zero, k = 0 * vertical_weight, g.n_vertices
    if not k:  # every g x P_n is empty, and so is its minor
        yield from repeat(zero + 1)
    lap, m = laplacian(g).rows, k - 1
    hat = [[*map(sub, row[:m], lap[m])] for row in lap[:m]]  # C L_red
    prev, cur = [[0] * m] * m, [[vertical_weight * (h + sum(row)) for h in row] for row in hat]
    for n in count(1):
        if n >= start:
            det = zero + 1
            for _r, (upper, _p) in zip(range(m), _eliminated(
                    lambda e: cur[e][:e + 1] if e < m else None, m - 1)):
                if _zero_pivot(det := upper[0][0]):
                    break
            try:
                minor = _dom_exact_div(det, k * k)
            except InexactDivision as exc:
                raise InternalInconsistency("det B_n is not divisible by k^2") from exc
            yield minor
        new = [*map(list, cur)]
        for i, row in enumerate(hat):  # B_j is symmetric: fill j >= i and mirror
            for j in range(i, m):
                hb = sum(h * b[j] for h, b in zip(row, cur) if h)  # (L^ B_(j-1))_ij
                new[i][j] = new[j][i] = vertical_weight * hb + 2 * cur[i][j] - prev[i][j]
        prev, cur = cur, new


def _transfer(g: LabeledGraph, a: int, b: int, vertical_weight, start: int):
    """Yield, for n = start, start + 1, ..., the bordered matrix [[M, r'],
    [u'^T, 0]] of _corner_counts and V_n[b], with A = w L(g) in w's ring."""
    k = g.n_vertices
    shifted = [[(v, vertical_weight * x + 2 * (u == v)) for v, x in enumerate(row) if x or u == v]
               for u, row in enumerate(laplacian(g).rows)]  # A + 2I
    cur = [[int(u == v) for v in range(k)] + [0] for u in range(k)]  # the rows of [C | V]
    prev = [row[:k] + [-(u == a)] for u, row in enumerate(cur)]
    for n in count(1):  # Y_n and Y_(n+1)
        prev, cur = cur, [[*map(sub, map(sum, zip(*[map(mul, cur[v], repeat(x)) for v, x in terms])),
                                back)] for terms, back in zip(shifted, prev)]
        if n >= start:
            rows = [[*map(sub, new[:k - 1], old)] + [new[k] - old[k] - (u == b)]
                    for u, (new, old) in enumerate(zip(cur[:k - 1], prev))]  # [M | r']
            rows.append([(i == a) - c for i, c in enumerate(prev[b][:k - 1])] + [0])
            yield rows, prev[b][k]


def _corner_counts(g: LabeledGraph, a: int, b: int, vertical_weight=1, start: int = 1):
    """Yield (F, tau) for n = start, start + 1, ..., for a connected g with
    k >= 1 vertices and g's edges weighted by w (an int >= 1 or Evals at
    points >= 1): the spanning trees tau of g x P_n and its two-forests F
    separating vertex a of layer 1 from vertex b of layer n (0 if they
    coincide), so F / tau is their resistance; one step of the layer
    transfer recurrence on k + 1 vectors per n (_transfer) and, from n =
    start on, one bordered k x k determinant.

    With A = w L(g) and x_j layer j's potentials under a unit current from
    a to b, Kirchhoff's law gives x_2 = (A + I) x_1 - e_a and, inside,
    x_(j+1) = (A + 2I) x_j - x_(j-1): x_j = C_j x_1 - V_j, C and V
    following Y_(j+1) = (A + 2I) Y_j - Y_(j-1) from C_0 = C_1 = I, V_0 =
    -e_a, V_1 = 0.  Layer n's law is a_n(A) x_1 = r, a_n(A) = (A + I) C_n
    - C_(n-1) = C_(n+1) - C_n the continuant of _order_bound, r = V_(n+1)
    - V_n - e_b.  1^T A = 0 gives 1^T V_j = j - 1, so 1^T r = 0; a_n(A) is
    symmetric with a_n(A) 1 = a_n(0) 1 = 0, so the rows of [a_n(A) | r]
    add up to 0 and the last one can go.  C_j 1 = 1 fixes x_1 up to a
    constant: ground x_1[k-1] = 0 and solve M y = r', M and r' being
    a_n(A) and r less their last row (and column).  a_n(lambda) =
    det(lambda I + L(P_n)) is 0 at 0 and > 0 for lambda > 0, so a_n(A) is
    PSD with kernel <1>, and z^T M z = 0 would put (z, 0) in it: M is
    positive definite.  The pivots of [[M, r'], [u'^T, 0]], u' = e_a - C_n
    e_b less its last entry, are then M's positive leading minors, with no
    row swap, and D; det M, a cofactor of a_n(A), is (1/k) prod
    a_n(w lambda_i) = tau.  R = x_1[a] - x_n[b] = u'^T y + V_n[b], u'^T
    M^-1 r' = -D / tau (Schur complement), and F = tau R = tau V_n[b] - D."""
    for rows, far in _transfer(g, a, b, vertical_weight, start):
        *_, tau, d = 1, *_bareiss_pivots(Matrix(rows))
        yield tau * far - d, tau


def _grounded(g: LabeledGraph, n: int, vertical_weight):
    """_laplacian_minor(product_with_path(g, n), {k n - 1}, w) for a
    connected g with k >= 1 vertices, in w's ring: det_bareiss of the
    grounded matrix M of _corner_counts, whose determinant is tau.  It
    shares no step with _kronecker_minors, so each checks the other."""
    rows, _far = next(_transfer(g, 0, 0, vertical_weight, n))
    return 0 * vertical_weight + det_bareiss(Matrix([row[:-1] for row in rows[:-1]]))


def _ver_terms(g: LabeledGraph, count: int) -> list:
    """The data of gf_ver: the polynomials ver_polynomial(product_with_path(g, n))
    for n = 1..count.

    Every edge of g is vertical in the product, and a spanning tree has at
    most |V(g)| - 1 of them in each layer, so term n has degree at most
    D_n = n * min(total multiplicity of g's edges, |V(g)| - 1) and is
    interpolated from its values at v = 1..D_n + 1, all read off one
    _kronecker_minors stream over Evals at the points v = 1..D_count + 1."""
    per_layer = min(sum(mult for *_edge, mult in g.edges), max(g.n_vertices - 1, 0))
    minors = _kronecker_minors(g, Evals(range(1, count * per_layer + 2)))
    return [_interpolated(minor.values[:n * per_layer + 1])
            for n, minor in zip(range(1, count + 1), minors)]


def _interpolated(values) -> Poly:
    """The polynomial taking values[i] at v = 1 + i; a non-integer
    coefficient would be a bug and raises InternalInconsistency."""
    coeffs = _newton_interpolate(values, 1)
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
