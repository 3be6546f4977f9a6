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
Vertical weights may be Jet series, defined here, or core.Evals, the
points v = 1, 2, ... of a polynomial in evaluation form: one elimination
over Evals gives a v-polynomial's values at every point.  Every minor and
pivot comes back in the weight's ring, even when no edge carries the
weight.
The pipelines never eliminate a product G x P_n: they count it from G's own
recurrences (the all-minors route of Chaiken 1982).  The Laplacian
Kronecker sum gives _order_bound, a bound on the recurrence order of the
counts from G's Laplacian spectrum.  Two streams yield the counts of
G x P_n for n = 1, 2, ..., in the weight's ring, each stepping a
three-term recurrence Y_(j+1) = t Y_j - Y_(j-1) once per n:
_tree_minors, the minors, one streamed elimination per n of the grounded
block M_n, the first |V(G)| - 1 rows and columns of a_n(w L(G)), on
which the recurrence closes (_ver_terms runs it over Evals for the first
N v-polynomials, at the points the last of them needs), and
_corner_counts, the trees and corner two-forests, one bordered
|V(G)|-square determinant per n of the layer transfer recurrence.  A
count at one n jumps there (_jump): its matrix combines the continuants
U_(n-1), U_n, U_(n+1) of t = w L(G) + 2I (U_0 = 0, U_1 = I), scalar
continuants in L(G) of min(n + 1, |V(G)|) terms, truncated below n =
|V(G)| and reduced from there on modulo L(G)'s characteristic polynomial
(from _cone, like _order_bound), doubled in O(log n) products, then
evaluated against L(G)'s powers, built once per graph, for only the rows
its reader needs.
The jumps are _corner_count (for resistance: k - 1 rows of the second
difference, two of C_n = U_n - U_(n-1), one of U_(n-1)) and
_grounded_block, the same M_n, whose determinant, the tree minor,
_grounded (the tree and v-polynomial spot checks) takes by det_bareiss
and _tree_minor (for moments) by one elimination in its band.  Item n of
a stream is their test oracle.  The public counters take _laplacian_minor
of every graph, a product_with_path included.
laplacian() builds the dense (optionally v-weighted) matrix, G's for
those routes and the tests' reference for these minors.

Edges carry an orientation label: edges inside a layer are "vertical",
edges between consecutive layers are "horizontal".  The vertical label is
what the weighted Laplacian marks with the variable v when counting
spanning trees by their number of vertical edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice, repeat
from operator import add, mul, sub

from .core import (Evals, Matrix, Poly, _Elementwise, _bareiss_pivots, _interpolated, bandwidth,
                   det_bareiss, poly_gcd)
from .errors import BadVertexPair, InexactDivision, InternalInconsistency

VERTICAL = "vertical"
HORIZONTAL = "horizontal"
OTHER = "other"

_LABELS = (VERTICAL, HORIZONTAL, OTHER)

#: The weight marker for building the v-weighted Laplacian.
VAR_V = Poly((0, 1))


# weight rings (Jet, core.Evals): / is the checked exact division of
# det_bareiss's protocol, // the unchecked quotient that _eliminated divides by

class Jet(_Elementwise):
    """An immutable element c_0 + c_1 e + ... + c_(K-1) e^(K-1) of
    Z[e]/(e^K).  A polynomial evaluated at a + e gives its Taylor
    coefficients at a, so a determinant over jets reads K - 1 derivatives
    off one elimination.  Ints act as constant jets.  / and // are both
    exact division by a jet (or int) with nonzero constant term, a unit of
    Q[e]/(e^K); they raise InexactDivision when the quotient is not an
    integer jet.
    """

    __slots__ = ()

    def __init__(self, values):
        self.values = tuple(values)
        if not self.values:
            raise ValueError("a jet needs at least one coefficient")

    def _lift(self, other):
        if isinstance(other, int):
            return (other,) + (0,) * (len(self.values) - 1)
        if not isinstance(other, Jet) or len(other.values) != len(self.values):
            raise TypeError(f"{other!r} is not a jet of length {len(self.values)}")
        return other.values

    def __eq__(self, other):
        if isinstance(other, int):
            return self.values == self._lift(other)
        return isinstance(other, Jet) and self.values == other.values

    def __mul__(self, other):
        if isinstance(other, int):
            return Jet([*map(mul, self.values, repeat(other))])
        b = self._lift(other)
        out = [0] * len(b)
        for i, x in enumerate(self.values):
            if x:
                for j in range(len(b) - i):
                    out[i + j] += x * b[j]
        return Jet(out)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        b = self._lift(other)
        if not b[0]:
            raise InexactDivision(f"{other!r} has a zero constant term")
        q = []
        for j, c in enumerate(self.values):
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
    horizontal.
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

    return _last_pivot(column, n, w, zero)


def _check_weight(vertical_weight):
    """Raise ValueError unless vertical_weight is an int >= 0, a Jet with
    constant term >= 1 or Evals at points >= 1."""
    low = (vertical_weight.values[0] - 1 if isinstance(vertical_weight, Jet)
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


def _last_pivot(column, size: int, w: int, zero):
    """det of the size-square matrix _eliminated(column, w): its last pivot,
    zero + 1 at size 0, zero at a zero pivot, proved singular by the caller."""
    last = zero + 1
    for _r, (upper, _p) in zip(range(size), _eliminated(column, w)):
        if _zero_pivot(last := upper[0][0]):
            return zero
    return last


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
    most D, the total vertical multiplicity or the |V| - 1 edges of a
    spanning tree, whichever is smaller.  One streamed minor over Evals
    gives its values at v = 1..D + 1, and forward-difference interpolation
    recovers it; a non-integer coefficient would be a bug and raises
    InternalInconsistency.  Evaluating the result at 1 gives the plain
    spanning-tree count.
    """
    d_bound = min(sum(m for _u, _v, label, m in g.edges if label == VERTICAL),
                  max(g.n_vertices - 1, 0))
    points = Evals(range(1, d_bound + 2))
    return _interpolated(_laplacian_minor(g, {g.n_vertices - 1}, points).values)


@lru_cache(maxsize=64)
def _cone(g: LabeledGraph) -> Poly:
    """p = det(xI + L(g)) / x = prod(x + lambda_i), i = 1..k-1, for g with k
    vertices (lambda_0 = 0), cached for _order_bound and _powers.  xI +
    L(g) is the Laplacian of the cone over g (an apex joined to every vertex
    by an edge of weight x) less the apex, so x p is ver_polynomial of the
    cone with g's edges labeled other."""
    k = g.n_vertices
    cone = LabeledGraph(k + 1, tuple((u, v, OTHER, mult) for u, v, _label, mult in g.edges)
                        + tuple((u, k, VERTICAL, 1) for u in range(k)))
    return Poly(ver_polynomial(cone).coeffs[1:])  # the zero polynomial for k = 0


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

    The multiplicities are those of the roots of the _cone polynomial p.
    In the chain p_0 = p, p_(j+1) = gcd(p_j, p_j'), p_j has degree
    sum(max(m - j, 0)), so deg p_j - deg p_(j+1) eigenvalues have
    multiplicity above j."""
    p = _cone(g)
    degrees = [max(p.degree, 0)]
    while degrees[-1]:
        p = poly_gcd(p, p.derivative())
        degrees.append(p.degree)
    above = [a - b for a, b in zip(degrees, degrees[1:])] + [0]  # multiplicity above j
    return math.prod((m + 1) ** (above[m - 1] - above[m]) for m in range(1, len(above)))


# the three-term recurrence Y_(j+1) = t Y_j - Y_(j-1) of the products
# G x P_n, walked one step per n by the streams; _powers steps from
# Y_(j-1) = 0 to multiply by -L(G).  Its matrices are symmetric, and a
# half step computes them from the diagonal on, half the multiplications:
# worth it over jets and Evals (the streams of _ver_terms) and over the
# growing integers of _powers (44 -> 30 ms for a 50-vertex path), not
# over the streams' small ints, where the slicing costs more than it saves

def _step(rows, cur, prev, half: bool):
    """t cur - prev, t given by (column, entry) pairs, its nonzero entries
    and at least one per row: one multiplication per pair and entry of cur
    (on or above the diagonal with half)."""
    if not half:
        return [[*map(sub, map(sum, zip(*[map(mul, cur[v], repeat(x)) for v, x in terms])), back)]
                for terms, back in zip(rows, prev)]
    out = [[*map(sub, map(sum, zip(*[map(mul, cur[v][i:], repeat(x)) for v, x in terms])), back[i:])]
           for i, (terms, back) in enumerate(zip(rows, prev))]
    for i, row in enumerate(out):  # the symmetric matrix from its upper triangle
        row[:0] = [above[i] for above in out[:i]]
    return out


def _walk(a, y1):
    """Yield (Y_(n-1), Y_n, Y_(n+1)) for n = 1, 2, ... from Y_0 = 0 and
    Y_1 = y1, t = a + 2I: one _step per n, half of it over jets or Evals."""
    rows = [[(j, x + 2 * (i == j)) for j, x in enumerate(row) if x or i == j]
            for i, row in enumerate(a)]
    y0 = [[0] * len(a) for _ in a]
    while True:
        y2 = _step(rows, y1, y0, not isinstance(a[0][0], int))
        yield y0, y1, y2
        y0, y1 = y1, y2


def _scaled(g: LabeledGraph, vertical_weight):
    """(w L(g), I), w L(g) in w's ring: A and U_1 of _corner_counts' _walk
    (w = 1), -L(g) and (-L(g))^0 of _powers (w = -1)."""
    return ([[vertical_weight * x for x in row] for row in laplacian(g).rows],
            [[int(u == v) for v in range(g.n_vertices)] for u in range(g.n_vertices)])


@lru_cache(maxsize=64)
def _prefix(g: LabeledGraph) -> list:
    """[bases]: the one slot of g's _powers, a tuple that a longer prefix
    replaces whole, never a half-built list."""
    return [()]


def _powers(g: LabeledGraph, size: int) -> tuple:
    """The symmetric integer matrices (-L(g))^i, i < size <= |V(g)|, the
    bases of a _jump on g, shared read-only: each built once per graph by
    one _step from the one before, a longer size extending g's cached
    prefix into a new tuple."""
    slot = _prefix(g)
    if len(slot[0]) < size:
        a, identity = _scaled(g, -1)
        rows = [[(v, x) for v, x in enumerate(row) if x or u == v] for u, row in enumerate(a)]
        bases = [*slot[0]] or [identity]
        while len(bases) < size:
            bases.append(_step(rows, bases[-1], [[0] * len(a)] * len(a), True))
        slot[0] = tuple(bases)
    return slot[0][:size]


def _mod(poly, chi):
    """poly mod z^s + chi(z), s = len(chi), in place: monic, so nothing is
    divided."""
    for _ in poly[len(chi):]:
        c = poly.pop()
        for i, x in enumerate(chi, len(poly) - len(chi)):
            if x:
                poly[i] -= c * x
    return poly


def _mulmod(x, y, chi):
    """x y mod z^s + chi(z), x and y of length s = len(chi), x possibly an
    iterator."""
    out = [0] * (2 * len(chi) - 1)
    for i, c in enumerate(x):
        for j, d in enumerate(y, i):
            out[j] += c * d
    return _mod(out, chi)


def _jump(g: LabeledGraph, w, n: int):
    """at(c_0, c_1, c_2, rows=None) = sum_i c_i U_(n-1+i) (only the listed
    rows of it), n >= 1, integers c_i, for the continuants U_0 = 0, U_1 =
    I, U_(j+1) = t U_j - U_(j-1) of t = w A + 2I, A = L(g), s = |V(g)|.
    U_j = u_j(-A) for u_0 = 0, u_1 = 1, u_(j+1) = (2 - w z) u_j - u_(j-1)
    in R[z], R w's ring: degree j - 1.  The u_j are doubled (Fiduccia
    1985): u_(i+j) = u_(j+1) u_i - u_j u_(i-1) gives u_2j = u_j (u_(j+1) -
    u_(j-1)) and u_(2j+1) = (u_(j+1) - u_j)(u_(j+1) + u_j), two _mulmod of
    O(size^2) operations per bit of n below the top one and a step, on
    lists of size = min(n + 1, s) coefficients.  Every u_j the doubling
    forms has j <= n + 1, degree <= n, so for n < s they are reduced
    modulo z^size, a truncation; from n = s on, modulo the monic
    characteristic polynomial z p(z) of -A (p: _cone; Cayley-Hamilton).
    No ring divides.  at evaluates its combination against the bases
    (-A)^i, i < size (_powers).  Over jets and Evals an entry that is 0 in
    every base is the int 0, with no product formed; over ints the test
    costs more than the products it saves."""
    s = g.n_vertices
    size = min(n + 1, s)
    chi = (0,) * size if n < s else (0, *_cone(g).coeffs[:-1])

    def step(u, v):  # (2 - w z) u - v
        return [x + x - y - p for p, x, y in zip(_mod([0, *(w * x for x in u)], chi), u, v)]

    u0 = [0] * size
    u1 = [1, *u0[1:]]
    u2 = step(u1, u0)
    for bit in bin(n)[3:]:  # the bits of n below the top one
        even = _mulmod(map(sub, u2, u0), u1, chi)
        odd = _mulmod(map(sub, u2, u1), [*map(add, u2, u1)], chi)
        u0, u1, u2 = (even, odd, step(odd, even)) if bit == "1" else (step(even, odd), even, odd)
    bases, skip = _powers(g, size), not isinstance(w, int)

    def at(*c, rows=None):
        coeffs = [sum(map(mul, c, us)) for us in zip(u0, u1, u2)]
        return [[0 if skip and not any(xs) else sum(map(mul, coeffs, xs))
                 for xs in zip(*[m[r] for m in bases])]
                for r in (range(s) if rows is None else rows)]
    return at


def _tree_minors(g: LabeledGraph, vertical_weight):
    """Yield _laplacian_minor(product_with_path(g, n), {k n - 1}, w) for
    n = 1, 2, ..., in w's ring, g with k vertices: det M_n, M_n the
    grounded block of Y_n = a_n(w L(g)) (_grounded_block), from one _step
    of (k-1)-square matrices and one streamed elimination per n
    (_tree_minor jumps to one n).

    Y_n is symmetric with Y_n 1 = 0, so its last row is minus the sum of
    the others, and Y_(n+1) = (w L(g) + 2I) Y_n - Y_(n-1) closes on its
    first k - 1 rows and columns: M_(n+1) = (w L^ + 2I) M_n - M_(n-1),
    M_0 = 0, M_1 = w L_red (L(g) less its last row and column), L^[i][j]
    = L[i][j] - L[i][k-1].  det M_n, a cofactor of Y_n, is (1/k) prod
    a_n(w lambda_i) = P_n (_order_bound).  a_n(y) = det(yI + L(P_n)) is 0
    at 0 and > 0 for y > 0, so at w > 0 Y_n is PSD with kernel ker L(g)
    and M_n is PSD, positive definite for a connected g: as in
    _laplacian_minor, a leading minor of M_n is 0 at all w > 0 or at
    none, so jet pivots are 0 or units and Evals pivots 0 at all points
    or none.

    The mirror (_tree_mirror): run backward from M_0 = 0 the recurrence
    gives M_(-1) = -M_1 and M_(-n) = -M_n, so tau_n = det M_n has tau_(-n)
    = sigma tau_n, sigma = (-1)^(k-1), and tau_0 = det M_0 = 0 for k >= 2
    (the stream is all ones for k <= 1: sigma = tau_0 = 1).  Each a_n(y)
    = alpha r^n + beta r^-n runs backward the same way (a_(-n) = -a_n), so
    tau_n = (1/k) prod a_n(w lambda_i) = sum c_s rho_s^n, rho_s != 0
    (_ver_terms), at every integer n, and the minimal recurrence of the
    counts, of order <= B (_order_bound), holds on all of Z: at every w >=
    1, pointwise over Evals and over Q(v).  Any 2B + 4 consecutive terms
    of the two-sided sequence then fit it (Massey 1969), tau_(-B-1..B+2)
    as well as tau_(1..2B+4), and the first needs only B + 2 of the
    stream's terms (spanning._fit_pipeline)."""
    _check_weight(vertical_weight)
    zero, k = 0 * vertical_weight, g.n_vertices
    if k <= 1:  # g x P_n is empty or a path: one spanning tree
        yield from repeat(zero + 1)
    lap = [[vertical_weight * x for x in row] for row in laplacian(g).rows[:-1]]
    first = [[x - row[-1] for x in row[:-1]] for row in lap]  # w L^
    for _m0, m, _m2 in _walk(first, [row[:-1] for row in lap]):
        yield _last_pivot(lambda e: m[e][:e + 1] if e < k - 1 else None, k - 1, k - 2, zero)


def _tree_mirror(g: LabeledGraph):
    """(sigma, tau_0): tau_(-n) = sigma tau_n for _tree_minors(g, w), proved there."""
    return ((-1) ** (g.n_vertices - 1), 0) if g.n_vertices > 1 else (1, 1)


def _corner_counts_of(rows, c_a, c_b, v, a: int, b: int):
    """(F, tau) of _corner_counts from what it reads of the continuants U_j
    of t = A + 2I: rows 0..k-2 of a_n = U_(n+1) - 2 U_n + U_(n-1), whose
    last column it overwrites with r', rows a and b of the symmetric C_n =
    U_n - U_(n-1), and v = U_(n-1)[b][a] = V_n[b]; one _bareiss_pivots run
    of [[M, r'], [u'^T, 0]]."""
    for u, (row, x) in enumerate(zip(rows, c_a)):
        row[-1] = x - (u == b)
    rows.append([(i == a) - x for i, x in enumerate(c_b[:-1])] + [0])
    *_, tau, d = 1, *_bareiss_pivots(Matrix(rows))
    return tau * v - d, tau


def _corner_counts(g: LabeledGraph, a: int, b: int):
    """Yield (F, tau) for n = 1, 2, ..., for a connected g with k >= 1
    vertices: the spanning trees tau of g x P_n and its two-forests F
    separating vertex a of layer 1 from vertex b of layer n (0 if they
    coincide), so F / tau is their resistance; one _step of the k-square
    continuants of t = A + 2I and one bordered k x k determinant per n.
    _corner_count jumps to one n.

    With A = L(g) and x_j layer j's potentials under a unit current from
    a to b, Kirchhoff's law gives x_2 = (A + I) x_1 - e_a and, inside,
    x_(j+1) = (A + 2I) x_j - x_(j-1): x_j = C_j x_1 - V_j, C and V
    following Y_(j+1) = (A + 2I) Y_j - Y_(j-1) from C_0 = C_1 = I, V_0 =
    -e_a, V_1 = 0, so Y_j = [C_j | V_j] = [U_j - U_(j-1) | U_(j-1) e_a]
    for the continuants U_j of t.  Layer n's law is a_n(A) x_1 = r, a_n(A)
    = (A + I) C_n - C_(n-1) = C_(n+1) - C_n the continuant of
    _order_bound, r = V_(n+1) - V_n - e_b.  1^T A = 0 gives 1^T V_j = j -
    1, so 1^T r = 0; a_n(A) is symmetric with a_n(A) 1 = a_n(0) 1 = 0, so
    the rows of [a_n(A) | r] add up to 0 and the last one can go.  C_j 1 =
    1 fixes x_1 up to a constant: ground x_1[k-1] = 0 and solve M y = r',
    M and r' being a_n(A) and r less their last row (and column).
    a_n(lambda) = det(lambda I + L(P_n)) is 0 at 0 and > 0 for lambda > 0,
    so a_n(A) is PSD with kernel <1>, and z^T M z = 0 would put (z, 0) in
    it: M is positive definite.  The pivots of [[M, r'], [u'^T, 0]], u' =
    e_a - C_n e_b less its last entry, are then M's positive leading
    minors, with no row swap, and D; det M, a cofactor of a_n(A), is (1/k)
    prod a_n(lambda_i) = tau.  R = x_1[a] - x_n[b] = u'^T y + V_n[b],
    u'^T M^-1 r' = -D / tau (Schur complement), and F = tau R = tau V_n[b]
    - D."""
    for u0, u1, u2 in _walk(*_scaled(g, 1)):
        a_n = [[x - y - (y - z) for x, y, z in zip(r2, r1, r0)]
               for r0, r1, r2 in zip(u0, u1, u2[:-1])]
        yield _corner_counts_of(a_n, [*map(sub, u1[a], u0[a])], [*map(sub, u1[b], u0[b])],
                                u0[b][a], a, b)


def _corner_count(g: LabeledGraph, a: int, b: int, n: int):
    """Item n of _corner_counts(g, a, b), from one _jump evaluated for what
    _corner_counts_of reads: k - 1 rows of a_n, two of C_n, one of U_(n-1)."""
    at = _jump(g, 1, n)
    return _corner_counts_of(at(1, -2, 1, rows=range(g.n_vertices - 1)),
                             *at(-1, 1, 0, rows=(a, b)), at(1, 0, 0, rows=(b,))[0][a], a, b)


def _grounded_block(g: LabeledGraph, vertical_weight, n: int):
    """M_n of _tree_minors and _corner_counts, det M_n = tau: a_n(w L(g)),
    the _jump's second difference, at its first k - 1 rows less their last
    entry."""
    rows = _jump(g, vertical_weight, n)(1, -2, 1, rows=range(g.n_vertices - 1))
    return [row[:-1] for row in rows]


def _grounded(g: LabeledGraph, vertical_weight, n: int):
    """_laplacian_minor(product_with_path(g, n), {k n - 1}, w) for a connected
    g with k >= 1 vertices, in w's ring: det_bareiss of _grounded_block.
    _tree_minors walks the same M_n over n and this jumps to it, so they
    share no elimination and each checks the other."""
    return 0 * vertical_weight + det_bareiss(Matrix(_grounded_block(g, vertical_weight, n)))


def _tree_minor(g: LabeledGraph, vertical_weight, n: int):
    """Item n of _tree_minors(g, w), g with k >= 1 vertices: det M_n
    (_grounded_block) by _last_pivot in M_n's measured half-bandwidth, n
    for a path and n < k; a zero pivot proves M_n singular (_tree_minors)."""
    _check_weight(vertical_weight)
    m = _grounded_block(g, vertical_weight, n)
    w = bandwidth(Matrix(m))
    return _last_pivot(lambda e: m[e][max(0, e - w):e + 1] if e < len(m) else None,
                       len(m), w, 0 * vertical_weight)


def _ver_points(g: LabeledGraph, count: int) -> Evals:
    """Evals at v = 1..count p + 1, p = min(total multiplicity of g's edges,
    |V(g)| - 1): the points that A_1..A_count of _ver_terms need."""
    per_layer = min(sum(mult for *_edge, mult in g.edges), max(g.n_vertices - 1, 0))
    return Evals(range(1, count * per_layer + 2))


def _ver_terms(g: LabeledGraph, count: int) -> list:
    """The data of gf_ver in evaluation form: A_n =
    ver_polynomial(product_with_path(g, n)) for n = 1..count at the
    _ver_points(g, count), read off one _tree_minors stream, for a
    connected g.  cfinite.fit takes a series in this form and rests on two
    bounds it proves here.

    (1) deg A_n <= n p: every edge of g is vertical in the product, and a
    spanning tree has at most k - 1 of them in each layer.
    (2) The minimal denominator D of sum A_n t^n, content-free in Z[v][t],
    has deg D_i <= i p.  By _order_bound, A_n = (1/k) prod a_n(v lambda_i),
    i = 1..k-1, with a_n(y) = alpha r^n + beta r^-n and r + 1/r = y + 2:
    a sum of terms c_s rho_s^n, c_s free of n, over the 2^(k-1) products
    rho_s = prod r_i^(+-1).  So D divides Q = prod_s (1 - rho_s t) in
    Q(v)[t].  The power sums sum_s rho_s^m = prod V_m(v lambda_i + 2), V_m(r
    + 1/r) = r^m + r^-m of degree m, are polynomials in v of degree <= m
    p, and Newton's identities j e_j = sum((-1)^(m-1) e_(j-m) P_m, m =
    1..j) give the t^j coefficient (-1)^j e_j of Q degree <= j p.  Let
    w(F) = max(deg F_j - j p) for F = sum F_j t^j: the terms of top weight
    of a product are the products of theirs (Q[v, t] is a domain), so w is
    additive.  D is primitive over Q[v], so Q = D H with H in Q[v][t]
    (Gauss's lemma), and D_0 H_0 = Q_0 = 1 makes D_0 and H_0 constants:
    w(D), w(H) >= 0 with sum w(Q) = 0, so w(D) = 0."""
    return list(islice(_tree_minors(g, _ver_points(g, count)), count))


def graph_from_json_dict(obj) -> LabeledGraph:
    """Build a graph from the JSON wire format
    {"n": int, "edges": [[u, v, label, mult], ...]} (mult optional): n,
    u, v and mult JSON integers, not booleans, with n >= 0 (mult >= 1 and
    the vertex range are LabeledGraph's checks)."""
    try:
        n, edges = obj["n"], tuple(tuple(e) for e in obj["edges"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    for x in (n, *(x for e in edges for x in e[:2] + e[3:])):
        if type(x) is not int:
            raise ValueError(f"n, vertices and mult must be JSON integers, got {x!r}")
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    return LabeledGraph(n, edges)
