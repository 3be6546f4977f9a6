"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's own algorithms: determinants by
recursive cofactor expansion, permanents by summing over permutations,
tree/forest counts and the vertical-edge polynomial by edge-subset
enumeration.  The exceptions are slow paths that a fast route replaced,
kept here as that route's reference: matrix_from_spec_entrywise and
bandwidth_all_entries for the sliced toeplitz.matrix_from_spec and the
outside-the-band scan of core.bandwidth, solve_linear_field for the
fraction-free solve_linear, gf_transfer_field for the transfer route,
children_scheme_minor_states and scheme_to_json_minor_states, the
closure over MinorState records that carry their derived prefixes, for
the offset-tuple closure of toeplitz.children_scheme,
laplacian_minor_dense for the streamed Laplacian minors, layer_sweep,
one streamed elimination of the whole product G x P_inf read off at
each layer boundary, for the recurrence streams graphs._tree_minors and
graphs._corner_counts that give the fits their data,
ver_polynomial_per_point and ver_sweep_per_point, one integer
elimination per point of v, for the elimination over graphs.Evals behind
graphs.ver_polynomial and graphs._ver_terms, fit_by_reexpansion
(N = D * S by polynomial product, accepted by re-expanding N/D against
every term) for the one replay of cfinite.fit, gf_ver_by_interpolation
(every term interpolated, then that fit over Z[v]) for the fit in
evaluation form behind spanning.gf_ver, gf_by_forward_window (the guess on
terms 1..2B + 4, not on the window mirrored about n = 0) for the tree and
v-polynomial fits of spanning.gf_spanning and gf_ver, continuants_by_doubling
(k-square matrix doubling, with second_difference) for the scalar
doubling of graphs._jump, moments_by_jet_minor (one
jet minor of the whole product graph) and moments_by_interpolation (the
whole v-polynomial, by the streamed minor) for the jump of
spanning.moments (graphs._tree_minor), resistance_by_product_minor
(last_pivots, the last two pivots of one elimination of the whole grid)
for the layer transfer jump (graphs._corner_count) behind
spanning.resistance, decimal_ratio_whole for the shifted Decimal
conversion of spanning._decimal_ratio,
dom_exact_div_ladder, one isinstance branch per ring, for the division
protocol of core._dom_exact_div (an int branch, then each ring's own
checked /), and
guess_rec_scan, with its exact solves _fit_exact and _solve_rec, for the
modular and evaluation order finders behind cfinite.guess_rec, and
guess_sym_rec_scan for cfinite.guess_sym_rec.  FieldRF
is the field of rational functions in t over Q that the Q(t) solves need;
the package's RationalFunction is a value type without arithmetic.
"""
from __future__ import annotations

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from dataclasses import dataclass
from itertools import chain, combinations, count, islice, permutations, repeat
from operator import add, mul, sub
from math import factorial

from exactgf import (
    CFiniteSpec,
    LabeledGraph,
    LinearSolution,
    Matrix,
    MomentsReport,
    Poly,
    RationalFunction,
    ToeplitzSpec,
    TransferScheme,
    children_scheme,
    det_bareiss,
    grid_graph,
    laplacian,
    product_with_path,
    ver_polynomial,
)
from exactgf.cfinite import _recurrence_holds, fit, guess_rec, guess_window
from exactgf.core import (
    _interpolated,
    _newton_interpolate,
    _primitive_ints,
    solve_fraction_free,
    taylor_coeffs,
)
from exactgf.errors import (
    BadState,
    BadVertexPair,
    InconsistentSpec,
    InexactDivision,
    InternalInconsistency,
    NotConnected,
    ShapeError,
)
from exactgf.graphs import (
    VERTICAL,
    Evals,
    Jet,
    _check_weight,
    _eliminated,
    _laplacian_minor,
    _order_bound,
    _step,
    _tree_minors,
    _ver_terms,
    _zero_pivot,
)
from exactgf.spanning import HELD_OUT, GFResult, _decimal_ratio
from exactgf.toeplitz import _diag_value


def naive_det(m: Matrix):
    """Determinant by cofactor expansion along the first row."""
    rows = [list(r) for r in m.rows]
    return _naive_det_rows(rows)


def _naive_det_rows(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _naive_det_rows(minor)
        total = total - term if j % 2 else total + term
    return total


def permutation_permanent(m: Matrix):
    """Permanent as a sum over all permutations (n <= ~7)."""
    n = m.nrows
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= m.rows[i][perm[i]]
            if not prod:
                break
        total += prod
    return total


def dom_exact_div_ladder(a, b):
    """Exact ring division for Bareiss by one branch per operand type:
    ints, then Polys (an int or Fraction lifted to a constant), Evals
    (pointwise, checked at every point), Jets, and the rest by /."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise InexactDivision(f"{a} not divisible by {b}")
        return q
    if isinstance(a, Poly) or isinstance(b, Poly):
        a, b = (x if isinstance(x, Poly) else Poly((x,)) for x in (a, b))
        return a.exact_div(b)
    if isinstance(a, Evals) or isinstance(b, Evals):
        x, y = (a.values, a._lift(b)) if isinstance(a, Evals) else (b._lift(a), b.values)
        qr = [*map(divmod, x, y)]
        if any(r for _q, r in qr):
            raise InexactDivision(f"{a!r} not divisible by {b!r}")
        return Evals([q for q, _r in qr])
    if isinstance(a, Jet) or isinstance(b, Jet):
        return a // b
    return a / b


def random_labeled_graph(rng: random.Random, max_vertices=6, max_edges=10):
    """A random small multigraph; may be disconnected on purpose."""
    n = rng.randint(2, max_vertices)
    n_edges = rng.randint(0, max_edges)
    edges = []
    total = 0
    while total < n_edges:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        mult = rng.choice((1, 1, 1, 2))
        if total + mult > max_edges:
            mult = 1
        label = rng.choice(("vertical", "horizontal", "other"))
        edges.append((u, v, label, mult))
        total += mult
    return LabeledGraph(n, tuple(edges))


def random_toeplitz_prefixes(rng: random.Random, max_band=3, lo=-4, hi=4):
    """Random row/col prefixes sharing their first entry."""
    k1 = rng.randint(1, max_band)
    k2 = rng.randint(1, max_band)
    corner = rng.randint(lo, hi)
    row = [corner] + [rng.randint(lo, hi) for _ in range(k1 - 1)]
    col = [corner] + [rng.randint(lo, hi) for _ in range(k2 - 1)]
    return row, col


def matrix_from_spec_entrywise(spec: ToeplitzSpec) -> Matrix:
    """The Toeplitz matrix of spec, entry by entry from d(j - i)."""
    n, row, col = spec.n, spec.row, spec.col
    rows = []
    for i in range(n):
        r = []
        for j in range(n):
            o = j - i
            if 0 <= o < len(row):
                r.append(row[o])
            elif 0 < -o < len(col):
                r.append(col[-o])
            else:
                r.append(0)
        rows.append(r)
    return Matrix(rows)


def bandwidth_all_entries(m: Matrix) -> int:
    """The largest |i - j| over nonzero entries, testing every entry."""
    w = 0
    for i, row in enumerate(m.rows):
        for j, x in enumerate(row):
            if x and abs(i - j) > w:
                w = abs(i - j)
    return w


class FieldRF(RationalFunction):
    """A canonical RationalFunction with scalar coefficients plus field
    arithmetic; the other operand may be any RationalFunction, Poly in t
    or scalar."""

    __slots__ = ()

    def __add__(self, other):
        o = _field(other)
        return FieldRF(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return FieldRF(-self.num, self.den)

    def __sub__(self, other):
        return self + -_field(other)

    def __mul__(self, other):
        o = _field(other)
        return FieldRF(self.num * o.num, self.den * o.den)

    def __truediv__(self, other):
        o = _field(other)
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return FieldRF(self.num * o.den, self.den * o.num)


def _field(x) -> FieldRF:
    return FieldRF(x.num, x.den) if isinstance(x, RationalFunction) else FieldRF(x)


def solve_linear_field(a: Matrix, b) -> LinearSolution:
    """Gauss-Jordan elimination over a field (Fractions or FieldRFs),
    dividing by the pivot at every step: the body solve_linear had before
    it went through solve_fraction_free."""
    if not isinstance(a, Matrix):
        a = Matrix(a)
    b = list(b)
    if len(b) != a.nrows:
        raise ShapeError(f"{a.nrows} rows but {len(b)} right-hand sides")
    nrows, ncols = a.nrows, a.ncols
    aug = [list(r) + [b[i]] for i, r in enumerate(a.rows)]
    piv_cols = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if aug[i][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        prow = aug[rank]
        pval = prow[col]
        for i in range(nrows):
            if i == rank or not aug[i][col]:
                continue
            factor = aug[i][col] / pval
            row = aug[i]
            for j in range(col, ncols + 1):
                row[j] = row[j] - factor * prow[j]
        piv_cols.append(col)
        rank += 1
        if rank == nrows:
            break
    for i in range(rank, nrows):
        if aug[i][ncols]:
            return LinearSolution(LinearSolution.INCONSISTENT)
    zero = b[0] - b[0] if b else 0
    x = [zero] * ncols
    for r, col in enumerate(piv_cols):
        x[col] = aug[r][ncols] / aug[r][col]
    status = LinearSolution.UNIQUE if rank == ncols else LinearSolution.UNDERDETERMINED
    return LinearSolution(status, x)


def gf_transfer_field(row, col, mode="det"):
    """The transfer generating function by Gauss-Jordan elimination over
    rational functions in t: X_root = 1 + sum(c * t * X_child) and
    X_i = sum(c * t * X_child) for every other scheme state."""
    scheme = children_scheme(row, col, mode)
    m = len(scheme.states)
    one = FieldRF(1)
    zero = FieldRF(0)
    rows = [[zero] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = one
        for coeff, j in scheme.transitions[i]:
            rows[i][j] = rows[i][j] - Poly((0, Fraction(coeff)))
    sol = solve_linear_field(Matrix(rows), [one] + [zero] * (m - 1))
    assert sol.status == LinearSolution.UNIQUE, sol.status
    return sol.solution[0]


@dataclass(frozen=True)
class MinorState:
    """A minor's identity under recursive first-row expansion.

    offsets are the diagonal offsets of the window columns still present,
    relative to the minor's first row; row and col are the entry prefixes
    (up to the last nonzero entry) they induce, which is the human-readable
    form.  Equality is structural (by offsets)."""

    offsets: tuple
    row: tuple
    col: tuple


def _state_from_offsets(row, col, offsets) -> MinorState:
    offsets = tuple(sorted(offsets))
    vals = [_diag_value(row, col, o) for o in offsets]
    while vals and not vals[-1]:
        vals.pop()
    row_prefix = tuple(vals)
    k2 = len(col)
    col_vals = []
    if offsets:
        first = offsets[0]
        s = 0
        while first - s > -k2:
            col_vals.append(_diag_value(row, col, first - s))
            s += 1
        while col_vals and not col_vals[-1]:
            col_vals.pop()
    return MinorState(offsets=offsets, row=row_prefix, col=tuple(col_vals))


def initial_state(row, col) -> MinorState:
    """The root state: all window columns of the full matrix present."""
    if row[0] != col[0]:
        raise InconsistentSpec("row and column prefixes must share entry (1,1)")
    return _state_from_offsets(row, col, range(len(row)))


def expand_minor_states(row, col, state: MinorState, mode: str = "det"):
    """One cofactor-expansion step along the minor's first row.

    Returns (coefficient, child_state) pairs for each nonzero first-row
    entry; children whose leftmost column falls off the band come back
    with an empty col prefix (their determinant is 0) and are pruned by
    children_scheme.  A state with no nonzero first-row entry expands to
    nothing."""
    if mode not in ("det", "perm"):
        raise ValueError("mode must be 'det' or 'perm'")
    k1, k2 = len(row), len(col)
    offsets = state.offsets
    if len(offsets) != k1 or any(o < -k2 or o > k1 - 1 for o in offsets):
        raise BadState(f"offsets {offsets} impossible for a {k1}/{k2} family")
    if _state_from_offsets(row, col, offsets) != state:
        raise BadState("state prefixes do not match the family's diagonals")
    if not state.row or not state.col:
        return ()
    out = []
    for pos, o in enumerate(offsets):
        value = _diag_value(row, col, o)
        if not value:
            continue
        sign = 1 if (mode == "perm" or pos % 2 == 0) else -1
        child_offsets = sorted(x - 1 for x in offsets if x != o)
        child_offsets.append(k1 - 1)
        out.append((sign * value, _state_from_offsets(row, col, child_offsets)))
    return tuple(out)


def children_scheme_minor_states(row, col, mode: str = "det") -> TransferScheme:
    """Least fixed point of expand_minor from the root state, with
    zero-contribution states (empty row or col prefix) pruned.

    The pattern space has at most C(k1+k2-1, k1) states, but the closure
    still guards itself with a cap and raises an error rather than
    looping silently."""
    row, col = tuple(row), tuple(col)
    root = initial_state(row, col)
    cap = 10 * 2 ** (len(row) + len(col))
    order = {root.offsets: 0}
    states = [root]
    raw_transitions = []
    queue = [root]
    while queue:
        state = queue.pop(0)
        transitions = []
        for coeff, child in expand_minor_states(row, col, state, mode):
            if not child.row or not child.col:
                continue  # contributes 0 in every dimension
            if child.offsets not in order:
                order[child.offsets] = len(states)
                states.append(child)
                queue.append(child)
                if len(states) > cap:
                    raise AssertionError(
                        f"minor-state closure exceeded {cap} states"
                    )
            transitions.append((coeff, order[child.offsets]))
        raw_transitions.append(transitions)
    return TransferScheme(row, col, mode, states, raw_transitions)


def scheme_to_json_minor_states(scheme: TransferScheme) -> dict:
    """toeplitz.scheme_to_json for a scheme of MinorState states."""
    return {
        "row": [str(x) for x in scheme.row],
        "col": [str(x) for x in scheme.col],
        "mode": scheme.mode,
        "states": [
            {
                "offsets": list(s.offsets),
                "row": [str(x) for x in s.row],
                "col": [str(x) for x in s.col],
            }
            for s in scheme.states
        ],
        "transitions": [
            [[str(c), j] for c, j in row] for row in scheme.transitions
        ],
    }


def laplacian_minor_dense(g: LabeledGraph, drop, x=1):
    """The Laplacian minor by the dense path the graph counts used to
    take: build the whole (optionally x-weighted) Laplacian, delete the
    rows and columns in drop, and take det_bareiss of the rest.  x may be
    any scalar or VAR_V."""
    return det_bareiss(laplacian(g, x).delete_rows_cols(drop))


def last_pivots(g: LabeledGraph, drop, vertical_weight=1):
    """The last two pivots of graphs._laplacian_minor's streamed
    elimination: the minor, and before it the minor that also deletes the
    last kept vertex (1 if only one is kept).  After a zero pivot every
    later leading minor is 0 (see _laplacian_minor), so a zero pivot
    before the last makes both 0.  In the weight's ring."""
    _check_weight(vertical_weight)
    zero = 0 * vertical_weight
    kept = [v for v in range(g.n_vertices) if v not in drop]
    n, pos = len(kept), [-1] * g.n_vertices
    for i, v in enumerate(kept):
        pos[v] = i
    diag = [zero] + [0] * n  # diag[-1] takes the deleted ends' weights
    off = {}
    w = 0
    for u, v, label, mult in g.edges:
        weight = vertical_weight * mult if label == VERTICAL else mult
        if not weight:
            continue
        i, j = sorted((pos[u], pos[v]))
        diag[i] += weight
        diag[j] += weight
        if i >= 0:
            off[i, j] = off.get((i, j), 0) + weight
            w = max(w, j - i)

    def column(e):
        if e < n:
            return [-off.get((t, e), 0) for t in range(max(0, e - w), e)] + [diag[e]]

    prev = last = zero + 1
    for r, (upper, _p) in zip(range(n), _eliminated(column, w)):
        prev, last = last, upper[0][0]
        if _zero_pivot(last):
            return (prev if r == n - 1 else zero), zero
    return prev, last


def _block(upper, m, shift):
    """The leading m x m block of the symmetric window upper, less shift
    on its diagonal."""
    block = [[0] * m for _ in range(m)]
    for a in range(m):
        for c in range(a, m):
            block[a][c] = block[c][a] = upper[a][c - a]
        block[a][a] -= shift
    return Matrix(block)


def layer_sweep(g: LabeledGraph, vertical_weight=1, forests: bool = False):
    """Yield the Laplacian minors of g x P_n for n = 1, 2, ... from one
    streamed elimination of the product, the route the fit data took before
    graphs._tree_minors and graphs._corner_counts, with g's edges
    weighted by vertical_weight (an int >= 0, a Jet with constant term >= 1
    or Evals at points >= 1), in the weight's ring:
    spanning_tree_count(product_with_path(g, n)), or with forests
    two_forest_count of it between vertex 0 and the last vertex (0 when
    they coincide).

    The rows are those of g x P_inf, built layer by layer from g's edge
    list (vertex 0 left out for forests), so layer n's rows follow the r
    rows of layers 1..n-1 and its leading block is the Laplacian of
    g x P_n plus I on layer n (its edges to layer n + 1).  Before pivot r
    the window holds that layer as prev * S, S the Schur complement, so
    the minor is prev * det(S - I) without the last vertex, that is
    det(block - prev * I) * prev / prev^m over the m remaining rows.
    Every leading block of this matrix is positive definite (each
    component of a prefix of layers has an edge to the next layer), so a
    zero pivot, at any point of an Evals, is a bug and raises
    InternalInconsistency.  Layers cost O(k^3) each, k = |V(g)|, in
    O(|g| + k^2) memory."""
    _check_weight(vertical_weight)
    zero = 0 * vertical_weight
    k = g.n_vertices
    if not k:  # every g x P_n is empty, and so is its minor
        yield from repeat(zero + 1)
    adj = [[0] * k for _ in range(k)]
    for u, v, _label, mult in g.edges:
        adj[u][v] += mult
        adj[v][u] += mult

    # vertex u's row in the k columns before it, then its diagonal, in
    # layer 1 and in later layers
    first, rest = ([[-later] + [0] * (k - 1 - u) + [-vertical_weight * adj[a][u] for a in range(u)]
                    + [vertical_weight * sum(adj[u]) + 1 + later] for u in range(k)]
                   for later in (0, 1))
    skip = 1 if forests else 0

    def column(e):
        layer, u = divmod(e + skip, k)
        col = (rest if layer else first)[u]
        return col if e >= k else col[k - e:]

    windows = _eliminated(column, k)
    upper, prev = next(windows)[0], zero + 1  # pivot -1, in the weight's ring
    r = 0
    for n in count(1):
        end = n * k - skip  # rows of layers 1..n
        while r < end - k:
            if _zero_pivot(upper[0][0]):
                raise InternalInconsistency("zero pivot in a layer sweep")
            upper, prev = next(windows)
            r += 1
        m = min(end, k) - 1
        yield zero if m < 0 else det_bareiss(_block(upper, m, prev)) * prev // prev ** m


def ver_polynomial_per_point(g: LabeledGraph) -> Poly:
    """graphs.ver_polynomial by the route it used to take: D + 1 integer
    streamed minors, one per point v = 0..D, interpolated."""
    d_bound = min(sum(m for _u, _v, label, m in g.edges if label == VERTICAL),
                  max(g.n_vertices - 1, 0))
    drop = {g.n_vertices - 1}
    return Poly(_newton_interpolate([_laplacian_minor(g, drop, x) for x in range(d_bound + 1)]))


def ver_sweep_per_point(g: LabeledGraph):
    """Yield ver_polynomial(product_with_path(g, n)) for n = 1, 2, ... by
    the route graphs._ver_terms replaced: one integer layer sweep per
    point v = 0..D_n, each started (and run up to layer n - 1) when first
    needed, D_n = n * min(total multiplicity of g's edges, |V(g)| - 1)."""
    per_layer = min(sum(mult for *_edge, mult in g.edges), max(g.n_vertices - 1, 0))
    sweeps = []
    for n in count(1):
        while len(sweeps) <= n * per_layer:
            sweep = layer_sweep(g, len(sweeps))
            for _ in range(n - 1):
                next(sweep)
            sweeps.append(sweep)
        yield Poly(_newton_interpolate([next(sweep) for sweep in sweeps]))


def fit_by_reexpansion(series, start: int, window: int, guess):
    """cfinite.fit by the route it took for int, Fraction and nested-Poly
    series before its one replay: N = D * series[:d + 1] mod t^(d + 1) by
    polynomial product, and the fit accepted when N/D, re-expanded by
    series division (taylor_coeffs), gives back every term."""
    spec = guess(series[start:start + window])
    if spec is None:
        return None, None
    d, den = spec.order, Poly(spec.den)
    num = (den * Poly(series[:d + 1])).truncate(d + 1)
    rf = RationalFunction._from_coprime(num, den)
    return spec, (rf if taylor_coeffs(rf, len(series)) == series else None)


def gf_by_forward_window(g: LabeledGraph, guess=guess_rec, ver: bool = False) -> GFResult:
    """spanning.gf_spanning (guess guess_rec or guess_sym_rec), or gf_ver
    with ver, by the route they took before their data were mirrored: the
    guess on terms 1..guess_window(B), B the order bound, and HELD_OUT
    more generated, 2B + 4 + HELD_OUT terms in all; no spot check."""
    window = guess_window(_order_bound(g))
    count = window + HELD_OUT
    data = _ver_terms(g, count) if ver else list(islice(_tree_minors(g, 1), count))
    spec, gf = fit([0, *data], 1, window, guess)
    return GFResult(gf, spec, tuple(data), 1)


def gf_ver_by_interpolation(g: LabeledGraph) -> GFResult:
    """spanning.gf_ver's fit by the route it used to take, on the forward
    window and held-out terms of gf_by_forward_window: every term
    interpolated from the stream's values at v = 1..n p + 1, the guess on
    their Poly list with its replay
    over Z[v], and emission and re-expansion over Z[v]
    (fit_by_reexpansion)."""
    window = guess_window(_order_bound(g))
    count = window + HELD_OUT
    per_layer = min(sum(mult for *_edge, mult in g.edges), max(g.n_vertices - 1, 0))
    minors = _tree_minors(g, Evals(range(1, count * per_layer + 2)))
    data = [_interpolated(minor.values[:n * per_layer + 1])
            for n, minor in zip(range(1, count + 1), minors)]
    spec, gf = fit_by_reexpansion([0, *data], 1, window, guess_rec)
    return GFResult(gf, spec, tuple(data), 1)


# ---------------------------------------------------------------------------
# subset enumeration over spanning trees and forests (small graphs only)
# ---------------------------------------------------------------------------

def expanded_edges(g: LabeledGraph):
    """Edges with multiplicities unrolled (parallel edges distinct)."""
    out = []
    for u, v, label, mult in g.edges:
        out.extend([(u, v, label)] * mult)
    return out


def spanning_tree_count_bruteforce(g: LabeledGraph) -> int:
    """Count spanning trees by enumerating edge subsets; parallel edges
    count as distinguishable.  Intended for graphs with <= ~12 edges."""
    edges = expanded_edges(g)
    n = g.n_vertices
    if n == 1:
        return 1
    count = 0
    for subset in combinations(range(len(edges)), n - 1):
        comp, acyclic = _forest_shape(n, [edges[i] for i in subset])
        if acyclic and comp == 1:
            count += 1
    return count


def two_forest_count_bruteforce(g: LabeledGraph, a: int, b: int) -> int:
    """Count two-component spanning forests separating a from b by
    enumerating edge subsets of size n - 2."""
    if a == b:
        raise BadVertexPair("the two marked vertices must differ")
    edges = expanded_edges(g)
    n = g.n_vertices
    count = 0
    for subset in combinations(range(len(edges)), n - 2):
        chosen = [edges[i] for i in subset]
        comp, acyclic = _forest_shape(n, chosen)
        if acyclic and comp == 2 and not _same_component(n, chosen, a, b):
            count += 1
    return count


def ver_polynomial_bruteforce(g: LabeledGraph) -> Poly:
    """Spanning-tree v-polynomial by direct tree enumeration."""
    edges = expanded_edges(g)
    n = g.n_vertices
    if n == 1:
        return Poly((1,))
    counts = {}
    for subset in combinations(range(len(edges)), n - 1):
        chosen = [edges[i] for i in subset]
        comp, acyclic = _forest_shape(n, chosen)
        if acyclic and comp == 1:
            verts = sum(1 for e in chosen if e[2] == VERTICAL)
            counts[verts] = counts.get(verts, 0) + 1
    if not counts:
        return Poly()
    out = [0] * (max(counts) + 1)
    for k, c in counts.items():
        out[k] = c
    return Poly(out)


def _forest_shape(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp = n
    acyclic = True
    for u, v, *_ in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            acyclic = False
            break
        parent[ru] = rv
        comp -= 1
    return comp, acyclic


def _same_component(n, edges, a, b):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, *_ in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return find(a) == find(b)


# ---------------------------------------------------------------------------
# moments through the product graph
# ---------------------------------------------------------------------------

def moments_by_interpolation(g_base: LabeledGraph, n: int) -> MomentsReport:
    """spanning.moments by the route it took before the jet minor: build
    the whole vertical-edge polynomial with ver_polynomial of the product
    (its streamed minor at D + 1 points, interpolated) and differentiate
    it at v = 1."""
    p = ver_polynomial(product_with_path(g_base, n))
    derivs = [Fraction(p.eval(1))]
    for _ in range(4):
        p = p.derivative()
        derivs.append(Fraction(p.eval(1)))
    return _moments_report(n, derivs)


def moments_by_jet_minor(g_base: LabeledGraph, n: int) -> MomentsReport:
    """spanning.moments by the route it took before graphs._tree_minors:
    one streamed Laplacian minor of the whole product graph g_base x P_n at
    vertical weight 1 + e over jets mod e^5, whose coefficients c_j are
    P^(j)(1) / j! for the vertical-edge polynomial P."""
    g = product_with_path(g_base, n)
    c = _laplacian_minor(g, {g.n_vertices - 1}, Jet((1, 1, 0, 0, 0))).values
    return _moments_report(n, [Fraction(factorial(j) * c[j]) for j in range(5)])


def resistance_by_product_minor(k: int, n: int) -> Fraction:
    """spanning.resistance by the route it took before graphs._corner_counts:
    the last two pivots of one streamed elimination of the k x n grid's
    Laplacian without corner (1,1).  The last is that minor, the spanning
    trees; the one before it also deletes corner (k,n), the last vertex,
    and counts the two-forests separating the corners (all-minors
    matrix-tree theorem)."""
    if k * n < 2:
        raise BadVertexPair("need at least two vertices")
    return Fraction(*last_pivots(grid_graph(k, n), {0}))


def continuants_by_doubling(t, n: int):
    """(U_(n-1), U_n, U_(n+1)) for the continuants U_0 = 0, U_1 = I,
    U_(j+1) = t U_j - U_(j-1) of the symmetric matrix t, n >= 1: the
    matrix doubling that graphs._jump's scalar doubling replaced (Fiduccia
    1985).  The U_j are polynomials in t, so they commute, and U_(i+j) =
    U_(j+1) U_i - U_j U_(i-1) gives U_2j = U_j (U_(j+1) - U_(j-1)) and
    U_(2j+1) = (U_(j+1) - U_j)(U_(j+1) + U_j): two products per bit of n,
    U_(j-1) = t U_j - U_(j+1) being a step.

    It walks the top bits h of n in h steps, and each doubling level below
    them halves h for two products.  With s the size of t and z its
    nonzero entries, a step costs s z multiplications and the two products
    2 s^3, so the low bits double while the part of n above them has h z >
    4 s^2.  The walk starts at n = 2 with U_2 = t."""
    rows, size = [[(v, x) for v, x in enumerate(row) if x] for row in t], len(t)
    nonzero, low = sum(map(len, rows)), 0
    while (n >> low) * nonzero > 4 * size * size:
        low += 1
    c = [[int(u == v) for v in range(size)] for u in range(size)]
    half = not all(isinstance(x, int) for terms in rows for _v, x in terms)

    def walk(y0, y1):
        while True:
            y2 = _step(rows, y1, y0, half)
            yield y0, y1, y2
            y0, y1 = y1, y2

    u0, u1, u2 = next(islice(chain([([[0] * size for _ in c], c, t)], walk(c, t)),
                             (n >> low) - 1, None))
    for bit in reversed(range(low)):
        even = _product(u1, _entrywise(sub, u2, u0))
        odd = _product(_entrywise(sub, u2, u1), _entrywise(add, u2, u1))
        u1, u2 = (odd, _step(rows, odd, even, half)) if n >> bit & 1 else (even, odd)
        u0 = _step(rows, u1, u2, half)
    return u0, u1, u2


def _product(x, y):
    """x y, a symmetric product (continuants_by_doubling)."""
    cols = [*zip(*y)]
    out = [[sum(map(mul, row, col)) for col in cols[i:]] for i, row in enumerate(x)]
    for i, row in enumerate(out):  # the symmetric matrix from its upper triangle
        row[:0] = [above[i] for above in out[:i]]
    return out


def _entrywise(op, x, y):
    """The matrix of op(x_ij, y_ij)."""
    return [[*map(op, r, s)] for r, s in zip(x, y)]


def second_difference(continuants):
    """Y_(n+1) - 2 Y_n + Y_(n-1) = (t - 2I) Y_n from (Y_(n-1), Y_n,
    Y_(n+1)): a_n(t - 2I) C for Y_j = U_j C, a_n(y) = y U_n(y + 2) the
    continuant of graphs._order_bound."""
    return [[x - y - (y - z) for x, y, z in zip(*rows)] for rows in zip(*continuants[::-1])]


def decimal_ratio_whole(num: Fraction, var: Fraction, power: Fraction) -> Decimal:
    """spanning._decimal_ratio by the route its shifted integers replaced:
    every numerator and denominator converted to Decimal whole."""
    with localcontext() as ctx:
        ctx.prec = 45
        v = Decimal(var.numerator) / Decimal(var.denominator)
        scale = v.sqrt() ** 3 if power == Fraction(3, 2) else v ** int(power)
        out = (Decimal(num.numerator) / Decimal(num.denominator)) / scale
        ctx.prec = 30
        return +out


def _moments_report(n: int, derivs) -> MomentsReport:
    """The report from P^(j)(1), j = 0..4, the factorial moments times P(1)."""
    if derivs[0] == 0:
        raise NotConnected("product graph has no spanning trees")
    fact = [f / derivs[0] for f in derivs[1:]]  # factorial moments
    mean = fact[0]
    skewness = kurtosis = None
    ex2 = fact[1] + fact[0]
    variance = ex2 - mean * mean
    if variance > 0:
        ex3 = fact[2] + 3 * fact[1] + fact[0]
        mu3 = ex3 - 3 * mean * ex2 + 2 * mean**3
        skewness = _decimal_ratio(mu3, variance, power=Fraction(3, 2))
        ex4 = fact[3] + 6 * fact[2] + 7 * fact[1] + fact[0]
        mu4 = ex4 - 4 * mean * ex3 + 6 * mean**2 * ex2 - 3 * mean**4
        kurtosis = _decimal_ratio(mu4, variance, power=Fraction(2))
    return MomentsReport(
        n=n, mean=mean, variance=variance, skewness=skewness, kurtosis=kurtosis
    )


# ---------------------------------------------------------------------------
# recurrence guessing by an upward order scan
# ---------------------------------------------------------------------------

def guess_rec_scan(data) -> CFiniteSpec | None:
    """cfinite.guess_rec by the route it used to take: one fraction-free
    solve per order, scanning d = 1, 2, ... up to len // 2 - 2, with the
    same two-sample prefilter for data in Z[v]."""
    data = list(data)
    max_d = len(data) // 2 - 2
    if _is_poly_data(data):
        return _guess_rec_poly_scan(data, max_d)
    for d in range(1, max_d + 1):
        spec = _fit_exact(data, d)
        if spec is not None:
            return spec
    return None


def _is_poly_data(data) -> bool:
    return any(isinstance(x, Poly) for x in data)


def _as_poly(x) -> Poly:
    return x if isinstance(x, Poly) else Poly((x,))


def _solve_rec(ints, d: int):
    """Denominator of an order-d recurrence through the primitive integers
    ints by one fraction-free solve, or None when there is none."""
    rows = [[ints[n - i] for i in range(1, d + 1)] for n in range(d, len(ints))]
    sol = solve_fraction_free(rows, ints[d:])
    if sol.status == LinearSolution.INCONSISTENT:
        return None
    return [_last_pivot(sol.solution)] + [-num for num, _ in sol.solution]


def _last_pivot(pairs):
    """The denominator every pivot unknown of a solve_fraction_free
    witness shares (a free unknown comes back as (0, 1) and contributes
    0 whatever the denominator)."""
    return next((den for _, den in pairs if den != 1), 1)


def _fit_exact(data, d: int) -> CFiniteSpec | None:
    """One order-d fit by one fraction-free solve, replayed on all the
    data: scalar data scaled to primitive integers go through
    _solve_rec, data in Z[v] are solved over Z[v].  Every pivot
    unknown of the solve comes out over the same last pivot delta, so a
    fit delta * a[n] = sum(c[i] * a[n-i]) is read off as
    D = (delta, -c_1, ..., -c_d) without a division."""
    if _is_poly_data(data):
        polys = [_as_poly(x) for x in data]
        rows = [[polys[n - i] for i in range(1, d + 1)] for n in range(d, len(polys))]
        sol = solve_fraction_free(rows, polys[d:])
        den = None if sol.status == LinearSolution.INCONSISTENT else (
            [_last_pivot(sol.solution)] + [-num for num, _ in sol.solution])
    else:
        den = _solve_rec(_primitive_ints(data)[0], d)
    if den is None or not _recurrence_holds(data, den):
        return None
    return CFiniteSpec(tuple(data[:d]), den)


def _guess_rec_poly_scan(data, max_d: int) -> CFiniteSpec | None:
    start = 1
    for point in (2, 3):
        sampled = [p.eval(point) if isinstance(p, Poly) else p for p in data]
        for d in range(1, max_d + 1):
            if _fit_exact(sampled, d) is not None:
                start = max(start, d)
                break
        else:
            return None
    for d in range(start, max_d + 1):
        spec = _fit_exact(data, d)
        if spec is not None:
            return spec
    return None


def guess_sym_rec_scan(data) -> CFiniteSpec | None:
    """cfinite.guess_sym_rec by the route it used to take: an upward scan
    of orders d with d + ceil(d/2) + 3 <= len(data), one fraction-free
    solve per order and sign for a denominator with D_i = eps * D_(d-i),
    the first that replays on all the data.  It may return a palindromic
    multiple of a minimal denominator that is not palindromic."""
    data = list(data)
    ints = _primitive_ints(data)[0]
    d = 1
    while len(data) >= d + (d + 1) // 2 + 3:
        for eps in (1, -1):
            den = _solve_sym_rec(ints, d, eps)
            if den is not None and _recurrence_holds(ints, den):
                return CFiniteSpec(tuple(data[:d]), den)
        d += 1
    return None


def _solve_sym_rec(data, d: int, eps: int):
    # data are primitive integers (see _solve_rec).  The unknowns are the
    # c_j of a[n] = sum(c_j a[n-j]) with D_j = -delta * c_j; the symmetry
    # fixes D_d = eps * D_0, pairs c_j with c_(d-j), and for even d pins
    # the middle coefficient to 0 when eps = -1.
    free = list(range(1, (d - 1) // 2 + 1))
    middle = d // 2 if d % 2 == 0 and d >= 2 else None
    if middle is not None and eps == 1:
        free.append(middle)
    rows = []
    rhs = []
    for n in range(d, len(data)):
        row = []
        for j in free:
            if j == middle:
                row.append(data[n - j])
            else:
                row.append(data[n - j] + eps * data[n - (d - j)])
        rows.append(row)
        rhs.append(data[n] + eps * data[n - d])
    if free:
        sol = solve_fraction_free(rows, rhs)
        if sol.status == LinearSolution.INCONSISTENT:
            return None
        pairs = sol.solution
    elif any(rhs):
        return None
    else:
        pairs = []
    delta = _last_pivot(pairs)
    den = [delta] + [0] * (d - 1) + [eps * delta]
    for j, (num, _) in zip(free, pairs):
        den[j], den[d - j] = -num, -eps * num
    return den
