"""End-to-end pipelines: generate exact counting data from determinants,
guess a recurrence, certify it on held-out terms, and emit the rational
generating function.

Covered families, all over layers n of a product graph G x P_n:
  * spanning-tree counts (univariate in t),
  * two-component spanning forests separating two corners, and the
    companion polynomial that divides their denominator structure,
  * joint resistance between corners (at one n, graphs._corner_count),
  * the bivariate vertical-edge weight polynomial and its moments (at one
    n, graphs._tree_minor).

No fit builds a product graph for its data: they come from a
stream of the base graph's recurrences, graphs._tree_minors (det M_n,
M_n the grounded block that every single-layer count jumps to) for trees
and (at the points of v the fit needs, in evaluation form:
graphs._ver_terms) v-polynomials, graphs._corner_counts for two-forests.
Each fit is one round, sized from a proved bound on the recurrence order:
graphs._order_bound, from the base graph's Laplacian spectrum, for trees
and v-polynomials, and B_F (gf_two_forest) for the two-forests.  Trees
and v-polynomials mirror their data, tau_(-n) = +-tau_n with their
recurrence holding on all of Z (graphs._tree_minors), so they generate
half of the guess window, B + 2 terms for 2B + 4.  A fit is only accepted when its
denominator replays on every generated term (cfinite.fit), the
HELD_OUT extra terms never shown to the guesser included, and the last
term agrees with its per-term count by another route (_fit_pipeline):
graphs._grounded on the base graph, or the grid's minor for two-forests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from itertools import islice

from .cfinite import HELD_OUT, CFiniteSpec, _polys, _rate, fit, guess_rec, guess_sym_rec, guess_window
from .core import Evals, Poly, RationalFunction
# not called here; perfbench/tracing.py wraps these bindings
from .cfinite import c_to_r  # noqa: F401
from .core import poly_gcd, taylor_coeffs  # noqa: F401
from .graphs import ver_polynomial  # noqa: F401
# the tree and v-polynomial spot checks' route, bound where perfbench/tracing.py times it
from .graphs import _grounded as spanning_tree_count
from .errors import (
    BadVertexPair,
    InexactDivision,
    InternalInconsistency,
    NoFitWithinBudget,
    NotConnected,
    StructureConjectureViolated,
)
from .graphs import (
    Jet,
    LabeledGraph,
    _corner_count,
    _corner_counts,
    _order_bound,
    _tree_minor,
    _tree_minors,
    _tree_mirror,
    _ver_points,
    _ver_terms,
    grid_graph,
    path_graph,
    two_forest_count,
)

@dataclass(frozen=True, repr=False)
class GFResult:
    """A certified generating function.

    gf includes the t^offset prefactor, so its power series matches the
    generated data with no index shifting; spec is the recurrence that
    produced it and terms the generated terms it was certified against, as
    generated: integers, or gf_ver's polynomials in evaluation form
    (graphs._ver_terms).  data is them as integers or integer polynomials
    in v, interpolated on first read.
    """

    gf: RationalFunction
    spec: CFiniteSpec
    terms: tuple
    offset: int

    @property
    def data_used(self) -> int:
        """How many terms were generated in total."""
        return len(self.terms)

    @cached_property
    def data(self) -> tuple:
        return _as_data(self.terms)

    def __repr__(self):
        return (f"GFResult(gf={self.gf!r}, spec={self.spec!r}, data={self.data!r}, "
                f"offset={self.offset!r})")


def _as_data(terms) -> tuple:
    """terms as integers or integer polynomials in v: terms in evaluation
    form are items 1, 2, ... of a series for cfinite.fit."""
    if not isinstance(terms[-1], Evals):
        return tuple(terms)
    return tuple(_polys(terms, _rate([0, *terms]), 1))


@dataclass(frozen=True)
class MomentsReport:
    """Exact mean/variance and high-precision standardized moments of the
    vertical-edge statistic at a fixed number of layers."""

    n: int
    mean: Fraction
    variance: Fraction
    skewness: Decimal | None
    kurtosis: Decimal | None


def _fit_pipeline(terms, term_fn, guesser, bound, max_terms=None, mirror=None) -> GFResult:
    """Guess, emit and certify in one round; shared by all pipelines.

    terms(c) returns data terms 1..c and is asked once, so a source sizes
    its work to the fit (_ver_terms streams just the points it needs).  The
    guesser sees a window of W = guess_window(B) terms, B >= 1 the proved
    order bound, from which it fits any order <= B; a max_terms that is
    not None caps W.  Without a mirror the window is terms 1..W; with the
    family's mirror (sigma, tau_0), tau_(-n) = sigma tau_n for the trees
    and v-polynomials (graphs._tree_minors), it is terms -(W // 2 - 1)..h,
    h = W - W // 2: the same W terms of a sequence whose recurrence holds
    on all of Z, from h generated ones.  HELD_OUT more terms are generated
    but never shown to the guesser.  cfinite.fit guesses on that window,
    emits the function of 0, data (the t^1 prefactor), and accepts it if
    its denominator replays on every generated term: the held-out replay.
    Then the denominator degree must equal the order, and the last term
    must equal term_fn(n), in the data's own ring, its per-term
    count by a route that shares no step with the data's, so every run
    ties two computations together:

      family         data                         spot check
      trees          _tree_minors(g, 1): det      _grounded(g, 1, n):
                     M_n, the layer transfer's    det_bareiss of the same
                     grounded M_n stepped on      M_n, jumped to by scalar
                     (k-1)-square matrices, one   continuants mod chi_L(g)
                     _eliminated per n
      v-polynomials  the same over Evals at v =   _grounded(g,
                     1..n p + 1, kept in          _ver_points(g, n), n): the
                     evaluation form              same at the same points,
                     (_ver_terms): fitted at      n p + 1 > either side's
                     those points                 v-degree: no interpolation
      two-forests    _corner_counts: layer        two_forest_count of the
                     transfer, one bordered       grid: _laplacian_minor
                     _bareiss_pivots run per n

    Doubled data, doubled in graphs too, therefore fail each family's
    spot check.

    In a window capped by max_terms, no fit from the guesser, or a fit
    that misses a held-out term, raises NoFitWithinBudget carrying the
    data (an honest no-fit).  In the full window either contradicts the
    proved bound (guess_window) or mirror, and a failed degree or per-term
    check contradicts the data: these raise InternalInconsistency (CLI
    exit 3).
    """
    full = guess_window(bound)
    window = full if max_terms is None else min(full, max_terms)
    guess, shown = guesser, window
    if mirror is not None:
        sign, tau0 = mirror
        back = max(window // 2 - 1, 0)
        shown = window - back - 1

        def guess(xs):  # xs = data[:shown], guessed on with the mirrored back terms
            return guesser([*(sign * x for x in reversed(xs[:back])), 0 * data[0] + tau0, *xs])
    data = terms(shown + HELD_OUT)
    spec, gf = fit([0, *data], 1, shown, guess)
    if gf is not None:
        if gf.den.degree != spec.order:
            raise InternalInconsistency("denominator degree does not match the recurrence order")
        if term_fn(len(data)) != data[-1]:
            raise InternalInconsistency(
                f"term {len(data)} of the data differs from its per-term count"
            )
        return GFResult(gf=gf, spec=spec, terms=tuple(data), offset=1)
    if window == full:
        raise InternalInconsistency(
            f"the fit to {window} terms {'is none' if spec is None else 'misses a held-out term'}, "
            f"but the order bound {bound} is proved"
        )
    raise NoFitWithinBudget(
        f"no validated recurrence from terms {shown - window + 1}..{shown} of the "
        f"{len(data)} generated",
        _as_data(data),
    )


def gf_spanning(
    g_base: LabeledGraph,
    guesser: str = "plain",
    max_terms: int | None = None,
) -> GFResult:
    """Generating function (offset t^1) of spanning-tree counts of
    g_base x P_n, fitted in one round from the order bound of g_base.
    guesser is "plain" or "symmetric"; the symmetric variant accepts the
    plain fit only if its denominator is palindromic up to sign, on the
    same window, and never refuses one here: D(t) = +-t^d D(1/t).  The
    counts are tau_n = sum c_rho rho^n over the ratios rho with c_rho != 0
    at every integer n (graphs._tree_minors), and tau_(-n) = sigma tau_n
    makes c_(1/rho) = sigma c_rho (such a sum is unique), so the ratios of
    D = prod (1 - rho t) come in pairs rho, 1/rho, or are +-1, and
    t^d D(1/t) = prod (t - rho) = (-1)^d prod(rho) D(t), prod(rho) = +-1.
    The same holds over Q(v), so for gf_ver's D too."""
    if not g_base.is_connected():
        raise NotConnected("base graph must be connected")
    try:
        guess = {"plain": guess_rec, "symmetric": guess_sym_rec}[guesser]
    except KeyError:
        raise ValueError(f"guesser must be 'plain' or 'symmetric', not {guesser!r}")

    def term(n):
        return spanning_tree_count(g_base, 1, n)

    def terms(c):
        return list(islice(_tree_minors(g_base, 1), c))

    return _fit_pipeline(terms, term, guess, _order_bound(g_base), max_terms, _tree_mirror(g_base))


def gf_grid(k: int, guesser: str = "plain", max_terms: int | None = None) -> GFResult:
    """gf_spanning for the k-row grid family."""
    return gf_spanning(path_graph(k), guesser=guesser, max_terms=max_terms)


def _forest_bound(k: int) -> int:
    """B_F = (k + 3) 2^(k-2), 2 at k = 1, proved in gf_two_forest."""
    return (k + 3) << (k - 2) if k > 1 else 2


def gf_two_forest(k: int) -> GFResult:
    """Generating function (offset t^1) of the number of two-component
    spanning forests of the k x n grid separating corner (1,1) from
    corner (k,n), fitted in one round from the proved order bound B_F
    (_forest_bound), the order found for k = 1..6.

    The bound holds for any connected G with k vertices, a in layer 1 and
    b in layer n of G x P_n.  By the all-minors matrix-tree theorem
    (Chaiken 1982) the forests are F = tau R, tau the spanning trees and R
    the resistance between a and b, the quadratic form of the
    pseudo-inverse of L(G x P_n) = L(G) (+) L(P_n) at e_a - e_b.  Over the
    orthonormal eigenpairs (lambda_i, phi_i) of L(G), lambda_0 = 0 and
    phi_0 = 1/sqrt(k), this Kronecker sum splits into the blocks lambda_i I
    + L(P_n).  Block 0 is the path's end-to-end resistance n - 1 at weight
    1/k.  For i >= 1, the path's Green's function (lambda I + L(P_n))^-1
    has (1,1) and (n,n) entries c_n(lambda) / a_n(lambda) and (1,n) entry
    1 / a_n(lambda), with a_n(lambda) = det(lambda I + L(P_n)) and c_n its
    minor less the first row and column.  With tau = (1/k) prod_{i>=1}
    a_n(lambda_i) (graphs._order_bound) this gives, for n >= 1,

        F(n) = tau(n) (n - 1) / k + (1/k) sum_{i>=1} [(phi_i(a)^2 +
               phi_i(b)^2) c_n(lambda_i) - 2 phi_i(a) phi_i(b)]
               prod_{j>=1, j!=i} a_n(lambda_j).

    a_n and c_n both follow Y_n = (lambda + 2) Y_(n-1) - Y_(n-2) (c_1 = 1,
    c_2 = lambda + 1), so each is alpha r^n + beta r^-n with r + 1/r =
    lambda + 2 > 2.  tau is then a sum of geometric terms over the 2^(k-1)
    ratios prod_{j>=1} r_j^(+-1); tau (n - 1) gives each of them
    multiplicity at most 2, and the c_n terms reuse them with constant
    coefficients; the products over j != i add the ratios prod_{j!=i}
    r_j^(+-1), 2^(k-2) for each of the k - 1 values of i.  So F is an
    exponential polynomial with at most 2 2^(k-1) + (k - 1) 2^(k-2) = B_F
    characteristic roots, counted with multiplicity (coinciding ratios only
    merge), and satisfies a recurrence of order <= B_F from n = 1 on; at
    k = 1, F = n - 1.  _fit_pipeline's guess_window(B_F) terms fit it,
    and its denominator divides Q^2 C, Q = prod (1 - rho t) over tau's
    ratios rho and C the same product over the ratios prod_{j!=i}."""
    if k < 1:
        raise ValueError("k must be positive")

    def term(n):
        return two_forest_count(grid_graph(k, n), 0, k * n - 1)

    # for k = 1, n = 1 the stream gives 0: a single vertex cannot be separated from itself
    def terms(c):
        return [f for f, _tau in islice(_corner_counts(path_graph(k), 0, k - 1), c)]

    return _fit_pipeline(terms, term, guess_rec, _forest_bound(k))


def c_poly(k: int) -> Poly:
    """The cofactor polynomial C_k: the two-forest denominator divided by
    the squared spanning-tree denominator, which the observed structure
    says divides exactly.  Normalized primitive with positive leading
    coefficient.  An inexact division raises StructureConjectureViolated
    rather than silently continuing."""
    if k < 2:
        raise ValueError("k must be at least 2")
    den_forest = gf_two_forest(k).gf.den
    den_tree = gf_grid(k).gf.den
    try:
        quotient = den_forest.exact_div(den_tree * den_tree)
    except InexactDivision as exc:
        raise StructureConjectureViolated(
            f"two-forest denominator for k={k} is not divisible by the "
            f"squared spanning-tree denominator"
        ) from exc
    lead = quotient.coeffs[-1]
    if lead < 0:
        quotient = -quotient
    return quotient


def resistance(k: int, n: int) -> Fraction:
    """Joint resistance between corners (1,1) and (k,n) of the k x n grid
    with 1-Ohm edges: two-forests over spanning trees, both counted by
    graphs._corner_count on P_k (k n - 1 where the grid is a path).
    That jumps to layer n by scalar doubling, O(k^2 log n) operations on
    numbers of O(n) digits, and O(k^3) to evaluate and eliminate."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    if k * n < 2:
        raise BadVertexPair("need at least two vertices")
    return Fraction(*_corner_count(path_graph(k), 0, k - 1, n))


def resistance_bound_constant(k: int) -> Fraction:
    """The additive constant in the resistance sandwich
    (n-1)/k <= R(k,n) <= (n-1)/k + C(k):  C(k) = 2*sum((1 - i/k)^2)."""
    if k < 1:
        raise ValueError("k must be positive")
    return 2 * sum((1 - Fraction(i, k)) ** 2 for i in range(1, k))


# ---------------------------------------------------------------------------
# bivariate vertical-edge pipeline
# ---------------------------------------------------------------------------

def gf_ver(g_base: LabeledGraph) -> GFResult:
    """Bivariate generating function (offset t^1) of the vertical-edge
    weight polynomials of g_base x P_n.

    Data terms are polynomials in v in evaluation form, their values at
    the points v = 1..P from one tree-minor stream sized like gf_spanning's
    from the order bound of g_base (graphs._ver_terms).  cfinite.fit
    guesses, replays and accepts at those points and interpolates only the
    emitted numerator and denominator; the result's data are interpolated
    when first read.
    Numerator and denominator are polynomials in t whose coefficients are
    integer polynomials in v with no common content (lowest denominator
    coefficient positive)."""
    if not g_base.is_connected():
        raise NotConnected("base graph must be connected")

    def term(n):
        return spanning_tree_count(g_base, _ver_points(g_base, n), n)

    def terms(c):
        return _ver_terms(g_base, c)

    return _fit_pipeline(terms, term, guess_rec, _order_bound(g_base), mirror=_tree_mirror(g_base))


def gf_ver_grid(k: int) -> GFResult:
    return gf_ver(path_graph(k))


def substitute_v(rf: RationalFunction, value) -> RationalFunction:
    """Evaluate the v-variable of a bivariate generating function at an
    exact scalar, returning a canonical univariate function of t."""

    def sub(p: Poly) -> Poly:
        return Poly([c.eval(value) if isinstance(c, Poly) else c for c in p.coeffs])

    return RationalFunction(sub(rf.num), sub(rf.den))


# ---------------------------------------------------------------------------
# moments of the vertical-edge statistic
# ---------------------------------------------------------------------------

def moments(g_base: LabeledGraph, n: int) -> MomentsReport:
    """Exact moments of the vertical-edge count over uniformly random
    spanning trees of g_base x P_n, n >= 1.

    The weight polynomial P at v = 1 + e over jets mod e^5 gives c_j =
    P^(j)(1) / j! and the factorial moments j! c_j / c_0: P is
    graphs._tree_minor, item n of graphs._tree_minors: a jump by
    scalar doubling over jets of m = min(n + 1, k) terms, O(m^2 log n)
    operations, evaluated against m integer powers of L(g), built once per
    graph, into a grounded block of k - 1 rows, O(k^2 m), eliminated in
    its band, O(k^3) at most; 1 for the empty graph.
    Mean and variance are exact; skewness and kurtosis (plain, not excess)
    are 30-significant-digit decimals, None when the variance is 0."""
    if not g_base.is_connected():
        raise NotConnected("base graph must be connected")
    if n < 1:
        raise ValueError("need at least one layer")
    c = (_tree_minor(g_base, Jet((1, 1, 0, 0, 0)), n).values if g_base.n_vertices
         else (1, 0, 0, 0, 0))
    fact = [Fraction(math.factorial(j) * c[j], c[0]) for j in range(1, 5)]
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
    return MomentsReport(n, mean, variance, skewness, kurtosis)


def _decimal_ratio(num: Fraction, var: Fraction, power: Fraction) -> Decimal:
    """num / var**power to 30 significant digits.  A Fraction p / q enters
    as (p >> d) / (q >> d), the shorter keeping about 200 bits: within a
    relative 2^-197 < 10^-59 of p / q, so the result is that of the whole
    conversion unless a 45-digit rounding lies within 10^-59 of its
    boundary.  The whole conversion took 0.5 s at n = 5000."""
    with localcontext() as ctx:
        ctx.prec = 45
        v, x = (Decimal(f.numerator >> d) / Decimal(f.denominator >> d) for f in (var, num)
                for d in [max(min(f.numerator.bit_length(), f.denominator.bit_length()) - 200, 0)])
        scale = v.sqrt() ** 3 if power == Fraction(3, 2) else v ** int(power)
        out = x / scale
        ctx.prec = 30
        return +out
