"""End-to-end pipelines: generate exact counting data from determinants,
guess a recurrence, certify it on held-out terms, and emit the rational
generating function.

Covered families, all over layers n of a product graph G x P_n:
  * spanning-tree counts (univariate in t),
  * two-component spanning forests separating two corners, and the
    companion polynomial that divides their denominator structure,
  * joint resistance between corners (graphs._corner_counts: no product graph),
  * the bivariate vertical-edge weight polynomial and its moments (at one
    n, from graphs._kronecker_minor: no product graph).

The data of each fit round come from one layer sweep (graphs._layer_sweep),
for the v-polynomials one over the points of v the round needs
(graphs._ver_terms).  The first round is sized from a proved bound on the
recurrence order (graphs._order_bound, from the base graph's Laplacian
spectrum), so trees and v-polynomials fit in one round unless the term
cap is below it; only the two-forests' unproved hint can need more.  A
fit is only accepted when at least HELD_OUT extra terms, never shown to
the guesser, are reproduced by the recurrence and the last term agrees
with its per-term count, which graphs computes from the base graph's
recurrences, not from the sweep; the emitted function is additionally
re-expanded and compared against every generated term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

from .cfinite import (
    MAX_TERMS,
    CFiniteSpec,
    _recurrence_holds,
    c_to_r,
    guess_rec,
    guess_sym_rec,
)
from .core import (
    Poly,
    RationalFunction,
    poly_gcd,  # noqa: F401  not called here; perfbench/tracing.py wraps this binding
    taylor_coeffs,
)
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
    _corner_counts,
    _kronecker_minor,
    _layer_sweep,
    _order_bound,
    _ver_terms,
    grid_graph,
    path_graph,
    product_with_path,
    spanning_tree_count,
    two_forest_count,
    ver_polynomial,
)

#: Terms generated beyond the fit window; all must replay correctly.
HELD_OUT = 6


@dataclass(frozen=True)
class GFResult:
    """A certified generating function.

    gf includes the t^offset prefactor, so its power series matches the
    generated data with no index shifting; spec is the recurrence that
    produced it and data the generated terms it was certified against.
    """

    gf: RationalFunction
    spec: CFiniteSpec
    data: tuple
    offset: int

    @property
    def data_used(self) -> int:
        """How many terms were generated in total."""
        return len(self.data)


@dataclass(frozen=True)
class MomentsReport:
    """Exact mean/variance and high-precision standardized moments of the
    vertical-edge statistic at a fixed number of layers."""

    n: int
    mean: Fraction
    variance: Fraction
    skewness: Decimal | None
    kurtosis: Decimal | None


def _fit_pipeline(terms, term_fn, guesser, bound, max_terms=MAX_TERMS):
    """Adaptive guess-and-certify loop shared by all pipelines.

    terms(c) returns data terms 1..c; each round asks it once, so a source
    sizes its work to the round (_ver_terms sweeps just the points the
    round needs).  term_fn(n) recomputes term n by the per-term path: a
    graphs counter on product_with_path(g, n), which runs g's Kronecker-sum
    recurrence (graphs._kronecker_minor) for trees and v-polynomials and
    its layer transfer recurrence (graphs._corner_counts) for corner
    two-forests.  The guesser sees a window of the first terms; HELD_OUT
    extra terms are always generated and must be replayed exactly before
    a fit is accepted, and so must the last term recomputed by term_fn
    (InternalInconsistency otherwise), which ties the sweep's elimination
    to an independent recurrence on every run.  The window is 2B + 4
    terms for the order bound B >= 1, the fewest from which guess_rec
    (orders up to len // 2 - 2) fits any order <= B, or max_terms if that
    is fewer.  A bound below the order (only the two-forest hint is
    unproved) doubles the window, each round generating its terms afresh,
    until the cap, which raises NoFitWithinBudget carrying the data.
    """
    budget = min(2 * bound + 4, max_terms)
    while True:
        data = terms(budget + HELD_OUT)
        spec = guesser(data[:budget])
        if spec is not None and _recurrence_holds(data, spec.den):
            if term_fn(len(data)) != data[-1]:
                raise InternalInconsistency(
                    f"term {len(data)} of the sweep differs from its per-term minor"
                )
            return spec, data
        if budget >= max_terms:
            raise NoFitWithinBudget(
                f"no validated recurrence within {max_terms} terms", data
            )
        budget = min(2 * budget, max_terms)


def _certified(terms, term_fn, guesser, bound, max_terms) -> GFResult:
    """Fit, emit and certify: run _fit_pipeline on terms, turn the
    recurrence into its generating function with the t^1 prefactor, and
    check that the denominator degree equals the order and that the
    series reproduces every generated term."""
    spec, data = _fit_pipeline(terms, term_fn, guesser, bound, max_terms)
    # the guessers return the minimal recurrence (cfinite._minimal_den,
    # guess_rec1), so num and den are coprime, and D_0 != 0 keeps t * num
    # and den coprime too: no gcd is taken
    raw = c_to_r(spec, coprime=True)
    gf = RationalFunction._from_coprime(raw.num.shift(1), raw.den)
    if gf.den.degree != spec.order:
        raise InternalInconsistency(
            "denominator degree does not match the recurrence order"
        )
    if taylor_coeffs(gf, len(data) + 1)[1:] != data:
        raise InternalInconsistency("series does not reproduce the data")
    return GFResult(gf=gf, spec=spec, data=tuple(data), offset=1)


def gf_spanning(
    g_base: LabeledGraph,
    guesser: str = "plain",
    max_terms: int = MAX_TERMS,
) -> GFResult:
    """Generating function (offset t^1) of spanning-tree counts of
    g_base x P_n, fitted in one round from the order bound of g_base.
    guesser is "plain" or "symmetric"; the symmetric variant accepts the
    plain fit only if its denominator is palindromic up to sign, on the
    same window."""
    if not g_base.is_connected():
        raise NotConnected("base graph must be connected")
    try:
        guess = {"plain": guess_rec, "symmetric": guess_sym_rec}[guesser]
    except KeyError:
        raise ValueError(f"guesser must be 'plain' or 'symmetric', not {guesser!r}")

    def term(n):
        return spanning_tree_count(product_with_path(g_base, n))

    def terms(c):
        return list(islice(_layer_sweep(g_base), c))

    return _certified(terms, term, guess, _order_bound(g_base), max_terms)


def gf_grid(k: int, guesser: str = "plain", max_terms: int = MAX_TERMS) -> GFResult:
    """gf_spanning for the k-row grid family."""
    return gf_spanning(path_graph(k), guesser=guesser, max_terms=max_terms)


def gf_two_forest(k: int, max_terms: int = MAX_TERMS) -> GFResult:
    """Generating function (offset t^1) of the number of two-component
    spanning forests of the k x n grid separating corner (1,1) from
    corner (k,n)."""
    if k < 1:
        raise ValueError("k must be positive")

    def term(n):
        return two_forest_count(grid_graph(k, n), 0, k * n - 1)

    # for k = 1, n = 1 the sweep gives 0: a single vertex cannot be separated from itself
    # B_F = (k + 3) 2^(k-2) (2 at k = 1) sizes the budget only; replay certifies the fit
    hint = (k + 3) << (k - 2) if k > 1 else 2

    def terms(c):
        return list(islice(_layer_sweep(path_graph(k), forests=True), c))

    return _certified(terms, term, guess_rec, hint, max_terms)


def c_poly(k: int, max_terms: int = MAX_TERMS) -> Poly:
    """The cofactor polynomial C_k: the two-forest denominator divided by
    the squared spanning-tree denominator, which the observed structure
    says divides exactly.  Normalized primitive with positive leading
    coefficient.  An inexact division raises StructureConjectureViolated
    rather than silently continuing."""
    if k < 2:
        raise ValueError("k must be at least 2")
    den_forest = gf_two_forest(k, max_terms=max_terms).gf.den
    den_tree = gf_grid(k, max_terms=max_terms).gf.den
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
    graphs._corner_counts on P_k, or k n - 1 where the grid is a path."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    if k * n < 2:
        raise BadVertexPair("need at least two vertices")
    if k == 1 or n == 1:
        return Fraction(k * n - 1)
    return Fraction(*_corner_counts(path_graph(k), n, 0, k - 1))


def resistance_bound_constant(k: int) -> Fraction:
    """The additive constant in the resistance sandwich
    (n-1)/k <= R(k,n) <= (n-1)/k + C(k):  C(k) = 2*sum((1 - i/k)^2)."""
    return 2 * sum((1 - Fraction(i, k)) ** 2 for i in range(1, k))


# ---------------------------------------------------------------------------
# bivariate vertical-edge pipeline
# ---------------------------------------------------------------------------

def gf_ver(g_base: LabeledGraph, max_terms: int = MAX_TERMS) -> GFResult:
    """Bivariate generating function (offset t^1) of the vertical-edge
    weight polynomials of g_base x P_n.

    Data terms are polynomials in v, generated from their values at the
    points v = 1, 2, ... by one layer sweep, sized like gf_spanning's from
    the order bound of g_base, and so are the recurrence's denominator
    coefficients, fitted at integer points of v.
    Numerator and denominator are polynomials in t whose coefficients are
    integer polynomials in v with no common content (lowest denominator
    coefficient positive)."""
    if not g_base.is_connected():
        raise NotConnected("base graph must be connected")

    def term(n):
        return ver_polynomial(product_with_path(g_base, n))

    def terms(c):
        return _ver_terms(g_base, c)

    return _certified(terms, term, guess_rec, _order_bound(g_base), max_terms)


def gf_ver_grid(k: int, max_terms: int = MAX_TERMS) -> GFResult:
    return gf_ver(path_graph(k), max_terms=max_terms)


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
    P^(j)(1) / j! and the factorial moments j! c_j / c_0: P is one
    graphs._kronecker_minor, tau(g_base) v^(k-1) at n = 1 and 1 at k <= 1.
    Mean and variance are exact; skewness and kurtosis (plain, not excess)
    are 30-significant-digit decimals, None when the variance is 0."""
    if not g_base.is_connected():
        raise NotConnected("base graph must be connected")
    if n < 1:
        raise ValueError("need at least one layer")
    k = g_base.n_vertices
    c = ([math.comb(max(k - 1, 0), j) for j in range(5)] if n == 1 or k <= 1
         else _kronecker_minor(g_base, n, Jet((1, 1, 0, 0, 0))).coeffs)
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
    """num / var**power to 30 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 45
        v = Decimal(var.numerator) / Decimal(var.denominator)
        scale = v.sqrt() ** 3 if power == Fraction(3, 2) else v ** int(power)
        out = (Decimal(num.numerator) / Decimal(num.denominator)) / scale
        ctx.prec = 30
        return +out
