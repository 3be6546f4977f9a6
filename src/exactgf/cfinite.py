"""Guessing linear recurrences with constant coefficients from data,
replaying them, and converting them to rational generating functions.

A recurrence of order d is stored as a pair of lists: d initial values and
d coefficients r with the meaning  L[n] = sum(r[i] * L[n-i], i=1..d).
Guessing is plain undetermined-coefficients linear algebra, solved by the
fraction-free kernel core.solve_fraction_free: numeric sequences are first
scaled to primitive integers (a recurrence is homogeneous, so scaling the
data leaves it unchanged) and sequences of polynomials in v (the weighted
spanning-tree data) stay polynomials, so elimination never leaves the
integers or Z[v].  The coefficients come out as rationals, or as rational
functions in v.  No floating point is involved anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    LinearSolution,
    Poly,
    RationalFunction,
    _primitive_ints,
    solve_fraction_free,
    solve_linear,  # noqa: F401  not called here; perfbench/tracing.py wraps this binding
    taylor_coeffs,
)
from .errors import DataTooShort, InexactDivision, InternalInconsistency


@dataclass(frozen=True)
class CFiniteSpec:
    """Initial values plus recurrence coefficients, both of length d."""

    initial: tuple
    rec: tuple

    def __post_init__(self):
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "rec", tuple(self.rec))
        if len(self.initial) != len(self.rec) or not self.rec:
            raise ValueError("initial and rec must have equal positive length")

    @property
    def order(self) -> int:
        return len(self.rec)


def seq_from_rec(spec: CFiniteSpec, n: int) -> list:
    """First n terms generated by the recurrence (initial values verbatim)."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = list(spec.initial[:n])
    rec = spec.rec
    d = len(rec)
    while len(out) < n:
        acc = rec[0] * out[-1]
        for i in range(2, d + 1):
            acc = acc + rec[i - 1] * out[-i]
        out.append(acc)
    return out


def _recurrence_holds(data, rec) -> bool:
    d = len(rec)
    for n in range(d, len(data)):
        acc = rec[0] * data[n - 1]
        for i in range(2, d + 1):
            acc = acc + rec[i - 1] * data[n - i]
        if acc != data[n]:
            return False
    return True


def _is_poly_data(data) -> bool:
    return any(isinstance(x, Poly) for x in data)


def guess_rec1(data, d: int) -> CFiniteSpec | None:
    """Try to fit an order-d recurrence to the whole list.

    Needs len(data) >= 2d+3 (raises DataTooShort otherwise, mirroring the
    minimum that keeps the system comfortably overdetermined).  Returns
    None when no consistent recurrence of order d exists.  Underdetermined
    systems yield one witness, which is then validated against every data
    point before being accepted.
    """
    data = list(data)
    if len(data) <= 2 * d + 2:
        raise DataTooShort(f"need at least {2 * d + 3} terms for order {d}")
    rec = _solve_rec(data, d)
    if rec is None or not _recurrence_holds(data, rec):
        return None
    return CFiniteSpec(tuple(data[:d]), tuple(rec))


def _as_poly(x) -> Poly:
    return x if isinstance(x, Poly) else Poly((x,))


def _solve_rec(data, d: int):
    """Coefficients of an order-d recurrence through the data by one
    fraction-free solve, or None when there is none.

    Scalar data are scaled to primitive integers first and give Fraction
    coefficients.  Polynomial data stay polynomials, so no large
    polynomial gcds happen mid-elimination; a coefficient is a Poly when
    it divides out exactly and a RationalFunction in v otherwise."""
    poly = _is_poly_data(data)
    data = [_as_poly(x) for x in data] if poly else _primitive_ints(data)[0]
    rows = [[data[n - i] for i in range(1, d + 1)] for n in range(d, len(data))]
    sol = solve_fraction_free(rows, data[d:])
    if sol.status == LinearSolution.INCONSISTENT:
        return None
    if not poly:
        return [Fraction(num, den) for num, den in sol.solution]
    rec = []
    for num, den in sol.solution:
        num, den = _as_poly(num), _as_poly(den)
        try:
            rec.append(num.exact_div(den))
        except InexactDivision:
            rec.append(RationalFunction(num, den))
    return rec


def guess_rec(data) -> CFiniteSpec | None:
    """Smallest-order recurrence fitting the list, or None.

    Scans d upward, so the reported order is minimal among fittable
    orders; the order can be at most floor(len/2) - 2, which is what keeps
    every accepted fit overdetermined.
    """
    data = list(data)
    max_d = len(data) // 2 - 2
    if _is_poly_data(data):
        return _guess_rec_poly(data, max_d)
    for d in range(1, max_d + 1):
        spec = guess_rec1(data, d)
        if spec is not None:
            return spec
    return None


def _guess_rec_poly(data, max_d: int) -> CFiniteSpec | None:
    # Cheap prefilter: a recurrence over Q(v) specializes to one over Q at
    # any rational point where its coefficients have no pole, so the
    # minimal symbolic order is (for all but degenerate sample points) the
    # max of the minimal orders at two samples.  The symbolic fit is then
    # attempted from that order upward and fully validated.
    start = 1
    for point in (2, 3):
        sampled = [p.eval(point) if isinstance(p, Poly) else p for p in data]
        for d in range(1, max_d + 1):
            if guess_rec1(sampled, d) is not None:
                start = max(start, d)
                break
        else:
            return None
    for d in range(start, max_d + 1):
        spec = guess_rec1(data, d)
        if spec is not None:
            return spec
    return None


def guess_sym_rec(data) -> CFiniteSpec | None:
    """Like guess_rec, but only recurrences whose characteristic
    denominator 1 - sum(r[i] t^i) is palindromic up to an overall sign.

    The symmetry halves the number of unknowns, so an order-d fit is
    accepted already when len(data) >= d + ceil(d/2) + 3.
    """
    data = [Fraction(x) for x in data]
    ints = _primitive_ints(data)[0]
    n_terms = len(data)
    d = 1
    while n_terms >= d + (d + 1) // 2 + 3:
        for eps in (1, -1):
            rec = _solve_sym_rec(ints, d, eps)
            if rec is not None and _recurrence_holds(data, rec):
                return CFiniteSpec(tuple(data[:d]), tuple(rec))
        d += 1
    return None


def _solve_sym_rec(data, d: int, eps: int):
    # data are primitive integers (see _solve_rec).  Denominator
    # coefficients are c_0 = 1, c_i = -a_i; the symmetry
    # c_i = eps * c_(d-i) forces a_d = -eps, pairs a_i with a_(d-i), and
    # for even d pins the middle coefficient to 0 when eps = -1.
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
        values = {j: Fraction(num, den) for j, (num, den) in zip(free, sol.solution)}
    else:
        if any(r for r in rhs):
            return None
        values = {}
    rec = [Fraction(0)] * (d + 1)
    for j in free:
        rec[j] = values[j]
        if j != middle:
            rec[d - j] = eps * values[j]
    if middle is not None and eps == -1:
        rec[middle] = Fraction(0)
    rec[d] = Fraction(-eps)
    return rec[1:]


def c_to_r(spec: CFiniteSpec) -> RationalFunction:
    """Rational generating function of the recurrence.

    Denominator 1 - sum(r[i] t^i); numerator is the product of the
    denominator with the initial-value polynomial, truncated below degree
    d.  The result is re-expanded as a power series and compared with the
    replayed sequence; a mismatch raises InternalInconsistency.
    """
    d = spec.order
    den = Poly([1] + [-r for r in spec.rec])
    init_poly = Poly(spec.initial)
    num = (den * init_poly).truncate(d)
    rf = RationalFunction(num, den)
    check_len = int(den.degree) + 11
    series = taylor_coeffs(rf, check_len)
    replay = seq_from_rec(spec, check_len)
    for got, want in zip(series, replay):
        if got != want:
            raise InternalInconsistency(
                "generating function does not reproduce its recurrence"
            )
    return rf
