"""Guessing linear recurrences with constant coefficients from data,
replaying them, and converting them to rational generating functions.

A recurrence of order d is stored as d initial values and its denominator
D = (D_0, ..., D_d), D_0 != 0, with the meaning
sum(D[i] * a[n-i], i=0..d) = 0 for n >= d; D_0 + D_1 t + ... + D_d t^d is
then the denominator of the generating function.  The D[i] are ring
elements: ints, or integer polynomials in v (the weighted spanning-tree
data), normalized to no common content and D_0's first nonzero
coefficient positive.  Guessing is plain undetermined-coefficients linear
algebra, solved by the fraction-free kernel core.solve_fraction_free:
numeric sequences are first scaled to primitive integers (a recurrence is
homogeneous, so scaling the data leaves it unchanged) and sequences of
polynomials in v stay polynomials.  Every pivot unknown of a fraction-free
Gauss-Jordan solve comes out over the same last pivot delta, so a fit
delta * a[n] = sum(c[i] * a[n-i]) is read off as D = (delta, -c_1, ...,
-c_d) without a division.  Replay is ring arithmetic as well; no field and
no floating point is involved anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    LinearSolution,
    Poly,
    RationalFunction,
    _coeff_div,
    _primitive_ints,
    _primitive_nested,
    solve_fraction_free,
    solve_linear,  # noqa: F401  not called here; perfbench/tracing.py wraps this binding
    taylor_coeffs,
)
from .errors import DataTooShort, InternalInconsistency


@dataclass(frozen=True)
class CFiniteSpec:
    """d initial values plus the d + 1 denominator coefficients D_0..D_d.

    den may be given as any nonzero multiple (Fractions included); it is
    stored content-free with D_0's first nonzero coefficient positive, so
    equal recurrences give equal specs."""

    initial: tuple
    den: tuple

    def __post_init__(self):
        initial, den = tuple(self.initial), tuple(self.den)
        if not initial or len(den) != len(initial) + 1:
            raise ValueError("need d >= 1 initial values and d + 1 denominator coefficients")
        if not den[0]:
            raise ValueError("D_0 must be nonzero")
        if any(isinstance(c, Poly) for c in den):
            den = _primitive_nested((), den)[1]
        else:
            den = _primitive_ints(den)[0]
            if den[0] < 0:
                den = [-c for c in den]
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "den", tuple(den))

    @property
    def order(self) -> int:
        return len(self.initial)

    @property
    def rec(self) -> tuple:
        """The r of a[n] = sum(r[i] * a[n-i], i=1..d), that is -D_i / D_0,
        as Fractions; scalar specs only."""
        return tuple(Fraction(-c, self.den[0]) for c in self.den[1:])


def seq_from_rec(spec: CFiniteSpec, n: int) -> list:
    """First n terms generated by the recurrence (initial values verbatim).

    Each later term is -sum(D[i] * a[m-i], i=1..d) / D_0; the division is
    exact over Z[v] and leaves the integers only where the sequence does."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = list(spec.initial[:n])
    den = spec.den
    d0 = den[0]
    while len(out) < n:
        acc = den[1] * out[-1]
        for i in range(2, len(den)):
            acc = acc + den[i] * out[-i]
        out.append(-acc if d0 == 1 else _coeff_div(-acc, d0))
    return out


def _recurrence_holds(data, den) -> bool:
    """Whether sum(D[i] * data[n-i]) vanishes for every n >= d; ring
    arithmetic only."""
    d = len(den) - 1
    for n in range(d, len(data)):
        acc = den[0] * data[n]
        for i in range(1, d + 1):
            acc = acc + den[i] * data[n - i]
        if acc:
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
    den = _solve_rec(data, d)
    if den is None or not _recurrence_holds(data, den):
        return None
    return CFiniteSpec(tuple(data[:d]), den)


def _as_poly(x) -> Poly:
    return x if isinstance(x, Poly) else Poly((x,))


def _solve_rec(data, d: int):
    """Denominator (D_0, ..., D_d) of an order-d recurrence through the
    data by one fraction-free solve, or None when there is none.

    Scalar data are scaled to primitive integers first and polynomial data
    stay polynomials, so the entries of D are ints or Polys."""
    poly = _is_poly_data(data)
    data = [_as_poly(x) for x in data] if poly else _primitive_ints(data)[0]
    rows = [[data[n - i] for i in range(1, d + 1)] for n in range(d, len(data))]
    sol = solve_fraction_free(rows, data[d:])
    if sol.status == LinearSolution.INCONSISTENT:
        return None
    return [_last_pivot(sol.solution)] + [-num for num, _ in sol.solution]


def _last_pivot(pairs):
    """The denominator every pivot unknown of a solve_fraction_free
    witness shares (a free unknown comes back as (0, 1) and contributes
    0 whatever the denominator)."""
    return next((den for _, den in pairs if den != 1), 1)


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
    # Cheap prefilter: a recurrence over Z[v] specializes to one over Z at
    # any integer point where D_0 does not vanish, so the
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
    """Like guess_rec, but only recurrences whose denominator is
    palindromic up to an overall sign, D_i = eps * D_(d-i).

    The symmetry halves the number of unknowns, so an order-d fit is
    accepted already when len(data) >= d + ceil(d/2) + 3.
    """
    data = list(data)
    ints = _primitive_ints(data)[0]
    n_terms = len(data)
    d = 1
    while n_terms >= d + (d + 1) // 2 + 3:
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


def c_to_r(spec: CFiniteSpec) -> RationalFunction:
    """Rational generating function of the recurrence.

    Denominator D_0 + D_1 t + ... + D_d t^d; numerator is the product of
    the denominator with the initial-value polynomial, truncated below
    degree d.  The result is re-expanded as a power series and compared
    with the replayed sequence; a mismatch raises InternalInconsistency.
    """
    den = Poly(spec.den)
    num = (den * Poly(spec.initial)).truncate(spec.order)
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
