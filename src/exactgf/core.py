"""Exact scalar and polynomial arithmetic, canonical rational functions,
plus fraction-free linear algebra.

Everything in this module is exact: scalars are Python ints or
``fractions.Fraction``, polynomials are dense ascending coefficient lists,
and elimination is fraction-free (Bareiss) so determinants work over the
integers and over polynomial rings alike.  All values are immutable after
construction and every function is pure, so the module is safe to use from
multiple threads.

Coefficient domains.  A polynomial coefficient may be an int, a Fraction,
or (for bivariate work) another Poly.  Arithmetic stays in the smallest
domain it can: integer data stays integer, which matters for speed.
Evals holds an integer polynomial in evaluation form, its values at v =
1, 2, ...: graphs eliminates over it and cfinite fits at its points.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, eq, floordiv, mul, neg, sub

from .errors import InexactDivision, InternalInconsistency, ShapeError, ZeroDenominator

# The exact scalar domain.  Fraction already guarantees denominator > 0,
# gcd(|num|, den) = 1 and 0/1 for zero, which is the invariant we need.
Rational = Fraction

NEG_INF = float("-inf")


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


class Poly:
    """Dense univariate polynomial, ascending coefficients, no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -inf.
    Coefficients may be ints, Fractions, or Polys (one nesting level, used
    for polynomials in t whose coefficients are polynomials in v).  / is
    exact division (exact_div), as det_bareiss's protocol asks.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basics ---------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __bool__(self):
        return bool(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.coeffs[i]
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if _is_scalar(other):
            return self.coeffs == (() if not other else (other,)) or (
                len(self.coeffs) == 1 and self.coeffs[0] == other
            )
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if _is_scalar(other):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if _is_scalar(other):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            if not other:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("a Poly power needs a non-negative exponent")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- division ---------------------------------------------------------

    def divmod(self, other: "Poly"):
        """Quotient and remainder; coefficient division must be possible
        (ints are promoted to Fraction when they do not divide evenly)."""
        if not isinstance(other, Poly):
            other = Poly((other,))
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return Poly(), Poly()
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        q = [0] * max(0, len(rem) - db)
        for k in range(len(rem) - db - 1, -1, -1):
            top = rem[k + db]
            if not top:
                continue
            c = _coeff_div(top, lead)
            q[k] = c
            for j, oc in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * oc
        return Poly(q), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact division; raises InexactDivision on a nonzero remainder."""
        q, r = self.divmod(other)
        if r:
            raise InexactDivision(f"{self!r} is not divisible by {other!r}")
        return q

    __truediv__ = exact_div

    def __rtruediv__(self, other):
        return Poly((other,)).exact_div(self)

    # -- calculus / evaluation ----------------------------------------------

    def eval(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def truncate(self, n: int) -> "Poly":
        """Keep only coefficients of degree < n."""
        return Poly(self.coeffs[:n])


def _coeff_div(a, b):
    """Divide coefficients exactly: an int quotient of ints when there is
    one, else a Fraction; every other type by its own /."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _dom_exact_div(a, b):
    """Exact ring division for Bareiss: an int quotient of ints, raising
    InexactDivision on a remainder; every other type by its own /, which
    each elimination ring defines as its checked exact division."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise InexactDivision(f"{a} not divisible by {b}")
        return q
    return a / b


# ---------------------------------------------------------------------------
# polynomial gcd
# ---------------------------------------------------------------------------

def _primitive_ints(values):
    """Clear denominators and content from a list of ints and Fractions.

    Returns (ints, scale) with ints[i] == values[i] * scale, the ints
    sharing no common factor (all zeros stay zeros) and scale a positive
    Fraction.  Callers that need a canonical sign negate both."""
    lcm = math.lcm(*(c.denominator for c in values))
    ints = [c.numerator * (lcm // c.denominator) for c in values]
    g = math.gcd(*ints) or 1
    if g > 1:
        ints = [c // g for c in ints]
    return ints, Fraction(lcm, g)


def _positive_lead(ints):
    return [-c for c in ints] if ints[-1] < 0 else ints


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd of two polynomials with int/Fraction coefficients.

    Uses the primitive pseudo-remainder sequence over the integers, which
    keeps coefficient growth tame.  The result is primitive with positive
    leading coefficient (the zero polynomial when both are zero); other
    coefficient types raise TypeError.
    """
    if not all(_is_scalar(c) for c in a.coeffs + b.coeffs):
        raise TypeError("poly_gcd needs int or Fraction coefficients")
    u, v = (_positive_lead(_primitive_ints(p.coeffs)[0]) if p else [] for p in (a, b))
    if len(u) < len(v):
        u, v = v, u
    while v:
        # primitive pseudo-remainder step
        r = u[:]
        dv = len(v) - 1
        lead = v[-1]
        while len(r) - 1 >= dv and r:
            if r[-1] == 0:
                r.pop()
                continue
            shift_amt = len(r) - 1 - dv
            top = r[-1]
            r = [c * lead for c in r]
            for j, vc in enumerate(v):
                r[shift_amt + j] -= top * vc
            while r and r[-1] == 0:
                r.pop()
        g = math.gcd(*r)
        if g > 1:
            r = [c // g for c in r]
        u, v = v, r
    return Poly(_positive_lead(u) if u else ())


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Canonical ratio of two polynomials in t: a value type, not a field.

    Invariants: den != 0, and the lowest nonzero coefficient of den (by
    t, then by v) is positive.  Scalar coefficients (ints, Fractions) also
    have gcd(num, den) = 1 and den a primitive integer polynomial, which
    reproduces the usual "denominator with constant term +1" shape of
    counting generating functions.  Coefficients that are polynomials in v
    (bivariate functions) are scaled instead so that num and den share no
    content in Z[v]; every coefficient is then a Poly.  Either way, scaling
    num and den by a common nonzero constant (of Z[v] when bivariate)
    gives the same representative.  Bivariate equality is canonical only
    for coprime num and den in Q(v)[t], since common factors involving t
    are not removed; every pipeline emits a minimal-order fit, whose num
    and den are coprime.  Instances are immutable; there is no
    arithmetic on them.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly((1,))):
        if not isinstance(num, Poly):
            num = Poly((num,)) if num else Poly()
        if not isinstance(den, Poly):
            den = Poly((den,)) if den else Poly()
        if not den:
            raise ZeroDenominator("denominator is the zero polynomial")
        self.num, self.den = _ratfunc_canonicalize(num, den)

    @classmethod
    def _from_coprime(cls, num: Poly, den: Poly) -> RationalFunction:
        """The canonical form of num/den for scalar polynomials already
        known to be coprime, such as the emitted form of a minimal
        recurrence: the same value as the constructor, without its gcd."""
        rf = cls.__new__(cls)
        rf.num, rf.den = _ratfunc_canonicalize(num, den, coprime=True)
        return rf

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"RationalFunction({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"


def _ratfunc_canonicalize(num: Poly, den: Poly, coprime: bool = False):
    if not num:
        return Poly(), Poly((1,))
    if not all(_is_scalar(c) for c in num.coeffs + den.coeffs):
        num_vs, den_vs = _primitive_nested(num.coeffs, den.coeffs)
        return Poly(num_vs), Poly(den_vs)
    if not coprime:
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
    # primitive integer den, lowest-degree nonzero coefficient positive
    ints, scale = _primitive_ints(den.coeffs)
    if next(c for c in ints if c) < 0:
        ints = [-c for c in ints]
        scale = -scale
    # integral coefficients as ints, so later series expansions stay in int arithmetic
    return Poly(int(c) if c.denominator == 1 else c for c in num * scale), Poly(ints)


def _primitive_nested(num_cs, den_cs):
    """Divide two lists of polynomials in v (scalars count as constants)
    by their joint content in Z[v], then negate both if the first nonzero
    coefficient of den_cs (by list position, then by power of v) is
    negative.  Returns the two lists as integer Polys in v; the shared
    normal form of bivariate rational functions and of recurrence
    denominators over Z[v]."""
    polys = [c if isinstance(c, Poly) else Poly((c,)) for c in (*num_cs, *den_cs)]
    g = Poly()
    for p in polys:
        g = poly_gcd(g, p)
        if g.degree == 0:
            break
    if g.degree > 0:
        polys = [p.exact_div(g) for p in polys]
    ints, _ = _primitive_ints([x for p in polys for x in p.coeffs])
    split = sum(len(p) for p in polys[:len(num_cs)])
    if next((x for x in ints[split:] if x), 1) < 0:
        ints = [-x for x in ints]
    it = iter(ints)
    out = [Poly([next(it) for _ in p.coeffs]) for p in polys]
    return out[:len(num_cs)], out[len(num_cs):]


def _newton_interpolate(ys, start=0):
    """Coefficients (ascending) of the unique polynomial of degree
    < len(ys) that takes the value ys[i] at x = start + i.

    Newton's form, sum_j (D^j y_0 / j!) (x-s)(x-s-1)...(x-s-j+1), s = start,
    expanded with every term scaled by (n-1)! so the work stays in the
    values' own ring: integer values give int coefficients where the
    polynomial has them and Fractions only where it does not, Fraction
    values give Fractions.  Through _interpolated, graphs.ver_polynomial
    recovers its minors here from values at 1..n, and cfinite.fit the N,
    initial values and (on demand, spanning.GFResult.data) data of a
    series in evaluation form; cfinite._guess_rec_poly its D_i/D_0."""
    n = len(ys)
    if not n:
        return []
    leading = []  # D^j y_0 for j = 0..n-1
    row = list(ys)
    while row:
        leading.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    scale = 1  # (n-1)! / j!, from j = n-1 down
    coeffs = [leading[n - 1]]
    for j in range(n - 2, -1, -1):
        scale *= j + 1
        # multiply by (x - start - j), then add the scaled j-th Newton coefficient
        out = [0] + coeffs
        for i, c in enumerate(coeffs):
            out[i] -= (start + j) * c
        out[0] += leading[j] * scale
        coeffs = out
    return [_coeff_div(c, scale) for c in coeffs]


def _interpolated(values) -> Poly:
    """The polynomial taking values[i] at v = 1 + i, for integer
    polynomials in evaluation form (Evals); a non-integer coefficient
    would be a bug and raises InternalInconsistency."""
    coeffs = _newton_interpolate(values, 1)
    if not all(isinstance(c, int) for c in coeffs):
        raise InternalInconsistency("interpolation produced a non-integer")
    return Poly(coeffs)


def taylor_coeffs(rf: RationalFunction, n: int):
    """First n power-series coefficients of a rational function.

    Requires the denominator to have a nonzero constant term.  Works for
    int and Fraction coefficients and for polynomials in v (where each
    division by the constant term must be exact).
    """
    den = rf.den.coeffs
    num = rf.num.coeffs
    if not den or not den[0]:
        raise ZeroDenominator("series requires a unit constant term")
    d0 = den[0]
    out = []
    for k in range(n):
        acc = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[i] * out[k - i]
        out.append(_coeff_div(acc, d0) if d0 != 1 else acc)
    return out


# ---------------------------------------------------------------------------
# elementwise rings: polynomials in evaluation form (and graphs.Jet)
# ---------------------------------------------------------------------------

class _Elementwise:
    """The entry-by-entry operations of Evals and graphs.Jet, on their
    tuple of values: + and - (a constant on either side adds at the
    entries _lift gives), unary -, truth (nonzero at some entry), repr,
    and ** by repeated *, for exponents >= 0 only, so no power leaves the
    ring.  Each result is of the caller's class.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        # the operations pass lists: a tuple built from a map is resized to
        # its length, so one of fewer than 20 points is never taken from
        # CPython's free list of short tuples, yet freed into it, which fills up
        self.values = tuple(values)

    def __bool__(self):
        return any(self.values)

    def __repr__(self):
        return f"{type(self).__name__}({self.values!r})"

    def __neg__(self):
        return type(self)([*map(neg, self.values)])

    def __add__(self, other):
        return type(self)([*map(add, self.values, self._lift(other))])

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)([*map(sub, self.values, self._lift(other))])

    def __rsub__(self, other):
        return type(self)([*map(sub, self._lift(other), self.values)])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"a {type(self).__name__} power needs a non-negative exponent")
        out = self * 0 + 1  # the ring's one
        for _ in range(n):
            out = out * self
        return out


class Evals(_Elementwise):
    """An integer polynomial in v in evaluation form: its values at fixed
    points v = s, s + 1, ... (s = 1 for the graphs' streams and the fits
    that read them).  Ints act as constants, and every operation acts
    pointwise through map with operator functions, so the per-point
    arithmetic runs in C and one elimination over Evals is one elimination
    per point.  / is exact at every point or raises InexactDivision; //
    floors unchecked, like int //, for the divisions Bareiss knows to be
    exact.  A value is true when it is nonzero at some point, so `if x:`
    skips only entries that are 0 at every point.
    """

    __slots__ = ()

    def _lift(self, other):
        if isinstance(other, Evals):
            if len(other.values) != len(self.values):
                raise TypeError(f"{other!r} is not at the {len(self.values)} points of {self!r}")
            return other.values
        return repeat(other)

    def __eq__(self, other):
        if isinstance(other, Evals):
            return self.values == other.values
        return all(map(eq, self.values, repeat(other)))

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


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense rectangular matrix over an exact domain."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged rows")
        else:
            width = 0
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width if rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]!r})"

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def delete_rows_cols(self, drop) -> "Matrix":
        drop = set(drop)
        keep = [i for i in range(self.nrows) if i not in drop]
        return Matrix(tuple(tuple(self.rows[i][j] for j in keep) for i in keep))

    def is_square(self) -> bool:
        return self.nrows == self.ncols


def bandwidth(m: Matrix) -> int:
    """The largest |i - j| over nonzero entries (i, j); each row tests, with
    C-level any(), only the entries outside the band found so far."""
    w = 0
    for i, row in enumerate(m.rows):
        while any(row[:max(i - w, 0)]) or any(row[i + w + 1:]):
            w += 1
    return w


def det_bareiss(m: Matrix):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Works over any integral domain whose elements support *, - and
    checked exact division a / b: the quotient, or InexactDivision when
    there is none, except that two ints, whose quotient here is always
    exact, divide with the unchecked int // (_bareiss_pivots).  Other ints
    get it from _dom_exact_div (their / is a float's), Fractions, Polys and
    the weight rings of graphs' Laplacian minors by their own /, and those
    weight rings also define // as the unchecked quotient, for a kernel
    that knows its division is exact.
    The empty 0x0 matrix has determinant 1.  Stage r eliminates only
    inside a window of half-width w = max(bandwidth, 1) below and right of
    the pivot, n*w^2 work instead of n^3, so banded matrices (Toeplitz
    families) stay cheap; a dense matrix is the window w = n - 1.  An
    entry entering the window is scaled by the previous pivot, the factor
    Bareiss would have given it had it been inside all along.  A zero pivot widens the window to the
    whole remaining matrix in place (every entry not yet inside takes the
    same factor) and swaps in the first later row with a nonzero entry in
    the pivot column; if there is none, the determinant is that zero.
    """
    if not isinstance(m, Matrix):
        m = Matrix(m)
    if not m.is_square():
        raise ShapeError(f"determinant of a {m.nrows}x{m.ncols} matrix")
    d = 1
    for d in _bareiss_pivots(m):
        pass
    return d


def _bareiss_pivots(m: Matrix):
    """det_bareiss's elimination of the square matrix m, yielding each
    stage's pivot (sign-corrected): up to and including the first zero
    one, the r-th is the determinant of m's leading (r+1) x (r+1) block
    (Sylvester's identity), and the last one yielded is det m.  Sylvester's
    identity also makes every quotient exact, so two ints divide with the
    unchecked int //; every other ring keeps its checked /."""
    n = m.nrows
    w = max(bandwidth(m), 1)
    b = [list(r) for r in m.rows]
    prev = 1
    sign = 1
    for r in range(n):
        new = r + w
        if r and new < n:  # at r = 0 the factor is 1
            for i in range(r, new + 1):
                if b[i][new]:
                    b[i][new] = prev * b[i][new]
            for j in range(r, new):
                if b[new][j]:
                    b[new][j] = prev * b[new][j]
        p = b[r][r]
        yield p if sign > 0 else -p
        if not p:
            if new < n - 1:  # entries beyond index new are still outside
                for i in range(r, n):
                    row = b[i]
                    for j in range(r if i > new else new + 1, n):
                        if row[j]:
                            row[j] = prev * row[j]
                w = n - 1
            swap = next((i for i in range(r + 1, n) if b[i][r]), None)
            if swap is None:
                return
            b[r], b[swap] = b[swap], b[r]
            sign = -sign
            p = b[r][r]
        hi = min(n - 1, r + w)
        row_r = b[r]
        int_prev = type(prev) is int
        for i in range(r + 1, hi + 1):
            row_i = b[i]
            bir = row_i[r]
            for j in range(r + 1, hi + 1):
                num = p * row_i[j] - bir * row_r[j]
                if prev != 1:
                    num = num // prev if int_prev and type(num) is int else _dom_exact_div(num, prev)
                row_i[j] = num
        prev = p


# ---------------------------------------------------------------------------
# linear solving
# ---------------------------------------------------------------------------

class LinearSolution:
    """Outcome of solve_linear: status in {unique, underdetermined,
    inconsistent}; solution is a witness vector unless inconsistent."""

    __slots__ = ("status", "solution")

    UNIQUE = "unique"
    UNDERDETERMINED = "underdetermined"
    INCONSISTENT = "inconsistent"

    def __init__(self, status, solution=None):
        self.status = status
        self.solution = solution

    def __repr__(self):
        return f"LinearSolution({self.status}, {self.solution})"


def solve_linear(a: Matrix, b) -> LinearSolution:
    """Exact linear solve over the rationals.

    Entries are ints or Fractions.  Returns a unique solution, one witness
    of an underdetermined family (free variables set to zero), or
    inconsistency, as Fractions.  The elimination is
    solve_fraction_free's; the only divisions are the final one per
    unknown.  Nothing in the package calls it: recurrence fits come from
    the modular order finder in cfinite.
    """
    if not isinstance(a, Matrix):
        a = Matrix(a)
    b = list(b)
    if len(b) != a.nrows:
        raise ShapeError(f"{a.nrows} rows but {len(b)} right-hand sides")
    sol = solve_fraction_free(a.rows, b)
    if sol.status == LinearSolution.INCONSISTENT:
        return sol
    return LinearSolution(sol.status, [Fraction(num, den) for num, den in sol.solution])


def solve_fraction_free(rows, rhs) -> LinearSolution:
    """Fraction-free Gauss-Jordan solve over an integral domain.

    Same contract as solve_linear, but entries may be ints, Fractions or
    Polys, and every division during elimination is an exact one by the
    previous pivot (Bareiss), so integer and polynomial entries never
    leave their ring; the witness comes back as (numerator, denominator)
    pairs per unknown, with (0, 1) for a free one.  Every pivot
    unknown's denominator is the same: the last pivot, since each
    elimination step scales all earlier pivot rows alike.  The pivot in
    each column is the first nonzero entry at or below the current rank.
    This is the package's one elimination loop, behind solve_linear;
    recurrence guessing solves no linear system.
    """
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ShapeError("ragged rows")
    if len(rhs) != len(rows):
        raise ShapeError("rhs length mismatch")
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [rows[i] + [rhs[i]] for i in range(nrows)]
    prev = 1
    piv_cols = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if aug[i][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        prow = aug[rank]
        p = prow[col]
        for i in range(nrows):
            if i == rank:
                continue
            row = aug[i]
            ric = row[col]
            for j in range(ncols + 1):
                if j == col:
                    continue
                num = p * row[j] - ric * prow[j]
                row[j] = _dom_exact_div(num, prev) if prev != 1 else num
            row[col] = 0
        prev = p
        piv_cols.append(col)
        rank += 1
        if rank == nrows:
            break
    for i in range(rank, nrows):
        if aug[i][ncols]:
            return LinearSolution(LinearSolution.INCONSISTENT)
    pairs = [(0, 1)] * ncols
    for r, col in enumerate(piv_cols):
        pairs[col] = (aug[r][ncols], aug[r][col])
    status = LinearSolution.UNIQUE if rank == ncols else LinearSolution.UNDERDETERMINED
    return LinearSolution(status, pairs)
