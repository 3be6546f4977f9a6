"""Guessing linear recurrences with constant coefficients from data,
replaying them, and converting them to rational generating functions.
fit is the one guess-emit-accept step of both case studies (spanning
and toeplitz): it guesses on a window, emits the generating function
without a gcd and accepts it by one replay (_recurrence_holds) on every term.

A recurrence of order d is stored as d initial values and its denominator
D = (D_0, ..., D_d), D_0 != 0, with the meaning
sum(D[i] * a[n-i], i=0..d) = 0 for n >= d; D_0 + D_1 t + ... + D_d t^d is
then the denominator of the generating function.  The D[i] are ring
elements: ints, or integer polynomials in v (the weighted spanning-tree
data), normalized to no common content and D_0's first nonzero
coefficient positive.

Numeric sequences are first scaled to primitive integers (a recurrence is
homogeneous, so scaling the data leaves it unchanged).  Their minimal
order and denominator come from one order finder, _minimal_den:
Berlekamp-Massey modulo word-size primes, a CRT lift (integral, or with a
common denominator by rational reconstruction) and an exact replay on all
the data.  A claim that no fit exists is proved by primes as well: a
prime whose BM run reports an order above d divides D_0 of any fit, D_0
divides a Hankel determinant, and enough such primes exceed Hadamard's
bound on it.  No linear system is solved.  guess_sym_rec is guess_rec
followed by a palindrome check.  Sequences of polynomials in v run the
order finder at the integer points x = 1, 2, ... in place of primes and
interpolate each D_i / D_0 in v through a run of points of the same
order (_guess_rec_poly; contract and proof at guess_rec1).  Data in
evaluation form (core.Evals, the values at v = 1..P) are guessed and
replayed at those points, where fit interpolates only the emitted N and
the spec's initial values; proved degree bounds make P points enough.
Every accepted denominator has been replayed exactly, by ring
arithmetic, and no floating point is involved anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import (
    Evals,
    Poly,
    RationalFunction,
    _coeff_div,
    _interpolated,
    _newton_interpolate,
    _primitive_ints,
    _primitive_nested,
    # neither is called here; perfbench/tracing.py wraps these bindings
    solve_fraction_free,  # noqa: F401
    solve_linear,  # noqa: F401
    taylor_coeffs,
)
from .errors import DataTooShort, InternalInconsistency

#: Terms generated beyond a fit window; fit replays them with the rest.
HELD_OUT = 6


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


def guess_rec1(data, d: int) -> CFiniteSpec | None:
    """The minimal recurrence of order <= d through the whole list, or None.

    Needs len(data) >= 2d+3 (raises DataTooShort otherwise), which keeps
    every fit overdetermined: with N >= 2L terms the minimal recurrence of
    order L is unique (Massey), so the result is the one an upward scan
    of orders 1..d would report.  Numeric data go through the modular
    order finder _minimal_den.  All-zero data give order 1, D = (1, 0).

    Data with polynomial terms go through _guess_rec_poly: the result is
    the minimal recurrence if its D_0 is a constant, as for every G x P_n
    (D divides prod(1 - t prod r_i^(+-1))), and None otherwise.  Proof:
    let e <= d be its order and m the largest v-degree in the data.  At
    each x = 1, 2, ... D(x) fits the integers a_n(x), so a point that
    reports order e reports D(x) / D_0, and one that reports less is a
    root of the e x e Hankel minor det(a_(i+j)), nonzero as e is minimal
    and of v-degree <= e*m: at most d*m points do.  By Cramer's rule
    deg_v(D_i / D_0) <= e*m.  A smaller fit would divide the result
    (Gauss's lemma), have a constant D_0 and make every point report less.
    None follows a point without a fit of order <= d, or a run of d*m + 1
    points (so all reporting D / D_0) whose interpolant does not replay.

    Data in evaluation form (Evals: values at v = 1..P) take the same loop
    at those P points, each point's integers read off the values, and the
    interpolant replays at every point.  That is the replay over Z[v] once
    each sum(D_i a_(n-i)) has v-degree < P, which fit proves for its
    forward series, and the proof above then holds; a None after the P
    points run out proves nothing.  On a window mirrored backward
    (spanning._fit_pipeline) the sums over the mirrored terms can pass
    v-degree P - 1, so there the replay holds at the points only: fit's
    replay of the forward series accepts the fit over Z[v], and each run
    point's D(x) is that point's minimal recurrence, which is all fit's
    coprimality proof reads.
    """
    data = list(data)
    if d < 1:
        raise ValueError("need d >= 1")
    if len(data) <= 2 * d + 2:
        raise DataTooShort(f"need at least {2 * d + 3} terms for order {d}")
    if any(isinstance(x, (Poly, Evals)) for x in data):
        return _guess_rec_poly(data, d)
    den = _minimal_den(_primitive_ints(data)[0], d)
    if den is None:
        return None
    return CFiniteSpec(tuple(data[:len(den) - 1]), den)


def guess_rec(data) -> CFiniteSpec | None:
    """Smallest-order recurrence fitting the list, or None.

    The order can be at most floor(len/2) - 2, which is what keeps every
    accepted fit overdetermined; this is one guess_rec1 call at that
    bound.
    """
    data = list(data)
    max_d = len(data) // 2 - 2
    return guess_rec1(data, max_d) if max_d >= 1 else None


def guess_window(bound: int) -> int:
    """The fewest terms, 2 bound + 4, from which guess_rec (orders up to
    len // 2 - 2) fits any recurrence of order <= bound; the fit is proved,
    as two such sequences agreeing on 2 bound terms agree (Massey 1969)."""
    return 2 * bound + 4


def _guess_rec_poly(data, d: int) -> CFiniteSpec | None:
    # guess_rec1 at x = 1, 2, ..., which proves both None exits over Poly
    # data: run holds D(x) / D_0(x) at the points start, start + 1, ... of
    # the largest order.  Evals data end at their last point, x = size.
    size = next((len(p.values) for p in data if isinstance(p, Evals)), None)
    cap = size or d * max(0, *(p.degree for p in data if isinstance(p, Poly))) + 1
    x, order, start, run = 0, 0, 0, []
    while len(run) < cap and x != size:
        x += 1
        values = [p.values[x - 1] if isinstance(p, Evals) else p.eval(x) if isinstance(p, Poly)
                  else p for p in data]
        spec = guess_rec1(values, d)
        if spec is None:
            return None
        found = spec.order if any(values) else 0  # BM's length
        if found < order:
            start, run = x + 1, []
            continue
        if found > order:
            order, start, run = found, x, []
        run.append([_coeff_div(c, spec.den[0]) for c in spec.den])
        n = len(run)
        # try once the newest point raised no interpolant's degree: D^(n-1) y_0 = 0
        if n == cap or not any(sum((-1) ** j * math.comb(n - 1, j) * y
                                   for j, y in enumerate(ys)) for ys in zip(*run)):
            den = [Poly(_newton_interpolate(ys, start)) for ys in zip(*run)]
            at = _at_points(den, size) if size else den
            if _recurrence_holds(data, at):
                return CFiniteSpec(tuple(data[:len(den) - 1]), den)
    return None


# ---------------------------------------------------------------------------
# the modular order finder
# ---------------------------------------------------------------------------

_PRIMES: list = []


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, deterministic for
    n < 3.3 * 10**24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    r, s = n - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for b in bases:
        x = pow(b, r, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2**61 from the top down, found on first use and
    cached in _PRIMES."""
    i = 0
    while True:
        if i == len(_PRIMES):
            n = (_PRIMES[-1] if _PRIMES else 2 ** 61 + 1) - 2
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[i]
        i += 1


def _bm_mod(ints, p: int):
    """Berlekamp-Massey modulo p: (L, C) with L the length of the shortest
    recurrence sum(C[i] * a[n-i], i=0..L) = 0 (n >= L) through the data
    mod p, C[0] = 1 and len(C) = L + 1."""
    s = [x % p for x in ints]
    c, b = [1], [1]
    length, shift, b_inv = 0, 1, 1
    for n, sn in enumerate(s):
        delta = (sn + sum(map(mul, c[1:length + 1], s[n - length:n][::-1]))) % p
        if not delta:
            shift += 1
            continue
        coef = delta * b_inv % p
        old = c[:]
        if len(c) < len(b) + shift:
            c += [0] * (len(b) + shift - len(c))
        c[shift:shift + len(b)] = [(x - coef * y) % p for x, y in zip(c[shift:], b)]
        if 2 * length <= n:
            length, b, b_inv, shift = n + 1 - length, old, pow(delta, -1, p), 1
        else:
            shift += 1
    return length, (c + [0] * length)[:length + 1]


def _crt(residues, modulus: int, image, p: int):
    """Combine residues mod modulus with image mod p (coprime moduli)."""
    m_inv = pow(modulus, -1, p)
    return [r + modulus * ((x - r) * m_inv % p) for r, x in zip(residues, image)]


def _rational_reconstruct(u: int, modulus: int, bound: int):
    """Wang's rational reconstruction: (a, b) with a = b * u mod modulus,
    |a| <= bound, 0 < b <= bound and gcd(a, b) = 1, or None."""
    r0, r1, s0, s1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not s1 or abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lifts(residues, modulus: int):
    """Integer candidates for D from C = D / D_0 mod modulus: first the
    integral lift (D_0 = 1) into the symmetric range, then the one with
    a common denominator built up coefficient by coefficient by rational
    reconstruction."""
    half = modulus // 2
    yield [r - modulus if r > half else r for r in residues]
    bound = math.isqrt(modulus // 2)
    nums, den = [], 1
    for r in residues:
        ab = _rational_reconstruct(r * den % modulus, modulus, bound)
        if ab is None:
            return
        a, b = ab
        if b != 1:
            nums = [x * b for x in nums]
            den *= b
        nums.append(a)
    yield nums


def _hadamard_bound_sq(ints, d: int) -> int:
    """B^2 for _minimal_den's no-fit proof: the product over i < d of
    max(1, |(a_i, ..., a_(i+d-1))|^2), so that |D_0| <= B."""
    return math.prod(max(1, sum(x * x for x in ints[i:i + d])) for i in range(d))


def _minimal_den(ints, d: int):
    """The content-free denominator of the minimal recurrence of order
    <= d through the primitive integers ints (N >= 2d + 3 of them), or
    None.

    Berlekamp-Massey runs modulo word-size primes (_primes), the images
    of the largest length L <= d seen so far are combined by CRT, and
    each time 1, 2, 4, 8, ... of them are combined the lifts (_lifts) are
    replayed exactly on all the data: at most twice the primes a lift
    needs are combined, and the lifts are tried about log2 of that many
    times, not once per prime.  A lift D that replays, with D_0 not
    divisible by all the primes used, is the minimal recurrence: a
    smaller one D' (order L' < L) would agree with D on the N >= L + L'
    terms, so P/D = P'/D' with P'/D' in lowest terms, D = D' * g with g
    integral by Gauss's lemma, and a prime p used with p not dividing D_0
    = D'_0 * g_0 would have seen D' mod p, of length L' < L, in its BM
    run.  A prime that
    reports less than the largest L is unlucky (it divides a minor the
    recurrence needs): its image is discarded, and a larger L restarts
    the CRT.

    A prime that reports a length above d is a witness, and witnesses
    whose product exceeds B (_hadamard_bound_sq) prove that no fit
    exists.  Suppose the content-free minimal D, of order e <= d, exists.
    (1) The e x e Hankel matrix H = (a_(i+j)) is nonsingular.  Extend the
    data by D to a sequence s.  The polynomials f with f(S) s = 0, S the
    shift, form an ideal; its monic generator has degree e, since a
    monic annihilator of degree L is a recurrence of length L through s
    and so a fit on the data.  If H c = 0 with c != 0, then u = q(S) s,
    q = sum(c_j x^j), has u_0 = ... = u_(e-1) = 0 and satisfies D's
    recurrence, so u = 0: q annihilates s with deg q < e, which is absurd.
    (2) D / D_0 solves the system a_n = -sum(D_i / D_0 * a_(n-i), i=1..e)
    for n = e..2e-1, whose matrix is H with its columns reversed; by
    Cramer's rule det(H) * D / D_0 is integral, so D_0 divides det(H).
    (3) By Hadamard's inequality |det H| is at most the product of its
    rows' norms, and row i < e is a prefix of the i-th length-d row in B,
    whose factors are >= 1: |D_0| <= B for every e <= d.
    (4) A prime not dividing D_0 sees D mod p, a recurrence of length e,
    so BM reports at most e <= d: every witness divides D_0.
    So distinct witnesses multiply to at most |D_0| <= B.  While that
    bound is not exceeded they are only skipped.
    """
    if not any(ints):
        return [1, 0]
    length, modulus, residues, combined = 0, 1, [], 0
    witnesses, bound_sq = 1, None
    for p in _primes():
        found, image = _bm_mod(ints, p)
        if found > d:
            if bound_sq is None:
                bound_sq = _hadamard_bound_sq(ints, d)
            witnesses *= p
            if witnesses * witnesses > bound_sq:
                return None
            continue
        if found < length:
            continue
        if found > length:
            length, modulus, residues, combined = found, p, image, 1
        else:
            residues = _crt(residues, modulus, image, p)
            modulus *= p
            combined += 1
        if combined & (combined - 1):  # lift at 1, 2, 4, ... primes only
            continue
        for den in _lifts(residues, modulus):
            den = _primitive_ints(den)[0]
            if den[0] % modulus and _recurrence_holds(ints, den):
                return den
    raise InternalInconsistency("the prime supply ran out")


def guess_sym_rec(data) -> CFiniteSpec | None:
    """guess_rec's fit when its denominator is palindromic up to an
    overall sign, D_i = eps * D_(d-i), and None otherwise.

    The minimal recurrence is unique, so a palindromic multiple of a
    minimal denominator that is not palindromic is never reported, and
    the data needed are guess_rec's.  All-zero data give None, as
    guess_rec reports D = (1, 0) for them."""
    spec = guess_rec(data)
    if spec is not None and spec.den[::-1] in (spec.den, tuple(-c for c in spec.den)):
        return spec
    return None


def c_to_r(spec: CFiniteSpec) -> RationalFunction:
    """Rational generating function of any spec; fitted data go through fit.

    Denominator D_0 + D_1 t + ... + D_d t^d; numerator is the product of
    the denominator with the initial-value polynomial, truncated below
    degree d, less their gcd (a spec above minimal order has one).  The
    result is re-expanded as a power series and compared with the
    replayed sequence; a mismatch raises InternalInconsistency.
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


def fit(series, start: int, window: int, guess):
    """(spec, rf): guess on series[start:start + window], series a list
    and start >= 1, then emit and accept the generating function
    sum(series[n] t^n), the one guess-emit-accept step of every pipeline.

    guess returns the minimal recurrence through its argument or None
    (guess_rec, guess_sym_rec), or, for a mirrored family
    (spanning._fit_pipeline, start = 1), through its argument extended
    backward by known terms x_0, x_(-1), ...; None gives (None, None).  A
    fit of order d has the initial values series[start:start + d] and is
    emitted as N/D, D = Poly(spec.den) and N = D * series[:d + 1] mod
    t^(d + 1), with no gcd, and accepted in every ring by the one replay
    _recurrence_holds(series[1:], D): coefficients d + 1 .. len(series) - 1
    of D S vanish, S the list, so D S = N and N/D = S mod t^len(series)
    (D_0 != 0).  Otherwise rf is None.

    N and D are coprime when rf is returned.  A common factor g of degree
    e >= 1 has g(0) != 0 (D_0 != 0), and D' = D / g, N' = N / g, of
    degrees <= d - e, have D' S = N' mod t^len(series): D' is a recurrence
    of order d - e through series[n] for n > d - e, so through the window,
    which starts at n = start >= 1.  On a window extended backward, y_n =
    sum(D'_i x_(n-i)) vanishes for n > d - e, and sum(g_j y_(n-j), j =
    0..e) = sum(D_i x_(n-i)) = 0 wherever D fits; g_e != 0, so g's
    recurrence runs backward from the e zeros y_(d-e+1..d), and D' fits the
    whole extended window too.  e = d makes the window all zero, where the
    guessers report the constant D = (1, 0); otherwise D' (cleared of
    denominators in v for polynomial data) is a fit of order below d,
    against the guess's minimality.  For polynomial data read this at a
    point x of the guess's run, where D(x) fits the window's integers at
    minimal order d (guess_rec1) and g_e(x) != 0: g_e divides D's leading
    coefficient, whose v-degree is below the number of run points, and
    D_0, so D'_0, is a constant.

    A series in evaluation form holds Evals at v = 1..P for integer
    polynomials in v, series[n] of v-degree <= n p (p = _rate(series), so
    P - 1 >= (len(series) - 1) p), whose minimal D has deg D_i <= i p:
    graphs._ver_points proves both for gf_ver's data.  The guess reads each
    point's integers, and a D above its bound contradicts the proof:
    InternalInconsistency.  Otherwise the replay runs on D's values at the
    points (_at_points): coefficient n of D S has v-degree <= n p < P, so
    it vanishes exactly when its values do, and N and the spec's initial
    values are interpolated (_polys) from theirs.
    """
    spec = guess(series[start:start + window])
    if spec is None:
        return None, None
    d, at, evals = spec.order, spec.den, isinstance(series[-1], Evals)
    initial = series[start:start + d]
    if evals:
        p = _rate(series)
        if any(c.degree > i * p for i, c in enumerate(at)):
            raise InternalInconsistency("a denominator coefficient D_i has v-degree above i p")
        at = _at_points(at, len(series[-1].values))
        initial = _polys(initial, p, start)
    spec = CFiniteSpec(tuple(initial), spec.den)
    if not _recurrence_holds(series[1:], at):
        return spec, None
    num = [sum(map(mul, at, series[n::-1]), 0) for n in range(d + 1)]
    if evals:
        num = _polys(num, p)
    return spec, RationalFunction._from_coprime(Poly(num), Poly(spec.den))


def _rate(series) -> int:
    """p of a series in evaluation form (fit): (P - 1) // (len(series) - 1)."""
    return (len(series[-1].values) - 1) // (len(series) - 1)


def _at_points(den, size: int) -> list:
    """D's coefficients, integer polynomials in v, as Evals at v = 1..size."""
    return [c.eval(Evals(range(1, size + 1))) for c in den]


def _polys(xs, p: int, start: int = 0) -> list:
    """Integer polynomials in v from Evals in evaluation form (fit): xs[i],
    of v-degree <= n p for n = start + i, from its values at v = 1..n p + 1."""
    return [_interpolated(x.values[:n * p + 1]) for n, x in enumerate(xs, start)]
