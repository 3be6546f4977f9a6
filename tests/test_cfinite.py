"""Recurrence guessing, replay, and conversion to generating functions."""
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from exactgf import (
    CFiniteSpec,
    Poly,
    RationalFunction,
    c_to_r,
    poly_gcd,
    guess_rec,
    guess_rec1,
    guess_sym_rec,
    seq_from_rec,
    taylor_coeffs,
)
from exactgf import cfinite, core, gf_grid, gf_two_forest
from exactgf.core import _primitive_ints
from exactgf.errors import DataTooShort
from exactgf.graphs import _tree_minors, _ver_points
from exactgf.spanning import _as_data
from oracles import _solve_rec, fit_by_reexpansion, guess_rec_scan, guess_sym_rec_scan
from test_spanning import _connected_multigraphs

A001353 = [1, 4, 15, 56, 209, 780, 2911, 10864, 40545, 151316]


def test_guess_rec1_constant():
    spec = guess_rec1([1, 1, 1, 1, 1, 1, 1], 1)
    assert spec.initial == (1,) and spec.den == (1, -1)


def test_guess_rec1_grid_two_rows():
    spec = guess_rec1(A001353, 2)
    assert list(spec.initial) == [1, 4]
    assert spec.den == (1, -4, 1)
    assert spec.rec == (4, -1)


def test_guess_rec1_rejects_broken_geometric():
    assert guess_rec1([1, 2, 4, 8, 16, 32, 64, 129], 1) is None


def test_guess_rec1_data_too_short():
    with pytest.raises(DataTooShort):
        guess_rec1([1, 2, 3, 4], 1)


def test_guess_rec1_above_minimal_order_returns_minimal_spec():
    # the contract is "minimal order <= d": d only bounds the search
    assert guess_rec1(A001353, 3) == guess_rec1(A001353, 2) == CFiniteSpec([1, 4], [1, -4, 1])
    trib = [0, 1, 1]
    while len(trib) < 20:
        trib.append(trib[-1] + trib[-2] + trib[-3])
    assert guess_rec1(trib, 8) == CFiniteSpec([0, 1, 1], [1, -1, -1, -1])
    v = Poly([0, 1])
    data = [Poly([1]), v]
    for _ in range(12):
        data.append((v + 1) * data[-1] - data[-2])
    assert guess_rec1(data, 5).den == (Poly([1]), -(v + 1), Poly([1]))
    with pytest.raises(ValueError):
        guess_rec1(A001353, 0)


def test_guess_rec_minimal_order():
    spec = guess_rec(A001353)
    assert spec.den == (1, -4, 1)
    assert guess_rec([1, 2, 4, 8, 16, 32, 64, 128, 256, 512]).den == (1, -2)


def test_guess_rec_too_short_returns_none():
    assert guess_rec([1, 2, 3]) is None


def test_guess_rec_order_exact_when_no_lower_fit():
    # tribonacci has no order-1 or order-2 fit, so exactly 3 is reported
    data = [0, 1, 1]
    while len(data) < 12:
        data.append(data[-1] + data[-2] + data[-3])
    assert guess_rec(data).order == 3


def test_guess_sym_rec_matches_plain_when_palindromic():
    # the symmetric guesser is guess_rec plus a palindrome check, so it
    # needs guess_rec's 2d + 4 terms: 7 are too few for order 2
    spec = guess_sym_rec(A001353)
    assert spec == guess_rec(A001353)
    assert spec.den == (1, -4, 1)
    assert guess_sym_rec(A001353[:7]) is None


def test_guess_sym_rec_all_ones():
    spec = guess_sym_rec([1, 1, 1, 1, 1, 1])
    assert spec.den == (1, -1)


def test_guess_sym_and_plain_agree_as_sequences():
    rng = random.Random(9)
    for _ in range(60):
        d = rng.randint(1, 4)
        spec = CFiniteSpec(
            [Fraction(rng.randint(-4, 4)) for _ in range(d)],
            [1] + [rng.randint(-3, 3) for _ in range(d)],
        )
        data = seq_from_rec(spec, 4 * d + 8)
        plain = guess_rec(data)
        sym = guess_sym_rec(data)
        assert plain is not None
        if sym is not None:
            n = 4 * len(data)
            assert seq_from_rec(plain, n) == seq_from_rec(sym, n)


_NON_INTEGER_SCALES = st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(
    lambda c: c.denominator > 1)


@st.composite
def _random_specs(draw):
    d = draw(st.integers(1, 4))
    return CFiniteSpec(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)),
                       [1] + draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))


@st.composite
def _palindromic_specs(draw):
    """Denominator c with c_i = eps * c_(d-i), c_0 = 1."""
    d = draw(st.integers(1, 5))
    eps = draw(st.sampled_from((1, -1)))
    c = [1] + [0] * d
    for i in range(1, d // 2 + 1):
        ci = draw(st.integers(-4, 4)) if 2 * i != d or eps == 1 else 0
        c[i], c[d - i] = ci, eps * ci
    c[d] = eps
    return CFiniteSpec(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)), c)


def _same_fit_after_scaling(guesser, data, scale):
    plain = guesser(data)
    scaled = guesser([scale * x for x in data])
    assert (plain is None) == (scaled is None)
    if plain is not None:
        assert scaled.den == plain.den
        assert all(isinstance(c, int) for c in scaled.den)
        assert scaled.initial == tuple(scale * x for x in plain.initial)


@settings(max_examples=80, deadline=None)
@given(_random_specs(), _NON_INTEGER_SCALES)
def test_guess_rec_is_scale_invariant(spec, scale):
    _same_fit_after_scaling(guess_rec, seq_from_rec(spec, 2 * spec.order + 6), scale)


@settings(max_examples=80, deadline=None)
@given(_palindromic_specs(), _NON_INTEGER_SCALES)
def test_guess_sym_rec_is_scale_invariant(spec, scale):
    data = seq_from_rec(spec, 2 * spec.order + 6)
    # the minimal fit is the spec's palindrome unless the initial values
    # pick out a factor of it (all zeros, say), which may not be one
    if guess_rec(data).den == spec.den:
        assert guess_sym_rec(data) is not None
    _same_fit_after_scaling(guess_sym_rec, data, scale)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_palindromic_specs(), _random_specs()), st.integers(0, 6))
def test_guess_sym_rec_matches_scan_at_minimal_order(spec, extra):
    # the old scan also accepts a palindromic fit above the minimal order;
    # the palindrome check on guess_rec's fit reports None there.  All-zero
    # data fit anything: guess_rec reports D = (1, 0), the scan (1, 1)
    data = seq_from_rec(spec, 2 * spec.order + 6 + extra)
    plain, scan = guess_rec(data), guess_sym_rec_scan(data)
    if scan is not None and scan.order == plain.order and any(data):
        assert guess_sym_rec(data) == scan
    else:
        assert guess_sym_rec(data) is None


def test_guess_sym_rec_drops_palindromic_multiples():
    # Fibonacci's minimal D = 1 - t - t^2 is not palindromic; the scan
    # finds its palindromic multiple (1 - t - t^2)(1 + t - t^2)
    fib = [0, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    assert guess_sym_rec(fib) is None
    assert guess_sym_rec_scan(fib).den == (1, 0, -3, 0, 1)


def test_seq_from_rec_examples():
    assert seq_from_rec(CFiniteSpec([1, 4], [1, -4, 1]), 6) == [1, 4, 15, 56, 209, 780]
    assert seq_from_rec(CFiniteSpec([1], [1, -1]), 4) == [1, 1, 1, 1]
    fib = seq_from_rec(CFiniteSpec([0, 1], [1, -1, -1]), 8)
    assert fib == [0, 1, 1, 2, 3, 5, 8, 13]
    # D_0 = 2: 2 a_n = a_(n-1), a Fraction only where the sequence has one
    assert seq_from_rec(CFiniteSpec([4], [2, -1]), 4) == [4, 2, 1, Fraction(1, 2)]


def test_spec_den_is_normalized():
    # content removed, D_0's first nonzero coefficient positive
    assert CFiniteSpec([1, 4], [-2, 8, -2]).den == (1, -4, 1)
    assert CFiniteSpec([1], [Fraction(-1, 2), Fraction(1, 3)]).den == (3, -2)
    v = Poly([0, 1])
    spec = CFiniteSpec([v, 1], [-(v * v + v), v + 1, 2 * v + 2])
    assert spec.den == (Poly([0, 1]), Poly([-1]), Poly([-2]))
    assert spec.order == 2
    assert CFiniteSpec([1, 4], [1, -4, 1]).rec == (4, -1)
    with pytest.raises(ValueError):
        CFiniteSpec([1], [0, 1])
    with pytest.raises(ValueError):
        CFiniteSpec([1, 2], [1, 1])


def test_round_trip_random_specs():
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randint(1, 4)
        spec = CFiniteSpec(
            [Fraction(rng.randint(-5, 5)) for _ in range(d)],
            [1] + [rng.randint(-3, 3) for _ in range(d)],
        )
        data = seq_from_rec(spec, 2 * d + 6)
        guessed = guess_rec(data)
        assert guessed is not None
        assert guessed.order <= d
        # sequences must agree well beyond the data window
        n = 4 * d
        assert seq_from_rec(guessed, n) == seq_from_rec(spec, n)


def test_c_to_r_fibonacci_style():
    f = c_to_r(CFiniteSpec([1, 1], [1, -1, -1]))
    assert f == RationalFunction(Poly([1]), Poly([1, -1, -1]))


def test_c_to_r_grid_two_rows():
    f = c_to_r(CFiniteSpec([1, 4], [1, -4, 1]))
    assert f == RationalFunction(Poly([1]), Poly([1, -4, 1]))


def test_c_to_r_geometric():
    f = c_to_r(CFiniteSpec([1], [1, -1]))
    assert f == RationalFunction(Poly([1]), Poly([1, -1]))


def test_c_to_r_series_matches_replay():
    rng = random.Random(23)
    for _ in range(60):
        d = rng.randint(1, 4)
        spec = CFiniteSpec(
            [Fraction(rng.randint(-5, 5)) for _ in range(d)],
            [rng.choice((1, 2, -3))] + [rng.randint(-3, 3) for _ in range(d)],
        )
        f = c_to_r(spec)
        n = 2 * d + 12
        assert taylor_coeffs(f, n) == seq_from_rec(spec, n)


def test_c_to_r_gives_one_canonical_value_for_every_spec_of_a_sequence(monkeypatch):
    # the minimal spec and one of higher order (den a multiple) emit the
    # same canonical value; the higher one needs the gcd to get there
    calls = []
    real = core.poly_gcd
    monkeypatch.setattr(core, "poly_gcd", lambda a, b: calls.append(1) or real(a, b))
    rng = random.Random(29)
    for _ in range(60):
        d = rng.randint(1, 4)
        spec = CFiniteSpec(
            [Fraction(rng.randint(-5, 5)) for _ in range(d)],
            [rng.choice((1, 2, -3))] + [rng.randint(-3, 3) for _ in range(d)],
        )
        minimal = guess_rec(seq_from_rec(spec, 2 * d + 6))
        assert repr(c_to_r(minimal)) == repr(c_to_r(spec))
    # 1, 2, 4, ...: (1 - t) / ((1 - t)(1 - 2t)) in lowest terms
    want = RationalFunction(Poly([1]), Poly([1, -2]))
    del calls[:]
    assert c_to_r(CFiniteSpec([1, 2], [1, -3, 2])) == want
    assert len(calls) == 1


@st.composite
def _fit_cases(draw):
    """A series P/Q with small integer coefficients (Q_0 = +-1, P_0 = 0
    and deg P >= deg Q allowed), a start 0..3 and a window of at least
    2 * order + 4 terms, order = max(deg Q, deg P + 1) bounding the
    minimal recurrence from any start."""
    q = [draw(st.sampled_from((1, -1)))] + draw(st.lists(st.integers(-3, 3), min_size=1,
                                                        max_size=4))
    p = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    order = max(len(q) - 1, len(p))
    start = draw(st.integers(0, 3))
    window = 2 * order + 4 + draw(st.integers(0, 3))
    n = start + window + draw(st.integers(0, 3))
    return RationalFunction(Poly(p), Poly(q)), start, window, n


@settings(max_examples=200, deadline=None)
@given(_fit_cases())
@example((RationalFunction(Poly([0, 1, 2, 3]), Poly([1, -1])), 0, 12, 12))  # deg P > deg Q
@example((RationalFunction(Poly([0, 1]), Poly([1, -3, 2])), 1, 8, 9))  # leading 0
@example((RationalFunction(Poly([2, 5, 1]), Poly([1, 1])), 2, 8, 12))  # fit starts late
def test_fit_emits_the_canonical_function_of_its_series(case):
    # a start-0 fit of a long enough window always succeeds; a later one
    # returns (spec, None) exactly when D times the series has degree above
    # the order d, so no numerator of degree <= d reaches back to series[0],
    # and never a wrong function
    truth, start, window, n = case
    series = taylor_coeffs(truth, n)
    spec, rf = cfinite.fit(series, start, window, guess_rec)
    assert spec is not None
    assert (rf is None) == ((Poly(spec.den) * Poly(series)).truncate(n).degree > spec.order)
    if start == 0:
        assert rf is not None
    if rf is not None:
        assert repr(rf) == repr(RationalFunction(rf.num, rf.den))
        assert taylor_coeffs(rf, n) == series
        assert rf == truth


def test_fit_reports_no_guess_and_a_fit_that_misses_a_term():
    assert cfinite.fit([1, 2, 4, 8, 16, 32, 64, 129], 0, 8, guess_rec) == (None, None)
    # 5, 7, 1, 1, ...: the order-1 fit from n = 2 on does not reach back to 5, 7
    spec, rf = cfinite.fit([5, 7] + [1] * 8, 2, 8, guess_rec)
    assert spec == CFiniteSpec([1], [1, -1]) and rf is None


def test_guess_rec_polynomial_data():
    # terms are polynomials in v; so is the recurrence's denominator
    v = Poly([0, 1])
    a = Poly([1])
    data = [a, v]
    for _ in range(10):
        data.append((v + 1) * data[-1] - data[-2])
    spec = guess_rec(data)
    assert spec is not None
    assert spec.order == 2
    assert spec.den == (Poly([1]), -(v + 1), Poly([1]))


_V_POLYS = st.lists(st.integers(-2, 2), max_size=3).map(Poly)


@st.composite
def _v_polynomial_specs(draw):
    """Specs over Z[v] with D_0 = 1, so every term stays in Z[v]."""
    d = draw(st.integers(1, 3))
    tail = draw(st.lists(_V_POLYS, min_size=d, max_size=d))
    return CFiniteSpec(draw(st.lists(_V_POLYS, min_size=d, max_size=d)), [Poly([1])] + tail)


@st.composite
def _fit_oracle_cases(draw):
    """(series, start, window, perturbed): 0..2 arbitrary terms, then a
    random spec's (D_0 = 1) over the ints, Fractions or Z[v]; a start
    0..3; a window of 2 * order + 4 terms or more, order bounding the
    minimal recurrence from any start; 1..3 terms past the window, the
    first of them off by one when perturbed."""
    ring = draw(st.sampled_from(("int", "Fraction", "v")))
    if ring == "v":
        terms, spec = _V_POLYS, draw(_v_polynomial_specs().filter(lambda s: s.order <= 2))
    else:
        terms = st.integers(-4, 4) if ring == "int" else st.fractions(-4, 4, max_denominator=5)
        d = draw(st.integers(1, 3))
        spec = CFiniteSpec(draw(st.lists(terms, min_size=d, max_size=d)),
                           [1] + draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    prefix = draw(st.lists(terms, max_size=2))
    start = draw(st.integers(0, 3))
    window = 2 * (spec.order + len(prefix)) + 4 + draw(st.integers(0, 2))
    n = start + window + draw(st.integers(1, 3))
    return prefix + seq_from_rec(spec, n - len(prefix)), start, window, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_fit_oracle_cases())
@example((seq_from_rec(CFiniteSpec([1, 1], [1, -1, -1]), 10), 0, 8, False))
@example((seq_from_rec(CFiniteSpec([Fraction(1, 2), 3], [1, 0, -2]), 11), 1, 8, True))
# coefficient d + 1 of D S is the only one that sees the term before the window
@example(([3, 5] + seq_from_rec(CFiniteSpec([1], [1, -2]), 8), 2, 6, False))
@example(([Poly([0, 1])] + seq_from_rec(CFiniteSpec([Poly([1, 1])], [Poly([1]), Poly([0, -1])]),
                                        11), 2, 8, True))
def test_fit_matches_the_reexpansion_route(case):
    # the one replay accepts exactly the fits that re-expand to every term,
    # and emits the same function; a held-out term off by one fails both
    series, start, window, perturbed = case
    if perturbed:
        series = [*series[:start + window], series[start + window] + 1,
                  *series[start + window + 1:]]
    got = cfinite.fit(series, start, window, guess_rec)
    assert repr(got) == repr(fit_by_reexpansion(series, start, window, guess_rec))
    if perturbed:
        assert got[1] is None


def _content(polys):
    g = Poly()
    for p in polys:
        g = poly_gcd(g, p)
    return g


@settings(max_examples=40, deadline=None)
@given(_v_polynomial_specs())
def test_guess_rec_round_trip_over_z_v(spec):
    data = seq_from_rec(spec, 2 * spec.order + 6)
    guessed = guess_rec(data)
    assert guessed is not None and guessed.order <= spec.order
    rf = c_to_r(guessed)
    assert taylor_coeffs(rf, len(data)) == data
    # an all-zero sequence fits D = (1, 0) with int entries
    den = [c if isinstance(c, Poly) else Poly([c]) for c in guessed.den]
    assert _content(den) == Poly([1])
    assert math.gcd(*(x for c in den for x in c.coeffs)) == 1
    coeffs = [x for p in (*den, *rf.num.coeffs, *rf.den.coeffs)
              for x in (p.coeffs if isinstance(p, Poly) else [p])]
    assert not any(isinstance(x, Fraction) for x in coeffs)


@st.composite
def _z_v_data(draw):
    """Terms of a random spec over Z[v], or gf_ver's data polynomials of a
    random connected multigraph on k <= 4 vertices, 2^k + 4 of them: enough
    for the fit, of order at most 2^(k-1)."""
    if draw(st.booleans()):
        spec = draw(_v_polynomial_specs())
        return seq_from_rec(spec, 2 * spec.order + 6)
    g = draw(_connected_multigraphs())
    count = 2 ** g.n_vertices + 4
    return list(_as_data(list(islice(_tree_minors(g, _ver_points(g, count)), count))))


@settings(max_examples=20, deadline=None)
@given(_z_v_data())
def test_guess_rec_over_z_v_matches_z_v_solve(data):
    assert guess_rec(data) == guess_rec_scan(data)


def test_grid_three_rows_order_four():
    # first 20 spanning-tree counts of the 3-row grid family
    from exactgf import grid_graph, spanning_tree_count

    data = [spanning_tree_count(grid_graph(3, n)) for n in range(1, 21)]
    spec = guess_rec(data)
    assert spec.order == 4
    assert spec.den == (1, -15, 32, -15, 1)


def test_grid_four_rows_symmetric_order_eight():
    # 28 terms suffice for the symmetric guesser at order 8; the implied
    # denominator is the known degree-8 palindrome
    from exactgf import grid_graph, spanning_tree_count

    data = [spanning_tree_count(grid_graph(4, n)) for n in range(1, 29)]
    spec = guess_sym_rec(data)
    assert spec.order == 8
    assert spec.den == (1, -56, 672, -2632, 4094, -2632, 672, -56, 1)


# --- the modular order finder against the order scan ----------------------------------


def _small_primes():
    """Primes from 101 upward: a prime supply under which unlucky primes,
    restarts and rational reconstruction happen on small data."""
    n = 101
    while True:
        if cfinite._is_prime(n):
            yield n
        n += 2


@contextmanager
def _prime_supply(primes):
    saved = cfinite._primes
    cfinite._primes = primes
    try:
        yield
    finally:
        cfinite._primes = saved


_SUPPLIES = {"word-size": cfinite._primes, "small": _small_primes}


def _agrees_with_scan(data, supply):
    with _prime_supply(_SUPPLIES[supply]):
        got = guess_rec(data)
    assert got == guess_rec_scan(data)
    return got


@st.composite
def _guess_inputs(draw):
    """Terms of a random int or Fraction spec of order 1..8 (2d + 4 to
    3d + 12 of them), or a list of noise."""
    kind = draw(st.sampled_from(("int", "fraction", "noise")))
    if kind == "noise":
        return draw(st.lists(st.integers(-50, 50), max_size=30))
    d = draw(st.integers(1, 8))
    if kind == "int":
        coeff = st.integers(-4, 4)
    else:
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    initial = draw(st.lists(coeff, min_size=d, max_size=d))
    den = [draw(coeff.filter(bool))] + draw(st.lists(coeff, min_size=d, max_size=d))
    return seq_from_rec(CFiniteSpec(initial, den), draw(st.integers(2 * d + 4, 3 * d + 12)))


@pytest.mark.parametrize("supply", sorted(_SUPPLIES))
@settings(max_examples=150, deadline=None)
@given(data=_guess_inputs())
def test_guess_rec_matches_order_scan(supply, data):
    _agrees_with_scan(data, supply)


_PINNED = {
    "all zeros": ([0] * 12, CFiniteSpec([0], [1, 0])),
    "leading zeros": ([0, 0, 0, 1] + [2 ** n for n in range(1, 10)],
                      CFiniteSpec([0, 0, 0, 1], [1, -2, 0, 0, 0])),
    "one nonzero term": ([5] + [0] * 11, CFiniteSpec([5], [1, 0])),
    # the window is too short to see 2^(20-n) turn fractional: the
    # window-minimal recurrence 2 a_n = 3 a_(n-1) is not integral
    "non-integral": ([2 ** 20 * 3 ** n // 2 ** n for n in range(20)],
                     CFiniteSpec([2 ** 20], [2, -3])),
    "fraction powers": ([Fraction(1, 3) ** n for n in range(14)], CFiniteSpec([1], [3, -1])),
    "noise": ([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], None),
}


@pytest.mark.parametrize("supply", sorted(_SUPPLIES))
@pytest.mark.parametrize("case", sorted(_PINNED))
def test_guess_rec_pinned_cases(case, supply):
    data, want = _PINNED[case]
    assert _agrees_with_scan(data, supply) == want


@pytest.mark.parametrize("supply", sorted(_SUPPLIES))
def test_guess_rec_over_z_v_matches_order_scan(supply):
    v = Poly([0, 1])
    data = [Poly([1]), v, v * v + 1]
    while len(data) < 16:
        data.append(v * data[-1] - (v + 1) * data[-2] + 2 * data[-3])
    got = _agrees_with_scan(data, supply)
    assert got.order == 3
    assert _agrees_with_scan(data[:9], supply) is None


def test_guess_rec_over_z_v_restarts_after_an_unlucky_point():
    # a_n = (v - 1)^n + 1: at x = 2 the data are constant, of order 1, so
    # the run of points reporting order 2 restarts at x = 3
    v = Poly([0, 1])
    got, points = _guess_recording([(v - 1) ** n + 1 for n in range(12)], "word-size",
                                   "guess_rec1")
    assert got.den == (1, -v, v - 1)
    assert [spec.order for _, spec in points] == [2, 1, 2, 2, 2, 2]
    # a_n = (1 - v)(-1)^n is all zero at x = 1, where BM's length is 0 and
    # guess_rec1 reports (1, 0): the run of order 1 starts at x = 2
    got, points = _guess_recording([(1 - v) * (-1) ** n for n in range(8)], "word-size",
                                   "guess_rec1")
    assert got.den == (1, 1)
    assert [spec.den for _, spec in points] == [(1, 0), (1, 1), (1, 1), (1, 1)]


def test_guess_rec_over_z_v_needs_constant_d0():
    # v a_n = a_(n-1) has D_0 = v: every point fits, but D(x) / D_0(x) has
    # 1/x in it, so no run of points interpolates to a recurrence over Z[v]
    v = Poly([0, 1])
    data = [v ** (20 - n) for n in range(21)]
    assert guess_rec(data) is None
    assert guess_rec_scan(data).den == (v, -1)
    assert guess_rec([Poly()] * 12) == CFiniteSpec([0], [1, 0])


def _guess_recording(data, supply, name):
    """guess_rec(data) under a prime supply, checked against the scan,
    with the (args, result) pairs of every call of cfinite.<name>."""
    original = getattr(cfinite, name)
    log = []

    def wrapper(*args):
        result = original(*args)
        log.append((args, result))
        return result

    setattr(cfinite, name, wrapper)
    try:
        with _prime_supply(_SUPPLIES[supply]):
            got = guess_rec(data)
    finally:
        setattr(cfinite, name, original)
    assert got == guess_rec_scan(data)
    return got, log


def test_small_primes_exercise_every_branch():
    # 101 is unlucky here (order 2 mod 101, 3 over Q): its image is
    # discarded and the CRT restarts at the larger order
    data = [-4, -2, 4, -32, 106, -434, 1630, -6308, 24142, -92768]
    got, bm = _guess_recording(data, "small", "_bm_mod")
    assert got.den == (1, 3, -4, -3)
    assert [length for _, (length, _) in bm][:2] == [2, 3]
    # 103 is unlucky after 101 has seen the true order 2: discarded
    data = seq_from_rec(CFiniteSpec([8, -1], [859078, -97131, 811906]), 8)
    got, bm = _guess_recording(data, "small", "_bm_mod")
    assert got.den == (859078, -97131, 811906)
    assert [length for _, (length, _) in bm][:3] == [2, 1, 2]
    # D_0 = 3 needs rational reconstruction of the common denominator
    got, recon = _guess_recording(_PINNED["fraction powers"][0], "small",
                                  "_rational_reconstruct")
    assert got.den == (3, -1)
    assert any(result and result[1] > 1 for _, result in recon)
    # no fit: the primes reporting an order above d = 4 are witnesses, and
    # the first that takes their product past the Hadamard bound proves it
    noise = _PINNED["noise"][0]
    got, bm = _guess_recording(noise, "small", "_bm_mod")
    assert got is None
    witnesses = [p for (_, p), (length, _) in bm if length > 4]
    bound_sq = cfinite._hadamard_bound_sq(noise, 4)
    assert math.prod(witnesses[:-1]) ** 2 <= bound_sq < math.prod(witnesses) ** 2
    # 101 divides the minimal D_0 and reports an order above d; the fit is
    # found at the later primes, so the witness is skipped
    got, bm = _guess_recording([101 ** (20 - n) * 3 ** n for n in range(21)], "small",
                               "_bm_mod")
    assert got.den == (101, -3)
    assert bm[0][0][1] == 101 and bm[0][1][0] > 8
    assert all(length == 1 for _, (length, _) in bm[1:])


def test_word_size_prime_dividing_d0_is_skipped():
    # the first word-size prime is 2^61 - 1, which divides D_0 here and
    # reports order 21 > 8 modulo itself
    q = 2 ** 61 - 1
    assert next(cfinite._primes()) == q
    got, bm = _guess_recording([q ** (20 - n) * 3 ** n for n in range(21)], "word-size",
                               "_bm_mod")
    assert got.den == (q, -3)
    assert [length for _, (length, _) in bm][0] == 21
    assert all(length == 1 for _, (length, _) in bm[1:])


# --- the no-fit proof ---------------------------------------------------------


_D0 = st.sampled_from((2, -3, 101, 103 * 107, 2 ** 61 - 1)) | st.integers(-4, 4).filter(bool)


@st.composite
def _no_fit_inputs(draw):
    """(primitive ints, d): 2d + 3 to 3d + 6 terms of noise, or of a random
    spec of order d + 1 (often no fit of order <= d) or d (a fit), D_0
    drawn to be divisible by the small primes or by 2^61 - 1 at times."""
    d = draw(st.integers(1, 8))
    n_terms = draw(st.integers(2 * d + 3, 3 * d + 6))
    kind = draw(st.sampled_from(("noise", "order d + 1", "order d")))
    if kind == "noise":
        data = draw(st.lists(st.integers(-50, 50), min_size=n_terms, max_size=n_terms))
    else:
        order = d + 1 if kind == "order d + 1" else d
        coeff = st.integers(-4, 4)
        spec = CFiniteSpec(draw(st.lists(coeff, min_size=order, max_size=order)),
                           [draw(_D0)] + draw(st.lists(coeff, min_size=order, max_size=order)))
        data = seq_from_rec(spec, n_terms)
    return _primitive_ints(data)[0], d


@pytest.mark.parametrize("supply", sorted(_SUPPLIES))
@settings(max_examples=150, deadline=None)
@given(_no_fit_inputs())
def test_no_fit_proof_matches_exact_solve(supply, case):
    ints, d = case
    with _prime_supply(_SUPPLIES[supply]):
        got = cfinite._minimal_den(ints, d)
    assert (got is None) == (_solve_rec(ints, d) is None)


@settings(max_examples=150, deadline=None)
@given(_random_specs(), _D0, st.integers(0, 3), st.integers(0, 5))
def test_hadamard_bound_dominates_d0(spec, d0, zeros, extra):
    # leading zeros raise the order and keep D_0; the bound at any
    # d >= the minimal order covers |D_0|
    spec = CFiniteSpec(spec.initial, (d0,) + spec.den[1:])
    order = zeros + spec.order
    ints = _primitive_ints([0] * zeros + seq_from_rec(spec, 2 * order + 4 + extra))[0]
    max_d = len(ints) // 2 - 2
    den = cfinite._minimal_den(ints, max_d)
    assert den is not None
    for d in range(len(den) - 1, max_d + 1):
        assert den[0] ** 2 <= cfinite._hadamard_bound_sq(ints, d)


def test_lifts_are_tried_at_powers_of_two_primes(monkeypatch):
    # 1 + c t + t^2 with c of 400 digits needs about 23 primes of 61 bits
    # for its lift: replayed at 1, 2, 4, ... primes, not after each one
    primes, lifts = [], []
    real_bm, real_lifts = cfinite._bm_mod, cfinite._lifts
    monkeypatch.setattr(cfinite, "_bm_mod", lambda ints, p: primes.append(p) or real_bm(ints, p))
    monkeypatch.setattr(cfinite, "_lifts",
                        lambda r, m: lifts.append(m) or real_lifts(r, m))
    den = (1, 10 ** 400 + 7, 1)
    ints = _primitive_ints(seq_from_rec(CFiniteSpec((1, 2), den), 12))[0]
    assert cfinite._minimal_den(ints, 4) == list(den)
    assert len(primes) > 16 and len(lifts) <= len(primes).bit_length()


def test_no_exact_solve_is_left_in_cfinite(monkeypatch):
    def refuse(*args):
        raise AssertionError("cfinite solved a linear system")

    monkeypatch.setattr(cfinite, "solve_fraction_free", refuse)
    assert guess_rec(_PINNED["noise"][0]) is None
    assert gf_grid(4, "symmetric").spec.order == 8
    v = Poly([0, 1])
    data = [Poly([1]), v]
    while len(data) < 12:
        data.append((v + 1) * data[-1] - data[-2])
    assert guess_rec(data).den == (Poly([1]), -(v + 1), Poly([1]))
    # one guess on the proved two-forest window of 2 * 12 + 4 terms
    assert gf_two_forest(3).spec.order == 12
