"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run with `pytest -s tests/test_acceptance.py` to
see them).  Expected values are the known closed forms, compared as
canonical rational functions, or frozen outputs of independent oracles.
"""
import random
import time
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from exactgf import (
    Poly,
    RationalFunction,
    c_poly,
    det_bareiss,
    resistance_bound_constant,
    gf_family_guess,
    gf_grid,
    gf_transfer,
    gf_ver_grid,
    grid_graph,
    guess_rec,
    moments,
    path_graph,
    resistance,
    ryser_permanent,
    spanning_tree_count,
    substitute_v,
    taylor_coeffs,
    two_forest_count,
    value_sequence,
)
from exactgf.errors import NoFitWithinBudget
from exactgf.toeplitz import ToeplitzSpec, matrix_from_spec

from oracles import (
    naive_det,
    permutation_permanent,
    random_labeled_graph,
    random_toeplitz_prefixes,
    spanning_tree_count_bruteforce,
    two_forest_count_bruteforce,
)


@contextmanager
def criterion(number, text, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:>2} FAIL: {text}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:>2} PASS ({elapsed:7.2f}s < {limit_seconds}s): {text}")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def sparse(terms):
    out = [0] * (max(terms) + 1)
    for deg, coeff in terms.items():
        out[deg] = coeff
    return out


def nested(rows):
    return Poly([Poly(r) for r in rows])


def rf(num, den):
    return RationalFunction(Poly(num), Poly(den))


# -- known closed forms, ascending coefficients ---------------------------------

F1 = rf([0, 1], [1, -1])
F2 = rf([0, 1], sparse({0: 1, 1: -4, 2: 1}))
F3 = rf(sparse({1: 1, 3: -1}), sparse({0: 1, 1: -15, 2: 32, 3: -15, 4: 1}))
F4 = rf(
    sparse({1: 1, 3: -49, 4: 112, 5: -49, 7: 1}),
    sparse({0: 1, 1: -56, 2: 672, 3: -2632, 4: 4094,
            5: -2632, 6: 672, 7: -56, 8: 1}),
)
D5 = sparse({
    0: 1, 1: -209, 2: 11936, 3: -274208, 4: 3112032, 5: -19456019,
    6: 70651107, 7: -152325888, 8: 196664896, 9: -152325888,
    10: 70651107, 11: -19456019, 12: 3112032, 13: -274208,
    14: 11936, 15: -209, 16: 1,
})
C2 = Poly([-1, 1])
C3 = Poly([1, -8, 17, -8, 1])
C4 = Poly(sparse({
    0: 1, 1: -46, 2: 770, 3: -6062, 4: 24579, 5: -55388, 6: 72324,
    7: -55388, 8: 24579, 9: -6062, 10: 770, 11: -46, 12: 1,
}))

G2_NUM = nested([[], [0, 1]])
G2_DEN = nested([[1], [-2, -2], [1]])
G3_NUM = nested([[], [0, 0, 1], [], [0, 0, -1]])
G3_DEN = nested([[1], [-4, -8, -3], [6, 16, 10], [-4, -8, -3], [1]])
G4_NUM = nested([
    [], [0, 0, 0, 1], [], [0, 0, 0, -9, -24, -16],
    [0, 0, 0, 16, 48, 40, 8], [0, 0, 0, -9, -24, -16], [], [0, 0, 0, 1],
])
G4_DEN = nested([
    [1],
    [-8, -24, -20, -4],
    [28, 144, 256, 192, 52],
    [-56, -360, -844, -892, -416, -64],
    [70, 480, 1216, 1408, 744, 160, 16],
    [-56, -360, -844, -892, -416, -64],
    [28, 144, 256, 192, 52],
    [-8, -24, -20, -4],
    [1],
])

# the degree-32 six-row form, used only for the partial consistency check
N6 = sparse({
    31: 1, 29: -33359, 28: 3642600, 27: -173371343, 26: 4540320720,
    25: -70164186331, 24: 634164906960, 23: -2844883304348,
    22: -1842793012320, 21: 104844096982372, 20: -678752492380560,
    19: 2471590551535210, 18: -5926092273213840, 17: 9869538714631398,
    16: -11674018886109840, 15: 9869538714631398, 14: -5926092273213840,
    13: 2471590551535210, 12: -678752492380560, 11: 104844096982372,
    10: -1842793012320, 9: -2844883304348, 8: 634164906960,
    7: -70164186331, 6: 4540320720, 5: -173371343, 4: 3642600,
    3: -33359, 1: 1,
})
D6 = sparse({
    32: 1, 31: -780, 30: 194881, 29: -22377420, 28: 1419219792,
    27: -55284715980, 26: 1410775106597, 25: -24574215822780,
    24: 300429297446885, 23: -2629946465331120, 22: 16741727755133760,
    21: -78475174345180080, 20: 273689714665707178,
    19: -716370537293731320, 18: 1417056251105102122,
    17: -2129255507292156360, 16: 2437932520099475424,
    15: -2129255507292156360, 14: 1417056251105102122,
    13: -716370537293731320, 12: 273689714665707178,
    11: -78475174345180080, 10: 16741727755133760, 9: -2629946465331120,
    8: 300429297446885, 7: -24574215822780, 6: 1410775106597,
    5: -55284715980, 4: 1419219792, 3: -22377420, 2: 194881,
    1: -780, 0: 1,
})


def test_criterion_01_guessrec_golden():
    with criterion(1, "recurrence guessed from the 2-row grid data", 1):
        spec = guess_rec([1, 4, 15, 56, 209, 780, 2911, 10864, 40545, 151316])
        assert list(spec.initial) == [1, 4]
        assert [Fraction(r) for r in spec.rec] == [4, -1]


def test_criterion_02_gf_rows_1_to_4():
    with criterion(2, "spanning-tree GFs for 1..4 rows match the closed forms", 30):
        assert gf_grid(1).gf == F1
        assert gf_grid(2).gf == F2
        assert gf_grid(3).gf == F3
        assert gf_grid(4).gf == F4


def test_criterion_03_five_row_denominator():
    with criterion(3, "5-row denominator equals the degree-16 polynomial", 180):
        out = gf_grid(5)
        assert list(out.gf.den.coeffs) == D5


def test_criterion_04_joint_resistance_cofactors():
    with criterion(4, "cofactor polynomials C_2, C_3, C_4 match", 240):
        assert c_poly(2) == C2
        assert c_poly(3) == C3
        assert c_poly(4) == C4


def test_criterion_05_resistance_sandwich():
    with criterion(5, "(n-1)/k <= R(k,n) <= (n-1)/k + C(k) for k=2,3; n=2..40", 60):
        for k in (2, 3):
            bound = resistance_bound_constant(k)
            for n in range(2, 41):
                lo = Fraction(n - 1, k)
                r = resistance(k, n)
                assert lo <= r <= lo + bound, (k, n, r)


def test_criterion_06_bivariate_rows_2_to_4():
    with criterion(6, "bivariate GFs for 2..4 rows match; v=1 recovers counting", 180):
        g2 = gf_ver_grid(2)
        assert g2.gf.num == G2_NUM and g2.gf.den == G2_DEN
        g3 = gf_ver_grid(3)
        assert g3.gf.num == G3_NUM and g3.gf.den == G3_DEN
        g4 = gf_ver_grid(4)
        assert g4.gf.num == G4_NUM and g4.gf.den == G4_DEN
        grids = {2: g2, 3: g3, 4: g4}
        for k in (1, 2, 3, 4):
            bi = grids[k] if k in grids else gf_ver_grid(k)
            assert substitute_v(bi.gf, 1) == gf_grid(k).gf


def test_criterion_07_moment_asymptotics():
    with criterion(7, "2-row moments at n=60 match the asymptotics", 10):
        rep = moments(path_graph(2), 60)
        with localcontext() as ctx:
            ctx.prec = 50
            b = 2 + Decimal(3).sqrt()
            n = 60
            mean_asym = Decimal(1) / 3 + (Decimal(1) / 3) * (2 * b - 1) * n / b
            var_asym = Decimal(-1) / 9 + (Decimal(1) / 9) * (7 * b - 2) * n / (4 * b - 1)
            mean = Decimal(rep.mean.numerator) / rep.mean.denominator
            var = Decimal(rep.variance.numerator) / rep.variance.denominator
            assert abs(mean - mean_asym) / mean_asym < Decimal("0.01")
            assert abs(var - var_asym) / var_asym < Decimal("0.01")
        assert abs(rep.skewness) < Decimal("0.1")
        assert abs(rep.kurtosis - 3) < Decimal("0.1")


def test_criterion_08_toeplitz_golden():
    with criterion(8, "both Toeplitz routes give the known banded GF", 10):
        want = rf([1], [1, -2, 12, -45])  # == -1/(45t^3 - 12t^2 + 2t - 1)
        guessed = gf_family_guess([2, 3], [2, 4, 5], "det", 10, 50)
        transferred = gf_transfer([2, 3], [2, 4, 5], "det")
        assert guessed == want
        assert transferred == want
        assert guessed == transferred


def test_criterion_09_oracle_equivalence():
    with criterion(9, "200 graph + 100 Toeplitz random oracle comparisons", 120):
        rng = random.Random(20240817)
        for _ in range(200):
            g = random_labeled_graph(rng, max_vertices=6, max_edges=10)
            assert spanning_tree_count(g) == spanning_tree_count_bruteforce(g)
            a, b = rng.sample(range(g.n_vertices), 2)
            assert two_forest_count(g, a, b) == two_forest_count_bruteforce(g, a, b)
        for _ in range(100):
            row, col = random_toeplitz_prefixes(rng, max_band=3, lo=-4, hi=4)
            n = rng.randint(1, 7)
            m = matrix_from_spec(ToeplitzSpec(n, row, col))
            assert det_bareiss(m) == naive_det(m)
            if n <= 6:
                assert ryser_permanent(m) == permutation_permanent(m)


PERM_FAMILIES = [
    ([1, 1], [1, 1]),
    ([2, 3], [2, 4, 5]),
    ([1, 2], [1, 4]),
    ([1, 2, 3], [1, 4]),
    ([3], [3, 1]),
    ([2, 1], [2, 1, 1]),
    ([1, 1, 1], [1, 1]),
    ([2, 3], [2, 5]),
    ([1, 0, 2], [1, 3]),
    ([4, 2], [4, 3, 2]),
]


def test_criterion_10_cross_method_permanents():
    with criterion(10, "transfer permanents match inclusion-exclusion, n<=12", 60):
        for row, col in PERM_FAMILIES:
            series = taylor_coeffs(gf_transfer(row, col, "perm"), 13)
            oracle = value_sequence(row, col, "perm", 12)
            assert series[0] == 1
            assert series[1:] == [Fraction(x) for x in oracle], (row, col)


def test_criterion_11_partial_six_rows():
    with criterion(11, "budget-capped 6-row run: data matches fresh determinants", 60):
        with pytest.raises(NoFitWithinBudget) as info:
            gf_grid(6, max_terms=12)
        partial = info.value.data
        fresh = [spanning_tree_count(grid_graph(6, n)) for n in range(1, 13)]
        assert partial[:12] == fresh
        # the known degree-32 form reproduces the same twelve terms
        series = taylor_coeffs(RationalFunction(Poly(N6), Poly(D6)), 13)
        assert series[1:] == [Fraction(x) for x in fresh]
