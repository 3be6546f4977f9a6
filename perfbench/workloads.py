"""The benchmark's workloads.

A case is one call into exactgf's public API (the timed part), a
conversion of its output to plain numbers, and a check of those numbers
against references.py (both untimed).  Every call looks its function up
through the exactgf submodule at call time, so the tracer's wrappers see
it.  The grid workloads are the paper's fixed families and ignore the
seed; the Toeplitz workload draws its families' entry signs from it.
"""
from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import references as ref


@dataclass(frozen=True)
class Case:
    name: str
    call: Callable[[], object]
    plain: Callable[[object], object]
    check: Callable[[object], list]


def _uni(p):
    return [Fraction(c) for c in p.coeffs]


def _bi(p):
    return [[int(x) for x in c.coeffs] if hasattr(c, "coeffs") else ([int(c)] if c else [])
            for c in p.coeffs]


def _gf_plain(result):
    return _uni(result.gf.num), _uni(result.gf.den)


def _expect(ok, problem):
    return [] if ok else [problem]


# -- grid-cofactor ---------------------------------------------------------------

def grid_cofactor(gf, seed):
    del seed  # fixed families, pinned references
    sp = gf.spanning
    cases = []
    for k in range(1, 5):
        def check(data, k=k):
            return _expect(ref.same_ratio(*data, *ref.F[k]), f"gf_grid({k}) differs from F{k}")
        cases.append(Case(f"gf_grid({k})", lambda k=k: sp.gf_grid(k), _gf_plain, check))

    def check5(data, terms=20):
        num, den = data
        want = [0] + [ref.grid_tree_count(5, n) for n in range(1, terms)]
        return (_expect(den == ref.D5, "gf_grid(5) denominator differs from D5")
                + _expect(len(num) <= len(ref.D5), "gf_grid(5) numerator degree too high")
                + _expect(ref.series(num, den, terms) == want,
                          "gf_grid(5) series differs from spanning-tree counts"))
    cases.append(Case("gf_grid(5)", lambda: sp.gf_grid(5), _gf_plain, check5))
    cases.append(Case(
        "gf_grid(4,symmetric)", lambda: sp.gf_grid(4, guesser="symmetric"), _gf_plain,
        lambda data: _expect(ref.same_ratio(*data, *ref.F[4]), "gf_grid(4) differs from F4")))
    cases.append(Case("gf_grid(5,symmetric)", lambda: sp.gf_grid(5, guesser="symmetric"),
                      _gf_plain, check5))
    for k in (2, 3):
        cases.append(Case(
            f"c_poly({k})", lambda k=k: sp.c_poly(k), _uni,
            lambda data, k=k: _expect(data == ref.C[k], f"c_poly({k}) differs from C{k}")))
    return cases


# -- grid-ver --------------------------------------------------------------------

#: Layers of the moments cases, by number of rows.
MOMENT_LAYERS = {2: 60, 3: 60, 4: 30}
RESISTANCE_LAYERS = range(2, 41)


def grid_ver(gf, seed):
    del seed  # fixed families, pinned references
    sp = gf.spanning
    cases = []
    for k in (2, 3):
        def check_ver(data, k=k):
            num, den = data
            return (_expect(ref.bi_same_ratio(num, den, *ref.G[k]),
                            f"gf_ver_grid({k}) differs from G{k}")
                    + _expect(ref.same_ratio(ref.at_v1(num), ref.at_v1(den), *ref.F[k]),
                              f"gf_ver_grid({k}) at v=1 differs from F{k}"))
        cases.append(Case(f"gf_ver_grid({k})", lambda k=k: sp.gf_ver_grid(k),
                          lambda r: (_bi(r.gf.num), _bi(r.gf.den)), check_ver))
    for k, n in MOMENT_LAYERS.items():
        def check_moments(data, k=k, n=n):
            mean, var, skewness, kurtosis = data
            want_mean, want_var = ref.vertical_moments(*ref.G[k], n)
            problems = (_expect(mean == want_mean, f"mean differs from the G{k} series")
                        + _expect(var == want_var, f"variance differs from the G{k} series"))
            if k == 2:
                problems += ref.two_row_asymptotics(n, mean, var, skewness, kurtosis)
            return problems
        cases.append(Case(
            f"moments(path_graph({k}),{n})",
            lambda k=k, n=n: sp.moments(gf.graphs.path_graph(k), n),
            lambda r: (r.mean, r.variance, r.skewness, r.kurtosis), check_moments))
    for k in (2, 3):
        def check_sandwich(data, k=k):
            slack = 2 * sum((1 - Fraction(i, k)) ** 2 for i in range(1, k))
            return [f"R({k},{n}) = {r} is outside the sandwich"
                    for n, r in zip(RESISTANCE_LAYERS, data)
                    if not Fraction(n - 1, k) <= r <= Fraction(n - 1, k) + slack]
        cases.append(Case(
            f"resistance({k},2..40)",
            lambda k=k: [sp.resistance(k, n) for n in RESISTANCE_LAYERS],
            list, check_sandwich))
    return cases


# -- toeplitz-transfer -----------------------------------------------------------

#: (mode, first row, first column) of the base families; the two prefixes
#: share the corner entry.
TOEPLITZ_FAMILIES = (
    ("det", (2, -1, 3), (2, 3, -1)),
    ("det", (2, -1, 3, 1), (2, 3, -1)),
    ("det", (2, -1, 3), (2, 3, -1, 2)),
    ("perm", (2, -1, 3), (2, 3, -1)),
    ("perm", (2, -1, 3, 1), (2, 3, -1)),
    ("perm", (2, -1, 3), (2, 3, -1, 2)),
)
#: Dimensions checked against the benchmark's own det and permanent.
ORACLE_DIMENSIONS = 12


def draw_families(seed):
    """The seed draws the entry signs of each base family: an overall sign
    s and a factor a**o on diagonal o, for s, a in {1, -1}.  The first
    maps f(A_n) to s**n f(A_n); the second is the similarity D A D^-1 with
    D = diag(a**i), which leaves det and perm unchanged.  Every seed thus
    gets sequences of the same sizes and the same amount of work, where
    freely drawn entries made a family's cost vary widely between seeds."""
    rng = random.Random(seed)
    families = []
    for mode, row, col in TOEPLITZ_FAMILIES:
        s, a = rng.choice((1, -1)), rng.choice((1, -1))
        families.append((mode, [s * a**o * x for o, x in enumerate(row)],
                         [s * a**o * x for o, x in enumerate(col)]))
    return families


def guess_window_end(states):
    """End of the guess route's fit window (which starts at 10).  The
    transfer system has one unknown per minor state, so the recurrence
    order is at most the state count, and an order-d fit needs 2d + 4
    window terms; 3 * states + 10 leaves room for a numerator of degree
    up to the state count as well."""
    return max(50, 10 + 3 * states)


def _run_cli(gf, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = gf.cli.run(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _parse_cli(cli):
    payload = json.loads(cli["stdout"])
    return [Fraction(x) for x in payload["num"]], [Fraction(x) for x in payload["den"]]


def toeplitz_transfer(gf, seed):
    tz = gf.toeplitz
    cases = []
    for mode, row, col in draw_families(seed):
        argv = ["toeplitz-gf", "--row=" + ",".join(map(str, row)),
                "--col=" + ",".join(map(str, col)), "--mode", mode, "--method", "transfer"]

        def check(data, row=row, col=col, mode=mode):
            if data["rc"] != 0:
                return [f"toeplitz-gf exited {data['rc']}: {data['stderr']}"]
            value = ref.det if mode == "det" else ref.permanent
            oracle = [1] + [value(ref.toeplitz_rows(row, col, n))
                            for n in range(1, ORACLE_DIMENSIONS + 1)]
            problems = _expect(
                ref.series(*data["transfer"], len(oracle)) == oracle,
                f"transfer series differs from the oracle for n <= {ORACLE_DIMENSIONS}")
            if "guess" in data:
                problems += _expect(ref.same_ratio(*data["transfer"], *data["guess"]),
                                    "transfer and guess routes disagree")
            return problems

        if mode == "det":
            def call(row=row, col=col, argv=argv):
                cli = _run_cli(gf, argv)
                end = guess_window_end(len(tz.children_scheme(row, col, "det")))
                return {"cli": cli, "guess": tz.gf_family_guess(row, col, "det", 10, end)}
        else:
            def call(argv=argv):
                return {"cli": _run_cli(gf, argv)}

        def plain(raw):
            data = {"rc": raw["cli"]["rc"], "stderr": raw["cli"]["stderr"],
                    "stdout_bytes": len(raw["cli"]["stdout"].encode())}
            if data["rc"] == 0:
                data["transfer"] = _parse_cli(raw["cli"])
            if "guess" in raw:
                data["guess"] = (_uni(raw["guess"].num), _uni(raw["guess"].den))
            return data

        name = f"{mode} {len(row)}/{len(col)} row={','.join(map(str, row))} " \
               f"col={','.join(map(str, col))}"
        cases.append(Case(name, call, plain, check))
    return cases


WORKLOADS = {
    "grid-cofactor": grid_cofactor,
    "grid-ver": grid_ver,
    "toeplitz-transfer": toeplitz_transfer,
}
