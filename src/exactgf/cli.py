"""Command-line surface: every pipeline behind one subcommand, JSON to
stdout by default, pretty algebraic text behind --pretty.

Exit codes: 0 success, 1 when a fit/budget/structure check fails (with a
JSON diagnostic), 2 for usage errors such as malformed input or an
out-of-range size, 3 when an internal self-check fails or a pipeline
raises ValueError on validated arguments (a bug, not bad input).

JSON wire format: a generating function prints as {"num": [...], "den":
[...], "var": "t", "offset": p, "order": d, "terms_used": N}
(gf_to_json).  The coefficient lists ascend in t; scalar coefficients
are decimal strings, so arbitrary precision survives JSON, and
coefficients that are polynomials in v are nested integer lists
ascending in v (poly_to_json).  toeplitz-gf adds "mode" and "method",
and gf-grid and gf-product --emit-data add the generated terms as
"data", a list of decimal strings.

Each subcommand imports only the modules it runs: this module loads
cfinite, core and errors, the toeplitz subcommands load toeplitz, and
the graph pipelines load spanning and graphs.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .cfinite import MAX_TERMS, guess_rec
from .core import Poly, RationalFunction, _primitive_ints
from .errors import (
    BadVertexPair,
    BudgetExceeded,
    DataTooShort,
    ExactGFError,
    InconsistentSpec,
    InternalInconsistency,
    NoFitWithinBudget,
    NotConnected,
)

#: Sizes from which a run is a stretch target, refused unless asked nicely
#: with --allow-long.  gf-grid --k: with the data from the Kronecker
#: stream, k = 6 and 7 take 0.15 s with process start, and k = 8 reaches
#: the default 120-term cap without a fit after 3.6 s, nearly all of it
#: the no-fit proof in cfinite._minimal_den (its 126 terms take 0.02 s).
LONG_RUN_K = 8
#: c-poly --k: k = 4 takes 0.12 s; from k = 5 the window of the proved
#: two-forest order bound exceeds the 120-term cap, so the fit gives up
#: at it in one round, after 1.6 s, 2.2 s and 2.7 s for k = 5, 6 and 7,
#: nearly all of it the no-fit proof, not the forest stream.
LONG_RUN_C_POLY_K = 7
#: gf-ver --k and a gf-ver --graph's vertex count: 0.6 s for 5 rows and
#: 7.2 s for 6 with process start.  At 6 rows the Kronecker stream takes
#: 2.9 s over Evals at 371 points of v and the last-term spot check
#: (det_bareiss of the layer transfer's grounded matrix, over the same
#: points) 1.2 s; the rest is interpolation and the Z[v] guess.  K_5 and
#: K_6 took 0.1 and 0.3 s, two random 5-vertex graphs 0.9 and 0.7 s and a
#: random 6-vertex one (order 32) 7.9 s, without process start.
LONG_RUN_VER_K = 6
#: A gf-product --graph's vertex count: the 6-vertex graphs tried (a path,
#: the complete graph, six random ones) fit in under 0.06 s; of three random
#: 7-vertex ones, one reaches the 120-term cap without a fit after 2.7 s.
LONG_RUN_GRAPH_VERTICES = 7

#: guess_rec tries orders up to len(data) // 2 - 2, so fewer terms can
#: never fit.
MIN_GUESS_TERMS = 6

#: Upper limits on the sizes that set a run's length, so a huge value is a
#: usage error, not hours of work: each accepts about a minute of work
#: (CPython 3.11, one core of a shared 2-core x86-64 host), at k = 4 for
#: MAX_FIT_TERMS and at the k that MAX_STREAM_WORK leaves for the n limits.
#: MAX_FIT_TERMS also caps guess --data's terms and toeplitz-gf --n.
MAX_FIT_TERMS = 160
MAX_RESISTANCE_N = 2500
MAX_MOMENTS_N = 1300
#: resistance takes n steps on k + 1 vectors and one k x k determinant,
#: moments n steps on (k-1)-square matrices (k the rows or a --graph's
#: vertices); k^2 * n <= MAX_STREAM_WORK caps both, the only bound on k.
#: Along it resistance takes at most 0.15 s with start-up (k = 5, n = 800),
#: far inside a minute, and moments at most 3.3 s (k = 100, n = 2; 0.9 s for
#: a doubled K_30, n = 22).
#: A --graph file has at most MAX_GRAPH_VERTICES vertices and MAX_GRAPH_BYTES bytes.
MAX_STREAM_WORK = 20000
MAX_GRAPH_VERTICES = 30
MAX_GRAPH_BYTES = 1 << 20
#: guess --data's length in bytes, checked before parsing.  The costliest
#: guess is a list that nothing fits, where the order finder runs modulo
#: primes until their product passes a Hadamard bound that grows with the
#: terms' size: 160 terms of noise took 0.04 s at 2 digits, 4.2 s at 200
#: (32 KB), 16 s at 600, 27 s at 800 (128 KB) and 41 s at 1000 (160 KB);
#: 40 terms of 3200 digits (128 KB) took 13 s.  The order finder works on
#: the terms with their denominators cleared by the lcm of all of them
#: (core._primitive_ints), so fraction data are also refused, after
#: parsing, when those integers have more bits in all than integers
#: written in MAX_GUESS_BYTES decimal digits can, MAX_GUESS_BYTES * log2(10):
#: 160 terms 1/d with random 6-digit d (1.4 KB) clear to about 330000 bits,
#: under that bound, and took 20 s; with 8-digit d (1.8 KB), refused, to
#: about 500000 bits, and took 45 s.
MAX_GUESS_BYTES = 1 << 17
#: toeplitz-gf --method transfer and toeplitz-scheme: the transfer scheme
#: of a row prefix of k1 entries and a column prefix of k2 has at most
#: C(k1 + k2 - 2, k1 - 1) states (toeplitz.children_scheme), which all-ones
#: bands reach, so k1 + k2 is capped; at 14 entries 7/7 is the largest split.
#: The slowest transfer (permanent) took 0.23 s at 6/6 (252 states), 8.9 s
#: at 7/7 (924), 5.6 s at 8/6 and 6.0 s at 6/8 (792), then 43 s at 8/7
#: (1716); the scheme alone takes 1.2 s at 9/9 (12870 states).
MAX_TOEPLITZ_PREFIXES = 14


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_in_range(low: int, high: int | None = None):
    """An argparse type for an int in low..high (high None: no limit), so
    out-of-range sizes are usage errors before any pipeline runs."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


#: --max-terms must leave the guesser MIN_GUESS_TERMS terms.
_max_terms = _int_in_range(MIN_GUESS_TERMS, MAX_FIT_TERMS)
_positive = _int_in_range(1)
#: gf-grid, gf-ver and c-poly --k: at most as many rows as a --graph file
#: has vertices, with or without --allow-long.
_grid_rows = _int_in_range(1, MAX_GRAPH_VERTICES)


@functools.cache
def _build_parser() -> _Parser:
    # --help shows the summary and the exit codes, not the wire format
    p = _Parser(prog="exactgf", description=__doc__.split("\n\nJSON wire format")[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("guess", help="fit a constant-coefficient recurrence")
    g.add_argument("--data", required=True, help="comma-separated exact terms")
    g.add_argument("--pretty", action="store_true")

    for name, help_text in (
        ("gf-grid", "spanning-tree generating function of the k-row grid"),
        ("gf-product", "spanning-tree generating function of graph x path"),
    ):
        q = sub.add_parser(name, help=help_text)
        if name == "gf-grid":
            q.add_argument("--k", type=_grid_rows, required=True)
        else:
            q.add_argument("--graph", required=True, help="graph JSON file")
        q.add_argument("--pretty", action="store_true")
        q.add_argument("--emit-data", action="store_true")
        q.add_argument("--allow-long", action="store_true")
        q.add_argument("--max-terms", type=_max_terms, default=MAX_TERMS)

    q = sub.add_parser("gf-ver", help="bivariate vertical-edge generating function")
    which = q.add_mutually_exclusive_group(required=True)
    which.add_argument("--k", type=_grid_rows)
    which.add_argument("--graph")
    q.add_argument("--pretty", action="store_true")
    q.add_argument("--allow-long", action="store_true")
    q.add_argument("--max-terms", type=_max_terms, default=MAX_TERMS)

    q = sub.add_parser("c-poly", help="two-forest cofactor polynomial C_k")
    q.add_argument("--k", type=_int_in_range(2, MAX_GRAPH_VERTICES), required=True)
    q.add_argument("--pretty", action="store_true")
    q.add_argument("--allow-long", action="store_true")
    q.add_argument("--max-terms", type=_max_terms, default=MAX_TERMS)

    q = sub.add_parser("resistance", help="corner-to-corner grid resistance")
    q.add_argument("--k", type=_positive, required=True)
    q.add_argument("--n", type=_int_in_range(1, MAX_RESISTANCE_N), required=True)
    q.add_argument("--pretty", action="store_true")

    q = sub.add_parser("moments", help="vertical-edge statistic moments")
    which = q.add_mutually_exclusive_group(required=True)
    which.add_argument("--k", type=_positive)
    which.add_argument("--graph")
    q.add_argument("--n", type=_int_in_range(1, MAX_MOMENTS_N), required=True)
    q.add_argument("--pretty", action="store_true")

    q = sub.add_parser("toeplitz-gf", help="banded Toeplitz det/perm GF")
    q.add_argument("--row", required=True, help="comma-separated first-row prefix")
    q.add_argument("--col", required=True, help="comma-separated first-column prefix")
    q.add_argument("--mode", choices=("det", "perm"), default="det")
    q.add_argument("--method", choices=("guess", "transfer"), default="transfer")
    q.add_argument("--n", type=_int_in_range(1, MAX_FIT_TERMS), default=50,
                   help="data end for --method guess")
    q.add_argument("--pretty", action="store_true")

    q = sub.add_parser("toeplitz-scheme", help="dump the minor-state scheme")
    q.add_argument("--row", required=True)
    q.add_argument("--col", required=True)
    q.add_argument("--mode", choices=("det", "perm"), default="det")

    return p


def _parse_scalar(text: str):
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    return int(text)


def _parse_csv(text: str):
    try:
        return [_parse_scalar(x) for x in text.split(",") if x.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad numeric list {text!r}: {exc}") from exc


def _scalar_json(x):
    f = Fraction(x)
    return int(f) if f.denominator == 1 else str(f)


def _load_graph(path: str):
    from .graphs import graph_from_json_dict

    try:
        with open(path, "rb") as fh:
            raw = fh.read(MAX_GRAPH_BYTES + 1)
        if len(raw) > MAX_GRAPH_BYTES:
            raise UsageError(f"graph JSON {path!r} is over {MAX_GRAPH_BYTES} bytes")
        g = graph_from_json_dict(json.loads(raw))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read graph JSON {path!r}: {exc}") from exc
    if g.n_vertices > MAX_GRAPH_VERTICES:
        raise UsageError(f"graph JSON {path!r} has {g.n_vertices} vertices, "
                         f"more than {MAX_GRAPH_VERTICES}")
    return g


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def poly_to_json(p: Poly):
    """Ascending coefficient list; scalars become decimal strings,
    v-polynomial coefficients become nested ascending integer lists."""
    out = []
    for c in p.coeffs:
        if isinstance(c, Poly):
            out.append([int(x) for x in c.coeffs])
        else:
            out.append(str(c))
    return out


def gf_to_json(rf: RationalFunction, offset: int, order: int | None,
               terms_used: int | None) -> dict:
    return {
        "num": poly_to_json(rf.num),
        "den": poly_to_json(rf.den),
        "var": "t",
        "offset": offset,
        "order": order,
        "terms_used": terms_used,
    }


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------

def _fmt_nested(c: Poly) -> str:
    """Render a v-polynomial coefficient, pulling a common minus sign out."""
    if c.degree == 0:
        return str(c.coeffs[0])
    if sum(1 for x in c.coeffs if x) == 1:
        return _fmt_poly(c, "v", descending=False)  # bare monomial
    if all(x <= 0 for x in c.coeffs) and any(x < 0 for x in c.coeffs):
        return "-(" + _fmt_poly(-c, "v", descending=False) + ")"
    return "(" + _fmt_poly(c, "v", descending=False) + ")"


def _fmt_poly(p: Poly, var="t", descending=True) -> str:
    if not p:
        return "0"
    terms = []
    indices = range(len(p.coeffs) - 1, -1, -1) if descending else range(len(p.coeffs))
    for i in indices:
        c = p.coeffs[i]
        if not c:
            continue
        if isinstance(c, Poly) and c.degree == 0:
            c = c.coeffs[0]
        if i == 0:
            body = _fmt_nested(c) if isinstance(c, Poly) else str(c)
        else:
            pow_txt = var if i == 1 else f"{var}^{i}"
            if isinstance(c, Poly):
                body = f"{_fmt_nested(c)}*{pow_txt}"
            elif c == 1:
                body = pow_txt
            elif c == -1:
                body = f"-{pow_txt}"
            else:
                body = f"{c}*{pow_txt}"
        terms.append(body)
    out = ""
    for body in terms:
        if not out:
            out = body
        elif body.startswith("-"):
            out += "-" + body[1:]
        else:
            out += "+" + body
    return out


def _leading_scalar(p: Poly):
    lead = p.coeffs[-1]
    while isinstance(lead, Poly):
        lead = lead.coeffs[-1]
    return lead


def _fmt_ratfunc(rf: RationalFunction) -> str:
    num, den = rf.num, rf.den
    if den.degree == 0 and den.coeffs[0] == 1:
        return _fmt_poly(num)
    if _leading_scalar(den) < 0:
        num, den = -num, -den
    num_txt = _fmt_poly(num)
    if sum(1 for c in num.coeffs if c) > 1:
        num_txt = f"({num_txt})"
    return f"{num_txt}/({_fmt_poly(den)})"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(args, payload: dict, pretty_text):
    """Print pretty_text() under --pretty, else the payload as JSON."""
    if args.pretty:
        print(pretty_text())
    else:
        print(json.dumps(payload))


def _gf_payload(result, emit_data=False) -> dict:
    """gf_to_json of a spanning.GFResult, with its data under emit_data."""
    payload = gf_to_json(result.gf, result.offset, result.spec.order, result.data_used)
    if emit_data:
        payload["data"] = [str(x) for x in result.data]
    return payload


def _cmd_guess(args) -> int:
    size = len(os.fsencode(args.data))
    if size > MAX_GUESS_BYTES:
        raise UsageError(f"--data is {size} bytes, more than {MAX_GUESS_BYTES}")
    data = _parse_csv(args.data)
    if len(data) < MIN_GUESS_TERMS:
        raise UsageError(f"--data needs at least {MIN_GUESS_TERMS} terms, got {len(data)}")
    if len(data) > MAX_FIT_TERMS:
        raise UsageError(f"--data takes at most {MAX_FIT_TERMS} terms, got {len(data)}")
    bits = sum(x.bit_length() for x in _primitive_ints(data)[0])
    if bits > MAX_GUESS_BYTES * math.log2(10):
        raise UsageError(f"--data clears to integers of {bits} bits in all, more than "
                         f"{MAX_GUESS_BYTES} decimal digits can write")
    spec = guess_rec(data)
    if spec is None:
        print(json.dumps({"error": "no recurrence found"}))
        return 1
    payload = {
        "initial": [_scalar_json(x) for x in spec.initial],
        "rec": [_scalar_json(x) for x in spec.rec],
    }
    _emit(args, payload, lambda: f"[{payload['initial']}, {payload['rec']}]")
    return 0


def _check_long(args, size: int, limit: int, what: str):
    if size >= limit and not args.allow_long:
        raise UsageError(
            f"{what} is a long-running stretch target; pass --allow-long to proceed"
        )


def _check_stream_work(k: int, n: int):
    if k * k * n > MAX_STREAM_WORK:
        raise UsageError(f"k^2 * n is {k * k * n} for k={k} (rows or --graph vertices) "
                         f"and n={n}, more than {MAX_STREAM_WORK}")


def _cmd_gf_grid(args) -> int:
    from . import spanning

    _check_long(args, args.k, LONG_RUN_K, f"k={args.k}")
    result = spanning.gf_grid(args.k, max_terms=args.max_terms)
    _emit(args, _gf_payload(result, args.emit_data), lambda: _fmt_ratfunc(result.gf))
    return 0


def _cmd_gf_product(args) -> int:
    from . import spanning

    g = _load_graph(args.graph)
    _check_long(args, g.n_vertices, LONG_RUN_GRAPH_VERTICES, f"a {g.n_vertices}-vertex graph")
    result = spanning.gf_spanning(g, max_terms=args.max_terms)
    _emit(args, _gf_payload(result, args.emit_data), lambda: _fmt_ratfunc(result.gf))
    return 0


def _cmd_gf_ver(args) -> int:
    from . import spanning

    if args.k is not None:
        _check_long(args, args.k, LONG_RUN_VER_K, f"k={args.k}")
        result = spanning.gf_ver_grid(args.k, max_terms=args.max_terms)
    else:
        g = _load_graph(args.graph)
        _check_long(args, g.n_vertices, LONG_RUN_VER_K, f"a {g.n_vertices}-vertex graph")
        result = spanning.gf_ver(g, max_terms=args.max_terms)
    _emit(args, _gf_payload(result), lambda: _fmt_ratfunc(result.gf))
    return 0


def _cmd_c_poly(args) -> int:
    from . import spanning

    _check_long(args, args.k, LONG_RUN_C_POLY_K, f"k={args.k}")
    poly = spanning.c_poly(args.k, max_terms=args.max_terms)
    payload = {"k": args.k, "c_poly": [str(c) for c in poly.coeffs]}
    _emit(args, payload, lambda: _fmt_poly(poly))
    return 0


def _cmd_resistance(args) -> int:
    from . import spanning

    _check_stream_work(args.k, args.n)
    value = spanning.resistance(args.k, args.n)
    payload = {"k": args.k, "n": args.n, "resistance": str(value)}
    _emit(args, payload, lambda: str(value))
    return 0


def _cmd_moments(args) -> int:
    from . import graphs, spanning

    if args.k is not None:
        _check_stream_work(args.k, args.n)  # before path_graph builds k - 1 edges
        g = graphs.path_graph(args.k)
    else:
        g = _load_graph(args.graph)
        _check_stream_work(g.n_vertices, args.n)
    report = spanning.moments(g, args.n)
    payload = {
        "n": report.n,
        "mean": str(report.mean),
        "variance": str(report.variance),
        "skewness": str(report.skewness) if report.skewness is not None else None,
        "kurtosis": str(report.kurtosis) if report.kurtosis is not None else None,
    }
    _emit(args, payload, lambda: f"n={report.n} mean={report.mean} variance={report.variance} "
                                 f"skewness={report.skewness} kurtosis={report.kurtosis}")
    return 0


def _prefixes(args):
    row, col = _parse_csv(args.row), _parse_csv(args.col)
    if not row or not col:
        raise UsageError("--row and --col each need at least one entry")
    return row, col


def _check_scheme_size(row, col):
    if len(row) + len(col) > MAX_TOEPLITZ_PREFIXES:
        raise UsageError(f"--row and --col have {len(row) + len(col)} entries together, "
                         f"more than {MAX_TOEPLITZ_PREFIXES} for a transfer scheme")


def _cmd_toeplitz_gf(args) -> int:
    from . import toeplitz

    row, col = _prefixes(args)
    if args.method == "transfer":
        _check_scheme_size(row, col)
        rf = toeplitz.gf_transfer(row, col, args.mode)
        terms_used = None
    else:
        fit_start = min(10, max(1, args.n // 2))
        window = args.n - fit_start + 1
        if window < MIN_GUESS_TERMS:
            raise UsageError(f"--n {args.n} leaves a guess window of {window} terms, "
                             f"fewer than {MIN_GUESS_TERMS}")
        rf = toeplitz.gf_family_guess(row, col, args.mode,
                                      fit_start=fit_start, fit_end=args.n)
        terms_used = args.n
    payload = gf_to_json(rf, 0, int(rf.den.degree), terms_used)
    payload["mode"] = args.mode
    payload["method"] = args.method
    _emit(args, payload, lambda: _fmt_ratfunc(rf))
    return 0


def _cmd_toeplitz_scheme(args) -> int:
    from . import toeplitz

    row, col = _prefixes(args)
    _check_scheme_size(row, col)
    scheme = toeplitz.children_scheme(row, col, args.mode)
    print(json.dumps(toeplitz.scheme_to_json(scheme)))
    return 0


_COMMANDS = {
    "guess": _cmd_guess,
    "gf-grid": _cmd_gf_grid,
    "gf-product": _cmd_gf_product,
    "gf-ver": _cmd_gf_ver,
    "c-poly": _cmd_c_poly,
    "resistance": _cmd_resistance,
    "moments": _cmd_moments,
    "toeplitz-gf": _cmd_toeplitz_gf,
    "toeplitz-scheme": _cmd_toeplitz_scheme,
}

_USAGE_ERRORS = (
    UsageError,
    BadVertexPair,
    DataTooShort,
    InconsistentSpec,
    NotConnected,
)


def run(argv) -> int:
    """Parse and execute; returns the exit code instead of exiting.  Every
    call in a process parses with the one parser the first call built."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoFitWithinBudget as exc:
        diagnostic = {"error": str(exc), "data": [str(x) for x in exc.data]}
        print(json.dumps(diagnostic))
        return 1
    except BudgetExceeded as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    except (InternalInconsistency, ValueError) as exc:
        # arguments were validated above, so a ValueError is a bug too
        print(json.dumps({"error": f"internal inconsistency: {exc}"}))
        return 3
    except ExactGFError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
