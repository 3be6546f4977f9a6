"""Command-line surface: every pipeline behind one subcommand, JSON to
stdout by default, pretty algebraic text behind --pretty.

Exit codes: 0 success, 1 when a fit/budget/structure check fails (with a
JSON diagnostic), 2 for usage errors such as malformed input, an
out-of-range size or a fit whose proved window is over the limit, 3 when
an internal self-check fails or a pipeline raises ValueError on
validated arguments (a bug, not bad input).

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

from .cfinite import HELD_OUT, guess_rec, guess_window
from .core import Poly, RationalFunction, _primitive_ints
from .errors import (
    BadVertexPair,
    DataTooShort,
    ExactGFError,
    InconsistentSpec,
    InternalInconsistency,
    NoFitWithinBudget,
    NotConnected,
)

#: The base graph's vertex count from which a gf-ver or gf-product run is
#: a stretch target, refused unless asked nicely with --allow-long: both
#: run one tree fit (spanning._tree_fit), whose time the graph's size, not
#: the fit window, sets.  With process start gf-ver on 5 rows takes about
#: 0.2 s and 6 rows 0.7 s, a third of it the tree-minor stream over Evals
#: at 201 points of v, the rest the fit at those points; 7 rows, at 433
#: points, take about 10 s.  gf-product fits random 7-vertex graphs
#: (window 132) in 0.03 s in process, but K_30 (window 64) takes 4.3 s and
#: the 30-vertex star (window 120) 3.5 s with process start.
LONG_RUN_VERTICES = 7

#: guess_rec tries orders up to len(data) // 2 - 2, so fewer terms than
#: an order-1 fit needs can never fit.
MIN_GUESS_TERMS = guess_window(1)

#: Upper limits on the sizes that set a run's length, so a huge value is a
#: usage error, not hours of work (CPython 3.11, one core of a shared
#: 2-core x86-64 host).  MAX_FIT_TERMS caps guess --data's terms and every
#: fit command's window, guess_window of its proved order bound, before any
#: data exist: gf-grid, gf-ver and c-poly --k 5..7 reach 132 terms.
MAX_FIT_TERMS = 160
#: resistance and moments jump to layer n (graphs._jump), k the rows or a
#: --graph's vertices: by doubling scalar continuants of m = min(n + 1, k)
#: terms, truncated below n = k and reduced modulo a degree-k polynomial
#: from n = k on, about m^2 log n operations on numbers of O(n) digits,
#: and evaluating them against m integer powers of a k-square matrix, each
#: built once, about k^2 m; then an elimination of at most k^3 operations
#: on numbers of O(k n) digits, which the answer has too.  k^3 * n <=
#: MAX_STREAM_WORK and k * n <= MAX_PRODUCT_VERTICES bound them.  Along
#: these caps, the fastest of six cold runs (two passes of three) with
#: process start (the host's speed varied by up to 2x between runs):
#:
#:     k, n        2, 20000  4, 10000  8, 5000  10, 3000  20, 375  30, 111  50, 24  100, 3
#:     moments     0.28 s    0.59 s    1.8 s    2.0 s     1.5 s    1.3 s    0.81 s  0.12 s
#:     resistance  0.11 s    0.16 s    0.47 s   0.49 s    0.33 s   0.28 s   0.21 s  0.22 s
#:
#: and, at k = 144, n = 1, the largest k, 0.11 s and 0.20 s.
#: A --graph file has at most MAX_GRAPH_VERTICES vertices and MAX_GRAPH_BYTES bytes.
#: Its multiplicities are uncapped, so moments and the tree fits also cap
#: the tree count's bits (_check_answer_bits) at the last n they count,
#: 105000 for moments at (8, 5000) above: two vertices joined by a
#: 3000-digit multiplicity took 1.7 s in process at n = 12 (119604 bits).
#: A tree fit of them counts to n = 10 (99670 bits) and prints, but K_4 with
#: that multiplicity on every edge (358884 bits at n = 12) took 6.9 s with
#: process start and is refused.
MAX_STREAM_WORK = 3_000_000
MAX_PRODUCT_VERTICES = 40_000
MAX_ANSWER_BITS = 120_000
MAX_GRAPH_VERTICES = 30
MAX_GRAPH_BYTES = 1 << 20
#: guess --data's length in bytes, checked before parsing.  The costliest
#: guess is a list that nothing fits, where the order finder runs modulo
#: primes until their product passes a Hadamard bound that grows with the
#: terms' size: 160 terms of noise took 0.04 s at 2 digits, 4.2 s at 200
#: (32 KB), 16 s at 600, 27 s at 800 (128 KB) and 41 s at 1000 (160 KB);
#: 40 terms of 3200 digits (128 KB) took 13 s.  It works on the terms
#: cleared of denominators (core._primitive_ints), so fraction data are
#: refused, after parsing, when these have more bits in all than
#: MAX_GUESS_BYTES decimal digits can write: 160 terms 1/d with random
#: 6-digit d (1.4 KB) clear to about 330000 bits, under that bound, and
#: took 20 s; with 8-digit d (1.8 KB), refused, to about 500000 bits, 45 s.
MAX_GUESS_BYTES = 1 << 17
#: toeplitz-gf --method transfer and toeplitz-scheme: a k1/k2 band has at
#: most toeplitz.scheme_size_bound = C(k1 + k2 - 2, k1 - 1) transfer states,
#: which all-ones bands reach, so k1 + k2 is capped; 7/7 is the largest split.
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


_positive = _int_in_range(1)
#: gf-grid, gf-ver and c-poly --k: at most as many rows as a --graph file
#: has vertices, so the path whose bound sizes the window stays small.
_grid_rows = _int_in_range(1, MAX_GRAPH_VERTICES)


@functools.cache
def _build_parser() -> _Parser:
    # --help shows the summary and the exit codes, not the wire format
    p = _Parser(prog="exactgf", description=__doc__.split("\n\nJSON wire format")[0])
    sub = p.add_subparsers(dest="command", required=True)
    pretty, band = _Parser(add_help=False), _Parser(add_help=False)
    pretty.add_argument("--pretty", action="store_true")
    band.add_argument("--row", required=True, help="comma-separated first-row prefix")
    band.add_argument("--col", required=True, help="comma-separated first-column prefix")
    band.add_argument("--mode", choices=("det", "perm"), default="det")

    def command(name, handler, help_text, parents=(pretty,), k_or_graph=None):
        """A subcommand that handler(args) executes; with k_or_graph, the
        required choice of --k of that type or --graph."""
        q = sub.add_parser(name, help=help_text, parents=parents)
        q.set_defaults(handler=handler)
        if k_or_graph:
            which = q.add_mutually_exclusive_group(required=True)
            which.add_argument("--k", type=k_or_graph)
            which.add_argument("--graph")
        return q

    q = command("guess", _cmd_guess, "fit a constant-coefficient recurrence")
    q.add_argument("--data", required=True, help="comma-separated exact terms")
    q = command("gf-grid", _cmd_gf_grid, "spanning-tree generating function of the k-row grid")
    q.add_argument("--k", type=_grid_rows, required=True)
    q.add_argument("--emit-data", action="store_true")
    q = command("gf-product", _cmd_gf_product, "spanning-tree generating function of graph x path")
    q.add_argument("--graph", required=True, help="graph JSON file")
    q.add_argument("--allow-long", action="store_true")
    q.add_argument("--emit-data", action="store_true")
    q = command("gf-ver", _cmd_gf_ver, "bivariate vertical-edge generating function",
                k_or_graph=_grid_rows)
    q.add_argument("--allow-long", action="store_true")
    q = command("c-poly", _cmd_c_poly, "two-forest cofactor polynomial C_k")
    q.add_argument("--k", type=_int_in_range(2, MAX_GRAPH_VERTICES), required=True)
    q = command("resistance", _cmd_resistance, "corner-to-corner grid resistance")
    q.add_argument("--k", type=_positive, required=True)
    q.add_argument("--n", type=_positive, required=True)
    q = command("moments", _cmd_moments, "vertical-edge statistic moments", k_or_graph=_positive)
    q.add_argument("--n", type=_positive, required=True)
    q = command("toeplitz-gf", _cmd_toeplitz_gf, "banded Toeplitz det/perm GF", (pretty, band))
    q.add_argument("--method", choices=("guess", "transfer"), default="transfer")
    command("toeplitz-scheme", _cmd_toeplitz_scheme, "dump the minor-state scheme", (band,))
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
    """Render a v-polynomial coefficient of degree >= 1, pulling a common minus sign out."""
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
    return terms[0] + "".join(b if b.startswith("-") else "+" + b for b in terms[1:])


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

def _print(render):
    """Print render(), where all output is rendered, with CPython's int-to-str
    limit lifted: exact results pass it (moments --k 2 --n 5000 has 5720
    digits).  Input is parsed under it, so a huge integer there is a usage
    error."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(render())
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit(args, payload, pretty):
    """Print pretty(payload()) under --pretty, else payload() as JSON."""
    _print(lambda: pretty(payload()) if args.pretty else json.dumps(payload()))


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
        _print(lambda: json.dumps({"error": "no recurrence found"}))
        return 1
    _emit(args, lambda: {"initial": [_scalar_json(x) for x in spec.initial],
                         "rec": [_scalar_json(x) for x in spec.rec]},
          lambda payload: f"[{payload['initial']}, {payload['rec']}]")
    return 0


def _check_window(window: int, what: str, cap: int = MAX_FIT_TERMS, hint: str = ""):
    """Refuse a fit whose proved window is over cap terms."""
    if window > cap:
        raise UsageError(f"{what} needs a fit window of {window} terms, more than {cap}{hint}")


def _base_graph(args, check=lambda k: None):
    """(g, what) for the base graph of a --k or --graph run and its name in
    messages: the path on --k vertices, check(k) passed before it is built,
    or the --graph file's graph, check passed on its vertex count."""
    from . import graphs

    if vars(args).get("k") is not None:
        check(args.k)
        return graphs.path_graph(args.k), f"k={args.k}"
    g = _load_graph(args.graph)
    check(g.n_vertices)
    return g, f"a {g.n_vertices}-vertex graph"


def _admit(args, long_run: bool = True):
    """The _base_graph g of a tree fit of g x P_n (spanning._tree_fit),
    refused when its window, from graphs._order_bound B (cached for the
    pipeline), is over MAX_FIT_TERMS, when its last term, n = B + 2 +
    HELD_OUT on the mirrored window, can pass MAX_ANSWER_BITS, or, when
    long_run and without --allow-long, when it has LONG_RUN_VERTICES or
    more vertices; a disconnected g first, as NotConnected."""
    from .graphs import _order_bound

    g, what = _base_graph(args)
    if not g.is_connected():
        raise NotConnected("base graph must be connected")
    _check_window(guess_window(_order_bound(g)), what)
    _check_answer_bits(g, _order_bound(g) + 2 + HELD_OUT)
    if long_run and g.n_vertices >= LONG_RUN_VERTICES and not args.allow_long:
        raise UsageError(f"{what} is a long-running stretch target; pass --allow-long to proceed")
    return g


def _check_stream_work(k: int, n: int):
    for what, size, cap in (("k^3 * n", k ** 3 * n, MAX_STREAM_WORK),
                            ("k * n", k * n, MAX_PRODUCT_VERTICES)):
        if size > cap:
            raise UsageError(f"{what} is {size} for k={k} (rows or --graph vertices) "
                             f"and n={n}, more than {cap}")


def _check_answer_bits(g, n: int):
    """Refuse a count on g x P_n when its tree count (graphs._order_bound)
    can pass MAX_ANSWER_BITS bits: each of the k - 1 factors a_n(lambda_i) <=
    lambda_i (lambda_i + 2)^(n-1), lambda_i <= 2 D, D the largest weighted degree."""
    from .graphs import laplacian

    k, top = g.n_vertices, max((row[i] for i, row in enumerate(laplacian(g).rows)), default=0)
    bits = n * (k - 1) * (2 * top + 2).bit_length()
    if bits > MAX_ANSWER_BITS:
        raise UsageError(f"n * (k - 1) * bit_length(2 * max degree + 2) is {bits} for k={k} "
                         f"and n={n}, more than {MAX_ANSWER_BITS}")


def _cmd_gf_grid(args) -> int:
    from . import spanning

    _admit(args, long_run=False)
    result = spanning.gf_grid(args.k)
    _emit(args, lambda: _gf_payload(result, args.emit_data), lambda _: _fmt_ratfunc(result.gf))
    return 0


def _cmd_gf_product(args) -> int:
    from . import spanning

    result = spanning.gf_spanning(_admit(args))
    _emit(args, lambda: _gf_payload(result, args.emit_data), lambda _: _fmt_ratfunc(result.gf))
    return 0


def _cmd_gf_ver(args) -> int:
    from . import spanning

    result = spanning.gf_ver(_admit(args))
    _emit(args, lambda: _gf_payload(result), lambda _: _fmt_ratfunc(result.gf))
    return 0


def _cmd_c_poly(args) -> int:
    from . import spanning

    _check_window(guess_window(spanning._forest_bound(args.k)), f"k={args.k}")
    poly = spanning.c_poly(args.k)
    _emit(args, lambda: {"k": args.k, "c_poly": [str(c) for c in poly.coeffs]},
          lambda _: _fmt_poly(poly))
    return 0


def _cmd_resistance(args) -> int:
    from . import spanning

    _check_stream_work(args.k, args.n)
    value = spanning.resistance(args.k, args.n)
    _emit(args, lambda: {"k": args.k, "n": args.n, "resistance": str(value)},
          lambda payload: payload["resistance"])
    return 0


def _cmd_moments(args) -> int:
    from . import spanning

    g, _what = _base_graph(args, lambda k: _check_stream_work(k, args.n))
    _check_answer_bits(g, args.n)
    report = spanning.moments(g, args.n)
    _emit(args, lambda: {
        "n": report.n,
        "mean": str(report.mean),
        "variance": str(report.variance),
        "skewness": str(report.skewness) if report.skewness is not None else None,
        "kurtosis": str(report.kurtosis) if report.kurtosis is not None else None,
    }, lambda payload: " ".join(f"{key}={value}" for key, value in payload.items()))
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
        window = guess_window(toeplitz.scheme_size_bound(row, col))
        cap = toeplitz.PERMANENT_ORACLE_CAP if args.mode == "perm" else MAX_FIT_TERMS
        _check_window(window, f"a {len(row)}/{len(col)} band", cap, "; use --method transfer")
        rf = toeplitz.gf_family_guess(row, col, args.mode, 1, window)
        terms_used = window
    _emit(args, lambda: {**gf_to_json(rf, 0, int(rf.den.degree), terms_used),
                         "mode": args.mode, "method": args.method},
          lambda _: _fmt_ratfunc(rf))
    return 0


def _cmd_toeplitz_scheme(args) -> int:
    from . import toeplitz

    row, col = _prefixes(args)
    _check_scheme_size(row, col)
    scheme = toeplitz.children_scheme(row, col, args.mode)
    _print(lambda: json.dumps(toeplitz.scheme_to_json(scheme)))
    return 0


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
        return args.handler(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoFitWithinBudget as exc:
        _print(lambda: json.dumps({"error": str(exc), "data": [str(x) for x in exc.data]}))
        return 1
    except (InternalInconsistency, ValueError) as exc:
        # arguments were validated above, so a ValueError is a bug too
        _print(lambda: json.dumps({"error": f"internal inconsistency: {exc}"}))
        return 3
    except ExactGFError as exc:
        _print(lambda: json.dumps({"error": str(exc)}))
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
