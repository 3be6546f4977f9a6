"""Span tracing from outside the library, and the per-layer metrics.

The tracer replaces each traced module attribute with a wrapper that
records a span (name, start, end, parent, case, quantity) and restores the
original on remove().  exactgf's modules bind their dependencies with
`from .core import det_bareiss`-style imports, so a function is wrapped at
every module attribute that binds it, not only where it is defined.
Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import time
from dataclasses import dataclass


def _nrows(args, kwargs, result):
    return args[0].nrows


def _length(args, kwargs, result):
    return len(result)


def _is_none(args, kwargs, result):
    return int(result is None)


def _exit_code(args, kwargs, result):
    return result


#: (module, attribute, span name, quantity recorded from the call).  The
#: module "core.Matrix" means the method on the class.
TRACE_POINTS = (
    ("core", "bandwidth", "core.bandwidth", None),
    ("core", "poly_gcd", "core.poly_gcd", None),
    ("core.Matrix", "delete_rows_cols", "core.Matrix.delete_rows_cols", None),
    ("graphs", "det_bareiss", "core.det_bareiss", _nrows),
    ("graphs", "laplacian", "graphs.laplacian", None),
    ("cfinite", "solve_linear", "core.solve_linear", None),
    ("cfinite", "solve_fraction_free", "core.solve_fraction_free", None),
    ("cfinite", "taylor_coeffs", "core.taylor_coeffs", None),
    ("cfinite", "guess_rec1", "cfinite.guess_rec1", None),
    ("spanning", "poly_gcd", "core.poly_gcd", None),
    ("spanning", "taylor_coeffs", "core.taylor_coeffs", None),
    ("spanning", "guess_rec", "cfinite.guess", _is_none),
    ("spanning", "guess_sym_rec", "cfinite.guess", _is_none),
    ("spanning", "c_to_r", "cfinite.c_to_r", None),
    ("spanning", "spanning_tree_count", "graphs.term", None),
    ("spanning", "two_forest_count", "graphs.term", None),
    ("spanning", "ver_polynomial", "graphs.term", None),
    ("spanning", "_fit_pipeline", "spanning._fit_pipeline", None),
    ("spanning", "gf_spanning", "spanning.gf_spanning", None),
    ("spanning", "gf_grid", "spanning.gf_grid", None),
    ("spanning", "gf_two_forest", "spanning.gf_two_forest", None),
    ("spanning", "c_poly", "spanning.c_poly", None),
    ("spanning", "gf_ver", "spanning.gf_ver", None),
    ("spanning", "gf_ver_grid", "spanning.gf_ver_grid", None),
    ("spanning", "moments", "spanning.moments", None),
    ("spanning", "resistance", "spanning.resistance", None),
    ("toeplitz", "det_bareiss", "core.det_bareiss", _nrows),
    ("toeplitz", "solve_linear", "core.solve_linear", None),
    ("toeplitz", "taylor_coeffs", "core.taylor_coeffs", None),
    ("toeplitz", "guess_rec", "cfinite.guess", _is_none),
    ("toeplitz", "gf_transfer", "toeplitz.gf_transfer", None),
    ("toeplitz", "children_scheme", "toeplitz.children_scheme", _length),
    ("toeplitz", "value_sequence", "toeplitz.value_sequence", _length),
    ("toeplitz", "gf_family_guess", "toeplitz.gf_family_guess", None),
    ("cli", "guess_rec", "cfinite.guess", _is_none),
    ("cli", "run", "cli.run", _exit_code),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    case: str
    qty: object = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.case = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self, gf):
        """Wrap every trace point that exists in the exactgf package gf;
        the ones that do not are listed in self.missing."""
        for module, attr, name, qty in TRACE_POINTS:
            owner = gf
            for part in module.split("."):
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{module}.{attr}")
                continue
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, qty))
            self._installed.append((owner, attr, original))

    def remove(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, qty):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.case)
            stack.append(len(spans))
            spans.append(span)
            try:
                span.start = clock()
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if qty is not None:
                span.qty = qty(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Each span's duration minus the time its direct children cover.
    Spans come from one thread, so siblings never overlap."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans, stdout_bytes):
    """The per-layer metrics, named <layer>.<function>.<quantity>."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def qty_sum(name):
        return sum(spans[i].qty or 0 for i in by_name.get(name, ()))

    def layer_self(layer):
        return sum(selfs[i] for i, s in enumerate(spans) if s.name.split(".")[0] == layer)

    fit = set(by_name.get("spanning._fit_pipeline", ()))
    graphs_s = secs("graphs.term")
    m = {
        "core.det_bareiss.calls": calls("core.det_bareiss"),
        "core.det_bareiss.s": secs("core.det_bareiss"),
        "core.det_bareiss.max_dim": max((spans[i].qty for i in by_name.get("core.det_bareiss", ())),
                                        default=0),
        "core.Matrix.delete_rows_cols.s": secs("core.Matrix.delete_rows_cols"),
        "core.bandwidth.s": secs("core.bandwidth"),
    }
    for fn in ("solve_linear", "solve_fraction_free", "poly_gcd", "taylor_coeffs"):
        m[f"core.{fn}.calls"] = calls(f"core.{fn}")
        m[f"core.{fn}.s"] = secs(f"core.{fn}")
    m.update({
        "graphs.laplacian.calls": calls("graphs.laplacian"),
        "graphs.laplacian.s": secs("graphs.laplacian"),
        "graphs.terms": calls("graphs.term"),
        "graphs.s": graphs_s,
        "graphs.terms_per_s": calls("graphs.term") / graphs_s if graphs_s else 0.0,
        "graphs.self_s": layer_self("graphs"),
        "cfinite.guess.calls": calls("cfinite.guess"),
        "cfinite.guess.s": secs("cfinite.guess"),
        "cfinite.guess.none": qty_sum("cfinite.guess"),
        "cfinite.orders_tried": calls("cfinite.guess_rec1"),
        "cfinite.c_to_r.s": secs("cfinite.c_to_r"),
        "cfinite.self_s": layer_self("cfinite"),
        "spanning.pipelines": len(fit),
        "spanning.guess_rounds": sum(1 for i in by_name.get("cfinite.guess", ())
                                     if spans[i].parent in fit),
        "spanning.moments.s": secs("spanning.moments"),
        "spanning.resistance.s": secs("spanning.resistance"),
        "spanning.self_s": layer_self("spanning"),
        "toeplitz.gf_transfer.calls": calls("toeplitz.gf_transfer"),
        "toeplitz.gf_transfer.s": secs("toeplitz.gf_transfer"),
        "toeplitz.children_scheme.s": secs("toeplitz.children_scheme"),
        "toeplitz.scheme_states": qty_sum("toeplitz.children_scheme"),
        "toeplitz.value_sequence.terms": qty_sum("toeplitz.value_sequence"),
        "toeplitz.value_sequence.s": secs("toeplitz.value_sequence"),
        "toeplitz.gf_family_guess.s": secs("toeplitz.gf_family_guess"),
        "toeplitz.self_s": layer_self("toeplitz"),
        "cli.run.calls": calls("cli.run"),
        "cli.run.s": secs("cli.run"),
        "cli.self_s": layer_self("cli"),
        "cli.nonzero_exits": sum(1 for i in by_name.get("cli.run", ()) if spans[i].qty),
        "cli.stdout_bytes": stdout_bytes,
    })
    return m


def dominant_shares(spans):
    """Inclusive time of the three stages the workloads were chosen to
    stress -- guessing, graph data generation and the transfer route's
    solve over Q(t) -- as shares of the time spent inside traced calls."""
    total = sum(s.duration for s in spans if s.parent < 0)
    shares = {"cfinite.guess": 0.0, "graphs.term": 0.0, "core.solve_linear(Q(t))": 0.0}
    for s in spans:
        if s.name in shares:
            shares[s.name] += s.duration
        elif s.name == "core.solve_linear" and spans[s.parent].name == "toeplitz.gf_transfer":
            shares["core.solve_linear(Q(t))"] += s.duration
    return {name: (t / total if total else 0.0) for name, t in shares.items()}
