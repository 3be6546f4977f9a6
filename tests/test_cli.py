"""CLI surface: JSON/pretty output, exit codes, and round trips."""
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from exactgf import cli, graphs, spanning, toeplitz
from exactgf.cfinite import CFiniteSpec, seq_from_rec
from exactgf.cli import (
    MAX_FIT_TERMS,
    MAX_GRAPH_BYTES,
    MAX_GRAPH_VERTICES,
    MAX_GUESS_BYTES,
    MAX_PRODUCT_VERTICES,
    MAX_STREAM_WORK,
    MAX_TOEPLITZ_PREFIXES,
    run,
)
from exactgf.core import Poly, RationalFunction
from exactgf.errors import InternalInconsistency
from exactgf.graphs import path_graph


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_guess_golden(capsys):
    code, out, _ = invoke(
        capsys, "guess", "--data", "1,4,15,56,209,780,2911,10864,40545,151316"
    )
    assert code == 0
    assert json.loads(out) == {"initial": [1, 4], "rec": [4, -1]}


def test_guess_no_fit_exit_one(capsys):
    code, out, _ = invoke(capsys, "guess", "--data", "1,2,4,8,16,32,64,129")
    assert code == 1
    assert "error" in json.loads(out)


def test_guess_too_few_terms_is_usage_error(capsys):
    for data in ("", "1,1,2,3,5"):
        code, out, err = invoke(capsys, "guess", "--data", data)
        assert code == 2
        assert out == ""
        assert "at least 6 terms" in err


def test_max_terms_below_guess_minimum_is_usage_error(capsys):
    # --max-terms is gone: each fit runs its proved window, never fewer
    # than the guesser's 6 terms, and the graph file is never read
    for argv in (("gf-grid", "--k", "2"), ("gf-product", "--graph", "missing.json"),
                 ("gf-ver", "--k", "2"), ("c-poly", "--k", "2")):
        for bad in ("-3", "0", "5"):
            code, out, err = invoke(capsys, *argv, "--max-terms", bad)
            assert code == 2
            assert out == ""
            assert "unrecognized arguments: --max-terms" in err
    # the smallest window: order bound 1, 6 terms and six held out
    code, out, _ = invoke(capsys, "gf-grid", "--k", "1")
    payload = json.loads(out)
    assert code == 0 and payload["den"] == ["1", "-1"]
    assert payload["terms_used"] == cli.MIN_GUESS_TERMS + spanning.HELD_OUT


def test_toeplitz_guess_window_below_minimum_is_usage_error(capsys):
    # --n is gone: the guess window is 2B + 4 for B the band's transfer
    # states, never below the guesser's 6 terms
    family = ("toeplitz-gf", "--row", "2,3", "--col", "2,4,5", "--mode", "det")
    for method in ("guess", "transfer"):
        for n in ("3", "8"):
            code, out, err = invoke(capsys, *family, "--method", method, "--n", n)
            assert code == 2
            assert out == ""
            assert "unrecognized arguments: --n" in err
    code, out, _ = invoke(capsys, *family, "--method", "guess")
    assert code == 0 and json.loads(out)["terms_used"] == 2 * 3 + 4
    code, out, _ = invoke(capsys, "toeplitz-gf", "--row", "1", "--col", "1", "--method", "guess")
    payload = json.loads(out)
    assert code == 0 and payload["den"] == ["1", "-1"]
    assert payload["terms_used"] == cli.MIN_GUESS_TERMS


def test_gf_grid_pretty_two_rows(capsys):
    code, out, _ = invoke(capsys, "gf-grid", "--k", "2", "--pretty")
    assert code == 0
    assert out.strip() == "t/(t^2-4*t+1)"


def test_gf_ver_pretty_prints_bivariate_coefficients(capsys):
    # v-polynomial coefficients: bare monomials, parenthesised sums, and a
    # minus sign pulled out of an all-negative sum
    for k, want in ((2, "v*t/(t^2-(2+2*v)*t+1)"),
                    (3, "(-v^2*t^3+v^2*t)/(t^4-(4+8*v+3*v^2)*t^3+(6+16*v+10*v^2)*t^2"
                        "-(4+8*v+3*v^2)*t+1)")):
        code, out, _ = invoke(capsys, "gf-ver", "--k", str(k), "--pretty")
        assert code == 0 and out == want + "\n"


def test_gf_grid_json(capsys):
    code, out, _ = invoke(capsys, "gf-grid", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["num"] == ["0", "1"]
    assert payload["den"] == ["1", "-4", "1"]
    assert payload["offset"] == 1


def test_toeplitz_transfer_pretty(capsys):
    code, out, _ = invoke(
        capsys, "toeplitz-gf", "--row", "2,3", "--col", "2,4,5",
        "--mode", "det", "--method", "transfer", "--pretty",
    )
    assert code == 0
    assert out.strip() == "-1/(45*t^3-12*t^2+2*t-1)"


def test_toeplitz_guess_and_transfer_agree(capsys):
    _, out_guess, _ = invoke(
        capsys, "toeplitz-gf", "--row", "2,3", "--col", "2,4,5",
        "--mode", "det", "--method", "guess",
    )
    _, out_transfer, _ = invoke(
        capsys, "toeplitz-gf", "--row", "2,3", "--col", "2,4,5",
        "--mode", "det", "--method", "transfer",
    )
    a, b = json.loads(out_guess), json.loads(out_transfer)
    assert a["num"] == b["num"] and a["den"] == b["den"]


_ENTRIES = st.integers(-3, 3)


@st.composite
def _int_bands(draw):
    """Row and column prefixes of an int band up to 4/4 sharing their corner."""
    corner = draw(_ENTRIES)
    return ([corner] + draw(st.lists(_ENTRIES, max_size=3)),
            [corner] + draw(st.lists(_ENTRIES, max_size=3)))


def _quiet_run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(_int_bands(), st.sampled_from(("det", "perm")))
@example(([2, 1, 1, 1], [2, 3, 3, 3]), "det")
@example(([1, 1, 1], [1, 1, 1]), "perm")
@example(([0, 0, 0, 0], [0, 0, 0, 0]), "det")
def test_toeplitz_guess_equals_transfer_on_every_admitted_band(band, mode):
    # the guess fits 2B + 4 values, B = C(k1 + k2 - 2, k1 - 1) the proved
    # bound on the transfer states, so no admitted guess ends in
    # NoFitWithinBudget (exit 1), and it is the transfer route's function
    row, col = band
    family = ("toeplitz-gf", "--row=" + ",".join(map(str, row)),
              "--col=" + ",".join(map(str, col)), "--mode", mode)
    window = 2 * math.comb(len(row) + len(col) - 2, len(row) - 1) + 4
    code, out, err = _quiet_run(*family, "--method", "guess")
    if mode == "perm" and window > toeplitz.PERMANENT_ORACLE_CAP:
        assert code == 2 and out == "" and "use --method transfer" in err
        return
    assert code == 0, out
    guess = json.loads(out)
    code, out, _ = _quiet_run(*family, "--method", "transfer")
    transfer = json.loads(out)
    assert code == 0 and guess["terms_used"] == window
    assert [guess[key] for key in ("num", "den", "order")] == \
        [transfer[key] for key in ("num", "den", "order")]


def test_toeplitz_fraction_entries(capsys):
    # a/b entries; det A_1 = 1/2 and det A_2 = 1/4 - 15/7 = -53/28
    family = ("--row", "1/2,3,-2/3", "--col", "1/2,5/7", "--mode", "det")
    code, out, _ = invoke(capsys, "toeplitz-gf", *family, "--method", "transfer", "--pretty")
    assert code == 0
    assert out.strip() == "294/(100*t^3+630*t^2-147*t+294)"
    _, out_guess, _ = invoke(capsys, "toeplitz-gf", *family, "--method", "guess")
    _, out_transfer, _ = invoke(capsys, "toeplitz-gf", *family, "--method", "transfer")
    a, b = json.loads(out_guess), json.loads(out_transfer)
    assert a["num"] == b["num"] and a["den"] == b["den"]


def test_emit_data_round_trip(capsys):
    code, out, _ = invoke(capsys, "gf-grid", "--k", "3", "--emit-data")
    assert code == 0
    payload = json.loads(out)
    code, out2, _ = invoke(capsys, "guess", "--data", ",".join(payload["data"]))
    assert code == 0
    guessed = json.loads(out2)
    # same recurrence: den = 1 - sum(rec_i t^i)
    den = [1] + [-c for c in guessed["rec"]]
    assert [str(c) for c in den] == payload["den"]


def test_emit_data_prints_the_generated_terms(monkeypatch, capsys):
    result = spanning.gf_grid(3)
    code, out, _ = invoke(capsys, "gf-grid", "--k", "3", "--emit-data")
    assert code == 0
    # certification makes the generated terms equal to the recurrence's
    # replay, which the flag printed before, so stdout is byte-identical
    replayed = [str(x) for x in seq_from_rec(result.spec, result.data_used)]
    payload = cli.gf_to_json(result.gf, 1, result.spec.order, result.data_used)
    assert out == json.dumps({**payload, "data": replayed}) + "\n"
    # and the terms printed are the ones the result carries
    marked = dataclasses.replace(result, terms=tuple(f"term{i}" for i in range(result.data_used)))
    monkeypatch.setattr(spanning, "gf_grid", lambda k: marked)
    code, out, _ = invoke(capsys, "gf-grid", "--k", "3", "--emit-data")
    assert code == 0 and json.loads(out)["data"] == list(marked.data)


def test_resistance_json(capsys):
    code, out, _ = invoke(capsys, "resistance", "--k", "1", "--n", "5")
    assert code == 0
    assert json.loads(out)["resistance"] == "4"


def test_moments_json(capsys):
    code, out, _ = invoke(capsys, "moments", "--k", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == "3/2"
    assert payload["variance"] == "1/4"


def test_c_poly_pretty(capsys):
    code, out, _ = invoke(capsys, "c-poly", "--k", "2", "--pretty")
    assert code == 0
    assert out.strip() == "t-1"


def test_gf_ver_json(capsys):
    code, out, _ = invoke(capsys, "gf-ver", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["num"] == [[], [0, 1]]
    assert payload["den"] == [[1], [-2, -2], [1]]


def test_gf_json_shapes():
    out = spanning.gf_grid(2)
    payload = cli.gf_to_json(out.gf, out.offset, out.spec.order, out.data_used)
    assert payload["num"] == ["0", "1"]
    assert payload["den"] == ["1", "-4", "1"]
    assert payload["offset"] == 1 and payload["order"] == 2

    bi = spanning.gf_ver_grid(2)
    payload = cli.gf_to_json(bi.gf, bi.offset, bi.spec.order, bi.data_used)
    assert payload["num"] == [[], [0, 1]]
    assert payload["den"] == [[1], [-2, -2], [1]]


def test_toeplitz_scheme_dump(capsys):
    code, out, _ = invoke(capsys, "toeplitz-scheme", "--row", "2,3", "--col", "2,4,5")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["states"]) == 3
    assert payload["states"][0]["row"] == ["2", "3"]
    assert payload["transitions"][0] == [["2", 0], ["-3", 1]]


def _path_file(tmp_path, k):
    path = tmp_path / f"path{k}.json"
    edges = [[i, i + 1, "other", 1] for i in range(k - 1)]
    path.write_text(json.dumps({"n": k, "edges": edges}))
    return str(path)


def _refuse_every_fit(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a fit ran on a refused window")

    for name in ("gf_grid", "gf_spanning", "gf_ver", "gf_ver_grid", "c_poly", "gf_two_forest"):
        monkeypatch.setattr(spanning, name, never)
    for name in ("gf_family_guess", "value_sequence", "ryser_permanent"):
        monkeypatch.setattr(toeplitz, name, never)


def test_fit_windows_over_the_cap_are_usage_errors(monkeypatch, tmp_path, capsys):
    # each window is 2B + 4 for the command's proved order bound B, worked
    # out before any data exist: 2^(k-1) for k rows or a k-vertex path,
    # (k + 3) 2^(k-2) for c-poly, C(k1 + k2 - 2, k1 - 1) for a k1/k2 band,
    # whose permanents the oracle computes up to n = 20 only
    _refuse_every_fit(monkeypatch)
    ones = ("--row", "1,1,1,1,1", "--col", "1,1,1,1,1,1")
    for argv, window, cap in (
            (("gf-grid", "--k", "8"), 260, MAX_FIT_TERMS),
            (("c-poly", "--k", "6"), 292, MAX_FIT_TERMS),
            (("gf-ver", "--k", "8"), 260, MAX_FIT_TERMS),
            (("gf-ver", "--k", "8", "--allow-long"), 260, MAX_FIT_TERMS),
            (("gf-product", "--graph", _path_file(tmp_path, 8)), 260, MAX_FIT_TERMS),
            (("gf-product", "--graph", _path_file(tmp_path, 8), "--allow-long"), 260,
             MAX_FIT_TERMS),
            (("toeplitz-gf", *ones, "--method", "guess"), 256, MAX_FIT_TERMS),
            (("toeplitz-gf", "--row", "1,1,1", "--col", "1,1,1,1", "--mode", "perm",
              "--method", "guess"), 24, toeplitz.PERMANENT_ORACLE_CAP)):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert f"needs a fit window of {window} terms, more than {cap}" in err
        assert ("use --method transfer" in err) == (argv[0] == "toeplitz-gf")
    # the old stretch-target switch is gone from the commands the window bounds
    for argv in (("gf-grid", "--k", "2"), ("c-poly", "--k", "2")):
        code, out, err = invoke(capsys, *argv, "--allow-long")
        assert code == 2 and out == "" and "unrecognized arguments: --allow-long" in err


def test_fit_commands_certify_at_the_edge_of_their_window(capsys):
    # the largest windows admitted fit, and terms_used follows the window
    # (plus six held-out terms for the graph families)
    band = ("toeplitz-gf", "--row", "2,1,1,1", "--col", "2,3,3,3")
    for argv, order, terms_used in ((("gf-grid", "--k", "7"), 48, 138),
                                    (("gf-grid", "--k", "6"), 32, 74),
                                    ((*band, "--method", "guess"), 20, 44),
                                    (("toeplitz-gf", "--row", "1,1,1", "--col", "1,1,1",
                                      "--mode", "perm", "--method", "guess"), 5, 16)):
        code, out, _ = invoke(capsys, *argv)
        payload = json.loads(out)
        assert code == 0 and (payload["order"], payload["terms_used"]) == (order, terms_used)
    code, out, _ = invoke(capsys, "c-poly", "--k", "5")
    assert code == 0 and len(json.loads(out)["c_poly"]) == 33


def test_long_run_gates_of_the_other_pipelines(monkeypatch, tmp_path, capsys):
    assert (cli.LONG_RUN_VER_K, cli.LONG_RUN_GRAPH_VERTICES) == (7, 7)
    ran = []

    def stub(result):
        def call(*args, **kwargs):
            ran.append(args[0])
            return result
        return call

    ver, grid = spanning.gf_ver_grid(2), spanning.gf_grid(2)
    monkeypatch.setattr(spanning, "gf_ver", stub(ver))
    monkeypatch.setattr(spanning, "gf_spanning", stub(grid))
    for command, size_flag, limit in (("gf-ver", "--k", cli.LONG_RUN_VER_K),
                                      ("gf-ver", "--graph", cli.LONG_RUN_VER_K),
                                      ("gf-product", "--graph", cli.LONG_RUN_GRAPH_VERTICES)):
        for size, extra, gated in ((limit - 1, (), False), (limit, (), True),
                                   (limit, ("--allow-long",), False)):
            value = _path_file(tmp_path, size) if size_flag == "--graph" else str(size)
            del ran[:]
            code, out, err = invoke(capsys, command, size_flag, value, *extra)
            if gated:
                assert code == 2 and out == "" and "--allow-long" in err
                assert ran == []
            else:
                assert code == 0 and len(ran) == 1


def test_malformed_graph_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _out, err = invoke(capsys, "gf-product", "--graph", str(bad))
    assert code == 2
    assert "graph JSON" in err


@pytest.mark.parametrize("graph", [
    {"n": 2, "edges": [[0, 1, "other", "2"]]},  # a string multiplicity
    {"n": 2, "edges": [[0, 1, "other", [2]]]},  # a list multiplicity
    {"n": 2, "edges": [[0, 1.0, "other"]]},  # a float vertex
    {"n": 2, "edges": [[0, 1, "other", 1.5]]},  # a float multiplicity
    {"n": 2.9, "edges": [[0, 1, "other"]]},  # a float vertex count
    {"n": -1, "edges": []},  # a negative vertex count
    {"n": 2, "edges": [[0, 1, "other", True]]},  # a boolean multiplicity
    {"n": True, "edges": []},  # a boolean vertex count
], ids=["mult-string", "mult-list", "vertex-float", "mult-float", "n-float", "n-negative",
        "mult-true", "n-true"])
def test_graph_files_take_integers_only(graph, monkeypatch, tmp_path, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a pipeline ran on a malformed graph")

    for name in ("gf_spanning", "moments"):
        monkeypatch.setattr(spanning, name, never)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    for argv in (("gf-product", "--graph", str(path)),
                 ("moments", "--graph", str(path), "--n", "3")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert f"cannot read graph JSON {str(path)!r}" in err


def test_graph_file_pipeline(tmp_path, capsys):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({
        "n": 3,
        "edges": [[0, 1, "other", 1], [1, 2, "other", 1], [0, 2, "other", 1]],
    }))
    code, out, _ = invoke(capsys, "gf-product", "--graph", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] >= 1


def test_unknown_flag_rejected(capsys):
    code, _out, err = invoke(capsys, "gf-grid", "--k", "2", "--bogus")
    assert code == 2


def test_bad_vertex_pair_is_usage_error(capsys):
    code, _out, _err = invoke(capsys, "resistance", "--k", "1", "--n", "1")
    assert code == 2


def test_failed_transfer_fit_is_an_internal_inconsistency(monkeypatch, capsys):
    # an order-m fit through 2m + 3 powers of an m-state matrix cannot fail
    # (Cayley-Hamilton), so a failure is a bug, not an honest "no fit"
    monkeypatch.setattr(toeplitz, "guess_rec", lambda data: None)
    with pytest.raises(InternalInconsistency):
        toeplitz.gf_transfer([2, 3], [2, 4, 5], "det")
    # and so is a fit that does not re-expand to the transfer terms
    monkeypatch.setattr(toeplitz, "guess_rec", lambda data: CFiniteSpec([1], [1, -1]))
    with pytest.raises(InternalInconsistency):
        toeplitz.gf_transfer([2, 3], [2, 4, 5], "det")
    code, out, _err = invoke(capsys, "toeplitz-gf", "--row", "2,3", "--col", "2,4,5")
    assert code == 3
    assert "internal inconsistency" in json.loads(out)["error"]


def test_internal_inconsistency_exit_three(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalInconsistency("series does not reproduce the data")

    monkeypatch.setattr(spanning, "gf_grid", broken)
    code, out, _err = invoke(capsys, "gf-grid", "--k", "2")
    assert code == 3
    assert "internal inconsistency" in json.loads(out)["error"]


def test_zero_denominator_in_numeric_list_is_usage_error(capsys):
    for argv in (("guess", "--data", "1/0,1,2,3,4,5"),
                 ("toeplitz-gf", "--row", "1/0", "--col", "1"),
                 ("toeplitz-scheme", "--row", "1", "--col", "1,2/0")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "bad numeric list" in err


def test_empty_toeplitz_prefix_is_usage_error(capsys):
    for argv in (("toeplitz-gf", "--row", ",", "--col", "1"),
                 ("toeplitz-scheme", "--row", "1", "--col", "")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "at least one entry" in err


def test_out_of_range_sizes_are_parser_usage_errors(capsys):
    for argv, flag in ((("gf-grid", "--k", "0"), "--k"),
                       (("gf-ver", "--k", "-1"), "--k"),
                       (("c-poly", "--k", "1"), "--k"),
                       (("moments", "--k", "2", "--n", "0"), "--n"),
                       (("resistance", "--k", "-2", "--n", "-3"), "--k"),
                       (("resistance", "--k", "2", "--n", "0"), "--n")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: must be at least" in err


def test_value_error_from_a_pipeline_exits_three(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("validated arguments reached a failing check")

    monkeypatch.setattr(spanning, "gf_grid", broken)
    code, out, err = invoke(capsys, "gf-grid", "--k", "2")
    assert code == 3
    assert err == ""
    assert "internal inconsistency" in json.loads(out)["error"]


def test_sizes_above_their_limit_are_parser_usage_errors(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a pipeline ran on an out-of-range size")

    for name in ("gf_grid", "gf_spanning", "gf_ver", "gf_ver_grid", "c_poly", "resistance",
                 "moments"):
        monkeypatch.setattr(spanning, name, never)
    for name in ("gf_transfer", "gf_family_guess"):
        monkeypatch.setattr(toeplitz, name, never)
    monkeypatch.setattr(cli, "guess_rec", never)
    for argv, message in (
            # n alone has no limit: k^3 * n and k * n do it, k = 1 included
            (("resistance", "--k", "1", "--n", str(10**12)), f"more than {MAX_STREAM_WORK}"),
            (("moments", "--k", "1", "--n", str(10**12)), f"more than {MAX_STREAM_WORK}"),
            (("guess", "--data", ",".join(["1"] * (MAX_FIT_TERMS + 1))),
             f"--data takes at most {MAX_FIT_TERMS} terms")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err


def test_grid_rows_above_the_graph_vertex_limit_are_usage_errors(monkeypatch, capsys):
    # refused while parsing, before any path or grid graph is built; the
    # parser takes k at the limit, and the fit window refuses it
    _refuse_every_fit(monkeypatch)
    built, path_graph = [], graphs.path_graph
    monkeypatch.setattr(graphs, "path_graph", lambda k: built.append(k) or path_graph(k))
    for command in ("gf-grid", "gf-ver", "c-poly"):
        for k in (MAX_GRAPH_VERTICES + 1, 10**12):
            code, out, err = invoke(capsys, command, "--k", str(k))
            assert code == 2 and out == ""
            assert f"argument --k: must be at most {MAX_GRAPH_VERTICES}" in err
        assert built == []
        code, out, err = invoke(capsys, command, "--k", str(MAX_GRAPH_VERTICES))
        assert code == 2 and out == "" and "needs a fit window of" in err
        del built[:]


def test_graph_files_above_their_limits_are_usage_errors(monkeypatch, tmp_path, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a pipeline ran on an oversized graph")

    for name in ("gf_spanning", "gf_ver", "moments"):
        monkeypatch.setattr(spanning, name, never)
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 2, "edges": [[0, 1, "other", 1]]}).ljust(MAX_GRAPH_BYTES + 1))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": MAX_GRAPH_VERTICES + 1, "edges": []}))
    for path, message in ((big, f"is over {MAX_GRAPH_BYTES} bytes"),
                          (wide, f"has {MAX_GRAPH_VERTICES + 1} vertices, "
                                 f"more than {MAX_GRAPH_VERTICES}")):
        for argv in (("gf-product", "--graph", str(path)), ("gf-ver", "--graph", str(path)),
                     ("moments", "--graph", str(path), "--n", "2")):
            code, out, err = invoke(capsys, *argv)
            assert code == 2
            assert out == ""
            assert message in err


def test_sizes_at_their_limit_are_accepted(tmp_path, capsys):
    code, out, _ = invoke(capsys, "resistance", "--k", "1", "--n", str(MAX_PRODUCT_VERTICES))
    assert code == 0 and json.loads(out)["resistance"] == str(MAX_PRODUCT_VERTICES - 1)
    code, out, _ = invoke(capsys, "moments", "--k", "1", "--n", str(MAX_PRODUCT_VERTICES))
    assert code == 0 and json.loads(out)["mean"] == "0"
    # k^3 * n = 144^3 <= MAX_STREAM_WORK < 145^3 bounds k; a --graph has at
    # most 30 vertices
    assert MAX_GRAPH_VERTICES == 30
    code, out, _ = invoke(capsys, "resistance", "--k", "144", "--n", "1")
    assert code == 0 and json.loads(out)["resistance"] == "143"
    code, out, _ = invoke(capsys, "moments", "--k", "144", "--n", "1")
    assert code == 0 and json.loads(out)["mean"] == "143"
    # a path on MAX_GRAPH_VERTICES vertices, padded to exactly MAX_GRAPH_BYTES bytes
    path = tmp_path / "path.json"
    edges = [[i, i + 1, "other", 1] for i in range(MAX_GRAPH_VERTICES - 1)]
    path.write_text(json.dumps({"n": MAX_GRAPH_VERTICES, "edges": edges}).ljust(MAX_GRAPH_BYTES))
    code, out, _ = invoke(capsys, "moments", "--graph", str(path), "--n", "1")
    assert code == 0 and json.loads(out)["mean"] == str(MAX_GRAPH_VERTICES - 1)


def test_stream_work_and_product_size_are_capped_for_resistance_and_moments(
        monkeypatch, tmp_path, capsys):
    ran = []
    report = spanning.moments(path_graph(2), 2)
    monkeypatch.setattr(spanning, "resistance", lambda k, n: ran.append((k, n)) or 1)
    monkeypatch.setattr(spanning, "moments", lambda g, n: ran.append((g.n_vertices, n)) or report)
    # just over k^3 * n <= 3 * 10^6 (k = 30 at n = 112, k = 145 at n = 1)
    # and k * n <= 40000 (n = 20001 at k = 2)
    assert (MAX_STREAM_WORK, MAX_PRODUCT_VERTICES) == (3_000_000, 40_000)
    wide = _path_file(tmp_path, MAX_GRAPH_VERTICES)
    for argv, cap in ((("resistance", "--k", "30", "--n", "112"), MAX_STREAM_WORK),
                      (("resistance", "--k", "145", "--n", "1"), MAX_STREAM_WORK),
                      (("resistance", "--k", "2", "--n", "20001"), MAX_PRODUCT_VERTICES),
                      (("moments", "--k", "30", "--n", "112"), MAX_STREAM_WORK),
                      (("moments", "--k", "145", "--n", "1"), MAX_STREAM_WORK),
                      (("moments", "--k", "2", "--n", "20001"), MAX_PRODUCT_VERTICES),
                      (("moments", "--graph", wide, "--n", "112"), MAX_STREAM_WORK)):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert f"more than {cap}" in err
    assert ran == []
    for argv in (("resistance", "--k", "30", "--n", "111"),
                 ("resistance", "--k", "144", "--n", "1"),
                 ("resistance", "--k", "2", "--n", "20000"),
                 ("moments", "--k", "30", "--n", "111"),
                 ("moments", "--k", "144", "--n", "1"),
                 ("moments", "--k", "2", "--n", "20000"),
                 ("moments", "--graph", wide, "--n", "111")):
        code, _out, _err = invoke(capsys, *argv)
        assert code == 0
    assert ran == [(30, 111), (144, 1), (2, 20000)] * 2 + [(30, 111)]


def test_moments_at_the_work_cap_print_every_digit(capsys):
    # (2, 20000) is on the k * n cap, and its variance has 22874 digits,
    # past the 4300 that CPython converts from int to str by default
    code, out, _ = invoke(capsys, "moments", "--k", "2", "--n", "20000")
    assert code == 0
    num, den = json.loads(out)["variance"].split("/")
    variance = spanning.moments(path_graph(2), 20000).variance
    assert len(den) > 4300
    assert (Decimal(num), Decimal(den)) == (variance.numerator, variance.denominator)


def test_outputs_past_the_int_to_str_limit_print_every_digit(monkeypatch, tmp_path, capsys):
    # input is parsed under CPython's 4300-digit int-to-str limit, output is
    # rendered without it, and the limit is back in place after each run
    limit = sys.get_int_max_str_digits()
    heavy = tmp_path / "heavy.json"
    heavy.write_text(json.dumps({"n": 2, "edges": [[0, 1, "other", 10**400]]}))
    code, out, _ = invoke(capsys, "gf-product", "--graph", str(heavy), "--emit-data")
    assert code == 0
    data = json.loads(out)["data"]
    want = spanning.gf_spanning(graphs.graph_from_json_dict(json.loads(heavy.read_text()))).data
    assert len(data[-1]) > 4300
    assert [Decimal(x) for x in data] == list(want)
    # a function whose coefficients pass the limit, JSON and pretty
    huge = 3 ** 10000
    result = spanning.GFResult(RationalFunction(Poly([0, huge]), Poly([1, -1])),
                               CFiniteSpec([huge], [1, -1]), (huge,) * 12, 1)
    monkeypatch.setattr(spanning, "gf_grid", lambda k: result)
    code, out, _ = invoke(capsys, "gf-grid", "--k", "1")
    assert code == 0 and Decimal(json.loads(out)["num"][1]) == huge
    code, out, _ = invoke(capsys, "gf-grid", "--k", "1", "--pretty")
    assert code == 0 and Decimal(out.split("*t")[0]) == -huge  # -huge*t/(t-1)
    assert sys.get_int_max_str_digits() == limit
    # while a huge integer in the input stays a usage error
    digits = "1" + "0" * 4400
    heavy.write_text(f'{{"n": 2, "edges": [[0, 1, "other", {digits}]]}}')
    code, out, err = invoke(capsys, "gf-product", "--graph", str(heavy))
    assert code == 2 and out == "" and "4300 digits" in err
    code, out, err = invoke(capsys, "toeplitz-gf", "--row", f"{digits},1", "--col", digits)
    assert code == 2 and out == "" and "4300 digits" in err
    assert sys.get_int_max_str_digits() == limit


def test_moments_checks_k_before_building_the_path(monkeypatch, capsys):
    # the stub builds nothing: path_graph(10**9) would take 10^9 edge tuples
    built = []
    monkeypatch.setattr(graphs, "path_graph", lambda k: built.append(k))
    code, out, err = invoke(capsys, "moments", "--k", str(10**9), "--n", "1")
    assert code == 2 and out == ""
    assert f"more than {MAX_STREAM_WORK}" in err
    assert built == []


def test_moments_at_one_layer_is_one_tridiagonal_elimination(monkeypatch, capsys):
    # g x P_1 is g: every spanning tree has all k - 1 of its edges vertical;
    # the jump's grounded block a_1 = w L(P_k) is tridiagonal, so even at the
    # largest k the work cap leaves, one elimination of half-bandwidth 1 runs
    bands, real = [], graphs._eliminated
    monkeypatch.setattr(graphs, "_eliminated", lambda column, w: bands.append(w) or real(column, w))
    code, out, _ = invoke(capsys, "moments", "--k", "144", "--n", "1")
    got = json.loads(out)
    assert code == 0 and (got["mean"], got["variance"], got["skewness"]) == ("143", "0", None)
    assert bands == [1]


def test_k_and_graph_are_one_required_choice(monkeypatch, tmp_path, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a pipeline ran on an ambiguous base graph")

    for name in ("gf_ver", "gf_ver_grid", "moments"):
        monkeypatch.setattr(spanning, name, never)
    for graph in ("/nonexistent", _path_file(tmp_path, 2)):
        for argv in (("gf-ver", "--k", "2", "--graph", graph),
                     ("moments", "--k", "2", "--graph", graph, "--n", "3"),
                     ("moments", "--graph", graph, "--k", "2", "--n", "3")):
            code, out, err = invoke(capsys, *argv)
            assert code == 2 and out == "" and "not allowed with argument" in err
    for argv in (("gf-ver",), ("moments", "--n", "3")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "" and "one of the arguments --k --graph is required" in err


def test_guess_fraction_data_that_clear_to_huge_integers_are_usage_errors(monkeypatch, capsys):
    # 160 terms 1/d, d of 8 random digits: 1.8 KB, but the lcm of the
    # denominators makes every cleared term about 3000 bits long
    ran = []
    monkeypatch.setattr(cli, "guess_rec", lambda data: ran.append(data))
    rng = random.Random(0)
    data = ",".join(f"1/{rng.randrange(10**7, 10**8)}" for _ in range(MAX_FIT_TERMS))
    assert len(data) < 2000
    code, out, err = invoke(capsys, "guess", "--data", data)
    assert code == 2 and out == ""
    assert f"more than {MAX_GUESS_BYTES} decimal digits can write" in err
    assert ran == []


def test_guess_integer_noise_at_the_byte_limit_passes_the_bit_check(monkeypatch, capsys):
    # 160 terms in as many digits as the commas leave: random noise, and
    # all 9s, the most bits such terms can have
    digits = (MAX_GUESS_BYTES - (MAX_FIT_TERMS - 1)) // MAX_FIT_TERMS
    rng = random.Random(0)
    for values in ([rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(MAX_FIT_TERMS)],
                   [10 ** digits - 1] * MAX_FIT_TERMS):
        data = ",".join(map(str, values))
        assert MAX_GUESS_BYTES - MAX_FIT_TERMS < len(data) <= MAX_GUESS_BYTES
        ran = []
        monkeypatch.setattr(cli, "guess_rec", lambda data: ran.append(data))
        code, out, _ = invoke(capsys, "guess", "--data", data)
        assert code == 1 and json.loads(out) == {"error": "no recurrence found"}
        assert ran == [values]


def test_guess_data_above_its_byte_limit_is_usage_error(monkeypatch, capsys):
    # the Fibonacci numbers, padded with spaces (which the parser strips)
    fib = "1,1,2,3,5,8,13,21,34,55".ljust(MAX_GUESS_BYTES)
    code, out, _ = invoke(capsys, "guess", "--data", fib)
    assert code == 0 and json.loads(out) == {"initial": [1, 1], "rec": [1, 1]}
    ran = []
    monkeypatch.setattr(cli, "guess_rec", lambda data: ran.append(data))
    code, out, err = invoke(capsys, "guess", "--data", fib + " ")
    assert code == 2 and out == ""
    assert f"--data is {MAX_GUESS_BYTES + 1} bytes, more than {MAX_GUESS_BYTES}" in err
    assert ran == []


def test_toeplitz_prefixes_above_the_scheme_limit_are_usage_errors(monkeypatch, capsys):
    assert MAX_TOEPLITZ_PREFIXES == 14
    ran = []
    rf, scheme = toeplitz.gf_transfer([1], [1]), toeplitz.children_scheme([1], [1])
    monkeypatch.setattr(toeplitz, "gf_transfer", lambda row, col, mode: ran.append(row) or rf)
    monkeypatch.setattr(toeplitz, "children_scheme",
                        lambda row, col, mode: ran.append(row) or scheme)
    monkeypatch.setattr(toeplitz, "gf_family_guess",
                        lambda row, col, mode, *window: ran.append(row) or rf)
    for k1 in (1, 7, 13):
        for k2, gated in ((MAX_TOEPLITZ_PREFIXES - k1, False),
                          (MAX_TOEPLITZ_PREFIXES + 1 - k1, True)):
            prefixes = ("--row", ",".join(["1"] * k1), "--col", ",".join(["1"] * k2))
            for command in ("toeplitz-gf", "toeplitz-scheme"):
                del ran[:]
                code, out, err = invoke(capsys, command, *prefixes)
                if gated:
                    assert code == 2 and out == ""
                    assert f"more than {MAX_TOEPLITZ_PREFIXES}" in err
                    assert ran == []
                else:
                    assert code == 0 and len(ran) == 1
    # --method guess is bounded by its window, not by the prefixes: a k1/1
    # band has one transfer state
    del ran[:]
    code, _out, _err = invoke(capsys, "toeplitz-gf", "--row", ",".join(["1"] * 15), "--col", "1",
                              "--method", "guess")
    assert code == 0 and len(ran) == 1


def test_moments_on_a_disconnected_graph_is_usage_error(tmp_path, capsys):
    path = tmp_path / "two_points.json"
    path.write_text(json.dumps({"n": 2, "edges": []}))
    code, out, err = invoke(capsys, "moments", "--graph", str(path), "--n", "3")
    assert code == 2
    assert out == ""
    assert "connected" in err


# --- one parser per process ---------------------------------------------------

_SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}


def test_the_parser_is_built_once_and_not_at_import():
    assert cli._build_parser() is cli._build_parser()
    probe = ("import exactgf.cli as c; n = c._build_parser.cache_info().currsize; "
             "c.run(['resistance', '--k', '1', '--n', '2']); "
             "print(n, c._build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=_SRC_ENV, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 1"


#: Every subcommand's options beside -h: flags -> (dest, default, required,
#: choices, nargs (0 for a switch), and the flags of the mutually exclusive
#: group holding the option with whether the group is required, or None).
_SWITCH = (False, False, None, 0, None)
_K_OR_GRAPH = (None, False, None, None, (("--k", "--graph"), True))
_OPTION_TABLE = {
    "guess": {"--data": ("data", None, True, None, None, None), "--pretty": ("pretty", *_SWITCH)},
    "gf-grid": {"--k": ("k", None, True, None, None, None), "--pretty": ("pretty", *_SWITCH),
                "--emit-data": ("emit_data", *_SWITCH)},
    "gf-product": {"--graph": ("graph", None, True, None, None, None),
                   "--allow-long": ("allow_long", *_SWITCH), "--pretty": ("pretty", *_SWITCH),
                   "--emit-data": ("emit_data", *_SWITCH)},
    "gf-ver": {"--k": ("k", *_K_OR_GRAPH), "--graph": ("graph", *_K_OR_GRAPH),
               "--pretty": ("pretty", *_SWITCH), "--allow-long": ("allow_long", *_SWITCH)},
    "c-poly": {"--k": ("k", None, True, None, None, None), "--pretty": ("pretty", *_SWITCH)},
    "resistance": {"--k": ("k", None, True, None, None, None),
                   "--n": ("n", None, True, None, None, None), "--pretty": ("pretty", *_SWITCH)},
    "moments": {"--k": ("k", *_K_OR_GRAPH), "--graph": ("graph", *_K_OR_GRAPH),
                "--n": ("n", None, True, None, None, None), "--pretty": ("pretty", *_SWITCH)},
    "toeplitz-gf": {"--row": ("row", None, True, None, None, None),
                    "--col": ("col", None, True, None, None, None),
                    "--mode": ("mode", "det", False, ("det", "perm"), None, None),
                    "--method": ("method", "transfer", False, ("guess", "transfer"), None, None),
                    "--pretty": ("pretty", *_SWITCH)},
    "toeplitz-scheme": {"--row": ("row", None, True, None, None, None),
                        "--col": ("col", None, True, None, None, None),
                        "--mode": ("mode", "det", False, ("det", "perm"), None, None)},
}


def test_every_subcommand_declares_exactly_its_options():
    commands, = (a.choices for a in cli._build_parser()._actions if a.choices)
    table = {}
    for name, parser in commands.items():
        groups = {action: (tuple(a.option_strings[0] for a in group._group_actions),
                           group.required)
                  for group in parser._mutually_exclusive_groups
                  for action in group._group_actions}
        help_action, *options = parser._actions
        assert help_action.option_strings == ["-h", "--help"]
        table[name] = {"/".join(a.option_strings): (a.dest, a.default, a.required, a.choices,
                                                    a.nargs, groups.get(a)) for a in options}
    assert table == _OPTION_TABLE


def test_repeated_runs_in_one_process_match_fresh_processes(capsys):
    # a usage error first, so the later parses reuse a parser that failed one
    for argv, expected_code in (
            (("gf-grid", "--k", "0"), 2),
            (("toeplitz-gf", "--row", "2,3", "--col", "2,4,5", "--mode", "perm"), 0),
            (("resistance", "--k", "2", "--n", "5"), 0),
            (("guess", "--data", "1,1,2,3,5,8,13,21", "--pretty"), 0)):
        fresh = subprocess.run([sys.executable, "-m", "exactgf.cli", *argv], env=_SRC_ENV,
                               capture_output=True)
        code, out, err = invoke(capsys, *argv)
        assert code == fresh.returncode == expected_code
        assert (out.encode(), err.encode()) == (fresh.stdout, fresh.stderr)


def test_help_twice_prints_the_same_text(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            run(["toeplitz-gf", "--help"])
        assert exit_info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "--method {guess,transfer}" in texts[0]


def test_json_runs_render_no_pretty_text(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("pretty text rendered for a JSON run")

    monkeypatch.setattr(cli, "_fmt_ratfunc", never)
    monkeypatch.setattr(cli, "_fmt_poly", never)
    for argv in (("gf-grid", "--k", "2"), ("c-poly", "--k", "2"),
                 ("toeplitz-gf", "--row", "2,3", "--col", "2,4,5")):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and json.loads(out)
    with pytest.raises(AssertionError, match="pretty text"):
        run(["gf-grid", "--k", "2", "--pretty"])
