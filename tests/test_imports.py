"""The package's import graph and its public names: importing exactgf
loads no submodule, each CLI subcommand loads only the modules it runs,
and every public name resolves, on first access, to its submodule's
object.  Each probe runs in a fresh interpreter, since this process has
imported every module already."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

import exactgf

_SRC = str(pathlib.Path(exactgf.__file__).parents[1])
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])}

_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'exactgf')"

_TOEPLITZ_GF = ["toeplitz-gf", "--row=2,-1,3", "--col=2,3,-1", "--mode", "det",
                "--method", "transfer"]


def _probe(code: str):
    """Run code in a fresh interpreter and return the JSON value of its
    last line of output."""
    out = subprocess.run([sys.executable, "-c", "import sys, json\n" + code], env=_ENV,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _modules_after(setup: str, argv):
    """The exactgf modules loaded after setup, and those a cli.run(argv)
    then loads, with its exit code."""
    return _probe(f"""
import io, contextlib
{setup}
import exactgf.cli
before = {_LOADED}
with contextlib.redirect_stdout(io.StringIO()):
    code = exactgf.cli.run({list(argv)!r})
print(json.dumps([before, sorted(set({_LOADED}) - set(before)), code]))
""")


def test_importing_the_package_loads_no_submodule():
    assert _probe(f"import exactgf\nprint(json.dumps({_LOADED}))") == ["exactgf"]


def test_the_cli_module_loads_only_cfinite_core_and_errors():
    before, _new, code = _modules_after("", ["guess", "--data", "1,1,2,3,5,8,13,21"])
    assert code == 0
    assert before == ["exactgf", "exactgf.cfinite", "exactgf.cli", "exactgf.core",
                      "exactgf.errors"]


def test_toeplitz_gf_never_imports_the_graph_pipelines():
    for method in ("transfer", "guess"):
        argv = _TOEPLITZ_GF[:-1] + [method]
        _before, new, code = _modules_after("", argv)
        assert code == 0 and new == ["exactgf.toeplitz"]


def test_gf_grid_never_imports_toeplitz():
    _before, new, code = _modules_after("", ["gf-grid", "--k", "2"])
    assert code == 0 and new == ["exactgf.graphs", "exactgf.spanning"]


def test_toeplitz_gf_imports_nothing_once_its_modules_are_loaded():
    # the benchmark's set-up imports exactgf.cli and exactgf.toeplitz, so a
    # timed toeplitz-gf run must not pay for any import of its own
    before, new, code = _modules_after("import exactgf.cli, exactgf.toeplitz", _TOEPLITZ_GF)
    assert code == 0 and new == []
    assert "exactgf.spanning" not in before and "exactgf.graphs" not in before


#: The public names of the package and the submodule that defines each.
PUBLIC_NAMES = {
    "CFiniteSpec": "cfinite", "c_to_r": "cfinite", "guess_rec": "cfinite",
    "guess_rec1": "cfinite", "guess_sym_rec": "cfinite", "seq_from_rec": "cfinite",
    "LinearSolution": "core", "Matrix": "core", "Poly": "core", "Rational": "core",
    "RationalFunction": "core", "det_bareiss": "core", "poly_gcd": "core",
    "solve_linear": "core", "taylor_coeffs": "core",
    "LabeledGraph": "graphs", "VAR_V": "graphs", "grid_graph": "graphs",
    "laplacian": "graphs", "path_graph": "graphs", "product_with_path": "graphs",
    "spanning_tree_count": "graphs", "two_forest_count": "graphs",
    "ver_polynomial": "graphs",
    "GFResult": "spanning", "MomentsReport": "spanning", "c_poly": "spanning",
    "resistance_bound_constant": "spanning", "gf_grid": "spanning",
    "gf_spanning": "spanning", "gf_two_forest": "spanning", "gf_ver": "spanning",
    "gf_ver_grid": "spanning", "moments": "spanning", "resistance": "spanning",
    "substitute_v": "spanning",
    "ToeplitzSpec": "toeplitz", "TransferScheme": "toeplitz",
    "children_scheme": "toeplitz", "expand_minor": "toeplitz",
    "gf_family_guess": "toeplitz", "gf_transfer": "toeplitz",
    "matrix_from_spec": "toeplitz", "ryser_permanent": "toeplitz",
    "transfer_sequence": "toeplitz", "value_sequence": "toeplitz",
}
SUBMODULES = ("cfinite", "cli", "core", "errors", "graphs", "spanning", "toeplitz")


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 46
    assert exactgf.__all__ == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("first_access", ("from-import", "getattr"))
def test_public_names_resolve_to_their_submodule_objects(first_access):
    # each name is first reached one way in a fresh interpreter, then the
    # other way; both must give the object its submodule defines, which
    # the package then holds as a plain attribute
    failures = _probe(f"""
import importlib
import exactgf
failures = []
for name, module in {PUBLIC_NAMES!r}.items():
    ns = {{}}
    if {first_access == "getattr"!r}:
        by_getattr = getattr(exactgf, name)
        exec(f"from exactgf import {{name}}", ns)
    else:
        exec(f"from exactgf import {{name}}", ns)
        by_getattr = getattr(exactgf, name)
    want = getattr(importlib.import_module("exactgf." + module), name)
    if not (ns[name] is by_getattr is want is vars(exactgf).get(name)):
        failures.append(name)
print(json.dumps(failures))
""")
    assert failures == []


def test_submodule_names_resolve_without_an_import_statement():
    loaded = _probe(f"""
import exactgf
ok = [getattr(exactgf, m) is sys.modules["exactgf." + m] for m in {SUBMODULES!r}]
print(json.dumps([all(ok), {_LOADED}]))
""")
    assert loaded == [True, ["exactgf"] + [f"exactgf.{m}" for m in SUBMODULES]]


def test_dir_lists_every_public_name_and_submodule_before_loading_any():
    listed, loaded = _probe(f"import exactgf\nprint(json.dumps([dir(exactgf), {_LOADED}]))")
    assert set(PUBLIC_NAMES) <= set(listed) and set(SUBMODULES) <= set(listed)
    assert listed == sorted(listed) and loaded == ["exactgf"]


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "MAX_TERMS", "_EXPORTS_"):
        with pytest.raises(AttributeError, match=name):
            getattr(exactgf, name)
    with pytest.raises(ImportError):
        exec("from exactgf import no_such_name", {})
