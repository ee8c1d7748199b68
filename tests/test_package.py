"""Top-level API and import cost: names load on first use, only the oracle loads numpy, and nothing numpy.random."""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys

import pytest

import rdpopt
from rdpopt import oracle

ORACLE_NAMES = ("GridSpec", "brute_force_gamma", "verify_q_star", "joint_range_containment")

# a fresh interpreter reports, after each step, whether numpy and
# numpy.random are loaded and which of csv, dataclasses and inspect it loaded
# since before importing the package (a site hook may load one earlier), and
# which rdpopt submodules importing the package loaded
_CHILD = """
import contextlib, io, json, sys
preloaded = set(sys.modules)
seen, loaded = [], []
def record(step, code):
    seen.append([step, code, "numpy" in sys.modules, "numpy.random" in sys.modules])
    loaded.append([name for name in ("csv", "dataclasses", "inspect") if name in sys.modules and name not in preloaded])
import rdpopt
record("import rdpopt", None)
submodules = sorted(name for name in sys.modules if name.startswith("rdpopt."))
import rdpopt.cli
record("import rdpopt.cli", None)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = rdpopt.cli.main(argv)
    record(argv[0], code)
print(json.dumps({"seen": seen, "loaded": loaded, "submodules": submodules}))
"""

_NUMPY_FREE = [
    ["convert", "--alpha", "2", "--eps", "1", "--delta", "0.1"],
    ["compose", "--sigma", "20", "--T", "1000", "--delta", "1e-5"],
    ["max-t", "--sigma", "20", "--eps", "6", "--delta", "1e-5"],
    ["variance", "--T", "100", "--eps", "1", "--delta", "1e-6"],
    ["curve", "--fig", "2", "--t-to", "3"],
]
_ORACLE_CHECK = ["oracle-check", "--alpha", "2", "--eps", "1", "--delta", "0.1",
                 "--grid-n", "64", "--samples", "16", "--tol", "1"]


def _child_env() -> dict:
    # a child interpreter imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(rdpopt.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def _child_report(argvs: list[list[str]]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)], capture_output=True, text=True, env=_child_env(), check=True
    )
    return json.loads(proc.stdout)


def test_only_oracle_check_imports_numpy():
    env = _child_env()
    report = _child_report(_NUMPY_FREE + [_ORACLE_CHECK])
    assert report["submodules"] == []
    seen = report["seen"]
    assert [step for step, *_ in seen] == ["import rdpopt", "import rdpopt.cli"] + [
        argv[0] for argv in _NUMPY_FREE + [_ORACLE_CHECK]
    ]
    for step, code, numpy_loaded, _ in seen[:-1]:
        assert code in (None, 0) and not numpy_loaded, step
    # the brute force, the q* check and the containment sample, without numpy.random
    assert seen[-1] == ["oracle-check", 0, True, False]
    # the submodule is an attribute of the package before anything imports it
    proc = subprocess.run(
        [sys.executable, "-c", "import rdpopt; print(rdpopt.oracle.__name__)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == "rdpopt.oracle\n"


def test_cold_subcommands_load_no_dataclasses_or_inspect():
    # the records are named tuples, and only a CSV table needs the csv module;
    # the curve step, the last, writes one
    report = _child_report(_NUMPY_FREE)
    assert [step for step, *_ in report["seen"]][-1] == "curve"
    assert report["loaded"] == [[]] * (len(report["seen"]) - 1) + [["csv"]]


def test_oracle_names_are_the_oracle_objects():
    for name in ORACLE_NAMES:
        assert name in rdpopt.__all__
        assert getattr(rdpopt, name) is getattr(oracle, name)
    assert rdpopt.oracle is oracle


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from rdpopt import *", namespace)
    for name in rdpopt.__all__:
        assert namespace[name] is getattr(rdpopt, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        rdpopt.no_such_name  # noqa: B018
    assert not hasattr(rdpopt, "no_such_name")
    with pytest.raises(ImportError):
        exec("from rdpopt import no_such_name", {})


def test_names_are_cached_after_first_use():
    # __getattr__ runs once a name: the value it returns is then a global of the package
    for name in rdpopt.__all__:
        value = getattr(rdpopt, name)
        assert rdpopt.__dict__[name] is value, name
    assert "minimize_unimodal" not in rdpopt.__all__ and "ScalarSearchConfig" not in rdpopt.__all__


def test_no_public_callable_takes_a_search_tolerance():
    # the searches run at fixed tolerances, in the library as on the command line
    for name in rdpopt.__all__:
        value = getattr(rdpopt, name)
        if callable(value) and not (isinstance(value, type) and issubclass(value, BaseException)):
            assert not {"abs_tol", "tol", "cfg"} & set(inspect.signature(value).parameters), name


def test_dir_lists_names_before_first_use():
    # in a fresh interpreter, where no name has been served yet
    child = "import rdpopt, sys; print(sorted(set(rdpopt.__all__) - set(dir(rdpopt))), 'rdpopt.gaussian' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=_child_env(), check=True)
    assert proc.stdout == "[] False\n"


def test_records_are_immutable():
    # one instance of each record type, with its fields
    records = [
        (rdpopt.gamma_exact(2.0, 1.0, 0.1), ("value", "method", "argmin_p", "active_branch")),
        (rdpopt.zero_epsilon_region(2.0, 0.1), ("interval", "delta_free")),
        (rdpopt.acct_epsilon(0.00125, 1000, 1e-5), ("epsilon", "argmin_alpha", "active_branch", "mode")),
        (rdpopt.required_variance(100, 1.0, 1e-6), ("sigma_sq", "argmin_alpha")),
        (
            rdpopt.privacy_curve(rdpopt.GaussianConfig(sigma=20.0), 1e-5, [10])[0],
            ("T", "eps_ma", "eps_ours", "eps_ours_exact", "gap"),
        ),
        (rdpopt.GaussianConfig(sigma=4.0, subsampling_q=0.01), ("sigma", "subsampling_q")),
        (rdpopt.GridSpec(), ("n_coarse", "n_refine")),
        (rdpopt.RenyiCurve([2.0, 3.0], [0.5, 0.75]), ("orders", "divergences")),
    ]
    assert len({type(record) for record, _ in records}) == 8
    for record, fields in records:
        for name in (*fields, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
            assert getattr(record, name, None) != 1.0, (type(record), name)


def test_validated_inputs_check_every_construction():
    # a copy, an unpickled value and a _replace result pass the same checks as a new value
    inputs = (rdpopt.GaussianConfig(sigma=4.0, subsampling_q=0.01), rdpopt.GridSpec(64, 128))
    for record in inputs:
        assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
        assert type(pickle.loads(pickle.dumps(record))) is type(record)
    assert rdpopt.GaussianConfig(sigma=4.0)._replace(subsampling_q=0.5).rho == rdpopt.rho_subsampled(4.0, 0.5)
    for bad in (
        lambda: rdpopt.GaussianConfig(sigma=4.0)._replace(sigma=0.0),
        lambda: rdpopt.GaussianConfig(sigma=4.0)._replace(subsampling_q=1.0),
        lambda: rdpopt.GridSpec()._replace(n_refine=63),
    ):
        with pytest.raises(rdpopt.DomainError):
            bad()
