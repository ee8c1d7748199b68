"""Top-level API and import cost: names load on first use, and only the oracle loads numpy."""

import json
import os
import subprocess
import sys

import pytest

import rdpopt
from rdpopt import oracle

ORACLE_NAMES = ("GridSpec", "brute_force_gamma", "verify_q_star", "joint_range_containment")

# a fresh interpreter reports, after each step, whether numpy is loaded, and
# which rdpopt submodules importing the package loaded
_CHILD = """
import contextlib, io, json, sys
seen = []
import rdpopt
seen.append(["import rdpopt", None, "numpy" in sys.modules])
submodules = sorted(name for name in sys.modules if name.startswith("rdpopt."))
import rdpopt.cli
seen.append(["import rdpopt.cli", None, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = rdpopt.cli.main(argv)
    seen.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps({"seen": seen, "submodules": submodules}))
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


def test_only_oracle_check_imports_numpy():
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(_NUMPY_FREE + [_ORACLE_CHECK])],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["submodules"] == []
    seen = report["seen"]
    assert [step for step, _, _ in seen] == ["import rdpopt", "import rdpopt.cli"] + [
        argv[0] for argv in _NUMPY_FREE + [_ORACLE_CHECK]
    ]
    for step, code, numpy_loaded in seen[:-1]:
        assert code in (None, 0) and not numpy_loaded, step
    assert seen[-1] == ["oracle-check", 0, True]
    # the submodule is an attribute of the package before anything imports it
    proc = subprocess.run(
        [sys.executable, "-c", "import rdpopt; print(rdpopt.oracle.__name__)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == "rdpopt.oracle\n"


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


def test_dir_lists_names_before_first_use():
    # in a fresh interpreter, where no name has been served yet
    child = "import rdpopt, sys; print(sorted(set(rdpopt.__all__) - set(dir(rdpopt))), 'rdpopt.gaussian' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=_child_env(), check=True)
    assert proc.stdout == "[] False\n"
