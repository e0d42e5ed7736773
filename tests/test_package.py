"""Package exports, and what importing the package and the scalar CLI commands loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flexcat
from helpers import X_DEMO4, Y_DEMO4

SRC = Path(flexcat.__file__).parents[1]
HEAVY = ["flexcat.search", "flexcat.thermo", "numpy"]  # loaded only by array work
DEMO_X = ",".join(str(v) for v in X_DEMO4)
DEMO_Y = ",".join(str(v) for v in Y_DEMO4)
ALT = ["--x", "0.5064,0.2565,0.1401,0.0970", "--y", "0.5474,0.2048,0.1903,0.0575"]


def _fresh(body: str) -> dict:
    """Run body in a new interpreter; it leaves its findings in the dict `found`."""
    script = "import contextlib, io, json, sys\nfound = {}\n" + body + "\nprint(json.dumps(found))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_defers_search_and_thermo_until_first_access():
    found = _fresh(
        "import flexcat\n"
        f"found['loaded'] = sorted(set({HEAVY!r} + ['dataclasses']) & set(sys.modules))\n"
        "found['deferred'] = sorted(set(flexcat.__all__) - set(vars(flexcat)))\n"
        "found['gibbs'] = flexcat.thermo.gibbs_vector([0, 1], 0.0).values\n"
        "found['unbound'] = sorted(set(flexcat.__all__) - set(vars(flexcat)))\n"
        "found['exact'] = 'flexcat.exact' in sys.modules\n"
    )
    assert found["loaded"] == []
    assert "best_standard" in found["deferred"] and "thermo_majorizes" in found["deferred"]
    assert found["gibbs"] == [0.5, 0.5]
    assert found["unbound"] == []  # one access binds every deferred name
    assert found["exact"] is False  # nor does it load the exact oracles


@pytest.mark.parametrize(
    "argv",
    [
        ["vidal", "--x", DEMO_X, "--y", DEMO_Y],
        ["check-major", "--x", "0.5,0.5", "--y", "1,0"],
        ["check-flex", *ALT, "--cycle", "0.6333,0.2667,0.1;0.6167,0.2833,0.1"],
        ["conditions", *ALT, "--json"],
        ["gibbs", "--levels-s", "0,1,2", "--beta", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_scalar_command_loads_no_numpy(argv):
    found = _fresh(
        "from flexcat.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    found['code'] = run({argv!r})\n"
        "found['out'] = out.getvalue()\n"
        f"found['loaded'] = sorted(set({HEAVY!r} + ['flexcat.exact']) & set(sys.modules))\n"
    )
    assert (found["code"], found["loaded"]) == (0, []), found["out"]


def _cold_vidal(*flags: str) -> tuple[int, str, set[str]]:
    """Exit code, stdout and top-level imported modules of a fresh `python -m flexcat.cli vidal`."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "flexcat.cli", "vidal", *flags],
        capture_output=True, text=True, env=env, timeout=60,
    )
    # -X importtime lists one module a line: "import time: self | cumulative | name"
    listed = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    return proc.returncode, proc.stdout, {name.split(".")[0] for name in listed}


def test_cold_cli_vidal_imports_no_numpy(tmp_path):
    """The console entry point itself, run by `python -m`, with every import listed."""
    code, out, loaded = _cold_vidal("--x", DEMO_X, "--y", DEMO_Y)
    assert (code, out) == (0, "0.585742\n")
    # dataclasses pulls in inspect and ast; json is needed only for --json and --file
    assert {"numpy", "dataclasses", "inspect", "json"} & loaded == set()
    p = flexcat.vidal_probability(X_DEMO4, Y_DEMO4)
    code, out, loaded = _cold_vidal("--x", DEMO_X, "--y", DEMO_Y, "--json")
    assert (code, out) == (0, json.dumps({"probability": p}, sort_keys=True) + "\n")
    assert {"numpy", "dataclasses"} & loaded == set() and "json" in loaded
    instance = tmp_path / "demo.json"
    instance.write_text(json.dumps({"x": X_DEMO4, "y": Y_DEMO4}), encoding="utf-8")
    assert _cold_vidal("--file", str(instance))[:2] == (0, "0.585742\n")


def test_array_command_still_runs_in_a_fresh_process():
    found = _fresh(
        "from flexcat.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    found['code'] = run(['scan-fig1', '--x', {DEMO_X!r}, '--y', {DEMO_Y!r}, "
        "'--grid', '3', '--json'])\n"
        "found['out'] = out.getvalue()\n"
        f"found['loaded'] = sorted(set({HEAVY!r}) & set(sys.modules))\n"
        "found['exact'] = 'flexcat.exact' in sys.modules\n"
    )
    assert found["code"] == 0
    assert set(json.loads(found["out"])) == {"max", "steps"}
    assert found["loaded"] == sorted(HEAVY)
    assert found["exact"] is False


def test_exact_module_loads_no_numpy():
    found = _fresh(
        "import flexcat.exact\n"
        "found['margin'] = str(flexcat.exact.prefix_margin(flexcat.make_prob_vec([0.5, 0.5]), [1, 0]))\n"
        f"found['loaded'] = sorted(set({HEAVY!r}) & set(sys.modules))\n"
    )
    assert found == {"margin": "1/2", "loaded": []}


def test_dir_lists_every_export():
    assert set(dir(flexcat)) >= set(flexcat.__all__)


def test_exports_are_the_defining_modules_objects():
    for name in flexcat.__all__:
        obj = getattr(flexcat, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    # GibbsVec and gibbs_vector are defined in probvec and still reached through thermo
    assert flexcat.thermo.gibbs_vector is flexcat.probvec.gibbs_vector is flexcat.gibbs_vector
    assert flexcat.thermo.GibbsVec is flexcat.probvec.GibbsVec is flexcat.GibbsVec


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        flexcat.no_such_name  # noqa: B018 - the access is the test
    assert not hasattr(flexcat, "no_such_name")
