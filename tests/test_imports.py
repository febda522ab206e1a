"""Every module imports only names it uses, and every command only the
modules it needs.

No linter ships with the project, so an AST scan stands in for one: it
fails on any name an import binds that the module never reads.  Package
`__init__` files (whose imports are re-exports) and `from __future__`
imports are exempt.  A dptco command runs in a fresh interpreter per
process, so each module it loads without need is paid for on every run.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import at_guard, modified_scenario

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "dptco").glob("*.py")
                 if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the imports of source and never read, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            bound.update(a.asname or a.name for a in node.names
                         if a.name != "*")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_scan_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from json import dumps, loads as ld\n"
              "def f(x: np.ndarray):\n    return os.path.join(dumps(x))\n")
    assert unused_imports(source) == ["ld", "math"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# runs one dptco command line, then prints its exit code and which of the
# modules named in the first argument are loaded
_PROBE = """\
import json, sys
from dptco.cli import main
code = main(sys.argv[2:])
print(json.dumps([code, [m for m in json.loads(sys.argv[1])
                         if m in sys.modules]]))
"""


def loaded_modules(args: list, modules: list) -> list:
    """Which of `modules` a fresh interpreter has loaded after the dptco
    command `args`; the command must exit 0 or 2."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(modules)] + args,
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code in (0, 2), proc.stderr
    return loaded


@pytest.mark.parametrize("name", ["ring", "example1", "example2",
                                  "example2_generator"])
def test_commands_do_not_load_numpy_random(name, tmp_path):
    # the disturbance draws from the stdlib random, so no command pays
    # for numpy.random and its imports
    out = tmp_path / "out"
    p = modified_scenario(name, tmp_path, at_guard(0.5))
    run = loaded_modules(["run", p, "--out", str(out)], ["numpy.random"])
    verify = loaded_modules(["verify", str(out / "trajectory.csv"), p],
                            ["numpy.random"])
    assert run == []
    assert verify == []


@pytest.mark.skipif(not any(map(importlib.util.find_spec,
                                ("_sha2", "_sha256"))),
                    reason="no _sha2 or _sha256: scenario_hash uses hashlib")
def test_commands_do_not_load_openssl(tmp_path):
    # scenario_hash takes SHA-256 from CPython's own module: hashlib would
    # load OpenSSL's libcrypto, about 3.6 MiB of every process's peak RSS
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    for name in ("ring", "example1"):
        out = tmp_path / f"out_{name}"
        p = modified_scenario(name, tmp_path, at_guard(0.5))
        assert loaded_modules(["run", p, "--out", str(out)],
                              ["_hashlib"]) == []
        assert loaded_modules(["verify", str(out / "trajectory.csv"), p],
                              ["_hashlib"]) == []
    p = modified_scenario("ring", sweep_dir, at_guard(0.5))
    assert loaded_modules(["optimum", p], ["_hashlib"]) == []
    assert loaded_modules(["sweep", str(sweep_dir), "--out",
                           str(tmp_path / "sweep_out")], ["_hashlib"]) == []
