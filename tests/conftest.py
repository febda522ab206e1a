"""Shared fixtures: bundled scenario paths and cached end-to-end runs.

The full simulations are expensive (tens of seconds), so each bundled
scenario is run at most once per session and its outputs are shared by the
module tests and the acceptance tests.
"""

import json
import sys
from pathlib import Path

import pytest

import dptco
from dptco.scenario import Scenario

SCEN_DIR = Path(dptco.__file__).parent / "scenarios"
ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ("ring", "example2_generator", "example1", "example2")

# one verdict line per acceptance criterion, re-emitted after the test
# summary so they survive output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def scenario_path(name: str) -> str:
    return str(SCEN_DIR / f"{name}.json")


def shipped_scenarios(work: Path) -> dict:
    """Name -> raw JSON of each bundled scenario and seed-201 benchmark
    input, the latter generated under work."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    out = {name: json.loads(Path(scenario_path(name)).read_text())
           for name in BUNDLED}
    for name in workloads.WORKLOADS:
        for p in workloads.generate(name, 201, ROOT, work / name).scenarios:
            out[p.stem] = json.loads(p.read_text())
    return out


@pytest.fixture(scope="session")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


def _run(name: str, out_root: Path) -> dict:
    from dptco.cli import run_scenario

    code, manifest = run_scenario(scenario_path(name), str(out_root / name))
    return {"code": code, "manifest": manifest,
            "out": out_root / name, "name": name}


@pytest.fixture(scope="session")
def ring_run(out_root):
    return _run("ring", out_root)


@pytest.fixture(scope="session")
def e2gen_run(out_root):
    return _run("example2_generator", out_root)


@pytest.fixture(scope="session")
def example1_run(out_root):
    return _run("example1", out_root)


@pytest.fixture(scope="session")
def example2_run(out_root):
    return _run("example2", out_root)


@pytest.fixture(scope="session")
def all_runs(ring_run, e2gen_run, example1_run, example2_run):
    return [ring_run, e2gen_run, example1_run, example2_run]


def _edited(name: str, edits) -> dict:
    raw = json.loads(Path(scenario_path(name)).read_text())
    edits(raw)
    return raw


def modified_scenario(name: str, tmp: Path, edits) -> str:
    """Copy a bundled scenario with an edit callback applied; returns path."""
    p = tmp / f"{name}_mod.json"
    p.write_text(json.dumps(_edited(name, edits)))
    return str(p)


def modified_build(name: str, edits):
    """Build a bundled scenario with an edit callback applied, in memory."""
    return Scenario(_edited(name, edits), scenario_path(name)).build()


def at_guard(guard_frac: float):
    """An edit callback that sets the clock's guard_frac."""
    return lambda raw: raw["clock"].update(guard_frac=guard_frac)
