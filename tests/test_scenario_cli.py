"""Scenario loading, monitor evaluation, and the command-line interface."""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dptco import cli
from dptco.cli import (EXIT_CONFIG, EXIT_MONITOR, EXIT_OK, main,
                       read_trajectory_csv, run_scenario)
from dptco.errors import NonFiniteState, ScenarioError
from dptco.generator import MonitorReport
from dptco.scenario import _worst, load_scenario, scenario_hash
from dptco.sim_engine import export_csv

from conftest import modified_scenario, scenario_path

# two quadratic agents on one edge: lambda2 = lambdaN = 2, rho = varrho = 2,
# c* = 1/13, so the generator criterion boundary sits at k = 26
TINY = {
    "name": "tiny",
    "clock": {"t0": 0.0, "T": 1.0, "guard_frac": 0.9},
    "network": {"n_agents": 2, "edges": [[0, 1, 1.0]]},
    "costs": {"dim": 1, "box": [[-5.0, 5.0]],
              "agents": [
                  {"family": "quadratic", "Q": [[1.0]], "center": [0.0]},
                  {"family": "quadratic", "Q": [[1.0]], "center": [1.0]}]},
    "gains": {"alpha": {"family": "linear", "params": [30.0]}},
    "agents": {"controller": "none", "varpi_init": [[0.0], [1.0]],
               "p_init": "zeros"},
    "solver": {"method": "rk45", "dt_max": 0.01, "rel_tol": 1e-7,
               "abs_tol": 1e-9, "log_every": 5},
    "monitors": {"conservation": {"tol": 1e-8}, "envelope": {"slack": 0.05},
                 "tracking": {"tol": 0.02}},
}


def write_tiny(tmp_path: Path, edits=None) -> str:
    raw = json.loads(json.dumps(TINY))
    if edits:
        edits(raw)
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(raw))
    return str(p)


# --- loading and validation ----------------------------------------------

def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"clock": [,}')
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(p))
    assert "line 1" in str(exc.value)


def test_missing_section_named(tmp_path):
    p = write_tiny(tmp_path, lambda raw: raw.pop("solver"))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p).build()
    assert "solver" in str(exc.value)


def test_unknown_solver_key_rejected(tmp_path, capsys):
    p = write_tiny(tmp_path,
                   lambda raw: raw["solver"].update({"mu_dt_coef": 5.0}))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p).build()
    assert str(exc.value).startswith(f"{p}: solver: ")
    assert "mu_dt_coef" in str(exc.value)
    assert main(["run", p, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "mu_dt_coef" in capsys.readouterr().err


def test_unknown_solver_method_rejected(tmp_path, capsys):
    p = write_tiny(tmp_path,
                   lambda raw: raw["solver"].update({"method": "euler"}))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p).build()
    assert str(exc.value).startswith(f"{p}: solver: ")
    assert "euler" in str(exc.value)
    assert main(["run", p, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def _set(section, key, value):
    return lambda raw: raw[section].__setitem__(key, value)


@pytest.mark.parametrize("where, edit, message", [
    ("gains", lambda raw: raw["gains"]["alpha"].pop("family"),
     "missing required key 'family'"),
    ("costs", lambda raw: raw["costs"]["agents"][0].pop("Q"),
     "missing required key 'Q'"),
    ("costs", lambda raw: raw["costs"]["agents"][0].update({"Q": [[1.0]]}),
     "Q shape does not match center"),
    ("agents", _set("agents", "varpi_init", [[1.0, 1.0]] * 5),
     "varpi_init must be 6 x 2"),
    ("clock", _set("clock", "T", "abc"), "'abc'"),
    ("network", lambda raw: raw["network"]["edges"].append([0, 99, 1.0]),
     "edge (0,99) outside 0..5"),
    ("network", _set("network", "n_agents", "six"), "'six'"),
])
def test_malformed_ring_gives_located_error(tmp_path, capsys, where, edit,
                                            message):
    raw = json.loads(Path(scenario_path("ring")).read_text())
    edit(raw)
    p = tmp_path / "ring.json"
    p.write_text(json.dumps(raw))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: {where}: ")
    assert message in err
    assert "Traceback" not in err


def test_unknown_monitor_rejected(tmp_path):
    p = write_tiny(tmp_path,
                   lambda raw: raw["monitors"].update({"bogus": {}}))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p).build()
    assert "monitors: bogus: unknown monitor" in str(exc.value)


@pytest.mark.parametrize("edit, message", [
    (lambda mons: mons.update({"tracking": {"tol": "abc"}}),
     "tracking: could not convert string to float: 'abc'"),
    (lambda mons: mons.update({"trackng": {"tol": 0.01}}),
     "trackng: unknown monitor"),
    (lambda mons: mons.update({"tracking": {"tol": 0.0}}),
     "tracking: tol out of range: 0.0"),
    (lambda mons: mons.update({"envelope": {"slak": 0.05}}),
     "envelope: unknown parameter 'slak'"),
], ids=["tol_not_a_number", "unknown_monitor", "tol_zero", "unknown_param"])
def test_bad_monitor_refused_before_integration(tmp_path, capsys,
                                                monkeypatch, edit, message):
    def no_integrate(*args, **kwargs):
        raise AssertionError("integrated a scenario with a bad monitor")

    monkeypatch.setattr(cli, "integrate", no_integrate)
    p = modified_scenario("ring", tmp_path, lambda raw: edit(raw["monitors"]))
    assert main(["run", p, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: monitors: {message}")
    assert "Traceback" not in err


def test_nonconserving_p_init_rejected(tmp_path):
    p = write_tiny(tmp_path,
                   lambda raw: raw["agents"].update(
                       {"p_init": [[1.0], [0.5]]}))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p).build()
    assert "sum to zero" in str(exc.value)


def test_subcritical_gain_refused_without_override(tmp_path):
    p = write_tiny(
        tmp_path,
        lambda raw: raw["gains"].update(
            {"alpha": {"family": "linear", "params": [10.0]}}))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p).build()
    assert "growth criterion" in str(exc.value)
    assert "acknowledge_criteria_override" in str(exc.value)


def test_override_allows_subcritical_gain(tmp_path):
    def edit(raw):
        raw["gains"]["alpha"] = {"family": "linear", "params": [10.0]}
        raw["gains"]["acknowledge_criteria_override"] = True

    build = load_scenario(write_tiny(tmp_path, edit)).build()
    assert build.override_acknowledged
    assert not build.criteria_ok


def test_scenario_hash_canonical():
    h1 = scenario_hash({"a": 1, "b": [2, 3]})
    h2 = scenario_hash({"b": [2, 3], "a": 1})
    assert h1 == h2 and len(h1) == 64
    assert scenario_hash({"a": 2, "b": [2, 3]}) != h1


def test_build_records_constants(tmp_path):
    build = load_scenario(write_tiny(tmp_path)).build()
    c = build.constants
    assert c["lambda2"] == pytest.approx(2.0)
    assert c["lambdaN"] == pytest.approx(2.0)
    assert c["rho_c"] == pytest.approx(2.0)
    assert c["c_star"] == pytest.approx(1.0 / 13.0)


def test_seed_changes_disturbance_only():
    sc = load_scenario(scenario_path("example1"))
    b1 = sc.build(seed=1)
    b2 = sc.build(seed=2)
    assert b1.seed == 1 and b2.seed == 2
    d1 = b1.sys.agents.disturbance(0.3)[0]
    d2 = b2.sys.agents.disturbance(0.3)[0]
    assert not np.allclose(d1, d2)
    assert np.array_equal(b1.y0, b2.y0)


def test_worst_agent_report_prefers_failures():
    # an agent that fails with a small ratio outranks one that passes with
    # a larger ratio; among passing agents the largest ratio is shown
    failing = MonitorReport("invariant_set", False, 1.01, 0.0)
    passing = MonitorReport("invariant_set", True, 1.015, None)
    assert _worst([passing, failing, passing]) is failing
    larger = MonitorReport("invariant_set", True, 1.5, None)
    assert _worst([passing, larger]) is larger


# --- run pipeline ------------------------------------------------------------

def test_tiny_run_green(tmp_path):
    code, manifest = run_scenario(write_tiny(tmp_path), str(tmp_path / "out"))
    assert code == EXIT_OK
    assert all(m["pass"] for m in manifest["monitors"])
    assert manifest["scenario"] == "tiny"
    assert len(manifest["scenario_sha256"]) == 64
    written = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert isinstance(written["n_rhs"], int) and written["n_rhs"] > 0


def test_run_emits_artifacts(example2_run):
    assert example2_run["code"] == EXIT_OK
    out = example2_run["out"]
    for fname in ("trajectory.csv", "envelope.svg", "tracking.svg",
                  "manifest.json"):
        assert (out / fname).is_file(), fname
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,mu,agent0.varpi0")


def test_cli_run_exit_codes(tmp_path, capsys):
    ok = main(["run", write_tiny(tmp_path), "--out", str(tmp_path / "o1")])
    assert ok == EXIT_OK
    assert "monitor conservation: pass" in capsys.readouterr().out

    strict = tmp_path / "strict.json"
    raw = json.loads(json.dumps(TINY))
    raw["monitors"]["tracking"] = {"tol": 1e-18}
    strict.write_text(json.dumps(raw))
    assert main(["run", str(strict), "--out",
                 str(tmp_path / "o2")]) == EXIT_MONITOR

    bad = tmp_path / "bad.json"
    raw["gains"] = {"alpha": {"family": "linear", "params": [10.0]}}
    bad.write_text(json.dumps(raw))
    code = main(["run", str(bad), "--out", str(tmp_path / "o3")])
    assert code == EXIT_CONFIG
    assert "growth criterion" in capsys.readouterr().err


# --- optimum command -----------------------------------------------------

def test_cli_optimum_example2(capsys):
    assert main(["optimum", scenario_path("example2")]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert np.allclose(cert["z_star"], [0.7263, 0.7183], atol=1e-3)
    assert cert["grad_norm"] <= 1e-8


def test_cli_optimum_example1(capsys):
    # six quadratic costs around a ring: mean of the centers
    assert main(["optimum", scenario_path("example1")]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert np.allclose(cert["z_star"], [-1.0 / 36.0, -2.0 / 36.0], atol=1e-9)


def test_cli_optimum_single_agent(tmp_path, capsys):
    def edit(raw):
        raw["network"] = {"n_agents": 1, "edges": []}
        raw["costs"]["agents"] = [raw["costs"]["agents"][1]]
        raw["agents"]["varpi_init"] = [[0.0]]

    p = write_tiny(tmp_path, edit)
    assert main(["optimum", p]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert np.allclose(cert["z_star"], [1.0], atol=1e-10)


# --- verify command ----------------------------------------------------------

def test_verify_reproduces_run(tmp_path, capsys):
    p = write_tiny(tmp_path)
    code, manifest = run_scenario(p, str(tmp_path / "out"))
    assert code == EXIT_OK
    csv = str(tmp_path / "out" / "trajectory.csv")
    assert main(["verify", csv, p]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") == len(manifest["monitors"])


def test_verify_flags_envelope_violation(tmp_path, capsys):
    # a frozen state can't satisfy the shrinking envelope: violation time
    # must be reported
    p = write_tiny(tmp_path)
    build = load_scenario(p).build()
    times = np.linspace(0.0, 0.9, 10)
    cols = {"t": times, "mu": [build.clock.mu(t) for t in times]}
    for name, val in zip(build.sys.column_names(), build.y0):
        cols[name] = np.full(10, val)
    csv = tmp_path / "frozen.csv"
    export_csv(str(csv), cols)
    assert main(["verify", str(csv), p]) == EXIT_MONITOR
    out = capsys.readouterr().out
    assert "envelope: FAIL" in out
    assert "first violation" in out


def test_verify_rejects_wrong_schema(tmp_path):
    p = write_tiny(tmp_path)
    csv = tmp_path / "wrong.csv"
    export_csv(str(csv), {"t": [0.0, 0.1], "mu": [1.0, 1.1],
                          "x": [0.0, 0.0]})
    assert main(["verify", str(csv), p]) == EXIT_CONFIG


def test_read_trajectory_rejects_nonmonotone(tmp_path):
    p = write_tiny(tmp_path)
    build = load_scenario(p).build()
    times = np.array([0.0, 0.2, 0.1])
    cols = {"t": times, "mu": np.ones(3)}
    for name, val in zip(build.sys.column_names(), build.y0):
        cols[name] = np.full(3, val)
    csv = tmp_path / "mono.csv"
    export_csv(str(csv), cols)
    with pytest.raises(ScenarioError) as exc:
        read_trajectory_csv(str(csv), build)
    assert "increasing" in str(exc.value)


# --- sweep command ----------------------------------------------------------

def test_cli_sweep(tmp_path, capsys):
    d = tmp_path / "scens"
    d.mkdir()
    (d / "a.json").write_text(json.dumps(TINY))
    raw = json.loads(json.dumps(TINY))
    raw["monitors"]["tracking"] = {"tol": 1e-18}
    (d / "b.json").write_text(json.dumps(raw))
    code = main(["sweep", str(d), "--out", str(tmp_path / "sw")])
    assert code == EXIT_MONITOR
    out = capsys.readouterr().out
    assert "a.json: ok" in out
    assert "b.json: monitor failure" in out
    assert (tmp_path / "sw" / "a" / "manifest.json").is_file()


def test_cli_sweep_survives_malformed_file(tmp_path, capsys, monkeypatch):
    # a gain without "family" is a located config error, and any other
    # exception of one file is reported too; the sweep still runs the valid
    # file and exits 1
    d = tmp_path / "scens"
    d.mkdir()
    raw = json.loads(json.dumps(TINY))
    del raw["gains"]["alpha"]["family"]
    (d / "a_bad.json").write_text(json.dumps(raw))
    (d / "b_good.json").write_text(json.dumps(TINY))
    (d / "c_crash.json").write_text(json.dumps(TINY))
    real_run = cli.run_scenario

    def run(path, out, **kwargs):
        if path.endswith("c_crash.json"):
            raise RuntimeError("boom")
        return real_run(path, out, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", run)
    code = main(["sweep", str(d), "--out", str(tmp_path / "sw")])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (f"a_bad.json: config error: {d / 'a_bad.json'}: gains: "
            "missing required key 'family'") in captured.err
    assert "c_crash.json: error: RuntimeError: boom" in captured.err
    assert "Traceback" not in captured.err
    assert "b_good.json: ok" in captured.out
    assert (tmp_path / "sw" / "b_good" / "manifest.json").is_file()


def _ring_deadlines(d: Path) -> None:
    """The bundled ring at T = 0.5, 1 and 2 in d, stopped at guard 0.9."""
    raw = json.loads(Path(scenario_path("ring")).read_text())
    d.mkdir()
    for T in (0.5, 1.0, 2.0):
        raw["clock"].update({"T": T, "guard_frac": 0.9})
        (d / f"ring_T{T}.json").write_text(json.dumps(raw))


def test_cli_sweep_output_independent_of_workers(tmp_path, capsys,
                                                 monkeypatch):
    _ring_deadlines(tmp_path / "scens")
    csvs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("DPTCO_THREADS", workers)
        out = tmp_path / f"sw{workers}"
        assert main(["sweep", str(tmp_path / "scens"),
                     "--out", str(out)]) == EXIT_OK
        csvs[workers] = [(out / f"ring_T{T}" / "trajectory.csv").read_bytes()
                         for T in (0.5, 1.0, 2.0)]
    assert csvs["1"] == csvs["2"]
    assert capsys.readouterr().out.count(": ok (") == 6


def test_cli_sweep_prints_in_file_order(tmp_path, capsys, monkeypatch):
    # the first file finishes last; its line still comes first
    d = tmp_path / "scens"
    d.mkdir()
    for name in ("a", "b", "c"):
        (d / f"{name}.json").write_text(json.dumps(TINY))
    real_run = cli.run_scenario

    def run(path, out, **kwargs):
        if path.endswith("a.json"):
            time.sleep(1.0)
        return real_run(path, out, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", run)
    monkeypatch.setenv("DPTCO_THREADS", "3")
    assert main(["sweep", str(d), "--out", str(tmp_path / "sw")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "a.json", "b.json", "c.json"]


def test_cli_sweep_reports_worker_exception(tmp_path, capfd, monkeypatch):
    # NonFiniteState raised in a worker comes back as a config error of its
    # file, and the other files still finish
    d = tmp_path / "scens"
    d.mkdir()
    for name in ("a_blowup", "b_good", "c_good"):
        (d / f"{name}.json").write_text(json.dumps(TINY))
    real_run = cli.run_scenario

    def run(path, out, **kwargs):
        if path.endswith("a_blowup.json"):
            raise NonFiniteState(0.25, 3)
        return real_run(path, out, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", run)
    monkeypatch.setenv("DPTCO_THREADS", "2")
    assert main(["sweep", str(d), "--out", str(tmp_path / "sw")]) == EXIT_CONFIG
    captured = capfd.readouterr()
    assert ("a_blowup.json: config error: non-finite state at t=0.25: 3"
            in captured.err)
    assert "b_good.json: ok" in captured.out
    assert "c_good.json: ok" in captured.out
    assert "Traceback" not in captured.err


def test_cli_sweep_survives_dead_worker(tmp_path, capfd, monkeypatch):
    d = tmp_path / "scens"
    d.mkdir()
    for name in ("a_dies", "b_good"):
        (d / f"{name}.json").write_text(json.dumps(TINY))
    real_run = cli.run_scenario

    def run(path, out, **kwargs):
        if path.endswith("a_dies.json"):
            os._exit(3)
        return real_run(path, out, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", run)
    monkeypatch.setenv("DPTCO_THREADS", "2")
    assert main(["sweep", str(d), "--out", str(tmp_path / "sw")]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert "a_dies.json: error: BrokenProcessPool: " in err
    assert "Traceback" not in err


def test_cli_sweep_empty_dir(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    assert main(["sweep", str(d)]) == EXIT_CONFIG
