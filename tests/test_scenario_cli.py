"""Scenario loading, monitor evaluation, and the command-line interface."""

import hashlib
import json
import math
import os
import signal
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from dptco import cli
from dptco.cli import (EXIT_CONFIG, EXIT_MONITOR, EXIT_OK, main,
                       read_trajectory_csv, run_scenario)
from dptco.errors import DptcoError, ScenarioError
from dptco.scenario import load_scenario, scenario_hash
from dptco.sim_engine import export_csv

from conftest import (at_guard, modified_build, modified_scenario,
                      scenario_path)

# two quadratic agents on one edge: lambda2 = lambdaN = 2, rho = varrho = 2,
# c* = 1/13, so the generator criterion boundary sits at k = 26
TINY = {
    "name": "tiny",
    "clock": {"T": 1.0, "guard_frac": 0.9},
    "network": {"n_agents": 2, "edges": [[0, 1, 1.0]]},
    "costs": {"dim": 1, "box": [[-5.0, 5.0]],
              "agents": [
                  {"family": "quadratic", "Q": [[1.0]], "center": [0.0]},
                  {"family": "quadratic", "Q": [[1.0]], "center": [1.0]}]},
    "gains": {"alpha": {"family": "linear", "params": [30.0]}},
    "agents": {"controller": "none", "varpi_init": [[0.0], [1.0]]},
    "solver": {"method": "rk45", "rel_tol": 1e-7, "abs_tol": 1e-9,
               "log_every": 5},
    "monitors": {"conservation": {}, "envelope": {},
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


def test_load_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    # the decode error escaped load_scenario as a traceback
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"name": "\xff"}')
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: cannot read: ")
    assert "Traceback" not in err


def test_missing_section_named(tmp_path):
    p = write_tiny(tmp_path, lambda raw: raw.pop("solver"))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p).build()
    assert "solver" in str(exc.value)


def test_unknown_solver_key_rejected(tmp_path, capsys):
    # both are step caps that a scenario once could set
    for key in ("mu_dt_coef", "dt_max"):
        p = write_tiny(tmp_path, lambda raw: raw["solver"].update({key: 5.0}))
        with pytest.raises(ScenarioError) as exc:
            load_scenario(p).build()
        assert str(exc.value).startswith(f"{p}: solver: unknown key(s) {key}")
        assert main(["run", p, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert key in capsys.readouterr().err


def test_unknown_solver_method_rejected(tmp_path, capsys):
    p = write_tiny(tmp_path,
                   lambda raw: raw["solver"].update({"method": "euler"}))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p).build()
    assert str(exc.value).startswith(f"{p}: solver: ")
    assert "euler" in str(exc.value)
    assert main(["run", p, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("values, message", [
    ({"rel_tol": 0, "abs_tol": 0}, "abs_tol must be finite and > 0, got 0.0"),
    ({"rel_tol": math.nan}, "rel_tol must be finite and >= 0, got nan"),
    ({"rel_tol": -1e-8}, "rel_tol must be finite and >= 0, got -1e-08"),
    ({"abs_tol": math.inf}, "abs_tol must be finite and > 0, got inf"),
    ({"log_every": 0}, "log_every must be >= 1, got 0"),
], ids=["both_tols_zero", "rel_tol_nan", "rel_tol_negative", "abs_tol_inf",
        "log_every_zero"])
def test_bad_solver_value_refused_at_load(tmp_path, capsys, monkeypatch,
                                          values, message):
    def no_integrate(*args, **kwargs):
        raise AssertionError("integrated a scenario with a bad solver")

    monkeypatch.setattr(cli, "integrate", no_integrate)
    p = write_tiny(tmp_path, lambda raw: raw["solver"].update(values))
    assert main(["run", p, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: solver: {message}")
    assert "Traceback" not in err


def test_zero_rel_tol_is_pure_absolute_control(tmp_path):
    p = write_tiny(tmp_path, lambda raw: raw["solver"].update(
        {"rel_tol": 0, "abs_tol": 1e-9}))
    code, manifest = run_scenario(p, str(tmp_path / "o"))
    assert code == EXIT_OK
    assert manifest["n_steps"] > 0


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
    # Python's unpacking text named no edge
    ("network", lambda raw: raw["network"]["edges"].__setitem__(0, [0, 1]),
     "edges[0] must be [i, j, weight], got [0, 1]"),
    ("network", lambda raw: raw["network"]["edges"].__setitem__(
        3, [3, 4, 1.0, 7]), "edges[3] must be [i, j, weight], got "
     "[3, 4, 1.0, 7]"),
    ("network", lambda raw: raw["network"]["edges"].__setitem__(5, 5),
     "edges[5] must be [i, j, weight], got 5"),
    ("gains", lambda raw: raw["gains"].update({"alpha": {
        "family": "table", "params": [[1.0, 2.0], [3.0, 6.0]]}}),
     "unknown gain family 'table'"),
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
    assert ("monitors: unknown key(s) bogus; allowed: conservation, envelope, "
            "tracking, chain_decay, invariant_set, sf_decay, "
            "theta_hat_envelope") in str(exc.value)


@pytest.mark.parametrize("edit, message", [
    (lambda mons: mons.update({"tracking": {"tol": "abc"}}),
     "tracking: tol must be a number, got 'abc'"),
    (lambda mons: mons.update({"trackng": {"tol": 0.01}}),
     "unknown key(s) trackng; allowed: conservation, envelope, tracking, "
     "chain_decay"),
    (lambda mons: mons.update({"tracking": {"tol": 0.0}}),
     "tracking: tol out of range: 0.0"),
    (lambda mons: mons.update({"tracking": {"tl": 0.01}}),
     "tracking: unknown key(s) tl; allowed: tol"),
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


@pytest.mark.parametrize("sigma", [1.0, 1.5])
def test_small_sigma_refused_before_integration(tmp_path, capsys,
                                                monkeypatch, sigma):
    # the estimator envelope divides by sqrt(2 sigma'), sigma' = 2 sigma - 3
    def no_integrate(*args, **kwargs):
        raise AssertionError("integrated a scenario with sigma <= 3/2")

    monkeypatch.setattr(cli, "integrate", no_integrate)
    p = modified_scenario("example2", tmp_path,
                          _set("agents", "sigma", sigma))
    assert main(["run", p, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {p}: agents: sigma must be > 1.5, got {sigma}")
    assert "Traceback" not in err


def _refused_before_integration(monkeypatch, capsys, tmp_path, p):
    """Run p, which must fail its build: exit 1, no integration, no
    warning, no output file; returns stderr."""
    def no_integrate(*args, **kwargs):
        raise AssertionError("integrated a scenario that must not build")

    monkeypatch.setattr(cli, "integrate", no_integrate)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", p, "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "trajectory.csv").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


_FAR_CENTER = "optimum oracle: the team cost is not finite at z = [0.0, 0.0] "


def _far_center(center):
    return _put("costs", "agents", 0, "center", value=[center, 0.0])


@pytest.mark.parametrize("center, message", [
    # the team value and gradient norm overflow at z = 0; the oracle's
    # NaN step then certified z_star = [NaN, NaN]
    (1e300, _FAR_CENTER + "(value inf, gradient norm inf)"),
    # the gradient is finite, its norm overflowed with a numpy warning
    (1e200, _FAR_CENTER + "(value inf, gradient norm inf)"),
    # finite throughout, but round-off keeps the gradient above 1e-8
    (1e150, "Newton exceeded 10000 iterations"),
], ids=["1e300", "1e200", "1e150"])
def test_oracle_refuses_a_far_cost_center_under_costs(
        tmp_path, capsys, monkeypatch, center, message):
    p = modified_scenario("ring", tmp_path, _far_center(center))
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err == f"error: {p}: costs: {message}\n"


@pytest.mark.parametrize("command", ["optimum", "verify"])
def test_oracle_errors_located_in_every_command(tmp_path, capsys, ring_run,
                                                command):
    p = modified_scenario("ring", tmp_path, _far_center(1e300))
    csv = str(ring_run["out"] / "trajectory.csv")
    argv = ["optimum", p] if command == "optimum" else ["verify", csv, p]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"error: {p}: costs: {_FAR_CENTER}(value inf, gradient norm "
        "inf)\n")


@pytest.mark.parametrize("key, gain, message", [
    # decreasing from the start: alpha_s(s) = -s e^s
    ("alpha_s", {"family": "exp", "params": [-1.0, 1.0]},
     "exp gain needs finite params with k1 > 0 and k2 >= 0"),
    ("alpha_s", {"family": "power", "params": [-1.0, 1.5]},
     "power gain needs finite params with k > 0 and a > 0"),
    # s e^{-s/1e4} peaks at s = 1e4 and decreases past it
    ("alpha_x", {"family": "exp", "params": [1.0, -1e-4]},
     "exp gain needs finite params with k1 > 0 and k2 >= 0"),
    ("alpha_x", {"family": "linear", "params": [math.nan]},
     "linear gain needs finite params"),
    ("alpha_s", {"family": "linear", "params": [1.0, 2.0]},
     "linear gain takes 1 params, got 2"),
    ("alpha_s", {"family": "dc2", "params": [1.0, 0, 1.0],
                 "base": {"family": "linear", "params": [1.0]}},
     "dc2 gain needs finite params with v1 > 0, an integer m >= 1"),
    ("alpha_s", {"family": "dc2", "params": [1.0, 2, 1.0],
                 "base": {"family": "log", "params": [0.0]}},
     "base: log gain needs finite params with k > 0"),
], ids=["exp_k1", "power_k", "exp_k2", "nan", "count", "dc2", "dc2_base"])
def test_gain_out_of_range_refused_with_its_key(tmp_path, capsys, monkeypatch,
                                                key, gain, message):
    p = modified_scenario("example1", tmp_path,
                          lambda raw: raw["gains"].update({key: gain}))
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(f"error: {p}: gains: {key}: {message}")


def _put(*keys, value=math.nan):
    """An edit that sets raw[keys[0]]...[keys[-1]] to value; json writes
    NaN and Infinity, and reads them back."""
    def edit(raw):
        d = raw
        for k in keys[:-1]:
            d = d[k]
        d[keys[-1]] = value
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("ring", _put("clock", "T"), "clock: T must be finite and > 0"),
    ("example1", _put("clock", "T", value=math.inf),
     "clock: T must be finite and > 0"),
    ("example2", _put("clock", "guard_frac"),
     "clock: guard_frac must be in (0,1), got nan"),
    # t0 and p_init are no longer keys: the clock starts at 0 and p at
    # zero, so a non-finite value is refused as an unknown key of its
    # section, not read
    ("example2", _put("clock", "t0"),
     "clock: unknown key(s) t0; allowed: T, guard_frac"),
    ("ring", _put("clock", "t0", value=-math.inf),
     "clock: unknown key(s) t0; allowed: T, guard_frac"),
    ("ring", _put("agents", "varpi_init", 2, 0),
     "agents: non-finite initial value of agent2.varpi0"),
    ("ring", _put("agents", "p_init",
                  value=[[math.nan, 0.0]] + [[0.0, 0.0]] * 5),
     "agents: unknown key(s) p_init; allowed: controller, varpi_init"),
    ("example1", _put("agents", "x_init", 0, 1, 0),
     "agents: non-finite initial value of agent0.x2_0"),
    ("example2", _put("agents", "theta_hat_init", 3),
     "agents: non-finite initial value of agent3.theta_hat"),
    ("ring", _put("costs", "agents", 1, "center", 0),
     "costs: center must be finite"),
    ("example2", _put("costs", "agents", 0, 1, "center", 1),
     "costs: center must be finite"),
    ("example2", _put("costs", "box", 0, 0), "costs: box must be finite"),
    ("ring", _put("network", "edges", 2, 2),
     "network: edge (2,3) has weight nan, not finite and > 0"),
    ("example2", _put("network", "edges", 0, 2, value=math.inf),
     "network: edge (0,1) has weight inf, not finite and > 0"),
    ("example1", _put("agents", "offsets", 4, 1),
     "agents: offsets must be finite"),
    ("example1", _put("agents", "v"), "agents: v must be finite"),
    ("example1", _put("agents", "K", 0, value=math.inf),
     "agents: K must be finite"),
    ("example1", _put("agents", "el_true_theta", 2),
     "agents: el_true_theta must be finite"),
    ("example2", _put("agents", "thetas", 1), "agents: thetas must be finite"),
    ("example2", _put("agents", "c", 0), "agents: c must be finite"),
    ("example2", _put("agents", "upsilon", 1, value=-math.inf),
     "agents: upsilon must be finite"),
    ("example2", _put("agents", "sigma", value=math.inf),
     "agents: sigma must be finite"),
    # finite numbers that overflow what is built from them.  With
    # P = 100 I, varrho_c = 2 exp(450) (100 + 2 * 150^2 * 2) + 0.4 is
    # finite, but c1 takes its square
    ("example2_generator", _put("costs", "agents", 2, 1, "P",
                                value=[[100.0, 0.0], [0.0, 100.0]]),
     "costs: c1 = inf is not finite, from rho_c = 0.4 and varrho_c = "
     "4.8783"),
    # a Q entry of 1e200 gives varrho_c = 2e200, whose square raised
    # "(34, 'Numerical result out of range')" from varrho_c ** 2
    ("ring", _put("costs", "agents", 0, "Q", 0, 0, value=1e200),
     "costs: c1 = inf is not finite, from rho_c = 2.0 and varrho_c = "
     "2e+200"),
    # exp(D^T |P| D) overflows on a box edge of 1e308; the norm of the
    # curvature sample's point pairs warned before the constants were
    # refused
    ("example2_generator", _put("costs", "box", 1, 1, value=1e308),
     "costs: curvature constants must be finite on the working box"),
    # W_hat - W was inf - inf, with a warning, before the run stopped in
    # the integrator under no section
    ("example1", _put("agents", "el_true_theta", 4, value=1e308),
     "agents: el_true_theta gives non-finite manipulator coefficients"),
    # a gravity coefficient of 9.8e306 is finite and the inertia positive
    # definite, but the velocities of the first step overflow the Coriolis
    # term: the run warned and stopped in a step-size underflow under no
    # section
    ("example1", _put("agents", "el_true_theta", 4, value=1e306),
     "agents: the derivative of agent0.x2_0 is not finite within the first "
     "step of 0.001"),
], ids=["T_nan", "T_inf", "guard_frac_nan", "t0_nan", "t0_-inf",
        "varpi_init", "p_init", "x_init",
        "theta_hat_init", "quadratic_center", "exp_quadratic_center", "box",
        "weight_nan", "weight_inf", "offsets", "v", "K", "el_true_theta",
        "thetas", "c", "upsilon", "sigma", "overflowing_cost",
        "huge_Q_entry", "huge_box", "huge_el_true_theta", "huge_gravity"])
def test_non_finite_number_refused_in_its_section(tmp_path, capsys,
                                                  monkeypatch, name, edit,
                                                  message):
    p = modified_scenario(name, tmp_path, edit)
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(f"error: {p}: {message}")


@pytest.mark.parametrize("name, edit, message", [
    # eigvalsh reads one triangle: Q = [[1, 4], [0, 1]] passed as positive
    # definite with rho_c = 2, though f's Hessian [[2, 4], [4, 2]] has the
    # eigenvalue -2, and the gradients 2 Q d disagreed with f
    ("ring", _put("costs", "agents", 0, "Q", value=[[1.0, 4.0], [0.0, 1.0]]),
     "costs: Q must be symmetric positive definite"),
    ("example2_generator", _put("costs", "agents", 1, 1, "P",
                                value=[[0.1, 0.3], [0.0, 0.2]]),
     "costs: P must be symmetric positive semidefinite"),
], ids=["Q", "P"])
def test_asymmetric_cost_matrix_refused(tmp_path, capsys, monkeypatch, name,
                                        edit, message):
    p = modified_scenario(name, tmp_path, edit)
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(f"error: {p}: {message}")


def test_flat_curvature_refused_under_costs(tmp_path, capsys, monkeypatch):
    # a term centred 1e154 away left the sampled curvature at 0, which the
    # generator constants refused outside any section, so the error named
    # neither the file nor the costs.  The closed form gives rho_c = 0.4;
    # the optimum oracle's team cost then overflows, refused under costs
    p = modified_scenario("example2", tmp_path, _put(
        "costs", "agents", 3, 0, "center", 1, value=1e154))
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(f"error: {p}: costs: optimum oracle: the team cost "
                          "is not finite at z = ")


@pytest.mark.parametrize("name, monitor, keys, message", [
    # the ring has no agent model, so no e_s_norm channel
    ("ring", "chain_decay", {}, "needs the 'chain' controller, not 'none'"),
    ("example2", "chain_decay", {},
     "needs the 'chain' controller, not 'strict_feedback'"),
    ("example1", "sf_decay", {},
     "needs the 'strict_feedback' controller, not 'chain'"),
    # the chain has an e_tilde_norm channel, but not the strict-feedback
    # scaled error that the invariant-set bound is stated for
    ("example1", "invariant_set", {"h": 1.0},
     "needs the 'strict_feedback' controller, not 'chain'"),
    # the controller is checked before the keys: the missing radius h was
    # reported, not the controller the monitor needs
    ("example1", "invariant_set", {},
     "needs the 'strict_feedback' controller, not 'chain'"),
], ids=["ring_chain_decay", "example2_chain_decay", "example1_sf_decay",
        "example1_invariant_set", "example1_invariant_set_without_h"])
def test_monitor_of_another_controller_refused(tmp_path, capsys, monkeypatch,
                                               name, monitor, keys, message):
    p = modified_scenario(name, tmp_path,
                          lambda raw: raw["monitors"].update({monitor: keys}))
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(f"error: {p}: monitors: {monitor}: {message}")


@pytest.mark.parametrize("theta, cos_q2", [
    # a negative theta_4 = M_22 ran, and every monitor passed
    ([7.0, 0.96, 1.2, -5.96, 2.0, 1.2], "1"),
    # a singular M stopped in a step-size underflow under no section
    ([0.0] * 6, "1"),
    # M_11 M_22 overflows to inf
    ([1e308, 0.96, 1.2, 5.96, 2.0, 1.2], "1"),
    # M(q) = A + cos(q2) B is positive definite at q2 = 0 only
    ([1.0, 0.5, 1.0, 2.0, 2.0, 1.2], "-1"),
], ids=["negative", "zero", "huge", "at_q2_pi"])
def test_inertia_not_positive_definite_refused_under_agents(
        tmp_path, capsys, monkeypatch, theta, cos_q2):
    p = modified_scenario("example1", tmp_path,
                          _put("agents", "el_true_theta", value=theta))
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(
        f"error: {p}: agents: el_true_theta gives an inertia matrix that is "
        "not positive definite with a finite determinant at cos q2 = "
        f"{cos_q2}: ")


@pytest.mark.parametrize("name, edit, message", [
    # float("nan") would take a string and run into a step-size underflow
    ("example1", _put("agents", "v", value="nan"),
     "agents: v must be a number, got 'nan'"),
    ("example2", _put("agents", "thetas", 1, value="1.0"),
     "agents: thetas must be a number, got '1.0'"),
    ("example2", _put("agents", "sigma", value=True),
     "agents: sigma must be a number, got True"),
    ("example1", _put("agents", "x_init", 0, 1, 0, value="0"),
     "agents: x_init must be a number, got '0'"),
    ("example1", _put("agents", "disturbance", "seed", value="7"),
     "agents: disturbance: seed must be a whole number, got '7'"),
    # counts: int() would truncate a fraction and convert a string or a bool
    ("ring", _put("network", "n_agents", value=5.9),
     "network: n_agents must be a whole number, got 5.9"),
    ("ring", _put("network", "n_agents", value="6"),
     "network: n_agents must be a whole number, got '6'"),
    ("ring", _put("network", "edges", 2, 1, value=3.5),
     "network: edges[2] endpoint must be a whole number, got 3.5"),
    ("ring", _put("network", "edges", 0, 0, value=False),
     "network: edges must be a number, got False"),
    ("ring", _put("costs", "dim", value=2.5),
     "costs: dim must be a whole number, got 2.5"),
    ("example2", _put("agents", "order", value=3.5),
     "agents: order must be a whole number, got 3.5"),
    ("ring", _put("solver", "log_every", value=2.7),
     "solver: log_every must be a whole number, got 2.7"),
    ("ring", _put("solver", "log_every", value=True),
     "solver: log_every must be a whole number, got True"),
    ("example1", _put("agents", "disturbance", "seed", value=1.5),
     "agents: disturbance: seed must be a whole number, got 1.5"),
    # outside agents, float() and np.asarray took these: T = 1.0 twice,
    # rel_tol = 1e-8, tol = 1.0, and string boxes, matrices and weights
    ("ring", _put("clock", "T", value=True), "clock: T must be a number, "
     "got True"),
    ("ring", _put("clock", "T", value="1"), "clock: T must be a number, "
     "got '1'"),
    ("ring", _put("solver", "rel_tol", value="1e-8"),
     "solver: rel_tol must be a number, got '1e-8'"),
    ("ring", _put("monitors", "tracking", "tol", value=True),
     "monitors: tracking: tol must be a number, got True"),
    ("ring", _put("costs", "box", value=[["-5", "5"], ["-5", "5"]]),
     "costs: box must be a number, got '-5'"),
    ("ring", _put("costs", "agents", 0, "Q",
                  value=[["1.0", "0.0"], ["0.0", "1.0"]]),
     "costs: Q must be a number, got '1.0'"),
    ("ring", _put("network", "edges", 0, 2, value="1.0"),
     "network: edges must be a number, got '1.0'"),
    # a whole number too large for a float, inside an array: np.asarray
    # and float() raised an OverflowError that escaped as a traceback
    ("ring", _put("costs", "agents", 0, "Q", 0, 0, value=10 ** 400),
     "costs: int too large to convert to float"),
    ("ring", _put("costs", "agents", 2, "center", 1, value=10 ** 400),
     "costs: int too large to convert to float"),
    ("ring", _put("network", "edges", 3, 2, value=10 ** 400),
     "network: int too large to convert to float"),
    ("ring", _put("agents", "varpi_init", 4, 0, value=10 ** 400),
     "agents: int too large to convert to float"),
    ("ring", _put("costs", "box", 0, 1, value=10 ** 400),
     "costs: int too large to convert to float"),
    ("ring", _put("gains", "alpha", "params", 0, value=10 ** 400),
     "gains: alpha: int too large to convert to float"),
], ids=["v_string", "thetas_string", "sigma_bool", "x_init_string",
        "seed_string", "n_agents_fraction", "n_agents_string",
        "endpoint_fraction", "endpoint_bool", "dim_fraction",
        "order_fraction", "log_every_fraction", "log_every_bool",
        "seed_fraction", "T_bool", "T_string", "rel_tol_string",
        "tol_bool", "box_strings", "Q_strings", "weight_string",
        "Q_huge_int", "center_huge_int", "weight_huge_int",
        "varpi_init_huge_int", "box_huge_int", "gain_params_huge_int"])
def test_non_number_refused_in_its_section(tmp_path, capsys, monkeypatch,
                                           name, edit, message):
    p = modified_scenario(name, tmp_path, edit)
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(f"error: {p}: {message}")


@pytest.mark.parametrize("name, edit, message", [
    ("ring", _put("nmae", value="ring"),
     "top level: unknown key(s) nmae; allowed: name, clock, network, costs, "
     "gains, agents, solver, monitors"),
    # a misspelled key would leave its default in force: guard 0.999 here
    ("ring", _put("clock", "guard_fac", value=0.5),
     "clock: unknown key(s) guard_fac; allowed: T, guard_frac"),
    ("ring", _put("network", "weights", value=[]),
     "network: unknown key(s) weights; allowed: n_agents, edges"),
    ("ring", _put("costs", "boxes", value=[]),
     "costs: unknown key(s) boxes; allowed: dim, box, agents"),
    ("ring", _put("costs", "agents", 3, "ofset", value=1.0),
     "costs: unknown key(s) ofset; allowed: family, Q, center, offset"),
    ("example2", _put("costs", "agents", 1, 1, "offset", value=1.0),
     "costs: unknown key(s) offset; allowed: family, P, center"),
    ("example1", _put("gains", "alpha_x", "base", value={}),
     "gains: alpha_x: unknown key(s) base; allowed: family, params"),
    ("example1", _put("gains", "alpha_s",
                      value={"family": "dc2", "params": [1.0, 2, 1.0],
                             "base": {"family": "linear", "params": [1.0],
                                      "k": 2.0}}),
     "gains: alpha_s: base: unknown key(s) k; allowed: family, params"),
    # and seed 0 here
    ("example1", _put("agents", "disturbance", "sed", value=5),
     "agents: disturbance: unknown key(s) sed; allowed: seed"),
    # the keys of gains and agents are those of the controller: each of
    # these built and ran with the key ignored
    ("example1", _put("gains", "alhpa_x", value={}),
     "gains: unknown key(s) alhpa_x; allowed: alpha, "
     "acknowledge_criteria_override, alpha_x, alpha_s"),
    ("example1", _put("agents", "psy", value=1.0),
     "agents: unknown key(s) psy; allowed: controller, varpi_init, order, "
     "x_init, offsets, v, K, plant, disturbance, el_true_theta"),
    # a strict-feedback key, and offsets, which only an agent model reads
    ("ring", _put("agents", "sigma", value=10.0),
     "agents: unknown key(s) sigma; allowed: controller, varpi_init"),
    ("ring", _put("agents", "offsets", value=[[0.0, 0.0]] * 6),
     "agents: unknown key(s) offsets; allowed: controller, varpi_init"),
], ids=["top_level", "clock", "network", "costs", "quadratic",
        "exp_quadratic", "gain", "dc2_base", "disturbance", "alhpa_x",
        "psy", "sigma_without_controller", "offsets_without_controller"])
def test_unknown_key_refused_in_its_section(tmp_path, capsys, monkeypatch,
                                            name, edit, message):
    p = modified_scenario(name, tmp_path, edit)
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(f"error: {p}: {message}")


def test_override_acknowledged_only_by_true(tmp_path, capsys, monkeypatch):
    # bool("false") is True: the string acknowledged the override, and
    # example1 built and ran past its failing chain_dc1 criterion
    p = modified_scenario("example1", tmp_path, _put(
        "gains", "acknowledge_criteria_override", value="false"))
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(f"error: {p}: gains: acknowledge_criteria_override "
                          "must be true or false, got 'false'")


def test_euler_lagrange_plant_of_order_3_refused(tmp_path, capsys,
                                                 monkeypatch):
    # with the m - 1 = 2 gains in K that order 3 takes
    def edit(raw):
        raw["agents"]["order"] = 3
        raw["agents"]["K"] = [1.0, 2.0]

    p = modified_scenario("example1", tmp_path, edit)
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(
        f"error: {p}: agents: the Euler-Lagrange plant needs order 2")


def test_chain_gains_of_another_order_refused_naming_k(tmp_path, capsys,
                                                     monkeypatch):
    # example1's K = [2.0] has m - 1 = 1 entry; at order 3 it needs 2
    p = modified_scenario("example1", tmp_path,
                          _set("agents", "order", 3))
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(
        f"error: {p}: agents: K must list m - 1 = 2 gains for order 3, "
        "got shape (1,)")


def test_rk4_refused_for_chain_agents(tmp_path, capsys, monkeypatch):
    # RK4 sizes its steps from the closed loop's design spectral radius;
    # the chain block has none, and example1 under RK4 ran into a
    # non-finite state before the guard
    p = modified_scenario("example1", tmp_path,
                          _set("solver", "method", "rk4"))
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(f"error: {p}: solver: method: rk4 sizes its "
                          "steps from the closed loop's design spectral "
                          "radius, and chain agents have none")


# each key a scenario file could hold before it was settled at one value,
# at that value: (scenario, path of the key, the section the error names,
# the keys left there)
REMOVED_KEYS = {
    "t0": ("ring", ("clock", "t0", 0.0), "clock", "T, guard_frac"),
    "p_init": ("ring", ("agents", "p_init", "zeros"), "agents",
               "controller, varpi_init"),
    "psi": ("example1", ("agents", "psi", 1.0), "agents", None),
    "el_nominal_scale": ("example1", ("agents", "el_nominal_scale", 0.9),
                         "agents", None),
    "gravity": ("example1", ("agents", "gravity", 9.8), "agents", None),
    "amplitude": ("example1", ("agents", "disturbance", "amplitude", 0.1),
                  "agents: disturbance", "seed"),
    "l": ("example2", ("agents", "l", 1.0), "agents", None),
    "sigma_prime": ("example2", ("agents", "sigma_prime", 1.0), "agents",
                    None),
    "rho": ("example2", ("agents", "rho", 10.0), "agents", None),
    "margin": ("example2", ("agents", "margin", 1.0), "agents", None),
    "dt": ("example2", ("solver", "dt", 1e-3), "solver",
           "method, rel_tol, abs_tol, log_every"),
    "conservation_tol": ("ring", ("monitors", "conservation", "tol", 1e-8),
                         "monitors: conservation", "none"),
    "envelope_slack": ("ring", ("monitors", "envelope", "slack", 0.05),
                       "monitors: envelope", "none"),
    "invariant_set_slack": ("example2", ("monitors", "invariant_set",
                                         "slack", 0.02),
                            "monitors: invariant_set", "h"),
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_refused_at_its_old_value(tmp_path, capsys, monkeypatch,
                                             key):
    # a file written for an older version is refused, not read as if the
    # key were still honoured
    name, path, where, allowed = REMOVED_KEYS[key]
    p = modified_scenario(name, tmp_path, _put(*path[:-1], value=path[-1]))
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err.startswith(
        f"error: {p}: {where}: unknown key(s) {path[-2]}; allowed: ")
    if allowed is not None:
        assert err == (f"error: {p}: {where}: unknown key(s) {path[-2]}; "
                       f"allowed: {allowed}\n")


# each key whose default no shipped scenario took, now required: (the
# bundled scenario that sets it, the path of the key, the section the
# error names)
REQUIRED_KEYS = {
    "name": ("ring", ("name",), "top level"),
    "box": ("ring", ("costs", "box"), "costs"),
    "log_every": ("ring", ("solver", "log_every"), "solver"),
    "conservation": ("ring", ("monitors", "conservation"), "monitors"),
    "envelope": ("ring", ("monitors", "envelope"), "monitors"),
    "tracking": ("ring", ("monitors", "tracking"), "monitors"),
    "alpha_s": ("example1", ("gains", "alpha_s"), "gains"),
    "v": ("example1", ("agents", "v"), "agents"),
    "K": ("example1", ("agents", "K"), "agents"),
    "plant": ("example1", ("agents", "plant"), "agents"),
    "disturbance": ("example1", ("agents", "disturbance"), "agents"),
    "seed": ("example1", ("agents", "disturbance", "seed"),
             "agents: disturbance"),
    "phi": ("example2", ("agents", "phi"), "agents"),
    "theta_hat_init": ("example2", ("agents", "theta_hat_init"), "agents"),
    "h": ("example2", ("monitors", "invariant_set", "h"),
          "monitors: invariant_set"),
}


@pytest.mark.parametrize("key", REQUIRED_KEYS)
def test_required_key_left_out_is_refused(tmp_path, capsys, monkeypatch,
                                          key):
    name, path, where = REQUIRED_KEYS[key]

    def drop(raw):
        d = raw
        for k in path[:-1]:
            d = d[k]
        del d[path[-1]]

    p = modified_scenario(name, tmp_path, drop)
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err == f"error: {p}: {where}: missing required key {key!r}\n"


def test_a_million_agents_on_six_edges_refused_before_allocation(
        tmp_path, capsys, monkeypatch):
    # build_network allocated the n x n Laplacian, 7.28 TiB, before it
    # checked anything, and stopped with a MemoryError traceback
    p = modified_scenario("ring", tmp_path,
                          _set("network", "n_agents", 10 ** 6))
    err = _refused_before_integration(monkeypatch, capsys, tmp_path, p)
    assert err == (f"error: {p}: network: 6 edges cannot connect 1000000 "
                   "agents, which takes n_agents - 1 = 999999 at least\n")


def test_nonconserving_p_init_rejected(tmp_path):
    # p starts at zero, which conserves sum_i p_i = 0; a p_init that would
    # break the conservation is refused with any other p_init
    p = write_tiny(tmp_path,
                   lambda raw: raw["agents"].update(
                       {"p_init": [[1.0], [0.5]]}))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p).build()
    assert "agents: unknown key(s) p_init" in str(exc.value)


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
    assert h1 == h2 == ("efbd0040190fb0871831e606c581f8a6"
                        "6db79d8e2bb836745a70051306956070")
    assert scenario_hash({"a": 2, "b": [2, 3]}) != h1


@pytest.mark.parametrize("name", ["ring", "example2_generator", "example1",
                                  "example2"])
def test_scenario_hash_is_hashlib_sha256(name):
    # the digest comes from CPython's own SHA-256 module, not hashlib
    raw = json.loads(Path(scenario_path(name)).read_text())
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    assert scenario_hash(raw) == hashlib.sha256(canon.encode()).hexdigest()


def test_build_records_constants(tmp_path):
    build = load_scenario(write_tiny(tmp_path)).build()
    c = build.constants
    assert c["lambda2"] == pytest.approx(2.0)
    assert c["lambdaN"] == pytest.approx(2.0)
    assert c["rho_c"] == pytest.approx(2.0)
    assert c["c_star"] == pytest.approx(1.0 / 13.0)


def test_seed_changes_disturbance_only():
    b1, b2 = (modified_build("example1", lambda raw: raw["agents"][
        "disturbance"].update(seed=s)) for s in (1, 2))
    assert b1.seed == 1 and b2.seed == 2
    d1 = b1.sys.agents.disturbance(0.3)[0]
    d2 = b2.sys.agents.disturbance(0.3)[0]
    assert not np.allclose(d1, d2)
    assert np.array_equal(b1.y0, b2.y0)


def test_negative_disturbance_seed_refused(tmp_path, capsys):
    # random.Random would seed with abs(seed): -3 would repeat seed 3
    p = modified_scenario("example1", tmp_path, lambda raw: raw["agents"][
        "disturbance"].update({"seed": -3}))
    assert main(["run", p, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: {p}: agents: expected non-negative integer\n"


@pytest.mark.parametrize("argv", [
    ["run", "{p}", "--guard-frac", "0.9", "--out", "{o}"],
    ["run", "{p}", "--seed", "7", "--out", "{o}"],
    ["run", "{p}", "--bogus"],
    ["frobnicate"],
], ids=["guard-frac", "seed", "bogus", "unknown-command"])
def test_malformed_command_line_exits_1(argv, tmp_path, capsys):
    # argparse's own exit code 2 would read as a failed monitor; the
    # scenario file is a run's only input, so the old overrides are unknown
    out = tmp_path / "o"
    argv = [a.format(p=scenario_path("ring"), o=out) for a in argv]
    assert main(argv) == EXIT_CONFIG
    assert "usage: dptco" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert main(["run", "--help"]) == EXIT_OK
    assert "--guard-frac" not in capsys.readouterr().out


# --- run pipeline ------------------------------------------------------------

def test_tiny_run_green(tmp_path):
    code, manifest = run_scenario(write_tiny(tmp_path), str(tmp_path / "out"))
    assert code == EXIT_OK
    assert all(m["pass"] for m in manifest["monitors"])
    assert manifest["scenario"] == "tiny"
    assert manifest["scenario_sha256"] == scenario_hash(TINY)
    written = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert isinstance(written["n_rhs"], int) and written["n_rhs"] > 0
    assert written["versions"] == {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__}


def test_manifest_integrator_block(ring_run, example2_run):
    # ring hands over to RKC2 in its stiff tail; example2 runs fixed-step
    # RK4; the top-level counts stay as they were
    for run in (ring_run, example2_run):
        man = json.loads((run["out"] / "manifest.json").read_text())
        block = man["integrator"]
        assert sum(block["steps"].values()) == man["n_steps"]
        assert sum(block["rejected"].values()) == man["n_rejected"]
        assert block["n_rhs"] == man["n_rhs"]
    ring = ring_run["manifest"]["integrator"]
    assert ring["method"] == "rk45" and ring["steps"]["rkc2"] > 0
    assert ring["handovers"][0]["to"] == "rkc2"
    assert ring["max_rkc2_stages"] >= 2
    rk4 = example2_run["manifest"]["integrator"]
    assert rk4["steps"] == {"rk4": example2_run["manifest"]["n_steps"]}
    assert rk4["handovers"] is None and rk4["max_rkc2_stages"] is None


def test_manifest_step_range_and_mu_decades(all_runs):
    # the shortest and longest accepted step in t, and the accepted steps
    # counted by the decade of mu at their start, "1e<k>" in rising order
    for run in all_runs:
        man = json.loads((run["out"] / "manifest.json").read_text())
        block = man["integrator"]
        assert 0.0 < block["min_step"] <= block["max_step"], run["name"]
        decades = block["steps_per_mu_decade"]
        assert sum(decades.values()) == man["n_steps"], run["name"]
        exps = [int(k[2:]) for k in decades]
        assert [f"1e{k}" for k in exps] == list(decades)
        assert exps == sorted(exps) and min(decades.values()) > 0


def test_manifest_timings_take_the_wall_time(all_runs):
    # the phases, in the order they run, account for the run's wall time
    for run in all_runs:
        man = json.loads((run["out"] / "manifest.json").read_text())
        timings = man["timings"]
        assert list(timings) == ["build", "oracle", "integrate", "derived",
                                 "monitors", "csv", "svg"]
        assert min(timings.values()) >= 0.0
        assert (0.95 * man["wall_seconds"] <= sum(timings.values())
                <= man["wall_seconds"])


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
    # one agent has no lambda2, so no envelope constants: every command
    # refuses it at the network section
    def edit(raw):
        raw["network"] = {"n_agents": 1, "edges": []}
        raw["costs"]["agents"] = [raw["costs"]["agents"][1]]
        raw["agents"]["varpi_init"] = [[0.0]]

    p = write_tiny(tmp_path, edit)
    for argv in (["optimum", p], ["run", p, "--out", str(tmp_path / "o")]):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {p}: network: n_agents must be at least 2, got 1: "
            "lambda2 is undefined\n")
    assert not (tmp_path / "o" / "trajectory.csv").exists()


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
    cols = {"t": times, "mu": [build.sys.clock.mu(t) for t in times]}
    for name, val in zip(build.sys.column_names(), build.y0):
        cols[name] = np.full(10, val)
    csv = tmp_path / "frozen.csv"
    export_csv(str(csv), cols)
    assert main(["verify", str(csv), p]) == EXIT_MONITOR
    out = capsys.readouterr().out
    assert "envelope: FAIL" in out
    assert "first violation" in out


def test_run_and_verify_print_the_same_failing_monitor_lines(tmp_path,
                                                             capsys):
    # at guard 0.9 example1's tracking monitor has not met its tolerance;
    # both commands name the first violation in the same words
    p = modified_scenario("example1", tmp_path, at_guard(0.9))
    out = tmp_path / "out"
    assert main(["run", p, "--out", str(out)]) == EXIT_MONITOR
    run_lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("monitor ")]
    assert main(["verify", str(out / "trajectory.csv"), p]) == EXIT_MONITOR
    verify_lines = [ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("monitor ")]
    assert any("first violation t=" in ln for ln in run_lines)
    assert run_lines == verify_lines


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



def _csv_text(build, times) -> str:
    """A well-formed run CSV body for the tiny scenario at the given times."""
    header = ",".join(["t", "mu"] + build.sys.column_names())
    rows = [",".join(repr(float(v)) for v in [t, 1.0, *build.y0])
            for t in times]
    return "\n".join([header, *rows]) + "\n"


def _drop_last_cell(text: str) -> str:
    head, *rows = text.splitlines()
    rows[-1] = rows[-1].rsplit(",", 1)[0]
    return "\n".join([head, *rows]) + "\n"


def _set_cell(text: str, line: int, column: int, cell: str) -> str:
    """text with the cell in the given 1-based file line and 0-based column
    replaced."""
    lines = text.splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = cell
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


# case: (make the bad file from a good CSV text, words the error must hold)
BAD_CSVS = {
    "missing": (lambda path, text: None, "No such file"),
    "directory": (lambda path, text: path.mkdir(), "Is a directory"),
    "non_utf8": (lambda path, text: path.write_bytes(
        text.encode() + b"0.3,\xff\xfe\n"), "can't decode byte 0xff"),
    "header_only": (lambda path, text: path.write_text(
        text.splitlines()[0] + "\n"), "no data rows"),
    # the header is file line 1, so data row k is file line k + 1
    "short_row": (lambda path, text: path.write_text(_drop_last_cell(text)),
                  ": line 4: 5 cells, the header has 6"),
    "long_row": (lambda path, text: path.write_text(
        text + "0.3,1.0" + ",0.0" * 5 + "\n"),
                 ": line 5: 7 cells, the header has 6"),
    "every_row_short": (lambda path, text: path.write_text("\n".join(
        [text.splitlines()[0]]
        + [r.rsplit(",", 1)[0] for r in text.splitlines()[1:]]) + "\n"),
                        "5 columns in the body, 6 in the header"),
    "non_numeric": (lambda path, text: path.write_text(
        text.replace("1.0", "one", 1)),
                    ": line 2, column mu: not a number: 'one'"),
    "non_numeric_state": (lambda path, text: path.write_text(
        _set_cell(text, 3, 3, "1.0.0")),
                          ": line 3, column agent1.varpi0: not a number: "
                          "'1.0.0'"),
    "non_increasing": (lambda path, text: path.write_text(
        text + text.splitlines()[1] + "\n"), "times not strictly increasing"),
}


@pytest.mark.parametrize("case", BAD_CSVS)
def test_verify_rejects_bad_csv_with_located_error(tmp_path, capsys, case):
    make, words = BAD_CSVS[case]
    p = write_tiny(tmp_path)
    build = load_scenario(p).build()
    csv = tmp_path / "bad.csv"
    make(csv, _csv_text(build, [0.0, 0.1, 0.2]))
    assert main(["verify", str(csv), p]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv}: ")
    assert words in err
    assert "Traceback" not in err and "usecols" not in err


@pytest.mark.parametrize("target", ["out_is_file", "manifest_is_dir"])
def test_run_reports_unwritable_out(tmp_path, capsys, target):
    out = tmp_path / "out"
    if target == "out_is_file":
        out.write_text("not a directory\n")
    else:
        (out / "manifest.json").mkdir(parents=True)
    code = main(["run", write_tiny(tmp_path), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ")
    assert str(out) in err and "Traceback" not in err

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
    assert (f"a_bad.json: config error: {d / 'a_bad.json'}: gains: alpha: "
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
    # a non-finite state raised in a worker comes back as a config error of its
    # file, and the other files still finish
    d = tmp_path / "scens"
    d.mkdir()
    for name in ("a_blowup", "b_good", "c_good"):
        (d / f"{name}.json").write_text(json.dumps(TINY))
    real_run = cli.run_scenario

    def run(path, out, **kwargs):
        if path.endswith("a_blowup.json"):
            raise DptcoError("non-finite state at t=0.25: 3")
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
    assert "a_dies.json: error: worker exited with code 3" in err
    assert "Traceback" not in err


def test_cli_sweep_survives_killed_worker(tmp_path, capfd, monkeypatch):
    d = tmp_path / "scens"
    d.mkdir()
    for name in ("a_killed", "b_good"):
        (d / f"{name}.json").write_text(json.dumps(TINY))
    real_run = cli.run_scenario

    def run(path, out, **kwargs):
        if path.endswith("a_killed.json"):
            os.kill(os.getpid(), signal.SIGKILL)
        return real_run(path, out, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", run)
    monkeypatch.setenv("DPTCO_THREADS", "2")
    assert main(["sweep", str(d), "--out", str(tmp_path / "sw")]) == EXIT_CONFIG
    captured = capfd.readouterr()
    assert (f"a_killed.json: error: worker killed by signal "
            f"{int(signal.SIGKILL)}") in captured.err
    assert "b_good.json: ok" in captured.out
    assert "Traceback" not in captured.err


def test_sweep_result_larger_than_a_pipe_buffer(tmp_path, monkeypatch):
    # each worker writes about 200 KB, more than a pipe holds, while the
    # parent waits on all of them: every result comes back whole
    blobs = {f"s{k}": str(k) * 200_000 for k in range(3)}

    def run(path, out):
        return EXIT_OK, {"wall_seconds": 0.5, "blob": blobs[Path(path).stem]}

    monkeypatch.setattr(cli, "run_scenario", run)
    jobs = [(f"{name}.json", str(tmp_path / name)) for name in blobs]
    results = dict(cli._sweep_forked(jobs, 2))
    assert results == {k: ["ok", EXIT_OK, {"wall_seconds": 0.5, "blob": blob}]
                       for k, blob in enumerate(blobs.values())}


def test_sweep_leaves_no_worker_running(tmp_path, monkeypatch):
    # the parent stops after the first result: the worker still running is
    # killed and reaped
    pid_file = tmp_path / "slow.pid"

    def run(path, out):
        if path == "slow.json":
            pid_file.write_text(str(os.getpid()))
            time.sleep(60.0)
        while not pid_file.exists():
            time.sleep(0.01)
        return EXIT_OK, {"wall_seconds": 0.0}

    monkeypatch.setattr(cli, "run_scenario", run)
    t0 = time.monotonic()
    results = cli._sweep_forked([("slow.json", str(tmp_path / "a")),
                                 ("fast.json", str(tmp_path / "b"))], 2)
    assert next(results) == (1, ["ok", EXIT_OK, {"wall_seconds": 0.0}])
    results.close()
    assert time.monotonic() - t0 < 30.0
    with pytest.raises(ChildProcessError):  # reaped, so no zombie either
        os.waitpid(int(pid_file.read_text()), os.WNOHANG)


@pytest.mark.parametrize("value", ["abc", "-1", "0", "2.5"])
def test_cli_sweep_refuses_bad_thread_count(value, tmp_path, capfd,
                                            monkeypatch):
    d = tmp_path / "scens"
    d.mkdir()
    (d / "a.json").write_text(json.dumps(TINY))

    def run(*args, **kwargs):
        pytest.fail("a worker ran with a malformed DPTCO_THREADS")

    monkeypatch.setattr(cli, "run_scenario", run)
    monkeypatch.setenv("DPTCO_THREADS", value)
    assert main(["sweep", str(d), "--out", str(tmp_path / "sw")]) == EXIT_CONFIG
    captured = capfd.readouterr()
    assert captured.err == ("error: DPTCO_THREADS must be a positive "
                            f"integer, got '{value}'\n")
    assert captured.out == ""
    assert not (tmp_path / "sw").exists()


def test_cli_sweep_empty_thread_count_is_default(tmp_path, capsys,
                                                 monkeypatch):
    d = tmp_path / "scens"
    d.mkdir()
    (d / "a.json").write_text(json.dumps(TINY))
    monkeypatch.setenv("DPTCO_THREADS", "")
    assert main(["sweep", str(d), "--out", str(tmp_path / "sw")]) == EXIT_OK
    assert "a.json: ok" in capsys.readouterr().out


def test_cli_sweep_empty_dir(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    assert main(["sweep", str(d)]) == EXIT_CONFIG
