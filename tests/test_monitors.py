"""The one monitor rule: every monitor is a logged ratio over (K, N)
reported by generator.ratio_report, and each of them can fail."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dptco.chain_ctrl import chain_decay_monitor, make_chain_config
from dptco.cli import read_trajectory_csv
from dptco.costs import optimum_oracle
from dptco.errors import EmptyTrajectory
from dptco.generator import generator_constants, ratio_report
from dptco.scenario import derived_series, evaluate_monitors, load_scenario
from dptco.strictfb_ctrl import (SfControllerConfig, invariant_set_monitor,
                                 sf_decay_monitor, theta_hat_monitor)
from dptco.timegain import PrescribedClock

from conftest import scenario_path
from oracles import (chain_decay_fit, linear_gain, sf_decay_fit,
                     theta_hat_max_ratio)

CLOCK = PrescribedClock(0.0, 1.0, 0.999)
TIMES = np.linspace(0.0, 0.8, 5)  # K = 5 logged times of N = 2 agents
MUS = np.array([CLOCK.mu(t) for t in TIMES])
CHAIN = make_chain_config(2, 1, 1.0, linear_gain(1.0), mu_guard=1000.0,
                          psi=1.0, mu0=1.0, alpha_s=None, K=None)
SF = SfControllerConfig(2, 1, 1.0, (2.0, 2.0), (3.0,), 2.0, linear_gain(1.0),
                        mu_guard=1000.0, phis=(lambda x: x,))


# --- ratio_report ------------------------------------------------------------

def test_ratio_report_passes_on_the_limit():
    rep = ratio_report("m", TIMES, np.ones((5, 2)), 1.0)
    assert rep.passed and rep.max_ratio == 1.0
    assert rep.first_violation_t is None


def test_ratio_report_first_violation_is_earliest_row_of_any_agent():
    ratio = np.zeros((5, 2))
    ratio[3, 0] = 5.0  # the largest ratio, but not the first failure
    ratio[1, 1] = 1.5
    rep = ratio_report("m", TIMES, ratio, 1.0)
    assert not rep.passed
    assert rep.max_ratio == 5.0
    assert rep.first_violation_t == TIMES[1]


def test_ratio_report_non_finite_fails_even_under_infinite_limit():
    ratio = np.full(5, 2.0)
    ratio[2] = math.nan
    ratio[4] = math.inf
    rep = ratio_report("m", TIMES, ratio, math.inf)
    assert not rep.passed
    assert rep.first_violation_t == TIMES[2]
    assert rep.max_ratio == math.inf  # NaN is ignored, inf is not


def test_ratio_report_limit_per_logged_time():
    limit = np.array([1.0, 2.0, 2.0, 2.0, 2.0])
    ratio = np.full((5, 1), 1.5)
    assert not ratio_report("m", TIMES, ratio, 1.0).passed
    rep = ratio_report("m", TIMES, ratio, limit)
    assert not rep.passed and rep.first_violation_t == TIMES[0]
    ratio[0] = 1.0
    assert ratio_report("m", TIMES, ratio, limit).passed


def test_ratio_report_floors_max_ratio_at_zero():
    rep = ratio_report("m", TIMES, np.full(5, -3.0), 1.0)
    assert rep.passed and rep.max_ratio == 0.0


def test_ratio_report_needs_two_logged_points():
    with pytest.raises(EmptyTrajectory):
        ratio_report("m", TIMES[:1], np.zeros((1, 2)), 1.0)


def test_invariant_set_fails_at_the_earliest_failing_agent():
    # agent 0 starts outside its ball (ratio 1.01 at t0, where the limit is
    # 1); agent 1 stays inside with ratio 1.015 <= 1 + slack; the report
    # fails at t0 and shows the largest ratio of either agent
    norms = np.array([[1.01, 0.5], [0.5, 1.015], [0.5, 0.5]])
    rep = invariant_set_monitor(TIMES[:3], norms, h=1.0, slack=0.02)
    assert not rep.passed
    assert rep.first_violation_t == TIMES[0]
    assert rep.max_ratio == 1.015


def test_theta_hat_envelope_zero_bound_keeps_a_zero_estimate():
    # theta_hat(t0) = 0 and tau = 0 give a zero envelope: an estimator that
    # stays at zero passes, and any non-zero estimate under it fails
    zeros = np.zeros((5, 2))
    rep = theta_hat_monitor(TIMES, MUS, zeros, zeros, SF)
    assert rep.passed and rep.max_ratio == 0.0
    drifted = zeros.copy()
    drifted[3, 1] = 1e-3
    rep = theta_hat_monitor(TIMES, MUS, drifted, zeros, SF)
    assert not rep.passed and rep.max_ratio == math.inf
    assert rep.first_violation_t == TIMES[3]


# --- every monitor fails on a violating (K, N) input -------------------------

def _channel(value, edits, violate):
    """A (K, 2) channel filled with value, then, if violate, the entries
    {(row, agent): value} of edits."""
    out = np.full((5, 2), float(value))
    for at, v in edits.items() if violate else ():
        out[at] = v
    return out


def _theta_hats(violate):
    # with tau = 0 each agent's envelope is |theta_hat(t0)| mu0 / mu; the
    # estimates sit at half of it, or at twice it where edited
    th = np.repeat(MUS[0] / MUS[:, None], 2, axis=1)
    th[1:] *= 0.5
    if violate:
        th[2, 1] *= 4.0
        th[3, 0] *= 4.0
    return th


# monitor -> (its parameters, the agent config, its derived channels with
# or without the violation, the first logged row at which some agent
# violates its bound)
FAILING = {
    "conservation": ({"tol": 1e-8}, None, lambda v: {
        # the largest drift comes after the first exceedance
        "p_sum": _channel(0.0, {(2, 0): 1e-6, (4, 0): 1e-3}, v)}, 2),
    "envelope": ({"slack": 0.05}, None, lambda v: {
        "e_r_norm": np.array([1.0, 1e-3, 100.0 if v else 1e-3, 1e-3,
                              100.0 if v else 1e-3])}, 2),
    "tracking": ({"tol": 1e-2}, None, lambda v: {
        # only the endpoint counts, so the errors before it may be large
        "track_err": _channel(1e-3, {(4, 1): 1.0}, v)
        + [[1.0], [1.0], [1.0], [1.0], [0.0]]}, 4),
    "chain_decay": ({}, CHAIN, lambda v: {
        "e_s_norm": _channel(0.0, {(3, 0): math.nan}, v),
        "e_tilde_norm": _channel(1.0, {(2, 1): math.inf}, v)}, 2),
    "invariant_set": ({}, SF, lambda v: {
        # default radius 2 * 1 + 1 = 3; 3.1 / 3 is over 1 + slack
        "e_tilde_norm": _channel(1.0, {(2, 1): 3.1, (3, 0): 10.0}, v)}, 2),
    "sf_decay": ({}, SF, lambda v: {
        "mu": MUS, "e_s_norm": _channel(1.0, {(2, 1): math.inf}, v)}, 2),
    "theta_hat_envelope": ({}, SF, lambda v: {
        "mu": MUS, "tau": _channel(0.0, {}, v),
        "theta_hat": _theta_hats(v)}, 2),
}


@pytest.mark.parametrize("name", FAILING)
def test_every_monitor_fails_at_its_first_violating_row(name):
    params, cfg, derived, row = FAILING[name]
    build = SimpleNamespace(
        monitors={name: params},
        gen_constants=generator_constants(0.2, 2.0, 1.0, 4.0),
        sys=SimpleNamespace(clock=CLOCK, alpha=linear_gain(1.0),
                            agents=SimpleNamespace(cfg=cfg)))
    traj = SimpleNamespace(times=TIMES)
    [ok] = evaluate_monitors(build, traj, derived(False))
    assert ok.passed
    [rep] = evaluate_monitors(build, traj, derived(True))
    assert not rep.passed
    assert rep.first_violation_t == TIMES[row]


# --- (K, N) monitors against their per-column calls --------------------------

def _derived(run):
    build = load_scenario(scenario_path(run["name"])).build()
    traj = read_trajectory_csv(str(run["out"] / "trajectory.csv"), build)
    z_star = optimum_oracle(build.sys.costs).z_star
    return build, traj, derived_series(build, traj, z_star)


def _check_columns(report, column_reports, loop_max=None):
    """The (K, N) report against its per-column calls and, when given, the
    max ratio of a scalar loop, bit for bit."""
    assert report.max_ratio == max(r.max_ratio for r in column_reports)
    assert report.passed == all(r.passed for r in column_reports)
    if loop_max is not None:
        assert report.max_ratio == loop_max


def test_example2_monitors_equal_their_per_column_calls(example2_run):
    build, traj, d = _derived(example2_run)
    t, cfg = traj.times, build.sys.agents.cfg
    cols = range(build.sys.net.n_agents)
    # the bundled radius, then the default one: 2 ||e_tilde(t0)|| + 1
    for params in (build.monitors["invariant_set"], {"slack": 0.02}):
        [rep] = evaluate_monitors(
            dataclasses.replace(build, monitors={"invariant_set": params}),
            traj, d)
        e = d["e_tilde_norm"]
        _check_columns(rep, [invariant_set_monitor(
            t, e[:, i:i + 1], **{"h": 2.0 * e[0, i] + 1.0, **params})
            for i in cols])
    reports = {r.name: r for r in evaluate_monitors(build, traj, d)}
    _check_columns(reports["sf_decay"], [sf_decay_monitor(
        t, d["mu"], d["e_s_norm"][:, i:i + 1], cfg) for i in cols],
        sf_decay_fit(d["mu"], d["e_s_norm"], cfg))
    _check_columns(reports["theta_hat_envelope"], [theta_hat_monitor(
        t, d["mu"], d["theta_hat"][:, i:i + 1], d["tau"][:, i:i + 1], cfg)
        for i in cols],
        theta_hat_max_ratio(d["mu"], d["theta_hat"], d["tau"], cfg))


def test_example1_chain_decay_equals_its_per_column_calls(example1_run):
    build, traj, d = _derived(example1_run)
    reports = {r.name: r for r in evaluate_monitors(build, traj, d)}
    cfg = build.sys.agents.cfg
    _check_columns(reports["chain_decay"], [chain_decay_monitor(
        traj.times, d["e_s_norm"][:, i:i + 1], d["e_tilde_norm"][:, i:i + 1],
        cfg, build.sys.clock) for i in range(build.sys.net.n_agents)],
        chain_decay_fit(traj.times, d["e_s_norm"], cfg, build.sys.clock))
