"""The stage-major state layout of CoupledSystem, on one chain scenario
(example1, the Euler-Lagrange manipulators) and one strict-feedback
scenario (example2): contiguous stage views, a pack that puts every
agent-major input value under its column name, and a per-agent control
that matches the stacked one."""

import json
from pathlib import Path

import numpy as np
import pytest

from dptco.scenario import load_scenario

from conftest import scenario_path
from oracles import agent_control, stacked_control

SCENARIOS = ["example1", "example2"]


@pytest.fixture(scope="module", params=SCENARIOS)
def build(request):
    return load_scenario(scenario_path(request.param)).build()


def test_stage_views_are_contiguous_blocks(build):
    sys = build.sys
    n, d, m = sys.net.n_agents, sys.dim, sys.agents.cfg.m
    _, _, x, c = sys.views(build.y0)
    assert x.shape == (m, n, d)
    blocks = list(x)
    if c is not None:
        theta_hat, xi_f = c
        assert theta_hat.shape == (n,)
        assert xi_f.shape == (m - 1, n, d)
        blocks += [theta_hat, *xi_f]
    for block in blocks:
        assert block.flags.c_contiguous
        assert np.shares_memory(block, build.y0)


def test_pack_puts_each_value_under_its_column(build):
    sys = build.sys
    n, d, m = sys.net.n_agents, sys.dim, sys.agents.cfg.m
    varpi = np.arange(n * d).reshape(n, d) + 0.5
    p = -varpi
    x_init = 1000.0 + np.arange(n * m * d).reshape(n, m, d)
    ctrls = None
    if sys.ctrl_size:
        ctrls = 5000.0 + np.arange(n * sys.ctrl_size).reshape(
            n, sys.ctrl_size)
    names = sys.column_names()
    assert len(set(names)) == len(names) == sys.total_dim
    col = dict(zip(names, sys.pack(varpi, p, x_init.tolist(), ctrls)))
    for i in range(n):
        for k in range(d):
            assert col[f"agent{i}.varpi{k}"] == varpi[i][k]
            assert col[f"agent{i}.p{k}"] == p[i][k]
            for q in range(1, m + 1):
                assert col[f"agent{i}.x{q}_{k}"] == x_init[i][q - 1][k]
            if ctrls is not None:
                for q in range(2, m + 1):
                    assert (col[f"agent{i}.xif{q}_{k}"]
                            == ctrls[i][1 + (q - 2) * d + k])
        if ctrls is not None:
            assert col[f"agent{i}.theta_hat"] == ctrls[i][0]


def test_scenario_x_init_lands_under_its_column(build):
    raw = json.loads(Path(build.path).read_text())["agents"]
    sys = build.sys
    col = dict(zip(sys.column_names(), build.y0))
    for i, stages in enumerate(raw["x_init"]):
        for q, stage in enumerate(stages, start=1):
            for k, value in enumerate(stage):
                assert col[f"agent{i}.x{q}_{k}"] == value
    if sys.ctrl_size:
        theta_hat0 = np.broadcast_to(raw.get("theta_hat_init", 0.0),
                                     (sys.net.n_agents,))
        for i, value in enumerate(theta_hat0):
            assert col[f"agent{i}.theta_hat"] == value


def test_agent_control_is_row_of_stacked_control(build):
    sys = build.sys
    rng = np.random.default_rng(5)
    y = build.y0 + 0.1 * rng.standard_normal(sys.total_dim)
    t = 0.3
    varpi, _, x, c = sys.views(y)
    stacked = stacked_control(sys.agents, sys.clock.mu(t), x, c,
                              sys.references(varpi))
    assert stacked.shape == (sys.net.n_agents, sys.dim)
    scale = max(1.0, float(np.abs(stacked).max()))
    for i in range(sys.net.n_agents):
        assert np.abs(agent_control(sys, t, y, i) - stacked[i]).max() <= (
            1e-12 * scale)


def test_agent_major_lists_the_state_as_pack_takes_it(build):
    sys = build.sys
    n, d, m = sys.net.n_agents, sys.dim, sys.agents.cfg.m
    rng = np.random.default_rng(6)
    parts = [rng.standard_normal((n, d)), rng.standard_normal((n, d)),
             rng.standard_normal((n, m, d))]
    ctrls = None
    if sys.ctrl_size:
        ctrls = rng.standard_normal((n, sys.ctrl_size))
        parts.append(ctrls)
    y = sys.pack(*parts[:3], ctrls)
    want = np.concatenate([part.ravel() for part in parts])
    assert y[sys.agent_major].tobytes() == want.tobytes()
