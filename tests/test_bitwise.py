"""The hot kernels against their per-op references in oracles, bit for bit.

Each kernel takes fewer, larger numpy operations than its reference: the
stacked cost product of CostSet, the strict-feedback cascade, the
manipulator's closed-loop acceleration, and derived_series' one pass over
all logged rows.  Every entry must still be rounded as the reference
rounds it, on leading axes, on a single agent and, for the costs, on
batches that leave agents out.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptco.chain_ctrl import ElMismatch, EulerLagrangeParams, el_acceleration
from dptco.cli import read_trajectory_csv
from dptco.costs import CostSet
from dptco.scenario import derived_series, load_scenario
from dptco.strictfb_ctrl import (SfControllerConfig, StrictFeedbackAgents,
                                 virtual_controls)

import oracles
from conftest import scenario_path
from oracles import expq, power_gain, quad

SEEDS = st.integers(0, 2 ** 31 - 1)
LEADS = st.sampled_from([(), (3,), (2, 2)])


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


def scales(rng, shape):
    """Normal draws at scales from 1e-3 to 1e2."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 2.0, shape)


# --- costs: the stacked product against each batch's own ---------------------

def random_terms(rng, n_agents: int, layout: str) -> list:
    """One agent's cost per entry: a quadratic and an exp-quadratic on
    every agent ("both"), a quadratic only ("quadratic"), or a scattered
    mix in which some agents lack a family and one holds two
    exp-quadratics ("scattered")."""
    def Q():
        a = rng.standard_normal((2, 2))
        return (a @ a.T + 0.1 * np.eye(2)).tolist()

    def P():
        a = 0.3 * rng.standard_normal((2, 2))
        return (a @ a.T).tolist()

    def c():
        return rng.uniform(-1.0, 1.0, 2).tolist()

    if layout == "both":
        return [[quad(Q(), c()), expq(P(), c())] for _ in range(n_agents)]
    if layout == "quadratic":
        return [[quad(Q(), c()), quad(Q(), c())] for _ in range(n_agents)]
    agents = [quad(Q(), c()), expq(P(), c()), [expq(P(), c()),
                                              expq(P(), c()), quad(Q(), c())]]
    return agents[:max(n_agents, 2)]


@given(SEEDS, st.integers(1, 5), LEADS,
       st.sampled_from(["both", "quadratic", "scattered"]))
@settings(max_examples=60, deadline=None)
def test_cost_stacks_equal_per_family_forms(seed, n_agents, lead, layout):
    rng = np.random.default_rng(seed)
    agents = random_terms(rng, n_agents, layout)
    cs = CostSet(agents, 2, oracles.wide_box(2))
    Z = rng.uniform(-1.5, 1.5, lead + (len(agents), 2))
    assert_bits(cs.grad_stack(Z), oracles.sum_terms_per_family(cs, Z, 0))
    assert_bits(cs.hessian_stack(Z), oracles.sum_terms_per_family(cs, Z, 1))


# --- strict-feedback cascade -------------------------------------------------

def identity(x):
    return x


PHIS = {"identity": (identity,) * 3, "tanh": (np.tanh,) * 3,
        "mixed": (np.sin, np.tanh, identity)}


@given(SEEDS, st.integers(2, 4), st.integers(1, 4), LEADS,
       st.sampled_from(sorted(PHIS)))
@settings(max_examples=60, deadline=None)
def test_cascade_equals_per_op_form(seed, m, n_agents, lead, phi):
    rng = np.random.default_rng(seed)
    cfg = SfControllerConfig(m, 2, tuple(rng.uniform(5.0, 12.0, m)),
                             tuple(rng.uniform(10.0, 20.0, m - 1)), 10.0,
                             power_gain(1.0, 1.5), 1e3, PHIS[phi][:m - 1])
    agents = StrictFeedbackAgents(cfg, rng.uniform(-3.0, 3.0, n_agents))
    x = scales(rng, (m,) + lead + (n_agents, 2))
    c = (scales(rng, lead + (n_agents,)),
         scales(rng, (m - 1,) + lead + (n_agents, 2)))
    ref = scales(rng, lead + (n_agents, 2))
    mu = float(rng.uniform(1.0, 50.0))
    dx, dc = np.empty_like(x), tuple(np.empty_like(v) for v in c)
    agents.derivatives(0.0, mu, x, c, ref, dx, dc)
    want_dx, want_dc = oracles.sf_derivatives(x, c, ref, agents.thetas, mu,
                                              cfg)
    assert_bits(dx, want_dx)
    for got, want in zip(dc, want_dc):
        assert_bits(got, want)
    view = virtual_controls(x, ref, c[1], c[0], mu, cfg)
    want = oracles.cascade(x, ref, c[1], c[0], mu, cfg)
    for key in ("xi", "x_tilde", "xi_tilde"):
        assert_bits(view[key], want[key])
    assert_bits(view["tau"], oracles.tau_value(x, want["x_tilde"], mu, cfg))
    if len(lead) == 1:
        # one gain per leading row: each row as at its own float mu
        mus = rng.uniform(1.0, 50.0, lead)
        rows = virtual_controls(x, ref, c[1], c[0], mus, cfg)
        for k, mu_k in enumerate(mus):
            one = virtual_controls(x[:, k], ref[k], c[1][:, k], c[0][k],
                                   float(mu_k), cfg)
            for key in ("xi", "x_tilde", "xi_tilde"):
                assert_bits(rows[key][:, k], one[key])
            assert_bits(rows["tau"][k], one["tau"])


# --- the manipulator's acceleration ------------------------------------------

@given(SEEDS, st.integers(1, 6), LEADS)
@settings(max_examples=60, deadline=None)
def test_el_acceleration_equals_per_op_form(seed, n_agents, lead):
    rng = np.random.default_rng(seed)
    theta = tuple(rng.uniform(0.5, 5.0, 6))
    true = EulerLagrangeParams(theta)
    nominal = EulerLagrangeParams(tuple(0.9 * t for t in theta))
    x1, x2, u = (scales(rng, lead + (n_agents, 2)) for _ in range(3))
    got = el_acceleration(ElMismatch.of(true, nominal), x1, x2, u,
                          np.empty(lead + (n_agents, 2)))
    assert_bits(got, oracles.el_acceleration_per_op(true, nominal, x1, x2,
                                                    u))


# --- derived channels --------------------------------------------------------

def test_derived_series_equals_row_loop(all_runs):
    # the four bundled runs, read back as verify reads them
    for run in all_runs:
        build = load_scenario(scenario_path(run["name"])).build()
        traj = read_trajectory_csv(str(run["out"] / "trajectory.csv"), build)
        z_star = np.array(run["manifest"]["optimum"]["z_star"])
        got = derived_series(build, traj, z_star)
        want = oracles.derived_series_loop(build, traj, z_star)
        assert list(got) == list(want), run["name"]
        for key in want:
            assert_bits(got[key], want[key])


@pytest.mark.parametrize("name", ["ring", "example2"])
def test_views_with_leading_axes_take_each_row(name):
    # the logged rows' views are each row's views, stage axis first
    build = load_scenario(scenario_path(name)).build()
    sys = build.sys
    Y = np.random.default_rng(3).standard_normal((4, sys.total_dim))
    rows = sys.views(Y)
    for k in range(4):
        one = sys.views(Y[k])
        for got, want in zip(rows[:3], one[:3]):
            axis = 1 if got.ndim == 4 else 0
            assert_bits(np.take(got, k, axis=axis), want)
        if one[3] is not None:
            assert_bits(rows[3][0][k], one[3][0])
            assert_bits(rows[3][1][:, k], one[3][1])
