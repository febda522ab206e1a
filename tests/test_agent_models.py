"""Stacked agent models: the batched closed loop over all N agents must
equal a per-agent loop over the single-agent controller functions."""

import numpy as np
import pytest

from dptco.chain_ctrl import (ChainAgents, ElMismatch, EulerLagrangeParams,
                              chain_control, chain_error_view,
                              el_acceleration, make_chain_config)
from dptco.costs import CostSet
from dptco.errors import DptcoError
from dptco.graph import build_network
from dptco.sim_engine import CoupledSystem, integrate, make_disturbance
from dptco.strictfb_ctrl import (SfControllerConfig, StrictFeedbackAgents,
                                 error_vector, scaled_error_vector,
                                 virtual_controls)
from dptco.timegain import PrescribedClock

from oracles import (System, adaptation_rhs, agent_control, cascade,
                     chain_plant_rhs, concatenated_rhs, el_acceleration_solve,
                     el_matrices, exp_gain, filter_rhs, hurwitz_gain,
                     integrate_allocating, linear_gain, power_gain, quad,
                     rhs_new, sf_control, sf_derivatives, sf_plant_rhs,
                     solver_settings, tau_value, wide_box)

N, DIM = 5, 2
CLOCK = PrescribedClock(1.0, 0.999)
EL_TRUE = EulerLagrangeParams((7.0, 0.96, 1.2, 5.96, 2.0, 1.2))
EL_NOMINAL = EulerLagrangeParams(tuple(0.9 * t for t in EL_TRUE.theta))
REL = 1e-12


def coupled(agents, offsets=None) -> CoupledSystem:
    net = build_network(N, [[i, (i + 1) % N, 1.0] for i in range(N)])
    costs = CostSet([quad(np.eye(DIM) * (0.5 + 0.25 * i), [i, -i])
                     for i in range(N)], DIM, wide_box(DIM))
    return CoupledSystem(CLOCK, net, costs, linear_gain(10.0), agents=agents,
                         offsets=offsets)


def random_state(sys, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(sys.total_dim), float(rng.uniform(0.0, 0.8))


def assert_close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(np.asarray(got) - want).max() <= REL * scale


def calm(t):
    """No disturbance."""
    return np.zeros((N, DIM))


def chain_agents(m, el_theta=None, disturbance=calm, mu_guard=1e3):
    cfg = make_chain_config(m, DIM, 6.0, linear_gain(1.0), mu_guard,
                            exp_gain(1.0, 1.0), hurwitz_gain(m))
    return ChainAgents(cfg, el_theta, disturbance)


def sf_agents(mu_guard=1e3):
    cfg = SfControllerConfig(3, DIM, (10.0, 9.0, 8.0), (15.0, 20.0),
                             10.0, power_gain(1.0, 1.5), mu_guard,
                             (np.sin, np.tanh))
    return StrictFeedbackAgents(cfg, np.linspace(-2.0, 2.0, N))


def per_agent_chain(sys, t, y):
    """Agent part of dy and every control, one agent at a time."""
    agents = sys.agents
    mu = CLOCK.mu(t)
    varpi, _, x, _ = sys.views(y)
    dx = np.empty_like(x)
    us = []
    for i in range(N):
        ref = varpi[i] + (0.0 if sys.offsets is None else sys.offsets[i])
        u = chain_control(x[:, i], ref, mu, agents.cfg)
        us.append(u)
        acc = u
        if agents.el is not None:
            acc = el_acceleration(agents.el, x[0, i], x[1, i], u,
                                  np.empty(DIM))
        dx[:, i] = chain_plant_rhs(x[:, i], acc, agents.disturbance(t)[i])
    return dx.ravel(), np.array(us)


@pytest.mark.parametrize("seed", range(5))
def test_chain_model_matches_per_agent_loop(seed):
    sys = coupled(chain_agents(3))
    y, t = random_state(sys, seed)
    dx, us = per_agent_chain(sys, t, y)
    assert_close(rhs_new(sys, t, y)[sys.gen_size:], dx)
    for i in range(N):
        assert_close(agent_control(sys, t, y, i), us[i])


@pytest.mark.parametrize("seed", range(5))
def test_euler_lagrange_model_matches_per_agent_loop(seed):
    rng = np.random.default_rng(100 + seed)
    agents = chain_agents(2, el_theta=EL_TRUE.theta,
                          disturbance=make_disturbance(seed, N, DIM))
    sys = coupled(agents, offsets=rng.standard_normal((N, DIM)))
    y, t = random_state(sys, seed)
    dx, us = per_agent_chain(sys, t, y)
    assert_close(rhs_new(sys, t, y)[sys.gen_size:], dx)
    for i in range(N):
        assert_close(agent_control(sys, t, y, i), us[i])


@pytest.mark.parametrize("seed", range(5))
def test_batched_el_acceleration_matches_linear_solve(seed):
    # the one-pass form against el_matrices + np.linalg.solve, also with
    # nominal == true, where every mismatch term vanishes and x2' = u
    rng = np.random.default_rng(seed)
    x1, x2, u = rng.uniform(-3.0, 3.0, (3, 7, 2))
    for nominal in (EL_NOMINAL, EL_TRUE):
        acc = el_acceleration(ElMismatch.of(EL_TRUE, nominal), x1, x2, u,
                              np.empty((7, 2)))
        for i in range(7):
            assert_close(acc[i], el_acceleration_solve(
                EL_TRUE, nominal, x1[i], x2[i], u[i]))
    assert_close(el_acceleration(ElMismatch.of(EL_TRUE, EL_TRUE), x1, x2,
                                 u, np.empty((7, 2))), u)


def test_el_matrices_hand_case():
    # q = (0, 0), x2 = (1, 2): cos q2 = 1, sin q2 = 0
    M, C, G = el_matrices(EL_TRUE, np.zeros(2), np.array([1.0, 2.0]))
    t1, t2, t3, t4, t5, t6 = EL_TRUE.theta
    g = 9.8
    assert np.allclose(M, [[t1 + t2 + 2 * t3, t2 + t3], [t2 + t3, t4]])
    assert np.allclose(C, 0.0)
    assert np.allclose(G, [(t5 + t6) * g, t6 * g])


@pytest.mark.parametrize("seed", range(5))
def test_strict_feedback_model_matches_per_agent_loop(seed):
    sys = coupled(sf_agents())
    y, t = random_state(sys, seed)
    agents, cfg = sys.agents, sys.agents.cfg
    mu = CLOCK.mu(t)
    varpi, _, x, (theta_hats, xi_fs) = sys.views(y)
    dx = np.empty_like(x)
    dth, dxi_f = np.empty_like(theta_hats), np.empty_like(xi_fs)
    for i in range(N):
        theta_hat = float(theta_hats[i])
        xi_f = xi_fs[:, i]
        view = virtual_controls(x[:, i], varpi[i], xi_f, theta_hat, mu, cfg)
        u = view["xi"][-1]
        assert_close(agent_control(sys, t, y, i),
                     sf_control(x[:, i], varpi[i], xi_f, theta_hat, mu, cfg))
        dx[:, i] = sf_plant_rhs(x[:, i], u, float(agents.thetas[i]), cfg)
        tau = tau_value(x[:, i], view["x_tilde"], mu, cfg)
        dth[i] = adaptation_rhs(theta_hat, tau, mu, cfg)
        dxi_f[:, i] = filter_rhs(xi_f, view["xi"], mu, cfg)
    dy = rhs_new(sys, t, y)
    assert_close(dy[sys.gen_size:sys.ctrl_start], dx.ravel())
    assert_close(dy[sys.ctrl_start:], np.concatenate([dth, dxi_f.ravel()]))


def identity(x):
    return x


def random_sf(m, phis, seed, n_agents=N):
    """Stacked strict-feedback agents of order m and a random (mu, x, c,
    ref) inside the guard: x (m, N, DIM) and c = (theta_hat (N,),
    xi_f (m-1, N, DIM)), drawn agent by agent."""
    rng = np.random.default_rng(seed)
    cfg = SfControllerConfig(m, DIM, tuple(rng.uniform(5.0, 12.0, m)),
                             tuple(rng.uniform(10.0, 20.0, m - 1)), 10.0,
                             power_gain(1.0, 1.5), 1e3, phis)
    agents = StrictFeedbackAgents(cfg, rng.uniform(-3.0, 3.0, n_agents))
    x = rng.standard_normal((n_agents, m, DIM)).transpose(1, 0, 2).copy()
    rows = rng.standard_normal((n_agents, cfg.n_ctrl))
    c = (rows[:, 0].copy(),
         rows[:, 1:].reshape(n_agents, m - 1, DIM).transpose(1, 0, 2).copy())
    ref = rng.standard_normal((n_agents, DIM))
    return agents, float(rng.uniform(1.0, 50.0)), x, c, ref


def empty_like_ctrl(c):
    return tuple(np.empty_like(v) for v in c)


SF_PHIS = {"identity": identity, "sin": np.sin, "tanh": np.tanh}


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("phi", ["identity", "sin", "tanh", "mixed"])
@pytest.mark.parametrize("seed", range(3))
def test_sf_derivatives_bit_identical_to_oracle(m, phi, seed):
    # the one-pass right-hand side against cascade, sf_plant_rhs, tau_value,
    # adaptation_rhs and filter_rhs composed one piece at a time
    if phi == "mixed":
        phis = (np.sin, np.tanh, identity)[:m - 1]
    else:
        phis = (SF_PHIS[phi],) * (m - 1)
    agents, mu, x, c, ref = random_sf(m, phis, 10 * m + seed)
    dx, dc = np.empty_like(x), empty_like_ctrl(c)
    agents.derivatives(0.0, mu, x, c, ref, dx, dc)
    want_dx, want_dc = sf_derivatives(x, c, ref, agents.thetas, mu,
                                      agents.cfg)
    assert dx.shape == want_dx.shape
    assert [v.shape for v in dc] == [v.shape for v in want_dc]
    assert dx.tobytes() == want_dx.tobytes()
    for got, want in zip(dc, want_dc):
        assert got.tobytes() == want.tobytes()
    theta_hat, xi_f = c
    view = virtual_controls(x, ref, xi_f, theta_hat, mu, agents.cfg)
    want = cascade(x, ref, xi_f, theta_hat, mu, agents.cfg)
    for key in ("xi", "x_tilde", "xi_tilde"):
        assert view[key].tobytes() == want[key].tobytes()
    assert view["tau"].tobytes() == tau_value(
        x, want["x_tilde"], mu, agents.cfg).tobytes()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sf_derivatives_evaluates_each_phi_once(m):
    calls = [0] * (m - 1)

    def counted(k):
        def phi(x):
            calls[k] += 1
            return np.sin(x)
        return phi

    agents, mu, x, c, ref = random_sf(
        m, tuple(counted(k) for k in range(m - 1)), 7)
    agents.derivatives(0.0, mu, x, c, ref, np.empty_like(x),
                       empty_like_ctrl(c))
    assert calls == [1] * (m - 1)
    calls[:] = [0] * (m - 1)
    agents.diagnostics(mu, x, c, ref)
    assert calls == [1] * (m - 1)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sf_diagnostics_bit_identical_to_separate_views(m):
    # one cascade serves every channel; each must equal the channel built
    # from its own, separate evaluation
    agents, mu, x, c, ref = random_sf(m, (np.tanh,) * (m - 1), 40 + m)
    cfg = agents.cfg
    theta_hat, xi_f = c
    diag = agents.diagnostics(mu, x, c, ref)
    want = {
        "e_s_norm": np.linalg.norm(
            error_vector(x, ref, xi_f, theta_hat), axis=-1),
        "e_tilde_norm": np.linalg.norm(scaled_error_vector(
            x, ref, xi_f, theta_hat, agents.thetas, mu, cfg,
            virtual_controls(x, ref, xi_f, theta_hat, mu, cfg)), axis=-1),
        "theta_hat": theta_hat,
        "tau": tau_value(x, cascade(x, ref, xi_f, theta_hat, mu,
                                    cfg)["x_tilde"], mu, cfg),
    }
    for q in range(2, min(m, 3) + 1):
        want[f"x{q}_norm"] = np.linalg.norm(x[q - 1], axis=-1)
    assert sorted(diag) == sorted(want)
    for key, val in want.items():
        assert diag[key].tobytes() == val.tobytes(), key


def test_diagnostics_match_per_agent_views():
    sys = coupled(chain_agents(3))
    y, t = random_state(sys, 7)
    mu = CLOCK.mu(t)
    varpi, _, x, c = sys.views(y)
    diag = sys.agents.diagnostics(mu, x, c, varpi)
    for i in range(N):
        view = chain_error_view(x[:, i], varpi[i], mu, sys.agents.cfg)
        assert diag["e_s_norm"][i] == pytest.approx(
            np.linalg.norm(view["e_s"]), rel=REL)
        assert diag["e_tilde_norm"][i] == pytest.approx(
            np.linalg.norm(view["e_tilde_s"]), rel=REL)

    sys = coupled(sf_agents())
    y, t = random_state(sys, 8)
    mu = CLOCK.mu(t)
    varpi, _, x, c = sys.views(y)
    diag = sys.agents.diagnostics(mu, x, c, varpi)
    cfg = sys.agents.cfg
    theta_hat, xi_fs = c
    for i in range(N):
        xi_f = xi_fs[:, i]
        es = error_vector(x[:, i], varpi[i], xi_f, theta_hat[i])
        et = scaled_error_vector(
            x[:, i], varpi[i], xi_f, theta_hat[i], sys.agents.thetas[i], mu,
            cfg, virtual_controls(x[:, i], varpi[i], xi_f, theta_hat[i], mu,
                                  cfg))
        assert diag["e_s_norm"][i] == pytest.approx(np.linalg.norm(es),
                                                    rel=REL)
        assert diag["e_tilde_norm"][i] == pytest.approx(np.linalg.norm(et),
                                                        rel=REL)
        assert diag["x3_norm"][i] == pytest.approx(np.linalg.norm(x[2, i]),
                                                   rel=REL)


@pytest.mark.parametrize("make", [
    lambda: chain_agents(3, mu_guard=5.0),
    lambda: chain_agents(2, el_theta=EL_TRUE.theta, mu_guard=5.0),
    lambda: sf_agents(mu_guard=5.0),
])
def test_stacked_rhs_enforces_mu_guard(make):
    sys = coupled(make())
    y, _ = random_state(sys, 3)
    rhs_new(sys, 0.7, y)  # mu = 3.3, inside the guard
    with pytest.raises(DptcoError, match="beyond guard"):
        rhs_new(sys, 0.9, y)  # mu = 10 > 5
    with pytest.raises(DptcoError, match="beyond guard"):
        agent_control(sys, 0.9, y, 0)


# --- in-place right-hand side ------------------------------------------------

# one closed loop per plant kind; the Euler-Lagrange one with formation
# offsets and a disturbance
SYSTEMS = {
    "generator": lambda: coupled(None),
    "chain": lambda: coupled(chain_agents(3)),
    "euler_lagrange": lambda: coupled(
        chain_agents(2, el_theta=EL_TRUE.theta,
                     disturbance=make_disturbance(4, N, DIM)),
        offsets=np.random.default_rng(9).standard_normal((N, DIM))),
    "strict_feedback": lambda: coupled(sf_agents()),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", SYSTEMS)
def test_rhs_fills_all_of_out_without_reading_it(kind, seed):
    sys = SYSTEMS[kind]()
    y, t = random_state(sys, seed)
    y_before = y.copy()
    want = rhs_new(sys, t, y)
    out = np.full(sys.total_dim, np.nan)
    assert sys.rhs(t, y, out) is out
    assert out.tobytes() == want.tobytes()
    assert y.tobytes() == y_before.tobytes()


@pytest.mark.parametrize("method", ["rk45", "rk4"])
@pytest.mark.parametrize("kind", SYSTEMS)
def test_integrate_bit_identical_to_allocating_oracle(kind, method):
    # stage rows and stage inputs reused in place against fresh arrays for
    # every stage; the large first step makes rk45 reject steps too
    sys = SYSTEMS[kind]()
    y0, _ = random_state(sys, 11)
    settings = solver_settings(method=method, dt=0.05 if method == "rk45"
                               else 2e-3, rel_tol=1e-7,
                               abs_tol=1e-9, log_every=3)
    # the systems' window, the run ending at t = 0.3
    clock = PrescribedClock(1.0, guard_frac=0.3)
    system = sys
    if method == "rk4" and sys.agents is not None and not sys.ctrl_size:
        # chain agents have no design spectral radius, and scenarios
        # refuse them under rk4; their stage rows are checked under a
        # given one, with which dt = 2e-3 still sets every step
        system = System(sys.rhs, kappa=50.0)
    got = integrate(system, y0, clock, settings)
    want = integrate_allocating(lambda t, y: concatenated_rhs(sys, t, y),
                                y0, clock, settings, system.stiffness,
                                norm_order=system.agent_major)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert (got.n_steps, got.n_rejected, got.n_rhs) == (
        want.n_steps, want.n_rejected, want.n_rhs)
    assert method == "rk4" or want.n_rejected > 0
