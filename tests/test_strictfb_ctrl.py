"""Adaptive strict-feedback backstepping: gain recipe, cascade, adaptation,
scaled coordinates, and the runtime monitors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptco.costs import CostSet
from dptco.errors import DptcoError
from dptco.graph import build_network
from dptco.sim_engine import CoupledSystem
from dptco.strictfb_ctrl import (SfControllerConfig, StrictFeedbackAgents,
                                 error_vector, invariant_set_monitor,
                                 scale_powers, scaled_error_vector,
                                 sf_decay_monitor, theta_hat_monitor,
                                 virtual_controls)
from dptco.timegain import PrescribedClock

from oracles import (adaptation_rhs, filter_rhs, linear_gain, phi_weights,
                     power_gain, quad, rhs_jacobian, select_parameters,
                     sf_control, sf_plant_rhs, tau_value,
                     transformation_matrices, wide_box)


def identity(x):
    return x


def cfg_m2(c=(2.0, 2.0), upsilon=(3.0,), sigma=2.0) -> SfControllerConfig:
    return SfControllerConfig(2, 1, c, upsilon, sigma,
                              linear_gain(1.0), mu_guard=1000.0,
                              phis=(identity,))


# --- spectral rate -----------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4])
def test_spectral_rate_scales_with_alpha_xi(m):
    # the agents' block of a central-difference Jacobian of the closed loop
    # at zero error, theta = 0: its spectral radius is kappa alpha_xi(mu)
    # at every mu, from one agent's linearization at mu = 1
    n_agents, dim = 3, 2
    par = select_parameters(m, 1.0, 10.0, 1.0)
    cfg = SfControllerConfig(m, dim, par.c, par.upsilon, par.sigma,
                             power_gain(2.0, 1.5), 1e6, (np.tanh,) * (m - 1))
    agents = StrictFeedbackAgents(cfg, np.zeros(n_agents))
    net = build_network(n_agents, [[0, 1, 1.0], [1, 2, 1.0]])
    costs = CostSet([quad(np.eye(dim), np.zeros(dim))] * 3,
                    dim, wide_box(dim))
    sys = CoupledSystem(PrescribedClock(1.0, 0.9999), net, costs,
                        linear_gain(1.0), agents=agents,
                        offsets=None)
    kappa, gain = agents.spectral_rate
    assert gain is cfg.alpha_xi
    g = sys.gen_size
    for t in (0.0, 0.9, 0.999):
        mu = sys.clock.mu(t)
        block = rhs_jacobian(sys, t, np.zeros(sys.total_dim))[g:, g:]
        assert np.abs(np.linalg.eigvals(block)).max() == pytest.approx(
            kappa * gain.eval(mu), rel=1e-4)


# --- gain recipe -------------------------------------------------------------

def test_scale_powers_descending():
    # L_q = m + l + 1 - q with l = 1
    assert np.allclose(scale_powers(3), [4.0, 3.0, 2.0])
    assert np.allclose(scale_powers(2), [3.0, 2.0])


def test_select_parameters_hand_case():
    # m=3, l=1, sigma'=1, margin=1, rho=10
    par = select_parameters(3, sigma_prime=1.0, rho=10.0, margin=1.0)
    assert par.sigma == pytest.approx(2.0)
    assert par.L == (4.0, 3.0, 2.0)
    assert par.c == pytest.approx((6.5, 6.0, 5.0))
    assert par.upsilon == pytest.approx((14.5, 13.5))


def test_select_parameters_sigma_backsolve():
    # sigma' = 17 reproduces the bundled scenario's sigma = 10
    par = select_parameters(3, sigma_prime=17.0, rho=10.0, margin=5.0)
    assert par.sigma == pytest.approx(10.0)


def test_select_parameters_rejects_zero_rho():
    with pytest.raises(DptcoError,
                       match="sigma_prime and rho must be positive"):
        select_parameters(3, sigma_prime=1.0, rho=0.0, margin=1.0)


def test_select_parameters_rejects_small_margin():
    with pytest.raises(DptcoError, match="margin 1.0 below sigma/2"):
        select_parameters(3, sigma_prime=17.0, rho=10.0, margin=1.0)


def test_select_parameters_deterministic():
    a = select_parameters(4, sigma_prime=3.0, rho=5.0, margin=2.0)
    b = select_parameters(4, sigma_prime=3.0, rho=5.0, margin=2.0)
    assert a == b


# --- backstepping cascade ----------------------------------------------------

def test_cascade_zero_at_origin():
    cfg = SfControllerConfig(3, 2, (2.0, 2.0, 2.0), (3.0, 3.0), 2.0,
                             linear_gain(1.0), mu_guard=1000.0,
                             phis=(identity,) * 2)
    view = virtual_controls(np.zeros((3, 2)), np.zeros(2), np.zeros((2, 2)),
                            0.0, 1.0, cfg)
    assert np.allclose(view["xi"], 0.0)


def test_cascade_hand_case():
    # m=2, c=(2,2), upsilon=(3,), x=(1,0), reference 0, xi_2f=0.5,
    # theta_hat=1, phi identity, alpha_xi(1)=1
    cfg = cfg_m2()
    view = virtual_controls(np.array([[1.0], [0.0]]), np.zeros(1),
                            np.array([[0.5]]), 1.0, 1.0, cfg)
    assert view["x_tilde"][0, 0] == pytest.approx(1.0)
    assert view["xi"][0, 0] == pytest.approx(-2.0)
    assert view["x_tilde"][1, 0] == pytest.approx(-0.5)
    assert view["xi_tilde"][0, 0] == pytest.approx(2.5)
    assert view["xi"][1, 0] == pytest.approx(-6.5)


def test_u_is_last_virtual_control():
    cfg = cfg_m2()
    u = sf_control(np.array([[1.0], [0.0]]), np.zeros(1),
                   np.array([[0.5]]), 1.0, 1.0, cfg)
    assert u[0] == pytest.approx(-6.5)


def test_cascade_linear_in_theta_hat():
    # xi_2 is affine in theta_hat with slope -phi_2(x_2); xi_3 picks up the
    # extra upsilon_2 a phi_2(x_2) term through xi_tilde_2
    cfg = SfControllerConfig(3, 2, (2.0, 2.0, 2.0), (3.0, 3.0), 2.0,
                             power_gain(1.0, 1.5), mu_guard=1000.0,
                             phis=(identity,) * 2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 2))
    xi_f = rng.standard_normal((2, 2))
    varpi = rng.standard_normal(2)
    h = 1e-6
    hi = virtual_controls(x, varpi, xi_f, 1.0 + h, 2.0, cfg)["xi"]
    lo = virtual_controls(x, varpi, xi_f, 1.0 - h, 2.0, cfg)["xi"]
    fd = (hi - lo) / (2.0 * h)
    a = cfg.alpha_xi.eval(2.0)
    assert np.allclose(fd[1], -cfg.phis[0](x[1]), atol=1e-6)
    expected_3 = -cfg.phis[1](x[2]) - cfg.upsilon[1] * a * cfg.phis[0](x[1])
    assert np.allclose(fd[2], expected_3, atol=1e-5)


def test_cascade_guard_enforced():
    cfg = SfControllerConfig(2, 1, (2.0, 2.0), (3.0,), 2.0,
                             linear_gain(1.0), mu_guard=10.0,
                             phis=(identity,))
    with pytest.raises(DptcoError, match="mu=20.0 beyond guard 10.0"):
        virtual_controls(np.ones((2, 1)), np.zeros(1), np.zeros((1, 1)),
                         0.0, 20.0, cfg)


# --- filter ------------------------------------------------------------------

def test_filter_at_rest():
    cfg = cfg_m2()
    xi = np.array([[1.0], [0.0]])
    assert np.allclose(filter_rhs(np.array([[1.0]]), xi, 1.0, cfg), 0.0)


def test_filter_hand_case():
    # upsilon_2 = 15, alpha_xi(1) = 1, xi_2f = 0, xi_1 = 1
    cfg = SfControllerConfig(2, 1, (2.0, 2.0), (15.0,), 2.0,
                             power_gain(1.0, 1.5), mu_guard=1000.0,
                             phis=(identity,))
    d = filter_rhs(np.array([[0.0]]), np.array([[1.0], [0.0]]), 1.0, cfg)
    assert d[0, 0] == pytest.approx(15.0)


def test_filter_sign():
    cfg = cfg_m2()
    d = filter_rhs(np.array([[2.0]]), np.array([[1.0], [0.0]]), 1.0, cfg)
    assert d[0, 0] < 0.0


# --- adaptation --------------------------------------------------------------

def test_tau_hand_case():
    # m=2, L_2=2, alpha_xi=1, x_tilde_2=2, phi_2(x_2)=3
    cfg = SfControllerConfig(2, 1, (2.0, 2.0), (3.0,), 2.0,
                             linear_gain(1.0), mu_guard=1000.0,
                             phis=(lambda x: np.full_like(x, 3.0),))
    tau = tau_value(np.array([[0.0], [1.0]]), np.array([[0.0], [2.0]]),
                    1.0, cfg)
    assert tau == pytest.approx(6.0)
    # the cascade's own drive: x_2 = 1 against xi_2f = -1
    view = virtual_controls(np.array([[0.0], [1.0]]), np.zeros(1),
                            np.array([[-1.0]]), 0.0, 1.0, cfg)
    assert view["tau"] == pytest.approx(6.0)


def test_adaptation_pure_leak():
    cfg = cfg_m2(sigma=2.0)
    assert adaptation_rhs(3.0, 0.0, 1.0, cfg) == pytest.approx(-6.0)


def test_adaptation_zero_at_rest():
    cfg = cfg_m2()
    assert adaptation_rhs(0.0, 0.0, 5.0, cfg) == 0.0


# --- plant -------------------------------------------------------------------

def test_plant_rhs_m3():
    cfg = SfControllerConfig(3, 1, (2.0,) * 3, (3.0,) * 2, 2.0,
                             linear_gain(1.0), mu_guard=1000.0,
                             phis=(identity,) * 2)
    x = np.array([[1.0], [2.0], [3.0]])
    dx = sf_plant_rhs(x, np.array([4.0]), 0.5, cfg)
    # x1' = x2; x2' = x3 + theta x2; x3' = u + theta x3
    assert np.allclose(dx, [[2.0], [3.0 + 0.5 * 2.0], [4.0 + 0.5 * 3.0]])


# --- error coordinates -------------------------------------------------------

def test_error_vector_layout():
    e = error_vector(np.array([[3.0], [2.0]]), np.array([1.0]),
                     np.array([[0.5]]), 0.25)
    assert np.allclose(e, [2.0, 2.0, 0.25, 0.5])


def test_scaled_error_norm_identity():
    # ||e_tilde_s||^2 = sum||omega||^2 + sum||eta||^2 + theta_tilde^2
    cfg = SfControllerConfig(3, 2, (2.0,) * 3, (3.0,) * 2, 2.0,
                             power_gain(1.0, 1.5), mu_guard=1000.0,
                             phis=(identity,) * 2)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2))
    xi_f = rng.standard_normal((2, 2))
    varpi = rng.standard_normal(2)
    mu = 2.0
    view = virtual_controls(x, varpi, xi_f, 0.7, mu, cfg)
    es = scaled_error_vector(x, varpi, xi_f, 0.7, 1.3, mu, cfg, view)
    a = cfg.alpha_xi.eval(mu)
    omega = (a ** cfg.L)[:, None] * view["x_tilde"]
    eta = (a ** cfg.L[1:])[:, None] * view["xi_tilde"]
    direct = (np.sum(omega ** 2) + np.sum(eta ** 2) + (1.3 - 0.7) ** 2)
    assert np.linalg.norm(es) ** 2 == pytest.approx(direct, rel=1e-12)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_scaled_error_matches_stacked_form(seed):
    # rebuild omega/eta through the selector matrices and Phi weights
    cfg = SfControllerConfig(3, 2, (2.0,) * 3, (3.0,) * 2, 2.0,
                             power_gain(1.0, 1.5), mu_guard=1000.0,
                             phis=(identity,) * 2)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 2))
    xi_f = rng.standard_normal((2, 2))
    varpi = rng.standard_normal(2)
    theta_hat = float(rng.standard_normal())
    theta = float(rng.standard_normal())
    mu = float(rng.uniform(1.0, 5.0))

    view = virtual_controls(x, varpi, xi_f, theta_hat, mu, cfg)
    es = scaled_error_vector(x, varpi, xi_f, theta_hat, theta, mu, cfg, view)
    lams = transformation_matrices(3, 2)
    raw = error_vector(x, varpi, xi_f, theta_hat)
    w1, w2 = phi_weights(3, 2, cfg.alpha_xi.eval(mu))
    omega = w1 * (lams["Lambda1"] @ raw)
    xi_flat = view["xi"][:-1].ravel()
    eta = w2 * (lams["Lambda2"] @ raw - xi_flat)
    theta_tilde = theta - float(lams["Lambda4"] @ raw)
    stacked = np.concatenate([omega, eta, [theta_tilde]])
    assert np.allclose(es, stacked, atol=1e-12 * max(1.0, np.abs(es).max()))


def test_phi_weights_descending():
    w1, w2 = phi_weights(3, 1, 2.0)
    assert np.allclose(w1, [16.0, 8.0, 4.0])
    assert np.allclose(w2, [8.0, 4.0])
    assert all(a > b for a, b in zip(w1, w1[1:]))


# --- monitors (one agent: every channel a (K, 1) column) ---------------------

def test_invariant_monitor_zero_trajectory():
    times = np.linspace(0.0, 1.0, 5)
    rep = invariant_set_monitor(times, np.zeros((5, 1)), h=0.5)
    assert rep.passed


def test_invariant_monitor_flags_exit():
    times = np.linspace(0.0, 1.0, 5)
    norms = np.array([[0.5], [0.6], [2.0], [0.1], [0.1]])
    rep = invariant_set_monitor(times, norms, h=1.0)
    assert not rep.passed
    assert rep.first_violation_t == pytest.approx(0.5)


def test_invariant_monitor_initially_outside():
    times = np.linspace(0.0, 1.0, 3)
    rep = invariant_set_monitor(times, np.array([[2.0], [0.1], [0.1]]),
                                h=1.0)
    assert not rep.passed
    assert rep.first_violation_t == pytest.approx(0.0)


def test_sf_decay_monitor_fits_constant():
    cfg = cfg_m2()
    mus = np.linspace(1.0, 100.0, 50)
    times = 1.0 - 1.0 / mus
    norms = (2.0 / mus)[:, None]  # exactly C / alpha_xi with C = 2
    rep = sf_decay_monitor(times, mus, norms, cfg)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(2.0, rel=1e-12)


def test_theta_hat_monitor_pass_and_fail():
    cfg = cfg_m2(sigma=10.0)
    mus = np.linspace(1.0, 100.0, 50)
    times = 1.0 - 1.0 / mus
    taus = np.zeros((50, 1))
    good = (0.5 / mus)[:, None]
    rep = theta_hat_monitor(times, mus, good, taus, cfg)
    assert rep.passed
    bad = np.full((50, 1), 0.5)
    rep2 = theta_hat_monitor(times, mus, bad, taus, cfg)
    assert not rep2.passed
