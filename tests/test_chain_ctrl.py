"""Chain-integrator tracking controller: pole placement, Lyapunov constants,
error coordinates, the control law, and the Euler-Lagrange embedding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptco.chain_ctrl import (ChainControllerConfig, ElMismatch,
                              EulerLagrangeParams, chain_control,
                              chain_decay_monitor, chain_error_view, check_dc1,
                              companion, el_acceleration, hurwitz_gain,
                              make_chain_config, solve_lyapunov, v_constants)
from dptco.errors import GuardExceeded, NotHurwitz
from dptco.timegain import PrescribedClock, kappa, log_grid

from oracles import (chain_plant_rhs, dc2_gain, el_matrices, linear_gain,
                     power_gain)

P_HAND = np.array([[1.5, 0.5], [0.5, 0.5]])


def cfg_m2(v: float = 1.0, psi: float = 1.0) -> ChainControllerConfig:
    return make_chain_config(2, 1, v, linear_gain(1.0), mu_guard=1000.0,
                             psi=psi, mu0=1.0)


# --- pole placement ----------------------------------------------------------

def test_hurwitz_gain_small_orders():
    assert np.allclose(hurwitz_gain(2), [1.0])
    assert np.allclose(hurwitz_gain(3), [1.0, 2.0])
    assert np.allclose(hurwitz_gain(4), [1.0, 3.0, 3.0])


def test_companion_m3():
    lam = companion(hurwitz_gain(3))
    assert np.allclose(lam, [[0.0, 1.0], [-1.0, -2.0]])
    assert np.allclose(np.linalg.eigvals(lam), [-1.0, -1.0])


def test_companion_all_poles_at_minus_one():
    # repeated eigenvalues are ill-conditioned, so compare characteristic
    # polynomial coefficients against (s+1)^(m-1) instead
    for m in range(2, 7):
        coeffs = np.poly(companion(hurwitz_gain(m)))
        expected = [math.comb(m - 1, j) for j in range(m)]
        assert np.allclose(coeffs, expected, atol=1e-9)


# --- Lyapunov solve ----------------------------------------------------------

def test_lyapunov_scalar():
    assert np.allclose(solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]])),
                       [[1.0]])


def test_lyapunov_hand_2x2():
    P = solve_lyapunov(companion(hurwitz_gain(3)), np.eye(2))
    assert np.allclose(P, P_HAND, atol=1e-12)
    assert np.linalg.eigvalsh(P)[-1] == pytest.approx(1.0 + math.sqrt(2) / 2)


def test_lyapunov_residual_binomial_family():
    for m in range(2, 6):
        lam = companion(hurwitz_gain(m))
        P = solve_lyapunov(lam, np.eye(m - 1))
        resid = np.linalg.norm(P @ lam + lam.T @ P + np.eye(m - 1))
        assert resid <= 1e-10
        assert np.linalg.eigvalsh(P)[0] > 0.0


def test_lyapunov_rejects_non_hurwitz():
    with pytest.raises(NotHurwitz):
        solve_lyapunov(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))


def test_v_constants_identity():
    assert v_constants(np.eye(2), np.eye(2), 2) == pytest.approx((1.0, 4.0))
    assert v_constants(2.0 * np.eye(2), np.eye(2), 2) == pytest.approx(
        (0.5, 4.0))


def test_v_constants_hand_case():
    v1, v2 = v_constants(P_HAND, np.eye(2), 3)
    assert v1 == pytest.approx(1.0 / 1.7071, rel=1e-4)
    assert v2 == pytest.approx(34.97, rel=1e-3)


# --- configuration -----------------------------------------------------------

def test_make_chain_config_defaults():
    cfg = make_chain_config(3, 2, 6.0, linear_gain(1.0), mu_guard=100.0,
                            psi=1.0, mu0=1.0)
    assert np.allclose(cfg.K, [1.0, 2.0])
    assert cfg.k1 == 1.0
    assert np.allclose(cfg.L, [0.0, 1.0, 2.0])
    assert cfg.alpha_s == dc2_gain(linear_gain(1.0), cfg.v1, 3, 1.0)
    assert cfg.alpha_s.base == linear_gain(1.0)


def test_make_chain_config_override_flagged():
    override = power_gain(1.0, 2.0)
    cfg = make_chain_config(2, 1, 6.0, linear_gain(1.0), mu_guard=100.0,
                            psi=1.0, mu0=1.0, alpha_s=override)
    assert cfg.alpha_s is override


def test_check_dc1_compliant_pair():
    # alpha_x = k mu with k = 2 v2/v1 sits on the DC1 growth boundary;
    # coupling needs alpha_x <= (c*/v1) alpha
    cfg = cfg_m2()
    k = 2.0 * cfg.v2 / cfg.v1
    cfg.alpha_x = linear_gain(k)
    c_star = 0.1
    alpha = linear_gain(k * cfg.v1 / c_star)
    grid = log_grid(1.0, cfg.mu_guard)
    rep = check_dc1(cfg, alpha, c_star, grid)
    assert rep.passed and rep.coupling_passed
    cfg.alpha_x = linear_gain(0.5 * k)
    assert not check_dc1(cfg, alpha, c_star, grid).passed


# --- error coordinates -------------------------------------------------------

def test_error_view_hand_case():
    cfg = cfg_m2()
    view = chain_error_view(np.array([[1.0], [0.0]]), np.zeros(1), 1.0, cfg)
    assert view["s_tilde"] == pytest.approx(1.0)
    assert view["e_tilde_s"] == pytest.approx(1.0)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_error_view_matches_kron_form(seed):
    # e_tilde_s = k1^-1 alpha_s (K_tilde^T Phi kron I_n) e_s, stacked form
    rng = np.random.default_rng(seed)
    m, n = 3, 2
    cfg = make_chain_config(m, n, 6.0, linear_gain(1.0), mu_guard=1000.0,
                            psi=1.0, mu0=1.0)
    x = rng.standard_normal((m, n))
    varpi = rng.standard_normal(n)
    mu = float(rng.uniform(1.0, 50.0))
    view = chain_error_view(x, varpi, mu, cfg)
    ax = cfg.alpha_x.eval(mu)
    phi = np.diag(ax ** (-cfg.L))
    k_tilde = np.concatenate([cfg.K, [1.0]])
    stacked = np.kron(k_tilde @ phi, np.eye(n)) @ view["e_s"].ravel()
    expected = cfg.alpha_s.eval(mu) / cfg.k1 * stacked
    assert np.allclose(view["e_tilde_s"], expected, atol=1e-12 * max(
        1.0, np.abs(expected).max()))


# --- control law -------------------------------------------------------------

def test_control_zero_at_origin():
    cfg = make_chain_config(3, 2, 6.0, linear_gain(1.0), mu_guard=1000.0,
                            psi=1.0, mu0=1.0)
    u = chain_control(np.zeros((3, 2)), np.zeros(2), 2.0, cfg)
    assert np.allclose(u, 0.0)


def test_control_hand_case():
    # m=2, k1=1, v=1, psi=0, alpha_x=mu, x=(1,0), reference 0, mu=1
    cfg = cfg_m2(v=1.0, psi=0.0)
    u = chain_control(np.array([[1.0], [0.0]]), np.zeros(1), 1.0, cfg)
    assert u[0] == pytest.approx(-2.0 - (2.0 + cfg.v1 / 2.0))


def test_control_sign_flip():
    cfg = cfg_m2(v=1.0, psi=0.0)
    flipped = ChainControllerConfig(
        cfg.m, cfg.n, np.array([-1.0]), cfg.Lambda, cfg.P, cfg.Q, cfg.v1,
        cfg.v2, cfg.v, cfg.alpha_x, cfg.alpha_s, cfg.psi, cfg.mu_guard)
    x = np.array([[1.0], [0.0]])
    u_pos = chain_control(x, np.zeros(1), 1.0, cfg)
    u_neg = chain_control(x, np.zeros(1), 1.0, flipped)
    # with K = [-1] both e_s weights flip inside k1^-1, so s_tilde is
    # unchanged while sign(k1) and B^-1 flip: both control terms negate
    assert u_pos[0] == pytest.approx(-2.0 - (2.0 + cfg.v1 / 2.0))
    assert u_neg[0] == pytest.approx(2.0 + (2.0 + cfg.v1 / 2.0))


def test_control_guard_enforced():
    cfg = make_chain_config(2, 1, 6.0, linear_gain(1.0), mu_guard=10.0,
                            psi=1.0, mu0=1.0)
    with pytest.raises(GuardExceeded):
        chain_control(np.ones((2, 1)), np.zeros(1), 11.0, cfg)


def test_control_continuity():
    cfg = make_chain_config(3, 2, 6.0, linear_gain(1.0), mu_guard=1000.0,
                            psi=1.0, mu0=1.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal((3, 2))
        varpi = rng.standard_normal(2)
        mu = float(rng.uniform(1.5, 20.0))
        u0 = chain_control(x, varpi, mu, cfg)
        u1 = chain_control(x + 1e-9, varpi, mu + 1e-11, cfg)
        # the local Lipschitz constant grows with the gains (~mu^(m+...)),
        # so budget the perturbation accordingly
        assert np.abs(u1 - u0).max() < 1e-9 * 1e4 * mu ** 6


def test_plant_rhs_shifts_stages():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    dx = chain_plant_rhs(x, np.array([5.0, 6.0]), np.array([0.5, -0.5]))
    assert np.allclose(dx, [[3.0, 4.0], [5.5, 5.5]])


# --- decay monitor -----------------------------------------------------------

def test_decay_monitor_zero_trajectory():
    cfg = cfg_m2()
    clock = PrescribedClock(0.0, 1.0)
    times = np.linspace(0.0, 0.9, 10)
    rep = chain_decay_monitor(times, np.zeros((10, 1)), np.zeros((10, 1)),
                              cfg, clock)
    assert rep.passed and rep.max_ratio == 0.0


def test_decay_monitor_fits_initial_value():
    cfg = cfg_m2()
    clock = PrescribedClock(0.0, 1.0)
    times = np.linspace(0.0, 0.9, 40)
    rate = cfg.v1 / (4.0 * cfg.m)
    norms = [[3.0 * kappa(clock, cfg.alpha_x, -rate, t)] for t in times]
    rep = chain_decay_monitor(times, norms, np.ones((40, 1)), cfg, clock)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(3.0, rel=1e-9)


# --- Euler-Lagrange embedding ------------------------------------------------

EL_TRUE = EulerLagrangeParams((7.0, 0.96, 1.2, 5.96, 2.0, 1.2))


def test_el_inertia_symmetric_positive():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x1 = rng.uniform(-math.pi, math.pi, 2)
        M, _, _ = el_matrices(EL_TRUE, x1, np.zeros(2))
        assert np.allclose(M, M.T)
        assert np.linalg.eigvalsh(M)[0] > 0.0


def test_el_exact_parameters_recover_u():
    # with nominal == true, inverse dynamics cancels and x2' = u
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-1.0, 1.0, 2)
    x2 = rng.uniform(-1.0, 1.0, 2)
    u = rng.uniform(-1.0, 1.0, 2)
    acc = el_acceleration(ElMismatch.of(EL_TRUE, EL_TRUE), x1, x2, u)
    assert np.allclose(acc, u, atol=1e-12)


def test_el_mismatch_is_bounded_disturbance():
    nominal = EulerLagrangeParams(tuple(0.9 * t for t in EL_TRUE.theta))
    rng = np.random.default_rng(8)
    for _ in range(20):
        x1 = rng.uniform(-math.pi, math.pi, 2)
        x2 = rng.uniform(-2.0, 2.0, 2)
        u = rng.uniform(-5.0, 5.0, 2)
        acc = el_acceleration(ElMismatch.of(EL_TRUE, nominal), x1, x2, u)
        resid = acc - u
        assert np.isfinite(resid).all()
        # mismatch scales with the 10 percent parameter error
        assert np.linalg.norm(resid) < 0.5 * (
            1.0 + np.linalg.norm(u) + np.linalg.norm(x2) ** 2)
