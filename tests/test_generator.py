"""Distributed optimal-trajectory generator: dynamics, constants, monitors."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptco.costs import CostSet, optimum_oracle
from dptco.errors import DptcoError
from dptco.generator import (ErrorState, conservation_monitor,
                             design_radius, envelope_monitor, error_state,
                             generator_constants, gradients_at,
                             matrix_radius)
from dptco.graph import build_network
from dptco.sim_engine import CoupledSystem
from dptco.timegain import PrescribedClock, kappa
from oracles import (agent_rhs, cost_gradient, default_box, expq,
                     linear_gain, lyapunov_vr, quad, rhs_jacobian, rhs_new,
                     wide_box)

RING6 = [[i, (i + 1) % 6, 1.0] for i in range(6)]


def generator_derivative(net, costs, varpi, p, gain):
    """(dvarpi, dp) from the generator-only CoupledSystem.rhs at t = 0,
    where mu = 1/T = 1, so linear_gain(gain) gives alpha(mu) = gain."""
    sys = CoupledSystem(PrescribedClock(1.0, 0.999), net, costs,
                        linear_gain(gain), None, None)
    y = sys.pack(varpi, p, None, None)
    dvarpi, dp, _, _ = sys.views(rhs_new(sys, 0.0, y))
    return dvarpi, dp


# --- spectral radius ---------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_matrix_radius_matches_eigvals(seed):
    a = np.random.default_rng(seed).standard_normal((30, 30))
    want = np.abs(np.linalg.eigvals(a)).max()
    assert matrix_radius(a) == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("m, want", [
    # a rotation: a complex pair of modulus 3
    ([[0.0, -3.0], [3.0, 0.0]], 3.0),
    # a Jordan block: n^2 growth of its powers, overestimated by 2.5e-5
    ([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]], 2.0),
    # nilpotent
    ([[0.0, 1.0], [0.0, 0.0]], 0.0),
])
def test_matrix_radius_special_cases(m, want):
    got = matrix_radius(np.array(m))
    assert want <= got <= want * (1.0 + 3e-5)


def test_design_radius_is_the_generator_jacobian_over_alpha():
    # a central-difference Jacobian of the generator-only right-hand side
    # at t = 0, where alpha = 7, for six agents with quadratic plus
    # exp-quadratic costs, at random estimates away from the optimum
    net = build_network(6, RING6)
    costs = CostSet([[quad(np.eye(2) * (0.2 + 0.1 * i), [1.0, -1.0]),
                      expq(np.eye(2) * 0.1 * (i + 1), [0.5, 0.5])]
                     for i in range(6)], 2, default_box(2))
    sys = CoupledSystem(PrescribedClock(1.0, 0.999), net, costs,
                        linear_gain(7.0), None, None)
    rng = np.random.default_rng(4)
    y = sys.pack(rng.uniform(-1.0, 2.0, (6, 2)), rng.standard_normal((6, 2)),
                 None, None)
    want = np.abs(np.linalg.eigvals(rhs_jacobian(sys, 0.0, y))).max() / 7.0
    assert design_radius(net.laplacian, costs, sys.views(y)[0]) == (
        pytest.approx(want, rel=1e-5))
    assert sys.stiffness(y)(1.0) == pytest.approx(7.0 * want, rel=1e-5)


# --- constants ---------------------------------------------------------------

def test_constants_hand_case_1():
    c = generator_constants(1.0, 1.0, 1.0, 4.0)
    assert (c.c1, c.c2, c.c3, c.c_star) == pytest.approx(
        (1.5, 0.1875, 2.5, 0.1))


def test_constants_hand_case_2():
    c = generator_constants(1.0, 1.0, 2.0, 2.0)
    assert (c.c1, c.c2, c.c3, c.c_star) == pytest.approx(
        (1.5, 0.375, 2.5, 0.1))


def test_constants_hand_case_3():
    c = generator_constants(0.5, 1.0, 1.0, 1.0)
    assert (c.c1, c.c2, c.c3, c.c_star) == pytest.approx(
        (3.0, 1.5, 4.0, 0.0625))


def test_constants_ordering_invariants():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho, varrho, l2, lN = rng.uniform(0.1, 5.0, 4)
        lN = max(l2, lN)
        c = generator_constants(rho, varrho, l2, lN)
        assert 0 < c.c2 <= c.c3
        assert c.c_star == pytest.approx(1.0 / (4.0 * c.c3))


def test_constants_reject_nonpositive():
    with pytest.raises(DptcoError, match="rho_c must be finite and > 0"):
        generator_constants(0.0, 1.0, 1.0, 4.0)


@pytest.mark.parametrize("args, name", [
    ((1.0, math.inf, 1.0, 4.0), "varrho_c"),
    ((math.nan, 1.0, 1.0, 4.0), "rho_c"),
    ((1.0, 1.0, math.nan, 4.0), "lambda2"),
    ((1.0, 1.0, 1.0, math.inf), "lambdaN"),
], ids=["varrho_inf", "rho_nan", "lambda2_nan", "lambdaN_inf"])
def test_constants_reject_non_finite(args, name):
    # an overflowing cost once gave varrho_c = inf and c_star = 0
    with pytest.raises(DptcoError, match=f"{name} must be finite"):
        generator_constants(*args)


@pytest.mark.parametrize("args, message", [
    ((1.0, 1e200, 1.0, 4.0),
     "c1 = inf is not finite, from rho_c = 1.0 and varrho_c = 1e+200"),
    ((1.0, 1.0, 1e-308, 4.0),
     "c3 = inf is not finite, from rho_c = 1.0 and varrho_c = 1.0"),
], ids=["varrho_squared", "c3"])
def test_constants_refuse_an_overflowing_one(args, message):
    # varrho_c ** 2 raised OverflowError, "(34, 'Numerical result out of
    # range')", which the scenario reported under costs as it was
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DptcoError, match=re.escape(message)):
            generator_constants(*args)


# --- dynamics ----------------------------------------------------------------

def test_agent_rhs_hand_case():
    # two agents, scalar z^2 costs, unit edge, alpha = 1
    dvarpi, dp = agent_rhs(np.array([1.0]), np.array([0.0]),
                           np.array([2.0]), [(1.0, np.array([0.0]))], 1.0)
    assert np.allclose(dvarpi, [-3.0])
    assert np.allclose(dp, [1.0])
    dvarpi2, dp2 = agent_rhs(np.array([0.0]), np.array([0.0]),
                             np.array([0.0]), [(1.0, np.array([1.0]))], 1.0)
    assert np.allclose(dvarpi2, [1.0])
    assert np.allclose(dp2, [-1.0])


def test_stacked_rhs_matches_agent_rhs():
    net = build_network(6, RING6)
    agents = [quad(np.eye(2), [float(i), 0.0]) for i in range(6)]
    cs = CostSet(agents, 2, default_box(2))
    rng = np.random.default_rng(2)
    varpi = rng.standard_normal((6, 2))
    p = rng.standard_normal((6, 2))
    d_varpi, d_p = generator_derivative(net, cs, varpi, p, 1.7)
    # a_ij is -l_ij off the diagonal
    adjacency = np.diag(net.laplacian.diagonal()) - net.laplacian
    for i in range(6):
        neigh = [(adjacency[i, j], varpi[j])
                 for j in np.flatnonzero(adjacency[i])]
        dv, dp = agent_rhs(varpi[i], p[i],
                           cost_gradient(agents[i], varpi[i]), neigh, 1.7)
        assert np.allclose(d_varpi[i], dv, atol=1e-12)
        assert np.allclose(d_p[i], dp, atol=1e-12)


def test_equilibrium_is_stationary():
    net = build_network(6, RING6)
    agents = [quad(np.eye(2) * (0.2 + 0.1 * i), [i, -i]) for i in range(6)]
    cs = CostSet(agents, 2, wide_box(2))
    cert = optimum_oracle(cs)
    varpi = np.tile(cert.z_star, (6, 1))
    p = -np.array([cost_gradient(c, cert.z_star) for c in agents])
    d_varpi, d_p = generator_derivative(net, cs, varpi, p, 3.0)
    assert np.abs(d_varpi).max() <= 3.0 * cert.grad_norm + 1e-10
    assert np.abs(d_p).max() <= 1e-10


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_p_sum_derivative_vanishes(seed):
    net = build_network(6, RING6)
    cs = CostSet([quad(np.eye(2), [0.0, 0.0])] * 6, 2, default_box(2))
    rng = np.random.default_rng(seed)
    varpi = rng.standard_normal((6, 2))
    p = rng.standard_normal((6, 2))
    _, d_p = generator_derivative(net, cs, varpi, p,
                                  float(rng.uniform(0.1, 20.0)))
    assert np.allclose(d_p.sum(axis=0), 0.0, atol=1e-12)


# --- error coordinates and Lyapunov diagnostic --------------------------------

def example2_like_constants():
    return generator_constants(0.2, 2.0, 1.0, 4.0)


def test_error_state_zero_at_equilibrium():
    agents = [quad(np.eye(1), [1.0]), quad(np.eye(1), [3.0])]
    cs = CostSet(agents, 1, default_box(1))
    cert = optimum_oracle(cs)
    varpi = np.tile(cert.z_star, (2, 1))
    p = -np.array([cost_gradient(c, cert.z_star) for c in agents])
    err = error_state(varpi, p, cert.z_star, gradients_at(cs, cert.z_star))
    assert err.norm <= 1e-10


def test_lyapunov_hand_case():
    # N=2, scalar: e_varpi=(1,1), e_p=0 gives V = c1 + 1
    net = build_network(2, [[0, 1, 1.0]])
    consts = example2_like_constants()
    err = ErrorState(np.array([[1.0], [1.0]]), np.zeros((2, 1)))
    assert lyapunov_vr(err, net, consts) == pytest.approx(consts.c1 + 1.0)


def test_lyapunov_zero_error():
    net = build_network(2, [[0, 1, 1.0]])
    err = ErrorState(np.zeros((2, 1)), np.zeros((2, 1)))
    assert lyapunov_vr(err, net, example2_like_constants()) == 0.0


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_lyapunov_sandwich(seed):
    # c2 ||e_r||^2 <= V <= c3 ||e_r||^2
    net = build_network(6, RING6)
    consts = generator_constants(0.2, 2.0, net.lambda2, net.lambdaN)
    rng = np.random.default_rng(seed)
    err = ErrorState(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
    v = lyapunov_vr(err, net, consts)
    nrm2 = err.norm ** 2
    assert consts.c2 * nrm2 - 1e-9 <= v <= consts.c3 * nrm2 + 1e-9


# --- monitors ----------------------------------------------------------------

def test_envelope_monitor_zero_trajectory():
    clock = PrescribedClock(1.0, 0.999)
    times = np.linspace(0.0, 0.9, 10)
    rep = envelope_monitor(times, np.zeros(10), clock, linear_gain(21.0),
                           example2_like_constants())
    assert rep.passed and rep.max_ratio == 0.0


def test_envelope_monitor_on_the_bound():
    clock = PrescribedClock(1.0, 0.999)
    consts = example2_like_constants()
    alpha = linear_gain(21.0)
    times = np.linspace(0.0, 0.9, 50)
    # after the first point, norms sit exactly on the monitor's bound
    gamma = np.sqrt(consts.c3 / consts.c2)
    norms = [gamma * kappa(clock, alpha, -consts.c_star, t) for t in times]
    norms[0] = 1.0
    rep = envelope_monitor(times, norms, clock, alpha, consts)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(1.0, rel=1e-9)


def test_envelope_monitor_flags_violation():
    clock = PrescribedClock(1.0, 0.999)
    consts = example2_like_constants()
    times = np.linspace(0.0, 0.9, 10)
    norms = np.full(10, 100.0)
    norms[0] = 1.0  # bound starts at sqrt(c3/c2), later points blow through
    rep = envelope_monitor(times, norms, clock, linear_gain(21.0), consts)
    assert not rep.passed
    assert rep.first_violation_t is not None


def test_envelope_monitor_needs_data():
    clock = PrescribedClock(1.0, 0.999)
    with pytest.raises(DptcoError,
                       match="envelope monitor needs a logged trajectory"):
        envelope_monitor([0.0], [1.0], clock, linear_gain(21.0),
                         example2_like_constants())


def test_conservation_monitor_pass_and_fail():
    times = np.linspace(0.0, 1.0, 5)
    flat = np.zeros((5, 2))
    assert conservation_monitor(times, flat).passed
    drift = flat.copy()
    drift[3] = [1e-6, 0.0]
    rep = conservation_monitor(times, drift)
    assert not rep.passed
    assert rep.first_violation_t == pytest.approx(times[3])
