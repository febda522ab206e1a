"""Convex costs, curvature constants, and the centralized optimum oracle."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptco.costs import (CostSet, ExpQuadraticCost, QuadraticCost, SumCost,
                         _curvature_pairs, cost_from_dict,
                         estimate_constants, grad_sum, optimum_oracle)
from dptco.errors import DptcoError

import oracles
from oracles import default_box
from conftest import scenario_path

Z_STAR_REFERENCE = np.array([0.7263, 0.7183])


def example2_costs() -> CostSet:
    raw = json.loads(open(scenario_path("example2_generator")).read())["costs"]
    costs = [cost_from_dict(a) for a in raw["agents"]]
    return CostSet(costs, raw["dim"], np.array(raw["box"]))


def one_agent(c, box=None) -> CostSet:
    """c as the cost of a single agent, on box (default [-5, 5]^dim)."""
    return CostSet([c], c.dim, default_box(c.dim) if box is None else box)


# --- cost families -----------------------------------------------------------

def test_quadratic_value_and_gradient():
    c = QuadraticCost(np.eye(2), [1.0, 2.0], offset=3.0)
    assert c.value(np.array([1.0, 2.0])) == pytest.approx(3.0)
    assert np.allclose(one_agent(c).grad_stack(np.array([[2.0, 2.0]])),
                       [[2.0, 0.0]])


def test_quadratic_curvature_constants():
    c = QuadraticCost(np.diag([0.5, 0.3]), [0.0, 0.0], 0.0)
    assert c.rho_c == pytest.approx(0.6)
    assert c.varrho_c == pytest.approx(1.0)


def test_exp_quadratic_gradient_fd():
    c = ExpQuadraticCost([[0.3, 0.1], [0.1, 0.5]], [0.5, 0.5])
    cs = one_agent(c, oracles.wide_box(2))
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, 2)
        g = cs.grad_stack(z[None])[0]
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            fd = (c.value(z + e) - c.value(z - e)) / 2e-6
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_sum_cost_adds():
    a = QuadraticCost(np.eye(1), [0.0], 0.0)
    b = QuadraticCost(np.eye(1), [2.0], 0.0)
    s = SumCost([a, b])
    z = np.array([1.0])
    assert s.value(z) == pytest.approx(a.value(z) + b.value(z))
    assert np.allclose(one_agent(s).grad_stack(z[None]),
                       one_agent(a).grad_stack(z[None])
                       + one_agent(b).grad_stack(z[None]))


def test_cost_roundtrip_serialization():
    c = cost_from_dict([{"family": "quadratic", "Q": [[1.0]], "center": [0.5],
                         "offset": 0.0},
                        {"family": "exp_quadratic", "P": [[0.2]],
                         "center": [0.0]}])
    c2 = cost_from_dict(json.loads(json.dumps(oracles.cost_to_dict(c))))
    z = np.array([0.7])
    assert c2.value(z) == pytest.approx(c.value(z))


def test_dimension_mismatch_rejected():
    with pytest.raises(DptcoError,
                       match="cost dimension mismatch in CostSet"):
        CostSet([QuadraticCost(np.eye(2), [0.0, 0.0], 0.0),
                 QuadraticCost(np.eye(1), [0.0], 0.0)], 2, default_box(2))


# --- team gradient -----------------------------------------------------------

def test_grad_sum_zero_at_center():
    cs = CostSet([QuadraticCost(np.eye(2), [1.0, -1.0], 0.0)], 2,
                 default_box(2))
    assert np.allclose(grad_sum(cs, [1.0, -1.0]), 0.0)


def test_grad_sum_symmetric_pair():
    cs = CostSet([QuadraticCost(np.eye(1), [0.0], 0.0),
                  QuadraticCost(np.eye(1), [2.0], 0.0)], 1, default_box(1))
    assert np.allclose(grad_sum(cs, [1.0]), 0.0)


def test_grad_sum_small_at_reference_optimum():
    cs = example2_costs()
    total = sum(oracles.cost_gradient(c, Z_STAR_REFERENCE) for c in cs.costs)
    assert np.linalg.norm(total) < 5e-3
    assert np.allclose(grad_sum(cs, Z_STAR_REFERENCE), total, atol=1e-14)


def test_grad_stack_matches_per_agent():
    cs = example2_costs()
    rng = np.random.default_rng(1)
    Z = rng.uniform(-1.0, 2.0, size=(cs.n_agents, 2))
    direct = np.array([oracles.cost_gradient(c, Z[i])
                       for i, c in enumerate(cs.costs)])
    assert np.allclose(cs.grad_stack(Z), direct, atol=1e-14)
    # one quadratic per agent takes the path without gather and scatter
    quad = CostSet([QuadraticCost(np.diag([1.0 + i, 0.5]), [i, -i], 0.0)
                    for i in range(5)], 2, oracles.wide_box(2))
    Z = rng.uniform(-1.0, 2.0, size=(5, 2))
    direct = np.array([oracles.cost_gradient(c, Z[i])
                       for i, c in enumerate(quad.costs)])
    assert np.allclose(quad.grad_stack(Z), direct, atol=1e-14)
    # several quadratics of one agent are merged into one term
    terms = [[QuadraticCost(np.diag([1.0 + i, 0.5]), [i, -i], 0.0),
              QuadraticCost([[0.3, 0.1], [0.1, 0.2]], [-i, 2.0], 0.0)]
             for i in range(4)]
    merged = CostSet([SumCost(terms[0]), terms[1][0], SumCost(terms[2]),
                      SumCost(terms[3] + [terms[0][1]])], 2,
                     oracles.wide_box(2))
    Z = rng.uniform(-1.0, 2.0, size=(4, 2))
    direct = np.array([oracles.cost_gradient(c, Z[i])
                       for i, c in enumerate(merged.costs)])
    assert np.allclose(merged.grad_stack(Z), direct, atol=1e-14)


def test_grad_stack_refuses_foreign_term():
    class Linear:
        dim = 2
        rho_c = varrho_c = 2.0

    cs = CostSet([QuadraticCost(np.eye(2), [0.0, 0.0], 0.0), Linear()], 2,
                 default_box(2))
    with pytest.raises(TypeError, match="agent 1: .* Linear"):
        cs.grad_stack(np.zeros((2, 2)))


def test_hessian_stack_matches_analytic():
    # quadratics have Hessian 2Q, exp-quadratics
    # 2 e (P + 2 P d d^T P) with e = exp(d^T P d), d = z - center
    P = np.array([[0.3, 0.1], [0.1, 0.5]])
    cs = CostSet([QuadraticCost(np.diag([1.0, 0.5]), [1.0, -1.0], 0.0),
                  ExpQuadraticCost(P, [0.5, 0.5]),
                  SumCost([QuadraticCost(np.eye(2), [0.0, 0.0], 0.0),
                           ExpQuadraticCost(P, [0.5, 0.5])])], 2,
                 oracles.wide_box(2))
    Z = np.array([[0.3, -0.2], [0.1, 0.9], [-0.4, 0.2]])
    H = cs.hessian_stack(Z)

    def expq(z):
        d = z - 0.5
        Pd = P @ d
        return 2.0 * np.exp(d @ Pd) * (P + 2.0 * np.outer(Pd, Pd))

    assert np.allclose(H[0], np.diag([2.0, 1.0]), rtol=1e-8, atol=0.0)
    assert np.allclose(H[1], expq(Z[1]), rtol=1e-8, atol=0.0)
    assert np.allclose(H[2], 2.0 * np.eye(2) + expq(Z[2]), rtol=1e-8,
                       atol=0.0)


def test_overflowing_cost_refused_without_warning():
    # exp(100 ||z - c||^2) overflows on the box [-5, 5]^2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DptcoError,
                           match="curvature constants must be finite"):
            one_agent(ExpQuadraticCost(100.0 * np.eye(2), [0.0, 0.0]))


# --- optimum oracle ----------------------------------------------------------

def test_oracle_single_quadratic():
    cs = CostSet([QuadraticCost(np.eye(2), [3.0, -1.0], 0.0)], 2,
                 default_box(2))
    cert = optimum_oracle(cs)
    assert np.allclose(cert.z_star, [3.0, -1.0], atol=1e-8)


def test_oracle_weighted_mean():
    # sum of iota_i ||z - c_i||^2 has optimum sum(iota c)/sum(iota)
    iotas = [0.5, 1.0, 2.0]
    centers = [[0.0, 0.0], [1.0, 2.0], [-1.0, 4.0]]
    cs = CostSet([QuadraticCost(i * np.eye(2), c, 0.0)
                  for i, c in zip(iotas, centers)], 2, oracles.wide_box(2))
    expected = (np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 4.0]])
                * np.array(iotas)[:, None]).sum(axis=0) / sum(iotas)
    assert np.allclose(optimum_oracle(cs).z_star, expected, atol=1e-8)


def test_oracle_reference_value():
    cert = optimum_oracle(example2_costs())
    assert np.linalg.norm(cert.z_star - Z_STAR_REFERENCE) < 1e-3
    assert cert.grad_norm <= 1e-8


# --- curvature constants -----------------------------------------------------

def test_estimate_constants_diagonal_quadratic():
    c = QuadraticCost(np.diag([0.5, 0.3]), [0.0, 0.0], 0.0)
    rho, varrho = estimate_constants(one_agent(c))
    assert 0.6 - 1e-3 <= rho <= 0.6 + 1e-9
    assert 1.0 - 1e-9 <= varrho <= 1.0 + 1e-3


def test_estimate_constants_identity_quadratic():
    c = QuadraticCost(np.eye(2), [0.0, 0.0], 0.0)
    rho, varrho = estimate_constants(one_agent(c))
    assert rho == pytest.approx(2.0, abs=1e-6)
    assert varrho == pytest.approx(2.0, abs=1e-6)


def test_curvature_sample_pinned():
    # literal first pair: random.Random gives the same stream in every
    # Python version, so it changes only with the stream or draw order
    X, Y = _curvature_pairs(default_box(2))
    assert X.shape == Y.shape == (400 + 3 * 2, 2)
    assert X[0].tolist() == [3.4442185152504816, 2.5795440294030243]
    assert Y[0].tolist() == [-0.79428419169155, -2.4108324970703663]


def test_estimate_constants_example2_agent1():
    cs = example2_costs()
    rho, varrho = estimate_constants(one_agent(cs.costs[0], cs.box))
    assert rho > 0.0
    assert np.isfinite(varrho)


@pytest.mark.parametrize("make", [
    lambda: one_agent(ExpQuadraticCost([[0.1, 0.0], [0.0, 0.1]], [0.5, 0.5]),
                      np.array([[-1.0, 2.0], [-1.0, 2.0]])),
    lambda: one_agent(SumCost([
        QuadraticCost([[0.5, -0.2], [-0.2, 0.3]], [1.0, 1.0], 0.0),
        ExpQuadraticCost([[0.2, 0.05], [0.05, 0.1]], [0.3, -0.2])])),
    example2_costs,
], ids=["single", "sum", "costset"])
def test_estimate_constants_matches_loop(make):
    costs = make()
    got = estimate_constants(costs)
    want = oracles.estimate_constants(costs, costs.box)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_costset_analytic_constants():
    cs = CostSet([QuadraticCost(np.diag([0.5, 0.3]), [0.0, 0.0], 0.0),
                  QuadraticCost(np.eye(2), [1.0, 1.0], 0.0)], 2,
                 default_box(2))
    assert cs.rho_c == pytest.approx(0.6)
    assert cs.varrho_c == pytest.approx(2.0)


def test_costset_estimated_constants_positive():
    cs = example2_costs()
    assert cs.rho_c > 0.0
    assert np.isfinite(cs.varrho_c) and cs.varrho_c > cs.rho_c


# --- convexity properties ----------------------------------------------------

@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_gradient_monotonicity(seed):
    cs = example2_costs()
    rng = np.random.default_rng(seed)
    lo, hi = cs.box[:, 0], cs.box[:, 1]
    x = lo + rng.random(2) * (hi - lo)
    y = lo + rng.random(2) * (hi - lo)
    if np.linalg.norm(x - y) < 1e-9:
        return
    n = cs.n_agents
    dG = cs.grad_stack(np.tile(x, (n, 1))) - cs.grad_stack(np.tile(y, (n, 1)))
    for gap in dG @ (x - y):
        assert gap >= cs.rho_c * float((x - y) @ (x - y)) - 1e-9
