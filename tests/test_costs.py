"""Convex costs, curvature constants, and the centralized optimum oracle."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptco.costs import CostSet, grad_sum, optimum_oracle
from dptco.errors import DptcoError
from dptco.scenario import load_scenario

import oracles
from oracles import default_box, expq, quad
from conftest import modified_scenario, scenario_path, shipped_scenarios

Z_STAR_REFERENCE = np.array([0.7263, 0.7183])


def example2_agents() -> tuple:
    """example2_generator's costs as (their term dicts per agent, dim,
    box)."""
    raw = json.loads(open(scenario_path("example2_generator")).read())["costs"]
    return raw["agents"], raw["dim"], np.array(raw["box"])


def example2_costs() -> CostSet:
    return CostSet(*example2_agents())


def one_agent(c, box=None) -> CostSet:
    """c, a term dict or a list of them, as the cost of a single agent, on
    box (default [-5, 5]^dim)."""
    dim = len((c[0] if isinstance(c, list) else c)["center"])
    return CostSet([c], dim, default_box(dim) if box is None else box)


def per_agent(agents, Z) -> np.ndarray:
    """oracles.cost_gradient of agent i at Z[i], stacked."""
    return np.array([oracles.cost_gradient(c, z) for c, z in zip(agents, Z)])


# --- cost families -----------------------------------------------------------

def test_quadratic_value_and_gradient():
    cs = one_agent(quad(np.eye(2), [1.0, 2.0], offset=3.0))
    assert cs.team_value(np.array([1.0, 2.0])) == pytest.approx(3.0)
    assert np.allclose(cs.grad_stack(np.array([[2.0, 2.0]])), [[2.0, 0.0]])


def test_quadratic_curvature_constants():
    c = one_agent(quad(np.diag([0.5, 0.3]), [0.0, 0.0]))
    assert c.rho_c == pytest.approx(0.6)
    assert c.varrho_c == pytest.approx(1.0)


def test_exp_quadratic_gradient_fd():
    c = expq([[0.3, 0.1], [0.1, 0.5]], [0.5, 0.5])
    cs = one_agent(c, oracles.wide_box(2))
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, 2)
        g = cs.grad_stack(z[None])[0]
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            fd = (cs.team_value(z + e) - cs.team_value(z - e)) / 2e-6
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_sum_cost_adds():
    a = quad(np.eye(1), [0.0])
    b = quad(np.eye(1), [2.0])
    s = one_agent([a, b])
    z = np.array([1.0])
    assert s.team_value(z) == pytest.approx(
        one_agent(a).team_value(z) + one_agent(b).team_value(z))
    assert np.allclose(s.grad_stack(z[None]),
                       one_agent(a).grad_stack(z[None])
                       + one_agent(b).grad_stack(z[None]))


def test_cost_roundtrip_serialization(tmp_path):
    # a sum of terms written into a scenario file reads back as the same
    # term table and team cost
    c = [quad([[1.0, 0.0], [0.0, 2.0]], [0.5, 0.0], 0.25),
         expq([[0.2, 0.0], [0.0, 0.1]], [0.0, 0.3])]

    def edit(raw):
        raw["costs"]["agents"][0] = c
        raw["gains"]["acknowledge_criteria_override"] = True

    p = modified_scenario("ring", tmp_path, edit)
    read = load_scenario(p).build().sys.costs
    agents = json.loads(open(p).read())["costs"]["agents"]
    built = CostSet([c] + agents[1:], 2, default_box(2))
    for got, want in zip(read.terms, built.terms, strict=True):
        assert got[:2] == want[:2] and got[4] == want[4]
        assert np.array_equal(got[2], want[2])
        assert np.array_equal(got[3], want[3])
    z = np.array([0.7, -0.2])
    assert read.team_value(z) == built.team_value(z)


def test_dimension_mismatch_rejected():
    with pytest.raises(DptcoError,
                       match="cost dimension mismatch in CostSet"):
        CostSet([quad(np.eye(2), [0.0, 0.0]), quad(np.eye(1), [0.0])], 2,
                default_box(2))


@pytest.mark.parametrize("agents, message", [
    ([quad(np.eye(2), [0.0, 0.0]), []],
     "agent 1: a sum of costs needs at least one term"),
    ([{"family": "linear", "a": [1.0, 0.0], "center": [0.0, 0.0]}],
     "unknown cost family 'linear'"),
    ([quad([[1.0]], [0.0, 0.0])], "Q shape does not match center"),
    ([quad(np.eye(2), [0.0, np.nan])], r"center must be finite"),
    ([quad(np.eye(2), [0.0, 0.0], np.inf)], r"offset must be finite"),
    ([quad(np.eye(2), [0.0, 0.0]), quad(-np.eye(2), [0.0, 0.0])],
     "Q must be symmetric positive definite"),
    ([quad([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])],
     "Q must be symmetric positive definite"),
    ([expq(np.zeros((2, 2)), [0.0, 0.0]),
      [quad(np.eye(2), [0.0, 0.0]), expq(-np.eye(2), [0.0, 0.0])]],
     "P must be symmetric positive semidefinite"),
], ids=["empty_sum", "unknown_family", "shape", "center", "offset",
        "Q_negative", "Q_asymmetric", "P_negative"])
def test_bad_cost_term_refused(agents, message):
    with pytest.raises(DptcoError, match=message):
        CostSet(agents, 2, default_box(2))


# --- team gradient -----------------------------------------------------------

def test_grad_sum_zero_at_center():
    cs = CostSet([quad(np.eye(2), [1.0, -1.0])], 2, default_box(2))
    assert np.allclose(grad_sum(cs, [1.0, -1.0]), 0.0)


def test_grad_sum_symmetric_pair():
    cs = CostSet([quad(np.eye(1), [0.0]), quad(np.eye(1), [2.0])], 1,
                 default_box(1))
    assert np.allclose(grad_sum(cs, [1.0]), 0.0)


def test_grad_sum_small_at_reference_optimum():
    agents, dim, box = example2_agents()
    total = sum(oracles.cost_gradient(c, Z_STAR_REFERENCE) for c in agents)
    assert np.linalg.norm(total) < 5e-3
    assert np.allclose(grad_sum(CostSet(agents, dim, box), Z_STAR_REFERENCE),
                       total, atol=1e-14)


def test_grad_stack_matches_per_agent():
    agents, dim, box = example2_agents()
    cs = CostSet(agents, dim, box)
    rng = np.random.default_rng(1)
    Z = rng.uniform(-1.0, 2.0, size=(cs.n_agents, 2))
    assert np.allclose(cs.grad_stack(Z), per_agent(agents, Z), atol=1e-14)
    # one quadratic per agent takes the path without gather and scatter
    quads = [quad(np.diag([1.0 + i, 0.5]), [i, -i]) for i in range(5)]
    Z = rng.uniform(-1.0, 2.0, size=(5, 2))
    assert np.allclose(CostSet(quads, 2, oracles.wide_box(2)).grad_stack(Z),
                       per_agent(quads, Z), atol=1e-14)
    # several quadratics of one agent are merged into one term
    terms = [[quad(np.diag([1.0 + i, 0.5]), [i, -i]),
              quad([[0.3, 0.1], [0.1, 0.2]], [-i, 2.0])] for i in range(4)]
    merged = [terms[0], terms[1][0], terms[2], terms[3] + [terms[0][1]]]
    Z = rng.uniform(-1.0, 2.0, size=(4, 2))
    assert np.allclose(CostSet(merged, 2, oracles.wide_box(2)).grad_stack(Z),
                       per_agent(merged, Z), atol=1e-14)


# the branches of grad_stack that no bundled scenario reaches: a scattered
# quadratic batch (agents without one), several exp-quadratics on one
# agent (np.add.at), and three quadratics merged on one agent
P1 = [[0.3, 0.1], [0.1, 0.5]]
P2 = [[0.2, -0.05], [-0.05, 0.1]]
BRANCHES = {
    "quadratic_not_on_every_agent": [
        expq(P1, [0.5, 0.5]), quad(np.diag([1.0, 2.0]), [1.0, -1.0]),
        [expq(P2, [0.0, 1.0]), quad(np.eye(2), [0.5, 0.0])]],
    "two_exp_quadratics_on_one_agent": [
        quad(np.eye(2), [0.0, 0.0]),
        [quad(np.diag([0.5, 1.5]), [1.0, 0.0]), expq(P1, [0.5, 0.5]),
         expq(P2, [-0.5, 0.2])],
        [expq(P2, [0.3, 0.3]), quad(np.eye(2), [0.0, 1.0])]],
    "three_quadratics_on_one_agent": [
        [quad(np.diag([1.0, 2.0]), [1.0, -1.0], 0.5),
         quad([[0.3, 0.1], [0.1, 0.2]], [-1.0, 2.0]),
         quad(np.diag([0.7, 0.4]), [0.2, 0.9], -1.0)],
        quad(np.eye(2), [0.0, 0.0])],
}


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_grad_stack_branch_matches_per_term_reference(name):
    agents = BRANCHES[name]
    cs = CostSet(agents, 2, oracles.wide_box(2))
    Z = np.random.default_rng(5).uniform(-1.0, 1.5, (4, len(agents), 2))
    G = cs.grad_stack(Z)
    for k in range(len(Z)):
        assert np.allclose(G[k], per_agent(agents, Z[k]), rtol=1e-13,
                           atol=1e-14)
        # a leading axis gives each slice's gradients bit for bit
        assert G[k].tobytes() == cs.grad_stack(Z[k]).tobytes()
    z = Z[0, 0]
    assert cs.team_value(z) == pytest.approx(
        sum(oracles.cost_value(c, z) for c in agents), rel=1e-14)


def test_merged_quadratics_keep_file_order():
    # Q = sum_k Q_k is summed in file order: (1e16 + 1) + 1 rounds to
    # 1e16, where (1 + 1) + 1e16 is 1e16 + 2
    Qs = [np.diag([1e16, 1.0]), np.eye(2), np.eye(2)]
    cs = CostSet([[quad(Q, [0.0, 0.0]) for Q in Qs]], 2, default_box(2))
    _, mats, _, _, _ = cs._batches[0]
    assert mats[0].tobytes() == (2.0 * ((Qs[0] + Qs[1]) + Qs[2])).tobytes()
    assert mats[0, 0, 0] == 2e16


def test_costset_constants_match_per_term_reference():
    # per agent, lambda of its summed matrices and a bound per
    # exp-quadratic term, batched over the table; the loop reference
    # takes them agent by agent and term by term
    box = np.array([[-1.0, 2.0], [-0.5, 1.5]])
    for name, agents in sorted(BRANCHES.items()):
        cs = CostSet(agents, 2, box)
        assert (cs.rho_c, cs.varrho_c) == pytest.approx(
            oracles.curvature_bounds(agents, box), rel=1e-14, abs=0.0), name
    # analytic, with every term quadratic: an agent's 2 lambda_min and
    # 2 lambda_max of its summed Q, then min and max over agents
    agents = BRANCHES["three_quadratics_on_one_agent"]
    cs = CostSet(agents, 2, box)
    eigs = [2.0 * np.linalg.eigvalsh(sum(np.asarray(t["Q"], float)
                                         for t in (c if isinstance(c, list)
                                                   else [c])))
            for c in agents]
    assert cs.rho_c == pytest.approx(min(e[0] for e in eigs), rel=1e-14)
    assert cs.varrho_c == pytest.approx(max(e[-1] for e in eigs), rel=1e-14)


def test_two_quadratics_take_the_spectrum_of_their_sum():
    # Q1 and Q2 do not commute: lambda_min(Q1 + Q2) = 1.1 - sqrt(0.405),
    # well above lambda_min(Q1) + lambda_min(Q2) = 0.2, and lambda_max
    # below 1 + 1
    Q1 = np.diag([1.0, 0.1])
    Q2 = np.array([[0.55, 0.45], [0.45, 0.55]])
    cs = one_agent([quad(Q1, [0.0, 0.0]), quad(Q2, [1.0, 0.0])])
    assert cs.rho_c == pytest.approx(2.0 * (1.1 - np.sqrt(0.405)), rel=1e-14)
    assert cs.varrho_c == pytest.approx(2.0 * (1.1 + np.sqrt(0.405)),
                                        rel=1e-14)
    assert cs.rho_c > 2.0 * (0.1 + 0.1)


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_hessian_stack_matches_central_differences(name):
    # every branch of the batches, the scatter of np.add.at included,
    # against central differences of grad_stack
    agents = BRANCHES[name]
    cs = CostSet(agents, 2, oracles.wide_box(2))
    Z = np.random.default_rng(6).uniform(-1.0, 1.5, (3, len(agents), 2))
    H = cs.hessian_stack(Z)
    assert H.shape == Z.shape + (2,)
    assert np.allclose(H, oracles.central_differences(cs.grad_stack, Z),
                       rtol=1e-7, atol=1e-8)
    for k in range(len(Z)):
        # a leading axis gives each slice's Hessians bit for bit
        assert H[k].tobytes() == cs.hessian_stack(Z[k]).tobytes()
        # Hessians are symmetric as computed, without symmetrising
        assert np.array_equal(H[k], H[k].transpose(0, 2, 1))


def grid_spectra(cs: CostSet, n: int) -> np.ndarray:
    """Eigenvalues of every agent's Hessian at each point of an n x n grid
    of its box (dim 2), as (n^2, N, 2)."""
    axes = [np.linspace(lo, hi, n) for lo, hi in cs.box]
    pts = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 1, 2)
    Z = np.broadcast_to(pts, (len(pts), cs.n_agents, 2))
    return np.linalg.eigvalsh(cs.hessian_stack(Z))


def test_constants_bound_the_hessian_on_every_shipped_box(tmp_path):
    # rho_c at most, and varrho_c at least, every Hessian eigenvalue on a
    # dense grid of the working box; equal for quadratic costs, whose
    # Hessians are constant.  example2's costs sampled varrho_c 98.13
    # against the grid's 118.5
    for name, raw in shipped_scenarios(tmp_path).items():
        costs = raw["costs"]
        cs = CostSet(costs["agents"], costs["dim"], costs["box"])
        eigs = grid_spectra(cs, 101)
        lo, hi = float(eigs[..., 0].min()), float(eigs[..., -1].max())
        assert cs.rho_c <= lo and hi <= cs.varrho_c, name
        if all(f == "quadratic" for _, f, _, _, _ in cs.terms):
            assert (cs.rho_c, cs.varrho_c) == pytest.approx(
                (lo, hi), rel=1e-15), name
        else:
            # the bound is within 1% of the grid's largest eigenvalue
            assert cs.varrho_c <= 1.01 * hi, name


def test_hessian_stack_matches_analytic():
    # quadratics have Hessian 2Q, exp-quadratics
    # 2 e (P + 2 P d d^T P) with e = exp(d^T P d), d = z - center
    P = np.array([[0.3, 0.1], [0.1, 0.5]])
    cs = CostSet([quad(np.diag([1.0, 0.5]), [1.0, -1.0]),
                  expq(P, [0.5, 0.5]),
                  [quad(np.eye(2), [0.0, 0.0]), expq(P, [0.5, 0.5])]], 2,
                 oracles.wide_box(2))
    Z = np.array([[0.3, -0.2], [0.1, 0.9], [-0.4, 0.2]])
    H = cs.hessian_stack(Z)

    def expq_hessian(z):
        d = z - 0.5
        Pd = P @ d
        return 2.0 * np.exp(d @ Pd) * (P + 2.0 * np.outer(Pd, Pd))

    assert np.allclose(H[0], np.diag([2.0, 1.0]), rtol=1e-8, atol=0.0)
    assert np.allclose(H[1], expq_hessian(Z[1]), rtol=1e-8, atol=0.0)
    assert np.allclose(H[2], 2.0 * np.eye(2) + expq_hessian(Z[2]), rtol=1e-8,
                       atol=0.0)


def test_overflowing_cost_refused_without_warning():
    # exp(100 ||z - c||^2) overflows on the box [-5, 5]^2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DptcoError,
                           match="curvature constants must be finite"):
            one_agent(expq(100.0 * np.eye(2), [0.0, 0.0]))


# --- optimum oracle ----------------------------------------------------------

def test_oracle_single_quadratic():
    cs = CostSet([quad(np.eye(2), [3.0, -1.0])], 2, default_box(2))
    cert = optimum_oracle(cs)
    assert np.allclose(cert.z_star, [3.0, -1.0], atol=1e-8)


def test_oracle_weighted_mean():
    # sum of iota_i ||z - c_i||^2 has optimum sum(iota c)/sum(iota)
    iotas = [0.5, 1.0, 2.0]
    centers = [[0.0, 0.0], [1.0, 2.0], [-1.0, 4.0]]
    cs = CostSet([quad(i * np.eye(2), c) for i, c in zip(iotas, centers)], 2,
                 oracles.wide_box(2))
    expected = (np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 4.0]])
                * np.array(iotas)[:, None]).sum(axis=0) / sum(iotas)
    assert np.allclose(optimum_oracle(cs).z_star, expected, atol=1e-8)


def test_oracle_reference_value():
    cert = optimum_oracle(example2_costs())
    assert np.linalg.norm(cert.z_star - Z_STAR_REFERENCE) < 1e-3
    assert cert.grad_norm <= 1e-8


def test_oracle_refuses_an_exp_term_that_overflows_at_its_start():
    # finite on the box, but exp(2000 ||z - c||^2) overflows at z = 0,
    # where math.exp raised an OverflowError out of team_value
    cs = one_agent(expq(2000.0 * np.eye(2), [0.5, 0.5]),
                   np.array([[0.4, 0.6], [0.4, 0.6]]))
    assert cs.team_value([0.0, 0.0]) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DptcoError, match=r"optimum oracle: the team cost "
                           r"is not finite at z = \[0.0, 0.0\] \(value inf"):
            optimum_oracle(cs)


# --- curvature constants -----------------------------------------------------

def test_estimate_constants_diagonal_quadratic():
    # closed form: exactly 2 x the extreme diagonal entries
    cs = one_agent(quad(np.diag([0.5, 0.3]), [0.0, 0.0]))
    assert (cs.rho_c, cs.varrho_c) == (0.6, 1.0)


def test_estimate_constants_identity_quadratic():
    cs = one_agent(quad(np.eye(2), [0.0, 0.0]))
    assert (cs.rho_c, cs.varrho_c) == (2.0, 2.0)


def test_estimate_constants_example2_agent1():
    # example2's first agent: 2Q + 2 e^q (P + 2 P d d^T P) with a diagonal
    # P = 0.1 I, whose bound is the one at the farthest vertex of the box
    agents, _, box = example2_agents()
    cs = one_agent(agents[0], box)
    q, e = agents[0]
    Q, P = np.asarray(q["Q"]), np.asarray(e["P"])
    d = np.array([[x, y] for x in box[0] for y in box[1]]) - e["center"]
    Pd = d @ P
    vertex = 2.0 * np.exp((d * Pd).sum(axis=1).max()) * (
        0.1 + 2.0 * (Pd * Pd).sum(axis=1).max())
    assert cs.varrho_c == pytest.approx(
        2.0 * np.linalg.eigvalsh(Q)[-1] + vertex, rel=1e-14)
    assert cs.rho_c == pytest.approx(
        2.0 * np.linalg.eigvalsh(Q + P)[0], rel=1e-14)
    eigs = grid_spectra(cs, 301)
    assert cs.rho_c <= eigs[..., 0].min()
    assert eigs[..., -1].max() <= cs.varrho_c


def test_costset_analytic_constants():
    cs = CostSet([quad(np.diag([0.5, 0.3]), [0.0, 0.0]),
                  quad(np.eye(2), [1.0, 1.0])], 2, default_box(2))
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
