"""ODE engine: accuracy, determinism, guard discipline, CSV round trips."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from dptco import rkc, sim_engine
from dptco.costs import CostSet, QuadraticCost, optimum_oracle
from dptco.draws import uniform
from dptco.errors import (DimensionMismatch, NonFiniteState, StepUnderflow)
from dptco.generator import design_radius
from dptco.graph import build_network
from dptco.rkc import rkc2_stages, rkc2_step
from dptco.scenario import load_scenario
from dptco.sim_engine import (CoupledSystem, SolverSettings, export_csv,
                              integrate, make_disturbance,
                              trajectory_columns)
from dptco.timegain import PrescribedClock

from conftest import scenario_path
from oracles import (System, cost_gradient, integrate_allocating,
                     linear_gain, rhs_jacobian, rhs_new, wide_box)

CLOCK = PrescribedClock(0.0, 1.0, 0.999)
# the same window, the run ending at t = 0.5 or t = 0.9
CLOCK_05 = PrescribedClock(0.0, 1.0, guard_frac=0.5)
CLOCK_09 = PrescribedClock(0.0, 1.0, guard_frac=0.9)


def mu_decay_rhs(t, y, out):
    # y' = -mu y has the exact solution y0 (1 - t) on [0, 1)
    np.multiply(-CLOCK.mu(t), y, out=out)


# --- accuracy ------------------------------------------------------------

def test_rk45_matches_exact_solution():
    settings = SolverSettings(method="rk45", dt=1e-3, rel_tol=1e-10,
                              abs_tol=1e-12)
    traj = integrate(System(mu_decay_rhs), np.array([1.0]), CLOCK_09, settings)
    assert traj.times[-1] == pytest.approx(0.9, abs=1e-12)
    assert traj.states[-1, 0] == pytest.approx(0.1, abs=1e-8)


def test_rk4_fourth_order_convergence():
    # halve dt twice on [0, 0.5] where the spectral-radius rule never
    # binds; the observed order of the endpoint error should be close to 4.
    # The test problem y' = -mu^2 y has the curved solution exp(1 - mu(t)).
    errs = []
    exact = math.exp(1.0 - 2.0)
    system = System(
        lambda t, y, out: np.multiply(-CLOCK.mu(t) ** 2, y, out=out), p=2.0)
    for dt in (4e-3, 2e-3, 1e-3):
        settings = SolverSettings(method="rk4", dt=dt)
        traj = integrate(system, np.array([1.0]), CLOCK_05, settings)
        errs.append(abs(traj.states[-1, 0] - exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) > 3.7


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_rk4_step_follows_spectral_radius(p):
    # y' = -kappa mu^p y has spectral radius rho = kappa mu^p.  With dt out
    # of the way every step but the last is h = 1.39 / rho, and
    # the run decays without a sign change to the guard at mu = 1000, each
    # step's factor near RK4's R(-1.39) = 0.28
    kappa = 7.0
    clock = PrescribedClock(0.0, 1.0, 0.999)
    system = System(lambda t, y, out: np.multiply(
        -kappa * clock.mu(t) ** p, y, out=out), kappa, p)
    settings = SolverSettings(method="rk4", dt=1.0)
    traj = integrate(system, np.array([1.0]), clock, settings)
    h = np.diff(traj.times)
    rho = kappa * clock.mu(traj.times[:-1]) ** p
    # diff(times) carries the rounding of t, about 1e-16 / h relative
    assert np.allclose(h[:-1] * rho[:-1], 1.39, rtol=1e-6)
    assert h[-1] * rho[-1] <= 1.39 * (1.0 + 1e-6)
    assert traj.times[-1] == clock.t_guard
    y = traj.states[:, 0]
    # down to 0, where the product of the step factors underflows
    assert (np.diff(y) <= 0.0).all() and (y >= 0.0).all()
    assert y[-1] < 1e-12
    if p == 1.0:
        # 1 - t shrinks by 1 - 1.39 / kappa a step, so the guard takes
        # the first k with (1 - 1.39 / kappa)^k <= 1 - 0.999
        want = math.ceil(math.log(1.0 - 0.999) / math.log1p(-1.39 / kappa))
        assert traj.n_steps == want == 32


def test_rk4_spectral_radius_matches_example2_jacobian():
    # example2 at guard 0.99: along the run the generator block of a
    # dense central-difference Jacobian of the closed loop has spectral
    # radius kappa_gen alpha(mu) and the agent block kappa_xi alpha_xi(mu),
    # within 1%, and every step holds h rho of the whole Jacobian at most
    # 1.4; kappa_gen is taken anew each time mu doubles, 7 times up to
    # mu = 100
    build = load_scenario(scenario_path("example2")).build(guard_frac=0.99)
    sys = build.sys
    taken = []

    def stiffness(y):
        taken.append(1)
        return CoupledSystem.stiffness(sys, y)

    sys.stiffness = stiffness
    settings = dataclasses.replace(build.settings, log_every=1)
    traj = integrate(sys, build.y0, build.sys.clock, settings)
    assert len(taken) == 7
    kappa_xi, alpha_xi = sys.agents.spectral_rate
    g = sys.gen_size
    late = np.flatnonzero(traj.times > 0.9)[:-1]
    for k in late[::10]:
        t, y = traj.times[k], traj.states[k]
        mu = build.sys.clock.mu(t)
        jac = rhs_jacobian(sys, t, y)
        radius = [np.abs(np.linalg.eigvals(block)).max()
                  for block in (jac[:g, :g], jac[g:, g:], jac)]
        kappa_gen = design_radius(build.sys.net.laplacian, build.sys.costs,
                                  sys.views(y)[0])
        assert radius[0] == pytest.approx(kappa_gen * build.sys.alpha.eval(mu),
                                          rel=1e-2)
        assert radius[1] == pytest.approx(kappa_xi * alpha_xi.eval(mu),
                                          rel=1e-2)
        assert (traj.times[k + 1] - t) * radius[2] <= 1.4


# --- guard discipline ------------------------------------------------------

# on the log clock y' = -mu diag(RATES) (y - 1) is dy/ds = -diag(RATES)
# (y - 1): once the fast mode has decayed, Dormand-Prince is held at its
# stability limit, and RKC2, cheaper there, takes over
RATES = np.array([10.0, 1000.0])


def stiff_rhs(clock, seen=None):
    def rhs(t, y, out):
        if seen is not None:
            seen.append(t)
        np.multiply(-clock.mu(t) * RATES, y - 1.0, out=out)

    return rhs


def test_no_rhs_evaluation_at_deadline():
    # on the second clock the last log-clock stage rounds past the guard
    # unless the integrator clamps it; the stiff runs hand over to RKC2,
    # whose stages and power-iteration probes are checked too
    clocks = (CLOCK, PrescribedClock(-0.06, 1.2, 0.673))
    for clock, stiff in itertools.product(clocks, (False, True)):
        seen = []
        if stiff:
            rhs = stiff_rhs(clock, seen)
        else:
            def rhs(t, y, out):
                seen.append(t)
                np.multiply(-clock.mu(t), y, out=out)

        settings = SolverSettings(method="rk45", dt=1e-3)
        traj = integrate(System(rhs), np.full(2, 2.0), clock, settings)
        assert (traj.integrator["handovers"] is not None) == stiff
        assert max(seen) <= clock.t_guard
        assert min(seen) == clock.t0
        assert traj.times[-1] == clock.t_guard
        assert traj.n_rhs == len(seen)


def test_rk45_reuses_last_stage():
    # FSAL: an accepted step starts from its predecessor's last stage and a
    # rejected one keeps its first stage, so no (t, y) is evaluated twice
    # and each attempt costs six evaluations plus one at the start
    seen = []

    def rhs(t, y, out):
        seen.append((t, y.tobytes()))
        np.multiply(-CLOCK.mu(t), y, out=out)

    settings = SolverSettings(method="rk45", dt=0.5, rel_tol=1e-10,
                              abs_tol=1e-12)
    traj = integrate(System(rhs), np.array([1.0, -2.0]), CLOCK_09, settings)
    assert traj.n_rejected > 0
    assert traj.integrator["handovers"] is None
    assert traj.n_rhs == 6 * (traj.n_steps + traj.n_rejected) + 1
    assert traj.n_rhs == len(seen) == len(set(seen))
    assert seen[0] == (0.0, np.array([1.0, -2.0]).tobytes())

    settings = SolverSettings(method="rk4", dt=1e-2)
    traj = integrate(System(mu_decay_rhs), np.array([1.0]), CLOCK_05, settings)
    assert traj.n_rhs == 4 * traj.n_steps


def test_norm_order_makes_steps_independent_of_storage():
    # the same system stored in a shuffled order yp = y[perm]: with the
    # error norm summed in y's order, every step and every state is the
    # same, bit for bit
    sys, _ = ring_system(guard_frac=0.5)
    y0 = sys.pack(np.arange(8.0).reshape(4, 2) / 4.0, np.zeros((4, 2)),
                  None, None)
    perm = np.random.default_rng(3).permutation(sys.total_dim)

    def shuffled_rhs(t, yp, out):
        y = np.empty_like(yp)
        y[perm] = yp
        out[...] = rhs_new(sys, t, y)[perm]

    settings = SolverSettings(method="rk45", dt=0.05, rel_tol=1e-7,
                              abs_tol=1e-9)
    want = integrate(sys, y0, sys.clock, settings)
    got = integrate(System(shuffled_rhs, agent_major=np.argsort(perm)),
                    y0[perm], sys.clock, settings)
    assert want.n_rejected > 0
    assert (got.n_steps, got.n_rejected, got.n_rhs) == (
        want.n_steps, want.n_rejected, want.n_rhs)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states[:, perm].tobytes()


def test_non_stiff_run_is_plain_dormand_prince():
    # y' = -mu y is dy/ds = -y on the log clock: never stability-bound, so
    # the run never hands over and is the oracle's Dormand-Prince run
    settings = SolverSettings(method="rk45", dt=1e-3, rel_tol=1e-10,
                              abs_tol=1e-12, log_every=3)
    got = integrate(System(mu_decay_rhs), np.array([1.0, -2.0]), CLOCK_09,
                    settings)
    want = integrate_allocating(lambda t, y: -CLOCK.mu(t) * y,
                                np.array([1.0, -2.0]), CLOCK_09, settings)
    assert got.integrator["handovers"] is None
    assert got.integrator["steps"]["rkc2"] == 0
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert (got.n_steps, got.n_rejected, got.n_rhs) == (
        want.n_steps, want.n_rejected, want.n_rhs)


def test_stiff_run_hands_over_and_stays_accurate():
    # dy/ds = -diag(RATES) (y - 1) has the solution 1 + exp(-RATES s): RKC2
    # takes the tail in far fewer calls than Dormand-Prince, within the
    # tolerances of the exact endpoint
    clock = PrescribedClock(0.0, 1.0, 0.999)
    settings = SolverSettings(method="rk45", dt=1e-3, rel_tol=1e-8,
                              abs_tol=1e-10)
    traj = integrate(System(stiff_rhs(clock)), np.full(2, 2.0), clock,
                     settings)
    info = traj.integrator
    assert [h["to"] for h in info["handovers"]] == ["rkc2"]
    assert info["max_rkc2_stages"] > 2
    assert info["steps"]["dp5"] + info["steps"]["rkc2"] == traj.n_steps
    assert sum(info["rejected"].values()) == traj.n_rejected
    assert info["n_rhs"] == traj.n_rhs
    exact = 1.0 + np.exp(RATES * math.log1p(-0.999))
    units = np.abs(traj.states[-1] - exact) / (1e-10 + 1e-8 * exact)
    assert units.max() <= 1.0
    # Dormand-Prince at its limit: 6 calls per step of 3.3 / 1000 in s,
    # over s_end = -ln(1 - 0.999)
    assert traj.n_rhs < 6 * 1000 / 3.3 * -math.log1p(-0.999) / 3


def test_rkc2_hands_back_when_dearer_than_dormand_prince():
    # dy/ds = -diag(1, 1000) y: once the fast mode has decayed RKC2 takes
    # over, but its accuracy-bound steps stay shorter than Dormand-Prince's
    # at its limit, so it hands back; Dormand-Prince then keeps the run,
    # its calls per unit log time never exceeding that RKC2 run's
    clock = PrescribedClock(0.0, 1.0, 0.99)
    rates = np.array([1.0, 1000.0])

    def run():
        seen = []

        def rhs(t, y, out):
            seen.append(t)
            np.multiply(-clock.mu(t) * rates, y, out=out)

        settings = SolverSettings(method="rk45", dt=1e-3, rel_tol=1e-8,
                                  abs_tol=1e-10)
        return integrate(System(rhs), np.ones(2), clock, settings), seen

    traj, seen = run()
    info = traj.integrator
    handovers = info["handovers"]
    assert [h["to"] for h in handovers] == ["rkc2", "dp5"]
    assert clock.t0 < handovers[0]["t"] < handovers[1]["t"] < clock.t_guard
    # most of the run after the hand-back is Dormand-Prince's
    assert info["steps"]["dp5"] > 50 * info["steps"]["rkc2"] > 0
    assert info["steps"]["dp5"] + info["steps"]["rkc2"] == traj.n_steps
    assert sum(info["rejected"].values()) == traj.n_rejected
    assert info["n_rhs"] == traj.n_rhs == len(seen)
    assert min(seen) == clock.t0 and max(seen) <= clock.t_guard
    assert traj.times[-1] == clock.t_guard
    exact = np.exp(rates * math.log1p(-0.99))
    units = np.abs(traj.states[-1] - exact) / (1e-10 + 1e-8 * exact)
    assert units.max() <= 1.0
    again, seen_again = run()
    assert seen_again == seen
    assert again.integrator == info
    assert again.times.tobytes() == traj.times.tobytes()
    assert again.states.tobytes() == traj.states.tobytes()


def test_non_finite_spectral_radius_hands_straight_back(monkeypatch):
    # every estimate fails after one probe: each hand-over is undone at
    # once, and the run is Dormand-Prince's own plus the probes
    def failing_estimate(f, s, y, K):
        f(s, y, K[6])
        return math.inf, 1

    monkeypatch.setattr(sim_engine, "spectral_radius", failing_estimate)
    clock = PrescribedClock(0.0, 1.0, 0.999)
    seen = []
    settings = SolverSettings(method="rk45", dt=1e-3, rel_tol=1e-8,
                              abs_tol=1e-10)
    traj = integrate(System(stiff_rhs(clock, seen)), np.full(2, 2.0), clock,
                     settings)
    want = integrate_allocating(
        lambda t, y: -clock.mu(t) * RATES * (y - 1.0), np.full(2, 2.0),
        clock, settings)
    handovers = traj.integrator["handovers"]
    assert len(handovers) > 2
    assert [h["to"] for h in handovers] == ["rkc2", "dp5"] * (
        len(handovers) // 2)
    assert all(a["t"] == b["t"] for a, b in zip(handovers[::2],
                                               handovers[1::2]))
    assert traj.integrator["steps"]["rkc2"] == 0
    assert traj.n_rhs == len(seen) == want.n_rhs + len(handovers) // 2
    assert max(seen) <= clock.t_guard
    assert traj.times.tobytes() == want.times.tobytes()
    assert traj.states.tobytes() == want.states.tobytes()



def test_non_finite_estimate_after_a_rejection_hands_back_in_the_trial(
        monkeypatch):
    # every second estimate fails: the one RKC2 takes after rejecting its
    # first trial hands back from inside the trial loop, and Dormand-Prince
    # retakes that step within the guard and the call count
    calls = []

    def flaky_estimate(f, s, y, K):
        calls.append(s)
        if len(calls) % 2:
            return rkc.spectral_radius(f, s, y, K)
        f(s, y, K[6])
        return math.nan, 1

    monkeypatch.setattr(sim_engine, "spectral_radius", flaky_estimate)
    clock = PrescribedClock(0.0, 1.0, 0.999)
    seen = []
    settings = SolverSettings(method="rk45", dt=1e-3, rel_tol=1e-8,
                              abs_tol=1e-10)
    traj = integrate(System(stiff_rhs(clock, seen)), np.full(2, 2.0), clock,
                     settings)
    info = traj.integrator
    handovers = info["handovers"]
    assert len(handovers) == len(calls) > 2
    # alternating from the first hand-over to RKC2; the last RKC2 run may
    # reach the guard
    assert [h["to"] for h in handovers] == (
        ["rkc2", "dp5"] * len(handovers))[:len(handovers)]
    assert info["rejected"]["rkc2"] >= len(handovers) // 2
    assert traj.n_rhs == len(seen)
    assert max(seen) <= clock.t_guard
    exact = 1.0 + np.exp(RATES * math.log1p(-0.999))
    units = np.abs(traj.states[-1] - exact) / (1e-10 + 1e-8 * exact)
    assert units.max() <= 1.0

# --- RKC2 step ---------------------------------------------------------------

def _rkc2_run(a, y0, h, n, m):
    # n RKC2 steps of y' = a y (a matrix) with m stages; the step's
    # contract: K[0] = f(y) on entry, f(y_new) left in K[2]
    def f(s, y, out):
        np.dot(a, y, out=out)

    y = np.array(y0, dtype=float)
    K = np.empty((7, y.size))
    y_new = np.empty_like(y)
    f(0.0, y, K[0])
    for k in range(n):
        rkc2_step(f, k * h, y, h, m, K, y_new)
        y, y_new = y_new, y
        K[0] = K[2]
    return y


@pytest.mark.parametrize("m", [2, 3, 7])
def test_rkc2_second_order_convergence(m):
    # a smooth linear problem with eigenvalues -1 and -3 on s in [0, 1]:
    # halving the step quarters the endpoint error
    a = np.array([[-2.0, 1.0], [1.0, -2.0]])
    lam, vec = np.linalg.eigh(a)
    exact = vec @ (np.exp(lam) * (vec.T @ np.array([1.0, 0.5])))
    errs = [np.abs(_rkc2_run(a, [1.0, 0.5], 1.0 / n, n, m) - exact).max()
            for n in (10, 20, 40)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.9 < math.log2(coarse / fine) < 2.2


@pytest.mark.parametrize("m", [2, 3, 5, 10, 20, 40])
def test_rkc2_bounded_at_its_stage_count_limit(m):
    # y' = lam y at the largest h |lam| that still gets m stages, about
    # 0.65 m^2: 200 steps never grow the solution
    h_lam = (m * m - 1) / 1.54 * (1.0 - 1e-9)
    assert rkc2_stages(h_lam, 1.0) == m
    for z in np.linspace(h_lam / 10.0, h_lam, 10):
        y = _rkc2_run(np.array([[-z]]), [1.0], 1.0, 200, m)
        assert abs(y[0]) <= 1.0


# --- failure modes ----------------------------------------------------------

def test_nonfinite_state_detected():
    def blowup(t, y, out):
        with np.errstate(over="ignore"):
            np.power(y, 3, out=out)

    settings = SolverSettings(method="rk4", dt=0.05)
    with pytest.raises(NonFiniteState):
        with np.errstate(over="ignore", invalid="ignore"):
            integrate(System(blowup), np.array([10.0]), CLOCK_09, settings)


def test_step_underflow_on_nan_rhs():
    def bad(t, y, out):
        out[:] = math.nan

    settings = SolverSettings(method="rk45", dt=1e-3)
    with pytest.raises(StepUnderflow):
        integrate(System(bad), np.array([1.0]), CLOCK, settings)


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(method="euler")
    with pytest.raises(ValueError):
        SolverSettings(dt=0.0)


# --- coupled generator system ------------------------------------------------

def ring_system(T=1.0, k=21.0, guard_frac=0.9):
    net = build_network(4, [[i, (i + 1) % 4, 1.0] for i in range(4)])
    costs = CostSet([QuadraticCost(np.eye(2) * (0.5 + 0.25 * i), [i, -i], 0.0)
                     for i in range(4)], 2, wide_box(2))
    clock = PrescribedClock(0.0, T, guard_frac)
    sys = CoupledSystem(clock, net, costs, linear_gain(k), None, None)
    return sys, costs


def test_determinism_bit_identical():
    # the run hands over to RKC2, whose stage rows and power-iteration rows
    # are reused in place
    sys, _ = ring_system()
    y0 = sys.pack(np.arange(8.0).reshape(4, 2), np.zeros((4, 2)), None,
                  None)
    settings = SolverSettings(method="rk45", dt=1e-3, rel_tol=1e-8,
                              abs_tol=1e-10)
    a = integrate(sys, y0, sys.clock, settings)
    b = integrate(sys, y0, sys.clock, settings)
    assert a.integrator["handovers"] is not None
    assert a.states.tobytes() == b.states.tobytes()
    assert a.times.tobytes() == b.times.tobytes()


def test_optimum_is_equilibrium():
    sys, costs = ring_system(guard_frac=0.5)
    cert = optimum_oracle(costs)
    varpi = np.tile(cert.z_star, (4, 1))
    p = -np.array([cost_gradient(c, cert.z_star) for c in costs.costs])
    y0 = sys.pack(varpi, p, None, None)
    settings = SolverSettings(method="rk45", dt=1e-3, rel_tol=1e-9,
                              abs_tol=1e-11)
    traj = integrate(sys, y0, sys.clock, settings)
    assert np.abs(traj.states - y0).max() < 1e-6


def test_deadline_rescaling_of_generator():
    # with alpha = k mu the generator flow depends on t only through the
    # window fraction, so runs with T = 1 and T = 2 agree at matched times
    sys1, _ = ring_system(T=1.0)
    sys2, _ = ring_system(T=2.0)
    y0 = sys1.pack(np.arange(8.0).reshape(4, 2) / 4.0, np.zeros((4, 2)),
                   None, None)
    out = []
    for sys in (sys1, sys2):
        settings = SolverSettings(method="rk45", dt=1e-4, rel_tol=1e-11,
                                  abs_tol=1e-13)
        out.append(integrate(sys, y0, sys.clock, settings))
    assert np.allclose(out[0].states[-1], out[1].states[-1], atol=1e-7)


def test_deadline_invariant_step_count():
    # on the log clock a linear gain makes the generator autonomous, so the
    # step count does not depend on the deadline.  With dt (the first step,
    # in t) scaled by T as well, the runs agree step for step, through the
    # hand-over to RKC2; with dt fixed only the first step differs, and the
    # steps and calls stay within 2% of each other (221-222 steps and
    # 1308-1323 calls here).  Each run stays within the plain
    # Dormand-Prince run's steps and calls
    for scaled in (False, True):
        steps, rhs_calls = [], []
        for T in (0.5, 1.0, 2.0):
            sys, _ = ring_system(T=T, guard_frac=0.999)
            y0 = sys.pack(np.arange(8.0).reshape(4, 2) / 4.0,
                          np.zeros((4, 2)), None, None)
            unit = T if scaled else 1.0
            settings = SolverSettings(method="rk45", dt=1e-3 * unit,
                                      rel_tol=1e-9, abs_tol=1e-11)
            traj = integrate(sys, y0, sys.clock, settings)
            assert traj.times[-1] == 0.999 * T
            assert traj.integrator["handovers"] is not None
            steps.append(traj.n_steps)
            rhs_calls.append(traj.n_rhs)
            if not scaled:
                plain = integrate_allocating(
                    lambda t, y: rhs_new(sys, t, y), y0, sys.clock, settings)
                assert traj.n_steps <= plain.n_steps
                assert traj.n_rhs <= plain.n_rhs
        assert max(steps) <= 1000
        if scaled:
            assert len(set(steps)) == len(set(rhs_calls)) == 1
        else:
            assert max(steps) <= 1.02 * min(steps)
            assert max(rhs_calls) <= 1.02 * min(rhs_calls)


def test_column_names_cover_state():
    sys, _ = ring_system()
    names = sys.column_names()
    assert len(names) == sys.total_dim
    assert names[0] == "agent0.varpi0"
    assert names[-1] == "agent3.p1"


def test_trajectory_columns_layout():
    sys, _ = ring_system(guard_frac=0.1)
    y0 = sys.pack(np.zeros((4, 2)), np.zeros((4, 2)), None, None)
    settings = SolverSettings(method="rk4", dt=1e-2)
    traj = integrate(sys, y0, sys.clock, settings)
    cols = trajectory_columns(sys, traj)
    assert list(cols)[:2] == ["t", "mu"]
    assert len(cols) == 2 + sys.total_dim
    assert cols["mu"][0] == pytest.approx(1.0)


# --- disturbance -------------------------------------------------------------

def test_disturbance_bounded_and_seeded():
    d = make_disturbance(3, 2, 2, amplitude=0.1)
    ts = np.linspace(0.0, 10.0, 500)
    sup = max(np.abs(d(t)[i]).max() for t in ts for i in range(2))
    assert sup <= 0.1 + 1e-12
    d2 = make_disturbance(3, 2, 2, amplitude=0.1)
    assert np.array_equal(d(1.234)[0], d2(1.234)[0])
    d3 = make_disturbance(4, 2, 2, amplitude=0.1)
    assert not np.array_equal(d(1.234)[0], d3(1.234)[0])


def test_disturbance_stream_pinned():
    # literal values: random.Random gives the same stream in every Python
    # version, so these change only with the stream, the draw order or the
    # mode sum
    d = make_disturbance(0, 2, 2, amplitude=0.1)
    assert d(0.0).tolist() == [[-0.006029460721431276, 0.0032344088057792916],
                               [-0.03588660035187253, -0.08321904310073025]]
    assert d(1.0).tolist() == [[0.004952863395729158, 0.055743996284036715],
                               [0.03278031625318893, 0.030828176372901424]]


def test_disturbance_bit_identical_to_mode_axis_sum():
    # the same draws as make_disturbance, summed over a trailing mode axis
    d = make_disturbance(7, 5, 3, amplitude=0.3)
    rng = random.Random(7)
    shape = (5, 3, 3)
    freq = uniform(rng, 0.5, 5.0, shape)
    phase = uniform(rng, 0.0, 2.0 * math.pi, shape)
    coef = uniform(rng, 0.2, 1.0, shape)
    coef *= 0.3 / coef.sum(axis=2, keepdims=True)
    for t in np.linspace(0.0, 10.0, 41):
        want = (coef * np.sin(freq * t + phase)).sum(axis=2)
        assert d(t).tobytes() == want.tobytes()


# --- CSV export ----------------------------------------------------------

def test_export_csv_shape(tmp_path):
    path = tmp_path / "out.csv"
    export_csv(str(path), {"t": [0.0, 1.0], "y": [2.0, 3.0]})
    raw = path.read_bytes()
    assert raw.count(b"\r") == 0
    lines = raw.decode().splitlines()
    assert len(lines) == 3
    assert lines[0] == "t,y"


def test_export_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(20) * 10.0 ** rng.integers(-8, 8, 20)
    path = tmp_path / "rt.csv"
    export_csv(str(path), {"v": vals})
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, vals)


def test_export_csv_matches_per_cell_format(tmp_path):
    # the row template writes the same bytes as formatting every cell
    rng = np.random.default_rng(12)
    data = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(
        -300, 300, (40, 30))
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
               -2.2250738585072014e-309, 1e308]
    data.flat[rng.choice(data.size, 200, replace=False)] = rng.choice(
        special, 200)
    cols = {f"c{j}": data[:, j] for j in range(data.shape[1])}
    path = tmp_path / "cells.csv"
    export_csv(str(path), cols)
    want = ",".join(cols) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in data)
    assert path.read_bytes() == want.encode()


def test_export_csv_rejects_ragged(tmp_path):
    with pytest.raises(DimensionMismatch):
        export_csv(str(tmp_path / "bad.csv"), {"a": [1.0], "b": [1.0, 2.0]})
