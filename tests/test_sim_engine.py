"""ODE engine: accuracy, determinism, guard discipline, CSV round trips."""

import math

import numpy as np
import pytest

from dptco.costs import CostSet, QuadraticCost, optimum_oracle
from dptco.errors import (DimensionMismatch, NonFiniteState, StepUnderflow)
from dptco.graph import build_network
from dptco.sim_engine import (CoupledSystem, SolverSettings, export_csv,
                              integrate, make_disturbance, step_ceiling,
                              trajectory_columns)
from dptco.timegain import PrescribedClock

from oracles import linear_gain, wide_box

CLOCK = PrescribedClock(0.0, 1.0)
# the same window, the run ending at t = 0.5 or t = 0.9
CLOCK_05 = PrescribedClock(0.0, 1.0, guard_frac=0.5)
CLOCK_09 = PrescribedClock(0.0, 1.0, guard_frac=0.9)


def mu_decay_rhs(t, y, out):
    # y' = -mu y has the exact solution y0 (1 - t) on [0, 1)
    np.multiply(-CLOCK.mu(t), y, out=out)


# --- accuracy ------------------------------------------------------------

def test_rk45_matches_exact_solution():
    settings = SolverSettings(method="rk45", dt=1e-3, dt_max=1e-2,
                              rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(mu_decay_rhs, np.array([1.0]), CLOCK_09, settings)
    assert traj.times[-1] == pytest.approx(0.9, abs=1e-12)
    assert traj.states[-1, 0] == pytest.approx(0.1, abs=1e-8)


def test_rk4_fourth_order_convergence():
    # halve dt twice on [0, 0.5] where the mu ceiling never binds; the
    # observed order of the endpoint error should be close to 4.  The test
    # problem y' = -mu^2 y has the curved solution exp(1 - mu(t)).
    errs = []
    exact = math.exp(1.0 - 2.0)
    for dt in (4e-3, 2e-3, 1e-3):
        settings = SolverSettings(method="rk4", dt=dt, dt_max=1.0)
        traj = integrate(
            lambda t, y, out: np.multiply(-CLOCK.mu(t) ** 2, y, out=out),
            np.array([1.0]), CLOCK_05, settings)
        errs.append(abs(traj.states[-1, 0] - exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) > 3.7


def test_step_ceiling_tracks_mu():
    assert step_ceiling(CLOCK, 0.0, 1.0) == pytest.approx(0.05)
    assert step_ceiling(CLOCK, 0.9, 1.0) == pytest.approx(0.05 / 100.0)
    assert step_ceiling(CLOCK, 0.0, 1e-3) == 1e-3


def test_rk4_respects_ceiling():
    # with dt much larger than the ceiling the engine still resolves the
    # fast late-time dynamics
    settings = SolverSettings(method="rk4", dt=0.5, dt_max=1.0)
    traj = integrate(mu_decay_rhs, np.array([1.0]), CLOCK_09, settings)
    assert traj.states[-1, 0] == pytest.approx(0.1, abs=1e-4)


# --- guard discipline ------------------------------------------------------

def test_no_rhs_evaluation_at_deadline():
    # on the second clock the last log-clock stage rounds past the guard
    # unless the integrator clamps it
    for clock in (CLOCK, PrescribedClock(-0.06, 1.2, 0.673)):
        seen = []

        def rhs(t, y, out):
            seen.append(t)
            np.multiply(-clock.mu(t), y, out=out)

        settings = SolverSettings(method="rk45", dt=1e-3, dt_max=1e-2)
        traj = integrate(rhs, np.array([1.0]), clock, settings)
        assert max(seen) <= clock.t_guard
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

    settings = SolverSettings(method="rk45", dt=0.5, dt_max=1.0,
                              rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(rhs, np.array([1.0, -2.0]), CLOCK_09, settings)
    assert traj.n_rejected > 0
    assert traj.n_rhs == 6 * (traj.n_steps + traj.n_rejected) + 1
    assert traj.n_rhs == len(seen) == len(set(seen))
    assert seen[0] == (0.0, np.array([1.0, -2.0]).tobytes())

    settings = SolverSettings(method="rk4", dt=1e-2, dt_max=1e-2)
    traj = integrate(mu_decay_rhs, np.array([1.0]), CLOCK_05, settings)
    assert traj.n_rhs == 4 * traj.n_steps


def test_norm_order_makes_steps_independent_of_storage():
    # the same system stored in a shuffled order yp = y[perm]: with the
    # error norm summed in y's order, every step and every state is the
    # same, bit for bit
    sys, _ = ring_system(guard_frac=0.5)
    y0 = sys.pack(np.arange(8.0).reshape(4, 2) / 4.0, np.zeros((4, 2)))
    perm = np.random.default_rng(3).permutation(sys.total_dim)

    def shuffled_rhs(t, yp, out):
        y = np.empty_like(yp)
        y[perm] = yp
        out[...] = sys.rhs(t, y)[perm]

    settings = SolverSettings(method="rk45", dt=0.05, dt_max=1e-2,
                              rel_tol=1e-7, abs_tol=1e-9)
    want = integrate(sys.rhs, y0, sys.clock, settings)
    got = integrate(shuffled_rhs, y0[perm], sys.clock, settings,
                    norm_order=np.argsort(perm))
    assert want.n_rejected > 0
    assert (got.n_steps, got.n_rejected, got.n_rhs) == (
        want.n_steps, want.n_rejected, want.n_rhs)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states[:, perm].tobytes()


# --- failure modes ----------------------------------------------------------

def test_nonfinite_state_detected():
    def blowup(t, y, out):
        with np.errstate(over="ignore"):
            np.power(y, 3, out=out)

    settings = SolverSettings(method="rk4", dt=0.05, dt_max=0.05)
    with pytest.raises(NonFiniteState):
        with np.errstate(over="ignore", invalid="ignore"):
            integrate(blowup, np.array([10.0]), CLOCK_09, settings)


def test_step_underflow_on_nan_rhs():
    def bad(t, y, out):
        out[:] = math.nan

    settings = SolverSettings(method="rk45", dt=1e-3, dt_max=1e-2)
    with pytest.raises(StepUnderflow):
        integrate(bad, np.array([1.0]), CLOCK, settings)


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(method="euler")
    with pytest.raises(ValueError):
        SolverSettings(dt=0.0)


# --- coupled generator system ------------------------------------------------

def ring_system(T=1.0, k=21.0, guard_frac=0.9):
    net = build_network(4, [[i, (i + 1) % 4, 1.0] for i in range(4)])
    costs = CostSet([QuadraticCost(np.eye(2) * (0.5 + 0.25 * i), [i, -i])
                     for i in range(4)], 2, wide_box(2))
    clock = PrescribedClock(0.0, T, guard_frac)
    sys = CoupledSystem(clock, net, costs, linear_gain(k))
    return sys, costs


def test_determinism_bit_identical():
    sys, _ = ring_system()
    y0 = sys.pack(np.arange(8.0).reshape(4, 2), np.zeros((4, 2)))
    settings = SolverSettings(method="rk45", dt=1e-3, dt_max=1e-2,
                              rel_tol=1e-8, abs_tol=1e-10)
    a = integrate(sys.rhs, y0, sys.clock, settings)
    b = integrate(sys.rhs, y0, sys.clock, settings)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_optimum_is_equilibrium():
    sys, costs = ring_system(guard_frac=0.5)
    cert = optimum_oracle(costs)
    varpi = np.tile(cert.z_star, (4, 1))
    p = -np.array([c.gradient(cert.z_star) for c in costs.costs])
    y0 = sys.pack(varpi, p)
    settings = SolverSettings(method="rk45", dt=1e-3, dt_max=1e-2,
                              rel_tol=1e-9, abs_tol=1e-11)
    traj = integrate(sys.rhs, y0, sys.clock, settings)
    assert np.abs(traj.states - y0).max() < 1e-6


def test_deadline_rescaling_of_generator():
    # with alpha = k mu the generator flow depends on t only through the
    # window fraction, so runs with T = 1 and T = 2 agree at matched times
    sys1, _ = ring_system(T=1.0)
    sys2, _ = ring_system(T=2.0)
    y0 = sys1.pack(np.arange(8.0).reshape(4, 2) / 4.0, np.zeros((4, 2)))
    out = []
    for sys in (sys1, sys2):
        settings = SolverSettings(method="rk45", dt=1e-4, dt_max=1e-2,
                                  rel_tol=1e-11, abs_tol=1e-13)
        out.append(integrate(sys.rhs, y0, sys.clock, settings))
    assert np.allclose(out[0].states[-1], out[1].states[-1], atol=1e-7)


def test_deadline_invariant_step_count():
    # on the log clock a linear gain makes the generator autonomous, so the
    # step count does not grow as the deadline shrinks
    steps = []
    for T in (0.5, 1.0, 2.0):
        sys, _ = ring_system(T=T, guard_frac=0.999)
        y0 = sys.pack(np.arange(8.0).reshape(4, 2) / 4.0, np.zeros((4, 2)))
        settings = SolverSettings(method="rk45", dt=1e-3, dt_max=1e-2,
                                  rel_tol=1e-9, abs_tol=1e-11)
        traj = integrate(sys.rhs, y0, sys.clock, settings)
        assert traj.times[-1] == 0.999 * T
        steps.append(traj.n_steps)
    assert max(steps) <= 1000
    assert max(steps) <= 1.25 * min(steps)


def test_column_names_cover_state():
    sys, _ = ring_system()
    names = sys.column_names()
    assert len(names) == sys.total_dim
    assert names[0] == "agent0.varpi0"
    assert names[-1] == "agent3.p1"


def test_trajectory_columns_layout():
    sys, _ = ring_system(guard_frac=0.1)
    y0 = sys.pack(np.zeros((4, 2)), np.zeros((4, 2)))
    settings = SolverSettings(method="rk4", dt=1e-2, dt_max=1e-2)
    traj = integrate(sys.rhs, y0, sys.clock, settings)
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


def test_disturbance_bit_identical_to_mode_axis_sum():
    # the same draws as make_disturbance, summed over a trailing mode axis
    d = make_disturbance(7, 5, 3, amplitude=0.3)
    rng = np.random.default_rng(7)
    shape = (5, 3, 3)
    freq = rng.uniform(0.5, 5.0, size=shape)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    coef = rng.uniform(0.2, 1.0, size=shape)
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
