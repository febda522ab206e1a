"""Fixed and adaptive ODE integration for the coupled closed loop.

The state vector stacks the trajectory generator with every agent's plant
and controller states:

    y = [varpi (N*dim); p (N*dim); x^1 .. x^N; ctrl^1 .. ctrl^N]

The right-hand side works in place: `CoupledSystem.rhs(t, y, out)` writes
dy/dt into every entry of `out` through `views(out)`, never reads `out`,
and returns it (it allocates only when `out` is None); the agent models'
`derivatives(t, mu, x, c, ref, dx, dc)` fill the plant and controller
views `dx` and `dc`.  `integrate` takes any right-hand side with that
contract and hands it its own stage rows, and forms every stage input in
a preallocated row, so no stage allocates its input or its result; the
accepted state never shares memory with a stage buffer.

The adaptive Dormand-Prince integrator (rk45) runs on the log clock
s = -ln(1 - (t - t0)/T), where dt = ds / mu, so its error control alone
follows the blow-up of the time-varying gain.  Its last stage is the first
stage of the next step (first same as last, FSAL), so every attempted step
costs six right-hand-side evaluations, plus one at the start.  The
fixed-step RK4 integrator stays on the t clock under the step ceiling
min(dt_max, 0.05 / mu^2).
Integration stops at the guard time strictly before the prescribed deadline;
no right-hand side is ever evaluated at or beyond the deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, IoFailure, NonFiniteState,
                     StepUnderflow)
from .graph import Network
from .timegain import GainFunction, PrescribedClock

# RK4 has no error estimate; its fixed step stays below this coefficient / mu^2
_RK4_CEILING_COEF = 0.05


@dataclass
class SolverSettings:
    """Integrator configuration; every field is a scenario solver key.

    method "rk4" uses the fixed step dt, capped by the mu^2 ceiling;
    "rk45" is an embedded Dormand-Prince pair with absolute/relative error
    control on the log clock, starting from the step dt, its step in t never
    above dt_max.  log_every decimates the stored trajectory.  Every run
    ends at the clock's guard time.
    """

    method: str = "rk45"
    dt: float = 1e-3
    dt_max: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    log_every: int = 1

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("dt", "dt_max", "abs_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError("rel_tol must be finite and >= 0, "
                             f"got {self.rel_tol!r}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")


@dataclass
class Trajectory:
    """Logged solution: times (K,) and states (K, D)."""

    times: np.ndarray
    states: np.ndarray
    n_steps: int
    n_rejected: int = 0
    n_rhs: int = 0

    def __post_init__(self):
        if self.times.shape[0] != self.states.shape[0]:
            raise DimensionMismatch("times and states disagree in length")


def step_ceiling(clock: PrescribedClock, t: float, dt_max: float) -> float:
    """Largest RK4 step at time t: min(dt_max, 0.05 / mu(t)^2)."""
    mu = clock.mu(t)
    return min(dt_max, _RK4_CEILING_COEF / (mu * mu))


def _check_finite(y: np.ndarray, t: float) -> None:
    if not np.isfinite(y).all():
        bad = int(np.flatnonzero(~np.isfinite(y))[0])
        raise NonFiniteState(t, bad)


def _rk4_step(rhs, t, y, h, K, y_s):
    """One classical RK4 step of size h from (t, y), as a new array.

    K is a (4, D) stage array and y_s a (D,) stage input, both scratch that
    rhs(t, y, out) fills; the returned state shares memory with neither.
    """
    k1, k2, k3, k4 = K
    rhs(t, y, k1)
    rhs(t + 0.5 * h, np.add(y, np.multiply(0.5 * h, k1, out=y_s), out=y_s),
        k2)
    rhs(t + 0.5 * h, np.add(y, np.multiply(0.5 * h, k2, out=y_s), out=y_s),
        k3)
    rhs(t + h, np.add(y, np.multiply(h, k3, out=y_s), out=y_s), k4)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau and error weights (5th minus 4th order); row 6
# of _DP_A is also the 5th-order solution, so the last stage is at y5 (FSAL)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])


def _rk45_step(f, s, y, h, K, y_s, y_new):
    """One Dormand-Prince trial step of size h from (s, y); returns the
    error estimate.

    K is the (7, D) stage array with K[0] = f(s, y) already in place; the
    step fills K[1:] through f(s, y, out), forming each stage input in the
    scratch row y_s, its last stage at exactly (s + h, y5).  y5 goes into
    y_new, which must not share memory with y; an accepted step hands K[6]
    on as the next K[0].
    """
    hA = h * _DP_A
    for i in range(1, 7):
        y_i = y_s if i < 6 else y_new
        # np.dot: the same sums as hA[i, :i] @ K[:i], with less overhead
        np.add(y, np.dot(hA[i, :i], K[:i], out=y_i), out=y_i)
        f(s + _DP_C[i] * h, y_i, K[i])
    return h * np.dot(_DP_E, K)


def integrate(rhs, y0: np.ndarray, clock: PrescribedClock,
              settings: SolverSettings) -> Trajectory:
    """Integrate y' = rhs(t, y) from the window start to the guard time.

    rhs(t, y, out) must write dy/dt into every entry of out (a stage row
    of the integrator) without reading it.  RK45 steps in
    s = -ln(1 - (t - t0)/T), i.e. t(s) = t0 - T expm1(-s), on
    dy/ds = rhs / mu, its step in s capped by dt_max * mu (dt_max in t);
    no stage time passes the guard time clock.t_guard, where the run ends.
    Deterministic: no hidden randomness, and identical inputs give
    bit-identical trajectories.
    """
    t_end = clock.t_guard
    t0, T = clock.t0, clock.T

    def t_at(s):
        return min(t0 - T * math.expm1(-s), t_end)

    def f(s, y, out):
        t = t_at(s)
        rhs(t, y, out)
        out *= T + t0 - t  # 1/mu = T + t0 - t

    t, s = t0, 0.0
    s_end = -math.log1p(-(t_end - t0) / T)
    y = np.asarray(y0, dtype=float).copy()
    _check_finite(y, t)
    times = [t]
    states = [y.copy()]
    n_steps = 0
    n_rejected = 0
    n_rhs = 0
    h = settings.dt * clock.mu0
    last = t >= t_end - 1e-15 * max(1.0, abs(t_end))
    # stage rows and stage input: scratch that never holds the accepted y
    K = np.empty((7 if settings.method == "rk45" else 4, y.shape[0]))
    y_s = np.empty_like(y)
    if settings.method == "rk45" and not last:
        y_new = np.empty_like(y)
        f(s, y, K[0])
        n_rhs = 1
    while not last:
        if settings.method == "rk4":
            h = min(settings.dt, step_ceiling(clock, t, settings.dt_max),
                    t_end - t)
            y = _rk4_step(rhs, t, y, h, K, y_s)
            n_rhs += 4
            t += h
            last = t >= t_end - 1e-15 * max(1.0, abs(t_end))
        else:
            mu = clock.mu(t)
            h = min(h, settings.dt_max * mu)
            while True:
                # a step that would leave a sliver of the window takes it all
                last = h >= s_end - s - 1e-12 * s_end
                if last:
                    h = s_end - s
                if h < 1e-14 * mu * max(1.0, abs(t)):
                    raise StepUnderflow(
                        f"step size {h / mu} underflowed at t={t}")
                err = _rk45_step(f, s, y, h, K, y_s, y_new)
                n_rhs += 6
                err /= settings.abs_tol + settings.rel_tol * np.maximum(
                    np.abs(y), np.abs(y_new))
                err_norm = math.sqrt((err @ err) / err.shape[0])
                if err_norm <= 1.0:
                    break
                n_rejected += 1
                h *= max(0.2, 0.9 * err_norm ** -0.2)
            s = s_end if last else s + h
            t = t_end if last else t_at(s)
            # swap, so the next trial step writes into the old state
            y, y_new = y_new, y
            K[0] = K[6]
            # grow the step for the next attempt
            factor = 5.0 if err_norm == 0.0 else min(
                5.0, 0.9 * err_norm ** -0.2)
            h = max(h * factor, 1e-14)
        _check_finite(y, t)
        n_steps += 1
        if n_steps % settings.log_every == 0 or last:
            times.append(t)
            states.append(y.copy())
    return Trajectory(np.array(times), np.array(states), n_steps, n_rejected,
                      n_rhs)


# --- coupled closed-loop system -------------------------------------------

@dataclass
class CoupledSystem:
    """Generator plus N homogeneous agents, each a plant and its controller.

    agents is None (generator only) or a stacked agent model
    (chain_ctrl.ChainAgents, strictfb_ctrl.StrictFeedbackAgents) that maps
    the stacked plant states x (N, m, dim) and controller states
    c (N, ctrl_size) to their derivatives for all agents at once.  offsets,
    when given, shift each agent's reference to varpi_i + offset_i
    (formation tracking).
    """

    clock: PrescribedClock
    net: Network
    costs: object
    alpha: GainFunction
    agents: object = None
    offsets: np.ndarray | None = None

    def __post_init__(self):
        self.dim = self.costs.dim
        n = self.net.n_agents
        if self.agents is None:
            self.plant_size = 0
            self.ctrl_size = 0
        else:
            if self.agents.cfg.n != self.dim:
                raise DimensionMismatch("plant stage dim != cost dim")
            self.plant_size = self.agents.cfg.m * self.dim
            self.ctrl_size = self.agents.ctrl_size
        if self.offsets is not None:
            self.offsets = np.asarray(self.offsets, dtype=float)
            if self.offsets.shape != (n, self.dim):
                raise DimensionMismatch("offsets must be (N, dim)")
        self.gen_size = 2 * n * self.dim
        self.ctrl_start = self.gen_size + n * self.plant_size
        self.total_dim = self.ctrl_start + n * self.ctrl_size

    # -- state layout --

    def views(self, y: np.ndarray) -> tuple:
        """Views of varpi (N, dim), p (N, dim), the plant states
        (N, m, dim) and the controller states (N, ctrl_size) inside y."""
        n, d = self.net.n_agents, self.dim
        half = n * d
        return (y[:half].reshape(n, d), y[half:self.gen_size].reshape(n, d),
                y[self.gen_size:self.ctrl_start].reshape(
                    n, self.plant_size // d, d),
                y[self.ctrl_start:].reshape(n, self.ctrl_size))

    def references(self, varpi: np.ndarray) -> np.ndarray:
        """Reference of every agent's first stage, (N, dim)."""
        return varpi if self.offsets is None else varpi + self.offsets

    def pack(self, varpi, p, plants=None, ctrls=None) -> np.ndarray:
        """The state vector y holding the given parts; omitted parts are 0."""
        y = np.zeros(self.total_dim)
        for view, part in zip(self.views(y), (varpi, p, plants, ctrls)):
            if part is not None:
                view[...] = np.asarray(part, dtype=float).reshape(view.shape)
        return y

    def control(self, t: float, y: np.ndarray, i: int) -> np.ndarray:
        """Control applied by agent i at (t, y)."""
        if self.agents is None:
            raise ValueError("plant 'none' has no control")
        varpi, _, x, c = self.views(y)
        return self.agents.control(self.clock.mu(t), x[i], c[i],
                                   self.references(varpi)[i])

    def rhs(self, t: float, y: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
        """dy/dt at (t, y), written into every entry of out and returned.

        out, a contiguous float array of length total_dim, is never read,
        so it may hold anything; when it is None a new array is allocated.
        """
        if out is None:
            out = np.empty(self.total_dim)
        mu = self.clock.mu(t)
        a = self.alpha.eval(mu)
        varpi, p, x, c = self.views(y)
        dvarpi, dp, dx, dc = self.views(out)
        # row i of cons: sum_j a_ij (varpi_i - varpi_j), first into dp;
        # then dvarpi = -a (cons + grad + p) and dp = a cons
        cons = np.dot(self.net.laplacian, varpi, out=dp)
        np.add(cons, self.costs.grad_stack(varpi), out=dvarpi)
        dvarpi += p
        dvarpi *= -a
        cons *= a
        if self.agents is not None:
            self.agents.derivatives(t, mu, x, c, self.references(varpi),
                                    dx, dc)
        return out

    def column_names(self) -> list:
        """State channel names in layout order: agent{i}.{channel}{k}."""
        n, d = self.net.n_agents, self.dim
        names = [f"agent{i}.varpi{k}" for i in range(n) for k in range(d)]
        names += [f"agent{i}.p{k}" for i in range(n) for k in range(d)]
        if self.agents is not None:
            m = self.plant_size // d
            names += [f"agent{i}.x{q + 1}_{k}" for i in range(n)
                      for q in range(m) for k in range(d)]
        if self.ctrl_size:
            mf = self.agents.cfg.m - 1
            for i in range(n):
                names.append(f"agent{i}.theta_hat")
                names += [f"agent{i}.xif{q + 2}_{k}" for q in range(mf)
                          for k in range(d)]
        return names


# Fourier modes per agent and channel of make_disturbance
_DISTURBANCE_MODES = 3


def make_disturbance(seed: int, n_agents: int, dim: int, amplitude: float):
    """Smooth bounded disturbance: a short random Fourier sum per agent and
    channel.  Returns d(t) -> (n_agents, dim).

    Deterministic in the seed; the sup norm is at most `amplitude`.
    """
    rng = np.random.default_rng(seed)
    n_modes = _DISTURBANCE_MODES
    freq = rng.uniform(0.5, 5.0, size=(n_agents, dim, n_modes))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(n_agents, dim, n_modes))
    coef = rng.uniform(0.2, 1.0, size=(n_agents, dim, n_modes))
    coef *= amplitude / coef.sum(axis=2, keepdims=True)

    def d(t):
        return (coef * np.sin(freq * t + phase)).sum(axis=2)

    return d


def export_csv(path: str, columns: dict) -> None:
    """Write named columns to CSV with 17 significant digits and LF endings,
    so every float round-trips exactly."""
    names = list(columns)
    arrays = [np.asarray(columns[k], dtype=float) for k in names]
    length = arrays[0].shape[0]
    for k, arr in zip(names, arrays):
        if arr.shape != (length,):
            raise DimensionMismatch(f"column {k!r} has shape {arr.shape}")
    row_fmt = ",".join(["%.17g"] * len(arrays)) + "\n"
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(names) + "\n")
            for row in zip(*arrays):
                fh.write(row_fmt % row)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def trajectory_columns(sys: CoupledSystem, traj: Trajectory) -> dict:
    """CSV-ready columns: time, mu, then every state channel."""
    cols = {"t": traj.times,
            "mu": np.array([sys.clock.mu(t) for t in traj.times])}
    for j, name in enumerate(sys.column_names()):
        cols[name] = traj.states[:, j]
    return cols
