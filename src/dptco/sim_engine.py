"""Fixed and adaptive ODE integration for the coupled closed loop.

The state vector stacks the trajectory generator with the agents' plant
and controller states, each part stage-major:

    y = [varpi (N, dim); p (N, dim); x_1 .. x_m (each N, dim);
         theta_hat (N); xi_2f .. xi_mf (each N, dim)]

so every plant stage and every filter stage is a contiguous (N, dim)
block (`CoupledSystem.views`).  The right-hand side works in place:
`CoupledSystem.rhs(t, y, out)` writes dy/dt into every entry of `out`
through `views(out)`, never reads `out`, and returns it; the agent
models' `derivatives(t, mu, x, c, ref, dx, dc)` fill the plant and
controller views `dx` and `dc`.  `integrate` takes any right-hand side
with that contract, hands it its own stage rows and forms every stage
input and every new state in a preallocated row; the accepted state
never shares memory with a stage buffer.

The adaptive Dormand-Prince integrator (rk45) runs on the log clock
s = -ln(1 - (t - t0)/T), where dt = ds / mu, so its error control alone
follows the blow-up of the time-varying gain.  Its last stage is the first
stage of the next step (first same as last, FSAL), so every attempted step
costs six right-hand-side evaluations, plus one at the start.

The gain makes every closed loop stiff near the deadline, and there
Dormand-Prince ("DP5") is held at its real-axis stability limit,
h rho ~ 3.3 for spectral radius rho.  The rk45 path then hands over to the
damped second-order Runge-Kutta-Chebyshev step ("RKC2"; Sommeijer,
Shampine & Verwer, J. Comput. Appl. Math. 88, 1998; module `rkc`), whose
stability interval grows as about 0.65 m^2 with its stage count m:
- the switch: DP5's free stiffness estimate h ||k7 - k6|| / ||y7 - y6||
  (Hairer & Wanner, Solving ODEs II, IV.2) is above 90% of the limit on 10
  trials in a row;
- the spectral radius: a nonlinear power iteration on f(s, y + v) -
  f(s, y), seeded from k7 - k6 and warm-started from its last direction,
  taken at the hand-over, every 25 RKC2 steps and after a rejection (once
  per point); the stage count follows rkc.f,
  m = 1 + floor(sqrt(1 + 1.54 h 1.2 rho));
- the error target: RKC2's embedded estimate 0.8 (y_n - y_n+1) +
  0.4 h (F_n + F_n+1), held to 1/100 of DP5's tolerance, because RKC2
  advances the solution its estimate measures (no local extrapolation);
- the cost rule: after each step RKC2 takes at its first trial it
  projects its steps per unit log time over the rest of the window, as if
  its step kept growing at the present rate; when that is no fewer than
  DP5's at its limit (rho/3.3) it hands back, since only with fewer steps
  is it cheaper in calls and in the work per step and per logged row too.
  DP5 hands over again only once its own steps cost more calls per unit
  log time than that RKC2 run did.
The rule reads only what the integrator observes, so it has no setting; a
run that never hands over is the plain Dormand-Prince run.

The fixed-step RK4 integrator stays on the t clock, its step
h = min(dt, 1.39 / rho(mu), t_guard - t) holding the stiffest mode
at half of RK4's real-axis stability limit 2.785, with rho(mu) the closed
loop's spectral radius from its design (`CoupledSystem.stiffness`).
Integration stops at the guard time strictly before the prescribed deadline;
every stage and every power-iteration probe lies inside its step, and no
right-hand side is ever evaluated at or beyond the deadline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .draws import uniform
from .errors import (DimensionMismatch, IoFailure, NonFiniteState,
                     StepUnderflow)
from .generator import closed_loop_radius
from .graph import Network
from .rkc import rkc2_stages, rkc2_step, spectral_radius
from .timegain import GainFunction, PrescribedClock

# RK4 holds h rho at this, half its real-axis stability limit 2.785
_RK4_H_RHO = 1.39


@dataclass
class SolverSettings:
    """Integrator configuration; every field is a scenario solver key.

    method "rk4" uses the fixed step dt, capped by 1.39 over the closed
    loop's spectral radius (see the module docstring); "rk45" is an
    embedded Dormand-Prince pair with absolute/relative error control on
    the log clock, starting from the step dt.  log_every decimates the
    stored trajectory.  Every run ends at the clock's guard time.
    """

    method: str = "rk45"
    dt: float = 1e-3
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    log_every: int = 1

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("dt", "abs_tol"):
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
    """Logged solution: times (K,) and states (K, D).

    integrator, filled in by `integrate`, says how it stepped: the method,
    accepted and rejected steps of each scheme, n_rhs (with the
    power-iteration probes), each hand-over {"t", "to"} (None if there was
    none) and the largest RKC2 stage count (None if RKC2 never ran).
    """

    times: np.ndarray
    states: np.ndarray
    n_steps: int
    n_rejected: int = 0
    n_rhs: int = 0
    # None for a trajectory read back from a CSV
    integrator: dict | None = field(default=None, init=False)

    def __post_init__(self):
        if self.times.shape[0] != self.states.shape[0]:
            raise DimensionMismatch("times and states disagree in length")


def _check_finite(y: np.ndarray, t: float) -> None:
    if not np.isfinite(y).all():
        bad = int(np.flatnonzero(~np.isfinite(y))[0])
        raise NonFiniteState(t, bad)


def _rk4_step(rhs, t, y, h, K, y_s, y_new):
    """One classical RK4 step of size h from (t, y) into y_new.

    K is a (4, D) stage array and y_s a (D,) stage input, both scratch that
    rhs(t, y, out) fills; y_new must share memory with none of them or y.
    y_new = y + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed in that order.
    """
    k1, k2, k3, k4 = K
    rhs(t, y, k1)
    rhs(t + 0.5 * h, np.add(y, np.multiply(0.5 * h, k1, out=y_s), out=y_s),
        k2)
    rhs(t + 0.5 * h, np.add(y, np.multiply(0.5 * h, k2, out=y_s), out=y_s),
        k3)
    rhs(t + h, np.add(y, np.multiply(h, k3, out=y_s), out=y_s), k4)
    acc = np.add(k1, np.multiply(2.0, k2, out=y_s), out=y_s)
    acc += np.multiply(2.0, k3, out=k3)
    acc += k4
    acc *= h / 6.0
    np.add(y, acc, out=y_new)


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


# Dormand-Prince's real-axis stability limit in h rho (Hairer & Wanner,
# Solving ODEs II, IV.2, test against 3.25) and its calls per step
_DP5_H_RHO = 3.3
_DP5_CALLS = 6
# DP5 hands over after this many trials in a row above 90% of its limit:
# Hairer's own 3.25 is never reached in a row by estimates that oscillate
# around the limit
_HANDOVER_H_RHO = 0.9 * _DP5_H_RHO
_HANDOVER_TRIALS = 10
# RKC2 (rkc.f): the safety factor on the spectral radius, and the most
# steps between two estimates of it
_RHO_SAFETY = 1.2
_RKC_REFRESH = 25
# RKC2 holds its error estimate to 1/100 of DP5's target.  DP5 advances
# its fifth-order solution, far more accurate than the estimate it
# controls; RKC2 advances the second-order solution its estimate measures,
# and its errors add up over its steps.  The factor is measured, not
# derived: held to DP5's target, example1 ends 14 tolerances from a tight
# reference, and error per unit step (err / h on the log clock) makes
# RKC2 dearer than DP5 on example1; no rule tried does both.
_RKC_TOL_FRAC = 0.01


def integrate(system, y0: np.ndarray, clock: PrescribedClock,
              settings: SolverSettings) -> Trajectory:
    """Integrate y' = system.rhs(t, y) from the window start to the guard
    time.

    system is a `CoupledSystem` or any object with its three members:
    rhs(t, y, out) must write dy/dt into every entry of out (a stage row
    of the integrator) without reading it; agent_major, when not None, is
    the order in which the RK45 error norm sums the entries of y (an index
    array), so the steps it accepts do not depend on how y is stored; and
    stiffness(y) gives rho(mu), the spectral radius that sizes RK4's
    steps, h = min(dt, 1.39 / rho(mu), t_guard - t), taken anew at the
    current y each time mu has doubled.  RK45 steps in
    s = -ln(1 - (t - t0)/T), i.e. t(s) = t0 - T expm1(-s), on
    dy/ds = rhs / mu, under error control alone; while Dormand-Prince is
    held at its stability limit it hands over to RKC2 (see the module
    docstring).  No stage time passes the guard time clock.t_guard, where
    the run ends.
    Deterministic: no hidden randomness, and identical inputs give
    bit-identical trajectories.
    """
    rhs, norm_order = system.rhs, system.agent_major
    t_end = clock.t_guard
    t0, T = clock.t0, clock.T

    def t_at(s):
        return min(t0 - T * math.expm1(-s), t_end)

    def f(s, y, out):
        t = t_at(s)
        rhs(t, y, out)
        out *= T + t0 - t  # 1/mu = T + t0 - t

    def err_norm(err, y, y_new):
        err /= settings.abs_tol + settings.rel_tol * np.maximum(
            np.abs(y), np.abs(y_new))
        if norm_order is not None:
            err = err[norm_order]
        return math.sqrt((err @ err) / err.shape[0])

    t, s = t0, 0.0
    s_end = -math.log1p(-(t_end - t0) / T)
    y = np.asarray(y0, dtype=float).copy()
    _check_finite(y, t)
    times = [t]
    states = [y.copy()]
    rk45 = settings.method == "rk45"
    # accepted and rejected steps of each scheme
    steps = dict.fromkeys(("dp5", "rkc2") if rk45 else ("rk4",), 0)
    rejected = dict.fromkeys(steps, 0)
    handovers = []
    max_stages = 0
    n_steps = 0
    n_rhs = 0
    h = settings.dt * clock.mu0
    last = t >= t_end - 1e-15 * max(1.0, abs(t_end))
    # stage rows and stage input: scratch that never holds the accepted y
    K = np.empty((7 if rk45 else 4, y.shape[0]))
    y_s = np.empty_like(y)
    y_new = np.empty_like(y)
    if rk45 and not last:
        f(s, y, K[0])
        n_rhs = 1
    stiff_trials = 0  # DP5 trials in a row above _HANDOVER_H_RHO
    sigma = None      # RKC2's spectral-radius estimate; None while DP5 steps
    fresh = False     # sigma was estimated at the current (s, y)
    rkc_cost = 0.0    # RKC2's calls per unit log time when it last gave up
    # the current RKC2 run: accepted steps, calls and log time so far
    rkc_steps = rkc_calls = 0
    rkc_ds = 0.0
    mu_fresh = 0.0    # mu at which RK4 last took the spectral radius

    def estimate():
        # the power iteration at the accepted (s, y), where K[0] = f(s, y);
        # a non-finite estimate hands back to DP5
        nonlocal sigma, fresh, n_rhs, rkc_calls
        sigma, probes = spectral_radius(f, s, y, K)
        n_rhs += probes
        rkc_calls += probes
        fresh = True
        if not math.isfinite(sigma):
            hand_back()

    def hand_back():
        # DP5 resumes at the step it handed over with, also from inside a
        # rejected RKC2 trial
        nonlocal sigma, stiff_trials, h
        handovers.append({"t": t, "to": "dp5"})
        sigma = None
        stiff_trials = 0
        h = h_dp5

    while not last:
        if not rk45:
            mu = clock.mu(t)
            if mu >= 2.0 * mu_fresh:
                radius, mu_fresh = system.stiffness(y), mu
            h = min(settings.dt, _RK4_H_RHO / radius(mu), t_end - t)
            _rk4_step(rhs, t, y, h, K, y_s, y_new)
            y, y_new = y_new, y
            n_rhs += 4
            steps["rk4"] += 1
            t += h
            last = t >= t_end - 1e-15 * max(1.0, abs(t_end))
        else:
            mu = clock.mu(t)
            trials = 0
            while True:
                # a step that would leave a sliver of the window takes it all
                last = h >= s_end - s - 1e-12 * s_end
                if last:
                    h = s_end - s
                if h < 1e-14 * mu * max(1.0, abs(t)):
                    raise StepUnderflow(
                        f"step size {h / mu} underflowed at t={t}")
                trials += 1
                if sigma is None:
                    err = err_norm(_rk45_step(f, s, y, h, K, y_s, y_new),
                                   y, y_new)
                    n_rhs += 6
                    # DP5's free stiffness estimate h ||k7 - k6|| /
                    # ||y7 - y6||, both stages at s + h, against 90% of
                    # its limit; k7 - k6 stays in K[5], y6 is scratch
                    dk = np.subtract(K[6], K[5], out=K[5])
                    dy = np.subtract(y_new, y_s, out=y_s)
                    stiff = (h * h * (dk @ dk)
                             > _HANDOVER_H_RHO ** 2 * (dy @ dy))
                    stiff_trials = stiff_trials + 1 if stiff else 0
                    if err <= 1.0:
                        break
                    rejected["dp5"] += 1
                    h *= max(0.2, 0.9 * err ** -0.2)
                else:
                    m = rkc2_stages(h, _RHO_SAFETY * sigma)
                    err = err_norm(rkc2_step(f, s, y, h, m, K, y_new),
                                   y, y_new) / _RKC_TOL_FRAC
                    n_rhs += m
                    rkc_calls += m
                    if err <= 1.0:
                        break
                    rejected["rkc2"] += 1
                    h *= max(0.1, 0.8 * err ** (-1 / 3))
                    if not fresh:
                        estimate()
            s = s_end if last else s + h
            t = t_end if last else t_at(s)
            # swap, so the next trial step writes into the old state
            y, y_new = y_new, y
            if sigma is None:
                steps["dp5"] += 1
                K[0] = K[6]
                # hand over a stability-bound DP5 that costs more calls per
                # unit log time than RKC2 did when it last gave up
                handover = (stiff_trials >= _HANDOVER_TRIALS and not last
                            and _DP5_CALLS / h > rkc_cost)
                # grow the step for the next attempt
                factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
                h = max(h * factor, 1e-14)
                if handover:
                    handovers.append({"t": t, "to": "rkc2"})
                    h_dp5 = h
                    rkc_steps = rkc_calls = 0
                    rkc_ds = 0.0
                    # the power iteration starts from k7 - k6, in K[5]
                    estimate()
            else:
                steps["rkc2"] += 1
                K[0] = K[2]
                fresh = False
                max_stages = max(max_stages, m)
                rkc_steps += 1
                rkc_ds += h
                factor = 10.0 if err == 0.0 else min(
                    10.0, 0.8 * err ** (-1 / 3))
                # steps per unit log time, averaged over the rest of the
                # window as if the step kept growing as it does now; after
                # a first trial RKC2 gives up when that is no fewer than
                # DP5's at its limit.  Fewer steps than DP5's also means
                # fewer calls (at most 3 stages at DP5's limit step), and
                # less work outside the right-hand side and fewer rows
                growth = math.log(factor) / h * (s_end - s)
                rate = (-math.expm1(-growth) / growth if growth > 0.0
                        else 1.0) / h
                h = max(h * factor, 1e-14)
                if rkc_steps % _RKC_REFRESH == 0:
                    estimate()
                if (sigma is not None and not last and trials == 1
                        and rate >= sigma / _DP5_H_RHO):
                    rkc_cost = rkc_calls / rkc_ds
                    hand_back()
        _check_finite(y, t)
        n_steps += 1
        if n_steps % settings.log_every == 0 or last:
            times.append(t)
            states.append(y.copy())
    traj = Trajectory(np.array(times), np.array(states), n_steps,
                      sum(rejected.values()), n_rhs)
    traj.integrator = {"method": settings.method, "steps": steps,
                       "rejected": rejected, "n_rhs": n_rhs,
                       "handovers": handovers or None,
                       "max_rkc2_stages": max_stages or None}
    return traj


# --- coupled closed-loop system -------------------------------------------

@dataclass
class CoupledSystem:
    """Generator plus N homogeneous agents, each a plant and its controller.

    agents is None (generator only) or a stacked agent model
    (chain_ctrl.ChainAgents, strictfb_ctrl.StrictFeedbackAgents) that maps
    the plant stages x (m, N, dim) and the controller states c to their
    derivatives for all agents at once.  The state is stored stage-major
    (see `views`), so each plant and filter stage is one contiguous
    (N, dim) block.  offsets, when not None, shift each agent's reference to
    varpi_i + offset_i (formation tracking).
    """

    clock: PrescribedClock
    net: Network
    costs: object
    alpha: GainFunction
    agents: object
    offsets: np.ndarray | None

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
        """Views (varpi, p, x, c) inside y: varpi and p (N, dim), the plant
        stages x (m, N, dim), and the controller states c, None when the
        agents carry none, else (theta_hat (N,), xi_f (m-1, N, dim)) with
        xi_f[q - 2] the filter stage of q = 2..m."""
        n, d = self.net.n_agents, self.dim
        half = n * d
        x = y[self.gen_size:self.ctrl_start].reshape(
            self.plant_size // d, n, d)
        c = None
        if self.ctrl_size:
            c = (y[self.ctrl_start:self.ctrl_start + n],
                 y[self.ctrl_start + n:].reshape(-1, n, d))
        return (y[:half].reshape(n, d), y[half:self.gen_size].reshape(n, d),
                x, c)

    @cached_property
    def agent_major(self) -> np.ndarray | None:
        """Index array: y[agent_major] lists y agent by agent, as `pack`
        takes its parts (varpi, p, each agent's plant stages, each agent's
        controller row); None for the generator alone, which y stores in
        that order."""
        if self.agents is None:
            return None
        rank = np.arange(self.total_dim)
        g, c0 = self.gen_size, self.ctrl_start
        y = self.pack(rank[:g // 2], rank[g // 2:g], rank[g:c0],
                      rank[c0:] if self.ctrl_size else None)
        # the inverse permutation of y's ranks, by a scatter: np.argsort
        # adds about 0.1 MiB to a run's peak memory
        order = np.empty_like(rank)
        order[y.astype(rank.dtype)] = rank
        return order

    def references(self, varpi: np.ndarray) -> np.ndarray:
        """Reference of every agent's first stage, (N, dim)."""
        return varpi if self.offsets is None else varpi + self.offsets

    def pack(self, varpi, p, plants, ctrls) -> np.ndarray:
        """The state vector y holding the given parts; None parts are 0.

        plants and ctrls are agent-major, as a scenario gives them: plants
        (N, m, dim), and ctrls (N, ctrl_size) rows [theta_hat, xi_2f, ..,
        xi_mf]."""
        n, d = self.net.n_agents, self.dim
        y = np.zeros(self.total_dim)
        varpi_v, p_v, x, c = self.views(y)
        varpi_v[...] = np.asarray(varpi, dtype=float).reshape(n, d)
        p_v[...] = np.asarray(p, dtype=float).reshape(n, d)
        if plants is not None:
            x[...] = np.asarray(plants, dtype=float).reshape(
                n, x.shape[0], d).transpose(1, 0, 2)
        if ctrls is not None:
            rows = np.asarray(ctrls, dtype=float).reshape(n, self.ctrl_size)
            c[0][...] = rows[:, 0]
            c[1][...] = rows[:, 1:].reshape(n, -1, d).transpose(1, 0, 2)
        return y

    def stiffness(self, y: np.ndarray):
        """rho(mu), the spectral radius that sizes RK4's steps, with the
        generator's part at the estimates in y
        (`generator.closed_loop_radius`)."""
        return closed_loop_radius(self, y)

    def rhs(self, t: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """dy/dt at (t, y), written into every entry of out and returned.

        out, a contiguous float array of length total_dim, is never read,
        so it may hold anything.
        """
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
        names += [f"agent{i}.x{q + 1}_{k}"
                  for q in range(self.plant_size // d)
                  for i in range(n) for k in range(d)]
        if self.ctrl_size:
            names += [f"agent{i}.theta_hat" for i in range(n)]
            names += [f"agent{i}.xif{q + 2}_{k}"
                      for q in range(self.agents.cfg.m - 1)
                      for i in range(n) for k in range(d)]
        return names


def make_disturbance(seed: int, n_agents: int, dim: int, amplitude: float):
    """Smooth bounded disturbance: a random Fourier sum of three modes per
    agent and channel.  Returns d(t) -> (n_agents, dim).

    Deterministic in the seed, whatever the numpy version: the frequencies,
    then the phases, then the weights, each an (n_agents, dim, 3)
    `draws.uniform` block from random.Random(seed).  The sup norm is at
    most `amplitude`.
    """
    if seed < 0:
        # random.Random would seed with abs(seed)
        raise ValueError("expected non-negative integer")
    rng = random.Random(seed)
    shape = (n_agents, dim, 3)
    freq = uniform(rng, 0.5, 5.0, shape)
    phase = uniform(rng, 0.0, 2.0 * math.pi, shape)
    coef = uniform(rng, 0.2, 1.0, shape)
    coef *= amplitude / coef.sum(axis=2, keepdims=True)
    # modes first, each an (n_agents, dim) block: the sum over the modes is
    # then two whole-block additions, in the order of .sum(axis=2)
    freq, phase, coef = (np.ascontiguousarray(np.moveaxis(a, 2, 0))
                         for a in (freq, phase, coef))

    def d(t):
        s = coef * np.sin(freq * t + phase)
        return (s[0] + s[1]) + s[2]

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
            "mu": sys.clock.mu(traj.times)}
    for j, name in enumerate(sys.column_names()):
        cols[name] = traj.states[:, j]
    return cols
