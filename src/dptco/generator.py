"""Distributed prescribed-time optimal trajectory generator.

Each agent integrates a local-optimum estimate varpi_i and a
gradient-tracking state p_i:

    d(varpi_i)/dt = -alpha(mu) * (sum_j a_ij (varpi_i - varpi_j)
                                  + grad f_i(varpi_i) + p_i)
    d(p_i)/dt     =  alpha(mu) * sum_j a_ij (varpi_i - varpi_j)

Only neighbor differences and the local gradient are read, so the scheme is
distributed.  When sum_i p_i(t0) = 0 the sum is conserved and the unique
equilibrium is varpi = 1 (x) z*, p = -grad F(1 (x) z*).  The right-hand
side itself is sim_engine.CoupledSystem.rhs; this module carries the
convergence constants c1..c_star, the generator's growth criterion on
alpha (C = c_star/2), the error coordinates, the prescribed-time envelope
and its monitor, the one pass rule every monitor reports through
(ratio_report), and the closed loop's spectral radius, which sizes RK4's
steps: the generator's Jacobian is alpha(mu) times its design matrix
(design_radius).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrajectory, NonPositiveInput
from .timegain import (CriterionReport, GainFunction, PrescribedClock,
                       check_growth_criterion, kappa_series)


@dataclass(frozen=True)
class GeneratorConstants:
    """Envelope constants derived from curvature and spectrum bounds."""

    c1: float
    c2: float
    c3: float
    c_star: float


def generator_constants(rho_c: float, varrho_c: float,
                        lambda2: float, lambdaN: float) -> GeneratorConstants:
    """c1 = max{1/lambda2, (1+2 varrho^2)/(2 rho)}; c2 = (c1/2) min{1, 1/lambdaN};
    c3 = c1 max{1, 1/lambda2} + 1; c_star = 1/(4 c3)."""
    for name, v in (("rho_c", rho_c), ("varrho_c", varrho_c),
                    ("lambda2", lambda2), ("lambdaN", lambdaN)):
        if not (math.isfinite(v) and v > 0):
            raise NonPositiveInput(f"{name} must be finite and > 0, got {v}")
    c1 = max(1.0 / lambda2, (1.0 + 2.0 * varrho_c ** 2) / (2.0 * rho_c))
    c2 = 0.5 * c1 * min(1.0, 1.0 / lambdaN)
    c3 = c1 * max(1.0, 1.0 / lambda2) + 1.0
    return GeneratorConstants(c1, c2, c3, 1.0 / (4.0 * c3))


def check_generator_criterion(alpha: GainFunction, c_star: float,
                              grid) -> CriterionReport:
    """The generator's growth criterion on alpha, C = c_star/2, over the
    grid of the build's criteria (`log_grid(mu0, mu_guard)`)."""
    return check_growth_criterion("generator", alpha, 0.5 * c_star, grid)


def closed_loop_radius(system, y: np.ndarray):
    """rho(mu), the spectral radius of the closed loop `system` (a
    `sim_engine.CoupledSystem`) at gain mu, with the generator's part taken
    at the estimates in y.

    The generator drives the agents and never reads them, so the Jacobian
    is block-triangular and its spectrum is the union of the generator's,
    kappa_gen alpha(mu) with kappa_gen = `design_radius` at y, and the
    agents', kappa_xi alpha_xi(mu) (`StrictFeedbackAgents.spectral_rate`).
    Chain agents have no such rate.
    """
    k_gen = design_radius(system.net.laplacian, system.costs,
                          system.views(y)[0])
    alpha = system.alpha.eval
    if system.agents is None:
        return lambda mu: k_gen * alpha(mu)
    k_agents, gain = system.agents.spectral_rate
    gain = gain.eval
    return lambda mu: max(k_gen * alpha(mu), k_agents * gain(mu))


def design_radius(laplacian: np.ndarray, costs, varpi: np.ndarray) -> float:
    """Spectral radius of the generator's design matrix

        [[-(L (x) I + blkdiag H_i(varpi_i)), -I], [L (x) I, 0]]

    at the estimates varpi (N, dim), with H_i the Hessian of f_i from
    costs.hessian_stack.  The generator's Jacobian at
    (varpi, p) is alpha(mu) times this matrix.
    """
    n, d = varpi.shape
    # L (x) I as (N, dim, N, dim); np.kron's first call adds 0.1 MiB to
    # the peak resident memory
    lap = laplacian[:, None, :, None] * np.eye(d)[None, :, None, :]
    top = -lap
    # the (dim, dim) diagonal block of each agent
    top[np.arange(n), :, np.arange(n), :] -= costs.hessian_stack(varpi)
    nd = n * d
    m = np.block([[top.reshape(nd, nd), -np.eye(nd)],
                  [lap.reshape(nd, nd), np.zeros((nd, nd))]])
    return matrix_radius(m)


def matrix_radius(m: np.ndarray) -> float:
    """Spectral radius of the square matrix m by Gelfand's formula,
    rho = lim ||m^n||^(1/n) in the max-entry norm, at n = 2^20.

    Each square is taken of the last one over its largest entry c_k, so
    log rho = sum_k log(c_k) / 2^k + log max|m_20| / 2^20.  The n-th
    root errs below rho by at most a factor dim^(-1/n), and above it by
    the n-th root of the eigenvectors' condition number (of n^j for a
    Jordan block of size j + 1): on the closed loops here it agrees with
    np.linalg.eigvals to about 1e-5.  That call would do as well, but its
    first use in a process adds about 0.7 MiB to the peak resident memory
    (LAPACK's nonsymmetric eigensolver paged in).
    """
    log_rho = 0.0
    for k in range(20):
        c = np.abs(m).max()
        if c == 0.0:
            return 0.0
        m = m / c
        m = m @ m
        log_rho += math.log(c) / 2.0 ** k
    return math.exp(log_rho + math.log(np.abs(m).max()) / 2.0 ** 20)


@dataclass
class ErrorState:
    """Verification-only error coordinates; needs the optimum z*."""

    e_varpi: np.ndarray  # (N, dim)
    e_p: np.ndarray      # (N, dim)

    @property
    def e_r(self) -> np.ndarray:
        return np.concatenate([self.e_varpi.ravel(), self.e_p.ravel()])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.e_r))


def gradients_at(costs, z_star: np.ndarray) -> np.ndarray:
    """grad F(1 (x) z*): every agent's gradient at z*, as (N, dim)."""
    z_star = np.asarray(z_star, dtype=float)
    return costs.grad_stack(np.tile(z_star, (costs.n_agents, 1)))


def error_state(varpi: np.ndarray, p: np.ndarray, z_star: np.ndarray,
                grads_at_star: np.ndarray) -> ErrorState:
    """e_varpi = varpi - 1 (x) z*; e_p = p + grad F(1 (x) z*).

    grads_at_star is gradients_at(costs, z_star), computed once by callers
    that evaluate many states.
    """
    return ErrorState(varpi - np.asarray(z_star, dtype=float)[None, :],
                      p + grads_at_star)


@dataclass(frozen=True)
class MonitorReport:
    name: str
    passed: bool
    max_ratio: float
    first_violation_t: float | None

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": bool(self.passed),
                "max_ratio": self.max_ratio,
                "first_violation_t": self.first_violation_t}


def ratio_report(name: str, times, ratio, limit) -> MonitorReport:
    """The one pass rule of every monitor.

    ratio is a logged signal over its bound at each of the K logged times,
    (K,) or (K, N) for N agents, and limit the largest ratio allowed: a
    scalar, or one per logged time (K,).  The monitor passes iff every
    ratio is finite and at most its limit.  max_ratio is the largest ratio
    (NaN ignored), floored at 0; first_violation_t is the earliest logged
    time at which any agent fails.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise EmptyTrajectory(f"{name} monitor needs a logged trajectory")
    rows = np.asarray(ratio, dtype=float).reshape(times.size, -1)
    limits = np.asarray(limit, dtype=float).reshape(-1, 1)
    bad = np.flatnonzero(~(np.isfinite(rows) & (rows <= limits)).all(axis=1))
    return MonitorReport(name, bad.size == 0,
                         float(np.fmax.reduce(rows, axis=None, initial=0.0)),
                         float(times[bad[0]]) if bad.size else None)


def bound_ratio(values, bounds) -> np.ndarray:
    """values / bounds, where a bound that has underflowed to 0 gives 0
    for a value at most 1e-12 and inf for any larger one."""
    values = np.asarray(values, dtype=float)
    return np.divide(values, bounds, where=bounds > 0.0,
                     out=np.where(values <= 1e-12, 0.0, np.inf))


def envelope_bound(times, e_r0: float, clock: PrescribedClock,
                   alpha: GainFunction,
                   consts: GeneratorConstants) -> np.ndarray:
    """sqrt(c3/c2) ||e_r(t0)|| kappa(-c_star alpha(mu(t))) at every time."""
    gamma = math.sqrt(consts.c3 / consts.c2) * e_r0
    return gamma * kappa_series(times, clock, alpha, -consts.c_star)


def envelope_monitor(times, e_r_norms, clock: PrescribedClock,
                     alpha: GainFunction, consts: GeneratorConstants,
                     slack: float = 0.05) -> MonitorReport:
    """Check ||e_r(t)|| <= (1+slack) envelope_bound(t), e_r_norms (K,).

    The slack absorbs discretization of the logged trajectory.
    """
    norms = np.asarray(e_r_norms, dtype=float)
    bounds = envelope_bound(times, norms[0], clock, alpha, consts)
    return ratio_report("generator_envelope", times,
                        bound_ratio(norms, bounds), 1.0 + slack)


def conservation_monitor(times, p_sums, tol: float = 1e-8) -> MonitorReport:
    """Check the gradient-tracking conservation law
    sum_i p_i(t) = sum_i p_i(t0) to within tol, p_sums (K, dim)."""
    p_sums = np.asarray(p_sums, dtype=float)
    drift = np.linalg.norm(p_sums - p_sums[0], axis=1)
    return ratio_report("conservation", times, drift / tol, 1.0)
