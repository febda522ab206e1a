"""Distributed prescribed-time optimal trajectory generator.

Each agent integrates a local-optimum estimate varpi_i and a
gradient-tracking state p_i:

    d(varpi_i)/dt = -alpha(mu) * (sum_j a_ij (varpi_i - varpi_j)
                                  + grad f_i(varpi_i) + p_i)
    d(p_i)/dt     =  alpha(mu) * sum_j a_ij (varpi_i - varpi_j)

Only neighbor differences and the local gradient are read, so the scheme is
distributed.  When sum_i p_i(t0) = 0 the sum is conserved and the unique
equilibrium is varpi = 1 (x) z*, p = -grad F(1 (x) z*).  The module also
carries the convergence constants c1..c_star, the Lyapunov diagnostic for
the error dynamics, and the prescribed-time envelope monitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (Disconnected, EmptyTrajectory, NonPositiveInput,
                     TimeOutOfWindow)
from .graph import Network, reduced_basis
from .timegain import GainFunction, PrescribedClock, kappa


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
        if v <= 0:
            raise NonPositiveInput(f"{name} must be > 0, got {v}")
    c1 = max(1.0 / lambda2, (1.0 + 2.0 * varrho_c ** 2) / (2.0 * rho_c))
    c2 = 0.5 * c1 * min(1.0, 1.0 / lambdaN)
    c3 = c1 * max(1.0, 1.0 / lambda2) + 1.0
    return GeneratorConstants(c1, c2, c3, 1.0 / (4.0 * c3))


@dataclass
class GeneratorState:
    """Stacked generator state: varpi and p are (N, dim) arrays."""

    varpi: np.ndarray
    p: np.ndarray

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.varpi.ravel(), self.p.ravel()])

    @staticmethod
    def unflatten(y: np.ndarray, n: int, dim: int) -> "GeneratorState":
        half = n * dim
        return GeneratorState(y[:half].reshape(n, dim).copy(),
                              y[half:2 * half].reshape(n, dim).copy())


def init_p(n: int, dim: int, mode: str = "zeros", seed: int = 0) -> np.ndarray:
    """Initial gradient-tracking states with sum_i p_i = 0 exactly."""
    if n < 1 or dim < 1:
        raise NonPositiveInput("init_p needs n, dim >= 1")
    if n == 1 or mode == "zeros":
        return np.zeros((n, dim))
    if mode == "random_zero_sum":
        rng = np.random.default_rng(seed)
        p = rng.standard_normal((n, dim))
        return p - p.mean(axis=0)
    raise ValueError(f"unknown init_p mode {mode!r}")


def agent_rhs(varpi_i: np.ndarray, p_i: np.ndarray, grad_i: np.ndarray,
              neighbor_varpi: list, alpha_mu: float) -> tuple:
    """Per-agent right-hand side; reads only neighbor values and the
    local gradient.  neighbor_varpi is a list of (weight, varpi_j)."""
    cons = np.zeros_like(varpi_i)
    for w, varpi_j in neighbor_varpi:
        cons += w * (varpi_i - varpi_j)
    dvarpi = -alpha_mu * (cons + grad_i + p_i)
    dp = alpha_mu * cons
    return dvarpi, dp


def generator_rhs(state: GeneratorState, t: float, net: Network, costs,
                  alpha: GainFunction, clock: PrescribedClock) -> GeneratorState:
    """Stacked generator dynamics at time t."""
    if not clock.in_window(t):
        raise TimeOutOfWindow(f"t={t} outside the prescribed window")
    a = alpha.eval(clock.mu(t))
    return generator_rhs_at_gain(state, a, net, costs)


def generator_rhs_at_gain(state: GeneratorState, alpha_mu: float,
                          net: Network, costs) -> GeneratorState:
    """Generator dynamics with the gain value alpha(mu) already evaluated."""
    cons = net.laplacian @ state.varpi  # row i: sum_j a_ij (varpi_i - varpi_j)
    grads = costs.grad_stack(state.varpi)
    dvarpi = -alpha_mu * (cons + grads + state.p)
    dp = alpha_mu * cons
    return GeneratorState(dvarpi, dp)


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
    return np.array([c.gradient(z_star) for c in costs.costs])


def error_state(state: GeneratorState, costs, z_star: np.ndarray,
                grads_at_star: np.ndarray | None = None) -> ErrorState:
    """e_varpi = varpi - 1 (x) z*; e_p = p + grad F(1 (x) z*).

    Callers that evaluate many states pass grads_at_star =
    gradients_at(costs, z_star) once instead of recomputing it per state.
    """
    z_star = np.asarray(z_star, dtype=float)
    if grads_at_star is None:
        grads_at_star = gradients_at(costs, z_star)
    return ErrorState(state.varpi - z_star[None, :], state.p + grads_at_star)


def lyapunov_vr(err: ErrorState, net: Network, consts: GeneratorConstants) -> float:
    """Lyapunov diagnostic for the error dynamics.

    V = c1/2 (||e_varpi||^2 + e_p^T [r,R] Ltilde_R^{-1} [r,R]^T e_p)
        + 1/2 ||e_varpi + e_p||^2

    with Ltilde_R = diag(I, L_R), everything Kronecker-extended by the cost
    dimension.  Satisfies c2 ||e_r||^2 <= V <= c3 ||e_r||^2.
    """
    n, dim = err.e_varpi.shape
    basis = reduced_basis(net)
    L_R = basis.R.T @ net.laplacian @ basis.R
    eigs = np.linalg.eigvalsh(L_R)
    if eigs[0] <= 1e-10:
        raise Disconnected(set())
    # phi-block coordinates of e_p: bar over r, tilde over R columns
    bar_phi = basis.r @ err.e_p            # (dim,)
    tilde_phi = basis.R.T @ err.e_p        # (N-1, dim)
    quad = float(bar_phi @ bar_phi)
    quad += float(np.sum(np.linalg.solve(L_R, tilde_phi) * tilde_phi))
    v = 0.5 * consts.c1 * (float(np.sum(err.e_varpi ** 2)) + quad)
    v += 0.5 * float(np.sum((err.e_varpi + err.e_p) ** 2))
    return v


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


def envelope_monitor(times, e_r_norms, clock: PrescribedClock,
                     alpha: GainFunction, consts: GeneratorConstants,
                     slack: float = 0.05) -> MonitorReport:
    """Check ||e_r(t)|| <= (1+slack) sqrt(c3/c2) ||e_r(t0)|| kappa(-c_star alpha(mu)).

    The slack absorbs discretization of the logged trajectory.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(e_r_norms, dtype=float)
    if times.size < 2:
        raise EmptyTrajectory("envelope monitor needs a logged trajectory")
    gamma = math.sqrt(consts.c3 / consts.c2) * norms[0]
    max_ratio = 0.0
    first_violation = None
    for t, nrm in zip(times, norms):
        bound = gamma * kappa(clock, alpha, -consts.c_star, t)
        if bound <= 0.0:
            ratio = 0.0 if nrm <= 1e-12 else math.inf
        else:
            ratio = nrm / bound
        if ratio > max_ratio:
            max_ratio = ratio
        if ratio > 1.0 + slack and first_violation is None:
            first_violation = float(t)
    return MonitorReport("generator_envelope", first_violation is None,
                         max_ratio, first_violation)


def conservation_monitor(times, p_sums, tol: float = 1e-8) -> MonitorReport:
    """Check the gradient-tracking conservation law sum_i p_i(t) = sum_i p_i(t0)."""
    p_sums = np.asarray(p_sums, dtype=float)
    if p_sums.ndim != 2 or p_sums.shape[0] < 1:
        raise EmptyTrajectory("conservation monitor needs logged p sums")
    drift = np.linalg.norm(p_sums - p_sums[0], axis=1)
    worst = float(drift.max())
    idx = int(drift.argmax())
    passed = worst <= tol
    return MonitorReport("conservation", passed, worst / tol,
                         None if passed else float(np.asarray(times)[idx]))
