"""Robust prescribed-time tracking controller for chain-integrator agents.

The plant is a chain of m integrators (each stage n-dimensional) with a
bounded matched disturbance at the last stage.  The controller builds a
sliding-like variable s_tilde from descending powers of a gain alpha_x(mu),
scales it into e_tilde_s = alpha_s(mu) * s_tilde, and applies

    u = -(v + psi(x)^2 + 1) sign(k1) e_tilde_s - pi(x)
        - B(mu)^{-1} delta_s(mu) s_tilde

where pi(x) collects the known part of the s_tilde dynamics.  K places all
eigenvalues of the companion matrix Lambda at -1; (P, Q) solve the
associated Lyapunov equation and give the decay constants v1, v2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (EmptyTrajectory, GuardExceeded, NotHurwitz,
                     SingularSystem)
from .timegain import (GainFunction, GrowthCriterion, PrescribedClock,
                       alpha_s_from_dc2, check_growth_criterion, kappa,
                       log_grid)


def hurwitz_gain(m: int) -> np.ndarray:
    """Gain vector K of length m-1 placing all eigenvalues of Lambda at -1.

    The entries are the binomial coefficients of (s+1)^(m-1) below the
    leading term, so the characteristic polynomial is exactly (s+1)^(m-1).
    """
    if m < 2:
        raise ValueError("chain order must be >= 2")
    return np.array([math.comb(m - 1, j) for j in range(m - 1)], dtype=float)


def companion(K: np.ndarray) -> np.ndarray:
    """Companion matrix Lambda with last row -K."""
    d = K.shape[0]
    lam = np.zeros((d, d))
    if d > 1:
        lam[:-1, 1:] = np.eye(d - 1)
    lam[-1, :] = -K
    return lam


def solve_lyapunov(Lambda: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve P Lambda + Lambda^T P = -Q by Kronecker vectorization.

    Lambda must be Hurwitz and Q symmetric positive definite; the result is
    symmetric positive definite with residual below 1e-10.
    """
    Lambda = np.asarray(Lambda, dtype=float)
    Q = np.asarray(Q, dtype=float)
    d = Lambda.shape[0]
    eigs = np.linalg.eigvals(Lambda)
    if np.max(eigs.real) >= 0.0:
        raise NotHurwitz(f"eigenvalues {eigs} not all in the open left half-plane")
    A = np.kron(np.eye(d), Lambda.T) + np.kron(Lambda.T, np.eye(d))
    try:
        vec_p = np.linalg.solve(A, -Q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    P = vec_p.reshape(d, d)
    P = 0.5 * (P + P.T)
    resid = np.linalg.norm(P @ Lambda + Lambda.T @ P + Q)
    if resid > 1e-10:
        raise SingularSystem(f"Lyapunov residual {resid} too large")
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        raise SingularSystem("Lyapunov solution not positive definite")
    return P


def v_constants(P: np.ndarray, Q: np.ndarray, m: int) -> tuple[float, float]:
    """v1 = lambda_min(Q)/lambda_max(P); v2 = 2 m lambda_max(P)/lambda_min(P)."""
    ep = np.linalg.eigvalsh(P)
    eq = np.linalg.eigvalsh(Q)
    return float(eq[0] / ep[-1]), float(2.0 * m * ep[-1] / ep[0])


@dataclass
class ChainControllerConfig:
    """Resolved chain-controller parameters for one agent family."""

    m: int
    n: int
    K: np.ndarray
    Lambda: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    v1: float
    v2: float
    v: float
    alpha_x: GainFunction
    alpha_s: GainFunction
    psi: object  # callable x -> bounded positive scalar
    mu_guard: float
    alpha_s_override: bool = False

    @property
    def k1(self) -> float:
        return float(self.K[0])

    @property
    def L(self) -> np.ndarray:
        """Scale exponents L_j = j - 1 for stages j = 1..m."""
        return np.arange(self.m, dtype=float)


def make_chain_config(m: int, n: int, v: float, alpha_x: GainFunction,
                      mu_guard: float, alpha_s: GainFunction | None = None,
                      K=None, Q=None, psi=None,
                      mu0: float = 1.0) -> ChainControllerConfig:
    """Assemble a chain controller: pole placement, Lyapunov solve, and the
    DC2-derived alpha_s unless an override gain is supplied."""
    K = hurwitz_gain(m) if K is None else np.asarray(K, dtype=float)
    Lambda = companion(K)
    Q = np.eye(m - 1) if Q is None else np.asarray(Q, dtype=float)
    P = solve_lyapunov(Lambda, Q)
    v1, v2 = v_constants(P, Q, m)
    override = alpha_s is not None
    if alpha_s is None:
        alpha_s = alpha_s_from_dc2(alpha_x, v1, m, mu0)
    if psi is None:
        psi = lambda x: 1.0
    return ChainControllerConfig(m, n, K, Lambda, P, Q, v1, v2, float(v),
                                 alpha_x, alpha_s, psi, float(mu_guard),
                                 alpha_s_override=override)


def check_dc1(cfg: ChainControllerConfig, alpha: GainFunction,
              c_star: float, mu0: float, grid_points: int = 1000):
    """DC1 report for alpha_x against the generator gain alpha."""
    crit = GrowthCriterion("chain_dc1", c_star=c_star, v1=cfg.v1, v2=cfg.v2,
                           coupling_coef=c_star / cfg.v1)
    grid = log_grid(mu0, cfg.mu_guard, grid_points)
    return check_growth_criterion(cfg.alpha_x, crit, grid, alpha_main=alpha)


def chain_error_view(x: np.ndarray, varpi_i: np.ndarray, mu: float,
                     cfg: ChainControllerConfig) -> dict:
    """Error coordinates e_s, s_tilde, e_tilde_s at one state.

    x is (..., m, n); varpi_i is the (..., n) reference for the first stage.
    Leading axes stack agents.
    """
    e_s = x.copy()
    e_s[..., 0, :] -= varpi_i
    w = cfg.alpha_x.eval(mu) ** (-cfg.L)  # diagonal of Phi(mu)
    k_tilde = np.concatenate([cfg.K, [1.0]])
    s_tilde = (k_tilde * w) @ e_s / cfg.k1
    e_tilde_s = cfg.alpha_s.eval(mu) * s_tilde
    return {"e_s": e_s, "s_tilde": s_tilde, "e_tilde_s": e_tilde_s}


def chain_control(x: np.ndarray, varpi_i: np.ndarray, mu: float,
                  cfg: ChainControllerConfig) -> np.ndarray:
    """Robust tracking control for chain-integrator agents.

    x is (..., m, n) and varpi_i (..., n); returns u with shape (..., n).
    cfg.psi maps the (..., m, n) stack to a scalar or to (...) values.
    """
    if mu > cfg.mu_guard * (1.0 + 1e-12):
        raise GuardExceeded(f"mu={mu} beyond guard {cfg.mu_guard}")
    m, K = cfg.m, cfg.K
    ax = cfg.alpha_x.eval(mu)
    dax = cfg.alpha_x.deriv(mu)
    als = cfg.alpha_s.eval(mu)
    dals = cfg.alpha_s.deriv(mu)
    delta_x = dax * mu * mu / ax
    delta_s = dals * mu * mu / als
    L_m = float(m - 1)

    view = chain_error_view(x, varpi_i, mu, cfg)
    s_tilde = view["s_tilde"]
    e_tilde_s = view["e_tilde_s"]

    # r1 stacks stages 1..m-1 weighted by alpha_x^{-L_j}; its derivative uses
    # the next stage minus the scale-rate correction
    dr1 = np.empty(x.shape[:-2] + (m - 1, cfg.n))
    dr1[..., 0, :] = x[..., 1, :]
    for j in range(1, m - 1):
        Lj = float(j)  # L_{j+1} = j for the (j+1)-th stage (0-based row j)
        dr1[..., j, :] = ax ** (-Lj) * (x[..., j + 1, :]
                                        - Lj * delta_x * x[..., j, :])
    pi = ax ** L_m * (K @ dr1) - L_m * delta_x * x[..., m - 1, :]

    B = ax ** (-L_m) / cfg.k1
    gain = cfg.v + np.asarray(cfg.psi(x))[..., None] ** 2 + 1.0
    u = (-gain * math.copysign(1.0, cfg.k1) * e_tilde_s
         - pi - (delta_s / B) * s_tilde)
    return u


def chain_plant_rhs(x: np.ndarray, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Chain dynamics: x_q' = x_{q+1}, x_m' = u + phi, on (..., m, n)."""
    dx = np.empty_like(x)
    dx[..., :-1, :] = x[..., 1:, :]
    dx[..., -1, :] = u + phi
    return dx


class ChainAgents:
    """N chain-integrator agents under chain_control, stacked as (N, m, n).

    With el = (true, nominal) Euler-Lagrange parameters the plant is the
    two-link manipulator driven through inverse dynamics; disturbance(t),
    when given, returns the (N, n) matched signal added at the last stage.
    Chain agents carry no controller state.
    """

    ctrl_size = 0

    def __init__(self, cfg: ChainControllerConfig, el=None,
                 disturbance=None):
        if el is not None and cfg.m != 2:
            raise ValueError("the Euler-Lagrange plant needs order 2")
        self.cfg = cfg
        self.el = el
        self.disturbance = disturbance

    def control(self, mu, x, c, ref):
        return chain_control(x, ref, mu, self.cfg)

    def derivatives(self, t, mu, x, c, ref):
        """(dx, None): plant derivatives of every agent at (t, x)."""
        u = chain_control(x, ref, mu, self.cfg)
        if self.el is not None:
            u = el_acceleration(*self.el, x[..., 0, :], x[..., 1, :], u)
        d = 0.0 if self.disturbance is None else self.disturbance(t)
        return chain_plant_rhs(x, u, d), None

    def diagnostics(self, mu, x, c, ref) -> dict:
        """Per-agent norms of e_s and e_tilde_s."""
        view = chain_error_view(x, ref, mu, self.cfg)
        return {"e_s_norm": np.linalg.norm(view["e_s"], axis=(-2, -1)),
                "e_tilde_norm": np.linalg.norm(view["e_tilde_s"], axis=-1)}


def chain_decay_monitor(times, e_s_norms, e_tilde_norms,
                        cfg: ChainControllerConfig, clock: PrescribedClock,
                        name: str = "chain_decay"):
    """Fit the smallest C with ||e_s(t)|| <= C kappa(-(v1/4m) alpha_x(mu(t))).

    Passes iff the fit is finite and sup ||e_tilde_s|| is finite (the
    boundedness of e_tilde_s is the closed-loop guarantee).
    """
    from .generator import MonitorReport

    times = np.asarray(times, dtype=float)
    e_s_norms = np.asarray(e_s_norms, dtype=float)
    e_tilde_norms = np.asarray(e_tilde_norms, dtype=float)
    if times.size < 2:
        raise EmptyTrajectory("chain decay monitor needs a logged trajectory")
    rate = cfg.v1 / (4.0 * cfg.m)
    c_fit = 0.0
    for t, nrm in zip(times, e_s_norms):
        k = kappa(clock, cfg.alpha_x, -rate, t)
        if k <= 0.0:
            if nrm > 1e-12:
                c_fit = math.inf
            continue
        c_fit = max(c_fit, nrm / k)
    sup_tilde = float(e_tilde_norms.max())
    passed = math.isfinite(c_fit) and math.isfinite(sup_tilde)
    return MonitorReport(name, passed, c_fit, None if passed else float(times[0]))


# --- Euler-Lagrange embedding (two-link manipulator family) ----------------

@dataclass(frozen=True)
class EulerLagrangeParams:
    """Two-link manipulator parameters theta_1..theta_6 and gravity."""

    theta: tuple
    gravity: float = 9.8

    @cached_property
    def coefficients(self) -> tuple:
        """(A, B, W) with M(x1) = A + cos(q2) B and
        G(x1) = W^T [cos q1, cos(q1 + q2)]."""
        t1, t2, t3, t4, t5, t6 = self.theta
        g = self.gravity
        return (np.array([[t1 + t2, t2], [t2, t4]]),
                np.array([[2.0 * t3, t3], [t3, 0.0]]),
                np.array([[t5 * g, 0.0], [t6 * g, t6 * g]]))


# x1 @ _ANGLES = [q1, q1 + q2]; C picks x2 entries _C_PICK with signs
# _C_SIGN; adj(M) = M[_ADJ_ROWS, _ADJ_COLS] * _ADJ_SIGN
_ANGLES = np.array([[1.0, 1.0], [0.0, 1.0]])
_C_PICK = np.array([[0, 0], [0, 1]])
_C_SIGN = np.array([[-1.0, -2.0], [0.0, 1.0]])
_ADJ_ROWS = np.array([[1, 0], [1, 0]])
_ADJ_COLS = np.array([[1, 1], [0, 0]])
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def el_matrices(par: EulerLagrangeParams, x1: np.ndarray, x2: np.ndarray):
    """Inertia M(x1), Coriolis C(x1, x2) and gravity G(x1) matrices.

    With q = x1:  M = [[t1 + t2 + 2 t3 cos q2, t2 + t3 cos q2],
    [t2 + t3 cos q2, t4]],  C = t3 sin q2 [[-x2_1, -2 x2_1], [0, x2_2]],
    G = g [t5 cos q1 + t6 cos(q1 + q2), t6 cos(q1 + q2)].  x1 and x2 are
    (..., 2); returns M and C as (..., 2, 2), G as (..., 2).
    """
    A, B, W = par.coefficients
    c2 = np.cos(x1[..., 1, None, None])
    s2 = np.sin(x1[..., 1, None, None])
    M = A + c2 * B
    C = (par.theta[2] * s2) * (x2[..., _C_PICK] * _C_SIGN)
    G = np.cos(x1 @ _ANGLES) @ W
    return M, C, G


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (A @ v[..., None])[..., 0]


def el_acceleration(true_par: EulerLagrangeParams,
                    nominal_par: EulerLagrangeParams,
                    x1: np.ndarray, x2: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """Closed-loop acceleration of the Euler-Lagrange plant.

    The chain controller's output u is applied through inverse dynamics
    computed with nominal parameters, u_applied = M_hat u + C_hat x2 + G_hat;
    the true plant responds with x2' = M^{-1}(u_applied - C x2 - G).  The
    parameter mismatch is the bounded matched disturbance the robust term
    absorbs.  All arguments are (..., 2); M^{-1} = adj(M) / det(M) is
    closed form.
    """
    M_hat, C_hat, G_hat = el_matrices(nominal_par, x1, x2)
    M, C, G = el_matrices(true_par, x1, x2)
    u_applied = _matvec(M_hat, u) + _matvec(C_hat, x2) + G_hat
    b = u_applied - _matvec(C, x2) - G
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    adj = M[..., _ADJ_ROWS, _ADJ_COLS] * _ADJ_SIGN
    return _matvec(adj, b) / det[..., None]
