"""Robust prescribed-time tracking controller for chain-integrator agents.

The plant is a chain of m integrators (each stage n-dimensional) with a
bounded matched disturbance at the last stage.  The controller builds a
sliding-like variable s_tilde from descending powers of a gain alpha_x(mu),
scales it into e_tilde_s = alpha_s(mu) * s_tilde, and applies

    u = -(v + psi^2 + 1) sign(k1) e_tilde_s - pi(x)
        - B(mu)^{-1} delta_s(mu) s_tilde

where psi = 1 bounds the disturbance factor psi(x) (_PSI) and pi(x)
collects the known part of the s_tilde dynamics.  The scenario's K must
make the companion matrix Lambda Hurwitz; (P, Q = I) solve the associated
Lyapunov equation and give the decay constants v1, v2, which set alpha_x's
growth criterion DC1 (check_dc1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DptcoError
from .generator import bound_ratio, ratio_report
from .timegain import (GainFunction, PrescribedClock, check_growth_criterion,
                       kappa_series)

# the bound psi on the disturbance factor psi(x) in the chain law
_PSI = 1.0
# the Euler-Lagrange plant: gravity, and the nominal parameters of the
# inverse dynamics as a share of the true ones
_GRAVITY = 9.8
_EL_NOMINAL_SCALE = 0.9


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

    Q must be symmetric positive definite.  Then, by Lyapunov's theorem, a
    positive definite P exists iff Lambda is Hurwitz, so a singular system
    or a P that is not positive definite refuses Lambda, with no
    eigenvalue solve of Lambda.  The result is symmetric positive definite
    with residual below 1e-10.
    """
    Lambda = np.asarray(Lambda, dtype=float)
    Q = np.asarray(Q, dtype=float)
    d = Lambda.shape[0]
    not_hurwitz = "eigenvalues of Lambda not all in the open left half-plane"
    A = np.kron(np.eye(d), Lambda.T) + np.kron(Lambda.T, np.eye(d))
    try:
        vec_p = np.linalg.solve(A, -Q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise DptcoError(f"{not_hurwitz}: the Lyapunov system is "
                         f"singular ({exc})") from exc
    P = vec_p.reshape(d, d)
    P = 0.5 * (P + P.T)
    resid = np.linalg.norm(P @ Lambda + Lambda.T @ P + Q)
    if resid > 1e-10:
        raise DptcoError(f"Lyapunov residual {resid} too large")
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        raise DptcoError(f"{not_hurwitz}: the Lyapunov solution is not "
                         "positive definite")
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
    mu_guard: float

    @cached_property
    def k1(self) -> float:
        return float(self.K[0])

    @cached_property
    def L(self) -> np.ndarray:
        """Scale exponents L_j = j - 1 for stages j = 1..m."""
        return np.arange(self.m, dtype=float)

    @cached_property
    def s_weights(self) -> np.ndarray:
        """k_tilde / k1 = [K, 1] / k1, the weight of each stage in s_tilde."""
        return np.append(self.K, 1.0) / self.k1

    @cached_property
    def _law_constants(self) -> tuple:
        """Per-stage constants of the chain law: the exponents
        [-L_1..-L_m, L_m - L_1..L_m - L_{m-1}] of its one power of
        alpha_x, then K, L_1..L_{m-1} and s_weights as lists of floats."""
        L_m = float(self.m - 1)
        return (np.concatenate([-self.L, L_m - self.L[:-1]]), self.K.tolist(),
                self.L[:-1].tolist(), self.s_weights.tolist())


def make_chain_config(m: int, n: int, v: float, alpha_x: GainFunction,
                      mu_guard: float, alpha_s: GainFunction, K
                      ) -> ChainControllerConfig:
    """Assemble a chain controller: the companion matrix of K, its
    Lyapunov solve with Q = I, and the gains alpha_x and alpha_s."""
    K = np.asarray(K, dtype=float)
    if K.shape != (m - 1,):
        raise DptcoError(f"K must list m - 1 = {m - 1} gains for "
                         f"order {m}, got shape {K.shape}")
    Lambda = companion(K)
    Q = np.eye(m - 1)
    P = solve_lyapunov(Lambda, Q)
    v1, v2 = v_constants(P, Q, m)
    return ChainControllerConfig(m, n, K, Lambda, P, Q, v1, v2, float(v),
                                 alpha_x, alpha_s, float(mu_guard))


def check_dc1(cfg: ChainControllerConfig, alpha: GainFunction,
              c_star: float, grid):
    """DC1 report for alpha_x against the generator gain alpha on the grid
    of the build's criteria (`log_grid(mu0, mu_guard)`): growth
    d(alpha_x)/ds <= (v1/(2 v2)) s^-2 alpha_x(s)^2 and coupling
    alpha_x(s) <= (c_star/v1) alpha(s)."""
    return check_growth_criterion("chain_dc1", cfg.alpha_x,
                                  cfg.v1 / (2.0 * cfg.v2), grid,
                                  (c_star / cfg.v1, alpha))


def _agent_major(x: np.ndarray) -> np.ndarray:
    """The (..., m, n) view of a stage-first stack x (m, ..., n)."""
    return x.transpose((*range(1, x.ndim - 1), 0, x.ndim - 1))


def _stage_dot(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w (..., m) contracted with the stage axis of x (m, ..., n).

    On a stacked x, np.dot over its agent-major view takes one BLAS dot of
    length m per entry, the same sum as on an agent-major stack; a gemm on
    the contiguous (m, N n) block would round it differently.
    """
    return np.dot(w, _agent_major(x))


def chain_error_view(x: np.ndarray, varpi_i: np.ndarray, mu,
                     cfg: ChainControllerConfig) -> dict:
    """Error coordinates e_s, s_tilde, e_tilde_s at one state, or at one
    per row.

    x is (m, ..., n), stage axis first; varpi_i is the (..., n) reference
    for the first stage.  The axes between stack agents.  mu is a float,
    or an array of one value per leading index of the agent axis, as (K,)
    with x (m, K, N, n).  s_tilde = k1^-1 (K_tilde o alpha_x^-L) . e_s,
    whose stage-1 weight is 1.
    """
    e_s = x.copy()
    e_s[0] -= varpi_i
    ax, als = cfg.alpha_x.eval(mu), cfg.alpha_s.eval(mu)
    rows = np.shape(mu)
    # each row's stage weights, then its own stage contraction: one BLAS
    # dot per entry, as _stage_dot takes them for one row
    w = cfg.s_weights * (np.asarray(ax)[..., None]
                         ** cfg._law_constants[0])[..., :cfg.m]
    s_tilde = np.empty(x.shape[1:])
    for k in np.ndindex(rows):
        s_tilde[k] = _stage_dot(w[k], x[(slice(None),) + k])
    s_tilde -= varpi_i
    als = np.reshape(als, rows + (1,) * (s_tilde.ndim - len(rows)))
    return {"e_s": e_s, "s_tilde": s_tilde, "e_tilde_s": als * s_tilde}


def chain_control(x: np.ndarray, varpi_i: np.ndarray, mu: float,
                  cfg: ChainControllerConfig,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Robust tracking control for chain-integrator agents.

    x is (m, ..., n), stage axis first, and varpi_i (..., n); returns u
    with shape (..., n), written into out when given.
    """
    if mu > cfg.mu_guard * (1.0 + 1e-12):
        raise DptcoError(f"mu={mu} beyond guard {cfg.mu_guard}")
    L_m = float(cfg.m - 1)
    ax = cfg.alpha_x.eval(mu)
    als = cfg.alpha_s.eval(mu)
    delta_x = cfg.alpha_x.deriv(mu) * mu * mu / ax
    delta_s = cfg.alpha_s.deriv(mu) * mu * mu / als

    exps, K, L, s_weights = cfg._law_constants
    # one numpy power for every stage weight: a Python ** can round
    # differently from numpy's array power
    pw = (ax ** exps).tolist()

    # pi = alpha_x^{L_m} K . r1' - L_m delta_x x_m, where row j of r1 is
    # alpha_x^{-L_j} x_j (stages 1..m-1), so r1'_j = alpha_x^{-L_j}
    # (x_{j+1} - L_j delta_x x_j): one weight per stage of x, in floats
    Kw = [k * q for k, q in zip(K, pw[cfg.m:])]
    w_pi = [0.0] + Kw
    for j, L_j in enumerate(L):
        w_pi[j] -= delta_x * L_j * Kw[j]
    w_pi[-1] -= L_m * delta_x

    # s_tilde (stage weights k_tilde/k1 alpha_x^-L) and pi in one
    # contraction; stage 1 weighs 1, so the reference comes off once
    s_tilde, pi = _stage_dot(
        np.array([[w * q for w, q in zip(s_weights, pw)], w_pi]), x)
    s_tilde -= varpi_i
    # u = -gain sign(k1) alpha_s s_tilde - pi - B^-1 delta_s s_tilde with
    # B = alpha_x^{-L_m} / k1
    gain = cfg.v + _PSI * _PSI + 1.0
    s_tilde *= -(gain * (math.copysign(1.0, cfg.k1) * als)
                 + delta_s * cfg.k1 * ax ** L_m)
    return np.subtract(s_tilde, pi, out=out)


class ChainAgents:
    """N chain-integrator agents under chain_control, stacked stage-major
    as (m, N, n).

    With el_theta, the true theta_1..theta_6, the plant is the two-link
    manipulator driven through inverse dynamics computed with
    _EL_NOMINAL_SCALE times them, kept as its folded ElMismatch table
    (el_theta None: the chain of integrators);
    disturbance(t) returns the (N, n) matched signal added at the last
    stage.  Chain agents carry no controller state (c is None).
    """

    ctrl_size = 0

    def __init__(self, cfg: ChainControllerConfig, el_theta, disturbance):
        if el_theta is not None and cfg.m != 2:
            raise ValueError("the Euler-Lagrange plant needs order 2")
        self.cfg = cfg
        self.el = None
        if el_theta is not None:
            true = EulerLagrangeParams(tuple(el_theta))
            # float sums and products overflow to inf without a warning
            if not np.isfinite(true.coefficients).all():
                raise ValueError("el_true_theta gives non-finite manipulator "
                                 f"coefficients: {list(el_theta)}")
            # M = A + cos(q2) B is affine in cos q2: positive definite for
            # every q2 exactly when it is at cos q2 = 1 and -1 (floats, so
            # an overflow gives inf without a warning)
            (a11, a12), (_, a22) = true.coefficients[0].tolist()
            (b11, b12), (_, b22) = true.coefficients[1].tolist()
            for c in (1.0, -1.0):
                m11, m12, m22 = a11 + c * b11, a12 + c * b12, a22 + c * b22
                det = m11 * m22 - m12 * m12
                if not (m11 > 0.0 and 0.0 < det < math.inf):
                    raise ValueError(
                        "el_true_theta gives an inertia matrix that is not "
                        "positive definite with a finite determinant at "
                        f"cos q2 = {c:g}: {list(el_theta)}")
            self.el = ElMismatch.of(true, EulerLagrangeParams(
                tuple(_EL_NOMINAL_SCALE * t for t in el_theta)))
        self.disturbance = disturbance

    def derivatives(self, t, mu, x, c, ref, dx, dc):
        """Write every agent's x_q' = x_{q+1}, x_m' = u + d(t) into dx."""
        dx[:-1] = x[1:]
        acc = dx[-1]
        if self.el is None:
            chain_control(x, ref, mu, self.cfg, out=acc)
        else:
            el_acceleration(self.el, x[0], x[1],
                            chain_control(x, ref, mu, self.cfg), out=acc)
        acc += self.disturbance(t)

    def diagnostics(self, mu, x, c, ref) -> dict:
        """Per-agent norms of e_s and e_tilde_s; mu is a float, or one per
        leading index of the agent axis (`chain_error_view`)."""
        view = chain_error_view(x, ref, mu, self.cfg)
        e_s = view["e_s"]
        # one contiguous row per agent, stages in order
        rows = _agent_major(e_s).reshape(e_s.shape[1:-1] + (-1,))
        return {"e_s_norm": np.linalg.norm(rows, axis=-1),
                "e_tilde_norm": np.linalg.norm(view["e_tilde_s"], axis=-1)}


def chain_decay_monitor(times, e_s_norms, e_tilde_norms,
                        cfg: ChainControllerConfig, clock: PrescribedClock):
    """Fit the smallest C with ||e_s(t)|| <= C kappa(-(v1/4m) alpha_x(mu(t))).

    e_s_norms and e_tilde_norms are (K, N).  Passes iff the fit is finite
    and every ||e_tilde_s|| is finite (the boundedness of e_tilde_s is the
    closed-loop guarantee).
    """
    k = kappa_series(times, clock, cfg.alpha_x, -cfg.v1 / (4.0 * cfg.m))
    ratio = bound_ratio(e_s_norms, k[:, None])
    ratio[~np.isfinite(e_tilde_norms)] = np.nan
    return ratio_report("chain_decay", times, ratio, math.inf)


# --- Euler-Lagrange embedding (two-link manipulator family) ----------------

@dataclass(frozen=True)
class EulerLagrangeParams:
    """Two-link manipulator parameters theta_1..theta_6, under gravity
    _GRAVITY."""

    theta: tuple

    @cached_property
    def coefficients(self) -> tuple:
        """(A, B, W) with M(x1) = A + cos(q2) B and
        G(x1) = W^T [cos q1, cos(q1 + q2)]."""
        t1, t2, t3, t4, t5, t6 = self.theta
        g = _GRAVITY
        return (np.array([[t1 + t2, t2], [t2, t4]]),
                np.array([[2.0 * t3, t3], [t3, 0.0]]),
                np.array([[t5 * g, 0.0], [t6 * g, t6 * g]]))


# cos(x1 @ _ANGLES) = [cos q1, cos(q1 + q2), cos q2];
# x2 * (x2 @ _CORIOLIS) = C x2 / (t3 sin q2)
_ANGLES = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
_CORIOLIS = np.array([[-1.0, 0.0], [-2.0, 1.0]])


class ElMismatch(NamedTuple):
    """The constants of el_acceleration for one (true, nominal) pair of
    Euler-Lagrange parameters, folded once: the nominal A_hat and B_hat,
    W_hat - W, theta3_hat - theta3, and the true inertia
    [M_22, M_11, M_12] = M_A + cos(q2) M_B as its coefficients
    M_A = [A_22, A_11, A_12] and M_B = [B_22, B_11, B_12]."""

    A_hat: np.ndarray
    B_hat: np.ndarray
    dW: np.ndarray
    dtheta3: float
    M_A: np.ndarray
    M_B: np.ndarray

    @classmethod
    def of(cls, true_par: EulerLagrangeParams,
           nominal_par: EulerLagrangeParams) -> "ElMismatch":
        A_hat, B_hat, W_hat = nominal_par.coefficients
        A, B, W = true_par.coefficients
        return cls(A_hat, B_hat, W_hat - W,
                   nominal_par.theta[2] - true_par.theta[2],
                   np.array([A[1, 1], A[0, 0], A[0, 1]]),
                   np.array([B[1, 1], B[0, 0], B[0, 1]]))


def el_acceleration(el: ElMismatch, x1: np.ndarray, x2: np.ndarray,
                    u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Closed-loop acceleration of the Euler-Lagrange plant.

    The chain controller's output u is applied through inverse dynamics
    computed with nominal parameters, u_applied = M_hat u + C_hat x2 + G_hat;
    the true plant responds with x2' = M^{-1}(u_applied - C x2 - G), where
    M = A + cos q2 B, C x2 = t3 sin q2 [-x2_1 (x2_1 + 2 x2_2), x2_2^2] and
    G = W^T [cos q1, cos(q1 + q2)] with q = x1.  The parameter mismatch is
    the bounded matched disturbance the robust term absorbs.  All arguments
    are (..., 2); the mismatch terms are folded into one right-hand side and
    M^{-1} = adj(M) / det(M) is applied component-wise, into out.  One
    cosine call gives cos q1, cos(q1 + q2) and cos q2.
    """
    A_hat, B_hat, dW, dtheta3, M_A, M_B = el
    cos = np.cos(np.dot(x1, _ANGLES))
    c2 = cos[..., 2:]
    # np.dot, not @: the same contraction, and cheaper on small stacks.
    # u A_hat and u B_hat stay two products: one u [A_hat | B_hat] rounds
    # differently for a single agent, where BLAS takes a matrix-vector path
    b = (np.dot(u, A_hat) + c2 * np.dot(u, B_hat)
         + np.dot(cos[..., :2], dW))
    b += ((dtheta3 * np.sin(x1[..., 1:])) * (x2 * np.dot(x2, _CORIOLIS)))
    M = M_A + c2 * M_B  # [M_22, M_11, M_12]
    diag, m12 = M[..., :2], M[..., 2:]
    det = diag[..., :1] * diag[..., 1:] - m12 * m12
    return np.divide(diag * b - m12 * b[..., ::-1], det, out=out)
