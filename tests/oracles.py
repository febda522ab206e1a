"""Reference forms of library math that the library itself computes in a
fused, one-pass way; tests compare the library against these."""

import math

import numpy as np

from dptco.chain_ctrl import EulerLagrangeParams
from dptco.costs import CostSet

# C picks x2 entries _C_PICK with signs _C_SIGN
_C_PICK = np.array([[0, 0], [0, 1]])
_C_SIGN = np.array([[-1.0, -2.0], [0.0, 1.0]])


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
    G = np.cos(np.stack([x1[..., 0], x1[..., 0] + x1[..., 1]], -1)) @ W
    return M, C, G


def el_acceleration_solve(true_par, nominal_par, x1, x2, u):
    """x2' = M^{-1}(M_hat u + C_hat x2 + G_hat - C x2 - G) for one agent,
    by np.linalg.solve."""
    M_hat, C_hat, G_hat = el_matrices(nominal_par, x1, x2)
    M, C, G = el_matrices(true_par, x1, x2)
    return np.linalg.solve(
        M, M_hat @ u + C_hat @ x2 + G_hat - C @ x2 - G)


def chain_plant_rhs(x: np.ndarray, u: np.ndarray, phi) -> np.ndarray:
    """Chain dynamics: x_q' = x_{q+1}, x_m' = u + phi, on (..., m, n)."""
    dx = np.empty_like(x)
    dx[..., :-1, :] = x[..., 1:, :]
    dx[..., -1, :] = u + phi
    return dx


def estimate_constants(costs, box, samples: int = 400, seed: int = 0):
    """(rho_hat, varrho_hat) over the same point pairs as
    costs.estimate_constants, one gradient call per point and pair."""
    box = np.asarray(box, dtype=float)
    agent_costs = costs.costs if isinstance(costs, CostSet) else [costs]
    dim = agent_costs[0].dim
    rng = np.random.default_rng(seed)
    lo, hi = box[:, 0], box[:, 1]

    pairs = []
    for _ in range(samples):
        x = lo + rng.random(dim) * (hi - lo)
        y = lo + rng.random(dim) * (hi - lo)
        if np.linalg.norm(x - y) > 1e-9:
            pairs.append((x, y))
    for anchor in (lo, hi, 0.5 * (lo + hi)):
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1e-4 * max(1.0, hi[j] - lo[j])
            pairs.append((anchor.copy(), anchor + e))

    rho = math.inf
    varrho = 0.0
    for c in agent_costs:
        for x, y in pairs:
            dg = c.gradient(x) - c.gradient(y)
            dz = x - y
            nz2 = float(dz @ dz)
            rho = min(rho, float(dg @ dz) / nz2)
            varrho = max(varrho, float(np.linalg.norm(dg)) / math.sqrt(nz2))
    return rho, varrho
