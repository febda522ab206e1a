"""The damped second-order Runge-Kutta-Chebyshev step (RKC2; Sommeijer,
Shampine & Verwer, J. Comput. Appl. Math. 88, 1998, and their rkc.f) and
the nonlinear power iteration that estimates the spectral radius its stage
count needs.  `sim_engine.integrate` hands a stiff Dormand-Prince tail to
them; the step's stability interval grows as about 0.65 m^2 with its
stage count m.
"""

import math
from functools import lru_cache

import numpy as np

# rkc.f's damping epsilon, and the most probes of one spectral-radius
# estimate
_DAMPING = 2.0 / 13.0
_POWER_ITERS = 20


@lru_cache(maxsize=None)
def _coefficients(m: int) -> tuple:
    """Coefficients of the m-stage damped RKC2 step (rkc.f's recurrence).

    Returns (A, B, theta).  The step works on five rows (F_n, y_n, F, Ya,
    Yb): F_n = f(s, y_n), F the last stage's derivative, and Ya, Yb the
    last two stage values, stage j writing row 3 + j % 2 (so y_0 = y_n
    sits in row 3).  Row j - 1 of A + h B is stage j's input as a
    combination of the rows, j = 1..m, and row m the error estimate
    0.8 (y_n - y_m) + 0.4 h (F_n + f(s + h, y_m)) once F holds the last
    derivative.  theta[j] is stage j's time in units of h (theta[m] = 1).
    """
    w0 = 1.0 + _DAMPING / (m * m)
    t1 = w0 * w0 - 1.0
    t2 = math.sqrt(t1)
    arg = m * math.log(w0 + t2)
    w1 = math.sinh(arg) * t1 / (math.cosh(arg) * m * t2 - w0 * math.sinh(arg))
    A = np.zeros((m + 1, 5))
    B = np.zeros((m + 1, 5))
    theta = np.zeros(m + 1)
    b_jm1 = b_jm2 = 1.0 / (4.0 * w0 * w0)
    A[0, 1] = 1.0
    B[0, 0] = theta[1] = w1 * b_jm1
    # the Chebyshev polynomials T_1, T_0 at w0 and their two derivatives
    z_jm1, dz_jm1, d2z_jm1 = w0, 1.0, 0.0
    z_jm2, dz_jm2, d2z_jm2 = 1.0, 0.0, 0.0
    for j in range(2, m + 1):
        z_j = 2.0 * w0 * z_jm1 - z_jm2
        dz_j = 2.0 * w0 * dz_jm1 - dz_jm2 + 2.0 * z_jm1
        d2z_j = 2.0 * w0 * d2z_jm1 - d2z_jm2 + 4.0 * dz_jm1
        b_j = d2z_j / (dz_j * dz_j)
        a_jm1 = 1.0 - z_jm1 * b_jm1
        mu = 2.0 * w0 * b_j / b_jm1
        nu = -b_j / b_jm2
        mus = mu * w1 / w0
        # y_j = (1 - mu - nu) y_n + mu y_{j-1} + nu y_{j-2}
        #       + h mus (F(y_{j-1}) - a_{j-1} F_n)
        A[j - 1, 1] = 1.0 - mu - nu
        A[j - 1, 3 + (j - 1) % 2] = mu
        A[j - 1, 3 + j % 2] = nu
        B[j - 1, 0] = -mus * a_jm1
        B[j - 1, 2] = mus
        theta[j] = mu * theta[j - 1] + nu * theta[j - 2] + mus * (1.0 - a_jm1)
        b_jm2, b_jm1 = b_jm1, b_j
        z_jm2, z_jm1 = z_jm1, z_j
        dz_jm2, dz_jm1 = dz_jm1, dz_j
        d2z_jm2, d2z_jm1 = d2z_jm1, d2z_j
    A[m, 1] = 0.8
    A[m, 3 + m % 2] = -0.8
    B[m, 0] = B[m, 2] = 0.4
    theta[m] = 1.0
    return A, B, theta


def rkc2_stages(h: float, rho: float) -> int:
    """rkc.f's stage count for the step h at spectral radius rho: the
    fewest stages whose stability interval, about 0.65 m^2, covers h rho."""
    return 1 + int(math.sqrt(1.0 + 1.54 * h * rho))


def rkc2_step(f, s, y, h, m, K, y_new):
    """One m-stage RKC2 trial step of size h from (s, y); returns the error
    estimate.

    K is the (7, D) stage array with K[0] = f(s, y) in place.  The step
    copies y into K[1] and K[3], keeps its stage values in K[3] and K[4]
    and their derivatives in K[2] (see `_coefficients`), writes
    y_m into y_new, which must not share memory with y, and leaves
    f(s + h, y_m) in K[2] for the next step's K[0].  K[5] and K[6] are
    not touched.
    """
    A, B, theta = _coefficients(m)
    C = A + h * B
    K[1] = y
    K[3] = y
    np.dot(C[0, :2], K[:2], out=y_new)
    for j in range(2, m + 1):
        K[3 + (j - 1) % 2] = y_new
        f(s + theta[j - 1] * h, y_new, K[2])
        np.dot(C[j - 1], K[:5], out=y_new)
    K[3 + m % 2] = y_new
    f(s + h, y_new, K[2])
    return np.dot(C[m], K[:5])


def spectral_radius(f, s, y, K) -> tuple:
    """Spectral radius of f's Jacobian at (s, y), by nonlinear power
    iteration on differences f(s, y + v) - f(s, y) (rkc.f's rkcrho).

    K[0] holds f(s, y) and K[5] the start direction v; the iteration
    leaves its last direction in K[5], to warm-start the next call, and
    uses K[6] as scratch.  Stops once two estimates agree to 1%, or after
    _POWER_ITERS probes.  Returns (estimate, probes).
    """
    eps = math.sqrt(np.finfo(float).eps)
    v, fv = K[5], K[6]
    y_norm = math.sqrt(y @ y)
    dy = y_norm * eps if y_norm > 0.0 else eps
    v_norm = math.sqrt(v @ v)
    if v_norm == 0.0:  # no direction yet: stretch y, or any direction
        v[...] = y if y_norm > 0.0 else 1.0
        v_norm = math.sqrt(v @ v)
    sigma = 0.0
    for n in range(1, _POWER_ITERS + 1):
        v *= dy / v_norm
        v += y
        f(s, v, fv)
        np.subtract(fv, K[0], out=v)
        v_norm = math.sqrt(v @ v)
        sigma, last = v_norm / dy, sigma
        if v_norm == 0.0 or (n > 1 and abs(sigma - last) <= 0.01 * sigma):
            break
    return sigma, n
