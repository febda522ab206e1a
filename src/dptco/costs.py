"""Per-agent convex costs, their curvature constants, and the optimum oracle.

Each agent's cost is a sum of terms, quadratic (z - c)^T Q (z - c) + offset
or exp-quadratic exp((z - c)^T P (z - c)), held once in `CostSet`'s table
of all agents' terms.  The strong-convexity constant rho_c and
gradient-Lipschitz constant varrho_c are analytic for quadratics and
sampled on a declared working box otherwise.  Every gradient comes from
the table's family batches (`CostSet.grad_stack`), and every Hessian from
central differences of it (`CostSet.hessian_stack`).  The centralized
optimum oracle is verification-only plumbing: a damped Newton iteration
on the team cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .draws import uniform
from .errors import DptcoError

_NEWTON_MAX_ITER = 10_000
_NEWTON_TOL = 1e-8  # gradient norm at which the oracle stops
_CURVATURE_SAMPLES = 400  # random point pairs of estimate_constants

# family: (its matrix key, the definiteness the matrix needs, the test of
# its least eigenvalue against 0)
_FAMILIES = {"quadratic": ("Q", "positive definite", np.greater),
             "exp_quadratic": ("P", "positive semidefinite", np.greater_equal)}


def _finite(name: str, a) -> np.ndarray:
    """a as a float array, refused unless every entry is finite."""
    a = np.asarray(a, dtype=float)
    # math over a list: a few times faster than np.isfinite on small arrays
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise DptcoError(f"{name} must be finite, got {a.tolist()}")
    return a


def _term(t: dict, dim: int) -> tuple:
    """(family, matrix, center, offset) of one term dict, checked."""
    fam = t["family"]
    if fam not in _FAMILIES:
        raise DptcoError(f"unknown cost family {fam!r}")
    key = _FAMILIES[fam][0]
    mat = _finite(key, t[key])
    center = _finite("center", t["center"])
    offset = float(_finite("offset", t.get("offset", 0.0)))
    if center.shape != (dim,):
        raise DptcoError("cost dimension mismatch in CostSet")
    if mat.shape != (dim, dim):
        raise DptcoError(f"{key} shape does not match center")
    return fam, mat, center, offset


class CostSet:
    """Every agent's cost, held once as a table of terms, with aggregate
    curvature constants on a working box (dim, 2).

    agents[i] is agent i's cost as the scenario reader returns it: one
    term dict, {"family": "quadratic", "Q", "center", "offset"} or
    {"family": "exp_quadratic", "P", "center"}, or a list of them (their
    sum).  `terms` holds (agent, family, matrix, center, offset) per term,
    in file order.
    """

    def __init__(self, agents: list, dim: int, box):
        self.dim = dim
        self.n_agents = len(agents)
        self.terms = []
        for i, c in enumerate(agents):
            c = c if type(c) is list else [c]
            if not c:
                raise DptcoError(f"agent {i}: a sum of costs needs at least "
                                 "one term")
            self.terms += [(i,) + _term(t, dim) for t in c]
        spectra = {}  # per family, its terms' eigenvalues in table order
        for fam, (key, definite, positive) in _FAMILIES.items():
            mats = np.array([m for _, f, m, _, _ in self.terms if f == fam])
            if not len(mats):
                continue
            spectra[fam] = np.linalg.eigvalsh(mats)  # reads one triangle
            if not (positive(spectra[fam][:, 0], 0.0).all()
                    and (mats == mats.transpose(0, 2, 1)).all()):
                raise DptcoError(f"{key} must be symmetric {definite}")
        self.box = _finite("box", box)
        if self.box.shape != (dim, 2):
            raise DptcoError("box must be (dim, 2)")
        if "exp_quadratic" in spectra:
            self.rho_c, self.varrho_c = estimate_constants(self)
        else:
            # 2 lambda_min(Q) and 2 lambda_max(Q), summed over an agent's terms
            rho, varrho = [0.0] * self.n_agents, [0.0] * self.n_agents
            for (i, *_), eigs in zip(self.terms, spectra["quadratic"]):
                rho[i] += 2.0 * float(eigs[0])
                varrho[i] += 2.0 * float(eigs[-1])
            self.rho_c, self.varrho_c = min(rho), max(varrho)
        if not (math.isfinite(self.rho_c) and math.isfinite(self.varrho_c)):
            raise DptcoError(
                "curvature constants must be finite on the working box, got "
                f"rho_c = {self.rho_c}, varrho_c = {self.varrho_c}")

    def team_value(self, z) -> float:
        """sum_i f_i(z), over each agent's terms, then over agents; an
        exp-quadratic term that overflows gives inf."""
        z = np.asarray(z, dtype=float)
        values = [0.0] * self.n_agents
        for i, fam, mat, center, offset in self.terms:
            d = z - center
            q = float(d @ mat @ d)
            if fam == "quadratic":
                values[i] += q + offset
            else:
                try:
                    values[i] += math.exp(q)
                except OverflowError:
                    values[i] = math.inf
        return sum(values)

    def grad_stack(self, Z: np.ndarray) -> np.ndarray:
        """Per-agent gradients at per-agent points: [..., i, :] is
        grad f_i(Z[..., i, :]) for Z (..., N, dim).

        Batched over all agents' terms; used in the simulation hot path.
        """
        out = None
        for idx, mats, cents, unique, grad in self._batches:
            if idx is None and out is None:
                # one term per agent in agent order starts the sum
                out = grad(mats, Z - cents)
                continue
            if out is None:
                out = np.zeros(Z.shape)
            if idx is None:
                out += grad(mats, Z - cents)
            elif unique:
                out[..., idx, :] += grad(mats, Z[..., idx, :] - cents)
            else:
                np.add.at(out, (..., idx, slice(None)),
                          grad(mats, Z[..., idx, :] - cents))
        return out

    def hessian_stack(self, Z: np.ndarray) -> np.ndarray:
        """Per-agent Hessians at per-agent points, (N, dim, dim): block i
        is the Hessian of f_i at Z[i] (`_central_differences` of
        grad_stack)."""
        return _central_differences(self.grad_stack, Z)

    @cached_property
    def _batches(self) -> list:
        return _term_batches(self.terms, self.n_agents)


def _central_differences(grad, Z: np.ndarray) -> np.ndarray:
    """Jacobians (n, dim, dim) of a map grad that takes n points (n, dim)
    to n gradients, block i at Z[i] by central differences with step
    1e-5 (1 + ||Z[i]||)."""
    n, d = Z.shape
    h = 1e-5 * (1.0 + np.linalg.norm(Z, axis=1))
    hess = np.empty((n, d, d))
    for k in range(d):
        dz = np.zeros((n, d))
        dz[:, k] = h
        hess[:, :, k] = (grad(Z + dz) - grad(Z - dz)) / (2.0 * h[:, None])
    return hess


def _term_batches(terms: list, n_agents: int) -> list:
    """Group the term table by family for batched gradients, in table
    order (so by agent).

    An agent's quadratic terms merge into one, (z - c)^T Q (z - c) with
    Q = sum_k Q_k and Q c = sum_k Q_k c_k (the same gradient), and the
    quadratic batch holds 2Q, which its gradient multiplies by
    (doubling is exact).  Returns a list of (idx, mats, centers, unique,
    grad), one per family present, where idx is None for one term per
    agent in agent order.
    """
    quads = {}
    for i, fam, mat, center, _ in terms:
        if fam == "quadratic":
            quads.setdefault(i, []).append((mat, center))
    quad = []
    for i, ts in quads.items():
        Q, c = ts[0]
        if len(ts) > 1:
            Q = sum(Qk for Qk, _ in ts)
            c = np.linalg.solve(Q, sum(Qk @ ck for Qk, ck in ts))
        quad.append((i, Q, c))
    expq = [(i, mat, center) for i, fam, mat, center, _ in terms
            if fam == "exp_quadratic"]

    def pack(items, grad, scale):
        idx = np.array([i for i, _, _ in items])
        mats = scale * np.array([m for _, m, _ in items])
        cents = np.array([c for _, _, c in items])
        if np.array_equal(idx, np.arange(n_agents)):
            idx = None  # one term per agent, already in agent order
        unique = idx is None or len(set(idx.tolist())) == len(idx)
        return idx, mats, cents, unique, grad

    return [pack(items, grad, scale) for items, grad, scale in
            ((quad, _quad_grads, 2.0), (expq, _expq_grads, 1.0))
            if items]


def _quad_grads(Q2s: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Rows 2 Q_k d_k of quadratic terms at offsets D = z - center, from
    the doubled matrices Q2s = 2 Q_k; D may hold several rows per term
    when Q2s broadcasts over them."""
    return (Q2s @ D[..., None])[..., 0]


def _expq_grads(Ps: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Rows 2 exp(d'P d) P d of exp-quadratic terms at offsets D, shaped
    as in _quad_grads."""
    Pd = (Ps @ D[..., None])[..., 0]
    e = np.exp((D * Pd).sum(axis=-1))
    return (2.0 * e)[..., None] * Pd


def grad_sum(costs: CostSet, z) -> np.ndarray:
    """Gradient of the team cost sum_i f_i(z); zero exactly at the optimum."""
    z = np.asarray(z, dtype=float)
    if z.shape != (costs.dim,):
        raise DptcoError(f"expected dimension {costs.dim}, got {z.shape}")
    return costs.grad_stack(np.tile(z, (costs.n_agents, 1))).sum(axis=0)


@dataclass(frozen=True)
class OptimumCertificate:
    z_star: np.ndarray
    grad_norm: float
    iterations: int

    def to_dict(self) -> dict:
        return {"z_star": self.z_star.tolist(), "grad_norm": self.grad_norm,
                "iterations": self.iterations}


@np.errstate(over="ignore", invalid="ignore")
def optimum_oracle(costs: CostSet) -> OptimumCertificate:
    """Centralized optimum by damped Newton with backtracking from z = 0,
    run until the team gradient norm is at most 1e-8.

    The Hessian is `_central_differences` of the team gradient, the one
    rule of `CostSet.hessian_stack`, symmetrised.  Strong convexity
    (rho_c > 0) guarantees a unique optimum; the certificate records the
    final gradient norm so downstream error computations can budget for it.
    A team value or gradient norm that is not finite at an iterate (a cost
    center so far out that its value overflows) is refused, without a
    numpy warning; a trial point of the line search may overflow.
    """
    if costs.rho_c is None or costs.rho_c <= 0:
        raise DptcoError("optimum oracle needs rho_c > 0")
    z = np.zeros(costs.dim)
    f, g, g_norm = _team_at(costs, z)
    it = 0
    while g_norm > _NEWTON_TOL:
        if it >= _NEWTON_MAX_ITER:
            raise DptcoError(f"Newton exceeded {_NEWTON_MAX_ITER} iterations")
        H = _central_differences(
            lambda Z: grad_sum(costs, Z[0])[None], z[None])[0]
        H = 0.5 * (H + H.T)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = -g
        if step @ g > 0:  # not a descent direction, fall back to gradient
            step = -g
        # backtracking line search on the team cost
        t = 1.0
        while t > 1e-12:
            z_new = z + t * step
            if costs.team_value(z_new) <= f + 1e-4 * t * (g @ step):
                break
            t *= 0.5
        z = z + t * step
        f, g, g_norm = _team_at(costs, z)
        it += 1
    return OptimumCertificate(z, g_norm, it)


def _team_at(costs: CostSet, z: np.ndarray) -> tuple:
    """(team value, team gradient, its norm) at the oracle's iterate z,
    refused unless the value and the norm are finite."""
    f = costs.team_value(z)
    g = grad_sum(costs, z)
    g_norm = float(np.linalg.norm(g))
    if not (math.isfinite(f) and math.isfinite(g_norm)):
        raise DptcoError(f"optimum oracle: the team cost is not finite at "
                         f"z = {z.tolist()} (value {f}, gradient norm "
                         f"{g_norm})")
    return f, g, g_norm


def estimate_constants(costs: CostSet) -> tuple[float, float]:
    """Empirical strong-convexity and gradient-Lipschitz constants.

    Samples 400 seeded random point pairs in costs.box, plus axis-aligned
    pairs (`_curvature_pairs`), and returns

      rho_hat    = min (grad f(x) - grad f(y))^T (x - y) / ||x - y||^2
      varrho_hat = max ||grad f(x) - grad f(y)|| / ||x - y||

    aggregated as min/max over agents.  Every agent's gradient at every
    sample point comes from one `CostSet.grad_stack` call.  A gradient or
    a distance that overflows on the box gives a non-finite constant,
    without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        X, Y = _curvature_pairs(costs.box)
        Z = np.concatenate([X, Y])[:, None]
        G = costs.grad_stack(np.broadcast_to(
            Z, (len(Z), costs.n_agents, costs.dim)))
        dG = G[:len(X)] - G[len(X):]
        dZ = (X - Y)[:, None]
        nz2 = (dZ * dZ).sum(axis=-1)
        rho = float(((dG * dZ).sum(axis=-1) / nz2).min())
        varrho = float((np.linalg.norm(dG, axis=-1) / np.sqrt(nz2)).max())
    return rho, varrho


def _curvature_pairs(box) -> tuple[np.ndarray, np.ndarray]:
    """Point pairs (rows of X, Y) at which estimate_constants samples.

    400 random pairs, x then y, one (400, 2, dim) `draws.uniform` block
    from random.Random(0), without those whose points coincide; then
    deterministic axis-aligned pairs at the corners lo and hi and the
    centre, which hit the extremal curvature directions of diagonal
    quadratics exactly.
    """
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    dim = box.shape[0]
    X, Y = uniform(random.Random(0), lo, hi,
                   (_CURVATURE_SAMPLES, 2, dim)).transpose(1, 0, 2)
    keep = np.linalg.norm(X - Y, axis=1) > 1e-9
    anchors = np.repeat([lo, hi, 0.5 * (lo + hi)], dim, axis=0)
    steps = np.tile(np.diag(1e-4 * np.maximum(1.0, hi - lo)), (3, 1))
    return (np.concatenate([X[keep], anchors]),
            np.concatenate([Y[keep], anchors + steps]))
