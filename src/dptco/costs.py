"""Per-agent convex costs, their curvature constants, and the optimum oracle.

Cost families are quadratic (z - c)^T Q (z - c) + offset and exp-quadratic
exp((z - c)^T P (z - c)), plus sums of these.  The strong-convexity constant
rho_c and gradient-Lipschitz constant varrho_c are analytic for quadratics
and sampled on a declared working box otherwise.  Every gradient comes
from one batched table of all agents' terms (`CostSet.grad_stack`), and
every Hessian from central differences of it (`CostSet.hessian_stack`).
The centralized optimum oracle is verification-only plumbing: a damped
Newton iteration on the team cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .draws import uniform
from .errors import DptcoError

_NEWTON_MAX_ITER = 10_000
_NEWTON_TOL = 1e-8  # gradient norm at which the oracle stops
_CURVATURE_SAMPLES = 400  # random point pairs of estimate_constants


def _finite(name: str, a) -> np.ndarray:
    """a as a float array, refused unless every entry is finite."""
    a = np.asarray(a, dtype=float)
    # math over a list: a few times faster than np.isfinite on small arrays
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise DptcoError(f"{name} must be finite, got {a.tolist()}")
    return a


class QuadraticCost:
    """f(z) = (z - center)^T Q (z - center) + offset with Q symmetric PD."""

    def __init__(self, Q, center, offset: float):
        self.Q = _finite("Q", Q)
        self.center = _finite("center", center)
        self.offset = float(offset)
        _finite("offset", self.offset)
        self.dim = self.center.shape[0]
        if self.Q.shape != (self.dim, self.dim):
            raise DptcoError("Q shape does not match center")
        eigs = np.linalg.eigvalsh(self.Q)  # reads one triangle only
        if eigs[0] <= 0 or not (self.Q == self.Q.T).all():
            raise DptcoError("Q must be symmetric positive definite")
        self.rho_c = 2.0 * float(eigs[0])
        self.varrho_c = 2.0 * float(eigs[-1])

    def value(self, z):
        d = np.asarray(z, dtype=float) - self.center
        return float(d @ self.Q @ d) + self.offset


class ExpQuadraticCost:
    """f(z) = exp((z - center)^T P (z - center)) with P symmetric PSD.

    Only locally gradient-Lipschitz; curvature constants are sampled on the
    working box supplied by the scenario.
    """

    def __init__(self, P, center):
        self.P = _finite("P", P)
        self.center = _finite("center", center)
        self.dim = self.center.shape[0]
        if self.P.shape != (self.dim, self.dim):
            raise DptcoError("P shape does not match center")
        eigs = np.linalg.eigvalsh(self.P)  # reads one triangle only
        if eigs[0] < 0 or not (self.P == self.P.T).all():
            raise DptcoError("P must be symmetric positive semidefinite")
        self.rho_c = None
        self.varrho_c = None

    def value(self, z):
        d = np.asarray(z, dtype=float) - self.center
        return float(math.exp(d @ self.P @ d))


class SumCost:
    """Sum of cost terms sharing one dimension."""

    def __init__(self, terms):
        self.terms = list(terms)
        if not self.terms:
            raise ValueError("SumCost needs at least one term")
        self.dim = self.terms[0].dim
        for t in self.terms:
            if t.dim != self.dim:
                raise DptcoError("SumCost terms disagree on dimension")
        # analytic only when every term's constants are
        analytic = all(t.varrho_c is not None for t in self.terms)
        self.rho_c = sum(t.rho_c for t in self.terms) if analytic else None
        self.varrho_c = (sum(t.varrho_c for t in self.terms) if analytic
                         else None)

    def value(self, z):
        return sum(t.value(z) for t in self.terms)


def cost_from_dict(d) -> QuadraticCost | ExpQuadraticCost | SumCost:
    """Build a cost from its read scenario JSON; lists become sums."""
    if isinstance(d, list):
        return SumCost([cost_from_dict(x) for x in d])
    fam = d["family"]
    if fam == "quadratic":
        return QuadraticCost(d["Q"], d["center"], d["offset"])
    if fam == "exp_quadratic":
        return ExpQuadraticCost(d["P"], d["center"])
    raise ValueError(f"unknown cost family {fam!r}")


@dataclass
class CostSet:
    """Per-agent costs with aggregate curvature constants on a working box."""

    costs: list
    dim: int
    box: np.ndarray  # (dim, 2) axis-aligned working region
    rho_c: float = field(init=False)
    varrho_c: float = field(init=False)

    def __post_init__(self):
        for c in self.costs:
            if c.dim != self.dim:
                raise DptcoError("cost dimension mismatch in CostSet")
        self.box = _finite("box", self.box)
        if self.box.shape != (self.dim, 2):
            raise DptcoError("box must be (dim, 2)")
        if all(c.varrho_c is not None for c in self.costs):
            self.rho_c = min(c.rho_c for c in self.costs)
            self.varrho_c = max(c.varrho_c for c in self.costs)
        else:
            self.rho_c, self.varrho_c = estimate_constants(self)
        if not (math.isfinite(self.rho_c) and math.isfinite(self.varrho_c)):
            raise DptcoError(
                "curvature constants must be finite on the working box, got "
                f"rho_c = {self.rho_c}, varrho_c = {self.varrho_c}")

    @property
    def n_agents(self) -> int:
        return len(self.costs)

    def team_value(self, z) -> float:
        return sum(c.value(z) for c in self.costs)

    def grad_stack(self, Z: np.ndarray) -> np.ndarray:
        """Per-agent gradients at per-agent points: row i is grad f_i(Z[i]).

        Batched over all agents' terms; used in the simulation hot path.
        """
        out = None
        for idx, mats, cents, unique, grad in self._batches:
            if idx is None and out is None:
                # one term per agent in agent order starts the sum
                out = grad(mats, Z - cents)
                continue
            if out is None:
                out = np.zeros_like(Z, dtype=float)
            if idx is None:
                out += grad(mats, Z - cents)
            elif unique:
                out[idx] += grad(mats, Z[idx] - cents)
            else:
                np.add.at(out, idx, grad(mats, Z[idx] - cents))
        return out

    def hessian_stack(self, Z: np.ndarray) -> np.ndarray:
        """Per-agent Hessians at per-agent points, (N, dim, dim): block i
        is the Hessian of f_i at Z[i] (`_central_differences` of
        grad_stack)."""
        return _central_differences(self.grad_stack, Z)

    @cached_property
    def _batches(self) -> list:
        return _term_batches(self.costs)


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


def _term_batches(costs: list) -> list:
    """Group the terms of all agents' costs by family for batched
    gradients, each family's terms ordered by agent.

    An agent's quadratic terms merge into one, (z - c)^T Q (z - c) with
    Q = sum_k Q_k and Q c = sum_k Q_k c_k (the same gradient), and the
    quadratic batch holds 2Q, which its gradient multiplies by
    (doubling is exact).  Returns a list of (idx, mats, centers, unique,
    grad), one per family present, where idx is None for one term per
    agent in agent order; a term of any other class is a TypeError.
    """
    quads = {}
    expq = []
    stack = list(enumerate(costs))
    while stack:
        i, c = stack.pop()
        if isinstance(c, SumCost):
            stack.extend((i, t) for t in c.terms)
        elif isinstance(c, QuadraticCost):
            quads.setdefault(i, []).append((c.Q, c.center))
        elif isinstance(c, ExpQuadraticCost):
            expq.append((i, c.P, c.center))
        else:
            raise TypeError(
                f"agent {i}: no batched gradient for {type(c).__name__}")
    quad = []
    for i, terms in quads.items():
        Q, c = terms[0]
        if len(terms) > 1:
            Q = sum(Qk for Qk, _ in terms)
            c = np.linalg.solve(Q, sum(Qk @ ck for Qk, ck in terms))
        quad.append((i, Q, c))

    def pack(items, grad, scale):
        # stable, so one agent's terms keep their summation order
        items.sort(key=lambda item: item[0])
        idx = np.array([i for i, _, _ in items])
        mats = scale * np.array([m for _, m, _ in items])
        cents = np.array([c for _, _, c in items])
        if np.array_equal(idx, np.arange(len(costs))):
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


def optimum_oracle(costs: CostSet) -> OptimumCertificate:
    """Centralized optimum by damped Newton with backtracking from z = 0,
    run until the team gradient norm is at most 1e-8.

    The Hessian is `_central_differences` of the team gradient, the one
    rule of `CostSet.hessian_stack`, symmetrised.  Strong convexity
    (rho_c > 0) guarantees a unique optimum; the certificate records the
    final gradient norm so downstream error computations can budget for it.
    """
    if costs.rho_c is None or costs.rho_c <= 0:
        raise DptcoError("optimum oracle needs rho_c > 0")
    z = np.zeros(costs.dim)
    g = grad_sum(costs, z)
    it = 0
    while float(np.linalg.norm(g)) > _NEWTON_TOL:
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
        f0 = costs.team_value(z)
        t = 1.0
        while t > 1e-12:
            z_new = z + t * step
            if costs.team_value(z_new) <= f0 + 1e-4 * t * (g @ step):
                break
            t *= 0.5
        z = z + t * step
        g = grad_sum(costs, z)
        it += 1
    return OptimumCertificate(z, float(np.linalg.norm(g)), it)


def estimate_constants(costs: CostSet) -> tuple[float, float]:
    """Empirical strong-convexity and gradient-Lipschitz constants.

    Samples 400 seeded random point pairs in costs.box, plus axis-aligned
    pairs (`_curvature_pairs`), and returns

      rho_hat    = min (grad f(x) - grad f(y))^T (x - y) / ||x - y||^2
      varrho_hat = max ||grad f(x) - grad f(y)|| / ||x - y||

    aggregated as min/max over agents.  Every agent's gradient at every
    sample point comes from one pass over the term batches
    (`_gradient_blocks`).  A gradient or a distance that overflows on the
    box gives a non-finite constant, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        X, Y = _curvature_pairs(costs.box)
        G = _gradient_blocks(costs._batches, costs.n_agents,
                             np.concatenate([X, Y]))
        dG = G[:, :len(X)] - G[:, len(X):]
        dZ = X - Y
        nz2 = (dZ * dZ).sum(axis=1)
        rho = float(((dG * dZ).sum(axis=-1) / nz2).min())
        varrho = float((np.linalg.norm(dG, axis=-1) / np.sqrt(nz2)).max())
    return rho, varrho


def _gradient_blocks(batches: list, n_agents: int,
                     Z: np.ndarray) -> np.ndarray:
    """Block i, row p: grad f_i(Z[p]), every agent's gradient at every
    row of Z (P, dim), from the term batches of `_term_batches`."""
    out = np.zeros((n_agents,) + Z.shape)
    for idx, mats, cents, unique, grad in batches:
        G = grad(mats[:, None], Z - cents[:, None])
        if idx is None:
            out += G
        elif unique:
            out[idx] += G
        else:
            np.add.at(out, idx, G)
    return out


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
