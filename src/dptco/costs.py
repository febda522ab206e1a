"""Per-agent convex costs, their curvature constants, and the optimum oracle.

Cost families are quadratic (z - c)^T Q (z - c) + offset and exp-quadratic
exp((z - c)^T P (z - c)), plus sums of these.  The strong-convexity constant
rho_c and gradient-Lipschitz constant varrho_c are analytic for quadratics
and sampled on a declared working box otherwise.  The centralized optimum
oracle is verification-only plumbing: a damped Newton iteration on the team
cost with a finite-difference Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonPositiveInput

_NEWTON_MAX_ITER = 10_000


class CostFunction:
    """Convex cost with value and gradient; subclasses define the family."""

    dim: int

    def value(self, z: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _check(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise DimensionMismatch(f"expected dimension {self.dim}, got {z.shape}")
        return z


class QuadraticCost(CostFunction):
    """f(z) = (z - center)^T Q (z - center) + offset with Q symmetric PD."""

    def __init__(self, Q, center, offset: float = 0.0):
        self.Q = np.asarray(Q, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.offset = float(offset)
        self.dim = self.center.shape[0]
        if self.Q.shape != (self.dim, self.dim):
            raise DimensionMismatch("Q shape does not match center")
        eigs = np.linalg.eigvalsh(self.Q)
        if eigs[0] <= 0:
            raise NonPositiveInput("Q must be positive definite")
        self.rho_c = 2.0 * float(eigs[0])
        self.varrho_c = 2.0 * float(eigs[-1])

    def value(self, z):
        d = self._check(z) - self.center
        return float(d @ self.Q @ d) + self.offset

    def gradient(self, z):
        d = self._check(z) - self.center
        return 2.0 * (self.Q @ d)

    def to_dict(self):
        return {"family": "quadratic", "Q": self.Q.tolist(),
                "center": self.center.tolist(), "offset": self.offset}


class ExpQuadraticCost(CostFunction):
    """f(z) = exp((z - center)^T P (z - center)) with P symmetric PSD.

    Only locally gradient-Lipschitz; curvature constants are sampled on the
    working box supplied by the scenario.
    """

    def __init__(self, P, center):
        self.P = np.asarray(P, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.dim = self.center.shape[0]
        if self.P.shape != (self.dim, self.dim):
            raise DimensionMismatch("P shape does not match center")
        eigs = np.linalg.eigvalsh(self.P)
        if eigs[0] < 0:
            raise NonPositiveInput("P must be positive semidefinite")
        self.rho_c = None
        self.varrho_c = None

    def value(self, z):
        d = self._check(z) - self.center
        return float(math.exp(d @ self.P @ d))

    def gradient(self, z):
        d = self._check(z) - self.center
        return self.value(z) * 2.0 * (self.P @ d)

    def to_dict(self):
        return {"family": "exp_quadratic", "P": self.P.tolist(),
                "center": self.center.tolist()}


class SumCost(CostFunction):
    """Sum of cost terms sharing one dimension."""

    def __init__(self, terms):
        self.terms = list(terms)
        if not self.terms:
            raise ValueError("SumCost needs at least one term")
        self.dim = self.terms[0].dim
        for t in self.terms:
            if t.dim != self.dim:
                raise DimensionMismatch("SumCost terms disagree on dimension")
        rhos = [t.rho_c for t in self.terms]
        self.rho_c = sum(r for r in rhos if r is not None) if any(
            r is not None for r in rhos) else None
        if any(t.varrho_c is None for t in self.terms):
            self.varrho_c = None
        else:
            self.varrho_c = sum(t.varrho_c for t in self.terms)

    def value(self, z):
        return sum(t.value(z) for t in self.terms)

    def gradient(self, z):
        g = np.zeros(self.dim)
        for t in self.terms:
            g += t.gradient(z)
        return g

    def to_dict(self):
        return [t.to_dict() for t in self.terms]


def cost_from_dict(d) -> CostFunction:
    """Build a cost from its scenario-JSON form; lists become sums."""
    if isinstance(d, list):
        return SumCost([cost_from_dict(x) for x in d])
    fam = d["family"]
    if fam == "quadratic":
        return QuadraticCost(d["Q"], d["center"], d.get("offset", 0.0))
    if fam == "exp_quadratic":
        return ExpQuadraticCost(d["P"], d["center"])
    raise ValueError(f"unknown cost family {fam!r}")


@dataclass
class CostSet:
    """Per-agent costs with aggregate curvature constants on a working box."""

    costs: list
    dim: int
    box: np.ndarray  # (dim, 2) axis-aligned working region
    rho_c: float | None = None
    varrho_c: float | None = None

    def __post_init__(self):
        for c in self.costs:
            if c.dim != self.dim:
                raise DimensionMismatch("cost dimension mismatch in CostSet")
        self.box = np.asarray(self.box, dtype=float)
        if self.box.shape != (self.dim, 2):
            raise DimensionMismatch("box must be (dim, 2)")
        if self.rho_c is None or self.varrho_c is None:
            analytic = [(c.rho_c, c.varrho_c) for c in self.costs]
            if all(r is not None and v is not None for r, v in analytic):
                self.rho_c = min(r for r, _ in analytic)
                self.varrho_c = max(v for _, v in analytic)
            else:
                rho, varrho = estimate_constants(self, self.box, 400)
                self.rho_c = rho
                self.varrho_c = varrho

    @property
    def n_agents(self) -> int:
        return len(self.costs)

    def team_value(self, z) -> float:
        return sum(c.value(z) for c in self.costs)

    def _term_batches(self):
        """Group all agents' terms by family for batched gradients, each
        family's terms ordered by agent.

        An agent's quadratic terms merge into one, (z - c)^T Q (z - c) with
        Q = sum_k Q_k and Q c = sum_k Q_k c_k (the same gradient).  Returns
        None when some term family has no batched form.
        """
        quads = {}
        expq = []
        stack = [(i, c) for i, c in enumerate(self.costs)]
        while stack:
            i, c = stack.pop()
            if isinstance(c, SumCost):
                stack.extend((i, t) for t in c.terms)
            elif isinstance(c, QuadraticCost):
                quads.setdefault(i, []).append((c.Q, c.center))
            elif isinstance(c, ExpQuadraticCost):
                expq.append((i, c.P, c.center))
            else:
                return None
        quad = []
        for i, terms in quads.items():
            Q, c = terms[0]
            if len(terms) > 1:
                Q = sum(Qk for Qk, _ in terms)
                c = np.linalg.solve(Q, sum(Qk @ ck for Qk, ck in terms))
            quad.append((i, Q, c))

        def pack(items):
            if not items:
                return None
            # stable, so one agent's terms keep their summation order
            items.sort(key=lambda item: item[0])
            idx = np.array([i for i, _, _ in items])
            mats = np.array([m for _, m, _ in items])
            cents = np.array([c for _, _, c in items])
            if np.array_equal(idx, np.arange(self.n_agents)):
                idx = None  # one term per agent, already in agent order
            unique = idx is None or len(set(idx.tolist())) == len(idx)
            return idx, mats, cents, unique

        return pack(quad), pack(expq)

    def grad_stack(self, Z: np.ndarray) -> np.ndarray:
        """Per-agent gradients at per-agent points: row i is grad f_i(Z[i]).

        Batched over all agents' terms; used in the simulation hot path.
        """
        batches = getattr(self, "_batches", "unset")
        if batches == "unset":
            batches = self._term_batches()
            self._batches = batches
        if batches is None:
            return np.array([c.gradient(Z[i])
                             for i, c in enumerate(self.costs)])
        out = np.zeros_like(Z, dtype=float)
        for batch, grad in zip(batches, (_quad_grads, _expq_grads)):
            if batch is None:
                continue
            idx, mats, cents, unique = batch
            if idx is None:
                out += grad(mats, Z - cents)
            elif unique:
                out[idx] += grad(mats, Z[idx] - cents)
            else:
                np.add.at(out, idx, grad(mats, Z[idx] - cents))
        return out


def _quad_grads(Qs: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Rows 2 Q_k d_k of quadratic terms at offsets D = z - center."""
    return 2.0 * (Qs @ D[:, :, None])[:, :, 0]


def _expq_grads(Ps: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Rows 2 exp(d'P d) P d of exp-quadratic terms at offsets D."""
    Pd = (Ps @ D[:, :, None])[:, :, 0]
    e = np.exp((D * Pd).sum(axis=1))
    return (2.0 * e)[:, None] * Pd


def grad_sum(costs: CostSet, z) -> np.ndarray:
    """Gradient of the team cost sum_i f_i(z); zero exactly at the optimum."""
    z = np.asarray(z, dtype=float)
    if z.shape != (costs.dim,):
        raise DimensionMismatch(f"expected dimension {costs.dim}, got {z.shape}")
    g = np.zeros(costs.dim)
    for c in costs.costs:
        g += c.gradient(z)
    return g


@dataclass(frozen=True)
class OptimumCertificate:
    z_star: np.ndarray
    grad_norm: float
    iterations: int

    def to_dict(self) -> dict:
        return {"z_star": self.z_star.tolist(), "grad_norm": self.grad_norm,
                "iterations": self.iterations}


def _fd_hessian(costs: CostSet, z: np.ndarray) -> np.ndarray:
    h = 1e-5 * (1.0 + float(np.linalg.norm(z)))
    n = costs.dim
    H = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        H[:, j] = (grad_sum(costs, z + e) - grad_sum(costs, z - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


def optimum_oracle(costs: CostSet, tol: float = 1e-8,
                   z_init=None) -> OptimumCertificate:
    """Centralized optimum by damped Newton with backtracking.

    Strong convexity (rho_c > 0) guarantees a unique optimum; the
    certificate records the final gradient norm so downstream error
    computations can budget for it.
    """
    if costs.rho_c is None or costs.rho_c <= 0:
        raise NonPositiveInput("optimum oracle needs rho_c > 0")
    z = (np.zeros(costs.dim) if z_init is None
         else np.asarray(z_init, dtype=float).copy())
    g = grad_sum(costs, z)
    it = 0
    while float(np.linalg.norm(g)) > tol:
        if it >= _NEWTON_MAX_ITER:
            raise NoConvergence(f"Newton exceeded {_NEWTON_MAX_ITER} iterations")
        H = _fd_hessian(costs, z)
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


def estimate_constants(costs, box, samples: int = 400,
                       seed: int = 0) -> tuple[float, float]:
    """Empirical strong-convexity and gradient-Lipschitz constants.

    Samples point pairs in the box (random pairs plus deterministic
    axis-aligned pairs, which hit the extremal curvature directions of
    diagonal quadratics exactly) and returns

      rho_hat    = min (grad f(x) - grad f(y))^T (x - y) / ||x - y||^2
      varrho_hat = max ||grad f(x) - grad f(y)|| / ||x - y||

    aggregated as min/max over agents when given a CostSet.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    box = np.asarray(box, dtype=float)
    agent_costs = costs.costs if isinstance(costs, CostSet) else [costs]
    dim = agent_costs[0].dim
    rng = np.random.default_rng(seed)
    lo, hi = box[:, 0], box[:, 1]
    # one block is the same stream as one x draw, then one y draw, per pair
    X, Y = (lo + rng.random((samples, 2, dim)) * (hi - lo)).transpose(1, 0, 2)
    keep = np.linalg.norm(X - Y, axis=1) > 1e-9
    # axis-aligned pairs at several anchors
    anchors = np.repeat([lo, hi, 0.5 * (lo + hi)], dim, axis=0)
    steps = np.tile(np.diag(1e-4 * np.maximum(1.0, hi - lo)), (3, 1))
    X = np.concatenate([X[keep], anchors])
    Y = np.concatenate([Y[keep], anchors + steps])
    dZ = X - Y
    nz2 = (dZ * dZ).sum(axis=1)
    rho, varrho = math.inf, 0.0
    for c in agent_costs:
        dG = _gradients(c, X) - _gradients(c, Y)
        rho = min(rho, float(((dG * dZ).sum(axis=1) / nz2).min()))
        varrho = max(varrho, float(
            (np.linalg.norm(dG, axis=1) / np.sqrt(nz2)).max()))
    return rho, varrho


def _gradients(c: CostFunction, Z: np.ndarray) -> np.ndarray:
    """Rows grad c(z) at the rows z of Z."""
    if isinstance(c, SumCost):
        return sum(_gradients(t, Z) for t in c.terms)
    if isinstance(c, QuadraticCost):
        return _quad_grads(c.Q[None], Z - c.center)
    if isinstance(c, ExpQuadraticCost):
        return _expq_grads(c.P[None], Z - c.center)
    return np.array([c.gradient(z) for z in Z])


def default_box(dim: int, half_width: float = 5.0) -> np.ndarray:
    """Default working box [-half_width, half_width]^dim."""
    return np.tile(np.array([-half_width, half_width]), (dim, 1))
