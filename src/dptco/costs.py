"""Per-agent convex costs, their curvature constants, and the optimum oracle.

Each agent's cost is a sum of terms, quadratic (z - c)^T Q (z - c) or
exp-quadratic exp((z - c)^T P (z - c)), held once in `CostSet`'s table
of all agents' terms.  Each family's gradient and Hessian are closed
forms, batched over the table (`CostSet.grad_stack`,
`CostSet.hessian_stack`), and the strong-convexity constant rho_c and
gradient-Lipschitz constant varrho_c on a declared working box are bounds
from the same Hessian formulas (`_curvature_bounds`).  The centralized
optimum oracle is verification-only plumbing: a damped Newton iteration
on the team gradient and Hessian; no cost value is ever computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DptcoError

_NEWTON_MAX_ITER = 10_000
_NEWTON_TOL = 1e-8  # gradient norm at which the oracle stops, unless
_ROUND_OFF = 8.0 * np.finfo(float).eps  # this times its scale is larger

# family: (its matrix key, the definiteness the matrix needs)
_FAMILIES = {"quadratic": ("Q", "positive definite"),
             "exp_quadratic": ("P", "positive semidefinite")}


def _finite(name: str, a) -> np.ndarray:
    """a as a float array, refused unless every entry is finite."""
    a = np.asarray(a, dtype=float)
    # math over a list: a few times faster than np.isfinite on small arrays
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise DptcoError(f"{name} must be finite, got {a.tolist()}")
    return a


def _term(t: dict, dim: int) -> tuple:
    """(family, matrix, center) of one term dict, checked."""
    fam = t["family"]
    if fam not in _FAMILIES:
        raise DptcoError(f"unknown cost family {fam!r}")
    key = _FAMILIES[fam][0]
    mat = _finite(key, t[key])
    center = _finite("center", t["center"])
    if center.shape != (dim,):
        raise DptcoError("cost dimension mismatch in CostSet")
    if mat.shape != (dim, dim):
        raise DptcoError(f"{key} shape does not match center")
    return fam, mat, center


class CostSet:
    """Every agent's cost, held once as a table of terms, with aggregate
    curvature constants on a working box (dim, 2).

    agents[i] is agent i's cost as the scenario reader returns it: one
    term dict, {"family": "quadratic", "Q", "center"} or
    {"family": "exp_quadratic", "P", "center"}, or a list of them (their
    sum).  `terms` holds (agent, family, matrix, center) per term, in file
    order.
    """

    def __init__(self, agents: list, dim: int, box):
        self.dim = dim
        self.n_agents = len(agents)
        self.terms, starts = [], []  # starts: each agent's first term
        for i, c in enumerate(agents):
            c = c if type(c) is list else [c]
            if not c:
                raise DptcoError(f"agent {i}: a sum of costs needs at least "
                                 "one term")
            starts.append(len(self.terms))
            self.terms += [(i,) + _term(t, dim) for t in c]
        quad = np.array([f == "quadratic" for _, f, _, _ in self.terms])
        mats = np.array([m for _, _, m, _ in self.terms])
        spectra = np.linalg.eigvalsh(mats)  # per term; reads one triangle
        # symmetric, lambda_min >= 0, and != 0 for a Q; else name the
        # first family with a term that is not
        if not ((mats == mats.transpose(0, 2, 1)).all()
                and (spectra[:, 0] >= 0.0).all() and spectra[quad, 0].all()):
            Qs, lam = mats[quad], spectra[quad, 0]
            fam = ("exp_quadratic" if (Qs == Qs.transpose(0, 2, 1)).all()
                   and (lam > 0.0).all() else "quadratic")
            raise DptcoError("{} must be symmetric {}".format(*_FAMILIES[fam]))
        self.box = _finite("box", box)
        if self.box.shape != (dim, 2):
            raise DptcoError("box must be (dim, 2)")
        self.rho_c, self.varrho_c = _curvature_bounds(self, starts, quad,
                                                      mats, spectra)
        if not (math.isfinite(self.rho_c) and math.isfinite(self.varrho_c)):
            raise DptcoError(
                "curvature constants must be finite on the working box, got "
                f"rho_c = {self.rho_c}, varrho_c = {self.varrho_c}")

    def grad_stack(self, Z: np.ndarray) -> np.ndarray:
        """Per-agent gradients at per-agent points: [..., i, :] is
        grad f_i(Z[..., i, :]) for Z (..., N, dim).

        Batched over all agents' terms; used in the simulation hot path.
        """
        return self._sum_terms(Z, 0)

    def hessian_stack(self, Z: np.ndarray) -> np.ndarray:
        """Per-agent Hessians at per-agent points: [..., i, :, :] is the
        Hessian of f_i at Z[..., i, :] for Z (..., N, dim)."""
        return self._sum_terms(Z, 1)

    def _sum_terms(self, Z: np.ndarray, k: int) -> np.ndarray:
        """Each agent's sum of its terms' kernel k (0 the gradient, 1 the
        Hessian) at Z (..., N, dim), over the family batches in order.

        Each kernel takes the offsets D = Z - c of its batch's rows and the
        products M d.  Where two or more batches hold one term per agent
        in agent order, their offsets and products come from one
        subtraction and one stacked matmul over (F, ..., N, dim); slice f
        is bit for bit what batch f alone gives, each (dim, dim) product
        being the same BLAS call on the same strides.
        """
        stack = self._stack
        if stack is not None:
            mats, cents = stack
            if Z.ndim > 2:  # the stack's axis first, then Z's leading axes
                lead = (1,) * (Z.ndim - 2)
                mats = mats.reshape(mats.shape[:1] + lead + mats.shape[1:])
                cents = cents.reshape(cents.shape[:1] + lead
                                      + cents.shape[1:])
            D_all = Z - cents
            MD_all = (mats @ D_all[..., None])[..., 0]
        out = None
        f = 0  # the next slice of the stack
        for idx, mats, cents, unique, kernels in self._batches:
            if idx is None:
                # one term per agent, in agent order
                if stack is None:
                    D = Z - cents
                    part = kernels[k](mats, D, (mats @ D[..., None])[..., 0])
                else:
                    part = kernels[k](mats, D_all[f], MD_all[f])
                    f += 1
                out = part if out is None else out + part
                continue
            at = (slice(None),) * (Z.ndim - 2) + (idx,)  # agent rows idx
            D = Z[at] - cents
            part = kernels[k](mats, D, (mats @ D[..., None])[..., 0])
            if out is None:
                out = np.zeros(Z.shape[:-1] + part.shape[Z.ndim - 1:])
            if unique:
                out[at] += part
            else:
                np.add.at(out, at, part)
        return out

    @cached_property
    def _batches(self) -> list:
        return _term_batches(self.terms, self.n_agents)

    @cached_property
    def _stack(self) -> tuple | None:
        """(matrices (F, N, dim, dim), centers (F, N, dim)) of the F >= 2
        batches with one term per agent, in batch order; else None."""
        whole = [(m, c) for idx, m, c, _, _ in self._batches if idx is None]
        if len(whole) < 2:
            return None
        return (np.array([m for m, _ in whole]),
                np.array([c for _, c in whole]))


@np.errstate(over="ignore", invalid="ignore")
def _curvature_bounds(costs: CostSet, starts: list, quad: np.ndarray,
                      mats: np.ndarray, spectra: np.ndarray) -> tuple:
    """(rho_c, varrho_c) on costs.box, from the table's matrices `mats`,
    their spectra and which are quadratic (`quad`), in table order, where
    each agent's terms start at its row of `starts`.

    Agent i's Hessian is sum 2Q + sum 2 e^q (P + 2 P d d^T P), with
    d = z - c and q = d^T P d >= 0, so it is at least 2 (sum Q + sum P):
    rho_c = min_i lambda_min of that.  On the box |d| <= D, with D_k =
    max(|lo_k - c_k|, |hi_k - c_k|), so q <= D^T |P| D and ||P d|| <=
    || |P| D ||: varrho_c = max_i lambda_max(2 sum Q) plus, per
    exp-quadratic term, 2 exp(D^T |P| D) (lambda_max(P) + 2 || |P| D ||^2),
    the bound at the farthest vertex for a diagonal P.  A bound that
    overflows gives a non-finite constant, without a warning.
    """
    n = costs.n_agents
    # each agent's summed matrices' spectrum: its term's, for one term
    lam = spectra if len(mats) == n else np.linalg.eigvalsh(
        np.add.reduceat(mats, starts))
    varrho = 2.0 * lam[:, -1]  # lambda_max(2 sum Q) if every term is one
    expq = [(i, c, k) for k, (i, f, _, c) in enumerate(costs.terms)
            if f == "exp_quadratic"]
    if expq:
        varrho = 2.0 * np.linalg.eigvalsh(np.add.reduceat(
            mats * quad[:, None, None], starts))[:, -1]
        agent, cents, rows = map(np.array, zip(*expq))
        lo, hi = costs.box[:, 0], costs.box[:, 1]
        D = np.maximum(abs(lo - cents), abs(hi - cents))
        PD = (abs(mats[rows]) @ D[..., None])[..., 0]
        bound = 2.0 * np.exp((D * PD).sum(axis=-1)) * (
            spectra[rows, -1] + 2.0 * (PD * PD).sum(axis=-1))
        varrho = varrho + np.bincount(agent, weights=bound, minlength=n)
    return float(2.0 * lam[:, 0].min()), float(varrho.max())


def _term_batches(terms: list, n_agents: int) -> list:
    """Group the term table by family for batched gradients and
    Hessians, in table order (so by agent).

    An agent's quadratic terms merge into one, (z - c)^T Q (z - c) with
    Q = sum_k Q_k and Q c = sum_k Q_k c_k (the same gradient), and the
    quadratic batch holds 2Q, which its gradient multiplies by
    (doubling is exact) and which is its Hessian.  Returns a list of
    (idx, mats, centers, unique, kernels), one per family present, where
    idx is None for one term per agent in agent order and kernels is the
    family's (gradient, Hessian) pair.
    """
    quads = {}
    for i, fam, mat, center in terms:
        if fam == "quadratic":
            quads.setdefault(i, []).append((mat, center))
    quad = []
    for i, ts in quads.items():
        Q, c = ts[0]
        if len(ts) > 1:
            Q = sum(Qk for Qk, _ in ts)
            c = np.linalg.solve(Q, sum(Qk @ ck for Qk, ck in ts))
        quad.append((i, Q, c))
    expq = [(i, mat, center) for i, fam, mat, center in terms
            if fam == "exp_quadratic"]

    def pack(items, kernels, scale):
        idx = np.array([i for i, _, _ in items])
        mats = scale * np.array([m for _, m, _ in items])
        cents = np.array([c for _, _, c in items])
        if np.array_equal(idx, np.arange(n_agents)):
            idx = None  # one term per agent, already in agent order
        unique = idx is None or len(set(idx.tolist())) == len(idx)
        return idx, mats, cents, unique, kernels

    return [pack(items, kernels, scale) for items, kernels, scale in
            ((quad, (_quad_grads, _quad_hessians), 2.0),
             (expq, (_expq_grads, _expq_hessians), 1.0)) if items]


# each family's gradient and Hessian rows at offsets D = z - center from
# its batch's matrices Ms and the products MD = Ms d, one row per row of D
# (several per term when Ms broadcasts over them)

def _quad_grads(Q2s: np.ndarray, D: np.ndarray,
                Q2D: np.ndarray) -> np.ndarray:
    """Rows 2 Q_k d_k of quadratic terms, from the doubled matrices
    Q2s = 2 Q_k: their products."""
    return Q2D


def _expq_grads(Ps: np.ndarray, D: np.ndarray, PD: np.ndarray) -> np.ndarray:
    """Rows 2 exp(d'P d) P d of exp-quadratic terms."""
    e2 = np.exp(np.add.reduce(D * PD, axis=-1, keepdims=True))
    e2 *= 2.0
    return e2 * PD


def _quad_hessians(Q2s: np.ndarray, D: np.ndarray,
                   Q2D: np.ndarray) -> np.ndarray:
    """The doubled matrices Q2s = 2 Q_k at every row of D, shaped as D
    with a trailing axis of length dim (a new array)."""
    return np.broadcast_to(Q2s, D.shape + D.shape[-1:]).copy()


def _expq_hessians(Ps: np.ndarray, D: np.ndarray,
                   PD: np.ndarray) -> np.ndarray:
    """2 exp(d'P d) (P + 2 P d (P d)^T) of exp-quadratic terms, shaped as
    in _quad_hessians."""
    e2 = np.exp(np.add.reduce(D * PD, axis=-1, keepdims=True))
    e2 *= 2.0
    return e2[..., None] * (Ps + 2.0 * PD[..., :, None] * PD[..., None, :])


def gradients_at(costs: CostSet, z) -> np.ndarray:
    """grad F(1 (x) z): every agent's gradient at the one point z, as
    (N, dim); their sum over agents is the team gradient."""
    z = np.asarray(z, dtype=float)
    return costs.grad_stack(np.tile(z, (costs.n_agents, 1)))


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
    """Centralized optimum by damped Newton from z = 0, on the team
    gradient g and Hessian H (`gradients_at` and `hessian_stack`, summed
    over the agents) alone.

    H >= N rho_c I > 0, so the Newton step d = -H^-1 g descends on the
    merit ||g||^2 (g.H.d = -||g||^2): the line search halves t from 1
    until ||g(z + t d)||^2 <= (1 - 2e-4 t) ||g(z)||^2.  The iteration stops
    at ||g|| <= max(1e-8, 8 eps || sum_i |grad f_i(z)| + |H| |z| ||), the
    round-off of the summed gradient and of z itself.  It refuses, with no
    numpy warning, a gradient norm, Hessian or step that is not finite at
    an iterate, a Hessian singular once rounded (an exp-quadratic term
    far larger than N rho_c), a line search that reaches t = 1e-12, and a
    z* outside costs.box, on which rho_c and varrho_c hold.  The
    certificate records the final gradient norm so downstream error
    computations can budget for it.
    """
    if costs.rho_c <= 0:
        raise DptcoError("optimum oracle needs rho_c > 0")
    z = np.zeros(costs.dim)
    G, g, g_norm = _team_gradient(costs, z)
    _finite(f"optimum oracle: the team gradient norm at z = {z.tolist()}",
            g_norm)
    it = 0
    while True:
        H = _finite(f"optimum oracle: the team Hessian at z = {z.tolist()}",
                    costs.hessian_stack(np.tile(z, (costs.n_agents, 1))
                                        ).sum(axis=0))
        if g_norm <= max(_NEWTON_TOL, _ROUND_OFF * float(np.linalg.norm(
                abs(G).sum(axis=0) + abs(H) @ abs(z)))):
            break
        if it >= _NEWTON_MAX_ITER:
            raise DptcoError(f"Newton exceeded {_NEWTON_MAX_ITER} iterations")
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError as exc:  # N rho_c I below H's round-off
            raise DptcoError(f"optimum oracle: the team Hessian at z = "
                             f"{z.tolist()} is singular once rounded") from exc
        _finite(f"optimum oracle: the Newton step at z = {z.tolist()}", step)
        t = 1.0  # the merit test on norms: their squares may overflow
        while True:
            z_new = z + t * step
            G_new, g_new, norm_new = _team_gradient(costs, z_new)
            if norm_new <= math.sqrt(1.0 - 2e-4 * t) * g_norm:
                break
            t *= 0.5
            if t <= 1e-12:
                raise DptcoError(f"optimum oracle: the line search found no "
                                 f"decrease from z = {z.tolist()}")
        z, G, g, g_norm = z_new, G_new, g_new, norm_new
        it += 1
    if not ((costs.box[:, 0] <= z) & (z <= costs.box[:, 1])).all():
        raise DptcoError(f"optimum oracle: z* = {z.tolist()} lies outside the "
                         f"working box {costs.box.tolist()}, on which rho_c "
                         "and varrho_c hold")
    return OptimumCertificate(z, g_norm, it)


def _team_gradient(costs: CostSet, z: np.ndarray) -> tuple:
    """(every agent's gradient, their sum g, ||g||) at z."""
    G = gradients_at(costs, z)
    g = G.sum(axis=0)
    return G, g, float(np.linalg.norm(g))
