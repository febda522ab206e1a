"""Undirected communication topology.

Builds the weighted adjacency and Laplacian matrices, computes the spectral
constants lambda_2 (algebraic connectivity) and lambda_N, certifies
connectivity, and provides the reduced orthonormal basis R orthogonal to the
consensus direction 1_N.  All objects are immutable after construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSize, Disconnected, NegativeWeight, SelfLoop

_CONNECTIVITY_TOL = 1e-10


@dataclass(frozen=True)
class Network:
    """Undirected weighted graph with Laplacian spectrum."""

    n_agents: int
    adjacency: np.ndarray
    laplacian: np.ndarray
    lambda2: float
    lambdaN: float
    neighbors: tuple = field(default=(), compare=False)

    def neighbor_list(self, i: int) -> list[tuple[int, float]]:
        """Neighbors of agent i as (j, weight) pairs."""
        return list(self.neighbors[i])


def build_network(n_agents: int, edges: list) -> Network:
    """Build a Network from (i, j, weight) edge triples.

    The Laplacian is l_ii = sum_j a_ij, l_ij = -a_ij; its spectrum comes
    from numpy's symmetric eigensolver.
    """
    n = int(n_agents)
    adj = np.zeros((n, n))
    for i, j, w in edges:
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise SelfLoop(f"self loop at node {i}")
        if w <= 0:
            raise NegativeWeight(f"edge ({i},{j}) has weight {w} <= 0")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) outside 0..{n - 1}")
        adj[i, j] = w
        adj[j, i] = w
    lap = np.diag(adj.sum(axis=1)) - adj
    if n >= 2:
        eigs = np.linalg.eigvalsh(lap)
        lambda2 = float(eigs[1])
        lambdaN = float(eigs[-1])
    else:
        lambda2 = math.nan
        lambdaN = math.nan
    neigh = tuple(
        tuple((j, adj[i, j]) for j in range(n) if adj[i, j] > 0.0)
        for i in range(n)
    )
    adj.setflags(write=False)
    lap.setflags(write=False)
    return Network(n, adj, lap, lambda2, lambdaN, neigh)


def require_connected(net: Network) -> dict:
    """Certify connectivity with two independent witnesses.

    Passes iff lambda2 > 1e-10 AND a breadth-first search from node 0
    reaches every node.  A single node is connected vacuously.
    """
    if net.n_agents == 1:
        return {"lambda2": None, "bfs_reached": 1}
    reached = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j, _ in net.neighbors[i]:
            if j not in reached:
                reached.add(j)
                queue.append(j)
    unreached = set(range(net.n_agents)) - reached
    if unreached or net.lambda2 <= _CONNECTIVITY_TOL:
        raise Disconnected(unreached if unreached else set())
    return {"lambda2": net.lambda2, "bfs_reached": len(reached)}


@dataclass(frozen=True)
class ReducedBasis:
    """Consensus direction r = 1_N/sqrt(N) and its orthonormal complement R."""

    r: np.ndarray
    R: np.ndarray


def reduced_basis(net_or_n) -> ReducedBasis:
    """Orthonormal complement of the consensus direction.

    Columns of R come from Gram-Schmidt on e_1..e_{N-1} against r, with
    each column's first nonzero entry made positive, so the basis is
    deterministic for fixed N.
    """
    n = net_or_n.n_agents if isinstance(net_or_n, Network) else int(net_or_n)
    if n < 2:
        raise DegenerateSize(f"reduced basis needs N >= 2, got {n}")
    r = np.full(n, 1.0 / math.sqrt(n))
    cols = []
    for k in range(n - 1):
        v = np.zeros(n)
        v[k] = 1.0
        v -= (r @ v) * r
        for c in cols:
            v -= (c @ v) * c
        nv = np.linalg.norm(v)
        v /= nv
        nz = np.flatnonzero(np.abs(v) > 1e-14)[0]
        if v[nz] < 0:
            v = -v
        cols.append(v)
    R = np.column_stack(cols)
    r.setflags(write=False)
    R.setflags(write=False)
    return ReducedBasis(r, R)


def reduced_laplacian(net: Network, basis: ReducedBasis | None = None) -> np.ndarray:
    """L_R = R^T L R, the Laplacian restricted to the disagreement subspace."""
    if basis is None:
        basis = reduced_basis(net)
    return basis.R.T @ net.laplacian @ basis.R
