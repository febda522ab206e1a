"""Undirected communication topology.

Builds the weighted adjacency and Laplacian matrices, computes the spectral
constants lambda_2 (algebraic connectivity) and lambda_N, and certifies
connectivity.  All objects are immutable after construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, NegativeWeight, SelfLoop

_CONNECTIVITY_TOL = 1e-10


@dataclass(frozen=True)
class Network:
    """Undirected weighted graph with Laplacian spectrum."""

    n_agents: int
    adjacency: np.ndarray
    laplacian: np.ndarray
    lambda2: float
    lambdaN: float


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
    adj.setflags(write=False)
    lap.setflags(write=False)
    return Network(n, adj, lap, lambda2, lambdaN)


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
        for j in np.flatnonzero(net.adjacency[i]).tolist():
            if j not in reached:
                reached.add(j)
                queue.append(j)
    unreached = set(range(net.n_agents)) - reached
    if unreached or net.lambda2 <= _CONNECTIVITY_TOL:
        raise Disconnected(unreached if unreached else set())
    return {"lambda2": net.lambda2, "bfs_reached": len(reached)}
