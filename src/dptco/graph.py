"""Undirected communication topology.

Builds the weighted Laplacian matrix, computes the spectral
constants lambda_2 (algebraic connectivity) and lambda_N, and certifies
connectivity.  All objects are immutable after construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DptcoError

_CONNECTIVITY_TOL = 1e-10


@dataclass(frozen=True)
class Network:
    """Undirected weighted graph with Laplacian spectrum."""

    n_agents: int
    laplacian: np.ndarray
    lambda2: float
    lambdaN: float


def build_network(n_agents: int, edges: list) -> Network:
    """Build a Network from (i, j, weight) edge triples.

    The Laplacian is l_ii = sum_j a_ij, l_ij = -a_ij; its spectrum comes
    from numpy's symmetric eigensolver.  Weights must be finite and > 0,
    and there must be two nodes at least: one has no lambda_2.  A
    connected graph of n nodes has n - 1 edges at least, so fewer are
    refused before the n x n Laplacian is allocated.
    """
    n = int(n_agents)
    if n < 2:
        raise ValueError(f"n_agents must be at least 2, got {n}: lambda2 "
                         "is undefined")
    if len(edges) < n - 1:
        raise ValueError(f"{len(edges)} edges cannot connect {n} agents, "
                         f"which takes n_agents - 1 = {n - 1} at least")
    lap = np.zeros((n, n))
    for k, edge in enumerate(edges):
        try:
            i, j, w = edge
        except (TypeError, ValueError):
            raise ValueError(f"edges[{k}] must be [i, j, weight], got "
                             f"{edge!r}") from None
        for end in (i, j):
            if type(end) is not int and not float(end).is_integer():
                raise ValueError(f"edges[{k}] endpoint must be a whole "
                                 f"number, got {end!r}")
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise DptcoError(f"self loop at node {i}")
        if not (math.isfinite(w) and w > 0):
            raise DptcoError(f"edge ({i},{j}) has weight {w}, not "
                             "finite and > 0")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) outside 0..{n - 1}")
        lap[i, j] = lap[j, i] = -w
    # l_ii from the row's -a_ij; 0.0 - 0.0 keeps an empty row's +0.0
    np.fill_diagonal(lap, 0.0 - lap.sum(axis=1))
    eigs = np.linalg.eigvalsh(lap)
    lap.setflags(write=False)
    return Network(n, lap, float(eigs[1]), float(eigs[-1]))


def require_connected(net: Network) -> dict:
    """Certify connectivity with two independent witnesses.

    Passes iff lambda2 > 1e-10 AND a breadth-first search from node 0
    along the Laplacian's nonzero entries reaches every node.
    """
    reached = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in np.flatnonzero(net.laplacian[i]).tolist():
            if j not in reached:
                reached.add(j)
                queue.append(j)
    unreached = set(range(net.n_agents)) - reached
    if unreached or net.lambda2 <= _CONNECTIVITY_TOL:
        raise DptcoError("graph is disconnected, unreached nodes: "
                         f"{sorted(unreached)}")
    return {"lambda2": net.lambda2, "bfs_reached": len(reached)}
