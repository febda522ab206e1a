"""Topology, Laplacian spectrum, and the reduced orthonormal basis."""

import math

import numpy as np
import pytest

from dptco.errors import DptcoError
from dptco.graph import build_network, require_connected
from oracles import reduced_basis, reduced_laplacian

RING6 = [[i, (i + 1) % 6, 1.0] for i in range(6)]


def ring6():
    return build_network(6, RING6)


# --- Laplacian ---------------------------------------------------------------

def test_two_node_laplacian():
    net = build_network(2, [[0, 1, 1.0]])
    assert np.allclose(net.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    assert net.lambda2 == pytest.approx(2.0)
    assert net.lambdaN == pytest.approx(2.0)


def test_ring6_spectrum():
    # circulant eigenvalues 2 - 2cos(2 pi k / 6)
    net = ring6()
    assert net.lambda2 == pytest.approx(1.0, abs=1e-10)
    assert net.lambdaN == pytest.approx(4.0, abs=1e-10)


def test_path3_spectrum():
    net = build_network(3, [[0, 1, 1.0], [1, 2, 1.0]])
    assert net.lambda2 == pytest.approx(1.0, abs=1e-10)
    assert net.lambdaN == pytest.approx(3.0, abs=1e-10)


def test_laplacian_rows_sum_to_zero():
    net = ring6()
    assert np.allclose(net.laplacian.sum(axis=1), 0.0, atol=0.0)
    assert np.allclose(net.laplacian.sum(axis=0), 0.0, atol=0.0)


def test_laplacian_positive_semidefinite():
    net = build_network(5, [[0, 1, 0.5], [1, 2, 2.0], [2, 3, 1.0],
                            [3, 4, 1.0], [4, 0, 3.0], [1, 3, 0.25]])
    eigs = np.linalg.eigvalsh(net.laplacian)
    assert eigs.min() >= -1e-12


def test_rejects_self_loop():
    with pytest.raises(DptcoError, match="self loop at node 0"):
        build_network(3, [[0, 0, 1.0], [0, 1, 1.0], [1, 2, 1.0]])


def test_rejects_negative_weight():
    with pytest.raises(DptcoError, match=r"edge \(0,1\) has weight -1.0"):
        build_network(2, [[0, 1, -1.0]])


def test_neighbor_list_symmetry():
    # agent i's neighbors are the nonzero off-diagonal entries of
    # Laplacian row i, each -a_ij
    net = build_network(4, [[0, 1, 2.0], [1, 2, 1.0], [2, 3, 1.0]])
    adjacency = np.diag(net.laplacian.diagonal()) - net.laplacian

    def neighbors(i):
        return {int(j): adjacency[i, j] for j in np.flatnonzero(adjacency[i])}

    assert neighbors(0) == {1: 2.0}
    assert neighbors(1) == {0: 2.0, 2: 1.0}
    assert np.array_equal(adjacency, adjacency.T)


# --- connectivity ------------------------------------------------------------

def test_ring_connected():
    require_connected(ring6())


def test_disjoint_edges_disconnected():
    # a triangle and an edge: n - 1 = 4 edges, but two components
    net = build_network(5, [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0],
                            [3, 4, 1.0]])
    with pytest.raises(DptcoError, match="graph is disconnected") as exc:
        require_connected(net)
    unreached = str(exc.value).rpartition("unreached nodes: ")[2]
    assert unreached == "[3, 4]"


def test_too_few_edges_refused_before_the_laplacian():
    # a connected graph of n nodes has n - 1 edges at least; the n x n
    # Laplacian was allocated first, 7.28 TiB here
    with pytest.raises(ValueError, match="6 edges cannot connect 1000000 "
                       "agents, which takes n_agents - 1 = 999999 at least"):
        build_network(10 ** 6, RING6)


@pytest.mark.parametrize("n", [1, 0])
def test_fewer_than_two_nodes_refused(n):
    # lambda2 is undefined below two nodes
    with pytest.raises(ValueError, match=f"at least 2, got {n}"):
        build_network(n, [])


# --- reduced basis -----------------------------------------------------------

def test_reduced_basis_n2():
    basis = reduced_basis(2)
    expected = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert np.allclose(np.abs(basis.R[:, 0]), np.abs(expected))
    assert basis.R[np.nonzero(basis.R[:, 0])[0][0], 0] > 0


def test_reduced_basis_orthonormal():
    basis = reduced_basis(3)
    assert np.allclose(basis.R.T @ basis.R, np.eye(2), atol=1e-12)


def test_reduced_basis_projector():
    basis = reduced_basis(6)
    ones = np.ones(6)
    assert np.allclose(basis.R @ basis.R.T @ ones, 0.0, atol=1e-12)
    proj = np.eye(6) - np.outer(ones, ones) / 6.0
    assert np.allclose(basis.R @ basis.R.T, proj, atol=1e-10)


def test_reduced_basis_r_vector():
    basis = reduced_basis(5)
    assert np.allclose(basis.r, np.ones(5) / math.sqrt(5.0))
    assert np.allclose(basis.r @ basis.R, 0.0, atol=1e-12)


def test_reduced_laplacian_spectral_sandwich():
    # lambda2 I <= L_R <= lambdaN I
    net = ring6()
    L_R = reduced_laplacian(net)
    eigs = np.linalg.eigvalsh(L_R)
    assert eigs.min() >= net.lambda2 - 1e-10
    assert eigs.max() <= net.lambdaN + 1e-10
