import numpy as np
import pytest

from districter import (InstanceError, Plan, connected_components, cut_edges,
                        is_connected, neighbors_of_territory, validate_plan)
from districter.graph import ContiguityGraph

from conftest import make_grid_graph


@pytest.fixture(scope="module")
def g3():
    return make_grid_graph(3, 3, pop=np.full(9, 10), cap=np.zeros(9))


def plan_on(g3, assignment, centers=(0, 8)):
    return Plan(np.asarray(assignment), np.asarray(centers))


def test_neighbors_of_territory(g3):
    p = plan_on(g3, [0, 0, 1, 0, 1, 1, 1, 1, 1])
    assert set(neighbors_of_territory(p, g3, 0)) == {2, 4, 6}
    whole = plan_on(g3, [0] * 9, centers=(0,))
    assert neighbors_of_territory(whole, g3, 0).size == 0
    center_only = plan_on(g3, [1, 1, 1, 1, 0, 1, 1, 1, 1], centers=(4, 0))
    assert set(neighbors_of_territory(center_only, g3, 0)) == {1, 3, 5, 7}


def test_neighbors_of_territory_bad_index(g3):
    p = plan_on(g3, [0, 0, 0, 0, 0, 1, 1, 1, 1])
    with pytest.raises(IndexError):
        neighbors_of_territory(p, g3, 2)


def test_is_connected(g3):
    assert is_connected(g3, [0, 1, 2])
    assert not is_connected(g3, [0, 2])
    assert is_connected(g3, [4])
    assert not is_connected(g3, [])


def test_connected_components(g3):
    comps = connected_components(g3, [0, 2, 6, 7, 8])
    assert [set(c) for c in comps] == [{0}, {2}, {6, 7, 8}]
    assert len(connected_components(g3, range(9))) == 1
    assert connected_components(g3, []) == []


def test_components_partition_and_connect(g3):
    rng = np.random.default_rng(0)
    for _ in range(25):
        nodes = np.flatnonzero(rng.random(9) < 0.6)
        comps = connected_components(g3, nodes)
        merged = sorted(int(v) for c in comps for v in c)
        assert merged == sorted(int(v) for v in nodes)
        for c in comps:
            assert is_connected(g3, c)
        for i, c in enumerate(comps[:-1]):
            assert c.min() < comps[i + 1].min()


def random_connected_graph(rng, n):
    """Random spanning tree plus extra edges."""
    adj = [set() for _ in range(n)]
    order = rng.permutation(n)
    for i in range(1, n):
        u, v = int(order[i]), int(order[rng.integers(i)])
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(rng.integers(0, n)):
        u, v = rng.integers(n, size=2)
        if u != v:
            adj[int(u)].add(int(v))
            adj[int(v)].add(int(u))
    return ContiguityGraph([sorted(s) for s in adj])


def test_is_connected_matches_matrix_power_oracle():
    """is_connected and connected_components against reachability computed
    from powers of the induced adjacency matrix, on random graphs of up to
    64 nodes: the component node sets, each array sorted, the order by
    smallest member, and independence from the order the nodes are given."""
    rng = np.random.default_rng(7)
    split_deep = 0      # cases with several components, one of 4+ nodes
    for _ in range(40):
        n = int(rng.integers(2, 65))
        graph = random_connected_graph(rng, n)
        nodes = np.flatnonzero(rng.random(n) < rng.uniform(0.2, 0.8))
        a = np.zeros((n, n), dtype=bool)
        for u, v in graph.edges:
            a[u, v] = a[v, u] = True
        mask = np.zeros(n, dtype=bool)
        mask[nodes] = True
        induced = a & mask[:, None] & mask[None, :]
        reach = np.eye(n, dtype=bool) | induced
        for _ in range(n):
            reach = reach | (reach @ induced)
        expected = []   # nodes ascend, so components come by smallest member
        for v in nodes:
            if not any(v in c for c in expected):
                expected.append(nodes[reach[v, nodes]])

        comps = connected_components(graph, list(rng.permutation(nodes)))
        assert len(comps) == len(expected)
        for got, want in zip(comps, expected):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert is_connected(graph, nodes) == (len(expected) == 1)
        if len(expected) > 1 and max(len(c) for c in expected) >= 4:
            split_deep += 1
    assert split_deep >= 10


def test_cut_edges(g3):
    vertical = plan_on(g3, [0, 0, 1, 0, 0, 1, 0, 0, 1], centers=(0, 2))
    assert cut_edges(vertical, g3) == 3
    assert cut_edges(plan_on(g3, [0] * 9, centers=(0,)), g3) == 0


def test_cut_edges_relabel_invariant(g3):
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.integers(0, 3, size=9)
        p = Plan(a, np.array([0, 4, 8]))
        perm = rng.permutation(3)
        relabeled = Plan(perm[a], np.array([0, 4, 8])[np.argsort(perm)])
        assert cut_edges(p, g3) == cut_edges(relabeled, g3)


def test_validate_plan_passes(g3):
    p = plan_on(g3, [0, 0, 0, 0, 0, 1, 1, 1, 1])
    result = validate_plan(p, g3, tau=1.0)
    assert result.hard_ok and result.unique_assignment and result.centers_ok


def test_validate_plan_center_moved(g3):
    p = plan_on(g3, [0, 0, 0, 0, 0, 0, 0, 0, 0])  # center 8 not in territory 1
    result = validate_plan(p, g3, tau=1.0)
    assert not result.centers_ok
    assert any("center moved" in msg for msg in result.hard_violations)


def test_validate_plan_disconnected(g3):
    a = np.ones(9, dtype=np.int64)
    a[0] = 0
    a[2] = 0  # territory 0 = {0, 2}: no shared edge
    result = validate_plan(Plan(a, np.array([0, 8])), g3, tau=1.0)
    assert not result.contiguity_ok
    assert any("disconnected" in msg for msg in result.hard_violations)


def test_validate_plan_band_is_soft():
    g = make_grid_graph(3, 3, pop=np.full(9, 10), cap=np.array(
        [60, 0, 0, 0, 0, 0, 0, 0, 30]))
    p = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), np.array([0, 8]))
    result = validate_plan(p, g, tau=0.05)
    assert result.hard_ok and not result.band_ok and result.soft_violations
    assert validate_plan(p, g, tau=1.0).band_ok


def test_validate_plan_requires_territories(g3):
    with pytest.raises(InstanceError):
        validate_plan(Plan(np.zeros(9, dtype=np.int64), np.array([], dtype=np.int64)),
                      g3, tau=0.1)
    with pytest.raises(ValueError):
        validate_plan(plan_on(g3, [0, 0, 0, 0, 0, 1, 1, 1, 1]), g3, tau=-1.0)


def test_graph_construction_contracts():
    with pytest.raises(InstanceError):
        ContiguityGraph([[1], []])  # asymmetric
    with pytest.raises(InstanceError):
        ContiguityGraph([[0, 1], [0]])  # self-loop
    with pytest.raises(InstanceError):
        ContiguityGraph([[1], [0], []])  # disconnected
