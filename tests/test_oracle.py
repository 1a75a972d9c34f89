import itertools

import networkx as nx
import numpy as np
import pytest

from districter import (ConfigError, generate_grid_instance, is_connected,
                        objective_value, validate_plan)
from districter.oracle import enumerate_feasible_plans, exhaustive_optimum


def test_path_has_two_feasible_plans(path3):
    plans = list(enumerate_feasible_plans(path3))
    assert len(plans) == 2
    assert sorted(tuple(p.assignment) for p in plans) \
        == [(0, 0, 1), (0, 1, 1)]


def test_all_centers_single_plan():
    inst = generate_grid_instance(2, 2, 4, seed=0)
    result = exhaustive_optimum(inst)
    assert result.feasible_count == 1
    assert result.best_j == objective_value(result.best_plan, inst)


def test_enumerated_plans_are_feasible_and_optimal(grid3):
    plans = list(enumerate_feasible_plans(grid3))
    assert len(plans) == 30
    js = []
    for p in plans:
        assert validate_plan(p, grid3.graph, 1.0).hard_ok
        js.append(objective_value(p, grid3))
    result = exhaustive_optimum(grid3)
    assert result.best_j == min(js)


def test_size_guard():
    inst = generate_grid_instance(5, 4, 2, seed=0)  # 20 nodes
    with pytest.raises(ConfigError):
        list(enumerate_feasible_plans(inst))


def test_state_count_guard():
    inst = generate_grid_instance(4, 4, 8, seed=0)  # 8^8 = 1.6e7 > bound
    with pytest.raises(ConfigError):
        list(enumerate_feasible_plans(inst))


@pytest.mark.parametrize("rows, cols, k", [(3, 3, 2), (2, 4, 3), (3, 4, 3)])
def test_enumeration_matches_networkx_filter(rows, cols, k):
    """The enumerator yields exactly the assignments of the free nodes, in
    itertools.product order, whose every territory networkx finds
    connected."""
    inst = generate_grid_instance(rows, cols, k, seed=rows * cols + k)
    n = rows * cols
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(inst.graph.edges.tolist())
    free = [v for v in range(n) if v not in set(inst.centers.tolist())]
    expected = []
    for labels in itertools.product(range(k), repeat=len(free)):
        a = np.zeros(n, dtype=np.int64)
        a[inst.centers] = np.arange(k)
        a[free] = labels
        if all(nx.is_connected(g.subgraph(np.flatnonzero(a == t).tolist()))
               for t in range(k)):
            expected.append(a.tolist())
    plans = list(enumerate_feasible_plans(inst))
    assert [p.assignment.tolist() for p in plans] == expected
    assert all(np.array_equal(p.centers, inst.centers) for p in plans)


def brute_force_plans(inst):
    """Every assignment of the free nodes in itertools.product order, kept
    when each territory is connected: the enumeration without pruning."""
    n, k = inst.node_count, inst.territory_count
    free = np.setdiff1d(np.arange(n), inst.centers)
    base = np.zeros(n, dtype=np.int64)
    base[inst.centers] = np.arange(k)
    plans = []
    for labels in itertools.product(range(k), repeat=len(free)):
        a = base.copy()
        a[free] = labels
        if all(is_connected(inst.graph, np.flatnonzero(a == t))
               for t in range(k)):
            plans.append(a.tolist())
    return plans


@pytest.mark.parametrize("rows, cols, k, seed", [
    (1, 6, 2, 0), (1, 7, 3, 1), (2, 3, 2, 2), (2, 4, 4, 3), (3, 3, 3, 4),
    (2, 5, 3, 5), (3, 4, 2, 6), (3, 3, 4, 7)])
def test_pruned_enumeration_matches_brute_force(rows, cols, k, seed):
    """Dropping the prefixes no completion can make contiguous leaves the
    plans of the unpruned loop, in the same order."""
    inst = generate_grid_instance(rows, cols, k, seed=seed)
    plans = [p.assignment.tolist() for p in enumerate_feasible_plans(inst)]
    assert plans == brute_force_plans(inst)
    assert plans


def test_four_by_four_enumeration_is_pruned():
    """The 4 x 4, K = 3 grid of seed 0 has 3**13 assignments and 753
    feasible plans; the enumeration tests few of the rest."""
    inst = generate_grid_instance(4, 4, 3, seed=0)
    result = exhaustive_optimum(inst)
    assert result.feasible_count == 753
    assert result.best_plan.assignment.tolist() == [
        0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2]
