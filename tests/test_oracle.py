import itertools

import networkx as nx
import numpy as np
import pytest

from districter import (ConfigError, generate_grid_instance, objective_value,
                        validate_plan)
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
