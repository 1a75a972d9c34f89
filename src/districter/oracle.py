"""Exhaustive enumeration of feasible plans on tiny instances.

The enumerator is the independent ground truth the stochastic solvers are
checked against: it tries every assignment of the non-center nodes, keeps the
contiguous ones, and scores each with the same objective the solvers use.
Cost grows as K^(N-K); instances beyond ``MAX_NODES`` nodes are refused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import Plan, is_connected
from .objective import objective_value

MAX_NODES = 16
MAX_STATES = 2 ** 22


@dataclass
class OracleResult:
    best_j: float
    best_plan: Plan
    feasible_count: int


def enumerate_feasible_plans(instance):
    """Yield every hard-feasible plan, in lexicographic assignment order."""
    n = instance.node_count
    k = instance.territory_count
    if n > MAX_NODES:
        raise ConfigError(
            f"exhaustive enumeration refused: {n} nodes exceeds the "
            f"{MAX_NODES}-node bound")
    free = np.setdiff1d(np.arange(n), instance.centers)
    states = k ** len(free)
    if states > MAX_STATES:
        raise ConfigError(
            f"exhaustive enumeration refused: {states} assignments to test")
    graph = instance.graph
    base = np.zeros(n, dtype=np.int64)
    base[instance.centers] = np.arange(k)
    for labels in itertools.product(range(k), repeat=len(free)):
        a = base.copy()
        a[free] = labels
        if all(is_connected(graph, np.flatnonzero(a == t)) for t in range(k)):
            yield Plan(a, instance.centers.copy())


def exhaustive_optimum(instance) -> OracleResult:
    """Optimal objective over all feasible plans (first optimum wins ties,
    so the result is deterministic)."""
    best_j = np.inf
    best_plan = None
    count = 0
    for plan in enumerate_feasible_plans(instance):
        count += 1
        j = objective_value(plan, instance)
        if j < best_j:
            best_j, best_plan = j, plan
    if best_plan is None:
        raise ConfigError("instance admits no feasible plan")
    return OracleResult(best_j=float(best_j), best_plan=best_plan,
                        feasible_count=count)
