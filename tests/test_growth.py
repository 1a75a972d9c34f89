import numpy as np
import pytest

from districter import (ConfigError, Plan, enumerate_feasible_plans,
                        generate_grid_instance, guided_growth,
                        init_population, validate_plan)

from conftest import plans_equal


def test_guided_growth_starts_at_the_centers(grid3):
    for s in range(5):
        plan = guided_growth(grid3, np.random.default_rng(s))
        assert plan.assignment[0] == 0 and plan.assignment[8] == 1

    # one lone center grows over the whole map
    lone = generate_grid_instance(2, 2, 1, seed=0)
    plan = guided_growth(lone, np.random.default_rng(0))
    assert list(plan.assignment) == [0, 0, 0, 0]


def test_guided_growth_feasible(grid3):
    for s in range(25):
        plan = guided_growth(grid3, np.random.default_rng(s))
        assert validate_plan(plan, grid3.graph, 1.0).hard_ok


def test_guided_growth_path_both_outcomes(path3):
    outcomes = set()
    for s in range(40):
        plan = guided_growth(path3, np.random.default_rng(s))
        assert validate_plan(plan, path3.graph, 1.0).hard_ok
        outcomes.add(int(plan.assignment[1]))
    assert outcomes == {0, 1}


def test_guided_growth_all_centers():
    inst = generate_grid_instance(2, 2, 4, seed=0)
    plan = guided_growth(inst, np.random.default_rng(0))
    assert list(plan.assignment) == [0, 1, 2, 3]  # seeded plan, unchanged
    assert validate_plan(plan, inst.graph, 1.0).hard_ok


def test_init_population(grid3):
    pop = init_population(grid3, 10, np.random.default_rng(3))
    assert len(pop) == 10
    for plan in pop:
        assert validate_plan(plan, grid3.graph, 1.0).hard_ok

    single = init_population(grid3, 1, np.random.default_rng(3))
    assert len(single) == 1

    with pytest.raises(ConfigError):
        init_population(grid3, 0, np.random.default_rng(3))


def test_init_population_warm_start(grid3):
    warm = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), grid3.centers)
    pop = init_population(grid3, 5, np.random.default_rng(0), warm_start=warm)
    assert all(plans_equal(m, warm) for m in pop)

    # a warm start with a broken territory is repaired before replication
    broken = Plan(np.array([0, 0, 1, 1, 1, 0, 1, 1, 1]), grid3.centers)
    pop = init_population(grid3, 3, np.random.default_rng(0), warm_start=broken)
    first = pop[0]
    assert validate_plan(first, grid3.graph, 1.0).hard_ok
    assert all(plans_equal(m, first) for m in pop)


def test_init_population_deterministic(grid3):
    a = init_population(grid3, 8, np.random.default_rng(11))
    b = init_population(grid3, 8, np.random.default_rng(11))
    assert all(plans_equal(x, y) for x, y in zip(a, b))


def test_growth_covers_every_feasible_partition(grid3):
    """Every valid 2-partition of the 3x3 grid is produced within 1000
    seeded growths (oracle: exhaustive enumeration filtered by contiguity)."""
    target = {p.assignment.tobytes() for p in enumerate_feasible_plans(grid3)}
    assert len(target) == 30
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(1000):
        seen.add(guided_growth(grid3, rng)
                 .assignment.tobytes())
    assert seen == target
