import numpy as np
import pytest

from districter import (ConfigError, MemeticConfig, Plan, SearchConfig,
                        generate_grid_instance, guided_growth,
                        init_population, objective_value, plans_equal,
                        recombine, repair, seed_plan, select_mate,
                        spatial_run, validate_plan)
from districter import local_search, memetic, objective
from districter.local_search import FlipState


def test_select_mate_proportional():
    rng = np.random.default_rng(0)
    picks = {select_mate([1.0, 1e-12], rng) for _ in range(200)}
    assert picks == {0}

    rng = np.random.default_rng(1)
    counts = np.bincount([select_mate([0.5] * 4, rng) for _ in range(10_000)],
                         minlength=4)
    # each frequency within 3 sigma of uniform
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 3 * sigma)

    with pytest.raises(ConfigError):
        select_mate([1.0], np.random.default_rng(2))


def test_recombine_identical_parents_noop(grid3):
    plan = guided_growth(seed_plan(grid3), grid3, np.random.default_rng(3))
    child, move = recombine(plan, plan, grid3, np.random.default_rng(4))
    assert move is None and plans_equal(child, plan)


def test_recombine_one_node_difference_is_noop(grid3):
    """Parents differing at a single node have no eligible territory: the
    shared part of each differing territory equals the smaller version, so a
    swap (which always moves two nodes) can never apply."""
    a = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), grid3.centers)
    b = Plan(np.array([0, 0, 0, 0, 1, 1, 1, 1, 1]), grid3.centers)
    child, move = recombine(a, b, grid3, np.random.default_rng(5))
    assert move is None and plans_equal(child, a)


def test_recombine_feasible_and_swap_structure():
    inst = generate_grid_instance(6, 6, 3, seed=6)
    rng = np.random.default_rng(7)
    ok = 0
    for trial in range(1000):
        p1 = guided_growth(seed_plan(inst), inst, rng)
        p2 = guided_growth(seed_plan(inst), inst, rng)
        child, move = recombine(p1, p2, inst, rng)
        assert validate_plan(child, inst.graph, 1.0).hard_ok
        if move is None:
            continue
        ok += 1
        t, incoming, outgoing = move
        # the swap strictly grows the territory's overlap with the guide
        assert p2.assignment[incoming] == t and p1.assignment[incoming] != t
        assert p1.assignment[outgoing] == t and p2.assignment[outgoing] != t
        assert incoming not in inst.centers and outgoing not in inst.centers
    assert ok > 900  # random parents almost always admit a swap


def test_repair_identity_on_feasible(grid3):
    plan = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), grid3.centers)
    fixed = repair(plan, grid3, np.random.default_rng(8))
    assert plans_equal(fixed, plan)


def test_repair_reassigns_orphan():
    inst = generate_grid_instance(3, 3, 2, seed=1, centers=(0, 4))
    # territory 0 = {0, 8}: node 8 is an orphan component
    a = np.ones(9, dtype=np.int64)
    a[0], a[4] = 0, 1
    a[8] = 0
    fixed = repair(Plan(a, inst.centers), inst, np.random.default_rng(9))
    assert validate_plan(fixed, inst.graph, 1.0).hard_ok
    assert fixed.assignment[8] == 1
    assert fixed.assignment[0] == 0


def test_repair_moves_exactly_the_orphan():
    inst = generate_grid_instance(1, 8, 2, seed=0, centers=(0, 4))
    # territory 0 = {0,1,2,3} + orphan {6,7}; territory 1 = {4,5}
    a = np.array([0, 0, 0, 0, 1, 1, 0, 0])
    fixed = repair(Plan(a, inst.centers), inst, np.random.default_rng(10))
    assert validate_plan(fixed, inst.graph, 1.0).hard_ok
    moved = np.flatnonzero(fixed.assignment != a)
    assert sorted(moved) == [6, 7]
    assert all(fixed.assignment[v] == 1 for v in (6, 7))


def test_repair_multiple_orphans_deterministic(grid3):
    a = np.array([0, 1, 0, 1, 1, 1, 0, 1, 1])  # territory 0 = {0, 2, 6}
    r1 = repair(Plan(a, grid3.centers), grid3, np.random.default_rng(11))
    r2 = repair(Plan(a, grid3.centers), grid3, np.random.default_rng(11))
    assert plans_equal(r1, r2)
    assert validate_plan(r1, grid3.graph, 1.0).hard_ok


def test_spatial_run_zero_iterations(grid3):
    cfg = MemeticConfig(population_size=6, iterations=0)
    res = spatial_run(grid3, cfg, np.random.default_rng(12))
    pop = init_population(grid3, 6, np.random.default_rng(12))
    js = [objective_value(p, grid3) for p in pop]
    assert res.best_j == min(js)
    assert res.trace == []


def test_spatial_run_trace_monotone_and_feasible(grid3):
    cfg = MemeticConfig(population_size=8, iterations=40,
                        search=SearchConfig(worse_accept_prob=0.05,
                                            debug_validate=True))
    res = spatial_run(grid3, cfg, np.random.default_rng(13))
    best_js = [row[1] for row in res.trace]
    assert all(a >= b for a, b in zip(best_js, best_js[1:]))
    assert validate_plan(res.best_plan, grid3.graph, 1.0).hard_ok
    assert res.best_j == best_js[-1]
    # centers never move through any operator
    assert all(res.best_plan.assignment[c] == i
               for i, c in enumerate(grid3.centers))


def test_spatial_run_warm_start(grid3):
    warm = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), grid3.centers)
    j_warm = objective_value(warm, grid3)
    cfg = MemeticConfig(population_size=4, iterations=10)
    res = spatial_run(grid3, cfg, np.random.default_rng(14), warm_start=warm)
    assert res.best_j <= j_warm


def test_spatial_run_deterministic(grid3):
    cfg = MemeticConfig(population_size=5, iterations=15)
    r1 = spatial_run(grid3, cfg, np.random.default_rng(15))
    r2 = spatial_run(grid3, cfg, np.random.default_rng(15))
    assert r1.best_j == r2.best_j
    assert plans_equal(r1.best_plan, r2.best_plan)
    assert [row[:5] for row in r1.trace] == [row[:5] for row in r2.trace]


def test_spatial_run_builds_a_flip_state_per_member_and_recombination(
        monkeypatch):
    """Each member keeps one walk for the whole run: a flip state is built
    for every initial member and for every accepted recombination, never by
    a local pass.  The best plan is a copy, still scoring the best J after
    the members have moved on."""
    built = []
    build = FlipState.__init__

    def counting_build(self, plan, instance, sums=None):
        built.append(plan)
        build(self, plan, instance, sums)

    monkeypatch.setattr(FlipState, "__init__", counting_build)
    inst = generate_grid_instance(8, 8, 4, seed=3, balance_profile="clustered")
    cfg = MemeticConfig(population_size=6, iterations=30,
                        search=SearchConfig(worse_accept_prob=0.05))
    res = spatial_run(inst, cfg, np.random.default_rng(16))
    assert res.accepted_flips > 0 and res.accepted_recombinations > 0
    assert len(built) == cfg.population_size + res.accepted_recombinations
    assert objective_value(res.best_plan, inst) == res.best_j


def test_spatial_run_sums_each_plan_once(monkeypatch):
    """A recombination candidate's territory sums are computed once, for the
    comparison, and handed to the member's new flip state if it is kept:
    territory_sums runs once per initial member and once per candidate."""
    summed, candidates = [], []
    sums_of, recombine_of = objective.territory_sums, memetic.recombine

    def counting_sums(plan, instance):
        summed.append(plan)
        return sums_of(plan, instance)

    def counting_recombine(*args):
        child, move = recombine_of(*args)
        if move is not None:
            candidates.append(child)
        return child, move

    for module in (objective, local_search, memetic):
        monkeypatch.setattr(module, "territory_sums", counting_sums,
                            raising=False)
    monkeypatch.setattr(memetic, "recombine", counting_recombine)
    inst = generate_grid_instance(8, 8, 4, seed=3, balance_profile="clustered")
    cfg = MemeticConfig(population_size=6, iterations=30,
                        search=SearchConfig(worse_accept_prob=0.05))
    res = spatial_run(inst, cfg, np.random.default_rng(16))
    assert 0 < res.accepted_recombinations < len(candidates)
    assert len(summed) == cfg.population_size + len(candidates)


def test_memetic_config_validation():
    with pytest.raises(ConfigError):
        MemeticConfig(population_size=1)  # recombination needs a mate
    MemeticConfig(population_size=1, recombination=False)
    with pytest.raises(ConfigError):
        MemeticConfig(population_size=0, recombination=False)
