import json
import math

import numpy as np
import pytest

from districter import (ConfigError, EvaluationError, ObjectiveConfig, Plan,
                        balance_score, build_instance, compactness_score,
                        cut_edges, evaluate, fitness, generate_grid_instance,
                        load_instance, objective_terms, objective_value,
                        planning_report)
from districter.objective import _max_internal_edges, territory_sums

from conftest import (hex_ring, make_grid_instance, make_hex_graph,
                      make_ragged_graph)


def balance_only_instance(pop0, cap0, pop1, cap1):
    """grid3 with centers {0, 8}; territory pops/caps land as requested for
    the split {0..4} | {5..8} under a pure-balance objective."""
    pop = np.zeros(9, dtype=np.int64)
    pop[0], pop[8] = pop0, pop1
    cap = np.zeros(9, dtype=np.int64)
    cap[0], cap[8] = cap0, cap1
    config = ObjectiveConfig(balance_weight=1.0, compactness_mode="polsby_popper")
    return make_grid_instance(3, 3, (0, 8), pop, cap, config)


SPLIT = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), np.array([0, 8]))


def test_evaluate_perfect_balance_is_zero():
    inst = balance_only_instance(5, 5, 4, 4)
    report = evaluate(SPLIT, inst)
    assert report.j == 0.0 and report.balance_term == 0.0


def test_evaluate_direct_formula():
    inst = balance_only_instance(4, 5, 5, 4)
    report = evaluate(SPLIT, inst)
    assert report.j == pytest.approx(0.2 + 0.25, abs=1e-12)
    assert report.per_territory[0]["ratio"] == pytest.approx(0.8)


def test_evaluate_zero_capacity_territory():
    inst = balance_only_instance(4, 5, 5, 4)
    all_zero = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 0]), np.array([0, 8]))
    # territory 1 = {5, 6, 7}: no capacity there
    with pytest.raises(EvaluationError):
        evaluate(all_zero, inst)


def test_decomposition_identity():
    inst = generate_grid_instance(5, 5, 3, seed=4)
    w = inst.objective_config.balance_weight
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 3, size=25)
        a[inst.centers] = np.arange(3)
        report = evaluate(Plan(a, inst.centers), inst)
        assert abs(report.j - (w * report.balance_term
                               + (1 - w) * report.compactness_term)) <= 1e-12


def test_fitness():
    assert fitness(0.0) == 1.0
    assert fitness(1.0) == 0.5
    assert fitness(0.45) == pytest.approx(1 / 1.45, abs=1e-9)
    rng = np.random.default_rng(1)
    js = np.sort(rng.uniform(0, 5, size=50))
    f = [fitness(j) for j in js]
    assert all(a > b for a, b in zip(f, f[1:]) if a != b)
    assert all(fitness(x) > fitness(y) for x, y in zip(js, js[1:]) if x < y)


def test_balance_score():
    assert balance_score(SPLIT, balance_only_instance(5, 5, 4, 4)) == 100.0
    inst = balance_only_instance(4, 5, 5, 4)  # deviations 0.2 and 0.25
    assert balance_score(SPLIT, inst) == pytest.approx(100 * (1 - 0.225))
    both02 = balance_only_instance(8, 10, 12, 10)  # deviations 0.2 and 0.2
    assert balance_score(SPLIT, both02) == pytest.approx(80.0)


def test_compactness_score_single_square():
    inst = generate_grid_instance(1, 1, 1, seed=0)
    plan = Plan(np.array([0]), inst.centers)
    assert compactness_score(plan, inst) == pytest.approx(100 * math.pi / 4)


def test_relabeling_invariance():
    inst = generate_grid_instance(4, 4, 2, seed=3)
    rng = np.random.default_rng(2)
    a = rng.integers(0, 2, size=16)
    a[inst.centers] = [0, 1]
    plan = Plan(a, inst.centers)
    swapped = Plan(1 - a, inst.centers[::-1].copy())
    for func in (objective_value, balance_score, compactness_score):
        assert func(plan, inst) == pytest.approx(func(swapped, inst), abs=1e-12)


def test_coordinate_scaling():
    from districter import LEVELS, ContiguityGraph, build_instance
    from districter.geometry import unit_square
    from conftest import grid_adjacency

    def scaled_instance(s):
        n = 9
        pop = np.full(n, 10, dtype=np.int64)
        cap = np.zeros(n, dtype=np.int64)
        cap[0], cap[8] = 50, 40
        polys = [unit_square((v % 3) * s, (v // 3) * s, size=s) for v in range(n)]
        cents = np.array([[(v % 3 + .5) * s, (v // 3 + .5) * s] for v in range(n)])
        g = ContiguityGraph(grid_adjacency(3, 3),
                            population={lv: pop for lv in LEVELS},
                            capacity={lv: cap for lv in LEVELS},
                            centroids=cents, polygons=polys)
        return build_instance(g, "ES", (0, 8))

    base, scaled = scaled_instance(1.0), scaled_instance(7.5)
    _, _, comp_base = objective_terms(SPLIT, base)
    _, _, comp_scaled = objective_terms(SPLIT, scaled)
    assert abs(comp_base - comp_scaled) <= 1e-12
    assert np.allclose(scaled.distance, 7.5 * base.distance)


def hex_tiling_file(path, rows=4, cols=5, centers=(0, 9, 17)):
    """An instance file without ``adjacency``: a rows x cols tiling of
    pointy-top hexagons (:func:`conftest.hex_ring`)."""
    units = [{"id": v, "polygon": [hex_ring(*divmod(v, cols))],
              "population": {"ES": 10 + v % 7},
              "capacity": {"ES": 60 if v in centers else 0}}
             for v in range(rows * cols)]
    path.write_text(json.dumps({"units": units}))
    return path


@pytest.mark.parametrize("tiling", ["grid", "hex"])
def test_compactness_term_matches_dissolve(tmp_path, tiling):
    """The cached-sum fast path must agree with an explicit dissolve, on a
    rook grid and on a hexagonal map whose adjacency is derived (degree 6)."""
    from districter import dissolve, polsby_popper
    if tiling == "grid":
        inst = generate_grid_instance(5, 5, 3, seed=8)
    else:
        inst = load_instance(hex_tiling_file(tmp_path / "hex.json"), "ES")
        assert max(len(inst.graph.neighbors(v))
                   for v in range(inst.node_count)) == 6
    rng = np.random.default_rng(5)
    a = rng.integers(0, 3, size=inst.node_count)
    a[inst.centers] = np.arange(3)
    plan = Plan(a, inst.centers)
    expected = 0.0
    for t in range(3):
        units = [inst.graph.polygons[v] for v in plan.territory(t)]
        expected += abs(1 - polsby_popper(dissolve(units)))
    _, _, comp = objective_terms(plan, inst)
    assert comp == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("tiling", ["hex", "ragged"])
def test_whole_plan_shape_sums_are_exact(tiling):
    """Each territory's area, perimeter and internal shared length equals
    math.fsum, the correctly rounded exact sum, of its units' (or internal
    edges') values: the sums are exact, so their order cannot matter."""
    rng = np.random.default_rng(4)
    rows, cols, k = 9, 8, 5
    n = rows * cols
    pop = rng.integers(0, 100, size=n)
    cap = np.where(np.arange(n) < k, 1000, 0)
    if tiling == "hex":
        graph = make_hex_graph(rows, cols, pop, cap)
    else:
        graph = make_ragged_graph(
            np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, cols)]),
            np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, rows)]), pop, cap)
    inst = build_instance(graph, "ES", range(k))
    (area, perimeter), length = inst.geometry.units, inst.geometry.edges
    eu, ev = graph.edges.T
    for _ in range(30):
        a = rng.integers(0, k, size=n)
        a[inst.centers] = np.arange(k)
        shape = territory_sums(Plan(a, inst.centers), inst).shape
        for t in range(k):
            inner = (a[eu] == t) & (a[ev] == t)
            assert shape[0][t] == math.fsum(area[a == t])
            assert shape[1][t] == math.fsum(perimeter[a == t])
            assert shape[2][t] == math.fsum(length[inner])


def test_proxy_mode_terms():
    config = ObjectiveConfig(compactness_mode="edge_cut_proxy")
    inst = generate_grid_instance(4, 4, 2, seed=1, centers=(0, 15),
                                  objective_config=config)
    # equal-size split: fewer cut edges must not increase the surrogate term
    half_rows = Plan(np.array([0] * 8 + [1] * 8), inst.centers)    # 4 cuts
    snake = Plan(np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1]),
                 inst.centers)
    j_half = objective_terms(half_rows, inst)[2]
    j_snake = objective_terms(snake, inst)[2]
    assert cut_edges(half_rows, inst.graph) < cut_edges(snake, inst.graph)
    assert j_half <= j_snake
    # identity also holds in proxy mode
    report = evaluate(half_rows, inst)
    w = config.balance_weight
    assert abs(report.j - (w * report.balance_term
                           + (1 - w) * report.compactness_term)) <= 1e-12


def test_proxy_term_monotone_in_internal_edges():
    sizes = np.arange(1, 30)
    dmax = _max_internal_edges(sizes)
    assert dmax[0] == 0 and dmax[1] == 1 and dmax[3] == 4
    for n, d in zip(sizes, dmax):
        terms = [1 - i / d if d else 0.0 for i in range(int(d) + 1)]
        assert all(a >= b for a, b in zip(terms, terms[1:]))


def test_planning_report_examples():
    # 1x3 path, one school at node 0: distances 0, 1, 2; pops 0, 1, 3
    pop = np.array([0, 1, 3])
    cap = np.array([4, 0, 0])
    inst = make_grid_instance(1, 3, (0,), pop, cap,
                              ObjectiveConfig(balance_weight=1.0))
    plan = Plan(np.zeros(3, dtype=np.int64), inst.centers)
    report = planning_report(plan, inst, baseline=plan)
    assert report.mean_distance == pytest.approx(1.75)
    assert report.max_distance == pytest.approx(2.0)
    assert report.displaced == 0
    assert report.balanced_count == 1 and report.under_count == 0
    assert "Students displaced" in report.to_text()


def test_planning_report_zero_distance():
    # all students live in the center unit itself
    pop = np.array([5, 0, 0])
    cap = np.array([5, 0, 0])
    inst = make_grid_instance(1, 3, (0,), pop, cap,
                              ObjectiveConfig(balance_weight=1.0))
    plan = Plan(np.zeros(3, dtype=np.int64), inst.centers)
    report = planning_report(plan, inst)
    assert report.mean_distance == 0.0 and report.max_distance == 0.0


def test_planning_report_without_baseline():
    inst = generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))
    plan = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), inst.centers)
    report = planning_report(plan, inst)
    assert report.displaced is None and report.displaced_pct is None
    assert report.to_text().count("-") >= 2
    assert report.to_dict()["students_displaced"] is None


def test_planning_report_band_counts():
    pop = np.zeros(9, dtype=np.int64)
    pop[1], pop[7] = 70, 130  # territory ratios 0.7 (under) and 1.3 (over)
    cap = np.zeros(9, dtype=np.int64)
    cap[0], cap[8] = 100, 100
    inst = make_grid_instance(3, 3, (0, 8), pop, cap,
                              ObjectiveConfig(balance_weight=1.0))
    report = planning_report(SPLIT, inst)
    assert (report.balanced_count, report.under_count, report.over_count) \
        == (0, 1, 1)
    assert not report.balance_flagged


def test_balance_flagged_above_full_deviation():
    pop = np.zeros(9, dtype=np.int64)
    pop[1] = 500
    cap = np.zeros(9, dtype=np.int64)
    cap[0], cap[8] = 100, 100
    inst = make_grid_instance(3, 3, (0, 8), pop, cap,
                              ObjectiveConfig(balance_weight=1.0))
    report = planning_report(SPLIT, inst)
    assert report.balance_flagged  # mean deviation (4 + 1)/2 > 1


def test_config_warns_on_low_balance_weight():
    with pytest.warns(UserWarning):
        ObjectiveConfig(balance_weight=0.5)
    ObjectiveConfig(balance_weight=0.7)  # no warning
    with pytest.raises(ValueError):
        ObjectiveConfig(balance_weight=1.5)
    with pytest.raises(ValueError):
        ObjectiveConfig(compactness_mode="nope")
    with pytest.raises(ConfigError):
        ObjectiveConfig(balance_band=math.nan)
    ObjectiveConfig(balance_band=math.inf)
