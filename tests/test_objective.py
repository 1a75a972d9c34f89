import json
import math

import numpy as np
import pytest

from districter import (ConfigError, ContiguityGraph, DistricterError,
                        EvaluationError, ObjectiveConfig, Plan,
                        build_instance, fitness, generate_grid_instance,
                        load_instance, objective_terms, objective_value,
                        planning_report)
from districter.objective import (max_internal_edges, pairwise_sum,
                                  territory_sums)

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
    j, balance_term, _ = objective_terms(SPLIT, inst)
    assert j == 0.0 and balance_term == 0.0


def test_evaluate_direct_formula():
    inst = balance_only_instance(4, 5, 5, 4)
    assert objective_value(SPLIT, inst) == pytest.approx(0.2 + 0.25, abs=1e-12)
    sums = territory_sums(SPLIT, inst)
    assert sums[0][0] / sums[1][0] == pytest.approx(0.8)


def test_evaluate_zero_capacity_territory():
    inst = balance_only_instance(4, 5, 5, 4)
    all_zero = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 0]), np.array([0, 8]))
    # territory 1 = {5, 6, 7}: no capacity there
    with pytest.raises(EvaluationError):
        objective_terms(all_zero, inst)


def test_decomposition_identity():
    inst = generate_grid_instance(5, 5, 3, seed=4)
    w = inst.objective_config.balance_weight
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 3, size=25)
        a[inst.centers] = np.arange(3)
        j, balance_term, compactness_term = objective_terms(
            Plan(a, inst.centers), inst)
        assert abs(j - (w * balance_term
                        + (1 - w) * compactness_term)) <= 1e-12


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
    exact = balance_only_instance(5, 5, 4, 4)
    assert planning_report(SPLIT, exact).balance == 100.0
    inst = balance_only_instance(4, 5, 5, 4)  # deviations 0.2 and 0.25
    assert (planning_report(SPLIT, inst).balance
            == pytest.approx(100 * (1 - 0.225)))
    both02 = balance_only_instance(8, 10, 12, 10)  # deviations 0.2 and 0.2
    assert planning_report(SPLIT, both02).balance == pytest.approx(80.0)


def test_compactness_score_single_square():
    inst = generate_grid_instance(1, 1, 1, seed=0)
    plan = Plan(np.array([0]), inst.centers)
    assert (planning_report(plan, inst).compactness
            == pytest.approx(100 * math.pi / 4))


def test_relabeling_invariance():
    inst = generate_grid_instance(4, 4, 2, seed=3)
    rng = np.random.default_rng(2)
    a = rng.integers(0, 2, size=16)
    a[inst.centers] = [0, 1]
    plan = Plan(a, inst.centers)
    swapped = Plan(1 - a, inst.centers[::-1].copy())
    assert objective_value(plan, inst) == pytest.approx(
        objective_value(swapped, inst), abs=1e-12)
    report, other = planning_report(plan, inst), planning_report(swapped, inst)
    assert report.balance == pytest.approx(other.balance, abs=1e-12)
    assert report.compactness == pytest.approx(other.compactness, abs=1e-12)


def test_coordinate_scaling():
    from districter import LEVELS, ContiguityGraph, build_instance
    from districter.geometry import RingTable, unit_square
    from conftest import grid_adjacency

    def scaled_instance(s):
        n = 9
        pop = np.full(n, 10, dtype=np.int64)
        cap = np.zeros(n, dtype=np.int64)
        cap[0], cap[8] = 50, 40
        polys = [unit_square((v % 3) * s, (v // 3) * s, size=s) for v in range(n)]
        g = ContiguityGraph(n, grid_adjacency(3, 3),
                            population={lv: pop for lv in LEVELS},
                            capacity={lv: cap for lv in LEVELS},
                            polygons=RingTable.from_polygons(polys))
        return build_instance(g, "ES", (0, 8))

    base, scaled = scaled_instance(1.0), scaled_instance(7.5)
    _, _, comp_base = objective_terms(SPLIT, base)
    _, _, comp_scaled = objective_terms(SPLIT, scaled)
    assert abs(comp_base - comp_scaled) <= 1e-12
    assert np.allclose(scaled.graph.centroids, 7.5 * base.graph.centroids)
    assert planning_report(SPLIT, scaled).mean_distance == pytest.approx(
        7.5 * planning_report(SPLIT, base).mean_distance)


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
        assert max(len(inst.graph.neighbor_lists[v])
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
        shape = territory_sums(Plan(a, inst.centers), inst)[2:]
        for t in range(k):
            inner = (a[eu] == t) & (a[ev] == t)
            assert shape[0][t] == math.fsum(area[a == t])
            assert shape[1][t] == math.fsum(perimeter[a == t])
            assert shape[2][t] == math.fsum(length[inner])


def test_pairwise_sum_is_numpys_sum():
    """pairwise_sum adds in numpy's order: equal bit for bit to np.sum on
    vectors of every length up to 1,200 (loop, eight accumulators and
    halving), with magnitudes spread so that another order would show."""
    rng = np.random.default_rng(8)
    in_order = 0        # lengths where a left-to-right loop differs
    for n in range(1, 1201):
        x = rng.lognormal(0.0, 4.0, size=n)
        total = pairwise_sum(x.tolist())
        assert total.hex() == float(np.sum(x)).hex()
        loop = 0.0
        for v in x.tolist():
            loop += v
        in_order += loop != total
    assert in_order > 100


def numpy_pp(plan, inst):
    """Each territory's Polsby-Popper score as the objective computed it with
    numpy vector operations, from the unit geometry's np.bincount sums."""
    k, a = plan.territory_count, plan.assignment
    (area, perimeter), lengths = inst.geometry.units, inst.geometry.edges
    eu, ev = inst.graph.edges.T
    inner = a[eu] == a[ev]
    area = np.bincount(a, weights=area, minlength=k)
    peri = (np.bincount(a, weights=perimeter, minlength=k) - 2.0
            * np.bincount(a[eu[inner]], weights=lengths[inner], minlength=k))
    pp = np.zeros(k)
    nz = peri > 0
    pp[nz] = 4.0 * math.pi * area[nz] / (peri[nz] * peri[nz])
    return pp


def numpy_terms(plan, inst):
    """(J, balance_term, compactness_term) as the objective computed them
    with numpy vector operations: the sums by np.bincount, then
    np.abs(1 - pop/cap).sum() and the vector Polsby-Popper or proxy terms,
    each reduced by np.sum."""
    k, a = plan.territory_count, plan.assignment
    graph = inst.graph
    pop = np.bincount(a, weights=graph.population[inst.level], minlength=k)
    cap = np.bincount(a, weights=graph.capacity[inst.level], minlength=k)
    balance = float(np.abs(1.0 - pop / cap).sum())
    if inst.objective_config.compactness_mode == "polsby_popper":
        compactness = float(np.abs(1.0 - numpy_pp(plan, inst)).sum())
    else:
        eu, ev = graph.edges.T
        inner = a[eu] == a[ev]
        sizes = np.bincount(a, minlength=k).astype(float)
        internal = np.bincount(a[eu[inner]], minlength=k).astype(float)
        dmax = np.maximum(2.0 * sizes - np.ceil(2.0 * np.sqrt(sizes)), 0.0)
        terms = np.ones(k)
        nz = dmax > 0
        terms[nz] = np.clip(1.0 - internal[nz] / dmax[nz], 0.0, 1.0)
        terms[dmax == 0] = 0.0
        compactness = float(terms.sum())
    w = inst.objective_config.balance_weight
    return (w * balance + (1.0 - w) * compactness, balance, compactness)


def numpy_scores(plan, inst):
    """(balance score, compactness score) as the report computed them with
    numpy: float np.bincount sums, np.mean, and the Polsby-Popper scores
    from the unit geometry in either compactness mode."""
    k, a = plan.territory_count, plan.assignment
    graph = inst.graph
    ratio = (np.bincount(a, weights=graph.population[inst.level], minlength=k)
             / np.bincount(a, weights=graph.capacity[inst.level], minlength=k))
    pp = numpy_pp(plan, inst)
    return (float(100.0 * abs(1.0 - np.abs(1.0 - ratio).mean())),
            float(100.0 * np.abs(pp).mean()))


@pytest.mark.parametrize("mode", ["polsby_popper", "edge_cut_proxy"])
@pytest.mark.parametrize("tiling", ["hex", "ragged"])
def test_objective_terms_equal_the_numpy_reduction(tiling, mode):
    """On random plans with K from 2 to 40, the per-territory scalar terms
    reduced by pairwise_sum give the numpy vector reduction's terms bit for
    bit, and the report's balance and compactness scores the numpy
    report's."""
    rng = np.random.default_rng(12)
    rows, cols = 9, 10
    n = rows * cols
    pop = rng.integers(0, 100, size=n)
    if tiling == "hex":
        def make_graph(cap):
            return make_hex_graph(rows, cols, pop, cap)
    else:
        xs = np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, cols)])
        ys = np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, rows)])

        def make_graph(cap):
            return make_ragged_graph(xs, ys, pop, cap)
    for k in range(2, 41):
        centers = rng.choice(n, size=k, replace=False)
        cap = np.zeros(n, dtype=np.int64)
        cap[centers] = rng.integers(1, 200, size=k)
        inst = build_instance(make_graph(cap), "ES", centers,
                              ObjectiveConfig(compactness_mode=mode))
        for _ in range(5):
            a = rng.integers(0, k, size=n)
            a[inst.centers] = np.arange(k)
            plan = Plan(a, inst.centers)
            assert objective_terms(plan, inst) == numpy_terms(plan, inst)
            report = planning_report(plan, inst)
            assert ((report.balance, report.compactness)
                    == numpy_scores(plan, inst))


def test_polsby_popper_without_geometry_is_evaluation_error():
    graph = ContiguityGraph(3, [[0, 1], [1, 2]],
                            population={"ES": np.array([1, 2, 3])},
                            capacity={"ES": np.array([3, 0, 3])})
    inst = build_instance(graph, "ES", (0, 2))
    with pytest.raises(EvaluationError, match="needs unit geometry"):
        objective_terms(Plan(np.array([0, 0, 1]), inst.centers), inst)


def test_proxy_mode_terms():
    config = ObjectiveConfig(compactness_mode="edge_cut_proxy")
    grid = generate_grid_instance(4, 4, 2, seed=1, centers=(0, 15))
    inst = build_instance(grid.graph, grid.level, grid.centers, config)
    # equal-size split: fewer cut edges must not increase the surrogate term
    half_rows = Plan(np.array([0] * 8 + [1] * 8), inst.centers)    # 4 cuts
    snake = Plan(np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1]),
                 inst.centers)
    j_half = objective_terms(half_rows, inst)[2]
    j_snake = objective_terms(snake, inst)[2]
    u, v = inst.graph.edges.T
    assert (np.count_nonzero(half_rows.assignment[u] != half_rows.assignment[v])
            < np.count_nonzero(snake.assignment[u] != snake.assignment[v]))
    assert j_half <= j_snake
    # identity also holds in proxy mode
    j, balance_term, compactness_term = objective_terms(half_rows, inst)
    w = config.balance_weight
    assert abs(j - (w * balance_term + (1 - w) * compactness_term)) <= 1e-12


def test_proxy_term_monotone_in_internal_edges():
    sizes = np.arange(1, 30)
    dmax = [max_internal_edges(n) for n in sizes]
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
    with pytest.raises(ConfigError):
        ObjectiveConfig(balance_weight=1.5)
    with pytest.raises(ConfigError):
        ObjectiveConfig(compactness_mode="nope")
    # a library caller catching the package's base error sees both
    for bad in ({"balance_weight": -0.1}, {"compactness_mode": "nope"}):
        with pytest.raises(DistricterError):
            ObjectiveConfig(**bad)
