"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from districter import (LEVELS, ContiguityGraph, MemeticConfig, Plan,
                        SearchConfig, build_instance, dissolve,
                        generate_grid_instance, guided_growth,
                        init_population, local_improvement_pass,
                        objective_value, polsby_popper, run_chain,
                        spatial_run, unit_square)
from districter.cli import main
from districter.geometry import Polygon, RingTable
from districter.local_search import (FlipProposal, Walk,
                                     adjacent_territory_pairs, apply_flip,
                                     flip_candidates, flip_is_feasible)
from districter.oracle import enumerate_feasible_plans, exhaustive_optimum

from conftest import chain_visited, grid_adjacency


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {label}")
        raise
    print(f"\n[PASS] criterion {num}: {label}")


@pytest.fixture(scope="module")
def tiny():
    return generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))


@pytest.fixture(scope="module")
def clustered_10x10():
    return generate_grid_instance(10, 10, 4, seed=42,
                                  balance_profile="clustered")


@pytest.fixture(scope="module")
def spatial_js_10x10(clustered_10x10):
    """25 full-solver trials, shared by criteria 6 and 8."""
    js = []
    for trial in range(25):
        cfg = MemeticConfig(population_size=10, iterations=60)
        res = spatial_run(clustered_10x10, cfg, np.random.default_rng(trial))
        js.append(res.best_j)
    return np.array(js)


def test_c01_oracle_optimality_tiny_instance(tiny):
    with criterion(1, "solver matches the exhaustive optimum on the 3x3 "
                      "instance in >= 22 of 25 trials"):
        oracle = exhaustive_optimum(tiny)
        hits = 0
        for trial in range(25):
            cfg = MemeticConfig(population_size=10, iterations=200)
            t0 = time.perf_counter()
            res = spatial_run(tiny, cfg, np.random.default_rng(trial))
            assert time.perf_counter() - t0 < 5.0
            if abs(res.best_j - oracle.best_j) <= 1e-12:
                hits += 1
        assert hits >= 22, f"only {hits}/25 trials reached the optimum"


def test_c02_hard_feasibility_mass(validated_commits):
    with criterion(2, ">= 1e5 accepted moves with zero hard-constraint "
                      "violations (validated after every acceptance)"):
        accepted = 0
        for seed in range(4):
            inst = generate_grid_instance(8, 8, 4, seed=seed)
            rng = np.random.default_rng(seed)
            start = guided_growth(inst, rng)
            config = SearchConfig(chain_steps=50_000,
                                  acceptance_band=math.inf)
            summary, _ = run_chain(inst, "baa", config, rng, start)
            accepted += summary.accepted
        for seed in range(2):
            inst = generate_grid_instance(8, 8, 4, seed=10 + seed)
            cfg = MemeticConfig(population_size=10, iterations=40)
            res = spatial_run(inst, cfg, np.random.default_rng(seed))
            accepted += res.accepted_flips + res.accepted_recombinations
        assert accepted >= 100_000, f"only {accepted} accepted moves exercised"


def test_c03_geometry_exactness():
    with criterion(3, "Polsby-Popper and dissolve match the analytic "
                      "formulas exactly"):
        assert polsby_popper(dissolve([unit_square(0, 0)])) == math.pi / 4

        rng = np.random.default_rng(0)
        for _ in range(100):
            cells = {(0, 0)}
            while len(cells) < rng.integers(1, 30):
                r, c = list(cells)[rng.integers(len(cells))]
                dr, dc = [(0, 1), (0, -1), (1, 0), (-1, 0)][rng.integers(4)]
                cells.add((r + dr, c + dc))
            units = [unit_square(c, r) for r, c in cells]
            stats = dissolve(units)
            adjacencies = sum((r, c + 1) in cells for r, c in cells) \
                + sum((r + 1, c) in cells for r, c in cells)
            assert abs(stats.perimeter
                       - (4 * len(cells) - 2 * adjacencies)) <= 1e-9
            scale = float(rng.uniform(0.01, 50))
            scaled = dissolve([
                Polygon([[(x * scale, y * scale) for x, y in ring]
                         for ring in u.rings]) for u in units])
            assert abs(polsby_popper(scaled) - polsby_popper(stats)) <= 1e-12


def test_c04_edge_count_reproduction():
    with criterion(4, "10x10 dual graph has 180 edges; the 4-quadrant "
                      "partition cuts exactly 20"):
        inst = generate_grid_instance(10, 10, 4, seed=0)
        assert inst.graph.edge_count == 180
        quadrants = np.array([(r >= 5) * 2 + (c >= 5)
                              for r in range(10) for c in range(10)])
        u, v = inst.graph.edges.T
        assert np.count_nonzero(quadrants[u] != quadrants[v]) == 20


def test_c05_greedy_monotonicity(clustered_10x10):
    with criterion(5, "objective is non-increasing over >= 1e4 accepted "
                      "greedy flips; AIO chains likewise"):
        total = 0
        seed = 0
        while total < 10_000:
            rng = np.random.default_rng(1000 + seed)
            walks = [Walk(plan, clustered_10x10) for plan in
                     init_population(clustered_10x10, 10, rng)]
            while walks:
                before = [(walk.accepted, walk.terms[0]) for walk in walks]
                outcome = local_improvement_pass(walks, 0.0, rng)
                # converged members stay converged with p_r = 0: drop them
                improved = []
                for walk, (accepted, j_before) in zip(walks, before):
                    if walk.accepted != accepted:
                        assert walk.terms[0] < j_before  # strict, p_r = 0
                        improved.append(walk)
                assert outcome.accepted_flips == len(improved)
                total += outcome.accepted_flips
                walks = improved
            seed += 1
            assert seed < 60, "accepted-flip accumulation stalled"
        assert total >= 10_000

        for chain_seed in range(8):
            inst = generate_grid_instance(8, 8, 4, seed=chain_seed)
            rng = np.random.default_rng(chain_seed)
            start = guided_growth(inst, rng)
            summary, _ = run_chain(inst, "aio", SearchConfig(chain_steps=2500),
                                   rng, start)
            js = [objective_value(start, inst)] + [
                row[1] for row in summary.trace]
            diffs = np.diff(js)
            assert np.all(diffs <= 0.0)


def test_c06_relative_ordering(clustered_10x10, spatial_js_10x10):
    with criterion(6, "mean final J: SPATIAL <= SHC and SPATIAL < BAA by "
                      ">= 3 pooled standard errors, under 10 minutes"):
        t0 = time.perf_counter()
        shc_js, baa_js = [], []
        for trial in range(25):
            rng = np.random.default_rng(trial)
            start = guided_growth(clustered_10x10, rng)
            config = SearchConfig(max_iters=3000, chain_steps=3000)
            _, plan = run_chain(clustered_10x10, "shc", config, rng, start)
            shc_js.append(objective_value(plan, clustered_10x10))
            rng = np.random.default_rng(trial)
            start = guided_growth(clustered_10x10, rng)
            summary, _ = run_chain(clustered_10x10, "baa", config, rng, start)
            baa_js.append(summary.best_j)
        shc_js, baa_js = np.array(shc_js), np.array(baa_js)
        spatial_js = spatial_js_10x10

        assert spatial_js.mean() <= shc_js.mean()
        assert spatial_js.mean() <= baa_js.mean()
        pooled_se = math.sqrt(spatial_js.var(ddof=1) / 25
                              + baa_js.var(ddof=1) / 25)
        assert baa_js.mean() - spatial_js.mean() >= 3 * pooled_se
        assert time.perf_counter() - t0 < 600


def _symmetric_8x8():
    """Uniform population, capacities exactly matching the quadrant plan."""
    n = 64
    pop = np.full(n, 10, dtype=np.int64)
    centers = [2 * 8 + 2, 2 * 8 + 5, 5 * 8 + 2, 5 * 8 + 5]
    cap = np.zeros(n, dtype=np.int64)
    cap[centers] = 160
    graph = ContiguityGraph(
        n, grid_adjacency(8, 8),
        population={lv: pop for lv in LEVELS},
        capacity={lv: cap for lv in LEVELS},
        polygons=RingTable.from_polygons(
            [unit_square(v % 8, v // 8) for v in range(n)]),
    )
    return build_instance(graph, "ES", centers)


def test_c07_warm_start_helps():
    with criterion(7, "warm-started solver is at least as good on average "
                      "as cold-started over 25 trials"):
        inst = _symmetric_8x8()
        quadrants = Plan(np.array([(v // 8 >= 4) * 2 + (v % 8 >= 4)
                                   for v in range(64)]), inst.centers)
        warm_js, cold_js = [], []
        for trial in range(25):
            cfg = MemeticConfig(population_size=10, iterations=40)
            warm_js.append(spatial_run(inst, cfg, np.random.default_rng(trial),
                                       warm_start=quadrants).best_j)
            cold_js.append(spatial_run(inst, cfg,
                                       np.random.default_rng(trial)).best_j)
        assert np.mean(warm_js) <= np.mean(cold_js)


def test_c08_ablation_direction(clustered_10x10, spatial_js_10x10):
    with criterion(8, "both operators together beat local-search-only and "
                      "recombination-only on mean final J"):
        local_js, recomb_js = [], []
        for trial in range(25):
            cfg = MemeticConfig(population_size=10, iterations=60,
                                recombination=False)
            local_js.append(spatial_run(clustered_10x10, cfg,
                                        np.random.default_rng(trial)).best_j)
            cfg = MemeticConfig(population_size=10, iterations=60,
                                local_search=False)
            recomb_js.append(spatial_run(clustered_10x10, cfg,
                                         np.random.default_rng(trial)).best_j)
        both = spatial_js_10x10.mean()
        assert both <= np.mean(local_js)
        assert both <= np.mean(recomb_js)


def test_c09_reachability_and_chain_coverage(tiny):
    with criterion(9, "grid3 flip state-graph is connected and a band-free "
                      "chain visits every feasible state in 1e4 steps"):
        plans = list(enumerate_feasible_plans(tiny))
        keys = {p.assignment.tobytes(): i for i, p in enumerate(plans)}
        neighbors = {i: set() for i in range(len(plans))}
        for i, plan in enumerate(plans):
            walk = Walk(plan, tiny)
            for donor, recipient in adjacent_territory_pairs(walk):
                for node in flip_candidates(walk, int(donor), int(recipient)):
                    prop = FlipProposal(int(node), int(donor), int(recipient))
                    if flip_is_feasible(walk, prop):
                        flipped = Walk(plan, tiny)
                        flipped.commit(apply_flip(flipped, prop))
                        neighbors[i].add(
                            keys[flipped.plan.assignment.tobytes()])
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = [j for i in frontier for j in neighbors[i] if j not in seen]
            seen.update(nxt)
            frontier = nxt
        assert seen == set(range(len(plans))), "flip state-graph disconnected"

        rng = np.random.default_rng(9)
        start = guided_growth(tiny, rng)
        assert chain_visited(tiny, start, rng, 10_000) == set(keys)


def test_c10_determinism(tmp_path, capsys):
    with criterion(10, "identical config and seed produce byte-identical "
                       "plan files and summaries"):
        instance_a = tmp_path / "a.json"
        instance_b = tmp_path / "b.json"
        for target in (instance_a, instance_b):
            assert main(["generate", "--rows", "3", "--cols", "3", "--k", "2",
                         "--seed", "5", "--out", str(target)]) == 0
        assert instance_a.read_bytes() == instance_b.read_bytes()

        outputs = []
        for run_dir in ("run1", "run2"):
            out = tmp_path / run_dir
            assert main(["solve", "--instance", str(instance_a),
                         "--algo", "spatial", "--np", "6", "--iters", "25",
                         "--seed", "7", "--trials", "2",
                         "--out", str(out)]) == 0
            assert main(["solve", "--instance", str(instance_a),
                         "--algo", "sa", "--iters", "300", "--seed", "7",
                         "--trials", "2", "--out", str(out)]) == 0
            outputs.append(out)
        first, second = outputs
        compared = 0
        for path in sorted(first.iterdir()):
            if path.name.endswith("_trace.csv") and "spatial" in path.name:
                continue  # the solver trace carries wall-clock timings
            compared += 1
            assert path.read_bytes() == (second / path.name).read_bytes(), \
                path.name
        assert compared >= 6

        capsys.readouterr()
        assert main(["oracle", "--instance", str(instance_a)]) == 0
        out1 = capsys.readouterr().out
        assert main(["oracle", "--instance", str(instance_a)]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2 and json.loads(out1)["feasible_plans"] > 0
