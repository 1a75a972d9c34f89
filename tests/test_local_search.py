import math
from types import SimpleNamespace

import numpy as np
import pytest

from districter import (ConfigError, FlipProposal, NoFeasibleFlip, Plan,
                        SearchConfig, apply_flip, flip_is_feasible,
                        generate_grid_instance, guided_growth,
                        init_population, local_improvement_pass,
                        objective_value, plans_equal, propose_flip,
                        run_baseline, run_chain, seed_plan, validate_plan)
from districter.local_search import (BalancedBand, Candidate, ImproveOrChance,
                                     NonWorsening, Tabu, Walk,
                                     adjacent_territory_pairs, flip_candidates,
                                     random_proposals)
from districter.objective import territory_balance
from districter.oracle import enumerate_feasible_plans


def test_propose_flip_frontier_only(grid3):
    # rows {0} | rows {1, 2}: only nodes 0..5 sit on the frontier
    plan = Plan(np.array([0, 0, 0, 1, 1, 1, 1, 1, 1]), np.array([0, 8]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = propose_flip(plan, grid3.graph, rng)
        assert p.node in {1, 2, 3, 4, 5}  # node 0 is a center, excluded
        assert plan.assignment[p.node] == p.from_territory
        assert p.from_territory != p.to_territory


def test_propose_flip_single_candidate(path3):
    plan = Plan(np.array([0, 0, 1]), path3.centers)
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert propose_flip(plan, path3.graph, rng) == FlipProposal(1, 0, 1)


def test_propose_flip_all_centers():
    inst = generate_grid_instance(1, 2, 2, seed=0)
    plan = Plan(np.array([0, 1]), inst.centers)
    with pytest.raises(NoFeasibleFlip):
        propose_flip(plan, inst.graph, np.random.default_rng(0))


def test_propose_flip_needs_two_territories(grid3):
    inst = generate_grid_instance(2, 2, 1, seed=0)
    plan = Plan(np.zeros(4, dtype=np.int64), inst.centers)
    with pytest.raises(ConfigError):
        propose_flip(plan, inst.graph, np.random.default_rng(0))


def walk_one(plan, instance, proposal, rule):
    """Offer one proposal to a fresh walk; return (walk, accepted)."""
    walk = Walk(plan, instance, rule)
    [(_, accepted)] = walk.run([proposal])
    return walk, accepted


def test_walk_accepts_improving_flip(grid3):
    rng = np.random.default_rng(2)
    plan = Plan(np.array([0, 0, 1, 1, 1, 1, 1, 1, 1]), grid3.centers)
    j0 = objective_value(plan, grid3)
    # find a strictly improving concrete flip
    improving = None
    for donor, recipient in adjacent_territory_pairs(plan, grid3.graph):
        for node in flip_candidates(plan, grid3.graph, int(donor), int(recipient)):
            prop = FlipProposal(int(node), int(donor), int(recipient))
            if not flip_is_feasible(plan, grid3.graph, prop):
                continue
            if objective_value(apply_flip(plan, prop), grid3) < j0:
                improving = prop
                break
        if improving:
            break
    assert improving is not None
    walk, ok = walk_one(plan, grid3, improving, ImproveOrChance(0.0, rng))
    assert ok and not plans_equal(walk.plan, plan)


def test_apply_flip_hard_rejects_contiguity_break(grid3):
    # territory 0 is the top row; moving node 1 would split {0, 2}
    plan = Plan(np.array([0, 0, 0, 1, 1, 1, 1, 1, 1]), grid3.centers)
    prop = FlipProposal(1, 0, 1)
    always = lambda walk, candidate: True
    walk, ok = walk_one(plan, grid3, prop, always)
    assert not ok and plans_equal(walk.plan, plan)


def test_apply_flip_worse_move_boundary_probabilities(grid3):
    plan = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), grid3.centers)
    j0 = objective_value(plan, grid3)
    worsening = None
    for donor, recipient in adjacent_territory_pairs(plan, grid3.graph):
        for node in flip_candidates(plan, grid3.graph, int(donor), int(recipient)):
            prop = FlipProposal(int(node), int(donor), int(recipient))
            if not flip_is_feasible(plan, grid3.graph, prop):
                continue
            if objective_value(apply_flip(plan, prop), grid3) > j0:
                worsening = prop
                break
        if worsening:
            break
    assert worsening is not None
    rng = np.random.default_rng(3)
    _, ok = walk_one(plan, grid3, worsening, ImproveOrChance(0.0, rng))
    assert not ok
    _, ok = walk_one(plan, grid3, worsening, ImproveOrChance(1.0, rng))
    assert ok  # rand(0,1) <= 1 always


def test_flip_reversibility(grid3):
    rng = np.random.default_rng(4)
    plan = guided_growth(seed_plan(grid3), grid3, rng)
    for _ in range(50):
        try:
            prop = propose_flip(plan, grid3.graph, rng)
        except NoFeasibleFlip:
            break
        if not flip_is_feasible(plan, grid3.graph, prop):
            continue
        flipped = apply_flip(plan, prop)
        restored = apply_flip(flipped, prop.inverse())
        assert plans_equal(restored, plan)
        plan = flipped


def test_local_pass_single_flip_each(grid3):
    pop = init_population(grid3, 6, np.random.default_rng(5))
    config = SearchConfig(worse_accept_prob=0.0)
    result = local_improvement_pass(pop, grid3, config, np.random.default_rng(6))
    for rec, before, after in zip(result.records, pop.members,
                                  result.population.members):
        if rec is None:
            assert plans_equal(before, after)
        else:
            assert rec.j_after < rec.j_before
            assert int(np.count_nonzero(
                before.assignment != after.assignment)) == 1
        assert validate_plan(after, grid3.graph, 1.0).hard_ok


def test_local_pass_leaves_local_optima_alone(grid3):
    config = SearchConfig(worse_accept_prob=0.0)
    pop = init_population(grid3, 4, np.random.default_rng(7))
    # drive every member to a local optimum
    for _ in range(200):
        result = local_improvement_pass(pop, grid3, config,
                                        np.random.default_rng(8))
        pop = result.population
        if result.accepted_flips == 0:
            break
    assert result.accepted_flips == 0
    again = local_improvement_pass(pop, grid3, config, np.random.default_rng(9))
    assert all(r is None for r in again.records)
    assert all(plans_equal(a, b) for a, b in
               zip(pop.members, again.population.members))


def test_baseline_traces_and_determinism(grid3):
    rng = np.random.default_rng(10)
    start = guided_growth(seed_plan(grid3), grid3, rng)
    config = SearchConfig(max_iters=300)
    for algo in ("shc", "sa", "ts"):
        plan1, trace1 = run_baseline(grid3, algo, config,
                                     np.random.default_rng(11), start)
        plan2, trace2 = run_baseline(grid3, algo, config,
                                     np.random.default_rng(11), start)
        assert plans_equal(plan1, plan2) and trace1 == trace2
        assert validate_plan(plan1, grid3.graph, 1.0).hard_ok
        js = [row[1] for row in trace1]
        if algo in ("shc", "ts"):
            assert all(a >= b for a, b in zip(js, js[1:]))  # non-increasing


def terms(j):
    return (j, 0.0, 0.0)


def test_shc_accepts_equal_moves(grid3):
    walk = SimpleNamespace(terms=terms(1.0))
    candidate = Candidate(FlipProposal(1, 0, 1), None, terms(1.0))
    assert NonWorsening()(walk, candidate)
    assert not ImproveOrChance(0.0, np.random.default_rng(0))(walk, candidate)


def test_sa_cold_behaves_greedily(grid3):
    start = guided_growth(seed_plan(grid3), grid3, np.random.default_rng(12))
    config = SearchConfig(max_iters=300, sa_initial_temp=1e-12)
    plan, trace = run_baseline(grid3, "sa", config,
                               np.random.default_rng(13), start)
    js = [row[1] for row in trace]
    assert all(a >= b for a, b in zip(js, js[1:]))


def test_ts_zero_tenure_equals_shc(grid3):
    start = guided_growth(seed_plan(grid3), grid3, np.random.default_rng(14))
    config = SearchConfig(max_iters=400, tabu_tenure=0)
    plan_ts, trace_ts = run_baseline(grid3, "ts", config,
                                     np.random.default_rng(15), start)
    plan_shc, trace_shc = run_baseline(grid3, "shc", config,
                                       np.random.default_rng(15), start)
    assert plans_equal(plan_ts, plan_shc)
    assert trace_ts == trace_shc


def test_ts_blocks_immediate_return(grid3):
    """After moving a node out, TS refuses to move it straight back unless
    that improves on the best-so-far."""
    rule = Tabu(5)
    prop = FlipProposal(4, 0, 1)
    back = prop.inverse()
    before = SimpleNamespace(terms=terms(1.0), best_terms=terms(1.0))
    assert rule(before, Candidate(prop, None, terms(0.9)))
    after = SimpleNamespace(terms=terms(0.9), best_terms=terms(0.9))
    # the return move does not worsen J, yet it is tabu
    assert not rule(after, Candidate(back, None, terms(0.9)))
    # a non-tabu move of equal J is still accepted
    assert rule(after, Candidate(FlipProposal(5, 1, 0), None, terms(0.9)))
    # aspiration: the tabu return move is accepted when it beats the best J
    assert rule(after, Candidate(back, None, terms(0.8)))
    # a worsening move is refused whatever the tabu list holds
    assert not rule(after, Candidate(FlipProposal(6, 1, 0), None, terms(0.95)))


def test_chain_aio_trace_non_increasing(grid3):
    rng = np.random.default_rng(16)
    start = guided_growth(seed_plan(grid3), grid3, rng)
    config = SearchConfig(chain_steps=2000)
    summary, best = run_chain(grid3, "aio", config, rng, start)
    assert summary.accepted >= 1
    assert objective_value(best, grid3) <= objective_value(start, grid3)


def test_chain_baa_band_infinite_accepts_everything_feasible(grid3):
    rng = np.random.default_rng(17)
    start = guided_growth(seed_plan(grid3), grid3, rng)
    config = SearchConfig(chain_steps=3000, acceptance_band=math.inf)
    summary, _ = run_chain(grid3, "baa", config, rng, start)
    target = {p.key() for p in enumerate_feasible_plans(grid3)}
    assert summary.visited <= target
    assert summary.distinct_states == len(target)  # full coverage on grid3


def test_chain_baa_covers_two_by_two():
    inst = generate_grid_instance(2, 2, 2, seed=0, centers=(0, 3))
    target = {p.key() for p in enumerate_feasible_plans(inst)}
    assert len(target) == 4
    start = guided_growth(seed_plan(inst), inst, np.random.default_rng(18))
    config = SearchConfig(chain_steps=10_000, acceptance_band=math.inf)
    summary, _ = run_chain(inst, "baa", config, np.random.default_rng(18), start)
    assert summary.visited == target


def test_chain_baa_band_rule():
    inst = generate_grid_instance(4, 4, 2, seed=2)
    rng = np.random.default_rng(19)
    start = guided_growth(seed_plan(inst), inst, rng)
    config = SearchConfig(chain_steps=500, acceptance_band=0.15)
    summary, best = run_chain(inst, "baa", config, rng, start)
    # replay the same chain step by step: every accepted step keeps both
    # involved territories inside the band
    rng = np.random.default_rng(19)
    assert plans_equal(guided_growth(seed_plan(inst), inst, rng), start)
    walk = Walk(start.copy(), inst, BalancedBand(0.15))
    flags = []
    for proposal, accepted in walk.run(random_proposals(walk, rng, 500)):
        flags.append(accepted)
        if accepted:
            pop, cap = territory_balance(walk.plan, inst)
            for t in (proposal.from_territory, proposal.to_territory):
                assert abs(1.0 - pop[t] / cap[t]) <= 0.15
    assert flags == summary.accepted_flags.tolist()
    assert summary.accepted >= 1
    assert plans_equal(walk.best_plan, best)


def test_chain_determinism(grid3):
    start = guided_growth(seed_plan(grid3), grid3, np.random.default_rng(20))
    config = SearchConfig(chain_steps=1500, acceptance_band=math.inf)
    s1, b1 = run_chain(grid3, "baa", config, np.random.default_rng(21), start)
    s2, b2 = run_chain(grid3, "baa", config, np.random.default_rng(21), start)
    assert plans_equal(b1, b2)
    assert s1.accepted == s2.accepted and s1.visited == s2.visited


def test_search_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(worse_accept_prob=1.0)
    with pytest.raises(ConfigError):
        SearchConfig(sa_cooling=1.0)
    with pytest.raises(ConfigError):
        SearchConfig(acceptance_band=-0.1)
