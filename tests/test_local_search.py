import math
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from districter import (ConfigError, FlipProposal, NoFeasibleFlip,
                        ObjectiveConfig, Plan, SearchConfig, apply_flip,
                        build_instance, flip_is_feasible,
                        generate_grid_instance, guided_growth, init_population,
                        local_improvement_pass, objective_value, plans_equal,
                        propose_flip, run_baseline, run_chain, seed_plan,
                        validate_plan)
from districter.local_search import (BalancedBand, Candidate, FlipState,
                                     ImproveOrChance, NonWorsening, Tabu, Walk,
                                     adjacent_territory_pairs, flip_candidates,
                                     random_proposals)
from districter.objective import (objective_terms, territory_balance,
                                  territory_sums)
from districter.oracle import enumerate_feasible_plans

from conftest import make_hex_graph, make_ragged_graph


def test_propose_flip_frontier_only(grid3):
    # rows {0} | rows {1, 2}: only nodes 0..5 sit on the frontier
    plan = Plan(np.array([0, 0, 0, 1, 1, 1, 1, 1, 1]), np.array([0, 8]))
    rng = np.random.default_rng(0)
    state = FlipState(plan, grid3)
    for _ in range(50):
        p = propose_flip(state, rng)
        assert p.node in {1, 2, 3, 4, 5}  # node 0 is a center, excluded
        assert plan.assignment[p.node] == p.from_territory
        assert p.from_territory != p.to_territory


def test_propose_flip_single_candidate(path3):
    plan = Plan(np.array([0, 0, 1]), path3.centers)
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert propose_flip(FlipState(plan, path3), rng) == FlipProposal(1, 0, 1)


def test_propose_flip_all_centers():
    inst = generate_grid_instance(1, 2, 2, seed=0)
    plan = Plan(np.array([0, 1]), inst.centers)
    with pytest.raises(NoFeasibleFlip):
        propose_flip(FlipState(plan, inst), np.random.default_rng(0))


def test_propose_flip_needs_two_territories(grid3):
    inst = generate_grid_instance(2, 2, 1, seed=0)
    plan = Plan(np.zeros(4, dtype=np.int64), inst.centers)
    with pytest.raises(ConfigError):
        propose_flip(FlipState(plan, inst), np.random.default_rng(0))


def test_list_draw_equals_rng_choice():
    """propose_flip draws a node as ``nodes[rng.integers(len(nodes))]``; the
    seeded outputs were recorded with ``rng.choice(nodes)``.  The two must
    make the same draw and leave the generator in the same state, so a
    numpy release that changes either fails here by name."""
    for seed in range(6):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for length in range(1, 301):
            nodes = list(range(5, 5 + 3 * length, 3))
            for _ in range(3):
                assert (nodes[int(a.integers(len(nodes)))]
                        == b.choice(np.array(nodes)))
        assert a.bit_generator.state == b.bit_generator.state


def walk_one(plan, instance, proposal, rule):
    """Offer one proposal to a fresh walk; return (walk, accepted)."""
    walk = Walk(plan, instance, rule)
    [(_, accepted)] = walk.run([proposal])
    return walk, accepted


def flipped(plan, proposal):
    """``plan`` with the proposal's node moved, built without the kernel."""
    out = plan.copy()
    out.assignment[proposal.node] = proposal.to_territory
    return out


def feasible_flips(plan, instance):
    """Every feasible flip of ``plan``, found through the kernel's queries."""
    state = FlipState(plan, instance)
    for donor, recipient in adjacent_territory_pairs(state):
        for node in flip_candidates(state, int(donor), int(recipient)):
            prop = FlipProposal(int(node), int(donor), int(recipient))
            if flip_is_feasible(state, prop):
                yield prop


def test_walk_accepts_improving_flip(grid3):
    rng = np.random.default_rng(2)
    plan = Plan(np.array([0, 0, 1, 1, 1, 1, 1, 1, 1]), grid3.centers)
    j0 = objective_value(plan, grid3)
    improving = next((prop for prop in feasible_flips(plan, grid3)
                      if objective_value(flipped(plan, prop), grid3) < j0), None)
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
    worsening = next((prop for prop in feasible_flips(plan, grid3)
                      if objective_value(flipped(plan, prop), grid3) > j0), None)
    assert worsening is not None
    rng = np.random.default_rng(3)
    _, ok = walk_one(plan, grid3, worsening, ImproveOrChance(0.0, rng))
    assert not ok
    _, ok = walk_one(plan, grid3, worsening, ImproveOrChance(1.0, rng))
    assert ok  # rand(0,1) <= 1 always


def test_flip_reversibility(grid3):
    """A committed flip and then its inverse restore the plan and every part
    of the flip state."""
    rng = np.random.default_rng(4)
    state = FlipState(guided_growth(seed_plan(grid3), grid3, rng), grid3)
    for _ in range(50):
        try:
            prop = propose_flip(state, rng)
        except NoFeasibleFlip:
            break
        if not flip_is_feasible(state, prop):
            continue
        before = FlipState(state.plan, grid3)
        state.commit(prop, apply_flip(state, prop))
        assert flip_is_feasible(state, prop.inverse())
        state.commit(prop.inverse(), apply_flip(state, prop.inverse()))
        assert_same_state(state, before)
        state.commit(prop, apply_flip(state, prop))


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
    with pytest.raises(ConfigError):
        SearchConfig(acceptance_band=math.nan)
    with pytest.raises(ConfigError):
        SearchConfig(sa_initial_temp=math.nan)
    SearchConfig(acceptance_band=math.inf, sa_initial_temp=math.inf)


# ---------------------------------------------------------------------------
# The flip state against whole-plan oracles
# ---------------------------------------------------------------------------

def oracle_pairs(plan, graph):
    """Ordered territory pairs joined by a cut edge, from an edge scan."""
    a = plan.assignment
    pairs = set()
    for u, v in graph.edges.tolist():
        if a[u] != a[v]:
            pairs |= {(int(a[u]), int(a[v])), (int(a[v]), int(a[u]))}
    return sorted(pairs)


def oracle_candidates(plan, graph, donor, recipient):
    a = plan.assignment
    return [u for u in range(graph.node_count)
            if a[u] == donor and u not in plan.centers
            and any(a[w] == recipient for w in graph.neighbors(u))]


def oracle_feasible(plan, graph, proposal):
    node, donor, recipient = proposal
    a = plan.assignment
    if a[node] != donor or node in plan.centers:
        return False
    if not any(a[w] == recipient for w in graph.neighbors(node)):
        return False
    rest = [u for u in range(graph.node_count) if a[u] == donor and u != node]
    g = nx.Graph()
    g.add_nodes_from(rest)
    g.add_edges_from((u, v) for u, v in graph.edges.tolist()
                     if u in g and v in g)
    return len(rest) > 0 and nx.is_connected(g)


def built_boundaries(state):
    """The boundary lists the state has built so far, by ordered pair."""
    k = state.territory_count
    return {divmod(code, k): nodes
            for code, nodes in enumerate(state._boundary) if nodes is not None}


def assert_same_state(state, other):
    """``state`` equals ``other``: plan, owners, cut counts, pair list and
    sums, and every boundary list ``state`` has built equals ``other``'s
    (which ``other`` builds from its own plan when asked)."""
    assert plans_equal(state.plan, other.plan)
    assert state.owner == other.owner and state.centers == other.centers
    assert state.pair_cuts == other.pair_cuts
    assert state.pairs == other.pairs
    for (donor, recipient), nodes in built_boundaries(state).items():
        assert nodes == other.boundary(donor, recipient)
    assert np.array_equal(state.sums.population, other.sums.population)
    assert np.array_equal(state.sums.capacity, other.sums.capacity)
    assert len(state.sums.shape) == len(other.sums.shape)
    for mine, theirs in zip(state.sums.shape, other.sums.shape):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def assert_matches_oracles(state, instance):
    plan, graph = state.plan, instance.graph
    k = plan.territory_count
    a = plan.assignment
    cuts = np.zeros((k, k), dtype=np.int64)
    for u, v in graph.edges.tolist():
        if a[u] != a[v]:
            cuts[a[u], a[v]] += 1
            cuts[a[v], a[u]] += 1
    assert state.pair_cuts == cuts.tolist()
    assert adjacent_territory_pairs(state) == oracle_pairs(plan, graph)
    for donor in range(k):
        for recipient in range(k):
            if donor != recipient:
                assert (flip_candidates(state, donor, recipient)
                        == oracle_candidates(plan, graph, donor, recipient))
    for node in range(graph.node_count):
        for recipient in range(k):
            prop = FlipProposal(node, int(plan.assignment[node]), recipient)
            if recipient != prop.from_territory:
                assert (flip_is_feasible(state, prop)
                        == oracle_feasible(plan, graph, prop))
    assert objective_terms(state.sums, instance) == objective_terms(plan, instance)
    assert_same_state(state, FlipState(plan, instance))


class OracleCheckedBand(BalancedBand):
    """BalancedBand that first checks the candidate's terms against a
    whole-plan evaluation of the flipped plan."""

    def __call__(self, walk, candidate):
        whole = objective_terms(flipped(walk.plan, candidate.proposal),
                                walk.instance)
        assert candidate.terms == whole
        return super().__call__(walk, candidate)


def random_instance(make_graph, n, rng, mode):
    """An instance on the graph ``make_graph(pop, cap)`` of ``n`` nodes, with
    2-4 random centers, random populations and capacities, and the given
    compactness mode."""
    k = min(int(rng.integers(2, 5)), n)
    centers = rng.choice(n, size=k, replace=False)
    pop = rng.integers(0, 100, size=n)
    cap = np.zeros(n, dtype=np.int64)
    cap[centers] = rng.integers(1, 40 * n // k, size=k)
    return build_instance(make_graph(pop, cap), "ES", centers,
                          ObjectiveConfig(compactness_mode=mode))


@st.composite
def ragged_grids(draw):
    """A rows x cols grid of rectangles with random column widths and row
    heights (:func:`conftest.make_ragged_graph`), so a float sum that were
    not exact would show its order; random populations, centers and
    capacities, and either compactness mode."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    size = st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False)
    xs = np.cumsum([0.0] + draw(st.lists(size, min_size=cols, max_size=cols)))
    ys = np.cumsum([0.0] + draw(st.lists(size, min_size=rows, max_size=rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mode = draw(st.sampled_from(["polsby_popper", "edge_cut_proxy"]))

    def make_graph(pop, cap):
        return make_ragged_graph(xs, ys, pop, cap)

    return random_instance(make_graph, rows * cols, rng, mode), rng


@st.composite
def hex_tilings(draw):
    """A hexagonal tiling (degree 6, as on the sample_hex workload), whose
    sqrt(3) coordinates would make an inexact float sum show its order;
    random populations, centers and capacities, and either compactness
    mode."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mode = draw(st.sampled_from(["polsby_popper", "edge_cut_proxy"]))

    def make_graph(pop, cap):
        return make_hex_graph(rows, cols, pop, cap)

    return random_instance(make_graph, rows * cols, rng, mode), rng


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(ragged_grids(), hex_tilings()))
def test_flip_state_matches_whole_plan_oracles(case):
    """After every accepted step of a band-free BAA chain, on ragged grids
    and hex tilings, each flip-state query equals its whole-plan oracle, the
    terms equal objective_terms bit for bit, and the updated state equals
    one rebuilt from scratch.  A second state follows the same flips but
    builds each boundary list only when the chain first flips across that
    pair, so lists built after commits are checked too."""
    inst, rng = case
    start = guided_growth(seed_plan(inst), inst, rng)
    walk = Walk(start, inst, OracleCheckedBand(math.inf))
    lazy = FlipState(start, inst)
    assert_matches_oracles(walk.state, inst)
    accepted = 0
    for proposal, ok in walk.run(random_proposals(walk, rng, 40)):
        if ok:
            accepted += 1
            flip_candidates(lazy, *proposal[1:])
            lazy.commit(proposal, walk.state.sums)
            assert walk.terms == objective_terms(walk.plan, inst)
            assert_matches_oracles(walk.state, inst)
    assert accepted == walk.accepted
    assert_same_state(lazy, walk.state)


@pytest.mark.parametrize("mode", ["polsby_popper", "edge_cut_proxy"])
@pytest.mark.parametrize("tiling", ["hex", "ragged"])
def test_long_chain_sums_do_not_drift(tiling, mode):
    """5,000 band-free BAA steps, each refreshing the sums by one flip's
    delta, end on sums equal bit for bit to the whole plan's."""
    rng = np.random.default_rng(11)
    if tiling == "hex":
        rows = cols = 12

        def make_graph(pop, cap):
            return make_hex_graph(rows, cols, pop, cap)
    else:
        rows, cols = 9, 11
        xs = np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, cols)])
        ys = np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, rows)])

        def make_graph(pop, cap):
            return make_ragged_graph(xs, ys, pop, cap)
    inst = random_instance(make_graph, rows * cols, rng, mode)
    walk = Walk(guided_growth(seed_plan(inst), inst, rng), inst,
                BalancedBand(math.inf))
    steps = sum(1 for _ in walk.run(random_proposals(walk, rng, 5000)))
    assert steps == 5000 and walk.accepted > 1000
    sums, whole = walk.state.sums, territory_sums(walk.plan, inst)
    for mine, theirs in zip((sums.population, sums.capacity, *sums.shape),
                            (whole.population, whole.capacity, *whole.shape)):
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()
    assert walk.terms == objective_terms(walk.plan, inst)
