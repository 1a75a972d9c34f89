import gc
import math
import tracemalloc
from types import SimpleNamespace
from unittest.mock import patch

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from districter import (ConfigError, FlipProposal, InternalError,
                        MemeticConfig, NoFeasibleFlip, Plan, SearchConfig,
                        apply_flip, flip_is_feasible, generate_grid_instance,
                        guided_growth, init_population,
                        local_improvement_pass, objective_value, propose_flip,
                        run_chain, spatial_run, validate_plan)
from districter import local_search, recombine
from districter.draws import Span
from districter.graph import stays_connected_without
from districter.local_search import (SA_COOLING, SEARCHES, Annealing,
                                     BalancedBand, Candidate,
                                     ImproveOrChance, NonWorsening, Walk,
                                     adjacent_territory_pairs,
                                     exhaustive_proposals, flip_candidates,
                                     random_proposals)
from districter.objective import objective_terms, reduce_terms, territory_sums
from districter.oracle import enumerate_feasible_plans

from conftest import (assert_same_rows, assert_same_state, chain_visited,
                      make_grid_graph, make_hex_graph, make_ragged_graph,
                      plans_equal, random_instance, sums_rows)


def test_propose_flip_frontier_only(grid3):
    # rows {0} | rows {1, 2}: only nodes 0..5 sit on the frontier
    plan = Plan(np.array([0, 0, 0, 1, 1, 1, 1, 1, 1]), np.array([0, 8]))
    rng = np.random.default_rng(0)
    walk = Walk(plan, grid3)
    for _ in range(50):
        p = propose_flip(walk, rng)
        assert p.node in {1, 2, 3, 4, 5}  # node 0 is a center, excluded
        assert plan.assignment[p.node] == p.from_territory
        assert p.from_territory != p.to_territory


def test_propose_flip_single_candidate(path3):
    plan = Plan(np.array([0, 0, 1]), path3.centers)
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert propose_flip(Walk(plan, path3), rng) == FlipProposal(1, 0, 1)


def test_propose_flip_all_centers():
    inst = generate_grid_instance(1, 2, 2, seed=0)
    plan = Plan(np.array([0, 1]), inst.centers)
    with pytest.raises(NoFeasibleFlip):
        propose_flip(Walk(plan, inst), np.random.default_rng(0))


class LastIndex:
    """A generator stand-in whose every ``integers(n)`` draw is ``n - 1``,
    the last index, recording each ``n`` it is asked for."""

    def __init__(self):
        self.asked = []

    def integers(self, n):
        self.asked.append(n)
        return n - 1


def test_propose_flip_falls_back_to_a_movable_pair(path3):
    """Pairs are redrawn while they land on a boundary of centers only;
    after that many draws the pair is drawn among the movable ones."""
    walk = Walk(Plan(np.array([0, 0, 1]), path3.centers), path3)
    # (1, 0): node 2, the last pair's only boundary node, is a center
    assert adjacent_territory_pairs(walk) == [(0, 1), (1, 0)]
    rng = LastIndex()
    assert propose_flip(walk, rng) == FlipProposal(1, 0, 1)
    assert rng.asked == [2] * 32 + [1, 1]


def test_propose_flip_needs_two_territories(grid3):
    inst = generate_grid_instance(2, 2, 1, seed=0)
    plan = Plan(np.zeros(4, dtype=np.int64), inst.centers)
    # a plan of one territory offers no flip: a walk on it ends at once
    with pytest.raises(NoFeasibleFlip, match="at least two territories"):
        propose_flip(Walk(plan, inst), np.random.default_rng(0))


def test_list_draw_equals_rng_choice():
    """propose_flip and growth draw a node as
    ``nodes[rng.integers(len(nodes))]``, from the generator or from a span
    replaying it; the seeded outputs were recorded with ``rng.choice(nodes)``.
    All must make the same draw and leave the generator in the same state,
    so a numpy release that changes either fails here by name."""
    for seed in range(6):
        a, b, c = (np.random.default_rng(seed) for _ in range(3))
        with Span(c) as draws:
            for length in range(1, 301):
                nodes = list(range(5, 5 + 3 * length, 3))
                for _ in range(3):
                    expected = b.choice(np.array(nodes))
                    assert nodes[int(a.integers(len(nodes)))] == expected
                    assert nodes[draws.integers(len(nodes))] == expected
        assert a.bit_generator.state == b.bit_generator.state
        assert c.bit_generator.state == b.bit_generator.state


def walk_one(plan, instance, proposal, rule):
    """Offer one proposal to a fresh walk; return (walk, accepted)."""
    walk = Walk(plan, instance)
    [(_, accepted)] = walk.run([proposal], rule)
    return walk, accepted


def flipped(plan, proposal):
    """``plan`` with the proposal's node moved, built without the kernel."""
    out = plan.copy()
    out.assignment[proposal.node] = proposal.to_territory
    return out


def feasible_flips(plan, instance):
    """Every feasible flip of ``plan``, found through the kernel's queries."""
    walk = Walk(plan, instance)
    for donor, recipient in adjacent_territory_pairs(walk):
        for node in flip_candidates(walk, int(donor), int(recipient)):
            prop = FlipProposal(int(node), int(donor), int(recipient))
            if flip_is_feasible(walk, prop):
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
    of the walk."""
    rng = np.random.default_rng(4)
    walk = Walk(guided_growth(grid3, rng), grid3)
    for _ in range(50):
        try:
            prop = propose_flip(walk, rng)
        except NoFeasibleFlip:
            break
        if not flip_is_feasible(walk, prop):
            continue
        before = Walk(walk.plan, grid3)
        walk.commit(apply_flip(walk, prop))
        back = FlipProposal(prop.node, prop.to_territory, prop.from_territory)
        assert flip_is_feasible(walk, back)
        walk.commit(apply_flip(walk, back))
        assert_same_state(walk, before)
        walk.commit(apply_flip(walk, prop))


def test_validated_commits_refuse_a_cut_territory(grid3, validated_commits):
    """The ``validated_commits`` fixture is not vacuous: committing a flip
    that cuts its donor in two raises InternalError.

    Territory 0 is {0, 1, 2, 3, 6}; moving node 1 to territory 1 leaves
    node 2 cut off from the center 0."""
    walk = Walk(Plan(np.array([0, 0, 0, 0, 1, 1, 0, 1, 1]), grid3.centers),
                grid3)
    cut = FlipProposal(1, 0, 1)
    assert 1 in flip_candidates(walk, 0, 1) and not flip_is_feasible(walk, cut)
    with pytest.raises(InternalError, match="accepted move broke "
                       "feasibility: territory 0 is disconnected"):
        walk.commit(apply_flip(walk, cut))


def member_walks(instance, size, rng):
    """One walk per member of a fresh population."""
    return [Walk(plan, instance)
            for plan in init_population(instance, size, rng)]


def test_local_pass_single_flip_each(grid3):
    walks = member_walks(grid3, 6, np.random.default_rng(5))
    starts = [(walk.plan.copy(), walk.accepted, walk.terms[0])
              for walk in walks]
    p_r = 0.0
    result = local_improvement_pass(walks, p_r, np.random.default_rng(6))
    for (before, accepted, j_before), walk in zip(starts, walks):
        after = walk.plan
        if walk.accepted == accepted:
            assert plans_equal(before, after)
        else:
            assert walk.terms[0] < j_before
            assert int(np.count_nonzero(
                before.assignment != after.assignment)) == 1
        assert validate_plan(after, grid3.graph, 1.0).hard_ok
    assert result.accepted_flips == sum(
        walk.accepted != accepted for (_, accepted, _), walk
        in zip(starts, walks))


def test_local_pass_leaves_local_optima_alone(grid3):
    p_r = 0.0
    walks = member_walks(grid3, 4, np.random.default_rng(7))
    # drive every member to a local optimum
    for _ in range(200):
        result = local_improvement_pass(walks, p_r,
                                        np.random.default_rng(8))
        if result.accepted_flips == 0:
            break
    assert result.accepted_flips == 0
    converged = [walk.plan.copy() for walk in walks]
    counts = [walk.accepted for walk in walks]
    again = local_improvement_pass(walks, p_r, np.random.default_rng(9))
    assert again.accepted_flips == 0
    assert [walk.accepted for walk in walks] == counts
    assert all(plans_equal(a, walk.plan)
               for a, walk in zip(converged, walks))


def test_baseline_traces_and_determinism(grid3):
    rng = np.random.default_rng(10)
    start = guided_growth(grid3, rng)
    config = SearchConfig(max_iters=300)
    for algo in ("shc", "sa"):
        summary1, plan1 = run_chain(grid3, algo, config,
                                    np.random.default_rng(11), start)
        summary2, plan2 = run_chain(grid3, algo, config,
                                    np.random.default_rng(11), start)
        assert plans_equal(plan1, plan2) and summary1 == summary2
        assert validate_plan(plan1, grid3.graph, 1.0).hard_ok
        js = [row[1] for row in summary1.trace]
        if algo == "shc":
            assert all(a >= b for a, b in zip(js, js[1:]))  # non-increasing


# the proposal budget of each search; the two budgets differ below, so a
# search run on the other one shows
BUDGETS = {"shc": 40, "sa": 40, "baa": 70, "bcaa": 70, "aio": 70}


@pytest.mark.parametrize("tiling", ["grid3", "hex"])
@pytest.mark.parametrize("search", list(SEARCHES))
def test_run_chain_every_search(grid3, search, tiling):
    """Each search walks its own budget; its best J is the least of the
    start's J and the trace's J column, and is the J of the plan it
    returns; the trace's accepted column sums to the accepted count."""
    inst = grid3 if tiling == "grid3" else random_instance(
        lambda pop, cap: make_hex_graph(6, 7, pop, cap), 42,
        np.random.default_rng(30), "polsby_popper", k=4)
    rng = np.random.default_rng(31)
    start = guided_growth(inst, rng)
    config = SearchConfig(max_iters=40, chain_steps=70)
    summary, best = run_chain(inst, search, config, rng, start)
    assert [row[0] for row in summary.trace] == list(
        range(1, BUDGETS[search] + 1))
    js = [objective_terms(start, inst)[0]] + [row[1] for row in summary.trace]
    assert summary.best_j == objective_terms(best, inst)[0] == min(js)
    assert sum(row[4] for row in summary.trace) == summary.accepted
    assert validate_plan(best, inst.graph, 1.0).hard_ok


def test_run_chain_refuses_an_unknown_search(grid3):
    start = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), grid3.centers)
    with pytest.raises(ConfigError, match="unknown search 'ts'"):
        run_chain(grid3, "ts", SearchConfig(), np.random.default_rng(0),
                  start)


def terms(j):
    return (j, 0.0, 0.0)


def test_shc_accepts_equal_moves(grid3):
    walk = SimpleNamespace(terms=terms(1.0))
    candidate = Candidate((FlipProposal(1, 0, 1),), terms(1.0), {})
    assert NonWorsening()(walk, candidate)
    assert not ImproveOrChance(0.0, np.random.default_rng(0))(walk, candidate)


def test_sa_cold_behaves_greedily(grid3):
    walk = Walk(guided_growth(grid3, np.random.default_rng(12)), grid3)
    rng = np.random.default_rng(13)
    js = [walk.terms[0] for _ in walk.run(random_proposals(walk, rng, 300),
                                          Annealing(1e-12, SA_COOLING, rng))]
    assert len(js) == 300
    assert all(a >= b for a, b in zip(js, js[1:]))


def test_chain_aio_trace_non_increasing(grid3):
    rng = np.random.default_rng(16)
    start = guided_growth(grid3, rng)
    config = SearchConfig(chain_steps=2000)
    summary, best = run_chain(grid3, "aio", config, rng, start)
    assert summary.accepted >= 1
    assert objective_value(best, grid3) <= objective_value(start, grid3)


def test_chain_baa_band_infinite_accepts_everything_feasible(grid3):
    rng = np.random.default_rng(17)
    start = guided_growth(grid3, rng)
    visited = chain_visited(grid3, start, rng, 3000)
    target = {p.assignment.tobytes() for p in enumerate_feasible_plans(grid3)}
    assert visited == target  # full coverage on grid3


def test_chain_baa_covers_two_by_two():
    inst = generate_grid_instance(2, 2, 2, seed=0, centers=(0, 3))
    target = {p.assignment.tobytes() for p in enumerate_feasible_plans(inst)}
    assert len(target) == 4
    start = guided_growth(inst, np.random.default_rng(18))
    assert chain_visited(inst, start, np.random.default_rng(18),
                         10_000) == target


def test_chain_baa_band_rule():
    inst = generate_grid_instance(4, 4, 2, seed=2)
    rng = np.random.default_rng(19)
    start = guided_growth(inst, rng)
    config = SearchConfig(chain_steps=500, acceptance_band=0.15)
    summary, best = run_chain(inst, "baa", config, rng, start)
    # replay the same chain step by step: every accepted step keeps both
    # involved territories inside the band; the first plan of least J is
    # the best
    rng = np.random.default_rng(19)
    assert plans_equal(guided_growth(inst, rng), start)
    walk = Walk(start.copy(), inst)
    replay_best, replay_j = start, walk.terms[0]
    flags = []
    for proposal, accepted in walk.run(random_proposals(walk, rng, 500),
                                       BalancedBand(0.15)):
        flags.append(int(accepted))
        if accepted:
            sums = territory_sums(walk.plan, inst)
            pop, cap = sums[:2]
            for t in (proposal.from_territory, proposal.to_territory):
                assert abs(1.0 - pop[t] / cap[t]) <= 0.15
            if walk.terms[0] < replay_j:
                replay_best, replay_j = walk.plan.copy(), walk.terms[0]
    assert flags == [row[4] for row in summary.trace]
    assert summary.accepted >= 1
    assert plans_equal(replay_best, best) and replay_j == summary.best_j


def test_chain_determinism(grid3):
    start = guided_growth(grid3, np.random.default_rng(20))
    config = SearchConfig(chain_steps=1500, acceptance_band=math.inf)
    s1, b1 = run_chain(grid3, "baa", config, np.random.default_rng(21), start)
    s2, b2 = run_chain(grid3, "baa", config, np.random.default_rng(21), start)
    assert plans_equal(b1, b2)
    assert s1.accepted == s2.accepted and s1.trace == s2.trace


def test_chain_memory_grows_only_by_its_trace():
    """A chain keeps no per-plan record: the memory a band-free BAA run
    holds grows by at most 200 B per extra step, about what its trace rows
    take (a packed key of every accepted plan took about 1 KB a step)."""
    inst = generate_grid_instance(40, 40, 16, 1)
    start = guided_growth(inst, np.random.default_rng(22))
    inst.graph.corners      # the map's table, once per map: not the chain's
    held = []
    for steps in (1000, 3000):
        config = SearchConfig(chain_steps=steps, acceptance_band=math.inf)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_chain(inst, "baa", config,
                               np.random.default_rng(23), start)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        assert result[0].accepted > steps // 2
        del result
    assert (held[1] - held[0]) / 2000 <= 200


def test_search_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(acceptance_band=-0.1)
    with pytest.raises(ConfigError):
        SearchConfig(acceptance_band=math.nan)
    SearchConfig(acceptance_band=math.inf)


# ---------------------------------------------------------------------------
# The walk against whole-plan oracles
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
            and any(a[w] == recipient for w in graph.neighbor_lists[u])]


def oracle_feasible(plan, graph, proposal):
    node, donor, recipient = proposal
    a = plan.assignment
    if a[node] != donor or node in plan.centers:
        return False
    if not any(a[w] == recipient for w in graph.neighbor_lists[node]):
        return False
    rest = [u for u in range(graph.node_count) if a[u] == donor and u != node]
    g = nx.Graph()
    g.add_nodes_from(rest)
    g.add_edges_from((u, v) for u, v in graph.edges.tolist()
                     if u in g and v in g)
    return len(rest) > 0 and nx.is_connected(g)


def assert_matches_oracles(walk, instance):
    plan, graph = walk.plan, instance.graph
    k = plan.territory_count
    a = plan.assignment
    cuts = np.zeros((k, k), dtype=np.int64)
    for u, v in graph.edges.tolist():
        if a[u] != a[v]:
            cuts[a[u], a[v]] += 1
            cuts[a[v], a[u]] += 1
    assert walk.pair_cuts == cuts.tolist()
    assert adjacent_territory_pairs(walk) == oracle_pairs(plan, graph)
    for donor in range(k):
        for recipient in range(k):
            if donor != recipient:
                assert (flip_candidates(walk, donor, recipient)
                        == oracle_candidates(plan, graph, donor, recipient))
    for node in range(graph.node_count):
        for recipient in range(k):
            prop = FlipProposal(node, int(plan.assignment[node]), recipient)
            if recipient != prop.from_territory:
                assert (flip_is_feasible(walk, prop)
                        == oracle_feasible(plan, graph, prop))
    assert (reduce_terms(walk.balance, walk.compactness,
                         instance.objective_config)
            == objective_terms(plan, instance))
    assert_same_state(walk, Walk(plan, instance))


class OracleCheckedBand(BalancedBand):
    """BalancedBand that first checks the candidate's terms against a
    whole-plan evaluation of the flipped plan."""

    def __call__(self, walk, candidate):
        whole = objective_terms(flipped(walk.plan, *candidate.moves),
                                walk.instance)
        assert candidate.terms == whole
        return super().__call__(walk, candidate)


# K up to 12, so some walks reduce their terms with pairwise_sum's eight
# accumulators (K >= 8) and not only with its plain loop
TERRITORY_COUNTS = st.integers(2, 12)


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

    return random_instance(make_graph, rows * cols, rng, mode,
                           draw(TERRITORY_COUNTS)), rng


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

    return random_instance(make_graph, rows * cols, rng, mode,
                           draw(TERRITORY_COUNTS)), rng


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(ragged_grids(), hex_tilings()))
def test_flip_state_matches_whole_plan_oracles(case):
    """After every accepted step of a band-free BAA chain, on ragged grids
    and hex tilings, each walk query equals its whole-plan oracle, the
    terms equal objective_terms bit for bit, and the updated walk equals
    one rebuilt from scratch."""
    check_flip_state(case, corners=False)


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(ragged_grids(), hex_tilings()))
def test_flip_state_with_the_corner_table_matches_whole_plan_oracles(case):
    """The same, for a walk that answers its contiguity checks from the
    corner table from the start: its V_T, E_T and F_T equal a fresh count
    after every step."""
    check_flip_state(case, corners=True)


def check_flip_state(case, corners):
    """Also checks that each walk answered its contiguity checks its own
    way: the searching walk by search and never by the corner rule, the
    other by the corner rule."""
    inst, rng = case
    start = guided_growth(inst, rng)
    walk = Walk(start, inst)
    if corners:
        walk.take_corners()
        assert walk.counts is not None
    else:
        walk.table_price = math.inf
    accepted = 0
    with (patch.object(local_search, "corner_answer",
                       wraps=local_search.corner_answer) as answers,
          patch.object(local_search, "stays_connected_without",
                       wraps=stays_connected_without) as searches):
        assert_matches_oracles(walk, inst)
        for proposal, ok in walk.run(random_proposals(walk, rng, 40),
                                     OracleCheckedBand(math.inf)):
            if ok:
                accepted += 1
                assert walk.terms == objective_terms(walk.plan, inst)
                assert_matches_oracles(walk, inst)
    assert accepted == walk.accepted
    movable = inst.graph.node_count > walk.territory_count  # not all centers
    assert answers.called == (corners and movable)
    assert searches.called or corners or not movable


def test_member_walks_equal_rebuilt_states_after_each_pass():
    """A member's walk lives through many local passes; after each pass its
    state equals one rebuilt from scratch from its plan, its terms equal the
    whole plan's, and the pass accepted at most one flip per member (the
    sweep stops at its own first acceptance, not at the walk's first)."""
    inst = generate_grid_instance(10, 10, 4, seed=42,
                                  balance_profile="clustered")
    walks = member_walks(inst, 6, np.random.default_rng(31))
    p_r = 0.2
    rng = np.random.default_rng(32)
    for _ in range(12):
        counts = [walk.accepted for walk in walks]
        result = local_improvement_pass(walks, p_r, rng)
        gains = [walk.accepted - count for walk, count in zip(walks, counts)]
        assert set(gains) <= {0, 1} and sum(gains) == result.accepted_flips
        for walk in walks:
            assert walk.terms == objective_terms(walk.plan, inst)
            assert_same_state(walk, Walk(walk.plan, inst))
    assert all(walk.accepted >= 6 for walk in walks)


@pytest.mark.parametrize("mode", ["polsby_popper", "edge_cut_proxy"])
@pytest.mark.parametrize("tiling", ["hex", "ragged"])
def test_long_chain_sums_do_not_drift(tiling, mode):
    """5,000 band-free BAA steps, each refreshing the rows of sums by one
    flip's delta, end on rows equal bit for bit to a fresh build's and to
    the whole plan's sums, transposed."""
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
    walk = Walk(guided_growth(inst, rng), inst)
    steps = sum(1 for _ in walk.run(random_proposals(walk, rng, 5000),
                                    BalancedBand(math.inf)))
    assert steps == 5000 and walk.accepted > 1000
    assert_same_rows(walk.rows, Walk(walk.plan, inst).rows)
    assert_same_rows(walk.rows, sums_rows(territory_sums(walk.plan, inst)))
    assert walk.terms == objective_terms(walk.plan, inst)


# ---------------------------------------------------------------------------
# The walk's memo of scored flips
# ---------------------------------------------------------------------------

def memo_instance(tiling):
    if tiling == "grid":
        return generate_grid_instance(6, 6, 3, seed=42,
                                      balance_profile="clustered")
    return random_instance(lambda pop, cap: make_hex_graph(6, 7, pop, cap),
                           42, np.random.default_rng(40), "polsby_popper", k=4)


class Recorder:
    """An acceptance rule that records each candidate it decides."""

    def __init__(self, rule):
        self.rule, self.seen = rule, []

    def __call__(self, walk, candidate):
        self.seen.append(candidate)
        return self.rule(walk, candidate)


def oracle_replay(walk, proposals, rule, counts):
    """``walk.run(proposals, rule)``, checking every decision against a fresh
    :func:`flip_is_feasible` and :func:`apply_flip` on a walk rebuilt from
    the plan before the step: an infeasible flip never reaches the rule, a
    feasible one reaches it as the fresh candidate.  Also checks after every
    step that the memo holds exactly the distinct proposals since the last
    commit (none after a commit), and counts the steps that found their
    proposal in the memo in ``counts["hits"]``.  A walk's memo outlives a
    run; the previous replay checked what it holds at the start."""
    expected = []
    since = set(walk.scored)

    def source():
        for proposal in proposals:
            fresh = Walk(walk.plan, walk.instance)
            expected.append(apply_flip(fresh, proposal)
                            if flip_is_feasible(fresh, proposal) else None)
            counts["hits"] += proposal in walk.scored
            yield proposal

    recorder = Recorder(rule)
    for proposal, accepted in walk.run(source(), recorder):
        candidate = expected.pop()
        if candidate is None:
            assert not recorder.seen and not accepted
        else:
            assert recorder.seen.pop() == candidate
        since = set() if accepted else since | {proposal}
        assert set(walk.scored) == since
        yield proposal, accepted


@pytest.mark.parametrize("tiling", ["grid", "hex"])
def test_local_pass_decisions_equal_fresh_scoring(tiling):
    """The local pass, replayed with every decision checked against fresh
    scoring (:func:`oracle_replay`), keeps the plans and acceptance counts
    of :func:`local_improvement_pass` on a twin population through
    convergence, where the memo answers whole sweeps."""
    inst = memo_instance(tiling)
    p_r = 0.05
    walks = member_walks(inst, 4, np.random.default_rng(41))
    twins = member_walks(inst, 4, np.random.default_rng(41))
    rng, twin_rng = np.random.default_rng(42), np.random.default_rng(42)
    counts = {"hits": 0}
    for _ in range(40):
        local_improvement_pass(walks, p_r, rng)
        for twin, stream in zip(twins, twin_rng.spawn(len(twins))):
            rule = ImproveOrChance(p_r, stream)
            for _ in oracle_replay(twin, exhaustive_proposals(twin, stream),
                                   rule, counts):
                pass
        for walk, twin in zip(walks, twins):
            assert plans_equal(walk.plan, twin.plan)
            assert (walk.accepted, walk.terms) == (twin.accepted, twin.terms)
    assert counts["hits"] > 0


@pytest.mark.parametrize("tiling", ["grid", "hex"])
@pytest.mark.parametrize("search", list(SEARCHES))
def test_chain_decisions_equal_fresh_scoring(search, tiling, monkeypatch):
    """Every SEARCHES entry, replayed with every decision checked against
    fresh scoring (:func:`oracle_replay`), writes the trace that
    :func:`run_chain` writes from the same generator."""
    inst = memo_instance(tiling)
    start = guided_growth(inst, np.random.default_rng(43))
    # the band lets BAA and BCAA accept some flips on both maps, and the
    # cooler start lets SA reject some
    config = SearchConfig(max_iters=300, chain_steps=300, acceptance_band=2.0)
    monkeypatch.setattr(local_search, "SA_INITIAL_TEMP", 0.01)
    summary, _ = run_chain(inst, search, config, np.random.default_rng(44),
                           start)
    rng = np.random.default_rng(44)
    budget, make_rule = SEARCHES[search]
    walk = Walk(start, inst)
    counts = {"hits": 0}
    trace = [(it, *walk.terms, int(accepted)) for it, (_, accepted) in
             enumerate(oracle_replay(walk, random_proposals(walk, rng, 300),
                                     make_rule(config, rng), counts),
                       start=1)]
    assert trace == summary.trace and 0 < walk.accepted < 300
    if search in ("shc", "aio"):
        assert counts["hits"] > 0


def test_exhausted_member_sweeps_again_from_the_memo(grid3, monkeypatch):
    """Once a member's sweep has scored every flip of its plan and kept
    none, the next sweep neither checks nor scores a flip: each verdict
    comes from the memo, and the plan stays as it is."""
    p_r = 0.0
    walks = member_walks(grid3, 4, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    while local_improvement_pass(walks, p_r, rng).accepted_flips:
        pass
    assert all(walk.scored for walk in walks)
    plans = [walk.plan.copy() for walk in walks]
    memos = [dict(walk.scored) for walk in walks]

    def refuse(*args):
        raise AssertionError("a memo hit scored a flip again")

    monkeypatch.setattr(local_search, "flip_is_feasible", refuse)
    monkeypatch.setattr(local_search, "apply_flip", refuse)
    assert local_improvement_pass(walks, p_r, rng).accepted_flips == 0
    assert all(plans_equal(a, walk.plan) for a, walk in zip(plans, walks))
    assert [walk.scored for walk in walks] == memos


def test_memo_cap_changes_no_output(monkeypatch):
    """With the memo capped at 3 entries, a seeded spatial solve and a BAA
    chain write the same outputs as with the default cap, byte for byte,
    while no walk's memo ever holds more than 3 entries (uncapped, they
    hold more)."""
    inst = memo_instance("hex")
    peaks = []
    run = Walk.run

    def counted(walk, proposals, rule):
        for step in run(walk, proposals, rule):
            peaks.append(len(walk.scored))
            yield step

    monkeypatch.setattr(Walk, "run", counted)

    def outputs():
        config = MemeticConfig(population_size=4, iterations=30,
                               worse_accept_prob=0.0)
        result = spatial_run(inst, config, np.random.default_rng(50))
        start = guided_growth(inst, np.random.default_rng(51))
        rng = np.random.default_rng(52)
        summary, best = run_chain(
            inst, "baa", SearchConfig(chain_steps=400, acceptance_band=0.05),
            rng, start)
        return repr((result.best_plan.assignment.tobytes(), result.best_j,
                     [row[:5] for row in result.trace], result.accepted_flips,
                     result.accepted_recombinations, summary.trace,
                     summary.accepted, best.assignment.tobytes(),
                     rng.bit_generator.state))

    uncapped = outputs()
    assert max(peaks) > 3
    peaks.clear()
    monkeypatch.setattr(local_search, "MEMO_CAP", 3)
    assert outputs() == uncapped
    assert max(peaks) == 3


# ---------------------------------------------------------------------------
# Scoring writes into the walk's owners and writes them back
# ---------------------------------------------------------------------------

def walk_snapshot(walk):
    """Copies of what scoring may not change: owners, plan, rows of sums,
    terms and the corner counts."""
    return (list(walk.owner), walk.plan.assignment.tobytes(),
            [list(row) for row in walk.rows], list(walk.balance),
            list(walk.compactness), walk.terms,
            None if walk.counts is None else [list(c) for c in walk.counts])


@pytest.mark.parametrize("tiling", ["grid", "hex"])
def test_scoring_leaves_the_walk_as_it_was(tiling, monkeypatch):
    """apply_flip writes each move into ``walk.owner``, and each changed
    territory's terms into ``walk.balance`` and ``walk.compactness``, and
    writes them all back on its way out.  After a flip, after a batch in
    which a node moves twice, after batches whose last move raises (before
    and after writing its owner), and after a flip whose term evaluation
    raises once the first territory's terms are written, the owners, the
    plan, the rows of sums, the terms and the corner counts are as they
    were, and the walk equals a fresh build of its plan.  The batch's score
    is that of the plan its moves make.  Checked on a walk that searches
    and on one that has taken the corner table."""
    inst = memo_instance(tiling)
    for corners in (False, True):
        walk = Walk(guided_growth(inst, np.random.default_rng(60)), inst)
        if corners:
            walk.take_corners()
            assert walk.counts is not None
        check_scoring_leaves(walk, monkeypatch)


def check_scoring_leaves(walk, monkeypatch):
    inst = walk.instance
    first, *rest = feasible_flips(walk.plan, inst)
    second = next(p for p in rest if p.node != first.node)
    back = FlipProposal(first.node, first.to_territory, first.from_territory)
    before = walk_snapshot(walk)
    for moves in ([first], [first, second], [first, second, back]):
        candidate = apply_flip(walk, *moves)
        expected = walk.plan.copy()
        for node, _, recipient in moves:
            expected.assignment[node] = recipient
        assert candidate.terms == objective_terms(expected, inst)
        assert walk_snapshot(walk) == before
    # no such node: the move raises before it writes an owner; no such
    # donor: it raises after, and its node moved once already
    for bad in (FlipProposal(inst.graph.node_count, first.from_territory,
                             first.to_territory),
                FlipProposal(second.node, walk.territory_count, 0)):
        with pytest.raises(IndexError):
            apply_flip(walk, first, second, bad)
        assert walk_snapshot(walk) == before
    # the second territory's balance deviation raises: the first one's two
    # terms are already in the walk's lists
    balance_deviation = local_search.balance_deviation
    calls = []

    def raise_on_second(*args):
        calls.append((list(walk.balance), list(walk.compactness)))
        if len(calls) == 2:
            raise ZeroDivisionError("second territory")
        return balance_deviation(*args)

    monkeypatch.setattr(local_search, "balance_deviation", raise_on_second)
    with pytest.raises(ZeroDivisionError):
        apply_flip(walk, first)
    assert calls[0] == (before[3], before[4]) != calls[1]
    assert walk_snapshot(walk) == before
    monkeypatch.undo()
    assert_same_state(walk, Walk(walk.plan, inst))


# ---------------------------------------------------------------------------
# The walk's build against per-pair scans
# ---------------------------------------------------------------------------

def assert_lists_match_scans(walk, instance):
    """The walk's cut counts, pair list and every boundary list equal scans
    of its plan, one pair at a time; a territory's list with itself is
    empty."""
    plan, graph = walk.plan, instance.graph
    k, a = plan.territory_count, plan.assignment
    cuts = np.zeros((k, k), dtype=np.int64)
    for u, v in graph.edges.tolist():
        if a[u] != a[v]:
            cuts[a[u], a[v]] += 1
            cuts[a[v], a[u]] += 1
    assert walk.pair_cuts == cuts.tolist()
    assert walk.pairs == oracle_pairs(plan, graph)
    for donor in range(k):
        for recipient in range(k):
            assert walk.boundary(donor, recipient) == (
                oracle_candidates(plan, graph, donor, recipient)
                if donor != recipient else [])


@pytest.mark.parametrize("case", ["one territory", "center-only boundary",
                                  "singleton territory", "K > N/2"])
def test_walk_build_equals_per_pair_scans(case):
    """The boundary lists of a fresh walk, built by one sort of the cut
    edges' keys, equal per-pair scans: with one territory (no list but an
    empty one), with territories whose only boundary node is their center,
    and with more territories than half the nodes (most lists empty)."""
    rows, cols, assignment, centers = {
        "one territory": (3, 3, [0] * 9, [4]),
        "center-only boundary": (1, 4, [0, 0, 1, 1], [1, 2]),
        "singleton territory": (3, 3, [0, 0, 0, 0, 1, 0, 0, 0, 0], [0, 4]),
        "K > N/2": (3, 3, [0, 1, 2, 0, 3, 3, 4, 4, 5], [0, 1, 2, 4, 6, 8]),
    }[case]
    inst = generate_grid_instance(rows, cols, len(centers), seed=0,
                                  centers=centers)
    walk = Walk(Plan(assignment, centers), inst)
    assert_lists_match_scans(walk, inst)
    if case != "one territory":
        assert any(not walk.boundary(d, r) for d, r in walk.pairs)


@pytest.mark.parametrize("tiling", ["grid", "hex"])
def test_walk_build_equals_per_pair_scans_on_random_plans(tiling):
    """Random assignments (not contiguous: the build does not need it) with
    K from 1 to N, each center in its own territory, build the lists the
    per-pair scans find."""
    rng = np.random.default_rng(61)
    rows, cols = 4, 5
    n = rows * cols
    make_graph = {"grid": lambda pop, cap: make_grid_graph(rows, cols, pop, cap),
                  "hex": lambda pop, cap: make_hex_graph(rows, cols, pop, cap)
                  }[tiling]
    for k in (1, 2, 3, n // 2 + 1, n - 1, n):
        inst = random_instance(make_graph, n, rng, "edge_cut_proxy", k=k)
        assignment = rng.integers(k, size=n)
        assignment[inst.centers] = np.arange(k)
        walk = Walk(Plan(assignment, inst.centers), inst)
        assert_lists_match_scans(walk, inst)


# ---------------------------------------------------------------------------
# The walk's contiguity answers after every commit
# ---------------------------------------------------------------------------

def connected_without_nx(graph, owner, node):
    """Whether the territory of ``node`` is non-empty and connected without
    it, by networkx."""
    t = owner[node]
    rest = [u for u in range(graph.node_count) if owner[u] == t and u != node]
    g = nx.Graph()
    g.add_nodes_from(rest)
    g.add_edges_from((u, v) for u, v in graph.edges.tolist()
                     if u in g and v in g)
    return len(rest) > 0 and nx.is_connected(g)


def assert_answers_hold(walk):
    """Every boundary node's flip_is_feasible equals an uncached search and
    networkx."""
    graph, owner = walk.instance.graph, walk.owner
    for donor, recipient in walk.pairs:
        for node in walk.boundary(donor, recipient):
            whole = stays_connected_without(graph, owner, node)
            assert whole == connected_without_nx(graph, owner, node)
            assert flip_is_feasible(walk, FlipProposal(node, donor,
                                                       recipient)) == whole


def answer_walks(tiling, corners):
    """A walk and a guide for it on a small grid, hex or ragged map; with
    ``corners`` the walk takes the corner table at once, and without it
    never does (its splits would pay for the table within a few commits)."""
    rng = np.random.default_rng(70)
    if tiling == "grid":
        inst = generate_grid_instance(6, 7, 4, seed=71,
                                      balance_profile="clustered")
    elif tiling == "hex":
        inst = random_instance(lambda pop, cap: make_hex_graph(6, 6, pop, cap),
                               36, rng, "polsby_popper", k=4)
    else:
        xs = np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, 6)])
        ys = np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, 5)])
        inst = random_instance(
            lambda pop, cap: make_ragged_graph(xs, ys, pop, cap), 30, rng,
            "edge_cut_proxy", k=4)
    walk, guide = member_walks(inst, 2, rng)
    if corners:
        walk.take_corners()
        assert walk.counts is not None
    else:
        walk.table_price = math.inf
    return walk, guide, rng


def commit_and_check(walk, guide, rng):
    """Commit single flips, recombination batches and a batch in which one
    node moves twice, checking every boundary node's answer after every
    commit."""
    graph = walk.instance.graph
    assert_answers_hold(walk)
    for _ in range(6):
        for _, accepted in walk.run(random_proposals(walk, rng, 15),
                                    BalancedBand(math.inf)):
            if accepted:
                assert_answers_hold(walk)
        moves, swap = recombine(walk, guide, rng)
        if swap is not None:
            walk.commit(apply_flip(walk, *moves))
            assert_answers_hold(walk)
        # a boundary node that touches two other territories moves to one
        # and on to the other
        owner = walk.owner
        for first in feasible_flips(walk.plan, walk.instance):
            node, donor, recipient = first
            onward = sorted({owner[w] for w in graph.neighbor_lists[node]}
                            - {donor, recipient})
            if onward:
                walk.commit(apply_flip(walk, first, FlipProposal(
                    node, recipient, onward[0])))
                assert validate_plan(walk.plan, graph, math.inf).hard_ok
                assert_answers_hold(walk)
                break


@pytest.mark.parametrize("tiling", ["grid", "hex", "ragged"])
def test_kept_contiguity_answers_equal_fresh_searches(tiling):
    """After every commit of a flip, a recombination batch or a batch that
    moves one node twice, each boundary node's flip_is_feasible equals an
    uncached stays_connected_without and networkx's is_connected of the
    territory without the node: for a walk that searches, and for one that
    answers from the corner table and the counts its commits keep."""
    for corners in (False, True):
        commit_and_check(*answer_walks(tiling, corners))
