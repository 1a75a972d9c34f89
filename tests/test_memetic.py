import hashlib

import numpy as np
import pytest

from districter import (ConfigError, InstanceError, MemeticConfig, Plan,
                        SearchConfig, generate_grid_instance, guided_growth,
                        init_population, is_connected, mate_wheel,
                        objective_terms, objective_value, recombine, repair,
                        run_chain, select_mate, spatial_run, validate_plan)
from districter import local_search, memetic, objective
from districter.local_search import Walk, apply_flip, local_improvement_pass
from districter.memetic import SwapMove
from districter.objective import fitness, territory_sums, territory_terms

from conftest import (assert_same_rows, assert_same_state, make_hex_graph,
                      make_ragged_graph, plans_equal, random_instance,
                      recount, reference_repair, sums_rows)


def test_select_mate_proportional():
    rng = np.random.default_rng(0)
    wheel = mate_wheel([1.0, 1e-12])
    picks = {select_mate(wheel, rng) for _ in range(200)}
    assert picks == {0}

    rng = np.random.default_rng(1)
    wheel = mate_wheel([0.5] * 4)
    counts = np.bincount([select_mate(wheel, rng) for _ in range(10_000)],
                         minlength=4)
    # each frequency within 3 sigma of uniform
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 3 * sigma)

    with pytest.raises(ConfigError):
        mate_wheel([1.0])


def test_select_mate_draws_what_rng_choice_draws():
    """Across seeds and lengths (past the 128 weights where numpy's sum
    splits in halves), each of five picks from one mate_wheel is the index
    that ``rng.choice(n, p=w / w.sum())`` picks, and the generator ends in
    the same state; weights that are not finite and positive are
    refused."""
    for seed in range(400):
        draw = np.random.default_rng(seed)
        n = int(draw.integers(2, 40 if seed % 4 else 300))
        weights = draw.random(n) * 10.0 ** draw.integers(-12, 3) + 1e-300
        mine, theirs = (np.random.default_rng(seed + 1000) for _ in range(2))
        wheel = mate_wheel(weights.tolist())
        for _ in range(5):
            assert (select_mate(wheel, mine)
                    == theirs.choice(n, p=weights / weights.sum()))
        assert mine.bit_generator.state == theirs.bit_generator.state
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite positive weights"):
            mate_wheel([1.0, bad])


def swapped(plan, moves):
    """``plan`` after the reassignments ``moves``, made in turn."""
    a = plan.assignment.copy()
    for node, donor, recipient in moves:
        assert a[node] == donor
        a[node] = recipient
    return Plan(a, plan.centers.copy())


def test_recombine_identical_parents_noop(grid3):
    plan = guided_growth(grid3, np.random.default_rng(3))
    walk = Walk(plan, grid3)
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    moves, move = recombine(walk, walk, rng)
    assert move is None and moves == []
    assert rng.bit_generator.state == state     # no territory, no draw


def test_recombine_one_node_difference_is_noop(grid3):
    """Parents differing at a single node have no eligible territory: the
    shared part of each differing territory equals the smaller version, so a
    swap (which always moves two nodes) can never apply."""
    a = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), grid3.centers)
    b = Plan(np.array([0, 0, 0, 0, 1, 1, 1, 1, 1]), grid3.centers)
    moves, move = recombine(Walk(a, grid3), Walk(b, grid3),
                            np.random.default_rng(5))
    assert move is None and moves == []


def test_recombine_feasible_and_swap_structure():
    inst = generate_grid_instance(6, 6, 3, seed=6)
    rng = np.random.default_rng(7)
    ok = 0
    for trial in range(1000):
        p1 = guided_growth(inst, rng)
        p2 = guided_growth(inst, rng)
        moves, move = recombine(Walk(p1, inst), Walk(p2, inst), rng)
        assert validate_plan(swapped(p1, moves), inst.graph, 1.0).hard_ok
        if move is None:
            continue
        ok += 1
        t, incoming, outgoing = move
        # the swap strictly grows the territory's overlap with the guide
        assert p2.assignment[incoming] == t and p1.assignment[incoming] != t
        assert p1.assignment[outgoing] == t and p2.assignment[outgoing] != t
        assert incoming not in inst.centers and outgoing not in inst.centers
    assert ok > 900  # random parents almost always admit a swap


def neighbors_of_territory(plan, graph, i):
    """All nodes outside territory ``i`` adjacent to one of its nodes, by a
    scan of every edge."""
    a = plan.assignment
    eu, ev = graph.edges[:, 0], graph.edges[:, 1]
    in_u, in_v = a[eu] == i, a[ev] == i
    return np.unique(np.concatenate([ev[in_u & ~in_v], eu[in_v & ~in_u]]))


def reference_recombine(child_from, guide, instance, rng):
    """Recombination as it was on whole numpy plans: a territory's
    neighbours by a scan of every edge, a breadth-first connectivity check
    of the touched territories and a repair pass over every territory.  The
    oracle for :func:`recombine`'s candidate plan, swap and draws."""
    graph = instance.graph
    a_child = child_from.assignment
    a_guide = guide.assignment
    k = child_from.territory_count

    both = a_child == a_guide
    inter = np.bincount(a_child[both], minlength=k)
    size_child = np.bincount(a_child, minlength=k)
    size_guide = np.bincount(a_guide, minlength=k)
    eligible = np.flatnonzero((inter > 0)
                              & (inter < np.minimum(size_child, size_guide)))
    if eligible.size == 0:
        return child_from, None

    for t in rng.permutation(eligible):
        t = int(t)
        touches_child = neighbors_of_territory(child_from, graph, t)
        touches_child = touches_child[a_guide[touches_child] == t]
        touches_guide = neighbors_of_territory(guide, graph, t)
        touches_guide = touches_guide[a_child[touches_guide] == t]
        touches_child = touches_child[~np.isin(touches_child, child_from.centers)]
        touches_guide = touches_guide[~np.isin(touches_guide, child_from.centers)]
        if not touches_child.size or not touches_guide.size:
            continue
        incoming = int(rng.choice(touches_child))
        a_new = a_child.copy()
        a_new[incoming] = t
        outgoing = None
        for u in rng.permutation(touches_guide):
            u = int(u)
            destinations = np.unique(a_new[list(graph.neighbor_lists[u])])
            destinations = destinations[destinations != t]
            if destinations.size:
                outgoing = u
                a_new[u] = int(rng.choice(destinations))
                break
        if outgoing is None:
            continue
        plan = Plan(a_new, child_from.centers.copy())
        touched = {t, int(a_child[incoming]), int(a_new[outgoing])}
        if any(not is_connected(graph, plan.territory(i)) for i in touched):
            plan = reference_repair(plan, instance, rng)
        return plan, SwapMove(t, incoming, outgoing)
    return child_from, None


def parent_pairs(inst, rng, count):
    """``count`` (child, guide) plan pairs: grown independently, or the guide
    a few free flips away from the child, so that most territories are
    shared and few are eligible."""
    for trial in range(count):
        child = guided_growth(inst, rng)
        if trial % 2:
            guide = guided_growth(inst, rng)
        else:
            walk = Walk(child, inst)
            for _ in walk.run(local_search.random_proposals(walk, rng, 12),
                              local_search.BalancedBand(np.inf)):
                pass
            guide = walk.plan
        yield child, guide


def ragged_instance(rng):
    """A random ragged 8x9 tiling (:func:`make_ragged_graph`), K = 5."""
    xs = np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, 9)])
    ys = np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, 8)])
    return random_instance(
        lambda pop, cap: make_ragged_graph(xs, ys, pop, cap), 72, rng,
        "polsby_popper", k=5)


RECOMBINE_CASES = {
    "grid6": lambda rng: generate_grid_instance(6, 6, 3, seed=6),
    "grid12": lambda rng: generate_grid_instance(12, 12, 5, seed=2),
    # the size of the benchmark's large design, where a territory's orphan
    # pieces lie far from its center
    "grid40": lambda rng: generate_grid_instance(
        40, 40, 16, seed=1, balance_profile="clustered"),
    "hex": lambda rng: random_instance(
        lambda pop, cap: make_hex_graph(8, 9, pop, cap), 72, rng,
        "polsby_popper", k=5),
    "ragged": ragged_instance,
}


@pytest.mark.parametrize("case", sorted(RECOMBINE_CASES))
def test_recombine_matches_reference(case):
    """Over 200 parent pairs per graph, recombination on the walks makes
    the reference's candidate plan and swap with the same draws, and leaves
    both walks as they were."""
    rng = np.random.default_rng(41)
    inst = RECOMBINE_CASES[case](rng)
    swaps = repairs = 0
    for trial, (p1, p2) in enumerate(parent_pairs(inst, rng, 200)):
        child, guide = Walk(p1, inst), Walk(p2, inst)
        mine, theirs = (np.random.default_rng(trial) for _ in range(2))
        moves, move = recombine(child, guide, mine)
        expected_plan, expected_move = reference_recombine(p1, p2, inst, theirs)
        assert move == expected_move
        assert plans_equal(swapped(p1, moves), expected_plan)
        assert mine.bit_generator.state == theirs.bit_generator.state
        assert_same_state(child, Walk(p1, inst))
        assert_same_state(guide, Walk(p2, inst))
        swaps += move is not None
        repairs += len(moves) > 2
    assert 40 < swaps < 200 and repairs > 10


def twice_repaired_pair():
    """A hand-made pair on a 3x4 grid, K = 3, centers 0, 2 and 11::

        child      guide
        0 1 1 2    0 0 1 2
        0 1 2 2    1 1 1 2
        0 1 2 2    2 2 2 2

    With seed 4, the swap takes node 1 into territory 0 and node 4 out of
    it, into node 1's territory 1, and both break: territory 0 cuts off node
    8, and territory 1 its center 2 from nodes 4, 5 and 9."""
    inst = generate_grid_instance(3, 4, 3, seed=1, centers=(0, 2, 11))
    child = Plan(np.array([0, 1, 1, 2, 0, 1, 2, 2, 0, 1, 2, 2]), inst.centers)
    guide = Plan(np.array([0, 0, 1, 2, 1, 1, 1, 2, 2, 2, 2, 2]), inst.centers)
    return inst, child, guide


def test_recombine_repairs_a_node_twice():
    """Territory 0's repair can only send node 8 to territory 1, whose
    repair moves it on with the rest of its orphan piece.  The candidate
    carries one move per node, ascending, from its owner after the swap to
    its owner after repair, as the reference's plan and draws have it."""
    inst, p1, p2 = twice_repaired_pair()
    child, guide = Walk(p1, inst), Walk(p2, inst)
    mine, theirs = (np.random.default_rng(4) for _ in range(2))
    moves, move = recombine(child, guide, mine)
    assert move == SwapMove(0, 1, 4)
    assert moves[:2] == [(1, 1, 0), (4, 0, 1)]
    after_swap = swapped(p1, moves[:2])
    graph = inst.graph
    assert not is_connected(graph, after_swap.territory(0))
    assert not is_connected(graph, after_swap.territory(1))
    assert {int(after_swap.assignment[w])
            for w in graph.neighbor_lists[8]} == {1}
    repaired = moves[2:]
    assert [m.node for m in repaired] == sorted({m.node for m in repaired})
    assert (8, 0, 2) in repaired and (4, 1, 2) in repaired
    expected_plan, expected_move = reference_recombine(p1, p2, inst, theirs)
    assert move == expected_move
    assert plans_equal(swapped(p1, moves), expected_plan)
    assert mine.bit_generator.state == theirs.bit_generator.state
    assert_same_state(child, Walk(p1, inst))
    assert_same_state(guide, Walk(p2, inst))


class FailingDraws:
    """A generator that draws as ``np.random.default_rng(seed)`` and counts
    its calls of ``integers`` in ``calls``; call number ``fail_at`` (from 0)
    raises."""

    def __init__(self, seed, fail_at=None):
        self.rng = np.random.default_rng(seed)
        self.fail_at = fail_at
        self.calls = 0

    def permutation(self, n):
        return self.rng.permutation(n)

    def integers(self, *args):
        if self.calls == self.fail_at:
            raise RuntimeError("draw failed")
        self.calls += 1
        return self.rng.integers(*args)


def test_recombine_restores_both_walks_when_a_draw_raises():
    """On the pair of :func:`twice_repaired_pair`, recombination draws two
    integers for the swap and ten for its repair.  Whichever of them
    raises, the exception reaches the caller and both walks equal fresh
    builds of their plans."""
    inst, p1, p2 = twice_repaired_pair()
    child, guide = Walk(p1, inst), Walk(p2, inst)
    draws = FailingDraws(4)
    recombine(child, guide, draws)
    assert draws.calls == 12
    for fail_at in range(12):
        with pytest.raises(RuntimeError, match="draw failed"):
            recombine(child, guide, FailingDraws(4, fail_at))
        assert_same_state(child, Walk(p1, inst))
        assert_same_state(guide, Walk(p2, inst))


@pytest.mark.parametrize("mode", ["polsby_popper", "edge_cut_proxy"])
def test_batch_scores_and_commits_match_whole_plan(mode):
    """A recombination candidate scored as a batch of reassignments has the
    terms of its whole plan bit for bit, and once committed into the
    child's walk, the walk equals one built from the plan."""
    rng = np.random.default_rng(43)
    inst = random_instance(lambda pop, cap: make_hex_graph(7, 9, pop, cap),
                           63, rng, mode, k=6)
    walks = [Walk(guided_growth(inst, rng), inst)
             for _ in range(4)]
    committed = repaired = 0
    for _ in range(150):
        child, guide = rng.choice(len(walks), size=2, replace=False)
        child, guide = walks[child], walks[guide]
        moves, move = recombine(child, guide, rng)
        if move is None:
            continue
        candidate = apply_flip(child, *moves)
        plan = swapped(child.plan, moves)
        assert candidate.terms == objective_terms(plan, inst)
        child.commit(candidate)
        assert child.terms == candidate.terms
        assert_same_state(child, Walk(plan, inst))
        committed += 1
        repaired += len(moves) > 2
    assert committed > 50 and repaired > 5


@pytest.mark.parametrize("mode", ["polsby_popper", "edge_cut_proxy"])
@pytest.mark.parametrize("tiling", ["hex", "ragged"])
def test_member_walks_interleave_flips_and_recombinations(tiling, mode,
                                                          monkeypatch):
    """Member walks driven as spatial_run drives them: a local pass, then a
    recombination candidate per member, committed into the members that
    keep it.  After every commit of either kind, each walk's state equals
    one rebuilt from its plan, and its current and best terms equal their
    plans' whole evaluations.  Every candidate scored, flip or batch,
    carries exactly the territories its moves touch, each with the sums
    and terms of the plan the moves make."""
    rng = np.random.default_rng(47)
    rows, cols = 8, 9
    if tiling == "hex":
        def make_graph(pop, cap):
            return make_hex_graph(rows, cols, pop, cap)
    else:
        xs = np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, cols)])
        ys = np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, rows)])

        def make_graph(pop, cap):
            return make_ragged_graph(xs, ys, pop, cap)
    inst = random_instance(make_graph, rows * cols, rng, mode, k=5)
    walks = [Walk(plan, inst) for plan in init_population(inst, 6, rng)]

    def check(walk):
        assert_same_state(walk, Walk(walk.plan, inst))
        assert walk.terms == objective_terms(walk.plan, inst)

    scored = []

    def scored_and_checked(state, *moves):
        candidate = apply_flip(state, *moves)
        sums = territory_sums(swapped(state.plan, moves), inst)
        balance, compactness = territory_terms(sums, inst.objective_config)
        assert set(candidate.changed) == {t for _, d, r in moves
                                          for t in (d, r)}
        expected = sums_rows(sums)
        for t, (row, b, c) in candidate.changed.items():
            assert_same_rows([row], [expected[t]])
            assert (b, c) == (balance[t], compactness[t])
        scored.append(len(moves))
        return candidate

    monkeypatch.setattr(local_search, "apply_flip", scored_and_checked)
    flips = recombinations = repaired = 0
    for _ in range(15):
        flips += local_improvement_pass(walks, 0.2, rng).accepted_flips
        for walk in walks:
            check(walk)
        wheel = mate_wheel(fitness(w.terms[0]) for w in walks)
        kept = []
        for walk in walks:
            mate = walks[select_mate(wheel, rng)]
            moves, swap = recombine(walk, mate, rng)
            if swap is not None:
                candidate = scored_and_checked(walk, *moves)
                if candidate.terms[0] <= walk.terms[0]:
                    kept.append((walk, candidate))
        for walk, candidate in kept:
            walk.commit(candidate)
            check(walk)
            repaired += len(candidate.moves) > 2
        recombinations += len(kept)
    assert flips > 60 and recombinations > 20 and repaired > 0
    assert scored.count(1) > 60 and max(scored) > 2


def test_repair_identity_on_feasible(grid3):
    """Repair returns a feasible plan unchanged and draws nothing: on the
    3x3 grid and on grown plans of grid, hex and ragged tilings."""
    rng = np.random.default_rng(8)
    cases = [(grid3, Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]),
                          grid3.centers))]
    for name in ("grid12", "hex", "ragged"):
        inst = RECOMBINE_CASES[name](rng)
        cases += [(inst, guided_growth(inst, rng)) for _ in range(5)]
    for inst, plan in cases:
        state = rng.bit_generator.state
        assert plans_equal(repair(plan, inst, rng), plan)
        assert rng.bit_generator.state == state


# a 4x4 grid with centers 0 and 15: rows 0-1 are territory 0, rows 2-3
# territory 1, changed to a start plan that is not one of the grid's
BAD_START_PLANS = {
    "center -1": ([0] * 8 + [1] * 8, [0, -1], "centers do not match"),
    "other centers": ([0] * 8 + [1] * 8, [1, 14], "centers do not match"),
    "entry K": ([0] * 7 + [2] + [1] * 8, [0, 15], "nonexistent territory"),
    "entry -1": ([0] * 7 + [-1] + [1] * 8, [0, 15], "nonexistent territory"),
    "15 entries": ([0] * 8 + [1] * 7, [0, 15],
                   "plan covers 15 nodes, instance has 16"),
    "center outside": ([0] * 8 + [1] * 7 + [0], [0, 15],
                       "center 15 missing from its territory 1"),
}


@pytest.mark.parametrize("fault", sorted(BAD_START_PLANS))
def test_bad_start_plans_fail_loudly(fault):
    """A start plan that does not fit its instance is an InstanceError
    naming the fault in repair, in a walk's build, and so in a warm-started
    solve and in a chain, before any of them draws."""
    assignment, centers, message = BAD_START_PLANS[fault]
    inst = generate_grid_instance(4, 4, 2, seed=1, centers=(0, 15))
    plan = Plan(assignment, centers)
    rng = np.random.default_rng(3)
    config = MemeticConfig(population_size=2, iterations=1)
    for start in (lambda: repair(plan, inst, rng),
                  lambda: Walk(plan, inst),
                  lambda: spatial_run(inst, config, rng, warm_start=plan),
                  lambda: run_chain(inst, "baa", SearchConfig(chain_steps=10),
                                    rng, plan)):
        state = rng.bit_generator.state
        with pytest.raises(InstanceError, match=message):
            start()
        assert rng.bit_generator.state == state


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


def test_spatial_run_trace_monotone_and_feasible(grid3, validated_commits):
    cfg = MemeticConfig(population_size=8, iterations=40,
                        worse_accept_prob=0.05)
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


def test_spatial_run_pin_12x12():
    """A seeded run on which repair fires often (32 repairs, 38 kept
    candidates), pinned so that a change to a plan, a trace or a draw of
    recombination or repair fails here: sha256 of the best plan's
    assignment and of the trace's mean_j column, and the move counts."""
    inst = generate_grid_instance(12, 12, 4, seed=3)
    res = spatial_run(inst, MemeticConfig(population_size=8, iterations=30),
                      np.random.default_rng(0))
    mean_j = np.array([row[2] for row in res.trace])
    assert (hashlib.sha256(res.best_plan.assignment.tobytes()).hexdigest()
            == "a91dfca9c0cfc4aacf0dd9baf6ea4ddc2d7d1c74ddd4e4d5dd8f29d697055d17")
    assert (hashlib.sha256(mean_j.tobytes()).hexdigest()
            == "eee81c1d9ede5be79df3e342cc7558413d20d7d7ab235c11f8f311bc1544693b")
    assert (res.accepted_recombinations, res.accepted_flips) == (38, 222)


def test_spatial_run_builds_one_flip_state_per_member(monkeypatch):
    """Each member keeps one walk for the whole run: a walk is built for
    every initial member and never again, neither by a local pass nor for a
    kept recombination candidate, which is committed into the member's
    walk.  The best plan is a copy, still scoring the best J
    after the members have moved on."""
    built = []
    build = Walk.__init__

    def counting_build(self, plan, instance, *rest):
        built.append(plan)
        build(self, plan, instance, *rest)

    monkeypatch.setattr(Walk, "__init__", counting_build)
    inst = generate_grid_instance(8, 8, 4, seed=3, balance_profile="clustered")
    cfg = MemeticConfig(population_size=6, iterations=30,
                        worse_accept_prob=0.05)
    res = spatial_run(inst, cfg, np.random.default_rng(16))
    assert res.accepted_flips > 0 and res.accepted_recombinations > 0
    assert len(built) == cfg.population_size
    assert objective_value(res.best_plan, inst) == res.best_j


def test_spatial_run_sums_each_plan_once(monkeypatch):
    """territory_sums runs once per initial member, for its flip state.  A
    recombination candidate is scored from its child's sums as a batch of
    reassignments, so no candidate is summed, nor scored by
    objective_terms."""
    summed, scored, candidates = [], [], []
    sums_of, terms_of = objective.territory_sums, objective.objective_terms
    recombine_of = memetic.recombine

    def counting_sums(plan, instance):
        summed.append(plan)
        return sums_of(plan, instance)

    def counting_terms(plan, instance):
        scored.append(plan)
        return terms_of(plan, instance)

    def counting_recombine(*args):
        moves, move = recombine_of(*args)
        if move is not None:
            candidates.append(moves)
        return moves, move

    for module in (objective, local_search, memetic):
        monkeypatch.setattr(module, "territory_sums", counting_sums,
                            raising=False)
        monkeypatch.setattr(module, "objective_terms", counting_terms,
                            raising=False)
    monkeypatch.setattr(memetic, "recombine", counting_recombine)
    inst = generate_grid_instance(8, 8, 4, seed=3, balance_profile="clustered")
    cfg = MemeticConfig(population_size=6, iterations=30,
                        worse_accept_prob=0.05)
    res = spatial_run(inst, cfg, np.random.default_rng(16))
    assert 0 < res.accepted_recombinations < len(candidates)
    assert len(summed) == cfg.population_size and scored == []


def test_memetic_config_validation():
    with pytest.raises(ConfigError):
        MemeticConfig(population_size=1)  # recombination needs a mate
    MemeticConfig(population_size=1, recombination=False)
    with pytest.raises(ConfigError):
        MemeticConfig(population_size=0, recombination=False)
    for p_r in (-0.1, 1.0, float("nan")):
        with pytest.raises(ConfigError, match="worse_accept_prob"):
            MemeticConfig(worse_accept_prob=p_r)
    MemeticConfig(worse_accept_prob=0.0)


def test_kept_recombination_empties_the_memo():
    """A kept recombination moves the walk, so it empties the memo of the
    flips its local passes scored; a member left alone keeps its memo."""
    inst = generate_grid_instance(6, 6, 3, seed=42,
                                  balance_profile="clustered")
    rng = np.random.default_rng(50)
    walks = [Walk(plan, inst) for plan in init_population(inst, 6, rng)]
    emptied = 0
    for _ in range(30):
        local_improvement_pass(walks, 0.0, rng)
        wheel = mate_wheel(fitness(w.terms[0]) for w in walks)
        kept = []
        for walk in walks:
            moves, swap = recombine(walk,
                                    walks[select_mate(wheel, rng)], rng)
            if swap is not None:
                candidate = apply_flip(walk, *moves)
                if candidate.terms[0] <= walk.terms[0]:
                    kept.append((walk, candidate))
        memos = [dict(walk.scored) for walk in walks]
        for walk, candidate in kept:
            emptied += bool(walk.scored)
            walk.commit(candidate)
            assert walk.scored == {}
        moved = {id(walk) for walk, _ in kept}
        for walk, memo in zip(walks, memos):
            if id(walk) not in moved:
                assert walk.scored == memo
    assert emptied > 0


@pytest.mark.parametrize("tiling", ["grid", "hex"])
def test_spatial_run_with_the_corner_table_changes_nothing(tiling,
                                                           monkeypatch):
    """A spatial solve whose walks answer from the corner table from the
    start makes the solve that searches every check makes; after every
    commit (local-pass flips and kept recombinations) each walk's V_T, E_T
    and F_T equal a fresh count."""
    rng = np.random.default_rng(36)
    make = (make_hex_graph if tiling == "hex"
            else lambda rows, cols, pop, cap: make_ragged_graph(
                np.arange(cols + 1.0), np.arange(rows + 1.0), pop, cap))

    def make_graph(pop, cap):
        return make(7, 8, pop, cap)

    inst = random_instance(make_graph, 56, rng, "polsby_popper", 5)
    cfg = MemeticConfig(population_size=6, iterations=25,
                        worse_accept_prob=0.1)
    results = []
    commit = Walk.commit
    commits = []

    def counted_commit(self, candidate):
        commit(self, candidate)
        if self.counts is not None:
            assert self.counts == recount(self)
            commits.append(len(candidate.moves))

    def taking_walk(*args):
        walk = Walk(*args)
        walk.take_corners()
        return walk

    monkeypatch.setattr(Walk, "commit", counted_commit)
    monkeypatch.setattr(local_search, "TABLE_PRICE", 1e-9)  # never pays
    results.append(spatial_run(inst, cfg, np.random.default_rng(37)))
    monkeypatch.setattr(memetic, "Walk", taking_walk)       # the table at once
    results.append(spatial_run(inst, cfg, np.random.default_rng(37)))
    assert plans_equal(results[0].best_plan, results[1].best_plan)
    assert ([row[:-1] for row in results[0].trace]      # but wall_ms
            == [row[:-1] for row in results[1].trace])
    assert max(commits) > 1 and commits.count(1) > 20
