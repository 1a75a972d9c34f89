"""Flip-based local improvement, single-solution baselines and flip-chain
samplers, all run by one flip walk.

A *flip* reassigns one boundary node to an adjacent territory; it is both the
atomic local-search move and the Markov-chain proposal.  Every search here is
a :class:`Walk` fed by a *proposal source* and asked of an *acceptance rule*:

* proposal sources: :func:`random_proposals` (``propose_flip`` draws, used by
  SHC/SA/TS and the BAA/BCAA/AIO chains) and :func:`exhaustive_proposals`
  (every (pair, node) candidate of the start plan in shuffled order, stopping
  at the first acceptance; used by the local pass);
* acceptance rules: small objects that own their state --
  :class:`ImproveOrChance`, :class:`NonWorsening` (SHC, AIO),
  :class:`Annealing` (SA, with its temperature), :class:`Tabu` (TS, with its
  tabu list), :class:`BalancedBand` (BAA) and :class:`BalancedCompactBand`
  (BCAA).

The walk applies the same hard-feasibility filter to every proposal (a flip
may never disconnect a territory, empty one, or move a center) before the
rule sees it, so the searches differ only in their proposals and rules.

The walk keeps its plan in a :class:`FlipState`: a count of cut edges per
territory pair, the sorted list of adjacent pairs, per pair a sorted list of
the donor's boundary nodes, and the per-territory sums of the objective, all
updated in O(deg v) when a flip is committed.  So a step costs no rescan of
the graph: a proposal draws a pair and then a node straight from the lists,
feasibility reads the node's neighbours, the contiguity search
(:func:`~districter.graph.stays_connected_without`) costs about the smaller
piece of a split, and a candidate's sums move the node's own share (exact
sums, :meth:`~districter.objective.TerritorySums.flipped`), so its J equals
:func:`~districter.objective.objective_terms` bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InternalError, NoFeasibleFlip
from .graph import Plan, assert_hard_feasible, stays_connected_without
from .growth import Population
from .objective import TerritorySums, objective_terms, territory_sums


@dataclass
class SearchConfig:
    """Knobs shared by the local search, the baselines and the samplers."""

    worse_accept_prob: float = 0.01     # chance of keeping an inferior flip
    max_iters: int = 1000               # proposal budget for SHC/SA/TS
    sa_initial_temp: float = 1.0
    sa_cooling: float = 0.995           # geometric, applied per accepted move
    tabu_tenure: int = 25
    chain_steps: int = 10_000
    acceptance_band: float = 0.15       # balance/compactness band for BAA/BCAA
    debug_validate: bool = False        # re-validate after every accepted move

    def __post_init__(self):
        if not 0.0 <= self.worse_accept_prob < 1.0:
            raise ConfigError("worse_accept_prob must lie in [0, 1)")
        if not 0.0 < self.sa_cooling < 1.0:
            raise ConfigError("sa_cooling must lie in (0, 1)")
        if min(self.max_iters, self.chain_steps, self.tabu_tenure) < 0:
            raise ConfigError("iteration budgets must be non-negative")
        if not (self.sa_initial_temp > 0 and self.acceptance_band >= 0):
            raise ConfigError("temperature must be positive, band non-negative")


class FlipProposal(NamedTuple):
    node: int
    from_territory: int
    to_territory: int

    def inverse(self) -> "FlipProposal":
        return FlipProposal(self.node, self.to_territory, self.from_territory)


class FlipState:
    """A walk's current plan together with what its flips ask of it, kept
    up to date by :meth:`commit` in O(deg v) per flip (plus a ``bisect``
    insert or delete per changed list entry).

    * ``owner``: the assignment as a list, for scalar reads; ``centers`` too;
    * ``pair_cuts[d][r]``: cut edges between territories ``d`` and ``r``;
    * ``pairs``: the ordered pairs ``(d, r)`` with ``pair_cuts[d][r] > 0``,
      sorted;
    * boundary lists: for an ordered pair ``(d, r)``, the ascending list of
      ``d``'s nodes other than its center that touch ``r``
      (:meth:`boundary`).  A pair's list is built from the current
      assignment the first time it is asked for and kept up to date from
      then on: a walk that stops at its first accepted flip reads only the
      few pairs it tries;
    * ``sums``: the plan's :class:`~districter.objective.TerritorySums`.

    Memory is O(K^2 + boundary nodes), independent of the map's size beyond
    the plan itself.  The state owns a copy of the plan it is given.  The
    plan must be hard-feasible (every territory connected around its
    center), as every walk's start plan is; feasible flips keep it so.
    """

    def __init__(self, plan: Plan, instance):
        self.instance = instance
        self.plan = plan = plan.copy()
        self.owner = plan.assignment.tolist()
        self.centers = plan.centers.tolist()
        self.territory_count = k = plan.territory_count
        self._cut_edges = cut_edges = self._current_cut_edges()
        _, _, uv, vu = cut_edges
        cuts = (np.bincount(uv, minlength=k * k)
                + np.bincount(vu, minlength=k * k))
        self.pair_cuts = cuts.reshape(k, k).tolist()
        self.pairs = [divmod(c, k) for c in np.flatnonzero(cuts).tolist()]
        self._boundary: list = [None] * (k * k)     # by d * k + r, or None
        self.sums = territory_sums(plan, instance)

    def _current_cut_edges(self):
        """The current plan's cut edges ``(u, v)`` with the pair codes
        ``owner(u) * K + owner(v)`` and ``owner(v) * K + owner(u)``: ``u``
        lies on the boundary of the first pair, ``v`` on the second's."""
        a = self.plan.assignment
        edges = self.instance.graph.edges
        tu, tv = a[edges[:, 0]], a[edges[:, 1]]
        cut = np.flatnonzero(tu != tv)
        tu, tv = tu[cut], tv[cut]
        k = self.territory_count
        return edges[cut, 0], edges[cut, 1], tu * k + tv, tv * k + tu

    def boundary(self, donor: int, recipient: int) -> list:
        """The donor's nodes other than its center that touch the recipient,
        ascending.  This is the state's own list, changed by :meth:`commit`;
        copy it to keep it."""
        code = donor * self.territory_count + recipient
        nodes = self._boundary[code]
        if nodes is None:
            if self._cut_edges is None:
                self._build_missing_boundaries()
                return self._boundary[code]
            eu, ev, uv, vu = self._cut_edges
            nodes = sorted({*eu[uv == code].tolist(), *ev[vu == code].tolist()}
                           - {self.centers[donor]})
            self._boundary[code] = nodes
        return nodes

    def _build_missing_boundaries(self) -> None:
        """Build every boundary list not built yet, from the current plan.
        The start plan's cut edges build one list at a time, but once a flip
        is committed, the cut edges must be found again (O(E)), so they then
        build all lists in one pass."""
        k = self.territory_count
        eu, ev, uv, vu = self._current_cut_edges()
        found: dict = {}
        for code, u in zip(uv.tolist() + vu.tolist(),
                           eu.tolist() + ev.tolist()):
            found.setdefault(code, set()).add(u)
        lists, centers = self._boundary, self.centers
        for code, nodes in enumerate(lists):
            if nodes is None:
                lists[code] = sorted(found.get(code, set())
                                     - {centers[code // k]})

    def commit(self, proposal: FlipProposal, sums: TerritorySums) -> None:
        """Make the flip, whose resulting sums :func:`apply_flip` gave."""
        node, donor, recipient = proposal
        self.plan.assignment[node] = recipient
        owner, centers = self.owner, self.centers
        owner[node] = recipient
        self._cut_edges = None
        k = self.territory_count
        lists = self.instance.graph.neighbor_lists
        neighbors = lists[node]
        cuts = self.pair_cuts
        for w in neighbors:
            t = owner[w]
            if t != donor:
                cuts[donor][t] -= 1
                cuts[t][donor] -= 1
                if not cuts[donor][t]:
                    _remove(self.pairs, (donor, t))
                    _remove(self.pairs, (t, donor))
            if t != recipient:
                if not cuts[recipient][t]:
                    _insert(self.pairs, (recipient, t))
                    _insert(self.pairs, (t, recipient))
                cuts[recipient][t] += 1
                cuts[t][recipient] += 1
        # boundary lists: the node itself moves from (donor, t) to
        # (recipient, t); a neighbour w in t now touches the recipient and
        # may no longer touch the donor
        boundary = self._boundary
        for t in {owner[w] for w in neighbors}:
            if t != donor:
                _remove(boundary[donor * k + t], node)
            if t != recipient:
                _insert(boundary[recipient * k + t], node)
        for w in neighbors:
            t = owner[w]
            if w == centers[t]:
                continue
            if t != recipient:
                _insert(boundary[t * k + recipient], w)
            if t != donor:
                nodes = boundary[t * k + donor]
                if nodes is not None and all(owner[x] != donor
                                             for x in lists[w]):
                    _remove(nodes, w)
        self.sums = sums


def _insert(items, x) -> None:
    """Add ``x`` to the sorted list ``items`` unless it is there already;
    ``None`` stands for a list not built yet."""
    if items is not None:
        i = bisect_left(items, x)
        if i == len(items) or items[i] != x:
            items.insert(i, x)


def _remove(items, x) -> None:
    """Take ``x`` out of the sorted list ``items`` if it is there; ``None``
    stands for a list not built yet."""
    if items is not None:
        i = bisect_left(items, x)
        if i < len(items) and items[i] == x:
            del items[i]


def adjacent_territory_pairs(state: FlipState) -> list:
    """Ordered (donor, recipient) pairs of territories joined by a cut edge,
    sorted lexicographically: the state's own list, changed by a commit."""
    return state.pairs


def flip_candidates(state: FlipState, donor: int, recipient: int) -> list:
    """Nodes of ``donor`` adjacent to ``recipient``, ascending, without the
    donor's center: the state's own list, changed by a commit."""
    return state.boundary(donor, recipient)


def propose_flip(state: FlipState, rng: np.random.Generator) -> FlipProposal:
    """Uniformly pick an ordered adjacent territory pair, then a uniform
    movable boundary node of the donor.  Pairs whose boundary consists only
    of centers are resampled; if no pair has a movable node the search space
    offers no flip at all.

    ``nodes[rng.integers(len(nodes))]`` makes the same draw as
    ``rng.choice(nodes)`` without converting the list to an array."""
    if state.territory_count < 2:
        raise ConfigError("flips need at least two territories")
    pairs = adjacent_territory_pairs(state)
    if not pairs:
        raise InternalError("no adjacent territory pair on a connected graph")
    for _ in range(max(32, 4 * len(pairs))):
        donor, recipient = pairs[int(rng.integers(len(pairs)))]
        nodes = flip_candidates(state, donor, recipient)
        if nodes:
            return FlipProposal(nodes[int(rng.integers(len(nodes)))],
                                donor, recipient)
    # rare fallback: sweep all pairs before concluding nothing can move
    movable = [(d, r) for d, r in pairs if flip_candidates(state, d, r)]
    if not movable:
        raise NoFeasibleFlip("every boundary node is a center")
    donor, recipient = movable[int(rng.integers(len(movable)))]
    nodes = flip_candidates(state, donor, recipient)
    return FlipProposal(nodes[int(rng.integers(len(nodes)))], donor, recipient)


def flip_is_feasible(state: FlipState, proposal: FlipProposal) -> bool:
    """A flip is feasible when the node really sits on the donor/recipient
    boundary, is not the donor's center, and the donor stays connected
    without it."""
    node, donor, recipient = proposal
    owner = state.owner
    if owner[node] != donor or node == state.centers[donor]:
        return False
    graph = state.instance.graph
    for w in graph.neighbor_lists[node]:
        if owner[w] == recipient:
            return stays_connected_without(graph, owner, node)
    return False


def apply_flip(state: FlipState, proposal: FlipProposal) -> TerritorySums:
    """The territory sums of the plan the flip would make; the state itself
    changes only when the walk commits the flip."""
    return state.sums.flipped(state.owner, *proposal, state.instance)


# ---------------------------------------------------------------------------
# The flip walk
# ---------------------------------------------------------------------------

class Candidate(NamedTuple):
    """A feasible flip, the territory sums of the plan it would make, and
    that plan's (J, balance_term, compactness_term)."""

    proposal: FlipProposal
    sums: TerritorySums
    terms: tuple


class Walk:
    """A flip walk: the current plan in a :class:`FlipState` and its terms,
    the best plan seen, and the acceptance rule that decides every feasible
    proposal.

    :meth:`run` is the only code that feasibility-checks, evaluates, accepts
    and commits flips.
    """

    def __init__(self, plan: Plan, instance, rule, debug_validate: bool = False):
        self.state = FlipState(plan, instance)
        self.instance = instance
        self.rule = rule
        self.debug_validate = debug_validate
        self.terms = objective_terms(self.state.sums, instance)
        self.best_plan, self.best_terms = plan, self.terms
        self.accepted = 0

    @property
    def plan(self) -> Plan:
        """The current plan; it changes in place as flips are committed."""
        return self.state.plan

    def run(self, proposals):
        """Decide every proposal in turn, yielding ``(proposal, accepted)``
        after each; the walk's state already reflects the decision.

        ``proposals`` is drawn lazily, so a source may read the walk's current
        plan or acceptance count to produce its next proposal.
        """
        state = self.state
        for proposal in proposals:
            accepted = False
            if flip_is_feasible(state, proposal):
                sums = apply_flip(state, proposal)
                candidate = Candidate(proposal, sums,
                                      objective_terms(sums, self.instance))
                if self.rule(self, candidate):
                    accepted = True
                    state.commit(proposal, sums)
                    self.terms = candidate.terms
                    self.accepted += 1
                    if self.debug_validate:
                        assert_hard_feasible(state.plan, self.instance)
                    if self.terms[0] < self.best_terms[0]:
                        self.best_plan = state.plan.copy()
                        self.best_terms = self.terms
            yield proposal, accepted


def random_proposals(walk: Walk, rng: np.random.Generator, budget: int):
    """Up to ``budget`` :func:`propose_flip` draws on the walk's current
    plan; ends early when the plan offers no flip at all."""
    for _ in range(budget):
        try:
            proposal = propose_flip(walk.state, rng)
        except NoFeasibleFlip:
            return
        yield proposal


def exhaustive_proposals(walk: Walk, rng: np.random.Generator):
    """Every (pair, node) flip candidate of the walk's start plan: pairs in a
    random order and, within a pair, candidate nodes likewise, so no rejected
    candidate is retried.  Stops at the first accepted flip.  Each pair's node
    order is drawn only when that pair is reached."""
    state = walk.state
    pairs = adjacent_territory_pairs(state)     # unchanged until the return
    for pi in rng.permutation(len(pairs)):
        donor, recipient = pairs[pi]
        nodes = flip_candidates(state, donor, recipient)
        if not nodes:
            continue
        for v in rng.permutation(nodes):
            yield FlipProposal(int(v), donor, recipient)
            if walk.accepted:
                return


# ---------------------------------------------------------------------------
# Acceptance rules: called as rule(walk, candidate) -> bool, and only for
# feasible flips; an accepted candidate is always committed, so a rule may
# update its own state when it accepts.
# ---------------------------------------------------------------------------

class ImproveOrChance:
    """Greedy rule: keep a strictly better plan, or an inferior one with a
    small probability so the search can leave local optima."""

    def __init__(self, worse_accept_prob: float, rng: np.random.Generator):
        self.worse_accept_prob = worse_accept_prob
        self.rng = rng

    def __call__(self, walk, candidate: Candidate) -> bool:
        if candidate.terms[0] < walk.terms[0]:
            return True
        p = self.worse_accept_prob
        return p > 0.0 and self.rng.random() <= p


class NonWorsening:
    """Keep any equally good or better plan (SHC and AIO)."""

    def __call__(self, walk, candidate: Candidate) -> bool:
        return candidate.terms[0] <= walk.terms[0]


class Annealing:
    """SA: keep worse plans with probability exp(-dJ/T), cooling T
    geometrically after each accepted move."""

    def __init__(self, initial_temp: float, cooling: float,
                 rng: np.random.Generator):
        self.temp = initial_temp
        self.cooling = cooling
        self.rng = rng

    def __call__(self, walk, candidate: Candidate) -> bool:
        delta = candidate.terms[0] - walk.terms[0]
        accepted = (delta <= 0.0
                    or self.rng.random() < math.exp(-delta / self.temp))
        if accepted:
            self.temp *= self.cooling
        return accepted


class Tabu:
    """TS: non-worsening moves, except that a move returning a node to a
    territory it left within the last ``tenure`` accepted moves is refused
    unless it beats the best plan seen so far (aspiration).  With tenure 0
    it is :class:`NonWorsening`.  It differs from SHC only on exact J ties:
    a return right after a strictly improving move is worse anyway."""

    def __init__(self, tenure: int):
        self.tabu: deque = deque(maxlen=tenure)

    def __call__(self, walk, candidate: Candidate) -> bool:
        j, move = candidate.terms[0], candidate.proposal
        if j > walk.terms[0]:
            return False
        is_tabu = any(rec.node == move.node
                      and rec.from_territory == move.to_territory
                      for rec in self.tabu)
        if is_tabu and not j < walk.best_terms[0]:
            return False
        self.tabu.append(move)
        return True


class BalancedBand:
    """Accept every move that keeps both involved territories' balance
    deviation within the band; objective-blind otherwise.  (Capacities are
    positive: a zero-capacity candidate already failed its evaluation.)"""

    def __init__(self, band: float):
        self.band = band

    def __call__(self, walk, candidate: Candidate) -> bool:
        if math.isinf(self.band):
            return True
        pop, cap = candidate.sums.population, candidate.sums.capacity
        return all(abs(1.0 - pop[t] / cap[t]) <= self.band
                   for t in (candidate.proposal.from_territory,
                             candidate.proposal.to_territory))


class BalancedCompactBand(BalancedBand):
    """BalancedBand plus: the move may not worsen the compactness term by
    more than the band."""

    def __call__(self, walk, candidate: Candidate) -> bool:
        if not super().__call__(walk, candidate):
            return False
        if math.isinf(self.band):
            return True
        return candidate.terms[2] <= walk.terms[2] + self.band


# ---------------------------------------------------------------------------
# Population-wide local improvement (one accepted flip per member)
# ---------------------------------------------------------------------------

@dataclass
class FlipRecord:
    member: int
    proposal: FlipProposal
    j_before: float
    terms: tuple            # (J, balance_term, compactness_term) after the flip

    @property
    def j_after(self) -> float:
        return self.terms[0]


@dataclass
class PassResult:
    population: object
    records: list = field(default_factory=list)  # FlipRecord or None per member

    @property
    def accepted_flips(self) -> int:
        return sum(1 for r in self.records if r is not None)


def local_improvement_pass(population, instance, config: SearchConfig,
                           rng: np.random.Generator) -> PassResult:
    """Attempt flips on every member independently until one is accepted or
    all (pair, node) candidates are exhausted.

    Members with no acceptable flip are returned unchanged (locally
    converged).  Each member runs on its own random substream, so the pass
    can fan out across workers without changing its result.
    """
    members = list(population.members)
    streams = rng.spawn(len(members))
    records: list = []
    for m, plan in enumerate(members):
        rule = ImproveOrChance(config.worse_accept_prob, streams[m])
        walk = Walk(plan, instance, rule, config.debug_validate)
        j_before = walk.terms[0]
        record = None
        for proposal, accepted in walk.run(exhaustive_proposals(walk, streams[m])):
            if accepted:
                record = FlipRecord(m, proposal, j_before, walk.terms)
        members[m] = walk.plan
        records.append(record)
    return PassResult(Population(members=members), records)


# ---------------------------------------------------------------------------
# Single-solution baselines: SHC / SA / TS
# ---------------------------------------------------------------------------

TRACE_HEADER = ("iteration", "j", "balance_term", "compactness_term", "accepted")

BASELINE_RULES = {
    "shc": lambda config, rng: NonWorsening(),
    "sa": lambda config, rng: Annealing(config.sa_initial_temp,
                                        config.sa_cooling, rng),
    "ts": lambda config, rng: Tabu(config.tabu_tenure),
}


def run_baseline(instance, algorithm: str, config: SearchConfig,
                 rng: np.random.Generator, start: Plan) -> tuple[Plan, list]:
    """Run one of the single-solution metaheuristics over the flip
    neighborhood and return (best plan, per-iteration trace).

    SHC keeps any equally good or better neighbor; SA and TS follow
    :class:`Annealing` and :class:`Tabu`.  Each of the ``max_iters``
    iterations is one random proposal.
    """
    make_rule = BASELINE_RULES.get(algorithm.lower())
    if make_rule is None:
        raise ConfigError(f"unknown baseline {algorithm!r}")
    walk = Walk(start, instance, make_rule(config, rng), config.debug_validate)
    steps = walk.run(random_proposals(walk, rng, config.max_iters))
    trace = [(it, *walk.terms, int(accepted))
             for it, (_, accepted) in enumerate(steps, start=1)]
    return walk.best_plan, trace


# ---------------------------------------------------------------------------
# Flip-chain samplers: BAA / BCAA / AIO
# ---------------------------------------------------------------------------

@dataclass
class ChainSummary:
    """Ensemble statistics of a flip-chain run."""

    steps: int
    accepted: int
    distinct_states: int
    best_j: float
    balance_hist: tuple
    compactness_hist: tuple
    j_samples: np.ndarray = field(repr=False, default=None)
    balance_samples: np.ndarray = field(repr=False, default=None)
    compactness_samples: np.ndarray = field(repr=False, default=None)
    accepted_flags: np.ndarray = field(repr=False, default=None)
    visited: set = field(repr=False, default_factory=set)

    def trace_rows(self) -> list:
        """Per-step rows in the shared trace schema (index 0 is the start)."""
        return [(it + 1, float(self.j_samples[it + 1]),
                 float(self.balance_samples[it + 1]),
                 float(self.compactness_samples[it + 1]),
                 int(self.accepted_flags[it]))
                for it in range(self.steps)]


CHAIN_RULES = {
    "baa": lambda config: BalancedBand(config.acceptance_band),
    "bcaa": lambda config: BalancedCompactBand(config.acceptance_band),
    "aio": lambda config: NonWorsening(),
}


def run_chain(instance, sampler: str, config: SearchConfig,
              rng: np.random.Generator, start: Plan) -> tuple[ChainSummary, Plan]:
    """Random walk over feasible plans, collecting every visited state.

    Acceptance rules: BAA keeps any contiguity-preserving move whose involved
    territories stay balance-deviated at most the band; BCAA additionally
    refuses moves worsening the compactness term by more than the band; AIO
    keeps only non-worsening moves.  Returns the ensemble summary and the
    best plan encountered by objective value.
    """
    make_rule = CHAIN_RULES.get(sampler.lower())
    if make_rule is None:
        raise ConfigError(f"unknown sampler {sampler!r}")
    walk = Walk(start, instance, make_rule(config), config.debug_validate)
    visited = {walk.plan.key()}
    samples = [walk.terms]
    flags = []
    for _, accepted in walk.run(random_proposals(walk, rng, config.chain_steps)):
        samples.append(walk.terms)
        flags.append(accepted)
        if accepted:
            visited.add(walk.plan.key())

    j_samples, bal_samples, comp_samples = (np.array(col) for col in zip(*samples))
    summary = ChainSummary(
        steps=len(flags),
        accepted=walk.accepted,
        distinct_states=len(visited),
        best_j=walk.best_terms[0],
        balance_hist=np.histogram(bal_samples, bins=20),
        compactness_hist=np.histogram(comp_samples, bins=20),
        j_samples=j_samples,
        balance_samples=bal_samples,
        compactness_samples=comp_samples,
        accepted_flags=np.asarray(flags, dtype=np.int64),
        visited=visited,
    )
    return summary, walk.best_plan
