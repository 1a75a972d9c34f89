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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InternalError, NoFeasibleFlip
from .graph import Plan, assert_hard_feasible, is_connected
from .growth import Population
from .objective import objective_terms, territory_balance


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
        if self.sa_initial_temp <= 0 or self.acceptance_band < 0:
            raise ConfigError("temperature must be positive and band non-negative")


class FlipProposal(NamedTuple):
    node: int
    from_territory: int
    to_territory: int

    def inverse(self) -> "FlipProposal":
        return FlipProposal(self.node, self.to_territory, self.from_territory)


def adjacent_territory_pairs(plan: Plan, graph) -> np.ndarray:
    """Ordered (donor, recipient) pairs of territories joined by a cut edge,
    sorted lexicographically."""
    a = plan.assignment
    tu, tv = a[graph.edges[:, 0]], a[graph.edges[:, 1]]
    diff = tu != tv
    if not diff.any():
        return np.empty((0, 2), dtype=np.int64)
    ordered = np.concatenate([
        np.stack([tu[diff], tv[diff]], axis=1),
        np.stack([tv[diff], tu[diff]], axis=1),
    ])
    return np.unique(ordered, axis=0)


def flip_candidates(plan: Plan, graph, donor: int, recipient: int) -> np.ndarray:
    """Non-center nodes of ``donor`` adjacent to ``recipient``, sorted."""
    a = plan.assignment
    eu, ev = graph.edges[:, 0], graph.edges[:, 1]
    tu, tv = a[eu], a[ev]
    nodes = np.concatenate([eu[(tu == donor) & (tv == recipient)],
                            ev[(tv == donor) & (tu == recipient)]])
    nodes = np.unique(nodes)
    return nodes[~np.isin(nodes, plan.centers)]


def propose_flip(plan: Plan, graph, rng: np.random.Generator) -> FlipProposal:
    """Uniformly pick an ordered adjacent territory pair, then a uniform
    movable boundary node of the donor.  Pairs whose boundary consists only
    of centers are resampled; if no pair has a movable node the search space
    offers no flip at all."""
    if plan.territory_count < 2:
        raise ConfigError("flips need at least two territories")
    pairs = adjacent_territory_pairs(plan, graph)
    if len(pairs) == 0:
        raise InternalError("no adjacent territory pair on a connected graph")
    for _ in range(max(32, 4 * len(pairs))):
        donor, recipient = pairs[int(rng.integers(len(pairs)))]
        nodes = flip_candidates(plan, graph, int(donor), int(recipient))
        if nodes.size:
            return FlipProposal(int(rng.choice(nodes)), int(donor), int(recipient))
    # rare fallback: sweep all pairs before concluding nothing can move
    movable = [(int(d), int(r)) for d, r in pairs
               if flip_candidates(plan, graph, int(d), int(r)).size]
    if not movable:
        raise NoFeasibleFlip("every boundary node is a center")
    donor, recipient = movable[int(rng.integers(len(movable)))]
    nodes = flip_candidates(plan, graph, donor, recipient)
    return FlipProposal(int(rng.choice(nodes)), donor, recipient)


def flip_is_feasible(plan: Plan, graph, proposal: FlipProposal) -> bool:
    """A flip is feasible when the node really sits on the donor/recipient
    boundary, is not a center, and the donor stays connected without it."""
    node, donor, recipient = proposal
    a = plan.assignment
    if a[node] != donor or node in plan.centers:
        return False
    if not np.any(a[graph.neighbors(node)] == recipient):
        return False
    members = np.flatnonzero(a == donor)
    return is_connected(graph, members[members != node])


def apply_flip(plan: Plan, proposal: FlipProposal) -> Plan:
    out = plan.copy()
    out.assignment[proposal.node] = proposal.to_territory
    return out


# ---------------------------------------------------------------------------
# The flip walk
# ---------------------------------------------------------------------------

class Candidate(NamedTuple):
    """A feasible flip applied to a copy of the current plan, with the
    candidate's (J, balance_term, compactness_term)."""

    proposal: FlipProposal
    plan: Plan
    terms: tuple


class Walk:
    """A flip walk: the current plan and its terms, the best plan seen, and
    the acceptance rule that decides every feasible proposal.

    :meth:`run` is the only code that feasibility-checks, applies, evaluates,
    accepts and commits flips.
    """

    def __init__(self, plan: Plan, instance, rule, debug_validate: bool = False):
        self.plan = plan
        self.instance = instance
        self.rule = rule
        self.debug_validate = debug_validate
        self.terms = objective_terms(plan, instance)
        self.best_plan, self.best_terms = plan, self.terms
        self.accepted = 0

    def run(self, proposals):
        """Decide every proposal in turn, yielding ``(proposal, accepted)``
        after each; the walk's state already reflects the decision.

        ``proposals`` is drawn lazily, so a source may read the walk's current
        plan or acceptance count to produce its next proposal.
        """
        graph = self.instance.graph
        for proposal in proposals:
            accepted = False
            if flip_is_feasible(self.plan, graph, proposal):
                plan = apply_flip(self.plan, proposal)
                candidate = Candidate(proposal, plan,
                                      objective_terms(plan, self.instance))
                if self.rule(self, candidate):
                    accepted = True
                    self.plan, self.terms = plan, candidate.terms
                    self.accepted += 1
                    if self.debug_validate:
                        assert_hard_feasible(plan, self.instance)
                    if self.terms[0] < self.best_terms[0]:
                        self.best_plan, self.best_terms = plan, self.terms
            yield proposal, accepted


def random_proposals(walk: Walk, rng: np.random.Generator, budget: int):
    """Up to ``budget`` :func:`propose_flip` draws on the walk's current
    plan; ends early when the plan offers no flip at all."""
    graph = walk.instance.graph
    for _ in range(budget):
        try:
            proposal = propose_flip(walk.plan, graph, rng)
        except NoFeasibleFlip:
            return
        yield proposal


def exhaustive_proposals(walk: Walk, rng: np.random.Generator):
    """Every (pair, node) flip candidate of the walk's start plan: pairs in a
    random order and, within a pair, candidate nodes likewise, so no rejected
    candidate is retried.  Stops at the first accepted flip.  Each pair's node
    order is drawn only when that pair is reached."""
    plan, graph = walk.plan, walk.instance.graph
    pairs = adjacent_territory_pairs(plan, graph)
    for pi in rng.permutation(len(pairs)):
        donor, recipient = (int(x) for x in pairs[pi])
        nodes = flip_candidates(plan, graph, donor, recipient)
        if not nodes.size:
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
    it is :class:`NonWorsening`."""

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
        pop, cap = territory_balance(candidate.plan, walk.instance)
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
    walk = Walk(start.copy(), instance, make_rule(config, rng),
                config.debug_validate)
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
    walk = Walk(start.copy(), instance, make_rule(config), config.debug_validate)
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
