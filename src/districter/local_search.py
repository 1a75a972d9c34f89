"""Flip-based local improvement and the single-walk searches (the SHC/SA
baselines and the BAA/BCAA/AIO chain samplers), all run by one flip walk.

A *flip* reassigns one boundary node to an adjacent territory; it is both the
atomic local-search move and the Markov-chain proposal.  Every search here is
a :class:`Walk` run on a *proposal source* with an *acceptance rule*:

* proposal sources: :func:`random_proposals` (``propose_flip`` draws, used
  by the single-walk searches) and :func:`exhaustive_proposals` (every
  (pair, node) candidate of the current plan in shuffled order; used by
  the local pass, which stops it at the first acceptance and runs each
  SPATIAL member's own walk, kept for the whole solve);
* acceptance rules: small objects that own their state --
  :class:`ImproveOrChance`, :class:`NonWorsening` (SHC, AIO),
  :class:`Annealing` (SA, with its temperature), :class:`BalancedBand` (BAA)
  and :class:`BalancedCompactBand` (BCAA).

:data:`SEARCHES` maps every single-walk search name to its rule and its
budget; it is the only list of them, which the CLI offers as it is, and
:func:`run_chain` is the one driver that runs them.  AIO is SHC's rule on
the chain budget.

The walk applies the same hard-feasibility filter to every proposal (a flip
may never disconnect a territory, empty one, or move a center) before the
rule sees it, so the searches differ only in their proposals and rules.

A :class:`Walk` keeps its plan together with a count of cut edges per
territory pair, the sorted list of adjacent pairs, per pair a sorted list of
the donor's boundary nodes, one row of the objective's sums per territory
and each territory's terms, all built with the walk and updated in O(deg v)
when a flip is committed.  So a step costs no rescan of the graph: a
proposal draws a pair and then a node straight from the lists, feasibility
reads the node's neighbours, and the contiguity check reads the map's
corners round the node (:func:`~districter.graph.corner_answer`), with the
walk's hole count of each territory.  Only a territory with a hole falls
back to the search (:func:`~districter.graph.stays_connected_without`),
which costs about the smaller piece of a split.  The walks of one solve
search until their searches' splits have cost about what the map's corner
table costs to build and keep (:data:`TABLE_PRICE`), so that short walks
on a large map never build it.  :func:`apply_flip` scores a candidate with
plain scalars: each moved node's own row and edge weights move between its
two territories' rows (exact sums), the changed territories' terms are
recomputed by the objective's own per-territory functions, and the K terms
of each kind are reduced in numpy's order
(:func:`~districter.objective.pairwise_sum`), so its J equals
:func:`~districter.objective.objective_terms` of the new plan bit for bit.
A flip is a batch of one move, and a recombination candidate a longer one,
scored by the same :func:`apply_flip` and made by the same :meth:`Walk.commit`.

A walk scores each flip once per plan.  Its memo, ``Walk.scored``, is its
only cache: contiguity answers kept per territory settled 28% of the checks
on a design map and 2 of 1,200 on a hex chain, against about 1 us for the
corner rule.  The memo maps each proposal decided since the walk last moved
to its candidate, or to ``None`` when the flip is infeasible, and
:meth:`Walk.run` asks it before it checks or scores a proposal.  Only
:meth:`Walk.commit` moves a walk, and it empties the memo.  A walk after
a commit equals a fresh build of the same plan, so a verdict depends only
on the plan and the proposal, and a rule is handed the same candidate as
before and draws the same random numbers: the memo changes no output.  It
holds at most one entry per distinct proposal since the last commit, and
at most :data:`MEMO_CAP` entries, past which the oldest goes; an entry
keeps only the territories its flip changes.  A converged SPATIAL member,
which sweeps the same plan pass after pass, thus pays for the contiguity
check and the scorer once, as long as its plan has fewer candidates than
the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, sub
from typing import NamedTuple

import numpy as np

from .draws import Span
from .errors import ConfigError, InternalError, NoFeasibleFlip
from .graph import (Plan, check_plan, corner_answer, corner_holes,
                    move_holes, sorted_insert, sorted_remove,
                    stays_connected_without)
from .objective import (COMPACTNESS_TERMS, balance_deviation, reduce_terms,
                        territory_sums, territory_terms)


@dataclass
class SearchConfig:
    """Settings of the single-walk searches (:data:`SEARCHES`): one field
    per setting one of them reads.  The local pass's chance of keeping an
    inferior flip belongs to the population solver
    (:class:`~districter.memetic.MemeticConfig`), and SA's schedule is
    fixed (:data:`SA_INITIAL_TEMP`, :data:`SA_COOLING`)."""

    max_iters: int = 1000               # proposal budget for SHC/SA
    chain_steps: int = 10_000
    acceptance_band: float = 0.15       # balance/compactness band for BAA/BCAA

    def __post_init__(self):
        if min(self.max_iters, self.chain_steps) < 0:
            raise ConfigError("iteration budgets must be non-negative")
        if not self.acceptance_band >= 0:
            raise ConfigError("acceptance band must be non-negative")


SA_INITIAL_TEMP = 1.0
SA_COOLING = 0.995      # geometric, applied per accepted move


# the most flips a walk's memo (Walk.scored) keeps; past it the oldest goes.
# An entry holds about 1.2 KB, so a memo stays under about 5 MB.
MEMO_CAP = 4_096

# the walks of one solve take the map's corner table once their contiguity
# searches have found one split per this many points of its ring table
# between them (flip_is_feasible counts them in Walk.splits).  A split is
# the costly search, about 10 us of lockstep, where the table answers in 1 us;
# a "connected" search mostly ends in the pre-pass, about as fast as the
# table.  The table costs about 0.2 us per point to build on a shared
# 2-core VM (0.18 us on a 40 x 40 grid's 8,000 points, 0.22 us on an
# 80 x 80 hexagonal map's 44,800), each walk's hole counts and per-commit updates about as much
# again, so the walks buy it where splits are dense for the map's size: a
# 10 x 10 design map, not a short chain on a map of thousands of units
TABLE_PRICE = 16


class FlipProposal(NamedTuple):
    node: int
    from_territory: int
    to_territory: int


# ---------------------------------------------------------------------------
# The flip walk
# ---------------------------------------------------------------------------

class Walk:
    """A flip walk: its current plan together with what its flips ask of
    it, kept up to date by :meth:`commit` in O(deg v) per flip (plus a
    ``bisect`` insert or delete per changed list entry).

    * ``plan``: the current plan, changed in place by a commit; ``owner``,
      its assignment as a list for scalar reads, and ``centers`` too;
    * ``pair_cuts[d][r]``: cut edges between territories ``d`` and ``r``;
    * ``pairs``: the ordered pairs ``(d, r)`` with ``pair_cuts[d][r] > 0``,
      sorted;
    * boundary lists: for an ordered pair ``(d, r)``, the ascending list of
      ``d``'s nodes other than its center that touch ``r``
      (:meth:`boundary`), all built with the walk by one sort of the cut
      edges' (pair, node) keys;
    * ``rows``: the plan's :func:`~districter.objective.territory_sums`, one
      list per territory (population, capacity, the shape sums, then the
      internal-edge sum); a commit replaces a changed territory's row and
      never changes one in place;
    * ``balance``, ``compactness``: each territory's balance deviation and
      compactness term (:func:`~districter.objective.territory_terms`), and
      ``terms``, the plan's (J, balance_term, compactness_term);
    * ``corners`` and ``holes``: the map's corner table and each
      territory's hole count (:func:`~districter.graph.corner_holes`),
      which a commit updates;
      both None until the walks of one solve have found ``table_price``
      splits by search (:data:`TABLE_PRICE`) in ``splits``, the one-item
      count they share (a walk built without one counts its own);
    * ``accepted``: the count of flips :meth:`run` accepted;
    * ``scored``: the memo of the flips decided on the current plan, each
      mapped to its :class:`Candidate`, or to ``None`` when infeasible; the
      latest :data:`MEMO_CAP` of them.

    :meth:`run` is the only code that feasibility-checks, evaluates and
    accepts flips, and :meth:`commit` the only code that moves the walk and
    empties the memo.  A walk may outlive many runs, each with its own
    acceptance rule (a SPATIAL member keeps one walk for the whole solve).

    Memory is O(K^2 + boundary nodes) beside the memo, independent of the
    map's size beyond the plan itself.  The walk owns a copy of the plan it
    is given.  The plan must be hard-feasible (every territory connected
    around its center), as every walk's start plan is; feasible flips keep
    it so, and so does a batch of moves whose result is hard-feasible.  A
    plan that is not one of the instance's
    (:func:`~districter.graph.check_plan`) is an
    :class:`~districter.errors.InstanceError`.
    """

    def __init__(self, plan: Plan, instance, splits: list | None = None):
        check_plan(plan.assignment, plan.centers, instance)
        self.instance = instance
        self.plan = plan = plan.copy()
        self.owner = plan.assignment.tolist()
        self.centers = plan.centers.tolist()
        self.territory_count = k = plan.territory_count
        # each cut edge (u, v) puts u on the boundary of the pair
        # (owner(u), owner(v)) and v on that of (owner(v), owner(u)); one
        # sort of the (pair code, node) keys groups them by pair, ascending
        # (np.unique would do, but took 8x as long at numpy 2.4)
        a, edges = plan.assignment, instance.graph.edges
        tu, tv = a[edges[:, 0]], a[edges[:, 1]]
        cut = np.flatnonzero(tu != tv)
        uv, vu = tu[cut] * k + tv[cut], tv[cut] * k + tu[cut]
        cuts = (np.bincount(uv, minlength=k * k)
                + np.bincount(vu, minlength=k * k))
        self.pair_cuts = cuts.reshape(k, k).tolist()
        self.pairs = [divmod(c, k) for c in np.flatnonzero(cuts).tolist()]
        n = len(a)
        keys = np.sort(np.concatenate((uv * n + edges[cut, 0],
                                       vu * n + edges[cut, 1])))
        codes, nodes = np.divmod(keys, n)
        keep = nodes != plan.centers[codes // k]
        keep[1:] &= keys[1:] != keys[:-1]       # each key once
        codes, nodes = codes[keep], nodes[keep].tolist()
        ends = np.searchsorted(codes, np.arange(k * k + 1)).tolist()
        self._boundary = [nodes[i:j] for i, j in zip(ends, ends[1:])]
        config = instance.objective_config
        sums = territory_sums(plan, instance)
        self.rows = [list(row) for row in zip(*sums)]
        self.balance, self.compactness = territory_terms(sums, config)
        self.terms = reduce_terms(self.balance, self.compactness, config)
        rings = instance.graph.rings
        self.corners = self.holes = None
        self.splits = [0] if splits is None else splits
        self.table_price = (math.inf if rings is None
                            else len(rings.points) // TABLE_PRICE)
        self.accepted = 0
        self.scored: dict = {}

    def take_corners(self) -> None:
        """Take the map's corner table for the walks of one solve (built now
        if no walk has built it) and count each territory's holes on the
        current plan (:func:`~districter.graph.corner_holes`)."""
        self.table_price = math.inf
        self.corners = corners = self.instance.graph.corners
        if corners is not None:
            self.holes = corner_holes(corners, self.plan.assignment,
                                      self.territory_count)

    def boundary(self, donor: int, recipient: int) -> list:
        """The donor's nodes other than its center that touch the recipient,
        ascending.  This is the walk's own list, changed by :meth:`commit`;
        copy it to keep it."""
        return self._boundary[donor * self.territory_count + recipient]

    def run(self, proposals, rule):
        """Decide every proposal in turn by ``rule``, yielding
        ``(proposal, accepted)`` after each; the walk already reflects the
        decision.  A proposal found in :attr:`scored` is neither checked nor
        scored again.

        ``proposals`` is drawn lazily, so a source may read the walk's current
        plan to produce its next proposal.
        """
        for proposal in proposals:
            accepted = False
            scored = self.scored
            if proposal in scored:
                candidate = scored[proposal]
            else:
                if len(scored) >= MEMO_CAP:
                    del scored[next(iter(scored))]      # the oldest entry
                candidate = scored[proposal] = (
                    apply_flip(self, proposal)
                    if flip_is_feasible(self, proposal) else None)
            if candidate is not None and rule(self, candidate):
                accepted = True
                self.commit(candidate)
                self.accepted += 1
            yield proposal, accepted

    def commit(self, candidate: "Candidate") -> None:
        """Make the moves :func:`apply_flip` scored and take its rows and
        terms as the current plan's: an accepted flip, or a recombination
        candidate the walk's member keeps (which :attr:`accepted` does not
        count).  The memo of the old plan's flips is dropped.

        Each move takes a node, which is no center, from its donor to its
        recipient in the plan, the cut counts, the pair list and the
        boundary lists, in O(deg v).  A move reads only the node's
        neighbourhood, so moves made in turn leave the walk a fresh build of
        the resulting plan would have."""
        assignment, owner, centers = self.plan.assignment, self.owner, self.centers
        k = self.territory_count
        lists = self.instance.graph.neighbor_lists
        cuts, pairs, boundary = self.pair_cuts, self.pairs, self._boundary
        corners, holes = self.corners, self.holes
        for node, donor, recipient in candidate.moves:
            assignment[node] = recipient
            owner[node] = recipient
            if holes is not None:
                move_holes(corners, holes, owner, node, donor, recipient)
            neighbors = lists[node]
            donor_cuts, recipient_cuts = cuts[donor], cuts[recipient]
            seen = []       # the territories of the node's neighbours
            # a neighbour w in t: its edge leaves the pair (donor, t) and
            # joins (recipient, t); w now touches the recipient and may no
            # longer touch the donor, and the node itself moves from the list
            # of (donor, t) to that of (recipient, t)
            for w in neighbors:
                t = owner[w]
                if t != donor:
                    donor_cuts[t] -= 1
                    cuts[t][donor] -= 1
                    if not donor_cuts[t]:
                        sorted_remove(pairs, (donor, t))
                        sorted_remove(pairs, (t, donor))
                if t != recipient:
                    if not recipient_cuts[t]:
                        sorted_insert(pairs, (recipient, t))
                        sorted_insert(pairs, (t, recipient))
                    recipient_cuts[t] += 1
                    cuts[t][recipient] += 1
                if w != centers[t]:
                    if t != recipient:
                        sorted_insert(boundary[t * k + recipient], w)
                    if t != donor:
                        for x in lists[w]:
                            if owner[x] == donor:
                                break
                        else:
                            sorted_remove(boundary[t * k + donor], w)
                if t not in seen:
                    seen.append(t)
                    if t != donor:
                        sorted_remove(boundary[donor * k + t], node)
                    if t != recipient:
                        sorted_insert(boundary[recipient * k + t], node)
        for t, (row, balance, compactness) in candidate.changed.items():
            self.rows[t] = row
            self.balance[t], self.compactness[t] = balance, compactness
        self.terms = candidate.terms
        self.scored = {}


def adjacent_territory_pairs(walk: Walk) -> list:
    """Ordered (donor, recipient) pairs of territories joined by a cut edge,
    sorted lexicographically: the walk's own list, changed by a commit."""
    return walk.pairs


def flip_candidates(walk: Walk, donor: int, recipient: int) -> list:
    """Nodes of ``donor`` adjacent to ``recipient``, ascending, without the
    donor's center: the walk's own list, changed by a commit."""
    return walk.boundary(donor, recipient)


def propose_flip(walk: Walk, rng) -> FlipProposal:
    """Uniformly pick an ordered adjacent territory pair, then a uniform
    movable boundary node of the donor.  Pairs whose boundary consists only
    of centers are resampled; if no pair has a movable node the search space
    offers no flip at all, as a plan of one territory never does.

    ``rng`` is a ``Generator`` or a :class:`~districter.draws.Span` of one.
    Each pick is a uniform index into the list, the draw
    ``rng.choice(nodes)`` makes, without converting the list to an array."""
    if walk.territory_count < 2:
        raise NoFeasibleFlip("flips need at least two territories")
    pairs = adjacent_territory_pairs(walk)
    if not pairs:
        raise InternalError("no adjacent territory pair on a connected graph")
    for _ in range(max(32, 4 * len(pairs))):
        donor, recipient = pairs[rng.integers(len(pairs))]
        nodes = flip_candidates(walk, donor, recipient)
        if nodes:
            return FlipProposal(nodes[rng.integers(len(nodes))],
                                donor, recipient)
    # rare fallback: sweep all pairs before concluding nothing can move
    movable = [(d, r) for d, r in pairs if flip_candidates(walk, d, r)]
    if not movable:
        raise NoFeasibleFlip("every boundary node is a center")
    donor, recipient = movable[rng.integers(len(movable))]
    nodes = flip_candidates(walk, donor, recipient)
    return FlipProposal(nodes[rng.integers(len(nodes))], donor, recipient)


def flip_is_feasible(walk: Walk, proposal: FlipProposal) -> bool:
    """A flip is feasible when the node really sits on the donor/recipient
    boundary, is not the donor's center, and the donor stays connected
    without it: the corner rule answers when the walk has hole counts, else
    the search, whose splits count towards the table price."""
    node, donor, recipient = proposal
    owner = walk.owner
    if owner[node] != donor or node == walk.centers[donor]:
        return False
    graph = walk.instance.graph
    for w in graph.neighbor_lists[node]:
        if owner[w] == recipient:
            holes = walk.holes
            whole = (None if holes is None
                     else corner_answer(walk.corners, owner, node, holes))
            if whole is None:
                whole = stays_connected_without(graph, owner, node)
                if not whole:
                    walk.splits[0] += 1
                    if walk.splits[0] >= walk.table_price:
                        walk.take_corners()
            return whole
    return False


class Candidate(NamedTuple):
    """Moves scored by :func:`apply_flip`: ``moves``, the flips
    (:class:`FlipProposal`) made in turn, and of the plan they would make,
    ``terms`` (J, balance_term, compactness_term) and ``changed``, which
    maps each territory the moves touch to its new row of ``Walk.rows``,
    its balance deviation and its compactness term.  Its size depends on
    the moves alone, not on K."""

    moves: tuple
    terms: tuple
    changed: dict


def apply_flip(walk: Walk, *moves: FlipProposal) -> Candidate:
    """Score the plan that ``moves`` would make, in plain scalars; the walk
    is left as it was and changes only when it commits them.  A step scores
    one flip, a recombination a batch.

    The moves are made in turn, each from the node's territory at that
    point (a node may move twice): each is written into ``walk.owner``, so
    later moves read the owners as the earlier ones left them, and the
    owners are written back in reverse order on the way out, also when a
    move raises.  A move takes the node's row (``Instance.unit_rows``) from
    its donor's row to its recipient's, each a new list; its edges into the
    donor leave the donor's internal sum and those into the recipient join
    the recipient's (O(deg v)).  The sums are exact, so they end equal to
    the new plan's.  Only the changed territories' terms are recomputed:
    they are written into the walk's own ``balance`` and ``compactness``
    lists, the K terms of each kind are reduced again
    (:func:`~districter.objective.reduce_terms`, O(K)), and the old terms
    are written back, also when a term raises."""
    instance, owner = walk.instance, walk.owner
    lists = instance.graph.neighbor_lists
    weights = instance.shape_weights.neighbors
    unit_rows, rows = instance.unit_rows, walk.rows
    changed: dict = {}
    undo = []               # (node, its owner before the move), in order
    try:
        for node, donor, recipient in moves:
            into_donor = into_recipient = 0.0
            for w, weight in zip(lists[node], weights[node]):
                t = owner[w]
                if t == donor:
                    into_donor += weight
                elif t == recipient:
                    into_recipient += weight
            undo.append((node, owner[node]))
            owner[node] = recipient
            unit = unit_rows[node]
            row = changed.get(donor) or rows[donor]
            changed[donor] = new = list(map(sub, row, unit))
            new.append(row[-1] - into_donor)
            row = changed.get(recipient) or rows[recipient]
            changed[recipient] = new = list(map(add, row, unit))
            new.append(row[-1] + into_recipient)
    finally:
        for node, t in reversed(undo):
            owner[node] = t
    config = instance.objective_config
    compactness_term = COMPACTNESS_TERMS[config.compactness_mode]
    balance, compactness = walk.balance, walk.compactness
    kept = []               # (territory, its terms before), in order
    try:
        for t, row in changed.items():
            kept.append((t, balance[t], compactness[t]))
            balance[t] = b = balance_deviation(t, row[0], row[1])
            compactness[t] = c = compactness_term(*row[2:])
            changed[t] = row, b, c
        terms = reduce_terms(balance, compactness, config)
    finally:
        for t, b, c in reversed(kept):
            balance[t], compactness[t] = b, c
    return Candidate(moves, terms, changed)


def random_proposals(walk: Walk, rng, budget: int):
    """Up to ``budget`` :func:`propose_flip` draws from ``rng`` (a
    ``Generator`` or a :class:`~districter.draws.Span` of one) on the walk's
    current plan; ends early when the plan offers no flip at all."""
    for _ in range(budget):
        try:
            proposal = propose_flip(walk, rng)
        except NoFeasibleFlip:
            return
        yield proposal


def exhaustive_proposals(walk: Walk, rng: np.random.Generator):
    """Every (pair, node) flip candidate of the walk's current plan: pairs in
    a random order and, within a pair, candidate nodes likewise, so no
    rejected candidate is retried.  The caller stops the sweep at its first
    accepted flip, which changes the plan it was drawn from.  Each pair's
    node order is drawn only when that pair is reached.  Both orders are
    numpy permutations of indices into the lists, which draw what
    permutations of the lists themselves would."""
    pairs = adjacent_territory_pairs(walk)     # unchanged until a commit
    for pi in rng.permutation(len(pairs)).tolist():
        donor, recipient = pairs[pi]
        nodes = flip_candidates(walk, donor, recipient)
        if not nodes:
            continue
        for i in rng.permutation(len(nodes)).tolist():
            yield FlipProposal(nodes[i], donor, recipient)


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

    def __init__(self, initial_temp: float, cooling: float, rng):
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


class BalancedBand:
    """Accept every move that keeps each changed territory's balance
    deviation (for a flip, the donor's and the recipient's) within the band;
    objective-blind otherwise."""

    def __init__(self, band: float):
        self.band = band

    def __call__(self, walk, candidate: Candidate) -> bool:
        band = self.band
        for _, balance, _ in candidate.changed.values():
            if not balance <= band:
                return False
        return True


class BalancedCompactBand(BalancedBand):
    """BalancedBand plus: the move may not worsen the compactness term by
    more than the band."""

    def __call__(self, walk, candidate: Candidate) -> bool:
        return (super().__call__(walk, candidate)
                and candidate.terms[2] <= walk.terms[2] + self.band)


# ---------------------------------------------------------------------------
# Population-wide local improvement (one accepted flip per member)
# ---------------------------------------------------------------------------

class PassResult(NamedTuple):
    accepted_flips: int     # members that accepted a flip


def local_improvement_pass(walks: list, worse_accept_prob: float,
                           rng: np.random.Generator) -> PassResult:
    """Attempt flips on every member's walk, in place, until one is accepted
    or all (pair, node) candidates of its plan are exhausted.  A better plan
    is kept, and a worse one with chance ``worse_accept_prob``
    (:class:`ImproveOrChance`).

    Members with no acceptable flip are left unchanged (locally converged).
    Each member draws from its own substream of ``rng``; drawing from
    ``rng`` directly would move every pinned seeded output.
    """
    streams = rng.spawn(len(walks))
    accepted = 0
    for walk, stream in zip(walks, streams):
        rule = ImproveOrChance(worse_accept_prob, stream)
        for _, ok in walk.run(exhaustive_proposals(walk, stream), rule):
            if ok:
                accepted += 1
                break
    return PassResult(accepted)


# ---------------------------------------------------------------------------
# Single-walk searches: SHC / SA / BAA / BCAA / AIO
# ---------------------------------------------------------------------------

TRACE_HEADER = ("iteration", "j", "balance_term", "compactness_term", "accepted")

# name -> (the SearchConfig field that holds its proposal budget, its rule
# made from the config, or SA's fixed schedule, and the run's generator)
SEARCHES = {
    "shc": ("max_iters", lambda config, rng: NonWorsening()),
    "sa": ("max_iters", lambda config, rng: Annealing(
        SA_INITIAL_TEMP, SA_COOLING, rng)),
    "baa": ("chain_steps",
            lambda config, rng: BalancedBand(config.acceptance_band)),
    "bcaa": ("chain_steps",
             lambda config, rng: BalancedCompactBand(config.acceptance_band)),
    "aio": ("chain_steps", lambda config, rng: NonWorsening()),
}


@dataclass
class ChainSummary:
    """What a single-walk search did: one :data:`TRACE_HEADER` row per
    proposal, the count of accepted flips and the best J seen, the start's
    included."""

    trace: list = field(repr=False)
    accepted: int
    best_j: float


def run_chain(instance, search: str, config: SearchConfig,
              rng: np.random.Generator, start: Plan) -> tuple[ChainSummary, Plan]:
    """Walk from ``start`` under the rule of ``search`` (a :data:`SEARCHES`
    name), one random proposal per step of its budget, and return the
    summary and the first plan of least J seen (``start`` itself when no
    step improves on it).

    SHC and AIO keep any equally good or better plan, SA follows
    :class:`Annealing`, BAA keeps any move whose changed territories stay
    within the balance band, and BCAA also refuses a move that worsens the
    compactness term by more than the band.
    """
    entry = SEARCHES.get(search.lower())
    if entry is None:
        raise ConfigError(f"unknown search {search!r}")
    budget, make_rule = entry
    walk = Walk(start, instance)
    best, best_j = start, walk.terms[0]
    trace = []
    # the proposals and the rule draw from one span: nothing else may draw
    # from rng while it is open
    with Span(rng) as draws:
        steps = walk.run(random_proposals(walk, draws, getattr(config, budget)),
                         make_rule(config, draws))
        for it, (_, accepted) in enumerate(steps, start=1):
            terms = walk.terms
            trace.append((it, *terms, int(accepted)))
            if accepted and terms[0] < best_j:
                best, best_j = walk.plan.copy(), terms[0]
    return ChainSummary(trace, walk.accepted, best_j), best
