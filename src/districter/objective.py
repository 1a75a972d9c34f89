"""The optimization objective and plan-evaluation metrics.

The objective combines two per-territory deviations, weighted by
``balance_weight``:

* balance: ``|1 - population_i / capacity_i|`` summed over territories, and
* compactness: ``|1 - PP_i|`` where ``PP_i`` is the Polsby-Popper score of the
  territory's dissolved footprint (or a cut-edge surrogate in proxy mode).

Lower is better; 0 means every territory exactly fills its capacity and is
perfectly circular.  Evaluation is defined on any total assignment, contiguous
or not: feasibility is owned by the acceptance logic of the search operators,
which lets them score tentative intermediates.  Everything here is a pure
function of immutable inputs and safe to call from parallel workers.

J is one formula over per-territory sums (:func:`territory_sums`): each
territory's balance deviation (:func:`balance_deviation`) and compactness
term (:func:`polsby_popper_deviation` or :func:`proxy_term`) are plain scalar
functions of its sums, and the K values of each kind are added in numpy's
pairwise order (:func:`pairwise_sum`).  A flip walk keeps the sums and both
lists of terms for its plan; a flip changes two territories, so a candidate
recomputes two terms of each kind and reduces the lists again (a batch of
reassignments recomputes the terms of the territories it changes).  Unit
geometry is rounded to multiples of one power of two when an instance is
assembled, so every float sum is exact in any order, and a walk's J is
bit-identical to :func:`objective_terms` of the whole plan by construction.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EvaluationError
from .graph import Plan

COMPACTNESS_MODES = ("polsby_popper", "edge_cut_proxy")


@dataclass
class ObjectiveConfig:
    """Weights and compactness mode of the objective.

    ``balance_weight`` trades balance against compactness; school planners
    weigh balance at least twice as heavily, so a ratio below 2 triggers a
    warning.
    """

    balance_weight: float = 0.7
    compactness_mode: str = "polsby_popper"

    def __post_init__(self):
        if not 0.0 <= self.balance_weight <= 1.0:
            raise ConfigError("balance_weight must lie in [0, 1]")
        if self.compactness_mode not in COMPACTNESS_MODES:
            raise ConfigError(
                f"unknown compactness mode {self.compactness_mode!r}")
        w = self.balance_weight
        if w < 1.0 and w / (1.0 - w) < 2.0:
            warnings.warn(
                "balance_weight gives balance less than twice the weight of "
                "compactness", stacklevel=2)


class ShapeWeights(NamedTuple):
    """What a compactness mode sums per territory: each per-unit array of
    ``units`` over its units, and ``edges`` over its internal edges, which
    ``neighbors`` spreads per node as ``graph.along_neighbors`` does."""

    units: tuple
    edges: np.ndarray
    neighbors: tuple


def shape_weights(graph, mode: str, geometry) -> ShapeWeights | None:
    """What ``mode`` sums: the instance's ``geometry`` for Polsby-Popper,
    1 per unit and per edge for the cut-edge proxy."""
    if mode == "polsby_popper":
        return geometry
    return ShapeWeights((np.ones(graph.node_count),), np.ones(graph.edge_count),
                        graph.along_neighbors(np.ones(graph.edge_count)))


def _shape_sums(a: np.ndarray, k: int, graph, weights: ShapeWeights | None
                ) -> tuple:
    """Per-territory sums of assignment ``a`` under :class:`ShapeWeights`."""
    if weights is None:
        raise EvaluationError("polsby_popper compactness needs unit geometry")
    eu, ev = graph.edges[:, 0], graph.edges[:, 1]
    inner = a[eu] == a[ev]
    return (*(np.bincount(a, weights=x, minlength=k) for x in weights.units),
            np.bincount(a[eu[inner]], weights=weights.edges[inner], minlength=k))


# ---------------------------------------------------------------------------
# Per-territory terms: plain scalar functions of one territory's sums, the
# only form of each formula, shared by whole-plan evaluation and flip walks.
# ---------------------------------------------------------------------------

def pairwise_sum(values: list) -> float:
    """The float64 sum of ``values`` in numpy's order, so equal bit for bit
    to ``float(np.sum(values))``: a plain loop below 8 items, eight
    interleaved accumulators up to 128, and halves (the first a multiple of
    8 long) above that.  The builtin ``sum`` will not do: from Python 3.12
    it adds floats with compensated summation."""
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            x0, x1, x2, x3, x4, x5, x6, x7 = values[i:i + 8]
            r0 += x0
            r1 += x1
            r2 += x2
            r3 += x3
            r4 += x4
            r5 += x5
            r6 += x6
            r7 += x7
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for x in values[tail:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def _fill_ratio(territory: int, population, capacity) -> float:
    """``population / capacity`` of a territory; an EvaluationError names the
    territory when its total capacity is zero, where balance is undefined."""
    if not capacity:
        raise EvaluationError(f"territory {territory} has zero total capacity")
    return population / capacity


def balance_deviation(territory: int, population, capacity) -> float:
    """A territory's balance deviation ``|1 - population / capacity|``."""
    return abs(1.0 - _fill_ratio(territory, population, capacity))


def _polsby_popper(area, unit_perimeter, inner_length) -> float:
    """A territory's Polsby-Popper score from its sums.

    Perimeter of a territory equals the sum of unit perimeters minus twice the
    boundary length shared by internal adjacencies, which for edge-matched
    tilings is exactly the dissolved perimeter.  Empty territories score 0.
    """
    peri = unit_perimeter - 2.0 * inner_length
    if peri > 0:
        return 4.0 * math.pi * area / (peri * peri)
    return 0.0


def polsby_popper_deviation(area, unit_perimeter, inner_length) -> float:
    """A territory's compactness term ``|1 - PP|`` in polsby_popper mode."""
    return abs(1.0 - _polsby_popper(area, unit_perimeter, inner_length))


def max_internal_edges(size) -> float:
    """Internal edge count of the most compact grid block of ``size`` cells
    (2n - ceil(2*sqrt(n)) for a polyomino of n cells)."""
    return max(2.0 * size - math.ceil(2.0 * math.sqrt(size)), 0.0)


def proxy_term(size, internal) -> float:
    """A territory's compactness term in edge_cut_proxy mode: the surrogate
    ``1 - retained/maximum`` internal edges, clamped to [0, 1] and 0 for
    single cells and empty territories; dimensionless like ``|1 - PP|``."""
    dmax = max_internal_edges(size)
    if dmax > 0:
        return min(max(1.0 - internal / dmax, 0.0), 1.0)
    return 0.0


#: compactness mode -> the territory's term, a function of its shape sums
COMPACTNESS_TERMS = {"polsby_popper": polsby_popper_deviation,
                     "edge_cut_proxy": proxy_term}


def territory_terms(sums: tuple, config: ObjectiveConfig
                    ) -> tuple[list, list]:
    """Each territory's balance deviation and compactness term, from
    :func:`territory_sums`."""
    compactness = COMPACTNESS_TERMS[config.compactness_mode]
    return ([balance_deviation(t, pop, cap) for t, (pop, cap)
             in enumerate(zip(sums[0], sums[1]))],
            [compactness(*shape) for shape in zip(*sums[2:])])


def reduce_terms(balance: list, compactness: list, config: ObjectiveConfig
                 ) -> tuple[float, float, float]:
    """(J, balance_term, compactness_term) of the per-territory terms."""
    balance_term = pairwise_sum(balance)
    compactness_term = pairwise_sum(compactness)
    w = config.balance_weight
    return (w * balance_term + (1.0 - w) * compactness_term,
            balance_term, compactness_term)


# ---------------------------------------------------------------------------
# Whole-plan evaluation
# ---------------------------------------------------------------------------

def territory_sums(plan: Plan, instance) -> tuple:
    """The per-territory sums the objective reduces over, one list per sum
    indexed by territory, in ``Instance.unit_rows`` order and then the
    internal edge sum: population and capacity as ints, summed exactly while
    totals stay below 2**53, and the shape sums of :func:`_shape_sums` as
    floats.  Every float sum is exact in any order (unit geometry is
    multiples of one power of two), so the sums a flip walk updates flip by
    flip equal the whole plan's bit for bit: the objective never
    drifts.  This is the only pass that sums unit data by territory: J and
    :func:`planning_report` both read its sums."""
    k, a, graph = plan.territory_count, plan.assignment, instance.graph
    pop, cap = (np.bincount(a, weights=x[instance.level], minlength=k)
                .astype(np.int64).tolist()
                for x in (graph.population, graph.capacity))
    return (pop, cap, *(x.tolist() for x in _shape_sums(
        a, k, graph, instance.shape_weights)))


def _polsby_popper_scores(plan: Plan, sums: tuple, instance) -> list:
    """Each territory's Polsby-Popper score, from unit geometry: the shape
    sums of ``sums`` in polsby_popper mode, the geometry's own sums in proxy
    mode (an EvaluationError when the instance has none)."""
    shape = sums[2:]
    if instance.objective_config.compactness_mode != "polsby_popper":
        shape = (x.tolist() for x in _shape_sums(
            plan.assignment, plan.territory_count, instance.graph,
            instance.geometry))
    return [_polsby_popper(*s) for s in zip(*shape)]


def objective_terms(plan: Plan, instance) -> tuple[float, float, float]:
    """(J, balance_term, compactness_term) of a plan."""
    config = instance.objective_config
    return reduce_terms(*territory_terms(territory_sums(plan, instance),
                                         config), config)


def objective_value(plan: Plan, instance) -> float:
    """J only."""
    return objective_terms(plan, instance)[0]


def fitness(j: float) -> float:
    """Selection weight 1/(1+|J|): strictly decreasing in |J|, 1 at the ideal."""
    return 1.0 / (1.0 + abs(j))


@dataclass
class PlanningReport:
    """Planner-facing metrics for comparing a plan against a baseline."""

    territory_count: int
    compactness: float
    mean_distance: float
    max_distance: float
    balance: float
    balance_flagged: bool
    balanced_count: int
    under_count: int
    over_count: int
    total_population: int
    displaced: int | None = None

    @property
    def displaced_pct(self) -> float | None:
        if self.displaced is None or self.total_population == 0:
            return None
        return 100.0 * self.displaced / self.total_population

    def to_dict(self) -> dict:
        k = self.territory_count
        return {
            "compactness_score": self.compactness,
            "mean_distance": self.mean_distance,
            "max_distance": self.max_distance,
            "balance_score": self.balance,
            "balance_flagged": self.balance_flagged,
            "balanced_schools": {"count": self.balanced_count, "of": k,
                                 "pct": 100.0 * self.balanced_count / k},
            "under_enrolled_schools": {"count": self.under_count, "of": k,
                                       "pct": 100.0 * self.under_count / k},
            "overcrowded_schools": {"count": self.over_count, "of": k,
                                    "pct": 100.0 * self.over_count / k},
            "students_displaced": (
                None if self.displaced is None
                else {"count": self.displaced, "of": self.total_population,
                      "pct": self.displaced_pct}),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        k = self.territory_count
        rows = [
            ("Compactness score", f"{self.compactness:.2f}"),
            ("Mean distance traveled", f"{self.mean_distance:.2f}"),
            ("Max distance traveled", f"{self.max_distance:.2f}"),
            ("Balance score", f"{self.balance:.2f}"
             + (" (mean deviation > 1)" if self.balance_flagged else "")),
            ("Number of balanced schools", f"{self.balanced_count}/{k}"),
            ("(in %)", f"{100.0 * self.balanced_count / k:.2f}"),
            ("Number of under-enrolled schools", f"{self.under_count}/{k}"),
            ("(in %)", f"{100.0 * self.under_count / k:.2f}"),
            ("Number of overcrowded schools", f"{self.over_count}/{k}"),
            ("(in %)", f"{100.0 * self.over_count / k:.2f}"),
        ]
        if self.displaced is None:
            rows += [("Students displaced", "-"), ("(in %)", "-")]
        else:
            rows += [("Students displaced",
                      f"{self.displaced}/{self.total_population}"),
                     ("(in %)", f"{self.displaced_pct:.2f}")]
        width = max(len(label) for label, _ in rows) + 2
        return "\n".join(f"{label:<{width}}{value}" for label, value in rows)


def planning_report(plan: Plan, instance, baseline: Plan | None = None
                    ) -> PlanningReport:
    """Distance, scores, balance-band counts and displacement for a plan.

    Mean distance weights each unit's centroid-to-school distance by its
    student population; max distance ranges over units with population > 0.
    Everything per territory comes from one :func:`territory_sums` pass.
    The balance score is 100*|1 - mean(|1 - pop_i/cap_i|)|, so a mean
    deviation above 1 folds back into a positive score and is flagged; the
    compactness score is the mean Polsby-Popper score scaled to [0, 100].
    A school is balanced when its attending population lies within 80-120%
    of its capacity.  Displacement needs a baseline plan and is otherwise
    reported as absent.
    """
    graph, k = instance.graph, plan.territory_count
    pop_v = graph.population[instance.level]
    c = graph.centroids
    dist_v = np.sqrt(((c - c[instance.centers[plan.assignment]]) ** 2)
                     .sum(axis=1))
    total_pop = int(pop_v.sum())
    mean_distance = float((pop_v * dist_v).sum() / total_pop) if total_pop else 0.0
    inhabited = pop_v > 0
    max_distance = float(dist_v[inhabited].max()) if inhabited.any() else 0.0

    # balance and compactness are means, which np.mean takes as sum / K
    sums = territory_sums(plan, instance)
    per_territory = list(enumerate(zip(sums[0], sums[1])))
    ratio = [_fill_ratio(t, pop, cap) for t, (pop, cap) in per_territory]
    mean_dev = pairwise_sum([balance_deviation(t, pop, cap)
                             for t, (pop, cap) in per_territory]) / k
    pp = _polsby_popper_scores(plan, sums, instance)

    displaced = None
    if baseline is not None:
        moved = plan.assignment != baseline.assignment
        displaced = int(pop_v[moved].sum())

    return PlanningReport(
        territory_count=k,
        compactness=100.0 * (pairwise_sum(pp) / k),
        mean_distance=mean_distance,
        max_distance=max_distance,
        balance=100.0 * abs(1.0 - mean_dev),
        balance_flagged=mean_dev > 1.0,
        balanced_count=sum(0.8 <= r <= 1.2 for r in ratio),
        under_count=sum(r < 0.8 for r in ratio),
        over_count=sum(r > 1.2 for r in ratio),
        total_population=total_pop,
        displaced=displaced,
    )
