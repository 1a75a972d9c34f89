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

J is a reduction over per-territory sums (:class:`TerritorySums`).  A flip
walk keeps those sums for its plan and moves one node's share per flip
(:meth:`TerritorySums.flipped`).  Unit geometry is rounded to multiples of
one power of two when an instance is assembled, so every float sum is exact
in any order and the refreshed J is bit-identical to a full evaluation.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EvaluationError
from .graph import Plan

COMPACTNESS_MODES = ("polsby_popper", "edge_cut_proxy")


@dataclass
class ObjectiveConfig:
    """Weights and soft-band parameters of the objective.

    ``balance_weight`` trades balance against compactness; school planners
    weigh balance at least twice as heavily, so a ratio below 2 triggers a
    warning.  ``balance_band`` is the soft validation band reported by
    :func:`districter.graph.validate_plan`.
    """

    balance_weight: float = 0.7
    balance_band: float = 0.1
    compactness_mode: str = "polsby_popper"

    def __post_init__(self):
        if not 0.0 <= self.balance_weight <= 1.0:
            raise ValueError("balance_weight must lie in [0, 1]")
        if not self.balance_band >= 0.0:
            raise ConfigError("balance_band must be a non-negative number")
        if self.compactness_mode not in COMPACTNESS_MODES:
            raise ValueError(f"unknown compactness mode {self.compactness_mode!r}")
        w = self.balance_weight
        if w < 1.0 and w / (1.0 - w) < 2.0:
            warnings.warn(
                "balance_weight gives balance less than twice the weight of "
                "compactness", stacklevel=2)


@dataclass
class ObjectiveReport:
    """Objective value with its decomposition and per-territory diagnostics."""

    j: float
    balance_term: float
    compactness_term: float
    per_territory: list = field(default_factory=list)


class ShapeWeights(NamedTuple):
    """What a compactness mode sums per territory: each per-unit array of
    ``units`` over its units, and ``edges`` over its internal edges, which
    ``neighbors[u]`` lists per node in ``graph.neighbor_lists[u]`` order."""

    units: tuple
    edges: np.ndarray
    neighbors: tuple


def shape_weights(graph, mode: str, geometry) -> ShapeWeights | None:
    """What ``mode`` sums: the instance's ``geometry`` for Polsby-Popper,
    1 per unit and per edge for the cut-edge proxy."""
    if mode == "polsby_popper":
        return geometry
    return ShapeWeights((np.ones(graph.node_count),), np.ones(graph.edge_count),
                        tuple([1.0] * len(nb) for nb in graph.neighbor_lists))


@dataclass
class TerritorySums:
    """The per-territory sums the objective reduces over: population and
    capacity as integers, and ``shape``, the sums of :func:`_shape_sums`.
    Every float sum is exact in any order (unit geometry is multiples of one
    power of two), so sums updated flip by flip (:meth:`flipped`) equal the
    whole plan's bit for bit: the objective never drifts."""

    population: np.ndarray
    capacity: np.ndarray
    shape: tuple

    def flipped(self, owner: list, node: int, donor: int, recipient: int,
                instance) -> "TerritorySums":
        """The sums once ``node`` moves from ``donor`` to ``recipient``, in
        O(deg v): the node's own values move, and its edges into the donor
        leave the donor's internal sum while those into the recipient join
        the recipient's.  ``owner`` is the assignment before the flip."""
        graph, weights = instance.graph, instance.shape_weights
        into = {donor: 0.0, recipient: 0.0}      # the node's edges into each
        for w, weight in zip(graph.neighbor_lists[node], weights.neighbors[node]):
            if owner[w] in into:
                into[owner[w]] += weight
        pop, cap, *shape = (x.copy() for x in (self.population, self.capacity,
                                               *self.shape))
        columns = (graph.population[instance.level],
                   graph.capacity[instance.level], *weights.units)
        for sums, column in zip((pop, cap, *shape), columns):  # stops at inner
            sums[donor] -= column[node]
            sums[recipient] += column[node]
        shape[-1][donor] -= into[donor]
        shape[-1][recipient] += into[recipient]
        return TerritorySums(pop, cap, tuple(shape))


def _shape_sums(a: np.ndarray, k: int, graph, weights: ShapeWeights | None
                ) -> tuple:
    """Per-territory sums of assignment ``a`` under :class:`ShapeWeights`."""
    if weights is None:
        raise EvaluationError("polsby_popper compactness needs unit geometry")
    eu, ev = graph.edges[:, 0], graph.edges[:, 1]
    inner = a[eu] == a[ev]
    return (*(np.bincount(a, weights=x, minlength=k) for x in weights.units),
            np.bincount(a[eu[inner]], weights=weights.edges[inner], minlength=k))


def _polsby_popper(area, unit_perimeter, inner_length) -> np.ndarray:
    """Polsby-Popper score per territory.

    Perimeter of a territory equals the sum of unit perimeters minus twice the
    boundary length shared by internal adjacencies, which for edge-matched
    tilings is exactly the dissolved perimeter.  Empty territories score 0.
    """
    peri = unit_perimeter - 2.0 * inner_length
    pp = np.zeros(len(peri))
    nz = peri > 0
    pp[nz] = 4.0 * math.pi * area[nz] / (peri[nz] * peri[nz])
    return pp


def _territory_pp(plan: Plan, instance) -> np.ndarray:
    """Polsby-Popper score per territory from cached unit geometry."""
    return _polsby_popper(*_shape_sums(plan.assignment, plan.territory_count,
                                       instance.graph, instance.geometry))


def _max_internal_edges(sizes: np.ndarray) -> np.ndarray:
    """Internal edge count of the most compact grid block of each size
    (2n - ceil(2*sqrt(n)) for a polyomino of n cells)."""
    n = sizes.astype(float)
    d = 2.0 * n - np.ceil(2.0 * np.sqrt(n))
    return np.maximum(d, 0.0)


def _proxy_terms(sizes, internal) -> np.ndarray:
    """Per-territory surrogate ``1 - retained/maximum`` internal edges,
    clamped to [0, 1]; dimensionless like ``|1 - PP|``."""
    dmax = _max_internal_edges(sizes)
    terms = np.ones(len(sizes))
    nz = dmax > 0
    terms[nz] = np.clip(1.0 - internal[nz] / dmax[nz], 0.0, 1.0)
    terms[dmax == 0] = 0.0  # single cells and empty territories
    return terms


def territory_balance(plan: Plan, instance) -> tuple[np.ndarray, np.ndarray]:
    """(population, capacity) per territory at the instance's school level."""
    k = plan.territory_count
    a = plan.assignment
    pop = np.bincount(a, weights=instance.graph.population[instance.level],
                      minlength=k)
    cap = np.bincount(a, weights=instance.graph.capacity[instance.level],
                      minlength=k)
    return pop, cap


def territory_sums(plan: Plan, instance) -> TerritorySums:
    """The :class:`TerritorySums` of a whole plan.  Population and capacity
    are integers, summed exactly while totals stay below 2**53."""
    pop, cap = territory_balance(plan, instance)
    return TerritorySums(
        pop.astype(np.int64), cap.astype(np.int64),
        _shape_sums(plan.assignment, plan.territory_count, instance.graph,
                    instance.shape_weights))


def objective_terms(plan: Plan | TerritorySums, instance
                    ) -> tuple[float, float, float]:
    """(J, balance_term, compactness_term) of a plan, or of the
    :class:`TerritorySums` a flip walk keeps for its plan and candidates;
    the hot path for search loops."""
    sums = plan if isinstance(plan, TerritorySums) else territory_sums(plan, instance)
    config = instance.objective_config
    pop, cap = sums.population, sums.capacity
    if np.any(cap == 0):
        bad = int(np.flatnonzero(cap == 0)[0])
        raise EvaluationError(f"territory {bad} has zero total capacity")
    balance_term = float(np.abs(1.0 - pop / cap).sum())
    if config.compactness_mode == "polsby_popper":
        compactness_term = float(np.abs(1.0 - _polsby_popper(*sums.shape)).sum())
    else:
        compactness_term = float(_proxy_terms(*sums.shape).sum())
    w = config.balance_weight
    return (w * balance_term + (1.0 - w) * compactness_term,
            balance_term, compactness_term)


def evaluate(plan: Plan, instance) -> ObjectiveReport:
    """Score a plan: :func:`objective_terms` plus per-territory diagnostics."""
    j, balance_term, compactness_term = objective_terms(plan, instance)
    pop, cap = territory_balance(plan, instance)
    ratio = pop / cap
    pp = None if instance.geometry is None else _territory_pp(plan, instance)
    per_territory = [
        {
            "population": float(pop[i]),
            "capacity": float(cap[i]),
            "ratio": float(ratio[i]),
            "polsby_popper": float(pp[i]) if pp is not None else None,
        }
        for i in range(plan.territory_count)
    ]
    return ObjectiveReport(j=j, balance_term=balance_term,
                           compactness_term=compactness_term,
                           per_territory=per_territory)


def objective_value(plan: Plan, instance) -> float:
    """J only."""
    return objective_terms(plan, instance)[0]


def fitness(j: float) -> float:
    """Selection weight 1/(1+|J|): strictly decreasing in |J|, 1 at the ideal."""
    return 1.0 / (1.0 + abs(j))


def balance_score(plan: Plan, instance) -> float:
    """Percentage balance 100*|1 - mean(|1 - pop_i/cap_i|)|.

    The outer absolute value is applied as defined, so a mean deviation above
    1 folds back into a positive score; such plans are flagged in
    :func:`planning_report`.
    """
    pop, cap = territory_balance(plan, instance)
    if np.any(cap == 0):
        raise EvaluationError("zero-capacity territory")
    mean_dev = float(np.abs(1.0 - pop / cap).mean())
    return 100.0 * abs(1.0 - mean_dev)


def compactness_score(plan: Plan, instance) -> float:
    """Mean Polsby-Popper score across territories, scaled to [0, 100]."""
    pp = _territory_pp(plan, instance)
    return float(100.0 * np.abs(pp).mean())


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
    """Distance, balance-band counts and displacement for a plan.

    Mean distance weights each unit's centroid-to-school distance by its
    student population; max distance ranges over units with population > 0.
    A school is balanced when its attending population lies within 80-120% of
    its capacity.  Displacement needs a baseline plan and is otherwise
    reported as absent.
    """
    pop_v = instance.graph.population[instance.level]
    dist_v = instance.distance[np.arange(instance.graph.node_count),
                               plan.assignment]
    total_pop = int(pop_v.sum())
    mean_distance = float((pop_v * dist_v).sum() / total_pop) if total_pop else 0.0
    inhabited = pop_v > 0
    max_distance = float(dist_v[inhabited].max()) if inhabited.any() else 0.0

    pop, cap = territory_balance(plan, instance)
    if np.any(cap == 0):
        raise EvaluationError("zero-capacity territory")
    ratio = pop / cap
    balanced = int(np.count_nonzero((ratio >= 0.8) & (ratio <= 1.2)))
    under = int(np.count_nonzero(ratio < 0.8))
    over = int(np.count_nonzero(ratio > 1.2))
    mean_dev = float(np.abs(1.0 - ratio).mean())

    displaced = None
    if baseline is not None:
        moved = plan.assignment != baseline.assignment
        displaced = int(pop_v[moved].sum())

    return PlanningReport(
        territory_count=plan.territory_count,
        compactness=compactness_score(plan, instance),
        mean_distance=mean_distance,
        max_distance=max_distance,
        balance=balance_score(plan, instance),
        balance_flagged=mean_dev > 1.0,
        balanced_count=balanced,
        under_count=under,
        over_count=over,
        total_population=total_pop,
        displaced=displaced,
    )
