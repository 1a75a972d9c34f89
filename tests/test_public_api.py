"""The package's public names and what the benchmark's tracer
(``perfbench/tracer.py``, which these tests only read) relies on: every name
in ``districter.__all__`` resolves, every traced layer is a function of its
module, and the results its observers read keep their shape."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import districter
from districter import (Plan, Walk, generate_grid_instance,
                        init_population, local_improvement_pass, recombine)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from districter import *", namespace)
    assert set(districter.__all__) <= set(namespace)
    assert len(set(districter.__all__)) == len(districter.__all__)


def test_every_traced_layer_is_a_function_of_its_module():
    tracer = load_tracer()
    assert set(tracer.OBSERVERS) <= set(tracer.LAYERS)
    for layer in tracer.LAYERS:
        module, name = layer.split(".")
        home = importlib.import_module(f"districter.{module}")
        assert inspect.isfunction(getattr(home, name, None)), layer


def test_observed_results_keep_their_shape():
    """``local_improvement_pass`` returns an int ``accepted_flips`` and
    ``recombine`` a (moves, swap) pair; the tracer's observers accept
    both."""
    tracer = load_tracer()
    inst = generate_grid_instance(6, 6, 3, seed=2)
    rng = np.random.default_rng(0)
    walks = [Walk(plan, inst) for plan in init_population(inst, 4, rng)]
    counters: dict = {}

    args = (walks, 0.01, rng)
    result = local_improvement_pass(*args)
    assert type(result.accepted_flips) is int and result.accepted_flips > 0
    tracer.OBSERVERS["local_search.local_improvement_pass"](
        counters, args, result)
    assert counters["local_improvement_pass.accepted"] == result.accepted_flips

    args = (walks[0], walks[1], rng)
    pair = recombine(*args)
    assert isinstance(pair, tuple) and len(pair) == 2
    tracer.OBSERVERS["memetic.recombine"](counters, args, pair)


def test_repair_keeps_what_its_tracer_reads():
    """Recombination repairs in a walk's owner list and calls neither
    ``repair`` nor ``connected_components``, but the tracer still looks up
    both layers: each resolves to a callable, ``repair`` returns a
    :class:`~districter.Plan`, and the observer's diff of the
    ``.assignment`` of its first argument and of its result counts the
    nodes it moved."""
    tracer = load_tracer()
    for layer in ("memetic.repair", "graph.connected_components"):
        assert layer in tracer.LAYERS
        module, name = layer.split(".")
        home = importlib.import_module(f"districter.{module}")
        assert callable(getattr(home, name)), layer
    inst = generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))
    # node 5 of territory 0 is cut off from nodes 0 and 1
    broken = Plan(np.array([0, 0, 1, 1, 1, 0, 1, 1, 1]), inst.centers)
    args = (broken, inst, np.random.default_rng(0))
    result = districter.repair(*args)
    assert isinstance(result, Plan)
    counters: dict = {}
    tracer.OBSERVERS["memetic.repair"](counters, args, result)
    assert counters["repair.nodes_moved"] == 1
    assert result.assignment[5] == 1


def test_mate_selection_picks_from_one_wheel():
    """``mate_wheel`` checks a population's fitnesses and builds the wheel
    once; ``select_mate`` makes one pick from it."""
    assert list(inspect.signature(districter.mate_wheel).parameters) == [
        "fitnesses"]
    assert list(inspect.signature(districter.select_mate).parameters) == [
        "wheel", "rng"]
    wheel = districter.mate_wheel([1.0, 3.0])
    assert wheel == [0.25, 1.0]
    assert districter.select_mate(wheel, np.random.default_rng(0)) in (0, 1)
