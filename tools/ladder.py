"""The large-map ladder: how setup, growth and the searches scale with N.

    python3 tools/ladder.py                       # every rung
    python3 tools/ladder.py --rungs 1600 25600    # the rungs named by N

Each rung is a clustered square grid of N unit squares with K centers
(N = 1,600 / 25,600 / 102,400 with K = 16 / 64 / 128), run in a fresh
process of its own, so its peak RSS is its own.  Per rung it times:

* ``build_s``: ``generate_grid_instance``;
* ``load_s``: ``load_instance`` of the file ``save_instance`` wrote;
* ``growth_s``: ``guided_growth`` of one plan;
* ``validate_s``: ``validate_plan`` of one grown plan;
* ``walk_s``: ``Walk`` of one grown plan;
* ``corner_s``: ``corner_table`` of the grid's rings, their segment match
  made beforehand: the build cost per point that
  ``local_search.TABLE_PRICE`` weighs;
* ``baa_steps_per_s``: a BAA chain of 4,000 steps, band 0.15, from a grown
  plan;
* ``spatial_s`` and ``spatial_s_per_iter``: a 20-iteration spatial solve of
  10 members, whole and per iteration after its population is built;
* ``peak_rss_mb``: the rung process's peak resident set;
* ``hex_baa_steps_per_s``: a BAA chain of 4,000 steps, band 0.15, on the
  benchmark's hexagonal tiling (``perfbench/inputs.py``'s ``hex_instance``,
  degree 6, adjacency derived from the polygons) of N cells with K schools,
  from its nearest-school plan, run in a second fresh process three times
  from one seed (the three runs must digest alike).

and the quality of what it made, so that a speedup cannot quietly trade it
away: ``grown_j_mean``, the mean J of the grown plans; ``baa_best_j`` and
``hex_baa_best_j``, the best J of the grid and hexagonal chains; and
``spatial_best_j``, the best J of the spatial solve.

Timings are the median of 3 runs, except the grid chain's and the solve's,
which run once.  Every plan the rung makes must pass hard validation.
``plans_sha256`` digests the grown plans, and ``chain_sha256`` the BAA
chain's trace rows, its best plan and the generator state after it
(``hex_chain_sha256`` the same of the hexagonal chain), and
``spatial_sha256`` the spatial solve's best plan, its trace rows without
their ``wall_ms`` column and the generator state after it, so two versions
of the program can be checked to grow the same plans, walk the same chains
and solve alike, with the same draws.  The exit code is 0 only when every
plan passed.  The last line of standard output is one JSON object of every
rung's metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import districter as dp  # noqa: E402
from districter.geometry import corner_table  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (the benchmark's hexagonal tiling)

RUNGS = {1_600: 16, 25_600: 64, 102_400: 128}     # N -> K
HEX_SCHOOLS = {16: (4, 4), 64: (8, 8), 128: (8, 16)}  # K -> block rows, cols
INSTANCE_SEED = 1
REPEATS = 3
CHAIN_STEPS = 4_000
BAND = 0.15
SPATIAL_ITERS = 20
POPULATION = 10

UNITS = {"build_s": "s", "load_s": "s", "growth_s": "s", "validate_s": "s",
         "walk_s": "s", "corner_s": "s", "baa_steps_per_s": "1/s",
         "spatial_s": "s", "spatial_s_per_iter": "s", "peak_rss_mb": "MB",
         "grown_j_mean": "J", "baa_best_j": "J", "spatial_best_j": "J",
         "hex_baa_steps_per_s": "1/s", "hex_baa_best_j": "J"}


def timed(fn, repeats=REPEATS):
    """The median wall time of ``repeats`` calls of ``fn``, and the last
    call's result; one result is alive at a time."""
    times = []
    for _ in range(repeats):
        result = None
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), result


def check(plan, instance, what: str, problems: list) -> None:
    """Hard validation of ``plan``; a failure is noted in ``problems``."""
    report = dp.validate_plan(plan, instance.graph, 0.0)
    if not report.hard_ok:
        problems.append(f"{what}: {report.hard_violations[:3]}")


def baa_chain(instance, start, rng, problems: list
              ) -> tuple[float, str, float]:
    """Steps per second of a BAA chain from ``start``, the digest of its
    trace rows, its best plan and the generator state after it, and its
    best J."""
    search = dp.SearchConfig(chain_steps=CHAIN_STEPS, acceptance_band=BAND)
    begin = perf_counter()
    summary, best = dp.run_chain(instance, "baa", search, rng, start)
    steps_per_s = CHAIN_STEPS / (perf_counter() - begin)
    check(best, instance, "BAA plan", problems)
    chain = hashlib.sha256(repr(summary.trace).encode())
    chain.update(best.assignment.tobytes())
    chain.update(repr(rng.bit_generator.state).encode())
    return steps_per_s, chain.hexdigest(), summary.best_j


def run_rung(n: int) -> dict:
    """Every grid metric of the rung with N = ``n``, and the problems
    found."""
    side, k = int(round(n ** 0.5)), RUNGS[n]
    problems = []

    build_s, instance = timed(lambda: dp.generate_grid_instance(
        side, side, k, INSTANCE_SEED, balance_profile="clustered"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        dp.save_instance(instance, path)
        load_s, loaded = timed(lambda: dp.load_instance(path, instance.level))
    if not np.array_equal(loaded.graph.edges, instance.graph.edges):
        problems.append("the loaded instance has other edges")
    del loaded

    streams = iter(np.random.default_rng(0).spawn(REPEATS + 2))
    plans = []
    growth_s, _ = timed(lambda: plans.append(dp.guided_growth(
        instance, next(streams))))
    digest = hashlib.sha256()
    for i, plan in enumerate(plans):
        check(plan, instance, f"grown plan {i}", problems)
        digest.update(plan.assignment.tobytes())
    validate_s, _ = timed(lambda: dp.validate_plan(plans[0], instance.graph,
                                                   0.0))
    walk_s, _ = timed(lambda: dp.Walk(plans[0], instance))
    rings = instance.graph.rings
    rings.partners          # made once per map, before any table
    corner_s = timed(lambda: corner_table(rings))[0]

    grown_j_mean = statistics.fmean(dp.objective_value(plan, instance)
                                    for plan in plans)
    baa_steps_per_s, chain_sha256, baa_best_j = baa_chain(
        instance, plans[0], next(streams), problems)

    config = dp.MemeticConfig(population_size=POPULATION,
                              iterations=SPATIAL_ITERS)
    rng = next(streams)
    start = perf_counter()
    result = dp.spatial_run(instance, config, rng)
    spatial_s = perf_counter() - start
    check(result.best_plan, instance, "spatial plan", problems)
    spatial = hashlib.sha256(result.best_plan.assignment.tobytes())
    spatial.update(repr([row[:-1] for row in result.trace]).encode())
    spatial.update(repr(rng.bit_generator.state).encode())

    metrics = {
        "build_s": build_s, "load_s": load_s, "growth_s": growth_s,
        "validate_s": validate_s, "walk_s": walk_s, "corner_s": corner_s,
        "baa_steps_per_s": baa_steps_per_s, "spatial_s": spatial_s,
        "spatial_s_per_iter": result.trace[-1][-1] / 1000.0 / SPATIAL_ITERS,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "grown_j_mean": grown_j_mean, "baa_best_j": baa_best_j,
        "spatial_best_j": result.best_j,
    }
    return {"n": n, "k": k, "metrics": metrics,
            "plans_sha256": digest.hexdigest(),
            "chain_sha256": chain_sha256,
            "spatial_sha256": spatial.hexdigest(), "problems": problems}


def run_hex_chain(n: int) -> dict:
    """The hexagonal BAA chain of the rung with N = ``n``: its steps per
    second, its digest and the problems found."""
    side, k = int(round(n ** 0.5)), RUNGS[n]
    problems = []
    doc, plan_doc = inputs.hex_instance(side, side, *HEX_SCHOOLS[k],
                                        INSTANCE_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        path, plan_path = Path(tmp) / "instance.json", Path(tmp) / "plan.json"
        inputs.write_json(doc, path)
        inputs.write_json(plan_doc, plan_path)
        del doc
        instance = dp.load_instance(path)
        start = dp.load_plan(plan_path, instance)
    check(start, instance, "hexagonal start plan", problems)
    runs = [baa_chain(instance, start, np.random.default_rng(0), problems)
            for _ in range(REPEATS)]
    if len({digest for _, digest, _ in runs}) != 1:
        problems.append("the hexagonal chain differs between runs")
    return {"hex_baa_steps_per_s": statistics.median(s for s, _, _ in runs),
            "hex_baa_best_j": runs[0][2], "hex_chain_sha256": runs[0][1],
            "problems": problems}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rungs", type=int, nargs="+", choices=list(RUNGS),
                   default=list(RUNGS), metavar="N",
                   help=f"the rungs to run, by N (of {list(RUNGS)})")
    args = p.parse_args(argv)

    results = {}
    spawn = multiprocessing.get_context("spawn")
    for n in args.rungs:
        with spawn.Pool(1) as pool:      # a fresh process per rung
            rung = pool.apply(run_rung, (n,))
        with spawn.Pool(1) as pool:      # and one for its hexagonal chain
            hex_chain = pool.apply(run_hex_chain, (n,))
        for name in ("hex_baa_steps_per_s", "hex_baa_best_j"):
            rung["metrics"][name] = hex_chain[name]
        rung["hex_chain_sha256"] = hex_chain["hex_chain_sha256"]
        rung["problems"] += hex_chain["problems"]
        results[n] = rung
        for name, value in rung["metrics"].items():
            print(f"N={n:<7} K={rung['k']:<4} {name:<19} {value:>12.4f} "
                  f"{UNITS[name]}")
        print(f"N={n:<7} K={rung['k']:<4} plans_sha256 "
              f"{rung['plans_sha256'][:16]}  chain_sha256 "
              f"{rung['chain_sha256'][:16]}  hex_chain_sha256 "
              f"{rung['hex_chain_sha256'][:16]}  spatial_sha256 "
              f"{rung['spatial_sha256'][:16]}", flush=True)
        for problem in rung["problems"]:
            print(f"N={n}: {problem}", file=sys.stderr)
    print(json.dumps({"rungs": results}))
    return 0 if not any(r["problems"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
