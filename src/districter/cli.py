"""Command-line entry point.

Subcommands:

* ``solve``     -- run ``spatial`` or a search of ``local_search.SEARCHES``
                   for several seeded trials, writing plan files, trace
                   CSVs and a mean/std summary per metric.
* ``evaluate``  -- planner-facing report for a plan (optionally vs a baseline).
* ``generate``  -- write a synthetic grid instance file.
* ``oracle``    -- exhaustive optimum of a tiny instance.

Exit codes: 0 success, 2 configuration error, 3 instance/plan error,
4 internal invariant breach.  ``solve`` parses the instance and any
warm-start plan once.  Trials run sequentially unless the
``DISTRICTER_WORKERS`` environment variable (at least 1) asks for a process
pool, of at most one worker per trial, which receives the parsed objects by
pickling; each trial seeds its own generator and counts its own splits
toward the corner table, so both ways run the same path and write
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial

import numpy as np

from .errors import (ConfigError, DistricterError, InstanceError,
                     InternalError)
from .graph import assert_hard_feasible
from .growth import guided_growth
from .instances import (generate_grid_instance, load_instance, load_plan,
                        save_instance, save_plan)
from .local_search import SEARCHES, TRACE_HEADER, SearchConfig, run_chain
from .memetic import SPATIAL_TRACE_HEADER, MemeticConfig, spatial_run
from .objective import ObjectiveConfig, planning_report
from .oracle import exhaustive_optimum


ALGORITHMS = ("spatial", *SEARCHES)
COMPACTNESS_FLAGS = {"pp": "polsby_popper", "edgecut": "edge_cut_proxy"}


def _objective_config(args) -> ObjectiveConfig:
    return ObjectiveConfig(balance_weight=args.balance_weight,
                           compactness_mode=COMPACTNESS_FLAGS[args.compactness])


def _add_objective_flags(parser):
    parser.add_argument("--level", choices=("es", "ms", "hs"), default="es")
    parser.add_argument("--lambda", dest="balance_weight", type=float,
                        default=0.7, help="balance weight in [0, 1]")
    parser.add_argument("--compactness", choices=tuple(COMPACTNESS_FLAGS),
                        default="pp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="districter",
        description="Balanced, contiguous, compact districting solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run seeded solver trials")
    p.add_argument("--instance", required=True)
    _add_objective_flags(p)
    p.add_argument("--algo", choices=ALGORITHMS, default="spatial")
    p.add_argument("--np", dest="population_size", type=int, default=10)
    p.add_argument("--iters", type=int, default=1000,
                   help="outer iterations (spatial) or proposals (shc, sa)")
    p.add_argument("--chain-steps", type=int, default=10_000,
                   help="proposals (baa, bcaa, aio)")
    p.add_argument("--pr", dest="worse_accept_prob", type=float, default=0.01)
    p.add_argument("--band", dest="acceptance_band", type=float, default=0.15,
                   help="balance band for the BAA/BCAA samplers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--warm-start", default=None,
                   help="plan file to initialize from (redistricting mode)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("evaluate", help="planner metrics for a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--baseline", default=None,
                   help="plan to measure displacement against")
    _add_objective_flags(p)
    p.add_argument("--out", default=None, help="write the report JSON here")

    p = sub.add_parser("generate", help="write a synthetic grid instance")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=("uniform", "clustered"),
                   default="uniform")
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="exhaustive optimum of a tiny instance")
    p.add_argument("--instance", required=True)
    _add_objective_flags(p)
    return parser


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _solver_config(args) -> MemeticConfig | SearchConfig:
    """The settings of ``--algo``: a MemeticConfig for ``spatial``, else a
    SearchConfig.  Both are built whatever ``--algo`` is, so a bad value of
    any flag is refused as a ConfigError, also one that ``--algo`` does not
    read."""
    spatial = MemeticConfig(population_size=args.population_size,
                            iterations=args.iters,
                            worse_accept_prob=args.worse_accept_prob)
    search = SearchConfig(max_iters=args.iters, chain_steps=args.chain_steps,
                          acceptance_band=args.acceptance_band)
    return spatial if args.algo == "spatial" else search


def _run_trial(instance, warm, algo, config, seed, trial):
    """One seeded run under ``config`` (:func:`_solver_config`): its summary
    record, best plan, trace rows and trace header.  Its arguments pickle,
    so a process pool can run it."""
    rng = np.random.default_rng(seed + trial)
    if algo == "spatial":
        result = spatial_run(instance, config, rng, warm_start=warm)
        best, trace, header = result.best_plan, result.trace, \
            SPATIAL_TRACE_HEADER
    else:
        start = warm if warm is not None else guided_growth(instance, rng)
        summary, best = run_chain(instance, algo, config, rng, start)
        trace, header = summary.trace, TRACE_HEADER

    assert_hard_feasible(best, instance, "solver returned an infeasible plan")
    report = planning_report(best, instance)
    record = {"trial": trial, "seed": seed + trial,
              "balance": report.balance, "compactness": report.compactness}
    return record, best, trace, header


@contextmanager
def _writing_out(path):
    """Report an ``--out`` path that cannot be written as a ConfigError,
    naming the file within it that failed when that is another path."""
    try:
        yield
    except OSError as exc:
        file = "" if exc.filename in (None, path) else f"{exc.filename}: "
        raise ConfigError(
            f"cannot write --out {path}: {file}{exc.strerror}") from exc


def cmd_solve(args) -> int:
    if args.trials < 1:
        raise ConfigError("need at least one trial")
    if args.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {args.seed}")
    try:
        workers = int(os.environ.get("DISTRICTER_WORKERS", "1"))
    except ValueError:
        raise ConfigError("DISTRICTER_WORKERS must be an integer") from None
    if workers < 1:
        raise ConfigError(
            f"DISTRICTER_WORKERS must be at least 1, got {workers}")
    config = _solver_config(args)
    instance = load_instance(args.instance, args.level, _objective_config(args))
    warm = load_plan(args.warm_start, instance) if args.warm_start else None
    with _writing_out(args.out):
        os.makedirs(args.out, exist_ok=True)
    run = partial(_run_trial, instance, warm, args.algo, config, args.seed)

    if workers > 1 and args.trials > 1:
        # a forked pool starts all its workers at the first submit, so it
        # gets no more of them than there are trials
        with ProcessPoolExecutor(max_workers=min(workers, args.trials)) as pool:
            results = list(pool.map(run, range(args.trials)))
    else:
        results = [run(t) for t in range(args.trials)]

    per_trial = []
    stem = f"{args.algo}_seed{args.seed}"
    with _writing_out(args.out):
        for record, best, trace, header in results:
            tag = f"{stem}_trial{record['trial']:02d}"
            record["plan_file"] = f"{tag}_plan.json"
            save_plan(best, os.path.join(args.out, record["plan_file"]))
            if trace:
                with open(os.path.join(args.out, f"{tag}_trace.csv"), "w",
                          encoding="utf-8", newline="") as f:
                    writer = csv.writer(f)
                    writer.writerow(header)
                    writer.writerows(trace)
            per_trial.append(record)

    def stats(key):
        values = np.array([t[key] for t in per_trial])
        mean, std = float(values.mean()), float(values.std())
        return {"mean": mean, "std": std,
                "formatted": f"{mean:.4f}±{std:.4f}"}

    summary = {
        "algorithm": args.algo,
        "level": args.level,
        "seed": args.seed,
        "trials": args.trials,
        "balance": stats("balance"),
        "compactness": stats("compactness"),
        "per_trial": per_trial,
    }
    with _writing_out(args.out), open(os.path.join(
            args.out, f"{stem}_summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"{args.algo}: balance {summary['balance']['formatted']}  "
          f"compactness {summary['compactness']['formatted']}")
    return 0


# ---------------------------------------------------------------------------
# evaluate / generate / oracle
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    instance = load_instance(args.instance, args.level, _objective_config(args))
    plan = load_plan(args.plan, instance)
    baseline = load_plan(args.baseline, instance) if args.baseline else None
    report = planning_report(plan, instance, baseline)
    if args.out:
        with _writing_out(args.out), open(args.out, "w", encoding="utf-8") as f:
            f.write(report.to_json())
            f.write("\n")
    print(report.to_text())
    return 0


def cmd_generate(args) -> int:
    instance = generate_grid_instance(args.rows, args.cols, args.k, args.seed,
                                      balance_profile=args.profile)
    with _writing_out(args.out):
        save_instance(instance, args.out)
    print(f"wrote {args.rows}x{args.cols} instance with K={args.k} to "
          f"{args.out}")
    return 0


def cmd_oracle(args) -> int:
    instance = load_instance(args.instance, args.level, _objective_config(args))
    result = exhaustive_optimum(instance)
    print(json.dumps({
        "feasible_plans": result.feasible_count,
        "optimal_j": result.best_j,
        "optimal_assignment": [int(x) for x in result.best_plan.assignment],
        "centers": [int(c) for c in result.best_plan.centers],
    }, sort_keys=True))
    return 0


COMMANDS = {"solve": cmd_solve, "evaluate": cmd_evaluate,
            "generate": cmd_generate, "oracle": cmd_oracle}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s",
                        stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InstanceError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except DistricterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
