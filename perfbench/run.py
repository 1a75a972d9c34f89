"""The districter benchmark: seeded ``districter solve`` trials, run in-process.

    python3 perfbench/run.py --workload design_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one process each

The benchmark writes a workload's input files and hands the program only
those files: it calls ``districter.cli.main(["solve", ...])`` in this
process, one invocation after another, each running the workload's number
of sequential trials.  ``--seed`` picks the trial seeds; the instance is part
of the workload and fixed.  Every trial's plan is checked here,
independently of the program's own validation: hard feasibility, every
territory connected by networkx, and J recomputed against the trace.

``--trace 0`` runs untraced invocations until ``--seconds`` is spent and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of
invocations with every layer in :data:`tracer.LAYERS` wrapped, each followed
by the same invocation untraced, and prints the per-layer metrics; a fixed
amount of traced work makes every call count repeat exactly for a seed.

Times are scaled by the machine speed a :class:`reference.SpeedProbe`
measures while they are taken (see reference.py for why).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count trials.  The run record (environment, input digests, trial
seeds, per-trial fingerprints, span table) goes to
``perfbench/out/<workload>-<scale>-seed<seed>-trace<t>/run.json``.
The exit code is 0 only when every trial passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import networkx as nx
import numpy as np

import inputs
from reference import NOMINAL_S, SpeedProbe
from tracer import LAYERS, ROOT as ROOT_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

J_TOLERANCE = 1e-12
TAU = 0.1          # the CLI's default --tau; the check validates with it
LEVEL = "ES"       # the CLI's default --level


@dataclass(frozen=True)
class Scale:
    instance: dict          # generator parameters
    solve: tuple            # solve flags besides --instance/--seed/--trials/--out
    trials_per_solve: int
    quality_solves: int     # always run; best_j_mean and the fingerprint cover them
    traced_solves: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str               # "grid" or "hex"
    algo: str
    instance_seed: int
    full: Scale
    tiny: Scale


# design_small is the paper's desk-scale design setting, where a converged
# population spends its time enumerating rejected flips in the local pass;
# design_large is where growth and recombination/repair show; sample_hex
# drives the same flip kernel through random, mostly accepted chain proposals
# on a non-grid graph whose adjacency is derived on every load.  sample_hex
# runs two trials per solve, so parsing the instance once per solve instead
# of once per trial would show in trial_s; on the grids parsing is under 1%.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="design_small",
        why="spatial solver from scratch on the clustered 10x10 K=4 "
            "acceptance instance until the population converges: local pass "
            "and flip feasibility dominate",
        kind="grid", algo="spatial", instance_seed=42,
        full=Scale({"rows": 10, "cols": 10, "k": 4},
                   ("--np", "10", "--iters", "100"), 1, 6, 3),
        tiny=Scale({"rows": 6, "cols": 6, "k": 3},
                   ("--np", "4", "--iters", "5"), 1, 2, 1)),
    Workload(
        name="design_large",
        why="spatial solver from scratch on a clustered 40x40 K=16 grid for "
            "60 iterations: growth, recombination and repair show",
        kind="grid", algo="spatial", instance_seed=1,
        full=Scale({"rows": 40, "cols": 40, "k": 16},
                   ("--np", "10", "--iters", "60"), 1, 4, 2),
        tiny=Scale({"rows": 12, "cols": 12, "k": 4},
                   ("--np", "4", "--iters", "3"), 1, 2, 1)),
    Workload(
        name="sample_hex",
        why="BAA flip chain warm-started from the nearest-school plan on an "
            "80x80 hexagonal tiling with K=32: proposals and adjacency "
            "derivation dominate",
        kind="hex", algo="baa", instance_seed=1,
        full=Scale({"rows": 80, "cols": 80, "k_rows": 4, "k_cols": 8},
                   ("--chain-steps", "600"), 2, 2, 1),
        tiny=Scale({"rows": 12, "cols": 16, "k_rows": 2, "k_cols": 2},
                   ("--chain-steps", "30"), 2, 1, 1)),
)}

END_TO_END_UNITS = {"setup_s": "s", "trial_s": "s", "iters_per_s": "1/s",
                    "best_j_mean": "J", "peak_rss_mb": "MB"}


def import_program():
    """Import ``districter`` from this checkout's ``src``, never elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import districter
        import districter.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import districter from {src}: {exc}")
    if Path(districter.__file__).resolve().parent != src / "districter":
        raise SystemExit(f"districter was imported from {districter.__file__}, "
                         f"not from {src}")
    return districter


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def quiet(fn, *args):
    """Call ``fn`` with its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


@contextlib.contextmanager
def timed_attribute(module, name, sink: list):
    """Temporarily time every call of ``module.name`` into ``sink``."""
    original = getattr(module, name)

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(perf_counter() - start)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


# ---------------------------------------------------------------------------
# inputs and setup
# ---------------------------------------------------------------------------

def make_inputs(dst, workload: Workload, scale: Scale, cli):
    """Write the workload's instance (and existing plan) files."""
    instance_path = dst / "instance.json"
    plan_path = None
    p = scale.instance
    if workload.kind == "grid":
        rc = quiet(cli.main, ["generate", "--rows", str(p["rows"]),
                              "--cols", str(p["cols"]), "--k", str(p["k"]),
                              "--seed", str(workload.instance_seed),
                              "--profile", "clustered",
                              "--out", str(instance_path)])
        if rc != 0:
            raise RuntimeError(f"generate exited with {rc}")
    else:
        doc, plan = inputs.hex_instance(p["rows"], p["cols"], p["k_rows"],
                                        p["k_cols"], workload.instance_seed)
        inputs.write_json(doc, instance_path)
        plan_path = dst / "existing_plan.json"
        inputs.write_json(plan, plan_path)
    return instance_path, plan_path


def measure_setup(dp, instance_path, plan_path):
    """Scaled median time of load_instance (+ load_plan) over 3 to 9 loads
    (more while they add up to under 3 s), its raw samples, and the loaded
    instance and plan."""
    samples = []
    with SpeedProbe() as probe:
        begin = perf_counter()
        while len(samples) < 3 or (len(samples) < 9 and sum(samples) < 3.0):
            start = perf_counter()
            instance = dp.load_instance(str(instance_path), LEVEL,
                                        dp.ObjectiveConfig())
            plan = (dp.load_plan(str(plan_path), instance) if plan_path
                    else None)
            samples.append(perf_counter() - start)
        elapsed = perf_counter() - begin
    setup_s = (statistics.median(samples) * (1.0 - probe.spent / elapsed)
               * probe.speed)
    return setup_s, samples, instance, plan


# ---------------------------------------------------------------------------
# solves and their output check
# ---------------------------------------------------------------------------

@dataclass
class Solve:
    """One ``solve`` invocation: ``trials`` trials seeded ``seed``, ``seed+1``..."""

    index: int
    seed: int
    trials: int
    traced: bool
    wall_s: float = 0.0
    speed: float = 1.0       # SpeedProbe.speed over the solve
    probe_frac: float = 0.0  # share of wall_s spent in probe slices
    solver_s: float = 0.0    # summed over trials: run_chain, or the trace's wall_ms
    iterations: int = 0      # summed over trials: outer iterations or chain steps
    accepted: int = 0        # accepted chain steps
    best_j: list = field(default_factory=list)
    plan_sha256: list = field(default_factory=list)
    summary_sha256: str = ""
    problems: dict = field(default_factory=dict)   # trial offset -> messages

    @property
    def failed(self) -> int:
        return len(self.problems)

    def fail(self, trial: int, message: str) -> None:
        self.problems.setdefault(trial, []).append(message)

    def adjusted(self, seconds: float) -> float:
        """Program time within ``seconds`` (which include probe slices),
        scaled to a machine that runs a probe slice in NOMINAL_S."""
        return seconds * (1.0 - self.probe_frac) * self.speed

    @property
    def program_s(self) -> float:
        """Wall time without the probe slices, not scaled."""
        return self.wall_s * (1.0 - self.probe_frac)


class Checker:
    """Independent check of a solve's files against the loaded instance."""

    def __init__(self, dp, instance, start_plan, algo):
        self.dp = dp
        self.instance = instance
        self.algo = algo
        self.start_j = (dp.objective_terms(start_plan, instance)[0]
                        if start_plan is not None else None)

    def check(self, solve: Solve, solve_dir: Path) -> None:
        stem = f"{self.algo}_seed{solve.seed}"
        solve.summary_sha256 = sha256_file(solve_dir / f"{stem}_summary.json")
        for t in range(solve.trials):
            try:
                self._check_trial(solve, t, solve_dir / f"{stem}_trial{t:02d}")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                solve.fail(t, f"unreadable output: {type(exc).__name__}: {exc}")

    def _check_trial(self, solve: Solve, t: int, tag: Path) -> None:
        dp, instance = self.dp, self.instance
        plan_file = tag.with_name(tag.name + "_plan.json")
        solve.plan_sha256.append(sha256_file(plan_file))
        doc = json.loads(plan_file.read_text())
        plan = dp.Plan(doc["assignment"], doc["centers"])
        if (len(plan.assignment) != instance.node_count
                or not np.array_equal(plan.centers, instance.centers)):
            solve.fail(t, "plan does not match the instance")
            return
        if not dp.validate_plan(plan, instance.graph, TAU, LEVEL).hard_ok:
            solve.fail(t, "validate_plan: not hard-feasible")
        a = plan.assignment
        edges = instance.graph.edges
        internal = edges[a[edges[:, 0]] == a[edges[:, 1]]]
        for i, center in enumerate(plan.centers):
            # one territory's graph at a time keeps the check's memory small
            territory = nx.Graph()
            territory.add_nodes_from(np.flatnonzero(a == i).tolist())
            territory.add_edges_from(internal[a[internal[:, 0]] == i].tolist())
            if (a[center] != i or not territory.number_of_nodes()
                    or not nx.is_connected(territory)):
                solve.fail(t, f"territory {i} fails the networkx check")

        with open(tag.with_name(tag.name + "_trace.csv"), newline="") as f:
            rows = list(csv.reader(f))[1:]
        best_j = dp.objective_terms(plan, instance)[0]
        solve.best_j.append(best_j)
        if self.algo == "spatial":
            traced_best = float(rows[-1][1])
            solve.iterations += int(rows[-1][0])
            solve.solver_s += float(rows[-1][5]) / 1000.0
        else:
            traced_best = min([self.start_j] + [float(r[1]) for r in rows])
            solve.iterations += len(rows)
            solve.accepted += sum(int(r[4]) for r in rows)
        if abs(best_j - traced_best) > J_TOLERANCE:
            solve.fail(t, f"J of the plan {best_j!r} differs from the "
                          f"trace's best J {traced_best!r}")


class Runner:
    def __init__(self, cli, scale, seed, run_dir, instance_path, plan_path,
                 checker):
        self.cli = cli
        self.scale, self.seed = scale, seed
        self.run_dir = run_dir
        self.checker = checker
        self.base_argv = ["solve", "--instance", str(instance_path),
                          "--algo", checker.algo, *scale.solve,
                          "--trials", str(scale.trials_per_solve)]
        if plan_path is not None:
            self.base_argv += ["--warm-start", str(plan_path)]

    def solve_seed(self, index: int) -> int:
        return self.seed * 1000 + index * self.scale.trials_per_solve

    def run(self, index: int, tracer: Tracer | None = None) -> Solve:
        """One checked solve, traced when given a tracer."""
        solve = Solve(index, self.solve_seed(index),
                      self.scale.trials_per_solve, tracer is not None)
        solve_dir = self.run_dir / f"solve{index:03d}{'-traced' if tracer else ''}"
        argv = self.base_argv + ["--seed", str(solve.seed),
                                 "--out", str(solve_dir)]
        chain_s: list = []
        try:
            with timed_attribute(self.cli, "run_chain", chain_s), \
                    SpeedProbe(tracer.defer if tracer else None) as probe:
                start = perf_counter()
                if tracer is None:
                    rc = quiet(self.cli.main, argv)
                else:
                    with tracer:
                        rc = quiet(tracer.call, ROOT_SPAN, self.cli.main, argv)
                solve.wall_s = perf_counter() - start
            solve.speed = probe.speed
            solve.probe_frac = probe.spent / solve.wall_s
            if rc != 0:
                for t in range(solve.trials):
                    solve.fail(t, f"solve exited with {rc}")
                return solve
            self.checker.check(solve, solve_dir)
            if chain_s:
                solve.solver_s = sum(chain_s)
        except Exception as exc:  # a crashed solve fails all its trials
            traceback.print_exc(file=sys.stderr)
            for t in range(solve.trials):
                solve.fail(t, f"{type(exc).__name__}: {exc}")
        return solve


def fingerprint(solves) -> str:
    """sha256 over the plan and summary digests of ``solves``, in seed order."""
    h = hashlib.sha256()
    for s in sorted(solves, key=lambda s: s.seed):
        h.update(f"{s.seed}:{','.join(s.plan_sha256)}:{s.summary_sha256}\n"
                 .encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, seconds: float, setup_s: float):
    """Untraced solves until ``seconds`` is spent (at least the quality set)."""
    solves = []
    start = perf_counter()
    while len(solves) < runner.scale.quality_solves or (
            perf_counter() - start
            + statistics.median(s.wall_s for s in solves) <= seconds):
        solves.append(runner.run(len(solves)))
    good = [s for s in solves if not s.problems]
    quality = solves[:runner.scale.quality_solves]
    metrics = {}
    if good:
        metrics = {
            "setup_s": setup_s,
            "trial_s": statistics.median(s.adjusted(s.wall_s) / s.trials
                                         for s in good),
            "iters_per_s": sum(s.iterations for s in good)
            / sum(s.adjusted(s.solver_s) for s in good),
            "best_j_mean": statistics.fmean(j for s in quality
                                            for j in s.best_j),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return solves, metrics, {"fingerprint": fingerprint(quality)}


def per_layer(runner: Runner, tracer: Tracer):
    """Traced solves, each followed by the same solve untraced, for the
    overhead and for the check that tracing leaves every output unchanged."""
    traced, plain = [], []
    for i in range(runner.scale.traced_solves):
        traced.append(runner.run(i, tracer))
        plain.append(runner.run(i))
    solves = traced + plain
    extra = {"fingerprint": fingerprint(plain),
             "traced_fingerprint": fingerprint(traced),
             "spans": tracer.edge_table()}
    if extra["fingerprint"] != extra["traced_fingerprint"]:
        for s in traced:
            for t in range(s.trials):
                s.fail(t, "tracing changed the outputs")
    if any(s.problems for s in solves):
        return solves, {}, extra

    totals = tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        t = totals.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = (t["calls"], "count")
        metrics[f"{layer}.self_ms"] = (t["self_s"] * 1e3, "ms")
        metrics[f"{layer}.us_per_call"] = (
            t["total_s"] / t["calls"] * 1e6 if t["calls"] else 0.0, "us")

    c = tracer.counters
    feasible_calls = totals.get("local_search.flip_is_feasible",
                                {"calls": 0})["calls"]
    pass_checks = tracer.calls_under("local_search.local_improvement_pass",
                                     "local_search.flip_is_feasible")
    recombines = totals.get("memetic.recombine", {"calls": 0})["calls"]
    steps = sum(s.iterations for s in traced)   # accepted is 0 on spatial
    metrics.update({
        "local_search.flip_is_feasible.true_ratio": (
            c.get("flip_is_feasible.true", 0) / max(feasible_calls, 1), "ratio"),
        "local_search.accept_ratio": (
            sum(s.accepted for s in traced) / steps, "ratio"),
        "local_search.local_improvement_pass.checks_per_accept": (
            pass_checks / max(c.get("local_improvement_pass.accepted", 0), 1),
            "ratio"),
        "memetic.recombine.noop_ratio": (
            c.get("recombine.noop", 0) / max(recombines, 1), "ratio"),
        "memetic.repair.nodes_moved": (c.get("repair.nodes_moved", 0), "count"),
        "trace_overhead_frac": (statistics.median(
            a.adjusted(a.wall_s) / b.adjusted(b.wall_s)
            for a, b in zip(traced, plain)) - 1.0, "ratio"),
        "trace.trials": (sum(s.trials for s in traced), "count"),
        "trace.trial_ms": (sum(s.program_s for s in traced) * 1e3, "ms"),
    })
    return solves, metrics, extra


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "networkx": nx.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": git_commit()}


def run_workload(args) -> int:
    dp = import_program()
    cli = dp.cli
    workload = WORKLOADS[args.workload]
    scale = getattr(workload, args.scale)
    run_dir = OUT / f"{workload.name}-{args.scale}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)

    instance_path, plan_path = make_inputs(run_dir, workload, scale, cli)
    setup_s, setup_samples, instance, start_plan = measure_setup(
        dp, instance_path, plan_path)
    runner = Runner(cli, scale, args.seed, run_dir, instance_path, plan_path,
                    Checker(dp, instance, start_plan, workload.algo))
    if args.trace:
        solves, metrics, extra = per_layer(runner, Tracer(dp))
    else:
        solves, metrics, extra = end_to_end(runner, args.seconds, setup_s)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    attempted = sum(s.trials for s in solves)
    failed = sum(s.failed for s in solves)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {
        "workload": workload.name, "why": workload.why, "scale": args.scale,
        "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(),
        "workload_seeds": {"instance": workload.instance_seed,
                           "trials": [s.seed + t for s in solves
                                      for t in range(s.trials)]},
        "inputs": {p.name: sha256_file(p)
                   for p in (instance_path, plan_path) if p is not None},
        "solve_argv": runner.base_argv,
        "setup_samples_s": setup_samples,
        "probe_nominal_s": NOMINAL_S,
        "failed_frac": failed / attempted,
        "solves": [vars(s) for s in solves],
        **extra,
        "result": result,
    }
    with open(run_dir / "run.json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for s in solves:
        for t, messages in s.problems.items():
            print(f"trial seed {s.seed + t} failed: {'; '.join(messages)}",
                  file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{workload.name:<13} {name:<56} {entry['value']:>16.6f} "
              f"{entry['unit']}")
    print(f"{workload.name:<13} failed_frac {failed}/{attempted}  fingerprint "
          f"{extra['fingerprint'][:16]}  record {run_dir / 'run.json'}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"{name}: FAILED (exit {proc.returncode})")
            status = 1
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
