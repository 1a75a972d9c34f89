"""Smoke test of the benchmark itself, on tiny inputs (about half a minute).

    python3 perfbench/smoke_test.py

For every workload it checks that the untraced and the traced run pass their
output checks and emit every metric BENCHMARK.json declares, with its unit;
that two untraced runs with one seed give the same fingerprint and
best_j_mean; that every span's self time is >= 0 and the layers' self times
sum to no more than the traced trial time; and that the layers the workloads
are meant to avoid have no calls.  Finally it checks that the benchmark
fails, without printing a result, next to nothing but its own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc, what):
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0, f"{what}: {result}"
    return result


def record_of(workload, trace):
    path = HERE / "out" / f"{workload}-tiny-seed{SEED}-trace{trace}" / "run.json"
    return json.loads(path.read_text())


def check_units(result, declared, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{what}: metrics differ from BENCHMARK.json: " \
        f"missing {set(want) - set(got)}, extra {set(got) - set(want)}, " \
        f"units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}"


def check_workload(name, spec):
    first = result_of(run(name, 0), f"{name} untraced")
    fingerprint = record_of(name, 0)["fingerprint"]
    check_units(first, spec["end_to_end"], name)
    second = result_of(run(name, 0), f"{name} untraced again")
    assert record_of(name, 0)["fingerprint"] == fingerprint, \
        f"{name}: two runs with seed {SEED} wrote different outputs"
    assert (second["metrics"]["best_j_mean"]["value"]
            == first["metrics"]["best_j_mean"]["value"]), name

    traced = result_of(run(name, 1), f"{name} traced")
    check_units(traced, spec["per_layer"], f"{name} traced")
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    spans = record_of(name, 1)["spans"]
    assert spans and all(s["min_self_ms"] >= 0.0 for s in spans), \
        f"{name}: a span has negative self time"
    layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert layer_self <= metrics["trace.trial_ms"], \
        f"{name}: layer self times {layer_self} ms exceed {metrics['trace.trial_ms']} ms"

    absent = {"design_small": ["local_search.propose_flip"],
              "design_large": ["local_search.propose_flip"],
              "sample_hex": ["growth.guided_growth", "memetic.recombine",
                             "memetic.repair",
                             "local_search.local_improvement_pass"]}[name]
    for layer in absent:
        assert metrics[f"{layer}.calls"] == 0, f"{name}: {layer} was called"
    print(f"ok  {name}")


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: no program to run."""
    bare = HERE / "out" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / HERE.name)
    proc = run("design_small", 0, cwd=bare, script=bare / HERE.name / "run.py")
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert '"correct"' not in proc.stdout, "benchmark printed a result"
    shutil.rmtree(bare)
    print("ok  fails without the program")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
