import codecs
import csv
import hashlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from districter import (ConfigError, ObjectiveConfig, Plan, Walk,
                        generate_grid_instance, load_instance, load_plan,
                        objective_terms, planning_report, save_instance,
                        save_plan, validate_plan)
from districter import cli, local_search
from districter.cli import ALGORITHMS, main


@pytest.fixture(scope="module")
def grid3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "grid3.json"
    save_instance(generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8)), path)
    return str(path)


def read_summary(out_dir, algo, seed):
    with open(out_dir / f"{algo}_seed{seed}_summary.json") as f:
        return json.load(f)


def test_generate_and_load_round_trip(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["generate", "--rows", "3", "--cols", "3", "--k", "2",
                 "--seed", "1", "--out", str(out)]) == 0
    inst = load_instance(out, "es")
    assert inst.node_count == 9 and inst.graph.edge_count == 12


@pytest.mark.parametrize("size, k, seed, sha256", [
    (10, 4, 42, "ad4dfdf78c0433f059872d8c7a8abc1bdcde45da43c9d593cdbfb2853868975d"),
    (40, 16, 1, "9d3d27664bc1f903e0c5be0b3c478cc34369d087f0c23132b01e383f88aaa8ca"),
], ids=["10x10", "40x40"])
def test_generate_output_is_pinned(tmp_path, size, k, seed, sha256):
    """The benchmark's clustered grid files, byte for byte as the
    per-polygon generator wrote them."""
    out = tmp_path / "gen.json"
    assert main(["generate", "--rows", str(size), "--cols", str(size),
                 "--k", str(k), "--seed", str(seed), "--profile", "clustered",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_generate_k_too_large(tmp_path):
    code = main(["generate", "--rows", "2", "--cols", "2", "--k", "5",
                 "--seed", "0", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_missing_instance_is_instance_error(tmp_path):
    code = main(["solve", "--instance", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert not (tmp_path / "o").exists()


def test_zero_trials_is_config_error_without_output(tmp_path, grid3_file):
    code = main(["solve", "--instance", grid3_file, "--trials", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "{grid3}", "--trials", "1", "--out", "{file}"],
    ["generate", "--rows", "3", "--cols", "3", "--k", "2",
     "--out", "{missing}/gen.json"],
    ["evaluate", "--plan", "{plan}", "--instance", "{grid3}",
     "--out", "{missing}/report.json"],
    ["solve", "--instance", "{grid3}", "--trials", "1", "--out",
     "{plan_taken}"],
    ["solve", "--instance", "{grid3}", "--trials", "1", "--out",
     "{summary_taken}"],
], ids=["solve-out-is-a-file", "generate-out-without-parent",
        "evaluate-out-without-parent", "solve-plan-file-is-a-directory",
        "solve-summary-file-is-a-directory"])
def test_unusable_out_is_config_error(tmp_path, grid3_file, capsys, argv):
    (tmp_path / "file").write_text("")
    (tmp_path / "plan_taken" / "spatial_seed0_trial00_plan.json").mkdir(
        parents=True)
    (tmp_path / "summary_taken" / "spatial_seed0_summary.json").mkdir(
        parents=True)
    save_plan(Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), np.array([0, 8])),
              tmp_path / "plan.json")
    argv = [a.format(grid3=grid3_file, file=tmp_path / "file",
                     missing=tmp_path / "missing", plan=tmp_path / "plan.json",
                     plan_taken=tmp_path / "plan_taken",
                     summary_taken=tmp_path / "summary_taken")
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"configuration error: cannot write --out {argv[-1]}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("taken", ["spatial_seed0_trial00_plan.json",
                                   "spatial_seed0_summary.json"],
                         ids=["plan-file", "summary-file"])
def test_unusable_out_names_the_file(tmp_path, grid3_file, capsys, taken):
    """A directory where ``solve`` writes a file is named, after the
    ``--out`` directory it stands in."""
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert main(["solve", "--instance", grid3_file, "--trials", "1",
                 "--iters", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: cannot write --out {out}: {out / taken}: ")


def in_place(change):
    """An edit of the instance document that ``change`` makes in place."""
    def edit(doc):
        change(doc)
        return doc
    return edit


def add_school(**school):
    return in_place(lambda doc: doc.update(schools=[school]))


@pytest.mark.parametrize("bad, where", [
    (in_place(lambda doc: doc["units"][2]["population"].update(
        ES=float("nan"))), "unit 2"),
    (in_place(lambda doc: doc["units"][2]["polygon"][0].pop()), "unit 2"),
    (in_place(lambda doc: doc["adjacency"].__setitem__(0, [0, 1.9])),
     "adjacency entry"),
    (in_place(lambda doc: doc["adjacency"].append([0, 4])),
     "adjacency pair [0, 4] shares no boundary segment"),
    (in_place(lambda doc: doc["adjacency"].__setitem__(1, [0, 3, 4])),
     "adjacency must be a list of [u, v] pairs"),
    (in_place(lambda doc: doc["units"][2].pop("id")),
     "unit entry 2 has no 'id'"),
    (in_place(lambda doc: doc["units"][2].pop("polygon")),
     "unit entry 2 has no 'polygon'"),
    (in_place(lambda doc: doc["units"][2].update(id="x")),
     "id of unit entry 2 is 'x'"),
    (in_place(lambda doc: doc["units"][2].update(population=5)),
     "unit 2: population must map school levels"),
    (add_school(location=[0.5, 0.5], capacity=10),
     "school entry 0 has no 'level'"),
    (add_school(level="ES", capacity=10), "school entry 0 has no 'location'"),
    (add_school(level="ES", location="x", capacity=10),
     "school entry 0: location is not [x, y]"),
    (lambda doc: doc["units"], "is not a JSON object"),
    (lambda doc: {**doc, "units": {str(u["id"]): u for u in doc["units"]}},
     "no list of units"),
    (add_school(level="XS", location=[0.5, 0.5], capacity=10),
     "school entry 0: unknown school level 'XS'"),
    (in_place(lambda doc: doc["units"][2]["population"].update(ES="1e3")),
     "ES population of unit 2 is '1e3', not a number"),
    (in_place(lambda doc: doc["units"][2].update(id="2")),
     "id of unit entry 2 is '2', not a number"),
    (in_place(lambda doc: doc["units"][0]["capacity"].update(ES=True)),
     "ES capacity of unit 0 is True, not a number"),
    (in_place(lambda doc: doc["units"][2]["polygon"][0][1].__setitem__(
        0, "3")), "unit 2: coordinate '3' is not a number"),
    (in_place(lambda doc: doc["units"][2]["polygon"][0][2].__setitem__(
        1, True)), "unit 2: coordinate True is not a number"),
    (add_school(level="ES", location=[True, 0.5], capacity=10),
     "school entry 0: location is not [x, y]"),
    (add_school(level="ES", location=[0.5, 0.5], capacity=[600, 1]),
     "school entry 0: capacity is not one number"),
    (add_school(level="ES", location=[0.5, 0.5], capacity=[600]),
     "school entry 0: capacity is not one number"),
    (in_place(lambda doc: [u.update(population={
        lv.lower(): x for lv, x in u["population"].items()})
        for u in doc["units"]]),
     "unit 0: unknown school level 'es' in population"),
    (in_place(lambda doc: doc["units"][2]["capacity"].update(K8=0)),
     "unit 2: unknown school level 'K8' in capacity"),
    (in_place(lambda doc: doc.update(schools=5)),
     "'schools' is not a list"),
    (in_place(lambda doc: doc.update(schools={"0": {
        "level": "ES", "location": [0.5, 0.5], "capacity": 10}})),
     "'schools' is not a list"),
    (in_place(lambda doc: doc["units"][4]["capacity"].update(ES=[1, 2])),
     "ES capacity of unit 4 is [1, 2], not a number"),
    (in_place(lambda doc: doc["units"][4]["population"].update(ES={"n": 1})),
     "ES population of unit 4 is {'n': 1}, not a number"),
    (in_place(lambda doc: doc["units"][5]["population"].update(ES=-3)),
     "population[ES] entry 5 is -3, not a non-negative number"),
    (in_place(lambda doc: doc["units"][7]["capacity"].update(MS=-2)),
     "capacity[MS] entry 7 is -2, not a non-negative number"),
], ids=["nan-population", "unclosed-ring", "fractional-adjacency",
        "pair-without-boundary", "ragged-adjacency", "unit-without-id", "unit-without-polygon",
        "string-id", "population-not-object", "school-without-level",
        "school-without-location", "text-location", "top-level-list",
        "units-object", "unknown-school-level", "string-population",
        "string-id-digits", "bool-capacity", "text-coordinate",
        "bool-coordinate", "bool-location", "list-school-capacity",
        "one-element-school-capacity", "lowercase-population-levels",
        "unknown-capacity-level", "schools-number", "schools-object",
        "list-capacity", "object-population", "negative-population",
        "negative-capacity"])
def test_bad_unit_data_is_instance_error(tmp_path, grid3_file, capsys, bad,
                                         where):
    with open(grid3_file) as f:
        doc = bad(json.load(f))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", "--instance", str(path), "--trials", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("instance error:") and where in err


LONG_INTEGER = "1" * 5000     # past the 4,300 digits that int() converts
DEEP_LIST = "[" * 200_000    # past the nesting the JSON decoder recurses to


@pytest.mark.parametrize("value", [LONG_INTEGER, DEEP_LIST],
                         ids=["long-integer", "deep-nesting"])
@pytest.mark.parametrize("argv, text", [
    (["solve", "--instance", "{bad}", "--trials", "1", "--out", "{out}"],
     '{{"units": [{{"id": {}}}]}}'),
    (["evaluate", "--plan", "{bad}", "--instance", "{grid3}"],
     '{{"assignment": {}, "centers": [0, 8]}}'),
    (["solve", "--instance", "{grid3}", "--warm-start", "{bad}",
      "--trials", "1", "--out", "{out}"],
     '{{"assignment": [{}], "centers": [0, 8]}}'),
], ids=["instance", "plan", "warm-start"])
def test_unparsable_json_is_instance_error(tmp_path, grid3_file, capsys,
                                           argv, text, value):
    path = tmp_path / "bad.json"
    path.write_text(text.format(value))
    argv = [a.format(bad=path, grid3=grid3_file, out=tmp_path / "o")
            for a in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("instance error: cannot read ")
    assert not (tmp_path / "o").exists()


def test_unknown_level_argument_is_config_error(grid3_file):
    """An unknown level asked for by the caller, not read from the file,
    stays a configuration error."""
    with pytest.raises(ConfigError, match="unknown school level 'XS'"):
        load_instance(grid3_file, "XS")


def test_plan_file_not_an_object_is_instance_error(tmp_path, grid3_file,
                                                   capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps([0, 0, 0, 0, 0, 1, 1, 1, 1]))
    code = main(["evaluate", "--plan", str(path), "--instance", grid3_file])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("instance error:") and "is not a JSON object" in err


@pytest.mark.parametrize("assignment", [5, [[0, 0, 0], [0, 0, 1], [1, 1, 1]]],
                         ids=["number", "nested"])
@pytest.mark.parametrize("argv", [
    ["evaluate", "--plan", "{plan}", "--instance", "{grid3}"],
    ["solve", "--instance", "{grid3}", "--warm-start", "{plan}",
     "--trials", "1", "--out", "{out}"],
], ids=["evaluate", "warm-start"])
def test_plan_assignment_not_a_flat_list_is_instance_error(
        tmp_path, grid3_file, capsys, assignment, argv):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"assignment": assignment, "centers": [0, 8]}))
    argv = [a.format(plan=path, grid3=grid3_file, out=tmp_path / "o")
            for a in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("instance error:") and "'assignment'" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "{grid3}", "--trials", "1", "--out", "{out}"],
    ["generate", "--rows", "3", "--cols", "3", "--k", "2",
     "--out", "{out}/gen.json"],
], ids=["solve", "generate"])
def test_negative_seed_is_config_error(tmp_path, grid3_file, capsys, argv):
    argv = [a.format(grid3=grid3_file, out=tmp_path) for a in argv]
    assert main(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: seed")


def test_non_integer_workers_is_config_error(tmp_path, grid3_file, capsys,
                                             monkeypatch):
    monkeypatch.setenv("DISTRICTER_WORKERS", "two")
    code = main(["solve", "--instance", grid3_file, "--trials", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: DISTRICTER_WORKERS")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_config_error(tmp_path, grid3_file, capsys,
                                           monkeypatch, workers):
    monkeypatch.setenv("DISTRICTER_WORKERS", workers)
    code = main(["solve", "--instance", grid3_file, "--trials", "2",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: DISTRICTER_WORKERS must be at least 1")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers, trials, size", [("64", 2, 2),
                                                   ("2", 3, 2)])
def test_worker_pool_is_capped_by_trials(tmp_path, grid3_file, monkeypatch,
                                         workers, trials, size):
    sizes = []

    class InProcessPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setenv("DISTRICTER_WORKERS", workers)
    assert main(["solve", "--instance", grid3_file, "--algo", "shc",
                 "--iters", "20", "--trials", str(trials),
                 "--out", str(tmp_path / "o")]) == 0
    assert sizes == [size]


def test_unknown_algorithm_is_refused(tmp_path, grid3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", grid3_file, "--algo", "ts",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice: 'ts'" in capsys.readouterr().err


def test_tau_flag_is_gone(tmp_path, grid3_file, capsys):
    """``--tau`` set a soft band that no output read; it is refused now,
    and nothing is written."""
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", grid3_file, "--tau", "0.1",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tau 0.1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--band"])
def test_nan_setting_is_config_error(tmp_path, grid3_file, capsys, flag):
    """A NaN band compares false with every bound, so it used to pass
    validation: ``--band nan`` ran a chain that accepted no step."""
    code = main(["solve", "--instance", grid3_file, "--algo", "baa", flag,
                 "nan", "--chain-steps", "200", "--trials", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("flags", [
    ["--pr", "1.5"], ["--pr", "nan"], ["--band", "-1"], ["--iters", "-1"],
    ["--chain-steps", "-1"], ["--np", "0"], ["--np", "1"],
    ["--lambda", "1.5"],
], ids=["pr", "pr-nan", "band", "iters", "chain-steps", "np-0", "np-1",
        "lambda"])
def test_refused_setting_writes_no_out(tmp_path, grid3_file, capsys, flags):
    """``--out`` is created only after every flag is accepted, and a bad
    value is refused under every ``--algo``, also one that does not read
    the flag (``--algo shc --np 0``)."""
    for algo in ALGORITHMS:
        out = tmp_path / algo
        assert main(["solve", "--instance", grid3_file, "--algo", algo,
                     *flags, "--trials", "1", "--out", str(out)]) == 2, algo
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()


def test_solve_and_evaluate_read_the_objective_flags(tmp_path, grid3_file,
                                                     capsys):
    """``--level``, ``--lambda``, ``--compactness`` and ``--pr`` reach the
    solver, and ``evaluate`` with the same flags reports what ``solve``
    summarised."""
    path = tmp_path / "ms.json"
    with open(grid3_file) as f:
        doc = json.load(f)
    for unit in doc["units"]:       # middle school enrolment of its own
        unit["population"]["MS"] = 3 * unit["population"]["ES"] + unit["id"]
    path.write_text(json.dumps(doc))
    flags = ["--level", "ms", "--lambda", "0.8", "--compactness", "edgecut"]
    out = tmp_path / "run"
    assert main(["solve", "--instance", str(path), *flags, "--pr", "0.05",
                 "--np", "4", "--iters", "20", "--trials", "2",
                 "--out", str(out)]) == 0
    summary = read_summary(out, "spatial", 0)
    assert summary["level"] == "ms"
    inst = load_instance(path, "ms", ObjectiveConfig(
        balance_weight=0.8, compactness_mode="edge_cut_proxy"))
    es = load_instance(path, "es")
    for row in summary["per_trial"]:
        plan_file = out / row["plan_file"]
        plan = load_plan(plan_file, inst)
        report = planning_report(plan, inst)
        assert (report.balance, report.compactness) == (row["balance"],
                                                        row["compactness"])
        assert report.balance != planning_report(plan, es).balance
        with open(out / plan_file.name.replace("plan.json", "trace.csv")) as f:
            last = list(csv.DictReader(f))[-1]
        assert float(last["best_j"]) == objective_terms(plan, inst)[0]
        capsys.readouterr()
        assert main(["evaluate", "--plan", str(plan_file), "--instance",
                     str(path), *flags, "--out",
                     str(tmp_path / "report.json")]) == 0
        assert capsys.readouterr().out == report.to_text() + "\n"
        with open(tmp_path / "report.json") as f:
            assert json.load(f) == json.loads(report.to_json())


def test_solve_single_trial(tmp_path, grid3_file):
    out = tmp_path / "run"
    code = main(["solve", "--instance", grid3_file, "--algo", "spatial",
                 "--np", "6", "--iters", "30", "--seed", "3", "--trials", "1",
                 "--out", str(out)])
    assert code == 0
    summary = read_summary(out, "spatial", 3)
    assert summary["trials"] == 1
    assert summary["balance"]["std"] == 0.0
    assert summary["balance"]["formatted"].endswith("±0.0000")
    # the plan file round-trips and is feasible
    inst = load_instance(grid3_file, "es")
    plan = load_plan(out / summary["per_trial"][0]["plan_file"], inst)
    assert validate_plan(plan, inst.graph, 1.0).hard_ok


def test_solve_summary_recomputes_from_artifacts(tmp_path, grid3_file):
    """Each trial's scores, and their mean and std, recompute exactly from
    the plan files."""
    out = tmp_path / "run"
    main(["solve", "--instance", grid3_file, "--algo", "sa", "--iters", "200",
          "--seed", "4", "--trials", "3", "--out", str(out)])
    summary = read_summary(out, "sa", 4)
    inst = load_instance(grid3_file, "es")
    scores = {"balance": [], "compactness": []}
    for row in summary["per_trial"]:
        report = planning_report(load_plan(out / row["plan_file"], inst), inst)
        for key in scores:
            assert getattr(report, key) == row[key]
            scores[key].append(row[key])
    for key, values in scores.items():
        assert summary[key]["mean"] == float(np.mean(values))
        assert summary[key]["std"] == float(np.std(values))


# Seeded outputs of every algorithm, pinned so that a refactor which changes
# a plan, a trace or a random draw fails here: sha256 over the 25 trials'
# plan assignments, sha256 over their traces' acceptance column (``mean_j``
# for the spatial solver, whose trace has no acceptance column), and the J
# of trial 0's plan.
SOLVE_PINS = {
    "spatial": ("899e0ec94f0aa502b2d895cd64110f0174935a9d7cc98e7d4deb2d4d05776371",
                "eecc653fb3abbfe69eb2237c1fb6923913cb460935e3c4532f2a0ad2826a090a",
                0.2648574564955745),
    "shc": ("47ebb4cbc4566ef49a92551ee3ea6cb52e172c2c9e38827af807e88c27b5b48d",
            "4356d2d6b751dc02aad3d4c56cd754cb80f4af963be416dae90f9fcfb070e148",
            0.3810570575568827),
    "sa": ("1b41050f27ac3d98b44301f345953ac56e45bf944aacc2d120af422645fb15fe",
           "627206363c770e49eed55ff0219f0f410ce7e5fa8643c81b536dbdaf95c4a0d6",
           0.2648574564955745),
    "baa": ("4e2e0083b830e8dc29efa62ed51039f8b44c893bfc1332bce27366157083464b",
            "e40ebd9768d4077c46185770ce513392b421cce7ad2355b2a795b52b605cdfbc",
            0.3810570575568827),
    "bcaa": ("73c4df1a7009dbac440fe4b8acf32e6d4e2a99fc66dd033c0a42576eca28699f",
             "181b70b57f2aa0711edfc181c2a53883be5f434fe0868584d08d82efdcbbaa13",
             0.4081780106599059),
    "aio": ("47ebb4cbc4566ef49a92551ee3ea6cb52e172c2c9e38827af807e88c27b5b48d",
            "4356d2d6b751dc02aad3d4c56cd754cb80f4af963be416dae90f9fcfb070e148",
            0.3810570575568827),
}


def test_every_algorithm_is_pinned():
    assert set(SOLVE_PINS) == set(ALGORITHMS)


def test_solve_all_algorithms(tmp_path, grid3_file):
    out = tmp_path / "algos"
    inst = load_instance(grid3_file, "es")
    for algo, (plans_sha, trace_sha, j0) in SOLVE_PINS.items():
        code = main(["solve", "--instance", grid3_file, "--algo", algo,
                     "--iters", "50", "--chain-steps", "50", "--seed", "0",
                     "--out", str(out)])
        assert code == 0, algo
        assert (out / f"{algo}_seed0_trial00_plan.json").exists()
        plans, trace = hashlib.sha256(), hashlib.sha256()
        for t in range(25):
            tag = f"{algo}_seed0_trial{t:02d}"
            plan = load_plan(out / f"{tag}_plan.json", inst)
            plans.update(plan.assignment.tobytes())
            with open(out / f"{tag}_trace.csv", newline="") as f:
                rows = list(csv.reader(f))
            col = rows[0].index("mean_j" if algo == "spatial" else "accepted")
            trace.update(",".join(r[col] for r in rows[1:]).encode())
            if t == 0:
                assert objective_terms(plan, inst)[0] == pytest.approx(
                    j0, abs=1e-12), algo
        assert plans.hexdigest() == plans_sha, algo
        assert trace.hexdigest() == trace_sha, algo


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_solve_one_school(tmp_path, algo):
    """A plan of one territory offers no flip: a search ends at once and
    returns its start plan, with an empty trace, and so writes no trace."""
    path = tmp_path / "k1.json"
    assert main(["generate", "--rows", "3", "--cols", "3", "--k", "1",
                 "--out", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["solve", "--instance", str(path), "--algo", algo, "--np",
                 "4", "--iters", "20", "--chain-steps", "20", "--trials", "2",
                 "--out", str(out)]) == 0
    inst = load_instance(path, "es")
    for t in range(2):
        tag = f"{algo}_seed0_trial{t:02d}"
        plan = load_plan(out / f"{tag}_plan.json", inst)
        assert plan.assignment.tolist() == [0] * 9
        assert (out / f"{tag}_trace.csv").exists() == (algo == "spatial")


def test_solve_worker_pool_matches_sequential(tmp_path, grid3_file,
                                              monkeypatch):
    argv = ["solve", "--instance", grid3_file, "--algo", "sa", "--iters",
            "100", "--seed", "2", "--trials", "3"]
    assert main(argv + ["--out", str(tmp_path / "seq")]) == 0
    monkeypatch.setenv("DISTRICTER_WORKERS", "2")
    assert main(argv + ["--out", str(tmp_path / "pool")]) == 0
    names = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "pool").iterdir())
    assert any(n.endswith("_plan.json") for n in names)
    assert any(n.endswith("_summary.json") for n in names)
    for name in names:
        assert ((tmp_path / "seq" / name).read_bytes()
                == (tmp_path / "pool" / name).read_bytes()), name


def test_solve_warm_start(tmp_path, grid3_file):
    inst = load_instance(grid3_file, "es")
    warm = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), inst.centers)
    warm_path = tmp_path / "warm.json"
    save_plan(warm, warm_path)
    out = tmp_path / "warm_run"
    code = main(["solve", "--instance", grid3_file, "--algo", "spatial",
                 "--np", "4", "--iters", "10", "--seed", "1", "--trials", "1",
                 "--warm-start", str(warm_path), "--out", str(out)])
    assert code == 0


def test_solve_reads_files_with_a_byte_order_mark(tmp_path, grid3_file):
    """An instance and a warm-start plan saved with a UTF-8 byte-order mark,
    as some editors save them, give the files that they give without it."""
    warm_path = tmp_path / "warm.json"
    save_plan(Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), np.array([0, 8])),
              warm_path)
    for tag, mark in (("plain", b""), ("bom", codecs.BOM_UTF8)):
        instance = tmp_path / f"{tag}_instance.json"
        warm = tmp_path / f"{tag}_warm.json"
        instance.write_bytes(mark + Path(grid3_file).read_bytes())
        warm.write_bytes(mark + warm_path.read_bytes())
        assert main(["solve", "--instance", str(instance), "--algo", "baa",
                     "--chain-steps", "50", "--trials", "1",
                     "--warm-start", str(warm), "--out",
                     str(tmp_path / tag)]) == 0
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "bom").iterdir())
    for name in names:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "bom" / name).read_bytes()), name


def test_commands_name_the_encoding_of_every_file(tmp_path):
    """generate, solve and evaluate open every text file as UTF-8, never in
    the locale's encoding: with an EncodingWarning made an error, each
    exits 0."""
    python = [sys.executable, "-X", "warn_default_encoding",
              "-W", "error::EncodingWarning", "-m", "districter.cli"]
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("DISTRICTER_WORKERS", None)
    for argv in (
            ["generate", "--rows", "4", "--cols", "4", "--k", "2",
             "--seed", "1", "--out", "inst.json"],
            ["solve", "--instance", "inst.json", "--trials", "2",
             "--iters", "5", "--out", "out"],
            ["evaluate", "--plan", "out/spatial_seed0_trial00_plan.json",
             "--instance", "inst.json",
             "--baseline", "out/spatial_seed0_trial01_plan.json",
             "--out", "report.json"]):
        run = subprocess.run(python + argv, cwd=tmp_path, env=env,
                             capture_output=True)
        assert run.returncode == 0, run.stderr.decode()
    assert (tmp_path / "report.json").exists()


def test_evaluate_against_self(tmp_path, grid3_file, capsys):
    inst = load_instance(grid3_file, "es")
    plan_path = tmp_path / "plan.json"
    save_plan(Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), inst.centers),
              plan_path)
    code = main(["evaluate", "--plan", str(plan_path), "--instance",
                 grid3_file, "--baseline", str(plan_path),
                 "--out", str(tmp_path / "report.json")])
    assert code == 0
    text = capsys.readouterr().out
    assert "Students displaced" in text and "0/" in text
    with open(tmp_path / "report.json") as f:
        report = json.load(f)
    assert report["students_displaced"]["count"] == 0


def test_evaluate_without_baseline(tmp_path, grid3_file, capsys):
    inst = load_instance(grid3_file, "es")
    plan_path = tmp_path / "plan.json"
    save_plan(Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), inst.centers),
              plan_path)
    assert main(["evaluate", "--plan", str(plan_path),
                 "--instance", grid3_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    displaced = [ln for ln in lines if ln.startswith("Students displaced")]
    assert displaced and displaced[0].rstrip().endswith("-")


def test_evaluate_plan_instance_mismatch(tmp_path, grid3_file):
    other = generate_grid_instance(2, 2, 2, seed=0, centers=(0, 3))
    plan_path = tmp_path / "small.json"
    save_plan(Plan(np.array([0, 0, 1, 1]), other.centers), plan_path)
    code = main(["evaluate", "--plan", str(plan_path),
                 "--instance", grid3_file])
    assert code == 3


def test_oracle_command(tmp_path, grid3_file, capsys):
    assert main(["oracle", "--instance", grid3_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible_plans"] == 30
    assert doc["optimal_j"] > 0


def test_oracle_refuses_large(tmp_path, capsys):
    big = tmp_path / "big.json"
    main(["generate", "--rows", "5", "--cols", "5", "--k", "3",
          "--seed", "0", "--out", str(big)])
    capsys.readouterr()
    assert main(["oracle", "--instance", str(big)]) == 2


def test_district_scale_evaluation_under_a_second():
    # a district-X-sized synthetic: 453 units, 57 centers
    inst = generate_grid_instance(3, 151, 57, seed=0)
    assert inst.node_count == 453
    rng = np.random.default_rng(0)
    from districter import guided_growth
    plan = guided_growth(inst, rng)
    t0 = time.perf_counter()
    report = planning_report(plan, inst, baseline=plan)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert report.displaced == 0


def test_a_solve_leaves_its_instance_as_it_found_it(tmp_path, monkeypatch):
    """Two serial BAA trials on the polygon-only 12 x 12 hexagonal map of
    the benchmark (``perfbench/inputs.py``, which this test only reads)
    leave the loaded graph's fields as they were, its cached corner table
    aside, and trial 1 takes the corner table at the same proposal as when
    it runs alone: each solve counts its own splits."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench"
        / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    doc, plan = inputs.hex_instance(12, 12, 2, 2, 1)
    inputs.write_json(doc, tmp_path / "hex.json")
    inputs.write_json(plan, tmp_path / "plan.json")

    fields = []         # per solve: its graph and the graph's fields at load
    taken = []          # per trial: the proposal counts at which it took
    drawn = [0]

    def loaded(*args):
        instance = load_instance(*args)
        fields.append((instance.graph, state(instance.graph)))
        return instance

    def state(graph):
        return {name: pickle.dumps(value)
                for name, value in vars(graph).items() if name != "corners"}

    def chain(*args):
        taken.append([])
        drawn[0] = 0
        return run_chain(*args)

    def counted(*args):
        for proposal in random_proposals(*args):
            drawn[0] += 1
            yield proposal

    def take_corners(walk):
        taken[-1].append(drawn[0])
        take(walk)

    run_chain, random_proposals = cli.run_chain, local_search.random_proposals
    take = Walk.take_corners
    monkeypatch.setattr(cli, "load_instance", loaded)
    monkeypatch.setattr(cli, "run_chain", chain)
    monkeypatch.setattr(local_search, "random_proposals", counted)
    monkeypatch.setattr(Walk, "take_corners", take_corners)
    argv = ["solve", "--instance", str(tmp_path / "hex.json"), "--algo",
            "baa", "--warm-start", str(tmp_path / "plan.json"),
            "--chain-steps", "500"]
    assert main(argv + ["--seed", "0", "--trials", "2",
                        "--out", str(tmp_path / "serial")]) == 0
    serial, taken[:] = taken[:], []
    assert main(argv + ["--seed", "1", "--trials", "1",
                        "--out", str(tmp_path / "alone")]) == 0
    for graph, before in fields:
        assert "corners" in vars(graph)
        assert state(graph) == before
    assert len(serial) == 2 and all(len(t) == 1 and t[0] > 0 for t in serial)
    assert serial[1] == taken[0]
