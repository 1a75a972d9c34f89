import csv
import hashlib
import json
import time

import numpy as np
import pytest

from districter import (Plan, generate_grid_instance, load_instance,
                        load_plan, objective_terms, planning_report,
                        save_instance, save_plan, validate_plan)
from districter.cli import main


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


def test_generate_k_too_large(tmp_path):
    code = main(["generate", "--rows", "2", "--cols", "2", "--k", "5",
                 "--seed", "0", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_missing_instance_is_instance_error(tmp_path):
    code = main(["solve", "--instance", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 3


@pytest.mark.parametrize("bad, where", [
    (lambda doc: doc["units"][2]["population"].update(ES=float("nan")),
     "unit 2"),
    (lambda doc: doc["units"][2]["polygon"][0].pop(), "unit 2"),
    (lambda doc: doc["adjacency"].__setitem__(0, [0, 1.9]), "adjacency entry"),
    (lambda doc: doc["adjacency"].append([0, 4]),
     "adjacency pair [0, 4] shares no boundary segment"),
], ids=["nan-population", "unclosed-ring", "fractional-adjacency",
        "pair-without-boundary"])
def test_bad_unit_data_is_instance_error(tmp_path, grid3_file, capsys, bad,
                                         where):
    with open(grid3_file) as f:
        doc = json.load(f)
    bad(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", "--instance", str(path), "--trials", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("instance error:") and where in err


@pytest.mark.parametrize("flag", ["--band", "--tau"])
def test_nan_setting_is_config_error(tmp_path, grid3_file, capsys, flag):
    """A NaN band compares false with every bound, so it used to pass
    validation: ``--band nan`` ran a chain that accepted no step."""
    code = main(["solve", "--instance", grid3_file, "--algo", "baa", flag,
                 "nan", "--chain-steps", "200", "--trials", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error:")


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
    from districter import balance_score
    out = tmp_path / "run"
    main(["solve", "--instance", grid3_file, "--algo", "sa", "--iters", "200",
          "--seed", "4", "--trials", "3", "--out", str(out)])
    summary = read_summary(out, "sa", 4)
    inst = load_instance(grid3_file, "es")
    balances = []
    for row in summary["per_trial"]:
        plan = load_plan(out / row["plan_file"], inst)
        assert balance_score(plan, inst) == pytest.approx(row["balance"])
        balances.append(row["balance"])
    assert summary["balance"]["mean"] == pytest.approx(np.mean(balances))
    assert summary["balance"]["std"] == pytest.approx(np.std(balances))


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
    "ts": ("47ebb4cbc4566ef49a92551ee3ea6cb52e172c2c9e38827af807e88c27b5b48d",
           "4356d2d6b751dc02aad3d4c56cd754cb80f4af963be416dae90f9fcfb070e148",
           0.3810570575568827),
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
    from districter import guided_growth, seed_plan
    plan = guided_growth(seed_plan(inst), inst, rng)
    t0 = time.perf_counter()
    report = planning_report(plan, inst, baseline=plan)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert report.displaced == 0
