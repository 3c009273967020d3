"""tools/bench_digest.py passes a checkout against itself and names the first
trajectory, analysis section or file that a one-ulp or one-digit change moves."""

import dataclasses
import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

import finiteflow as ff

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_digest", _ROOT / "tools" / "bench_digest.py")
bench_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_digest)
SMOKE = bench_digest.workloads.SCALES["smoke"]


def test_a_checkout_equals_itself(monkeypatch, capsys):
    monkeypatch.setattr(bench_digest, "SCALE", SMOKE)
    monkeypatch.setattr(bench_digest, "PRESETS", ("quadratic_bounds",))
    assert bench_digest.main([str(_ROOT), str(_ROOT)]) == 0
    err = capsys.readouterr().err
    # 13 cells of one seed: their CSVs, 13 mean curves and the summary, and
    # none of input set 0's files
    assert ("equal: banana_sweep input set 13, config banana_sweep: 13 trajectories, "
            "0 analysis sections, 27 files") in err
    assert "equal: bounds_analysis input set 0, config closeness_sweep" in err
    assert "equal: preset quadratic_bounds: " in err


def test_each_side_reads_its_own_preset(monkeypatch, capsys, tmp_path):
    shutil.copytree(_ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    preset = tmp_path / "src" / "finiteflow" / "configs" / "quadratic_bounds.yaml"
    preset.write_text(preset.read_text().replace("eta: 1.0e-3", "eta: 2.0e-3"))
    monkeypatch.setattr(bench_digest, "INPUT_SETS", ())
    monkeypatch.setattr(bench_digest, "PRESETS", ("quadratic_bounds",))
    assert bench_digest.main([str(_ROOT), str(tmp_path)]) == 1
    err = capsys.readouterr().err
    # the label is the parent's call
    assert "differs: preset quadratic_bounds: trajectory 0, run(euler, eta=0.001" in err


def test_one_ulp_in_the_change_is_caught_and_named(monkeypatch, capsys):
    load_package = bench_digest.load_package

    def load_nudged(checkout, name):
        ff = load_package(checkout, name)
        if name.endswith("change"):
            make = ff.config._OBJECTIVES["rosenbrock"]

            def nudged(**params):
                obj = make(**params)
                return dataclasses.replace(
                    obj, gradient=lambda x: np.nextafter(obj.gradient(x), np.inf))
            monkeypatch.setitem(ff.config._OBJECTIVES, "rosenbrock", nudged)
        return ff

    monkeypatch.setattr(bench_digest, "load_package", load_nudged)
    monkeypatch.setattr(bench_digest, "INPUT_SETS", (0,))
    monkeypatch.setattr(bench_digest, "SCALE", SMOKE)
    assert bench_digest.main([str(_ROOT), str(_ROOT)]) == 1
    err = capsys.readouterr().err
    # the sweep's first cell is gd from the first seed's start
    assert "differs: banana_sweep input set 0, config banana_sweep: trajectory 0, run(gd" in err
    assert "all" not in err


def test_one_ulp_in_an_analysis_number_is_caught_and_named(monkeypatch, capsys):
    load_package = bench_digest.load_package

    def load_nudged(checkout, name):
        ff = load_package(checkout, name)
        if name.endswith("change"):
            check = ff.bench.check_gradient_dominance

            def nudged(*args, **kwargs):
                rep = check(*args, **kwargs)
                return dataclasses.replace(
                    rep, worst_margin=float(np.nextafter(rep.worst_margin, np.inf)))
            monkeypatch.setattr(ff.bench, "check_gradient_dominance", nudged)
        return ff

    monkeypatch.setattr(bench_digest, "load_package", load_nudged)
    monkeypatch.setattr(bench_digest, "INPUT_SETS", ())
    monkeypatch.setattr(bench_digest, "PRESETS", ("quadratic_bounds",))
    monkeypatch.setattr(bench_digest, "SCALE", SMOKE)
    assert bench_digest.main([str(_ROOT), str(_ROOT)]) == 1
    # every trajectory is equal; the dominance section is not
    assert "differs: preset quadratic_bounds: analysis.json dominance" in capsys.readouterr().err


def test_analysis_digests_cover_every_section(tmp_path):
    reports = {"dominance": {"holds": True, "worst_margin": 0.1},
               "bounds": {"opt": {"eps_measured": 1e-3}},
               "closeness": {"opt": [{"eta": 0.01, "eps": 2e-3}]}}
    assert bench_digest.analysis_digests(tmp_path) == []
    (tmp_path / "analysis.json").write_text(json.dumps(reports))
    base = bench_digest.analysis_digests(tmp_path)
    assert [label for label, _ in base] == [
        "analysis.json dominance", "analysis.json bounds", "analysis.json closeness"]
    for i, (section, moved) in enumerate([
            ("dominance", {"holds": True, "worst_margin": 0.1 + 2 ** -56}),
            ("bounds", {"opt": {"eps_measured": 1e-3 * (1 + 2 ** -52)}}),
            ("closeness", {"opt": [{"eta": 0.01, "eps": 2e-3 * (1 + 2 ** -52)}]})]):
        (tmp_path / "analysis.json").write_text(json.dumps({**reports, section: moved}))
        digests = bench_digest.analysis_digests(tmp_path)
        assert [d != b for d, b in zip(digests, base)] == [j == i for j in range(3)], section


def test_counts_and_differences_of_digest_lists():
    trajs = [("run(gd, eta=0.1, x0=[0.0])", "a"), ("run(gd, eta=0.1, x0=[1.0])", "b")]
    sections = [("analysis.json dominance", "c")]
    files = [("file gd__seed0.csv", "e"), ("file summary.csv", "f")]
    assert bench_digest.counts(trajs + sections + files) == (2, 1, 2)
    assert bench_digest.first_difference(trajs + sections, trajs + sections) is None
    assert bench_digest.first_difference(sections, sections) == "no trajectory was recorded"
    assert (bench_digest.first_difference(trajs + sections, trajs)
            == "2 trajectories, 1 analysis sections and 0 files at the parent, "
               "2, 0 and 0 at the change")
    assert (bench_digest.first_difference(trajs + sections, trajs + [(sections[0][0], "d")])
            == "analysis.json dominance")
    assert (bench_digest.first_difference(trajs + files, trajs + files[:1] + [(files[1][0], "g")])
            == "file summary.csv")


def test_one_digit_in_one_csv_of_the_change_is_caught_and_named(monkeypatch, capsys):
    load_package = bench_digest.load_package

    def load_edited(checkout, name):
        ff = load_package(checkout, name)
        if name.endswith("change"):
            run_experiment = ff.run_experiment

            def edited(cfg, out):
                summary = run_experiment(cfg, out)
                # the last digit of the second row's f in the second cell's CSV
                path = summary.cells[1].csv_path
                lines = path.read_text().split("\n")
                fields = lines[2].split(",")
                fields[2] = fields[2][:-1] + str((int(fields[2][-1]) + 1) % 10)
                lines[2] = ",".join(fields)
                path.write_text("\n".join(lines))
                return summary
            monkeypatch.setattr(ff, "run_experiment", edited)
        return ff

    monkeypatch.setattr(bench_digest, "load_package", load_edited)
    monkeypatch.setattr(bench_digest, "INPUT_SETS", (0,))
    monkeypatch.setattr(bench_digest, "PRESETS", ())
    monkeypatch.setattr(bench_digest, "SCALE", SMOKE)
    assert bench_digest.main([str(_ROOT), str(_ROOT)]) == 1
    err = capsys.readouterr().err
    # every trajectory is equal; the CSV is not
    assert ("differs: banana_sweep input set 0, config banana_sweep: "
            "file rgf_euler_q2.2__seed") in err
    assert "all" not in err


def test_artifact_digests_leave_out_wall_times_alone(tmp_path):
    (tmp_path / "gd__seed0.csv").write_text("k,t,f,f_gap,grad_norm2,grad_norm1,wall_s\n"
                                            "0,0,1,1,2,2,0.5\n")
    (tmp_path / "gd__mean_curve.csv").write_text("k,mean_f,mean_f_gap\n0,1,1\n")
    (tmp_path / "summary.csv").write_text(
        "optimizer,seed,final_f,final_f_gap,iters_to_tol,wall_s,terminal_reason\n"
        "gd,0,1,1,-1,0.5,max_iters\n")
    (tmp_path / "analysis.json").write_text("{}")
    base = bench_digest.artifact_digests(tmp_path)
    assert [label for label, _ in base] == [
        "file gd__mean_curve.csv", "file gd__seed0.csv", "file summary.csv"]
    for name, old, new, moves in [
            ("gd__seed0.csv", ",0.5\n", ",0.25\n", False),
            ("gd__seed0.csv", ",2,0.5", ",3,0.5", True),
            ("summary.csv", ",0.5,", ",0.25,", False),
            ("summary.csv", "gd,0,1,", "gd,0,2,", True),
            ("gd__mean_curve.csv", "0,1,1", "0,1,2", True)]:
        path = tmp_path / name
        text = path.read_text()
        path.write_text(text.replace(old, new))
        assert (bench_digest.artifact_digests(tmp_path) != base) is moves, (name, new)
        path.write_text(text)


def test_digest_covers_every_column_but_wall_s():
    traj = ff.run(ff.DiscretizerConfig(scheme="gd", eta=1e-2), ff.make_rosenbrock(1.0, 0.2),
                  np.array([0.5, 1.5]), ff.StopCriteria(max_iters=5))
    base = bench_digest.trajectory_digest(traj)
    moved = dataclasses.replace(traj, wall_s=traj.wall_s + 1.0)
    assert bench_digest.trajectory_digest(moved) == base
    for name in ("x", "f", "grad_norm2", "grad_norm1", "k", "t"):
        nudged = getattr(traj, name).copy()
        nudged.flat[-1] += 1
        assert bench_digest.trajectory_digest(
            dataclasses.replace(traj, **{name: nudged})) != base, name
    for name, value in (("terminal_reason", "grad_tol"), ("cycle_start", 3),
                        ("cycle_period", 2)):
        assert bench_digest.trajectory_digest(
            dataclasses.replace(traj, **{name: value})) != base, name
