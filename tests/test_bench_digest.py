"""tools/bench_digest.py passes a checkout against itself and names the first
trajectory a one-ulp change moves."""

import dataclasses
import importlib.util
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
    assert bench_digest.main([str(_ROOT), str(_ROOT)]) == 0
    err = capsys.readouterr().err
    assert "equal: banana_sweep input set 13, config banana_sweep" in err
    assert "equal: bounds_analysis input set 0, config closeness_sweep" in err


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
