"""The summary arithmetic, the benchmark check and the output of tools/bench_pairs.py."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def result(sweep, steps, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 54, "failed": failed,
            "metrics": {"sweep_s": {"value": sweep, "unit": "s"},
                        "steps_per_s": {"value": steps, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


# (parent, change) sweep_s, steps_per_s and peak_rss_mb per pair; pair 3
# ties on sweep_s and the change loses pair 4
PAIRS = [
    {"first": "parent", "parent": result(1.5, 30.0, 46.0), "change": result(1.4, 32.0, 46.0)},
    {"first": "change", "parent": result(1.6, 29.0, 46.5), "change": result(1.3, 33.0, 46.0)},
    {"first": "parent", "parent": result(1.4, 31.0, 46.0), "change": result(1.4, 31.0, 46.0)},
    {"first": "change", "parent": result(1.2, 34.0, 46.0),
     "change": result(1.7, 28.0, 47.0, correct=False, failed=2)},
]
BETTER = {"sweep_s": "lower", "steps_per_s": "higher"}


def test_medians_and_quartiles():
    metrics = bench_pairs.summarize(PAIRS, BETTER)["metrics"]
    sweep = metrics["sweep_s"]
    assert sweep["unit"] == "s"
    # parent 1.2, 1.4, 1.5, 1.6 and change 1.3, 1.4, 1.4, 1.7, sorted
    assert sweep["parent_median"] == pytest.approx(1.45)
    assert sweep["change_median"] == pytest.approx(1.4)
    assert sweep["parent_quartiles"] == pytest.approx([1.35, 1.525])
    assert sweep["change_quartiles"] == pytest.approx([1.375, 1.475])


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    metrics = bench_pairs.summarize(PAIRS, BETTER)["metrics"]
    assert (metrics["sweep_s"]["change_better_pairs"],
            metrics["sweep_s"]["parent_better_pairs"]) == (2, 1)
    assert (metrics["steps_per_s"]["change_better_pairs"],
            metrics["steps_per_s"]["parent_better_pairs"]) == (2, 1)
    # a metric with no direction gets no wins
    assert "change_better_pairs" not in metrics["peak_rss_mb"]


def test_correctness_of_every_run_is_kept():
    summary = bench_pairs.summarize(PAIRS, BETTER)
    assert summary["pairs"] == 4
    assert summary["all_correct"] is False and summary["failed"] == 2
    assert [r["first"] for r in summary["runs"]] == ["parent", "change"] * 2
    assert summary["runs"][3]["change"] == {"correct": False, "attempted": 54, "failed": 2}
    assert bench_pairs.summarize(PAIRS[:3], BETTER)["all_correct"] is True


def test_one_pair_has_degenerate_quartiles():
    sweep = bench_pairs.summarize(PAIRS[:1], BETTER)["metrics"]["sweep_s"]
    assert sweep["parent_quartiles"] == [1.5, 1.5]


def test_refuses_checkouts_whose_benchmarks_differ(tmp_path, monkeypatch):
    for side in ("a", "b"):
        (tmp_path / side / "perfbench" / "__pycache__").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text('{"end_to_end": []}')
        (tmp_path / side / "perfbench" / "run.py").write_text("pass\n")
        (tmp_path / side / "perfbench" / "__pycache__" / "run.pyc").write_bytes(side.encode())
    a, b = tmp_path / "a", tmp_path / "b"
    assert bench_pairs.benchmark_differences(a, b) == []
    (b / "perfbench" / "run.py").write_text("pass  \n")
    (b / "perfbench" / "extra.py").write_text("")
    assert bench_pairs.benchmark_differences(a, b) == ["perfbench/extra.py", "perfbench/run.py"]
    (a / "BENCHMARK.json").unlink()
    assert bench_pairs.benchmark_differences(a, b)[0] == "BENCHMARK.json"

    def no_run(*args):
        raise AssertionError("ran a benchmark")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main([str(a), str(b), "--workload", "w", "--seed", "0",
                             "--pairs", "1", "--out", str(out), "--key", "w"]) == 2
    assert not out.exists()


def test_merges_alternating_pairs_into_the_trend_file(tmp_path, monkeypatch):
    for side in ("a", "b"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "sweep_s", "better": "lower"}]}')
    a, b = tmp_path / "a", tmp_path / "b"
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append(checkout.name)
        return result(1.5 if checkout.name == "a" else 1.4, 30.0, 46.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    out.write_text('{"machine": {"cpu": "kept"}, "gated_runs": {"other": {}}}')
    assert bench_pairs.main([str(a), str(b), "--workload", "w", "--seed", "3",
                             "--pairs", "2", "--out", str(out), "--key", "w3"]) == 0
    assert calls == ["a", "b", "b", "a"]
    doc = json.loads(out.read_text())
    assert doc["machine"] == {"cpu": "kept"} and set(doc["gated_runs"]) == {"other", "w3"}
    summary = doc["gated_runs"]["w3"]
    assert summary["command"] == ("python3 perfbench/run.py --workload w --seed 3 "
                                  "--seconds 50 --trace 0")
    assert summary["metrics"]["sweep_s"]["change_better_pairs"] == 2


def copied_tree(dest: Path) -> Path:
    """The measured files of this checkout, copied to ``dest`` without ``.git``."""
    for top in ("src", "perfbench"):
        shutil.copytree(ROOT / top, dest / top, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def test_a_tree_that_is_not_a_git_work_tree_is_named_by_its_digest(tmp_path, capsys):
    a, b = copied_tree(tmp_path / "a"), copied_tree(tmp_path / "b")
    name = bench_pairs._git_sha(a)
    assert name == (f"tree sha256:{bench_pairs.tree_digest(a)} "
                    "(src/, perfbench/, BENCHMARK.json)")
    assert "not a git work tree" in capsys.readouterr().err
    # a copy of the same files has the same digest, bytecode caches aside
    (b / "src" / "__pycache__").mkdir()
    (b / "src" / "__pycache__" / "x.pyc").write_bytes(b"cache")
    assert bench_pairs._git_sha(b) == name
    # and one changed byte, or a moved file, changes it
    (b / "BENCHMARK.json").write_bytes((a / "BENCHMARK.json").read_bytes() + b" ")
    assert bench_pairs.tree_digest(b) != bench_pairs.tree_digest(a)
    shutil.copy(a / "BENCHMARK.json", b)
    (b / "perfbench" / "run.py").rename(b / "perfbench" / "run2.py")
    assert bench_pairs.tree_digest(b) != bench_pairs.tree_digest(a)
