"""Alternating parent/change pairs of the layered benchmark.

Runs ``perfbench/run.py --workload W --seed S --seconds 50 --trace 0`` in a
parent checkout and a change checkout in turn, ``--pairs`` times, with the
side that runs first alternating (the parent in even pairs, counting from
0). It summarizes each end-to-end metric's median and quartiles per side,
the pairs each side won (a tie counts for neither), and every run's
``correct``, ``attempted`` and ``failed`` values, and merges the summary
into ``--out`` as ``gated_runs[KEY]``, the layout of the ``BENCH_*.json``
trend files; the file gains the machine and both git revisions if it
lacks them::

    python3 tools/bench_pairs.py PARENT CHANGE --workload bounds_analysis \\
        --seed 0 --pairs 10 --out BENCH_14.json --key bounds_analysis

It refuses to run unless both checkouts hold byte-identical ``perfbench/``
and ``BENCHMARK.json``: a pair compares two programs only when both run the
same benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark_bytes(root: Path) -> dict[str, bytes]:
    """The bytes of ``BENCHMARK.json`` and of every file under ``perfbench/``
    in ``root``, by relative path; bytecode caches are left out."""
    paths = [root / "BENCHMARK.json", *sorted((root / "perfbench").rglob("*"))]
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in paths
            if path.is_file() and "__pycache__" not in path.parts}


def benchmark_differences(a: Path, b: Path) -> list[str]:
    """The benchmark files that differ between the checkouts ``a`` and
    ``b`` or are missing from one; ``BENCHMARK.json`` also when both lack it."""
    fa, fb = benchmark_bytes(a), benchmark_bytes(b)
    return sorted(name for name in fa.keys() | fb.keys() | {"BENCHMARK.json"}
                  if name not in fa or fa[name] != fb.get(name))


def command(workload: str, seed: int) -> list[str]:
    """The benchmark command of one run, after the interpreter."""
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "50", "--trace", "0"]


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: the JSON line it prints last."""
    cmd = [sys.executable, *command(workload, seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    """The first and third quartiles, by linear interpolation between the
    sorted values (numpy's default percentile rule)."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def metric_summary(unit: str, parent: list[float], change: list[float],
                   better: str | None) -> dict:
    """One metric's median and quartiles on each side, None for a side with
    no values. When ``better`` is "lower" or "higher" and both sides have
    values, taken pairwise, it adds the pairs each side won (a tie counts
    for neither)."""
    sides = {"parent": parent, "change": change}
    summary = {"unit": unit}
    for side, values in sides.items():
        summary[f"{side}_median"] = statistics.median(values) if values else None
    for side, values in sides.items():
        summary[f"{side}_quartiles"] = quartiles(values) if values else None
    if better is not None and parent and change:
        sign = 1 if better == "lower" else -1
        diffs = [sign * (c - p) for p, c in zip(parent, change)]
        summary["better"] = better
        summary["change_better_pairs"] = sum(d < 0 for d in diffs)
        summary["parent_better_pairs"] = sum(d > 0 for d in diffs)
    return summary


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric medians, quartiles and pair wins of ``pairs``, each a dict
    ``{"parent": result, "change": result, "first": side}`` of two printed
    results. ``better`` maps a metric to "lower" or "higher"; metrics it
    does not name are summarized without wins."""
    metrics = {}
    for name, entry in pairs[0]["parent"]["metrics"].items():
        parent, change = ([p[side]["metrics"][name]["value"] for p in pairs]
                          for side in ("parent", "change"))
        metrics[name] = metric_summary(entry["unit"], parent, change, better.get(name))
    runs = [{"first": p["first"],
             **{side: {key: p[side][key] for key in ("correct", "attempted", "failed")}
                for side in ("parent", "change")}} for p in pairs]
    return {
        "pairs": len(pairs),
        "all_correct": all(r[side]["correct"] for r in runs for side in ("parent", "change")),
        "failed": sum(r[side]["failed"] for r in runs for side in ("parent", "change")),
        "metrics": metrics,
        "runs": runs,
    }


def _git_sha(checkout: Path) -> str | None:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=checkout,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + (" plus uncommitted changes" if dirty else "")


def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--key", required=True, help="merge into --out as gated_runs[KEY]")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    parent, change = args.parent.resolve(), args.change.resolve()

    differences = benchmark_differences(parent, change)
    if differences:
        print("refusing to compare: the checkouts' benchmarks differ in "
              + ", ".join(differences), file=sys.stderr)
        return 2
    cfg = json.loads((parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in cfg.get("end_to_end", [])}

    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(parent if side == "parent" else change,
                                  args.workload, args.seed)
        pairs.append(pair)
        sweep = {side: pair[side]["metrics"].get("sweep_s", {}).get("value") for side in order}
        print(f"pair {i + 1}/{args.pairs}: sweep_s {sweep}", file=sys.stderr)

    summary = {"command": " ".join(["python3", *command(args.workload, args.seed)]),
               **summarize(pairs, better)}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("machine", _machine())
    doc.setdefault("git_sha", {"parent": _git_sha(parent), "change": _git_sha(change)})
    doc.setdefault("gated_runs", {})[args.key] = summary
    doc.setdefault("gated_runs_note",
                   "alternating parent/change pairs, the side that ran first alternating; "
                   "change_better_pairs and parent_better_pairs count the pairs each side "
                   "read better, ties counting for neither")
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
