"""Run the benchmark on several seeds per workload and summarize the spread.

    python3 perfbench/baseline.py --seeds 0-9 --output perfbench/baseline.json

For every workload in BENCHMARK.json and every seed it runs ``run.py
--trace 0`` in a fresh process, reads the last line of its output, and
reports each end-to-end metric's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median. A spread at or above a third of
the metric's bound is flagged, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--output", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"seeds": args.seeds, "seconds": args.seconds,
                     "workloads": {}}
    steady = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        values: dict[str, list[float]] = {}
        for result in runs:
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        stats = {name: {**spread(vals), "unit": runs[0]["metrics"][name]["unit"],
                        "values": vals}
                 for name, vals in values.items()}
        first = ROOT / ".perfbench_work" / "results" / (
            f"{workload}-seed{args.seeds[0]}-trace0.json")
        summary["workloads"][workload] = {
            "machine": json.loads(first.read_text())["machine"],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": stats,
        }
        print(f"# {workload}: correct={summary['workloads'][workload]['correct']}")
        for name, s in stats.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] >= bound / 3:
                flag = f"  <-- spread at or above bound/3 = {bound / 3:.3f}"
                steady = False
            print(f"{name:48s} median {s['median']:>14.6g} {s['unit']:10s} "
                  f"spread {s['spread']:.4f}{flag}")
    if args.output is not None:
        args.output.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
