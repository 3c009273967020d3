"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs one untraced repetition of every workload on each of its
``INPUT_SETS`` input sets, at full scale, on the current checkout and
writes the checked outputs (see verify.py) to ``perfbench/reference.json``. Re-record only when a change is meant to
alter results, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins threads and imports finiteflow from the checkout
import workloads


def record(scale: str, names, input_sets) -> dict:
    out: dict = {}
    for name in names:
        for input_set in input_sets:
            workload = workloads.build(name, input_set, workloads.SCALES[scale])
            work = run.WORK / f"record-{name}-{input_set}-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                runner = run.Runner([workload], work, None, record=True)
                runner.rep(traced=False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            out.setdefault(name, {})[str(input_set)] = runner.observed
            print(f"recorded {scale} {name} input set {input_set}", file=sys.stderr)
    return out


def main() -> int:
    recorded = record("full", workloads.WORKLOADS, range(workloads.INPUT_SETS))
    payload = {"rel_tol": run.verify.REL_TOL, "input_sets": workloads.INPUT_SETS,
               "git_sha": run._git_sha(), "workloads": {"full": recorded}}
    with run.REFERENCE.open("w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
