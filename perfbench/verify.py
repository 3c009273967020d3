"""Correctness check: compare a repetition's outputs with recorded ones.

Compared exactly: terminal reasons, step counts, bound verdicts and
violation counts. Compared at relative tolerance ``REL_TOL`` (fixed before
any run was recorded): final f, ``k_star``, ``eps``, the settling-time
bound, the arrival time and the closeness table. Each cell and each
analysis report is one checked item; any mismatch inside it fails it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-6

_BOUND_KEYS = ("envelope_pass", "envelope_violations", "weak_bound_pass",
               "weak_bound_violations", "k_star", "eps_measured",
               "t_star_bound", "arrival_time")


def outputs(summary, cell_steps: list[int], out_dir: Path) -> dict:
    """Checked outputs of one run_experiment call.

    ``cell_steps`` are the step counts of the cells' trajectories in run
    order, which is the summary's cell order.
    """
    cells = [[c.optimizer, c.seed, c.terminal_reason, steps, c.final_f]
             for c, steps in zip(summary.cells, cell_steps)]
    if len(cell_steps) != len(summary.cells):
        cells.append(["<cell count>", len(summary.cells), len(cell_steps)])
    result = {"cells": cells}
    report_path = Path(out_dir) / "analysis.json"
    if report_path.exists():
        reports = json.loads(report_path.read_text())
        result["analysis"] = {
            "dominance": ({"holds": reports["dominance"]["holds"]}
                          if reports["dominance"] is not None else None),
            "bounds": {name: {k: rep[k] for k in _BOUND_KEYS}
                       for name, rep in reports["bounds"].items()},
            "closeness": {name: [[row["eta"], row["eps"]] for row in rows]
                          for name, rows in reports["closeness"].items()},
        }
    return result


def items(out: dict) -> list[tuple[str, object]]:
    """The checked items of one output: each cell and each report."""
    found = [(f"cell {c[0]}/{c[1]}", c) for c in out["cells"]]
    analysis = out.get("analysis")
    if analysis is not None:
        found.append(("dominance", analysis["dominance"]))
        for kind in ("bounds", "closeness"):
            found += [(f"{kind} {name}", rep) for name, rep in analysis[kind].items()]
    return found


def _same(expected, observed) -> bool:
    if isinstance(expected, bool) or isinstance(observed, bool):
        return expected is observed
    if isinstance(expected, (int, float)) and isinstance(observed, (int, float)):
        if isinstance(expected, int) and isinstance(observed, int):
            return expected == observed
        if math.isnan(expected) or math.isnan(observed):
            return math.isnan(expected) and math.isnan(observed)
        return math.isclose(expected, observed, rel_tol=REL_TOL, abs_tol=0.0)
    if isinstance(expected, dict) and isinstance(observed, dict):
        return (expected.keys() == observed.keys()
                and all(_same(expected[k], observed[k]) for k in expected))
    if isinstance(expected, list) and isinstance(observed, list):
        return (len(expected) == len(observed)
                and all(_same(a, b) for a, b in zip(expected, observed)))
    return expected == observed


def compare(expected: dict, observed: dict) -> tuple[int, list[str]]:
    """(items attempted, descriptions of the items that do not match)."""
    want = dict(items(expected))
    got = dict(items(observed))
    failures = [f"{key}: expected {want.get(key)!r}, got {got.get(key)!r}"
                for key in sorted(want.keys() | got.keys())
                if key not in want or key not in got or not _same(want[key], got[key])]
    return max(len(want), len(got)), failures

