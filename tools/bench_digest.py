"""Bit-for-bit gate: every trajectory of the gated workloads, parent against change.

Imports the ``src/finiteflow`` of a parent checkout and of a change checkout
into one process (``bench_inproc.load_package``), runs each config of every
gated workload of ``BENCHMARK.json`` from this checkout's
``perfbench/workloads.py`` through ``run_experiment`` on both, and hashes
every ``Trajectory`` that the package's ``bench.run`` and
``bench.integrate_reference`` return: the bytes of x, f, both gradient
norms, k and t, the terminal reason and the cycle start and period, but
not ``wall_s``. It names the first trajectory whose digest differs, or a
config whose count of trajectories differs or is zero, and exits 1; it
exits 0 when every digest is equal. It runs input sets 0 and 13 at full
scale::

    python3 tools/bench_digest.py PARENT CHANGE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from types import ModuleType

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "tools"), str(_ROOT / "perfbench")]
import workloads  # noqa: E402
from bench_inproc import SIDES, load_package  # noqa: E402

INPUT_SETS = (0, 13)
SCALE = workloads.SCALES["full"]


def gated_workloads() -> list[str]:
    """The workload names ``BENCHMARK.json`` gates, in its order."""
    cfg = json.loads((_ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in cfg["workloads"]]


def trajectory_digest(traj) -> str:
    """The sha256 of a trajectory's columns and stop fields, ``wall_s`` aside."""
    h = hashlib.sha256()
    for col in (traj.x, traj.f, traj.grad_norm2, traj.grad_norm1, traj.k, traj.t):
        col = np.ascontiguousarray(col)
        h.update(f"{col.dtype.str}{col.shape}".encode())
        h.update(col.tobytes())
    h.update(repr((traj.terminal_reason, traj.cycle_start, traj.cycle_period)).encode())
    return h.hexdigest()


def _label(fn: str, args: tuple) -> str:
    """A short name of one call: run's scheme and step size, or the
    reference's flow and step, with the start point."""
    if fn == "run":
        cfg, _obj, x0 = args[:3]
        what = f"{cfg.scheme}, eta={cfg.eta}"
    else:
        flow, _obj, x0, h = args[:4]
        what = f"{flow.kind} q={flow.q}, h={h}"
    return f"{fn}({what}, x0={np.asarray(x0).tolist()})"


def config_digests(ff: ModuleType, config_path: Path, out: Path) -> list[tuple[str, str]]:
    """(label, digest) of each trajectory that ``run_experiment`` on the
    config gets from the package's ``bench.run`` and
    ``bench.integrate_reference``, in call order."""
    bench, seen = ff.bench, []
    originals = {fn: getattr(bench, fn) for fn in ("run", "integrate_reference")}

    def hashing(fn: str, original):
        def wrapped(*args, **kwargs):
            traj = original(*args, **kwargs)
            seen.append((_label(fn, args), trajectory_digest(traj)))
            return traj
        return wrapped

    try:
        for fn, original in originals.items():
            setattr(bench, fn, hashing(fn, original))
        ff.run_experiment(ff.load_config(config_path), out)
    finally:
        for fn, original in originals.items():
            setattr(bench, fn, original)
    return seen


def first_difference(parent: list[tuple[str, str]],
                     change: list[tuple[str, str]]) -> str | None:
    """What first differs between two configs' digest lists, or None; a
    config that records no trajectory on either side proves nothing, and
    counts as a difference."""
    if not parent and not change:
        return "no trajectory was recorded"
    for i, ((label, a), (_, b)) in enumerate(zip(parent, change)):
        if a != b:
            return f"trajectory {i}, {label}"
    if len(parent) != len(change):
        return f"{len(parent)} trajectories at the parent, {len(change)} at the change"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    packages = {side: load_package(getattr(args, side).resolve(), f"finiteflow_{side}")
                for side in SIDES}
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in gated_workloads():
            for input_set in INPUT_SETS:
                load = workloads.build(name, input_set, SCALE)
                for config_name, text in load.yaml_texts():
                    config_path = work / f"{config_name}.yaml"
                    config_path.write_text(text)
                    digests = {side: config_digests(packages[side], config_path,
                                                    work / side / config_name)
                               for side in SIDES}
                    where = f"{name} input set {input_set}, config {config_name}"
                    diff = first_difference(digests["parent"], digests["change"])
                    if diff is not None:
                        print(f"differs: {where}: {diff}", file=sys.stderr)
                        return 1
                    total += len(digests["parent"])
                    print(f"equal: {where}: {len(digests['parent'])} trajectories",
                          file=sys.stderr)
    print(f"all {total} trajectories equal", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
