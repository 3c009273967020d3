"""Bit-for-bit gate: every trajectory of the gated workloads and of the
shipped presets, parent against change.

Imports the ``src/finiteflow`` of a parent checkout and of a change checkout
into one process (``bench_inproc.load_package``), runs each config of every
gated workload of ``BENCHMARK.json`` from this checkout's
``perfbench/workloads.py``, then each shipped preset, read from each
checkout's own ``src/finiteflow/configs/``, through ``run_experiment`` on
both, and hashes every ``Trajectory`` that the package's ``bench.run`` and
``bench.integrate_reference`` return: the bytes of x, f, both gradient
norms, k and t, the terminal reason and the cycle start and period, but
not ``wall_s``. After them it hashes each section of the config's
``analysis.json`` (dominance, bounds, closeness) where the config writes
one: every number in it, which JSON writes in the shortest form that reads
back to the same bits. Last it hashes every CSV file the config writes,
by name: the cell CSVs and ``summary.csv`` without their ``wall_s``
column, and the mean curves whole, so that it sees the bytes of whatever
process wrote them (no gated config or preset writes ``summary.json``). It
names the first trajectory, analysis section or file whose digest
differs, or a config whose count of any of them differs or that records
no trajectory, and exits 1; it exits 0 when every digest is equal. It
runs the workloads' input sets 0 and 13 at full scale::

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
PRESETS = tuple(sorted(path.stem for path in
                       (_ROOT / "src" / "finiteflow" / "configs").glob("*.yaml")))


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


ANALYSIS_SECTIONS = ("dominance", "bounds", "closeness")


def analysis_digests(out: Path) -> list[tuple[str, str]]:
    """(label, digest) of each section of ``out/analysis.json``, or none
    when the config writes no such file."""
    path = out / "analysis.json"
    if not path.exists():
        return []
    reports = json.loads(path.read_text())
    return [(f"analysis.json {section}", hashlib.sha256(
        json.dumps(reports[section], sort_keys=True).encode()).hexdigest())
        for section in ANALYSIS_SECTIONS]


def _without_wall_s(path: Path) -> bytes:
    """The bytes of a CSV file without its ``wall_s`` column, if it has one."""
    lines = path.read_bytes().split(b"\n")
    header = lines[0].split(b",")
    if b"wall_s" not in header:
        return b"\n".join(lines)
    i = header.index(b"wall_s")
    return b"\n".join(b",".join(field for j, field in enumerate(line.split(b",")) if j != i)
                      for line in lines)


def artifact_digests(out: Path) -> list[tuple[str, str]]:
    """(label, digest) of each CSV file in ``out``, in name order, without
    the measured ``wall_s`` column of the cell CSVs and ``summary.csv``."""
    return [(f"file {path.name}", hashlib.sha256(_without_wall_s(path)).hexdigest())
            for path in sorted(out.glob("*.csv"))]


def _kind(label: str) -> str:
    if label.startswith("analysis.json "):
        return "section"
    return "file" if label.startswith("file ") else "trajectory"


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
    ``bench.integrate_reference``, in call order, then of each section of
    the ``analysis.json`` it writes to ``out``, then of each CSV file it
    writes there."""
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
    return seen + analysis_digests(out) + artifact_digests(out)


def first_difference(parent: list[tuple[str, str]],
                     change: list[tuple[str, str]]) -> str | None:
    """What first differs between two configs' digest lists, or None; a
    config that records no trajectory on either side proves nothing, and
    counts as a difference."""
    if not counts(parent)[0] and not counts(change)[0]:
        return "no trajectory was recorded"
    for i, ((label, a), (_, b)) in enumerate(zip(parent, change)):
        if a != b:
            return f"trajectory {i}, {label}" if _kind(label) == "trajectory" else label
    if counts(parent) != counts(change):
        return ("{} trajectories, {} analysis sections and {} files at the parent, "
                "{}, {} and {} at the change".format(*counts(parent), *counts(change)))
    return None


def counts(digests: list[tuple[str, str]]) -> tuple[int, int, int]:
    """The trajectories, analysis sections and files in one digest list."""
    kinds = [_kind(label) for label, _ in digests]
    return kinds.count("trajectory"), kinds.count("section"), kinds.count("file")


def configs(work: Path, checkouts: dict[str, Path]):
    """(where, {side: config path}) of each config to compare: the gated
    workloads' configs, written to ``work``, then each preset of
    ``PRESETS`` from each side's own checkout."""
    for name in gated_workloads():
        for input_set in INPUT_SETS:
            load = workloads.build(name, input_set, SCALE)
            for config_name, text in load.yaml_texts():
                path = work / f"{config_name}.yaml"
                path.write_text(text)
                yield (f"{name} input set {input_set}, config {config_name}",
                       dict.fromkeys(SIDES, path))
    for preset in PRESETS:
        yield f"preset {preset}", {side: checkouts[side] / "src" / "finiteflow" / "configs"
                                   / f"{preset}.yaml" for side in SIDES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    packages = {side: load_package(checkouts[side], f"finiteflow_{side}") for side in SIDES}
    totals = [0, 0, 0]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for i, (where, paths) in enumerate(configs(work, checkouts)):
            # a fresh directory per config, so that each hashes its own files
            digests = {side: config_digests(packages[side], paths[side],
                                            work / side / f"{i}-{paths[side].stem}")
                       for side in SIDES}
            diff = first_difference(digests["parent"], digests["change"])
            if diff is not None:
                print(f"differs: {where}: {diff}", file=sys.stderr)
                return 1
            found = counts(digests["parent"])
            totals = [a + b for a, b in zip(totals, found)]
            print("equal: {}: {} trajectories, {} analysis sections, {} files".format(
                where, *found), file=sys.stderr)
    print("all {} trajectories, {} analysis sections and {} files equal".format(*totals),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
