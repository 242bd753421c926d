"""Alternating same-seed parent/change runs of the e2e benchmark, then compare.

Usage, from anywhere inside the repository::

    python3 scripts/bench_pairs.py PARENT_REV --pairs N --first-seed S \\
        [--workload W ...] [--seconds 12] [--out DIR] [--dry-run]

``PARENT_REV`` is extracted with ``git archive`` into ``DIR/parent-src``; the
change is this working tree.  For every seed ``S .. S+N-1`` and every
workload (default: all of ``BENCHMARK.json``), ``benchmarks/e2e/run.py``
runs from both trees with identical arguments, writing its records to
``DIR/parent`` and ``DIR/change``.  The parent runs first on odd seeds and
the change runs first on even seeds, so a drift in host speed hits both
sides alike.  The script ends by running
``benchmarks/e2e/compare.py DIR/parent DIR/change`` and exits with its exit
code (1 on a regression beyond a metric's bound).  ``--dry-run`` prints the
plan and runs nothing.

Standard library only; nothing under ``benchmarks/e2e/`` is modified.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("benchmarks") / "e2e" / "run.py"
COMPARE = Path("benchmarks") / "e2e" / "compare.py"
#: Records which commit ``DIR/parent-src`` was extracted from.
REV_MARKER = ".bench-pairs-rev"

#: One benchmark run: (side, seed, workload, command).
Step = Tuple[str, int, str, List[str]]


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev", help="git revision of the parent, e.g. HEAD~1")
    parser.add_argument("--pairs", type=int, required=True, help="seeds to run per workload")
    parser.add_argument("--first-seed", type=int, required=True, help="first seed")
    parser.add_argument(
        "--workload", nargs="+", action="extend", help="workloads (default: all)"
    )
    parser.add_argument("--seconds", type=float, default=12.0, help="timed seconds per run")
    parser.add_argument(
        "--out", type=Path, default=Path(tempfile.gettempdir()) / "bench-pairs",
        help="output directory",
    )
    parser.add_argument("--dry-run", action="store_true", help="print the plan only")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def plan(
    parent_tree: Path,
    change_tree: Path,
    out: Path,
    workloads: Sequence[str],
    first_seed: int,
    pairs: int,
    seconds: float,
) -> List[Step]:
    """Every run in execution order; both sides of a pair get the same arguments."""
    trees = {"parent": parent_tree, "change": change_tree}
    steps: List[Step] = []
    for seed in range(first_seed, first_seed + pairs):
        for workload in workloads:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                command = [
                    sys.executable, str(trees[side] / RUN),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", f"{seconds:g}",
                    "--out", str(out / side),
                ]
                steps.append((side, seed, workload, command))
    return steps


def _extract(rev: str, destination: Path) -> None:
    """``git archive`` the commit ``rev`` into ``destination`` (once per commit)."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    marker = destination / REV_MARKER
    if destination.exists():
        if marker.is_file() and marker.read_text().strip() == commit:
            return
        raise SystemExit(f"error: {destination} exists and is not an extract of {commit}")
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    destination.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(destination, filter="data")
    marker.write_text(commit + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    workloads = args.workload or [
        entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]
    out = args.out.resolve()
    parent_tree = out / "parent-src"
    steps = plan(
        parent_tree, ROOT, out, workloads, args.first_seed, args.pairs, args.seconds
    )
    compare = [sys.executable, str(ROOT / COMPARE), str(out / "parent"), str(out / "change")]
    if args.dry_run:
        print(f"extract: git archive {args.parent_rev} -> {parent_tree}")
        for side, _, _, command in steps:
            print(f"{side}: {shlex.join(command)}")
        print(f"compare: {shlex.join(compare)}")
        return 0

    _extract(args.parent_rev, parent_tree)
    # Each tree's run.py puts its own src/ first; an inherited PYTHONPATH
    # could still leak the other tree's sources into a run.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    failed = []
    for number, (side, seed, workload, command) in enumerate(steps, start=1):
        print(f"[{number}/{len(steps)}] {side} {workload} seed {seed}", flush=True)
        code = subprocess.run(command, env=env, stdout=subprocess.DEVNULL).returncode
        if code != 0:
            failed.append(f"{side} {workload} seed {seed} (exit {code})")
    for failure in failed:
        print(f"run failed: {failure}", file=sys.stderr)
    return subprocess.run(compare, env=env).returncode


if __name__ == "__main__":
    raise SystemExit(main())
