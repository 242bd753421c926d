"""Append one entry to an e2e benchmark trajectory file.

    python3 benchmarks/e2e/record.py OUT_DIR benchmarks/e2e/results/seed.json

Summarises every ``-e2e``/``-trace`` record under ``OUT_DIR`` (one
directory per commit, several seeds per workload) into the median and
quartiles of each metric, keyed by the git SHA of the measured commit and
the host, and appends it to the JSON list in the target file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
from pathlib import Path
from typing import Optional, Sequence

from compare import ROOT, load_runs, quartiles


def git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def summarise(directory: Path) -> dict:
    """``{kind: {workload: {metric: {median, q1, q3, unit, values}}}}`` plus seeds/host."""
    summary: dict = {}
    host = None
    for kind in ("e2e", "trace"):
        for workload, by_seed in load_runs(directory, kind).items():
            records = [by_seed[seed] for seed in sorted(by_seed)]
            host = host or records[0]["host"]
            metrics = {}
            for name, entry in records[0]["metrics"].items():
                values = [record["metrics"][name]["value"] for record in records]
                q1, median, q3 = quartiles(values)
                metrics[name] = {
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                    "unit": entry["unit"],
                    "values": values,
                }
            summary.setdefault(kind, {})[workload] = {
                "seeds": sorted(by_seed),
                "correct": all(record["correct"] for record in records),
                "metrics": metrics,
            }
    return {"host": host, **summary}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Append a trajectory entry from run records.")
    parser.add_argument("runs", type=Path, help="directory of run.py --out records")
    parser.add_argument("trajectory", type=Path, help="JSON list file to append to")
    parser.add_argument("--sha", help="measured commit (default: git rev-parse HEAD)")
    args = parser.parse_args(argv)
    entry = {
        "git_sha": args.sha or git_sha(),
        "recorded": datetime.date.today().isoformat(),
        **summarise(args.runs),
    }
    trajectory = json.loads(args.trajectory.read_text()) if args.trajectory.exists() else []
    trajectory.append(entry)
    args.trajectory.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
