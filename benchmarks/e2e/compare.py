"""Compare N parent runs against N change runs of the e2e benchmark.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>-seed<N>-e2e.json`` records that
``run.py --out DIR`` wrote (run both commits with the same seeds, alternating
which side runs first).  For every end-to-end metric of ``BENCHMARK.json`` and
every workload this prints the median and quartiles of each side, the share
of same-seed pairs the change wins (ties count for neither), and a verdict:

* ``unresolved`` -- the parent's own spread (IQR / median) exceeds the bound
  and not every change run beats every parent run;
* ``REGRESSION`` -- the change's median is worse than the parent's by more
  than the bound;
* ``gain``       -- the change wins >= 90% of the pairs and the medians
  differ by more than the parent's IQR;
* ``ok``         -- within the bound.

One summary row per workload follows; the exit code is 1 when any metric
regressed.  When both directories also hold ``-trace`` records, their
per-layer medians are listed too (no verdicts: per-layer metrics have no
bounds).
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: {workload: {seed: record}}
Runs = Dict[str, Dict[int, dict]]


def load_runs(directory: Path, kind: str = "e2e") -> Runs:
    """Run records of one kind (``e2e`` or ``trace``) under ``directory``."""
    runs: Runs = {}
    for path in sorted(directory.glob(f"*-{kind}.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    pairs: Sequence[Tuple[float, float]],
    higher_is_better: bool,
    bound: float,
) -> Tuple[str, float]:
    """``(verdict, pair win share)`` for one metric on one workload."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    spread = (p_q3 - p_q1) / abs(p_median) if p_median else 0.0
    all_better = min(sign * value for value in change) > max(sign * value for value in parent)
    worse_by = sign * (p_median - c_median) / abs(p_median) if p_median else 0.0
    if spread > bound and not all_better:
        return "unresolved", win_share
    if worse_by > bound:
        return "REGRESSION", win_share
    if win_share >= 0.9 and sign * (c_median - p_median) > (p_q3 - p_q1):
        return "gain", win_share
    return "ok", win_share


def compare(parent: Runs, change: Runs, metrics: List[dict]) -> Tuple[List[str], bool]:
    """Report lines plus whether any metric regressed."""
    lines = [
        f"{'workload':<26} {'metric':<22} {'parent med [q1, q3]':>32} "
        f"{'change med [q1, q3]':>32} {'delta':>8} {'wins':>5}  verdict"
    ]
    summary = []
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        verdicts: Dict[str, List[str]] = {}
        for metric in metrics:
            name = metric["name"]
            old = [parent[workload][seed]["metrics"][name]["value"] for seed in parent[workload]]
            new = [change[workload][seed]["metrics"][name]["value"] for seed in change[workload]]
            pairs = [
                (
                    parent[workload][seed]["metrics"][name]["value"],
                    change[workload][seed]["metrics"][name]["value"],
                )
                for seed in seeds
            ]
            outcome, win_share = verdict(
                old, new, pairs, metric["better"] == "higher", metric["bound"]
            )
            verdicts.setdefault(outcome, []).append(name)
            regressed = regressed or outcome == "REGRESSION"
            o_q1, o_med, o_q3 = quartiles(old)
            n_q1, n_med, n_q3 = quartiles(new)
            delta = (n_med - o_med) / abs(o_med) if o_med else 0.0
            lines.append(
                f"{workload:<26} {name:<22} "
                f"{f'{o_med:.6g} [{o_q1:.6g}, {o_q3:.6g}]':>32} "
                f"{f'{n_med:.6g} [{n_q1:.6g}, {n_q3:.6g}]':>32} "
                f"{delta:>+8.1%} {win_share:>5.0%}  {outcome}"
            )
        cells = "; ".join(f"{key}: {', '.join(names)}" for key, names in sorted(verdicts.items()))
        summary.append(f"{workload:<26} {len(seeds)} pairs  {cells}")
    return lines + ["", "per workload:"] + summary, regressed


def layer_lines(parent: Runs, change: Runs) -> List[str]:
    """Per-layer medians of traced runs, parent vs change (no verdicts)."""
    lines = [
        f"{'workload':<26} {'per-layer metric':<44} {'parent':>12} {'change':>12} {'delta':>8}"
    ]
    for workload in sorted(set(parent) & set(change)):
        names = next(iter(parent[workload].values()))["metrics"]
        for name, entry in names.items():
            old = statistics.median(r["metrics"][name]["value"] for r in parent[workload].values())
            new = statistics.median(r["metrics"][name]["value"] for r in change[workload].values())
            if old == 0 and new == 0:
                continue
            delta = f"{(new - old) / abs(old):+8.1%}" if old else f"{'':>8}"
            lines.append(
                f"{workload:<26} {name:<44} {old:>12.5g} {new:>12.5g} {delta} {entry['unit']}"
            )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Parent vs change verdicts per metric x workload.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    lines, regressed = compare(load_runs(args.parent), load_runs(args.change), metrics)
    parent, change = load_runs(args.parent, "trace"), load_runs(args.change, "trace")
    if set(parent) & set(change):
        lines += [""] + layer_lines(parent, change)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
