"""The ``scripts/bench_pairs.py`` plan: alternation, seed range, same arguments."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _dry_run(*args):
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_pairs.py"), *args, "--dry-run"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def _runs(lines):
    """``(side, argv after run.py)`` for every planned run, in order."""
    runs = []
    for line in lines:
        side, _, command = line.partition(": ")
        if side in ("parent", "change"):
            argv = shlex.split(command)
            runs.append((side, argv[argv.index("--workload") :], argv[1]))
    return runs


def test_plan_alternates_sides_over_the_seed_range(tmp_path):
    lines = _dry_run(
        "HEAD~1", "--pairs", "3", "--first-seed", "4",
        "--workload", "codewords-fp64-threads", "frames-fp64-threads",
        "--seconds", "7", "--out", str(tmp_path),
    )
    assert lines[0] == f"extract: git archive HEAD~1 -> {tmp_path / 'parent-src'}"
    assert lines[-1].startswith("compare: ")
    assert lines[-1].endswith(f"compare.py {tmp_path / 'parent'} {tmp_path / 'change'}")
    runs = _runs(lines)
    assert len(runs) == 3 * 2 * 2
    seeds = []
    for first, second in zip(runs[::2], runs[1::2]):
        (side_a, args_a, script_a), (side_b, args_b, script_b) = first, second
        seed = int(args_a[args_a.index("--seed") + 1])
        # Odd seeds run the parent first, even seeds the change.
        assert (side_a, side_b) == (("parent", "change") if seed % 2 else ("change", "parent"))
        # Identical arguments apart from the output directory of each side.
        out_a = args_a.index("--out")
        assert args_a[:out_a] == args_b[:out_a]
        assert args_a[out_a + 1] == str(tmp_path / side_a)
        assert args_b[out_a + 1] == str(tmp_path / side_b)
        assert "--seconds" in args_a and args_a[args_a.index("--seconds") + 1] == "7"
        # The parent runs its own extracted tree, the change this checkout.
        scripts = {side_a: script_a, side_b: script_b}
        assert scripts["parent"] == str(tmp_path / "parent-src/benchmarks/e2e/run.py")
        assert scripts["change"] == str(REPO_ROOT / "benchmarks/e2e/run.py")
        seeds.append(seed)
    assert sorted(set(seeds)) == [4, 5, 6]
    assert not (tmp_path / "parent-src").exists()  # a dry run extracts nothing


def test_plan_defaults_to_every_benchmark_workload(tmp_path):
    names = [
        entry["name"]
        for entry in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]
    runs = _runs(_dry_run("HEAD", "--pairs", "1", "--first-seed", "1", "--out", str(tmp_path)))
    planned = [args[1] for side, args, _ in runs if side == "parent"]
    assert planned == names
    assert all(args[args.index("--seconds") + 1] == "12" for _, args, _ in runs)
