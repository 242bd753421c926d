"""End-to-end observer benchmark: frame bytes or codewords in, verdicts out.

Run from the repository root (no install, no ``PYTHONPATH`` needed)::

    python3 benchmarks/e2e/run.py --workload codewords-fp64-threads --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --trace 1          # every workload, traced
    python3 benchmarks/e2e/run.py --smoke            # seconds-long shapes, in-process

The model (Fig. 4 CNN, 10 transmitters, one epoch on seeded synthetic
``V~``) is trained and saved here first; that preparation is not timed.
Each workload then runs in a fresh ``harness.py`` subprocess with the BLAS
pools pinned to one thread, so its peak RSS is its own.  Every metric is
printed as ``<workload> <metric> <value> <unit>``; after each workload the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  The full record (host, extra counters)
goes to ``benchmarks/e2e/out/<workload>-seed<N>-<e2e|trace>.json`` and a
traced run's spans to ``...-trace.trace.json``.  The exit code is non-zero
when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: A workload subprocess that runs longer than this is killed (with its
#: shard workers) and the run fails.
CHILD_TIMEOUT_S = 170


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, in-process")
    parser.add_argument("--out", type=Path, default=OUT, help="where records are written")
    return parser.parse_args(argv)


def _run_child(
    name: str, args: argparse.Namespace, work: Path, trace_path: Optional[Path], harness
) -> dict:
    result_path = work / f"{name}.json"
    command = [
        sys.executable,
        str(HERE / "harness.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--model", str(work / "model"),
        "--result", str(result_path),
    ]
    if trace_path is not None:
        command += ["--trace-out", str(trace_path)]
    python_path = [str(SRC)] + [entry for entry in [os.environ.get("PYTHONPATH")] if entry]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(python_path), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in harness.THREAD_VARS})
    # Own session, so a timeout can take the shard worker processes down too.
    process = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if code != 0:
        raise RuntimeError(f"workload {name} exited with code {code}")
    return json.loads(result_path.read_text())


def _report(result: dict, why: str) -> None:
    name = result["workload"]
    print(f"# {name}: {why}")
    for metric, entry in {**result["metrics"], **result["extra"]}.items():
        print(f"{name:<26} {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import harness

    names = [args.workload] if args.workload else list(harness.WORKLOADS)
    unknown = [name for name in names if name not in harness.WORKLOADS]
    if unknown:
        known = sorted(harness.WORKLOADS)
        print(f"error: unknown workload {unknown[0]!r}; one of {known}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    correct = True
    with tempfile.TemporaryDirectory(dir=args.out) as work_dir:
        work = Path(work_dir)
        harness.prepare_model(harness.SMOKE if args.smoke else harness.FULL, work / "model")
        for name in names:
            stem = f"{name}-seed{args.seed}-{kind}"
            trace_path = args.out / f"{stem}.trace.json" if args.trace else None
            if args.smoke:
                result = harness.run_workload(
                    name, args.seed, args.seconds, bool(args.trace), work / "model",
                    smoke=True, trace_path=trace_path,
                )
            else:
                result = _run_child(name, args, work, trace_path, harness)
            (args.out / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
            _report(result, harness.WORKLOADS[name].why)
            correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
