"""Tier-1 smoke test of the e2e benchmark (``run.py --smoke``, a few seconds).

Runs all four workloads on the smoke shapes (K = 32, a tiny CNN with the
same layer structure, tens of frames) in both modes and checks the contract
``BENCHMARK.json`` relies on: every metric it names is printed with its
unit, the final JSON line carries exactly those metrics, the spans never
claim more self time than the traced wall time, and a corrupted result is
caught by the output check.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import harness
import run
from spans import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)$")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """stdout of ``run.py --smoke`` per trace mode, plus the record directory."""
    out = tmp_path_factory.mktemp("e2e")
    printed = {}
    for trace in (0, 1):
        capture = tmp_path_factory.mktemp(f"stdout{trace}") / "stdout.txt"
        with capture.open("w") as stream, pytest.MonkeyPatch.context() as patch:
            patch.setattr("sys.stdout", stream)
            code = run.main(["--smoke", "--seconds", "0", "--trace", str(trace), "--out", str(out)])
        assert code == 0
        printed[trace] = capture.read_text().splitlines()
    return printed, out


def _printed_units(lines):
    units = {}
    for line in lines:
        match = LINE.match(line)
        if match:
            workload, metric, _, unit = match.groups()
            units[(workload, metric)] = unit
    return units


def test_benchmark_workloads_are_the_harness_workloads():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(smoke, trace, section):
    printed, _ = smoke
    units = _printed_units(printed[trace])
    summaries = [json.loads(line) for line in printed[trace] if line.startswith("{")]
    assert len(summaries) == len(harness.WORKLOADS)
    names = [metric["name"] for metric in BENCHMARK[section]]
    for workload, summary in zip(harness.WORKLOADS, summaries):
        for metric in BENCHMARK[section]:
            assert units[(workload, metric["name"])] == metric["unit"], (workload, metric)
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
        assert sorted(summary["metrics"]) == sorted(names)
    assert json.loads(printed[trace][-1]) == summaries[-1]


def test_span_self_time_fits_in_the_traced_wall_time(smoke):
    _, out = smoke
    traces = sorted(out.glob("*-trace.trace.json"))
    assert len(traces) == len(harness.WORKLOADS)
    for path in traces:
        dump = json.loads(path.read_text())
        tracer = Tracer.from_dump(dump)
        self_ns = tracer.self_ns()
        assert min(self_ns) >= 0, path.name
        attributed = sum(sum(children.values()) for children in tracer.attributed.values())
        assert 0 < sum(self_ns) + attributed <= dump["meta"]["traced_wall_ns"], path.name


def test_a_corrupted_result_raises_failed_share(smoke, monkeypatch):
    _, out = smoke
    model_dir = out / "model"
    harness.prepare_model(harness.SMOKE, model_dir)
    run_ = harness.Run(harness.WORKLOADS["codewords-fp64-threads"], harness.SMOKE, 5, model_dir)
    clean = harness.timed_run(run_, 0)
    assert clean["failed"] == 0 and clean["correct"]

    drive = harness.drive

    def corrupting_drive(*args, **kwargs):
        outcome = drive(*args, **kwargs)
        outcome.module_ids[0] += 1  # batch 0 is always among the checked ones
        return outcome

    monkeypatch.setattr(harness, "drive", corrupting_drive)
    corrupted = harness.timed_run(run_, 0)
    assert corrupted["failed"] == clean["extra"]["rounds"]["value"]
    assert corrupted["extra"]["failed_share"]["value"] > 0
    assert not corrupted["correct"]
