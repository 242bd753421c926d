"""The shipping bar: zero lint violations across the whole repository.

This is the test-suite twin of the CI ``static-analysis`` job.  It also
self-checks the gate: a seeded violation injected next to the real sources
must be caught, so a silently-broken checker cannot green-light the repo.
"""

import importlib
import pkgutil
from pathlib import Path

import repro
from repro.analysis.lint import run_lint

REPO_ROOT = Path(__file__).parent.parent
SCAN_ROOTS = [
    str(REPO_ROOT / name)
    for name in ("src", "benchmarks", "scripts", "tests")
    if (REPO_ROOT / name).is_dir()
]


def test_repository_is_lint_clean():
    report = run_lint(SCAN_ROOTS)
    assert report.files_scanned > 100
    assert report.errors == {}
    assert report.violations == [], "\n".join(
        violation.format() for violation in report.violations
    )


def test_every_suppression_in_the_tree_is_justified():
    report = run_lint(SCAN_ROOTS)
    assert all(entry.justification for entry in report.suppressed)
    # The inference forward's result copy, the Eq. (8) float64 reference
    # formulas feeding the trig LUTs, and the runtime validator's
    # negative-control class are the only suppressions we expect; new ones
    # need a review-visible justification.
    suppressed_files = {Path(entry.path).name for entry in report.suppressed}
    assert suppressed_files <= {
        "compute.py",
        "quantization.py",
        "test_runtime_guard.py",
    }


def test_injected_violation_is_caught(tmp_path):
    bad = tmp_path / "injected.py"
    bad.write_text(
        "import threading\n"
        "\n"
        "\n"
        "class Injected:\n"
        "    def __init__(self):\n"
        "        self._state = 0  # guarded-by: _lock\n"
        "        self._lock = threading.Lock()\n"
        "\n"
        "    def torn(self):\n"
        "        self._state = 1\n"
    )
    report = run_lint([str(bad)])
    assert not report.ok
    assert [entry.rule for entry in report.violations] == ["lock/unguarded-write"]


def test_every_public_name_resolves():
    """Every ``__all__`` entry exists, so no stale re-export of a deleted
    name can break ``from repro.<package> import *``."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    public = [(module, name) for module in modules for name in getattr(module, "__all__", ())]
    assert len(public) > 200
    missing = [f"{module.__name__}.{name}" for module, name in public if not hasattr(module, name)]
    assert missing == []
