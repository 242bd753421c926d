"""The library's end-to-end claim check: the static authentication example.

``examples/static_authentication.py`` enrols five simulated Wi-Fi modules
from sniffed frames, then authenticates a legitimate transmitter and an
impersonator through the streaming engine.  It must accept the first and
reject the second.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_static_example_accepts_the_module_and_rejects_the_impersonator():
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), environment.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "examples/static_authentication.py"],
        cwd=REPO_ROOT,
        env=environment,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    _, scenario_a = result.stdout.split("Scenario A", 1)
    scenario_a, scenario_b = scenario_a.split("Scenario B", 1)
    verdicts = [
        [line for line in scenario.splitlines() if "verdict:" in line]
        for scenario in (scenario_a, scenario_b)
    ]
    assert [len(lines) for lines in verdicts] == [1, 1], result.stdout
    assert verdicts[0][0].endswith("-> ACCEPTED"), result.stdout
    assert verdicts[1][0].endswith("-> REJECTED"), result.stdout
