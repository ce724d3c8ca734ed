"""Smoke runs of the demo scripts: each must exit 0.

Four demos run harness configs from ``demos/configs`` and exit 1 when a
row of their run fails its pass rule, so a pass here certifies the tables
they print; ``samplers_vs_density.py`` calls the sampler API, so a change
to it that the demo misses fails here. Each runs in a fresh interpreter
in a temporary working directory (the harness demos write a ``runs/``
folder) and takes under a second on a 2-vCPU Intel Xeon machine.
A RuntimeWarning is an error in the demos, as it is in the tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gibbslab

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(gibbslab.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        "complement_tuning.py",
        "generalization_gap.py",
        "local_excess_risk.py",
        "minima_and_masses.py",
        "samplers_vs_density.py",
    ],
)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
