"""Smoke tests for the developer tools under tools/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, workers, seed", [
    pytest.param("strata-parallel", "2", None, id="strata-parallel-2"),
    pytest.param("default-campaign", "1", None, id="default-campaign-1"),
    pytest.param("default-campaign", "1", "7", id="default-campaign-1-seed-7"),
    pytest.param("strata-parallel", "1", "5", id="strata-parallel-1-seed-5")])
def test_ab_campaign_on_one_tree(workload, workers, seed):
    # this checkout as both trees: one round must run both campaigns and
    # find their reports identical, each the benchmark's pinned report of
    # the --seed given (0 by default)
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_campaign.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--rounds", "1", "--workers", workers,
         *(["--seed", seed] if seed else [])],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    assert f"reports identical: sha256 {pins[workload][seed or '0']}" in out.stdout
    # above one worker, each tree's CPU / wall shows whether its shares
    # ran side by side
    assert ("CPU/wall" in out.stdout) == (workers != "1")
