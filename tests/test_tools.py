"""Smoke tests for the developer tools under tools/."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, workers", [("strata-parallel", "2"), ("default-campaign", "1")])
def test_ab_campaign_on_one_tree(workload, workers):
    # this checkout as both trees: one round must run both campaigns and
    # find their reports identical
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_campaign.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--rounds", "1", "--workers", workers],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "reports identical: sha256 " in out.stdout
