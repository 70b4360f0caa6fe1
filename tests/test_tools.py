"""Smoke tests for the developer tools under tools/."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, workers, seed", [
    pytest.param("strata-parallel", "2", None, id="strata-parallel-2"),
    pytest.param("default-campaign", "1", None, id="default-campaign-1"),
    pytest.param("default-campaign", "1", "7", id="default-campaign-1-seed-7"),
    pytest.param("strata-parallel", "1", "5", id="strata-parallel-1-seed-5"),
    pytest.param("strata-parallel", None, None, id="strata-parallel-default-workers")])
def test_ab_campaign_on_one_tree(workload, workers, seed):
    # this checkout as both trees: one round must run both campaigns and
    # find their reports identical, each the benchmark's pinned report of
    # the --seed given (0 by default); without --workers the campaigns run
    # at the workload's own count, 2 for strata-parallel
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_campaign.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--rounds", "1",
         *(["--workers", workers] if workers else []), *(["--seed", seed] if seed else [])],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    assert f"reports identical: sha256 {pins[workload][seed or '0']}" in out.stdout
    # above one worker, each tree's CPU / wall shows whether its processes
    # ran side by side
    assert ("CPU/wall" in out.stdout) == (workers != "1")
    # after the rounds, the memory each tree's report holds
    assert re.search(rf"^{workload}: report memory parent \d+\.\d\d MB, change \d+\.\d\d MB$",
                     out.stdout, re.MULTILINE)


def test_src_lines_counts_lines_and_code_lines(tmp_path):
    # a tree with one module of known counts: the docstrings of the
    # module, the class and the function, comments and blank lines are not
    # code lines; a string that is not a docstring is
    package = tmp_path / "src" / "potts_hodge"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""Module\n\ndocstring."""\nimport os  # comment\n\n# comment\n'
        'class C:\n    """Class docstring."""\n\n    def f(self):\n'
        '        """Function\n        docstring."""\n        x = """not a\n'
        '        docstring"""\n        return x\n', encoding="utf-8")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    assert rows == [["a.py", "15", "6"], ["total", "15", "6"]]
    # this checkout: every module's first column is its `wc -l`, and the
    # total row sums both columns
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    for name, lines, _ in rows[:-1]:
        source = (ROOT / "src" / "potts_hodge" / name).read_bytes()
        assert int(lines) == source.count(b"\n")
    assert rows[-1][0] == "total"
    assert [int(x) for x in rows[-1][1:]] == \
        [sum(int(row[k]) for row in rows[:-1]) for k in (1, 2)]
