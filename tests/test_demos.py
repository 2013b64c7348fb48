"""Each script under ``demos/`` runs to completion against ``src/``.

The demos use library helpers nothing else in the package calls
(``rd_sweep``, ``write_jsonl``, ``write_probability_field``,
``level_sample_pairs``), so trimming the public surface cannot break them
unnoticed. Each runs in its own temporary directory, where it writes its
output files.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
