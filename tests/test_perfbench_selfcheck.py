"""The benchmark's own self-check, run as a test.

perfbench traces `ciforge` functions by name at every module that binds
them; a refactor that renames or bypasses a traced function leaves its
per-layer metric at zero, and `perfbench/selfcheck.py` fails on that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
