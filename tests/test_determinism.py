"""Outputs do not depend on the process: two interpreters with different
``PYTHONHASHSEED`` write byte-identical canonical dumps.

Python salts ``hash`` of a string per process, so a seed derived from it
differs between runs of the same sweep; this test catches any such seed on
the figures' path.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DUMP = REPO_ROOT / "tests" / "canonical_outputs.py"


def _dump(out: Path, hash_seed: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
           "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run([sys.executable, str(DUMP), str(out), "--scale", "0.25",
                           "--figures-only"],
                          capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


def test_figures_are_identical_across_hash_seeds(tmp_path):
    first = _dump(tmp_path / "hash1.json", "1")
    second = _dump(tmp_path / "hash2.json", "2")
    assert first
    assert first == second
