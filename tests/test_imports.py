"""What importing the package loads: scipy.linalg and nothing heavier."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import steincv

SRC = Path(steincv.__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["steincv", "steincv.cli"])
def test_import_leaves_out_scipy_spatial_sparse_and_special(module):
    # scipy.spatial alone pulls in scipy.sparse and scipy.special, about 9.5 MB
    # of resident memory in every process
    code = (f"import sys, {module}\n"
            "print(' '.join(m for m in ('scipy.spatial', 'scipy.sparse', 'scipy.special')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
