"""Pipeline regression oracle: the benchmark workloads and the CLI pipeline
reproduce their committed outputs exactly.

``make_pipeline_oracle.py`` runs round 0 of each ``perfbench`` workload at
seed 1 and the pipeline of acceptance criterion 12, at one BLAS thread, and
prints every output as a string; this test runs it in a subprocess and
compares each string with ``==`` against ``pipeline_oracle.json``.

Rule for changes: a change that moves a number on purpose re-runs

    python tests/make_pipeline_oracle.py --write

and lists each moved output in CHANGES.md with its old and new value, since
it changes the data of a check.  A change meant to keep outputs unchanged
must pass this test with the JSON as committed.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GENERATOR = HERE / "make_pipeline_oracle.py"
ORACLE = HERE / "pipeline_oracle.json"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def largest_move(old: str, new: str) -> str:
    """The largest relative move between the numbers of two outputs, read in
    order, or why the outputs cannot be compared number by number."""
    a, b = _NUMBER.findall(old), _NUMBER.findall(new)
    if len(a) != len(b) or _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return "text changed, not only numbers"
    moves = [(abs(float(y) - float(x)) / max(abs(float(x)), 1e-300), x, y)
             for x, y in zip(a, b) if x != y]
    if not moves:
        return "same numbers, different text"
    rel, x, y = max(moves, key=lambda m: m[0] if not math.isnan(m[0]) else math.inf)
    return f"{len(moves)} numbers moved, largest relative move {rel:.3g} ({x} -> {y})"


def test_largest_move_reads_the_numbers_in_order():
    assert largest_move("(1.0, 2.0)", "(1.0, 2.5)") == \
        "1 numbers moved, largest relative move 0.25 (2.0 -> 2.5)"
    assert largest_move("a=1", "b=1") == "text changed, not only numbers"
    assert largest_move("(1.0,)", "(1.0, 2.0)") == "text changed, not only numbers"


def test_pipeline_outputs_match_the_committed_oracle():
    proc = subprocess.run([sys.executable, str(GENERATOR)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = json.loads(ORACLE.read_text())
    diffs = [f"{name}: missing" if name not in got else
             f"{name}: unexpected" if name not in want else
             f"{name}: {largest_move(want[name], got[name])}"
             for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)]
    assert not diffs, "outputs moved from tests/pipeline_oracle.json:\n" + "\n".join(diffs)
