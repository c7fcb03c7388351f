"""Tests of the benchmark itself, at smoke sizes (a few seconds each)."""

import json
import sys

import pytest

from perfbench import run
from perfbench.harness import END_TO_END, measure
from perfbench.tracing import PER_LAYER
from perfbench.workloads import WORKLOADS

END_TO_END_NAMES = {name for _, name in END_TO_END}
PER_LAYER_NAMES = {name for _, name in PER_LAYER}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(name, trace, tmp_path):
    workload = WORKLOADS[name](smoke=True)
    out = measure(workload, seed=3, seconds=1, trace=trace, work_root=tmp_path)
    assert out.correct, out.lines
    assert out.failed == 0 and out.attempted > 0
    assert set(out.metrics) == (PER_LAYER_NAMES if trace else END_TO_END_NAMES)
    text = "\n".join(out.lines)
    if trace:
        assert "counts of the two traced passes: identical" in text
        assert "wrapped names restored: yes" in text
    else:
        assert all(v > 0 for v, _ in out.metrics.values())
        assert "metric failed_frac 0.0 ratio" in text
        assert f"metric {workload.error_metric[0]} " in text
    assert list(tmp_path.iterdir()) == []   # scratch directory removed


class _FailingJob:
    """Wraps a workload so that job ``index`` of round 0 raises."""

    def __init__(self, inner, index):
        self.inner, self.index = inner, index
        self.name, self.round_s = inner.name, inner.round_s
        self.error_metric, self.accuracy = inner.error_metric, inner.accuracy
        self.setup, self.end_round = inner.setup, inner.end_round

    def round(self, state, r):
        for i, job in enumerate(self.inner.round(state, r)):
            if r == 0 and i == self.index:
                job = type(job)(job.label, self._boom, job.check)
            yield job

    @staticmethod
    def _boom():
        raise RuntimeError("injected failure")


def test_injected_failure_counts_without_ending_the_run(tmp_path, capsys):
    workload = _FailingJob(WORKLOADS["evidence-conjugate"](smoke=True), index=2)
    out = measure(workload, seed=3, seconds=1, trace=False, work_root=tmp_path)
    assert out.attempted == 8 and out.failed == 1
    assert not out.correct
    assert f"metric failed_frac {1 / 8!r} ratio" in out.lines
    assert "completed 7" in "\n".join(out.lines)
    assert "injected failure" in capsys.readouterr().err


def test_cli_prints_result_last_and_exits_zero(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = run.main(["--workload", "sample-logistic", "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--smoke"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == END_TO_END_NAMES
