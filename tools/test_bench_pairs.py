"""Tests of the pair runner's seed lists, run order, report, arguments, failure
record and digests (no benchmark runs)."""

import hashlib
import json
import shlex
import sys

import numpy as np
import pytest

import bench_pairs

METRICS = [{"name": "job_p50_s", "better": "lower"}, {"name": "jobs_per_s", "better": "higher"}]


def result(p50, rate):
    return {"metrics": {"job_p50_s": {"value": p50}, "jobs_per_s": {"value": rate}}}


def test_seed_lists_take_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("11-13,20") == [11, 12, 13, 20]
    assert bench_pairs.parse_seeds("5") == [5]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("3-1")


def test_report_counts_wins_in_each_metric_direction():
    # the change is faster at 3 of 4 seeds and the copy at 1; a lower rate is worse
    runs = [(result(1.0, 10.0), result(1.1, 11.0), result(0.5, 12.0)),
            (result(1.1, 10.0), result(1.0, 10.0), result(0.6, 12.0)),
            (result(0.9, 10.0), result(1.0, 9.0), result(0.4, 9.0)),
            (result(1.0, 10.0), result(1.0, 10.0), result(1.2, 9.0))]
    p50, rate = bench_pairs.summarise(runs, METRICS)
    assert "change better in 3/4" in p50 and "|diff| > parent IQR: yes" in p50
    assert p50.endswith("A/A: copy +0.0%, better in 1/4")
    assert "change better in 2/4" in rate and rate.endswith("A/A: copy +0.0%, better in 1/4")


def test_trajectory_rows_hold_each_metrics_pair_statistics(tmp_path):
    runs = [(result(1.0, 10.0), result(1.1, 11.0), result(0.5, 12.0)),
            (result(1.1, 10.0), result(1.0, 10.0), result(0.6, 12.0)),
            (result(0.9, 10.0), result(1.0, 9.0), result(0.4, 9.0)),
            (result(1.0, 10.0), result(1.0, 10.0), result(1.2, 9.0))]
    rows = bench_pairs.trajectory_rows("a change", "w", "P", "C", [1, 2, 3, 4], 30,
                                       bench_pairs.compare(runs, METRICS))
    assert rows[0] == {
        "label": "a change", "workload": "w", "parent": "P", "change": "C",
        "seeds": [1, 2, 3, 4], "seconds": 30,
        "metric": "job_p50_s", "unit": None, "better": "lower", "pairs": 4,
        "parent_median": 1.0, "parent_q1": pytest.approx(0.975), "parent_q3": pytest.approx(1.025),
        "change_median": pytest.approx(0.55), "change_q1": pytest.approx(0.475),
        "change_q3": pytest.approx(0.75), "change_gap": pytest.approx(-0.45),
        "change_wins": 3, "beyond_parent_iqr": True, "aa_gap": 0.0, "aa_wins": 1,
    }
    assert rows[1]["metric"] == "jobs_per_s" and rows[1]["change_wins"] == 2
    # a parent median of 0 has no relative gap
    zero = [(result(0.0, 1.0), result(0.0, 1.0), result(0.1, 1.0))]
    assert bench_pairs.compare(zero, METRICS)[0]["change_gap"] is None
    assert "parent 0 [0, 0]  change 0.1 [0.1, 0.1]  n/a" in bench_pairs.summarise(zero, METRICS)[0]
    # appended to the JSON list, one row a line
    path = tmp_path / "BENCH_trajectory.json"
    bench_pairs.append_trajectory(path, rows[:1])
    bench_pairs.append_trajectory(path, rows[1:])
    assert json.loads(path.read_text()) == rows
    assert path.read_text().splitlines()[1:-1] == [
        json.dumps(row) + "," for row in rows[:-1]] + [
        json.dumps(rows[-1])]


def test_every_seed_runs_parent_copy_and_change_in_rotation(monkeypatch, tmp_path, capsys):
    def unpack(rev, dest):
        dest.mkdir(parents=True)
        (dest / "REV").write_text(rev)
        (dest / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": METRICS, "run_seconds": 30, "workloads": []}))
        return dest

    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        p50 = 0.5 if checkout.name == "change" else 1.0 + 0.1 * (checkout.name == "copy")
        return {**result(p50, 10.0), "failed": int(checkout.name == "copy"), "attempted": 4}, ""

    monkeypatch.setattr(bench_pairs, "unpack", unpack)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    work = tmp_path / "work"
    assert bench_pairs.main(["P", "C", "--workload", "w", "--seeds", "1-4",
                             "--workdir", str(work)]) == 0
    assert [(work / side / "REV").read_text() for side in bench_pairs.SIDES] == ["P", "P", "C"]
    assert calls == [("parent", 1), ("copy", 1), ("change", 1),
                     ("copy", 2), ("change", 2), ("parent", 2),
                     ("change", 3), ("parent", 3), ("copy", 3),
                     ("parent", 4), ("copy", 4), ("change", 4)]
    out = capsys.readouterr().out
    assert "seed 2 (copy, change, parent): parent job_p50_s 1 failed 0, " in out
    assert "seed 3, copy: 1 of 4 jobs failed" in out
    assert "change better in 4/4" in out and "A/A: copy +10.0%, better in 0/4" in out
    assert "failed jobs: parent 0/16, copy 4/16, change 0/16; runs without a result: 0" in out


def test_a_labelled_pair_run_appends_its_rows(monkeypatch, tmp_path):
    def unpack(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": METRICS, "run_seconds": 30, "workloads": []}))
        return dest

    def run_once(checkout, workload, seed, seconds):
        return {**result(0.5 if checkout.name == "change" else 1.0, 10.0),
                "failed": 0, "attempted": 4}, ""

    path = tmp_path / "trajectory.json"
    monkeypatch.setattr(bench_pairs, "unpack", unpack)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "TRAJECTORY", path)
    for label in ("first", "second"):
        assert bench_pairs.main(["P", "C", "--workload", "w", "--seeds", "1-3", "--label", label,
                                 "--workdir", str(tmp_path / label)]) == 0
    rows = json.loads(path.read_text())
    assert [(r["label"], r["metric"]) for r in rows] == [
        ("first", "job_p50_s"), ("first", "jobs_per_s"),
        ("second", "job_p50_s"), ("second", "jobs_per_s")]
    assert rows[0]["change_wins"] == 3 and rows[0]["seeds"] == [1, 2, 3]
    with pytest.raises(SystemExit):
        bench_pairs.main(["P", "C", "--digest", "--seeds", "1", "--label", "x"])


def unpack_benchmark(rev, dest):
    """What ``unpack`` leaves: the directory, with a BENCHMARK.json of 30 s runs."""
    dest.mkdir(parents=True)
    (dest / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": METRICS, "run_seconds": 30, "workloads": []}))
    return dest


def test_every_run_lasts_run_seconds_and_the_report_reruns_them(monkeypatch, tmp_path, capsys):
    seen = []

    def run_once(checkout, workload, seed, seconds):
        seen.append(seconds)
        return {**result(1.0, 10.0), "failed": 0, "attempted": 4}, ""

    monkeypatch.setattr(bench_pairs, "unpack", unpack_benchmark)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["P", "C", "--workload", "w", "--seeds", "1-3,7",
                             "--workdir", str(tmp_path)]) == 0
    assert seen == [30] * 12                                    # BENCHMARK.json's
    line, = [ln for ln in capsys.readouterr().out.splitlines() if "rerun with: " in ln]
    command = shlex.split(line.split("rerun with: ")[1])
    assert command[:2] == ["python3", "tools/bench_pairs.py"]
    args = bench_pairs.parser().parse_args(command[2:])
    assert (args.parent, args.change, args.workload, args.seeds) == ("P", "C", "w", [1, 2, 3, 7])


def test_a_second_run_in_one_workdir_is_refused_in_one_line(monkeypatch, tmp_path, capsys):
    def run_once(checkout, workload, seed, seconds):
        return {**result(1.0, 10.0), "failed": 0, "attempted": 4}, ""

    monkeypatch.setattr(bench_pairs, "unpack", unpack_benchmark)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    work = tmp_path / "work"
    pairs = ["P", "C", "--workload", "w", "--seeds", "1", "--workdir", str(work)]
    assert bench_pairs.main(pairs) == 0
    capsys.readouterr()
    monkeypatch.setattr(bench_pairs, "unpack", None)           # nothing is unpacked
    for argv in (pairs, ["P", "C", "--digest", "--seeds", "1", "--workdir", str(work)]):
        assert bench_pairs.main(argv) == 2
        assert capsys.readouterr().err == (
            f"bench_pairs: {work / 'parent'} exists; give --workdir a directory without "
            "parent/, copy/, change/\n")
    for side in bench_pairs.SIDES:                              # any one of them is refused
        used = tmp_path / f"only-{side}"
        (used / side).mkdir(parents=True)
        assert bench_pairs.main(["P", "C", "--digest", "--seeds", "1",
                                 "--workdir", str(used)]) == 2
        assert f"{used / side} exists" in capsys.readouterr().err


def test_pairs_need_a_change_and_a_workload():
    for argv in (["HEAD", "--workload", "w", "--seeds", "1"],
                 ["HEAD", "HEAD~1", "--seeds", "1"],
                 ["HEAD", "HEAD~1", "--aa", "--workload", "w", "--seeds", "1"]):
        with pytest.raises(SystemExit):
            bench_pairs.main(argv)


STDERR = """\
perfbench: check of smc:cf:bw=3 (round 2) failed: smc cf:bw=3 log Z off by 0.31, tolerance 0.2
perfbench: job cf (round 0) failed:
Traceback (most recent call last):
  File "cf.py", line 180, in _factor_in_place
scipy.linalg.LinAlgError: not positive definite

The above exception was the direct cause of the following exception:

Traceback (most recent call last):
  File "harness.py", line 120, in run_pass
steincv.errors.ConditioningError: every candidate bandwidth failed to factorise


some other line
"""


def test_failure_lines_keep_each_failure_and_its_exception():
    assert bench_pairs.failure_lines(STDERR) == [
        "perfbench: check of smc:cf:bw=3 (round 2) failed: smc cf:bw=3 log Z off by 0.31,"
        " tolerance 0.2",
        "perfbench: job cf (round 0) failed:",
        "  steincv.errors.ConditioningError: every candidate bandwidth failed to factorise",
    ]
    assert bench_pairs.failure_lines("perfbench: env ok\n") == []


def test_compare_digests_names_every_output_that_differs():
    parent = {"a": "1", "b": "2", "c": "3"}
    change = {"a": "1", "b": "x", "d": "4"}
    assert bench_pairs.compare_digests(parent, change) == [
        "b: differs", "c: only in parent", "d: only in change"]
    assert bench_pairs.compare_digests(parent, dict(parent)) == []


def test_digest_worker_hashes_every_output_in_full(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(bench_pairs.ROOT))
    from perfbench import workloads

    class Fake:
        def setup(self, seed, workdir):
            return {"seed": seed, "workdir": workdir}

        def round(self, state, r):
            a = np.zeros(3000)
            a[1500] = state["seed"]         # past what a summarised repr shows
            yield workloads.Job("array", lambda: a, lambda v: 0.0)
            yield workloads.Job("path", lambda: str(state["workdir"]), lambda v: 0.0)

            def fails(v):
                raise workloads.CheckFailed("off by 1")

            yield workloads.Job("checked", lambda: 1.0, fails)
            if r == 1:
                raise RuntimeError("no archive")

        def end_round(self, state, r):
            pass

    monkeypatch.setitem(workloads.WORKLOADS, "fake", Fake)
    with np.printoptions():
        bench_pairs.digest_worker(str(bench_pairs.ROOT), "fake", [1, 2], [0, 1])
    got = json.loads(capsys.readouterr().out)
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()  # noqa: E731
    keys = []
    for seed in (1, 2):
        for r in (0, 1):
            keys += [f"seed {seed} round {r} job {i} {label}"
                     for i, label in enumerate(("array", "path", "checked"))]
        keys.append(f"seed {seed} round 1")     # the round raised after its jobs
    assert list(got) == keys
    assert got["seed 1 round 0 job 0 array"] != got["seed 2 round 0 job 0 array"]
    assert got["seed 1 round 0 job 1 path"] == sha("'<work>/setup'")
    assert got["seed 1 round 0 job 2 checked"] == sha("raised CheckFailed: off by 1")
    assert got["seed 2 round 1"] == sha("raised RuntimeError: no archive")
