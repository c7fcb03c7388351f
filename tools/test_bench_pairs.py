"""Tests of the pair runner's seed lists, report and arguments (no benchmark runs)."""

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
    # the change is faster in 3 of 4 pairs; a lower rate is worse
    pairs = [(result(1.0, 10.0), result(0.5, 12.0)), (result(1.1, 10.0), result(0.6, 12.0)),
             (result(0.9, 10.0), result(0.4, 9.0)), (result(1.0, 10.0), result(1.2, 9.0))]
    p50, rate = bench_pairs.summarise(pairs, METRICS)
    assert "change better in 3/4" in p50 and "|diff| > parent IQR: yes" in p50
    assert "change better in 2/4" in rate


def test_change_and_aa_exclude_each_other():
    for argv in (["HEAD", "--workload", "w", "--seeds", "1"],
                 ["HEAD", "HEAD~1", "--aa", "--workload", "w", "--seeds", "1"]):
        with pytest.raises(SystemExit):
            bench_pairs.main(argv)
