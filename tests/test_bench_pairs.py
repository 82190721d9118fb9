import json
import os

import pytest

from scripts import bench_pairs


def test_one_seed_is_an_error_before_any_run(monkeypatch, tmp_path):
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args, **kwargs: runs.append(args))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--workloads", "twisted_characters", "--seeds", "601",
                          "--out", str(out)])
    assert exit_info.value.code == 2
    assert runs == []
    assert not out.exists()


def test_machine_records_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    info = bench_pairs.machine()
    assert info["usable_cpus"] == 2
    assert info["os_cpu_count"] == os.cpu_count()


# ten parent runs with median 1.045 and interquartile range 0.045
PARENT = [1.0 + 0.01 * i for i in range(10)]


def test_worse_beyond_the_bound():
    out = bench_pairs.compare(PARENT, [1.3 * v for v in PARENT], 0.25, "lower")
    assert out["verdict"] == "worse"
    assert out["bound"] == 0.25
    assert bench_pairs.compare(PARENT, [1.2 * v for v in PARENT], 0.25,
                               "lower")["verdict"] == "no_regression"


def test_gain_needs_nine_of_ten_pairs_and_more_than_the_iqr():
    assert bench_pairs.compare(PARENT, [v - 0.2 for v in PARENT], 0.25,
                               "lower")["verdict"] == "gain"
    # one tie counts for neither side: 9 of 10 is still a gain
    assert bench_pairs.compare(PARENT, [v - 0.2 for v in PARENT[:9]] + PARENT[9:], 0.25,
                               "lower")["verdict"] == "gain"
    # two ties leave 8 of 10
    assert bench_pairs.compare(PARENT, [v - 0.2 for v in PARENT[:8]] + PARENT[8:], 0.25,
                               "lower")["verdict"] == "no_regression"
    # better in every pair, but by less than the parent's interquartile range
    assert bench_pairs.compare(PARENT, [v - 0.01 for v in PARENT], 0.25,
                               "lower")["verdict"] == "no_regression"


def test_gain_follows_the_better_direction():
    assert bench_pairs.compare(PARENT, [v + 0.2 for v in PARENT], 0.25,
                               "higher")["verdict"] == "gain"
    assert bench_pairs.compare(PARENT, [0.7 * v for v in PARENT], 0.25,
                               "higher")["verdict"] == "worse"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [0.5, 1.5] * 5  # interquartile range over median: 1.0
    out = bench_pairs.compare(parent, [1.5, 0.5] * 5, 0.25, "lower")
    assert out["parent_iqr_over_median"] == 1.0
    assert out["verdict"] == "unresolved"
    # every change run beats every parent run: the spread no longer hides it
    assert bench_pairs.compare(parent, [0.4] * 10, 0.25, "lower")["verdict"] == "no_regression"


def test_paired_spread_is_reported_beside_the_parent_spread():
    # the machine drifts by 0.5 s across the runs; each pair sits on one level
    parent = [1.0, 1.5] * 5
    change = [v - 0.1 + 0.01 * (i % 2) for i, v in enumerate(parent)]
    out = bench_pairs.compare(parent, change, 0.25, "lower")
    assert out["parent_iqr_over_median"] == 0.4
    assert out["paired_difference_median"] == pytest.approx(-0.095)
    assert out["paired_difference_iqr_over_parent_median"] == 0.008
    # the verdict still weighs the parent's spread
    assert out["verdict"] == "unresolved"


def test_main_reads_bounds_from_the_change_checkout(monkeypatch, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.5}]}
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    wall = {parent: 1.0, change: 1.4}
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *args, **kwargs: {
        "metrics": {"wall_s": {"value": wall[checkout]}},
        "failed": 0, "attempted": 1, "correct": True})
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workloads", "twisted_characters", "--seeds", "1-10",
                             "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["twisted_characters"]["metrics"]
    assert list(metrics) == ["wall_s"]
    assert (metrics["wall_s"]["bound"], metrics["wall_s"]["verdict"]) == (0.5, "no_regression")
