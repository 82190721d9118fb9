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
