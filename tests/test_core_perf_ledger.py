"""``BENCH_core.json`` as a time series: every block written is kept."""

import json

from benchmarks import core_perf


def _block(wall):
    return {"dd_gen2x1_wall_s": wall, "link_wall_s": 0.2,
            "eventq_wall_s": 0.1, "python": "3.x"}


def test_second_write_appends_to_the_trajectory(tmp_path):
    path = str(tmp_path / "BENCH_core.json")
    core_perf.write_bench(_block(4.0), "before", path)
    doc = core_perf.write_bench(_block(3.2), "after", path)
    with open(path) as fh:
        assert json.load(fh) == doc
    # before/after and the speedup summary behave as before...
    assert doc["before"] == _block(4.0)
    assert doc["after"] == _block(3.2)
    assert doc["speedup"]["dd_gen2x1"] == 1.25
    # ...and the trajectory holds both blocks, oldest first, stamped.
    trajectory = doc["trajectory"]
    assert [(e["phase"], e["dd_gen2x1_wall_s"]) for e in trajectory] == [
        ("before", 4.0), ("after", 3.2)]
    for entry in trajectory:
        assert entry["commit"] == core_perf.git_commit()
        assert entry["usable_cores"] >= 1
        assert entry["python"]
    # A third write of an existing phase replaces the block but still
    # appends to the series.
    doc = core_perf.write_bench(_block(3.0), "after", path)
    assert doc["after"]["dd_gen2x1_wall_s"] == 3.0
    assert [e["dd_gen2x1_wall_s"] for e in doc["trajectory"]] == [
        4.0, 3.2, 3.0]


def test_git_commit_reads_loose_packed_and_detached_heads(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    sha = "0123456789abcdef0123456789abcdef01234567"
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "refs" / "heads" / "main").write_text(sha + "\n")
    assert core_perf.git_commit(str(tmp_path)) == sha

    (git / "refs" / "heads" / "main").unlink()
    (git / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n"
        f"{sha} refs/heads/main\n")
    assert core_perf.git_commit(str(tmp_path)) == sha

    (git / "HEAD").write_text(sha[::-1] + "\n")
    assert core_perf.git_commit(str(tmp_path)) == sha[::-1]


def test_git_commit_outside_a_checkout_is_none(tmp_path):
    assert core_perf.git_commit(str(tmp_path)) is None
