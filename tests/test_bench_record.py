"""``tools/bench_record.py`` compares a record with the one before it (no timing is asserted)."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(**values):
    return {"correct": True, "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}


def test_delta_pairs_each_metric_with_the_previous_record(bench_record):
    before = {"fs": {"untraced": line(wall_ref=400.0, setup_s=0.0)}}
    after = {"fs": {"untraced": line(wall_ref=360.0, setup_s=0.2, new_metric=1.0),
                    "traced": line(wall_ref=1.0)},
             "rank": {"untraced": line(wall_ref=2.0)}}
    d = bench_record.delta(before, after)
    assert d["fs"]["wall_ref"] == {"before": 400.0, "after": 360.0, "change": -0.1}
    assert d["fs"]["setup_s"]["change"] is None  # no ratio against 0
    assert "new_metric" not in d["fs"] and d["rank"] == {}


def test_previous_is_the_highest_lower_number(bench_record, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.previous(8) == (None, None)
    for n in (3, 7, 9):
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps({"n": n}))
    path, record = bench_record.previous(8)
    assert path.name == "BENCH_7.json" and record == {"n": 7}
