import importlib
from pathlib import Path

import numpy as np

from rcbev.bench import DEFAULT_SIDES, run_bench


def test_default_sizes_cover_the_grid_ladder():
    assert tuple(s * s for s in DEFAULT_SIDES) == (256, 1024, 4096, 16384)


def test_table_structure_small_sizes():
    rep = run_bench(sides=(4, 8), channels=8, heads=2, points=2, rounds=1)
    assert len(rep.rows) == 2 * 2  # sizes x methods
    deform = rep.method_rows("deform")
    dense = rep.method_rows("dense")
    assert [r.hw for r in deform] == [16, 64]
    assert deform[0].step_ratio is None and deform[0].doubling_ratio is None
    assert deform[1].step_ratio is not None
    assert dense[1].doubling_ratio == np.sqrt(dense[1].step_ratio)
    assert all(r.seconds > 0 for r in rep.rows)


def test_csv_and_text_outputs():
    rep = run_bench(sides=(4, 8), channels=8, heads=2, points=2, rounds=1)
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "method,h,w,hw,seconds,step_ratio,doubling_ratio"
    assert len(lines) == 1 + 4
    text = rep.to_text()
    assert "deform" in text and "dense" in text and "per_dbl" in text


def test_benchmark_hooks_resolve(monkeypatch):
    """Every name the traced benchmark wraps or imports still exists."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    spans = importlib.import_module("spans")
    with spans.Tracer():  # entering looks up every wrapped name
        pass
    from rcbev.selfcheck import tiny_pipeline_config  # noqa: F401
