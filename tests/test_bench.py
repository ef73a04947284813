import importlib
from pathlib import Path

import numpy as np

import rcbev.nn
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


def import_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("spans")


def test_benchmark_hooks_resolve(monkeypatch):
    """Every name the traced benchmark wraps or imports still exists."""
    spans = import_spans(monkeypatch)
    with spans.Tracer():  # entering looks up every wrapped name
        pass
    from rcbev.selfcheck import tiny_pipeline_config  # noqa: F401


def test_scatter_stage_spans(monkeypatch):
    """The traced run sees the scatter stage's two rcs_scatter calls and its
    one gaussian_bev_map call; without them bev.scatter_s and bev.gaussian_s
    would read 0 while the stage still runs."""
    spans = import_spans(monkeypatch)
    from rcbev import pipeline
    from rcbev.selfcheck import tiny_pipeline_config

    with spans.Tracer() as tracer:
        pipeline.run_pipeline(tiny_pipeline_config())
    (run,) = [i for i, s in enumerate(tracer.spans) if s.name == spans.RUN]
    direct = [s.name for s in tracer.spans if s.parent == run]
    assert direct.count("bev.scatter") == 2
    assert direct.count("bev.gaussian") == 1


def attention_span_counts(monkeypatch, cfg) -> tuple[int, int, int]:
    """The heads of cfg's backbone, and the nn.attend and nn.softmax spans a
    traced run_pipeline(cfg) records."""
    spans = import_spans(monkeypatch)
    from rcbev import pipeline

    with spans.Tracer() as tracer:
        pipeline.run_pipeline(cfg)
    names = [s.name for s in tracer.spans]
    heads = len(cfg.stage_widths) * (cfg.dmsa_heads + 2 * cfg.cross_heads)
    return heads, names.count("nn.attend"), names.count("nn.softmax")


def test_attention_spans_per_head(monkeypatch):
    """Each DMSA head and each head of the inject and extract cross-attention
    calls backbone.attend and backbone.softmax once, so the traced nn.attend_s
    and nn.softmax_s cover every attention head of the run."""
    from rcbev.selfcheck import tiny_pipeline_config

    heads, attend, softmax = attention_span_counts(monkeypatch, tiny_pipeline_config())
    assert attend == heads and softmax == heads


def test_attention_spans_per_head_when_blocks_split(monkeypatch, multi_block_config):
    """With a cloud of several attention row blocks on two workers, attend and
    softmax are still called once per head, on the caller's thread: the
    blocks run inside them."""
    monkeypatch.setattr(rcbev.nn, "_workers", lambda: 2)
    heads, attend, softmax = attention_span_counts(monkeypatch, multi_block_config)
    assert attend == heads and softmax == heads
