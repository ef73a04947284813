"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

A span is (name, start, end, parent) plus the counts computed from the call's
arguments. Spans are recorded by wrapping the public names that each layer
calls through, in the namespaces that call them. The wrappers are installed
when a Tracer is entered and the original functions are restored on exit, so
an untraced run executes the program unchanged. Spans stay in memory until
the benchmark writes them out.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import rcbev.backbone
import rcbev.bev
import rcbev.cli
import rcbev.fusion
import rcbev.pipeline

FRAME = "frame"  # root span the benchmark opens around each frame
RUN = "pipeline.run"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans; None for a root
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _conv_counts(args, _result) -> dict:
    x, kernels = args[0], args[1]
    c_out, c_in = kernels.shape[:2]
    h, w = x.shape[1:]
    # the im2col buffer of nn.conv3x3 is C_in x 3 x 3 x H x W float64
    return {"macs": c_out * c_in * 9 * h * w, "cols_bytes": c_in * 9 * h * w * 8}


def _attend_counts(args, _result) -> dict:
    weights, values = args[0], args[1]
    return {"sorted_elems": weights.shape[0] * weights.shape[1] * values.shape[1]}


def _deform_counts(args, _result) -> dict:
    queries, p = args[0], args[3]
    return {"samples": queries.shape[1] * queries.shape[2] * p.m * p.k}


def _run_counts(_args, result) -> dict:
    return {"stages_ms": {s.name: s.ms for s in result[1].stages}}


def _deform_name(tracer: "Tracer") -> str:
    # cross_align computes the r2c update (radar queries sample the camera
    # grid) before the c2r update, so the first call under an align span is r2c
    parent = tracer.open_parent()
    earlier = sum(
        1 for s in tracer.spans[parent:] if s.parent == parent and s.name.startswith("fusion.deform_attn")
    )
    return ("fusion.deform_attn.r2c", "fusion.deform_attn.c2r")[min(earlier, 1)]


# (namespace, attribute, span name or tracer -> name, counts from (args, result))
TARGETS: list[tuple[object, str, object, Optional[Callable]]] = [
    (rcbev.pipeline, "run_pipeline", RUN, _run_counts),
    (rcbev.cli, "run_pipeline", RUN, _run_counts),
    (rcbev.cli, "save_grid", "bev.save_grid", None),
    (rcbev.pipeline, "resolve_weights", "weights.init", None),
    (rcbev.pipeline, "load_point_cloud", "ingest.load", None),
    (rcbev.pipeline, "load_point_cloud_binary", "ingest.load", None),
    (rcbev.pipeline, "filter_roi", "ingest.roi", None),
    (rcbev.pipeline, "assemble_features", "ingest.features", lambda _a, r: {"points": len(r)}),
    (rcbev.pipeline, "dual_backbone_forward", "backbone.forward", None),
    (rcbev.backbone, "attend", "nn.attend", _attend_counts),
    (rcbev.backbone, "softmax", "nn.softmax", None),
    (rcbev.pipeline, "rcs_scatter", "bev.scatter", None),
    (rcbev.pipeline, "gaussian_bev_map", "bev.gaussian", None),
    (rcbev.pipeline, "rcs_bev_feature", "bev.rcs_mlp", None),
    (rcbev.pipeline, "bev_encode", "bev.encode", None),
    # bev.cbr_residual is the one CBR path; fusion calls it too
    (rcbev.bev, "conv3x3", "nn.conv3x3", _conv_counts),
    (rcbev.pipeline, "gen_camera_bev", "camera.gen", None),
    (rcbev.pipeline, "cross_align", "fusion.align", None),
    (rcbev.fusion, "deform_attn", _deform_name, _deform_counts),
    (rcbev.pipeline, "channel_spatial_fuse", "fusion.fuse", None),
]

# RunReport stage -> the spans directly under pipeline.run that make it up
STAGE_SPANS = {
    "weights": ("weights.init",),
    "load": ("ingest.load",),
    "ingest": ("ingest.roi", "ingest.features"),
    "backbone": ("backbone.forward",),
    "scatter": ("bev.scatter", "bev.gaussian"),
    "bev_encode": ("bev.rcs_mlp", "bev.encode"),
    "camera": ("camera.gen",),
    "align": ("fusion.align",),
    "fuse": ("fusion.fuse",),
}


class Tracer:
    """Records spans while entered; use one Tracer per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def open_parent(self) -> Optional[int]:
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str):
        sp = Span(name, 0.0, 0.0, self.open_parent())
        self._open.append(len(self.spans))
        self.spans.append(sp)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._open.pop()

    def _wrap(self, fn: Callable, name, counts: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(self) if callable(name) else name) as sp:
                result = fn(*args, **kwargs)
            if counts is not None:
                sp.attrs = counts(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name, counts in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counts))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "nn.conv3x3_s": "s",
    "nn.conv3x3.bev.encode_s": "s",
    "nn.conv3x3.fusion.fuse_s": "s",
    "nn.conv3x3.calls": "count",
    "nn.conv3x3.macs": "count",
    "nn.conv3x3.cols_bytes": "bytes",
    "backbone.forward_s": "s",
    "nn.attend_s": "s",
    "nn.softmax_s": "s",
    "ingest.points": "count",
    "nn.attend.sorted_elems": "count",
    "fusion.align_s": "s",
    "fusion.deform_attn.r2c_s": "s",
    "fusion.deform_attn.c2r_s": "s",
    "fusion.deform.samples": "count",
    "bev.scatter_s": "s",
    "bev.gaussian_s": "s",
    "bev.rcs_mlp_s": "s",
    "bev.encode_s": "s",
    "fusion.fuse_s": "s",
    "weights.init_s": "s",
    "ingest.load_s": "s",
    "bev.save_grid_s": "s",
    "pipeline.other_s": "s",
    "cli.other_s": "s",
    "pipeline.stage_gap_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}

_TIMED = {
    "nn.conv3x3_s": "nn.conv3x3",
    "backbone.forward_s": "backbone.forward",
    "nn.attend_s": "nn.attend",
    "nn.softmax_s": "nn.softmax",
    "fusion.align_s": "fusion.align",
    "fusion.deform_attn.r2c_s": "fusion.deform_attn.r2c",
    "fusion.deform_attn.c2r_s": "fusion.deform_attn.c2r",
    "bev.scatter_s": "bev.scatter",
    "bev.gaussian_s": "bev.gaussian",
    "bev.rcs_mlp_s": "bev.rcs_mlp",
    "bev.encode_s": "bev.encode",
    "fusion.fuse_s": "fusion.fuse",
    "weights.init_s": "weights.init",
    "ingest.load_s": "ingest.load",
    "bev.save_grid_s": "bev.save_grid",
}


def frame_layers(spans: list[Span], root: int, children: dict[int, list[int]]) -> dict[str, float]:
    """Per-layer totals of the frame whose root span is ``spans[root]``."""
    busy: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    out = dict.fromkeys(LAYER_METRICS, 0)
    del out["trace_overhead_ratio"]
    stack = list(children[root])
    while stack:
        i = stack.pop()
        s = spans[i]
        stack.extend(children[i])
        busy[s.name] += s.seconds
        for key in ("macs", "sorted_elems", "points", "samples"):
            counts[key] += s.attrs.get(key, 0)
        if s.name == "nn.conv3x3":
            out["nn.conv3x3.calls"] += 1
            out["nn.conv3x3.cols_bytes"] = max(out["nn.conv3x3.cols_bytes"], s.attrs["cols_bytes"])
            parent = spans[s.parent].name
            if parent in ("bev.encode", "fusion.fuse"):
                out[f"nn.conv3x3.{parent}_s"] += s.seconds
        if s.name == RUN:
            direct = [spans[c] for c in children[i]]
            out["pipeline.other_s"] += s.seconds - sum(c.seconds for c in direct)
            stage_s = {name: ms / 1e3 for name, ms in s.attrs["stages_ms"].items()}
            gap = sum(
                abs(t - sum(c.seconds for c in direct if c.name in STAGE_SPANS.get(name, ())))
                for name, t in stage_s.items()
            )
            out["pipeline.stage_gap_ratio"] += gap / sum(stage_s.values())
    top = sum(spans[c].seconds for c in children[root] if spans[c].name in (RUN, "bev.save_grid"))
    out["cli.other_s"] = spans[root].seconds - top
    for metric, name in _TIMED.items():
        out[metric] = busy[name]
    out["nn.conv3x3.macs"] = counts["macs"]
    out["nn.attend.sorted_elems"] = counts["sorted_elems"]
    out["ingest.points"] = counts["points"]
    out["fusion.deform.samples"] = counts["samples"]
    return out


def layer_metrics(spans: list[Span], untraced_frame_s: list[float]) -> dict[str, float]:
    """Median over traced frames of each per-layer metric, plus the tracing
    overhead against the untraced frames of the same run. Every root span
    is a frame."""
    children: dict[int, list[int]] = defaultdict(list)
    roots = []
    for i, s in enumerate(spans):
        if s.parent is None:
            roots.append(i)
        else:
            children[s.parent].append(i)
    frames = [frame_layers(spans, r, children) for r in roots]
    out = {name: statistics.median(f[name] for f in frames) for name in frames[0]}
    traced = statistics.median(spans[r].seconds for r in roots)
    out["trace_overhead_ratio"] = traced / statistics.median(untraced_frame_s) - 1.0
    return out
