from dataclasses import replace

import pytest

import rcbev.backbone
import rcbev.fusion
import rcbev.nn
from rcbev.bev import BevSpec
from rcbev.ingest import synth_scene
from rcbev.selfcheck import tiny_pipeline_config


@pytest.fixture
def backbone_calls(monkeypatch):
    """Counts of the real rcbev.backbone.inject and extract calls made while
    the test runs."""
    calls = {"inject": 0, "extract": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(rcbev.backbone, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(rcbev.backbone, name, counted)
    return calls


@pytest.fixture
def conv_pixels(monkeypatch):
    """The number of pixels each real rcbev.nn.conv3x3 call computes while the
    test runs, in call order."""
    sizes = []

    def counted(x, _fn=rcbev.nn._conv_pixels):
        pixels, background = _fn(x)
        sizes.append(len(pixels))
        return pixels, background

    monkeypatch.setattr(rcbev.nn, "_conv_pixels", counted)
    return sizes


@pytest.fixture
def multi_block_config():
    """The tiny pipeline config on a 32 x 32 grid, two deformable query
    blocks, with 480 points, four attention blocks; the tiny golden's
    16 x 16 grid and 36 points fit in one block each."""
    cfg = tiny_pipeline_config()
    clusters = tuple(replace(c, n_points=120) for c in cfg.scene.clusters)
    cfg = replace(cfg, bev=BevSpec.from_extent(-8.0, 8.0, -8.0, 8.0, 0.5), scene=replace(cfg.scene, clusters=clusters))
    assert cfg.bev.h * cfg.bev.w > rcbev.fusion.QUERY_BLOCK
    n = len(synth_scene(cfg.scene, cfg.seed))
    assert n > 2 * (rcbev.nn.ATTN_BLOCK // n)
    return cfg
