import hashlib
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rcbev.bev import BevSpec
from rcbev.config import PipelineConfig, config_from_kv, model_schema, model_tensors
from rcbev.errors import ConfigError, DataError, FormatError, WeightLookupError
from rcbev.selfcheck import tiny_pipeline_config
from rcbev.weights import (
    TensorSpec,
    init_weights,
    load_weights,
    payload_path_for,
    save_weights,
    weights_equal,
)

SPECS = [
    TensorSpec("enc.w", (6, 4)),
    TensorSpec("enc.b", (6,), "zeros"),
    TensorSpec("enc.scale", (6,), "ones"),
    TensorSpec("head.conv", (2, 3, 3, 3)),
]


def test_same_seed_same_bytes(tmp_path):
    a, b = init_weights(SPECS, 7), init_weights(SPECS, 7)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pa, pb = tmp_path / "a" / "w.json", tmp_path / "b" / "w.json"
    save_weights(a, pa)
    save_weights(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert payload_path_for(pa).read_bytes() == payload_path_for(pb).read_bytes()


def test_different_seed_differs(tmp_path):
    a, b = init_weights(SPECS, 7), init_weights(SPECS, 8)
    assert not weights_equal(a, b)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_weights(a, pa)
    save_weights(b, pb)
    assert payload_path_for(pa).read_bytes() != payload_path_for(pb).read_bytes()


def test_zero_and_one_fills():
    ws = init_weights(SPECS, 3)
    assert np.array_equal(ws.get("enc.b"), np.zeros(6))
    assert np.array_equal(ws.get("enc.scale"), np.ones(6))


def test_glorot_half_width():
    ws = init_weights([TensorSpec("w", (50, 30))], 0)
    a = np.sqrt(6.0 / 80.0)
    vals = ws.get("w")
    # f32 rounding at init can nudge values past the bound by at most half an ulp
    bound = a * (1 + 1e-6)
    assert vals.min() >= -bound and vals.max() <= bound
    assert vals.std() > 0.1 * a  # actually random, not collapsed


def test_roundtrip_bit_exact(tmp_path):
    ws = init_weights(SPECS, 1)
    path = tmp_path / "w.json"
    save_weights(ws, path)
    back = load_weights(path)
    assert weights_equal(ws, back)
    assert back.seed == 1


def test_double_roundtrip(tmp_path):
    ws = init_weights(SPECS, 11)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_weights(ws, p1)
    save_weights(load_weights(p1), p2)
    assert payload_path_for(p1).read_bytes() == payload_path_for(p2).read_bytes()


def test_missing_name_raises():
    ws = init_weights(SPECS, 0)
    with pytest.raises(WeightLookupError):
        ws.get("nope.w")


def test_shape_guard():
    ws = init_weights(SPECS, 0)
    with pytest.raises(FormatError):
        ws.require("enc.w", (4, 6))


def test_bad_dimension_rejected():
    with pytest.raises(ConfigError):
        init_weights([TensorSpec("w", (0, 3))], 0)


def test_non_positive_config_dim_rejected():
    with pytest.raises(ConfigError):
        model_tensors(replace(tiny_pipeline_config(), radar_channels=-4))


def test_shape_payload_mismatch(tmp_path):
    path = tmp_path / "w.json"
    manifest = {
        "format_version": 1,
        "seed": 0,
        "payload": "w.json.bin",
        "tensors": [
            {"name": "t", "shape": [3, 4], "dtype": "f32", "byte_offset": 0, "byte_length": 40}
        ],
    }
    path.write_text(json.dumps(manifest))
    (tmp_path / "w.json.bin").write_bytes(np.zeros(10, dtype="<f4").tobytes())
    with pytest.raises(FormatError):
        load_weights(path)


def test_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "w.json"
    manifest = {
        "format_version": 1,
        "seed": 0,
        "payload": "w.json.bin",
        "tensors": [
            {"name": "t", "shape": [2, 2], "dtype": "f32", "byte_offset": 0, "byte_length": 16}
        ],
    }
    path.write_text(json.dumps(manifest))
    payload = np.array([1.0, np.nan, 0.0, 2.0], dtype="<f4")
    (tmp_path / "w.json.bin").write_bytes(payload.tobytes())
    with pytest.raises(DataError):
        load_weights(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"format_version": 99, "payload": "x", "tensors": []}))
    (tmp_path / "x").write_bytes(b"")
    with pytest.raises(FormatError):
        load_weights(path)


def test_full_model_enumeration_roundtrips(tmp_path):
    cfg = PipelineConfig(
        bev=BevSpec.from_extent(-8, 8, -8, 8, 1.0),
        stage_widths=(8, 8),
        dmsa_heads=2,
        rcs_hidden=(8,),
        rcs_out=8,
        enc_blocks=1,
        radar_channels=8,
        cam_channels=8,
        deform_heads=2,
        deform_points=2,
        fused_channels=16,
        fuse_blocks=2,
    )
    specs = model_tensors(cfg)
    names = [s.name for s in specs]
    assert len(names) == len(set(names))
    ws = init_weights(specs, 42)
    path = tmp_path / "model.json"
    save_weights(ws, path)
    assert weights_equal(ws, load_weights(path))
    # gates start as configured: injection gamma zero, dmsa beta one
    assert np.array_equal(ws.get("stage1.inject.gamma"), np.zeros(8))
    assert np.array_equal(ws.get("stage1.tf.attn.head0.beta"), np.ones(1))
    assert np.array_equal(ws.get("align.pos.cam"), np.zeros((8, 16, 16)))


def write_manifest(dirpath, manifest, payload=b""):
    path = dirpath / "w.json"
    path.write_text(json.dumps(manifest))
    (dirpath / "w.json.bin").write_bytes(payload)
    return path


def one_tensor(shape, byte_length=16, payload="w.json.bin"):
    record = {"name": "t", "shape": shape, "dtype": "f32", "byte_offset": 0, "byte_length": byte_length}
    return {"format_version": 1, "seed": 0, "payload": payload, "tensors": [record]}


@pytest.mark.parametrize(
    "manifest, payload",
    [
        pytest.param(one_tensor([-2, -2]), bytes(16), id="negative-dims"),
        pytest.param(one_tensor("4"), bytes(16), id="string-shape"),
        pytest.param(one_tensor([2.5, 2], byte_length=20), bytes(20), id="float-dim"),
        pytest.param(one_tensor([0], byte_length=0), b"", id="zero-size"),
        pytest.param([one_tensor([4])], bytes(16), id="top-level-list"),
        pytest.param(one_tensor([4], payload="../w.json.bin"), bytes(16), id="payload-parent-path"),
    ],
)
def test_malformed_manifest_rejected(tmp_path, manifest, payload):
    with pytest.raises(FormatError):
        load_weights(write_manifest(tmp_path, manifest, payload))


def test_absolute_payload_path_rejected(tmp_path):
    outside = tmp_path / "outside.bin"
    outside.write_bytes(bytes(16))
    (tmp_path / "m").mkdir()
    with pytest.raises(FormatError):
        load_weights(write_manifest(tmp_path / "m", one_tensor([4], payload=str(outside)), bytes(16)))


# sha256 of repr([(name, shape, init), ...]) for model_tensors, computed on the
# code before the schema functions replaced the separate init and load specs
SCHEMA_SHA256 = {
    "default": "ef665b4afcf25fc40d04d209491cb0980770a62067c454c95db643981f32d504",
    "tiny": "4ff8df0351905b62fc972c14516a6619f663a5a4f5f666beb4f2cccb629766eb",
    "dense": "2a22ec64a7c9a6ba951c3ca9aa912afbf35d298e8842d2cd6c8e3e160a0a082f",
}
PINNED_CONFIGS = {
    "default": PipelineConfig,
    "tiny": tiny_pipeline_config,
    "dense": lambda: config_from_kv({"bev.resolution": "3.2"}),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_schema_pinned(name):
    specs = model_tensors(PINNED_CONFIGS[name]())
    digest = hashlib.sha256(repr([(s.name, s.shape, s.init) for s in specs]).encode()).hexdigest()
    assert digest == SCHEMA_SHA256[name]


class CountingSource:
    def __init__(self, ws):
        self.ws = ws
        self.calls = Counter()

    def require(self, name, shape, init):
        self.calls[name] += 1
        return self.ws.require(name, shape)


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_schema_load_uses_every_tensor_once(name):
    cfg = PINNED_CONFIGS[name]()
    ws = init_weights(model_tensors(cfg), 0)
    src = CountingSource(ws)
    model_schema(src, cfg)
    assert src.calls == Counter(ws.names())
