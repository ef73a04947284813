"""The config file's key table: the accepted keys, their fields, the cluster
rules, the README example, and a fuzz of whole config texts."""

import math
import re
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rcbev import config
from rcbev.bev import BevSpec, ScatterConfig
from rcbev.config import PipelineConfig, config_from_kv, load_config, parse_kv_text
from rcbev.errors import ConfigError
from rcbev.ingest import ClusterSpec, SceneConfig

# every accepted key, with a valid value that differs from its default; a
# cluster key stands for every canonical index <i>
ACCEPTED = {
    "align.heads": "2",
    "align.points": "2",
    "backbone.cross_heads": "2",
    "backbone.dmsa_heads": "2",
    "backbone.ffn_mult": "3",
    "backbone.widths": "16,32",
    "bev.resolution": "1.6",
    "bev.x_max": "52.8",
    "bev.x_min": "-52.8",
    "bev.y_max": "52.8",
    "bev.y_min": "-52.8",
    "cam.channels": "32",
    "cam.modes": "3",
    "enc.blocks": "1",
    "enc.channels": "32",
    "fuse.blocks": "2",
    "fuse.channels": "64",
    "pipeline.eps": "0.001",
    "pipeline.seed": "7",
    "pipeline.weights": "w.json",
    "rcs.hi": "40",
    "rcs.lo": "-10",
    "rcs_mlp.hidden": "32,16",
    "rcs_mlp.out": "32",
    "scatter.radius_cap": "3",
    "scatter.radius_scale": "0.05",
    "scene.azimuth_noise_deg": "0.5",
    "scene.cluster.<i>.bearing_deg": "31",
    "scene.cluster.<i>.heading_deg": "90",
    "scene.cluster.<i>.n_points": "4",
    "scene.cluster.<i>.range_m": "6",
    "scene.cluster.<i>.rcs_dbsm": "12",
    "scene.cluster.<i>.speed_mps": "2",
    "scene.frame_id": "edge",
    "scene.max_range_m": "30",
    "scene.n_clusters": "2",
    "scene.n_sweeps": "2",
    "scene.points_per_cluster": "5",
    "scene.range_spread_m": "1",
    "scene.sweep_period_s": "0.05",
    "scene.z_m": "0.5",
}
CLUSTER_FIELDS = [k.rsplit(".", 1)[1] for k in ACCEPTED if k.startswith("scene.cluster.")]
PLAIN_KEYS = [k for k in ACCEPTED if not k.startswith("scene.cluster.")]


def test_key_table_is_the_pinned_key_set():
    assert len(ACCEPTED) == 41
    assert sorted(k.replace("scene.cluster.0.", "scene.cluster.<i>.") for k in config._KEYS) == sorted(ACCEPTED)


def test_every_key_reaches_its_field():
    kv = {k.replace("<i>", "2"): v for k, v in ACCEPTED.items()}
    assert config_from_kv(kv) == PipelineConfig(
        bev=BevSpec.from_extent(-52.8, 52.8, -52.8, 52.8, 1.6),
        stage_widths=(16, 32),
        dmsa_heads=2,
        cross_heads=2,
        ffn_mult=3,
        scatter=ScatterConfig(radius_scale=0.05, radius_cap=3.0),
        rcs_bounds=(-10.0, 40.0),
        rcs_hidden=(32, 16),
        rcs_out=32,
        enc_blocks=1,
        radar_channels=32,
        cam_channels=32,
        deform_heads=2,
        deform_points=2,
        fused_channels=64,
        fuse_blocks=2,
        cam_modes=3,
        seed=7,
        eps=0.001,
        weights_path="w.json",
        scene=SceneConfig(
            n_clusters=2,
            points_per_cluster=5,
            azimuth_noise_deg=0.5,
            n_sweeps=2,
            sweep_period_s=0.05,
            range_spread_m=1.0,
            z_m=0.5,
            max_range_m=30.0,
            frame_id="edge",
            clusters=(ClusterSpec(31.0, 6.0, 4, 12.0, 2.0, 90.0),),
        ),
    )


def test_cluster_defaults_and_order():
    cfg = config_from_kv({
        "scene.points_per_cluster": "7",
        "scene.cluster.10.bearing_deg": "40",
        "scene.cluster.10.range_m": "9",
        "scene.cluster.2.bearing_deg": "20",
        "scene.cluster.2.range_m": "8",
    })
    assert cfg.scene.n_clusters == 2
    assert cfg.scene.clusters == (ClusterSpec(20.0, 8.0, 7, 10.0), ClusterSpec(40.0, 9.0, 7, 10.0))


@pytest.mark.parametrize("missing", ["bearing_deg", "range_m"])
def test_cluster_missing_field_named(missing):
    kv = {"scene.cluster.3.bearing_deg": "20", "scene.cluster.3.range_m": "8"}
    del kv[f"scene.cluster.3.{missing}"]
    with pytest.raises(ConfigError, match=f"scene.cluster.3 is missing field '{missing}'"):
        config_from_kv(kv)


@pytest.mark.parametrize(
    "key",
    [
        "scene.cluster.0.speeed_mps",
        "scene.cluster.01.range_m",
        "scene.cluster.-1.range_m",
        "scene.cluster. 1.range_m",
        "scene.cluster.0.range_m.x",
        "scene.cluster.0",
        "scene.cluster.<i>.range_m",
        "scene.clusters",
        "bev.h",
        "rcs_bounds",
        "radar_channels",
    ],
)
def test_unknown_key_named(key):
    kv = {"scene.cluster.0.bearing_deg": "20", "scene.cluster.0.range_m": "8", key: "1"}
    with pytest.raises(ConfigError, match=f"unknown config key '{re.escape(key)}'"):
        config_from_kv(kv)


def test_non_utf8_config_raises_config_error_naming_the_path(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_bytes(b"pipeline.seed = 3\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_config(path)


def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "cfg.txt"
    path.write_text(example)
    assert load_config(path) == PipelineConfig()
    # it names every key outside bev., scatter. and scene., but pipeline.weights
    outside = {k for k in ACCEPTED if k.split(".")[0] not in ("bev", "scatter", "scene")}
    assert outside - set(parse_kv_text(example)) == {"pipeline.weights"}


def _key():
    cluster_index = st.sampled_from(["0", "1", "7", "12", "01", "-1", "", " 2", "x"])
    cluster_field = st.sampled_from(CLUSTER_FIELDS + ["speeed_mps", "", "n_points.x"])
    return st.one_of(
        st.sampled_from(PLAIN_KEYS),
        st.builds(lambda i, f: f"scene.cluster.{i}.{f}", cluster_index, cluster_field),
        st.sampled_from(PLAIN_KEYS).map(lambda k: k[:-1]),
        st.sampled_from(PLAIN_KEYS).map(lambda k: k.upper()),
        st.text("abcdefghijklmnopqrstuvwxyz._0123456789", min_size=1, max_size=24),
    )


SPECIAL_VALUES = [
    "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "5e-324", "", " ", "0", "-0", "-1", "8,8", "8,,8", "0x10", "garbage"
]
VALID_LINES = [(k.replace("<i>", "0"), v) for k, v in ACCEPTED.items()]


def _value():
    return st.one_of(
        st.sampled_from(sorted(set(ACCEPTED.values()))),
        st.integers(-(10**6), 10**6).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(SPECIAL_VALUES),
        st.text(max_size=12),
    )


def _floats(x):
    if isinstance(x, tuple):
        return [v for item in x for v in _floats(item)]
    return [x] if isinstance(x, float) else []


def _load_or_config_error(kv):
    try:
        cfg = config_from_kv(kv)
    except ConfigError:
        return
    assert all(math.isfinite(v) for v in _floats(astuple(cfg)))


def test_every_key_with_every_special_value_loads_or_raises_config_error():
    cluster = {"scene.cluster.0.bearing_deg": "20", "scene.cluster.0.range_m": "8"}
    for key, _ in VALID_LINES:
        for value in SPECIAL_VALUES:
            _load_or_config_error({**cluster, key: value})


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(VALID_LINES),
            st.tuples(st.sampled_from([k for k, _ in VALID_LINES]), _value()),
            st.tuples(_key(), _value()),
        ),
        max_size=10,
        unique_by=lambda line: line[0],
    )
)
def test_fuzzed_config_text_loads_or_raises_config_error(lines):
    # only loads: a fuzzed size can ask for a huge grid, so nothing runs on it
    try:
        kv = parse_kv_text("\n".join(f"{k} = {v}" for k, v in lines))
    except ConfigError:
        return
    _load_or_config_error(kv)
