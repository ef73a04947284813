"""Fuzz of the file loaders: mutated bytes of a valid radar CSV, radar .bin,
.bevgrid and weight manifest must load or raise an RcbevError subclass.

The runs are derandomized and bounded, and keep no example database. Each
mutation overwrites, inserts, deletes or truncates bytes at a position taken
modulo the current length, so headers and counts are hit as often as payload
bytes. A directory given to any loader, the config loader too, raises the
loader's RcbevError naming the path.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rcbev.bev import BevGrid, BevSpec, load_grid, save_grid
from rcbev.config import load_config
from rcbev.errors import ConfigError, FormatError, RcbevError
from rcbev.ingest import (
    PointCloud,
    load_point_cloud,
    load_point_cloud_binary,
    save_point_cloud,
    save_point_cloud_binary,
)
from rcbev.weights import TensorSpec, init_weights, load_weights, payload_path_for, save_weights

FUZZ = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# tokens that change a field's meaning rather than only its syntax
TOKENS = [
    b"nan", b"inf", b"-1", b"-0", b"0", b"1e400", b"4294967295", b"1.5",
    b",", b"\n", b"#", b'"', b"null", b"[]", b"{}", b"true", b"\xff", b"\x00", b"\\u0000",
]
CHUNK = st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=8))
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete", "truncate"]), st.integers(0, 1 << 16), CHUNK),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, ops) -> bytes:
    for kind, at, chunk in ops:
        i = at % (len(data) + 1)
        if kind == "set":
            data = data[:i] + chunk + data[i + len(chunk):]
        elif kind == "insert":
            data = data[:i] + chunk + data[i:]
        elif kind == "delete":
            data = data[:i] + data[i + len(chunk):]
        else:
            data = data[:i]
    return data


CLOUD = PointCloud(
    [
        (1.5, -2.25, 0.5, 7.0, 0.25, -1.0, 0.0),
        (-3.0, 4.0, 0.0, -12.5, 0.0, 0.0, -0.083),
        (0.125, 0.0, 1.0, 30.0, 2.0, 3.0, -0.166),
    ],
    "fuzz",
)


def seed_bytes(tmp_path, save, obj, name) -> bytes:
    path = tmp_path / name
    save(obj, path)
    return path.read_bytes()


def check_cloud(cloud: PointCloud) -> None:
    assert np.all(np.isfinite(cloud.rows)) and np.all(cloud.rows[:, 6] <= 0)


@FUZZ
@given(MUTATIONS)
def test_mutated_csv_loads_or_raises_rcbev_error(tmp_path, ops):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(mutate(seed_bytes(tmp_path, save_point_cloud, CLOUD, "seed.csv"), ops))
    try:
        cloud = load_point_cloud(path)
    except RcbevError:
        return
    check_cloud(cloud)


@FUZZ
@given(MUTATIONS)
def test_mutated_binary_loads_or_raises_rcbev_error(tmp_path, ops):
    path = tmp_path / "fuzz.bin"
    path.write_bytes(mutate(seed_bytes(tmp_path, save_point_cloud_binary, CLOUD, "seed.bin"), ops))
    try:
        cloud = load_point_cloud_binary(path)
    except RcbevError:
        return
    check_cloud(cloud)


@FUZZ
@given(MUTATIONS)
def test_mutated_grid_loads_or_raises_rcbev_error(tmp_path, ops):
    spec = BevSpec.from_extent(-2.0, 2.0, -1.5, 1.5, 1.0)
    grid = BevGrid(np.arange(24, dtype=np.float64).reshape(2, 3, 4) - 7.5, spec)
    path = tmp_path / "fuzz.bevgrid"
    path.write_bytes(mutate(seed_bytes(tmp_path, save_grid, grid, "seed.bevgrid"), ops))
    try:
        back = load_grid(path)
    except RcbevError:
        return
    assert np.all(np.isfinite(back.data)) and back.data.shape[1:] == (back.spec.h, back.spec.w)


@FUZZ
@given(MUTATIONS, st.one_of(st.just([]), MUTATIONS))
def test_mutated_weight_manifest_loads_or_raises_rcbev_error(tmp_path, manifest_ops, payload_ops):
    path = tmp_path / "w.json"
    save_weights(init_weights([TensorSpec("a", (2, 3)), TensorSpec("b.beta", (1,))], 3), path)
    payload = payload_path_for(path)
    path.write_bytes(mutate(path.read_bytes(), manifest_ops))
    payload.write_bytes(mutate(payload.read_bytes(), payload_ops))
    try:
        ws = load_weights(path)
    except RcbevError:
        return
    assert all(np.all(np.isfinite(arr)) for arr in ws.entries.values())


@pytest.mark.parametrize(
    "load, error",
    [
        (load_point_cloud, FormatError),
        (load_point_cloud_binary, FormatError),
        (load_grid, FormatError),
        (load_weights, FormatError),
        (load_config, ConfigError),
    ],
)
def test_directory_raises_rcbev_error_naming_the_path(tmp_path, load, error):
    with pytest.raises(error, match=re.escape(str(tmp_path))):
        load(tmp_path)
    with pytest.raises(FileNotFoundError):
        load(tmp_path / "missing")
