import math

import numpy as np
import pytest

import helpers
from rcbev.errors import ConfigError, DataError, EmptyInputError, ShapeError
from rcbev.nn import (
    MlpLayer,
    MlpParams,
    NormParams,
    batch_norm_2d,
    bilinear_sample,
    conv3x3,
    identity_norm,
    layer_norm,
    linear,
    max_pool_points,
    mlp,
    ordered_sum,
    softmax,
)

rng = np.random.default_rng(2024)


class TestLinear:
    def test_identity(self):
        out = linear([[1.0, 2.0]], np.eye(2), np.zeros(2))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_zero_weight_passes_bias(self):
        out = linear([[1.0, 2.0]], np.zeros((2, 2)), np.array([3.0, 4.0]))
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_matches_loop_oracle(self):
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        assert np.abs(linear(x, w, b) - helpers.loop_matmul(x, w, b)).max() < 1e-12

    def test_random_cases_against_oracle(self):
        for _ in range(100):
            n, cin, cout = rng.integers(1, 8, size=3)
            x = rng.standard_normal((n, cin))
            w = rng.standard_normal((cout, cin))
            b = rng.standard_normal(cout)
            assert np.abs(linear(x, w, b) - helpers.loop_matmul(x, w, b)).max() < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            linear(np.ones((2, 3)), np.ones((4, 2)), np.zeros(4))
        with pytest.raises(ShapeError):
            linear(np.ones((2, 3)), np.ones((4, 3)), np.zeros(5))

    def test_row_permutation_is_exact(self):
        x = rng.standard_normal((33, 6))
        w = rng.standard_normal((5, 6))
        b = rng.standard_normal(5)
        p = rng.permutation(33)
        assert np.array_equal(linear(x, w, b)[p], linear(x[p], w, b))


class TestMlp:
    def test_identity_layer(self):
        p = MlpParams((MlpLayer(np.eye(3), np.zeros(3), relu=False),))
        x = rng.standard_normal((4, 3))
        assert np.array_equal(mlp(x, p), x)

    def test_relu_clamps(self):
        p = MlpParams((MlpLayer(np.array([[1.0]]), np.zeros(1), relu=True),))
        assert np.array_equal(mlp(np.array([[-1.0]]), p), [[0.0]])

    def test_two_layer_composition(self):
        for _ in range(20):
            d0, d1, d2 = rng.integers(1, 6, size=3)
            layers = (
                MlpLayer(rng.standard_normal((d1, d0)), rng.standard_normal(d1), True),
                MlpLayer(rng.standard_normal((d2, d1)), rng.standard_normal(d2), False),
            )
            x = rng.standard_normal((7, d0))
            hidden = np.maximum(helpers.loop_matmul(x, layers[0].w, layers[0].b), 0.0)
            ref = helpers.loop_matmul(hidden, layers[1].w, layers[1].b)
            assert np.abs(mlp(x, MlpParams(layers)) - ref).max() < 1e-10

    def test_unchained_dims_rejected(self):
        with pytest.raises(ShapeError):
            MlpParams(
                (
                    MlpLayer(np.ones((3, 2)), np.zeros(3)),
                    MlpLayer(np.ones((2, 4)), np.zeros(2)),
                )
            )


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = layer_norm(np.array([[5.0, 5.0, 5.0]]), identity_norm(3))
        assert np.array_equal(out, [[0.0, 0.0, 0.0]])

    def test_already_normalized_row(self):
        out = layer_norm(np.array([[1.0, -1.0]]), identity_norm(2, eps=1e-300))
        assert np.allclose(out, [[1.0, -1.0]], atol=1e-12)

    def test_statistics(self):
        x = rng.standard_normal((50, 12)) * 4 + 2
        y = layer_norm(x, identity_norm(12, eps=1e-12))
        assert np.abs(y.mean(axis=1)).max() < 1e-6
        assert np.abs(y.var(axis=1) - 1).max() < 1e-6

    def test_wrong_width(self):
        with pytest.raises(ShapeError):
            layer_norm(np.ones((2, 3)), identity_norm(4))

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ConfigError):
            NormParams(np.ones(2), np.zeros(2), eps=0.0)


class TestSoftmax:
    def test_symmetry(self):
        assert np.array_equal(softmax(np.array([[0.0, 0.0]]), axis=1), [[0.5, 0.5]])

    def test_shift_invariance(self):
        x = np.array([[1.0, 3.0]])
        assert np.array_equal(softmax(x, axis=1), softmax(x - 2.0, axis=1))

    def test_scalar_value(self):
        out = softmax(np.array([[2.0, 0.0]]), axis=1)
        e2 = math.exp(2.0)
        assert np.abs(out - [[e2 / (e2 + 1), 1 / (e2 + 1)]]).max() < 1e-12

    def test_rows_sum_to_one(self):
        x = rng.standard_normal((100, 17)) * 10
        s = softmax(x, axis=1)
        assert np.abs(s.sum(axis=1) - 1).max() < 1e-6

    def test_random_shift_invariance(self):
        x = rng.standard_normal((20, 9))
        shifts = rng.standard_normal((20, 1))
        a = softmax(x, axis=1)
        b = softmax(x + shifts, axis=1)
        assert np.abs(a - b).max() < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            softmax(np.array([[np.inf, 0.0]]), axis=1)


class TestMaxPool:
    def test_column_max(self):
        assert np.array_equal(max_pool_points(np.array([[1.0, 5.0], [3.0, 2.0]])), [3.0, 5.0])

    def test_permutation_invariance(self):
        x = np.array([[1.0, 5.0], [3.0, 2.0]])
        assert np.array_equal(max_pool_points(x[::-1]), [3.0, 5.0])
        big = rng.standard_normal((100, 8))
        ref = np.array([max(big[:, c]) for c in range(8)])
        for _ in range(10):
            p = rng.permutation(100)
            assert np.array_equal(max_pool_points(big[p]), ref)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            max_pool_points(np.zeros((0, 3)))


class TestConv3x3:
    def test_delta_kernel_is_identity(self):
        x = rng.standard_normal((2, 4, 6))
        k = np.zeros((2, 2, 3, 3))
        k[0, 0, 1, 1] = 1.0
        k[1, 1, 1, 1] = 1.0
        assert np.array_equal(conv3x3(x, k, np.zeros(2)), x)

    def test_zero_kernel_constant_bias(self):
        x = rng.standard_normal((1, 3, 3))
        out = conv3x3(x, np.zeros((2, 1, 3, 3)), np.array([2.5, -1.0]))
        assert np.array_equal(out[0], np.full((3, 3), 2.5))
        assert np.array_equal(out[1], np.full((3, 3), -1.0))

    def test_matches_naive_oracle(self):
        x = rng.standard_normal((2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        assert np.abs(conv3x3(x, k, b) - helpers.loop_conv3x3(x, k, b)).max() < 1e-10

    def test_random_cases(self):
        for _ in range(25):
            ci, co = rng.integers(1, 4, size=2)
            h, w = rng.integers(1, 7, size=2)
            x = rng.standard_normal((ci, h, w))
            k = rng.standard_normal((co, ci, 3, 3))
            b = rng.standard_normal(co)
            assert np.abs(conv3x3(x, k, b) - helpers.loop_conv3x3(x, k, b)).max() < 1e-10

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv3x3(np.ones((2, 4, 4)), np.ones((1, 3, 3, 3)), np.zeros(1))


class TestBatchNorm:
    def test_identity_stats(self):
        x = rng.standard_normal((3, 4, 4))
        out = batch_norm_2d(x, identity_norm(3, eps=1e-300, batch=True))
        assert np.abs(out - x).max() < 1e-12

    def test_normalizes_with_stats(self):
        x = np.full((1, 2, 2), 7.0)
        p = NormParams(np.ones(1), np.zeros(1), 1e-300, mean=np.array([5.0]), var=np.array([4.0]))
        assert np.allclose(batch_norm_2d(x, p), 1.0, atol=1e-12)

    def test_negative_variance_rejected(self):
        with pytest.raises(DataError):
            NormParams(np.ones(1), np.zeros(1), 1e-5, mean=np.zeros(1), var=np.array([-1.0]))


class TestBilinear:
    def test_integer_coordinate_exact(self):
        g = rng.standard_normal((4, 5, 6))
        assert np.array_equal(bilinear_sample(g, (3, 2)), g[:, 2, 3])

    def test_midpoint(self):
        g = np.zeros((1, 2, 2))
        g[0, 0, 1] = 1.0
        assert np.allclose(bilinear_sample(g, (0.5, 0.0)), [0.5], atol=1e-15)

    def test_outside_is_zero(self):
        g = rng.standard_normal((3, 4, 4))
        assert np.array_equal(bilinear_sample(g, (-5.0, -5.0)), np.zeros(3))

    def test_linear_along_axes(self):
        g = rng.standard_normal((2, 6, 6))
        for _ in range(50):
            u = float(rng.uniform(0, 4.999))
            v = float(rng.uniform(0, 4.999))
            ref = helpers.bilinear_point(g, u, v)
            assert np.abs(bilinear_sample(g, (u, v)) - ref).max() < 1e-12


def test_ordered_sum_is_permutation_independent():
    x = rng.standard_normal((40, 40))
    total = ordered_sum(x, axis=1)
    for _ in range(10):
        p = rng.permutation(40)
        assert np.array_equal(ordered_sum(x[:, p], axis=1), total)


def test_bilinear_outer_corner_exact():
    g = rng.standard_normal((2, 3, 4))
    assert np.array_equal(bilinear_sample(g, (3.0, 2.0)), g[:, 2, 3])
    # one step past the corner: zero padding
    assert np.array_equal(bilinear_sample(g, (4.0, 2.0)), np.zeros(2))
