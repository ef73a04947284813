import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import rcbev.nn
from rcbev import oracles
from rcbev.errors import ConfigError, DataError, EmptyInputError, ShapeError
from rcbev.nn import (
    ATTN_BLOCK,
    CONV_BLOCK,
    MlpLayer,
    MlpParams,
    NormParams,
    attend,
    batch_norm_2d,
    contract,
    conv3x3,
    identity_norm,
    key_order,
    layer_norm,
    linear,
    max_pool_points,
    mlp,
    product,
    softmax,
    weighted_sum,
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
        assert np.abs(linear(x, w, b) - oracles.loop_matmul(x, w, b)).max() < 1e-12

    def test_random_cases_against_oracle(self):
        for _ in range(100):
            n, cin, cout = rng.integers(1, 8, size=3)
            x = rng.standard_normal((n, cin))
            w = rng.standard_normal((cout, cin))
            b = rng.standard_normal(cout)
            assert np.abs(linear(x, w, b) - oracles.loop_matmul(x, w, b)).max() < 1e-10

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
            hidden = np.maximum(oracles.loop_matmul(x, layers[0].w, layers[0].b), 0.0)
            ref = oracles.loop_matmul(hidden, layers[1].w, layers[1].b)
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
        with pytest.raises(ConfigError, match="eps"):
            NormParams(np.ones(2), np.zeros(2), eps=float("nan"))


class TestSoftmax:
    def test_symmetry(self):
        assert np.array_equal(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_shift_invariance(self):
        x = np.array([[1.0, 3.0]])
        assert np.array_equal(softmax(x), softmax(x - 2.0))

    def test_scalar_value(self):
        out = softmax(np.array([[2.0, 0.0]]))
        e2 = math.exp(2.0)
        assert np.abs(out - [[e2 / (e2 + 1), 1 / (e2 + 1)]]).max() < 1e-12

    def test_rows_sum_to_one(self):
        x = rng.standard_normal((100, 17)) * 10
        s = softmax(x)
        assert np.abs(s.sum(axis=1) - 1).max() < 1e-6

    def test_random_shift_invariance(self):
        x = rng.standard_normal((20, 9))
        shifts = rng.standard_normal((20, 1))
        a = softmax(x)
        b = softmax(x + shifts)
        assert np.abs(a - b).max() < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            softmax(np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_negative_infinity_and_nan_rejected(self, bad):
        # a -inf never reaches a row max, so the check cannot rest on the maxima alone
        with pytest.raises(DataError):
            softmax(np.array([[1.0, 2.0], [bad, 0.0]]))

    def test_empty_rows(self):
        assert softmax(np.zeros((0, 4))).shape == (0, 4)

    def test_vector_is_one_row(self):
        x = rng.standard_normal(ATTN_BLOCK + 1)
        assert np.array_equal(softmax(x), oracles.softmax_rows(x))

    @pytest.mark.parametrize("out", [np.empty((4, 3)), np.empty((3, 4)).T, np.empty((3, 5))[:, :4]])
    def test_out_must_be_whole(self, out):
        with pytest.raises(ShapeError, match="C-contiguous"):
            softmax(np.zeros((3, 4)), out=out)

    def test_peak_memory_is_one_output(self):
        # measured 1.01x: the output plus the row maxima and sums; 3.01x when
        # the shifted logits, their exp and the quotient were separate arrays
        x = rng.standard_normal((1024, 1024))
        peak = traced_peak(lambda: softmax(x))
        assert peak < 1.1 * x.nbytes, f"peak {peak / 1e6:.1f} MB for an {x.nbytes / 1e6:.1f} MB output"


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
        assert np.abs(conv3x3(x, k, b) - oracles.loop_conv3x3(x, k, b)).max() < 1e-10

    def test_random_cases(self):
        for _ in range(25):
            ci, co = rng.integers(1, 4, size=2)
            h, w = rng.integers(1, 7, size=2)
            x = rng.standard_normal((ci, h, w))
            k = rng.standard_normal((co, ci, 3, 3))
            b = rng.standard_normal(co)
            assert np.abs(conv3x3(x, k, b) - oracles.loop_conv3x3(x, k, b)).max() < 1e-10

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv3x3(np.ones((2, 4, 4)), np.ones((1, 3, 3, 3)), np.zeros(1))


def random_conv(c_in, c_out, h, w):
    return (
        rng.standard_normal((c_in, h, w)),
        rng.standard_normal((c_out, c_in, 3, 3)),
        rng.standard_normal(c_out),
    )


def sparse_input(points, c=3, h=9, w=11, background=(0.4, -1.5, 0.0)):
    """A C x H x W grid holding one background vector, with random pixels at
    the (y, x) ``points``."""
    x = np.empty((c, h, w))
    x[:] = np.asarray(background)[:, None, None]
    for y, xx in points:
        x[:, y, xx] = rng.standard_normal(c)
    return x


def pixels_near(points, h, w):
    """The pixels a conv over a sparse_input must compute: those within one
    pixel of a point or on the grid's border, plus one background pixel."""
    near = {(y + dy, x + dx) for y, x in points for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
    border = {(y, x) for y in range(h) for x in range(w) if y in (0, h - 1) or x in (0, w - 1)}
    n = len({(y, x) for y, x in near | border if 0 <= y < h and 0 <= x < w})
    return n + (n < h * w)


class TestConvBlocks:
    """The pixel-block kernel is bit-identical to the whole-grid im2col, and
    computes only the pixels whose window is not all background."""

    @pytest.mark.parametrize(
        "c_in, c_out, h, w",
        [
            (3, 4, 7, 9),  # odd H and W, one block
            (1, 5, 11, 45),  # C_in = 1; 495 pixels: blocks split rows
            (2, 3, 1, 1),  # a 1 x 1 grid
            (4, 2, 5, 7),  # smaller than one block
            (8, 8, 1, CONV_BLOCK + 1),  # one pixel past a block: two blocks, neither one pixel wide
            (6, 5, 3, 128),  # 128-wide rows, each one block
        ],
    )
    def test_blocks_match_whole_grid(self, c_in, c_out, h, w):
        x, k, b = random_conv(c_in, c_out, h, w)
        assert np.array_equal(conv3x3(x, k, b), oracles.whole_grid_conv3x3(x, k, b))

    @staticmethod
    def assert_matches_oracle(x, c_out=3):
        k, b = rng.standard_normal((c_out, x.shape[0], 3, 3)), rng.standard_normal(c_out)
        got = conv3x3(x, k, b)
        assert got.tobytes() == oracles.whole_grid_conv3x3(x, k, b).tobytes()  # bits, so -0.0 and +0.0 differ

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0), (0, 10), (8, 0), (8, 10)],  # the four corners
            [(0, 5)], [(8, 4)], [(3, 0)], [(6, 10)],  # one on each edge
            [(4, 5), (4, 6)],  # interior only
        ],
    )
    def test_live_points(self, points, conv_pixels):
        self.assert_matches_oracle(sparse_input(points))
        assert conv_pixels == [pixels_near(points, 9, 11)] and conv_pixels[0] < 9 * 11

    def test_all_background(self, conv_pixels):
        self.assert_matches_oracle(sparse_input([]))
        assert conv_pixels == [2 * 9 + 2 * 11 - 4 + 1]  # the border ring and one background pixel

    def test_no_background(self, conv_pixels):
        self.assert_matches_oracle(rng.standard_normal((2, 6, 7)))
        assert conv_pixels == [6 * 7]

    def test_negative_zero_background(self, conv_pixels):
        # background -0.0 in every channel, against the +0.0 zero padding
        self.assert_matches_oracle(sparse_input([(2, 3)], background=(-0.0, -0.0, -0.0)))
        # one -0.0 in a +0.0 background differs in its bits, so it is live
        x = sparse_input([(2, 3)], background=(0.0, 0.0, 0.0))
        x[1, 6, 6] = -0.0
        self.assert_matches_oracle(x)
        assert conv_pixels == [pixels_near([(2, 3)], 9, 11), pixels_near([(2, 3), (6, 6)], 9, 11)]

    def test_live_background_nominee_computes_densely(self, conv_pixels):
        # the first pixel is one ulp off the background in two channels but
        # shares its bit sum, the key the background is nominated by, so the
        # nominee is live and every other pixel differs from it
        x = sparse_input([(4, 5), (7, 2)])
        bits = x.view(np.int64)
        bits[0, 0, 0] += 1
        bits[1, 0, 0] -= 1
        self.assert_matches_oracle(x)
        # a live pixel holding the background's channel-0 value does not mislead it
        x = sparse_input([(4, 5), (7, 2)])
        x[1, 0, 0] = 7.0
        self.assert_matches_oracle(x)
        assert conv_pixels == [9 * 11, pixels_near([(0, 0), (4, 5), (7, 2)], 9, 11)]

    def test_peak_memory_of_one_conv(self, monkeypatch):
        # measured 1.16x with 2 workers (each block in flight adds its own
        # C_in * 9 * CONV_BLOCK patch, 0.07x here); 2.27x before patches were
        # gathered block by block from the unpadded input
        monkeypatch.setattr(rcbev.nn, "_workers", lambda: 2)
        x, k, b = random_conv(64, 64, 128, 128)
        out_bytes = 64 * 128 * 128 * 8
        peak = traced_peak(lambda: conv3x3(x, k, b))
        assert peak < 1.5 * out_bytes, f"peak {peak / 1e6:.1f} MB for an {out_bytes / 1e6:.1f} MB output"


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of the call fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def conv_input(n, sparse):
    """A conv input whose conv3x3 computes exactly n pixels: a dense random
    1 x n grid, or a mostly-background grid with its border ring, at most one
    live point's window and one background pixel computed."""
    if not sparse:
        return rng.standard_normal((3, 1, n))
    if n == 1:  # one background pixel, computed as the grid's border
        return sparse_input([], h=1, w=1)
    # the ring of an h x w grid is 2h + 2w - 4 pixels, a point's window 9 more
    points = [(5, 5)] if n % 2 == 0 else []
    h = 10
    w = (n - 1 - 9 * len(points) + 4) // 2 - h
    return sparse_input(points, h=h, w=w)


class TestConvThreads:
    """conv3x3 gives the same bits on any number of worker threads; a failing
    block fails the call, and no thread outlives it."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 257])
    def test_worker_count_does_not_move_bits(self, monkeypatch, conv_pixels, n, sparse):
        x = conv_input(n, sparse)
        k, b = rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)
        want = oracles.whole_grid_conv3x3(x, k, b).tobytes()
        blocks = -(-n // CONV_BLOCK)
        for workers in (1, 2, 3, blocks + 5):
            monkeypatch.setattr(rcbev.nn, "_workers", lambda workers=workers: workers)
            assert conv3x3(x, k, b).tobytes() == want, workers
        assert conv_pixels == [n] * 4

    def test_many_workers_with_fast_thread_switches(self, monkeypatch):
        # more workers than cores, switching threads every microsecond: a job
        # taken twice or skipped would change the output
        x, k, b = random_conv(2, 3, 40, 50)
        want = oracles.whole_grid_conv3x3(x, k, b).tobytes()
        monkeypatch.setattr(rcbev.nn, "_workers", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert conv3x3(x, k, b).tobytes() == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_block_fails_the_call(self, monkeypatch, workers):
        monkeypatch.setattr(rcbev.nn, "_workers", lambda: workers)
        einsum, lock, calls = np.einsum, threading.Lock(), []

        def second_block_fails(*args, **kwargs):
            with lock:
                calls.append(None)
                if len(calls) == 2:
                    raise ArithmeticError("block failed")
            return einsum(*args, **kwargs)

        monkeypatch.setattr(rcbev.nn.np, "einsum", second_block_fails)
        x, k, b = random_conv(2, 3, 3, 4 * CONV_BLOCK // 3)
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match="block failed"):
            conv3x3(x, k, b)
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_conv(self, monkeypatch):
        monkeypatch.setattr(rcbev.nn, "_workers", lambda: 3)
        threads = threading.active_count()
        x, k, b = random_conv(2, 2, 16, 40)
        conv3x3(x, k, b)
        assert threading.active_count() == threads


ROWS = ["1", "B-1", "B", "B+1", "3B+1"]


def rows(size, block):
    """The row count a ROWS label names, for blocks of ``block`` rows."""
    return {"1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "3B+1": 3 * block + 1}[size]


def worker_counts(n, block):
    """1, 2 and 3 workers, and more workers than n rows make blocks."""
    return (1, 2, 3, -(-n // block) + 5)


class TestAttentionThreads:
    """attend and softmax run blocks of at most ATTN_BLOCK entries on the
    pool and give the bits of one whole-array pass on any number of worker
    threads; a failing block fails the call, and no thread outlives it."""

    @pytest.mark.parametrize("size", ROWS)
    def test_attend_bits(self, monkeypatch, size):
        block = ATTN_BLOCK // 37
        n = rows(size, block)
        w, v = rng.standard_normal((n, 37)), rng.standard_normal((37, 5))
        want = np.einsum("ij,jc->ic", w, v, optimize=False)
        for workers in worker_counts(n, block):
            monkeypatch.setattr(rcbev.nn, "_workers", lambda workers=workers: workers)
            assert np.array_equal(attend(w, v), want), workers

    # each id names the axis reduced, the last
    @pytest.mark.parametrize("shape", [(37,), (3, 4)], ids=["axis1", "axis2"])
    @pytest.mark.parametrize("size", ROWS)
    def test_softmax_bits(self, monkeypatch, size, shape):
        block = ATTN_BLOCK // math.prod(shape)
        n = rows(size, block)
        x = rng.standard_normal((n, *shape)) * 10
        want = oracles.softmax_rows(x)
        for workers in worker_counts(n, block):
            monkeypatch.setattr(rcbev.nn, "_workers", lambda workers=workers: workers)
            assert np.array_equal(softmax(x), want), workers
            y = x.copy()
            assert softmax(y, out=y) is y
            assert np.array_equal(y, want), workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failing_later_block_fails_the_call(self, monkeypatch, workers):
        monkeypatch.setattr(rcbev.nn, "_workers", lambda: workers)
        threads = threading.active_count()
        x = rng.standard_normal((3 * (ATTN_BLOCK // 5) + 1, 5))
        x[-1, 2] = np.nan
        with pytest.raises(DataError):
            softmax(x)
        assert threading.active_count() == threads
        einsum, lock, calls = np.einsum, threading.Lock(), []

        def third_block_fails(*args, **kwargs):
            with lock:
                calls.append(None)
                if len(calls) == 3:
                    raise ArithmeticError("block failed")
            return einsum(*args, **kwargs)

        monkeypatch.setattr(rcbev.nn.np, "einsum", third_block_fails)
        with pytest.raises(ArithmeticError, match="block failed"):
            attend(x, rng.standard_normal((5, 2)))
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(rcbev.nn, "_workers", lambda: 3)
        threads = threading.active_count()
        x = rng.standard_normal((769, 769))  # 10 blocks of 76-77 rows
        softmax(x)
        assert threading.active_count() == threads
        attend(x, x[:, :4])
        assert threading.active_count() == threads


def awkward(shape):
    """Normal draws with about one entry in eight each +0.0, -0.0 and subnormal."""
    x = rng.standard_normal(shape)
    kind = rng.integers(0, 8, size=shape)
    x[kind == 0] = 0.0
    x[kind == 1] = -0.0
    x[kind == 2] *= 1e-310
    return x


def left_fold(shape, terms):
    """0.0 + terms[0] + terms[1] + ..., one IEEE add at a time."""
    acc = np.zeros(shape)
    for t in terms:
        acc += t
    return acc


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernels:
    """nn's three contraction kernels. product and weighted_sum are left folds
    over their reduced axis, term by term in the given order, which a native
    kernel can reproduce bit for bit; contract and a one-column product are
    not, but do not depend on blocking or the worker count."""

    @pytest.mark.parametrize("k", [1, 33, 1152])
    @pytest.mark.parametrize("cols", [2, 9, 129])
    @pytest.mark.parametrize("n", [1, 7, 13])
    def test_product_is_a_left_fold(self, n, cols, k):
        a, b = awkward((n, k)), awkward((k, cols))
        want = left_fold((n, cols), (a[:, j, None] * b[j] for j in range(k)))
        assert same_bits(product(a, b), want)
        out = np.full((n, cols), np.nan)
        assert product(a, b, out=out) is out and same_bits(out, want)
        # a column-major a, and a column slice of a wider row-major b
        a, b = awkward((k, n)).T, awkward((k, cols + 3))[:, 1 : cols + 1]
        assert same_bits(product(a, b), left_fold((n, cols), (a[:, j, None] * b[j] for j in range(k))))

    @pytest.mark.parametrize("k", [1, 33, 1152])
    @pytest.mark.parametrize("cols", [2, 9, 129])
    @pytest.mark.parametrize("n", [1, 7, 13])
    def test_weighted_sum_is_a_left_fold(self, n, cols, k):
        w, v = awkward((n, k)), awkward((n, k, cols))
        assert same_bits(weighted_sum(w, v), left_fold((n, cols), (w[:, j, None] * v[:, j] for j in range(k))))

    @pytest.mark.parametrize("layout", ["contiguous", "column slice"])
    def test_one_column_attend_bits_on_any_worker_count(self, monkeypatch, layout):
        n, k = 3 * (ATTN_BLOCK // 600) + 1, 600  # 4 blocks of rows
        w = awkward((n, k))
        v = awkward((k, 1)) if layout == "contiguous" else awkward((k, 5))[:, 2:3]
        want = product(w, v)
        for workers in (1, 2, 3):
            monkeypatch.setattr(rcbev.nn, "_workers", lambda workers=workers: workers)
            assert same_bits(attend(w, v), want), workers

    @pytest.mark.parametrize("d", [4, 8, 16, 64])
    @pytest.mark.parametrize("n", [13, 257, 864])
    def test_contract_is_the_removed_logits_string(self, n, d):
        q, k = awkward((n, d)), awkward((n, d))
        want = np.einsum("id,jd->ij", q, k, optimize=False)
        assert same_bits(contract(q, k), want)
        rows = np.empty((n, n))
        for start in range(0, n, 75):  # blocks of query rows, as dmsa_weights fills them
            contract(q[start : start + 75], k, out=rows[start : start + 75])
        assert same_bits(rows, want)


class TestBatchNorm:
    def test_identity_stats(self):
        x = rng.standard_normal((3, 4, 4))
        out = batch_norm_2d(x, identity_norm(3, eps=1e-300, batch=True))
        assert np.abs(out - x).max() < 1e-12

    def test_normalizes_with_stats(self):
        x = np.full((1, 2, 2), 7.0)
        p = NormParams(np.ones(1), np.zeros(1), 1e-300, mean=np.array([5.0]), var=np.array([4.0]))
        assert np.allclose(batch_norm_2d(x, p), 1.0, atol=1e-12)

    def test_in_place_matches_new_array(self):
        x = rng.standard_normal((3, 4, 5))
        p = NormParams(
            rng.standard_normal(3), rng.standard_normal(3), 1e-5, mean=rng.standard_normal(3), var=rng.uniform(0.1, 2.0, 3)
        )
        want = batch_norm_2d(x, p)
        assert batch_norm_2d(x, p, out=x) is x
        assert x.tobytes() == want.tobytes()

    def test_negative_variance_rejected(self):
        with pytest.raises(DataError):
            NormParams(np.ones(1), np.zeros(1), 1e-5, mean=np.zeros(1), var=np.array([-1.0]))


def test_key_order_gathers_bit_identical_rows():
    # duplicates, a row equal in one block only, and +0.0 vs -0.0 (equal
    # values, different bits): the gathered bytes must not depend on input order
    a = rng.standard_normal((8, 3))
    b = rng.standard_normal((8, 2))
    a[5], b[5] = a[1], b[1]
    a[6] = a[2]
    a[7], b[7] = 0.0, b[3]
    a[3] = 0.0
    a[7, 0] = -0.0
    order = key_order(a, b)
    canon = (a[order].tobytes(), b[order].tobytes())
    for _ in range(10):
        p = rng.permutation(8)
        o = key_order(a[p], b[p])
        assert (a[p][o].tobytes(), b[p][o].tobytes()) == canon
