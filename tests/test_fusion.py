import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import rcbev.fusion
import rcbev.nn
from rcbev import oracles
from rcbev.bev import BevGrid, BevSpec, CbrBlockParams, bev_encode, cbr_residual, encoder_schema
from rcbev.errors import ConfigError, ShapeError
from rcbev.fusion import (
    QUERY_BLOCK,
    AlignParams,
    DeformAttnParams,
    add_pos_embed,
    channel_spatial_fuse,
    cross_align,
    deform_attn,
    fusion_schema,
)
from rcbev.nn import identity_norm
from rcbev.weights import init_weights, record_tensors

rng = np.random.default_rng(31)


def spec_of(h, w):
    return BevSpec.from_extent(0.0, float(w), 0.0, float(h), 1.0)


def random_deform(cq, cv, m, k, offset_scale=0.7):
    d = cv // m
    adapt = None
    if cq != cv:
        adapt = (rng.standard_normal((cv, cq)), rng.standard_normal(cv))
    return DeformAttnParams(
        m=m,
        k=k,
        w_off=rng.standard_normal((2 * m * k, cv)) * offset_scale,
        b_off=rng.standard_normal(2 * m * k) * offset_scale,
        w_att=rng.standard_normal((m * k, cv)),
        b_att=rng.standard_normal(m * k),
        w_val=rng.standard_normal((m, d, cv)),
        w_out=rng.standard_normal((m, cv, d)),
        adapt=adapt,
    )


def identity_deform(c):
    return DeformAttnParams(
        m=1, k=1,
        w_off=np.zeros((2, c)), b_off=np.zeros(2),
        w_att=np.zeros((1, c)), b_att=np.zeros(1),
        w_val=np.eye(c)[None], w_out=np.eye(c)[None],
    )


class TestAddPosEmbed:
    def test_zero_embedding_identity(self):
        g = BevGrid(rng.standard_normal((3, 4, 5)), spec_of(4, 5))
        out = add_pos_embed(g, np.zeros((3, 4, 5)))
        assert np.array_equal(out.data, g.data)

    def test_zero_feature_passes_embedding(self):
        e = rng.standard_normal((3, 4, 5))
        g = BevGrid(np.zeros((3, 4, 5)), spec_of(4, 5))
        assert np.array_equal(add_pos_embed(g, e).data, e)

    def test_commutes_with_channel_slicing(self):
        e = rng.standard_normal((4, 3, 3))
        g = BevGrid(rng.standard_normal((4, 3, 3)), spec_of(3, 3))
        out = add_pos_embed(g, e)
        assert np.array_equal(out.data[:2], g.data[:2] + e[:2])

    def test_shape_mismatch(self):
        g = BevGrid(np.zeros((2, 3, 3)), spec_of(3, 3))
        with pytest.raises(ShapeError):
            add_pos_embed(g, np.zeros((3, 3, 3)))


class TestDeformAttn:
    def test_single_sample_identity(self):
        c, h, w = 3, 5, 6
        values = rng.standard_normal((c, h, w))
        out = deform_attn(rng.standard_normal((c, h, w)), None, values, identity_deform(c))
        assert np.abs(out - values).max() < 1e-12

    def test_coincident_samples_ignore_attention(self):
        # K=2 with zero offsets: both samples hit the same location, so the
        # output is W_out W_val F regardless of the attention split
        c, h, w = 4, 4, 4
        values = rng.standard_normal((c, h, w))
        queries = rng.standard_normal((c, h, w))
        w_val = rng.standard_normal((1, c, c))
        w_out = rng.standard_normal((1, c, c))
        p = DeformAttnParams(
            m=1, k=2,
            w_off=np.zeros((4, c)), b_off=np.zeros(4),
            w_att=rng.standard_normal((2, c)), b_att=rng.standard_normal(2),
            w_val=w_val, w_out=w_out,
        )
        out = deform_attn(queries, None, values, p)
        ref = np.einsum("oc,chw->ohw", w_out[0] @ w_val[0], values)
        assert np.abs(out - ref).max() < 1e-10

    def test_matches_nested_loop_oracle(self):
        for _ in range(12):
            h = w = int(rng.integers(3, 7))
            m = int(rng.choice([1, 2]))
            cv = m * int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            queries = rng.standard_normal((cv, h, w))
            values = rng.standard_normal((cv, h, w))
            p = random_deform(cv, cv, m, k)
            got = deform_attn(queries, None, values, p)
            ref = oracles.deform_reference(
                queries, values, p.w_off, p.b_off, p.w_att, p.b_att, p.w_val, p.w_out, p.adapt
            )
            assert np.abs(got - ref).max() < 1e-10

    def test_channel_adapter_path(self):
        cq, cv, h, w = 3, 4, 5, 5
        queries = rng.standard_normal((cq, h, w))
        values = rng.standard_normal((cv, h, w))
        p = random_deform(cq, cv, 2, 2)
        got = deform_attn(queries, None, values, p)
        ref = oracles.deform_reference(
            queries, values, p.w_off, p.b_off, p.w_att, p.b_att, p.w_val, p.w_out, p.adapt
        )
        assert np.abs(got - ref).max() < 1e-10

    def test_missing_adapter_rejected(self):
        p = identity_deform(4)
        with pytest.raises(ShapeError):
            deform_attn(np.zeros((3, 4, 4)), None, np.zeros((4, 4, 4)), p)

    @pytest.mark.parametrize("cv, h, w, m", [(4, 6, 6, 4), (4, 6, 6, 2), (6, 16, 16, 3), (64, 24, 24, 4)])
    def test_value_projection_is_the_removed_string(self, monkeypatch, cv, h, w, m):
        p = random_deform(cv, cv, m, 2)
        values = rng.standard_normal((cv, h, w))
        flats = []

        def recording(flat, *args, _fn=rcbev.fusion._sample_pool):
            flats.append(flat)
            return _fn(flat, *args)

        monkeypatch.setattr(rcbev.nn, "_workers", lambda: 1)  # heads in order, block after block
        monkeypatch.setattr(rcbev.fusion, "_sample_pool", recording)
        deform_attn(rng.standard_normal((cv, h, w)), None, values, p)
        assert len(flats) == m * -(-h * w // QUERY_BLOCK)
        for head, flat in enumerate(flats[:m]):
            want = np.einsum("dc,chw->dhw", p.w_val[head], values, optimize=False).transpose(1, 2, 0)
            assert flat.tobytes() == np.ascontiguousarray(want).tobytes()
            assert flat.shape == (h * w, cv // m)

    def test_weights_sum_to_one(self):
        c, h, w, m, k = 4, 6, 6, 2, 4
        p = random_deform(c, c, m, k)
        queries = rng.standard_normal((c, h, w)) * 5
        a = rcbev.fusion._query_rows(queries.reshape(c, -1), p)[1]
        assert a.shape == (h * w, m, k)
        assert np.abs(a.sum(axis=2) - 1).max() < 1e-6

    def test_translation_consistency(self):
        # zero learned offsets, content strictly interior: integer translation
        # of features and queries translates the output identically
        c, h, w = 3, 8, 8
        p = random_deform(c, c, 2, 2, offset_scale=0.0)
        queries = np.zeros((c, h, w))
        values = np.zeros((c, h, w))
        queries[:, 2:5, 2:5] = rng.standard_normal((c, 3, 3))
        values[:, 2:5, 2:5] = rng.standard_normal((c, 3, 3))
        out = deform_attn(queries, None, values, p)
        dq = np.roll(queries, (2, 1), axis=(1, 2))
        dv = np.roll(values, (2, 1), axis=(1, 2))
        shifted = deform_attn(dq, None, dv, p)
        assert np.array_equal(shifted, np.roll(out, (2, 1), axis=(1, 2)))

    def test_beta_like_degenerate_input_is_total(self):
        c, h, w = 3, 4, 4
        p = random_deform(c, c, 2, 2)
        out = deform_attn(np.zeros((c, h, w)), None, np.zeros((c, h, w)), p)
        assert np.all(np.isfinite(out))


class TestDeformThreads:
    """deform_attn runs its query blocks as jobs on nn's pool: the bits are
    those of one block on any number of worker threads, and the softmax
    inside a job runs on that job's thread."""

    @pytest.mark.parametrize("n", [1, QUERY_BLOCK - 1, QUERY_BLOCK, QUERY_BLOCK + 1, 3 * QUERY_BLOCK + 1])
    def test_bits_do_not_depend_on_blocks_or_workers(self, monkeypatch, n):
        queries, values = rng.standard_normal((3, 1, n)), rng.standard_normal((4, 1, n))
        p = random_deform(3, 4, 2, 2)
        monkeypatch.setattr(rcbev.fusion, "QUERY_BLOCK", n)
        want = deform_attn(queries, None, values, p)
        monkeypatch.setattr(rcbev.fusion, "QUERY_BLOCK", QUERY_BLOCK)
        for workers in (1, 2, 3, -(-n // QUERY_BLOCK) + 5):
            monkeypatch.setattr(rcbev.nn, "_workers", lambda workers=workers: workers)
            assert np.array_equal(deform_attn(queries, None, values, p), want), workers

    def test_many_workers_with_fast_thread_switches(self, monkeypatch):
        # more workers than cores, switching threads every microsecond, with a
        # nested softmax pool in every job: a block taken twice or skipped, or
        # a busy flag lost between threads, would change the output
        n = 3 * QUERY_BLOCK + 1
        queries, values = rng.standard_normal((3, 1, n)), rng.standard_normal((3, 1, n))
        p = random_deform(3, 3, 2, 2)
        monkeypatch.setattr(rcbev.nn, "ATTN_BLOCK", 64)  # each job's softmax has 32 blocks
        monkeypatch.setattr(rcbev.nn, "_workers", lambda: 1)
        want = deform_attn(queries, None, values, p)
        monkeypatch.setattr(rcbev.nn, "_workers", lambda: 8)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert np.array_equal(deform_attn(queries, None, values, p), want)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads

    def test_nested_pool_stays_within_the_workers(self, monkeypatch):
        workers = 3
        monkeypatch.setattr(rcbev.nn, "_workers", lambda: workers)
        # blocks of 16 rows of M * K = 4 softmax entries: each job's softmax would split
        monkeypatch.setattr(rcbev.nn, "ATTN_BLOCK", 64)
        lock, started, live, peak = threading.Lock(), [0], [0], [0]

        class Counted(threading.Thread):
            def run(self):
                with lock:
                    started[0] += 1
                    live[0] += 1
                    peak[0] = max(peak[0], live[0])
                try:
                    super().run()
                finally:
                    with lock:
                        live[0] -= 1

        softmax_rows = []

        def softmax(x, *args, _fn=rcbev.fusion.softmax, **kwargs):
            softmax_rows.append(len(x))
            return _fn(x, *args, **kwargs)

        monkeypatch.setattr(rcbev.nn.threading, "Thread", Counted)
        monkeypatch.setattr(rcbev.fusion, "softmax", softmax)
        threads = threading.active_count()
        n = 3 * QUERY_BLOCK
        p = random_deform(3, 3, 2, 2)
        deform_attn(rng.standard_normal((3, 1, n)), None, rng.standard_normal((3, 1, n)), p)
        # each job's softmax spans several row blocks, yet starts no thread:
        # only the query-block pool's own workers ran beside the caller
        assert softmax_rows == [QUERY_BLOCK] * 3
        assert started[0] == workers - 1
        assert 1 + peak[0] <= workers
        assert threading.active_count() == threads


class TestCrossAlign:
    def test_pass_through_with_zero_outputs(self):
        c, h, w = 4, 6, 6
        spec = spec_of(h, w)
        f_c = BevGrid(rng.standard_normal((c, h, w)), spec)
        f_r = BevGrid(rng.standard_normal((c, h, w)), spec)
        pos_c, pos_r = rng.standard_normal((2, c, h, w))
        params = AlignParams(
            pos_c, pos_r,
            replace(random_deform(c, c, 2, 2), w_out=np.zeros((2, c, c // 2))),
            replace(random_deform(c, c, 2, 2), w_out=np.zeros((2, c, c // 2))),
        )
        out_c, out_r = cross_align(f_c, f_r, params)
        assert np.array_equal(out_c.data, f_c.data + pos_c)
        assert np.array_equal(out_r.data, f_r.data + pos_r)

    def test_matches_two_oracle_calls(self):
        c_c, c_r, h, w = 4, 2, 5, 5
        spec = spec_of(h, w)
        f_c = BevGrid(rng.standard_normal((c_c, h, w)), spec)
        f_r = BevGrid(rng.standard_normal((c_r, h, w)), spec)
        pos_c = rng.standard_normal((c_c, h, w))
        pos_r = rng.standard_normal((c_r, h, w))
        r2c = random_deform(c_r, c_c, 2, 3)
        c2r = random_deform(c_c, c_r, 1, 2)
        params = AlignParams(pos_c, pos_r, r2c, c2r)
        out_c, out_r = cross_align(f_c, f_r, params)
        cam = f_c.data + pos_c
        rad = f_r.data + pos_r
        ref_c = cam + oracles.deform_reference(
            rad, cam, r2c.w_off, r2c.b_off, r2c.w_att, r2c.b_att, r2c.w_val, r2c.w_out, r2c.adapt
        )
        ref_r = rad + oracles.deform_reference(
            cam, rad, c2r.w_off, c2r.b_off, c2r.w_att, c2r.b_att, c2r.w_val, c2r.w_out, c2r.adapt
        )
        assert np.abs(out_c.data - ref_c).max() < 1e-10
        assert np.abs(out_r.data - ref_r).max() < 1e-10

    def test_updates_use_pre_update_inputs(self):
        # reversing the call order of the two updates must not matter
        c, h, w = 2, 4, 4
        spec = spec_of(h, w)
        f_c = BevGrid(rng.standard_normal((c, h, w)), spec)
        f_r = BevGrid(rng.standard_normal((c, h, w)), spec)
        params = AlignParams(
            np.zeros((c, h, w)), np.zeros((c, h, w)),
            random_deform(c, c, 1, 2), random_deform(c, c, 1, 2),
        )
        out_c1, out_r1 = cross_align(f_c, f_r, params)
        out_c2, out_r2 = cross_align(f_c, f_r, params)
        assert np.array_equal(out_c1.data, out_c2.data)
        assert np.array_equal(out_r1.data, out_r2.data)

    def test_size_mismatch_rejected(self):
        f_c = BevGrid(np.zeros((2, 4, 4)), spec_of(4, 4))
        f_r = BevGrid(np.zeros((2, 5, 5)), spec_of(5, 5))
        params = AlignParams(
            np.zeros((2, 4, 4)), np.zeros((2, 5, 5)),
            identity_deform(2), identity_deform(2),
        )
        with pytest.raises(ShapeError):
            cross_align(f_c, f_r, params)

    def test_extent_mismatch_rejected_before_attention(self, monkeypatch):
        # same 4 x 4 size, grids 4 m apart: rejected before any attention runs
        f_c = BevGrid(np.zeros((2, 4, 4)), spec_of(4, 4))
        f_r = BevGrid(np.zeros((2, 4, 4)), BevSpec.from_extent(4.0, 8.0, 0.0, 4.0, 1.0))
        params = AlignParams(np.zeros((2, 4, 4)), np.zeros((2, 4, 4)), identity_deform(2), identity_deform(2))

        def no_attention(*args):
            raise AssertionError("deform_attn ran on mismatched grids")

        monkeypatch.setattr(rcbev.fusion, "deform_attn", no_attention)
        with pytest.raises(ShapeError, match="differ"):
            cross_align(f_c, f_r, params)


class TestCbrAndFuse:
    def test_fuser_is_the_encoder_stack(self):
        assert channel_spatial_fuse is bev_encode

    def test_cbr_identity_on_nonnegative(self):
        c = 3
        k = np.zeros((c, c, 3, 3))
        for i in range(c):
            k[i, i, 1, 1] = 1.0
        p = CbrBlockParams(k, np.zeros(c), identity_norm(c, eps=1e-300, batch=True))
        x = np.abs(rng.standard_normal((c, 5, 5)))
        # the CBR path reproduces x, and the identity skip adds x again
        assert np.abs(cbr_residual(x, p) - 2 * x).max() < 1e-12

    def test_cbr_relu_floor(self):
        c = 2
        p = CbrBlockParams(
            np.zeros((c, c, 3, 3)), np.full(c, -100.0), identity_norm(c, batch=True)
        )
        x = rng.standard_normal((c, 4, 4))
        # the CBR path is floored to zero, so only the identity skip remains
        assert np.array_equal(cbr_residual(x, p), x)

    def test_cbr_matches_composed_oracle(self):
        ci, co = 2, 3
        k = rng.standard_normal((co, ci, 3, 3))
        b = rng.standard_normal(co)
        bn_scale = rng.uniform(0.5, 1.5, co)
        bn_shift = rng.standard_normal(co)
        bn_mean = rng.standard_normal(co)
        bn_var = rng.uniform(0.5, 2.0, co)
        from rcbev.nn import NormParams

        proj_w, proj_b = rng.standard_normal((co, ci)), rng.standard_normal(co)
        p = CbrBlockParams(k, b, NormParams(bn_scale, bn_shift, 1e-5, mean=bn_mean, var=bn_var), (proj_w, proj_b))
        x = rng.standard_normal((ci, 6, 6))
        conv = oracles.loop_conv3x3(x, k, b)
        bn = (conv - bn_mean[:, None, None]) / np.sqrt(bn_var[:, None, None] + 1e-5) * bn_scale[
            :, None, None
        ] + bn_shift[:, None, None]
        skip = np.einsum("kc,chw->khw", proj_w, x) + proj_b[:, None, None]
        ref = np.maximum(bn, 0.0) + skip
        assert np.abs(cbr_residual(x, p) - ref).max() < 1e-9

    def test_concat_channel_count(self):
        c, h, w = 3, 4, 4
        spec = spec_of(h, w)
        f_c = BevGrid(rng.standard_normal((c, h, w)), spec)
        f_r = BevGrid(rng.standard_normal((c, h, w)), spec)

        def zero_cbr(cin):
            return CbrBlockParams(np.zeros((cin, cin, 3, 3)), np.zeros(cin), identity_norm(cin, batch=True))

        params = (zero_cbr(2 * c), zero_cbr(2 * c))
        fused = channel_spatial_fuse(f_c, f_r, params)
        assert fused.data.shape == (2 * c, h, w)

    def test_zero_kernels_pure_residual(self):
        c, h, w = 2, 5, 5
        spec = spec_of(h, w)
        f_c = BevGrid(rng.standard_normal((c, h, w)), spec)
        f_r = BevGrid(rng.standard_normal((c, h, w)), spec)

        def zero_cbr(cin):
            return CbrBlockParams(np.zeros((cin, cin, 3, 3)), np.zeros(cin), identity_norm(cin, batch=True))

        params = tuple(zero_cbr(2 * c) for _ in range(4))
        fused = channel_spatial_fuse(f_c, f_r, params)
        assert np.array_equal(fused.data, np.concatenate([f_c.data, f_r.data], axis=0))

    def test_matches_sequential_oracle(self):
        c, h, w = 2, 5, 5
        spec = spec_of(h, w)
        f_c = BevGrid(rng.standard_normal((c, h, w)), spec)
        f_r = BevGrid(rng.standard_normal((c, h, w)), spec)
        c_in, c_out = 2 * c, 3
        from rcbev.nn import NormParams

        def rand_cbr(ci, co):
            return CbrBlockParams(
                rng.standard_normal((co, ci, 3, 3)) * 0.4,
                rng.standard_normal(co) * 0.1,
                NormParams(
                    rng.uniform(0.5, 1.5, co), rng.standard_normal(co) * 0.1, 1e-5,
                    mean=rng.standard_normal(co) * 0.1, var=rng.uniform(0.5, 2.0, co),
                ),
                proj=(rng.standard_normal((co, ci)), rng.standard_normal(co)) if ci != co else None,
            )

        params = (rand_cbr(c_in, c_out), rand_cbr(c_out, c_out), rand_cbr(c_out, c_out))
        fused = channel_spatial_fuse(f_c, f_r, params)

        x = np.concatenate([f_c.data, f_r.data], axis=0)
        for blk in params:
            conv = oracles.loop_conv3x3(x, blk.conv_w, blk.conv_b)
            bn = (conv - blk.bn.mean[:, None, None]) / np.sqrt(blk.bn.var[:, None, None] + 1e-5) * blk.bn.scale[
                :, None, None
            ] + blk.bn.shift[:, None, None]
            y = np.maximum(bn, 0.0)
            res = (np.einsum("kc,chw->khw", blk.proj[0], x) + blk.proj[1][:, None, None]) if blk.proj else x
            x = y + res
        assert np.abs(fused.data - x).max() < 1e-9


# the three-block CBR stack of each schema, as a function of (src, c_in, c_out)
CBR_STACKS = {
    "encoder": lambda src, c_in, c_out: encoder_schema(src, 2, (3,), c_in - 2, 3, c_out, 1e-5)[1],
    "fuser": lambda src, c_in, c_out: fusion_schema(src, c_in - 2, 2, 4, 4, 1, 2, c_out, 2, 1e-5)[1],
}


class TestParamBuilders:
    def test_tensor_specs_and_builders_roundtrip(self):
        c_cam, c_rad, h, w, m, k = 4, 2, 6, 6, 2, 3
        dims = (c_cam, c_rad, h, w, m, k, 8, 2, 1e-5)  # c_fused=8, fuse_blocks=2
        ws = init_weights(record_tensors(fusion_schema, *dims), 0)
        align, fuse = fusion_schema(ws, *dims)
        assert align.r2c.adapt is not None  # c_rad != c_cam needs mapping
        assert align.r2c.w_val.shape == (m, c_cam // m, c_cam)
        assert len(fuse) == 1 + 2  # fuse.res, then fuse_blocks=2
        assert fuse[0].proj is not None  # concat 6 -> fused 8 needs a 1x1 skip
        # concat width equal to fused width means the residual proj is absent
        dims2 = (3, 3, h, w, 1, 2, 6, 1, 1e-5)
        _, fuse2 = fusion_schema(init_weights(record_tensors(fusion_schema, *dims2), 0), *dims2)
        assert fuse2[0].proj is None

    @pytest.mark.parametrize("stack", sorted(CBR_STACKS))
    @pytest.mark.parametrize("c_in, c_out", [(6, 4), (4, 4)])
    def test_cbr_stack_projects_first_block_only_when_widths_change(self, stack, c_in, c_out):
        schema = CBR_STACKS[stack]
        blocks = schema(init_weights(record_tensors(schema, c_in, c_out), 0), c_in, c_out)
        assert [b.conv_w.shape[:2] for b in blocks] == [(c_out, c_in), (c_out, c_out), (c_out, c_out)]
        assert (blocks[0].proj is not None) == (c_in != c_out)
        assert all(b.proj is None for b in blocks[1:])

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            record_tensors(fusion_schema, 5, 5, 4, 4, 2, 2, 10, 1, 1e-5)


def sample_at_offset(g, du, dv):
    """deform_attn as a pure bilinear sampler: one head, one point, zero
    offset and attention projections, identity value and output projections,
    and a constant offset bias, so every pixel reads g at its own center plus
    (du, dv)."""
    p = replace(identity_deform(g.shape[0]), b_off=np.array([du, dv]))
    return deform_attn(np.zeros_like(g), None, g, p)


class TestBilinear:
    def test_integer_coordinate_exact(self):
        g = rng.standard_normal((4, 5, 6))
        out = sample_at_offset(g, 2.0, 1.0)
        assert np.array_equal(out[:, :-1, :-2], g[:, 1:, 2:])
        # samples that land past the bottom or right edge read zeros
        assert not out[:, -1:, :].any() and not out[:, :, -2:].any()

    def test_midpoint(self):
        g = np.zeros((1, 2, 2))
        g[0, 0, 1] = 1.0
        assert np.allclose(sample_at_offset(g, 0.5, 0.0)[:, 0, 0], [0.5], atol=1e-15)
        g = rng.standard_normal((3, 4, 5))
        right = np.zeros_like(g)
        right[:, :, :-1] = g[:, :, 1:]
        assert np.array_equal(sample_at_offset(g, 0.5, 0.0), 0.5 * (g + right))

    def test_outside_is_zero(self):
        g = rng.standard_normal((3, 4, 4))
        assert np.array_equal(sample_at_offset(g, -5.0, -5.0), np.zeros((3, 4, 4)))

    def test_linear_along_axes(self):
        g = rng.standard_normal((2, 6, 6))
        for _ in range(50):
            du, dv = rng.uniform(-1.5, 1.5, size=2)
            out = sample_at_offset(g, du, dv)
            for y in range(6):
                for x in range(6):
                    ref = oracles.bilinear_point(g, x + du, y + dv)
                    assert np.abs(out[:, y, x] - ref).max() < 1e-12


def test_bilinear_outer_corner_exact():
    g = rng.standard_normal((2, 3, 4))
    out = sample_at_offset(g, 1.0, 0.0)
    assert np.array_equal(out[:, 2, 2], g[:, 2, 3])
    # one step past the corner: zero padding
    assert np.array_equal(out[:, 2, 3], np.zeros(2))
