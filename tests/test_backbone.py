import math

import numpy as np
import pytest

import helpers
from rcbev.backbone import (
    AttnHeadParams,
    BackboneArch,
    CrossAttnParams,
    ExtractionParams,
    InjectionParams,
    MultiHeadDmsaParams,
    TransformerBlockParams,
    backbone_schema,
    dmsa_head,
    dmsa_weights,
    dual_backbone_forward,
    extract,
    inject,
    multi_head_dmsa,
    pairwise_sq_dist,
    point_block,
    tensor_specs,
    transformer_block,
)
from rcbev.errors import ConfigError, EmptyInputError, ShapeError, WeightLookupError
from rcbev.ingest import PointFeatureSet
from rcbev.nn import MlpLayer, MlpParams, identity_norm, layer_norm, mlp
from rcbev.weights import WeightSet, init_weights

rng = np.random.default_rng(7)


def random_mha(c, h, betas=None):
    d = c // h
    heads = tuple(
        AttnHeadParams(
            rng.standard_normal((d, c)),
            rng.standard_normal((d, c)),
            rng.standard_normal((d, c)),
            beta=0.0 if betas is None else betas[i],
        )
        for i in range(h)
    )
    return MultiHeadDmsaParams(heads, rng.standard_normal((c, c)), rng.standard_normal(c))


def random_cross(c, heads=1):
    d = c // heads
    hp = tuple(
        AttnHeadParams(
            rng.standard_normal((d, c)), rng.standard_normal((d, c)), rng.standard_normal((d, c))
        )
        for _ in range(heads)
    )
    return CrossAttnParams(
        identity_norm(c), identity_norm(c), hp,
        rng.standard_normal((c, c)), rng.standard_normal(c),
    )


class TestPointBlock:
    def test_identity_mlp(self):
        p = MlpParams((MlpLayer(np.eye(1), np.zeros(1), relu=False),))
        out = point_block(np.array([[1.0], [3.0]]), p)
        assert np.array_equal(out, [[1.0, 3.0], [3.0, 3.0]])

    def test_single_point_duplicates(self):
        p = MlpParams((MlpLayer(rng.standard_normal((4, 3)), rng.standard_normal(4), True),))
        f = rng.standard_normal((1, 3))
        out = point_block(f, p)
        assert np.array_equal(out[0, :4], out[0, 4:])

    def test_matches_composition(self):
        p = MlpParams((MlpLayer(rng.standard_normal((6, 4)), rng.standard_normal(6), True),))
        f = rng.standard_normal((10, 4))
        g = np.maximum(helpers.loop_matmul(f, p.layers[0].w, p.layers[0].b), 0.0)
        pooled = g.max(axis=0)
        ref = np.concatenate([g, np.tile(pooled, (10, 1))], axis=1)
        assert np.abs(point_block(f, p) - ref).max() < 1e-10

    def test_empty_rejected(self):
        p = MlpParams((MlpLayer(np.eye(2), np.zeros(2)),))
        with pytest.raises(EmptyInputError):
            point_block(np.zeros((0, 2)), p)


class TestPairwiseSqDist:
    def test_three_four_five(self):
        out = pairwise_sq_dist(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.array_equal(out, [[0.0, 25.0], [25.0, 0.0]])

    def test_identical_points(self):
        out = pairwise_sq_dist(np.ones((4, 2)))
        assert np.array_equal(out, np.zeros((4, 4)))

    def test_matches_loop(self):
        coords = rng.uniform(-50, 50, size=(20, 2))
        ref = np.zeros((20, 20))
        for i in range(20):
            for j in range(20):
                ref[i, j] = (coords[i, 0] - coords[j, 0]) ** 2 + (coords[i, 1] - coords[j, 1]) ** 2
        assert np.abs(pairwise_sq_dist(coords) - ref).max() < 1e-9

    def test_symmetric_zero_diag(self):
        coords = rng.uniform(-5, 5, size=(15, 2))
        d2 = pairwise_sq_dist(coords)
        assert np.array_equal(d2, d2.T)
        assert np.array_equal(np.diag(d2), np.zeros(15))


class TestDmsaHead:
    def test_uniform_logits_average(self):
        q = k = np.array([[1.0], [1.0]])
        v = np.array([[2.0], [4.0]])
        out = dmsa_head(q, k, v, np.zeros((2, 2)), 0.0)
        assert np.allclose(out, [[3.0], [3.0]], atol=1e-12)

    def test_distance_penalty_value(self):
        q = k = np.array([[1.0], [1.0]])
        v = np.array([[2.0], [4.0]])
        d2 = np.array([[0.0, 4.0], [4.0, 0.0]])
        out = dmsa_head(q, k, v, d2, 0.5)
        # row 0 logits = [1, 1 - 2] -> softmax([1, -1]) . [2, 4]
        w0 = math.exp(1.0) / (math.exp(1.0) + math.exp(-1.0))
        expected = w0 * 2.0 + (1 - w0) * 4.0
        assert abs(out[0, 0] - expected) < 1e-12
        assert abs(out[0, 0] - 2.2384) < 1e-4

    def test_huge_beta_is_self_attention(self):
        n, d = 6, 3
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        d2 = pairwise_sq_dist(rng.uniform(-10, 10, size=(n, 2)))
        out = dmsa_head(q, k, v, d2, 1e9)
        assert np.array_equal(out, v)

    def test_beta_zero_equals_vanilla(self):
        n, d = 9, 4
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        d2 = pairwise_sq_dist(rng.uniform(-10, 10, size=(n, 2)))
        assert np.abs(dmsa_head(q, k, v, d2, 0.0) - helpers.dense_attention(q, k, v)).max() < 1e-12

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError):
            dmsa_head(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)), np.zeros((2, 2)), -1.0)

    def test_weights_row_stochastic(self):
        q, k = rng.standard_normal((12, 3)), rng.standard_normal((12, 3))
        d2 = pairwise_sq_dist(rng.uniform(-5, 5, size=(12, 2)))
        w = dmsa_weights(q, k, d2, 0.7)
        assert np.abs(w.sum(axis=1) - 1).max() < 1e-6

    def test_locality_monotone_in_beta(self):
        q, k = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))
        coords = rng.uniform(-10, 10, size=(10, 2))
        d2 = pairwise_sq_dist(coords)
        far = int(np.argmax(d2[0]))
        prev = np.inf
        for beta in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0):
            w = dmsa_weights(q, k, d2, beta)[0, far]
            assert w <= prev + 1e-15
            prev = w


class TestMultiHeadDmsa:
    def test_single_head_with_identity_out_proj(self):
        c = 4
        head = AttnHeadParams(
            rng.standard_normal((c, c)), rng.standard_normal((c, c)), rng.standard_normal((c, c)), 0.3
        )
        p = MultiHeadDmsaParams((head,), np.eye(c), np.zeros(c))
        f = rng.standard_normal((7, c))
        coords = rng.uniform(-4, 4, size=(7, 2))
        d2 = pairwise_sq_dist(coords)
        from rcbev.nn import contract

        ref = dmsa_head(contract(f, head.wq), contract(f, head.wk), contract(f, head.wv), d2, 0.3)
        assert np.array_equal(multi_head_dmsa(f, coords, p), ref)

    def test_beta_zero_matches_dense_oracle(self):
        for _ in range(30):
            h = int(rng.choice([1, 2, 4]))
            c = h * int(rng.integers(1, 5))
            n = int(rng.integers(2, 20))
            f = rng.standard_normal((n, c))
            coords = rng.uniform(-20, 20, size=(n, 2))
            p = random_mha(c, h)
            ref = helpers.dense_mha(f, [(hd.wq, hd.wk, hd.wv) for hd in p.heads], p.wo, p.bo)
            assert np.abs(multi_head_dmsa(f, coords, p) - ref).max() < 1e-10

    def test_nonzero_beta_matches_formula(self):
        h, c, n = 2, 6, 11
        betas = [0.4, 1.7]
        p = random_mha(c, h, betas)
        f = rng.standard_normal((n, c))
        coords = rng.uniform(-8, 8, size=(n, 2))
        ref = helpers.dmsa_reference(
            f, coords, [(hd.wq, hd.wk, hd.wv, hd.beta) for hd in p.heads], p.wo, p.bo
        )
        assert np.abs(multi_head_dmsa(f, coords, p) - ref).max() < 1e-10

    def test_permutation_equivariance(self):
        c, h, n = 8, 2, 14
        p = random_mha(c, h, [0.5, 2.0])
        f = rng.standard_normal((n, c))
        coords = rng.uniform(-10, 10, size=(n, 2))
        out = multi_head_dmsa(f, coords, p)
        for _ in range(5):
            perm = rng.permutation(n)
            assert np.array_equal(multi_head_dmsa(f[perm], coords[perm], p), out[perm])

    def test_head_tiling_enforced(self):
        heads = (AttnHeadParams(np.ones((3, 8)), np.ones((3, 8)), np.ones((3, 8))),)
        with pytest.raises(ConfigError):
            MultiHeadDmsaParams(heads, np.eye(8), np.zeros(8))


class TestTransformerBlock:
    def zero_block(self, c, h):
        d = c // h
        heads = tuple(
            AttnHeadParams(np.zeros((d, c)), np.zeros((d, c)), np.zeros((d, c))) for _ in range(h)
        )
        return TransformerBlockParams(
            identity_norm(c),
            MultiHeadDmsaParams(heads, np.zeros((c, c)), np.zeros(c)),
            identity_norm(c),
            MlpParams((MlpLayer(np.zeros((c, c)), np.zeros(c), True), MlpLayer(np.zeros((c, c)), np.zeros(c), False))),
        )

    def test_zero_weights_identity(self):
        f = rng.standard_normal((5, 6))
        coords = rng.uniform(-3, 3, size=(5, 2))
        assert np.array_equal(transformer_block(f, coords, self.zero_block(6, 2)), f)

    def test_single_point_runs(self):
        c = 4
        p = TransformerBlockParams(
            identity_norm(c),
            random_mha(c, 2, [1.0, 1.0]),
            identity_norm(c),
            MlpParams((MlpLayer(rng.standard_normal((c, c)), rng.standard_normal(c), True),
                       MlpLayer(rng.standard_normal((c, c)), rng.standard_normal(c), False))),
        )
        out = transformer_block(rng.standard_normal((1, c)), np.zeros((1, 2)), p)
        assert out.shape == (1, c)

    def test_matches_step_by_step(self):
        c, h, n = 6, 2, 9
        p = TransformerBlockParams(
            identity_norm(c),
            random_mha(c, h, [0.2, 0.9]),
            identity_norm(c),
            MlpParams((MlpLayer(rng.standard_normal((2 * c, c)), rng.standard_normal(2 * c), True),
                       MlpLayer(rng.standard_normal((c, 2 * c)), rng.standard_normal(c), False))),
        )
        f = rng.standard_normal((n, c))
        coords = rng.uniform(-6, 6, size=(n, 2))
        y = f + multi_head_dmsa(layer_norm(f, p.ln1), coords, p.attn)
        ref = y + mlp(layer_norm(y, p.ln2), p.ffn)
        assert np.abs(transformer_block(f, coords, p) - ref).max() < 1e-9


class TestInjectExtract:
    def test_gamma_zero_is_bit_identity(self):
        c = 6
        p = InjectionParams(random_cross(c), np.zeros(c))
        f_p = rng.standard_normal((8, c))
        f_t = rng.standard_normal((8, c))
        assert np.array_equal(inject(f_p, f_t, p), f_p)

    def test_constant_keys_give_constant_attention(self):
        c = 4
        p = InjectionParams(random_cross(c), np.ones(c))
        f_p = rng.standard_normal((6, c))
        f_t = np.tile(rng.standard_normal(c), (6, 1))
        out = inject(f_p, f_t, p)
        delta = out - f_p
        # every query attends over identical keys/values: the added term is constant
        assert np.abs(delta - delta[0]).max() < 1e-12

    def test_inject_matches_dense_oracle(self):
        c = 5
        p = InjectionParams(random_cross(c), np.ones(c))
        f_p = rng.standard_normal((7, c))
        f_t = rng.standard_normal((7, c))
        qn = layer_norm(f_p, p.attn.lnq)
        kn = layer_norm(f_t, p.attn.lnkv)
        hd = p.attn.heads[0]
        att = helpers.dense_attention(qn @ hd.wq.T, kn @ hd.wk.T, kn @ hd.wv.T)
        ref = f_p + att @ p.attn.wo.T + p.attn.bo
        assert np.abs(inject(f_p, f_t, p) - ref).max() < 1e-10

    def test_extract_zero_weights_passes_f_t(self):
        c = 4
        d = c
        heads = (AttnHeadParams(np.zeros((d, c)), np.zeros((d, c)), np.zeros((d, c))),)
        attn = CrossAttnParams(identity_norm(c), identity_norm(c), heads, np.zeros((c, c)), np.zeros(c))
        p = ExtractionParams(
            attn,
            identity_norm(c),
            MlpParams((MlpLayer(np.zeros((c, c)), np.zeros(c), True), MlpLayer(np.zeros((c, c)), np.zeros(c), False))),
        )
        f_t = rng.standard_normal((5, c))
        f_p = rng.standard_normal((5, c))
        assert np.array_equal(extract(f_t, f_p, p), f_t)

    def test_extract_single_point(self):
        c = 4
        p = ExtractionParams(
            random_cross(c),
            identity_norm(c),
            MlpParams((MlpLayer(rng.standard_normal((c, c)), rng.standard_normal(c), True),
                       MlpLayer(rng.standard_normal((c, c)), rng.standard_normal(c), False))),
        )
        out = extract(rng.standard_normal((1, c)), rng.standard_normal((1, c)), p)
        assert out.shape == (1, c)

    def test_extract_matches_composition(self):
        c = 6
        p = ExtractionParams(
            random_cross(c),
            identity_norm(c),
            MlpParams((MlpLayer(rng.standard_normal((2 * c, c)), rng.standard_normal(2 * c), True),
                       MlpLayer(rng.standard_normal((c, 2 * c)), rng.standard_normal(c), False))),
        )
        f_t = rng.standard_normal((9, c))
        f_p = rng.standard_normal((9, c))
        qn = layer_norm(f_t, p.attn.lnq)
        kn = layer_norm(f_p, p.attn.lnkv)
        hd = p.attn.heads[0]
        att = helpers.dense_attention(qn @ hd.wq.T, kn @ hd.wk.T, kn @ hd.wv.T)
        y = f_t + (att @ p.attn.wo.T + p.attn.bo)
        ref = y + mlp(layer_norm(y, p.ffn_ln), p.ffn)
        assert np.abs(extract(f_t, f_p, p) - ref).max() < 1e-10

    def test_shape_mismatch(self):
        c = 4
        p = InjectionParams(random_cross(c), np.zeros(c))
        with pytest.raises(ShapeError):
            inject(np.ones((3, c)), np.ones((4, c)), p)


ARCH = BackboneArch(in_channels=7, widths=(8, 12), dmsa_heads=2, cross_heads=1, ffn_mult=2)


def make_feats(n):
    feats = rng.standard_normal((n, 7))
    coords = rng.uniform(-20, 20, size=(n, 2))
    rcs = rng.uniform(0, 1, size=n)
    return PointFeatureSet(feats, coords, rcs)


class TestDualBackbone:
    def test_stage_counts_instrumented(self):
        arch = BackboneArch(in_channels=7, widths=(8, 8, 8), dmsa_heads=2)
        w = init_weights(tensor_specs(arch), 0)
        res = dual_backbone_forward(make_feats(6), w, arch)
        assert res.inject_calls == 3
        assert res.extract_calls == 3
        assert len(res.stage_outputs) == 3

    def test_output_widths(self):
        w = init_weights(tensor_specs(ARCH), 1)
        res = dual_backbone_forward(make_feats(5), w, ARCH)
        assert res.f_p.shape == (5, 12)
        assert res.f_t.shape == (5, 12)
        assert res.fused.shape == (5, 12)

    def test_stream_decoupling_with_zero_gates(self):
        w = init_weights(tensor_specs(ARCH), 2)
        # gamma starts at zero already; kill extraction attention + ffn to fully decouple
        for name in list(w.entries):
            if ".extract." in name and name.endswith(".w"):
                w.entries[name] = np.zeros_like(w.entries[name])
        feats = make_feats(6)
        res = dual_backbone_forward(feats, w, ARCH)
        params = backbone_schema(w, ARCH)
        f_p = feats.features
        for st in params.stages:
            f_p = point_block(f_p, st.point_mlp)
        assert np.array_equal(res.f_p, f_p)

    def test_permutation_equivariance(self):
        w = init_weights(tensor_specs(ARCH), 3)
        feats = make_feats(10)
        res = dual_backbone_forward(feats, w, ARCH)
        for _ in range(3):
            perm = rng.permutation(10)
            shuffled = PointFeatureSet(
                feats.features[perm], feats.coords[perm], feats.rcs_norm[perm]
            )
            res_p = dual_backbone_forward(shuffled, w, ARCH)
            assert np.array_equal(res_p.fused, res.fused[perm])
            assert np.array_equal(res_p.f_p, res.f_p[perm])
            assert np.array_equal(res_p.f_t, res.f_t[perm])

    def test_matches_straight_line_reimplementation(self):
        arch = BackboneArch(in_channels=7, widths=(8,), dmsa_heads=2)
        w = init_weights(tensor_specs(arch), 4)
        # randomize the gates so the test exercises real coupling
        w.entries["stage1.inject.gamma"] = rng.standard_normal(8)
        w.entries["stage1.tf.attn.head0.beta"] = np.array([0.3])
        w.entries["stage1.tf.attn.head1.beta"] = np.array([1.2])
        feats = make_feats(4)
        res = dual_backbone_forward(feats, w, arch)
        p = backbone_schema(w, arch)
        st = p.stages[0]
        f_p = point_block(feats.features, st.point_mlp)
        f_t = feats.features @ st.tf_in[0].T + st.tf_in[1]
        f_t = transformer_block(f_t, feats.coords, st.tf)
        f_p = inject(f_p, f_t, st.inject)
        f_t = extract(f_t, f_p, st.extract)
        fused = np.concatenate([f_p, f_t], axis=1) @ p.merge_w.T + p.merge_b
        assert np.abs(res.fused - fused).max() < 1e-9

    def test_empty_input_rejected(self):
        w = init_weights(tensor_specs(ARCH), 0)
        with pytest.raises(EmptyInputError):
            dual_backbone_forward(make_feats(0), w, ARCH)

    def test_missing_weights_lookup_error(self):
        with pytest.raises(WeightLookupError):
            dual_backbone_forward(make_feats(3), WeightSet(), ARCH)

    def test_beta_clamped_at_load(self):
        w = init_weights(tensor_specs(ARCH), 5)
        w.entries["stage1.tf.attn.head0.beta"] = np.array([-3.0])
        params = backbone_schema(w, ARCH)
        assert params.stages[0].tf.attn.heads[0].beta == 0.0
