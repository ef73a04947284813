import math
from dataclasses import replace

import numpy as np
import pytest

import rcbev.backbone
import rcbev.nn
from rcbev import oracles
from rcbev.backbone import (
    CrossAttnParams,
    ExtractionParams,
    InjectionParams,
    MultiHeadDmsaParams,
    TransformerBlockParams,
    _multi_head,
    backbone_schema,
    cross_attention,
    dmsa_head,
    dmsa_weights,
    dual_backbone_forward,
    extract,
    inject,
    multi_head_dmsa,
    point_block,
    transformer_block,
)
from rcbev.config import PipelineConfig, load_config
from rcbev.errors import ConfigError, EmptyInputError, ShapeError, WeightLookupError
from rcbev.ingest import PointFeatureSet
from rcbev.nn import (
    ATTN_BLOCK,
    MlpLayer,
    MlpParams,
    NormParams,
    contract,
    identity_norm,
    key_order,
    layer_norm,
    linear,
    mlp,
)
from rcbev.weights import WeightSet, init_weights, record_tensors

rng = np.random.default_rng(7)
# N x N logits are one attention block up to N = sqrt(ATTN_BLOCK) = B rows
B = math.isqrt(ATTN_BLOCK)


def random_mha(c, h, betas=None):
    """Stacked params, drawn head by head (wq, wk, wv, each d x C), then wo, bo."""
    per_head = [[rng.standard_normal((c // h, c)) for _ in range(3)] for _ in range(h)]
    wq, wk, wv = (np.concatenate(w) for w in zip(*per_head))
    beta = (0.0,) * h if betas is None else tuple(betas)
    return MultiHeadDmsaParams(wq, wk, wv, beta, rng.standard_normal((c, c)), rng.standard_normal(c))


def random_cross(c, heads=1):
    return CrossAttnParams(identity_norm(c), identity_norm(c), random_mha(c, heads))


def zero_mha(c, h):
    z = np.zeros((c, c))
    return MultiHeadDmsaParams(z, z, z, (0.0,) * h, z, np.zeros(c))


def tied_rows(r, c):
    """Rows with ties: exact duplicates, equal features at other coords,
    equal coords with other features, and signed zeros."""
    f = r.standard_normal((6, c))
    coords = r.uniform(-5, 5, size=(6, 2))
    f = np.concatenate([f, f[:3], f[3:5], r.standard_normal((2, c)), np.zeros((2, c))])
    coords = np.concatenate([coords, coords[:3], r.uniform(-5, 5, size=(2, 2)), coords[:2], np.zeros((2, 2))])
    f[-1, 0] = -0.0
    return f, coords


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
        g = np.maximum(oracles.loop_matmul(f, p.layers[0].w, p.layers[0].b), 0.0)
        pooled = g.max(axis=0)
        ref = np.concatenate([g, np.tile(pooled, (10, 1))], axis=1)
        assert np.abs(point_block(f, p) - ref).max() < 1e-10

    def test_empty_rejected(self):
        p = MlpParams((MlpLayer(np.eye(2), np.zeros(2)),))
        with pytest.raises(EmptyInputError):
            point_block(np.zeros((0, 2)), p)


class TestPairwiseSqDist:
    def test_three_four_five(self):
        out = oracles.pairwise_sq_dist(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.array_equal(out, [[0.0, 25.0], [25.0, 0.0]])

    def test_identical_points(self):
        out = oracles.pairwise_sq_dist(np.ones((4, 2)))
        assert np.array_equal(out, np.zeros((4, 4)))

    def test_matches_loop(self):
        coords = rng.uniform(-50, 50, size=(20, 2))
        ref = np.zeros((20, 20))
        for i in range(20):
            for j in range(20):
                ref[i, j] = (coords[i, 0] - coords[j, 0]) ** 2 + (coords[i, 1] - coords[j, 1]) ** 2
        assert np.abs(oracles.pairwise_sq_dist(coords) - ref).max() < 1e-9

    def test_symmetric_zero_diag(self):
        coords = rng.uniform(-5, 5, size=(15, 2))
        d2 = oracles.pairwise_sq_dist(coords)
        assert np.array_equal(d2, d2.T)
        assert np.array_equal(np.diag(d2), np.zeros(15))


class TestDmsaHead:
    def test_uniform_logits_average(self):
        q = k = np.array([[1.0], [1.0]])
        v = np.array([[2.0], [4.0]])
        out = dmsa_head(q, k, v, (np.zeros((2, 2)), np.zeros((2, 2))), 0.0)
        assert np.allclose(out, [[3.0], [3.0]], atol=1e-12)

    def test_distance_penalty_value(self):
        q = k = np.array([[1.0], [1.0]])
        v = np.array([[2.0], [4.0]])
        # squared distances [[0, 4], [4, 0]]
        coords = np.array([[0.0, 0.0], [2.0, 0.0]])
        out = dmsa_head(q, k, v, (coords, coords), 0.5)
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
        coords = rng.uniform(-10, 10, size=(n, 2))
        out = dmsa_head(q, k, v, (coords, coords), 1e9)
        assert np.array_equal(out, v)

    def test_beta_zero_equals_vanilla(self):
        n, d = 9, 4
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        coords = rng.uniform(-10, 10, size=(n, 2))
        assert np.abs(dmsa_head(q, k, v, (coords, coords), 0.0) - oracles.dense_attention(q, k, v)).max() < 1e-12

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError):
            dmsa_head(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)), (np.zeros((2, 2)), np.zeros((2, 2))), -1.0)

    def test_weights_row_stochastic(self):
        q, k = rng.standard_normal((12, 3)), rng.standard_normal((12, 3))
        coords = rng.uniform(-5, 5, size=(12, 2))
        w = dmsa_weights(q, k, (coords, coords), 0.7)
        assert np.abs(w.sum(axis=1) - 1).max() < 1e-6

    def test_locality_monotone_in_beta(self):
        q, k = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))
        coords = rng.uniform(-10, 10, size=(10, 2))
        far = int(np.argmax(oracles.pairwise_sq_dist(coords)[0]))
        prev = np.inf
        for beta in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0):
            w = dmsa_weights(q, k, (coords, coords), beta)[0, far]
            assert w <= prev + 1e-15
            prev = w


class TestMultiHeadDmsa:
    def test_single_head_with_identity_out_proj(self):
        c = 4
        wq, wk, wv = (rng.standard_normal((c, c)) for _ in range(3))
        p = MultiHeadDmsaParams(wq, wk, wv, (0.3,), np.eye(c), np.zeros(c))
        f = rng.standard_normal((7, c))
        coords = rng.uniform(-4, 4, size=(7, 2))
        # keys and key coordinates in the canonical order multi_head_dmsa uses
        order = key_order(f, coords)
        fk = f[order]
        ref = dmsa_head(
            contract(f, wq), contract(fk, wk), contract(fk, wv), (coords, coords[order]), 0.3
        )
        assert np.array_equal(multi_head_dmsa(f, coords, p), ref)

    def test_beta_zero_matches_dense_oracle(self):
        for _ in range(30):
            h = int(rng.choice([1, 2, 4]))
            c = h * int(rng.integers(1, 5))
            n = int(rng.integers(2, 20))
            f = rng.standard_normal((n, c))
            coords = rng.uniform(-20, 20, size=(n, 2))
            p = random_mha(c, h)
            ref = oracles.dense_mha(f, oracles.split_heads(h, p.wq, p.wk, p.wv), p.wo, p.bo)
            assert np.abs(multi_head_dmsa(f, coords, p) - ref).max() < 1e-10

    def test_nonzero_beta_matches_formula(self):
        h, c, n = 2, 6, 11
        betas = [0.4, 1.7]
        p = random_mha(c, h, betas)
        f = rng.standard_normal((n, c))
        coords = rng.uniform(-8, 8, size=(n, 2))
        ref = oracles.dmsa_reference(
            f, coords, oracles.split_heads(h, p.wq, p.wk, p.wv, np.array(p.beta)), p.wo, p.bo
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

    def test_permutation_equivariance_with_ties(self):
        r = np.random.default_rng(11)
        c, h = 8, 2
        p = random_mha(c, h, [0.5, 2.0])
        f, coords = tied_rows(r, c)
        out = multi_head_dmsa(f, coords, p)
        for _ in range(5):
            perm = r.permutation(len(f))
            assert np.array_equal(multi_head_dmsa(f[perm], coords[perm], p), out[perm])

    def test_head_tiling_enforced(self):
        w = np.ones((3, 8))
        with pytest.raises(ConfigError):
            MultiHeadDmsaParams(w, w, w, (0.0,), np.eye(8), np.zeros(8))
        # cross-attention holds the same params type, so its heads are checked too
        with pytest.raises(ConfigError):
            CrossAttnParams(
                identity_norm(8), identity_norm(8), MultiHeadDmsaParams(w, w, w, (0.0,), np.eye(8), np.zeros(8))
            )

    @pytest.mark.parametrize("heads", [0, 3, 5])
    def test_head_count_must_divide_c(self, heads):
        w = np.ones((8, 8))
        with pytest.raises(ConfigError, match="heads do not tile"):
            MultiHeadDmsaParams(w, w, w, (0.0,) * heads, w, np.zeros(8))

    @pytest.mark.parametrize("shape", [(4, 8), (8, 4), (8,), (16, 16)])
    @pytest.mark.parametrize("name", ["wq", "wk", "wv"])
    def test_projections_must_be_c_by_c(self, name, shape):
        w = np.ones((8, 8))
        given = dict(wq=w, wk=w, wv=w, beta=(0.0, 0.0), wo=w, bo=np.zeros(8))
        with pytest.raises(ConfigError, match=name):
            MultiHeadDmsaParams(**{**given, name: np.ones(shape)})

    @pytest.mark.parametrize("n", [13, B + 1])
    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_equals_per_head_calls_on_contiguous_projections(self, h, n):
        c = 8
        p = random_mha(c, h, betas=rng.uniform(0.0, 2.0, h))
        xq, xkv = rng.standard_normal((n, c)), rng.standard_normal((n, c))
        coords = rng.uniform(-10, 10, size=(n, 2))
        for xy in ((coords, coords[rng.permutation(n)]), None):
            outs = [
                dmsa_head(contract(xq, wq), contract(xkv, wk), contract(xkv, wv), xy, beta)
                for (wq, wk, wv), beta in zip(oracles.split_heads(h, p.wq, p.wk, p.wv), p.beta)
            ]
            want = linear(np.concatenate(outs, axis=1), p.wo, p.bo)
            assert np.array_equal(_multi_head(xq, xkv, p, xy), want)

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_three_projection_contractions_per_layer(self, monkeypatch, h):
        calls = []

        def counted(x, w, out=None, _fn=rcbev.backbone.contract):
            if w.shape == (x.shape[-1],) * 2:  # a C x C projection, not a block of DMSA logits
                calls.append(w.shape)
            return _fn(x, w, out=out)

        monkeypatch.setattr(rcbev.backbone, "contract", counted)
        c, n = 8, 9
        f, g = rng.standard_normal((n, c)), rng.standard_normal((n, c))
        multi_head_dmsa(f, rng.uniform(-5, 5, size=(n, 2)), random_mha(c, h, [0.5] * h))
        assert calls == [(c, c)] * 3
        cross_attention(f, g, random_cross(c, heads=h))
        assert calls == [(c, c)] * 6
        # a whole backbone: DMSA, inject and extract in each of its two stages
        calls.clear()
        w = init_weights(record_tensors(backbone_schema, *ARCH), 0)
        dual_backbone_forward(make_feats(n), backbone_schema(w, *ARCH))
        assert len(calls) == 3 * 3 * len(ARCH[0])


class TestTransformerBlock:
    def zero_block(self, c, h):
        return TransformerBlockParams(
            identity_norm(c),
            zero_mha(c, h),
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

    def test_permutation_equivariance_with_ties(self):
        r = np.random.default_rng(12)
        c = 6
        inj = InjectionParams(random_cross(c, heads=2), r.standard_normal(c))
        ext = ExtractionParams(
            random_cross(c, heads=2),
            identity_norm(c),
            MlpParams((MlpLayer(r.standard_normal((c, c)), r.standard_normal(c), True),
                       MlpLayer(r.standard_normal((c, c)), r.standard_normal(c), False))),
        )
        f_p, _ = tied_rows(r, c)
        f_t = np.concatenate([f_p[4:], f_p[:4]])
        out_i = inject(f_p, f_t, inj)
        out_e = extract(f_t, f_p, ext)
        for _ in range(5):
            perm = r.permutation(len(f_p))
            assert np.array_equal(inject(f_p[perm], f_t[perm], inj), out_i[perm])
            assert np.array_equal(extract(f_t[perm], f_p[perm], ext), out_e[perm])

    def test_inject_matches_dense_oracle(self):
        c = 5
        p = InjectionParams(random_cross(c), np.ones(c))
        f_p = rng.standard_normal((7, c))
        f_t = rng.standard_normal((7, c))
        qn = layer_norm(f_p, p.attn.lnq)
        kn = layer_norm(f_t, p.attn.lnkv)
        a = p.attn.attn
        att = oracles.dense_attention(qn @ a.wq.T, kn @ a.wk.T, kn @ a.wv.T)
        ref = f_p + att @ p.attn.attn.wo.T + p.attn.attn.bo
        assert np.abs(inject(f_p, f_t, p) - ref).max() < 1e-10

    def test_multi_head_cross_attention_matches_dense_oracle_per_head(self):
        r = np.random.default_rng(13)
        c, n = 6, 9
        lnq = NormParams(r.uniform(0.5, 2.0, c), r.standard_normal(c), 1e-5)
        lnkv = NormParams(r.uniform(0.5, 2.0, c), r.standard_normal(c), 1e-3)
        p = replace(random_cross(c, heads=2), lnq=lnq, lnkv=lnkv)
        q_in, kv_in = r.standard_normal((n, c)), r.standard_normal((n, c))

        def ln(x, norm):
            centered = x - x.mean(axis=1, keepdims=True)
            return centered / np.sqrt(x.var(axis=1, keepdims=True) + norm.eps) * norm.scale + norm.shift

        qn, kn = ln(q_in, lnq), ln(kv_in, lnkv)
        att = np.concatenate(
            [
                oracles.dense_attention(qn @ wq.T, kn @ wk.T, kn @ wv.T)
                for wq, wk, wv in oracles.split_heads(2, p.attn.wq, p.attn.wk, p.attn.wv)
            ],
            axis=1,
        )
        ref = att @ p.attn.wo.T + p.attn.bo
        assert np.abs(cross_attention(q_in, kv_in, p) - ref).max() < 1e-10

    def test_extract_zero_weights_passes_f_t(self):
        c = 4
        attn = CrossAttnParams(identity_norm(c), identity_norm(c), zero_mha(c, 1))
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
        a = p.attn.attn
        att = oracles.dense_attention(qn @ a.wq.T, kn @ a.wk.T, kn @ a.wv.T)
        y = f_t + (att @ p.attn.attn.wo.T + p.attn.attn.bo)
        ref = y + mlp(layer_norm(y, p.ffn_ln), p.ffn)
        assert np.abs(extract(f_t, f_p, p) - ref).max() < 1e-10

    def test_shape_mismatch(self):
        c = 4
        p = InjectionParams(random_cross(c), np.zeros(c))
        with pytest.raises(ShapeError):
            inject(np.ones((3, c)), np.ones((4, c)), p)


ARCH = ((8, 12), 2, 1, 2, 1e-5)  # backbone_schema sizes: widths, dmsa_heads, cross_heads, ffn_mult, eps


ROWS = [1, B - 1, B, B + 1, 3 * B + 1]


def each_worker_count(monkeypatch, n):
    """Set nn's pool to 1, 2 and 3 workers, then to more workers than the
    N x N logits make blocks, yielding after each."""
    for workers in (1, 2, 3, -(-n // (ATTN_BLOCK // n)) + 5):
        monkeypatch.setattr(rcbev.nn, "_workers", lambda workers=workers: workers)
        yield workers


class TestAttentionThreads:
    """DMSA and cross-attention fill and softmax their logits in blocks of
    query rows on nn's pool: the bits are those of whole-matrix operations,
    on any number of worker threads."""

    @pytest.mark.parametrize("n", ROWS)
    def test_dmsa_weights_bits(self, monkeypatch, n):
        d, beta = 4, 0.3
        q, k = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        coords = rng.uniform(-10, 10, size=(n, 2))
        order = rng.permutation(n)
        # whole-matrix logits, an N x N distance matrix gathered to key order, one softmax
        logits = np.einsum("id,jd->ij", q, k, optimize=False)
        logits /= math.sqrt(d)
        plain = oracles.softmax_rows(logits)
        logits -= beta * oracles.pairwise_sq_dist(coords)[:, order]
        want = oracles.softmax_rows(logits)
        for workers in each_worker_count(monkeypatch, n):
            assert np.array_equal(dmsa_weights(q, k, (coords, coords[order]), beta), want), workers
            assert np.array_equal(dmsa_weights(q, k, None, beta), plain), workers

    @pytest.mark.parametrize("n", ROWS)
    def test_multi_head_and_cross_attention_bits(self, monkeypatch, n):
        c = 8
        f, g = rng.standard_normal((n, c)), rng.standard_normal((n, c))
        coords = rng.uniform(-10, 10, size=(n, 2))
        dmsa, cross = random_mha(c, 2, betas=[0.2, 1.5]), random_cross(c, heads=2)
        want = None
        for workers in each_worker_count(monkeypatch, n):
            got = multi_head_dmsa(f, coords, dmsa), cross_attention(f, g, cross)
            want = want or got
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), workers

    def test_coordinate_shapes_checked(self):
        q = np.ones((3, 2))
        with pytest.raises(ShapeError, match="coords"):
            dmsa_weights(q, q, (np.zeros((3, 2)), np.zeros((2, 2))), 1.0)
        with pytest.raises(ShapeError, match="coords"):
            dmsa_weights(q, q, (np.zeros((3, 3)), np.zeros((3, 3))), 1.0)


def make_feats(n):
    feats = rng.standard_normal((n, 7))
    coords = rng.uniform(-20, 20, size=(n, 2))
    rcs = rng.uniform(0, 1, size=n)
    return PointFeatureSet(feats, coords, rcs)


class TestDualBackbone:
    def test_stage_counts_instrumented(self, backbone_calls):
        arch = ((8, 8, 8), 2, 1, 2, 1e-5)
        w = init_weights(record_tensors(backbone_schema, *arch), 0)
        dual_backbone_forward(make_feats(6), backbone_schema(w, *arch))
        assert backbone_calls == {"inject": 3, "extract": 3}

    def test_output_widths(self):
        w = init_weights(record_tensors(backbone_schema, *ARCH), 1)
        res = dual_backbone_forward(make_feats(5), backbone_schema(w, *ARCH))
        assert res.f_p.shape == (5, 12)
        assert res.f_t.shape == (5, 12)
        assert res.fused.shape == (5, 12)

    def test_stream_decoupling_with_zero_gates(self):
        w = init_weights(record_tensors(backbone_schema, *ARCH), 2)
        # gamma starts at zero already; kill extraction attention + ffn to fully decouple
        for name in list(w.entries):
            if ".extract." in name and name.endswith(".w"):
                w.entries[name] = np.zeros_like(w.entries[name])
        feats = make_feats(6)
        params = backbone_schema(w, *ARCH)
        res = dual_backbone_forward(feats, params)
        f_p = feats.features
        for st in params.stages:
            f_p = point_block(f_p, st.point_mlp)
        assert np.array_equal(res.f_p, f_p)

    def test_permutation_equivariance(self):
        params = backbone_schema(init_weights(record_tensors(backbone_schema, *ARCH), 3), *ARCH)
        feats = make_feats(10)
        res = dual_backbone_forward(feats, params)
        for _ in range(3):
            perm = rng.permutation(10)
            shuffled = PointFeatureSet(
                feats.features[perm], feats.coords[perm], feats.rcs_norm[perm]
            )
            res_p = dual_backbone_forward(shuffled, params)
            assert np.array_equal(res_p.fused, res.fused[perm])
            assert np.array_equal(res_p.f_p, res.f_p[perm])
            assert np.array_equal(res_p.f_t, res.f_t[perm])

    def test_matches_straight_line_reimplementation(self):
        arch = ((8,), 2, 1, 2, 1e-5)
        w = init_weights(record_tensors(backbone_schema, *arch), 4)
        # randomize the gates so the test exercises real coupling
        w.entries["stage1.inject.gamma"] = rng.standard_normal(8)
        w.entries["stage1.tf.attn.head0.beta"] = np.array([0.3])
        w.entries["stage1.tf.attn.head1.beta"] = np.array([1.2])
        feats = make_feats(4)
        p = backbone_schema(w, *arch)
        res = dual_backbone_forward(feats, p)
        st = p.stages[0]
        f_p = point_block(feats.features, st.point_mlp)
        f_t = feats.features @ st.tf_in[0].T + st.tf_in[1]
        f_t = transformer_block(f_t, feats.coords, st.tf)
        f_p = inject(f_p, f_t, st.inject)
        f_t = extract(f_t, f_p, st.extract)
        fused = np.concatenate([f_p, f_t], axis=1) @ p.merge_w.T + p.merge_b
        assert np.abs(res.fused - fused).max() < 1e-9

    def test_empty_input_rejected(self):
        params = backbone_schema(init_weights(record_tensors(backbone_schema, *ARCH), 0), *ARCH)
        with pytest.raises(EmptyInputError):
            dual_backbone_forward(make_feats(0), params)

    @pytest.mark.parametrize(
        "bad",
        [
            {"dmsa_heads": 0},
            {"cross_heads": 0},
            {"stage_widths": (8, 7), "dmsa_heads": 1},  # odd width
            {"stage_widths": (8, 6), "dmsa_heads": 4},
            {"stage_widths": (8, 6), "dmsa_heads": 2, "cross_heads": 4},
            "backbone.dmsa_heads = 0",
            "backbone.cross_heads = 0",
            "backbone.widths = 8,7\nbackbone.dmsa_heads = 1",
            "backbone.widths = 8,6\nbackbone.dmsa_heads = 4",
            "backbone.widths = 8,6\nbackbone.dmsa_heads = 2\nbackbone.cross_heads = 4",
        ],
    )
    def test_non_positive_dims_rejected(self, bad, tmp_path):
        with pytest.raises(ConfigError, match="heads = 0|stage_widths"):
            if isinstance(bad, str):
                path = tmp_path / "cfg.txt"
                path.write_text(bad + "\n")
                load_config(path)
            else:
                PipelineConfig(**bad)

    def test_missing_weights_lookup_error(self):
        with pytest.raises(WeightLookupError):
            backbone_schema(WeightSet(), *ARCH)

    def test_beta_clamped_at_load(self):
        w = init_weights(record_tensors(backbone_schema, *ARCH), 5)
        w.entries["stage1.tf.attn.head0.beta"] = np.array([-3.0])
        params = backbone_schema(w, *ARCH)
        assert params.stages[0].tf.attn.beta[0] == 0.0
