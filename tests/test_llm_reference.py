"""The golden numpy transformer: shapes, invariants, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ExecutionError
from repro.llm import KVState, ReferenceModel, random_weights, tiny_config
from repro.llm import reference
from repro.llm.reference import (causal_mask, gelu, layernorm,
                                 scaled_normal, softmax)


class TestPrimitives:
    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).standard_normal((5, 9)).astype(np.float32)
        s = softmax(x)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-5)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), rtol=1e-5)

    def test_layernorm_zero_mean_unit_var(self):
        x = np.random.default_rng(1).standard_normal((4, 64)).astype(
            np.float32) * 10
        g = np.ones(64, dtype=np.float32)
        b = np.zeros(64, dtype=np.float32)
        y = layernorm(x, g, b)
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-2)

    def test_gelu_limits(self):
        assert gelu(np.float32(10.0)) == pytest.approx(10.0, rel=1e-3)
        assert gelu(np.float32(-10.0)) == pytest.approx(0.0, abs=1e-3)
        assert gelu(np.float32(0.0)) == 0.0

    def test_causal_mask_offset(self):
        mask = causal_mask(2, 5, offset=2)
        assert mask[0].tolist() == [True, True, True, False, False]
        assert mask[1].tolist() == [True, True, True, True, False]

    @given(st.integers(1, 6), st.integers(1, 10))
    def test_causal_mask_full_when_offset_large(self, rows, cols):
        assert causal_mask(rows, cols, offset=cols).all()


class TestWeights:
    def test_random_weights_deterministic(self, tiny_cfg):
        a = random_weights(tiny_cfg, seed=5)
        b = random_weights(tiny_cfg, seed=5)
        np.testing.assert_array_equal(a.token_embedding, b.token_embedding)
        np.testing.assert_array_equal(a.layers[0].w_qkv, b.layers[0].w_qkv)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_chunked_draws_match_one_shot(self, chunk):
        # Sizes that are not a multiple of the chunk (and one below it),
        # drawn one after another from one stream through one buffer.
        one_shot = np.random.default_rng(3)
        chunked = np.random.default_rng(3)
        buf = np.empty(chunk)
        for shape in [(13, 17), (5, 3), (64, 10)]:
            expected = (one_shot.standard_normal(shape) * 0.02) \
                .astype(np.float32)
            got = scaled_normal(chunked, 0.02, buf,
                                np.empty(shape, dtype=np.float32))
            assert got.dtype == np.float32 and got.shape == shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [7, reference.NORMAL_CHUNK])
    def test_random_weights_match_one_shot_draws(self, tiny_cfg, chunk,
                                                 monkeypatch):
        # The matrices as drawn before chunking, in draw order.
        monkeypatch.setattr(reference, "NORMAL_CHUNK", chunk)
        rng = np.random.default_rng(5)
        d, dff, vocab = tiny_cfg.d_model, tiny_cfg.d_ff, tiny_cfg.vocab_size

        def mat(rows, cols):
            return (rng.standard_normal((rows, cols)) * 0.02) \
                .astype(np.float32)

        expected = []
        for _ in range(tiny_cfg.num_layers):
            expected += [mat(d, 3 * d), mat(d, d), mat(d, dff), mat(dff, d)]
        expected += [mat(vocab, d), mat(tiny_cfg.max_seq_len, d),
                     mat(d, vocab)]
        w = random_weights(tiny_cfg, seed=5)
        got = [m for layer in w.layers
               for m in (layer.w_qkv, layer.w_proj, layer.w_fc1,
                         layer.w_fc2)]
        got += [w.token_embedding, w.position_embedding, w.lm_head]
        assert [m.tobytes() for m in got] == [m.tobytes() for m in expected]

    def test_named_tensors_complete(self, tiny_weights, tiny_cfg):
        tensors = tiny_weights.named_tensors()
        assert "token_embedding" in tensors
        assert f"layer{tiny_cfg.num_layers - 1}.w_fc2" in tensors
        # 5 globals + 12 tensors per layer.
        assert len(tensors) == 5 + 12 * tiny_cfg.num_layers

    def test_weight_shapes(self, tiny_weights, tiny_cfg):
        d, dff = tiny_cfg.d_model, tiny_cfg.d_ff
        layer = tiny_weights.layers[0]
        assert layer.w_qkv.shape == (d, 3 * d)
        assert layer.w_fc1.shape == (d, dff)
        assert tiny_weights.lm_head.shape == (d, tiny_cfg.vocab_size)


class TestForward:
    def test_logits_shape(self, reference_model, tiny_cfg):
        logits = reference_model.forward([1, 2, 3], KVState())
        assert logits.shape == (tiny_cfg.vocab_size,)

    def test_kv_grows_per_stage(self, reference_model):
        kv = KVState()
        reference_model.forward([1, 2, 3], kv)
        assert kv.context_len == 3
        reference_model.forward([4], kv)
        assert kv.context_len == 4

    def test_incremental_equals_full_recompute(self, reference_model):
        """KV-cached decoding must equal recomputing from scratch."""
        prompt = [3, 1, 4, 1, 5]
        kv = KVState()
        reference_model.forward(prompt[:-1], kv)
        incremental = reference_model.forward([prompt[-1]], kv)
        full = reference_model.forward(prompt, KVState())
        np.testing.assert_allclose(incremental, full, rtol=1e-4, atol=1e-5)

    def test_rejects_out_of_vocab_token(self, reference_model, tiny_cfg):
        with pytest.raises(ExecutionError):
            reference_model.forward([tiny_cfg.vocab_size], KVState())

    def test_rejects_empty_tokens(self, reference_model):
        with pytest.raises(ConfigurationError):
            reference_model.forward([], KVState())

    def test_rejects_overlong_sequence(self, tiny_cfg):
        model = ReferenceModel(random_weights(tiny_cfg, seed=0))
        too_long = list(range(3)) * (tiny_cfg.max_seq_len // 3 + 2)
        with pytest.raises(ConfigurationError):
            model.forward([t % tiny_cfg.vocab_size for t in too_long],
                          KVState())


class TestGenerate:
    def test_generate_count(self, reference_model):
        tokens = reference_model.generate([1, 2], 6)
        assert len(tokens) == 6

    def test_generate_deterministic(self, reference_model):
        assert reference_model.generate([9, 8], 5) == \
            reference_model.generate([9, 8], 5)

    def test_generate_rejects_zero_tokens(self, reference_model):
        with pytest.raises(ConfigurationError):
            reference_model.generate([1], 0)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=6))
    def test_generate_tokens_in_vocab(self, prompt):
        cfg = tiny_config()
        model = ReferenceModel(random_weights(cfg, seed=2))
        for token in model.generate(prompt, 3):
            assert 0 <= token < cfg.vocab_size
