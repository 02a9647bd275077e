"""Stage op graphs: structure, totals, tensor-parallel scaling, element
widths, and the incremental gen-stage sweep."""

from dataclasses import fields

import numpy as np
import pytest

from repro.errors import ConfigurationError, ParallelismError
from repro.llm import OPT_13B, StageShape, tiny_config
from repro.llm.graph import (
    GenStageSweep,
    compact_gen_stage,
    compact_stage,
    compact_sum_stage,
    decoder_layer_ops,
    lm_head_ops,
    per_op,
)
from repro.llm.ops import OpKind, total_flops, total_weight_bytes


def gen_ops(config, context_len, tensor_parallel=1):
    """Every op of the gen stage in flat order."""
    return per_op(compact_gen_stage(config, context_len, tensor_parallel),
                  lambda op: op)


def sum_ops(config, input_len):
    """Every op of the sum stage in flat order."""
    return per_op(compact_sum_stage(config, input_len), lambda op: op)


class TestStageShape:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            StageShape(batch_tokens=0, context_len=4)

    def test_rejects_batch_beyond_context(self):
        with pytest.raises(ConfigurationError):
            StageShape(batch_tokens=8, context_len=4)

    def test_rows_per_request_bound_the_context(self):
        # One row from each of 8 requests fits any context; a request's
        # own rows still may not outnumber its span.
        assert StageShape(batch_tokens=8, context_len=1,
                          requests=8).rows_per_request == 1
        assert StageShape(batch_tokens=8, context_len=4,
                          requests=2).rows_per_request == 4
        with pytest.raises(ConfigurationError):
            StageShape(batch_tokens=8, context_len=3, requests=2)

    def test_rejects_rows_that_do_not_split_across_requests(self):
        with pytest.raises(ConfigurationError):
            StageShape(batch_tokens=6, context_len=8, requests=4)
        with pytest.raises(ConfigurationError):
            StageShape(batch_tokens=4, context_len=8, requests=0)


class TestGenStage:
    def test_gen_stage_is_gemv_dominated(self):
        ops = gen_ops(OPT_13B, context_len=512)
        matmuls = [op for op in ops if op.kind.is_matmul]
        assert matmuls
        assert all(op.kind is OpKind.GEMV for op in matmuls)

    def test_gen_stage_streams_all_parameters(self):
        # A gen stage must read every layer weight plus the KV cache; the
        # weight-byte total should exceed the raw parameter bytes.
        ctx = 512
        ops = gen_ops(OPT_13B, ctx)
        streamed = total_weight_bytes(ops)
        assert streamed > OPT_13B.param_bytes * 0.9
        # ... but not by more than params + KV + embeddings.
        bound = (OPT_13B.param_bytes + ctx * OPT_13B.kv_bytes_per_token()
                 + OPT_13B.embedding_params * 2)
        assert streamed < bound * 1.05

    def test_kv_traffic_grows_with_context(self):
        short = total_weight_bytes(gen_ops(OPT_13B, 64))
        long = total_weight_bytes(gen_ops(OPT_13B, 1024))
        expected_delta = (1024 - 64) * OPT_13B.kv_bytes_per_token()
        assert long - short == pytest.approx(expected_delta, rel=0.01)


class TestSumStage:
    def test_sum_stage_is_gemm_dominated(self):
        ops = sum_ops(OPT_13B, input_len=64)
        matmuls = [op for op in ops if op.kind.is_matmul]
        gemms = [op for op in matmuls if op.kind is OpKind.GEMM]
        # All matmuls except the single-row LM head are GEMMs.
        assert len(matmuls) - len(gemms) == 1

    def test_sum_flops_scale_with_input_length(self):
        f32 = total_flops(sum_ops(OPT_13B, 32))
        f64 = total_flops(sum_ops(OPT_13B, 64))
        assert f64 / f32 == pytest.approx(2.0, rel=0.1)

    def test_sum_flops_approx_2_params_tokens(self):
        # Classic estimate: ~2 * N_params FLOPs per token.
        tokens = 64
        flops = total_flops(sum_ops(OPT_13B, tokens))
        assert flops == pytest.approx(2 * OPT_13B.num_params * tokens,
                                      rel=0.1)


class TestTensorParallel:
    def test_tp_splits_matmul_weights(self):
        full = total_weight_bytes(gen_ops(OPT_13B, 512))
        half = total_weight_bytes(gen_ops(OPT_13B, 512, tensor_parallel=2))
        assert half < full * 0.6

    def test_tp_must_divide_heads(self):
        with pytest.raises(ParallelismError):
            gen_ops(OPT_13B, 512, tensor_parallel=7)

    def test_tp_flops_conserved_across_group(self):
        cfg = tiny_config(num_heads=4)
        shape = StageShape(batch_tokens=2, context_len=8)
        full = total_flops(decoder_layer_ops(cfg, shape))
        split = total_flops(decoder_layer_ops(cfg, shape,
                                              tensor_parallel=2))
        # Matmul work halves; vector work (norms, residuals) replicates.
        assert full / 2 < split < full

    def test_tp_below_one_rejected(self):
        with pytest.raises(ParallelismError):
            decoder_layer_ops(tiny_config(),
                              StageShape(batch_tokens=1, context_len=1),
                              tensor_parallel=0)


class TestOpNaming:
    def test_layer_ops_have_qualified_names(self):
        ops = decoder_layer_ops(tiny_config(),
                                StageShape(batch_tokens=2, context_len=4))
        names = {op.name for op in ops}
        assert "layer.qkv" in names
        assert "layer.attn_score" in names
        assert "layer.fc2" in names

    def test_lm_head_emits_single_row_gemv(self):
        cfg = tiny_config()
        ops = lm_head_ops(cfg, StageShape(batch_tokens=4, context_len=4))
        logits = [op for op in ops if op.name == "lm_head.logits"][0]
        assert logits.m == 1
        assert logits.n == cfg.vocab_size



class TestElemBytes:
    @pytest.mark.parametrize("dtype_bytes", [2, 1])
    def test_every_op_carries_the_config_width(self, dtype_bytes):
        # embed, attn_score and attn_ctx included: at int8 each op's
        # byte quantities are 1-byte elements.
        cfg = OPT_13B.with_dtype(dtype_bytes)
        stages = [compact_gen_stage(cfg, 64), compact_sum_stage(cfg, 32),
                  compact_gen_stage(cfg, 577, tensor_parallel=2),
                  compact_stage(cfg, StageShape(batch_tokens=8,
                                                context_len=64,
                                                requests=8))]
        for stage in stages:
            widths = {op.name: op.elem_bytes
                      for op in per_op(stage, lambda op: op)}
            assert set(widths.values()) == {dtype_bytes}, widths


class TestGenStageSweep:
    @pytest.mark.parametrize("batch, tensor_parallel", [(1, 1), (8, 2)])
    def test_sweep_is_the_compact_stage_in_any_context_order(
            self, batch, tensor_parallel):
        cfg = tiny_config(num_heads=4)
        kinds = list(OpKind)
        priced = []

        def values(op):
            # Every OpSpec field but the name, the kind as a number.
            return tuple(kinds.index(op.kind) if f.name == "kind"
                         else getattr(op, f.name)
                         for f in fields(op) if f.name != "name")

        def fn(op):
            priced.append(op.name)
            return values(op)

        sweep = GenStageSweep(cfg, batch, fn, tensor_parallel)
        for i, contexts in enumerate([[40], [1, 120], [40], [7, 40, 1]]):
            del priced[:]
            head, layer, tail = sweep(contexts)
            assert head.shape[1] == tail.shape[1] == 1
            assert layer.shape[1] == len(contexts)
            for j, context_len in enumerate(contexts):
                shape = StageShape(batch_tokens=batch,
                                   context_len=context_len, requests=batch)
                stage = compact_stage(cfg, shape, tensor_parallel)
                flat = np.concatenate(
                    [head[:, 0], *[layer[:, j]] * stage.num_layers,
                     tail[:, 0]])
                assert flat.tolist() \
                    == [list(v) for v in per_op(stage, values)]
            # One call prices each op once, for all its contexts.
            distinct = len(stage.head) + len(stage.layer) + len(stage.tail)
            assert len(priced) == (distinct if i == 0 else 3)

    def test_float_values_are_one_quantity(self):
        head, layer, tail = GenStageSweep(tiny_config(), 1,
                                          lambda op: op.flops)([3, 5])
        assert head.shape[2] == layer.shape[2] == tail.shape[2] == 1
        assert layer.shape == (12, 2, 1)


class TestArrayShapes:
    @pytest.mark.parametrize("tensor_parallel", [1, 2])
    @pytest.mark.parametrize("lengths", [[1], [2, 3, 64, 120, 7]])
    def test_array_sum_stage_is_every_scalar_sum_stage(self, lengths,
                                                       tensor_parallel):
        # One sum stage over an array of input lengths holds, element
        # by element, every field of each length's own sum stage.
        cfg = tiny_config(num_heads=4)
        swept = compact_sum_stage(cfg, np.asarray(lengths), tensor_parallel)
        for i, input_len in enumerate(lengths):
            stage = compact_sum_stage(cfg, input_len, tensor_parallel)
            for part in ("head", "layer", "tail"):
                for got, want in zip(getattr(swept, part),
                                     getattr(stage, part)):
                    assert got.name == want.name and got.kind is want.kind
                    for f in fields(want):
                        value = getattr(got, f.name)
                        if isinstance(value, np.ndarray):
                            value = value[i].item()
                        assert value == getattr(want, f.name), \
                            (input_len, got.name, f.name)
                        assert type(value) is type(getattr(want, f.name))

    def test_matmul_rows_must_not_mix_gemv_and_gemm(self):
        with pytest.raises(ConfigurationError):
            compact_sum_stage(tiny_config(), np.array([1, 2]))

    @pytest.mark.parametrize("batch_tokens, context_len", [
        ([4, 0], [4, 8]), ([4, 8], [4, -1]), ([4, 9], [9, 9]),
        ([4, 8], [4, 3]),
    ])
    def test_array_shape_is_validated_elementwise(self, batch_tokens,
                                                  context_len):
        with pytest.raises(ConfigurationError):
            StageShape(batch_tokens=np.array(batch_tokens),
                       context_len=np.array(context_len), requests=2)
