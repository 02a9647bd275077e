"""Batched generation op graphs and capacity math."""

import pytest

from repro.errors import ConfigurationError, ParallelismError
from repro.llm import OPT_13B
from repro.llm.batching import (
    compact_batched_gen_stage,
    max_batch_for_memory,
)
from repro.llm.graph import compact_gen_stage, per_op
from repro.llm.ops import OpKind, total_flops, total_weight_bytes
from repro.units import GB


def batched_ops(config, ctx, batch, tensor_parallel=1):
    """Every op of the batched gen step in flat order."""
    return per_op(compact_batched_gen_stage(config, ctx, batch,
                                            tensor_parallel), lambda op: op)


class TestBatchedOps:
    def test_batch_one_matches_unbatched_weights(self):
        ctx = 576
        batched = total_weight_bytes(batched_ops(OPT_13B, ctx, 1))
        plain = total_weight_bytes(per_op(compact_gen_stage(OPT_13B, ctx),
                                          lambda op: op))
        assert batched == pytest.approx(plain, rel=0.01)

    def test_batch_one_matches_unbatched_exactly(self):
        """Regression: the embedding used to be built with
        ``StageShape(batch, max(batch, context_len))``, conflating the
        batch with the attention span, and the int8 LM head used to
        carry a 2-byte element width.  Batch=1 must reduce to the
        unbatched gen-stage graph op for op, at fp16 and int8, on one
        device and on a tensor-parallel shard."""
        ctx = 576
        for config in (OPT_13B, OPT_13B.with_dtype(1)):
            for ways in (1, 2):
                assert compact_batched_gen_stage(config, ctx, 1, ways) \
                    == compact_gen_stage(config, ctx, ways), \
                    (config.name, ways)

    def test_embedding_scales_with_batch_not_context(self):
        """Each sequence embeds exactly one new token per decode step,
        whatever its context length."""
        def embed_bytes(ctx, batch):
            ops = batched_ops(OPT_13B, ctx, batch)
            return sum(op.weight_bytes for op in ops
                       if op.name.startswith("embed"))

        assert embed_bytes(64, 4) == embed_bytes(1024, 4)
        assert embed_bytes(64, 8) == 2 * embed_bytes(64, 4)

    def test_weights_stream_once_regardless_of_batch(self):
        """The point of batching: parameter traffic is batch-invariant,
        only KV traffic scales."""
        ctx = 576
        b1 = total_weight_bytes(batched_ops(OPT_13B, ctx, 1))
        b16 = total_weight_bytes(batched_ops(OPT_13B, ctx, 16))
        kv_extra = 15 * ctx * OPT_13B.kv_bytes_per_token()
        assert b16 - b1 == pytest.approx(kv_extra, rel=0.02)

    def test_flops_scale_linearly_with_batch(self):
        ctx = 128
        f1 = total_flops(batched_ops(OPT_13B, ctx, 1))
        f8 = total_flops(batched_ops(OPT_13B, ctx, 8))
        assert f8 == pytest.approx(8 * f1, rel=0.02)

    def test_weight_matmuls_become_gemm(self):
        ops = batched_ops(OPT_13B, 128, 8)
        qkv = [op for op in ops if op.name.endswith(".qkv")][0]
        assert qkv.kind is OpKind.GEMM
        assert qkv.m == 8

    def test_attention_stays_gemv(self):
        ops = batched_ops(OPT_13B, 128, 8)
        score = [op for op in ops if "attn_score" in op.name][0]
        assert score.kind is OpKind.GEMV

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            compact_batched_gen_stage(OPT_13B, 128, 0)
        with pytest.raises(ParallelismError):
            compact_batched_gen_stage(OPT_13B, 128, 2, tensor_parallel=7)


class TestCapacity:
    def test_max_batch_zero_when_params_overflow(self):
        assert max_batch_for_memory(OPT_13B, int(10e9), 1024) == 0

    def test_cxl_pnm_holds_large_batches(self):
        batch = max_batch_for_memory(OPT_13B, 512 * GB, 1088)
        # (512 - 25.7) GB of KV room / ~0.89 MB per token-row.
        assert batch > 400

    def test_gpu_holds_far_fewer(self):
        gpu_batch = max_batch_for_memory(OPT_13B, int(40e9), 1088)
        pnm_batch = max_batch_for_memory(OPT_13B, 512 * GB, 1088)
        assert pnm_batch > 10 * gpu_batch
