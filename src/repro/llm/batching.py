"""Batched generation: amortizing weight streams across requests.

The paper evaluates single-stream inference (batch 1 per device), where
every gen token re-reads all parameters.  Serving systems batch the gen
stages of *different requests* instead: the weight matrices stream once
per step and multiply against a ``[B, d]`` activation block, while the
attention still runs per request against its own KV cache.  This turns
the weight term from bandwidth-bound GEMV into small-batch GEMM —
exactly the lever the PIM-batching literature the paper cites ([10])
studies, and a natural extension experiment for CXL-PNM: its PE array
can absorb the batched matmuls that DFX could not.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError, ParallelismError
from repro.llm.config import LLMConfig
from repro.llm.graph import (
    LAYER_NAME,
    CompactStage,
    StageShape,
    embedding_ops,
    lm_head_ops,
)
from repro.llm.kvcache import kv_spare_bytes
from repro.llm.ops import OpKind, OpSpec, matmul_op, vector_op


def batched_gen_layer_ops(config: LLMConfig, context_len: int, batch: int,
                          tensor_parallel: int = 1,
                          layer_name: str = LAYER_NAME) -> List[OpSpec]:
    """One decoding layer processing one gen token from each of ``batch``
    concurrent requests, all at attention span ``context_len``.

    Weight matmuls are ``[batch x k] @ [k x n]`` GEMMs (weights stream
    once); attention ops scale linearly with the batch because each
    request owns its KV cache.
    """
    if batch < 1:
        raise ConfigurationError(f"batch={batch} must be >= 1")
    if context_len < 1:
        raise ConfigurationError("context_len must be >= 1")
    if tensor_parallel < 1:
        raise ParallelismError("tensor_parallel must be >= 1")
    d = config.d_model
    if config.num_heads % tensor_parallel or config.d_ff % tensor_parallel:
        raise ParallelismError(
            f"{config.name} does not split {tensor_parallel} ways")
    heads = config.num_heads // tensor_parallel
    d_local = heads * config.head_dim
    dff_local = config.d_ff // tensor_parallel
    dtype = config.dtype_bytes
    hd = config.head_dim
    m = batch

    ops: List[OpSpec] = []
    ops.append(vector_op(f"{layer_name}.ln1", OpKind.LAYERNORM,
                         elements=m * d, dtype_bytes=dtype))
    ops.append(matmul_op(f"{layer_name}.qkv", m=m, n=3 * d_local, k=d,
                         dtype_bytes=dtype))
    # Attention: per request, per head [1 x hd] @ [hd x ctx].
    score = matmul_op(f"{layer_name}.attn_score", m=1, n=context_len, k=hd,
                      dtype_bytes=dtype)
    ops.append(OpSpec(name=score.name, kind=OpKind.GEMV,
                      flops=score.flops * heads * batch,
                      weight_bytes=score.weight_bytes * heads * batch,
                      input_bytes=score.input_bytes * heads * batch,
                      output_bytes=score.output_bytes * heads * batch,
                      m=1, n=context_len, k=hd))
    ops.append(vector_op(f"{layer_name}.softmax", OpKind.SOFTMAX,
                         elements=batch * context_len * heads,
                         dtype_bytes=dtype))
    ctx_op = matmul_op(f"{layer_name}.attn_ctx", m=1, n=hd, k=context_len,
                       dtype_bytes=dtype)
    ops.append(OpSpec(name=ctx_op.name, kind=OpKind.GEMV,
                      flops=ctx_op.flops * heads * batch,
                      weight_bytes=ctx_op.weight_bytes * heads * batch,
                      input_bytes=ctx_op.input_bytes * heads * batch,
                      output_bytes=ctx_op.output_bytes * heads * batch,
                      m=1, n=hd, k=context_len))
    ops.append(matmul_op(f"{layer_name}.proj", m=m, n=d, k=d_local,
                         dtype_bytes=dtype))
    ops.append(vector_op(f"{layer_name}.residual1", OpKind.ELEMENTWISE,
                         elements=m * d, dtype_bytes=dtype,
                         flops_per_element=1.0, num_inputs=2))
    ops.append(vector_op(f"{layer_name}.ln2", OpKind.LAYERNORM,
                         elements=m * d, dtype_bytes=dtype))
    ops.append(matmul_op(f"{layer_name}.fc1", m=m, n=dff_local, k=d,
                         dtype_bytes=dtype))
    ops.append(vector_op(f"{layer_name}.gelu", OpKind.GELU,
                         elements=m * dff_local, dtype_bytes=dtype))
    ops.append(matmul_op(f"{layer_name}.fc2", m=m, n=d, k=dff_local,
                         dtype_bytes=dtype))
    ops.append(vector_op(f"{layer_name}.residual2", OpKind.ELEMENTWISE,
                         elements=m * d, dtype_bytes=dtype,
                         flops_per_element=1.0, num_inputs=2))
    return ops


def compact_batched_gen_stage(config: LLMConfig, context_len: int,
                              batch: int, tensor_parallel: int = 1
                              ) -> CompactStage:
    """A full batched gen step across all decoding layers plus LM heads,
    compact form."""
    if batch < 1:
        raise ConfigurationError(f"batch={batch} must be >= 1")
    # Embedding: one gather row per request.  StageShape couples rows to
    # the attention span (a B-row stage implies span >= B in the
    # single-request graph), which is wrong here — each request embeds
    # one token at its *own* position — so build from the batch-1 shape
    # and scale the row count instead of widening the span.
    embed = embedding_ops(config, StageShape(batch_tokens=1, context_len=1))
    head = tuple(OpSpec(name=op.name, kind=op.kind,
                        flops=op.flops * batch,
                        weight_bytes=op.weight_bytes * batch,
                        input_bytes=op.input_bytes * batch,
                        output_bytes=op.output_bytes * batch)
                 for op in embed)
    layer = tuple(batched_gen_layer_ops(config, context_len, batch,
                                        tensor_parallel))
    # One LM head per request in the batch.
    lm_head = lm_head_ops(config, StageShape(batch_tokens=1, context_len=1))
    tail = tuple(OpSpec(name=op.name, kind=op.kind,
                        flops=op.flops * batch,
                        weight_bytes=op.weight_bytes,
                        input_bytes=op.input_bytes * batch,
                        output_bytes=op.output_bytes * batch,
                        m=op.m, n=op.n, k=op.k)
                 for op in lm_head)
    return CompactStage(head=head, layer=layer,
                        num_layers=config.num_layers, tail=tail)


def batched_gen_stage_ops(config: LLMConfig, context_len: int, batch: int,
                          tensor_parallel: int = 1) -> List[OpSpec]:
    """A full batched gen step across all decoding layers plus LM heads."""
    return compact_batched_gen_stage(config, context_len, batch,
                                     tensor_parallel).ops()


def batch_kv_bytes(config: LLMConfig, context_len: int, batch: int) -> int:
    """KV-cache footprint of ``batch`` concurrent requests."""
    if batch < 1 or context_len < 1:
        raise ConfigurationError("batch and context must be >= 1")
    return batch * context_len * config.kv_bytes_per_token()


def max_batch_for_memory(config: LLMConfig, memory_bytes: int,
                         context_len: int) -> int:
    """Largest concurrent batch whose params + KV fit in a device."""
    spare = kv_spare_bytes(config, memory_bytes)
    per_request = context_len * config.kv_bytes_per_token()
    return int(spare // per_request)
