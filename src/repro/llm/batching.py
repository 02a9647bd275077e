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

from repro.llm.config import LLMConfig
from repro.llm.graph import CompactStage, StageShape, compact_stage
from repro.llm.kvcache import kv_spare_bytes


def compact_batched_gen_stage(config: LLMConfig, context_len: int,
                              batch: int, tensor_parallel: int = 1
                              ) -> CompactStage:
    """A batched gen step, compact form: one gen token from each of
    ``batch`` concurrent requests, all at attention span ``context_len``.

    The stage shape with one row per request: weight matmuls are
    ``[batch x k] @ [k x n]`` GEMMs (weights stream once), attention and
    the LM head run once per request.  At ``batch=1`` this is
    :func:`~repro.llm.graph.compact_gen_stage`.
    """
    shape = StageShape(batch_tokens=batch, context_len=context_len,
                       requests=batch)
    return compact_stage(config, shape, tensor_parallel)


def max_batch_for_memory(config: LLMConfig, memory_bytes: int,
                         context_len: int) -> int:
    """Largest concurrent batch whose params + KV fit in a device."""
    spare = kv_spare_bytes(config, memory_bytes)
    per_request = context_len * config.kv_bytes_per_token()
    return int(spare // per_request)
