"""Operator graphs for the summarization and generation stages.

GPT-3 inference (paper Fig. 1) runs a **sum** stage over the ``L_in`` input
tokens — dominated by GEMM — and then one **gen** stage per output token,
each dominated by GEMV over all model parameters plus the growing KV cache.

Every stage is built first in compact form (:class:`CompactStage`: head
ops, one decoder layer's ops, the layer count, tail ops), since all
decoder layers are identical.  The flat :class:`~repro.llm.ops.OpSpec`
lists, with their ``layer{i}.*`` names, are derived from it; the
performance models price the compact form (one pricing per distinct op)
while the roofline and the accelerator compiler use the same shapes, so
functional and timing paths share one source of truth for shapes.

Tensor-parallel execution is modelled by ``tensor_parallel`` ways: attention
heads and FFN columns are split across devices (Megatron-style), shrinking
the weight/compute of each matmul by the factor while keeping the two
all-reduce points per layer (after attention projection, after FC2), which
:mod:`repro.appliance.comm` charges separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple, TypeVar, Union

from repro.errors import ConfigurationError, ParallelismError
from repro.llm.config import LLMConfig
from repro.llm.ops import OpKind, OpSpec, matmul_op, vector_op

T = TypeVar("T")

#: Name prefix of the single decoder layer a compact stage carries.
LAYER_NAME = "layer"


@dataclass(frozen=True)
class StageShape:
    """Token geometry of one stage.

    ``batch_tokens`` is the number of token rows processed at once (``L_in``
    for the sum stage, 1 for a gen stage); ``context_len`` is the attention
    span ``L`` (input tokens plus tokens generated so far).
    """

    batch_tokens: int
    context_len: int

    def __post_init__(self) -> None:
        if self.batch_tokens <= 0 or self.context_len <= 0:
            raise ConfigurationError("stage shape must be positive")
        if self.batch_tokens > self.context_len:
            raise ConfigurationError(
                f"batch_tokens={self.batch_tokens} exceeds "
                f"context_len={self.context_len}"
            )


@dataclass(frozen=True)
class CompactStage:
    """A stage as ``head + layer * num_layers + tail``.

    ``layer`` holds one decoder layer's ops, named ``layer.*``; the flat
    list (:meth:`ops`) repeats them ``num_layers`` times as
    ``layer{i}.*``.  :func:`per_op` maps a function over the flat order
    while calling it once per distinct op.
    """

    head: Tuple[OpSpec, ...]
    layer: Tuple[OpSpec, ...]
    num_layers: int
    tail: Tuple[OpSpec, ...]

    def ops(self) -> List[OpSpec]:
        """The flat operator list, decoder layers named ``layer{i}.*``."""
        ops = list(self.head)
        suffixes = [op.name[len(LAYER_NAME):] for op in self.layer]
        for i in range(self.num_layers):
            ops.extend(replace(op, name=f"{LAYER_NAME}{i}{suffix}")
                       for op, suffix in zip(self.layer, suffixes))
        ops.extend(self.tail)
        return ops


#: A stage in either form: compact, or a flat operator list.
Stage = Union[CompactStage, Sequence[OpSpec]]


def per_op(stage: Stage, fn: Callable[[OpSpec], T]) -> List[T]:
    """``fn`` of every op of ``stage`` in flat-list order.

    On a compact stage ``fn`` runs once per distinct op and the layer's
    results repeat ``num_layers`` times, so ``fn`` must not depend on op
    names.
    """
    if isinstance(stage, CompactStage):
        return ([fn(op) for op in stage.head]
                + [fn(op) for op in stage.layer] * stage.num_layers
                + [fn(op) for op in stage.tail])
    return [fn(op) for op in stage]


def _split(value: int, ways: int, what: str) -> int:
    if value % ways != 0:
        raise ParallelismError(
            f"cannot split {what}={value} across {ways} tensor-parallel ways"
        )
    return value // ways


def decoder_layer_ops(config: LLMConfig, shape: StageShape,
                      tensor_parallel: int = 1,
                      layer_name: str = LAYER_NAME) -> List[OpSpec]:
    """Operator list for one decoding layer at the given stage shape.

    Follows the paper's decomposition: LayerNorm, QKV generation, attention
    (scores, softmax, context), projection, residual, LayerNorm, FC1, GELU,
    FC2, residual.  Per-head attention matmuls are aggregated into one op
    with the summed dimensions (heads are independent and identical).
    """
    if tensor_parallel < 1:
        raise ParallelismError(f"tensor_parallel={tensor_parallel} < 1")
    d = config.d_model
    dtype = config.dtype_bytes
    heads = _split(config.num_heads, tensor_parallel, "num_heads")
    d_local = heads * config.head_dim
    dff_local = _split(config.d_ff, tensor_parallel, "d_ff")
    m = shape.batch_tokens
    ctx = shape.context_len
    hd = config.head_dim

    ops: List[OpSpec] = []
    ops.append(vector_op(f"{layer_name}.ln1", OpKind.LAYERNORM,
                         elements=m * d, dtype_bytes=dtype))
    ops.append(matmul_op(f"{layer_name}.qkv", m=m, n=3 * d_local, k=d,
                         dtype_bytes=dtype))
    # Attention scores: per head [m x hd] @ [hd x ctx]; KV streams from
    # device memory (weights_resident=True models KV-cache traffic).
    score = matmul_op(f"{layer_name}.attn_score", m=m, n=ctx, k=hd,
                      dtype_bytes=dtype)
    ops.append(OpSpec(name=score.name, kind=score.kind,
                      flops=score.flops * heads,
                      weight_bytes=score.weight_bytes * heads,
                      input_bytes=score.input_bytes * heads,
                      output_bytes=score.output_bytes * heads,
                      m=m, n=ctx, k=hd))
    ops.append(vector_op(f"{layer_name}.softmax", OpKind.SOFTMAX,
                         elements=m * ctx * heads, dtype_bytes=dtype))
    context = matmul_op(f"{layer_name}.attn_ctx", m=m, n=hd, k=ctx,
                        dtype_bytes=dtype)
    ops.append(OpSpec(name=context.name, kind=context.kind,
                      flops=context.flops * heads,
                      weight_bytes=context.weight_bytes * heads,
                      input_bytes=context.input_bytes * heads,
                      output_bytes=context.output_bytes * heads,
                      m=m, n=hd, k=ctx))
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


def lm_head_ops(config: LLMConfig, shape: StageShape) -> List[OpSpec]:
    """Final LayerNorm plus the LM-head projection to vocabulary logits.

    Only the last token's logits are needed, so ``m`` is 1 regardless of the
    stage (the sum stage also emits exactly one next token).
    """
    ops = [vector_op("lm_head.ln_f", OpKind.LAYERNORM,
                     elements=shape.batch_tokens * config.d_model,
                     dtype_bytes=config.dtype_bytes)]
    ops.append(matmul_op("lm_head.logits", m=1, n=config.vocab_size,
                         k=config.d_model, dtype_bytes=config.dtype_bytes))
    return ops


def embedding_ops(config: LLMConfig, shape: StageShape) -> List[OpSpec]:
    """Token + positional embedding lookup (a gather, bandwidth only)."""
    elems = shape.batch_tokens * config.d_model
    return [OpSpec(name="embed", kind=OpKind.EMBEDDING, flops=float(elems),
                   weight_bytes=float(elems * config.dtype_bytes),
                   input_bytes=0.0,
                   output_bytes=float(elems * config.dtype_bytes))]


def _compact(config: LLMConfig, shape: StageShape,
             tensor_parallel: int) -> CompactStage:
    return CompactStage(
        head=tuple(embedding_ops(config, shape)),
        layer=tuple(decoder_layer_ops(config, shape, tensor_parallel)),
        num_layers=config.num_layers,
        tail=tuple(lm_head_ops(config, shape)))


def compact_sum_stage(config: LLMConfig, input_len: int,
                      tensor_parallel: int = 1) -> CompactStage:
    """The summarization stage over ``input_len`` tokens, compact form."""
    shape = StageShape(batch_tokens=input_len, context_len=input_len)
    return _compact(config, shape, tensor_parallel)


def compact_gen_stage(config: LLMConfig, context_len: int,
                      tensor_parallel: int = 1) -> CompactStage:
    """One generation stage at attention span ``context_len``, compact
    form.

    ``context_len`` counts the input tokens plus every token generated so
    far including the one produced by this stage's predecessor (the paper's
    ``L``).
    """
    shape = StageShape(batch_tokens=1, context_len=context_len)
    return _compact(config, shape, tensor_parallel)


def sum_stage_ops(config: LLMConfig, input_len: int,
                  tensor_parallel: int = 1) -> List[OpSpec]:
    """All operators of the summarization stage over ``input_len`` tokens."""
    return compact_sum_stage(config, input_len, tensor_parallel).ops()


def gen_stage_ops(config: LLMConfig, context_len: int,
                  tensor_parallel: int = 1) -> List[OpSpec]:
    """All operators of one generation stage at attention span
    ``context_len`` (see :func:`compact_gen_stage`)."""
    return compact_gen_stage(config, context_len, tensor_parallel).ops()


def inference_op_count(config: LLMConfig, input_len: int,
                       output_len: int) -> int:
    """Number of operator instances in a full inference, for sanity checks."""
    count = len(sum_stage_ops(config, input_len))
    for step in range(output_len - 1):
        count += len(gen_stage_ops(config, input_len + step + 1))
    return count
