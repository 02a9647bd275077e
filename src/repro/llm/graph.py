"""Operator graphs for the summarization and generation stages.

GPT-3 inference (paper Fig. 1) runs a **sum** stage over the ``L_in`` input
tokens — dominated by GEMM — and then one **gen** stage per output token,
each dominated by GEMV over all model parameters plus the growing KV cache.

Every stage is a :class:`CompactStage` (head ops, one decoder layer's
ops, the layer count, tail ops), since all decoder layers are
identical, built by one builder (:func:`compact_stage`) from a
:class:`StageShape`.  A batched decode step is a shape too: one row
from each of several requests (:mod:`repro.llm.batching`).  No stage is
ever expanded into a flat op list: :func:`per_op` maps a function over
the flat order while calling it once per distinct op, the performance
models price each distinct op once, and the roofline and the
accelerator compiler use the same shapes, so functional and timing
paths share one source of truth for shapes.  A shape may sweep its
token counts over an int array, and the ops built from it are then
array-valued (:mod:`repro.arrays`): a perf model prices every element
in one call, so the sum stages of many input lengths cost one stage
build.  Sweeps over the context (:class:`GenStageSweep`) re-price only
the three attention ops of a gen stage, the only ops whose shapes the
context changes, once per sweep, and return the values of many
contexts as arrays to fold at once.

Tensor-parallel execution is modelled by ``tensor_parallel`` ways: attention
heads and FFN columns are split across devices (Megatron-style), shrinking
the weight/compute of each matmul by the factor while keeping the two
all-reduce points per layer (after attention projection, after FC2), which
:mod:`repro.appliance.comm` charges separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.arrays import any_true, to_float
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
    for the sum stage, 1 for a gen stage, one row per request for a
    batched gen step); ``context_len`` is the attention span ``L`` (input
    tokens plus tokens generated so far) of every request; ``requests``
    is how many requests the rows belong to, in equal shares.  Weight
    matmuls see all ``batch_tokens`` rows at once; each request attends
    over its own KV cache with its own rows.  ``batch_tokens`` and
    ``context_len`` may be int arrays along one sweep axis (one shape
    per element), and the stage built from such a shape has
    array-valued ops (:mod:`repro.arrays`).
    """

    batch_tokens: int
    context_len: int
    requests: int = 1

    def __post_init__(self) -> None:
        if self.requests <= 0 or any_true(self.batch_tokens <= 0) \
                or any_true(self.context_len <= 0):
            raise ConfigurationError("stage shape must be positive")
        if any_true(self.batch_tokens % self.requests != 0):
            raise ConfigurationError(
                f"batch_tokens={self.batch_tokens} do not split evenly "
                f"across requests={self.requests}")
        if any_true(self.rows_per_request > self.context_len):
            raise ConfigurationError(
                f"{self.rows_per_request} rows per request exceed "
                f"context_len={self.context_len}"
            )

    @property
    def rows_per_request(self) -> int:
        return self.batch_tokens // self.requests


@dataclass(frozen=True)
class CompactStage:
    """A stage as ``head + layer * num_layers + tail``.

    ``layer`` holds one decoder layer's ops, named ``layer.*``, which
    every one of the ``num_layers`` layers repeats.  :func:`per_op`
    maps a function over the flat order (head, each layer in turn, tail)
    while calling it once per distinct op.
    """

    head: Tuple[OpSpec, ...]
    layer: Tuple[OpSpec, ...]
    num_layers: int
    tail: Tuple[OpSpec, ...]


def per_op(stage: CompactStage, fn: Callable[[OpSpec], T]) -> List[T]:
    """``fn`` of every op of ``stage`` in flat order.

    ``fn`` runs once per distinct op and the layer's results repeat
    ``num_layers`` times, so ``fn`` must not depend on op names.
    """
    return ([fn(op) for op in stage.head]
            + [fn(op) for op in stage.layer] * stage.num_layers
            + [fn(op) for op in stage.tail])


def _split(value: int, ways: int, what: str) -> int:
    if ways < 1:
        raise ParallelismError(f"tensor_parallel={ways} < 1")
    if value % ways != 0:
        raise ParallelismError(
            f"cannot split {what}={value} across {ways} tensor-parallel ways"
        )
    return value // ways


def attention_ops(config: LLMConfig, shape: StageShape,
                  tensor_parallel: int = 1) -> List[OpSpec]:
    """The three ops of a decoder layer whose shapes depend on the
    context: ``attn_score``, ``softmax`` and ``attn_ctx``.

    Each request attends over its own KV cache, per head
    ``[rows x hd] @ [hd x ctx]`` with its ``shape.rows_per_request``
    rows, so every quantity scales with ``heads * requests``.  The
    per-head matmuls are aggregated into one op with the summed
    quantities (heads and requests are independent and identical); the
    KV operands count as streamed weights.
    """
    heads = _split(config.num_heads, tensor_parallel, "num_heads")
    dtype = config.dtype_bytes
    hd = config.head_dim
    m = shape.rows_per_request
    ctx = shape.context_len
    requests = shape.requests

    def aggregated(op: OpSpec) -> OpSpec:
        return OpSpec(name=op.name, kind=op.kind,
                      flops=op.flops * heads * requests,
                      weight_bytes=op.weight_bytes * heads * requests,
                      input_bytes=op.input_bytes * heads * requests,
                      output_bytes=op.output_bytes * heads * requests,
                      m=op.m, n=op.n, k=op.k, elem_bytes=dtype)

    return [
        aggregated(matmul_op(f"{LAYER_NAME}.attn_score", m=m, n=ctx, k=hd,
                             dtype_bytes=dtype)),
        vector_op(f"{LAYER_NAME}.softmax", OpKind.SOFTMAX,
                  elements=shape.batch_tokens * ctx * heads,
                  dtype_bytes=dtype),
        aggregated(matmul_op(f"{LAYER_NAME}.attn_ctx", m=m, n=hd, k=ctx,
                             dtype_bytes=dtype)),
    ]


#: Where :func:`attention_ops` sit in :func:`decoder_layer_ops`: after
#: ``ln1`` and ``qkv``, before ``proj`` .. ``residual2``.
ATTENTION_OPS = slice(2, 5)

#: Where the feed-forward block (``fc1``, ``gelu``, ``fc2``) sits in
#: :func:`decoder_layer_ops`: after ``ln2``, before ``residual2``.
FFN_OPS = slice(8, 11)


def op_values(ops: Sequence[OpSpec], fn: Callable[[OpSpec], object]
              ) -> np.ndarray:
    """``fn`` of every op as an ``(ops, contexts, q)`` float array.

    ``fn`` returns a float, an array over a sweep (for an array-valued
    op), or a fixed number ``q`` of either.  ``contexts`` is the length
    of the sweep, a float repeating along it; with no array anywhere it
    is 1: one value every context of a fold shares
    (:func:`repro.perf.metrics.fold_stages`).
    """
    values = [fn(op) for op in ops]
    quantities = [v if isinstance(v, (tuple, list)) else (v,)
                  for v in values]
    swept = [p for parts in quantities for p in parts
             if isinstance(p, np.ndarray)]
    if not swept:
        return np.array(quantities, dtype=float).reshape(len(values), 1, -1)
    out = np.empty((len(values), len(swept[0]), len(quantities[0])))
    for i, parts in enumerate(quantities):
        for j, part in enumerate(parts):
            out[i, :, j] = part
    return out


class GenStageSweep:
    """``fn`` of every op of a gen stage, swept over the context.

    ``sweep(contexts)`` returns ``(head, layer, tail)``, the
    :func:`op_values` of the compact gen stage of ``batch`` requests
    (one row each) at every attention span in ``contexts``: ``head``
    and ``tail`` are ``(ops, 1, q)`` arrays (no head or tail op depends
    on the context) and ``layer`` is ``(ops, contexts, q)``, so
    :func:`repro.perf.metrics.fold_stages` adds each context's stage in
    flat order.  At one batch size only the three
    :func:`attention_ops` depend on the context, and a call builds them
    once, array-valued over all its contexts, so ``fn`` sees each of
    them once per call: the first call builds the whole compact stage
    and keeps ``fn`` of every other op; every later call applies ``fn``
    to the three attention ops only, whose ``(3, contexts, q)`` values
    sit at :data:`ATTENTION_OPS` in ``layer``.  ``fn`` returns what
    :func:`op_values` takes and must not depend on op names; the
    returned arrays must not be mutated.
    """

    def __init__(self, config: LLMConfig, batch: int,
                 fn: Callable[[OpSpec], object], tensor_parallel: int = 1):
        self.config = config
        self.batch = batch
        self.fn = fn
        self.tensor_parallel = tensor_parallel
        self._kept: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]] = None

    def __call__(self, contexts: Sequence[int]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        shape = StageShape(batch_tokens=self.batch,
                           context_len=np.asarray(contexts),
                           requests=self.batch)
        if self._kept is None:
            stage = compact_stage(self.config, shape, self.tensor_parallel)
            layer = op_values(stage.layer, self.fn)
            # The ops around the attention repeat along the contexts.
            self._kept = (op_values(stage.head, self.fn),
                          layer[:ATTENTION_OPS.start, :1].copy(),
                          layer[ATTENTION_OPS.stop:, :1].copy(),
                          op_values(stage.tail, self.fn))
            attention = layer[ATTENTION_OPS]
        else:
            attention = op_values(attention_ops(
                self.config, shape, self.tensor_parallel), self.fn)
        head, before, after, tail = self._kept
        layer = np.empty((len(before) + 3 + len(after), len(contexts),
                          head.shape[2]))
        layer[:ATTENTION_OPS.start] = before
        layer[ATTENTION_OPS] = attention
        layer[ATTENTION_OPS.stop:] = after
        return head, layer, tail


def decoder_layer_ops(config: LLMConfig, shape: StageShape,
                      tensor_parallel: int = 1) -> List[OpSpec]:
    """Operator list for one decoding layer at the given stage shape.

    Follows the paper's decomposition: LayerNorm, QKV generation, attention
    (scores, softmax, context; :func:`attention_ops`, at
    :data:`ATTENTION_OPS`), projection, residual, LayerNorm, FC1, GELU,
    FC2 (the three at :data:`FFN_OPS`), residual.  The weight matmuls
    are ``[batch_tokens x k] @ [k x n]`` over every row of every
    request: the weights stream once.
    """
    d = config.d_model
    dtype = config.dtype_bytes
    d_local = _split(config.num_heads, tensor_parallel, "num_heads") \
        * config.head_dim
    dff_local = _split(config.d_ff, tensor_parallel, "d_ff")
    m = shape.batch_tokens
    return [
        vector_op(f"{LAYER_NAME}.ln1", OpKind.LAYERNORM,
                  elements=m * d, dtype_bytes=dtype),
        matmul_op(f"{LAYER_NAME}.qkv", m=m, n=3 * d_local, k=d,
                  dtype_bytes=dtype),
        *attention_ops(config, shape, tensor_parallel),
        matmul_op(f"{LAYER_NAME}.proj", m=m, n=d, k=d_local,
                  dtype_bytes=dtype),
        vector_op(f"{LAYER_NAME}.residual1", OpKind.ELEMENTWISE,
                  elements=m * d, dtype_bytes=dtype,
                  flops_per_element=1.0, num_inputs=2),
        vector_op(f"{LAYER_NAME}.ln2", OpKind.LAYERNORM,
                  elements=m * d, dtype_bytes=dtype),
        matmul_op(f"{LAYER_NAME}.fc1", m=m, n=dff_local, k=d,
                  dtype_bytes=dtype),
        vector_op(f"{LAYER_NAME}.gelu", OpKind.GELU,
                  elements=m * dff_local, dtype_bytes=dtype),
        matmul_op(f"{LAYER_NAME}.fc2", m=m, n=d, k=dff_local,
                  dtype_bytes=dtype),
        vector_op(f"{LAYER_NAME}.residual2", OpKind.ELEMENTWISE,
                  elements=m * d, dtype_bytes=dtype,
                  flops_per_element=1.0, num_inputs=2),
    ]


def lm_head_ops(config: LLMConfig, shape: StageShape) -> List[OpSpec]:
    """Final LayerNorm plus the LM-head projection to vocabulary logits.

    Only each request's last token needs logits, so the projection is
    one GEMV per request (``m`` is 1 whatever the stage; the sum stage
    also emits exactly one next token) with the weights streamed once.
    """
    logits = matmul_op("lm_head.logits", m=1, n=config.vocab_size,
                       k=config.d_model, dtype_bytes=config.dtype_bytes)
    requests = shape.requests
    return [
        vector_op("lm_head.ln_f", OpKind.LAYERNORM,
                  elements=shape.batch_tokens * config.d_model,
                  dtype_bytes=config.dtype_bytes),
        replace(logits, flops=logits.flops * requests,
                input_bytes=logits.input_bytes * requests,
                output_bytes=logits.output_bytes * requests),
    ]


def embedding_ops(config: LLMConfig, shape: StageShape) -> List[OpSpec]:
    """Token + positional embedding lookup (a gather, bandwidth only)."""
    elems = shape.batch_tokens * config.d_model
    return [OpSpec(name="embed", kind=OpKind.EMBEDDING, flops=to_float(elems),
                   weight_bytes=to_float(elems * config.dtype_bytes),
                   input_bytes=0.0,
                   output_bytes=to_float(elems * config.dtype_bytes),
                   elem_bytes=config.dtype_bytes)]


def compact_stage(config: LLMConfig, shape: StageShape,
                  tensor_parallel: int = 1) -> CompactStage:
    """Any stage of the given shape, compact form."""
    return CompactStage(
        head=tuple(embedding_ops(config, shape)),
        layer=tuple(decoder_layer_ops(config, shape, tensor_parallel)),
        num_layers=config.num_layers,
        tail=tuple(lm_head_ops(config, shape)))


def compact_sum_stage(config: LLMConfig, input_len: int,
                      tensor_parallel: int = 1) -> CompactStage:
    """The summarization stage over ``input_len`` tokens, compact form."""
    shape = StageShape(batch_tokens=input_len, context_len=input_len)
    return compact_stage(config, shape, tensor_parallel)


def compact_gen_stage(config: LLMConfig, context_len: int,
                      tensor_parallel: int = 1) -> CompactStage:
    """One generation stage at attention span ``context_len``, compact
    form.

    ``context_len`` counts the input tokens plus every token generated so
    far including the one produced by this stage's predecessor (the paper's
    ``L``).
    """
    shape = StageShape(batch_tokens=1, context_len=context_len)
    return compact_stage(config, shape, tensor_parallel)
