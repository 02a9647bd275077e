"""Mixture-of-Experts models (paper §IX, scalability discussion).

The paper points to MoE as the technique that "curbs further increases in
memory capacity requirements" — more precisely, MoE grows *capacity*
demand (many expert FFNs) while keeping per-token *bandwidth/compute*
demand low (only ``top_k`` experts run per token).  That trade is ideal
for CXL-PNM: a 512 GB module holds experts a GPU cannot, and the gen
stage still streams only the touched experts.

:class:`MoEConfig` wraps a dense backbone: attention is unchanged, each
layer's FFN is replicated into ``num_experts`` experts with a router, and
``top_k`` experts fire per token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.llm.config import LLMConfig
from repro.llm.graph import (
    StageShape,
    attention_ops,
    embedding_ops,
    lm_head_ops,
)
from repro.llm.ops import OpKind, OpSpec, matmul_op, vector_op


@dataclass(frozen=True)
class MoEConfig:
    """A sparsely-gated MoE built on a dense decoder backbone.

    Attributes:
        base: The dense architecture providing attention/embedding shapes.
        num_experts: Expert FFNs per layer.
        top_k: Experts activated per token.
    """

    base: LLMConfig
    num_experts: int
    top_k: int = 2

    def __post_init__(self) -> None:
        if self.num_experts < 2:
            raise ConfigurationError("MoE needs at least 2 experts")
        if not 1 <= self.top_k <= self.num_experts:
            raise ConfigurationError(
                f"top_k={self.top_k} outside [1, {self.num_experts}]")

    @property
    def name(self) -> str:
        return f"{self.base.name}-MoE{self.num_experts}x{self.top_k}"

    @property
    def ffn_params_per_layer(self) -> int:
        d, dff = self.base.d_model, self.base.d_ff
        return d * dff + dff + dff * d + d

    @property
    def router_params_per_layer(self) -> int:
        return self.base.d_model * self.num_experts

    @property
    def num_params(self) -> int:
        """Total (stored) parameters: dense backbone with the FFN of each
        layer replicated ``num_experts`` times, plus routers."""
        dense = self.base.num_params
        extra_ffn = (self.num_experts - 1) * self.ffn_params_per_layer
        return dense + self.base.num_layers * (
            extra_ffn + self.router_params_per_layer)

    @property
    def param_bytes(self) -> int:
        return self.num_params * self.base.dtype_bytes

    @property
    def active_params_per_token(self) -> int:
        """Parameters actually read per gen token: everything stored minus
        the ``num_experts - top_k`` untouched expert FFNs per layer
        (routers are always read)."""
        untouched = (self.num_experts - self.top_k) \
            * self.ffn_params_per_layer
        return self.num_params - self.base.num_layers * untouched

    @property
    def capacity_amplification(self) -> float:
        """Stored bytes per streamed byte — the CXL-PNM-friendly ratio."""
        return self.num_params / self.active_params_per_token


def moe_gen_stage_ops(config: MoEConfig, context_len: int) -> List[OpSpec]:
    """One gen stage of the MoE model: dense attention, top-k expert FFN.

    Router matmul is tiny; the FFN ops carry ``top_k`` experts' weights.
    """
    base = config.base
    shape = StageShape(batch_tokens=1, context_len=context_len)
    d, dff, dtype = base.d_model, base.d_ff, base.dtype_bytes
    ops = embedding_ops(base, shape)
    for i in range(base.num_layers):
        prefix = f"layer{i}"
        ops.append(vector_op(f"{prefix}.ln1", OpKind.LAYERNORM,
                             elements=d, dtype_bytes=dtype))
        ops.append(matmul_op(f"{prefix}.qkv", m=1, n=3 * d, k=d,
                             dtype_bytes=dtype))
        ops.extend(attention_ops(base, shape, layer_name=prefix))
        ops.append(matmul_op(f"{prefix}.proj", m=1, n=d, k=d,
                             dtype_bytes=dtype))
        ops.append(vector_op(f"{prefix}.residual1", OpKind.ELEMENTWISE,
                             elements=d, dtype_bytes=dtype,
                             flops_per_element=1.0, num_inputs=2))
        ops.append(vector_op(f"{prefix}.ln2", OpKind.LAYERNORM,
                             elements=d, dtype_bytes=dtype))
        ops.append(matmul_op(f"{prefix}.router", m=1, n=config.num_experts,
                             k=d, dtype_bytes=dtype))
        for expert in range(config.top_k):
            ops.append(matmul_op(f"{prefix}.expert{expert}.fc1", m=1,
                                 n=dff, k=d, dtype_bytes=dtype))
            ops.append(vector_op(f"{prefix}.expert{expert}.gelu",
                                 OpKind.GELU, elements=dff,
                                 dtype_bytes=dtype))
            ops.append(matmul_op(f"{prefix}.expert{expert}.fc2", m=1,
                                 n=d, k=dff, dtype_bytes=dtype))
        ops.append(vector_op(f"{prefix}.residual2", OpKind.ELEMENTWISE,
                             elements=d, dtype_bytes=dtype,
                             flops_per_element=1.0, num_inputs=2))
    ops.extend(lm_head_ops(base, shape))
    return ops
