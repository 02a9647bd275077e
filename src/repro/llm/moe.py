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

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.llm.config import LLMConfig
from repro.llm.graph import (
    FFN_OPS,
    LAYER_NAME,
    CompactStage,
    compact_gen_stage,
)
from repro.llm.ops import matmul_op


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


def compact_moe_gen_stage(config: MoEConfig,
                          context_len: int) -> CompactStage:
    """One gen stage of the MoE model at attention span ``context_len``:
    the dense gen stage with each layer's FFN replaced by a router and
    ``top_k`` expert FFNs.

    Head, tail and every other layer op are the dense backbone's; the
    tiny router matmul follows ``ln2``, and the experts repeat the dense
    ``fc1``, ``gelu``, ``fc2`` (:data:`~repro.llm.graph.FFN_OPS`), named
    ``layer.expert{i}.*``, so only the touched experts stream weights.
    """
    base = config.base
    dense = compact_gen_stage(base, context_len)
    layer = dense.layer
    router = matmul_op(f"{LAYER_NAME}.router", m=1, n=config.num_experts,
                       k=base.d_model, dtype_bytes=base.dtype_bytes)
    experts = tuple(
        replace(op, name=op.name.replace(f"{LAYER_NAME}.",
                                         f"{LAYER_NAME}.expert{expert}.", 1))
        for expert in range(config.top_k) for op in layer[FFN_OPS])
    return replace(dense, layer=layer[:FFN_OPS.start] + (router,) + experts
                   + layer[FFN_OPS.stop:])
