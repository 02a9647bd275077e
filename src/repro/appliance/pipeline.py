"""Pipeline parallelism (the other FasterTransformer axis, §VII).

Pipeline parallelism assigns each device a contiguous *range of layers*
rather than a slice of every layer: a token flows through the stages in
sequence, passing one activation tile between neighbours per boundary.
Compared with tensor parallelism it swaps the two all-reduces per layer
for a single point-to-point transfer per stage boundary — cheaper
communication, but single-stream latency no longer improves (a token
still visits every layer serially, plus the boundary hops), and
throughput relies on keeping the pipeline full with concurrent requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ParallelismError
from repro.llm.config import LLMConfig
from repro.llm.graph import compact_gen_stage, compact_sum_stage
from repro.perf.analytical import DevicePerfModel, stage_result

#: Seconds to move one activation tile between neighbouring stages:
#: (payload_bytes) -> seconds.
HopModel = Callable[[float], float]


@dataclass(frozen=True)
class PipelinePlan:
    """A pipeline-parallel execution of one model instance.

    Attributes:
        config: The model.
        num_stages: Pipeline depth (devices per instance).
        model: Per-device performance model.
        hop: Inter-stage activation-transfer cost model.
    """

    config: LLMConfig
    num_stages: int
    model: DevicePerfModel
    hop: HopModel

    def __post_init__(self) -> None:
        if self.num_stages < 1:
            raise ParallelismError("pipeline needs >= 1 stage")
        if self.config.num_layers % self.num_stages:
            raise ParallelismError(
                f"{self.config.name}: {self.config.num_layers} layers not "
                f"divisible into {self.num_stages} stages")

    @property
    def layers_per_stage(self) -> int:
        return self.config.num_layers // self.num_stages

    @property
    def params_per_device(self) -> int:
        """Layer weights of one stage (embeddings live on the ends)."""
        per_layer = self.config.layer_param_bytes
        return self.layers_per_stage * per_layer

    def _hop_payload(self, batch_tokens: int) -> float:
        return float(batch_tokens * self.config.d_model
                     * self.config.dtype_bytes)

    def stage_time(self, context_len: int, batch_tokens: int = 1) -> float:
        """Time one pipeline stage spends on its layer range."""
        if batch_tokens == 1:
            stage = compact_gen_stage(self.config, context_len)
        else:
            stage = compact_sum_stage(self.config, batch_tokens)
        # Per-layer op lists are homogeneous; charge this stage its share
        # of the layer work plus its share of embedding/LM-head ends.
        total = stage_result("stage", stage, self.model).time_s
        return total / self.num_stages

    def token_latency(self, context_len: int) -> float:
        """Gen-token latency: all stages in sequence plus boundary hops."""
        hops = (self.num_stages - 1) * self.hop(self._hop_payload(1))
        return self.num_stages * self.stage_time(context_len) + hops

    def steady_throughput(self, context_len: int) -> float:
        """Tokens/s with the pipeline kept full by concurrent requests."""
        bottleneck = self.stage_time(context_len) \
            + self.hop(self._hop_payload(1))
        return 1.0 / bottleneck

    def pipeline_bubble_fraction(self, tokens_in_flight: int) -> float:
        """Idle fraction when fewer requests than stages are in flight."""
        if tokens_in_flight < 1:
            raise ParallelismError("need at least one token in flight")
        busy = min(tokens_in_flight, self.num_stages)
        return 1.0 - busy / self.num_stages
