"""Fig. 2: memory capacity and bandwidth the GPU needs per model size.

The paper plots, for growing GPT models, the memory capacity to hold the
FP16 parameters and the memory bandwidth required to generate one token
every 200 ms.  A gen stage streams every parameter byte plus the KV cache
once per token, so required bandwidth is (streamed bytes per token) /
latency budget.  GPT-3.5 lands at 326 GB and 1.75 TB/s — beyond a single
A100's 40-80 GB and 1.55 TB/s, the motivating gap.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List

from repro.experiments.report import ExperimentResult
from repro.llm.config import (
    GPT3_13B,
    GPT3_175B,
    GPT3_2_7B,
    GPT3_6_7B,
    GPT3_LARGE,
    GPT3_MEDIUM,
    GPT3_SMALL,
    GPT3_XL,
    LLMConfig,
)
from repro.llm.graph import compact_gen_stage, per_op
from repro.perf.metrics import left_sum
from repro.units import GB, GiB, TB

#: Latency constraint of the paper's figure.
LATENCY_BUDGET_S = 0.200

#: Sequence point at which the figure evaluates the KV traffic.
SEQUENCE_LENGTH = 2048

FIG2_MODELS = (GPT3_SMALL, GPT3_MEDIUM, GPT3_LARGE, GPT3_XL, GPT3_2_7B,
               GPT3_6_7B, GPT3_13B, GPT3_175B)


def required_bandwidth(config: LLMConfig, context_len: int = SEQUENCE_LENGTH,
                       budget_s: float = LATENCY_BUDGET_S) -> float:
    """Bytes/s the device must stream to hit the per-token budget."""
    streamed = left_sum(per_op(compact_gen_stage(config, context_len),
                               attrgetter("weight_bytes")))
    return streamed / budget_s


def run() -> ExperimentResult:
    rows: List[dict] = []
    for config in FIG2_MODELS:
        rows.append({
            "model": config.name,
            "params_B": config.num_params / 1e9,
            "capacity_GiB": config.param_bytes / GiB,
            "required_bw_TB_s": required_bandwidth(config) / TB,
        })
    return ExperimentResult(
        experiment_id="fig2",
        title="Capacity and bandwidth for 200 ms/token generation",
        rows=rows,
        anchors={
            "gpt3.5_capacity_gb": 326.0,
            "gpt3.5_required_bw_tb_s": 1.75,
            "a100_capacity_gb": 40.0,
            "a100_bandwidth_tb_s": 1.55,
        },
        notes=[
            "Capacity is FP16 parameter bytes (the paper quotes GiB); "
            "bandwidth is parameter+KV bytes streamed per gen token over "
            "the 200 ms budget at a 2048-token context.",
        ],
    )
