"""Functional tensor-parallel inference across multiple CXL-PNM devices.

The paper removed DFX's device-to-device router and instead lets *the
host* orchestrate inter-device communication through the unified CXL
address space (§V-C).  This module makes that concrete and functional:

* each device holds a Megatron-style shard of every layer (its slice of
  the attention heads and FFN columns) plus its shard of the KV cache;
* per half-layer, the host writes the normalized activations into every
  device's input buffer **over CXL.mem line writes**, launches each
  device's acceleration code through its driver, reads the partial
  results back over CXL.mem, and reduces them in host software —
  exactly the "host CPU orchestrates the device-to-device
  communications" flow;
* the host-side glue (LayerNorm, residuals, reduction, LM head) uses the
  same float32 primitives as the golden model.

Integration tests drive a 2- and 4-way sharded tiny GPT and assert the
generated tokens match the single-device reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.accelerator import isa
from repro.accelerator.memory import DeviceMemory, Region
from repro.cxl.memdev import FunctionalCxlDevice
from repro.errors import ConfigurationError, ParallelismError
from repro.llm.config import LLMConfig
from repro.llm.reference import LN_EPS, ModelWeights, layernorm
from repro.runtime.driver import CxlPnmDriver
from repro.units import MiB


def _shard_cols(d: int, rank: int, degree: int) -> slice:
    width = d // degree
    return slice(rank * width, (rank + 1) * width)


@dataclass
class _DeviceShard:
    """One device's state: memory, driver, CXL front end, and layout."""

    memory: DeviceMemory
    driver: CxlPnmDriver
    cxl: FunctionalCxlDevice
    regions: Dict[str, Region]

    def addr(self, name: str) -> int:
        return self.regions[name].addr


class TensorParallelSession:
    """Generate tokens with one model sharded across N simulated devices.

    Attributes:
        config: The (dense) model architecture.
        degree: Tensor-parallel ways; must divide heads and d_ff.
    """

    def __init__(self, weights: ModelWeights, degree: int,
                 memory_bytes: int = 0):
        config = weights.config
        if degree < 1:
            raise ParallelismError("degree must be >= 1")
        if config.num_heads % degree or config.d_ff % degree:
            raise ParallelismError(
                f"{config.name} does not shard {degree} ways")
        self.config = config
        self.degree = degree
        self.weights = weights
        self._d_local = config.d_model // degree
        self._dff_local = config.d_ff // degree
        self._heads_local = config.num_heads // degree
        if memory_bytes == 0:
            per_device = (config.param_bytes * 2 // degree
                          + 4 * config.max_seq_len * config.d_model * 4
                          + 8 * MiB)
            memory_bytes = int(per_device * 1.5)
        self.devices = [self._build_shard(rank, memory_bytes)
                        for rank in range(degree)]
        self._context_len = 0
        self.host_cxl_writes = 0
        self.host_cxl_reads = 0

    # -- shard construction ---------------------------------------------------

    def _build_shard(self, rank: int, memory_bytes: int) -> _DeviceShard:
        cfg, w = self.config, self.weights
        d = cfg.d_model
        memory = DeviceMemory(memory_bytes)
        regions: Dict[str, Region] = {}

        def put(name: str, tensor: np.ndarray) -> None:
            regions[name] = memory.store_named(name, tensor)

        for i, layer in enumerate(w.layers):
            prefix = f"layer{i}."
            heads = _shard_cols(cfg.num_heads, rank, self.degree)
            hd = cfg.head_dim
            col0, col1 = heads.start * hd, heads.stop * hd
            qkv_cols = np.r_[col0:col1, d + col0:d + col1,
                             2 * d + col0:2 * d + col1]
            put(prefix + "w_qkv", layer.w_qkv[:, qkv_cols])
            put(prefix + "b_qkv", layer.b_qkv[qkv_cols])
            put(prefix + "w_proj", layer.w_proj[col0:col1, :])
            ff = _shard_cols(cfg.d_ff, rank, self.degree)
            put(prefix + "w_fc1", layer.w_fc1[:, ff])
            put(prefix + "b_fc1", layer.b_fc1[ff])
            put(prefix + "w_fc2", layer.w_fc2[ff, :])
            regions[prefix + "kcache"] = memory.alloc_tensor(
                prefix + "kcache", (cfg.max_seq_len, self._d_local))
            regions[prefix + "vcache"] = memory.alloc_tensor(
                prefix + "vcache", (cfg.max_seq_len, self._d_local))
        regions["input_buffer"] = memory.alloc_tensor(
            "input_buffer", (cfg.max_seq_len, d))
        regions["partial_buffer"] = memory.alloc_tensor(
            "partial_buffer", (cfg.max_seq_len, max(d, self._dff_local)))
        driver = CxlPnmDriver(memory)
        cxl = FunctionalCxlDevice(memory, control=driver.control)
        return _DeviceShard(memory=memory, driver=driver, cxl=cxl,
                            regions=regions)

    # -- host orchestration ----------------------------------------------------

    @property
    def context_len(self) -> int:
        return self._context_len

    def _broadcast(self, tensor: np.ndarray) -> None:
        """Host writes activations into every device over CXL.mem."""
        for shard in self.devices:
            self.host_cxl_writes += shard.cxl.host_store_tensor(
                shard.addr("input_buffer"), tensor)

    def _launch(self, shard: _DeviceShard,
                code: Sequence[isa.Instruction]) -> None:
        shard.driver.program(tuple(code))
        shard.driver.launch()
        shard.driver.acknowledge()

    def _gather_partials(self, m: int, cols: int) -> np.ndarray:
        """Host reads each device's partial and reduces (the 'all-reduce'
        of §V-C, performed by the host through the unified map)."""
        total = np.zeros((m, cols), dtype=np.float32)
        for shard in self.devices:
            partial = shard.cxl.host_load_tensor(
                shard.addr("partial_buffer"), (m, cols))
            self.host_cxl_reads += -(-partial.nbytes // 64)
            total = total + partial
        return total

    def _attention_half_layer(self, layer: int, h: np.ndarray,
                              ctx_prev: int) -> np.ndarray:
        cfg = self.config
        m, d = h.shape
        ctx = ctx_prev + m
        self._broadcast(h)
        for shard in self.devices:
            prefix = f"layer{layer}."
            dl = self._d_local
            row_bytes = dl * 4
            code: List[isa.Instruction] = [
                isa.DmaLoad(dst="m0", addr=shard.addr("input_buffer"),
                            shape=(m, d)),
                isa.weight_matmul(dst="m1", act="m0",
                                  weight_addr=shard.addr(prefix + "w_qkv"),
                                  m=m, k=d, n=3 * dl),
                isa.VpuBias(dst="m1", src="m1",
                            bias_addr=shard.addr(prefix + "b_qkv"),
                            n=3 * dl),
                isa.VpuSlice(dst="m2", src="m1", start=0, stop=dl),
                isa.VpuSlice(dst="m3", src="m1", start=dl, stop=2 * dl),
                isa.VpuSlice(dst="m4", src="m1", start=2 * dl,
                             stop=3 * dl),
                isa.DmaStore(src="m3",
                             addr=shard.addr(prefix + "kcache")
                             + ctx_prev * row_bytes, shape=(m, dl)),
                isa.DmaStore(src="m4",
                             addr=shard.addr(prefix + "vcache")
                             + ctx_prev * row_bytes, shape=(m, dl)),
                isa.MpuMaskedMm(dst="m5", q="m2",
                                k_addr=shard.addr(prefix + "kcache"),
                                heads=self._heads_local,
                                head_dim=cfg.head_dim, ctx=ctx, m=m,
                                scale=1.0 / math.sqrt(cfg.head_dim),
                                mask_offset=ctx_prev, rowmax_dst="v0"),
                isa.VpuSoftmax(dst="m6", src="m5", rowmax="v0"),
                isa.MpuAttnContext(dst="m7", probs="m6",
                                   v_addr=shard.addr(prefix + "vcache"),
                                   heads=self._heads_local,
                                   head_dim=cfg.head_dim, ctx=ctx, m=m),
                isa.weight_matmul(dst="m8", act="m7",
                                  weight_addr=shard.addr(prefix + "w_proj"),
                                  m=m, k=dl, n=d),
                isa.DmaStore(src="m8", addr=shard.addr("partial_buffer"),
                             shape=(m, d)),
                isa.Free(regs=("m0", "m1", "m2", "m3", "m4", "m5", "m6",
                               "m7", "m8", "v0")),
            ]
            self._launch(shard, code)
        reduced = self._gather_partials(m, d)
        return reduced + self.weights.layers[layer].b_proj

    def _ffn_half_layer(self, layer: int, h: np.ndarray) -> np.ndarray:
        cfg = self.config
        m, d = h.shape
        self._broadcast(h)
        for shard in self.devices:
            prefix = f"layer{layer}."
            dffl = self._dff_local
            code: List[isa.Instruction] = [
                isa.DmaLoad(dst="m0", addr=shard.addr("input_buffer"),
                            shape=(m, d)),
                isa.weight_matmul(dst="m1", act="m0",
                                  weight_addr=shard.addr(prefix + "w_fc1"),
                                  m=m, k=d, n=dffl),
                isa.VpuBias(dst="m1", src="m1",
                            bias_addr=shard.addr(prefix + "b_fc1"),
                            n=dffl),
                isa.VpuGelu(dst="m2", src="m1"),
                isa.weight_matmul(dst="m3", act="m2",
                                  weight_addr=shard.addr(prefix + "w_fc2"),
                                  m=m, k=dffl, n=d),
                isa.DmaStore(src="m3", addr=shard.addr("partial_buffer"),
                             shape=(m, d)),
                isa.Free(regs=("m0", "m1", "m2", "m3")),
            ]
            self._launch(shard, code)
        reduced = self._gather_partials(m, d)
        return reduced + self.weights.layers[layer].b_fc2

    def _stage(self, tokens: Sequence[int], ctx_prev: int) -> int:
        cfg, w = self.config, self.weights
        for t in tokens:
            if not 0 <= t < cfg.vocab_size:
                raise ConfigurationError(f"token {t} outside vocabulary")
        tok = w.token_embedding[np.asarray(tokens, dtype=np.int64)]
        pos = w.position_embedding[ctx_prev:ctx_prev + len(tokens)]
        x = (tok + pos).astype(np.float32)
        for i, layer in enumerate(w.layers):
            h = layernorm(x, layer.ln1_gamma, layer.ln1_beta, eps=LN_EPS)
            x = x + self._attention_half_layer(i, h, ctx_prev)
            h = layernorm(x, layer.ln2_gamma, layer.ln2_beta, eps=LN_EPS)
            x = x + self._ffn_half_layer(i, h)
        final = layernorm(x[-1:], w.ln_f_gamma, w.ln_f_beta, eps=LN_EPS)
        logits = (final @ w.lm_head)[0]
        return int(np.argmax(logits))

    def generate(self, prompt: Sequence[int], num_tokens: int) -> List[int]:
        """Greedy-decode across the device group; tokens must match the
        single-device reference exactly (asserted by tests)."""
        if num_tokens <= 0:
            raise ConfigurationError("num_tokens must be positive")
        if not prompt:
            raise ConfigurationError("prompt must be non-empty")
        if len(prompt) + num_tokens > self.config.max_seq_len:
            raise ConfigurationError("sequence exceeds max_seq_len")
        self._context_len = 0
        tokens = [self._stage(list(prompt), ctx_prev=0)]
        self._context_len = len(prompt)
        for _ in range(num_tokens - 1):
            tokens.append(self._stage([tokens[-1]],
                                      ctx_prev=self._context_len))
            self._context_len += 1
        return tokens
