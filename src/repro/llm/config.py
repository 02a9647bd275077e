"""LLM architecture configurations and the OPT/GPT-3 model zoo.

The paper evaluates decoder-only transformers: the OPT family (125M .. 66B)
on real hardware and GPT-3-class models (up to 175B, "GPT-3.5") analytically.
:class:`LLMConfig` captures the architectural parameters that determine the
compute and memory behaviour of inference: layer count, embedding width,
head count, FFN width, vocabulary, and the parameter datatype.

Parameter-count arithmetic follows the standard decoder-only layout used by
OPT and GPT-3 (learned positional embeddings, tied or untied LM head folded
into the embedding count, pre-LayerNorm blocks):

* per decoding layer: QKV projection ``3 * d^2 + 3d``, attention output
  projection ``d^2 + d``, FFN ``d*d_ff + d_ff`` and ``d_ff*d + d``, two
  LayerNorms ``4d``;
* embeddings: ``vocab * d`` token plus ``max_seq_len * d`` positional;
* final LayerNorm ``2d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LLMConfig:
    """Architecture of a decoder-only transformer language model.

    Attributes:
        name: Human-readable model name, e.g. ``"OPT-13B"``.
        num_layers: Number of cascaded decoding layers (``M`` in the paper).
        d_model: Embedding dimension (``d_emb``).
        num_heads: Attention head count; ``d_model`` must divide evenly.
        d_ff: Feed-forward inner width; OPT/GPT use ``4 * d_model``.
        vocab_size: Token vocabulary size (OPT uses 50272).
        max_seq_len: Maximum positions with learned embeddings.
        dtype_bytes: Bytes per parameter/activation element (2 for FP16).
    """

    name: str
    num_layers: int
    d_model: int
    num_heads: int
    d_ff: int = 0
    vocab_size: int = 50272
    max_seq_len: int = 2048
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)
        if self.num_layers <= 0 or self.d_model <= 0 or self.num_heads <= 0:
            raise ConfigurationError(
                f"{self.name}: layer/dim/head counts must be positive"
            )
        if self.d_model % self.num_heads != 0:
            raise ConfigurationError(
                f"{self.name}: d_model={self.d_model} not divisible by "
                f"num_heads={self.num_heads}"
            )
        if self.dtype_bytes not in (1, 2, 4):
            raise ConfigurationError(
                f"{self.name}: unsupported dtype_bytes={self.dtype_bytes}"
            )

    @property
    def head_dim(self) -> int:
        """Per-head dimension; a multiple of 64 for all zoo models."""
        return self.d_model // self.num_heads

    @property
    def params_per_layer(self) -> int:
        """Parameter count of one decoding layer."""
        d, dff = self.d_model, self.d_ff
        attention = 3 * d * d + 3 * d + d * d + d
        ffn = d * dff + dff + dff * d + d
        norms = 4 * d
        return attention + ffn + norms

    @property
    def embedding_params(self) -> int:
        """Token plus learned positional embedding parameters."""
        return self.vocab_size * self.d_model + self.max_seq_len * self.d_model

    @cached_property
    def num_params(self) -> int:
        """Total parameter count (layers + embeddings + final LayerNorm).

        Computed once per (frozen) config: admission control reads it
        for every offered request.
        """
        return (
            self.num_layers * self.params_per_layer
            + self.embedding_params
            + 2 * self.d_model
        )

    @cached_property
    def param_bytes(self) -> int:
        """Bytes needed to store all parameters at ``dtype_bytes``."""
        return self.num_params * self.dtype_bytes

    @property
    def layer_param_bytes(self) -> int:
        """Bytes of one decoding layer's parameters."""
        return self.params_per_layer * self.dtype_bytes

    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes appended per token across all layers.

        Each layer stores one K and one V vector of ``d_model`` elements per
        token (the paper's ``2 x L x d_emb`` per layer).
        """
        return 2 * self.num_layers * self.d_model * self.dtype_bytes

    def working_set_bytes(self, seq_len: int) -> int:
        """Parameters plus KV cache for a context of ``seq_len`` tokens."""
        if seq_len < 0:
            raise ConfigurationError(f"negative seq_len={seq_len}")
        return self.param_bytes + seq_len * self.kv_bytes_per_token()

    def scaled(self, name: str, num_layers: int) -> "LLMConfig":
        """Return a copy with a different depth, for hypothetical models."""
        return replace(self, name=name, num_layers=num_layers)

    def with_dtype(self, dtype_bytes: int, suffix: str = "") -> "LLMConfig":
        """Return a quantized copy (e.g. ``dtype_bytes=1`` for INT8).

        Gen-stage token time is bandwidth-bound, so halving the datatype
        roughly halves latency — the LUT-GEMM-style lever the related
        work applies; our ablation bench quantifies it on CXL-PNM.
        """
        name = self.name + (suffix or f"-{8 * dtype_bytes}bit")
        return replace(self, name=name, dtype_bytes=dtype_bytes)


def _opt(name: str, layers: int, d_model: int, heads: int) -> LLMConfig:
    return LLMConfig(name=name, num_layers=layers, d_model=d_model,
                     num_heads=heads)


#: The OPT model family (Zhang et al., 2022), as evaluated in the paper.
OPT_125M = _opt("OPT-125M", 12, 768, 12)
OPT_350M = _opt("OPT-350M", 24, 1024, 16)
OPT_1_3B = _opt("OPT-1.3B", 24, 2048, 32)
OPT_2_7B = _opt("OPT-2.7B", 32, 2560, 32)
OPT_6_7B = _opt("OPT-6.7B", 32, 4096, 32)
OPT_13B = _opt("OPT-13B", 40, 5120, 40)
OPT_30B = _opt("OPT-30B", 48, 7168, 56)
OPT_66B = _opt("OPT-66B", 64, 9216, 72)
OPT_175B = _opt("OPT-175B", 96, 12288, 96)

#: GPT-3 family points used by Fig. 2 (Brown et al., 2020 table 2.1).
GPT3_SMALL = LLMConfig("GPT-3 Small", 12, 768, 12)
GPT3_MEDIUM = LLMConfig("GPT-3 Medium", 24, 1024, 16)
GPT3_LARGE = LLMConfig("GPT-3 Large", 24, 1536, 16)
GPT3_XL = LLMConfig("GPT-3 XL", 24, 2048, 16)
GPT3_2_7B = LLMConfig("GPT-3 2.7B", 32, 2560, 32)
GPT3_6_7B = LLMConfig("GPT-3 6.7B", 32, 4096, 32)
GPT3_13B = LLMConfig("GPT-3 13B", 40, 5120, 40)
GPT3_175B = LLMConfig("GPT-3 175B (GPT-3.5)", 96, 12288, 96)

MODEL_ZOO: Dict[str, LLMConfig] = {
    cfg.name: cfg
    for cfg in (
        OPT_125M, OPT_350M, OPT_1_3B, OPT_2_7B, OPT_6_7B, OPT_13B,
        OPT_30B, OPT_66B, OPT_175B,
        GPT3_SMALL, GPT3_MEDIUM, GPT3_LARGE, GPT3_XL, GPT3_2_7B,
        GPT3_6_7B, GPT3_13B, GPT3_175B,
    )
}

#: Models the paper's evaluation section runs on real devices.
EVALUATED_MODELS: Tuple[LLMConfig, ...] = (
    OPT_1_3B, OPT_2_7B, OPT_6_7B, OPT_13B, OPT_30B, OPT_66B,
)


def get_model(name: str) -> LLMConfig:
    """Look up a zoo model by name, raising a helpful error if absent."""
    try:
        return MODEL_ZOO[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_ZOO))
        raise ConfigurationError(f"unknown model {name!r}; known: {known}")


def tiny_config(name: str = "tiny", num_layers: int = 2, d_model: int = 64,
                num_heads: int = 4, vocab_size: int = 256,
                max_seq_len: int = 64) -> LLMConfig:
    """A miniature configuration for functional tests and examples.

    Small enough that the functional executor can run full generation in
    milliseconds while exercising every code path of the real models.
    """
    return LLMConfig(name=name, num_layers=num_layers, d_model=d_model,
                     num_heads=num_heads, vocab_size=vocab_size,
                     max_seq_len=max_seq_len)
