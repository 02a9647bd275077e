"""KV-cache sizing and growth model.

The attention layer of the sum stage produces key and value matrices of
``2 x L_in x d_emb`` per layer (paper §II-B); every gen stage appends one
K and one V vector per layer.  The cache is read in full by every gen
stage's attention, so its size contributes to the memory-bandwidth demand
of token generation on top of the model parameters.
"""

from __future__ import annotations

from repro.errors import CapacityError, ConfigurationError
from repro.llm.config import LLMConfig


def peak_kv_bytes(config: LLMConfig, input_len: int, output_len: int) -> int:
    """Largest cache footprint of a request (after the last token)."""
    total_tokens = input_len + output_len
    if total_tokens > config.max_seq_len:
        raise CapacityError(
            f"{config.name}: {input_len}+{output_len} tokens exceed "
            f"max_seq_len={config.max_seq_len}"
        )
    return total_tokens * config.kv_bytes_per_token()


def kv_spare_bytes(config: LLMConfig, memory_bytes: int) -> int:
    """Device bytes left for KV caches once parameters are resident.

    The admission-control budget of the serving schedulers: zero when the
    parameters alone overflow the device.
    """
    if memory_bytes < 0:
        raise ConfigurationError(f"negative memory_bytes={memory_bytes}")
    return max(0, memory_bytes - config.param_bytes)


def request_fits(config: LLMConfig, memory_bytes: int, input_len: int,
                 output_len: int, batch: int = 1) -> bool:
    """Whether parameters plus ``batch`` requests' peak KV fit in memory."""
    need = config.param_bytes + batch * peak_kv_bytes(config, input_len,
                                                      output_len)
    return need <= memory_bytes
