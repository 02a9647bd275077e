"""Golden numpy implementation of decoder-only transformer inference.

This is the functional ground truth for the CXL-PNM accelerator: the
instruction-level executor in :mod:`repro.accelerator.engine` must produce
numerically identical results (same op order, same float32 arithmetic) when
running the compiled acceleration code for the same weights.

The model follows the paper's Fig. 1 structure: token+positional embedding,
``M`` pre-LayerNorm decoding layers (QKV generation, scaled-dot-product
attention with causal mask, projection, residual; FC1, GELU, FC2, residual),
final LayerNorm, and an LM head producing vocabulary logits.  Inference runs
a sum stage over the prompt and then gen stages with an aggregated KV cache,
exactly as §II-B describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ExecutionError
from repro.llm.config import LLMConfig

LN_EPS = 1e-5
_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU, the variant LLM accelerators implement.

    The cube is three multiplies, not ``x ** 3``: ``np.power`` calls libm
    ``pow`` per element (~40x slower) and a real VPU would use the
    multiplier array anyway.
    """
    x = x.astype(np.float32)
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              eps: float = LN_EPS) -> np.ndarray:
    """LayerNorm over the last axis: mean/variance, scale by 1/std, bias.

    Mirrors the paper's description of the LayerNorm acceleration code
    ("calculates mean and variance, multiplies each weight by the inverse
    of standard deviation, and adds bias", §VI).
    """
    x = x.astype(np.float32)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (subtract running max, as REDUMAX does)."""
    x = x.astype(np.float32)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def causal_mask(rows: int, cols: int, offset: int) -> np.ndarray:
    """Boolean mask allowing row ``i`` to attend to columns ``<= i+offset``."""
    return np.arange(cols)[None, :] <= (np.arange(rows)[:, None] + offset)


@dataclass
class LayerWeights:
    """Parameters of one decoding layer (all float32)."""

    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    w_qkv: np.ndarray      # [d, 3d]
    b_qkv: np.ndarray      # [3d]
    w_proj: np.ndarray     # [d, d]
    b_proj: np.ndarray     # [d]
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    w_fc1: np.ndarray      # [d, d_ff]
    b_fc1: np.ndarray      # [d_ff]
    w_fc2: np.ndarray      # [d_ff, d]
    b_fc2: np.ndarray      # [d]


@dataclass
class ModelWeights:
    """Full parameter set of a decoder-only model.

    Every tensor is a read-only view of ``image``: one flat float32
    buffer holding the parameters in the device's address layout
    (:func:`~repro.accelerator.memory.pack_regions` over
    :meth:`named_tensors`, first tensor at address 0).  Device memory
    maps the image instead of copying it, so one set of parameters
    serves the reference model and every session.
    """

    config: LLMConfig
    token_embedding: np.ndarray      # [vocab, d]
    position_embedding: np.ndarray   # [max_seq_len, d]
    layers: List[LayerWeights]
    ln_f_gamma: np.ndarray
    ln_f_beta: np.ndarray
    lm_head: np.ndarray              # [d, vocab]
    image: np.ndarray                # flat float32, read-only
    #: The int8 loader's read-only image of these parameters (codes,
    #: scales and unquantized tensors): built by the first int8 session,
    #: mapped by every later one.
    int8_image: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)

    def named_tensors(self) -> Dict[str, np.ndarray]:
        """Flat name->array view used by model loaders, in image order."""
        tensors = {}
        for name in _tensor_shapes(self.config):
            owner, _, attr = name.rpartition(".")
            holder = self.layers[int(owner.removeprefix("layer"))] \
                if owner else self
            tensors[name] = getattr(holder, attr)
        return tensors


#: float64 draws per chunk of :func:`scaled_normal`'s reused buffer.
NORMAL_CHUNK = 1 << 20


def scaled_normal(rng: np.random.Generator, scale: float, buf: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Fill the float32 ``out`` with
    ``(rng.standard_normal(out.shape) * scale).astype(float32)``, bit for
    bit, drawn chunk by chunk into the float64 ``buf`` instead of two
    full-size float64 temporaries; returns ``out``."""
    flat = out.reshape(-1)
    for start in range(0, flat.size, buf.size):
        part = buf[:min(buf.size, flat.size - start)]
        rng.standard_normal(out=part)
        part *= scale
        flat[start:start + part.size] = part
    return out


def _tensor_shapes(config: LLMConfig) -> Dict[str, Tuple[int, ...]]:
    """Every parameter's shape, in :meth:`ModelWeights.named_tensors`
    order."""
    d, dff, vocab = config.d_model, config.d_ff, config.vocab_size
    shapes: Dict[str, Tuple[int, ...]] = {
        "token_embedding": (vocab, d),
        "position_embedding": (config.max_seq_len, d),
        "ln_f_gamma": (d,),
        "ln_f_beta": (d,),
        "lm_head": (d, vocab),
    }
    for i in range(config.num_layers):
        prefix = f"layer{i}."
        for name, shape in (("ln1_gamma", (d,)), ("ln1_beta", (d,)),
                            ("w_qkv", (d, 3 * d)), ("b_qkv", (3 * d,)),
                            ("w_proj", (d, d)), ("b_proj", (d,)),
                            ("ln2_gamma", (d,)), ("ln2_beta", (d,)),
                            ("w_fc1", (d, dff)), ("b_fc1", (dff,)),
                            ("w_fc2", (dff, d)), ("b_fc2", (d,))):
            shapes[prefix + name] = shape
    return shapes


def random_weights(config: LLMConfig, seed: int = 0) -> ModelWeights:
    """Deterministic random parameters with a GPT-style init scale.

    Each matrix is drawn straight into its slice of the image.  The draw
    order (each layer's QKV, projection and FFN matrices, then the
    embeddings and the LM head) is not the image order, and it fixes
    every value of a seed.
    """
    # Imported here: the accelerator package imports this module.
    from repro.accelerator.memory import pack_regions

    shapes = _tensor_shapes(config)
    regions, end = pack_regions(
        (name, math.prod(shape) * 4) for name, shape in shapes.items())
    image = np.zeros(end // 4, dtype=np.float32)

    def tensor(name: str) -> np.ndarray:
        region = regions[name]
        return image[region.addr // 4:region.end // 4] \
            .reshape(shapes[name])

    rng = np.random.default_rng(seed)
    d, dff, vocab = config.d_model, config.d_ff, config.vocab_size
    # One draw buffer, no larger than the largest matrix: freeing a
    # buffer past glibc's mmap threshold raises the threshold, and the
    # heap then keeps later medium-sized arrays resident.
    largest = d * max(3 * d, dff, vocab, config.max_seq_len)
    buf = np.empty(min(NORMAL_CHUNK, largest))
    draws = [f"layer{i}.{name}" for i in range(config.num_layers)
             for name in ("w_qkv", "w_proj", "w_fc1", "w_fc2")]
    draws += ["token_embedding", "position_embedding", "lm_head"]
    for name in draws:
        scaled_normal(rng, 0.02, buf, tensor(name))
    for name in shapes:
        if name.endswith("_gamma"):
            tensor(name)[:] = 1.0
    # Biases and betas stay at the image's zeros.
    image.flags.writeable = False

    def layer(i: int) -> LayerWeights:
        return LayerWeights(**{attr.name: tensor(f"layer{i}.{attr.name}")
                               for attr in fields(LayerWeights)})

    return ModelWeights(
        config=config,
        token_embedding=tensor("token_embedding"),
        position_embedding=tensor("position_embedding"),
        layers=[layer(i) for i in range(config.num_layers)],
        ln_f_gamma=tensor("ln_f_gamma"),
        ln_f_beta=tensor("ln_f_beta"),
        lm_head=tensor("lm_head"),
        image=image,
    )


@dataclass
class KVState:
    """Aggregated per-layer key/value matrices, grown by each stage."""

    keys: List[np.ndarray] = field(default_factory=list)    # [L, d] per layer
    values: List[np.ndarray] = field(default_factory=list)

    @property
    def context_len(self) -> int:
        return 0 if not self.keys else self.keys[0].shape[0]


class ReferenceModel:
    """Plain-numpy decoder-only transformer used as the functional oracle."""

    def __init__(self, weights: ModelWeights):
        self.weights = weights
        self.config = weights.config

    def _attention(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                   offset: int) -> np.ndarray:
        """Multi-head scaled-dot-product attention with causal masking.

        ``q`` is [m, d]; ``k``/``v`` are [L, d] aggregated matrices.
        ``offset`` is how many cached tokens precede the first query row.
        """
        cfg = self.config
        m, L = q.shape[0], k.shape[0]
        hd = cfg.head_dim
        out = np.empty_like(q)
        mask = causal_mask(m, L, offset)
        scale = np.float32(1.0 / np.sqrt(hd))
        for h in range(cfg.num_heads):
            sl = slice(h * hd, (h + 1) * hd)
            scores = (q[:, sl] @ k[:, sl].T) * scale
            scores = np.where(mask, scores, np.float32(-1e9))
            out[:, sl] = softmax(scores, axis=-1) @ v[:, sl]
        return out

    def _decoder_layer(self, x: np.ndarray, layer: LayerWeights,
                       kv: KVState, layer_idx: int) -> np.ndarray:
        offset = kv.context_len if len(kv.keys) > layer_idx else 0
        h = layernorm(x, layer.ln1_gamma, layer.ln1_beta)
        qkv = h @ layer.w_qkv + layer.b_qkv
        d = self.config.d_model
        q, k_new, v_new = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
        if len(kv.keys) > layer_idx:
            k = np.concatenate([kv.keys[layer_idx], k_new], axis=0)
            v = np.concatenate([kv.values[layer_idx], v_new], axis=0)
            kv.keys[layer_idx] = k
            kv.values[layer_idx] = v
        else:
            k, v = k_new, v_new
            kv.keys.append(k)
            kv.values.append(v)
        attn = self._attention(q, k, v, offset)
        x = x + (attn @ layer.w_proj + layer.b_proj)
        h = layernorm(x, layer.ln2_gamma, layer.ln2_beta)
        h = gelu(h @ layer.w_fc1 + layer.b_fc1)
        x = x + (h @ layer.w_fc2 + layer.b_fc2)
        return x

    def _embed(self, tokens: Sequence[int], position0: int) -> np.ndarray:
        cfg = self.config
        for t in tokens:
            if not 0 <= t < cfg.vocab_size:
                raise ExecutionError(f"token {t} outside vocabulary")
        if position0 + len(tokens) > cfg.max_seq_len:
            raise ConfigurationError("sequence exceeds max_seq_len")
        tok = self.weights.token_embedding[np.asarray(tokens, dtype=np.int64)]
        pos = self.weights.position_embedding[
            position0:position0 + len(tokens)]
        return (tok + pos).astype(np.float32)

    def forward(self, tokens: Sequence[int], kv: KVState) -> np.ndarray:
        """Run one stage over ``tokens``; returns the last token's logits.

        With an empty ``kv`` this is the sum stage (tokens = prompt); with a
        populated cache it is a gen stage (tokens = the one new token).
        """
        if not tokens:
            raise ConfigurationError("forward needs at least one token")
        x = self._embed(tokens, position0=kv.context_len)
        for i, layer in enumerate(self.weights.layers):
            x = self._decoder_layer(x, layer, kv, i)
        w = self.weights
        final = layernorm(x[-1:], w.ln_f_gamma, w.ln_f_beta)
        return (final @ w.lm_head)[0]

    def generate(self, prompt: Sequence[int], num_tokens: int
                 ) -> List[int]:
        """Greedy-decode ``num_tokens`` tokens after ``prompt``."""
        if num_tokens <= 0:
            raise ConfigurationError("num_tokens must be positive")
        kv = KVState()
        logits = self.forward(list(prompt), kv)
        out = [int(np.argmax(logits))]
        for _ in range(num_tokens - 1):
            logits = self.forward([out[-1]], kv)
            out.append(int(np.argmax(logits)))
        return out
