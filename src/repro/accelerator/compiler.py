"""Compiler: lowers transformer stages into acceleration code.

The CXL-PNM Python library accelerates layer functions by programming the
instruction buffer with sequences of accelerator instructions (paper §VI).
This module is the code generator: given a model layout in device memory
and the stage geometry, it emits the acceleration code for a full sum or
gen stage — QKV generation on the PE array or adder trees, REDUMAX-fused
masked attention, softmax, projection, FFN with GELU, KV-cache append, and
the LM head with greedy argmax.

The emitted code is consumed three ways, from one source of truth:

* the functional executor runs it (token-exact vs the numpy reference);
* the timing simulator schedules it onto DMA/PE-array/adder-tree/VPU;
* the driver writes it into the simulated instruction buffer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.accelerator import isa
from repro.accelerator.memory import DeviceMemory, Region, pack_regions
from repro.accelerator.registers import RegisterAllocator
from repro.errors import (
    CapacityError,
    ConfigurationError,
    ProgramVerificationError,
)
from repro.llm.config import LLMConfig
from repro.llm.reference import LN_EPS, ModelWeights

#: Tile dimension of the matrix units; the paper doubles DFX's 64 to 128
#: to exploit the 1.1 TB/s module (§V-C).  Matmul dimensions need not be
#: multiples of it functionally, but the timing model rounds tiles up.
TILE_DIM = 128

#: Per-layer weight matrices the int8 quantizing loader compresses (the
#: streamed GEMV/GEMM operands that dominate gen-stage bandwidth).
#: Embeddings, biases, LayerNorm parameters, and the KV caches stay at
#: the full functional width.
_QUANTIZED_SUFFIXES = ("w_qkv", "w_proj", "w_fc1", "w_fc2")


def _is_quantized_weight(name: str) -> bool:
    return name == "lm_head" or name.rsplit(".", 1)[-1] in _QUANTIZED_SUFFIXES


def quantize_per_channel(tensor: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8 quantization of a ``[k, n]``
    weight matrix.

    Returns ``(codes, scales)``: ``codes`` holds integral values in
    ``[-127, 127]`` (kept in a float32 array because device memory is
    functionally fp32), ``scales`` the per-column dequantization factor
    such that ``codes * scales`` approximates ``tensor`` with at most
    half a quantization step of error per element.
    """
    tensor = np.asarray(tensor, dtype=np.float32)
    scales = np.max(np.abs(tensor), axis=0) / np.float32(127.0)
    scales = np.where(scales > 0, scales, np.float32(1.0)).astype(np.float32)
    codes = np.clip(np.rint(tensor / scales), -127, 127).astype(np.float32)
    return codes, scales


def _quantized_image(tensors: Mapping[str, np.ndarray],
                     spans: Sequence[Tuple[str, int]]) -> np.ndarray:
    """The int8 loader's parameter image: each quantized matrix's codes
    and ``.scale`` row, every other tensor as is, laid out by
    :func:`pack_regions` over ``spans``."""
    regions, end = pack_regions(spans)
    image = np.zeros(end // 4, dtype=np.float32)

    def place(name: str, values: np.ndarray) -> None:
        region = regions[name]
        image[region.addr // 4:region.end // 4] = values.reshape(-1)

    for name, tensor in tensors.items():
        if name + ".scale" in regions:
            codes, scales = quantize_per_channel(tensor)
            place(name, codes)
            place(name + ".scale", scales)
        else:
            place(name, tensor)
    image.flags.writeable = False
    return image


@dataclass(frozen=True)
class ModelLayout:
    """Addresses of every model tensor and working buffer in device memory.

    Attributes:
        config: The model architecture.
        regions: Tensor name -> allocated region (weights, caches, I/O),
            read-only: timing layouts are shared between programs.
        quantize: ``"int8"`` when the loader stored quantized weight
            codes plus per-channel ``<name>.scale`` regions, else None.
    """

    config: LLMConfig
    regions: Mapping[str, Region]
    quantize: Optional[str] = field(default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions",
                           MappingProxyType(dict(self.regions)))

    def addr(self, name: str) -> int:
        try:
            return self.regions[name].addr
        except KeyError:
            raise ConfigurationError(f"layout has no tensor {name!r}")

    @property
    def output_region(self) -> Region:
        return self.regions["output_buffer"]

    @property
    def input_region(self) -> Region:
        return self.regions["input_buffer"]


def load_model(memory: DeviceMemory, weights: ModelWeights,
               quantize: Optional[str] = None) -> ModelLayout:
    """Map a model's parameter image into device memory and build its
    layout.

    The fp32 parameters map ``weights.image`` itself, read-only and not
    copied, so every session on one :class:`ModelWeights` shares it.
    Also allocates the per-layer KV-cache regions (``max_seq_len`` rows
    each, the aggregated K and V matrices of §II-B) and the designated
    input/output buffers the driver exposes (§VI step 2/3), above the
    image in the device's own storage.

    ``quantize="int8"`` runs the quantizing pass at load time: each
    streamed weight matrix (per-layer QKV/projection/FFN and the LM
    head) becomes integral int8 codes with a ``<name>.scale`` region of
    per-output-channel dequantization scales alongside, in an image
    built once per :class:`ModelWeights` and mapped, read-only, by every
    int8 session on them.
    """
    if quantize not in (None, "int8"):
        raise ConfigurationError(
            f"unknown quantize mode {quantize!r} (expected None or 'int8')")
    config = weights.config
    tensors = weights.named_tensors()
    spans = []
    for name, tensor in tensors.items():
        spans.append((name, tensor.nbytes))
        if quantize == "int8" and _is_quantized_weight(name):
            spans.append((name + ".scale", tensor.shape[1] * 4))
    if quantize is None:
        image = weights.image
    else:
        if weights.int8_image is None:
            weights.int8_image = _quantized_image(tensors, spans)
        image = weights.int8_image
    regions = memory.map_image(image, spans)
    for i in range(config.num_layers):
        for which in ("kcache", "vcache"):
            name = f"layer{i}.{which}"
            regions[name] = memory.alloc_tensor(
                name, (config.max_seq_len, config.d_model))
    regions["input_buffer"] = memory.alloc_tensor(
        "input_buffer", (config.max_seq_len, config.d_model))
    # Sized for the widest single store: one token per request of a
    # batched decode step (shape ``(batch,)``), which can exceed the
    # historical 8-slot buffer.
    regions["output_buffer"] = memory.alloc_tensor(
        "output_buffer", (max(8, config.max_seq_len),))
    return ModelLayout(config=config, regions=regions, quantize=quantize)


class StageCompiler:
    """Emits acceleration code for one inference stage.

    ``quantize="int8"`` emits int8 GEMV/GEMM with fused dequant+bias
    against a layout built by ``load_model(..., quantize="int8")``
    (the compiler needs the ``<name>.scale`` regions); by default it
    inherits the layout's own quantization mode.
    """

    def __init__(self, layout: ModelLayout,
                 quantize: Optional[str] = None):
        self.layout = layout
        self.config = layout.config
        if quantize is None:
            quantize = layout.quantize
        if quantize not in (None, "int8"):
            raise ConfigurationError(
                f"unknown quantize mode {quantize!r} "
                f"(expected None or 'int8')")
        if quantize == "int8" and "lm_head.scale" not in layout.regions:
            raise ConfigurationError(
                "quantize='int8' needs a layout with per-channel scale "
                "regions (load the model with quantize='int8')")
        self.quantize = quantize

    def _matmul(self, out: str, act: str, weight: str, m: int, k: int,
                n: int, code: List[isa.Instruction],
                bias: Optional[str] = None) -> None:
        """One weight matmul over ``m`` rows, on the datapath
        :func:`~repro.accelerator.isa.weight_matmul` picks.

        In int8 mode the per-channel scales stream from the weight's
        ``.scale`` region and ``bias`` (when given) is fused into the
        matmul's dequantizing writeback; in fp16 mode the bias stays a
        separate ``VPU_BIAS``, so unquantized programs are bit-identical
        to the historical emission.
        """
        addr = self.layout.addr
        int8 = self.quantize == "int8"
        code.append(isa.weight_matmul(
            dst=out, act=act, weight_addr=addr(weight), m=m, k=k, n=n,
            dtype="int8" if int8 else "fp16",
            scale_addr=addr(weight + ".scale") if int8 else -1,
            bias_addr=addr(bias) if int8 and bias is not None else -1))
        if bias is not None and not int8:
            code.append(isa.VpuBias(dst=out, src=out, bias_addr=addr(bias),
                                    n=n))

    def _layer(self, x: str, layer_idx: int, m: int, ctx_prev: int,
               regs: RegisterAllocator, code: List[isa.Instruction],
               requests: int = 1) -> str:
        """One decoder layer over ``m`` rows shared by ``requests``.

        The matmuls and vector ops run once over all rows; the KV
        appends and masked attention run once per request over its
        ``m // requests`` rows, reusing one set of registers.
        """
        cfg = self.config
        d, dff = cfg.d_model, cfg.d_ff
        heads, hd = cfg.num_heads, cfg.head_dim
        rows = m // requests
        ctx = ctx_prev + rows
        prefix = f"layer{layer_idx}."
        addr = self.layout.addr

        h = regs.matrix()
        code.append(isa.VpuLayerNorm(dst=h, src=x,
                                     gamma_addr=addr(prefix + "ln1_gamma"),
                                     beta_addr=addr(prefix + "ln1_beta"),
                                     n=d, eps=LN_EPS))
        qkv = regs.matrix()
        self._matmul(qkv, h, prefix + "w_qkv", m, d, 3 * d, code,
                     bias=prefix + "b_qkv")
        q, k_new, v_new = regs.matrix(), regs.matrix(), regs.matrix()
        code.append(isa.VpuSlice(dst=q, src=qkv, start=0, stop=d))
        code.append(isa.VpuSlice(dst=k_new, src=qkv, start=d, stop=2 * d))
        code.append(isa.VpuSlice(dst=v_new, src=qkv, start=2 * d,
                                 stop=3 * d))
        scores, rowmax = regs.matrix(), regs.vector()
        probs, attn = regs.matrix(), regs.matrix()
        row_bytes = d * 4
        for _ in range(requests):
            # Append this stage's K/V rows to the aggregated cache (§II-B).
            code.append(isa.DmaStore(
                src=k_new,
                addr=addr(prefix + "kcache") + ctx_prev * row_bytes,
                shape=(rows, d)))
            code.append(isa.DmaStore(
                src=v_new,
                addr=addr(prefix + "vcache") + ctx_prev * row_bytes,
                shape=(rows, d)))
            code.append(isa.MpuMaskedMm(
                dst=scores, q=q, k_addr=addr(prefix + "kcache"),
                heads=heads, head_dim=hd, ctx=ctx, m=rows,
                scale=1.0 / math.sqrt(hd), mask_offset=ctx_prev,
                rowmax_dst=rowmax))
            code.append(isa.VpuSoftmax(dst=probs, src=scores,
                                       rowmax=rowmax))
            code.append(isa.MpuAttnContext(
                dst=attn, probs=probs, v_addr=addr(prefix + "vcache"),
                heads=heads, head_dim=hd, ctx=ctx, m=rows))
        proj = regs.matrix()
        self._matmul(proj, attn, prefix + "w_proj", m, d, d, code,
                     bias=prefix + "b_proj")
        x2 = regs.matrix()
        code.append(isa.VpuAdd(dst=x2, a=x, b=proj))
        code.append(isa.Free(regs=(h, qkv, q, k_new, v_new, scores, rowmax,
                                   probs, attn, proj, x)))

        h2 = regs.matrix()
        code.append(isa.VpuLayerNorm(dst=h2, src=x2,
                                     gamma_addr=addr(prefix + "ln2_gamma"),
                                     beta_addr=addr(prefix + "ln2_beta"),
                                     n=d, eps=LN_EPS))
        f1 = regs.matrix()
        self._matmul(f1, h2, prefix + "w_fc1", m, d, dff, code,
                     bias=prefix + "b_fc1")
        g = regs.matrix()
        code.append(isa.VpuGelu(dst=g, src=f1))
        f2 = regs.matrix()
        self._matmul(f2, g, prefix + "w_fc2", m, dff, d, code,
                     bias=prefix + "b_fc2")
        x3 = regs.matrix()
        code.append(isa.VpuAdd(dst=x3, a=x2, b=f2))
        code.append(isa.Free(regs=(h2, f1, g, f2, x2)))
        return x3

    def _head(self, tokens: Sequence[int], ctx_prev: int,
              regs: RegisterAllocator, code: List[isa.Instruction],
              requests: int = 1) -> str:
        """Embed ``tokens``; returns the register the first layer reads.

        A single request's position rows start at ``ctx_prev``; a batch
        loads its rows from row 0.
        """
        cfg = self.config
        addr = self.layout.addr
        tok = regs.matrix()
        code.append(isa.DmaGather(dst=tok,
                                  table_addr=addr("token_embedding"),
                                  row_elems=cfg.d_model,
                                  indices=tuple(int(t) for t in tokens)))
        pos = regs.matrix()
        first_row = ctx_prev if requests == 1 else 0
        code.append(isa.DmaLoad(
            dst=pos,
            addr=addr("position_embedding") + first_row * cfg.d_model * 4,
            shape=(len(tokens), cfg.d_model)))
        x = regs.matrix()
        code.append(isa.VpuAdd(dst=x, a=tok, b=pos))
        code.append(isa.Free(regs=(tok, pos)))
        return x

    def _tail(self, x: str, regs: RegisterAllocator,
              code: List[isa.Instruction], requests: int = 1) -> None:
        """Final LayerNorm, LM head and greedy argmax: of the last row
        for a single request, of every row (one per request) for a
        batch."""
        cfg = self.config
        addr = self.layout.addr
        src, picked = x, ()
        if requests == 1:
            src = regs.matrix()
            picked = (src,)
            code.append(isa.VpuRow(dst=src, src=x, row=-1))
        final = regs.matrix()
        code.append(isa.VpuLayerNorm(dst=final, src=src,
                                     gamma_addr=addr("ln_f_gamma"),
                                     beta_addr=addr("ln_f_beta"),
                                     n=cfg.d_model, eps=LN_EPS))
        logits = regs.matrix()
        self._matmul(logits, final, "lm_head", requests, cfg.d_model,
                     cfg.vocab_size, code)
        token_reg = regs.scalar()
        code.append(isa.VpuArgmax(dst=token_reg, src=logits))
        code.append(isa.DmaStore(src=token_reg,
                                 addr=self.layout.output_region.addr,
                                 shape=(requests,)))
        code.append(isa.Free(regs=(x, *picked, final, logits, token_reg)))
        code.append(isa.Barrier())

    def _check_stage(self, m: int, ctx_prev: int) -> None:
        if m == 0:
            raise ConfigurationError("stage needs at least one token")
        if ctx_prev + m > self.config.max_seq_len:
            raise CapacityError(
                f"stage would reach {ctx_prev + m} tokens, beyond "
                f"max_seq_len={self.config.max_seq_len}")

    def compile_stage(self, tokens: Sequence[int], ctx_prev: int
                      ) -> Tuple[isa.Instruction, ...]:
        """Acceleration code for one stage over ``tokens``.

        ``ctx_prev`` is the number of tokens already in the KV cache: 0
        for the sum stage, ``L - 1`` for a gen stage.  The code embeds the
        tokens, runs all decoding layers, and leaves the argmax-sampled
        next token in the designated output buffer.
        """
        m = len(tokens)
        self._check_stage(m, ctx_prev)
        regs = RegisterAllocator()
        code: List[isa.Instruction] = []
        x = self._head(tokens, ctx_prev, regs, code)
        for layer_idx in range(self.config.num_layers):
            x = self._layer(x, layer_idx, m, ctx_prev, regs, code)
        self._tail(x, regs, code)
        return tuple(code)

    def compile_compact(self, tokens: Sequence[int], ctx_prev: int,
                        requests: int = 1) -> isa.CompactProgram:
        """:meth:`compile_stage` as a compact program: the same code,
        with only decoder layer 0 emitted.

        ``requests > 1`` splits ``tokens`` into that many requests of
        ``len(tokens) // requests`` rows each (``requests`` must divide
        it), all ``ctx_prev`` deep: a batched decode step at one row per
        request.
        """
        m = len(tokens)
        self._check_stage(m // requests, ctx_prev)
        return _compact(
            self.layout,
            lambda regs, code: self._head(tokens, ctx_prev, regs, code,
                                          requests),
            lambda x, regs, code: self._layer(x, 0, m, ctx_prev, regs,
                                              code, requests),
            lambda x, regs, code: self._tail(x, regs, code, requests))

    def compile_sum_stage(self, prompt: Sequence[int]
                          ) -> Tuple[isa.Instruction, ...]:
        """Sum stage: the whole prompt, empty cache."""
        return self.compile_stage(prompt, ctx_prev=0)

    def compile_gen_stage(self, token: int, context_len: int
                          ) -> Tuple[isa.Instruction, ...]:
        """Gen stage: one token against ``context_len - 1`` cached tokens."""
        if context_len < 1:
            raise ConfigurationError("gen stage needs prior context")
        return self.compile_stage([token], ctx_prev=context_len - 1)


#: Distinguishes programs from different :class:`ProgramCache` instances
#: (hence different layouts) in :attr:`CachedProgram.timing_key`.
_CACHE_SERIALS = itertools.count()


class CachedProgram(tuple):
    """A stage program carrying a cheap timing identity.

    ``timing_key`` is ``(cache_serial, batch_tokens, ctx_prev)``:
    programs with equal keys come from the same :class:`ProgramCache`
    (same layout, same config) and identical stage geometry, so they
    schedule identically and the timing simulator may reuse a cached
    :class:`~repro.perf.simulator.SimulationResult` without rescheduling.
    The instructions themselves are the ordinary tuple contents.
    """

    timing_key: Tuple[int, int, int]

    def __new__(cls, instructions: Sequence[isa.Instruction],
                timing_key: Tuple[int, int, int]) -> "CachedProgram":
        self = super().__new__(cls, instructions)
        self.timing_key = timing_key
        return self


def _patched(instr: isa.Instruction, **changes) -> isa.Instruction:
    """Clone a frozen instruction with a few fields swapped.

    ``dataclasses.replace`` re-runs ``__init__``/``__post_init__`` on
    every clone, which dominated the patch cost; the patched values are
    produced from an already-validated template (``verify=True`` and the
    cache tests check the equivalence), so a ``__dict__``-level copy is
    safe and several times cheaper.
    """
    clone = object.__new__(type(instr))
    clone.__dict__.update(instr.__dict__)
    clone.__dict__.update(changes)
    return clone


class ProgramCache:
    """Compile-once, patch-per-token cache of stage programs.

    Decode programs are identical up to the fed-back token id and the
    context length: instruction order, register names, and weight
    addresses depend only on the batch size and the layout.  The cache
    keeps one *template* program per batch size and patches the few
    geometry-dependent immediates — embedding-gather indices, the
    position-embedding address, the per-layer KV-append addresses, and
    the attention spans — with a ``__dict__``-level clone.  The patched
    program compares equal to a fresh ``compile_stage`` of the same
    arguments (``verify=True`` asserts this on every patch; the test
    suite asserts it across geometries).

    Patching rewrites immediates only, never register operands or
    instruction order, so a patched program inherits the template's
    validity and is registered with the validate-once registry instead
    of being re-checked.

    Attributes:
        hits: Stages served by patching (or returning) a template.
        misses: Stages that required a full compile.
    """

    def __init__(self, compiler: StageCompiler, verify: bool = False,
                 verify_static: bool = False):
        self.compiler = compiler
        self.verify = verify
        #: Run the :mod:`repro.analysis` verifier once per distinct
        #: ``timing_key`` and raise ``ProgramVerificationError`` on any
        #: ERROR diagnostic.  Patched programs share their template's
        #: register structure, so the per-key check only adds the cheap
        #: address pass on geometries not seen before.
        self.verify_static = verify_static
        self._serial = next(_CACHE_SERIALS)
        #: batch size -> (template, template tokens, template ctx_prev,
        #: tuple of (instruction index, patch kind))
        self._templates: Dict[int, Tuple[CachedProgram, Tuple[int, ...],
                                         int, Tuple[Tuple[int, str], ...]]] \
            = {}
        self._static_ok: set = set()
        self.hits = 0
        self.misses = 0

    def _verify_static(self, program: "CachedProgram",
                       full: bool) -> None:
        """Statically verify one cached program (once per timing key).

        ``full=True`` (template miss) runs dataflow + address +
        pressure; ``full=False`` (patched clone) skips the
        shape-inference pressure pass, since patching rewrites
        immediates and inherits the template's register structure.
        """
        if not self.verify_static or program.timing_key in self._static_ok:
            return
        from repro.analysis.verifier import verify_program
        report = verify_program(
            program, layout=self.compiler.layout,
            check_pressure=full,
            subject=f"stage timing_key={program.timing_key}")
        if not report.ok:
            raise ProgramVerificationError(report.render())
        self._static_ok.add(program.timing_key)

    @staticmethod
    def _patch_plan(program: Sequence[isa.Instruction]
                    ) -> Tuple[Tuple[int, str], ...]:
        plan: List[Tuple[int, str]] = []
        for idx, instr in enumerate(program):
            if isinstance(instr, isa.DmaGather):
                plan.append((idx, "gather"))
            elif isinstance(instr, isa.DmaLoad):
                # The only load is the position-embedding block, whose
                # address is ctx_prev rows into the table.
                plan.append((idx, "addr"))
            elif isinstance(instr, isa.DmaStore) and len(instr.shape) == 2:
                # 2-D stores are the KV-cache appends at row ctx_prev;
                # the 1-D output-token store is geometry-independent.
                plan.append((idx, "addr"))
            elif isinstance(instr, isa.MpuMaskedMm):
                plan.append((idx, "attn"))
            elif isinstance(instr, isa.MpuAttnContext):
                plan.append((idx, "ctx"))
        return tuple(plan)

    def stage(self, tokens: Sequence[int], ctx_prev: int) -> CachedProgram:
        """Equivalent of ``compiler.compile_stage(tokens, ctx_prev)``."""
        tokens = tuple(int(t) for t in tokens)
        m = len(tokens)
        entry = self._templates.get(m)
        if entry is None:
            fresh = self.compiler.compile_stage(tokens, ctx_prev)
            program = CachedProgram(fresh, (self._serial, m, ctx_prev))
            isa.validate_program_cached(program)
            self._verify_static(program, full=True)
            self._templates[m] = (program, tokens, ctx_prev,
                                  self._patch_plan(program))
            self.misses += 1
            return program
        template, tpl_tokens, tpl_ctx, plan = entry
        self.hits += 1
        if tokens == tpl_tokens and ctx_prev == tpl_ctx:
            return template
        cfg = self.compiler.config
        if ctx_prev + m > cfg.max_seq_len:
            raise CapacityError(
                f"stage would reach {ctx_prev + m} tokens, beyond "
                f"max_seq_len={cfg.max_seq_len}")
        delta_bytes = (ctx_prev - tpl_ctx) * cfg.d_model * 4
        ctx = ctx_prev + m
        code = list(template)
        for idx, kind in plan:
            instr = code[idx]
            if kind == "gather":
                code[idx] = _patched(instr, indices=tokens)
            elif kind == "addr":
                code[idx] = _patched(instr, addr=instr.addr + delta_bytes)
            elif kind == "attn":
                code[idx] = _patched(instr, ctx=ctx, mask_offset=ctx_prev)
            else:  # "ctx"
                code[idx] = _patched(instr, ctx=ctx)
        patched = CachedProgram(code, (self._serial, m, ctx_prev))
        isa.register_validated(patched)
        self._verify_static(patched, full=False)
        if self.verify:
            fresh = self.compiler.compile_stage(tokens, ctx_prev)
            if tuple(patched) != fresh:
                raise ConfigurationError(
                    "patched stage program diverged from a fresh compile "
                    f"at batch_tokens={m}, ctx_prev={ctx_prev}")
        return patched

    def sum_stage(self, prompt: Sequence[int]) -> CachedProgram:
        """Equivalent of ``compiler.compile_sum_stage(prompt)``."""
        return self.stage(prompt, ctx_prev=0)

    def gen_stage(self, token: int, context_len: int) -> CachedProgram:
        """Equivalent of ``compiler.compile_gen_stage(token, ...)``."""
        if context_len < 1:
            raise ConfigurationError("gen stage needs prior context")
        return self.stage((token,), ctx_prev=context_len - 1)


def _compact(layout: ModelLayout,
             emit_head: Callable[[RegisterAllocator, List[isa.Instruction]],
                                 str],
             emit_layer: Callable[[str, RegisterAllocator,
                                   List[isa.Instruction]], str],
             emit_tail: Callable[[str, RegisterAllocator,
                                  List[isa.Instruction]], None]
             ) -> isa.CompactProgram:
    """A stage as head, decoder layer 0 and tail.

    ``emit_head`` returns the register the first layer reads;
    ``emit_layer`` emits layer 0 from that register and returns the one
    it hands on.  The allocator then skips the registers layers 1.. take
    in the flat program, so the tail holds its flat names.  Each layer's
    regions sit one layer block after the previous layer's.
    """
    num_layers = layout.config.num_layers
    regs = RegisterAllocator()
    head: List[isa.Instruction] = []
    carry_in = emit_head(regs, head)
    before = regs.counts()
    layer: List[isa.Instruction] = []
    carry_out = emit_layer(carry_in, regs, layer)
    stride = {bank: n - before[bank] for bank, n in regs.counts().items()}
    regs.skip({bank: n * (num_layers - 1) for bank, n in stride.items()})
    tail: List[isa.Instruction] = []
    emit_tail(isa.renumbered(carry_out, stride, num_layers - 1), regs, tail)
    layer_bytes = (layout.addr("layer1.ln1_gamma")
                   - layout.addr("layer0.ln1_gamma")) if num_layers > 1 else 0
    return isa.CompactProgram(
        head=tuple(head), layer=tuple(layer), tail=tuple(tail),
        num_layers=num_layers, carry_in=carry_in, carry_out=carry_out,
        reg_stride=tuple(stride.items()), layer_bytes=layer_bytes)


@functools.lru_cache(maxsize=32)
def _fake_layout(config: LLMConfig,
                 quantize: Optional[str] = None) -> ModelLayout:
    """A layout with correctly-sized regions but no backing memory.

    Cached per ``(config, quantize)``: every timing program of a model
    shares one (read-only) layout.
    """
    regions: Dict[str, Region] = {}
    cursor = 0

    def fake(name: str, elems: int) -> None:
        nonlocal cursor
        regions[name] = Region(name=name, addr=cursor, nbytes=elems * 4)
        cursor += elems * 4

    def weight(name: str, elems: int, n: int) -> None:
        fake(name, elems)
        if quantize == "int8":
            fake(name + ".scale", n)

    d, dff, vocab = config.d_model, config.d_ff, config.vocab_size
    fake("token_embedding", vocab * d)
    fake("position_embedding", config.max_seq_len * d)
    for i in range(config.num_layers):
        p = f"layer{i}."
        fake(p + "ln1_gamma", d)
        fake(p + "ln1_beta", d)
        weight(p + "w_qkv", d * 3 * d, 3 * d)
        fake(p + "b_qkv", 3 * d)
        weight(p + "w_proj", d * d, d)
        fake(p + "b_proj", d)
        fake(p + "ln2_gamma", d)
        fake(p + "ln2_beta", d)
        weight(p + "w_fc1", d * dff, dff)
        fake(p + "b_fc1", dff)
        weight(p + "w_fc2", dff * d, d)
        fake(p + "b_fc2", d)
        fake(p + "kcache", config.max_seq_len * d)
        fake(p + "vcache", config.max_seq_len * d)
    fake("ln_f_gamma", d)
    fake("ln_f_beta", d)
    weight("lm_head", d * vocab, vocab)
    fake("input_buffer", config.max_seq_len * d)
    fake("output_buffer", max(8, config.max_seq_len))
    return ModelLayout(config=config, regions=regions, quantize=quantize)


def timing_layout(config: LLMConfig,
                  quantize: Optional[str] = None) -> ModelLayout:
    """Public accessor for the timing-only fake layout.

    The static verifier (``repro lint-program``) uses it to run the
    layout-aware address checks against the exact region map the timing
    programs were compiled for, without allocating device memory.
    """
    return _fake_layout(config, quantize=quantize)


def timing_program(config: LLMConfig, batch_tokens: int, ctx_prev: int,
                   quantize: Optional[str] = None) -> isa.CompactProgram:
    """A stage program with placeholder tokens/addresses for timing only.

    Builds a fake layout with correctly-sized regions but no backing
    memory, so the timing simulator can schedule real instruction streams
    for models far larger than simulatable memory.  ``quantize="int8"``
    emits the int8 weight path so the simulator prices the halved
    weight stream.  The program is compact (one decoder layer emitted);
    its expansion equals ``compile_stage`` on the same layout.
    """
    layout = _fake_layout(config, quantize=quantize)
    return StageCompiler(layout).compile_compact([0] * batch_tokens,
                                                 ctx_prev)


def batched_timing_program(config: LLMConfig, batch: int, ctx_prev: int,
                           quantize: Optional[str] = None
                           ) -> isa.CompactProgram:
    """One batched decode step for timing: a gen token from each of
    ``batch`` concurrent requests, all at attention span ``ctx_prev + 1``.

    The stage compiler's program for ``batch`` requests of one row each
    (:meth:`StageCompiler.compile_compact`), the instruction-level twin
    of :func:`repro.llm.batching.compact_batched_gen_stage`: the weight
    matmuls run once as ``[batch x k] @ [k x n]`` GEMMs (weights stream
    once per step), while KV appends and masked attention run per
    request at ``m=1`` on the adder trees.  At ``batch=1`` it is
    :func:`timing_program` of one token.  Timing only, on a fake
    layout: at ``batch > 1`` two things still block executing it.
    Every request appends to and attends over the same KV cache rows
    (no per-request KV addresses), and each request's store and
    attention read the whole ``[batch x d]`` register where they mean
    the request's own row (no per-request row shapes).  The program is
    compact, like :func:`timing_program`'s.
    """
    if batch < 1:
        raise ConfigurationError(f"batch={batch} must be >= 1")
    if ctx_prev < 0 or ctx_prev + 1 > config.max_seq_len:
        raise CapacityError(
            f"context {ctx_prev + 1} beyond max_seq_len="
            f"{config.max_seq_len}")
    layout = _fake_layout(config, quantize=quantize)
    return StageCompiler(layout).compile_compact([0] * batch, ctx_prev,
                                                 requests=batch)
