"""Functional executor: runs acceleration code with exact numpy semantics.

This is the "RTL" of the reproduction: every instruction from
:mod:`repro.accelerator.isa` has precise arithmetic semantics here, chosen
to be *bit-identical in float32* to the golden model in
:mod:`repro.llm.reference`.  Integration tests generate text through the
full driver/compiler/executor path and assert token-exact agreement with
the reference transformer.

The executor owns a :class:`~repro.accelerator.memory.DeviceMemory` (model
parameters, KV cache, I/O buffers) and a
:class:`~repro.accelerator.registers.RegisterFileState` (live activations),
and enforces both address ranges and register-file capacity while running.

Operands a handler consumes itself (MPU weights, biases and scales,
attention keys and values, conv weights, VPU biases, LayerNorm
parameters) are read as zero-copy, read-only views of device memory
(:meth:`~repro.accelerator.memory.DeviceMemory.view_tensor`), the way the
accelerator streams weights straight out of its LPDDR.  Only
``DMA_LOAD`` copies, so a register holds a snapshot that a later store
cannot change.

With ``vectorized=True`` (the default) the per-head attention loops run
as one batched ``np.matmul`` and the row-by-row embedding gather as one
vectorized table read — per-slice BLAS calls are identical, so results
match the looped reference element-for-element — and per-program
statistics are memoized per stage geometry.  ``vectorized=False`` keeps
the loop forms and uncached accounting as the equivalence oracle (tests
assert bitwise equality).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator import isa
from repro.accelerator.memory import DeviceMemory
from repro.accelerator.registers import RegisterFileState
from repro.errors import ExecutionError
from repro.llm.reference import (_GELU_C, causal_mask, gelu, layernorm,
                                 softmax)
from repro.obs.context import get_metrics, get_tracer


@dataclass
class ExecutionStats:
    """Counters accumulated over one program run."""

    instructions: int = 0
    flops: float = 0.0
    mem_elems: float = 0.0
    by_opcode: Dict[str, int] = field(default_factory=dict)

    def record(self, instr: isa.Instruction, extra_mem_elems: float = 0.0
               ) -> None:
        self.instructions += 1
        self.flops += instr.flops()
        self.mem_elems += instr.mem_elems() + extra_mem_elems
        op = instr.opcode
        self.by_opcode[op] = self.by_opcode.get(op, 0) + 1

    def add_bulk(self, instructions: int, flops: float, mem_elems: float,
                 by_opcode: Dict[str, int]) -> None:
        """Fold a precomputed per-program aggregate into the counters."""
        self.instructions += instructions
        self.flops += flops
        self.mem_elems += mem_elems
        for op, count in by_opcode.items():
            self.by_opcode[op] = self.by_opcode.get(op, 0) + count


#: Most rows of ``k`` whose int8 partial sums float32 holds exactly:
#: every one is an integer of at most ``k * 127**2 <= 2**24``.
_EXACT_FP32_ROWS = (1 << 24) // (127 * 127)


def int8_codes_matmul(codes: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``codes @ weight`` over integral int8 codes (any float dtype),
    rounded once to float32, exactly as int32 accumulation rounds it.

    Every product is at most 127**2, so while ``k`` is at most
    ``_EXACT_FP32_ROWS`` every partial sum is an integer float32
    holds: the float32 BLAS matmul is exact in any summation order and
    needs no rounding.  A longer ``k`` runs in chunks of that many rows,
    each exact in float32, whose results add exactly in float64 (far
    below 2**53); the cast to float32 is then the only rounding, the
    same one the int32 accumulator's cast makes.
    """
    codes = codes.astype(np.float32, copy=False)
    weight = weight.astype(np.float32, copy=False)
    k = weight.shape[0]
    if k <= _EXACT_FP32_ROWS:
        return codes @ weight
    total = np.zeros(codes.shape[:-1] + weight.shape[1:])
    for start in range(0, k, _EXACT_FP32_ROWS):
        rows = slice(start, start + _EXACT_FP32_ROWS)
        total += codes[..., rows] @ weight[rows]
    return total.astype(np.float32)


def _fast_layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    eps: float) -> np.ndarray:
    """Bit-identical :func:`repro.llm.reference.layernorm`, fused.

    Skips the ``astype`` copy (inputs are float32 already) and reuses the
    centred values instead of letting ``np.var`` recompute the mean:
    ``_var`` is exactly subtract-mean, square, add.reduce, divide — the
    same ufunc sequence written out below, so every intermediate rounds
    identically (the equivalence tests assert it).
    """
    x = np.asarray(x, dtype=np.float32)
    # np.add.reduce IS the ufunc _mean wraps (same pairwise summation),
    # and dividing by an exact-in-float32 count rounds identically.
    n = np.float32(x.shape[-1])
    mean = np.add.reduce(x, axis=-1, keepdims=True) / n
    centred = x - mean
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    return centred / np.sqrt(var + eps) * gamma + beta


def _fast_gelu(x: np.ndarray) -> np.ndarray:
    """Bit-identical :func:`repro.llm.reference.gelu` without the
    ``astype`` copy.  The arithmetic is byte-for-byte the reference
    expression."""
    x = np.asarray(x, dtype=np.float32)
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def _fast_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Bit-identical :func:`repro.llm.reference.softmax` without the
    ``astype`` copy."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


class Executor:
    """Interprets acceleration code against device memory and registers."""

    def __init__(self, memory: DeviceMemory,
                 registers: Optional[RegisterFileState] = None,
                 tracer=None, metrics=None,
                 vectorized: bool = True):
        self.memory = memory
        self.registers = registers or RegisterFileState()
        self.stats = ExecutionStats()
        self._tracer = tracer
        self._metrics = metrics
        self.vectorized = vectorized
        #: CachedProgram.timing_key -> (instructions, flops, mem_elems,
        #: by_opcode).  A program's statistics are a pure function of its
        #: instruction geometry (DMA-store extras equal prod(shape)), so
        #: repeated geometries skip the per-instruction accounting.
        self._stats_cache: Dict[Tuple[int, int, int],
                                Tuple[int, float, float, Dict[str, int]]] \
            = {}

    # -- helpers ----------------------------------------------------------

    def _reg2d(self, name: str) -> np.ndarray:
        """A register as the row matrix of an instruction that takes
        rows: a 1-D register is one row (the ISA's rank rule)."""
        value = self.registers.read(name)
        if value.ndim == 1:
            return value.reshape(1, -1)
        return value

    def _read(self, addr: int, shape: Tuple[int, ...]) -> np.ndarray:
        """An operand the handler consumes itself: a read-only view."""
        return self.memory.view_tensor(addr, shape)

    # -- instruction semantics --------------------------------------------

    def _exec_dma_load(self, instr: isa.DmaLoad) -> float:
        self.registers.write(instr.dst,
                             self.memory.read_tensor(instr.addr, instr.shape))
        return 0.0

    def _exec_dma_store(self, instr: isa.DmaStore) -> float:
        value = self.registers.read(instr.src)
        self.memory.write_tensor(instr.addr, value)
        return float(value.size)

    def _exec_dma_gather(self, instr: isa.DmaGather) -> float:
        if self.vectorized:
            rows = self.memory.read_rows(instr.table_addr, instr.indices,
                                         instr.row_elems)
        else:
            rows = np.stack(
                [self.memory.read_row(instr.table_addr, i, instr.row_elems)
                 for i in instr.indices], axis=0)
        self.registers.write(instr.dst, rows)
        return 0.0

    def _int8_matmul(self, act: np.ndarray, instr) -> np.ndarray:
        """W8A8 matmul with int32 accumulation and fused dequant(+bias).

        The weight matrix at ``weight_addr`` holds integral int8 codes
        (written by the quantizing model loader); ``scale_addr`` holds
        the per-output-channel dequantization scales.  Each activation
        row is quantized dynamically with a symmetric per-row scale —
        the tinyML-style dynamic 32->8-bit rescale — accumulated
        exactly (:func:`int8_codes_matmul`), and dequantized on
        writeback.
        """
        if instr.scale_addr < 0:
            raise ExecutionError(
                f"{instr.opcode}: int8 matmul without a scale_addr")
        weight = self._read(instr.weight_addr, (instr.k, instr.n))
        scales = self._read(instr.scale_addr, (instr.n,))
        a_max = np.max(np.abs(act), axis=-1, keepdims=True)
        a_scale = np.where(a_max > 0, a_max / np.float32(127.0),
                           np.float32(1.0)).astype(np.float32)
        a_q = np.clip(np.rint(act / a_scale), -127, 127)
        out = int8_codes_matmul(a_q, weight) * (a_scale * scales)
        if instr.bias_addr >= 0:
            out = out + self._read(instr.bias_addr, (instr.n,))
        return out.astype(np.float32)

    def _exec_weight_matmul(self, instr) -> float:
        """MPU_MV and the MPU_MM_PEA family: the same arithmetic over
        ``m`` activation rows (one for MPU_MV)."""
        act = self._reg2d(instr.act)
        if act.shape != (instr.m, instr.k):
            raise ExecutionError(
                f"{instr.opcode}: activation shape {act.shape} != "
                f"({instr.m}, {instr.k})")
        if instr.dtype == "int8":
            result = self._int8_matmul(act, instr)
        else:
            weight = self._read(instr.weight_addr, (instr.k, instr.n))
            result = act @ weight
            if instr.bias_addr >= 0:
                result = result + self._read(instr.bias_addr, (instr.n,))
        self.registers.write(instr.dst, result)
        if isinstance(instr, isa.MpuMmRedumaxPea):
            self.registers.write(instr.rowmax_dst,
                                 result.max(axis=-1, keepdims=True))
        return float(instr.aux_elems())

    def _exec_masked_mm(self, instr: isa.MpuMaskedMm) -> float:
        q = self._reg2d(instr.q)
        d_local = instr.heads * instr.head_dim
        if q.shape != (instr.m, d_local):
            raise ExecutionError(
                f"{instr.opcode}: q shape {q.shape} != ({instr.m}, {d_local})")
        keys = self._read(instr.k_addr, (instr.ctx, d_local))
        scale = np.float32(instr.scale)
        if self.vectorized:
            # One batched matmul over the head axis; each head's slice is
            # the same BLAS call the per-head loop makes, so results are
            # bit-identical (tests assert it).
            q3 = q.reshape(instr.m, instr.heads, instr.head_dim) \
                .transpose(1, 0, 2)
            k3 = keys.reshape(instr.ctx, instr.heads, instr.head_dim) \
                .transpose(1, 2, 0)
            raw = np.matmul(q3, k3) * scale
            if instr.mask_offset >= instr.ctx - 1:
                # Fully visible (every decode step: m == 1, offset ==
                # ctx - 1): the causal mask is all-True, so masking is a
                # copy — skip building it.
                scores = raw
            else:
                mask = causal_mask(instr.m, instr.ctx, instr.mask_offset)
                scores = np.where(mask, raw, np.float32(-1e9))
        else:
            mask = causal_mask(instr.m, instr.ctx, instr.mask_offset)
            scores = np.empty((instr.heads, instr.m, instr.ctx),
                              dtype=np.float32)
            for h in range(instr.heads):
                sl = slice(h * instr.head_dim, (h + 1) * instr.head_dim)
                raw = (q[:, sl] @ keys[:, sl].T) * scale
                scores[h] = np.where(mask, raw, np.float32(-1e9))
        self.registers.write(instr.dst, scores)
        if instr.rowmax_dst:
            self.registers.write(instr.rowmax_dst,
                                 scores.max(axis=-1, keepdims=True))
        return 0.0

    def _exec_attn_ctx(self, instr: isa.MpuAttnContext) -> float:
        probs = self.registers.read(instr.probs)
        expected = (instr.heads, instr.m, instr.ctx)
        if probs.shape != expected:
            raise ExecutionError(
                f"{instr.opcode}: probs shape {probs.shape} != {expected}")
        d_local = instr.heads * instr.head_dim
        values = self._read(instr.v_addr, (instr.ctx, d_local))
        if self.vectorized:
            v3 = values.reshape(instr.ctx, instr.heads, instr.head_dim) \
                .transpose(1, 0, 2)
            out = np.ascontiguousarray(
                np.matmul(probs, v3).transpose(1, 0, 2)) \
                .reshape(instr.m, d_local)
        else:
            out = np.empty((instr.m, d_local), dtype=np.float32)
            for h in range(instr.heads):
                sl = slice(h * instr.head_dim, (h + 1) * instr.head_dim)
                out[:, sl] = probs[h] @ values[:, sl]
        self.registers.write(instr.dst, out)
        return 0.0

    def _exec_conv2d(self, instr: isa.MpuConv2d) -> float:
        act = self.registers.read(instr.act)
        if act.shape != (instr.in_ch, instr.h, instr.w):
            raise ExecutionError(
                f"{instr.opcode}: act shape {act.shape} != "
                f"({instr.in_ch}, {instr.h}, {instr.w})")
        weight = self._read(
            instr.weight_addr,
            (instr.out_ch, instr.in_ch, instr.kh, instr.kw))
        oh, ow = instr.out_hw
        # im2col: unfold input patches into a [oh*ow, in_ch*kh*kw] matrix.
        cols = np.empty((oh * ow, instr.in_ch * instr.kh * instr.kw),
                        dtype=np.float32)
        idx = 0
        for i in range(0, instr.h - instr.kh + 1, instr.stride):
            for j in range(0, instr.w - instr.kw + 1, instr.stride):
                patch = act[:, i:i + instr.kh, j:j + instr.kw]
                cols[idx] = patch.reshape(-1)
                idx += 1
        flat_w = weight.reshape(instr.out_ch, -1)
        out = (cols @ flat_w.T).T.reshape(instr.out_ch, oh, ow)
        if instr.gelu:
            out = gelu(out)
        self.registers.write(instr.dst, out.astype(np.float32))
        return 0.0

    def _exec_transpose(self, instr: isa.MpuTranspose) -> float:
        value = self.registers.read(instr.src)
        self.registers.write(instr.dst, np.ascontiguousarray(value.T))
        return 0.0

    def _exec_softmax(self, instr: isa.VpuSoftmax) -> float:
        src = self.registers.read(instr.src)
        if instr.rowmax:
            # REDUMAX-fused path: reuse the precomputed maxima; identical
            # arithmetic to the reference's internal max because both max
            # over the same axis of the same float32 array.
            maxima = self.registers.read(instr.rowmax)
            shifted = src - maxima
            e = np.exp(shifted)
            result = e / e.sum(axis=-1, keepdims=True)
        elif self.vectorized:
            result = _fast_softmax(src, axis=-1)
        else:
            result = softmax(src, axis=-1)
        if self.vectorized:
            # Already float32 by construction; astype would copy.
            self.registers.write(instr.dst, result)
        else:
            self.registers.write(instr.dst, result.astype(np.float32))
        return 0.0

    def _exec_layernorm(self, instr: isa.VpuLayerNorm) -> float:
        src = self.registers.read(instr.src)
        gamma = self._read(instr.gamma_addr, (instr.n,))
        beta = self._read(instr.beta_addr, (instr.n,))
        if self.vectorized:
            out = _fast_layernorm(src, gamma, beta, instr.eps)
        else:
            out = layernorm(src, gamma, beta, eps=instr.eps)
        self.registers.write(instr.dst, out)
        return 0.0

    def _exec_bias(self, instr: isa.VpuBias) -> float:
        src = self.registers.read(instr.src)
        bias = self._read(instr.bias_addr, (instr.n,))
        self.registers.write(instr.dst, src + bias)
        return 0.0

    def _exec_add(self, instr: isa.VpuAdd) -> float:
        self.registers.write(
            instr.dst,
            self.registers.read(instr.a) + self.registers.read(instr.b))
        return 0.0

    def _exec_mul(self, instr: isa.VpuMul) -> float:
        self.registers.write(
            instr.dst,
            self.registers.read(instr.a) * self.registers.read(instr.b))
        return 0.0

    def _exec_scale(self, instr: isa.VpuScale) -> float:
        self.registers.write(
            instr.dst,
            self.registers.read(instr.src) * np.float32(instr.constant))
        return 0.0

    def _exec_gelu(self, instr: isa.VpuGelu) -> float:
        fn = _fast_gelu if self.vectorized else gelu
        self.registers.write(instr.dst, fn(self.registers.read(instr.src)))
        return 0.0

    def _exec_argmax(self, instr: isa.VpuArgmax) -> float:
        src = self._reg2d(instr.src)
        self.registers.write(
            instr.dst, np.array([np.argmax(src[-1])], dtype=np.float32))
        return 0.0

    def _exec_slice(self, instr: isa.VpuSlice) -> float:
        src = self.registers.read(instr.src)
        if instr.stop > src.shape[-1]:
            raise ExecutionError(
                f"VPU_SLICE [{instr.start}:{instr.stop}) exceeds "
                f"width {src.shape[-1]}")
        self.registers.write(
            instr.dst,
            np.ascontiguousarray(src[..., instr.start:instr.stop]))
        return 0.0

    def _exec_row(self, instr: isa.VpuRow) -> float:
        src = self.registers.read(instr.src)
        row = instr.row if instr.row >= 0 else src.shape[0] + instr.row
        if not 0 <= row < src.shape[0]:
            raise ExecutionError(
                f"VPU_ROW {instr.row} outside {src.shape[0]} rows")
        self.registers.write(instr.dst, src[row:row + 1].copy())
        return 0.0

    def _exec_free(self, instr: isa.Free) -> float:
        for reg in instr.regs:
            self.registers.free(reg)
        return 0.0

    def _exec_barrier(self, _instr: isa.Barrier) -> float:
        return 0.0

    #: Concrete instruction type -> handler (resolved once, not via an
    #: isinstance chain per instruction).
    _HANDLERS: Dict[type, Callable[["Executor", isa.Instruction], float]] = {
        isa.DmaLoad: _exec_dma_load,
        isa.DmaStore: _exec_dma_store,
        isa.DmaGather: _exec_dma_gather,
        isa.MpuMmPea: _exec_weight_matmul,
        isa.MpuMmRedumaxPea: _exec_weight_matmul,
        isa.MpuMv: _exec_weight_matmul,
        isa.MpuMaskedMm: _exec_masked_mm,
        isa.MpuAttnContext: _exec_attn_ctx,
        isa.MpuConv2d: _exec_conv2d,
        isa.MpuTranspose: _exec_transpose,
        isa.VpuAdd: _exec_add,
        isa.VpuMul: _exec_mul,
        isa.VpuScale: _exec_scale,
        isa.VpuBias: _exec_bias,
        isa.VpuGelu: _exec_gelu,
        isa.VpuSoftmax: _exec_softmax,
        isa.VpuLayerNorm: _exec_layernorm,
        isa.VpuArgmax: _exec_argmax,
        isa.VpuSlice: _exec_slice,
        isa.VpuRow: _exec_row,
        isa.Free: _exec_free,
        isa.Barrier: _exec_barrier,
    }

    # -- dispatch -----------------------------------------------------------

    def execute(self, program: Sequence[isa.Instruction]) -> ExecutionStats:
        """Run a program to completion, returning accumulated statistics.

        When a tracer/registry is injected (or ambient via
        :func:`repro.obs.observe`), each instruction is additionally
        recorded as a wall-clock span and an opcode-labelled counter;
        the functional results are identical either way.
        """
        if not isinstance(program, tuple):
            program = tuple(program)
        isa.validate_program_cached(program)
        tracer = get_tracer(self._tracer)
        metrics = get_metrics(self._metrics)
        handlers = self._HANDLERS
        record = self.stats.record
        stats_key = getattr(program, "timing_key", None) \
            if (self.vectorized and not tracer.enabled
                and not metrics.enabled) else None
        agg = self._stats_cache.get(stats_key) \
            if stats_key is not None else None
        with tracer.span("executor.execute", category="accelerator",
                         instructions=len(program)):
            if agg is not None:
                # Known geometry: run the semantics, fold in the
                # precomputed statistics afterwards.  The handler plan
                # was recorded on the geometry's first completion — a
                # timing key pins the template, so the instruction class
                # at each position cannot have changed.
                for handler, instr in zip(agg[4], program):
                    handler(self, instr)
                self.stats.add_bulk(*agg[:4])
                return self.stats
            if stats_key is not None:
                before = (self.stats.instructions, self.stats.flops,
                          self.stats.mem_elems,
                          dict(self.stats.by_opcode))
            for instr in program:
                handler = handlers.get(type(instr))
                if handler is None:
                    raise ExecutionError(
                        f"no functional semantics for "
                        f"{type(instr).__name__}")
                if tracer.enabled:
                    with tracer.span(instr.opcode,
                                     category="accelerator"):
                        extra = handler(self, instr)
                else:
                    extra = handler(self, instr)
                if metrics.enabled:
                    metrics.counter("executor.instructions",
                                    opcode=instr.opcode).inc()
                    metrics.counter("executor.flops").inc(instr.flops())
                    metrics.counter("executor.mem_elems").inc(
                        instr.mem_elems() + extra)
                record(instr, extra)
            if stats_key is not None:
                if len(self._stats_cache) > 4096:
                    self._stats_cache.clear()
                stats = self.stats
                delta_ops = {
                    op: count - before[3].get(op, 0)
                    for op, count in stats.by_opcode.items()
                    if count != before[3].get(op, 0)}
                self._stats_cache[stats_key] = (
                    stats.instructions - before[0],
                    stats.flops - before[1],
                    stats.mem_elems - before[2],
                    delta_ops,
                    tuple(handlers[type(i)] for i in program))
        return self.stats

    def _dispatch(self, instr: isa.Instruction) -> float:
        """Execute one instruction; returns extra memory elements."""
        handler = self._HANDLERS.get(type(instr))
        if handler is None:
            raise ExecutionError(
                f"no functional semantics for {type(instr).__name__}")
        return handler(self, instr)
