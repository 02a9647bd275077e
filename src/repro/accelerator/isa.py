"""Instruction set of the CXL-PNM LLM inference accelerator.

The accelerator (paper §V-C) extends the DFX ISA: DFX's adder-tree matrix
function units handle GEMV (the gen stage), and six new instructions drive
the added 64x32 FP16 PE array for GEMM (the sum stage):

    MPU_MM_PEA, MPU_MM_REDUMAX_PEA, MPU_MASKEDMM_PEA,
    MPU_MASKEDMM_REDUMAX_PEA, MPU_CONV2D_PEA, MPU_CONV2D_GELU_PEA

Weight matrices and KV-cache operands are referenced by *device memory
address* and streamed through the matrix units — they never stage in the
63 MB register file (a 26 GB model would not fit).  Activations live in
matrix/vector registers.  Each instruction reports:

* ``reads()`` / ``writes()`` — register dependencies for the scheduler;
* ``flops()`` — arithmetic work;
* ``mem_elems()`` — device-memory elements streamed (the timing model
  multiplies by the modelled datatype width);
* ``mem_bytes(bytes_per_elem)`` — the streamed bytes at the modelled
  width, which the datatype-aware instructions override;
* ``out_shapes(shapes)`` — the shapes of the registers it writes, the
  one rule the timing simulator, the static analyses and the functional
  executor agree on;
* ``unit`` — the execution resource it occupies.

A register keeps its rank.  Only the instructions that take ``m``
activation rows (the weight matmuls, ``MPU_MASKEDMM``) and
``VPU_ARGMAX`` read a 1-D register as one row; every other instruction
works on the register's own axes, so a 1-D register stays 1-D through
``MPU_TRANSPOSE``, the row-wise VPU ops and ``VPU_SLICE`` (its last
axis), and ``VPU_ROW`` takes its first axis (one element).

Every matmul chooses its datapath by one rule, :func:`matmul_unit`:
the PE array for more than one activation row, DFX's adder trees for
one.  :func:`weight_matmul` emits ``MPU_MM_PEA`` or ``MPU_MV`` by it,
and the attention matmuls (``MPU_MASKEDMM``, ``MPU_ATTN_CTX``) take
their unit and opcode from it.

The memory-touching instructions (``DMA_LOAD``/``DMA_GATHER`` and the
weight-streaming matmuls) carry a ``dtype`` field: ``"fp16"`` is the
modelled default (two bytes per streamed element), ``"int8"`` streams
one byte per weight element.  An int8 matmul reads per-output-channel
scales from ``scale_addr`` (``n`` fp32 elements), accumulates in int32,
and dequantizes on writeback — optionally fusing the bias add when
``bias_addr`` is set (the executor gives these exact numpy semantics).

The functional executor (:mod:`repro.accelerator.engine`) gives every
instruction exact numpy semantics; the timing simulator
(:mod:`repro.perf.simulator`) schedules the same objects onto resources.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.accelerator.registers import bank_of
from repro.errors import IsaError


class Unit(enum.Enum):
    """Execution resources of the accelerator (Fig. 7)."""

    DMA = "dma"
    PE_ARRAY = "pe-array"      # GEMM datapath (the new PEA)
    ADDER_TREE = "adder-tree"  # DFX GEMV datapath
    VPU = "vpu"
    CONTROL = "control"


#: Stream datatypes the memory-touching instructions understand.
DTYPES = ("fp16", "int8")

#: A register's tensor shape.
Shape = Tuple[int, ...]


def matmul_unit(m: int) -> Unit:
    """The datapath of a matmul over ``m`` activation rows: the PE array
    for a GEMM (``m > 1``), DFX's adder trees for a GEMV."""
    return Unit.PE_ARRAY if m > 1 else Unit.ADDER_TREE


def _check_dtype(opcode: str, dtype: str) -> None:
    if dtype not in DTYPES:
        raise IsaError(f"{opcode}: unknown dtype {dtype!r} "
                       f"(expected one of {DTYPES})")


@dataclass(frozen=True)
class Instruction:
    """Base instruction; subclasses define operands and semantics."""

    @property
    def opcode(self) -> str:
        return type(self).OPCODE  # type: ignore[attr-defined]

    @property
    def unit(self) -> Unit:
        return type(self).UNIT  # type: ignore[attr-defined]

    def reads(self) -> Tuple[str, ...]:
        return ()

    def writes(self) -> Tuple[str, ...]:
        return ()

    def flops(self) -> float:
        return 0.0

    def mem_elems(self) -> float:
        """Device-memory elements streamed by this instruction."""
        return 0.0

    def mem_bytes(self, bytes_per_elem: int) -> float:
        """Streamed bytes at the modelled register-file element width.

        ``bytes_per_elem`` is the simulator's configured width for the
        default fp16 stream; datatype-carrying instructions override
        this to charge one byte per int8 weight element (plus the
        full-width scale/bias side streams).
        """
        return self.mem_elems() * bytes_per_elem

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        """Shapes of the registers :meth:`writes` names, in its order.

        ``shapes`` maps the live registers to their shapes; an
        instruction whose output follows a source register's shape
        raises ``KeyError`` (naming that register) when it is missing.
        """
        return ()


# --------------------------------------------------------------------------
# DMA engine
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DmaLoad(Instruction):
    """Load a tensor from device memory into a register.

    ``dtype`` describes the stream width on the wire: an ``"int8"``
    load moves one byte per element (the register-file value is still
    the functional fp32 number the executor reads).
    """

    OPCODE = "DMA_LOAD"
    UNIT = Unit.DMA

    dst: str
    addr: int
    shape: Tuple[int, ...]
    dtype: str = "fp16"

    def __post_init__(self) -> None:
        _check_dtype(self.OPCODE, self.dtype)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def mem_elems(self) -> float:
        return float(_numel(self.shape))

    def mem_bytes(self, bytes_per_elem: int) -> float:
        if self.dtype == "int8":
            return self.mem_elems()
        return self.mem_elems() * bytes_per_elem

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return (self.shape,)


@dataclass(frozen=True)
class DmaStore(Instruction):
    """Store a register's tensor to device memory.

    ``shape`` is advisory (the stored size is the register's runtime
    shape); the compiler sets it so the timing simulator can charge the
    transfer without executing.
    """

    OPCODE = "DMA_STORE"
    UNIT = Unit.DMA

    src: str
    addr: int
    shape: Optional[Tuple[int, ...]] = None

    def reads(self) -> Tuple[str, ...]:
        return (self.src,)

    def mem_elems(self) -> float:
        return float(_numel(self.shape)) if self.shape else 0.0


@dataclass(frozen=True)
class DmaGather(Instruction):
    """Gather rows of a 2-D table into a register (embedding lookup)."""

    OPCODE = "DMA_GATHER"
    UNIT = Unit.DMA

    dst: str
    table_addr: int
    row_elems: int
    indices: Tuple[int, ...]
    dtype: str = "fp16"

    def __post_init__(self) -> None:
        _check_dtype(self.OPCODE, self.dtype)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def mem_elems(self) -> float:
        return float(len(self.indices) * self.row_elems)

    def mem_bytes(self, bytes_per_elem: int) -> float:
        if self.dtype == "int8":
            return self.mem_elems()
        return self.mem_elems() * bytes_per_elem

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return ((len(self.indices), self.row_elems),)


# --------------------------------------------------------------------------
# Matrix processing unit — adder-tree (GEMV) path
# --------------------------------------------------------------------------

class _WeightMatmul:
    """Operands, work and streams of ``dst[m,n] = act[m,k] @ W[k,n]``
    with W streamed from ``weight_addr``, shared by MPU_MV and
    MPU_MM_PEA."""

    def reads(self) -> Tuple[str, ...]:
        return (self.act,)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def flops(self) -> float:
        return 2.0 * self.m * self.k * self.n

    def mem_elems(self) -> float:
        return float(self.k * self.n)

    def aux_elems(self) -> int:
        """Full-width side-stream elements (int8 scales, fused bias)."""
        if self.dtype != "int8":
            return self.n if self.bias_addr >= 0 else 0
        return self.n * (2 if self.bias_addr >= 0 else 1)

    def mem_bytes(self, bytes_per_elem: int) -> float:
        weight = 1 if self.dtype == "int8" else bytes_per_elem
        return (self.mem_elems() * weight
                + self.aux_elems() * bytes_per_elem)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return ((self.m, self.n),)


@dataclass(frozen=True)
class MpuMv(_WeightMatmul, Instruction):
    """Adder-tree GEMV: ``dst[1,n] = act[1,k] @ W[k,n]`` (W from memory).

    With ``dtype="int8"`` the weight matrix streams one byte per
    element.  ``scale_addr`` then points at the per-output-channel
    dequantization scales (``n`` fp32 elements); the adder trees
    quantize the activation row dynamically, accumulate in int32, and
    dequantize on writeback.  A non-negative ``bias_addr`` fuses the
    bias add (``n`` elements) into the same writeback pass.
    """

    OPCODE = "MPU_MV"
    UNIT = Unit.ADDER_TREE

    dst: str
    act: str
    weight_addr: int
    k: int
    n: int
    dtype: str = "fp16"
    scale_addr: int = -1
    bias_addr: int = -1

    m = 1  # one activation row: the adder trees' GEMV

    def __post_init__(self) -> None:
        if self.k <= 0 or self.n <= 0:
            raise IsaError(f"{self.OPCODE}: bad dims k={self.k} n={self.n}")
        _check_dtype(self.OPCODE, self.dtype)


# --------------------------------------------------------------------------
# Matrix processing unit — PE-array (GEMM) path: the six new instructions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MpuMmPea(_WeightMatmul, Instruction):
    """PE-array GEMM: ``dst[m,n] = act[m,k] @ W[k,n]`` (W from memory).

    ``dtype``/``scale_addr``/``bias_addr`` follow :class:`MpuMv`: an
    int8 GEMM streams one byte per weight element, quantizes each
    activation row dynamically, accumulates in int32, and dequantizes
    (optionally adding the fused bias) on writeback.
    """

    OPCODE = "MPU_MM_PEA"
    UNIT = Unit.PE_ARRAY

    dst: str
    act: str
    weight_addr: int
    m: int
    k: int
    n: int
    dtype: str = "fp16"
    scale_addr: int = -1
    bias_addr: int = -1

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) <= 0:
            raise IsaError(f"{self.OPCODE}: bad dims "
                           f"{self.m}x{self.k}x{self.n}")
        _check_dtype(self.OPCODE, self.dtype)


def weight_matmul(dst: str, act: str, weight_addr: int, m: int, k: int,
                  n: int, dtype: str = "fp16", scale_addr: int = -1,
                  bias_addr: int = -1) -> Instruction:
    """The matmul of ``m`` activation rows by the weight at
    ``weight_addr`` on the datapath :func:`matmul_unit` picks:
    ``MPU_MM_PEA`` on the PE array, DFX's ``MPU_MV`` on the adder
    trees."""
    if matmul_unit(m) is Unit.PE_ARRAY:
        return MpuMmPea(dst=dst, act=act, weight_addr=weight_addr, m=m,
                        k=k, n=n, dtype=dtype, scale_addr=scale_addr,
                        bias_addr=bias_addr)
    return MpuMv(dst=dst, act=act, weight_addr=weight_addr, k=k, n=n,
                 dtype=dtype, scale_addr=scale_addr, bias_addr=bias_addr)


@dataclass(frozen=True)
class MpuMmRedumaxPea(MpuMmPea):
    """GEMM fused with a row-wise running max (``rowmax_dst[m]``)."""

    OPCODE = "MPU_MM_REDUMAX_PEA"

    rowmax_dst: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.rowmax_dst:
            raise IsaError(f"{self.OPCODE}: rowmax_dst required")

    def writes(self) -> Tuple[str, ...]:
        return (self.dst, self.rowmax_dst)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return super().out_shapes(shapes) + ((self.m, 1),)


@dataclass(frozen=True)
class MpuMaskedMm(Instruction):
    """Per-head masked attention scores, scaled.

    ``q`` holds ``[m, heads*head_dim]``; K is an aggregated ``[ctx,
    heads*head_dim]`` matrix in device memory at ``k_addr``.  The result is
    ``dst[heads, m, ctx]`` with ``scores = (q_h @ K_h^T) * scale`` and
    causal masking: row ``i`` may attend columns ``<= i + mask_offset``
    (set ``mask_offset >= ctx - 1`` for the un-masked gen stage).

    On the PE array (:func:`matmul_unit`: ``m > 1``) this is
    MPU_MASKEDMM_PEA / MPU_MASKEDMM_REDUMAX_PEA; with ``m == 1`` it runs
    on the adder trees (DFX's existing masked-MV path).  Setting ``rowmax_dst`` selects the
    REDUMAX-fused variant, which feeds VPU_SOFTMAX without a second pass.
    """

    dst: str
    q: str
    k_addr: int
    heads: int
    head_dim: int
    ctx: int
    m: int
    scale: float
    mask_offset: int
    rowmax_dst: Optional[str] = None

    def __post_init__(self) -> None:
        if min(self.heads, self.head_dim, self.ctx, self.m) <= 0:
            raise IsaError("MPU_MASKEDMM: non-positive dimension")

    @property
    def opcode(self) -> str:
        if self.unit is Unit.ADDER_TREE:
            return "MPU_MASKEDMV"
        return ("MPU_MASKEDMM_REDUMAX_PEA" if self.rowmax_dst
                else "MPU_MASKEDMM_PEA")

    @property
    def unit(self) -> Unit:
        return matmul_unit(self.m)

    def reads(self) -> Tuple[str, ...]:
        return (self.q,)

    def writes(self) -> Tuple[str, ...]:
        if self.rowmax_dst:
            return (self.dst, self.rowmax_dst)
        return (self.dst,)

    def flops(self) -> float:
        return 2.0 * self.heads * self.m * self.ctx * self.head_dim

    def mem_elems(self) -> float:
        return float(self.ctx * self.heads * self.head_dim)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        scores = (self.heads, self.m, self.ctx)
        if self.rowmax_dst:
            return (scores, (self.heads, self.m, 1))
        return (scores,)


@dataclass(frozen=True)
class MpuAttnContext(Instruction):
    """Per-head context: ``dst[m, heads*head_dim] = probs_h @ V_h``.

    ``probs`` holds ``[heads, m, ctx]``; V is aggregated ``[ctx,
    heads*head_dim]`` at ``v_addr``.  Unit and opcode follow
    :func:`matmul_unit`, as for a weight matmul.
    """

    dst: str
    probs: str
    v_addr: int
    heads: int
    head_dim: int
    ctx: int
    m: int

    def __post_init__(self) -> None:
        if min(self.heads, self.head_dim, self.ctx, self.m) <= 0:
            raise IsaError("MPU_ATTN_CTX: non-positive dimension")

    @property
    def opcode(self) -> str:
        return MpuMmPea.OPCODE if self.unit is Unit.PE_ARRAY \
            else MpuMv.OPCODE

    @property
    def unit(self) -> Unit:
        return matmul_unit(self.m)

    def reads(self) -> Tuple[str, ...]:
        return (self.probs,)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def flops(self) -> float:
        return 2.0 * self.heads * self.m * self.ctx * self.head_dim

    def mem_elems(self) -> float:
        return float(self.ctx * self.heads * self.head_dim)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return ((self.m, self.heads * self.head_dim),)


@dataclass(frozen=True)
class MpuConv2d(Instruction):
    """2-D convolution via im2col on the PE array (optionally fused GELU).

    Input activations in ``act`` shaped ``[in_ch, h, w]``; weights at
    ``weight_addr`` shaped ``[out_ch, in_ch, kh, kw]``; 'same'-style valid
    convolution with the given stride, output ``[out_ch, oh, ow]``.
    """

    dst: str
    act: str
    weight_addr: int
    in_ch: int
    out_ch: int
    kh: int
    kw: int
    h: int
    w: int
    stride: int = 1
    gelu: bool = False

    UNIT = Unit.PE_ARRAY

    def __post_init__(self) -> None:
        if min(self.in_ch, self.out_ch, self.kh, self.kw, self.h, self.w,
               self.stride) <= 0:
            raise IsaError("MPU_CONV2D: non-positive dimension")
        if self.kh > self.h or self.kw > self.w:
            raise IsaError("MPU_CONV2D: kernel larger than input")

    @property
    def opcode(self) -> str:
        return "MPU_CONV2D_GELU_PEA" if self.gelu else "MPU_CONV2D_PEA"

    @property
    def out_hw(self) -> Tuple[int, int]:
        oh = (self.h - self.kh) // self.stride + 1
        ow = (self.w - self.kw) // self.stride + 1
        return oh, ow

    def reads(self) -> Tuple[str, ...]:
        return (self.act,)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def flops(self) -> float:
        oh, ow = self.out_hw
        return 2.0 * self.out_ch * oh * ow * self.in_ch * self.kh * self.kw

    def mem_elems(self) -> float:
        return float(self.out_ch * self.in_ch * self.kh * self.kw)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return ((self.out_ch, *self.out_hw),)


@dataclass(frozen=True)
class MpuTranspose(Instruction):
    """Matrix-manipulation unit: ``dst = src.T``."""

    OPCODE = "MPU_TRANSPOSE"
    UNIT = Unit.PE_ARRAY

    dst: str
    src: str

    def reads(self) -> Tuple[str, ...]:
        return (self.src,)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return (tuple(reversed(shapes[self.src])),)


# --------------------------------------------------------------------------
# Vector processing unit
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VpuBinary(Instruction):
    """Elementwise binary op between two registers."""

    UNIT = Unit.VPU

    dst: str
    a: str
    b: str

    def reads(self) -> Tuple[str, ...]:
        return (self.a, self.b)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return (shapes[self.a],)


@dataclass(frozen=True)
class VpuAdd(VpuBinary):
    OPCODE = "VPU_ADD"


@dataclass(frozen=True)
class VpuMul(VpuBinary):
    OPCODE = "VPU_MUL"


class _RowWise:
    """``dst = f(src)`` applied per element or per row: the output keeps
    ``src``'s shape."""

    def reads(self) -> Tuple[str, ...]:
        return (self.src,)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return (shapes[self.src],)


@dataclass(frozen=True)
class VpuScale(_RowWise, Instruction):
    """``dst = src * constant``."""

    OPCODE = "VPU_SCALE"
    UNIT = Unit.VPU

    dst: str
    src: str
    constant: float


@dataclass(frozen=True)
class VpuBias(_RowWise, Instruction):
    """``dst = src + bias`` with the bias vector streamed from memory."""

    OPCODE = "VPU_BIAS"
    UNIT = Unit.VPU

    dst: str
    src: str
    bias_addr: int
    n: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise IsaError("VPU_BIAS: bias length must be positive")

    def mem_elems(self) -> float:
        return float(self.n)


@dataclass(frozen=True)
class VpuGelu(_RowWise, Instruction):
    """Tanh-approximated GELU."""

    OPCODE = "VPU_GELU"
    UNIT = Unit.VPU

    dst: str
    src: str


@dataclass(frozen=True)
class VpuSoftmax(_RowWise, Instruction):
    """Numerically stable row-wise softmax over the last axis.

    ``rowmax`` optionally names a register holding precomputed row maxima
    from a REDUMAX-fused matmul, saving the max pass.
    """

    OPCODE = "VPU_SOFTMAX"
    UNIT = Unit.VPU

    dst: str
    src: str
    rowmax: Optional[str] = None

    def reads(self) -> Tuple[str, ...]:
        if self.rowmax:
            return (self.src, self.rowmax)
        return (self.src,)


@dataclass(frozen=True)
class VpuLayerNorm(_RowWise, Instruction):
    """LayerNorm over the last axis with gamma/beta streamed from memory."""

    OPCODE = "VPU_LAYERNORM"
    UNIT = Unit.VPU

    dst: str
    src: str
    gamma_addr: int
    beta_addr: int
    n: int
    eps: float = 1e-5

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise IsaError("VPU_LAYERNORM: width must be positive")

    def mem_elems(self) -> float:
        return float(2 * self.n)


@dataclass(frozen=True)
class VpuArgmax(Instruction):
    """``dst (scalar reg) = argmax(src last row)`` — greedy sampling."""

    OPCODE = "VPU_ARGMAX"
    UNIT = Unit.VPU

    dst: str
    src: str

    def reads(self) -> Tuple[str, ...]:
        return (self.src,)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return ((1,),)


@dataclass(frozen=True)
class VpuRow(Instruction):
    """``dst = src[row:row+1]`` — extract one row (negative = from end)."""

    OPCODE = "VPU_ROW"
    UNIT = Unit.VPU

    dst: str
    src: str
    row: int

    def reads(self) -> Tuple[str, ...]:
        return (self.src,)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return ((1,) + shapes[self.src][1:],)


@dataclass(frozen=True)
class VpuSlice(Instruction):
    """``dst = src[:, start:stop]`` — column slice (QKV split)."""

    OPCODE = "VPU_SLICE"
    UNIT = Unit.VPU

    dst: str
    src: str
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise IsaError(f"VPU_SLICE: bad range [{self.start},{self.stop})")

    def reads(self) -> Tuple[str, ...]:
        return (self.src,)

    def writes(self) -> Tuple[str, ...]:
        return (self.dst,)

    def out_shapes(self, shapes: Mapping[str, Shape]) -> Tuple[Shape, ...]:
        return (shapes[self.src][:-1] + (self.stop - self.start,),)


# --------------------------------------------------------------------------
# Control
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Free(Instruction):
    """Release dead registers back to the register-file manager."""

    OPCODE = "FREE"
    UNIT = Unit.CONTROL

    regs: Tuple[str, ...]

    def reads(self) -> Tuple[str, ...]:
        return self.regs


@dataclass(frozen=True)
class Barrier(Instruction):
    """Full pipeline barrier: all prior instructions complete first."""

    OPCODE = "BARRIER"
    UNIT = Unit.CONTROL


def propagate_shapes(instr: Instruction,
                     shapes: Dict[str, Shape]) -> Tuple[Shape, ...]:
    """Apply ``instr`` to the register-shape table ``shapes``.

    ``FREE`` drops its registers; any other instruction records the
    :meth:`~Instruction.out_shapes` of the registers it writes and
    returns them.  A ``KeyError`` names a source register whose shape
    ``shapes`` lacks, and leaves ``shapes`` as it was.
    """
    if isinstance(instr, Free):
        for reg in instr.regs:
            shapes.pop(reg, None)
        return ()
    out = instr.out_shapes(shapes)
    shapes.update(zip(instr.writes(), out))
    return out


def _numel(shape: Tuple[int, ...]) -> int:
    n = 1
    for dim in shape:
        if dim <= 0:
            raise IsaError(f"non-positive dimension in shape {shape}")
        n *= dim
    return n


Program = Tuple[Instruction, ...]

#: Instruction fields that name a register (``Free.regs`` holds a tuple
#: of them) and fields that hold a device address.  ``scale_addr`` and
#: ``bias_addr`` are optional: a negative value means absent.
REGISTER_FIELDS = frozenset(
    {"dst", "src", "a", "b", "act", "q", "probs", "rowmax", "rowmax_dst"})
ADDRESS_FIELDS = frozenset(
    {"addr", "table_addr", "weight_addr", "k_addr", "v_addr", "gamma_addr",
     "beta_addr"})
OPTIONAL_ADDRESS_FIELDS = frozenset({"scale_addr", "bias_addr"})


def _relocated(instr: Instruction, names: Dict[str, str],
              offset: int) -> Instruction:
    """``instr`` with registers renamed by ``names`` and every device
    address shifted by ``offset`` bytes.

    Clones at the ``__dict__`` level: the fields come from an
    already-constructed instruction, so ``__post_init__`` need not rerun.
    """
    fields = {}
    for key, value in instr.__dict__.items():
        if key in REGISTER_FIELDS:
            value = names.get(value, value)
        elif key == "regs":
            value = tuple(names.get(reg, reg) for reg in value)
        elif key in ADDRESS_FIELDS or (key in OPTIONAL_ADDRESS_FIELDS
                                       and value >= 0):
            value += offset
        fields[key] = value
    clone = object.__new__(type(instr))
    clone.__dict__.update(fields)
    return clone


def renumbered(reg: str, stride: Mapping[str, int], times: int) -> str:
    """``reg`` moved ``times × stride[bank]`` further up its bank."""
    bank = reg[0]
    return f"{bank}{int(reg[1:]) + times * stride.get(bank, 0)}"


def _registers(code: Sequence[Instruction]) -> Iterator[str]:
    for instr in code:
        yield from instr.reads()
        yield from instr.writes()


@dataclass(frozen=True)
class CompactProgram(Sequence):
    """A stage program as ``head + layer × num_layers + tail``.

    The instruction-level counterpart of
    :class:`repro.llm.graph.CompactStage`.  ``layer`` is decoder layer 0
    as the flat program holds it.  Layer ``i`` is layer 0 with its
    device addresses shifted by ``i × layer_bytes`` and each register it
    allocates renumbered ``i × stride`` further up its bank
    (``reg_stride`` pairs a bank with the registers one layer allocates
    in it).  The register it reads from its predecessor, ``carry_in``,
    is layer ``i - 1``'s ``carry_out``.  The tail names the last layer's
    registers by their flat names.

    :meth:`expand` renders the flat program; ``len``, indexing and
    iteration read that expansion, so a compact program goes wherever a
    flat one does.  ``CompactProgram(code)`` is a flat program: the
    compact case with no layer.  Construction rejects a compact program
    whose renaming would let two layers, or a layer and the head or
    tail, share a register name, so schedulers and checkers may treat
    every layer as a renamed copy of layer 0.
    """

    head: Program
    layer: Program = ()
    tail: Program = ()
    num_layers: int = 0
    carry_in: str = ""
    carry_out: str = ""
    reg_stride: Tuple[Tuple[str, int], ...] = ()
    layer_bytes: int = 0

    def __post_init__(self) -> None:
        if bool(self.layer) != (self.num_layers > 0):
            raise IsaError("compact program: a layer needs num_layers >= 1 "
                           "and num_layers needs a layer")
        if not self.layer:
            return
        if self.carry_out not in self.layer_regs:
            raise IsaError(f"compact program: carry_out {self.carry_out!r} "
                           f"is not a register of the layer")
        for bank, (low, own) in self._own.items():
            if self.num_layers > 1 \
                    and max(own) - low >= self._stride.get(bank, 0):
                raise IsaError(f"compact program: the layer's {bank}-bank "
                               f"registers span its stride, so layers "
                               f"would share names")
        last = self.num_layers - 1
        for reg in (self.carry_in, *_registers(self.head)):
            if self.layer_of(reg) is not None:
                raise IsaError(f"compact program: head register {reg} is "
                               f"also a layer register")
        for reg in _registers(self.tail):
            if reg == self.carry_in or self.layer_of(reg) not in (None,
                                                                  last):
                raise IsaError(f"compact program: tail register {reg} "
                               f"names a layer other than the last")

    @cached_property
    def layer_regs(self) -> Tuple[str, ...]:
        """The registers layer 0 allocates: all it names but carry_in."""
        regs = dict.fromkeys(_registers(self.layer))
        regs.pop(self.carry_in, None)
        return tuple(regs)

    @cached_property
    def _stride(self) -> Dict[str, int]:
        return dict(self.reg_stride)

    @cached_property
    def _own(self) -> Dict[str, Tuple[int, frozenset]]:
        """Bank -> (lowest index, indices) of :attr:`layer_regs`."""
        indices: Dict[str, set] = {}
        for reg in self.layer_regs:
            indices.setdefault(bank_of(reg), set()).add(int(reg[1:]))
        return {bank: (min(own), frozenset(own))
                for bank, own in indices.items()}

    def layer_of(self, reg: str) -> Optional[int]:
        """``i`` when ``reg`` is layer ``i``'s name for a register of
        :attr:`layer_regs`, else None."""
        bank = bank_of(reg)
        if bank not in self._own:
            return None
        low, own = self._own[bank]
        index = int(reg[1:])
        step = self._stride.get(bank, 0)
        if step == 0:
            return 0 if index in own else None
        i, rem = divmod(index - low, step)
        return i if 0 <= i < self.num_layers and low + rem in own else None

    def rename(self, reg: str, i: int) -> str:
        """Layer ``i``'s name for layer 0's register ``reg``."""
        return renumbered(reg, self._stride, i)

    def layer_start(self, i: int) -> int:
        """Flat index of layer ``i``'s first instruction."""
        return len(self.head) + i * len(self.layer)

    def layer_at(self, i: int) -> Program:
        """Decoder layer ``i`` as the flat program holds it."""
        if i == 0:
            return self.layer
        names = {reg: self.rename(reg, i) for reg in self.layer_regs}
        names[self.carry_in] = self.rename(self.carry_out, i - 1)
        return tuple(_relocated(instr, names, i * self.layer_bytes)
                     for instr in self.layer)

    def expand(self) -> Program:
        """The flat program."""
        return self._flat

    @cached_property
    def _flat(self) -> Program:
        code = list(self.head)
        for i in range(self.num_layers):
            code.extend(self.layer_at(i))
        code.extend(self.tail)
        return tuple(code)

    def __len__(self) -> int:
        return self.layer_start(self.num_layers) + len(self.tail)

    def __getitem__(self, index):
        return self._flat[index]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._flat)


def validate_program(program) -> None:
    """Static checks: registers written before read, types correct.

    Also surfaces the verifier's address-space errors — negative,
    out-of-bounds, or misaligned memory windows (PNM201/PNM202/PNM203)
    — as :class:`IsaError`.  The deeper layout-aware and dataflow
    diagnostics stay behind the opt-in ``verify_static`` hook.

    A :class:`CompactProgram` gets exactly the verdict and error of its
    expansion without being expanded.
    """
    if isinstance(program, CompactProgram):
        _check_compact_registers(program)
    else:
        _check_registers(program, set(), 0)
    _validate_addresses(program)


def _check_registers(code: Sequence[Instruction], written: set,
                     start: int) -> None:
    """Read-before-write check of ``code``, numbered from ``start``;
    ``written`` holds the live registers and is updated in place."""
    for idx, instr in enumerate(code, start):
        if not isinstance(instr, Instruction):
            raise IsaError(f"program[{idx}] is not an Instruction: {instr!r}")
        for reg in instr.reads():
            if reg not in written and not isinstance(instr, Free):
                raise IsaError(
                    f"program[{idx}] {instr.opcode} reads {reg} before any "
                    f"write")
        written.update(instr.writes())
        if isinstance(instr, Free):
            written.difference_update(instr.regs)


def _check_compact_registers(program: CompactProgram) -> None:
    """The register check of ``program.expand()``, over head, layer, tail.

    Every layer touches only its own registers and its carry-in, so it
    repeats layer 0's check except for whether the carry-in is live on
    entry: layer 0 inherits that from the head, each later layer from
    whether the layer leaves ``carry_out`` live.  When the two differ,
    layer 1 is checked as well; layers 2 on enter as layer 1 does.  The
    tail sees the head's registers and the last layer's live ones.
    """
    written: set = set()
    _check_registers(program.head, written, 0)
    if program.num_layers:
        entry_live = program.carry_in in written
        _check_registers(program.layer, written, len(program.head))
        live = [reg for reg in program.layer_regs if reg in written]
        if program.num_layers > 1 \
                and (program.carry_out in written) != entry_live:
            _check_registers(program.layer_at(1), written,
                             program.layer_start(1))
        last = program.num_layers - 1
        written = {reg for reg in written if program.layer_of(reg) is None}
        written.update(program.rename(reg, last) for reg in live)
    _check_registers(program.tail, written,
                     program.layer_start(program.num_layers))


def _validate_addresses(program) -> None:
    """Raise IsaError on address-space errors found by the verifier."""
    # Imported here: the verifier itself imports this module.
    from repro.analysis.verifier import address_diagnostics
    errors = address_diagnostics(program)
    if errors:
        rendered = "; ".join(d.render() for d in errors[:4])
        more = f" (+{len(errors) - 4} more)" if len(errors) > 4 else ""
        raise IsaError(f"address-space verification failed: "
                       f"{rendered}{more}")


# --------------------------------------------------------------------------
# Validate-once registry
#
# A stage program flows through three consumers (instruction buffer,
# functional executor, timing simulator) and a cached decode program is
# re-launched every token; validating the same immutable tuple at every
# hand-off is pure overhead.  The registry keys on object identity and
# keeps a strong reference to each validated tuple, so an ``id()`` can
# never be recycled while its entry is live.
# --------------------------------------------------------------------------

_VALIDATED: "OrderedDict[int, Program]" = OrderedDict()
_VALIDATED_MAX = 512


def _remember_validated(program: Program) -> None:
    _VALIDATED[id(program)] = program
    _VALIDATED.move_to_end(id(program))
    while len(_VALIDATED) > _VALIDATED_MAX:
        _VALIDATED.popitem(last=False)


def register_validated(program: Program) -> Program:
    """Mark a program as valid without re-running the static checks.

    Only for programs whose validity is inherited by construction — e.g.
    one patched from an already-validated template where the patch
    rewrites immediates (token indices, addresses, context lengths) but
    never instruction order or register operands.  Returns the program.
    """
    if isinstance(program, tuple):
        _remember_validated(program)
    return program


def validate_program_cached(program: Program) -> None:
    """Validate a program, skipping tuples already validated by identity."""
    cached = _VALIDATED.get(id(program))
    if cached is program:
        _VALIDATED.move_to_end(id(program))
        return
    validate_program(program)
    if isinstance(program, tuple):
        _remember_validated(program)
