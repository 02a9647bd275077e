"""Operator-level descriptions of transformer computations.

A decoding layer decomposes into a handful of operator kinds with very
different hardware behaviour (paper §II-B, §III-B):

* **GEMM** — matrix-matrix multiply; compute-bound on wide inputs (the sum
  stage), runs on the GPU's tensor cores or the PNM accelerator's PE array.
* **GEMV** — matrix-vector multiply; memory-bandwidth-bound because every
  weight byte is read once per output token (the gen stage), runs on the
  adder-tree units in the PNM accelerator.
* **Vector ops** — LayerNorm, Softmax, GELU, residual adds; small compared
  to the matmuls but they add kernel-launch overhead on the GPU.

:class:`OpSpec` carries the roofline-relevant quantities: FLOPs, weight
bytes that must be streamed from device memory, and activation bytes.
Its shape fields (``m``, ``n``, ``k`` and the quantities derived from
them) may be int/float arrays along one sweep axis, so that a perf
model prices every element of a sweep in one call (:mod:`repro.arrays`);
an array-valued op is one op at many operating points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.arrays import maximum, to_float, uniform


class OpKind(enum.Enum):
    """Hardware-behavioural classes of transformer operators."""

    GEMM = "gemm"
    GEMV = "gemv"
    SOFTMAX = "softmax"
    LAYERNORM = "layernorm"
    GELU = "gelu"
    ELEMENTWISE = "elementwise"
    EMBEDDING = "embedding"

    @property
    def is_matmul(self) -> bool:
        return self in (OpKind.GEMM, OpKind.GEMV)


@dataclass(frozen=True)
class OpSpec:
    """One operator instance with its roofline quantities.

    Attributes:
        name: Qualified operator name, e.g. ``"layer.qkv"``.
        kind: Behavioural class used by the performance models.
        flops: Floating-point operations (multiply-accumulate counts as 2).
        weight_bytes: Parameter bytes streamed from device memory.  Zero
            for activation-only ops; for attention score/context ops this
            is the KV-cache traffic, which behaves like weights (read once
            per token, never cached on chip across tokens).
        input_bytes: Activation bytes read.
        output_bytes: Activation bytes written.
        m, n, k: Matmul dimensions (``[m x k] @ [k x n]``), zero otherwise.
        elem_bytes: Element size the byte quantities were derived with,
            so models that need element counts back (e.g. per-element
            vector-lane costs) divide by the op's own width instead of
            assuming one global dtype.
    """

    name: str
    kind: OpKind
    flops: float
    weight_bytes: float
    input_bytes: float
    output_bytes: float
    m: int = 0
    n: int = 0
    k: int = 0
    elem_bytes: int = 2

    @property
    def total_bytes(self) -> float:
        """All device-memory traffic the op must sustain."""
        return self.weight_bytes + self.input_bytes + self.output_bytes

    @property
    def matmul_instances(self) -> float:
        """How many ``[m x k] @ [k x n]`` matmuls the op aggregates (a
        matmul op only): every head of every request of an attention
        op, which keeps per-head ``k`` and ``n`` but sums the heads'
        flops; 1 for a plain matmul."""
        return maximum(1.0, self.flops
                       / (2.0 * maximum(self.m, 1) * self.n * self.k))

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of device-memory traffic (roofline x-axis)."""
        traffic = self.total_bytes
        return self.flops / traffic if traffic else 0.0


def matmul_op(name: str, m: int, n: int, k: int, dtype_bytes: int,
              weights_resident: bool = True) -> OpSpec:
    """Describe a ``[m x k] @ [k x n]`` matmul.

    ``weights_resident`` distinguishes parameter matrices (streamed from
    device memory every token in the gen stage) from attention operands
    (KV matrices, also streamed; Q/score operands, activation-sized).
    A matmul with ``m == 1`` is a GEMV; an array ``m`` must be all 1 or
    all above 1.
    """
    kind = OpKind.GEMV if uniform(m == 1) else OpKind.GEMM
    flops = 2.0 * m * n * k
    weight_bytes = to_float(k * n * dtype_bytes) if weights_resident \
        else 0.0
    input_bytes = to_float(m * k * dtype_bytes)
    if not weights_resident:
        input_bytes += to_float(k * n * dtype_bytes)
    output_bytes = to_float(m * n * dtype_bytes)
    return OpSpec(name=name, kind=kind, flops=flops, weight_bytes=weight_bytes,
                  input_bytes=input_bytes, output_bytes=output_bytes,
                  m=m, n=n, k=k, elem_bytes=dtype_bytes)


def vector_op(name: str, kind: OpKind, elements: int, dtype_bytes: int,
              flops_per_element: float = 5.0,
              num_inputs: int = 1) -> OpSpec:
    """Describe an elementwise/reduction vector operator over ``elements``.

    ``flops_per_element`` is a coarse cost model: LayerNorm and Softmax do a
    few passes (mean, variance / max, exp, normalize); GELU evaluates a tanh
    polynomial.  These ops are activation-bound, so the byte terms dominate
    the timing anyway.
    """
    return OpSpec(
        name=name,
        kind=kind,
        flops=flops_per_element * elements,
        weight_bytes=0.0,
        input_bytes=to_float(num_inputs * elements * dtype_bytes),
        output_bytes=to_float(elements * dtype_bytes),
        elem_bytes=dtype_bytes,
    )


def total_flops(ops: Iterable[OpSpec]) -> float:
    """Sum of FLOPs over an operator list."""
    return sum(op.flops for op in ops)


def total_weight_bytes(ops: Iterable[OpSpec]) -> float:
    """Sum of streamed parameter/KV bytes over an operator list."""
    return sum(op.weight_bytes for op in ops)
