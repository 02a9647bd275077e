"""Matrix-processing-unit timing model (Fig. 8).

The MPU has two datapaths:

* a **PE array** of 64x32 FP16 MAC units (the paper's GEMM extension to
  DFX) — 2,048 MACs, peak 4.09 TFLOPS at 1 GHz;
* **adder trees**: 16 lanes of 128-wide multiply + 127-deep reduction
  (2,048 multipliers / 2,032 adders, Table II) for GEMV — also 4.09
  TFLOPS peak.

Work is tiled at ``TILE_DIM`` = 128 (the paper doubles DFX's 64 because
the LPDDR5X module provides >2x DFX's HBM bandwidth and attention head
dimensions are multiples of 128).  Cycle counts round dimensions up to
hardware granularity, so small matrices show realistic utilization loss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator import isa
from repro.accelerator.compiler import TILE_DIM
from repro.arrays import where
from repro.errors import SimulationError


def _round_up(value: int, multiple: int) -> int:
    return (value + multiple - 1) // multiple * multiple


@dataclass(frozen=True)
class MpuTiming:
    """Cycle-accurate-ish timing of MPU instructions.

    Attributes:
        pe_rows / pe_cols: PE-array geometry (64 x 32); zero for
            tree-only designs like the DFX baseline.
        tree_lanes / tree_width: Adder-tree geometry (16 x 128).
        pipeline_fill_cycles: Startup latency of a matrix instruction.
        gemm_via_tree: Execute GEMMs as row-by-row GEMV sweeps on the
            adder trees — DFX's behaviour, the bottleneck the paper's PE
            array removes.
    """

    pe_rows: int = 64
    pe_cols: int = 32
    tree_lanes: int = 16
    tree_width: int = TILE_DIM
    pipeline_fill_cycles: int = 96
    gemm_via_tree: bool = False

    @property
    def pe_macs_per_cycle(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def tree_macs_per_cycle(self) -> int:
        return self.tree_lanes * self.tree_width

    def gemm_cycles(self, m: int, k: int, n: int) -> int:
        """Cycles for an ``[m,k] @ [k,n]`` GEMM.

        On the PE array, rows round up to the array's row count and
        columns/depth to the tile dimension — the fragmentation that makes
        narrow GEMMs cheap on adder trees instead.  Tree-only designs
        sweep the rows through the GEMV datapath.  ``m``, ``k`` and
        ``n`` may be int arrays (one GEMM per element).
        """
        if self.gemm_via_tree or self.pe_macs_per_cycle == 0:
            per_row = self.gemv_cycles(k, n) - self.pipeline_fill_cycles
            return self.pipeline_fill_cycles + m * per_row
        mr = where(m >= self.pe_rows, _round_up(m, self.pe_rows),
                   self.pe_rows)
        kr = _round_up(k, TILE_DIM)
        nr = _round_up(n, self.pe_cols)
        macs = mr * kr * nr
        return self.pipeline_fill_cycles + macs // self.pe_macs_per_cycle

    def gemv_cycles(self, k: int, n: int) -> int:
        """Adder-tree cycles for a ``[1,k] @ [k,n]`` GEMV."""
        kr = _round_up(k, self.tree_width)
        nr = _round_up(n, self.tree_lanes)
        macs = kr * nr
        return self.pipeline_fill_cycles + macs // self.tree_macs_per_cycle

    def cycles(self, instr: isa.Instruction) -> int:
        """Cycles the instruction occupies its MPU datapath."""
        if isinstance(instr, isa.MpuMmPea):
            return self.gemm_cycles(instr.m, instr.k, instr.n)
        if isinstance(instr, isa.MpuMv):
            return self.gemv_cycles(instr.k, instr.n)
        if isinstance(instr, isa.MpuMaskedMm):
            per_head = (self.gemm_cycles(instr.m, instr.head_dim, instr.ctx)
                        if instr.unit is isa.Unit.PE_ARRAY
                        else self.gemv_cycles(instr.head_dim, instr.ctx))
            # Heads pipeline back-to-back; fill is paid once.
            return (self.pipeline_fill_cycles
                    + instr.heads * (per_head - self.pipeline_fill_cycles))
        if isinstance(instr, isa.MpuAttnContext):
            per_head = (self.gemm_cycles(instr.m, instr.ctx, instr.head_dim)
                        if instr.unit is isa.Unit.PE_ARRAY
                        else self.gemv_cycles(instr.ctx, instr.head_dim))
            return (self.pipeline_fill_cycles
                    + instr.heads * (per_head - self.pipeline_fill_cycles))
        if isinstance(instr, isa.MpuConv2d):
            oh, ow = instr.out_hw
            return self.gemm_cycles(oh * ow, instr.in_ch * instr.kh * instr.kw,
                                    instr.out_ch)
        if isinstance(instr, isa.MpuTranspose):
            return self.pipeline_fill_cycles
        raise SimulationError(f"{instr.opcode} is not an MPU instruction")
