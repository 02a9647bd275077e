"""The CXL-PNM Python library (paper §VI, Fig. 9).

User-facing tensor and layer-function APIs that mirror what the paper's
library offers: memory allocation and model loading into CXL memory, and
accelerated layer functions — ``LayerNorm``, ``Conv1D``, ``Conv2D``,
``MaskedMM``, ``Softmax``, ``GELU`` — each of which programs the
accelerator's instruction buffer with a short acceleration-code sequence
and retrieves the result through the driver (steps 1-4 in §VI).

Because the host can load/store CXL memory directly, ``from_numpy`` /
``to_numpy`` are plain memory writes/reads — no staging copies, which is
the CXL.mem advantage over PCIe accelerators the paper emphasizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.accelerator import isa
from repro.accelerator.memory import DeviceMemory, Region
from repro.errors import ConfigurationError
from repro.runtime.driver import CxlPnmDriver


@dataclass(frozen=True)
class PnmTensor:
    """A tensor resident in CXL-PNM device memory."""

    name: str
    shape: Tuple[int, ...]
    region: Region

    @property
    def addr(self) -> int:
        return self.region.addr

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n


class CxlPnmLibrary:
    """Layer-function API over one CXL-PNM device."""

    def __init__(self, driver: CxlPnmDriver):
        self.driver = driver
        self._counter = itertools.count()

    @property
    def memory(self) -> DeviceMemory:
        return self.driver.memory

    # -- memory management -------------------------------------------------

    def _fresh_name(self, hint: str) -> str:
        return f"{hint}#{next(self._counter)}"

    def alloc(self, shape: Tuple[int, ...], hint: str = "tensor"
              ) -> PnmTensor:
        """Allocate an uninitialized device tensor."""
        name = self._fresh_name(hint)
        region = self.memory.alloc_tensor(name, shape)
        return PnmTensor(name=name, shape=shape, region=region)

    def from_numpy(self, array: np.ndarray, hint: str = "tensor"
                   ) -> PnmTensor:
        """Copy a host array into CXL memory (a direct store, no DMA)."""
        tensor = self.alloc(tuple(array.shape), hint)
        self.memory.write_tensor(tensor.addr, array)
        return tensor

    def to_numpy(self, tensor: PnmTensor) -> np.ndarray:
        """Read a device tensor back to the host (a direct load)."""
        return self.memory.read_tensor(tensor.addr, tensor.shape)

    # -- execution plumbing --------------------------------------------------

    def _run(self, code: Tuple[isa.Instruction, ...], out: PnmTensor
             ) -> PnmTensor:
        self.driver.program(code)
        self.driver.launch()
        self.driver.acknowledge()
        return out

    @staticmethod
    def _rows_cols(tensor: PnmTensor) -> Tuple[int, int]:
        if len(tensor.shape) == 1:
            return 1, tensor.shape[0]
        if len(tensor.shape) == 2:
            return tensor.shape
        raise ConfigurationError(
            f"{tensor.name}: expected 1-D/2-D, got shape {tensor.shape}")

    # -- accelerated layer functions (the paper's API list) -----------------

    def layernorm(self, x: PnmTensor, gamma: PnmTensor, beta: PnmTensor,
                  eps: float = 1e-5) -> PnmTensor:
        """LayerNorm over the last axis with learned scale/bias."""
        rows, cols = self._rows_cols(x)
        if gamma.shape != (cols,) or beta.shape != (cols,):
            raise ConfigurationError("gamma/beta must match the last axis")
        out = self.alloc((rows, cols), "layernorm")
        code = (
            isa.DmaLoad(dst="m0", addr=x.addr, shape=(rows, cols)),
            isa.VpuLayerNorm(dst="m1", src="m0", gamma_addr=gamma.addr,
                             beta_addr=beta.addr, n=cols, eps=eps),
            isa.DmaStore(src="m1", addr=out.addr, shape=(rows, cols)),
            isa.Free(regs=("m0", "m1")),
        )
        return self._run(code, out)

    def gelu(self, x: PnmTensor) -> PnmTensor:
        """Tanh-approximated GELU."""
        rows, cols = self._rows_cols(x)
        out = self.alloc((rows, cols), "gelu")
        code = (
            isa.DmaLoad(dst="m0", addr=x.addr, shape=(rows, cols)),
            isa.VpuGelu(dst="m1", src="m0"),
            isa.DmaStore(src="m1", addr=out.addr, shape=(rows, cols)),
            isa.Free(regs=("m0", "m1")),
        )
        return self._run(code, out)

    def softmax(self, x: PnmTensor) -> PnmTensor:
        """Row-wise numerically stable softmax."""
        rows, cols = self._rows_cols(x)
        out = self.alloc((rows, cols), "softmax")
        code = (
            isa.DmaLoad(dst="m0", addr=x.addr, shape=(rows, cols)),
            isa.VpuSoftmax(dst="m1", src="m0"),
            isa.DmaStore(src="m1", addr=out.addr, shape=(rows, cols)),
            isa.Free(regs=("m0", "m1")),
        )
        return self._run(code, out)

    def conv1d(self, x: PnmTensor, weight: PnmTensor,
               bias: Optional[PnmTensor] = None) -> PnmTensor:
        """GPT-style Conv1D: ``x @ W + b`` (a matmul with weights in
        memory, as HuggingFace's Conv1D layer computes)."""
        rows, k = self._rows_cols(x)
        wk, n = self._rows_cols(weight)
        if wk != k:
            raise ConfigurationError(
                f"conv1d: inner dims differ ({k} vs {wk})")
        out = self.alloc((rows, n), "conv1d")
        code = [isa.DmaLoad(dst="m0", addr=x.addr, shape=(rows, k)),
                isa.weight_matmul(dst="m1", act="m0",
                                  weight_addr=weight.addr, m=rows, k=k,
                                  n=n)]
        if bias is not None:
            if bias.shape != (n,):
                raise ConfigurationError("conv1d: bias must be [n]")
            code.append(isa.VpuBias(dst="m1", src="m1",
                                    bias_addr=bias.addr, n=n))
        code.append(isa.DmaStore(src="m1", addr=out.addr, shape=(rows, n)))
        code.append(isa.Free(regs=("m0", "m1")))
        return self._run(tuple(code), out)

    def matmul(self, x: PnmTensor, weight: PnmTensor) -> PnmTensor:
        """Plain matmul (Conv1D without bias)."""
        return self.conv1d(x, weight, bias=None)

    def masked_mm(self, q: PnmTensor, k: PnmTensor, scale: float = 1.0,
                  mask_offset: int = 0) -> PnmTensor:
        """Causally masked, scaled ``q @ k.T`` — the MaskedMM layer API.

        ``q`` is ``[m, d]``, ``k`` is ``[ctx, d]``; result ``[m, ctx]``
        with row ``i`` masked beyond column ``i + mask_offset``.
        """
        m, d = self._rows_cols(q)
        ctx, dk = self._rows_cols(k)
        if dk != d:
            raise ConfigurationError(f"masked_mm: dims differ ({d} vs {dk})")
        out = self.alloc((m, ctx), "masked_mm")
        code = (
            isa.DmaLoad(dst="m0", addr=q.addr, shape=(m, d)),
            isa.MpuMaskedMm(dst="m1", q="m0", k_addr=k.addr, heads=1,
                            head_dim=d, ctx=ctx, m=m, scale=scale,
                            mask_offset=mask_offset),
            # Result register holds [1, m, ctx]; store row-major == [m,ctx].
            isa.DmaStore(src="m1", addr=out.addr, shape=(m, ctx)),
            isa.Free(regs=("m0", "m1")),
        )
        return self._run(code, out)

    def conv2d(self, x: PnmTensor, weight: PnmTensor, stride: int = 1,
               fuse_gelu: bool = False) -> PnmTensor:
        """2-D convolution (valid padding) on the PE array via im2col."""
        if len(x.shape) != 3 or len(weight.shape) != 4:
            raise ConfigurationError(
                "conv2d expects x=[C,H,W], weight=[O,C,kh,kw]")
        in_ch, h, w = x.shape
        out_ch, wc, kh, kw = weight.shape
        if wc != in_ch:
            raise ConfigurationError(
                f"conv2d: channel mismatch ({in_ch} vs {wc})")
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
        out = self.alloc((out_ch, oh, ow), "conv2d")
        code = (
            isa.DmaLoad(dst="m0", addr=x.addr, shape=(in_ch, h, w)),
            isa.MpuConv2d(dst="m1", act="m0", weight_addr=weight.addr,
                          in_ch=in_ch, out_ch=out_ch, kh=kh, kw=kw, h=h,
                          w=w, stride=stride, gelu=fuse_gelu),
            isa.DmaStore(src="m1", addr=out.addr, shape=(out_ch, oh, ow)),
            isa.Free(regs=("m0", "m1")),
        )
        return self._run(code, out)

    def add(self, a: PnmTensor, b: PnmTensor) -> PnmTensor:
        """Elementwise add (residual connections)."""
        if a.shape != b.shape:
            raise ConfigurationError(
                f"add: shapes differ ({a.shape} vs {b.shape})")
        out = self.alloc(a.shape, "add")
        code = (
            isa.DmaLoad(dst="m0", addr=a.addr, shape=a.shape),
            isa.DmaLoad(dst="m1", addr=b.addr, shape=b.shape),
            isa.VpuAdd(dst="m2", a="m0", b="m1"),
            isa.DmaStore(src="m2", addr=out.addr, shape=a.shape),
            isa.Free(regs=("m0", "m1", "m2")),
        )
        return self._run(code, out)
