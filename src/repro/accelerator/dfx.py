"""The DFX baseline accelerator (Hong et al., MICRO 2022).

The paper builds its LLM accelerator by modifying DFX (§V-C): DFX has
**only adder-tree matrix units** (GEMV), a tile dimension of 64, and a
single HBM2 stack delivering ~460 GB/s.  The paper's three changes —
adding the 64x32 PE array for GEMM, doubling the tile to 128, and backing
the accelerator with the 1.1 TB/s LPDDR5X module — are each motivated by
a DFX limitation, so reproducing DFX lets the ablation benches show each
change paying off (notably: without a GEMM unit, the sum stage "begins to
dominate the latency and throughput" as input length grows).
"""

from __future__ import annotations

from repro.accelerator.device import AcceleratorSpec, CXLPNMDevice
from repro.memory.dram import DramTechnology, StackingTech
from repro.memory.module import MemoryModule
from repro.memory.packaging import FormFactor

#: The single HBM2 stack DFX populates: 1024 DQ pins at 3.6 Gb/s gives the
#: ~460 GB/s the paper quotes; 8 x 8 Gb dies = 8 GB.
HBM2_DFX = DramTechnology(
    name="HBM2", gbps_per_pin=3.6, io_width_per_package=1024,
    die_capacity_gbit=8, dies_per_package=8, stacking=StackingTech.TSV,
    core_voltage=1.2, io_voltage=1.2,
    access_energy_pj_per_bit=7.0, background_watts_per_die=0.35,
    table1_normalized_module_power=1.6,
    package_cost_usd=180.0,
)

#: A one-package SiP "module" (DFX is an FPGA card, not a CXL module, but
#: the memory model composes the same way).
DFX_SIP = FormFactor(name="DFX-SiP", board_package_sites=1,
                     controller_trace_budget=1024, sip_package_limit=1,
                     power_budget_watts=225.0)


def dfx_memory() -> MemoryModule:
    """DFX's single HBM2: 8 GB, 460.8 GB/s."""
    return MemoryModule(technology=HBM2_DFX, num_packages=1,
                        form_factor=DFX_SIP)


#: DFX accelerator parameters: adder trees only (16 lanes x 64-wide at the
#: original tile), no PE array.
DFX_SPEC = AcceleratorSpec(
    num_pes=0,
    adder_tree_multipliers=1024,       # 16 lanes x 64 MACs (tile l = 64)
    adder_tree_adders=1008,            # 16 x 63
    register_file_bytes=32 * 2**20,
    dma_buffer_bytes=1 * 2**20,
    dram_io_width=1024,
    sram_io_width=8192,
    technology_nm=16,                  # FPGA-class node
    clock_hz=1.0e9,
    voltage=1.0,
    controller_max_watts=90.0,
    dram_max_watts=25.0,
    platform_max_watts=225.0,
)


def dfx_device() -> CXLPNMDevice:
    """A CXL-PNM-shaped device with DFX's datapath and memory."""
    return CXLPNMDevice(spec=DFX_SPEC, module=dfx_memory(),
                        price_usd=9_000.0, idle_watts=40.0)
