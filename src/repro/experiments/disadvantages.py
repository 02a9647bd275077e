"""§V-A: the four disadvantages of prior PIM/PNM, quantified.

The paper motivates CXL-PNM by four disadvantages of HBM-PIM and
AxDIMM-style DIMM-PNM:

* **D1** — PIM's development cost: custom DRAM dies and requalification
  vs reusing commodity packages (we quantify the packaging-cost side);
* **D2** — DIMM-PNM's bandwidth/capacity scaling: at most 2x one DDR
  channel of bandwidth and less than one DIMM of capacity, vs the CXL
  module's 10x+;
* **D3** — arbitration: blocking + host polling vs the CXL controller's
  hardware arbiter;
* **D4** — host address interleaving shattering contiguous regions vs
  module-local interleaving.
"""

from __future__ import annotations

from repro.cxl.arbiter import ArbitrationPolicy, compare_policies
from repro.cxl.protocol import Source
from repro.experiments.report import ExperimentResult
from repro.memory.dram import DDR5, LPDDR5X
from repro.memory.interleave import (
    HOST_INTERLEAVE,
    MODULE_LOCAL_INTERLEAVE,
    accelerator_visible_fraction,
    streaming_bandwidth_fraction,
)
from repro.memory.module import lpddr5x_module
from repro.memory.packaging import packaging_cost_factor
from repro.units import GB, GiB

#: One DDR5-4800-class host channel (what a DIMM-PNM can tap, at 2x best
#: case per the paper's D2 analysis).
DDR5_CHANNEL_BYTES_S = 38.4e9

#: A large RDIMM's capacity; the accelerator package displaces DRAM, so a
#: DIMM-PNM holds less than this.
RDIMM_CAPACITY = 64 * GiB


def run() -> ExperimentResult:
    module = lpddr5x_module()
    rows = []

    # D1: commodity-package reuse vs TSV-based custom stacks.
    rows.append({
        "disadvantage": "D1 packaging-cost factor",
        "dimm_or_pim": packaging_cost_factor(DDR5),
        "cxl_pnm": packaging_cost_factor(LPDDR5X),
        "advantage": packaging_cost_factor(DDR5)
        / packaging_cost_factor(LPDDR5X),
    })

    # D2: PNM-visible bandwidth and capacity.
    dimm_bw = 2 * DDR5_CHANNEL_BYTES_S
    rows.append({
        "disadvantage": "D2 PNM bandwidth (GB/s)",
        "dimm_or_pim": dimm_bw / GB,
        "cxl_pnm": module.peak_bandwidth / GB,
        "advantage": module.peak_bandwidth / dimm_bw,
    })
    rows.append({
        "disadvantage": "D2 PNM capacity (GB)",
        "dimm_or_pim": RDIMM_CAPACITY / GB,
        "cxl_pnm": module.capacity_bytes / GB,
        "advantage": module.capacity_bytes / RDIMM_CAPACITY,
    })

    # D3: host service under concurrent PNM work (1 s interval, 2 ms
    # tasks, both sides offering 200 GB/s of demand).
    results = compare_policies(memory_bandwidth=module.peak_bandwidth,
                               host_rate=200e9 / 64, pnm_rate=200e9 / 64,
                               pnm_task_s=2e-3)
    blocking = results[ArbitrationPolicy.BLOCKING_POLL.value]
    wrr = results[ArbitrationPolicy.HARDWARE_WRR.value]
    blocked_host = blocking.served_bytes[Source.HOST]
    rows.append({
        "disadvantage": "D3 host bandwidth under PNM load (GB/s)",
        "dimm_or_pim": blocked_host / GB,
        "cxl_pnm": wrr.served_bytes[Source.HOST] / GB,
        # A host served nothing has no finite ratio to report.
        "advantage": (wrr.served_bytes[Source.HOST] / blocked_host
                      if blocked_host else "starved"),
    })
    rows.append({
        "disadvantage": "D3 mean host wait (us)",
        "dimm_or_pim": blocking.mean_wait_s[Source.HOST] * 1e6,
        "cxl_pnm": wrr.mean_wait_s[Source.HOST] * 1e6,
        "advantage": (blocking.mean_wait_s[Source.HOST]
                      / wrr.mean_wait_s[Source.HOST]),
    })

    # D4: accelerator-visible fraction of a 1 GiB contiguous region.
    region = 1 << 30
    dimm_frac = accelerator_visible_fraction(HOST_INTERLEAVE, 0, region, 0)
    cxl_frac = streaming_bandwidth_fraction(MODULE_LOCAL_INTERLEAVE, 0,
                                            region)
    rows.append({
        "disadvantage": "D4 accessible fraction of a 1 GiB region",
        "dimm_or_pim": dimm_frac,
        "cxl_pnm": cxl_frac,
        "advantage": cxl_frac / dimm_frac,
    })

    return ExperimentResult(
        experiment_id="disadvantages",
        title="§V-A: HBM-PIM / DIMM-PNM disadvantages vs CXL-PNM",
        rows=rows,
        anchors={
            "paper_d2_bandwidth_claim": "10x higher PNM bandwidth than "
                                        "DDR5 DIMM-PNM",
        },
        notes=[
            "D1's full cost story (verification, qualification, fab "
            "changes) is organizational; the packaging-cost factor is "
            "the quantifiable slice.",
        ],
    )
