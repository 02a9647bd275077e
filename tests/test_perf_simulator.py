"""Instruction-level simulator: scheduling, overlap, validation."""

import pytest

from repro.accelerator import CXLPNMDevice, isa, timing_program
from repro.errors import SimulationError
from repro.llm import OPT_13B, OPT_1_3B, OPT_6_7B, tiny_config
from repro.perf.analytical import InferenceTimer, PnmPerfModel
from repro.perf.simulator import AcceleratorSimulator


@pytest.fixture(scope="module")
def sim():
    return AcceleratorSimulator(CXLPNMDevice())


class TestScheduling:
    def test_dependent_instructions_serialize(self, sim):
        program = (
            isa.DmaLoad(dst="m0", addr=0, shape=(128, 128)),
            isa.VpuGelu(dst="m1", src="m0"),
            isa.VpuGelu(dst="m2", src="m1"),
        )
        result = sim.run(program)
        total_busy = sum(result.unit_busy_s.values())
        assert result.total_time_s == pytest.approx(total_busy, rel=0.01)

    def test_independent_units_overlap(self, sim):
        big = (256, 4096)
        program = (
            isa.DmaLoad(dst="m0", addr=0, shape=big),
            isa.DmaLoad(dst="m2", addr=0, shape=big),
            isa.VpuGelu(dst="m1", src="m0"),     # overlaps second DMA
            isa.VpuGelu(dst="m3", src="m2"),
        )
        result = sim.run(program)
        total_busy = sum(result.unit_busy_s.values())
        assert result.total_time_s < total_busy

    def test_barrier_serializes(self, sim):
        shape = (64, 64)
        base = (
            isa.DmaLoad(dst="m0", addr=0, shape=shape),
            isa.DmaLoad(dst="m1", addr=0, shape=shape),
        )
        with_barrier = (
            base[0], isa.Barrier(), base[1],
        )
        assert sim.run(with_barrier).total_time_s \
            >= sim.run(base).total_time_s

    def test_waw_hazard_respected(self, sim):
        program = (
            isa.DmaLoad(dst="m0", addr=0, shape=(64, 64)),
            isa.VpuGelu(dst="m1", src="m0"),
            isa.DmaLoad(dst="m0", addr=0, shape=(64, 64)),  # WAR on m0
        )
        result = sim.run(program)
        assert result.total_time_s > 0

    def test_unknown_source_shape_raises(self, sim):
        # run() validates first, so lower a read-before-write directly.
        program = isa.CompactProgram((isa.VpuGelu(dst="m1", src="m0"),))
        with pytest.raises(SimulationError, match="shape of m0 unknown"):
            sim._lower(program)

    def test_unit_busy_accounting(self, sim):
        program = timing_program(tiny_config(), batch_tokens=1, ctx_prev=4)
        result = sim.run(program)
        assert result.unit_busy_s[isa.Unit.ADDER_TREE] > 0
        assert result.unit_busy_s[isa.Unit.VPU] > 0
        assert result.unit_busy_s[isa.Unit.DMA] > 0
        assert result.unit_busy_s[isa.Unit.PE_ARRAY] == 0  # gen stage

    def test_utilization_helper(self, sim):
        program = timing_program(tiny_config(), batch_tokens=4, ctx_prev=0)
        result = sim.run(program)
        assert 0 <= result.utilization(isa.Unit.PE_ARRAY) <= 1.0


class TestGenStageBehaviour:
    def test_gen_stage_bandwidth_bound(self, sim):
        """The gen stage must stream ~all parameters at near the device's
        effective bandwidth — the core CXL-PNM premise."""
        program = timing_program(OPT_6_7B, batch_tokens=1, ctx_prev=127)
        result = sim.run(program)
        achieved = result.mem_bytes / result.total_time_s
        assert achieved > 0.85 * sim.device.effective_memory_bandwidth
        assert result.mem_bytes > OPT_6_7B.param_bytes * 0.95

    def test_sum_stage_compute_bound(self, sim):
        program = timing_program(OPT_1_3B, batch_tokens=64, ctx_prev=0)
        result = sim.run(program)
        achieved_flops = result.flops / result.total_time_s
        assert achieved_flops > 0.5 * sim.device.spec.peak_gemm_flops


class TestCrossValidation:
    """The §VII analog: two independent timing models must agree."""

    @pytest.mark.parametrize("config,batch,ctx_prev,tol", [
        (OPT_6_7B, 1, 575, 0.05),
        (OPT_13B, 1, 575, 0.05),
        (OPT_13B, 64, 0, 0.05),
        (OPT_1_3B, 1, 1023, 0.06),
    ])
    def test_simulator_matches_analytical(self, sim, config, batch,
                                          ctx_prev, tol):
        program = timing_program(config, batch_tokens=batch,
                                 ctx_prev=ctx_prev)
        sim_time = sim.run(program).total_time_s
        timer = InferenceTimer(config, PnmPerfModel(sim.device))
        if batch == 1:
            analytical = timer.gen_stage(ctx_prev + 1).time_s
        else:
            analytical = timer.sum_stage(batch).time_s
        assert sim_time == pytest.approx(analytical, rel=tol)
