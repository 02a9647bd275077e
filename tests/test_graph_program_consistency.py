"""Cross-representation consistency: op graphs vs compiled programs.

The analytical model consumes op graphs; the simulator consumes compiled
programs.  Their headline quantities (matmul FLOPs, streamed weight
bytes) must agree — otherwise the two timing paths could silently model
different workloads and the §VII validation analog would be meaningless.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator import isa, timing_program
from repro.llm import OPT_1_3B, tiny_config
from repro.llm.graph import compact_gen_stage, compact_sum_stage, per_op


def _program_matmul_flops(program):
    return sum(i.flops() for i in program
               if i.unit in (isa.Unit.PE_ARRAY, isa.Unit.ADDER_TREE))


def _graph_matmul_flops(stage):
    return sum(per_op(stage, lambda op: op.flops if op.kind.is_matmul
                      else 0.0))


def _program_mem_elems(program):
    return sum(i.mem_elems() for i in program)


def _graph_weight_elems(stage, dtype_bytes=2):
    return sum(per_op(stage, lambda op: op.weight_bytes)) / dtype_bytes


class TestFlopConsistency:
    @pytest.mark.parametrize("config,batch,ctx_prev", [
        (tiny_config(), 1, 7), (tiny_config(), 4, 0),
        (OPT_1_3B, 1, 575), (OPT_1_3B, 64, 0),
    ])
    def test_matmul_flops_match(self, config, batch, ctx_prev):
        program = timing_program(config, batch_tokens=batch,
                                 ctx_prev=ctx_prev)
        if batch == 1:
            stage = compact_gen_stage(config, ctx_prev + 1)
        else:
            stage = compact_sum_stage(config, batch)
        assert _program_matmul_flops(program) == pytest.approx(
            _graph_matmul_flops(stage), rel=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(ctx_prev=st.integers(1, 40))
    def test_gen_flops_match_property(self, ctx_prev):
        config = tiny_config()
        program = timing_program(config, batch_tokens=1, ctx_prev=ctx_prev)
        stage = compact_gen_stage(config, ctx_prev + 1)
        assert _program_matmul_flops(program) == pytest.approx(
            _graph_matmul_flops(stage), rel=1e-6)


class TestTrafficConsistency:
    @pytest.mark.parametrize("ctx_prev", [15, 63, 511])
    def test_gen_stage_memory_traffic_close(self, ctx_prev):
        """Program mem elems (weights + KV + biases + norms + I/O) must
        cover the graph's weight traffic and not exceed it by much."""
        config = OPT_1_3B
        program = timing_program(config, batch_tokens=1, ctx_prev=ctx_prev)
        stage = compact_gen_stage(config, ctx_prev + 1)
        program_elems = _program_mem_elems(program)
        graph_elems = _graph_weight_elems(stage)
        assert program_elems >= graph_elems * 0.98
        assert program_elems <= graph_elems * 1.10

    def test_instruction_count_independent_of_context(self):
        config = tiny_config()
        short = timing_program(config, batch_tokens=1, ctx_prev=3)
        long = timing_program(config, batch_tokens=1, ctx_prev=30)
        assert len(short) == len(long)
