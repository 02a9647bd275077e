"""Operator descriptions: FLOPs, bytes, roofline quantities."""

import pytest
from hypothesis import given, strategies as st

from repro.llm.ops import (
    OpKind,
    matmul_op,
    total_flops,
    total_weight_bytes,
    vector_op,
)


class TestMatmulOp:
    def test_gemm_flops(self):
        op = matmul_op("x", m=4, n=8, k=16, dtype_bytes=2)
        assert op.flops == 2 * 4 * 8 * 16
        assert op.kind is OpKind.GEMM

    def test_gemv_detected_by_single_row(self):
        op = matmul_op("x", m=1, n=8, k=16, dtype_bytes=2)
        assert op.kind is OpKind.GEMV

    def test_weight_bytes_resident(self):
        op = matmul_op("x", m=2, n=8, k=16, dtype_bytes=2)
        assert op.weight_bytes == 8 * 16 * 2
        assert op.input_bytes == 2 * 16 * 2
        assert op.output_bytes == 2 * 8 * 2

    def test_non_resident_weights_count_as_input(self):
        op = matmul_op("x", m=2, n=8, k=16, dtype_bytes=2,
                       weights_resident=False)
        assert op.weight_bytes == 0
        assert op.input_bytes == (2 * 16 + 16 * 8) * 2

    def test_total_bytes_sums_all_traffic(self):
        op = matmul_op("x", m=2, n=8, k=16, dtype_bytes=2)
        assert op.total_bytes == \
            op.weight_bytes + op.input_bytes + op.output_bytes

    @given(m=st.integers(1, 64), n=st.integers(1, 64), k=st.integers(1, 64))
    def test_arithmetic_intensity_bounded_by_min_dim(self, m, n, k):
        op = matmul_op("x", m=m, n=n, k=k, dtype_bytes=2)
        # FLOPs/byte of a matmul cannot exceed min(m, n, k) at 2B/elem.
        assert op.arithmetic_intensity <= min(m, n, k) + 1e-9


class TestVectorOp:
    def test_layernorm_bytes(self):
        op = vector_op("ln", OpKind.LAYERNORM, elements=128, dtype_bytes=2)
        assert op.input_bytes == 128 * 2
        assert op.output_bytes == 128 * 2
        assert op.weight_bytes == 0

    def test_residual_counts_two_inputs(self):
        op = vector_op("res", OpKind.ELEMENTWISE, elements=64, dtype_bytes=2,
                       num_inputs=2)
        assert op.input_bytes == 2 * 64 * 2

    def test_zero_traffic_intensity_is_zero(self):
        from repro.llm.ops import OpSpec
        op = OpSpec(name="z", kind=OpKind.ELEMENTWISE, flops=0.0,
                    weight_bytes=0.0, input_bytes=0.0, output_bytes=0.0)
        assert op.arithmetic_intensity == 0.0


class TestAggregates:
    def test_totals(self):
        ops = [matmul_op("a", 2, 4, 8, 2), vector_op("b", OpKind.GELU, 16, 2)]
        assert total_flops(ops) == ops[0].flops + ops[1].flops
        assert total_weight_bytes(ops) == ops[0].weight_bytes

    def test_matmul_kind_property(self):
        assert OpKind.GEMM.is_matmul and OpKind.GEMV.is_matmul
        assert not OpKind.SOFTMAX.is_matmul
