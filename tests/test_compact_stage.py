"""Compact stages: flat op lists unchanged, pricing bit-identical.

A stage is built as ``head + layer * num_layers + tail`` and priced by
timing each distinct op once.  These tests pin that down against the
flat op lists the stage functions produced before the compact form:
the lists must match op for op (names included), and every priced
quantity must match the flat-list pricing to the last bit
(``float.hex``), across models, devices, dtypes, tensor-parallel
degrees and stage shapes.
"""

import pytest

from repro.accelerator.device import CXLPNMDevice
from repro.gpu.device import A100_40G
from repro.llm import OPT_125M, OPT_13B, OPT_1_3B
from repro.llm.batching import (
    batched_gen_layer_ops,
    batched_gen_stage_ops,
    compact_batched_gen_stage,
)
from repro.llm.graph import (
    StageShape,
    compact_gen_stage,
    compact_sum_stage,
    decoder_layer_ops,
    embedding_ops,
    gen_stage_ops,
    lm_head_ops,
    per_op,
    sum_stage_ops,
)
from repro.llm.ops import OpSpec
from repro.perf.analytical import (
    BatchStepTimer,
    GpuPerfModel,
    InferenceTimer,
    PnmPerfModel,
)
from repro.perf.metrics import StageResult

MODELS = [OPT_125M, OPT_1_3B, OPT_13B]
DTYPES = [2, 1]
WAYS = [1, 2]
INPUT_LENS = [1, 7, 64, 333]
BATCH_CONTEXTS = [(1, 1), (1, 576), (2, 33), (7, 100), (16, 1000),
                  (64, 2048)]
PERF_MODELS = {
    "pnm": PnmPerfModel(CXLPNMDevice()),
    "gpu": GpuPerfModel(A100_40G),
}


def _config(model, dtype_bytes):
    return model if dtype_bytes == 2 else model.with_dtype(dtype_bytes)


# -- the flat lists as built before the compact form ---------------------


def _reference_stage(config, shape, tensor_parallel):
    ops = embedding_ops(config, shape)
    for i in range(config.num_layers):
        ops.extend(decoder_layer_ops(config, shape, tensor_parallel,
                                     layer_name=f"layer{i}"))
    ops.extend(lm_head_ops(config, shape))
    return ops


def _reference_sum(config, input_len, tensor_parallel):
    return _reference_stage(
        config, StageShape(batch_tokens=input_len, context_len=input_len),
        tensor_parallel)


def _reference_gen(config, context_len, tensor_parallel):
    return _reference_stage(
        config, StageShape(batch_tokens=1, context_len=context_len),
        tensor_parallel)


def _reference_batched(config, context_len, batch, tensor_parallel):
    one = StageShape(batch_tokens=1, context_len=1)
    ops = [OpSpec(name=op.name, kind=op.kind,
                  flops=op.flops * batch,
                  weight_bytes=op.weight_bytes * batch,
                  input_bytes=op.input_bytes * batch,
                  output_bytes=op.output_bytes * batch)
           for op in embedding_ops(config, one)]
    for i in range(config.num_layers):
        ops.extend(batched_gen_layer_ops(config, context_len, batch,
                                         tensor_parallel,
                                         layer_name=f"layer{i}"))
    for op in lm_head_ops(config, one):
        ops.append(OpSpec(name=op.name, kind=op.kind,
                          flops=op.flops * batch,
                          weight_bytes=op.weight_bytes,
                          input_bytes=op.input_bytes * batch,
                          output_bytes=op.output_bytes * batch,
                          m=op.m, n=op.n, k=op.k))
    return ops


def _flat_time_s(ops, model):
    return sum(model.op_time(op) for op in ops)


def _flat_stage_result(name, ops, model, comm_s):
    time_s = _flat_time_s(ops, model) + comm_s
    flops = sum(op.flops for op in ops)
    mem = sum(op.total_bytes for op in ops)
    cu = min(1.0, flops / (time_s * model.peak_flops))
    bu = min(1.0, mem / (time_s * model.peak_bandwidth))
    return StageResult(name=name, time_s=time_s, flops=flops,
                       mem_bytes=mem, comm_s=comm_s,
                       energy_j=model.power_watts(cu, bu) * time_s)


def _hex(result):
    return (result.name, result.time_s.hex(), result.flops.hex(),
            result.mem_bytes.hex(), float(result.comm_s).hex(),
            result.energy_j.hex())


def _comm(tokens):
    return 1e-6 * tokens


GRID = [(model, dtype, ways) for model in MODELS for dtype in DTYPES
        for ways in WAYS]


def _grid_id(case):
    model, dtype, ways = case
    return f"{model.name}-{8 * dtype}bit-tp{ways}"


@pytest.fixture(params=GRID, ids=_grid_id)
def case(request):
    model, dtype, ways = request.param
    return _config(model, dtype), ways


class TestFlatListsUnchanged:
    def test_sum_stage(self, case):
        config, ways = case
        for n in INPUT_LENS:
            assert sum_stage_ops(config, n, ways) \
                == _reference_sum(config, n, ways)

    def test_gen_stage(self, case):
        config, ways = case
        for _, ctx in BATCH_CONTEXTS:
            assert gen_stage_ops(config, ctx, ways) \
                == _reference_gen(config, ctx, ways)

    def test_batched_gen_stage(self, case):
        config, ways = case
        for batch, ctx in BATCH_CONTEXTS:
            assert batched_gen_stage_ops(config, ctx, batch, ways) \
                == _reference_batched(config, ctx, batch, ways)

    def test_compact_form_expands_to_flat(self, case):
        config, ways = case
        stage = compact_gen_stage(config, 100, ways)
        assert len(stage.layer) * stage.num_layers + len(stage.head) \
            + len(stage.tail) == len(stage.ops())
        assert per_op(stage, lambda op: op.name.split(".", 1)[-1]) \
            == [op.name.split(".", 1)[-1] for op in stage.ops()]


@pytest.mark.parametrize("perf", sorted(PERF_MODELS))
class TestPricingBitIdentical:
    def test_batch_step_timer_prefill(self, case, perf):
        config, ways = case
        model = PERF_MODELS[perf]
        timer = BatchStepTimer(config, model, tensor_parallel=ways,
                               comm=_comm)
        for n in INPUT_LENS:
            expected = _flat_time_s(_reference_sum(config, n, ways), model) \
                + _comm(n)
            assert timer.prefill_s(n).hex() == expected.hex()

    def test_batch_step_timer_decode(self, case, perf):
        config, ways = case
        model = PERF_MODELS[perf]
        timer = BatchStepTimer(config, model, tensor_parallel=ways,
                               comm=_comm, context_quantum=1)
        for batch, ctx in BATCH_CONTEXTS:
            ops = _reference_batched(config, ctx, batch, ways)
            expected = _flat_time_s(ops, model) + _comm(batch)
            assert timer.decode_step_s(batch, ctx).hex() == expected.hex()

    def test_inference_timer_sum_stage(self, case, perf):
        config, ways = case
        model = PERF_MODELS[perf]
        timer = InferenceTimer(config, model, tensor_parallel=ways,
                               comm=_comm)
        for n in INPUT_LENS:
            expected = _flat_stage_result(
                "sum", _reference_sum(config, n, ways), model, _comm(n))
            assert _hex(timer.sum_stage(n)) == _hex(expected)

    def test_inference_timer_gen_stage(self, case, perf):
        config, ways = case
        model = PERF_MODELS[perf]
        timer = InferenceTimer(config, model, tensor_parallel=ways,
                               comm=_comm)
        for _, ctx in BATCH_CONTEXTS:
            expected = _flat_stage_result(
                f"gen@{ctx}", _reference_gen(config, ctx, ways), model,
                _comm(1))
            assert _hex(timer.gen_stage(ctx)) == _hex(expected)


def test_compact_batched_stage_prices_like_flat_list():
    model = PERF_MODELS["pnm"]
    stage = compact_batched_gen_stage(OPT_13B, 576, 8)
    flat = stage.ops()
    assert sum(per_op(stage, model.op_time)).hex() \
        == _flat_time_s(flat, model).hex()


def test_compact_sum_stage_prices_each_distinct_op_once():
    calls = []

    class Counting:
        def op_time(self, op):
            calls.append(op.name)
            return 1.0

    stage = compact_sum_stage(OPT_13B, 64)
    assert sum(per_op(stage, Counting().op_time)) == len(stage.ops())
    assert len(calls) == len(stage.head) + len(stage.layer) \
        + len(stage.tail)
