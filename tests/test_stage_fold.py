"""The compact-stage fold: ``perf.metrics.fold_stages``.

* ``fold_stages`` equals, for every context and quantity,
  ``left_sum`` of the flat list ``head + layer * num_layers + tail``
  (compared as ``float.hex``), over hypothesis-drawn stages: empty
  head or tail, 1-96 layers, layer rows that vary by context (the
  attention ops of a sweep), one to three quantities, and context
  counts that are not a multiple of the block size.
* ``left_fold`` adds sequentially, not pairwise as ``np.sum`` does.
* ``InferenceTimer.gen_stages(contexts)`` equals ``gen_stage`` of each
  context, field by field: OPT-1.3B and OPT-13B, the PNM and A100
  models, tensor-parallel degrees 1, 2 and 8.
"""

from itertools import chain, repeat

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.device import CXLPNMDevice
from repro.gpu.device import A100_40G
from repro.llm.config import OPT_13B, OPT_1_3B
from repro.perf import metrics
from repro.perf.analytical import GpuPerfModel, InferenceTimer, PnmPerfModel
from repro.perf.metrics import fold_stages, left_fold, left_sum

#: Non-negative values spread over many binades, so the order of the
#: additions shows in the last bits.
VALUES = st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 1.0),
                   st.floats(0.0, 1e12))


@st.composite
def stages(draw):
    q = draw(st.integers(1, 3))
    contexts = draw(st.integers(1, 40))
    num_layers = draw(st.integers(1, 96))
    heads = draw(st.integers(0, 3))
    rows = draw(st.integers(1, 6))
    tails = draw(st.integers(0, 3))
    head = draw(hnp.arrays(float, (heads, 1, q), elements=VALUES))
    tail = draw(hnp.arrays(float, (tails, 1, q), elements=VALUES))
    layer = np.repeat(draw(hnp.arrays(float, (rows, 1, q),
                                      elements=VALUES)), contexts, axis=1)
    for row in draw(st.sets(st.integers(0, rows - 1))):
        layer[row] = draw(hnp.arrays(float, (contexts, q), elements=VALUES))
    return head, layer, num_layers, tail


@settings(max_examples=150, deadline=None)
@given(stage=stages(),
       block=st.sampled_from([1, 7, 64, 1000, metrics.FOLD_BLOCK_VALUES]))
def test_fold_equals_left_sum_of_the_flat_list(stage, block):
    head, layer, num_layers, tail = stage
    saved, metrics.FOLD_BLOCK_VALUES = metrics.FOLD_BLOCK_VALUES, block
    try:
        got = fold_stages(head, layer, num_layers, tail)
    finally:
        metrics.FOLD_BLOCK_VALUES = saved
    contexts, q = layer.shape[1:]
    assert got.shape == (contexts, q)
    expected = [[float(left_sum(chain(head[:, 0, j].tolist(),
                                      *repeat(layer[:, c, j].tolist(),
                                              num_layers),
                                      tail[:, 0, j].tolist()))).hex()
                 for j in range(q)] for c in range(contexts)]
    assert [[v.hex() for v in row] for row in got.tolist()] == expected


def test_left_fold_is_sequential_not_pairwise():
    values = np.array([2.0 ** 53] + [1.0] * 16)
    assert left_fold(values) == 2.0 ** 53 == left_sum(values.tolist())
    assert np.sum(values) != 2.0 ** 53
    assert left_fold(np.zeros((0, 2))).tolist() == [0.0, 0.0]


def _fields(result):
    return (result.name, result.time_s.hex(), result.flops.hex(),
            result.mem_bytes.hex(), result.comm_s.hex(),
            result.energy_j.hex())


@pytest.mark.parametrize("tensor_parallel", [1, 2, 8])
@pytest.mark.parametrize("perf", ["pnm", "gpu"])
@pytest.mark.parametrize("config", [OPT_1_3B, OPT_13B],
                         ids=lambda c: c.name)
def test_gen_stages_equal_gen_stage_of_each_context(config, perf,
                                                    tensor_parallel):
    model = PnmPerfModel(CXLPNMDevice()) if perf == "pnm" \
        else GpuPerfModel(A100_40G)
    contexts = [577, 1, 64, 2047, 33, 577, 1024]

    def timer():
        return InferenceTimer(config, model,
                              tensor_parallel=tensor_parallel,
                              comm=lambda tokens: 1e-6 * tokens)

    one_by_one = timer()
    expected = [_fields(one_by_one.gen_stage(c)) for c in contexts]
    assert [_fields(r) for r in timer().gen_stages(contexts)] == expected
    many = timer()
    many.gen_stage(5)  # the sweep's first context differs
    assert [_fields(r) for r in many.gen_stages(contexts)] == expected
