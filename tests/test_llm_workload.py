"""Workload generators and request records."""

import pytest

from repro.errors import ConfigurationError
from repro.llm import (
    InferenceRequest,
    sampled_workload,
)


class TestInferenceRequest:
    def test_total_tokens(self):
        req = InferenceRequest(input_len=64, output_len=1024)
        assert req.total_tokens == 1088

    @pytest.mark.parametrize("inp,out", [(0, 1), (1, 0), (-1, 5)])
    def test_rejects_nonpositive(self, inp, out):
        with pytest.raises(ConfigurationError):
            InferenceRequest(input_len=inp, output_len=out)


class TestGenerators:
    def test_sampled_workload_deterministic(self):
        a = sampled_workload(20, seed=3)
        b = sampled_workload(20, seed=3)
        assert a == b

    def test_sampled_workload_respects_max_total(self):
        for req in sampled_workload(200, max_total=512):
            assert req.total_tokens <= 512

    def test_sampled_workload_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            sampled_workload(0)

