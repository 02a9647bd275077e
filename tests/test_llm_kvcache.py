"""KV-cache sizing and capacity checks."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CapacityError, ConfigurationError
from repro.llm import OPT_13B, peak_kv_bytes, request_fits, tiny_config
from repro.llm.kvcache import kv_spare_bytes


class TestPeakAndFit:
    def test_peak_kv_matches_paper_formula(self):
        # 2 x L x d_emb elements per layer (§II-B).
        cfg = OPT_13B
        total = peak_kv_bytes(cfg, 64, 64)
        assert total == 128 * 2 * cfg.num_layers * cfg.d_model * 2

    def test_peak_rejects_overlong_requests(self):
        with pytest.raises(CapacityError):
            peak_kv_bytes(tiny_config(max_seq_len=16), 10, 10)

    def test_opt13b_fits_cxl_but_not_small_memory(self):
        from repro.units import GB, GiB
        assert request_fits(OPT_13B, 512 * GB, 64, 1024)
        assert not request_fits(OPT_13B, 16 * GiB, 64, 1024)

    def test_batch_scales_kv_only(self):
        from repro.units import GB
        # A memory that fits batch=1 may not fit batch=256.
        assert request_fits(OPT_13B, 30 * GB, 64, 1024, batch=1)
        assert not request_fits(OPT_13B, 30 * GB, 64, 1024, batch=256)

    @given(inp=st.integers(1, 16), out=st.integers(1, 16))
    def test_peak_monotone(self, inp, out):
        cfg = tiny_config()
        assert peak_kv_bytes(cfg, inp, out) \
            <= peak_kv_bytes(cfg, inp, out + 1)


class TestSpareBytes:
    def test_spare_is_memory_minus_params(self):
        cfg = tiny_config()
        memory = cfg.param_bytes + 1234
        assert kv_spare_bytes(cfg, memory) == 1234

    def test_spare_clamps_at_zero(self):
        cfg = tiny_config()
        assert kv_spare_bytes(cfg, cfg.param_bytes // 2) == 0

    def test_negative_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            kv_spare_bytes(tiny_config(), -1)
