"""Mixture-of-Experts configs and op graphs (§IX extension)."""

import pytest

from repro.errors import ConfigurationError
from repro.llm import OPT_13B, tiny_config
from repro.llm.moe import MoEConfig, compact_moe_gen_stage
from repro.llm.graph import compact_gen_stage, per_op
from repro.llm.ops import total_flops, total_weight_bytes


def moe_ops(moe, context_len):
    """Every op of the MoE gen stage in flat order."""
    return per_op(compact_moe_gen_stage(moe, context_len), lambda op: op)


class TestMoEConfig:
    def test_stored_params_grow_with_experts(self):
        small = MoEConfig(base=OPT_13B, num_experts=4, top_k=2)
        big = MoEConfig(base=OPT_13B, num_experts=16, top_k=2)
        assert big.num_params > small.num_params > OPT_13B.num_params

    def test_active_params_independent_of_expert_count(self):
        a = MoEConfig(base=OPT_13B, num_experts=4, top_k=2)
        b = MoEConfig(base=OPT_13B, num_experts=32, top_k=2)
        # Routers differ slightly; the expert FFN term must not.
        assert a.active_params_per_token == pytest.approx(
            b.active_params_per_token, rel=0.01)

    def test_top_k_equals_experts_is_dense(self):
        moe = MoEConfig(base=OPT_13B, num_experts=4, top_k=4)
        assert moe.active_params_per_token == moe.num_params

    def test_capacity_amplification(self):
        moe = MoEConfig(base=OPT_13B, num_experts=16, top_k=2)
        assert moe.capacity_amplification > 3.0

    def test_name_encodes_structure(self):
        assert MoEConfig(base=OPT_13B, num_experts=8, top_k=2).name \
            == "OPT-13B-MoE8x2"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MoEConfig(base=OPT_13B, num_experts=1)
        with pytest.raises(ConfigurationError):
            MoEConfig(base=OPT_13B, num_experts=4, top_k=5)


class TestMoEOps:
    def test_gen_streams_only_topk_experts(self):
        cfg = tiny_config()
        moe = MoEConfig(base=cfg, num_experts=8, top_k=2)
        ops = moe_ops(moe, context_len=16)
        streamed = total_weight_bytes(ops)
        assert streamed == pytest.approx(
            moe.active_params_per_token * cfg.dtype_bytes, rel=0.15)

    def test_moe_gen_traffic_below_dense_equivalent_capacity(self):
        """The §IX trade: stored params >> streamed params per token."""
        cfg = tiny_config()
        moe = MoEConfig(base=cfg, num_experts=8, top_k=2)
        streamed = total_weight_bytes(moe_ops(moe, 16))
        assert streamed < moe.param_bytes / 2

    def test_topk_scales_ffn_work(self):
        cfg = tiny_config()
        one = MoEConfig(base=cfg, num_experts=8, top_k=1)
        two = MoEConfig(base=cfg, num_experts=8, top_k=2)
        f1 = total_flops(moe_ops(one, 16))
        f2 = total_flops(moe_ops(two, 16))
        assert f2 > f1

    def test_attention_matches_dense_model(self):
        cfg = tiny_config()
        moe = MoEConfig(base=cfg, num_experts=4, top_k=4)
        sparse = {op.name: op for op in compact_moe_gen_stage(moe, 16).layer}
        dense = {op.name: op for op in compact_gen_stage(cfg, 16).layer}
        for name in ("layer.qkv", "layer.attn_score", "layer.proj"):
            assert sparse[name].flops == dense[name].flops

    def test_router_op_present(self):
        cfg = tiny_config()
        moe = MoEConfig(base=cfg, num_experts=4, top_k=2)
        names = [op.name for op in compact_moe_gen_stage(moe, 16).layer]
        assert "layer.router" in names
        assert names[names.index("layer.ln2") + 1:names.index(
            "layer.residual2")] == ["layer.router"] + [
                f"layer.expert{e}.{op}" for e in range(2)
                for op in ("fc1", "gelu", "fc2")]
