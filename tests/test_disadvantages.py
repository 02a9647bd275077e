"""§V-A disadvantage quantification."""

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def rows():
    return {r["disadvantage"]: r
            for r in run_experiment("disadvantages").rows}


class TestDisadvantages:
    def test_d1_commodity_packaging_cheaper(self, rows):
        row = rows["D1 packaging-cost factor"]
        assert row["cxl_pnm"] < row["dimm_or_pim"]

    def test_d2_bandwidth_order_of_magnitude(self, rows):
        """Paper: CXL-PNM exposes 10x the DDR5 DIMM-PNM bandwidth."""
        row = rows["D2 PNM bandwidth (GB/s)"]
        assert row["advantage"] >= 10.0

    def test_d2_capacity_advantage(self, rows):
        row = rows["D2 PNM capacity (GB)"]
        assert row["advantage"] > 5.0

    def test_d3_host_starvation_under_blocking(self, rows):
        bw = rows["D3 host bandwidth under PNM load (GB/s)"]
        assert bw["cxl_pnm"] > 100 * bw["dimm_or_pim"]
        wait = rows["D3 mean host wait (us)"]
        assert wait["dimm_or_pim"] > 100.0   # polling-bound, ~ms
        assert wait["cxl_pnm"] < 1.0          # hardware arbiter, ~ns

    def test_d3_host_wait_includes_a_dram_access(self, rows):
        # 90 ns of DRAM access: the ratio is over a real access time,
        # not a sub-nanosecond queueing term.
        wait = rows["D3 mean host wait (us)"]
        assert wait["cxl_pnm"] >= 0.09
        assert wait["advantage"] < 1e5

    def test_d4_full_region_visibility(self, rows):
        row = rows["D4 accessible fraction of a 1 GiB region"]
        assert row["cxl_pnm"] > 0.99
        assert row["dimm_or_pim"] == pytest.approx(0.125, abs=0.01)
