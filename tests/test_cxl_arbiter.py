"""Host/PNM arbitration: the (D3) comparison."""

import pytest

from repro.cxl import (
    Arbiter,
    ArbitrationPolicy,
    RequestStream,
    Source,
    compare_policies,
)
from repro.cxl.link import DRAM_ACCESS_NS
from repro.errors import ConfigurationError

BW = 100e9  # 100 GB/s memory for round numbers


def _streams(host_gb: float, pnm_gb: float):
    return (RequestStream(Source.HOST, host_gb * 1e9 / 64),
            RequestStream(Source.PNM, pnm_gb * 1e9 / 64))


class TestHardwareWrr:
    def test_undersubscribed_everyone_served(self):
        arbiter = Arbiter(memory_bandwidth=BW)
        host, pnm = _streams(20, 30)
        stats = arbiter.simulate(ArbitrationPolicy.HARDWARE_WRR, host, pnm,
                                 pnm_task_s=1e-3, interval_s=1.0)
        assert stats.bandwidth(Source.HOST, 1.0) == pytest.approx(20e9)
        assert stats.bandwidth(Source.PNM, 1.0) == pytest.approx(30e9)
        assert stats.host_blocked_s == 0.0

    def test_oversubscribed_splits_by_weight(self):
        arbiter = Arbiter(memory_bandwidth=BW, pnm_weight=0.5)
        host, pnm = _streams(80, 80)
        stats = arbiter.simulate(ArbitrationPolicy.HARDWARE_WRR, host, pnm,
                                 1e-3, 1.0)
        assert stats.bandwidth(Source.HOST, 1.0) == pytest.approx(50e9)
        assert stats.bandwidth(Source.PNM, 1.0) == pytest.approx(50e9)

    def test_slack_redistributed(self):
        arbiter = Arbiter(memory_bandwidth=BW, pnm_weight=0.5)
        host, pnm = _streams(10, 200)
        stats = arbiter.simulate(ArbitrationPolicy.HARDWARE_WRR, host, pnm,
                                 1e-3, 1.0)
        assert stats.bandwidth(Source.HOST, 1.0) == pytest.approx(10e9)
        assert stats.bandwidth(Source.PNM, 1.0) == pytest.approx(90e9)


class TestBlockingPoll:
    def test_host_blocked_while_tasks_run(self):
        arbiter = Arbiter(memory_bandwidth=BW)
        host, pnm = _streams(40, 40)
        stats = arbiter.simulate(ArbitrationPolicy.BLOCKING_POLL, host, pnm,
                                 pnm_task_s=1e-3, interval_s=1.0)
        assert stats.host_blocked_s > 0.9

    def test_host_wait_scales_with_task_length(self):
        arbiter = Arbiter(memory_bandwidth=BW)
        host, pnm = _streams(40, 40)
        short = arbiter.simulate(ArbitrationPolicy.BLOCKING_POLL, host, pnm,
                                 pnm_task_s=1e-4, interval_s=1.0)
        long = arbiter.simulate(ArbitrationPolicy.BLOCKING_POLL, host, pnm,
                                pnm_task_s=1e-2, interval_s=1.0)
        assert long.mean_wait_s[Source.HOST] \
            > short.mean_wait_s[Source.HOST]

    def test_trailing_partial_task_window_counted(self):
        """Regression: at interval = 1.5 cycles, the second (truncated)
        task used to be dropped by the ``interval // cycle`` floor,
        under-counting both PNM bytes and host blocked time."""
        arbiter = Arbiter(memory_bandwidth=BW)
        host, pnm = _streams(200, 200)  # both saturate the memory
        task = 1e-3
        cycle = task + arbiter.poll_interval_s / 2.0
        interval = 1.5 * cycle
        stats = arbiter.simulate(ArbitrationPolicy.BLOCKING_POLL, host, pnm,
                                 pnm_task_s=task, interval_s=interval)
        # Tasks run back-to-back, so the host is starved for the whole
        # interval: one full task plus a truncated second one.
        assert stats.host_blocked_s == pytest.approx(interval)
        assert stats.served_bytes[Source.HOST] == 0.0
        tail_task = min(0.5 * cycle, task)
        assert stats.served_bytes[Source.PNM] \
            == pytest.approx(BW * (task + tail_task))

    def test_interval_shorter_than_one_task(self):
        """Even a sub-task interval serves (and blocks) proportionally."""
        arbiter = Arbiter(memory_bandwidth=BW)
        host, pnm = _streams(200, 200)
        task = 1e-3
        interval = 0.25 * task
        stats = arbiter.simulate(ArbitrationPolicy.BLOCKING_POLL, host, pnm,
                                 pnm_task_s=task, interval_s=interval)
        assert stats.host_blocked_s == pytest.approx(interval)
        assert stats.served_bytes[Source.PNM] \
            == pytest.approx(BW * interval)


class TestD3Comparison:
    def test_hardware_arbitration_beats_blocking_for_host(self):
        """The paper's D3: CXL-PNM's hardware arbiter vs DIMM-PNM's
        blocking+polling. The host must see both more bandwidth and lower
        wait under the hardware arbiter."""
        results = compare_policies(memory_bandwidth=BW, host_rate=40e9 / 64,
                                   pnm_rate=40e9 / 64, pnm_task_s=1e-3)
        wrr = results[ArbitrationPolicy.HARDWARE_WRR.value]
        blocking = results[ArbitrationPolicy.BLOCKING_POLL.value]
        assert wrr.served_bytes[Source.HOST] \
            > 2 * blocking.served_bytes[Source.HOST]
        assert wrr.mean_wait_s[Source.HOST] \
            < blocking.mean_wait_s[Source.HOST] / 10

    @pytest.mark.parametrize("host_gb, pnm_gb", [(1, 1), (40, 40),
                                                 (200, 200)])
    def test_host_wait_is_at_least_one_dram_access(self, host_gb, pnm_gb):
        """Every served host request pays its DRAM access, so the
        hardware arbiter's host wait never falls below it (a queueing
        term alone is sub-nanosecond) under either policy."""
        results = compare_policies(memory_bandwidth=BW,
                                   host_rate=host_gb * 1e9 / 64,
                                   pnm_rate=pnm_gb * 1e9 / 64,
                                   pnm_task_s=1e-3)
        for stats in results.values():
            assert stats.mean_wait_s[Source.HOST] \
                >= DRAM_ACCESS_NS * 1e-9


class TestValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(ConfigurationError):
            Arbiter(memory_bandwidth=0)

    def test_bad_weight(self):
        with pytest.raises(ConfigurationError):
            Arbiter(memory_bandwidth=BW, pnm_weight=1.0)

    def test_bad_interval(self):
        arbiter = Arbiter(memory_bandwidth=BW)
        host, pnm = _streams(1, 1)
        with pytest.raises(ConfigurationError):
            arbiter.simulate(ArbitrationPolicy.HARDWARE_WRR, host, pnm,
                             1e-3, 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestStream(Source.HOST, -1.0)
