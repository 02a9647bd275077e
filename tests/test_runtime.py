"""Software stack: driver semantics, library layer APIs, sessions."""

import gc
import weakref

import numpy as np
import pytest

from repro.accelerator import ControlRegister, DeviceMemory, Status, isa
from repro.errors import CapacityError, ConfigurationError, DriverError
from repro.llm import random_weights, tiny_config
from repro.llm.reference import gelu, layernorm, softmax
from repro.runtime import (
    CompletionMode,
    CxlPnmDriver,
    CxlPnmLibrary,
    InferenceSession,
)
from repro.units import MiB


@pytest.fixture()
def driver():
    return CxlPnmDriver(DeviceMemory(32 * MiB))


@pytest.fixture()
def library(driver):
    return CxlPnmLibrary(driver)


def _simple_program(mem):
    region = mem.store_named("x", np.ones((2, 2), dtype=np.float32))
    return (
        isa.DmaLoad(dst="m0", addr=region.addr, shape=(2, 2)),
        isa.VpuGelu(dst="m1", src="m0"),
        isa.Free(regs=("m0", "m1")),
    )


class TestDriver:
    def test_launch_runs_and_interrupts(self, driver):
        seen = []
        driver.interrupts.register_isr(lambda: seen.append(1))
        driver.program(_simple_program(driver.memory))
        stats = driver.launch()
        assert stats.instructions == 3
        assert seen == [1]
        assert driver.control.status is Status.DONE

    def test_acknowledge_resets_to_idle(self, driver):
        driver.program(_simple_program(driver.memory))
        driver.launch()
        driver.acknowledge()
        assert driver.control.status is Status.IDLE

    def test_acknowledge_without_done_raises(self, driver):
        with pytest.raises(DriverError):
            driver.acknowledge()

    def test_polling_mode(self):
        driver = CxlPnmDriver(DeviceMemory(32 * MiB),
                              completion_mode=CompletionMode.POLLING)
        driver.program(_simple_program(driver.memory))
        driver.launch()
        assert driver.poll() is True
        assert driver.interrupts.delivered == 0

    def test_poll_in_interrupt_mode_raises(self, driver):
        with pytest.raises(DriverError):
            driver.poll()

    def test_launch_without_program_raises(self, driver):
        with pytest.raises(DriverError):
            driver.launch()

    def test_error_status_on_bad_program(self, driver):
        # Address out of range triggers ExecutionError -> ERROR status.
        bad = (isa.DmaLoad(dst="m0", addr=driver.memory.capacity,
                           shape=(2, 2)),)
        driver.program(bad)
        with pytest.raises(Exception):
            driver.launch()
        assert driver.control.status is Status.ERROR

    def test_configure_registers(self, driver):
        driver.configure(ControlRegister.NUM_LAYERS, 12)
        assert driver.read_register(ControlRegister.NUM_LAYERS) == 12


class TestLibrary:
    def test_from_to_numpy_roundtrip(self, library):
        data = np.random.default_rng(0).standard_normal((3, 5)).astype(
            np.float32)
        tensor = library.from_numpy(data)
        np.testing.assert_array_equal(library.to_numpy(tensor), data)

    def test_layernorm_api(self, library):
        x = np.random.default_rng(1).standard_normal((4, 8)).astype(
            np.float32)
        g = np.full(8, 2.0, np.float32)
        b = np.full(8, 0.1, np.float32)
        out = library.layernorm(library.from_numpy(x),
                                library.from_numpy(g),
                                library.from_numpy(b))
        np.testing.assert_array_equal(library.to_numpy(out),
                                      layernorm(x, g, b))

    def test_gelu_and_softmax_apis(self, library):
        x = np.random.default_rng(2).standard_normal((2, 6)).astype(
            np.float32)
        t = library.from_numpy(x)
        np.testing.assert_array_equal(library.to_numpy(library.gelu(t)),
                                      gelu(x))
        np.testing.assert_array_equal(library.to_numpy(library.softmax(t)),
                                      softmax(x))

    def test_conv1d_api_is_matmul_plus_bias(self, library):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((4, 5)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        out = library.conv1d(library.from_numpy(x), library.from_numpy(w),
                             library.from_numpy(b))
        np.testing.assert_array_equal(library.to_numpy(out), x @ w + b)

    def test_conv1d_single_row_uses_adder_tree(self, library):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 4)).astype(np.float32)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        out = library.matmul(library.from_numpy(x), library.from_numpy(w))
        np.testing.assert_array_equal(library.to_numpy(out), x @ w)

    def test_masked_mm_api(self, library):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((3, 4)).astype(np.float32)
        k = rng.standard_normal((5, 4)).astype(np.float32)
        out = library.masked_mm(library.from_numpy(q),
                                library.from_numpy(k), scale=0.5,
                                mask_offset=2)
        from repro.llm.reference import causal_mask
        expect = np.where(causal_mask(3, 5, 2),
                          (q @ k.T) * np.float32(0.5), np.float32(-1e9))
        np.testing.assert_array_equal(library.to_numpy(out), expect)

    def test_conv2d_api(self, library):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 1, 2, 2)).astype(np.float32)
        out = library.conv2d(library.from_numpy(x), library.from_numpy(w))
        assert out.shape == (2, 3, 3)

    def test_add_api(self, library):
        a = np.ones((2, 2), dtype=np.float32)
        b = np.full((2, 2), 3.0, dtype=np.float32)
        out = library.add(library.from_numpy(a), library.from_numpy(b))
        np.testing.assert_array_equal(library.to_numpy(out), a + b)

    def test_shape_mismatches_rejected(self, library):
        a = library.from_numpy(np.ones((2, 2), dtype=np.float32))
        b = library.from_numpy(np.ones((3, 2), dtype=np.float32))
        with pytest.raises(ConfigurationError):
            library.add(a, b)
        with pytest.raises(ConfigurationError):
            library.conv1d(a, b)


class TestSession:
    def test_session_counts_context(self):
        # KV rows: 3 prompt + 3 fed-back tokens (the 4th is emitted only).
        session = InferenceSession(random_weights(tiny_config(), seed=1),
                                   simulate_timing=False)
        session.generate([1, 2, 3], 4)
        assert session.context_len == 6

    def test_session_reset(self):
        session = InferenceSession(random_weights(tiny_config(), seed=1),
                                   simulate_timing=False)
        session.generate([1], 2)
        session.reset()
        assert session.context_len == 0

    def test_session_trace_timing(self):
        session = InferenceSession(random_weights(tiny_config(), seed=2))
        trace = session.generate([1, 2], 3)
        assert len(trace.stage_times_s) == 3
        assert trace.total_time_s > 0
        assert trace.sum_time_s > 0

    def test_session_rejects_overlong(self):
        cfg = tiny_config(max_seq_len=8)
        session = InferenceSession(random_weights(cfg, seed=3),
                                   simulate_timing=False)
        with pytest.raises(CapacityError):
            session.generate([1, 2, 3, 4], 8)

    def test_session_rejects_empty_prompt(self):
        session = InferenceSession(random_weights(tiny_config(), seed=4),
                                   simulate_timing=False)
        with pytest.raises(ConfigurationError):
            session.generate([], 4)

    def test_dropped_session_freed_without_cyclic_gc(self):
        # A session's device buffer is the largest object it owns; no
        # reference cycle may keep it alive past the last reference.
        session = InferenceSession(random_weights(tiny_config(), seed=5),
                                   simulate_timing=False)
        session.generate([1, 2], 2)
        ref = weakref.ref(session)
        gc.disable()
        try:
            del session
            assert ref() is None
        finally:
            gc.enable()
