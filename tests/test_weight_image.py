"""One read-only parameter image, mapped by every session.

``random_weights`` draws the parameters straight into one float32 image
in the device's address layout; ``load_model`` maps that image at
address 0 instead of copying it, and the device's own storage (KV
caches, I/O buffers, the fault-injection guard region) lives above it.
"""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from repro.accelerator import DeviceMemory, isa, load_model
from repro.accelerator.engine import Executor
from repro.cxl import Opcode, Transaction
from repro.cxl.memdev import FunctionalCxlDevice
from repro.errors import AddressError, AllocationError
from repro.faults import FaultPlan, chaos
from repro.llm import random_weights, tiny_config
from repro.runtime.session import InferenceSession
from repro.units import MiB

DEEP = tiny_config(name="deep", num_layers=3, d_model=72, num_heads=4,
                   vocab_size=301, max_seq_len=40)

#: First 16 hex digits of each tensor's sha256, in ``named_tensors``
#: order, recorded when every tensor was drawn as its own array:
#: ``random_weights(tiny_config(), seed=7)``.
TINY_SHA = {
    "token_embedding": "95c6c88a65c99a23",
    "position_embedding": "cf9f0e3cecbcb032",
    "ln_f_gamma": "2f20cd03c9cd392a",
    "ln_f_beta": "5341e6b2646979a7",
    "lm_head": "732ade315e8843c5",
    "layer0.ln1_gamma": "2f20cd03c9cd392a",
    "layer0.ln1_beta": "5341e6b2646979a7",
    "layer0.w_qkv": "23e7b31ed6dd6d18",
    "layer0.b_qkv": "ef115a0e0c15cdc4",
    "layer0.w_proj": "2a74d6e98d9b1a0c",
    "layer0.b_proj": "5341e6b2646979a7",
    "layer0.ln2_gamma": "2f20cd03c9cd392a",
    "layer0.ln2_beta": "5341e6b2646979a7",
    "layer0.w_fc1": "e23d187527da415a",
    "layer0.b_fc1": "5f70bf18a0860070",
    "layer0.w_fc2": "36a990bfdf890e3b",
    "layer0.b_fc2": "5341e6b2646979a7",
    "layer1.ln1_gamma": "2f20cd03c9cd392a",
    "layer1.ln1_beta": "5341e6b2646979a7",
    "layer1.w_qkv": "c83db78711172f38",
    "layer1.b_qkv": "ef115a0e0c15cdc4",
    "layer1.w_proj": "2fb278c181755f2f",
    "layer1.b_proj": "5341e6b2646979a7",
    "layer1.ln2_gamma": "2f20cd03c9cd392a",
    "layer1.ln2_beta": "5341e6b2646979a7",
    "layer1.w_fc1": "d1c5016fbab34857",
    "layer1.b_fc1": "5f70bf18a0860070",
    "layer1.w_fc2": "86339199097292ed",
    "layer1.b_fc2": "5341e6b2646979a7",
}

#: ``random_weights(DEEP, seed=11)``: padding after odd-sized tensors.
DEEP_SHA = {
    "token_embedding": "3e13139221916754",
    "position_embedding": "a561592239cff69a",
    "ln_f_gamma": "a5447f937e6ed3c5",
    "ln_f_beta": "2d5565fb483d8ea4",
    "lm_head": "c5af7f6c04a79efc",
    "layer0.ln1_gamma": "a5447f937e6ed3c5",
    "layer0.ln1_beta": "2d5565fb483d8ea4",
    "layer0.w_qkv": "f9f95ffff10a87ca",
    "layer0.b_qkv": "0ed9e26c3f1435e4",
    "layer0.w_proj": "00b9f65d36ee2de3",
    "layer0.b_proj": "2d5565fb483d8ea4",
    "layer0.ln2_gamma": "a5447f937e6ed3c5",
    "layer0.ln2_beta": "2d5565fb483d8ea4",
    "layer0.w_fc1": "03a4067598df36c8",
    "layer0.b_fc1": "4cf9816ed1062189",
    "layer0.w_fc2": "c2dbb832fb544333",
    "layer0.b_fc2": "2d5565fb483d8ea4",
    "layer1.ln1_gamma": "a5447f937e6ed3c5",
    "layer1.ln1_beta": "2d5565fb483d8ea4",
    "layer1.w_qkv": "6370cd07b165f04c",
    "layer1.b_qkv": "0ed9e26c3f1435e4",
    "layer1.w_proj": "a3ee0368ce344c96",
    "layer1.b_proj": "2d5565fb483d8ea4",
    "layer1.ln2_gamma": "a5447f937e6ed3c5",
    "layer1.ln2_beta": "2d5565fb483d8ea4",
    "layer1.w_fc1": "a90aed1be07cdbf2",
    "layer1.b_fc1": "4cf9816ed1062189",
    "layer1.w_fc2": "43be9b6b5f135df4",
    "layer1.b_fc2": "2d5565fb483d8ea4",
    "layer2.ln1_gamma": "a5447f937e6ed3c5",
    "layer2.ln1_beta": "2d5565fb483d8ea4",
    "layer2.w_qkv": "05e0b15fb76fb3e8",
    "layer2.b_qkv": "0ed9e26c3f1435e4",
    "layer2.w_proj": "e8fc52b4a9a706ae",
    "layer2.b_proj": "2d5565fb483d8ea4",
    "layer2.ln2_gamma": "a5447f937e6ed3c5",
    "layer2.ln2_beta": "2d5565fb483d8ea4",
    "layer2.w_fc1": "43f3f96ad9b4c41c",
    "layer2.b_fc1": "4cf9816ed1062189",
    "layer2.w_fc2": "6f8490d0a7302795",
    "layer2.b_fc2": "2d5565fb483d8ea4",
}


def _sha(tensors):
    return {name: hashlib.sha256(np.ascontiguousarray(t).tobytes())
            .hexdigest()[:16] for name, t in tensors.items()}


@pytest.fixture(scope="module")
def weights():
    return random_weights(tiny_config(), seed=7)


class TestImage:
    @pytest.mark.parametrize("config,seed,expected",
                             [(tiny_config(), 7, TINY_SHA),
                              (DEEP, 11, DEEP_SHA)])
    def test_draws_are_bit_identical_to_separate_arrays(self, config, seed,
                                                        expected):
        tensors = random_weights(config, seed=seed).named_tensors()
        assert list(tensors) == list(expected)
        assert _sha(tensors) == expected

    @pytest.mark.parametrize("config", [tiny_config(), DEEP])
    def test_every_tensor_is_a_read_only_view_at_its_layout_address(
            self, config):
        w = random_weights(config, seed=1)
        assert w.image.dtype == np.float32 and w.image.ndim == 1
        assert not w.image.flags.writeable
        memory = DeviceMemory(64 * MiB)
        layout = load_model(memory, w)
        for name, tensor in w.named_tensors().items():
            assert not tensor.flags.writeable
            assert np.shares_memory(tensor, w.image)
            loaded = memory.view_tensor(layout.addr(name), tensor.shape)
            assert np.shares_memory(loaded, tensor)
            np.testing.assert_array_equal(loaded, tensor)
        with pytest.raises(ValueError):
            w.layers[0].w_qkv[0, 0] = 1.0

    @pytest.mark.parametrize("quantize,allocated,regions_sha", [
        (None, 630016, "86a61ac3e0b57ec2"),
        ("int8", 635648, "61f3a978f8fc9331")])
    def test_region_map_is_unchanged(self, weights, quantize, allocated,
                                     regions_sha):
        # Recorded when load_model copied the tensors one by one.
        memory = DeviceMemory(64 * MiB)
        layout = load_model(memory, weights, quantize=quantize)
        text = ";".join(f"{name}:{r.addr}:{r.nbytes}"
                        for name, r in layout.regions.items())
        assert memory.allocated_bytes == allocated
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == regions_sha

    def test_image_must_match_its_regions(self, weights):
        spans = [(name, t.nbytes)
                 for name, t in weights.named_tensors().items()]
        with pytest.raises(AllocationError):
            DeviceMemory(64 * MiB).map_image(weights.image, spans[:-1])
        memory = DeviceMemory(64 * MiB)
        memory.alloc("early", 64)
        with pytest.raises(AllocationError):
            memory.map_image(weights.image, spans)

    def test_image_bigger_than_memory_is_a_capacity_error(self, weights):
        with pytest.raises(AllocationError):
            load_model(DeviceMemory(weights.image.nbytes // 2), weights)


class TestStoresIntoTheImage:
    @pytest.fixture()
    def loaded(self, weights):
        memory = DeviceMemory(64 * MiB)
        return memory, load_model(memory, weights)

    def test_write_tensor_raises(self, loaded, weights):
        memory, layout = loaded
        before = weights.image.tobytes()
        with pytest.raises(AddressError, match="read-only image"):
            memory.write_tensor(layout.addr("layer0.w_qkv"),
                                np.zeros(4, dtype=np.float32))
        # A store that starts below the image's end and runs past it.
        with pytest.raises(AddressError, match="read-only image"):
            memory.write_tensor(weights.image.nbytes - 4,
                                np.zeros(4, dtype=np.float32))
        assert weights.image.tobytes() == before

    def test_executor_dma_store_raises(self, loaded):
        memory, layout = loaded
        d = layout.config.d_model
        program = [isa.DmaLoad(dst="m0", addr=layout.addr("input_buffer"),
                               shape=(1, d)),
                   isa.DmaStore(src="m0", addr=layout.addr("lm_head"),
                                shape=(1, d))]
        with pytest.raises(AddressError):
            Executor(memory).execute(program)

    def test_cxl_line_write_raises_and_line_read_sees_the_image(
            self, loaded, weights):
        memory, layout = loaded
        device = FunctionalCxlDevice(memory)
        addr = layout.addr("token_embedding")
        with pytest.raises(AddressError):
            device.write_line(Transaction(opcode=Opcode.MEM_WR, addr=addr),
                              np.zeros(64, dtype=np.uint8))
        read = device.submit(Transaction(opcode=Opcode.MEM_RD, addr=addr))
        assert read.payload.tobytes() \
            == weights.token_embedding.tobytes()[:64]

    def test_straddling_read_raises(self, loaded, weights):
        memory, _ = loaded
        with pytest.raises(AddressError, match="straddles"):
            memory.read_tensor(weights.image.nbytes - 4, (2,))
        with pytest.raises(AddressError, match="straddles"):
            memory.read_bytes(weights.image.nbytes - 1, 2)


class TestSessionsShareTheImage:
    def test_two_sessions_map_one_image(self, weights):
        a, b = InferenceSession(weights), InferenceSession(weights)
        view_a = a.memory.view_tensor(a.layout.addr("lm_head"),
                                      weights.lm_head.shape)
        view_b = b.memory.view_tensor(b.layout.addr("lm_head"),
                                      weights.lm_head.shape)
        assert np.shares_memory(view_a, weights.image)
        assert np.shares_memory(view_a, view_b)

    def test_interleaved_turns_equal_independent_runs(self, weights):
        turns = {"a": ([1, 2, 3], [9, 8]), "b": ([40, 41], [7, 6, 5])}

        def alone(name):
            first, second = turns[name]
            session = InferenceSession(weights)
            return (session.generate(first, 4).tokens,
                    session.extend(second, 3).tokens)

        expected = {name: alone(name) for name in turns}
        sessions = {name: InferenceSession(weights) for name in turns}
        got = {name: [sessions[name].generate(turns[name][0], 4).tokens]
               for name in turns}
        for name in turns:
            got[name].append(sessions[name].extend(turns[name][1], 3).tokens)
        assert {name: tuple(v) for name, v in got.items()} == expected

    def test_int8_tokens_unchanged(self):
        # Recorded when the int8 loader copied codes tensor by tensor.
        session = InferenceSession(random_weights(tiny_config(), seed=0),
                                   quantize="int8")
        assert session.generate([1, 2, 3, 4, 5], 8).tokens \
            == [67, 139, 191, 150, 130, 217, 155, 62]

    def test_int8_session_maps_its_own_image(self, weights):
        session = InferenceSession(weights, quantize="int8")
        codes = session.memory.view_tensor(session.layout.addr("lm_head"),
                                           weights.lm_head.shape)
        assert not np.shares_memory(codes, weights.image)
        assert np.all(codes == np.rint(codes))

    def test_int8_sessions_share_one_quantized_image(self):
        weights = random_weights(tiny_config(), seed=0)
        a, b = (InferenceSession(weights, quantize="int8")
                for _ in range(2))
        codes_a, codes_b = (
            s.memory.view_tensor(s.layout.addr("lm_head"),
                                 weights.lm_head.shape) for s in (a, b))
        assert np.shares_memory(codes_a, codes_b)
        assert not codes_a.flags.writeable
        prompt = [1, 2, 3, 4, 5]
        expected = [67, 139, 191, 150, 130, 217, 155, 62]
        assert a.generate(prompt, 8).tokens == expected
        assert b.generate(prompt, 8).tokens == expected


class TestGuardRegion:
    def test_single_bit_upset_above_the_image_is_corrected(self, weights):
        prompt = [1, 2, 3]
        baseline = InferenceSession(weights).generate(prompt, 4).tokens
        # A double-bit tick that never comes enables the guard region
        # without random upsets, so the one upset is the flip below.
        plan = FaultPlan(seed=5).with_memory_upsets(0.0,
                                                    double_bit_at_tick=99)
        with chaos(plan) as state:
            session = InferenceSession(weights)
            guard = session.memory.region("ras.guard")
            assert guard.addr >= weights.image.nbytes
            # Flip one stored bit of protected word 3 at its address.
            word = session.memory.read_bytes(guard.addr + 3 * 9, 9)
            word[0] ^= 0x10
            session.memory.write_bytes(guard.addr + 3 * 9, word)
            tokens = session.generate(prompt, 4).tokens
        assert tokens == baseline
        assert state.counters.mem_corrected >= 1
        assert state.counters.mem_uncorrectable == 0


def test_no_module_reaches_into_device_memory_storage():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    owner = src / "accelerator" / "memory.py"
    pattern = re.compile(r"\._(buffer|image)\b")
    offenders = [str(path.relative_to(src)) for path in src.rglob("*.py")
                 if path != owner and pattern.search(path.read_text())]
    assert offenders == []
