"""ISA definitions: opcodes, dependencies, validation, the six PEA ops."""

import pytest

from repro.accelerator import isa
from repro.errors import IsaError


class TestOpcodeNaming:
    def test_six_new_pea_instructions_exist(self):
        """The paper adds exactly these six PE-array instructions (§V-C)."""
        mm = isa.MpuMmPea(dst="m1", act="m0", weight_addr=0, m=2, k=4, n=4)
        mm_max = isa.MpuMmRedumaxPea(dst="m1", act="m0", weight_addr=0,
                                     m=2, k=4, n=4, rowmax_dst="v0")
        masked = isa.MpuMaskedMm(dst="m1", q="m0", k_addr=0, heads=2,
                                 head_dim=4, ctx=4, m=2, scale=1.0,
                                 mask_offset=0)
        masked_max = isa.MpuMaskedMm(dst="m1", q="m0", k_addr=0, heads=2,
                                     head_dim=4, ctx=4, m=2, scale=1.0,
                                     mask_offset=0, rowmax_dst="v0")
        conv = isa.MpuConv2d(dst="m1", act="m0", weight_addr=0, in_ch=1,
                             out_ch=1, kh=2, kw=2, h=4, w=4)
        conv_gelu = isa.MpuConv2d(dst="m1", act="m0", weight_addr=0,
                                  in_ch=1, out_ch=1, kh=2, kw=2, h=4, w=4,
                                  gelu=True)
        assert mm.opcode == "MPU_MM_PEA"
        assert mm_max.opcode == "MPU_MM_REDUMAX_PEA"
        assert masked.opcode == "MPU_MASKEDMM_PEA"
        assert masked_max.opcode == "MPU_MASKEDMM_REDUMAX_PEA"
        assert conv.opcode == "MPU_CONV2D_PEA"
        assert conv_gelu.opcode == "MPU_CONV2D_GELU_PEA"

    def test_gen_stage_attention_uses_adder_tree(self):
        masked = isa.MpuMaskedMm(dst="m1", q="m0", k_addr=0, heads=2,
                                 head_dim=4, ctx=4, m=1, scale=1.0,
                                 mask_offset=3)
        assert masked.unit is isa.Unit.ADDER_TREE
        assert masked.opcode == "MPU_MASKEDMV"

    def test_sum_stage_attention_uses_pe_array(self):
        masked = isa.MpuMaskedMm(dst="m1", q="m0", k_addr=0, heads=2,
                                 head_dim=4, ctx=4, m=4, scale=1.0,
                                 mask_offset=0)
        assert masked.unit is isa.Unit.PE_ARRAY


class TestQuantities:
    def test_mm_flops(self):
        mm = isa.MpuMmPea(dst="m1", act="m0", weight_addr=0, m=3, k=5, n=7)
        assert mm.flops() == 2 * 3 * 5 * 7
        assert mm.mem_elems() == 5 * 7

    def test_masked_mm_folds_heads(self):
        masked = isa.MpuMaskedMm(dst="m1", q="m0", k_addr=0, heads=4,
                                 head_dim=8, ctx=16, m=2, scale=1.0,
                                 mask_offset=0)
        assert masked.flops() == 2 * 4 * 2 * 16 * 8
        assert masked.mem_elems() == 16 * 4 * 8

    def test_dma_load_elems(self):
        load = isa.DmaLoad(dst="m0", addr=0, shape=(4, 8))
        assert load.mem_elems() == 32

    def test_dma_store_uses_advisory_shape(self):
        store = isa.DmaStore(src="m0", addr=0, shape=(2, 3))
        assert store.mem_elems() == 6
        assert isa.DmaStore(src="m0", addr=0).mem_elems() == 0

    def test_conv_output_geometry(self):
        conv = isa.MpuConv2d(dst="m1", act="m0", weight_addr=0, in_ch=3,
                             out_ch=8, kh=3, kw=3, h=10, w=10, stride=2)
        assert conv.out_hw == (4, 4)


class TestWeightMatmul:
    @pytest.mark.parametrize("dtype,scale,bias", [("fp16", -1, -1),
                                                  ("int8", 64, 128)])
    def test_rows_pick_the_datapath(self, dtype, scale, bias):
        fields = dict(dst="m1", act="m0", weight_addr=0, k=16, n=8,
                      dtype=dtype, scale_addr=scale, bias_addr=bias)
        assert isa.weight_matmul(m=1, **fields) == isa.MpuMv(**fields)
        assert isa.weight_matmul(m=3, **fields) \
            == isa.MpuMmPea(m=3, **fields)

    def test_gemv_is_the_one_row_gemm(self):
        for dtype, scale, bias in (("fp16", -1, -1), ("fp16", -1, 96),
                                   ("int8", 64, -1), ("int8", 64, 96)):
            fields = dict(dst="m1", act="m0", weight_addr=0, k=16, n=8,
                          dtype=dtype, scale_addr=scale, bias_addr=bias)
            mv, mm = isa.MpuMv(**fields), isa.MpuMmPea(m=1, **fields)
            assert mv.flops() == mm.flops() == 2 * 16 * 8
            assert mv.mem_bytes(2) == mm.mem_bytes(2)
            assert mv.out_shapes({}) == mm.out_shapes({}) == ((1, 8),)

    @pytest.mark.parametrize("m", [1, 2, 64])
    def test_attention_follows_the_weight_matmul_datapath(self, m):
        weight = isa.weight_matmul(dst="m1", act="m0", weight_addr=0, m=m,
                                   k=16, n=8)
        scores = isa.MpuMaskedMm(dst="m2", q="m1", k_addr=0, heads=2,
                                 head_dim=4, ctx=64, m=m, scale=0.5,
                                 mask_offset=63)
        context = isa.MpuAttnContext(dst="m3", probs="m2", v_addr=0,
                                     heads=2, head_dim=4, ctx=64, m=m)
        unit = isa.matmul_unit(m)
        assert weight.unit is scores.unit is context.unit is unit
        tree = unit is isa.Unit.ADDER_TREE
        for instr in (weight, scores, context):
            # The opcode family names the datapath: DFX's ``*MV`` on
            # the adder trees, ``*_PEA`` on the PE array.
            assert instr.opcode.endswith("MV") is tree
            assert instr.opcode.endswith("_PEA") is not tree
        assert context.opcode == weight.opcode


class TestOutputShapes:
    def test_row_maxima_shapes(self):
        mm = isa.MpuMmRedumaxPea(dst="m1", act="m0", weight_addr=0, m=3,
                                 k=4, n=5, rowmax_dst="v0")
        masked = isa.MpuMaskedMm(dst="m1", q="m0", k_addr=0, heads=2,
                                 head_dim=4, ctx=8, m=3, scale=1.0,
                                 mask_offset=5, rowmax_dst="v0")
        assert mm.out_shapes({}) == ((3, 5), (3, 1))
        assert masked.out_shapes({}) == ((2, 3, 8), (2, 3, 1))

    def test_propagation_follows_sources_and_frees(self):
        shapes = {}
        for instr in (isa.DmaLoad(dst="m0", addr=0, shape=(4, 6)),
                      isa.VpuSlice(dst="m1", src="m0", start=2, stop=5),
                      isa.MpuTranspose(dst="m2", src="m1"),
                      isa.VpuRow(dst="m3", src="m2", row=-1),
                      isa.Free(regs=("m0", "m1"))):
            isa.propagate_shapes(instr, shapes)
        assert shapes == {"m2": (3, 4), "m3": (1, 4)}

    def test_unknown_source_names_the_register(self):
        shapes = {"m9": (2, 2)}
        with pytest.raises(KeyError, match="m0"):
            isa.propagate_shapes(isa.VpuGelu(dst="m1", src="m0"), shapes)
        assert shapes == {"m9": (2, 2)}


class TestValidation:
    def test_bad_dims_rejected(self):
        with pytest.raises(IsaError):
            isa.MpuMv(dst="m1", act="m0", weight_addr=0, k=0, n=4)
        with pytest.raises(IsaError):
            isa.MpuMmPea(dst="m1", act="m0", weight_addr=0, m=1, k=-1, n=4)

    def test_redumax_requires_rowmax(self):
        with pytest.raises(IsaError):
            isa.MpuMmRedumaxPea(dst="m1", act="m0", weight_addr=0, m=2,
                                k=4, n=4)

    def test_conv_kernel_too_big(self):
        with pytest.raises(IsaError):
            isa.MpuConv2d(dst="m1", act="m0", weight_addr=0, in_ch=1,
                          out_ch=1, kh=5, kw=5, h=4, w=4)

    def test_slice_bad_range(self):
        with pytest.raises(IsaError):
            isa.VpuSlice(dst="m1", src="m0", start=4, stop=4)

    def test_bias_positive_width(self):
        with pytest.raises(IsaError):
            isa.VpuBias(dst="m1", src="m0", bias_addr=0, n=0)


class TestDependencies:
    def test_reads_writes(self):
        add = isa.VpuAdd(dst="m2", a="m0", b="m1")
        assert add.reads() == ("m0", "m1")
        assert add.writes() == ("m2",)

    def test_softmax_reads_rowmax(self):
        sm = isa.VpuSoftmax(dst="m1", src="m0", rowmax="v0")
        assert set(sm.reads()) == {"m0", "v0"}

    def test_redumax_writes_both(self):
        masked = isa.MpuMaskedMm(dst="m1", q="m0", k_addr=0, heads=1,
                                 head_dim=4, ctx=4, m=2, scale=1.0,
                                 mask_offset=0, rowmax_dst="v0")
        assert set(masked.writes()) == {"m1", "v0"}


class TestProgramValidation:
    def test_read_before_write_rejected(self):
        program = (isa.VpuGelu(dst="m1", src="m0"),)
        with pytest.raises(IsaError):
            isa.validate_program(program)

    def test_freed_register_cannot_be_read(self):
        program = (
            isa.DmaLoad(dst="m0", addr=0, shape=(2, 2)),
            isa.Free(regs=("m0",)),
            isa.VpuGelu(dst="m1", src="m0"),
        )
        with pytest.raises(IsaError):
            isa.validate_program(program)

    def test_valid_program_passes(self):
        program = (
            isa.DmaLoad(dst="m0", addr=0, shape=(2, 2)),
            isa.VpuGelu(dst="m1", src="m0"),
            isa.DmaStore(src="m1", addr=64, shape=(2, 2)),
            isa.Barrier(),
        )
        isa.validate_program(program)

    def test_non_instruction_rejected(self):
        with pytest.raises(IsaError):
            isa.validate_program(("not an instruction",))
