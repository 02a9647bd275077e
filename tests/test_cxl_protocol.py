"""CXL transaction-layer message model."""

import pytest

from repro.cxl import Opcode, Protocol, Transaction
from repro.errors import ProtocolError


class TestOpcodes:
    def test_protocol_routing(self):
        assert Opcode.MEM_RD.protocol is Protocol.MEM
        assert Opcode.CFG_RD.protocol is Protocol.IO
        assert Opcode.CFG_CMP.protocol is Protocol.IO

    def test_request_classification(self):
        assert Opcode.MEM_RD.is_request
        assert Opcode.MEM_WR.is_request
        assert not Opcode.CMP.is_request
        assert not Opcode.MEM_RD_DATA.is_request

    def test_data_carriers(self):
        assert Opcode.MEM_WR.carries_data
        assert Opcode.MEM_RD_DATA.carries_data
        assert not Opcode.MEM_RD.carries_data


class TestTransactionValidation:
    def test_mem_requires_cacheline_alignment(self):
        with pytest.raises(ProtocolError):
            Transaction(opcode=Opcode.MEM_RD, addr=5)

    def test_mem_requires_cacheline_size(self):
        with pytest.raises(ProtocolError):
            Transaction(opcode=Opcode.MEM_RD, addr=0, size=32)

    def test_io_allows_small_unaligned(self):
        txn = Transaction(opcode=Opcode.CFG_RD, addr=0x1003, size=4)
        assert txn.size == 4

    def test_negative_address_rejected(self):
        with pytest.raises(ProtocolError):
            Transaction(opcode=Opcode.CFG_RD, addr=-1, size=4)

    def test_tags_unique(self):
        a = Transaction(opcode=Opcode.MEM_RD, addr=0)
        b = Transaction(opcode=Opcode.MEM_RD, addr=64)
        assert a.tag != b.tag


class TestResponses:
    def test_read_response_carries_data_and_tag(self):
        req = Transaction(opcode=Opcode.MEM_RD, addr=128)
        resp = req.response()
        assert resp.opcode is Opcode.MEM_RD_DATA
        assert resp.tag == req.tag

    def test_write_response_is_completion(self):
        req = Transaction(opcode=Opcode.MEM_WR, addr=128)
        assert req.response().opcode is Opcode.CMP

    def test_cfg_response(self):
        req = Transaction(opcode=Opcode.CFG_WR, addr=12, size=4)
        assert req.response().opcode is Opcode.CFG_CMP

    def test_response_of_response_rejected(self):
        resp = Transaction(opcode=Opcode.MEM_RD, addr=0).response()
        with pytest.raises(ProtocolError):
            resp.response()
