"""HLS dialect structure tests (the [20] substrate)."""

import pytest

from repro.dialects import arith, builtin, func, hls
from repro.ir import Builder, IRError, print_op, verify
from repro.ir.types import FunctionType, MemRefType, f32


def _kernel():
    module = builtin.ModuleOp()
    fn = func.FuncOp("k", FunctionType([MemRefType(f32, [16], 1)], []))
    module.body.add_op(fn)
    return module, fn, Builder.at_end(fn.body)


class TestInterface:
    def test_listing4_shape(self):
        """Printed form matches the paper's Listing 4 idiom."""
        module, fn, b = _kernel()
        code = b.insert(arith.Constant.int(hls.M_AXI, 32)).results[0]
        proto = b.insert(hls.AxiProtocolOp(code)).results[0]
        iface = b.insert(hls.InterfaceOp(fn.body.args[0], proto, "gmem0"))
        b.insert(func.ReturnOp())
        verify(module)
        text = print_op(module)
        assert '"hls.axi_protocol"' in text
        assert "!hls.axi_protocol" in text
        assert 'bundle = "gmem0"' in text
        assert iface.bundle == "gmem0"
        assert iface.arg is fn.body.args[0]

    def test_protocol_names(self):
        assert hls.PROTOCOL_NAMES[hls.M_AXI] == "m_axi"
        assert hls.PROTOCOL_NAMES[hls.AXILITE] == "s_axilite"


class TestPipelineAndUnroll:
    def test_static_ii(self):
        _, _, b = _kernel()
        ii = b.insert(arith.Constant.int(3, 32)).results[0]
        pipeline = b.insert(hls.PipelineOp(ii))
        assert pipeline.static_ii() == 3

    def test_dynamic_ii_unknown(self):
        module, fn, b = _kernel()
        fn2 = func.FuncOp("g", FunctionType([__import__("repro.ir.types", fromlist=["i32"]).i32], []))
        module.body.add_op(fn2)
        b2 = Builder.at_end(fn2.body)
        pipeline = b2.insert(hls.PipelineOp(fn2.body.args[0]))
        assert pipeline.static_ii() is None

    def test_unroll_factor(self):
        _, _, b = _kernel()
        unroll = b.insert(hls.UnrollOp(10))
        assert unroll.factor == 10

    def test_unroll_rejects_bad_factor(self):
        with pytest.raises(IRError):
            hls.UnrollOp(0)


class TestStreams:
    def test_stream_interp(self):
        """Runtime-library stream read/write round-trips values."""

        from repro.dialects.hls import StreamReadOp, StreamWriteOp, stream
        from repro.ir import Interpreter
        from repro.ir.types import FunctionType as FT

        module = builtin.ModuleOp()
        fn = func.FuncOp("f", FT([stream], [f32]))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        # write 2.5 to the stream argument (any list-like), read it back
        (channel,) = fn.body.args
        value = b.insert(arith.Constant.float(2.5, 32)).results[0]
        b.insert(StreamWriteOp(channel, value))
        read = b.insert(StreamReadOp(channel, f32))
        b.insert(func.ReturnOp([read.results[0]]))

        for compiled in (True, False):
            interp = Interpreter(module, compiled=compiled)
            assert interp.call("f", []) == (pytest.approx(2.5),)
