"""HLS dialect (the [20] Stencil-HMLS substrate).

Operations carry the HLS-specific information Vitis needs:

* ``hls.axi_protocol`` — materializes an AXI protocol token (``m_axi``...);
* ``hls.interface`` — binds a kernel argument to a port ``bundle``;
* ``hls.pipeline`` — marks the enclosing loop as pipelined with the given
  initiation interval (II);
* ``hls.unroll`` — marks the enclosing loop as (partially) unrolled;
* ``hls.stream_read`` / ``hls.stream_write`` — runtime-library stream
  access (the precompiled runtime IR the paper links against).

Functionally these are annotations: the interpreter treats them as no-ops;
the Vitis simulator consumes them for scheduling and resource estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.attributes import IntegerAttr, StringAttr
from repro.ir.core import Dialect, IRError, Operation, SSAValue
from repro.ir.interpreter import Interpreter, impl
from repro.ir.types import TypeAttribute

#: AXI protocol codes (operand of ``hls.axi_protocol``).
M_AXI = 0
AXILITE = 1
AXIS = 2

PROTOCOL_NAMES = {M_AXI: "m_axi", AXILITE: "s_axilite", AXIS: "axis"}


@dataclass(frozen=True)
class AxiProtocolType(TypeAttribute):
    """Opaque protocol token type."""

    name = "hls.axi_protocol"

    def print(self) -> str:
        return "!hls.axi_protocol"


@dataclass(frozen=True)
class StreamType(TypeAttribute):
    """HLS stream carrying elements of a scalar type."""

    name = "hls.stream"

    def print(self) -> str:
        return "!hls.stream"


axi_protocol = AxiProtocolType()
stream = StreamType()


class AxiProtocolOp(Operation):
    """``hls.axi_protocol(%code)`` — protocol token from an i32 code."""

    name = "hls.axi_protocol"

    def __init__(self, code: SSAValue):
        super().__init__(operands=[code], result_types=[axi_protocol])


class InterfaceOp(Operation):
    """``hls.interface %arg, %proto {bundle = "gmem0"}``.

    Directs the mapping of a kernel input to a port and its protocol
    (paper, Listing 4).
    """

    name = "hls.interface"

    def __init__(self, arg: SSAValue, protocol: SSAValue, bundle: str):
        super().__init__(
            operands=[arg, protocol],
            attributes={"bundle": StringAttr(bundle)},
        )

    @property
    def arg(self) -> SSAValue:
        return self.operands[0]

    @property
    def bundle(self) -> str:
        attr = self.attributes["bundle"]
        assert isinstance(attr, StringAttr)
        return attr.value


class PipelineOp(Operation):
    """``hls.pipeline(%ii)`` — pipeline the enclosing loop with target II."""

    name = "hls.pipeline"

    def __init__(self, ii: SSAValue):
        super().__init__(operands=[ii])

    @property
    def ii(self) -> SSAValue:
        return self.operands[0]

    def static_ii(self) -> int | None:
        """The II when its operand is a constant (the common case)."""
        from repro.ir.core import OpResult

        operand = self.operands[0]
        if isinstance(operand, OpResult) and operand.op.name == "arith.constant":
            attr = operand.op.attributes["value"]
            if isinstance(attr, IntegerAttr):
                return attr.value
        return None


class UnrollOp(Operation):
    """``hls.unroll {factor = n}`` — request (partial) unrolling.

    The OpenMP-to-HLS transform performs the unrolling itself and leaves
    this marker so the backend replicates functional units; this mirrors
    how the flow emits a Vitis HLS unroll directive for ``simdlen``
    (paper §4, SAXPY discussion).
    """

    name = "hls.unroll"

    def __init__(self, factor: int):
        if factor < 1:
            raise IRError("unroll factor must be >= 1")
        super().__init__(attributes={"factor": IntegerAttr.i64(factor)})

    @property
    def factor(self) -> int:
        attr = self.attributes["factor"]
        assert isinstance(attr, IntegerAttr)
        return attr.value


class StreamReadOp(Operation):
    """Runtime-library stream read."""

    name = "hls.stream_read"

    def __init__(self, stream_value: SSAValue, result_type: TypeAttribute):
        super().__init__(operands=[stream_value], result_types=[result_type])


class StreamWriteOp(Operation):
    """Runtime-library stream write."""

    name = "hls.stream_write"

    def __init__(self, stream_value: SSAValue, value: SSAValue):
        super().__init__(operands=[stream_value, value])


Hls = Dialect(
    "hls",
    [
        AxiProtocolOp, InterfaceOp, PipelineOp, UnrollOp,
        StreamReadOp, StreamWriteOp,
    ],
)


# -- interpreter implementations (annotations are functional no-ops) ---------------


@impl("hls.axi_protocol")
def _run_axi_protocol(interp: Interpreter, op: Operation, env: dict):
    (code,) = interp.operand_values(op, env)
    interp.set_results(op, env, [PROTOCOL_NAMES.get(int(code), "m_axi")])
    return None


@impl("hls.interface")
@impl("hls.pipeline")
@impl("hls.unroll")
def _run_annotation(interp: Interpreter, op: Operation, env: dict):
    return None


@impl("hls.stream_read")
def _run_stream_read(interp: Interpreter, op: Operation, env: dict):
    (stream_value,) = interp.operand_values(op, env)
    interp.set_results(op, env, [stream_value.pop(0)])
    return None


@impl("hls.stream_write")
def _run_stream_write(interp: Interpreter, op: Operation, env: dict):
    stream_value, value = interp.operand_values(op, env)
    stream_value.append(value)
    return None


# -- compiled-form emitters ---------------------------------------------------


from repro.ir.compile import FnCodegen, compiled_for, helpers

helpers(protocol_names=PROTOCOL_NAMES)


@compiled_for("hls.axi_protocol")
def _emit_axi_protocol(op: Operation, gen: FnCodegen) -> None:
    gen.assign(op, "protocol_names.get(int(%s), 'm_axi')")


@compiled_for("hls.interface")
@compiled_for("hls.pipeline")
@compiled_for("hls.unroll")
def _emit_annotation(op: Operation, gen: FnCodegen) -> None:
    # Functional no-op; still bulk-counted as one interpreter step.
    pass
