"""Reference IR interpreter.

Executes modules functionally: memrefs are NumPy arrays, scalars are Python
numbers.  Dialect modules register implementations with the :func:`impl`
decorator, one global table for every interpreter.  The host runtime
binds through :attr:`Interpreter.host_executor`: the ``device`` ops and
``memref.dma_start``/``memref.wait`` hand their work to the attached
:class:`~repro.runtime.executor.FpgaExecutor` (without one, a ``device``
op raises and a DMA is a plain copy).

The interpreter is the ground truth for *correctness* — performance numbers
come from the analytic FPGA/CPU models, not from wall-clock interpretation.
Three execution tiers produce identical results and identical step counts:

1. scalar op-by-op dispatch (this module; ``compiled=False`` forces it);
2. block-JIT compiled closures (:mod:`repro.ir.compile`, the default) —
   each function is translated once into specialized Python closures;
3. NumPy whole-loop evaluation for provably safe loops
   (:mod:`repro.ir.vectorize`; ``vectorize=False`` disables it), entered
   from either of the first two tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.ir.compile import get_compiled_function
from repro.ir.core import Block, IRError, Operation, SSAValue, analysis_cache


class InterpreterError(IRError):
    """Raised when execution goes wrong (missing impl, bad values...)."""


@dataclass
class Returned:
    """Signal: a function body executed ``func.return``."""

    values: tuple[Any, ...]


@dataclass
class Yielded:
    """Signal: a structured-control-flow region yielded values."""

    values: tuple[Any, ...]


#: An op implementation: ``(interp, op, env) -> None | Returned | Yielded``.
#: Result values must be written into ``env`` by the implementation via
#: :meth:`Interpreter.set_results`.
OpImpl = Callable[["Interpreter", Operation, dict], Any]

_GLOBAL_IMPLS: dict[str, OpImpl] = {}


def impl(op_name: str) -> Callable[[OpImpl], OpImpl]:
    """Register a global op implementation (decorator)."""

    def register(fn: OpImpl) -> OpImpl:
        _GLOBAL_IMPLS[op_name] = fn
        return fn

    return register


def function_table(module: Operation) -> dict[str, Operation]:
    """The ``{sym_name: func.func}`` table of ``module``, built by one
    walk and kept in the module's analysis cache, so every interpreter of
    one program (a fresh executor builds two per run) shares it."""
    cache = analysis_cache(module)
    entry = cache.get(id(module))
    if entry is None or entry[0] is not module:
        from repro.ir.attributes import StringAttr

        table = {}
        for op in module.walk():
            if op.name == "func.func":
                sym = op.attributes.get("sym_name")
                if isinstance(sym, StringAttr):
                    table[sym.value] = op
        entry = cache[id(module)] = (module, table)
    return entry[1]


class Interpreter:
    """Executes a module. See module docstring."""

    def __init__(
        self,
        module: Operation,
        max_steps: int = 500_000_000,
        *,
        compiled: bool = True,
        vectorize: bool = True,
    ):
        self.module = module
        self.max_steps = max_steps
        self.steps = 0
        #: enable the block-JIT tier (falls back to scalar per function)
        self.compiled = compiled
        #: enable the NumPy whole-loop tier (both engines honour this)
        self.vectorize = vectorize
        #: optional ``(loop_op, trips, count)`` callback for ``count``
        #: executions of an ``scf.for`` with ``trips`` iterations each —
        #: the cycle-accounting hook of the kernel runner.  The scalar
        #: walk fires it once per execution (``count == 1``); the
        #: whole-space fast paths batch identical inner-loop executions.
        self.loop_observer: Callable[[Operation, int, int], None] | None = None
        #: the FpgaExecutor driving this interpreter, if any — the device
        #: ops and DMAs do their work through it
        self.host_executor = None
        #: optional :class:`~repro.reliability.report.RunReport` — engine
        #: tier degradations are recorded here when an executor armed one
        self.reliability_report = None
        self._functions: dict[str, Operation] | None = None
        #: functions whose block-JIT compilation crashed this session —
        #: recorded once, then permanently served by the scalar tier
        self._degraded_functions: set[str] = set()

    # -- function lookup ---------------------------------------------------------

    def functions(self) -> dict[str, Operation]:
        if self._functions is None:
            self._functions = function_table(self.module)
        return self._functions

    def get_function(self, name: str) -> Operation:
        funcs = self.functions()
        if name not in funcs:
            raise InterpreterError(
                f"no function named {name!r}; have {sorted(funcs)}"
            )
        return funcs[name]

    # -- execution -----------------------------------------------------------------

    def call(self, name: str, *args: Any) -> tuple[Any, ...]:
        """Call a function by symbol name with Python/NumPy arguments."""
        func = self.get_function(name)
        body = func.regions[0].block
        if len(args) != len(body.args):
            raise InterpreterError(
                f"function {name!r} expects {len(body.args)} arguments, "
                f"got {len(args)}"
            )
        if self.compiled and name not in self._degraded_functions:
            try:
                compiled_fn = self._compiled_function(func)
            except Exception as error:  # noqa: BLE001 - degrade, never crash
                self._degraded_functions.add(name)
                from repro.reliability.report import record_degradation

                record_degradation(self, "block-jit", "scalar", name, error)
                compiled_fn = None
            if compiled_fn is not None:
                return compiled_fn.call(self, args)
        env: dict[SSAValue, Any] = {}
        result = self.run_block(body, env, args)
        if isinstance(result, Returned):
            return result.values
        return ()

    def _compiled_function(self, func: Operation):
        """Block-JIT artifact for ``func`` (None -> scalar path); a method
        so the degradation tests can make compilation crash."""
        return get_compiled_function(func)

    def run_block(
        self, block: Block, env: dict, args: Sequence[Any] = ()
    ) -> Any:
        """Execute a block with the given block-argument values."""
        for block_arg, value in zip(block.args, args):
            env[block_arg] = value
        for op in block.ops:
            signal = self.run_op(op, env)
            if isinstance(signal, (Returned, Yielded)):
                return signal
        return None

    def run_op(self, op: Operation, env: dict) -> Any:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpreterError("interpreter step limit exceeded")
        handler = _GLOBAL_IMPLS.get(op.name)
        if handler is None:
            raise InterpreterError(f"no interpreter impl for op {op.name!r}")
        return handler(self, op, env)

    # -- helpers for implementations --------------------------------------------------

    def get(self, env: dict, value: SSAValue) -> Any:
        if value not in env:
            raise InterpreterError(
                f"value of type {value.type.print()} has not been computed"
            )
        return env[value]

    def operand_values(self, op: Operation, env: dict) -> list[Any]:
        return [self.get(env, operand) for operand in op.operands]

    def set_results(self, op: Operation, env: dict, values: Sequence[Any]) -> None:
        if len(values) != len(op.results):
            raise InterpreterError(
                f"{op.name}: implementation produced {len(values)} values "
                f"for {len(op.results)} results"
            )
        for result, value in zip(op.results, values):
            env[result] = value
