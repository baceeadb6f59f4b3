"""Block-JIT compilation of IR functions into Python closures.

The reference interpreter dispatches every executed op through a
``dict[str, OpImpl]`` and keeps values in a ``dict[SSAValue, Any]``.  That
is the right ground truth but the wrong steady state: one SGESL n=512
simulated run re-walks the same host driver and kernel bodies hundreds of
thousands of times.  This module walks each ``func.func`` **once** and
emits a chain of specialized Python closures:

* values live in a flat *frame* (a plain list); operand lookups become
  fixed integer indices assigned at compile time;
* ``arith.constant`` is folded into the frame template (and constant
  arithmetic is folded transitively at compile time);
* ``scf.for`` / ``scf.if`` compile to native Python loops/branches
  around their compiled bodies;
* ops without a compiled form (``omp.*``, ``fir.*``, HLS streams) run
  their interpreter impl — the frame is wrapped in a dict-compatible
  proxy for those handlers;
* a block body becomes one straight-line runner, generated once per
  closure count: it adds the block's bulk step count, then calls each
  closure in turn, with no loop over them;
* a compiled function depends only on its IR, so the interpreter keeps
  it beside the module's function table in the root op's analysis
  cache (:func:`~repro.ir.interpreter.function_table`, beside the
  vectorizer's loop plans), and it dies with the module: the ~2k kernel
  launches of one SGESL run — and every run after the first — reuse
  one compiled artifact.

Step accounting is preserved *exactly*: straight-line segments bump
``interp.steps`` by their op count in one add, loops bump per iteration,
so the CPU-baseline time model (seconds-per-step) and the step limit see
the same numbers as scalar interpretation.

Functions that cannot be compiled (multi-block regions, terminators
without a compiled form, exotic constants) transparently fall back to
the scalar interpreter — compilation is an optimization, never a
semantics change.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.ir.core import Operation, SSAValue
from repro.ir.traits import IsTerminator

#: Closure executing one compiled op: ``(interp, frame) -> None``.
OpClosure = Callable[[Any, list], None]

#: Emitter: ``(op, ctx) -> OpClosure | None``.  ``None`` means the op was
#: folded away (constants) or is a pure no-op; it still counts one
#: interpreter step via the enclosing block's bulk increment.  Emitters
#: whose closures manage their own step accounting (loops, branches,
#: calls, fallbacks) must register with ``counts_own_steps=True``.
Emitter = Callable[[Operation, "FnCompiler"], "OpClosure | None"]

_EMITTERS: dict[str, Emitter] = {}
_SELF_STEPPING: set[str] = set()

#: sentinel for "slot not yet computed" in frames
_UNSET = object()

#: sentinel returned by :meth:`FnCompiler.literal` for non-constants
NOT_CONST = object()


def compiled_for(op_name: str, *, counts_own_steps: bool = False):
    """Register a compiled-form emitter for ``op_name`` (decorator)."""

    def register(fn: Emitter) -> Emitter:
        _EMITTERS[op_name] = fn
        if counts_own_steps:
            _SELF_STEPPING.add(op_name)
        return fn

    return register


class CannotCompile(Exception):
    """Internal signal: this function must stay on the scalar path."""


# ---------------------------------------------------------------------------
# Frame environment proxy
# ---------------------------------------------------------------------------


class FrameEnv:
    """Dict-compatible view of a frame, keyed by :class:`SSAValue`.

    Handed to fallback op implementations (``handler(interp, op, env)``)
    so the scalar impls — including ones that recursively call
    ``interp.run_block`` on nested regions — work unchanged on top of
    compiled frames.
    """

    __slots__ = ("frame", "slots", "_extra")

    def __init__(self, frame: list, slots: dict[SSAValue, int]):
        self.frame = frame
        self.slots = slots
        #: values for IR the compiler never assigned a slot to (ops inside
        #: regions executed scalar by a fallback handler); per-call state —
        #: the slot table is shared across calls and must stay frozen.
        self._extra: dict[SSAValue, Any] = {}

    def __getitem__(self, value: SSAValue) -> Any:
        slot = self.slots.get(value)
        if slot is None:
            return self._extra[value]
        item = self.frame[slot]
        if item is _UNSET:
            raise KeyError(value)
        return item

    def __setitem__(self, value: SSAValue, item: Any) -> None:
        slot = self.slots.get(value)
        if slot is None:
            self._extra[value] = item
        else:
            self.frame[slot] = item

    def __contains__(self, value: SSAValue) -> bool:
        slot = self.slots.get(value)
        if slot is None:
            return value in self._extra
        return self.frame[slot] is not _UNSET

    def get(self, value: SSAValue, default: Any = None) -> Any:
        slot = self.slots.get(value)
        if slot is None:
            return self._extra.get(value, default)
        item = self.frame[slot]
        return default if item is _UNSET else item


# ---------------------------------------------------------------------------
# Per-function compiler
# ---------------------------------------------------------------------------


#: ``count -> make(k, c0, ..., c{count-1})``: the block-runner factory
#: for each closure count, generated on first use
_RUNNER_FACTORIES: dict[int, Callable[..., OpClosure]] = {}


def _runner_factory(count: int) -> Callable[..., OpClosure]:
    """The factory of straight-line runners that bulk-count ``k`` steps
    and then call ``count`` closures in order, with no loop over them."""
    factory = _RUNNER_FACTORIES.get(count)
    if factory is None:
        closures = [f"c{i}" for i in range(count)]
        source = "\n".join([
            f"def make({', '.join(['k', *closures])}):",
            "    def run(interp, frame):",
            "        interp.steps += k",
            *(f"        {c}(interp, frame)" for c in closures),
            "    return run",
        ])
        namespace: dict[str, Any] = {}
        exec(compile(source, f"<block runner {count}>", "exec"), namespace)
        factory = _RUNNER_FACTORIES[count] = namespace["make"]
    return factory


def _chain(closures: list[OpClosure], bulk_steps: int) -> OpClosure:
    """Compose op closures into one block-body runner that bulk-counts the
    simple ops' interpreter steps."""
    return _runner_factory(len(closures))(bulk_steps, *closures)


class FnCompiler:
    """Compilation context for one ``func.func``: slot table, constant
    tracking and block compilation helpers used by the dialect emitters."""

    def __init__(self):
        #: slot 0 is reserved for the FrameEnv proxy
        self.slots: dict[SSAValue, int] = {}
        self.template: list = [None]
        self.consts: dict[int, Any] = {}
        self.needs_env = False

    # -- slots and constants -------------------------------------------------

    def slot(self, value: SSAValue) -> int:
        index = self.slots.get(value)
        if index is None:
            index = self.slots[value] = len(self.template)
            self.template.append(_UNSET)
        return index

    def slot_list(self, values) -> list[int]:
        return [self.slot(v) for v in values]

    def set_literal(self, value: SSAValue, item: Any) -> None:
        """Record ``value`` as a compile-time constant, prefilled in the
        frame template."""
        index = self.slot(value)
        self.template[index] = item
        self.consts[index] = item

    def literal(self, value: SSAValue) -> Any:
        """The compile-time constant held by ``value``, or ``NOT_CONST``."""
        index = self.slots.get(value)
        if index is None:
            return NOT_CONST
        return self.consts.get(index, NOT_CONST)

    # -- op and block compilation ---------------------------------------------

    def compile_op(self, op: Operation) -> tuple[OpClosure | None, bool]:
        """Compile one op.  Returns ``(closure, self_stepping)``; a None
        closure contributes no runtime work (folded / no-op)."""
        name = op.name
        emitter = _EMITTERS.get(name)
        if emitter is None:
            if op.has_trait(IsTerminator):
                # A terminator we cannot compile natively changes
                # control flow: bail out.
                raise CannotCompile(name)
            return self.fallback(op), True
        return emitter(op, self), name in _SELF_STEPPING

    def fallback(self, op: Operation) -> OpClosure:
        """Run ``op`` through its interpreter impl (omp ops and other
        ops without a compiled form)."""
        from repro.ir.interpreter import _GLOBAL_IMPLS, InterpreterError

        self.needs_env = True
        name = op.name
        handler = _GLOBAL_IMPLS.get(name)

        def run(interp, frame):
            steps = interp.steps + 1
            interp.steps = steps
            if steps > interp.max_steps:
                raise InterpreterError("interpreter step limit exceeded")
            if handler is None:
                raise InterpreterError(
                    f"no interpreter impl for op {name!r}"
                )
            signal = handler(interp, op, frame[0])
            if signal is not None:
                raise InterpreterError(
                    f"compiled execution: unexpected control signal from "
                    f"{name!r}"
                )
        return run

    def compile_body(
        self, ops, *, allow_terminators: tuple[str, ...] = ()
    ) -> OpClosure:
        """Compile a straight-line op sequence into one runner closure.

        ``allow_terminators`` names terminator ops the *caller* executes
        itself (the enclosing ``scf`` closure continues past an
        ``scf.yield``; a function closure reads ``func.return``'s operand
        slots); they still count one interpreter step each.
        """
        closures: list[OpClosure] = []
        bulk = 0
        last = ops[-1] if ops else None
        for op in ops:
            if op.name in allow_terminators:
                # The enclosing construct only executes the *final*
                # terminator's operand slots; a mid-block terminator would
                # silently run the dead code after it — stay scalar.
                if op is not last:
                    raise CannotCompile(op.name)
                bulk += 1
                continue
            closure, self_stepping = self.compile_op(op)
            if closure is None:
                bulk += 1
                continue
            if not self_stepping:
                bulk += 1
            closures.append(closure)
        return _chain(closures, bulk)


class CompiledFunction:
    """One compiled ``func.func``: frame template, block runner and the
    slots ``func.return`` reads."""

    __slots__ = (
        "name", "arg_slots", "runner", "ret_slots", "template", "slots",
        "needs_env",
    )

    def __init__(
        self, name, arg_slots, runner, ret_slots, template, slots, needs_env
    ):
        self.name = name
        self.arg_slots = arg_slots
        self.runner = runner
        self.ret_slots = ret_slots
        self.template = template
        self.slots = slots
        self.needs_env = needs_env

    def call(self, interp, args) -> tuple:
        frame = self.template.copy()
        for slot, value in zip(self.arg_slots, args):
            frame[slot] = value
        if self.needs_env:
            frame[0] = FrameEnv(frame, self.slots)
            try:
                self.runner(interp, frame)
            finally:
                # the env and the frame refer to each other: break the
                # cycle, so the call's values (kernel arguments and
                # buffers included) are freed on return, not when the
                # cyclic GC next runs
                frame[0] = None
        else:
            self.runner(interp, frame)
        if interp.steps > interp.max_steps:
            # parity with the scalar engine, which checks before every op:
            # bulk-counted segments and vectorized loops settle up here
            from repro.ir.interpreter import InterpreterError

            raise InterpreterError("interpreter step limit exceeded")
        ret_slots = self.ret_slots
        return tuple([frame[s] for s in ret_slots]) if ret_slots else ()


def compile_function(func_op: Operation) -> CompiledFunction | None:
    """Compile one ``func.func`` body, or None when it must stay scalar."""
    from repro.ir.attributes import StringAttr

    regions = func_op.regions
    if len(regions) != 1 or len(regions[0].blocks) != 1:
        return None
    body = regions[0].blocks[0]
    sym = func_op.attributes.get("sym_name")
    name = sym.value if isinstance(sym, StringAttr) else "<anonymous>"

    ctx = FnCompiler()
    arg_slots = ctx.slot_list(body.args)
    try:
        last = body.ops[-1] if body.ops else None
        if last is not None and last.name == "func.return":
            ret_slots = ctx.slot_list(last._operands)
            block_run = ctx.compile_body(
                body.ops, allow_terminators=("func.return",)
            )
        else:
            # No return terminator: scalar semantics run the block and
            # return () (possible with handler-produced signals only).
            ret_slots = []
            block_run = ctx.compile_body(body.ops)
    except CannotCompile:
        return None
    return CompiledFunction(
        name, arg_slots, block_run, tuple(ret_slots), ctx.template,
        ctx.slots, ctx.needs_env,
    )
