"""Block-JIT: each ``func.func`` body becomes one generated Python function.

The reference interpreter dispatches every executed op through a
``dict[str, OpImpl]`` and keeps values in a ``dict[SSAValue, Any]``.  That
is the right ground truth but the wrong steady state: one SGESL n=512
simulated run re-walks the same host driver and kernel bodies hundreds of
thousands of times.  This module walks each ``func.func`` **once** and
writes the Python source of one function for its whole body.  It is
copy-and-patch compilation in spirit (Xu and Kjolstad, OOPSLA 2021): each
op's emitter, registered per dialect with :func:`compiled_for`, patches
frame slots into its statement template.

* values live in a flat *frame* (a plain list); operands are fixed
  integer indices assigned at compile time, and slot 0 holds a
  :class:`FrameEnv` when an op needs one;
* ``arith.constant`` is folded into the frame template, constant
  arithmetic is folded transitively, and a literal operand is written
  into the statements that read it;
* ``scf.for`` / ``scf.if`` bodies are inline ``while`` / ``if`` blocks;
* a device op or DMA is one call to its executor or buffer-table method;
* ops without a compiled form (``omp.*``, ``fir.*``, HLS streams) call
  their interpreter impl with the :class:`FrameEnv`, and ``func.call``
  calls :meth:`~repro.ir.interpreter.Interpreter.call`.

Per-function values (loop ops, handlers, vectorizer entries, names) are
arguments of the generated factory, not text, so the source depends only
on op names, semantic attributes and the slot layout.  The compiled
factory is cached per process by its source (:func:`_factory`, an LRU of
code only), so a freshly unpickled program of a seen shape compiles
nothing.  The function the factory returns depends on its IR, so the
interpreter keeps it beside the module's function table in the root op's
analysis cache (:func:`~repro.ir.interpreter.function_table`), and it dies
with the module.

Step accounting is preserved *exactly*: each block adds its count of
simple ops in one add on entry, and loops, branches, calls and fallback
ops add their own step as they run, so the CPU-baseline time model
(seconds-per-step) and the step limit see the same numbers as scalar
interpretation.

Functions that cannot be compiled (multi-block regions, terminators
without a compiled form) stay on the scalar interpreter — compilation is
an optimization, never a semantics change.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from repro.ir.core import Operation, SSAValue
from repro.ir.traits import IsTerminator
from repro.ir.types import FloatType

#: Emitter: ``(op, gen)``; it writes the op's statements through ``gen``
#: or folds its result.  An op counts one interpreter step in its
#: enclosing block's bulk increment, unless its emitter registered with
#: ``counts_own_steps=True`` (loops, branches, calls), whose statements
#: charge the step themselves.
Emitter = Callable[[Operation, "FnCodegen"], None]

_EMITTERS: dict[str, Emitter] = {}
_SELF_STEPPING: set[str] = set()

#: sentinel for "slot not yet computed" in frames
_UNSET = object()

#: generated sources kept compiled per process
_CODE_CACHE_SIZE = 256

#: module-level objects generated code names as globals (see :func:`helpers`)
_HELPERS: dict[str, Any] = {"f32": np.float32}


def compiled_for(op_name: str, *, counts_own_steps: bool = False):
    """Register the code emitter of ``op_name`` (decorator)."""

    def register(fn: Emitter) -> Emitter:
        _EMITTERS[op_name] = fn
        if counts_own_steps:
            _SELF_STEPPING.add(op_name)
        return fn

    return register


def helpers(**named: Any) -> None:
    """Let generated code name these module-level objects as globals."""
    for name, item in named.items():
        if _HELPERS.setdefault(name, item) is not item:
            raise ValueError(f"two code-generation helpers named {name!r}")


class CannotCompile(Exception):
    """Internal signal: this function must stay on the scalar path."""


# ---------------------------------------------------------------------------
# Frame environment proxy
# ---------------------------------------------------------------------------


class FrameEnv:
    """Dict-compatible view of a frame, keyed by :class:`SSAValue`.

    Handed to fallback op implementations (``handler(interp, op, env)``)
    and the vectorizer entries, so the scalar impls — including ones that
    recursively call ``interp.run_block`` on nested regions — work
    unchanged on top of compiled frames.
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
# Per-function code generator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _factory(source: str) -> Callable:
    """The ``make`` function ``source`` defines, compiled once per process
    per source text (the cache holds code and the helpers, never an IR
    object)."""
    from repro.ir.interpreter import InterpreterError

    namespace = dict(
        _HELPERS, FrameEnv=FrameEnv, InterpreterError=InterpreterError
    )
    exec(compile(source, "<jit>", "exec"), namespace)
    return namespace["make"]


class FnCodegen:
    """Code generator for one ``func.func``: slot table, constant tracking,
    factory arguments and the source lines the dialect emitters write.

    The generated function's locals are ``interp``, ``frame`` and the
    names an emitter assigns.  Its globals are the :func:`helpers`,
    ``FrameEnv`` and ``InterpreterError``."""

    def __init__(self):
        #: slot 0 is reserved for the FrameEnv proxy
        self.slots: dict[SSAValue, int] = {}
        self.template: list = [None]
        self.consts: dict[SSAValue, Any] = {}
        #: the expression that reads each value (see :meth:`ref`)
        self.refs: dict[SSAValue, str] = {}
        self.needs_env = False
        #: factory argument name -> value, in order of first use
        self.params: dict[str, Any] = {}
        self._bound: dict[Any, str] = {}
        self.lines: list[str] = []
        #: a function body sits two levels in: in ``make``, in ``call``
        self._indent = "    "
        self._locals = 0

    # -- slots and constants -------------------------------------------------

    def slot(self, value: SSAValue) -> int:
        index = self.slots.get(value)
        if index is None:
            index = self.slots[value] = len(self.template)
            self.template.append(_UNSET)
        return index

    def set_literal(self, value: SSAValue, item: Any) -> None:
        """Record ``value`` as a compile-time constant, prefilled in the
        frame template and written into the statements that read it."""
        self.template[self.slot(value)] = item
        self.consts[value] = item
        kind = type(item)
        if kind is bool or kind is int or (
            kind is float and math.isfinite(item)
        ):
            text = repr(item)
            self.refs[value] = f"({text})" if text[0] == "-" else text

    def ref(self, value: SSAValue) -> str:
        """An expression reading ``value``: its literal, or its slot."""
        text = self.refs.get(value)
        if text is None:
            text = self.refs[value] = f"frame[{self.slot(value)}]"
        return text

    #: the frame slot of a value that is not a literal, as an assignment
    #: target
    dest = ref

    # -- factory arguments ---------------------------------------------------

    def bind(self, item: Any, hint: str) -> str:
        """A factory argument holding the per-function value ``item`` (a
        loop op, handler, entry function, name...)."""
        key = item if type(item) is str else id(item)
        name = self._bound.get(key)
        if name is None:
            name = self._bound[key] = f"{hint}_{len(self._bound)}"
            self.params[name] = item
        return name

    def local(self) -> int:
        """A fresh suffix for the locals of one loop."""
        self._locals += 1
        return self._locals

    # -- source ---------------------------------------------------------------

    def emit(self, *lines: str) -> None:
        indent = self._indent
        append = self.lines.append
        for line in lines:
            append(indent + line)

    def assign(
        self, op: Operation, expr: str, fold: Callable | None = None,
        *, rounds: bool = True,
    ) -> None:
        """Write ``op``'s one result as ``expr``, a ``%`` template with one
        ``%s`` per operand, in order.  With ``fold``, the same function
        in Python, a result of literal operands is folded instead.  When
        ``rounds``, an f32 result is rounded to float32, as the
        interpreter impls round it."""
        result = op.results[0]
        ty = result.type
        round32 = rounds and isinstance(ty, FloatType) and ty.width == 32
        operands = op._operands
        if fold is not None:
            consts = self.consts
            items = []
            for value in operands:
                if value not in consts:
                    break
                items.append(consts[value])
            else:
                try:
                    value = fold(*items)
                except (ArithmeticError, ValueError):
                    pass  # fold nothing: it raises at run time, as scalar
                else:
                    if round32:
                        value = float(np.float32(value))
                    self.set_literal(result, value)
                    return
        ref = self.ref
        if len(operands) == 2:
            text = expr % (ref(operands[0]), ref(operands[1]))
        else:
            text = expr % tuple([ref(value) for value in operands])
        if round32:
            text = f"float(f32({text}))"
        self.lines.append(f"{self._indent}{self.ref(result)} = {text}")

    def block(
        self, ops, terminator: str | None = None, head=(), tail=()
    ) -> None:
        """Write a block body one level deeper: ``head``, the block's bulk
        step count, each op, then ``tail``.  ``terminator`` names the
        terminator its enclosing construct executes (an ``scf.yield``
        continues past it, a function returns ``func.return``'s
        operands); it counts one step and must be the block's last op."""
        outer = self._indent
        indent = self._indent = outer + "    "
        lines = self.lines
        self.emit(*head)
        at = len(lines)
        lines.append(None)  # the bulk step count, known after the ops
        bulk = 0
        last = ops[-1] if ops else None
        for op in ops:
            name = op.name
            if name == terminator:
                # only the final terminator is executed: a mid-block one
                # would silently run the dead code after it
                if op is not last:
                    raise CannotCompile(name)
                bulk += 1
                continue
            emitter = _EMITTERS.get(name)
            if emitter is not None:
                if name not in _SELF_STEPPING:
                    bulk += 1
                emitter(op, self)
            elif op.has_trait(IsTerminator):
                # a terminator without a compiled form changes control flow
                raise CannotCompile(name)
            else:
                self.fallback(op)
        lines[at] = indent + (f"interp.steps += {bulk}" if bulk else "pass")
        self.emit(*tail)
        self._indent = outer

    def fallback(self, op: Operation) -> None:
        """Run ``op`` through its interpreter impl (omp ops and other
        ops without a compiled form), one step of its own."""
        from repro.ir.interpreter import _GLOBAL_IMPLS

        self.needs_env = True
        self.emit(
            "interp.steps += 1",
            "if interp.steps > interp.max_steps:",
            "    raise InterpreterError('interpreter step limit exceeded')",
        )
        handler = _GLOBAL_IMPLS.get(op.name)
        if handler is None:
            message = f"no interpreter impl for op {op.name!r}"
            self.emit(f"raise InterpreterError({message!r})")
            return
        message = (
            f"compiled execution: unexpected control signal from {op.name!r}"
        )
        self.emit(
            f"if {self.bind(handler, 'impl')}(interp, "
            f"{self.bind(op, 'op')}, frame[0]) is not None:",
            f"    raise InterpreterError({message!r})",
        )

    def source(self, arg_slots: list[int], returned: list[str]) -> str:
        """The factory's source around the body lines written so far."""
        if self.needs_env:
            slots = self.bind(self.slots, "slots")
        lines = [
            f"def make({', '.join(['template', *self.params])}):",
            "    def call(interp, args):",
            "        frame = template.copy()",
        ]
        if arg_slots:
            targets = "".join(f"frame[{s}], " for s in arg_slots)
            lines.append(f"        {targets}= args")
        body = "\n".join(self.lines)
        if self.needs_env:
            lines += [
                f"        frame[0] = FrameEnv(frame, {slots})",
                "        try:",
                "    " + body.replace("\n", "\n    "),
                "        finally:",
                # the env and the frame refer to each other: break the
                # cycle, so the call's values (kernel arguments and
                # buffers included) are freed on return, not when the
                # cyclic GC next runs
                "            frame[0] = None",
            ]
        else:
            lines.append(body)
        values = "".join(f"{text}, " for text in returned)
        lines += [
            # parity with the scalar engine, which checks before every op:
            # bulk-counted blocks and vectorized loops settle up here
            "        if interp.steps > interp.max_steps:",
            "            raise InterpreterError('interpreter step limit exceeded')",
            f"        return ({values})",
            "    return call",
        ]
        return "\n".join(lines)


def compile_function(func_op: Operation) -> Callable | None:
    """Compile one ``func.func`` body into ``call(interp, args) -> tuple``,
    or None when it must stay scalar."""
    regions = func_op.regions
    if len(regions) != 1 or len(regions[0].blocks) != 1:
        return None
    body = regions[0].blocks[0]
    gen = FnCodegen()
    arg_slots = [gen.slot(arg) for arg in body.args]
    ops = body.ops
    last = ops[-1] if ops else None
    # No return terminator: scalar semantics run the block and return ()
    # (possible with handler-produced signals only).
    returns = last is not None and last.name == "func.return"
    try:
        gen.block(ops, "func.return" if returns else None)
    except CannotCompile:
        return None
    returned = [gen.ref(v) for v in last.operands] if returns else []
    source = gen.source(arg_slots, returned)
    return _factory(source)(gen.template, *gen.params.values())
