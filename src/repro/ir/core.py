"""Core IR data structures: SSA values, operations, blocks and regions.

The structure follows MLIR/xDSL: an :class:`Operation` holds operands
(uses of :class:`SSAValue`), produces results, carries a dictionary of
attributes and owns a list of :class:`Region` s, each containing
:class:`Block` s of nested operations.  Def-use chains are maintained
eagerly so rewrites can use :meth:`SSAValue.replace_by`.
"""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

from repro.ir.attributes import Attribute
from repro.ir.types import TypeAttribute

OpT = TypeVar("OpT", bound="Operation")


class IRError(Exception):
    """Raised on malformed IR manipulation or verification failure."""


#: Attribute key carrying the originating Fortran source line (an
#: ``IntegerAttr``).  Purely informational: every structural comparison
#: (CSE keys, constant dedup, vectorizer stitch matching) must go through
#: :func:`semantic_attributes` so two ops differing only in provenance
#: still compare equal.
LOC_ATTR = "loc"


def semantic_attributes(attributes: dict[str, "Attribute"]) -> dict[str, "Attribute"]:
    """``attributes`` minus location/provenance keys.

    Use this (not the raw dict) whenever two operations are compared for
    semantic equivalence; copies only when a provenance key is present.
    """
    if LOC_ATTR in attributes:
        return {k: v for k, v in attributes.items() if k != LOC_ATTR}
    return attributes


# ---------------------------------------------------------------------------
# SSA values
# ---------------------------------------------------------------------------


class Use:
    """A single use of an SSA value: (operation, operand index).

    ``pos`` is the use's position inside the owning value's ``uses`` list,
    maintained by :meth:`SSAValue.add_use`/:meth:`SSAValue.remove_use_object`
    so unlinking an operand is O(1) instead of a linear scan.
    """

    __slots__ = ("operation", "index", "pos")

    def __init__(self, operation: "Operation", index: int):
        self.operation = operation
        self.index = index
        self.pos = -1

    def __reduce__(self):
        # pickled together with its value, which drops its uses list
        value = self.operation._operands[self.index]
        return _unpickled_use, (value, self.operation, self.index, self.pos)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Use({self.operation.name}, {self.index})"


class SSAValue:
    """Base class for values in SSA form."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, type: TypeAttribute):
        self.type = type
        self.uses: list[Use] = []
        #: Optional printer hint, e.g. ``"a"`` prints as ``%a``.
        self.name_hint: str | None = None

    # -- def-use management -------------------------------------------------

    def add_use(self, use: Use) -> None:
        use.pos = len(self.uses)
        self.uses.append(use)

    def remove_use_object(self, use: Use) -> None:
        """Unlink ``use`` in O(1) (swap-remove; use order is not stable)."""
        pos = use.pos
        if pos < 0 or pos >= len(self.uses) or self.uses[pos] is not use:
            raise IRError("attempting to remove a use that does not exist")
        last = self.uses.pop()
        if last is not use:
            self.uses[pos] = last
            last.pos = pos
        use.pos = -1

    def replace_by(self, other: "SSAValue") -> None:
        """Replace all uses of this value with ``other``."""
        if other is self:
            return
        for use in list(self.uses):
            use.operation.set_operand(use.index, other)
        assert not self.uses

    @property
    def has_uses(self) -> bool:
        return bool(self.uses)

    @property
    def single_use(self) -> Use | None:
        return self.uses[0] if len(self.uses) == 1 else None

    def owner_block(self) -> "Block | None":
        raise NotImplementedError

    # -- pickling --------------------------------------------------------------

    def __reduce__(self):
        """Pickle without :attr:`uses`.

        Following each value's links to its users makes pickle recurse
        from definition to user across a whole block, past the default
        recursion limit on modest kernels.  A loaded value starts with an
        empty list, and each use re-registers itself at its saved
        position (:meth:`Use.__reduce__`).
        """
        _, slots = object.__getstate__(self)
        del slots["uses"]
        return _unpickled_value, (type(self),), (None, slots)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} : {self.type.print()}>"


def _unpickled_value(cls: type) -> SSAValue:
    value = cls.__new__(cls)
    value.uses = []
    return value


def _unpickled_use(
    value: SSAValue, operation: "Operation", index: int, pos: int
) -> Use:
    """Recreate a use and put it back at position ``pos`` of its value's
    :attr:`~SSAValue.uses`, so the list keeps its pickled order."""
    use = Use(operation, index)
    use.pos = pos
    uses = value.uses
    if len(uses) <= pos:
        uses.extend([None] * (pos + 1 - len(uses)))
    uses[pos] = use
    return use


class OpResult(SSAValue):
    """Result value produced by an operation."""

    __slots__ = ("op", "index")

    def __init__(self, type: TypeAttribute, op: "Operation", index: int):
        super().__init__(type)
        self.op = op
        self.index = index

    def owner_block(self) -> "Block | None":
        return self.op.parent


class BlockArgument(SSAValue):
    """Argument of a block (loop induction variables, function params...)."""

    __slots__ = ("block", "index")

    def __init__(self, type: TypeAttribute, block: "Block", index: int):
        super().__init__(type)
        self.block = block
        self.index = index

    def owner_block(self) -> "Block | None":
        return self.block


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Operation:
    """A generic, extensible operation.

    Subclasses set the class attribute :attr:`name` (e.g.
    ``"device.alloc"``) and usually provide a typed ``__init__`` plus
    property accessors.  All state lives in the generic containers so the
    printer, parser, interpreter and rewriters work uniformly.
    """

    #: Fully qualified operation name, ``dialect.mnemonic``.
    name: str = "builtin.unregistered"

    #: Trait classes (see :mod:`repro.ir.traits`).
    traits: tuple[type, ...] = ()

    #: Every class in the MRO of every trait in :attr:`traits`, built
    #: once per op class, so :meth:`has_trait` is one set lookup.
    _trait_set: frozenset[type] = frozenset()

    __slots__ = (
        "_operands",
        "_operand_uses",
        "_operands_tuple",
        "results",
        "attributes",
        "regions",
        "parent",
        # Lazily attached per-root analysis state (the block-JIT's
        # compiled functions and the vectorizer's loop plans; see
        # analysis_cache).  Never printed, cloned or compared;
        # lives and dies with the op so cached plans cannot outlive the
        # module they reference.
        "analysis_cache",
    )

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._trait_set = frozenset(
            base for trait in cls.traits for base in trait.__mro__
        )

    def __init__(
        self,
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[TypeAttribute] = (),
        attributes: dict[str, Attribute] | None = None,
        regions: Sequence["Region"] | None = None,
    ):
        self._operands: list[SSAValue] = []
        #: Use objects registered with each operand (parallel to _operands)
        #: so unlinking does not scan the value's use list.
        self._operand_uses: list[Use] = []
        self._operands_tuple: tuple[SSAValue, ...] | None = None
        self.results: list[OpResult] = [
            OpResult(t, self, i) for i, t in enumerate(result_types)
        ]
        self.attributes: dict[str, Attribute] = dict(attributes or {})
        self.regions: list[Region] = []
        self.parent: Block | None = None
        for operand in operands:
            self.add_operand(operand)
        for region in regions or ():
            self.add_region(region)

    # -- operand management --------------------------------------------------

    @property
    def operands(self) -> tuple[SSAValue, ...]:
        cached = self._operands_tuple
        if cached is None:
            cached = self._operands_tuple = tuple(self._operands)
        return cached

    def add_operand(self, value: SSAValue) -> None:
        if not isinstance(value, SSAValue):
            raise IRError(
                f"operand of {self.name} must be an SSAValue, got {value!r}"
            )
        index = len(self._operands)
        self._operands.append(value)
        self._operands_tuple = None
        use = Use(self, index)
        self._operand_uses.append(use)
        value.add_use(use)

    def set_operand(self, index: int, value: SSAValue) -> None:
        old = self._operands[index]
        old.remove_use_object(self._operand_uses[index])
        self._operands[index] = value
        self._operands_tuple = None
        use = Use(self, index)
        self._operand_uses[index] = use
        value.add_use(use)

    def drop_all_references(self) -> None:
        """Remove this op's uses of its operands (prior to erasure)."""
        for operand, use in zip(self._operands, self._operand_uses):
            operand.remove_use_object(use)
        self._operands.clear()
        self._operand_uses.clear()
        self._operands_tuple = None

    # -- structure -----------------------------------------------------------

    def add_region(self, region: "Region") -> None:
        if region.parent is not None:
            raise IRError("region already attached to an operation")
        region.parent = self
        self.regions.append(region)

    @property
    def parent_op(self) -> "Operation | None":
        if self.parent is None or self.parent.parent is None:
            return None
        return self.parent.parent.parent

    def get_parent_of_type(self, op_type: type[OpT]) -> OpT | None:
        op = self.parent_op
        while op is not None and not isinstance(op, op_type):
            op = op.parent_op
        return op  # type: ignore[return-value]

    def is_ancestor_of(self, other: "Operation") -> bool:
        op: Operation | None = other
        while op is not None:
            if op is self:
                return True
            op = op.parent_op
        return False

    # -- erasure / movement ----------------------------------------------------

    def detach(self) -> None:
        """Remove from the parent block without destroying the op."""
        if self.parent is not None:
            self.parent.ops.remove(self)
            self.parent = None

    def erase(self, *, safe: bool = True) -> None:
        """Detach and destroy this operation.

        With ``safe=True`` (default), raises if any result still has uses.
        """
        if safe:
            for result in self.results:
                if result.has_uses:
                    raise IRError(
                        f"erasing {self.name} whose result is still in use"
                    )
        self.detach()
        self.drop_all_references()
        for region in self.regions:
            region.drop_all_references()

    # -- traversal -----------------------------------------------------------

    def walk(self, reverse: bool = False) -> Iterator["Operation"]:
        """Pre-order walk of this op and every nested op."""
        yield self
        regions = reversed(self.regions) if reverse else self.regions
        for region in regions:
            blocks = reversed(region.blocks) if reverse else region.blocks
            for block in blocks:
                ops = reversed(list(block.ops)) if reverse else list(block.ops)
                for op in ops:
                    yield from op.walk(reverse=reverse)

    def walk_type(self, op_type: type[OpT]) -> Iterator[OpT]:
        for op in self.walk():
            if isinstance(op, op_type):
                yield op

    # -- attribute helpers -----------------------------------------------------

    def has_trait(self, trait: type) -> bool:
        return trait in self._trait_set

    # -- pickling --------------------------------------------------------------

    def __getstate__(self):
        """Exclude the caches from pickling.

        :attr:`analysis_cache` holds compiled vector plans (NumPy
        closures) that are neither picklable nor meaningful in another
        process; a loaded module starts with a cold cache and re-derives
        identical plans.  The :attr:`operands` tuple pickles as ``None``
        and is refilled on first read, so the bytes do not depend on
        which code read it before the pickle.
        """
        state = super().__getstate__()
        if (
            isinstance(state, tuple)
            and len(state) == 2
            and isinstance(state[1], dict)
        ):
            state[1].pop("analysis_cache", None)
            state[1]["_operands_tuple"] = None
        return state

    # -- cloning ---------------------------------------------------------------

    def clone(
        self, value_map: dict[SSAValue, SSAValue] | None = None
    ) -> "Operation":
        """Deep-copy this operation.

        ``value_map`` maps old values to new ones; operands not present in
        the map are kept as-is (uses of values defined above the clone).
        The map is extended with result and block-argument mappings.
        """
        if value_map is None:
            value_map = {}
        new_operands = [value_map.get(o, o) for o in self._operands]
        op = object.__new__(type(self))
        Operation.__init__(
            op,
            operands=new_operands,
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
        )
        for old_res, new_res in zip(self.results, op.results):
            value_map[old_res] = new_res
            new_res.name_hint = old_res.name_hint
        for region in self.regions:
            op.add_region(region.clone(value_map))
        return op

    # -- verification ------------------------------------------------------------

    def verify_(self) -> None:
        """Op-specific verification hook; subclasses may override."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<op {self.name} ({len(self._operands)} operands)>"

    def __str__(self) -> str:
        from repro.ir.printer import Printer

        return Printer().print_op_to_string(self)


class UnregisteredOp(Operation):
    """Fallback for ops parsed without a registered class."""

    name = "builtin.unregistered"

    __slots__ = ("op_name",)

    def __init__(self, op_name: str, **kwargs):
        self.op_name = op_name
        super().__init__(**kwargs)


def _root_op(op: Operation) -> Operation:
    parent = op.parent_op
    while parent is not None:
        op, parent = parent, parent.parent_op
    return op


def analysis_cache(op: Operation) -> dict:
    """The analysis cache of ``op``'s root op, created on first use.

    Compiled functions and loop plans hold strong references into the
    IR, so they live on the root and die with it.  Entries are keyed by
    ``id(op)`` with ``op`` kept in the value, so an id recycled by the
    allocator can never alias a stale entry.
    """
    root = _root_op(op)
    cache = getattr(root, "analysis_cache", None)
    if cache is None:
        cache = root.analysis_cache = {}
    return cache


def invalidate_analysis(op: Operation) -> None:
    """Drop every cached analysis of ``op``'s root — compiled functions
    and loop plans alike (called by the pass manager and the pattern
    rewriter after in-place mutation)."""
    _root_op(op).analysis_cache = None


# ---------------------------------------------------------------------------
# Blocks and regions
# ---------------------------------------------------------------------------


class Block:
    """A straight-line sequence of operations with block arguments."""

    __slots__ = ("args", "ops", "parent")

    def __init__(self, arg_types: Sequence[TypeAttribute] = ()):
        self.args: list[BlockArgument] = [
            BlockArgument(t, self, i) for i, t in enumerate(arg_types)
        ]
        self.ops: list[Operation] = []
        self.parent: Region | None = None

    def add_op(self, op: Operation) -> Operation:
        """Append ``op`` to this block."""
        if op.parent is not None:
            raise IRError("operation already attached to a block")
        op.parent = self
        self.ops.append(op)
        return op

    def _anchor_index(self, anchor: Operation, anchor_index: int | None) -> int:
        """Resolve ``anchor``'s position, trusting a caller-supplied index
        when it checks out so repeated insertions avoid ``list.index``."""
        if (
            anchor_index is not None
            and 0 <= anchor_index < len(self.ops)
            and self.ops[anchor_index] is anchor
        ):
            return anchor_index
        return self.ops.index(anchor)

    def insert_op_before(
        self,
        op: Operation,
        anchor: Operation,
        *,
        anchor_index: int | None = None,
    ) -> None:
        if anchor.parent is not self:
            raise IRError("anchor operation is not in this block")
        if op.parent is not None:
            raise IRError("operation already attached to a block")
        op.parent = self
        self.ops.insert(self._anchor_index(anchor, anchor_index), op)

    def insert_op_after(
        self,
        op: Operation,
        anchor: Operation,
        *,
        anchor_index: int | None = None,
    ) -> None:
        if anchor.parent is not self:
            raise IRError("anchor operation is not in this block")
        if op.parent is not None:
            raise IRError("operation already attached to a block")
        op.parent = self
        self.ops.insert(self._anchor_index(anchor, anchor_index) + 1, op)

    def insert_ops_before(
        self, ops: Sequence[Operation], anchor: Operation
    ) -> None:
        """Insert ``ops`` (in order) before ``anchor`` with one position
        lookup for the whole batch."""
        if anchor.parent is not self:
            raise IRError("anchor operation is not in this block")
        position = self.ops.index(anchor)
        for op in ops:
            if op.parent is not None:
                raise IRError("operation already attached to a block")
            op.parent = self
        self.ops[position:position] = list(ops)

    def add_arg(self, type: TypeAttribute) -> BlockArgument:
        arg = BlockArgument(type, self, len(self.args))
        self.args.append(arg)
        return arg

    def erase_arg(self, arg: BlockArgument) -> None:
        if arg.has_uses:
            raise IRError("erasing block argument that is still in use")
        self.args.remove(arg)
        for i, a in enumerate(self.args):
            a.index = i

    @property
    def first_op(self) -> Operation | None:
        return self.ops[0] if self.ops else None

    @property
    def last_op(self) -> Operation | None:
        return self.ops[-1] if self.ops else None

    def index_of(self, op: Operation) -> int:
        return self.ops.index(op)

    def drop_all_references(self) -> None:
        for op in self.ops:
            op.drop_all_references()
            for region in op.regions:
                region.drop_all_references()

    def clone(self, value_map: dict[SSAValue, SSAValue]) -> "Block":
        new = Block([a.type for a in self.args])
        for old_arg, new_arg in zip(self.args, new.args):
            value_map[old_arg] = new_arg
            new_arg.name_hint = old_arg.name_hint
        for op in self.ops:
            new.add_op(op.clone(value_map))
        return new

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)


class Region:
    """A list of blocks owned by an operation."""

    __slots__ = ("blocks", "parent")

    def __init__(self, blocks: Sequence[Block] | None = None):
        self.blocks: list[Block] = []
        self.parent: Operation | None = None
        for block in blocks or ():
            self.add_block(block)

    @staticmethod
    def with_block(arg_types: Sequence[TypeAttribute] = ()) -> "Region":
        return Region([Block(arg_types)])

    def add_block(self, block: Block) -> Block:
        if block.parent is not None:
            raise IRError("block already attached to a region")
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def block(self) -> Block:
        """The single block of this region (raises if not single-block)."""
        if len(self.blocks) != 1:
            raise IRError(
                f"expected single-block region, found {len(self.blocks)} blocks"
            )
        return self.blocks[0]

    def drop_all_references(self) -> None:
        for block in self.blocks:
            block.drop_all_references()

    def clone(self, value_map: dict[SSAValue, SSAValue] | None = None) -> "Region":
        if value_map is None:
            value_map = {}
        region = Region()
        for block in self.blocks:
            region.add_block(block.clone(value_map))
        return region

    def walk(self) -> Iterator[Operation]:
        for block in self.blocks:
            for op in list(block.ops):
                yield from op.walk()

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)


# ---------------------------------------------------------------------------
# Dialects and context
# ---------------------------------------------------------------------------


class Dialect:
    """A named set of operation classes and (optionally) type constructors."""

    def __init__(
        self,
        name: str,
        operations: Sequence[type[Operation]] = (),
        attributes: Sequence[type[Attribute]] = (),
    ):
        self.name = name
        self.operations = list(operations)
        self.attributes = list(attributes)


class Context:
    """Registry mapping operation names to classes, used by the parser."""

    def __init__(self):
        self._op_registry: dict[str, type[Operation]] = {}
        self._dialects: dict[str, Dialect] = {}

    def register_dialect(self, dialect: Dialect) -> None:
        if dialect.name in self._dialects:
            return
        self._dialects[dialect.name] = dialect
        for op_cls in dialect.operations:
            self._op_registry[op_cls.name] = op_cls

    def get_op(self, name: str) -> type[Operation] | None:
        return self._op_registry.get(name)


_default_context: Context | None = None


def default_context() -> Context:
    """The global context with every dialect in :mod:`repro.dialects`."""
    global _default_context
    if _default_context is None:
        from repro.dialects import register_all_dialects

        _default_context = Context()
        register_all_dialects(_default_context)
    return _default_context
