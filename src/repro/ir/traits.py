"""Operation traits.

Traits are lightweight marker classes attached to op classes through the
``traits`` class attribute; passes query them with ``op.has_trait(...)``
instead of hard-coding op lists.
"""

from __future__ import annotations


class OpTrait:
    """Base class for all traits."""


class IsTerminator(OpTrait):
    """The op must be the last op of its block."""


class Pure(OpTrait):
    """No side effects: eligible for CSE and dead-code elimination."""


class ConstantLike(OpTrait):
    """The op materializes a compile-time constant."""


class IsolatedFromAbove(OpTrait):
    """Regions of the op may not reference values defined outside it."""


class SymbolOp(OpTrait):
    """The op defines a symbol via a ``sym_name`` attribute."""


class MemoryRead(OpTrait):
    """The op reads from a memory resource."""


class MemoryWrite(OpTrait):
    """The op writes to a memory resource."""
