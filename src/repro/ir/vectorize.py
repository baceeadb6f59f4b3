"""Whole-space loop execution for the interpreter.

Interpreting multi-million-trip loops op by op in Python is slow, so a
loop whose behaviour is provable runs as NumPy over its whole iteration
space at once.  :func:`_classify` is the one planner: it plans every
loop op — ``scf.for`` roots and rank-1 or rank-n ``omp.loop_nest`` —
exactly once (the plan is cached on the module root) and describes it
as one plan made of **nest levels** and **store roles**.

**Nest levels.**  A loop is a depth-d nest; a rank-1 loop with a
straight-line body is depth 1.  The root contributes one level per
``omp.loop_nest`` dimension (one for ``scf.for``), and every perfectly
nested ``scf.for`` below it one more — including a ``simdlen``
main/remainder pair, which :func:`_match_unroll_pair` proves to be one
loop re-split and stitches back into one level.  The trip structure of
every level is fixed over the space: the bounds of deeper levels may
only depend on values defined outside the nest or on IV-independent
body ops (a per-level *prelude*, evaluated only where the scalar walk
would reach it).  A depth-1 elementwise loop whose bounds are runtime
data (saxpy's loaded ``n``, SGESL's ``j = k+1, n``) is one runtime
segment, so it has no minimum-trip floor: the short tail of a
triangular launch sweep never falls off the fast tier.

**Store roles.**  Every store in the nest takes one role:

* *covers the space* (``elementwise``, ``nest_elementwise``): each
  subscript dimension is affine in one IV with a non-zero stride or
  invariant, and together they reach every level, so no cell is written
  twice.  At depth 1 the test is :func:`_loop_is_vectorizable`:
  :func:`~repro.transforms.loop_analysis.loop_carried_dependences`
  admits saxpy's in-place ``y(i) = y(i) + a*x(i)``, and several stores
  to one buffer may write disjoint lattices (unrolled clones).  Deeper
  nests load no buffer they store.
* *reduces* (``memref_reduction``, ``nest_reduction``): ``P[idx] =
  combine(P[idx], expr)`` for an add/mul/min/max combiner whose load and
  store subscripts are provably equal (SSA-identical, or structurally
  equal chains such as the two loads of ``bins(i)`` in ``h(bins(i)) =
  h(bins(i)) + w(i)``), with nothing else touching ``P``.  In a deeper
  nest the cell is invariant along the innermost level and covers every
  outer one, so each cell folds one row.  At depth 1 the cell may be
  invariant (one chain), periodic (the round-robin ``(i ...) mod N``) or
  indirect, and colliding cells fold in iteration order.
* *scatters* (``scatter_store``, ``nest_scatter``): a subscript is
  *indirect* — loaded from an index array nothing in the nest stores
  to.  Whole-space fancy assignment does not promise scalar order for
  duplicate cells, so every store of the nest is deferred and applied
  only after a runtime **injectivity proof** of each subscript tuple
  that no affine dimensions already cover: ``monotone`` (O(n)), then
  ``unique`` (O(n log n)); several varying columns are lexsorted and
  compared pairwise.  A failed proof logs a reasoned bail and reruns
  the loop on the scalar tier, with nothing mutated.

``scf.for`` loops carrying ``iter_args`` fold ``combine(%acc, %expr)``
per carried value (``iter_reduction``).  Imperfect outer/inner pairs
whose inner trip count varies with the outer IV — triangular ``j =
i+1, n``, or CSR ``row_ptr(i) .. row_ptr(i+1)-1`` with the offsets
runtime-proved monotone — are ragged, not rectangular:
:class:`_SegmentedNest` flattens them with prefix sums
(``nest_segmented``).

Every rectangular plan runs through :func:`_run_nest`, the ragged one
through :func:`_run_segmented`.  Both charge interpreter steps and fire
the loop observer exactly as the scalar nested walk would (batched by
``count``; modelled cycles are integer-valued floats, so sums stay
exact), apply deferred stores with :func:`_apply_stores` and fold with
:func:`_ordered_fold`.  A loop no plan fits logs its reason on
``repro.ir.vectorize`` at DEBUG and runs scalar.

Float32 ordering note: per-element semantics are identical to the scalar
interpreter — NumPy applies the same operation per lane, and no
reassociation occurs.  For ordered reductions (add, mul) the fast path
uses ``ufunc.accumulate``/``ufunc.at``, which combine strictly in
iteration order per accumulator cell, so float32 results are bit-identical
to the scalar walk (pairwise-summation tricks like ``np.sum`` are *not*
used).  min/max are combined with ``np.minimum``/``np.maximum``, which
are order-insensitive for finite values; inputs containing NaN bail to
the scalar path (Python ``min``/``max`` ignore a NaN rhs where NumPy
propagates it), leaving only the sign of zero on min/max ties as a
potential bit difference.  Integer reductions accumulate in int64 (the
scalar engine is unbounded).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ir.core import (
    Block,
    Operation,
    OpResult,
    SSAValue,
    analysis_cache,
    semantic_attributes,
)
from repro.ir.core import invalidate_analysis  # noqa: F401 - public name

#: Bail-out diagnostics: enable with
#: ``logging.getLogger("repro.ir.vectorize").setLevel(logging.DEBUG)`` to
#: see why a hot loop fell back to the scalar tier.
logger = logging.getLogger("repro.ir.vectorize")

#: ops that are safe no-ops inside a vectorized body
_SKIPPED = {"hls.pipeline", "hls.unroll", "scf.yield", "omp.yield"}

_BINOPS = {
    "arith.addi": np.add, "arith.subi": np.subtract,
    "arith.muli": np.multiply,
    "arith.addf": np.add, "arith.subf": np.subtract,
    "arith.mulf": np.multiply, "arith.divf": np.divide,
    "arith.andi": np.bitwise_and, "arith.ori": np.bitwise_or,
    "arith.xori": np.bitwise_xor,
    "arith.minimumf": np.minimum, "arith.maximumf": np.maximum,
    "arith.minsi": np.minimum, "arith.maxsi": np.maximum,
}
_CMPS = {
    "eq": np.equal, "ne": np.not_equal,
    "slt": np.less, "sle": np.less_equal,
    "sgt": np.greater, "sge": np.greater_equal,
    "olt": np.less, "ole": np.less_equal,
    "ogt": np.greater, "oge": np.greater_equal,
}
_MATH = {
    "math.sqrt": np.sqrt, "math.absf": np.abs, "math.exp": np.exp,
    "math.log": np.log, "math.sin": np.sin, "math.cos": np.cos,
}

_SUPPORTED = (
    set(_BINOPS)
    | set(_MATH)
    | _SKIPPED
    | {
        "arith.constant", "arith.cmpi", "arith.cmpf", "arith.select",
        "arith.index_cast", "arith.extsi", "arith.trunci",
        "arith.sitofp", "arith.fptosi", "arith.extf", "arith.truncf",
        "arith.divsi", "arith.remsi",
        "memref.load", "memref.store",
    }
)

#: reduction combiners and their NumPy ufuncs
_REDUCERS = {
    "arith.addf": np.add, "arith.addi": np.add,
    "arith.mulf": np.multiply, "arith.muli": np.multiply,
    "arith.minimumf": np.minimum, "arith.minsi": np.minimum,
    "arith.maximumf": np.maximum, "arith.maxsi": np.maximum,
}

#: below this trip count the scalar engines win on constant factors
_MIN_TRIPS = 64

#: rank-n nests above this many total iterations are evaluated one
#: outermost slice at a time to bound the whole-space temporaries
_MAX_NEST_ELEMS = 1 << 22


def _trunc_divide(a, b):
    """``arith.divsi`` with the scalar engine's exact semantics:
    ``int(math.trunc(a / b))`` — truncating division *via float64*,
    including its precision behaviour."""
    return np.trunc(np.divide(a, b)).astype(np.int64)


def _body_is_vectorizable(body: Block) -> bool:
    for op in body.ops:
        if op.regions:
            return False
        if op.name not in _SUPPORTED:
            return False
    return True


def _is_gather_index(idx: SSAValue, iv: SSAValue, body: Block) -> bool:
    """True when ``idx`` is an indirect subscript: the value of a load
    from an index array that nothing in the body stores to, subscripted
    affinely itself — SpMV's ``x(col_idx(jj))`` shape.  Safe for *loads*
    only (a scatter through such an index could collide)."""
    from repro.transforms.loop_analysis import classify_index, root_memref

    if not isinstance(idx, OpResult):
        return False
    source = idx.op
    if source.name != "memref.load" or source.parent is not body:
        return False
    root = root_memref(source.operands[0])
    for op in body.ops:
        if op.name == "memref.store" and root_memref(op.operands[1]) is root:
            return False
    return all(
        classify_index(sub, iv, body).kind in ("affine", "invariant")
        for sub in source.operands[1:]
    )


def _load_index_ok(idx: SSAValue, iv: SSAValue, body: Block) -> bool:
    from repro.transforms.loop_analysis import classify_index

    # ``indirect`` covers the full gather chain (cast/addi/subi/muli
    # around a load from an un-stored index array) — SpMV's
    # ``x(col_idx(jj) - 1)`` wraps the loaded index in a Fortran 1-based
    # adjustment, which ``_is_gather_index`` alone would reject.
    if classify_index(idx, iv, body).kind in (
        "affine", "invariant", "indirect",
    ):
        return True
    return _is_gather_index(idx, iv, body)


def _stores_conflict(
    first: Operation, second: Operation, iv: SSAValue, body: Block, step
) -> bool:
    """True when two stores to one buffer might touch the same cell in
    *different* iterations — whole-space evaluation runs each store over
    the full index vector in op order, which would reorder such writes.

    Safe cases: identical subscripts in every dim (per-cell op order is
    preserved), or some dim on provably disjoint affine lattices (the
    unroll-by-F clones write interleaved strides and never collide).
    """
    from repro.transforms.loop_analysis import _exact_offset, classify_index

    if len(first.operands) != len(second.operands):
        return True
    for wa, wb in zip(first.operands[2:], second.operands[2:]):
        if wa is wb:
            continue  # same subscript value: same cell in this dim
        pa = classify_index(wa, iv, body)
        pb = classify_index(wb, iv, body)
        if (
            pa.kind == "affine"
            and pb.kind == "affine"
            and pa.parameter == pb.parameter
            and _exact_offset(wa, iv, body)
            and _exact_offset(wb, iv, body)
        ):
            delta = pa.offset - pb.offset
            if delta == 0:
                continue  # same cell in this dim every iteration
            stride = pa.parameter * (step or 1)
            if step is not None and delta % stride != 0:
                return False  # disjoint lattices: never the same cell
            return True  # collide after |delta/stride| iterations
        return True  # incomparable subscripts: assume conflict
    return False


def _loop_is_vectorizable(loop: Operation) -> bool:
    from repro.transforms.loop_analysis import (
        classify_index,
        loop_carried_dependences,
        root_memref,
        static_loop_step,
    )

    body = loop.regions[0].block
    if len(body.args) != 1 or not _body_is_vectorizable(body):
        return False
    if loop_carried_dependences(loop):
        return False
    iv = body.args[0]
    stores_by_root: dict[int, list[Operation]] = {}
    for op in body.ops:
        if op.name == "memref.store":
            key = id(root_memref(op.operands[1]))
            stores_by_root.setdefault(key, []).append(op)
    # Dependence analysis only relates stores to loads; store/store
    # overlap across iterations must be excluded separately.
    step_const = static_loop_step(loop)
    for stores in stores_by_root.values():
        for i, first in enumerate(stores):
            for other in stores[i + 1 :]:
                if _stores_conflict(first, other, iv, body, step_const):
                    return False
    # All store subscripts must be injective: every dimension affine
    # (non-zero stride) or loop-invariant, with at least one affine
    # dimension — the 2-D array row/column stores of the gallery nests.
    for op in body.ops:
        if op.name == "memref.store":
            if len(op.operands) == 2:
                return False  # rank-0 store: same cell every iteration
            affine_dims = 0
            for idx in op.operands[2:]:
                pattern = classify_index(idx, iv, body)
                if pattern.kind == "affine" and pattern.parameter != 0:
                    affine_dims += 1
                elif pattern.kind != "invariant":
                    return False
            if affine_dims == 0:
                return False  # same cell every iteration
        elif op.name == "memref.load":
            for idx in op.operands[1:]:
                if not _load_index_ok(idx, iv, body):
                    return False
    return True


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _IterReduction:
    """Per-iter_arg combiner plan: (combiner name, expr value, position)."""

    combiners: tuple[tuple[str, SSAValue, int], ...]
    skip: frozenset[int]  # op ids excluded from elementwise evaluation


@dataclass(frozen=True)
class _MemrefReduction:
    """``P[idx] = combine(P[idx], expr)`` accumulator plan."""

    op_name: str
    acc: SSAValue  # the memref operand of the accumulator load
    indices: tuple[SSAValue, ...]
    expr: SSAValue
    skip: frozenset[int]  # ids of the load/combiner/store


@dataclass(frozen=True)
class _ChainLevel:
    """One extra nest dimension contributed by a chain member.

    ``bounds`` is the ``(lb, exclusive ub, step)`` value triple of the
    *dimension* (for a stitched main/remainder pair: the main loop's lb,
    the remainder's ub and step — together they span the original,
    un-unrolled range).  ``stitch`` is None for a plain ``scf.for``
    member, else ``(main_for, rem_for, main_opcount, rem_opcount)`` for
    a proven ``simdlen`` main/remainder pair whose step/observer
    accounting must charge *both* loops like the scalar walk does.
    """

    bounds: tuple[SSAValue, SSAValue, SSAValue]
    stitch: tuple[Operation, Operation, int, int] | None = None


@dataclass(frozen=True)
class _NestScatter:
    """Deferred stores of a nest, applied by :func:`_apply_stores`.

    ``proof_dims`` holds, per store, the subscript dimensions whose
    values join the runtime injectivity proof over the flattened space —
    empty when affine dimensions already cover every nest level.  All
    stores (even purely affine ones) are deferred, so a failed proof
    leaves nothing mutated.
    """

    stores: tuple[Operation, ...]  # in program op order
    proof_dims: tuple[tuple[int, ...], ...]
    skip: frozenset[int]


@dataclass(frozen=True)
class _NestPlan:
    """Whole-space plan for a rectangular depth-d loop nest.

    A nest is rooted at a rank-n ``omp.loop_nest`` (``root_dims == n``)
    or at one ``scf.for`` (``root_dims == 1``); a rank-1 loop with a
    straight-line body is the depth-1 case.  The nest may extend through
    perfectly nested ``scf.for`` members (``chain``), each contributing
    one level whose bounds are loop-invariant — including a
    ``simdlen``-unrolled main/remainder pair re-stitched into a single
    level (see :class:`_ChainLevel`).

    ``charge_specs`` reproduce the scalar walk's step accounting: each
    ``(dims, ops)`` entry charges ``prod(trips[:dims]) * ops`` steps —
    one step per op visit per execution of that block.  ``observer_specs``
    fire the interpreter's loop observer for each chain member exactly as
    often as the scalar walk would (cycle accounting); stitched levels
    instead charge/observe through their ``_ChainLevel.stitch`` info.
    ``prelude`` holds, per chain member, the IV-independent body ops its
    bounds may depend on; each level is pre-evaluated (step-neutral)
    only when its containing body would execute under the scalar walk,
    so the iteration space can be sized before the vector program runs
    without ever evaluating an expression the scalar tier would not
    reach.  The store roles are ``reduction`` (a fold along the
    innermost level, or of colliding cells at depth 1), ``scatter``
    (deferred stores behind an injectivity proof), or neither (the
    compiled program stores directly).  ``span`` marks a depth-1 loop
    whose bounds are runtime data: one runtime segment, evaluated with
    no minimum-trip floor.
    """

    ivs: tuple[SSAValue, ...]  # one per dimension, outermost first
    root_dims: int
    chain: tuple[_ChainLevel, ...]  # levels below the root
    charge_specs: tuple[tuple[int, int], ...]
    observer_specs: tuple[tuple[int, Operation], ...]
    prelude: tuple[tuple[Operation, ...], ...]  # one entry per chain member
    reduction: _MemrefReduction | None  # innermost-dim reduction fold
    scatter: _NestScatter | None = None  # deferred indirect stores
    span: bool = False  # runtime-bounded depth-1 loop: no trip floor


def _analyze_iter_reduction(loop: Operation) -> _IterReduction | None:
    body = loop.regions[0].block
    if len(body.args) < 2:
        return None
    last = body.ops[-1] if body.ops else None
    if last is None or last.name != "scf.yield":
        return None
    if len(last.operands) != len(body.args) - 1:
        return None
    iv = body.args[0]
    combiners: list[tuple[str, SSAValue, int]] = []
    combiner_ids: set[int] = set()
    for position, acc in enumerate(body.args[1:]):
        if len(acc.uses) != 1:
            return None
        combiner = acc.uses[0].operation
        if combiner.parent is not body or combiner.name not in _REDUCERS:
            return None
        if len(combiner.results) != 1 or len(combiner.operands) != 2:
            return None
        result = combiner.results[0]
        if len(result.uses) != 1:
            return None
        yield_use = result.uses[0]
        if yield_use.operation is not last or yield_use.index != position:
            return None
        lhs, rhs = combiner.operands
        expr = rhs if lhs is acc else lhs if rhs is acc else None
        if expr is None:
            return None
        combiners.append((combiner.name, expr, position))
        combiner_ids.add(id(combiner))
    for op in body.ops:
        if id(op) in combiner_ids or op is last:
            continue
        if op.regions or op.name not in _SUPPORTED:
            return None
        if op.name == "memref.store":
            return None
        if op.name == "memref.load":
            for idx in op.operands[1:]:
                if not _load_index_ok(idx, iv, body):
                    return None
    return _IterReduction(tuple(combiners), frozenset(combiner_ids))


def _analyze_memref_reduction_body(
    body: Block, iv: SSAValue
) -> _MemrefReduction | None:
    """The ``P[idx] = combine(P[idx], expr)`` accumulator shape in
    ``body``, reduced along ``iv`` — shared between rank-1 loops (``iv``
    is the loop IV) and rank-n nests (``iv`` is the innermost dim)."""
    from repro.transforms.loop_analysis import (
        classify_index,
        index_values_equal,
        root_memref,
    )

    for op in body.ops:
        if op.regions or op.name not in _SUPPORTED:
            return None
    stores = [op for op in body.ops if op.name == "memref.store"]
    if len(stores) != 1:
        return None
    store = stores[0]
    stored = store.operands[0]
    if not isinstance(stored, OpResult):
        return None
    combiner = stored.op
    if combiner.parent is not body or combiner.name not in _REDUCERS:
        return None
    if len(stored.uses) != 1:  # combiner feeds the store and nothing else
        return None
    acc_root = root_memref(store.operands[1])
    load = None
    expr = None
    for candidate, other in (
        (combiner.operands[0], combiner.operands[1]),
        (combiner.operands[1], combiner.operands[0]),
    ):
        if not isinstance(candidate, OpResult):
            continue
        source = candidate.op
        if (
            source.name == "memref.load"
            and source.parent is body
            and root_memref(source.operands[0]) is acc_root
            and len(candidate.uses) == 1
            and len(source.operands) - 1 == len(store.operands) - 2
            # Provably equal subscripts: SSA-identical, or structurally
            # equal chains (two separate loads of the same index-array
            # cell — the lowered ``h(bins(i)) = h(bins(i)) + ...``).
            and all(
                index_values_equal(a, b, body)
                for a, b in zip(source.operands[1:], store.operands[2:])
            )
        ):
            load, expr = source, other
            break
    if load is None:
        return None
    for op in body.ops:
        if op is load:
            continue
        if op.name == "memref.load" and root_memref(op.operands[0]) is acc_root:
            return None  # accumulator read outside the combiner chain
        if op.name == "memref.load":
            for idx in op.operands[1:]:
                if not _load_index_ok(idx, iv, body):
                    return None
    return _MemrefReduction(
        combiner.name,
        load.operands[0],
        tuple(load.operands[1:]),
        expr,
        frozenset({id(load), id(combiner), id(store)}),
    )


# ---------------------------------------------------------------------------
# The planner: cached per loop op
# ---------------------------------------------------------------------------
#
# Plans live in the root op's ``analysis_cache`` (see
# :func:`repro.ir.core.analysis_cache`), beside the block-JIT's compiled
# functions: they hold strong references into the module, so they live
# exactly as long as the module itself.  A process that compiles and
# drops many programs leaks nothing.


def _classify(loop: Operation) -> tuple:
    """Plan ``loop`` once: the cached ``(loop, mode, plan, program)``.

    ``scf.for`` loops carrying iter_args are ``iter_reduction``
    candidates; every other loop op is planned as a depth-d nest by
    :func:`_nest_vector_plan`, with imperfect outer/inner pairs getting
    a second chance as a ragged :class:`_SegmentedNest`.  A loop no plan
    fits is logged with its reason at DEBUG.
    """
    key = id(loop)
    cache = analysis_cache(loop)
    cached = cache.get(key)
    if cached is not None and cached[0] is loop:
        return cached
    mode = plan = program = reason = bail_kind = None
    if len(loop.regions) >= 1 and len(loop.regions[0].blocks) == 1:
        body = loop.regions[0].blocks[0]
        if loop.name == "scf.for" and len(body.args) != 1:
            plan = _analyze_iter_reduction(loop)
            if plan is not None:
                mode = "iter_reduction"
                # the induction variable is the sole iv slot (iter_args
                # feed skipped combiners, never the program)
                program = _compile_vector_body(
                    list(body.ops), plan.skip, [body.args[0]]
                )
        else:
            mode, plan, program, reason = _nest_vector_plan(loop)
            if mode is None:
                seg = _segmented_nest_plan(loop)
                if seg[0] is not None:
                    mode, plan, program, reason = seg
                elif seg[3] is not None:
                    bail_kind, reason = "segmented nest", seg[3]
    cached = (loop, mode, plan, program)
    if mode is None and logger.isEnabledFor(logging.DEBUG):
        if reason is not None:
            logger.debug(
                "scalar bail-out: %s loop not vectorized: %s",
                bail_kind or f"rank-{_chain_depth(loop)} {loop.name} nest",
                reason,
            )
        else:
            logger.debug(
                "scalar bail-out: %s loop (%d body ops) has no "
                "elementwise/reduction/scatter classification",
                loop.name,
                len(loop.regions[0].blocks[0].ops) if loop.regions else 0,
            )
    cache[key] = cached
    return cached


def _classify_guarded(interp, loop: Operation) -> tuple:
    """Classification that degrades instead of crashing.

    The planner is side-effect free, so an engine bug inside the
    vectorizer's analysis must never take down a run the scalar tier
    could complete: the crash is recorded as a ``vectorized -> scalar``
    degradation (once — the cache is poisoned with a no-mode entry) and
    the caller takes its normal scalar bail path.  The cache is consulted
    here too, so the poisoned entry short-circuits before the crashed
    planner runs again.
    """
    cache = analysis_cache(loop)
    cached = cache.get(id(loop))
    if cached is not None and cached[0] is loop:
        return cached
    try:
        return _classify(loop)
    except Exception as error:  # noqa: BLE001 - degrade, never crash
        cached = (loop, None, None, None)
        cache[id(loop)] = cached
        from repro.reliability.report import record_degradation

        record_degradation(
            interp,
            "vectorized",
            "scalar",
            f"{loop.name} classification",
            error,
        )
        return cached


# ---------------------------------------------------------------------------
# Nest levels and store roles
# ---------------------------------------------------------------------------


def _chain_depth(loop: Operation) -> int:
    """Depth of the perfect loop chain rooted at ``loop`` (diagnostics)."""
    depth = len(loop.regions[0].block.args) if loop.name == "omp.loop_nest" else 1
    body = loop.regions[0].block
    while True:
        nested = [op for op in body.ops if op.name == "scf.for"]
        if len(nested) != 1:
            return depth
        depth += 1
        body = nested[0].regions[0].block


def _defined_outside(value: SSAValue, root_body: Block) -> bool:
    """True when ``value`` is defined outside the nest entirely."""
    from repro.ir.core import BlockArgument

    if isinstance(value, BlockArgument):
        block = value.block
        while block is not None:
            if block is root_body:
                return False
            parent_op = block.parent.parent if block.parent else None
            if parent_op is None:
                return True
            block = parent_op.parent
        return True
    if isinstance(value, OpResult):
        from repro.transforms.loop_analysis import _defined_inside

        return not _defined_inside(value.op, root_body)
    return False


def _const_int(value: SSAValue) -> int | None:
    from repro.ir.attributes import IntegerAttr

    if isinstance(value, OpResult) and value.op.name == "arith.constant":
        attr = value.op.attributes.get("value")
        if isinstance(attr, IntegerAttr):
            return attr.value
    return None


def _attr_int(attr) -> int | None:
    from repro.ir.attributes import IntegerAttr

    return attr.value if isinstance(attr, IntegerAttr) else None


def _match_unroll_pair(main: Operation, rem: Operation) -> int | None:
    """Prove two sibling loops are the ``simdlen``-unrolled
    main/remainder pair ``lower-omp-to-hls`` emits, returning the unroll
    factor, or None.

    The pair is *semantically* the plain loop ``for iv in [main.lb,
    rem.ub, rem.step)`` running the remainder body.  The proof cannot be
    a linear shape match against the emitter's output: ``canonicalize``
    runs afterwards and constant-folds the per-lane IV derivations,
    CSE's cloned constants, and shares IV-independent subexpressions
    across lanes.  Instead the proof is over the dataflow:

    * ``rem.lb`` is SSA-identical to ``main.ub``;
    * ``main.step`` is ``F * step`` of the remainder step, either as
      ``muli(step, F)`` or as a folded constant multiple;
    * ``main.ub`` is ``lb + (ub - lb) // chunk * chunk`` over the same
      SSA values (so the main loop never overruns the split point);
    * the main body's stores are exactly F lanes of the remainder
      body's stores, in lane order, where every store operand is
      recursively equivalent to its remainder counterpart under the
      lane-k binding ``rem_iv == main_iv + k*step`` — constants compare
      by value (CSE/cloning makes them distinct SSA values), everything
      else by matching op name/attrs/operands;
    * no buffer both loaded and stored in either body, so lane-order
      sharing of loads can never observe a value an earlier lane's
      store would have changed.
    """
    from repro.transforms.loop_analysis import root_memref

    for member in (main, rem):
        if member.results or len(member.regions[0].blocks) != 1:
            return None
        if len(member.regions[0].block.args) != 1:
            return None
    main_body = main.regions[0].block
    rem_body = rem.regions[0].block
    lb, main_ub, chunk = main.operands[:3]
    rem_lb, ub_ex, step = rem.operands[:3]
    if rem_lb is not main_ub:
        return None
    step_c = _const_int(step)
    factor: int | None = None
    if isinstance(chunk, OpResult) and chunk.op.name == "arith.muli":
        c_lhs, c_rhs = chunk.op.operands
        factor = _const_int(c_rhs) if c_lhs is step else (
            _const_int(c_lhs) if c_rhs is step else None
        )
    if factor is None:
        # canonicalize folds muli(const_step, const_F) to one constant
        chunk_c = _const_int(chunk)
        if chunk_c is not None and step_c not in (None, 0):
            factor, rem_f = divmod(chunk_c, step_c)
            if rem_f:
                factor = None
    if factor is None or factor < 2:
        return None
    # main_ub = addi(lb, muli(divsi(subi(ub_ex, lb), chunk), chunk)):
    # guarantees (main_ub - lb) % chunk == 0, so the chunked main loop
    # covers [lb, main_ub) exactly and never overruns the split point.
    if not (isinstance(main_ub, OpResult) and main_ub.op.name == "arith.addi"):
        return None
    mu_lhs, main_len = main_ub.op.operands
    if mu_lhs is not lb:
        return None
    if not (
        isinstance(main_len, OpResult) and main_len.op.name == "arith.muli"
    ):
        return None
    trips_v, chunk_v = main_len.op.operands
    if chunk_v is not chunk:
        return None
    if not (isinstance(trips_v, OpResult) and trips_v.op.name == "arith.divsi"):
        return None
    span_v, chunk_v2 = trips_v.op.operands
    if chunk_v2 is not chunk:
        return None
    if not (isinstance(span_v, OpResult) and span_v.op.name == "arith.subi"):
        return None
    if span_v.op.operands[0] is not ub_ex or span_v.op.operands[1] is not lb:
        return None

    # -- body dataflow equivalence ----------------------------------------
    main_iv, rem_iv = main_body.args[0], rem_body.args[0]
    rem_ops = list(rem_body.ops)
    main_ops = list(main_body.ops)
    for op in rem_ops + main_ops:
        if op.regions:
            return None
        if op.name == "hls.unroll":
            declared = _attr_int(op.attributes.get("factor"))
            if declared is not None and declared != factor:
                return None
        elif not (
            op.name in ("memref.load", "memref.store", "scf.yield")
            or op.name.startswith(("arith.", "math.", "hls."))
        ):
            return None
    # Lane-order execution of shared loads is only equivalent to the
    # plain sequential loop when no store can invalidate a load another
    # lane reuses — require load/store buffer roots to be disjoint.
    for ops in (main_ops, rem_ops):
        store_roots = {
            id(root_memref(op.operands[1]))
            for op in ops
            if op.name == "memref.store"
        }
        for op in ops:
            if op.name == "memref.load":
                if id(root_memref(op.operands[0])) in store_roots:
                    return None
    rem_stores = [op for op in rem_ops if op.name == "memref.store"]
    main_stores = [op for op in main_ops if op.name == "memref.store"]
    if not rem_stores or len(main_stores) != factor * len(rem_stores):
        return None
    rem_op_ids = {id(op) for op in rem_ops}

    def lane_iv(m_val: SSAValue, k: int) -> bool:
        if k == 0 and m_val is main_iv:
            return True
        if not (isinstance(m_val, OpResult) and m_val.op.name == "arith.addi"):
            return False
        a, b = m_val.op.operands
        off = b if a is main_iv else (a if b is main_iv else None)
        if off is None:
            return False
        off_c = _const_int(off)
        if off_c is not None and step_c is not None:
            return off_c == k * step_c
        if isinstance(off, OpResult) and off.op.name == "arith.muli":
            x, y = off.op.operands
            return (x is step and _const_int(y) == k) or (
                y is step and _const_int(x) == k
            )
        return False

    def equiv(
        m_val: SSAValue,
        r_val: SSAValue,
        k: int,
        memo: dict[tuple[int, int], bool],
    ) -> bool:
        if r_val is rem_iv:
            return lane_iv(m_val, k)
        key = (id(m_val), id(r_val))
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(r_val, OpResult) and id(r_val.op) in rem_op_ids:
            r_op = r_val.op
            ok = False
            if isinstance(m_val, OpResult):
                m_op = m_val.op
                ok = (
                    m_op.name == r_op.name
                    and semantic_attributes(m_op.attributes)
                    == semantic_attributes(r_op.attributes)
                    and m_val.index == r_val.index
                    and m_val.type == r_val.type
                    and len(m_op.operands) == len(r_op.operands)
                    and not m_op.regions
                    and all(
                        equiv(mo, ro, k, memo)
                        for mo, ro in zip(m_op.operands, r_op.operands)
                    )
                )
        else:
            # loop-invariant: same SSA value, or value-equal constants
            # (cloning and CSE leave equal constants as distinct values)
            ok = m_val is r_val or (
                isinstance(m_val, OpResult)
                and isinstance(r_val, OpResult)
                and m_val.op.name == r_val.op.name == "arith.constant"
                and semantic_attributes(m_val.op.attributes)
                == semantic_attributes(r_val.op.attributes)
                and m_val.type == r_val.type
            )
        memo[key] = ok
        return ok

    width = len(rem_stores)
    for k in range(factor):
        memo: dict[tuple[int, int], bool] = {}
        lane = main_stores[k * width : (k + 1) * width]
        for m_store, r_store in zip(lane, rem_stores):
            if (
                len(m_store.operands) != len(r_store.operands)
                or semantic_attributes(m_store.attributes)
                != semantic_attributes(r_store.attributes)
            ):
                return None
            if not all(
                equiv(mo, ro, k, memo)
                for mo, ro in zip(m_store.operands, r_store.operands)
            ):
                return None
    return factor


def _nest_vector_plan(loop: Operation):
    """Plan ``loop`` — an ``scf.for`` or ``omp.loop_nest`` carrying no
    iter_args — as a depth-d nest: walk its levels, then give every
    store a role (see the module docstring).

    Returns ``(mode, plan, program, reason)``.  Depth-1 modes are
    ``elementwise`` (``nest_segmented`` when the bounds are runtime
    data), ``memref_reduction`` and ``scatter_store``; deeper nests are
    ``nest_elementwise``, ``nest_reduction`` or ``nest_scatter``.  A
    None mode comes with the reason for the DEBUG log, or with None when
    the loop is no whole-space shape at all.
    """
    from repro.transforms.loop_analysis import (
        bound_is_runtime,
        classify_index,
        root_memref,
    )

    root_body = loop.regions[0].block
    if loop.name == "omp.loop_nest":
        ivs = list(root_body.args)
    else:
        ivs = [root_body.args[0]]
    root_dims = len(ivs)

    # -- levels: walk the perfect chain ---------------------------------------
    chain: list[_ChainLevel] = []
    charge_specs: list[tuple[int, int]] = []
    observer_specs: list[tuple[int, Operation]] = []
    # non-loop body ops above the innermost, one entry per chain member
    extras_by_level: list[list[Operation]] = []
    body = root_body
    innermost = None
    while innermost is None:
        nested = [op for op in body.ops if op.name == "scf.for"]
        if not nested:
            innermost = body
            charge_specs.append((len(ivs), max(1, len(body.ops))))
            break
        stitch_factor = None
        if len(nested) == 2:
            stitch_factor = _match_unroll_pair(nested[0], nested[1])
        if len(nested) > 1 and stitch_factor is None:
            return None, None, None, "body contains multiple nested loops"
        if stitch_factor is not None:
            main_for, rem_for = nested
            rem_body = rem_for.regions[0].block
            if any(op.name == "scf.for" for op in rem_body.ops):
                return None, None, None, (
                    "stitched main/remainder pair is not innermost"
                )
            level_loops = (main_for, rem_for)
        else:
            inner_for = nested[0]
            if inner_for.results or len(inner_for.regions[0].blocks) != 1:
                return None, None, None, "nested loop carries iter_args"
            inner_body = inner_for.regions[0].block
            if len(inner_body.args) != 1:
                return None, None, None, "nested loop carries iter_args"
            level_loops = (inner_for,)
        level_extras: list[Operation] = []
        for op in body.ops:
            if op in level_loops:
                continue
            if op.regions:
                return None, None, None, "body has nested regions or unsupported ops"
            if op.name not in _SUPPORTED:
                return None, None, None, "body has nested regions or unsupported ops"
            if op.name == "memref.store":
                return None, None, None, "store outside the innermost loop body"
            if op.name not in _SKIPPED:
                level_extras.append(op)
        extras_by_level.append(level_extras)
        charge_specs.append((len(ivs), max(1, len(body.ops))))
        if stitch_factor is not None:
            # The proven pair is semantically one loop over
            # [main.lb, rem.ub, rem.step) running the remainder body;
            # steps/cycles still charge both loops via the stitch info.
            chain.append(_ChainLevel(
                bounds=(
                    main_for.operands[0],
                    rem_for.operands[1],
                    rem_for.operands[2],
                ),
                stitch=(
                    main_for,
                    rem_for,
                    max(1, len(main_for.regions[0].block.ops)),
                    max(1, len(rem_body.ops)),
                ),
            ))
            ivs.append(rem_body.args[0])
            innermost = rem_body
            break
        observer_specs.append((len(ivs), inner_for))
        chain.append(_ChainLevel(bounds=tuple(inner_for.operands[:3])))
        ivs.append(inner_body.args[0])
        body = inner_body

    rank = len(ivs)
    if not _body_is_vectorizable(innermost):
        return None, None, None, "body has nested regions or unsupported ops"

    # -- collect memory accesses over the whole nest ---------------------------
    extra_ops = [op for level in extras_by_level for op in level]
    loaded: set[int] = set()
    store_counts: dict[int, int] = {}
    stores = []
    loads = []
    for op in [*extra_ops, *innermost.ops]:
        if op.name == "memref.store":
            key = id(root_memref(op.operands[1]))
            store_counts[key] = store_counts.get(key, 0) + 1
            stores.append(op)
        elif op.name == "memref.load":
            loaded.add(id(root_memref(op.operands[0])))
            loads.append(op)

    # -- chain-loop bounds must be invariant (IV-independent prelude) ----------
    # One prelude per chain level: a level's ops are only pre-evaluated
    # at runtime when its containing body would actually execute under
    # the scalar walk (a faulting bound expression below a zero-trip
    # dim must stay unevaluated, exactly like the scalar tier).
    independent: set[SSAValue] = set()
    prelude_levels: list[tuple[Operation, ...]] = []
    for level_extras in extras_by_level:
        level_prelude: list[Operation] = []
        for op in level_extras:
            if not all(
                _defined_outside(v, root_body) or v in independent
                for v in op.operands
            ):
                continue  # varies with a nest IV: evaluated by the program
            if op.name == "memref.load" and id(
                root_memref(op.operands[0])
            ) in store_counts:
                continue  # value may change as the nest runs
            independent.update(op.results)
            level_prelude.append(op)
        prelude_levels.append(tuple(level_prelude))
    for level in chain:
        level_bounds = list(level.bounds)
        if level.stitch is not None:
            # the stitched runtime also reads both loops' own triples
            level_bounds += list(level.stitch[0].operands[:3])
            level_bounds += list(level.stitch[1].operands[:3])
        for bound in level_bounds:
            if not (
                _defined_outside(bound, root_body) or bound in independent
            ):
                return None, None, None, (
                    "nested loop bounds vary with an outer induction "
                    "variable"
                )

    def load_ok(idx: SSAValue) -> bool:
        # ``indirect`` is safe for loads: gathers cannot collide, and the
        # classification already proves the index array is never stored
        # anywhere in the nest.
        if rank == 1:
            return _load_index_ok(idx, ivs[0], root_body)
        return all(
            classify_index(idx, iv, root_body).kind
            in ("affine", "invariant", "indirect")
            for iv in ivs
        )

    def loads_reason(skip: frozenset[int]) -> str | None:
        for op in loads:
            if id(op) not in skip and not all(
                load_ok(idx) for idx in op.operands[1:]
            ):
                return "load subscript is not affine/invariant/gather"
        return None

    program_ops = [*extra_ops, *innermost.ops]

    def planned(mode, reduction=None, scatter=None, span=False):
        plan = _NestPlan(
            ivs=tuple(ivs),
            root_dims=root_dims,
            chain=tuple(chain),
            charge_specs=tuple(charge_specs),
            observer_specs=tuple(observer_specs),
            prelude=tuple(prelude_levels),
            reduction=reduction,
            scatter=scatter,
            span=span,
        )
        role = reduction or scatter
        skip = role.skip if role is not None else frozenset()
        return mode, plan, _compile_vector_body(program_ops, skip, ivs), None

    # -- depth 1: the in-place elementwise test comes first --------------------
    if rank == 1 and _loop_is_vectorizable(loop):
        # a runtime-bounded loop is one runtime segment: no trip floor
        span = bound_is_runtime(loop.operands[0]) or bound_is_runtime(
            loop.operands[1]
        )
        return planned("nest_segmented" if span else "elementwise", span=span)

    # -- reduces: P[f(outer ivs)] = P[...] (+) expr ----------------------------
    reduction = _analyze_memref_reduction_body(innermost, ivs[-1])
    if reduction is not None:
        acc_root = root_memref(reduction.acc)
        covered: set[int] = set()
        # at depth 1 any cell folds (colliding ones in iteration order);
        # deeper, each cell must be one row along the innermost level
        for idx in reduction.indices if rank > 1 else ():
            affine_dim: int | None = None
            for dim, iv in enumerate(ivs):
                pattern = classify_index(idx, iv, root_body)
                if pattern.kind == "affine" and pattern.parameter != 0:
                    if dim == rank - 1:
                        return None, None, None, (
                            "accumulator subscript varies along the "
                            "reduction dim"
                        )
                    if affine_dim is not None:
                        return None, None, None, (
                            "accumulator subscript couples two IVs"
                        )
                    affine_dim = dim
                elif pattern.kind != "invariant":
                    return None, None, None, (
                        "accumulator subscript is not affine/invariant"
                    )
            if affine_dim is not None:
                covered.add(affine_dim)
        if covered != set(range(rank - 1)):
            return None, None, None, (
                "accumulator subscripts do not cover the outer nest dims"
            )
        for op in loads:
            if id(op) not in reduction.skip and (
                root_memref(op.operands[0]) is acc_root
            ):
                return None, None, None, (
                    "accumulator read outside the combiner chain"
                )
        reason = loads_reason(reduction.skip)
        if reason is not None:
            return None, None, None, reason
        mode = "memref_reduction" if rank == 1 else "nest_reduction"
        return planned(mode, reduction=reduction)

    # -- covers the space, or scatters behind an injectivity proof -------------
    if loaded & set(store_counts):
        return None, None, None, (
            "a buffer is both loaded and stored in the nest body"
        )
    if any(count > 1 for count in store_counts.values()):
        return None, None, None, "multiple stores to one buffer"
    proof_dims: list[tuple[int, ...]] = []
    for op in stores:
        if len(op.operands) == 2:
            return None, None, None, (
                "rank-0 store hits the same cell every iteration"
            )
        used_ivs: set[int] = set()
        store_has_indirect = False
        for idx in op.operands[2:]:
            affine_iv: int | None = None
            dim_indirect = False
            for dim, iv in enumerate(ivs):
                pattern = classify_index(idx, iv, root_body)
                if pattern.kind == "affine" and pattern.parameter != 0:
                    if affine_iv is not None:
                        return None, None, None, (
                            "store subscript couples two IVs"
                        )
                    affine_iv = dim
                elif pattern.kind == "indirect":
                    dim_indirect = True
                elif pattern.kind != "invariant":
                    return None, None, None, (
                        "store subscript is not affine/invariant/gather"
                    )
            if dim_indirect:
                # varies through runtime index-array contents: no static
                # coverage credit, the runtime proof decides
                store_has_indirect = True
            elif affine_iv is not None:
                used_ivs.add(affine_iv)
        if used_ivs == set(range(rank)):
            # statically injective over the whole space — any extra
            # indirect dims cannot introduce collisions
            proof_dims.append(())
        elif store_has_indirect:
            # prove the full subscript *tuple* injective over the space
            proof_dims.append(tuple(range(len(op.operands) - 2)))
        else:
            return None, None, None, (
                "store subscripts do not cover every nest dim"
            )
    reason = loads_reason(frozenset())
    if reason is not None:
        return None, None, None, reason
    if not any(proof_dims):
        if rank == 1:
            return None, None, None, None  # covered by the depth-1 test
        return planned("nest_elementwise")
    # defer *every* store so a failed proof leaves nothing mutated
    scatter = _NestScatter(
        stores=tuple(stores),
        proof_dims=tuple(proof_dims),
        skip=frozenset(id(op) for op in stores),
    )
    return planned(
        "scatter_store" if rank == 1 else "nest_scatter", scatter=scatter
    )


# ---------------------------------------------------------------------------
# Ragged (triangular / CSR) nests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SegmentedNest:
    """Whole-space plan for an imperfect outer/inner pair whose inner
    trip count varies with the outer IV: ``prologue / inner reduction
    loop / epilogue`` with triangular (affine) or CSR (offset-array)
    inner bounds.

    Phase A (``row_program``) evaluates the prologue over the outer iv
    vector — per-row inner bounds, the accumulator init value, epilogue
    subscripts.  The flat space is built with prefix sums over the
    per-row trip counts; ``inner_program`` evaluates the reduction
    expression over it, and the fold runs per segment in iteration
    order (bit-exact f32).  Phase B (``epilogue_program``) then runs the
    epilogue per row with the accumulator readback preset to the folded
    per-row values; its stores (``stores``, injective per row, so they
    need no proof) are deferred like a scatter's.  Nothing is mutated
    until every runtime proof (step sign, monotone offsets, NaN hazard)
    has passed.

    ``needs_monotone`` names the bounds (``"lb"``/``"ub"``) classified
    as offset-array loads; those vectors are runtime-proved monotone
    non-decreasing (the CSR contract) with a reasoned bail otherwise.
    ``acc_shared`` is True when the accumulator cell is invariant across
    rows (SpMV's alloca scratch: re-initialised per row by the prologue,
    read back by the epilogue); False means the cell is affine in the
    outer IV (``y(k) += ...``) and folds write back per row.
    """

    inner_for: Operation
    outer_ops: int  # scalar step charge per outer iteration
    inner_ops: int  # scalar step charge per inner iteration
    bounds: tuple[SSAValue, SSAValue, SSAValue]  # inner lb / ub / step
    needs_monotone: tuple[str, ...]
    reduction: _MemrefReduction
    acc_shared: bool
    init_value: SSAValue | None  # prologue accumulator-init stored value
    readback: Operation | None  # epilogue accumulator load (preset)
    row_program: Any  # phase A over the outer IV
    inner_program: Any  # flat space [outer, inner]
    epilogue_program: Any  # phase B over the outer IV
    stores: _NestScatter  # the epilogue's deferred stores


def _segmented_nest_plan(loop: Operation):
    """Classify the segmented (imperfect) nest shape — an outer loop
    whose body is ``prologue / one inner reduction loop / epilogue``,
    the inner bounds affine in the outer IV or loaded from an offset
    array.  Returns ``(mode, plan, program, reason)`` like
    :func:`_nest_vector_plan`; all-None means the shape is something
    else entirely (no reasoned diagnostic)."""
    from repro.transforms.loop_analysis import (
        classify_index,
        index_values_equal,
        root_memref,
    )

    body = loop.regions[0].block
    if len(body.args) != 1 or loop.results:
        return None, None, None, None
    iv_o = body.args[0]
    inner_loops = [op for op in body.ops if op.name == "scf.for"]
    if len(inner_loops) != 1:
        return None, None, None, None
    inner_for = inner_loops[0]
    if inner_for.results or len(inner_for.regions[0].blocks) != 1:
        return None, None, None, "inner loop carries iter_args"
    inner_body = inner_for.regions[0].block
    if len(inner_body.args) != 1:
        return None, None, None, "inner loop carries iter_args"
    if any(op.name == "scf.for" for op in inner_body.ops):
        return None, None, None, None  # deeper nests: the perfect-chain path
    pos = body.ops.index(inner_for)
    prologue = list(body.ops[:pos])
    epilogue = list(body.ops[pos + 1 :])
    for op in (*prologue, *epilogue):
        if op.regions or op.name not in _SUPPORTED:
            return None, None, None, (
                "outer body has nested regions or unsupported ops"
            )
    reduction = _analyze_memref_reduction_body(inner_body, inner_body.args[0])
    if reduction is None:
        return None, None, None, (
            "inner body is not a memref-accumulator reduction"
        )
    acc_root = root_memref(reduction.acc)

    # -- inner bounds: affine in the outer IV, or monotone offset loads --------
    lb_v, ub_v, step_v = inner_for.operands[:3]
    needs_monotone: list[str] = []
    for which, bound in (("lb", lb_v), ("ub", ub_v)):
        kind = classify_index(bound, iv_o, body).kind
        if kind == "indirect":
            needs_monotone.append(which)
        elif kind not in ("affine", "invariant"):
            return None, None, None, (
                "inner loop bounds are neither affine in the outer IV nor "
                "loaded from an offset array"
            )
    if classify_index(step_v, iv_o, body).kind != "invariant":
        return None, None, None, "inner loop step varies with the outer IV"

    # -- accumulator cell must be resolvable per row ---------------------------
    prologue_defined = {r for op in prologue for r in op.results}

    def row_resolvable(v: SSAValue) -> bool:
        # the outer IV itself is the phase-A vector
        return v is iv_o or _defined_outside(v, body) or v in prologue_defined

    if not all(row_resolvable(idx) for idx in reduction.indices):
        return None, None, None, (
            "accumulator subscript is computed inside the inner loop body"
        )
    acc_shared = True
    for idx in reduction.indices:
        pattern = classify_index(idx, iv_o, body)
        if pattern.kind == "affine" and pattern.parameter != 0:
            acc_shared = False  # one cell per row: injective writeback
        elif pattern.kind != "invariant":
            return None, None, None, (
                "accumulator subscript is not affine/invariant in the "
                "outer IV"
            )

    # -- prologue: pure compute plus (at most) the accumulator init store ------
    init_store = None
    for op in prologue:
        if op.name == "memref.store":
            if (
                root_memref(op.operands[1]) is acc_root
                and len(op.operands) - 2 == len(reduction.indices)
                and all(
                    index_values_equal(a, b, body)
                    for a, b in zip(op.operands[2:], reduction.indices)
                )
            ):
                if init_store is not None:
                    return None, None, None, (
                        "two accumulator init stores in the prologue"
                    )
                init_store = op
            else:
                return None, None, None, (
                    "prologue stores to a non-accumulator buffer"
                )
    if acc_shared and init_store is None:
        # without a per-row re-init the rows chain sequentially through
        # the shared cell — that is one long fold, not a segmented nest
        return None, None, None, (
            "shared accumulator carries a value across outer iterations"
        )

    # -- epilogue: the accumulator readback + injective per-row stores ---------
    readback = None
    epi_store_roots: set[int] = set()
    for op in epilogue:
        if op.name == "memref.load" and root_memref(op.operands[0]) is acc_root:
            if not acc_shared:
                return None, None, None, (
                    "per-row accumulator is read back in the epilogue"
                )
            if readback is not None:
                return None, None, None, (
                    "accumulator read twice in the epilogue"
                )
            if len(op.operands) - 1 != len(reduction.indices) or not all(
                index_values_equal(a, b, body)
                for a, b in zip(op.operands[1:], reduction.indices)
            ):
                return None, None, None, (
                    "epilogue accumulator load subscript differs from the "
                    "reduction cell"
                )
            readback = op
        elif op.name == "memref.store":
            root = root_memref(op.operands[1])
            if root is acc_root:
                return None, None, None, "epilogue stores to the accumulator"
            if id(root) in epi_store_roots:
                return None, None, None, "two epilogue stores to one buffer"
            epi_store_roots.add(id(root))
            if len(op.operands) == 2:
                return None, None, None, (
                    "rank-0 epilogue store hits the same cell every row"
                )
            affine_dims = 0
            for idx in op.operands[2:]:
                pattern = classify_index(idx, iv_o, body)
                if pattern.kind == "affine" and pattern.parameter != 0:
                    affine_dims += 1
                elif pattern.kind != "invariant":
                    return None, None, None, (
                        "epilogue store subscript is not affine/invariant "
                        "in the outer IV"
                    )
            if affine_dims == 0:
                return None, None, None, (
                    "epilogue store hits the same cell every row"
                )

    # -- nothing read anywhere in the nest may also be written in it -----------
    store_roots = {id(acc_root)} | epi_store_roots
    nest_loads = (
        [op for op in prologue if op.name == "memref.load"]
        + [
            op
            for op in inner_body.ops
            if op.name == "memref.load" and id(op) not in reduction.skip
        ]
        + [
            op
            for op in epilogue
            if op.name == "memref.load" and op is not readback
        ]
    )
    for op in nest_loads:
        if id(root_memref(op.operands[0])) in store_roots:
            return None, None, None, (
                "a buffer read in the nest is also written in the nest"
            )

    row_skip = (
        frozenset({id(init_store)}) if init_store is not None else frozenset()
    )
    epi_stores = tuple(op for op in epilogue if op.name == "memref.store")
    stores = _NestScatter(
        stores=epi_stores,
        proof_dims=((),) * len(epi_stores),
        skip=frozenset(id(op) for op in epi_stores),
    )
    epi_skip = stores.skip | (
        frozenset({id(readback)}) if readback is not None else frozenset()
    )
    plan = _SegmentedNest(
        inner_for=inner_for,
        outer_ops=max(1, len(body.ops)),
        inner_ops=max(1, len(inner_body.ops)),
        bounds=(lb_v, ub_v, step_v),
        needs_monotone=tuple(needs_monotone),
        reduction=reduction,
        acc_shared=acc_shared,
        init_value=init_store.operands[0] if init_store is not None else None,
        readback=readback,
        row_program=_compile_vector_body(prologue, row_skip, [iv_o]),
        inner_program=_compile_vector_body(
            list(inner_body.ops),
            reduction.skip,
            [iv_o, inner_body.args[0]],
        ),
        epilogue_program=_compile_vector_body(epilogue, epi_skip, [iv_o]),
        stores=stores,
    )
    return "nest_segmented", plan, plan.row_program, None


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _trip_count(lb, ub, step) -> int:
    return max(0, -(-(ub - lb) // step)) if step > 0 else 0


def _flatten_space(dim_values: list) -> list:
    """Row-major per-dimension index vectors over the product space."""
    size = 1
    for values in dim_values:
        size *= len(values)
    vecs = []
    reps_after = size
    reps_before = 1
    for values in dim_values:
        t = len(values)
        reps_after //= t
        vecs.append(np.tile(np.repeat(values, reps_after), reps_before))
        reps_before *= t
    return vecs


def _run_nest(interp, env, root_bounds, plan: _NestPlan, program) -> bool:
    """Execute a rectangular plan whole-space.  ``root_bounds`` holds one
    ``(lb, exclusive ub, step)`` triple per root dimension; chain-member
    bounds are read from the environment (after the step-neutral prelude
    evaluation).  Returns True when handled — observers and step
    accounting then exactly match the scalar nested walk; False leaves
    no visible side effects, so the scalar walk can rerun safely.
    """
    trips = [_trip_count(lb, ub, step) for lb, ub, step in root_bounds]
    bounds = list(root_bounds)
    total = math.prod(trips)
    #: (dims, main_for, rem_for, main_ops, rem_ops, main_trips, rem_trips)
    stitches: list[tuple] = []
    for level, level_prelude in zip(plan.chain, plan.prelude):
        if total == 0:
            # The scalar walk never reaches this level: its bound
            # expressions must stay unevaluated (they may fault), and
            # every deeper charge/observer product is zero regardless.
            trips.append(0)
            continue
        if level_prelude:
            # Bounds of chain loops may depend on IV-independent body
            # ops (e.g. the cloned ``n`` load of an inner ``do k = 1,
            # n``); they are pure, so pre-evaluating them is
            # step-neutral and idempotent.
            before = interp.steps
            try:
                for op in level_prelude:
                    interp.run_op(op, env)
            finally:
                interp.steps = before
        lb = interp.get(env, level.bounds[0])
        ub = interp.get(env, level.bounds[1])
        step = interp.get(env, level.bounds[2])
        if step <= 0:
            return False
        if level.stitch is not None:
            main_for, rem_for, main_ops, rem_ops = level.stitch
            m_lb, m_ub, m_step = (
                interp.get(env, v) for v in main_for.operands[:3]
            )
            r_lb, r_ub, r_step = (
                interp.get(env, v) for v in rem_for.operands[:3]
            )
            if m_step <= 0:
                return False
            stitches.append((
                len(trips), main_for, rem_for, main_ops, rem_ops,
                _trip_count(m_lb, m_ub, m_step),
                _trip_count(r_lb, r_ub, r_step),
            ))
        bounds.append((lb, ub, step))
        trips.append(_trip_count(lb, ub, step))
        total *= trips[-1]
    if 0 < total < _MIN_TRIPS and not plan.span:
        return False  # scalar wins on constant factors

    if total:
        reduction = plan.reduction
        if len(trips) == 1:
            lb, _, step = bounds[0]
            spaces = [[np.arange(lb, lb + total * step, step, dtype=np.int64)]]
        else:
            dim_values = [
                np.arange(lb, lb + t * step, step, dtype=np.int64)
                for (lb, _, step), t in zip(bounds, trips)
            ]
            outer = [dim_values[0]]
            if total > _MAX_NEST_ELEMS:
                # Bound peak memory: evaluate chunks of outermost-dim
                # slices (the whole-space temporaries scale with the
                # *product* of the dims).  Chunks commit one by one, so a
                # NaN check or an injectivity proof, which must pass over
                # the whole space before anything is stored, keeps its
                # nest scalar instead.
                if plan.scatter is not None or (
                    reduction is not None
                    and _REDUCERS[reduction.op_name] in (np.minimum, np.maximum)
                ):
                    logger.debug(
                        "scalar bail-out: nest exceeds the whole-space size "
                        "bound (its NaN check or injectivity proof needs one "
                        "pass); rerunning the loop on the scalar tier",
                    )
                    return False
                per_chunk = max(1, _MAX_NEST_ELEMS // (total // trips[0]))
                outer = [
                    dim_values[0][start : start + per_chunk]
                    for start in range(0, trips[0], per_chunk)
                ]
            spaces = (
                _flatten_space([chunk, *dim_values[1:]]) for chunk in outer
            )
        for vecs in spaces:
            frame = program.run(interp, env, vecs)
            if plan.scatter is not None:
                value = program.lookup(frame, interp, env)
                if not _apply_stores(plan.scatter, value, len(vecs[0])):
                    return False  # failed proof: nothing was mutated
            elif reduction is not None:
                value = program.lookup(frame, interp, env)
                array = value(reduction.acc)
                cells = [value(i) for i in reduction.indices]
                if len(trips) == 1 and any(map(_is_vector, cells)):
                    # depth 1 with a varying cell: cells may collide
                    width = None
                    key = tuple([c if _is_vector(c) else int(c) for c in cells])
                else:
                    # each cell is invariant along the innermost level:
                    # one representative per row
                    width = trips[-1]
                    key = tuple([
                        c[::width] if _is_vector(c) else int(c) for c in cells
                    ])
                vec = _as_vector(
                    value(reduction.expr), len(vecs[0]), array.dtype
                )
                if not _ordered_fold(reduction.op_name, array, key, vec, width):
                    return False  # single pass (see above): nothing stored

    steps = 0
    for dims, op_count in plan.charge_specs:
        steps += math.prod(trips[:dims]) * op_count
    observer = interp.loop_observer
    for dims, main_for, rem_for, main_ops, rem_ops, m_t, r_t in stitches:
        executions = math.prod(trips[:dims])
        steps += executions * (m_t * main_ops + r_t * rem_ops)
        if observer is not None and executions:
            observer(main_for, m_t, executions)
            observer(rem_for, r_t, executions)
    interp.steps += steps
    if observer is not None:
        for dims, chain_op in plan.observer_specs:
            count = math.prod(trips[:dims])
            if count:
                observer(chain_op, trips[dims], count)
    return True


def _run_segmented(interp, env, lb, ub, step, plan: _SegmentedNest) -> bool:
    """Execute a ragged (triangular / CSR) plan whole-space.  True when
    handled — observers and step accounting then exactly match the
    scalar nested walk; a False return has mutated nothing (stores and
    accumulator writebacks are all deferred past the runtime proofs), so
    the scalar walk can rerun safely."""
    trips_o = _trip_count(lb, ub, step)
    if trips_o == 0:
        return True  # the scalar walk would do nothing either
    i_vec = np.arange(lb, lb + trips_o * step, step, dtype=np.int64)
    frame_a = plan.row_program.run(interp, env, [i_vec])
    row_value = plan.row_program.lookup(frame_a, interp, env)
    inner_step = row_value(plan.bounds[2])
    if np.ndim(inner_step) != 0:
        return False  # step varies per row: outside the contract
    inner_step = int(inner_step)
    if inner_step <= 0:
        return False  # the scalar walk decides (zero-trip or diverging)
    lb_vec = np.broadcast_to(
        np.asarray(row_value(plan.bounds[0]), dtype=np.int64), (trips_o,)
    )
    ub_vec = np.broadcast_to(
        np.asarray(row_value(plan.bounds[1]), dtype=np.int64), (trips_o,)
    )
    for which, vec in (("lb", lb_vec), ("ub", ub_vec)):
        if which in plan.needs_monotone and trips_o > 1 and bool(
            np.any(np.diff(vec) < 0)
        ):
            logger.debug(
                "scalar bail-out: segmented nest %s offsets are not "
                "monotone non-decreasing (shuffled offset array); "
                "rerunning the loop on the scalar tier",
                which,
            )
            return False
    trips_vec = np.maximum(0, -((lb_vec - ub_vec) // inner_step))
    total = int(trips_vec.sum())
    if trips_o + total < _MIN_TRIPS:
        return False  # scalar wins on constant factors

    reduction = plan.reduction
    acc_arr = row_value(reduction.acc)
    dtype = acc_arr.dtype
    cell_values = [row_value(i) for i in reduction.indices]
    cell = tuple(
        np.asarray(v) if np.ndim(v) else int(v) for v in cell_values
    )
    if plan.init_value is not None:
        init = row_value(plan.init_value)
    else:
        init = acc_arr[cell]
    # per-row folds start from the init values; empty rows keep them
    folded_all = np.array(_as_vector(init, trips_o, dtype), dtype=dtype)
    cum = np.cumsum(trips_vec)
    r0 = 0
    while r0 < trips_o:
        if total <= _MAX_NEST_ELEMS:
            r1 = trips_o
        else:
            # Bound peak memory: whole rows per chunk, so segments never
            # straddle a chunk boundary and every fold stays per-row.
            base = int(cum[r0 - 1]) if r0 else 0
            r1 = int(
                np.searchsorted(cum, base + _MAX_NEST_ELEMS, side="right")
            )
            r1 = min(max(r1, r0 + 1), trips_o)
        seg = trips_vec[r0:r1]
        ctotal = int(seg.sum())
        if ctotal:
            starts = np.cumsum(seg) - seg
            outer_flat = np.repeat(i_vec[r0:r1], seg)
            inner_flat = (
                np.repeat(lb_vec[r0:r1], seg)
                + (np.arange(ctotal, dtype=np.int64) - np.repeat(starts, seg))
                * inner_step
            )

            def resolve(v: SSAValue, _r0=r0, _r1=r1, _seg=seg):
                slot = plan.row_program.slots.get(v)
                if slot is not None:
                    val = frame_a[slot]
                    if np.ndim(val) == 0:
                        return val
                    return np.repeat(val[_r0:_r1], _seg)
                return interp.get(env, v)

            frame_i = plan.inner_program.run(
                interp, env, [outer_flat, inner_flat], resolve
            )
            slot = plan.inner_program.slots.get(reduction.expr)
            expr_vec = _as_vector(
                frame_i[slot] if slot is not None else resolve(reduction.expr),
                ctotal,
                dtype,
            )
            t0 = int(seg[0])
            if bool(np.all(seg == t0)):
                key, width = (slice(None),), t0  # equal rows
            else:
                key, width = (np.repeat(np.arange(r1 - r0), seg),), None
            if not _ordered_fold(
                reduction.op_name, folded_all[r0:r1], key, expr_vec, width
            ):
                return False  # nothing mutated yet: all writes are deferred
        r0 = r1

    # -- every proof passed: run the epilogue and write the folds back ---------
    def resolve_epi(v: SSAValue):
        if plan.readback is not None and v is plan.readback.results[0]:
            return folded_all
        return row_value(v)

    frame_e = plan.epilogue_program.run(interp, env, [i_vec], resolve_epi)

    def epi_value(v: SSAValue):
        slot = plan.epilogue_program.slots.get(v)
        return frame_e[slot] if slot is not None else resolve_epi(v)

    _apply_stores(plan.stores, epi_value, trips_o)
    if plan.acc_shared:
        # the scalar walk leaves the last row's fold in the shared cell
        acc_arr[cell] = folded_all[-1]
    elif plan.init_value is not None:
        acc_arr[cell] = folded_all  # init store ran even for empty rows
    else:
        nz = trips_vec > 0
        if bool(nz.all()):
            acc_arr[cell] = folded_all
        else:
            # zero-trip rows never touched their cell in the scalar walk
            cell_nz = tuple(c[nz] if np.ndim(c) else c for c in cell)
            acc_arr[cell_nz] = folded_all[nz]

    interp.steps += trips_o * plan.outer_ops + total * plan.inner_ops
    observer = interp.loop_observer
    if observer is not None:
        # one observer call per distinct per-row trip count, batched —
        # modelled cycles are integer-valued floats, so sums stay exact
        uniq, counts = np.unique(trips_vec, return_counts=True)
        for t, c in zip(uniq, counts):
            observer(plan.inner_for, int(t), int(c))
    return True


def _apply_stores(deferred: _NestScatter, value, total: int) -> bool:
    """Prove every deferred store injective over the ``total``-point
    flat space, then apply them all in op order.  ``value`` resolves an
    SSA value of the evaluated space.  False (nothing mutated) means the
    scalar walk must rerun."""
    resolved = []
    for store, dims_to_prove in zip(deferred.stores, deferred.proof_dims):
        indices = [value(i) for i in store.operands[2:]]
        if dims_to_prove and _prove_injective_tuple(
            [indices[d] for d in dims_to_prove], total
        ) is None:
            logger.debug(
                "scalar bail-out: scatter store failed the injectivity "
                "proof (the subscript tuple has duplicate entries over the "
                "iteration space; neither monotone nor unique); rerunning "
                "the loop on the scalar tier",
            )
            return False
        resolved.append((store, indices))
    for store, indices in resolved:
        key = tuple(
            np.asarray(i) if np.ndim(i) else int(i) for i in indices
        )
        value(store.operands[1])[key if len(key) > 1 else key[0]] = value(
            store.operands[0]
        )
    return True


def _prove_injective(vec: np.ndarray) -> str | None:
    """Runtime tiers of the injectivity-proof lattice (see the module
    docstring): ``monotone`` (O(n)) before ``unique`` (O(n log n));
    None when the vector has duplicates."""
    if vec.size <= 1:
        return "trivial"
    deltas = np.diff(vec)
    if bool(np.all(deltas > 0)) or bool(np.all(deltas < 0)):
        return "monotone"
    if np.unique(vec).size == vec.size:
        return "unique"
    return None


def _prove_injective_tuple(columns, total: int) -> str | None:
    """The injectivity lattice lifted to a subscript *tuple* over the
    flattened nest space: a single varying column uses the rank-1 tiers
    (monotone before unique); several columns are lexsorted together and
    proved duplicate-free by adjacent comparison (O(n log n))."""
    arrays = [np.broadcast_to(np.asarray(c), (total,)) for c in columns]
    if total <= 1:
        return "trivial"
    if len(arrays) == 1:
        return _prove_injective(arrays[0])
    order = np.lexsort(arrays)
    dup = np.ones(total - 1, dtype=bool)
    for a in arrays:
        sorted_col = a[order]
        dup &= sorted_col[1:] == sorted_col[:-1]
    return None if bool(dup.any()) else "tuple-unique"


def _ordered_fold(
    op_name: str, target: np.ndarray, key, vec: np.ndarray, width
) -> bool:
    """Combine ``vec`` into the cells ``target[key]`` strictly in
    iteration order, with the scalar engine's rounding.

    With a ``width``, cell ``r`` of ``key`` takes ``vec[r*width :
    (r+1)*width]``: a scalar ``key`` is one chain, and equal-length rows
    fold together with one ``ufunc.accumulate``.  Without one, ``key``
    holds a full subscript per element of ``vec`` and colliding cells
    (ragged rows, repeated indices) fold with in-order ``ufunc.at``.
    Returns False with nothing mutated when a NaN meets a min/max
    combiner, because Python ``min``/``max`` ignore a NaN rhs where
    ``np.minimum``/``np.maximum`` propagate it."""
    ufunc = _REDUCERS[op_name]
    minmax = ufunc is np.minimum or ufunc is np.maximum
    if minmax and vec.dtype.kind == "f" and (
        bool(np.isnan(vec).any()) or bool(np.isnan(target).any())
    ):
        logger.debug(
            "scalar bail-out: %s reduction input contains NaN "
            "(np.minimum/np.maximum propagate NaN where the scalar "
            "engine's min/max ignore a NaN rhs); rerunning the loop on "
            "the scalar tier",
            op_name,
        )
        return False
    if width is None:
        ufunc.at(target, key if len(key) > 1 else key[0], vec)
        return True
    init = target[key]
    if not isinstance(init, np.ndarray):
        # one chain, folded 1-D (cheaper than a one-row matrix)
        if minmax:
            folded = ufunc(init, ufunc.reduce(vec))
        else:
            seq = np.empty(width + 1, dtype=target.dtype)
            seq[0] = init
            seq[1:] = vec
            folded = ufunc.accumulate(seq)[-1]
    elif minmax:
        folded = ufunc(init, ufunc.reduce(vec.reshape(-1, width), axis=1))
    else:
        seq = np.empty((len(init), width + 1), dtype=target.dtype)
        seq[:, 0] = init
        seq[:, 1:] = vec.reshape(-1, width)
        folded = ufunc.accumulate(seq, axis=1)[:, -1]
    target[key] = folded
    return True


def _is_vector(value) -> bool:
    """True for a per-element vector, False for a scalar (``np.ndim``
    is too slow for the per-launch hot path)."""
    return isinstance(value, np.ndarray) and value.ndim > 0


def _dtype_for(ty) -> np.dtype:
    from repro.ir.types import FloatType

    if isinstance(ty, FloatType):
        return np.dtype(np.float32 if ty.width == 32 else np.float64)
    return np.dtype(np.int64)


def _as_vector(value, trips: int, dtype) -> np.ndarray:
    vec = np.asarray(value)
    if vec.ndim == 0:
        return np.full(trips, vec[()], dtype=dtype)
    return vec.astype(dtype, copy=False)


def _to_python(value, ty):
    from repro.ir.types import FloatType

    if isinstance(ty, FloatType):
        return float(value)
    return int(value)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
#
# The dispatch sites in ``dialects/scf.py`` and ``dialects/omp.py`` look
# these four entries up by name, and each hands one family of modes to
# the shared executors.


def try_vectorized_loop(
    interp, loop: Operation, env, lb: int, ub: int, step: int
) -> bool:
    """Execute an ``elementwise`` or ``scatter_store`` loop whole-space.
    Returns True when handled (the scalar path must run otherwise)."""
    _, mode, plan, program = _classify_guarded(interp, loop)
    if mode not in ("elementwise", "scatter_store"):
        return False
    return _run_nest(interp, env, ((lb, ub, step),), plan, program)


def try_vectorized_nest(
    interp, loop: Operation, env, lb: int, ub: int, step: int
) -> bool:
    """Whole-space evaluation of a nest rooted at the ``scf.for``
    ``loop``, or of a runtime-bounded span.  Returns True when handled;
    the scalar walk must run otherwise."""
    _, mode, plan, program = _classify_guarded(interp, loop)
    if isinstance(plan, _SegmentedNest):
        return _run_segmented(interp, env, lb, ub, step, plan)
    if mode not in (
        "nest_elementwise", "nest_reduction", "nest_scatter", "nest_segmented",
    ):
        return False
    return _run_nest(interp, env, ((lb, ub, step),), plan, program)


def try_vectorized_loop_nest(
    interp, loop: Operation, env, lbs, ubs, steps
) -> bool:
    """Whole-iteration-space evaluation of a rank-n ``omp.loop_nest``.

    ``ubs`` are already exclusive.  Returns True when handled; the
    scalar nested walk must run otherwise.  Step accounting matches the
    scalar walk exactly (one step per body op per innermost iteration).
    """
    _, mode, plan, program = _classify_guarded(interp, loop)
    if mode is None:
        return False
    return _run_nest(interp, env, tuple(zip(lbs, ubs, steps)), plan, program)


def try_vectorized_reduction(
    interp, loop: Operation, env, lb: int, ub: int, step: int
) -> list | None:
    """Execute a recognised reduction loop vectorized.

    Returns the loop's final result values when handled (``[]`` for
    memref-accumulator loops, which have no results); None means the
    scalar path must run.
    """
    _, mode, plan, program = _classify_guarded(interp, loop)
    if mode not in ("iter_reduction", "memref_reduction"):
        return None
    trips = _trip_count(lb, ub, step)
    if trips < _MIN_TRIPS:
        return None  # zero-trip loops included: the scalar walk is free
    if mode == "memref_reduction":
        handled = _run_nest(interp, env, ((lb, ub, step),), plan, program)
        return [] if handled else None
    ivs = np.arange(lb, lb + trips * step, step, dtype=np.int64)
    value = program.lookup(program.run(interp, env, [ivs]), interp, env)
    finals = []
    for op_name, expr, position in plan.combiners:
        result_type = loop.results[position].type
        dtype = _dtype_for(result_type)
        acc = np.array(interp.get(env, loop.operands[3 + position]), dtype)
        vec = _as_vector(value(expr), trips, dtype)
        if not _ordered_fold(op_name, acc, (), vec, trips):
            return None  # evaluation was side-effect free: rerun scalar
        finals.append(_to_python(acc[()], result_type))
    interp.steps += trips * max(1, len(loop.regions[0].block.ops))
    return finals


def loop_vector_mode(loop: Operation) -> tuple[str | None, Any]:
    """Classify ``loop`` once and return ``(mode, plan)``.

    Depth-1 loops are ``elementwise``, ``memref_reduction`` or
    ``scatter_store``, and ``nest_segmented`` when their bounds are
    runtime data; ``scf.for`` loops carrying iter_args are
    ``iter_reduction``; nest roots are ``nest_elementwise``,
    ``nest_reduction`` or ``nest_scatter``, and ragged triangular/CSR
    outer-inner pairs ``nest_segmented``.  ``(None, None)`` means the
    loop runs scalar.  Cached per loop op."""
    cached = _classify(loop)
    return cached[1], cached[2]


# ---------------------------------------------------------------------------
# Body evaluation (shared by every plan)
# ---------------------------------------------------------------------------
#
# The body is translated *once per loop op* into a small slot-frame
# program (closures over integer slot indices, constants prefilled in the
# template) and cached with the loop classification, so per-execution
# cost is just the NumPy work plus one closure call per body op.


class _VectorProgram:
    """Compiled whole-iteration-space evaluator for one loop body.

    Frame slot 0 holds the instruction tuple itself, so a run needs only
    one template copy plus the outer-value fetches.  ``iv_slots`` holds
    one slot per induction variable (rank-n ``omp.loop_nest`` bodies have
    several).
    """

    __slots__ = ("template", "slots", "iv_slots", "outer")

    def __init__(self, template, slots, iv_slots, outer):
        self.template = template
        self.slots = slots
        self.iv_slots = iv_slots
        #: loop-invariant values fetched from the interpreter env per run
        self.outer = outer

    def run(self, interp, env, ivs, resolve=None) -> list:
        """Evaluate the body over ``ivs``, one index vector per iv slot.
        Outer values come from the interpreter environment, or through
        ``resolve`` when given — the segmented runner feeds per-row phase
        values that way (prologue results repeated per segment, the
        folded accumulator preset for the epilogue readback)."""
        frame = self.template.copy()
        for slot, vec in zip(self.iv_slots, ivs):
            frame[slot] = vec
        if resolve is None:
            get = interp.get
            for slot, value in self.outer:
                frame[slot] = get(env, value)
        else:
            for slot, value in self.outer:
                frame[slot] = resolve(value)
        for instr in frame[0]:
            instr(frame)
        return frame

    def lookup(self, frame, interp, env):
        """Resolver for the values of one evaluated ``frame``."""
        slots = self.slots

        def value(v: SSAValue):
            slot = slots.get(v)
            return frame[slot] if slot is not None else interp.get(env, v)

        return value


class _VectorCompiler:
    def __init__(self):
        self.slots: dict[SSAValue, int] = {}
        #: slot 0 holds the instruction tuple itself (frame is self-contained)
        self.template: list = [None]
        self.outer: list[tuple[int, SSAValue]] = []
        self.instrs: list = []

    def dst(self, value: SSAValue) -> int:
        slot = self.slots.get(value)
        if slot is None:
            slot = self.slots[value] = len(self.template)
            self.template.append(None)
        return slot

    def src(self, value: SSAValue) -> int:
        slot = self.slots.get(value)
        if slot is None:
            slot = self.dst(value)
            self.outer.append((slot, value))
        return slot


def _compile_vector_body(
    ops, skip: frozenset[int], ivs
) -> _VectorProgram:
    """Translate the (already validated) op sequence into a vector
    program.  ``ivs`` holds one induction-variable value per nest
    dimension (rank-n nests gather them from several blocks)."""
    from repro.ir.attributes import FloatAttr, IntegerAttr, StringAttr
    from repro.ir.types import FloatType

    ctx = _VectorCompiler()
    iv_slots = tuple(ctx.dst(iv) for iv in ivs)

    for op in ops:
        name = op.name
        if name in _SKIPPED or id(op) in skip:
            continue
        if name == "arith.constant":
            attr = op.attributes["value"]
            if isinstance(attr, IntegerAttr):
                ctx.template[ctx.dst(op.results[0])] = attr.value
            elif isinstance(attr, FloatAttr):
                ctx.template[ctx.dst(op.results[0])] = (
                    np.float32(attr.value) if attr.width == 32 else attr.value
                )
            continue
        if name in _BINOPS or name in ("arith.divsi", "arith.remsi",
                                       "arith.cmpi", "arith.cmpf"):
            if name in _BINOPS:
                fn = _BINOPS[name]
            elif name == "arith.divsi":
                fn = _trunc_divide
            elif name == "arith.remsi":
                fn = np.fmod  # trunc-style remainder, like math.fmod
            else:
                predicate = op.attributes["predicate"]
                assert isinstance(predicate, StringAttr)
                fn = _CMPS[predicate.value]
            a, b = ctx.src(op.operands[0]), ctx.src(op.operands[1])
            r = ctx.dst(op.results[0])

            def instr(frame, _fn=fn, _a=a, _b=b, _r=r):
                frame[_r] = _fn(frame[_a], frame[_b])
            ctx.instrs.append(instr)
            continue
        if name == "arith.select":
            c, t, f = (ctx.src(o) for o in op.operands)
            r = ctx.dst(op.results[0])

            def instr(frame, _c=c, _t=t, _f=f, _r=r):
                frame[_r] = np.where(frame[_c], frame[_t], frame[_f])
            ctx.instrs.append(instr)
            continue
        if name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
            # width-preserving in the reference interpreter: alias the slot
            ctx.slots[op.results[0]] = ctx.src(op.operands[0])
            continue
        if name in ("arith.sitofp", "arith.fptosi", "arith.extf",
                    "arith.truncf"):
            if name == "arith.sitofp":
                ty = op.results[0].type
                dtype = (
                    np.float32
                    if isinstance(ty, FloatType) and ty.width == 32
                    else np.float64
                )
            elif name == "arith.fptosi":
                dtype = np.int64
            elif name == "arith.extf":
                dtype = np.float64
            else:
                dtype = np.float32
            s = ctx.src(op.operands[0])
            r = ctx.dst(op.results[0])

            def instr(frame, _s=s, _r=r, _dtype=dtype):
                frame[_r] = np.asarray(frame[_s]).astype(_dtype)
            ctx.instrs.append(instr)
            continue
        if name in _MATH:
            fn = _MATH[name]
            s = ctx.src(op.operands[0])
            r = ctx.dst(op.results[0])

            def instr(frame, _fn=fn, _s=s, _r=r):
                frame[_r] = _fn(frame[_s])
            ctx.instrs.append(instr)
            continue
        if name == "memref.load":
            m = ctx.src(op.operands[0])
            idx = tuple(ctx.src(i) for i in op.operands[1:])
            r = ctx.dst(op.results[0])
            if not idx:
                def instr(frame, _m=m, _r=r):
                    frame[_r] = frame[_m][()]
            elif len(idx) == 1:
                def instr(frame, _m=m, _i=idx[0], _r=r):
                    frame[_r] = frame[_m][frame[_i]]
            else:
                def instr(frame, _m=m, _idx=idx, _r=r):
                    frame[_r] = frame[_m][tuple(frame[i] for i in _idx)]
            ctx.instrs.append(instr)
            continue
        if name == "memref.store":
            v = ctx.src(op.operands[0])
            m = ctx.src(op.operands[1])
            idx = tuple(ctx.src(i) for i in op.operands[2:])
            if len(idx) == 1:
                def instr(frame, _v=v, _m=m, _i=idx[0]):
                    frame[_m][frame[_i]] = frame[_v]
            else:
                def instr(frame, _v=v, _m=m, _idx=idx):
                    frame[_m][tuple(frame[i] for i in _idx)] = frame[_v]
            ctx.instrs.append(instr)
            continue
        raise AssertionError(f"vectorizer admitted unsupported op {name}")

    ctx.template[0] = tuple(ctx.instrs)
    return _VectorProgram(ctx.template, ctx.slots, iv_slots, tuple(ctx.outer))
