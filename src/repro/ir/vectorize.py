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
  ``unique`` (O(n log n)), sorted and compared pairwise; several
  columns lexsorted (``tuple-unique``); a negative subscript declines,
  since it wraps onto the cell ``extent + s``.  A failed proof logs a
  reasoned bail and reruns the loop on the scalar tier, with nothing
  mutated.
* *writes back after an inner loop* (``nest_segmented``): in an
  imperfect nest (below) the epilogue stores once per row, its
  subscripts covering every row dim, so each row writes its own cell.
  It may write in place to a buffer the prologue loads (``t = c(i,
  j)`` … ``c(i, j) = t``) when the two subscripts are provably equal:
  each row then reads only the cell that it alone writes.

**Imperfect nests.**  An ``scf.for`` root whose chain reaches a body
``prologue / inner reduction level / epilogue`` is one
:class:`_SegmentedNest` (``nest_segmented``).  Its *rows* are the
rectangular levels of the perfect chain above that body, walked with
their bounds and preludes like a nest's levels (one ``scf.for`` is the
depth-1 case).  Its *inner level* is one loop whose trip count may vary
per row — triangular ``j = i+1, n``, or CSR ``row_ptr(i) ..
row_ptr(i+1)-1`` with the offsets runtime-proved monotone — or a tiled
pair ``do kk = 1, n, 64; do k = kk, min(kk + 63, n)`` whose deeper
bounds are pure ops of the tile IV: the row-invariant tile loop is
evaluated over its IV vector, and every row runs the tiles' k ranges
back to back.  A varying inner level is built with prefix sums over the
per-row trip counts; a tiled one, which every row runs in full, is the
last axis of a ``(row levels..., k)`` broadcast space.  Each row folds
from its prologue's init in iteration order.

Every rectangular plan runs through :func:`_run_nest`, the imperfect one
through :func:`_run_segmented`.  Both charge interpreter steps and fire
the loop observer exactly as the scalar nested walk would (batched by
``count``; modelled cycles are integer-valued floats, so sums stay
exact), apply deferred stores with :func:`_apply_stores` and fold with
:func:`_ordered_fold`.  A loop no plan fits logs its reason on
``repro.ir.vectorize`` at DEBUG and runs scalar.

**Ranges and views.**  The body program does not see its induction
variables as full-space index vectors.  :func:`_run_nest` lays the space
out as a broadcast array with one axis per level (chunked along axis 0
above ``_MAX_NEST_ELEMS``) and passes each level's IV as a
:class:`_Range`, a lazy ``(start, step, count)`` on its own axis.  An
add, subtract or multiply with an IV-independent integer keeps a range
lazy.  A load or store whose subscripts are all integers or in-bounds
ranges on distinct axes reads or writes a basic-slicing view, laid out
in the space's axis order.  Every other consumer materialises a small
open-mesh int64 array and takes the index-array path; so does a
subscript that leaves its dimension, since the scalar walk wraps a
negative one and raises on a large one where a slice would clip.
Values broadcast against each other, so a stencil reads each buffer
through views instead of gathering a space-sized copy per load.
Deferred scatters read their values flattened to the row-major space,
and so do folds, except the column folds below, which read the value in
its own layout.  :func:`_run_segmented` runs its row programs over
per-row vectors.  For a varying inner level it passes one range when
the rows run back to back (CSR rows).  For a tiled one it lays every
row level and the k level on their own axes, as :func:`_run_nest` does,
with k one range when the tiles run back to back (gemm's).  A row value
that only casts a row IV is that IV in the inner program, so gemm's
``a(i, k)`` and ``b(k, j)`` read views.  Only ops with an operand that
may hold a range check types at run time; the rest keep plain NumPy
closures.

**Periodic cells and gathers.**  An ``arith.remsi`` of a range with no
negative value by a positive integer literal tiles one period, ``c /
gcd(step, c)`` values, instead of materialising the range and dividing
it: dot's round-robin cell ``mod(i - 1, N)``.  A range that reaches
below zero divides as before, since the truncating remainder keeps its
sign there.  A rank-1 load subscripted by an index array reads through
``ndarray.take`` (spmv's ``x(col_idx(jj))``).  An out-of-range
subscript raises :class:`~repro.reliability.SubscriptError` on every
path, as on the other tiers.

**Fold orientation.**  Equal-width rows of an add or multiply fold form
a ``(rows, width)`` matrix.  When rows outnumber the width,
:func:`_fold_columns` adds one column at a time into all the rows'
accumulators, over blocks of about 4096 rows that stay in cache (spmv's
16384 × 72, batched_gemm's 16384 × 64).  Otherwise the rows fold with
one row-wise ``ufunc.accumulate``, which is faster for a few long rows
(64 × 4096).  Each cell still combines its values in iteration order.

**The copy rule.**  A gathered value was a copy taken at the load; a
view aliases its buffer.  A loaded view is copied when a store runs
after the load and before the value's last use, or when the runner reads
the value after the body (a fold's operands, a deferred store's value)
and a store follows the load.  So a view never sees a write the scalar
walk would not show it.  The segmented row, tile and epilogue programs
run over materialised row vectors, so they never hold views.

Float32 ordering note: per-element semantics are identical to the scalar
interpreter — NumPy applies the same operation per lane, and no
reassociation occurs.  For ordered reductions (add, mul) the fast path
uses ``ufunc.accumulate``/``ufunc.at`` or a column-by-column fold, which
combine strictly in iteration order per accumulator cell, so float32
results are bit-identical to the scalar walk (pairwise-summation tricks
like ``np.sum`` are *not* used).  min/max are combined with
``np.minimum``/``np.maximum``, which are order-insensitive for finite
values; inputs containing NaN bail to the scalar path (Python
``min``/``max`` ignore a NaN rhs where NumPy propagates it), leaving
only the sign of zero on min/max ties as a potential bit difference.
Integer reductions accumulate in int64 (the scalar engine is
unbounded).
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
from repro.reliability.errors import DivisionByZeroError, SubscriptError
from repro.transforms.loop_analysis import (
    _defined_inside,
    _exact_offset,
    bound_is_runtime,
    classify_index,
    const_int,
    index_values_equal,
    loop_carried_dependences,
    root_memref,
    static_loop_step,
    trip_count,
)

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


def _analyze_memref_reduction_body(
    body: Block, iv: SSAValue
) -> _MemrefReduction | None:
    """The ``P[idx] = combine(P[idx], expr)`` accumulator shape in
    ``body``, reduced along ``iv`` — shared between rank-1 loops (``iv``
    is the loop IV) and rank-n nests (``iv`` is the innermost dim)."""
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

    Every loop op is planned as a depth-d nest by
    :func:`_nest_vector_plan`, with imperfect nests getting a second
    chance as a :class:`_SegmentedNest`.  A loop no plan fits is logged
    with its reason at DEBUG.
    """
    key = id(loop)
    cache = analysis_cache(loop)
    cached = cache.get(key)
    if cached is not None and cached[0] is loop:
        return cached
    mode = plan = program = reason = bail_kind = None
    if len(loop.regions) >= 1 and len(loop.regions[0].blocks) == 1:
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
        return not _defined_inside(value.op, root_body)
    return False


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
    step_c = const_int(step)
    factor: int | None = None
    if isinstance(chunk, OpResult) and chunk.op.name == "arith.muli":
        c_lhs, c_rhs = chunk.op.operands
        factor = const_int(c_rhs) if c_lhs is step else (
            const_int(c_lhs) if c_rhs is step else None
        )
    if factor is None:
        # canonicalize folds muli(const_step, const_F) to one constant
        chunk_c = const_int(chunk)
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
        off_c = const_int(off)
        if off_c is not None and step_c is not None:
            return off_c == k * step_c
        if isinstance(off, OpResult) and off.op.name == "arith.muli":
            x, y = off.op.operands
            return (x is step and const_int(y) == k) or (
                y is step and const_int(x) == k
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


def _walk_levels(loop: Operation, depth: int | None = None):
    """Walk the perfect chain rooted at ``loop`` into nest levels, down
    to the innermost body, or down to the body of level ``depth``.

    Returns ``(ivs, chain, charge_specs, observer_specs, extras,
    innermost)`` — see :class:`_NestPlan`; ``extras`` holds, per chain
    member, the non-loop ops of the body above it — or the reason the
    chain is no nest.
    """
    root_body = loop.regions[0].block
    if loop.name == "omp.loop_nest":
        ivs = list(root_body.args)
    else:
        ivs = [root_body.args[0]]
    chain: list[_ChainLevel] = []
    charge_specs: list[tuple[int, int]] = []
    observer_specs: list[tuple[int, Operation]] = []
    extras_by_level: list[list[Operation]] = []
    body = root_body
    while True:
        nested = [op for op in body.ops if op.name == "scf.for"]
        if not nested or len(ivs) == depth:
            charge_specs.append((len(ivs), max(1, len(body.ops))))
            return (
                ivs, chain, charge_specs, observer_specs, extras_by_level, body
            )
        stitch_factor = None
        if len(nested) == 2:
            stitch_factor = _match_unroll_pair(nested[0], nested[1])
        if len(nested) > 1 and stitch_factor is None:
            return "body contains multiple nested loops"
        if stitch_factor is not None:
            main_for, rem_for = nested
            rem_body = rem_for.regions[0].block
            if any(op.name == "scf.for" for op in rem_body.ops):
                return "stitched main/remainder pair is not innermost"
            level_loops = (main_for, rem_for)
        else:
            inner_for = nested[0]
            inner_body = inner_for.regions[0].block
            level_loops = (inner_for,)
        level_extras: list[Operation] = []
        for op in body.ops:
            if op in level_loops:
                continue
            if op.regions or op.name not in _SUPPORTED:
                return "body has nested regions or unsupported ops"
            if op.name == "memref.store":
                return "store outside the innermost loop body"
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
            return (
                ivs, chain, charge_specs, observer_specs, extras_by_level,
                rem_body,
            )
        observer_specs.append((len(ivs), inner_for))
        chain.append(_ChainLevel(bounds=tuple(inner_for.operands[:3])))
        ivs.append(inner_body.args[0])
        body = inner_body


def _level_preludes(extras_by_level, root_body: Block, stored: set[int]):
    """Each level's prelude — the ops of ``extras_by_level`` that depend
    on no nest IV and read no buffer in ``stored`` — and the set of
    values they define.

    One prelude per level: a level's ops are only pre-evaluated at
    runtime when its containing body would actually execute under the
    scalar walk (a faulting bound expression below a zero-trip dim must
    stay unevaluated, exactly like the scalar tier).
    """
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
            ) in stored:
                continue  # value may change as the nest runs
            independent.update(op.results)
            level_prelude.append(op)
        prelude_levels.append(tuple(level_prelude))
    return prelude_levels, independent


def _chain_is_rectangular(chain, root_body: Block, independent) -> bool:
    """True when every chain level's bounds are defined outside the nest
    or by a prelude (see :func:`_level_preludes`)."""
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
                return False
    return True


def _nest_vector_plan(loop: Operation):
    """Plan ``loop`` — an ``scf.for`` or ``omp.loop_nest`` — as a
    depth-d nest: walk its levels, then give every store a role (see
    the module docstring).

    Returns ``(mode, plan, program, reason)``.  Depth-1 modes are
    ``elementwise`` (``nest_segmented`` when the bounds are runtime
    data), ``memref_reduction`` and ``scatter_store``; deeper nests are
    ``nest_elementwise``, ``nest_reduction`` or ``nest_scatter``.  A
    None mode comes with the reason for the DEBUG log, or with None when
    the loop is no whole-space shape at all.
    """
    root_body = loop.regions[0].block
    root_dims = len(root_body.args) if loop.name == "omp.loop_nest" else 1
    walked = _walk_levels(loop)
    if isinstance(walked, str):
        return None, None, None, walked
    ivs, chain, charge_specs, observer_specs, extras_by_level, innermost = (
        walked
    )

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
    prelude_levels, independent = _level_preludes(
        extras_by_level, root_body, set(store_counts)
    )
    if not _chain_is_rectangular(chain, root_body, independent):
        return None, None, None, (
            "nested loop bounds vary with an outer induction variable"
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
        if scatter is not None:
            # every deferred store reads its operands after the body,
            # and the stores applied before it may have written
            skip = scatter.skip
            exported = [v for op in scatter.stores for v in op.operands]
        elif reduction is not None:
            skip = reduction.skip
            exported = [*reduction.indices, reduction.expr]
        else:
            skip = exported = frozenset()
        program = _compile_vector_body(program_ops, skip, ivs, exported)
        return mode, plan, program, None

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
# Imperfect (triangular / CSR / tiled) nests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SegmentedNest:
    """Whole-space plan for an imperfect nest: rectangular **rows** over
    one body that is ``prologue / inner reduction level / epilogue``.

    The rows are the levels of the perfect ``scf.for`` chain above that
    body, flattened row-major (``rows`` holds them as a store-less
    :class:`_NestPlan`: bounds, preludes, step charges and observers).
    The inner level is one loop whose trip count may vary per row —
    triangular (bounds affine in the row IVs) or CSR (bounds loaded from
    an offset array) — or a tiled pair (``tile_for`` around
    ``inner_for``) whose row-invariant tile loop is evaluated over its
    IV vector by ``tile_program``, so each row runs the tiles' inner
    ranges concatenated in iteration order.

    Phase A (``row_program``) evaluates the prologue over the row
    vectors — per-row inner bounds, the accumulator init value, epilogue
    subscripts.  The flat space is built with prefix sums over the
    per-row trip counts; ``inner_program`` evaluates the reduction
    expression over it, and the fold runs per row in iteration order
    (bit-exact f32).  Phase B (``epilogue_program``) then runs the
    epilogue per row with the accumulator readback preset to the folded
    per-row values; its stores (``stores``, injective over the rows, so
    they need no proof) are deferred like a scatter's.  An epilogue
    store may write back in place the cell its row's prologue loaded.
    Nothing is mutated until every runtime proof (step sign, monotone
    offsets, NaN hazard) has passed.

    ``needs_monotone`` names the bounds (``"lb"``/``"ub"``) classified
    as offset-array loads; those vectors are runtime-proved monotone
    non-decreasing (the CSR contract) with a reasoned bail otherwise.
    ``acc_shared`` is True when the accumulator cell is invariant across
    rows (an alloca scratch: re-initialised per row by the prologue,
    read back by the epilogue); False means the cell is affine in the
    row IVs (``y(k) += ...``) and folds write back per row.
    """

    rows: _NestPlan  # the row levels; no store roles
    inner_for: Operation
    tile_for: Operation | None
    tile_ops: int  # scalar step charge per tile iteration
    inner_ops: int  # scalar step charge per inner iteration
    bounds: tuple[SSAValue, SSAValue, SSAValue]  # inner lb / ub / step
    needs_monotone: tuple[str, ...]
    reduction: _MemrefReduction
    acc_shared: bool
    init_value: SSAValue | None  # prologue accumulator-init stored value
    readback: Operation | None  # epilogue accumulator load (preset)
    row_program: Any  # phase A over the row IVs
    tile_program: Any  # the tile body over the tile IV, or None
    inner_program: Any  # flat space [*rows, inner]
    epilogue_program: Any  # phase B over the row IVs
    stores: _NestScatter  # the epilogue's deferred stores


def _row_coverage(indices, row_ivs, root_body: Block) -> set[int] | None:
    """The row dims a subscript tuple is affine in, or None when a
    subscript is neither invariant nor affine in exactly one row IV.
    A tuple covering every row dim names a distinct cell per row."""
    covered: set[int] = set()
    for idx in indices:
        dims = []
        for dim, iv in enumerate(row_ivs):
            pattern = classify_index(idx, iv, root_body)
            if pattern.kind == "affine" and pattern.parameter != 0:
                dims.append(dim)
            elif pattern.kind != "invariant":
                return None
        if len(dims) > 1:
            return None
        covered.update(dims)
    return covered


def _segmented_nest_plan(loop: Operation):
    """Classify the imperfect nest shape rooted at the ``scf.for``
    ``loop`` (see :class:`_SegmentedNest`): a perfect chain of row
    levels, then one body holding ``prologue / inner level /
    epilogue``, where the inner level is one reduction loop or a tiled
    pair around it.  Returns ``(mode, plan, program, reason)`` like
    :func:`_nest_vector_plan`; all-None means the shape is something
    else entirely (no reasoned diagnostic)."""
    if loop.name != "scf.for":
        return None, None, None, None
    loops = [loop]
    while True:
        nested = [
            op for op in loops[-1].regions[0].block.ops if op.name == "scf.for"
        ]
        if len(nested) != 1:
            break
        loops.append(nested[0])
    if nested or len(loops) == 1:
        return None, None, None, None
    root_body = loop.regions[0].block
    inner_for = loops[-1]
    inner_body = inner_for.regions[0].block

    # -- levels: rows, then one inner loop or a tiled pair ----------------------
    # The inner loop is tiled when its bounds are no affine/offset
    # function of the loop around it (``do k = kk, min(kk + 63, n)``).
    tile_for = None
    if len(loops) >= 3:
        around = loops[-2].regions[0].block
        if any(
            classify_index(bound, around.args[0], around).kind
            not in ("affine", "invariant", "indirect")
            for bound in inner_for.operands[:3]
        ):
            tile_for = loops[-2]
    top = tile_for or inner_for
    walked = _walk_levels(loop, depth=len(loops) - (2 if tile_for else 1))
    if isinstance(walked, str):
        return None, None, None, walked
    row_ivs, chain, charge_specs, observer_specs, extras_by_level, body = (
        walked
    )
    pos = body.ops.index(top)
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

    # -- one inner loop: bounds affine in the row IVs or monotone offsets -----
    lb_v, ub_v, step_v = inner_for.operands[:3]
    needs_monotone: list[str] = []
    if tile_for is None:
        for which, bound in (("lb", lb_v), ("ub", ub_v)):
            kinds = {
                classify_index(bound, iv, root_body).kind for iv in row_ivs
            }
            if "indirect" in kinds:
                needs_monotone.append(which)
            if not kinds <= {"affine", "invariant", "indirect"}:
                return None, None, None, (
                    "inner loop bounds are neither affine in the outer IV "
                    "nor loaded from an offset array"
                )
        if any(
            classify_index(step_v, iv, root_body).kind != "invariant"
            for iv in row_ivs
        ):
            return None, None, None, "inner loop step varies with the outer IV"

    acc_root = root_memref(reduction.acc)
    row_ops = [*(op for level in extras_by_level for op in level), *prologue]
    tile_ops: list[Operation] = []
    if tile_for is not None:
        tile_ops = [
            op
            for op in tile_for.regions[0].block.ops
            if op is not inner_for and op.name not in _SKIPPED
        ]
    stored = {
        id(root_memref(op.operands[1]))
        for op in (*prologue, *tile_ops, *epilogue, *inner_body.ops)
        if op.name == "memref.store"
    }
    prelude_levels, independent = _level_preludes(
        [*extras_by_level, prologue], root_body, stored
    )
    if not _chain_is_rectangular(chain, root_body, independent):
        return None, None, None, (
            "nested loop bounds vary with an outer induction variable"
        )

    def row_invariant(v: SSAValue) -> bool:
        return _defined_outside(v, root_body) or v in independent

    # -- a tiled inner level: a row-invariant tile loop whose body
    # -- computes the inner bounds from the tile IV ---------------------------
    if tile_for is not None:
        if not all(map(row_invariant, tile_for.operands[:3])):
            return None, None, None, "tile loop bounds vary with a row IV"
        tile_defined = {tile_for.regions[0].block.args[0]}
        for op in (*tile_ops, inner_for):
            if op is not inner_for and (
                op.regions
                or op.name not in _SUPPORTED
                or op.name == "memref.store"
            ):
                return None, None, None, (
                    "tile loop body has nested regions, stores or "
                    "unsupported ops"
                )
            if not all(
                v in tile_defined or row_invariant(v) for v in op.operands
            ):
                return None, None, None, "tile loop body varies with a row IV"
            tile_defined.update(op.results)
        for op in inner_body.ops:
            if any(v in tile_defined for v in op.operands):
                return None, None, None, (
                    "inner loop body reads a tile-level value"
                )

    # -- accumulator cell must be resolvable per row ---------------------------
    row_defined = {r for op in row_ops for r in op.results}
    if not all(
        v in row_ivs or _defined_outside(v, root_body) or v in row_defined
        for v in reduction.indices
    ):
        return None, None, None, (
            "accumulator subscript is computed inside the inner loop body"
        )
    covered = _row_coverage(reduction.indices, row_ivs, root_body)
    if covered is None:
        return None, None, None, (
            "accumulator subscript is not affine/invariant in the outer IV"
        )
    if covered and len(covered) != len(row_ivs):
        return None, None, None, (
            "accumulator subscripts do not cover every row dim"
        )
    # invariant: one shared cell; covering: one cell per row
    acc_shared = not covered

    # -- prologue: pure compute plus (at most) the accumulator init store ------
    init_store = None
    for op in prologue:
        if op.name == "memref.store":
            if (
                root_memref(op.operands[1]) is acc_root
                and len(op.operands) - 2 == len(reduction.indices)
                and all(
                    index_values_equal(a, b, root_body)
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
    epi_stores: dict[int, Operation] = {}
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
                index_values_equal(a, b, root_body)
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
            if id(root) in epi_stores:
                return None, None, None, "two epilogue stores to one buffer"
            epi_stores[id(root)] = op
            covered = _row_coverage(op.operands[2:], row_ivs, root_body)
            if covered is None:
                return None, None, None, (
                    "epilogue store subscript is not affine/invariant "
                    "in the outer IV"
                )
            if not covered:
                return None, None, None, (
                    "epilogue store hits the same cell every row"
                )
            if len(covered) != len(row_ivs):
                return None, None, None, "epilogue store misses a row dim"

    # -- nothing read in the nest may be written in it, except the cell a
    # -- row's prologue loads and its epilogue writes back in place ----------
    prologue_ids = {id(op) for op in prologue}
    for op in (*row_ops, *tile_ops, *inner_body.ops, *epilogue):
        if op.name != "memref.load" or id(op) in reduction.skip:
            continue
        root = id(root_memref(op.operands[0]))
        if op is readback or root not in stored:
            continue
        store = epi_stores.get(root)
        if store is not None and id(op) in prologue_ids:
            if len(op.operands) - 1 == len(store.operands) - 2 and all(
                index_values_equal(a, b, root_body)
                for a, b in zip(op.operands[1:], store.operands[2:])
            ):
                continue  # each row reads only the cell it alone writes
            return None, None, None, (
                "prologue reads a cell other than the one its row writes "
                "back"
            )
        return None, None, None, (
            "a buffer read in the nest is also written in the nest"
        )

    row_skip = (
        frozenset({id(init_store)}) if init_store is not None else frozenset()
    )
    # the row, tile and epilogue programs run over materialised row and
    # tile vectors, so their loads gather copies: only the inner program,
    # whose IVs may be ranges, has views to guard
    row_program = _compile_vector_body(row_ops, row_skip, row_ivs)
    # a row value that only casts a row IV (gemm's i32 ``i`` and ``j``)
    # is that IV in the inner program, so it stays a range there
    iv_of_slot = dict(zip(row_program.iv_slots, row_ivs))
    aliases = {
        v: iv_of_slot[slot]
        for v, slot in row_program.slots.items()
        if slot in iv_of_slot and v not in row_ivs
    }
    stores = _NestScatter(
        stores=tuple(epi_stores.values()),
        proof_dims=((),) * len(epi_stores),
        skip=frozenset(map(id, epi_stores.values())),
    )
    epi_skip = stores.skip | (
        frozenset({id(readback)}) if readback is not None else frozenset()
    )
    rows = _NestPlan(
        ivs=tuple(row_ivs),
        root_dims=1,
        chain=tuple(chain),
        charge_specs=tuple(charge_specs),
        observer_specs=tuple(observer_specs),
        prelude=tuple(prelude_levels[:-1]),
        reduction=None,
    )
    plan = _SegmentedNest(
        rows=rows,
        inner_for=inner_for,
        tile_for=tile_for,
        tile_ops=max(1, len(tile_for.regions[0].block.ops)) if tile_for else 0,
        inner_ops=max(1, len(inner_body.ops)),
        bounds=(lb_v, ub_v, step_v),
        needs_monotone=tuple(needs_monotone),
        reduction=reduction,
        acc_shared=acc_shared,
        init_value=init_store.operands[0] if init_store is not None else None,
        readback=readback,
        row_program=row_program,
        tile_program=(
            _compile_vector_body(
                tile_ops, frozenset(), [tile_for.regions[0].block.args[0]]
            )
            if tile_for is not None
            else None
        ),
        inner_program=_compile_vector_body(
            list(inner_body.ops),
            reduction.skip,
            [*row_ivs, inner_body.args[0]],
            [reduction.expr],
            aliases,
        ),
        epilogue_program=_compile_vector_body(epilogue, epi_skip, row_ivs),
        stores=stores,
    )
    return "nest_segmented", plan, plan.row_program, None


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


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


def _concat_ranges(lbs, trips, step: int) -> np.ndarray:
    """The IVs of consecutive loop executions that start at ``lbs`` and
    run ``trips`` iterations of ``step`` each, in iteration order."""
    starts = np.cumsum(trips) - trips
    total = int(trips.sum())
    return (
        np.repeat(lbs, trips)
        + (np.arange(total, dtype=np.int64) - np.repeat(starts, trips))
        * step
    )


def _back_to_back(
    lbs, trips, step: int, axis: int = 0, ndim: int = 1
) -> _Range | None:
    """One range over the IVs of consecutive loop executions (see
    :func:`_concat_ranges`), on ``axis`` of an ``ndim``-axis space, when
    each non-empty one starts where the one before it stopped — CSR rows
    over one offset array, or gemm's k tiles — else None."""
    rows = trips > 0
    lbs = lbs[rows]
    trips = trips[rows]
    if len(lbs) > 1 and not np.array_equal(
        lbs[1:], lbs[:-1] + trips[:-1] * step
    ):
        return None
    return _Range(int(lbs[0]), step, int(trips.sum()), axis, ndim)


def _outer_chunks(levels: list, total: int):
    """``(first, ivs)`` for runs of whole slices of the outermost level of
    a broadcast space of ``total`` elements, each run at most
    ``_MAX_NEST_ELEMS`` elements where one slice fits.  ``levels[0]`` is
    a :class:`_Range`; ``first`` is the run's first index along it."""
    outer = levels[0]
    per_chunk = max(1, _MAX_NEST_ELEMS // (total // outer.count))
    for first in range(0, outer.count, per_chunk):
        yield first, [
            _Range(
                outer.start + first * outer.step, outer.step,
                min(per_chunk, outer.count - first), 0, outer.ndim,
            ),
            *levels[1:],
        ]


def _ragged_chunks(row_vecs, used, lbs, trips, step: int):
    """``(r0, r1, ivs, counts, shape)`` per chunk of whole rows ``r0:r1``
    of an inner level whose trip count varies per row: each row IV
    ``row_vecs`` repeated once per inner iteration (where ``used``) and
    the inner IVs as one range when the rows run back to back, else
    concatenated.  Above ``_MAX_NEST_ELEMS``, a chunk holds whole rows,
    so segments never straddle a chunk boundary and every fold stays
    per-row; rows with no iterations yield nothing."""
    n_rows = len(trips)
    cum = np.cumsum(trips)
    total = int(cum[-1])
    r0 = 0
    while r0 < n_rows:
        if total <= _MAX_NEST_ELEMS:
            r1 = n_rows
        else:
            base = int(cum[r0 - 1]) if r0 else 0
            r1 = int(
                np.searchsorted(cum, base + _MAX_NEST_ELEMS, side="right")
            )
            r1 = min(max(r1, r0 + 1), n_rows)
        seg = trips[r0:r1]
        ctotal = int(seg.sum())
        if ctotal:
            inner = _back_to_back(lbs[r0:r1], seg, step)
            ivs = [
                *(
                    np.repeat(v[r0:r1], seg) if use else None
                    for v, use in zip(row_vecs, used)
                ),
                inner if inner is not None
                else _concat_ranges(lbs[r0:r1], seg, step),
            ]
            yield r0, r1, ivs, seg, (ctotal,)
        r0 = r1


def _tiled_chunks(bounds, trips, k_lbs, k_trips, step: int):
    """``(r0, r1, ivs, None, shape)`` per chunk of the space ``(row
    levels..., inner)`` of a tiled inner level, which every row runs in
    full: each row level a :class:`_Range` on its own axis, as in
    :func:`_run_nest`, and the tiles' inner IVs on the last axis — one
    range when the tiles run back to back (gemm's k), so the inner loads
    read views, else their concatenated values.  Rows ``r0:r1`` are the
    chunk's rows in row-major order; above ``_MAX_NEST_ELEMS`` a chunk
    is a run of whole slices of the outermost row level."""
    depth = len(trips) + 1
    width = int(k_trips.sum())
    inner = _back_to_back(k_lbs, k_trips, step, depth - 1, depth)
    if inner is None:
        inner = _concat_ranges(k_lbs, k_trips, step).reshape(
            _axis_shape(width, depth - 1, depth)
        )
    space = [
        *(
            _Range(lb, level_step, t, axis, depth)
            for axis, ((lb, _, level_step), t) in enumerate(zip(bounds, trips))
        ),
        inner,
    ]
    total = math.prod(trips) * width
    per_slice = math.prod(trips[1:])  # rows per outermost index
    chunks = (
        [(0, space)] if total <= _MAX_NEST_ELEMS
        else _outer_chunks(space, total)
    )
    for first, ivs in chunks:
        rows = tuple(iv.count for iv in ivs[:-1])
        r0 = first * per_slice
        yield r0, r0 + math.prod(rows), ivs, None, (*rows, width)


def _inner_ranges(value, bounds, count: int):
    """``(lbs, ubs, trips, step)`` of ``count`` executions of a loop
    whose ``bounds`` ``value`` resolves to scalars or per-execution
    vectors; None when the step varies or is not positive (outside the
    contract: the scalar walk decides)."""
    step = value(bounds[2])
    if np.ndim(step) != 0 or step <= 0:
        return None
    step = int(step)
    lbs, ubs = (
        np.broadcast_to(np.asarray(value(v), dtype=np.int64), (count,))
        for v in bounds[:2]
    )
    return lbs, ubs, np.maximum(0, -((lbs - ubs) // step)), step


def _size_levels(interp, env, root_bounds, plan: _NestPlan):
    """Read every level's ``(lb, exclusive ub, step)``: ``root_bounds``
    for the root dims, then each chain member's from the environment,
    after its step-neutral prelude.  Returns ``(bounds, trips,
    stitches, total)``, or None when a chain step is not positive (the
    scalar walk decides)."""
    trips = [trip_count(lb, ub, step) for lb, ub, step in root_bounds]
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
            return None
        if level.stitch is not None:
            main_for, rem_for, main_ops, rem_ops = level.stitch
            m_lb, m_ub, m_step = (
                interp.get(env, v) for v in main_for.operands[:3]
            )
            r_lb, r_ub, r_step = (
                interp.get(env, v) for v in rem_for.operands[:3]
            )
            if m_step <= 0:
                return None
            stitches.append((
                len(trips), main_for, rem_for, main_ops, rem_ops,
                trip_count(m_lb, m_ub, m_step),
                trip_count(r_lb, r_ub, r_step),
            ))
        bounds.append((lb, ub, step))
        trips.append(trip_count(lb, ub, step))
        total *= trips[-1]
    return bounds, trips, stitches, total


def _charge_levels(interp, plan: _NestPlan, trips, stitches) -> None:
    """Charge the steps and fire the loop observer of every level as
    the scalar nested walk would (batched by ``count``)."""
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


def _run_nest(interp, env, root_bounds, plan: _NestPlan, program) -> bool:
    """Execute a rectangular plan whole-space.  ``root_bounds`` holds one
    ``(lb, exclusive ub, step)`` triple per root dimension; chain-member
    bounds are read from the environment (after the step-neutral prelude
    evaluation).  Returns True when handled — observers and step
    accounting then exactly match the scalar nested walk; False leaves
    no visible side effects, so the scalar walk can rerun safely.
    """
    sized = _size_levels(interp, env, root_bounds, plan)
    if sized is None:
        return False
    bounds, trips, stitches, total = sized
    if 0 < total < _MIN_TRIPS and not plan.span:
        return False  # scalar wins on constant factors

    if total:
        reduction = plan.reduction
        depth = len(trips)
        if depth == 1:
            lb, _, step = bounds[0]
            spaces = [[_Range(lb, step, total, 0, 1)]]
        else:
            levels = [
                _Range(lb, step, t, axis, depth)
                for axis, ((lb, _, step), t) in enumerate(zip(bounds, trips))
            ]
            spaces = [levels]
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
                spaces = (ivs for _, ivs in _outer_chunks(levels, total))
        for ivs in spaces:
            frame = program.run(interp, env, ivs)
            shape = tuple(iv.count for iv in ivs)
            if plan.scatter is not None:
                value = program.lookup(frame, interp, env)
                if not _apply_stores(plan.scatter, value, shape):
                    return False  # failed proof: nothing was mutated
            elif reduction is not None:
                value = program.lookup(frame, interp, env)
                array = value(reduction.acc)
                cells = [_dense(value(i)) for i in reduction.indices]
                if len(trips) == 1 and any(map(_is_vector, cells)):
                    # depth 1 with a varying cell: cells may collide
                    width = None
                    key = tuple([c if _is_vector(c) else int(c) for c in cells])
                else:
                    # each cell is invariant along the innermost level:
                    # one representative per row
                    width = trips[-1]
                    key = tuple([
                        np.broadcast_to(c, shape)[..., 0].reshape(-1)
                        if _is_vector(c) else int(c)
                        for c in cells
                    ])
                try:
                    folded = _ordered_fold(
                        reduction.op_name, array, key, value(reduction.expr),
                        shape, width,
                    )
                except IndexError as error:
                    # the scalar walk meets the cell at its load first
                    raise SubscriptError(f"memref.load: {error}") from error
                if not folded:
                    return False  # single pass (see above): nothing stored

    _charge_levels(interp, plan, trips, stitches)
    return True


def _run_segmented(interp, env, lb, ub, step, plan: _SegmentedNest) -> bool:
    """Execute an imperfect (triangular / CSR / tiled) plan whole-space.
    True when handled — observers and step accounting then exactly
    match the scalar nested walk; a False return has mutated nothing
    (stores and accumulator writebacks are all deferred past the runtime
    proofs), so the scalar walk can rerun safely."""
    sized = _size_levels(interp, env, ((lb, ub, step),), plan.rows)
    if sized is None:
        return False
    bounds, trips, _, n_rows = sized
    if n_rows == 0:
        _charge_levels(interp, plan.rows, trips, ())
        return True  # no row reaches the imperfect body
    row_vecs = _flatten_space([
        np.arange(lb, lb + t * step, step, dtype=np.int64)
        for (lb, _, step), t in zip(bounds, trips)
    ])
    frame_a = plan.row_program.run(interp, env, row_vecs)
    row_value = plan.row_program.lookup(frame_a, interp, env)

    # -- the inner level: each row's trip count and inner IVs ------------------
    if plan.tile_for is None:
        tile_trips = None
        ranges = _inner_ranges(row_value, plan.bounds, n_rows)
        if ranges is None:
            return False  # the scalar walk decides
        lb_vec, ub_vec, trips_vec, inner_step = ranges
        for which, vec in (("lb", lb_vec), ("ub", ub_vec)):
            if which in plan.needs_monotone and n_rows > 1 and bool(
                np.any(np.diff(vec) < 0)
            ):
                logger.debug(
                    "scalar bail-out: segmented nest %s offsets are not "
                    "monotone non-decreasing (shuffled offset array); "
                    "rerunning the loop on the scalar tier",
                    which,
                )
                return False
        chunks = _ragged_chunks(
            row_vecs, plan.inner_program.iv_used, lb_vec, trips_vec,
            inner_step,
        )
    else:
        # The tile loop is row-invariant: evaluate its body once over the
        # tile IVs; every row runs the tiles' inner ranges back to back.
        t_lb, t_ub, t_step = (
            int(row_value(v)) for v in plan.tile_for.operands[:3]
        )
        if t_step <= 0:
            return False
        tile_count = trip_count(t_lb, t_ub, t_step)
        tile_trips = np.zeros(0, dtype=np.int64)
        chunks = ()
        if tile_count:
            tiles = np.arange(
                t_lb, t_lb + tile_count * t_step, t_step, dtype=np.int64
            )
            tile_value = plan.tile_program.lookup(
                plan.tile_program.run(interp, env, [tiles], row_value),
                interp,
                env,
            )
            ranges = _inner_ranges(tile_value, plan.bounds, tile_count)
            if ranges is None:
                return False
            k_lb, _, tile_trips, inner_step = ranges
            if tile_trips.any():
                chunks = _tiled_chunks(
                    bounds, trips, k_lb, tile_trips, inner_step
                )
        row_width = int(tile_trips.sum())
        trips_vec = np.full(n_rows, row_width, dtype=np.int64)
    total = int(trips_vec.sum())
    if n_rows + total < _MIN_TRIPS:
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
        init = _gather(acc_arr, cell)
    # per-row folds start from the init values; empty rows keep them
    folded_all = np.array(_as_vector(init, n_rows, dtype), dtype=dtype)
    for r0, r1, ivs, counts, shape in chunks:
        # the row program's per-row values, laid out like the row IVs
        def resolve(v: SSAValue, _r0=r0, _r1=r1, _counts=counts,
                    _rows=shape[:-1] + (1,)):
            slot = plan.row_program.slots.get(v)
            if slot is not None:
                val = frame_a[slot]
                if np.ndim(val) == 0:
                    return val
                if _counts is None:
                    return val[_r0:_r1].reshape(_rows)
                return np.repeat(val[_r0:_r1], _counts)
            return interp.get(env, v)

        frame_i = plan.inner_program.run(interp, env, ivs, resolve)
        slot = plan.inner_program.slots.get(reduction.expr)
        expr = frame_i[slot] if slot is not None else resolve(reduction.expr)
        seg = trips_vec[r0:r1]
        t0 = int(seg[0])
        if bool(np.all(seg == t0)):
            key, width = (slice(None),), t0  # equal rows
        else:
            key, width = (np.repeat(np.arange(r1 - r0), seg),), None
        if not _ordered_fold(
            reduction.op_name, folded_all[r0:r1], key, expr, shape, width
        ):
            return False  # nothing mutated yet: all writes are deferred

    # -- every proof passed: run the epilogue and write the folds back ---------
    def resolve_epi(v: SSAValue):
        if plan.readback is not None and v is plan.readback.results[0]:
            return folded_all
        return row_value(v)

    frame_e = plan.epilogue_program.run(interp, env, row_vecs, resolve_epi)

    def epi_value(v: SSAValue):
        slot = plan.epilogue_program.slots.get(v)
        return frame_e[slot] if slot is not None else resolve_epi(v)

    _apply_stores(plan.stores, epi_value, (n_rows,))
    if plan.acc_shared:
        # the scalar walk leaves the last row's fold in the shared cell
        _put(acc_arr, cell, folded_all[-1])
    elif plan.init_value is not None:
        _put(acc_arr, cell, folded_all)  # init store ran for empty rows too
    else:
        nz = trips_vec > 0
        if bool(nz.all()):
            _put(acc_arr, cell, folded_all)
        else:
            # zero-trip rows never touched their cell in the scalar walk
            cell_nz = tuple(c[nz] if np.ndim(c) else c for c in cell)
            _put(acc_arr, cell_nz, folded_all[nz])

    _charge_levels(interp, plan.rows, trips, ())
    observer = interp.loop_observer
    if tile_trips is None:
        interp.steps += total * plan.inner_ops
        executions = trips_vec
    else:
        interp.steps += n_rows * (
            tile_count * plan.tile_ops + row_width * plan.inner_ops
        )
        executions = tile_trips
        if observer is not None:
            observer(plan.tile_for, tile_count, n_rows)
    if observer is not None:
        # one observer call per distinct trip count, batched — modelled
        # cycles are integer-valued floats, so sums stay exact
        uniq, freq = np.unique(executions, return_counts=True)
        scale = 1 if tile_trips is None else n_rows
        for t, c in zip(uniq, freq):
            observer(plan.inner_for, int(t), int(c) * scale)
    return True


def _apply_stores(deferred: _NestScatter, value, shape) -> bool:
    """Prove every deferred store injective over the flattened space of
    ``shape``, then apply them all in op order.  ``value`` resolves an
    SSA value of the evaluated space.  False (nothing mutated) means the
    scalar walk must rerun."""
    total = math.prod(shape)
    resolved = []
    for store, dims_to_prove in zip(deferred.stores, deferred.proof_dims):
        indices = [_flat(value(i), shape) for i in store.operands[2:]]
        if dims_to_prove and _prove_injective_tuple(
            [indices[d] for d in dims_to_prove], total
        ) is None:
            logger.debug(
                "scalar bail-out: scatter store failed the injectivity "
                "proof (the subscript tuple has duplicate entries over the "
                "iteration space, or a negative entry that wraps onto "
                "another cell; neither monotone nor unique); rerunning "
                "the loop on the scalar tier",
            )
            return False
        resolved.append((store, indices))
    for store, indices in resolved:
        key = tuple(
            np.asarray(i) if np.ndim(i) else int(i) for i in indices
        )
        _put(
            value(store.operands[1]),
            key if len(key) > 1 else key[0],
            _flat(value(store.operands[0]), shape),
        )
    return True


def _prove_injective(vec: np.ndarray) -> str | None:
    """Runtime tiers of the injectivity-proof lattice (see the module
    docstring): ``monotone`` (O(n)) before ``unique`` (O(n log n)), the
    vector sorted and compared pairwise.  None when the vector has
    duplicates or a negative entry: the scalar engine and NumPy both wrap
    ``s < 0`` to ``extent + s``, so distinct values need not be distinct
    cells.  Monotonicity is tested by comparison, not by differences,
    which overflow at the ends of a fixed-width dtype."""
    if vec.size <= 1:
        return "trivial"
    if bool(np.all(vec[1:] > vec[:-1])) or bool(np.all(vec[1:] < vec[:-1])):
        return "monotone" if min(vec[0], vec[-1]) >= 0 else None
    ordered = np.sort(vec)
    if ordered[0] < 0 or _sorted_repeats(ordered):
        return None
    return "unique"


def _prove_injective_tuple(columns, total: int) -> str | None:
    """The injectivity lattice lifted to a subscript *tuple* over the
    flattened nest space: a single varying column uses the rank-1 tiers
    (monotone before unique); several columns are lexsorted together and
    compared pairwise (O(n log n)).  Any negative column declines, as in
    the rank-1 tiers."""
    arrays = [np.broadcast_to(np.asarray(c), (total,)) for c in columns]
    if total <= 1:
        return "trivial"
    if len(arrays) == 1:
        return _prove_injective(arrays[0])
    if any(a.min() < 0 for a in arrays):
        return None
    order = np.lexsort(arrays)
    if _sorted_repeats(*(a[order] for a in arrays)):
        return None
    return "tuple-unique"


def _sorted_repeats(first, *rest) -> bool:
    """Whether two adjacent rows of the sorted tuple columns are equal:
    the duplicate test shared by the ``unique`` and ``tuple-unique``
    tiers."""
    dup = first[1:] == first[:-1]
    for col in rest:
        dup &= col[1:] == col[:-1]
    return bool(dup.any())


def _ordered_fold(
    op_name: str, target: np.ndarray, key, value, shape, width
) -> bool:
    """Combine the program ``value`` over the space ``shape``, read
    flattened row-major as ``vec``, into the cells ``target[key]``
    strictly in iteration order, with the scalar engine's rounding.

    With a ``width``, cell ``r`` of ``key`` takes ``vec[r*width :
    (r+1)*width]``: a scalar ``key`` is one chain, and equal-length rows
    fold together, along the shorter axis of their ``(rows, width)``
    matrix: an add or multiply column by column (:func:`_fold_columns`,
    which reads ``value`` in its own layout, so it is never flattened)
    when rows outnumber the width, else with one row-wise
    ``ufunc.accumulate``.  Without one, ``key`` holds a full subscript
    per element of ``vec`` and colliding cells (ragged rows, repeated
    indices) fold with in-order ``ufunc.at``.
    Returns False with nothing mutated when a NaN meets a min/max
    combiner, because Python ``min``/``max`` ignore a NaN rhs where
    ``np.minimum``/``np.maximum`` propagate it."""
    ufunc = _REDUCERS[op_name]
    minmax = ufunc is np.minimum or ufunc is np.maximum
    total = math.prod(shape)
    if width is not None and not minmax and total // width > width:
        values = np.broadcast_to(_dense(value), shape)
        if values.dtype != target.dtype:
            values = values.astype(target.dtype)
        if values.shape[-1] != width:
            values = values.reshape(-1, width)
        target[key] = _fold_columns(ufunc, target[key], values)
        return True
    vec = _as_vector(_flat(value, shape), total, target.dtype)
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


#: rows per block of :func:`_fold_columns`: a block's columns stay in
#: cache while the fold passes over them
_FOLD_BLOCK_ROWS = 4096


def _fold_columns(ufunc, init: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fold ``values``, shaped ``(*rows, width)``, into ``init``, its
    rows flattened row-major: one column at a time over blocks of about
    ``_FOLD_BLOCK_ROWS`` rows, split along the first axis.  Each row
    still combines its values in iteration order with the same rounding
    as a row-wise ``ufunc.accumulate``, without copying the values beside
    their inits, flattening them, or striding through short rows one
    inner loop each."""
    folded = np.array(init)
    acc_rows = folded.reshape(values.shape[:-1])
    step = max(1, _FOLD_BLOCK_ROWS // math.prod(values.shape[1:-1]))
    for start in range(0, len(acc_rows), step):
        acc = acc_rows[start : start + step]
        block = values[start : start + step]
        for k in range(values.shape[-1]):
            ufunc(acc, block[..., k], out=acc)
    return folded


def _is_vector(value) -> bool:
    """True for a per-element vector, False for a scalar (``np.ndim``
    is too slow for the per-launch hot path)."""
    return isinstance(value, np.ndarray) and value.ndim > 0


def _as_vector(value, trips: int, dtype) -> np.ndarray:
    vec = np.asarray(value)
    if vec.ndim == 0:
        return np.full(trips, vec[()], dtype=dtype)
    return vec.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
#
# Each of the four entries hands one family of modes to the shared
# executors.  The interpreter's rank-1 dispatch (``scf.for`` and rank-1
# ``omp.loop_nest``) tries three of them through :func:`try_rank1_loop`,
# which calls them by their module-global names, so a wrapper bound to
# one of those names sees every call.


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
    """Whole-space evaluation of a nest rooted at the ``scf.for`` or
    rank-1 ``omp.loop_nest`` ``loop``, or of a runtime-bounded span.
    Returns True when handled; the scalar walk must run otherwise."""
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
) -> bool:
    """Execute a ``memref_reduction`` loop whole-space.  Returns True
    when handled (the scalar path must run otherwise)."""
    _, mode, plan, program = _classify_guarded(interp, loop)
    if mode != "memref_reduction":
        return False
    if trip_count(lb, ub, step) < _MIN_TRIPS:
        return False  # zero-trip loops included: the scalar walk is free
    return _run_nest(interp, env, ((lb, ub, step),), plan, program)


def try_rank1_loop(
    interp, loop: Operation, env, lb: int, ub: int, step: int
) -> bool:
    """Try the rank-1 entries in turn on the ``scf.for`` or rank-1
    ``omp.loop_nest`` ``loop``.  Returns True when one handled it; the
    scalar walk must run otherwise."""
    return (
        try_vectorized_loop(interp, loop, env, lb, ub, step)
        or try_vectorized_nest(interp, loop, env, lb, ub, step)
        or try_vectorized_reduction(interp, loop, env, lb, ub, step)
    )


def loop_vector_mode(loop: Operation) -> tuple[str | None, Any]:
    """Classify ``loop`` once and return ``(mode, plan)``.

    Depth-1 loops are ``elementwise``, ``memref_reduction`` or
    ``scatter_store``, and ``nest_segmented`` when their bounds are
    runtime data; nest roots are ``nest_elementwise``,
    ``nest_reduction`` or ``nest_scatter``, and imperfect (triangular,
    CSR or tiled) nests ``nest_segmented``.  ``(None, None)`` means the
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


_INTS = (int, np.integer)

#: casts that keep the reference interpreter's value: the result aliases
#: its operand's slot
_ALIASES = ("arith.index_cast", "arith.extsi", "arith.trunci")


class _Range:
    """One level's induction variable, kept lazy: the values ``start +
    p * step`` for ``p`` in ``range(count)``, laid along ``axis`` of an
    ``ndim``-axis broadcast iteration space.  An add, subtract or
    multiply by an IV-independent integer gives another range; a load or
    store subscripted by in-bounds ranges on distinct axes slices a view;
    any other consumer reads :meth:`array`."""

    __slots__ = ("start", "step", "count", "axis", "ndim")

    def __init__(self, start: int, step: int, count: int, axis: int, ndim: int):
        self.start = start
        self.step = step
        self.count = count
        self.axis = axis
        self.ndim = ndim

    def affine(self, scale: int, offset: int) -> _Range:
        """The range of ``value * scale + offset``."""
        return _Range(
            self.start * scale + offset, self.step * scale, self.count,
            self.axis, self.ndim,
        )

    def array(self) -> np.ndarray:
        """The int64 values as an open-mesh array: ``count`` long on
        ``axis``, length 1 on every other axis."""
        if self.step:
            stop = self.start + self.count * self.step
            vec = np.arange(self.start, stop, self.step, dtype=np.int64)
        else:
            vec = np.full(self.count, self.start, dtype=np.int64)
        if self.ndim > 1:
            vec = vec.reshape(_axis_shape(self.count, self.axis, self.ndim))
        return vec

    def remainder(self, c: int) -> np.ndarray | None:
        """``arith.remsi`` of these values by the integer ``c > 0`` when
        none is negative: one period of ``c // gcd(step, c)`` values,
        tiled, instead of the whole range materialised and divided.  None
        when a value is negative, since the truncating remainder keeps
        its sign there and :func:`_trunc_remainder` computes it."""
        if min(self.start, self.start + (self.count - 1) * self.step) < 0:
            return None
        period = c // math.gcd(self.step, c)
        lanes = np.arange(min(period, self.count), dtype=np.int64)
        cycle = (self.start + lanes * self.step) % c
        vec = np.tile(cycle, -(-self.count // period))[: self.count]
        if self.ndim > 1:
            vec = vec.reshape(_axis_shape(self.count, self.axis, self.ndim))
        return vec

    def index(self, extent: int) -> slice | None:
        """The basic slice reading this range from a dimension of
        ``extent`` cells, or None when the range is constant or leaves
        ``[0, extent)``: a negative subscript wraps and a large one
        raises, which only the index-array path reproduces."""
        step = self.step
        start = self.start
        last = start + (self.count - 1) * step
        if not step or not (0 <= start < extent and 0 <= last < extent):
            return None
        stop = last + (1 if step > 0 else -1)
        return slice(start, stop if stop >= 0 else None, step)


def _axis_shape(count: int, axis: int, ndim: int) -> tuple[int, ...]:
    return (1,) * axis + (count,) + (1,) * (ndim - axis - 1)


def _dense(value):
    """``value`` with a range materialised (see :meth:`_Range.array`)."""
    return value.array() if type(value) is _Range else value


def _flat(value, shape: tuple[int, ...]):
    """A program value over the row-major flattened space of ``shape``,
    as the reductions, deferred stores and segmented folds read it; a
    scalar stays a scalar."""
    value = _dense(value)
    if isinstance(value, np.ndarray) and value.ndim:
        if value.shape != shape:
            value = np.broadcast_to(value, shape)
        return value.reshape(-1)
    return value


def _view(array: np.ndarray, subs):
    """``array[subs]`` as a view laid out on the iteration space's axes
    — its ranges' axes in increasing order, length 1 on the axes no
    subscript varies along — when every subscript is an integer or an
    in-bounds range on its own axis; else None."""
    key = []
    axes = []
    ndim = 0
    for extent, sub in zip(array.shape, subs):
        if type(sub) is _Range:
            cut = sub.index(extent)
            if cut is None or sub.axis in axes:
                return None
            key.append(cut)
            axes.append(sub.axis)
            ndim = sub.ndim
        elif isinstance(sub, _INTS):
            key.append(sub)
        else:
            return None
    if not axes:
        return None
    view = array[tuple(key)]
    if axes != sorted(axes):
        view = view.transpose(np.argsort(axes))
        axes.sort()
    if len(axes) < ndim:
        expand: list = [None] * ndim
        for axis in axes:
            expand[axis] = slice(None)
        view = view[tuple(expand)]
    return view


def _gather_key(subs):
    return tuple([_dense(s) for s in subs])


def _gather(array: np.ndarray, key):
    """``array[key]`` for a load.  A rank-1 load's index array reads
    through ``ndarray.take``, which gives fancy indexing's values,
    negative wrap and error message at about half its cost on int32
    subscripts.  A subscript that leaves the buffer raises
    :class:`SubscriptError`, as on every other tier."""
    try:
        return array.take(key) if type(key) is np.ndarray else array[key]
    except IndexError as error:
        raise SubscriptError(f"memref.load: {error}") from error


def _put(array: np.ndarray, key, value) -> None:
    """``array[key] = value`` for a store (see :func:`_gather`)."""
    try:
        array[key] = value
    except IndexError as error:
        raise SubscriptError(f"memref.store: {error}") from error


def _scatter(array: np.ndarray, subs, value) -> None:
    """Store ``value`` into ``array[subs]`` over the iteration space:
    through a view when :func:`_view` finds one whose shape takes the
    value, else by index arrays broadcast to the value's shape, so a
    cell written more than once keeps its last write in row-major
    order."""
    value = _dense(value)
    dst = _view(array, subs)
    if dst is not None:
        vshape = np.shape(value)
        if not vshape or (
            len(vshape) == dst.ndim
            and all(v == 1 or v == d for v, d in zip(vshape, dst.shape))
        ):
            dst[...] = value
            return
    key = _gather_key(subs)
    vshape = np.shape(value)
    if vshape:
        shape = np.broadcast_shapes(vshape, *(np.shape(k) for k in key))
        key = tuple([np.broadcast_to(k, shape) for k in key])
    _put(array, key if len(key) > 1 else key[0], value)


def _check_divisor(divisor, op_name: str) -> None:
    if isinstance(divisor, np.ndarray):
        zero = not divisor.all()
    else:
        zero = divisor == 0
    if zero:
        raise DivisionByZeroError(f"{op_name}: integer division by zero")


def _trunc_divide(a, b):
    """``arith.divsi`` with the scalar engine's exact semantics:
    ``int(math.trunc(a / b))`` — truncating division *via float64*,
    including its precision behaviour — and its typed zero-divisor
    error."""
    _check_divisor(b, "arith.divsi")
    return np.trunc(np.divide(a, b)).astype(np.int64)


def _trunc_remainder(a, b):
    """``arith.remsi``: the trunc-style remainder of ``math.fmod``."""
    _check_divisor(b, "arith.remsi")
    return np.fmod(a, b)


class _VectorProgram:
    """Compiled whole-iteration-space evaluator for one loop body.

    Frame slot 0 holds the instruction tuple itself, so a run needs only
    one template copy plus the outer-value fetches.  ``iv_slots`` holds
    one slot per induction variable (rank-n ``omp.loop_nest`` bodies have
    several); ``iv_used`` says which of them the body reads.
    """

    __slots__ = ("template", "slots", "iv_slots", "iv_used", "outer")

    def __init__(self, template, slots, iv_slots, iv_used, outer):
        self.template = template
        self.slots = slots
        self.iv_slots = iv_slots
        self.iv_used = iv_used
        #: loop-invariant values fetched from the interpreter env per run
        self.outer = outer

    def run(self, interp, env, ivs, resolve=None) -> list:
        """Evaluate the body over ``ivs``, one :class:`_Range` or index
        array per iv slot.  Outer values come from the interpreter
        environment, or through ``resolve`` when given — the segmented
        runner feeds per-row phase values that way (prologue results
        repeated per segment, the folded accumulator preset for the
        epilogue readback)."""
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
        #: values that may hold a :class:`_Range` when the program runs
        self.ranges: set[SSAValue] = set()
        #: the slot of each range slot's materialised twin
        self.dense_slots: dict[int, int] = {}

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

    def dense(self, value: SSAValue) -> int:
        """The slot of ``value`` for a consumer that reads arrays: a range
        is materialised once, into a twin slot, before its first such
        consumer."""
        if value not in self.ranges:
            return self.src(value)
        source = self.slots[value]
        slot = self.dense_slots.get(source)
        if slot is None:
            slot = self.dense_slots[source] = len(self.template)
            self.template.append(None)

            def instr(frame, _s=source, _d=slot):
                frame[_d] = _dense(frame[_s])
            self.instrs.append(instr)
        return slot

    def literal(self, value: SSAValue):
        """The integer constant ``value`` holds, or None."""
        slot = self.slots.get(value)
        if slot is None or value in self.ranges:
            return None
        item = self.template[slot]
        return item if type(item) is int else None


def _copies(ops, skip, exported) -> set[int]:
    """The ids of the loads whose views must be copied, so that a view
    never sees a write the scalar walk would not show the value: a store
    runs after the load and before the value's last use, or the runner
    reads the value after the body (``exported``) and some store, a
    deferred one included, follows the load."""
    alias: dict[SSAValue, SSAValue] = {}
    last_use: dict[SSAValue, int] = {}
    loads: list[tuple[int, Operation]] = []
    run_stores: list[int] = []
    all_stores: list[int] = []
    for pos, op in enumerate(op for op in ops if op.name not in _SKIPPED):
        if op.name == "memref.store":
            all_stores.append(pos)
        if id(op) in skip:
            continue
        for operand in op.operands:
            last_use[alias.get(operand, operand)] = pos
        if op.name in _ALIASES:
            alias[op.results[0]] = alias.get(op.operands[0], op.operands[0])
        elif op.name == "memref.load" and len(op.operands) > 1:
            loads.append((pos, op))
        elif op.name == "memref.store":
            run_stores.append(pos)
    exported = {alias.get(v, v) for v in exported}
    copies = set()
    for at, load in loads:
        value = load.results[0]
        end = last_use.get(value, at)
        if any(at < q < end for q in run_stores) or (
            value in exported and any(q > at for q in all_stores)
        ):
            copies.add(id(load))
    return copies


def _compile_vector_body(
    ops, skip: frozenset[int], ivs, exported=(), aliases=None
) -> _VectorProgram:
    """Translate the (already validated) op sequence into a vector
    program.  ``ivs`` holds one induction-variable value per nest
    dimension (rank-n nests gather them from several blocks).
    ``exported`` names the values the runner reads after the body (see
    :func:`_copies`); ``aliases`` maps outer values to the IVs they
    equal, which the program reads in their place.

    Only an op with an operand that may hold a :class:`_Range` checks
    its operands' types when it runs: an add, subtract or multiply keeps
    a range lazy, a load or store slices views, and every other op reads
    the range's materialised twin (:meth:`_VectorCompiler.dense`).  The
    rest keep plain NumPy closures."""
    from repro.ir.attributes import FloatAttr, IntegerAttr, StringAttr
    from repro.ir.types import FloatType

    ctx = _VectorCompiler()
    iv_slots = tuple(ctx.dst(iv) for iv in ivs)
    ctx.ranges.update(ivs)
    for value, iv in (aliases or {}).items():
        ctx.slots[value] = ctx.slots[iv]
        ctx.ranges.add(value)
    copies = _copies(ops, skip, exported)
    ranges = ctx.ranges

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
        if name in _ALIASES:
            # width-preserving in the reference interpreter: alias the slot
            ctx.slots[op.results[0]] = ctx.src(op.operands[0])
            if op.operands[0] in ranges:
                ranges.add(op.results[0])
            continue
        if name == "memref.load":
            _emit_load(ctx, op, id(op) in copies)
            continue
        if name == "memref.store":
            _emit_store(ctx, op)
            continue
        if name in ("arith.addi", "arith.subi", "arith.muli") and any(
            v in ranges for v in op.operands
        ):
            _emit_affine(ctx, op)
            continue
        if name == "arith.remsi" and op.operands[0] in ranges:
            divisor = ctx.literal(op.operands[1])
            if divisor is not None and divisor > 0:
                _emit_periodic(ctx, op, divisor)
                continue
        if name in _BINOPS or name in ("arith.divsi", "arith.remsi",
                                       "arith.cmpi", "arith.cmpf"):
            if name in _BINOPS:
                fn = _BINOPS[name]
            elif name == "arith.divsi":
                fn = _trunc_divide
            elif name == "arith.remsi":
                fn = _trunc_remainder
            else:
                predicate = op.attributes["predicate"]
                assert isinstance(predicate, StringAttr)
                fn = _CMPS[predicate.value]
            a, b = ctx.dense(op.operands[0]), ctx.dense(op.operands[1])
            r = ctx.dst(op.results[0])

            def instr(frame, _fn=fn, _a=a, _b=b, _r=r):
                frame[_r] = _fn(frame[_a], frame[_b])
            ctx.instrs.append(instr)
            continue
        if name == "arith.select":
            c, t, f = (ctx.dense(o) for o in op.operands)
            r = ctx.dst(op.results[0])

            def instr(frame, _c=c, _t=t, _f=f, _r=r):
                frame[_r] = np.where(frame[_c], frame[_t], frame[_f])
            ctx.instrs.append(instr)
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
            s = ctx.dense(op.operands[0])
            r = ctx.dst(op.results[0])

            def instr(frame, _s=s, _r=r, _dtype=dtype):
                frame[_r] = np.asarray(frame[_s]).astype(_dtype)
            ctx.instrs.append(instr)
            continue
        if name in _MATH:
            fn = _MATH[name]
            s = ctx.dense(op.operands[0])
            r = ctx.dst(op.results[0])

            def instr(frame, _fn=fn, _s=s, _r=r):
                frame[_r] = _fn(frame[_s])
            ctx.instrs.append(instr)
            continue
        raise AssertionError(f"vectorizer admitted unsupported op {name}")

    ctx.template[0] = tuple(ctx.instrs)
    used = {ctx.slots.get(v) for v in exported} | {
        ctx.slots.get(v)
        for op in ops
        if op.name not in _SKIPPED and id(op) not in skip
        for v in op.operands
    }
    return _VectorProgram(
        ctx.template,
        ctx.slots,
        iv_slots,
        tuple(slot in used for slot in iv_slots),
        tuple(ctx.outer),
    )


def _affine_terms(name: str, c: int, range_first: bool) -> tuple[int, int]:
    """``(scale, offset)`` of the range that ``name`` makes of a range
    and the integer ``c`` (``range_first``: the range is the lhs)."""
    if name == "arith.muli":
        return c, 0
    if name == "arith.addi":
        return 1, c
    return (1, -c) if range_first else (-1, c)


def _emit_affine(ctx: _VectorCompiler, op: Operation) -> None:
    """An ``addi``/``subi``/``muli`` with a range operand: a range and an
    integer give a range; anything else runs the NumPy op on arrays."""
    name = op.name
    lhs, rhs = op.operands
    fn = _BINOPS[name]
    r = ctx.dst(op.results[0])
    ctx.ranges.add(op.results[0])
    lit_l, lit_r = ctx.literal(lhs), ctx.literal(rhs)
    if lit_l is not None or lit_r is not None:
        # a literal operand only shifts or scales the range
        swap = lit_r is None
        x, c = (ctx.src(rhs), lit_l) if swap else (ctx.src(lhs), lit_r)
        scale, offset = _affine_terms(name, c, not swap)

        def instr(frame, _x=x, _r=r, _s=scale, _o=offset, _fn=fn, _c=c,
                  _swap=swap):
            v = frame[_x]
            if type(v) is _Range:
                frame[_r] = v.affine(_s, _o)
            else:
                frame[_r] = _fn(_c, v) if _swap else _fn(v, _c)
        ctx.instrs.append(instr)
        return
    a, b = ctx.src(lhs), ctx.src(rhs)

    def instr(frame, _a=a, _b=b, _r=r, _fn=fn, _name=name):
        x = frame[_a]
        y = frame[_b]
        if type(x) is _Range and type(y) is not _Range and isinstance(y, _INTS):
            frame[_r] = x.affine(*_affine_terms(_name, int(y), True))
        elif type(y) is _Range and type(x) is not _Range and isinstance(x, _INTS):
            frame[_r] = y.affine(*_affine_terms(_name, int(x), False))
        else:
            frame[_r] = _fn(_dense(x), _dense(y))
    ctx.instrs.append(instr)


def _emit_periodic(ctx: _VectorCompiler, op: Operation, c: int) -> None:
    """An ``arith.remsi`` of a value that may be a range by the integer
    literal ``c > 0``: a range with no negative value tiles its period
    (:meth:`_Range.remainder`); anything else divides as before."""
    x = ctx.src(op.operands[0])
    r = ctx.dst(op.results[0])

    def instr(frame, _x=x, _r=r, _c=c):
        v = frame[_x]
        if type(v) is _Range:
            tiled = v.remainder(_c)
            if tiled is not None:
                frame[_r] = tiled
                return
        frame[_r] = _trunc_remainder(_dense(v), _c)
    ctx.instrs.append(instr)


def _emit_load(ctx: _VectorCompiler, op: Operation, copy: bool) -> None:
    m = ctx.src(op.operands[0])
    subs = op.operands[1:]
    idx = tuple(ctx.src(i) for i in subs)
    r = ctx.dst(op.results[0])
    if not idx:
        def instr(frame, _m=m, _r=r):
            frame[_r] = frame[_m][()]
    elif not any(v in ctx.ranges for v in subs):
        if len(idx) == 1:
            def instr(frame, _m=m, _i=idx[0], _r=r):
                frame[_r] = _gather(frame[_m], frame[_i])
        else:
            def instr(frame, _m=m, _idx=idx, _r=r):
                frame[_r] = _gather(frame[_m], tuple(frame[i] for i in _idx))
    elif len(idx) == 1:
        # a rank-1 subscript slices directly
        def instr(frame, _m=m, _i=idx[0], _r=r, _copy=copy):
            array = frame[_m]
            sub = frame[_i]
            if type(sub) is not _Range:
                frame[_r] = _gather(array, sub)
                return
            cut = sub.index(len(array))
            if cut is None:
                frame[_r] = _gather(array, sub.array())
                return
            view = array[cut]
            if sub.ndim > 1:
                view = view.reshape(_axis_shape(sub.count, sub.axis, sub.ndim))
            frame[_r] = view.copy() if _copy else view
    else:
        def instr(frame, _m=m, _idx=idx, _r=r, _copy=copy):
            array = frame[_m]
            subs = [frame[i] for i in _idx]
            view = _view(array, subs)
            if view is None:
                frame[_r] = _gather(array, _gather_key(subs))
            else:
                frame[_r] = view.copy() if _copy else view
    ctx.instrs.append(instr)


def _emit_store(ctx: _VectorCompiler, op: Operation) -> None:
    v = ctx.src(op.operands[0])
    m = ctx.src(op.operands[1])
    subs = op.operands[2:]
    idx = tuple(ctx.src(i) for i in subs)
    if not any(s in ctx.ranges for s in op.operands[:1] + subs):
        if len(idx) == 1:
            def instr(frame, _v=v, _m=m, _i=idx[0]):
                _put(frame[_m], frame[_i], frame[_v])
        else:
            def instr(frame, _v=v, _m=m, _idx=idx):
                _put(frame[_m], tuple(frame[i] for i in _idx), frame[_v])
    elif len(idx) == 1:
        # a rank-1 subscript slices directly; over a one-axis space its
        # view takes any value
        def instr(frame, _v=v, _m=m, _i=idx[0]):
            array = frame[_m]
            sub = frame[_i]
            value = frame[_v]
            if type(sub) is _Range and sub.ndim == 1 and type(value) is not _Range:
                cut = sub.index(len(array))
                if cut is not None:
                    array[cut] = value
                    return
            _scatter(array, (sub,), value)
    else:
        def instr(frame, _v=v, _m=m, _idx=idx):
            _scatter(frame[_m], [frame[i] for i in _idx], frame[_v])
    ctx.instrs.append(instr)
