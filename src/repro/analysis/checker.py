"""The kernel race/dependence checker and the ``check-kernels`` pass.

Analyzes the *frontend* module (post ``fir-to-core``: ``memref`` +
``omp`` form, every op still carrying its Fortran ``loc``) and reports
:class:`~repro.analysis.diagnostics.Diagnostic`\\ s instead of wrong
answers at runtime:

* ``RACE001`` — parallel iterations of an ``omp.loop_nest`` store to a
  provably identical cell with no reduction clause covering it;
* ``RACE002`` — the store into a declared reduction variable does not
  combine through the declared kind (wrong op, or a plain overwrite);
* ``RACE003`` — an indirect (scatter) store whose index chain has no
  static injectivity basis — the vectorizer will runtime-prove or bail;
* ``DEP001``/``DEP002`` — an affine loop-carried read/write recurrence
  that bounds the pipeline initiation interval (``DEP002`` when the
  nest is additionally ``omp.simd``: vector lanes overlap it);
* ``TYPE001``–``TYPE002`` — :func:`repro.ir.verifier.typed_check_op`
  findings, reported with source locations instead of raising.

The same analysis composes into declarative pipelines as
``PassManager.parse("check-kernels")`` (option ``fail_on_error`` turns
error-severity findings into a :class:`KernelCheckError`), and backs
``Session.diagnostics()`` and the ``python -m repro.lint`` CLI.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, DiagnosticEngine
from repro.dialects.omp import LoopNestOp, SimdOp, WsLoopOp
from repro.ir.attributes import IntegerAttr, StringAttr
from repro.ir.core import (
    LOC_ATTR,
    Block,
    IRError,
    Operation,
    OpResult,
    SSAValue,
)
from repro.ir.pass_manager import ModulePass, PassOption, register_pass
from repro.ir.verifier import typed_check_op
from repro.transforms.loop_analysis import (
    IndexPattern,
    _defined_inside,
    _exact_offset,
    classify_index,
    const_int,
    float_chain_latency,
    index_values_equal,
    root_memref,
)


class KernelCheckError(IRError):
    """Raised by ``check-kernels{fail_on_error=true}`` on error findings."""


#: Store-value op -> the OpenMP reduction kind it implements.  ``subf``/
#: ``subi`` combine under ``add``: OpenMP defines ``reduction(-)`` with
#: the ``+`` combiner.
_COMBINERS = {
    "arith.addf": "add",
    "arith.addi": "add",
    "arith.subf": "add",
    "arith.subi": "add",
    "arith.mulf": "mul",
    "arith.muli": "mul",
    "arith.maximumf": "max",
    "arith.maxsi": "max",
    "arith.minimumf": "min",
    "arith.minsi": "min",
}


def op_line(op: Operation) -> int:
    """The Fortran line an op was lowered from (its ``loc``), or 0."""
    attr = op.attributes.get(LOC_ATTR)
    if isinstance(attr, IntegerAttr):
        return attr.value
    return 0


def _parent_op(op: Operation) -> Operation | None:
    if op.parent is None or op.parent.parent is None:
        return None
    return op.parent.parent.parent


def _enclosing(op: Operation, name: str) -> Operation | None:
    parent = _parent_op(op)
    while parent is not None:
        if parent.name == name:
            return parent
        parent = _parent_op(parent)
    return None


def _walk_stores(body: Block):
    """Every ``memref.store`` in ``body``, including inside nested serial
    loops — those still execute once per parallel iteration."""
    for op in body.ops:
        for nested in op.walk():
            if nested.name == "memref.store":
                yield nested


def _walk_loads_same_level(body: Block):
    from repro.transforms.loop_analysis import walk_same_loop_level

    for op in walk_same_loop_level(body):
        if op.name == "memref.load":
            yield op


def _consumes_load_of(value: SSAValue, root: SSAValue, body: Block) -> Operation | None:
    """The ``memref.load`` of ``root`` among ``value``'s defining op's
    direct operands, or None."""
    if not isinstance(value, OpResult):
        return None
    for operand in value.op.operands:
        if (
            isinstance(operand, OpResult)
            and operand.op.name == "memref.load"
            and root_memref(operand.op.operands[0]) is root
        ):
            return operand.op
    return None


def _gather_chain_impure(value: SSAValue, iv: SSAValue, body: Block) -> bool:
    """True when an indirect subscript chain multiplies the gathered index
    by a value that is loop-invariant but *not* a compile-time constant —
    a runtime zero scale would collapse every index onto one cell, so the
    chain has no static injectivity basis."""
    if not isinstance(value, OpResult):
        return False
    op = value.op
    name = op.name
    if name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
        return _gather_chain_impure(op.operands[0], iv, body)
    if name in ("arith.addi", "arith.subi", "arith.muli"):
        impure = False
        for operand in op.operands:
            pattern = classify_index(operand, iv, body)
            if pattern.kind == "invariant":
                if name == "arith.muli" and not _exact_offset(operand, iv, body):
                    impure = True
                continue
            impure = impure or _gather_chain_impure(operand, iv, body)
        return impure
    return False


class _NestContext:
    """One analyzed ``omp.loop_nest``: its parallel IVs, reduction map and
    the privatization scopes that exempt per-iteration temporaries."""

    def __init__(self, nest: LoopNestOp, wsloop: WsLoopOp | None, is_simd: bool):
        self.nest = nest
        self.is_simd = is_simd
        self.body = nest.body
        self.ivs = nest.induction_vars
        self.reductions: dict[int, tuple[SSAValue, str]] = {}
        if wsloop is not None:
            for var, kind in zip(wsloop.reduction_vars, wsloop.reduction_kinds):
                root = root_memref(var)
                self.reductions[id(root)] = (root, kind)
        target = _enclosing(nest, "omp.target")
        parallel = _enclosing(nest, "omp.parallel")
        self._private_scopes = [
            scope.regions[0].block
            for scope in (target, parallel)
            if scope is not None and scope.regions and scope.regions[0].blocks
        ]

    def reduction_kind(self, root: SSAValue) -> str | None:
        entry = self.reductions.get(id(root))
        return entry[1] if entry else None

    def is_private(self, root: SSAValue) -> bool:
        """Per-iteration temporaries: the frontend materializes privatized
        scalars as allocas inside the target/parallel region, while shared
        (mapped) buffers enter ``omp.target`` as block arguments."""
        if not isinstance(root, OpResult):
            return False
        return any(
            _defined_inside(root.op, scope) for scope in self._private_scopes
        )

    def static_step(self, dim: int) -> int | None:
        return const_int(self.nest.steps[dim])


def check_module(
    module: Operation, engine: DiagnosticEngine | None = None
) -> DiagnosticEngine:
    """Run every rule over ``module`` (frontend core+omp form)."""
    if engine is None:  # not `or`: an empty engine is falsy (len 0)
        engine = DiagnosticEngine()
    for func in module.walk():
        if func.name != "func.func":
            continue
        attr = func.attributes.get("sym_name")
        kernel = attr.value if isinstance(attr, StringAttr) else "<anonymous>"
        _check_types(func, kernel, engine)
        for op in func.walk():
            if isinstance(op, WsLoopOp):
                try:
                    nest = op.loop_nest()
                except IRError:
                    continue
                is_simd = isinstance(_parent_op(nest), SimdOp)
                _check_nest(_NestContext(nest, op, is_simd), kernel, engine)
            elif isinstance(op, SimdOp) and _enclosing(op, "omp.wsloop") is None:
                try:
                    nest = op.loop_nest()
                except IRError:
                    continue
                _check_nest(_NestContext(nest, None, True), kernel, engine)
    return engine


def _check_types(func: Operation, kernel: str, engine: DiagnosticEngine) -> None:
    for op in func.walk():
        finding = typed_check_op(op)
        if finding is not None:
            code, message = finding
            engine.emit(code, message, kernel=kernel, line=op_line(op))


def _first_access_is_load(root: SSAValue, body: Block) -> bool:
    """True when ``body`` (in document order) reads ``root`` before any
    store to it — for a privatized scalar this means each parallel
    iteration starts from a stale/undefined value."""
    for op in body.ops:
        for nested in op.walk():
            if (
                nested.name == "memref.load"
                and root_memref(nested.operands[0]) is root
            ):
                return True
            if (
                nested.name == "memref.store"
                and root_memref(nested.operands[1]) is root
            ):
                return False
    return False


def _check_nest(ctx: _NestContext, kernel: str, engine: DiagnosticEngine) -> None:
    shared_affine: dict[int, list] = {}  # root id -> [(store, patterns)]
    reported_private: set[int] = set()
    for store in _walk_stores(ctx.body):
        root = root_memref(store.operands[1])
        kind = ctx.reduction_kind(root)
        if kind is not None:
            _check_reduction_store(ctx, store, root, kind, kernel, engine)
            continue
        if ctx.is_private(root):
            # A privatized scalar that is *read before written* each
            # iteration accumulates into per-thread copies whose values
            # never merge — the missing-reduction-clause shape.  A temp
            # initialized before use (spmv's row accumulator) is fine.
            if (
                not store.operands[2:]
                and id(root) not in reported_private
                and _first_access_is_load(root, ctx.body)
            ):
                reported_private.add(id(root))
                engine.emit(
                    "RACE001",
                    "accumulation into an implicitly private scalar: each "
                    "iteration reads it before storing, but there is no "
                    "reduction clause to combine the per-thread copies",
                    kernel=kernel,
                    line=op_line(store),
                )
            continue
        dims = store.operands[2:]
        # patterns[d][iv_index]: dim d as a function of parallel IV i
        patterns = [
            [classify_index(dim, iv, ctx.body) for iv in ctx.ivs]
            for dim in dims
        ]
        if _check_same_cell_store(ctx, store, dims, patterns, kernel, engine):
            continue
        if _check_indirect_store(ctx, store, root, dims, patterns, kernel, engine):
            continue
        shared_affine.setdefault(id(root), []).append((store, patterns))
    _check_overlapping_stores(ctx, shared_affine, kernel, engine)
    _check_carried_recurrences(ctx, kernel, engine)


# ---------------------------------------------------------------------------
# RACE001 — write-write races
# ---------------------------------------------------------------------------


def _varies(pattern: IndexPattern) -> bool:
    """Could this subscript name a different cell in a different parallel
    iteration?  ``unknown``/``indirect`` count as varying — they are not
    *provably* the same cell, so they are RACE003's business, not
    RACE001's."""
    return pattern.kind != "invariant"


def _check_same_cell_store(
    ctx: _NestContext,
    store: Operation,
    dims,
    patterns,
    kernel: str,
    engine: DiagnosticEngine,
) -> bool:
    line = op_line(store)
    if not dims:
        engine.emit(
            "RACE001",
            "every parallel iteration stores to the same scalar; "
            "declare it in a reduction clause or privatize it",
            kernel=kernel,
            line=line,
        )
        return True
    for iv_index in range(len(ctx.ivs)):
        if not any(_varies(patterns[d][iv_index]) for d in range(len(dims))):
            engine.emit(
                "RACE001",
                "subscripts are invariant in parallel induction variable "
                f"{iv_index}: its iterations all store to one cell",
                kernel=kernel,
                line=line,
            )
            return True
    for d in range(len(dims)):
        for iv_index in range(len(ctx.ivs)):
            pattern = patterns[d][iv_index]
            if pattern.kind == "periodic":
                engine.emit(
                    "RACE001",
                    f"subscript {d} is periodic (mod {pattern.parameter}) in "
                    "a parallel induction variable: iterations a period "
                    "apart store to the same cell",
                    kernel=kernel,
                    line=line,
                )
                return True
    return False


def _check_overlapping_stores(
    ctx: _NestContext,
    shared_affine: dict[int, list],
    kernel: str,
    engine: DiagnosticEngine,
) -> None:
    """Pairwise RACE001: two stores to one buffer whose affine subscripts
    land on the same lattice with different offsets (``a(i)`` next to
    ``a(i+1)``) collide across iterations."""
    for entries in shared_affine.values():
        for first_index in range(len(entries)):
            store_a, patterns_a = entries[first_index]
            for store_b, patterns_b in entries[first_index + 1 :]:
                if len(patterns_a) != len(patterns_b):
                    continue
                if _stores_collide(ctx, store_a, patterns_a, store_b, patterns_b):
                    engine.emit(
                        "RACE001",
                        "two stores to the same buffer hit the same cell in "
                        "different parallel iterations (affine subscripts "
                        "with equal stride, distinct offsets)",
                        kernel=kernel,
                        line=max(op_line(store_a), op_line(store_b)),
                    )
                    break


def _stores_collide(ctx, store_a, patterns_a, store_b, patterns_b) -> bool:
    dims_a = store_a.operands[2:]
    dims_b = store_b.operands[2:]
    for d in range(len(dims_a)):
        for iv_index, iv in enumerate(ctx.ivs):
            pa, pb = patterns_a[d][iv_index], patterns_b[d][iv_index]
            if not (pa.kind == "affine" and pb.kind == "affine"):
                continue
            if pa.parameter != pb.parameter or pa.parameter == 0:
                continue
            if not (
                _exact_offset(dims_a[d], iv, ctx.body)
                and _exact_offset(dims_b[d], iv, ctx.body)
            ):
                continue
            delta = pa.offset - pb.offset
            if delta == 0:
                continue
            step = ctx.static_step(iv_index)
            if step is None:
                continue
            stride = pa.parameter * step
            if delta % stride != 0:
                continue  # disjoint lattices never collide
            # Colliding dim found; every other dim must name the same
            # cell for the accesses to actually alias.
            others_equal = all(
                other == d
                or index_values_equal(dims_a[other], dims_b[other], ctx.body)
                for other in range(len(dims_a))
            )
            if others_equal:
                return True
    return False


# ---------------------------------------------------------------------------
# RACE002 — reduction combiner checks
# ---------------------------------------------------------------------------


def _check_reduction_store(
    ctx: _NestContext,
    store: Operation,
    root: SSAValue,
    kind: str,
    kernel: str,
    engine: DiagnosticEngine,
) -> None:
    line = op_line(store)
    value = store.operands[0]
    combiner = (
        _COMBINERS.get(value.op.name) if isinstance(value, OpResult) else None
    )
    if combiner is None:
        engine.emit(
            "RACE002",
            f"store into a reduction({kind}) variable does not combine "
            "through a reduction op: parallel contributions overwrite "
            "each other",
            kernel=kernel,
            line=line,
        )
        return
    if combiner != kind:
        engine.emit(
            "RACE002",
            f"combiner {value.op.name} implements reduction({combiner}) "
            f"but the loop declares reduction({kind})",
            kernel=kernel,
            line=line,
        )
        return
    if _consumes_load_of(value, root, ctx.body) is None:
        engine.emit(
            "RACE002",
            f"reduction({kind}) combiner does not read the reduction "
            "variable back: each iteration overwrites the accumulated "
            "value",
            kernel=kernel,
            line=line,
        )


# ---------------------------------------------------------------------------
# RACE003 — indirect stores without a static injectivity basis
# ---------------------------------------------------------------------------


def _check_indirect_store(
    ctx: _NestContext,
    store: Operation,
    root: SSAValue,
    dims,
    patterns,
    kernel: str,
    engine: DiagnosticEngine,
) -> bool:
    """Handle stores with indirect/unanalyzable subscripts.  Returns True
    when the store was consumed by this rule (fired or exempted)."""
    line = op_line(store)
    indirect_dims = [
        d
        for d in range(len(dims))
        if any(p.kind == "indirect" for p in patterns[d])
    ]
    unknown_dims = [
        d
        for d in range(len(dims))
        if all(p.kind == "unknown" for p in patterns[d])
    ]
    if not indirect_dims and not unknown_dims:
        return False
    if unknown_dims:
        engine.emit(
            "RACE003",
            f"subscript {unknown_dims[0]} of an indirect store is not "
            "analyzable: no injectivity basis, the vectorizer will bail "
            "scalar",
            kernel=kernel,
            line=line,
        )
        return True
    # Accumulate-fold shape (h(bins(i)) = h(bins(i)) + w(i)): the runtime
    # folds repeated indices in iteration order, no injectivity needed.
    folded = _consumes_load_of(store.operands[0], root, ctx.body)
    if folded is not None and all(
        index_values_equal(a, b, ctx.body)
        for a, b in zip(store.operands[2:], folded.operands[1:])
    ):
        return True
    for d in indirect_dims:
        for iv_index, iv in enumerate(ctx.ivs):
            if patterns[d][iv_index].kind != "indirect":
                continue
            if _gather_chain_impure(dims[d], iv, ctx.body):
                engine.emit(
                    "RACE003",
                    f"indirect subscript {d} scales the gathered index by "
                    "a runtime value: a zero scale collapses every store "
                    "onto one cell, so injectivity must be proved at "
                    "runtime (or the loop runs scalar)",
                    kernel=kernel,
                    line=line,
                )
                return True
    # Pure gather chain (permutation scatter): each iteration reads a
    # fresh index-array cell and the chain preserves distinctness up to
    # the runtime proof the vectorizer already runs — silent.
    return True


# ---------------------------------------------------------------------------
# DEP001 / DEP002 — affine loop-carried recurrences
# ---------------------------------------------------------------------------


def _check_carried_recurrences(
    ctx: _NestContext, kernel: str, engine: DiagnosticEngine
) -> None:
    """Affine read/write recurrences (``a(i+1) = f(a(i))``) on the
    *parallel* dimension of a rank-1 nest: same stride, offsets a whole
    number of iterations apart.  Indirect or invariant-vs-affine pairs
    are out of scope here (RACE/other rules own those shapes)."""
    if ctx.nest.rank != 1:
        return
    iv = ctx.ivs[0]
    step = ctx.static_step(0)
    if step is None or step == 0:
        return
    body = ctx.body
    from repro.transforms.loop_analysis import walk_same_loop_level

    stores = [
        op
        for op in walk_same_loop_level(body)
        if op.name == "memref.store"
    ]
    loads = list(_walk_loads_same_level(body))
    latency = None
    for store in stores:
        root = root_memref(store.operands[1])
        if ctx.reduction_kind(root) is not None or ctx.is_private(root):
            continue
        dims = store.operands[2:]
        if len(dims) != 1:
            continue
        wp = classify_index(dims[0], iv, body)
        if wp.kind != "affine" or not _exact_offset(dims[0], iv, body):
            continue
        for load in loads:
            if root_memref(load.operands[0]) is not root:
                continue
            indices = load.operands[1:]
            if len(indices) != 1:
                continue
            rp = classify_index(indices[0], iv, body)
            if (
                rp.kind != "affine"
                or rp.parameter != wp.parameter
                or not _exact_offset(indices[0], iv, body)
            ):
                continue
            delta = wp.offset - rp.offset
            stride = wp.parameter * step
            if delta == 0 or delta % stride != 0:
                continue
            distance = abs(delta // stride)
            if latency is None:
                latency = max(1, float_chain_latency(body, float_only=True))
            ii = -(-latency // distance)  # ceil division
            if ctx.is_simd:
                engine.emit(
                    "DEP002",
                    f"loop-carried recurrence at distance {distance} under "
                    "simd: vector lanes overlap the dependence "
                    f"(II >= {ii} from a {latency}-cycle combiner chain)",
                    kernel=kernel,
                    line=op_line(store),
                )
            else:
                engine.emit(
                    "DEP001",
                    f"loop-carried recurrence at distance {distance} "
                    f"bounds the pipeline II to >= {ii} "
                    f"({latency}-cycle combiner chain)",
                    kernel=kernel,
                    line=op_line(store),
                )
            break  # one finding per store is enough


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


@register_pass
class CheckKernelsPass(ModulePass):
    """``check-kernels`` — run the race/dependence/type rules and collect
    diagnostics on the pass instance (``.engine``); composes anywhere in
    a declarative pipeline since it never mutates the module."""

    name = "check-kernels"
    options = (
        PassOption(
            "fail_on_error",
            bool,
            False,
            help="raise KernelCheckError when an error-severity rule fires",
        ),
    )

    def __init__(self, fail_on_error: bool = False):
        self.fail_on_error = fail_on_error
        self.engine = DiagnosticEngine()

    def apply(self, module: Operation) -> None:
        self.engine.clear()
        check_module(module, self.engine)
        if self.fail_on_error and self.engine.has_errors:
            first = next(
                d for d in self.engine.sorted() if d.severity == "error"
            )
            raise KernelCheckError(
                f"check-kernels found {self.engine.error_count} error(s); "
                f"first: {first.format()}"
            )

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return self.engine.sorted()
