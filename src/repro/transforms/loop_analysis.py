"""Loop dependence analysis for HLS pipelining.

Determines, for a pipelined ``scf.for`` body, the *loop-carried
dependences* that constrain the initiation interval (II):

* a load/store pair on the same memref whose subscript is **invariant**
  in the induction variable (e.g. a rank-0 reduction scalar) is a carried
  dependence of distance 1;
* subscripts that are affine ``a*iv + b`` with ``a != 0`` touch a new
  location every iteration — no carried dependence (the paper's SGESL
  inner loop and SAXPY);
* the round-robin reduction rewrite produces *periodic* subscripts
  ``(iv ...) mod N`` — a carried dependence of distance N, which is
  exactly why N copies allow II=1 once N covers the combiner latency.

``min_initiation_interval`` combines carried dependences with a float-op
latency table: ``II >= ceil(chain_latency / distance)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.attributes import IntegerAttr
from repro.ir.core import (
    Block,
    BlockArgument,
    Operation,
    OpResult,
    SSAValue,
    semantic_attributes,
)
from repro.reliability.errors import LoopStepError

#: Default operation latencies (cycles) for dependence-chain estimation.
#: Calibrated against Vitis 2020.2 f32 figures.
DEFAULT_LATENCIES = {
    "arith.addf": 7,
    "arith.subf": 7,
    "arith.mulf": 4,
    "arith.divf": 28,
    "arith.minimumf": 2,
    "arith.maximumf": 2,
    "math.sqrt": 28,
    "math.exp": 20,
    "math.log": 22,
    "arith.addi": 1,
    "arith.subi": 1,
    "arith.muli": 3,
    "arith.divsi": 18,
    "arith.remsi": 18,
}


@dataclass(frozen=True)
class IndexPattern:
    """Classification of a subscript as a function of the loop IV.

    ``indirect`` marks a subscript whose value is loaded from an *index
    array* — a memref nothing in the loop body stores to — at a position
    that is itself affine in the IV (the SpMV ``col_idx(jj)`` / histogram
    ``bins(i)`` shape).  The cell it names depends on runtime array
    contents, so an indirect *store* subscript is only usable by the
    vectorizer together with an injectivity proof over the loaded values
    (:mod:`repro.ir.vectorize` runs that proof at execution time).
    """

    kind: str  # "invariant" | "affine" | "periodic" | "indirect" | "unknown"
    #: iv coefficient for affine; period for periodic
    parameter: int = 0
    #: constant offset for affine patterns (``a*iv + offset``)
    offset: int = 0


@dataclass
class Dependence:
    """A loop-carried memory dependence."""

    memref: SSAValue
    distance: int  # iterations between the write and the dependent read


def root_memref(value: SSAValue) -> SSAValue:
    """Chase memref casts back to the underlying buffer value."""
    while isinstance(value, OpResult) and value.op.name in (
        "memref.cast",
        "fir.declare",
    ):
        value = value.op.operands[0]
    return value


def _defined_inside(op: Operation, body: Block) -> bool:
    """True if ``op`` is (transitively) nested within ``body``."""
    block = op.parent
    while block is not None:
        if block is body:
            return True
        parent_op = block.parent.parent if block.parent else None
        if parent_op is None:
            return False
        block = parent_op.parent
    return False


def classify_index(
    value: SSAValue, iv: SSAValue, body: Block | None = None
) -> IndexPattern:
    """Classify ``value`` as a function of the induction variable.

    ``body`` (the loop body block) sharpens the analysis: any value
    defined *outside* it is loop-invariant regardless of how it was
    computed.
    """
    coeff, offset, periodic, ok = _affine_walk(value, iv, body)
    if not ok:
        if body is not None and indirect_index_load(value, iv, body) is not None:
            return IndexPattern("indirect")
        return IndexPattern("unknown")
    if periodic is not None:
        return IndexPattern("periodic", periodic)
    if coeff == 0:
        return IndexPattern("invariant", offset=offset)
    return IndexPattern("affine", coeff, offset)


def _body_stores_to(root: SSAValue, body: Block) -> bool:
    """True when any (possibly nested) op in ``body`` stores to ``root``."""
    for op in body.ops:
        for nested in op.walk():
            if (
                nested.name == "memref.store"
                and root_memref(nested.operands[1]) is root
            ):
                return True
    return False


def indirect_index_load(
    value: SSAValue, iv: SSAValue, body: Block
) -> Operation | None:
    """The gather load behind an *indirect* subscript, or None.

    Returns the ``memref.load`` op when ``value`` is (through
    ``index_cast``/``extsi``/``trunci`` and ``addi``/``subi``/``muli``
    with IV-invariant other operands) the value of a load from an index
    array that

    * nothing in the body stores to (its contents are loop-invariant), and
    * is subscripted affinely in the IV with a non-zero stride (each
      iteration reads a fresh index-array cell).

    The *value* loaded is still runtime data: a scatter store through it
    additionally needs the injectivity proof run by the vectorizer.
    """
    if not isinstance(value, OpResult):
        return None
    op = value.op
    if not _defined_inside(op, body):
        return None
    name = op.name
    if name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
        return indirect_index_load(op.operands[0], iv, body)
    if name in ("arith.addi", "arith.subi", "arith.muli"):
        found: Operation | None = None
        for operand in op.operands:
            coeff, _, period, ok = _affine_walk(operand, iv, body)
            if ok and coeff == 0 and period is None:
                continue  # loop-invariant shift/scale preserves injectivity
            nested = indirect_index_load(operand, iv, body)
            if nested is None or found is not None:
                return None  # two varying operands: not a pure gather chain
            found = nested
        # muli by an invariant may be a *zero* scale at runtime, which
        # would collapse every index onto one cell — the runtime proof
        # still covers it, so the chain stays classifiable.
        return found
    if name != "memref.load":
        return None
    root = root_memref(op.operands[0])
    if _body_stores_to(root, body):
        return None
    saw_affine = False
    for idx in op.operands[1:]:
        coeff, _, period, ok = _affine_walk(idx, iv, body)
        if not ok or period is not None:
            return None
        if coeff != 0:
            saw_affine = True
    return op if saw_affine else None


_STRUCTURAL_INDEX_OPS = (
    "arith.index_cast", "arith.extsi", "arith.trunci",
    "arith.addi", "arith.subi", "arith.muli", "arith.divsi", "arith.remsi",
)


def index_values_equal(a: SSAValue, b: SSAValue, body: Block) -> bool:
    """True when two subscript values are provably equal in *every*
    iteration of the loop owning ``body``.

    Beyond SSA identity this recognises structurally identical pure
    integer chains and — the histogram accumulator shape — two loads of
    the same index-array cell (same un-stored buffer, provably equal
    subscripts), which the frontend emits separately for the load and the
    store side of ``h(bins(i)) = h(bins(i)) + w(i)``.
    """
    if a is b:
        return True
    if not (isinstance(a, OpResult) and isinstance(b, OpResult)):
        return False
    oa, ob = a.op, b.op
    if oa.name != ob.name or len(oa.operands) != len(ob.operands):
        return False
    if a.index != b.index:
        return False
    if oa.name == "arith.constant":
        return semantic_attributes(oa.attributes) == semantic_attributes(
            ob.attributes
        )
    if oa.name == "memref.load":
        root = root_memref(oa.operands[0])
        if root is not root_memref(ob.operands[0]):
            return False
        if _body_stores_to(root, body):
            return False  # the cell may change between the two loads
        return all(
            index_values_equal(x, y, body)
            for x, y in zip(oa.operands[1:], ob.operands[1:])
        )
    if oa.name in _STRUCTURAL_INDEX_OPS:
        return all(
            index_values_equal(x, y, body)
            for x, y in zip(oa.operands, ob.operands)
        )
    return False


def _affine_walk(
    value: SSAValue, iv: SSAValue, body: Block | None = None
) -> tuple[int, int, Optional[int], bool]:
    """Returns (iv coefficient, constant offset, period, ok).

    ``period`` is set when the expression goes through ``remsi`` by a
    constant and otherwise varies with the IV.  Invariant values whose
    offset is not a compile-time constant are reported with offset 0; use
    :func:`_exact_offset` to know whether offsets are comparable.
    """
    if value is iv:
        return 1, 0, None, True
    if isinstance(value, BlockArgument):
        return 0, 0, None, True  # a different loop's IV or function arg
    if not isinstance(value, OpResult):
        return 0, 0, None, False
    op = value.op
    if body is not None and not _defined_inside(op, body):
        return 0, 0, None, True  # defined above the loop: invariant
    name = op.name
    if name == "arith.constant":
        from repro.ir.attributes import IntegerAttr

        attr = op.attributes.get("value")
        if isinstance(attr, IntegerAttr):
            return 0, attr.value, None, True
        return 0, 0, None, False
    if name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
        return _affine_walk(op.operands[0], iv, body)
    if name in ("arith.addi", "arith.subi"):
        lc, lo, lp, lok = _affine_walk(op.operands[0], iv, body)
        rc, ro, rp, rok = _affine_walk(op.operands[1], iv, body)
        if not (lok and rok) or (lp is not None) or (rp is not None):
            # propagate periodicity through +/- of invariants
            if lok and rok:
                if lp is not None and rc == 0:
                    return 0, 0, lp, True
                if rp is not None and lc == 0:
                    return 0, 0, rp, True
            return 0, 0, None, False
        sign = 1 if name == "arith.addi" else -1
        return lc + sign * rc, lo + sign * ro, None, True
    if name == "arith.muli":
        lc, lo, lp, lok = _affine_walk(op.operands[0], iv, body)
        rc, ro, rp, rok = _affine_walk(op.operands[1], iv, body)
        if not (lok and rok) or lp is not None or rp is not None:
            return 0, 0, None, False
        # A varying side scaled by an invariant is affine only when the
        # scale is a compile-time constant: non-constant invariants are
        # reported with placeholder offset 0, which would silently zero
        # the coefficient (``k * m`` is *not* invariant in ``k``).
        if lc == 0:
            if rc != 0 and not _exact_offset(op.operands[0], iv, body):
                return 0, 0, None, False
            return lo * rc, lo * ro, None, True
        if rc == 0:
            if not _exact_offset(op.operands[1], iv, body):
                return 0, 0, None, False
            return lc * ro, lo * ro, None, True
        return 0, 0, None, False
    if name == "arith.divsi":
        lc, lo, lp, lok = _affine_walk(op.operands[0], iv, body)
        rc, ro, rp, rok = _affine_walk(op.operands[1], iv, body)
        if lok and rok and rc == 0 and ro != 0 and lp is None:
            if lc % ro == 0:
                return lc // ro, lo // ro, None, True
            return 0, 0, None, False
        return 0, 0, None, False
    if name == "arith.remsi":
        lc, lo, lp, lok = _affine_walk(op.operands[0], iv, body)
        rc, ro, rp, rok = _affine_walk(op.operands[1], iv, body)
        if lok and rok and rc == 0 and ro > 0:
            if lc != 0:
                return 0, 0, ro, True  # varies mod ro -> periodic
            return 0, lo % ro, None, True
        return 0, 0, None, False
    if name == "memref.load" and body is not None:
        # A load is loop-invariant when nothing in the body stores to the
        # same buffer and its own subscripts are invariant.
        root = root_memref(op.operands[0])
        if _body_stores_to(root, body):
            return 0, 0, None, False
        for idx in op.operands[1:]:
            coeff, _, period, ok = _affine_walk(idx, iv, body)
            if not ok or coeff != 0 or period is not None:
                return 0, 0, None, False
        return 0, 0, None, True
    return 0, 0, None, False


def _exact_offset(value: SSAValue, iv: SSAValue, body: Block | None) -> bool:
    """True when the affine offset of ``value`` is a compile-time constant
    (so offsets of two subscripts can be compared exactly)."""
    if value is iv:
        return True
    if isinstance(value, BlockArgument):
        return False
    if not isinstance(value, OpResult):
        return False
    op = value.op
    if body is not None and not _defined_inside(op, body):
        return False  # runtime invariant: offset unknown
    name = op.name
    if name == "arith.constant":
        return True
    if name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
        return _exact_offset(op.operands[0], iv, body)
    if name in ("arith.addi", "arith.subi", "arith.muli", "arith.divsi",
                "arith.remsi"):
        return all(_exact_offset(o, iv, body) for o in op.operands)
    if name == "memref.load":
        return False
    return False


def bound_is_runtime(value: SSAValue) -> bool:
    """True when a loop bound is *runtime data* — its def chain reaches a
    ``memref.load`` or a block argument (function parameter / outer IV)
    rather than folding to compile-time constants.

    This is the segment-bound classification behind the vectorizer's
    ``nest_segmented`` span flavour: a loop whose extent is decided by
    runtime values (SGESL's hoisted ``j = k+1, n`` bounds, CSR row
    offsets) is one runtime *segment*, and its fast path must not apply
    a static minimum-trip-count floor — the floor is what turns a
    triangular launch sweep's tail into a scalar cliff.
    """
    seen: set[int] = set()

    def walk(v: SSAValue) -> bool:
        if isinstance(v, BlockArgument):
            return True
        if not isinstance(v, OpResult):
            return False
        op = v.op
        if id(op) in seen:
            return False
        seen.add(id(op))
        if op.name == "memref.load":
            return True
        if op.name == "arith.constant":
            return False
        return any(walk(operand) for operand in op.operands)

    return walk(value)


def const_int(value: SSAValue) -> Optional[int]:
    """The value when it is an integer ``arith.constant``."""
    if isinstance(value, OpResult) and value.op.name == "arith.constant":
        attr = value.op.attributes.get("value")
        if isinstance(attr, IntegerAttr):
            return attr.value
    return None


def static_loop_step(for_op: Operation) -> Optional[int]:
    """The loop's step when it is a compile-time constant."""
    return const_int(for_op.operands[2])


def trip_count(lb: int, ub: int, step: int) -> int:
    """Iterations of an ``scf.for`` over ``[lb, ub)`` by ``step``."""
    return max(0, -(-(ub - lb) // step)) if step > 0 else 0


def step_error(op_name: str, step) -> LoopStepError:
    """The error an ``scf.for`` or ``omp.loop_nest`` raises when it runs
    with the non-positive ``step``: loops count up only."""
    return LoopStepError(f"{op_name}: step {step} is not positive")


def walk_same_loop_level(body: Block):
    """All ops in ``body`` without descending into nested ``scf.for``
    loops — those are scheduled (and bound, and their accesses charged)
    independently, so they must not contribute to the enclosing loop's
    II, latency or binding.  Shared with the HLS scheduler."""
    for op in body.ops:
        yield op
        if op.name == "scf.for":
            continue
        for region in op.regions:
            for block in region.blocks:
                yield from walk_same_loop_level(block)


def _accesses(body: Block, iv: SSAValue):
    """Yield (op, memref_root, indices, is_store) for body memory ops."""
    for nested in walk_same_loop_level(body):
        if nested.name == "memref.load":
            yield nested, root_memref(nested.operands[0]), nested.operands[1:], False
        elif nested.name == "memref.store":
            yield nested, root_memref(nested.operands[1]), nested.operands[2:], True


def loop_carried_dependences(for_op: Operation) -> list[Dependence]:
    """Find carried dependences of a single ``scf.for`` loop body."""
    body = for_op.regions[0].block
    iv = body.args[0]
    loads: dict[int, list] = {}
    stores: dict[int, list] = {}
    infos: dict[int, SSAValue] = {}
    for _op, root, indices, is_store in _accesses(body, iv):
        infos[id(root)] = root
        bucket = stores if is_store else loads
        bucket.setdefault(id(root), []).append(indices)
    deps: list[Dependence] = []
    for key, store_indices in stores.items():
        read_indices = loads.get(key, [])
        if not read_indices:
            continue
        distance = _dependence_distance(
            store_indices, read_indices, iv, body, static_loop_step(for_op)
        )
        if distance is not None:
            deps.append(Dependence(infos[key], distance))
    return deps


def _dependence_distance(
    store_indices: list,
    read_indices: list,
    iv: SSAValue,
    body: Block | None = None,
    step: Optional[int] = None,
) -> Optional[int]:
    """Smallest carried distance between any store/read subscript pair, or
    None when every pair provably touches a fresh location each iteration."""
    worst: Optional[int] = None

    def consider(distance: int) -> None:
        nonlocal worst
        if worst is None or distance < worst:
            worst = distance

    for w_idx in store_indices:
        for r_idx in read_indices:
            if len(w_idx) != len(r_idx):
                consider(1)
                continue
            if not w_idx:  # rank-0: same cell every iteration
                consider(1)
                continue
            pair_distance = 0  # 0 = provably independent across iterations
            for w, r in zip(w_idx, r_idx):
                wp = classify_index(w, iv, body)
                rp = classify_index(r, iv, body)
                if wp.kind == "affine" and rp.kind == "affine":
                    if wp.parameter == rp.parameter:
                        if w is r or (
                            _exact_offset(w, iv, body)
                            and _exact_offset(r, iv, body)
                            and wp.offset == rp.offset
                        ):
                            continue  # provably the same location per iter
                        if not (
                            _exact_offset(w, iv, body)
                            and _exact_offset(r, iv, body)
                        ):
                            pair_distance = 1  # conservative
                            break
                        delta = wp.offset - rp.offset
                        # Locations collide after k iterations when
                        # delta = k * coeff * step.
                        stride = wp.parameter * (step or 1)
                        if step is not None and delta % stride == 0:
                            pair_distance = abs(delta // stride)
                        elif step is not None:
                            continue  # disjoint lattices: never collide
                        else:
                            pair_distance = 1
                        break
                    pair_distance = 1
                    break
                if wp.kind == "invariant" and rp.kind == "invariant":
                    pair_distance = 1  # same (unknown) cell each iteration
                    break
                if wp.kind == "periodic" and rp.kind == "periodic":
                    pair_distance = max(wp.parameter, 1)
                    continue
                pair_distance = 1
                break
            if pair_distance:
                consider(pair_distance)
    return worst


_FLOAT_OP_PREFIXES = ("arith.addf", "arith.subf", "arith.mulf", "arith.divf",
                      "arith.minimumf", "arith.maximumf", "math.")


def float_chain_latency(
    body: Block,
    latencies: dict[str, int] | None = None,
    *,
    float_only: bool = False,
) -> int:
    """Approximate latency of the longest arithmetic chain in the body.

    Computed as a proper critical path over the SSA graph of the block
    (nested non-loop regions contribute their own paths; nested
    ``scf.for`` loops are excluded — their cycles are charged by their
    own schedules).  ``float_only`` restricts the path to floating-point
    operators — the right measure for a recurrence cycle, where index
    arithmetic is not on the carried path.
    """
    table = latencies or DEFAULT_LATENCIES

    depth: dict[SSAValue, int] = {}

    def op_latency(op: Operation) -> int:
        if float_only and not op.name.startswith(_FLOAT_OP_PREFIXES):
            return 0
        return table.get(op.name, 1 if op.results else 0)

    best = 0
    for nested in walk_same_loop_level(body):
        in_depth = max(
            (depth.get(operand, 0) for operand in nested.operands),
            default=0,
        )
        out = in_depth + op_latency(nested)
        for result in nested.results:
            depth[result] = out
        best = max(best, out)
    return best


def min_initiation_interval(
    for_op: Operation, latencies: dict[str, int] | None = None
) -> int:
    """Dependence-constrained minimum II for a pipelined loop."""
    deps = loop_carried_dependences(for_op)
    if not deps:
        return 1
    body = for_op.regions[0].block
    # The carried cycle runs through the float combiner; integer index
    # arithmetic (e.g. the round-robin slot) overlaps with it.
    latency = max(1, float_chain_latency(body, latencies, float_only=True))
    ii = 1
    for dep in deps:
        ii = max(ii, -(-latency // max(dep.distance, 1)))  # ceil div
    return ii
