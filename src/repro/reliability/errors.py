"""Structured error taxonomy for the whole pipeline.

Every failure the reproduction can raise toward a user is a
:class:`ReproError` carrying *where* it happened (``stage``), *which
kernel* was involved when known (``kernel``) and a short source/op
``context`` string.  The concrete classes mirror the pipeline stages::

    ReproError
      +-- FrontendError       (parse / sema / Fortran->core lowering)
      +-- LoweringError       (device-dialect + omp->HLS transforms)
      +-- DeviceBuildError    (simulated Vitis synthesis)
      +-- DeviceRuntimeError  (simulated board execution)
      |     +-- DeviceAllocationError   (device.alloc out-of-memory)
      |     +-- DmaError               (DMA start/wait failure)
      |     +-- DataIntegrityError     (bit-flip detected on readback)
      |     +-- WatchdogTimeout        (kernel step budget exhausted)
      +-- DivisionByZeroError (integer divide or remainder by zero)
      +-- SubscriptError      (a load or store subscript out of range)
      +-- LoopStepError       (a loop ran with a zero or negative step)
      +-- EngineError         (execution-tier internal failure)

``LoweringError`` and ``DeviceBuildError`` also subclass
:class:`~repro.ir.core.IRError` so existing callers catching ``IRError``
keep working; :func:`wrap_error` upgrades a foreign exception into the
taxonomy *while preserving its original type* (the wrapped class
inherits from both), so ``except SemanticError`` and ``except
FrontendError`` both match the same raised object.

Transient vs. persistent: errors produced by the fault-injection layer
carry ``transient=True`` when a bounded retry is expected to succeed;
the retry machinery in :mod:`repro.reliability.faults` keys off that
flag.  Errors that escape to the caller are final — a transient fault
that exhausted its retries is raised with the flag still set so reports
can distinguish "gave up retrying" from "never retryable".
"""

from __future__ import annotations

from repro.ir.core import IRError


class ReproError(Exception):
    """Base of the pipeline error taxonomy (see module docstring)."""

    #: default stage name for the subclass (overridden per class)
    default_stage: str | None = None
    #: whether a bounded retry is expected to succeed
    transient: bool = False

    def __init__(
        self,
        message: str,
        *,
        stage: str | None = None,
        kernel: str | None = None,
        context: str | None = None,
        transient: bool | None = None,
        line: int = -1,
    ):
        self.stage = stage if stage is not None else self.default_stage
        self.kernel = kernel
        self.context = context
        if transient is not None:
            self.transient = transient
        detail = []
        if self.stage:
            detail.append(f"stage={self.stage}")
        if kernel:
            detail.append(f"kernel={kernel}")
        if context:
            detail.append(f"context={context}")
        if line >= 0:
            detail.append(f"line={line}")
        text = f"{message} [{', '.join(detail)}]" if detail else message
        super().__init__(text)
        #: originating source line (Fortran, 1-based); -1 when unknown.
        #: Assigned after super().__init__: in wrapped hybrids (see
        #: wrap_error) the cooperative chain reaches the original class's
        #: __init__, whose default would clobber an earlier assignment.
        self.line = line


class FrontendError(ReproError):
    """Parse/sema/lowering failure in the Fortran frontend."""

    default_stage = "frontend"


class LoweringError(ReproError, IRError):
    """Failure inside the device-dialect / omp->HLS transform passes."""

    default_stage = "lowering"


class DeviceBuildError(ReproError, IRError):
    """Failure during the simulated Vitis hardware build."""

    default_stage = "device_build"


class DeviceRuntimeError(ReproError):
    """Failure on the simulated board at execution time."""

    default_stage = "device_runtime"


class DeviceAllocationError(DeviceRuntimeError):
    """``device.alloc`` could not satisfy the request (simulated OOM)."""


class DmaError(DeviceRuntimeError):
    """A DMA start/wait command failed on the simulated queue."""


class DataIntegrityError(DeviceRuntimeError):
    """Readback checksum mismatch: a buffer was corrupted in flight."""


class WatchdogTimeout(DeviceRuntimeError):
    """A kernel exceeded its watchdog step budget (simulated hang)."""


class DivisionByZeroError(ReproError, ZeroDivisionError):
    """An integer ``arith.divsi`` or ``arith.remsi`` met a zero divisor.

    Every engine tier raises it, so a zero divisor fails the same way
    whichever tier runs the op."""

    default_stage = "execution"


class SubscriptError(ReproError, IndexError):
    """A ``memref.load`` or ``memref.store`` subscript lies outside its
    buffer (a negative one wraps, as in NumPy, until it passes the
    buffer's start).

    Every engine tier raises it, with the op's name before NumPy's
    message, so an out-of-range subscript fails the same way whichever
    tier runs the op."""

    default_stage = "execution"


class LoopStepError(ReproError, ValueError):
    """An ``scf.for`` or ``omp.loop_nest`` ran with a zero or negative
    step.

    The frontend rejects such a step when it is an integer constant;
    one computed at run time raises this on every engine tier, before
    the loop observer fires and before the body runs."""

    default_stage = "execution"


class EngineError(ReproError):
    """Internal failure of an execution tier (vectorizer / block-JIT)."""

    default_stage = "engine"


class ServiceError(ReproError):
    """Failure inside the compile service (:mod:`repro.service`)."""

    default_stage = "service"


class AdmissionRejected(ServiceError):
    """The service's bounded admission queue is full.

    Transient by construction: the request was never started, so
    resubmitting after a backoff is expected to succeed once the queue
    drains — callers can key retry loops off :attr:`transient`.
    """

    transient = True


# ---------------------------------------------------------------------------
# Foreign-exception adoption
# ---------------------------------------------------------------------------

#: (taxonomy base, original class) -> combined class
_WRAPPED: dict[tuple[type, type], type] = {}


def _restore_wrapped(
    base: type, original: type, args: tuple, state: dict
) -> BaseException:
    """Pickle reconstructor for a dynamically created wrapped class.

    The combined class cannot be found by the default ``module.qualname``
    lookup (it exists only in the ``_WRAPPED`` cache), so the wrapped
    instance pickles as *this function plus the (base, original) key*:
    unpickling re-creates (or reuses) the cached class in the receiving
    process and restores the instance without re-running ``__init__`` —
    exactly what lets a worker process raise a wrapped error across the
    process-pool boundary.
    """
    cls = _wrapped_class(base, original)
    err = cls.__new__(cls)
    err.args = tuple(args)
    err.__dict__.update(state)
    return err


def _wrapped_class(base: type, cls: type) -> type:
    """The cached ``(base, cls)`` combined class (create on first use)."""
    key = (base, cls)
    wrapped = _WRAPPED.get(key)
    if wrapped is None:

        def __reduce__(self, _base=base, _cls=cls):
            return (
                _restore_wrapped,
                (_base, _cls, self.args, dict(self.__dict__)),
            )

        try:
            wrapped = type(
                f"{base.__name__}:{cls.__name__}",
                (base, cls),
                {"__reduce__": __reduce__},
            )
        except TypeError:  # incompatible layout: fall back to the base
            wrapped = base
        _WRAPPED[key] = wrapped
    return wrapped


def wrap_error(
    error: BaseException,
    base: type[ReproError],
    *,
    stage: str | None = None,
    kernel: str | None = None,
    context: str | None = None,
) -> ReproError:
    """A taxonomy error that is *also* an instance of ``type(error)``.

    Callers catching the original class (``SemanticError``,
    ``IRError``, ...) and callers catching the taxonomy class both match
    the returned object, so adopting an error into the taxonomy never
    breaks an existing ``except`` clause.  Raise the result ``from
    error`` so the originating traceback (source line, op context) stays
    on the chain.  Wrapped instances survive pickling (e.g. a worker
    raising across a process pool): they reconstruct through the class
    cache via :func:`_restore_wrapped`.
    """
    if isinstance(error, base):
        return error
    wrapped = _wrapped_class(base, type(error))
    line = getattr(error, "line", -1)
    return wrapped(
        str(error),
        stage=stage,
        kernel=kernel,
        context=context,
        line=line if isinstance(line, int) else -1,
    )
