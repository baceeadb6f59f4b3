"""Reliability layer: error taxonomy, fault injection, retry, reports.

See :mod:`repro.reliability.errors` for the typed error hierarchy,
:mod:`repro.reliability.faults` for seeded deterministic fault plans,
:mod:`repro.reliability.retry` for the deterministic backoff policy and
:mod:`repro.reliability.report` for the per-run :class:`RunReport`.
"""

from repro.reliability.errors import (
    AdmissionRejected,
    DataIntegrityError,
    DeviceAllocationError,
    DeviceBuildError,
    DeviceRuntimeError,
    DivisionByZeroError,
    DmaError,
    EngineError,
    FrontendError,
    LoopStepError,
    LoweringError,
    ReproError,
    ServiceError,
    SubscriptError,
    WatchdogTimeout,
    wrap_error,
)
from repro.reliability.faults import (
    KINDS,
    SITES,
    FaultController,
    FaultPlan,
    FaultSpec,
)
from repro.reliability.report import (
    Degradation,
    FaultEvent,
    RunReport,
    record_degradation,
)
from repro.reliability.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "AdmissionRejected",
    "ServiceError",
    "DataIntegrityError",
    "DeviceAllocationError",
    "DeviceBuildError",
    "DeviceRuntimeError",
    "DivisionByZeroError",
    "DmaError",
    "EngineError",
    "FrontendError",
    "LoopStepError",
    "LoweringError",
    "ReproError",
    "SubscriptError",
    "WatchdogTimeout",
    "wrap_error",
    "KINDS",
    "SITES",
    "FaultController",
    "FaultPlan",
    "FaultSpec",
    "Degradation",
    "FaultEvent",
    "RunReport",
    "record_degradation",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
]
