"""Simulated host runtime: the OpenCL command queue every run is timed
on, the device data table, the host-module executor and the CPU
baseline."""

from repro.runtime.cpu import CpuExecutionResult, CpuExecutor
from repro.runtime.device_runtime import DeviceDataTable, DeviceRuntimeError
from repro.runtime.executor import FpgaExecutor, KernelInstance
from repro.runtime.opencl import ClBuffer, ClCommandQueue, ExecutionResult

__all__ = [
    "CpuExecutionResult",
    "CpuExecutor",
    "DeviceDataTable",
    "DeviceRuntimeError",
    "ExecutionResult",
    "FpgaExecutor",
    "KernelInstance",
    "ClBuffer",
    "ClCommandQueue",
]
