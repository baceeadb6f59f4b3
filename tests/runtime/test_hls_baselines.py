"""Exact pins of the hand-written HLS baselines' modelled runs.

Both baselines drive the same buffer table and command queue as the
compiled flow; these pins hold every modelled field of their results
(times as ``float.hex``, counters exactly), so a change to the queue's
charges shows up here, not only as a drift in the Table 1/2 parity.
sgesl n=256 is Table 2's "HLS (ours)" row (23.039 ms).
"""

import numpy as np
import pytest

from repro.baselines import HandwrittenSaxpy, HandwrittenSgesl
from repro.workloads.saxpy import SaxpyCase, saxpy_reference
from repro.workloads.sgesl import SgeslCase, sgesl_reference

#: (device_time_s, kernel_time_s, transfer_time_s) as float.hex, then
#: (kernel_cycles, launches, transfers, bytes_h2d, bytes_d2h)
SAXPY_PINS = {
    1000: (
        ("0x1.bd29cd0d91fffp-13", "0x1.c3070997e7a12p-14",
         "0x1.acc342098fcbcp-14"),
        (32260.0, 1, 5, 8004, 8000),
    ),
    100000: (
        ("0x1.6a98a709ab54ep-7", "0x1.5d8dc165d812cp-7",
         "0x1.8475f0f2f1cfap-12"),
        (3200260.0, 1, 5, 800004, 800000),
    ),
}
SGESL_PINS = {
    64: (
        ("0x1.072668682f218p-9", "0x1.1b166a3307f88p-11",
         "0x1.3e1b998e86ecbp-10"),
        (161984.0, 127, 889, 66548, 65024),
    ),
    256: (
        ("0x1.797889908184dp-6", "0x1.e559d321c2394p-8",
         "0x1.e17c91f6e2d96p-7"),
        (2221760.0, 511, 3577, 1052660, 1046528),
    ),
}


def _modelled(result):
    times = tuple(
        float.hex(t)
        for t in (
            result.device_time_s, result.kernel_time_s,
            result.transfer_time_s,
        )
    )
    counts = (
        result.kernel_cycles, result.launches, result.transfers,
        result.bytes_h2d, result.bytes_d2h,
    )
    return times, counts


@pytest.fixture(scope="module")
def saxpy_baseline():
    return HandwrittenSaxpy.build()


@pytest.fixture(scope="module")
def sgesl_baseline():
    return HandwrittenSgesl.build()


@pytest.mark.parametrize("n", sorted(SAXPY_PINS))
def test_saxpy_pinned(saxpy_baseline, n):
    case = SaxpyCase(n)
    x, y = case.arrays()
    expected = saxpy_reference(case.a, x, y)
    result = saxpy_baseline.run(case.a, x, y)
    assert np.allclose(y, expected, rtol=1e-5)
    assert _modelled(result) == SAXPY_PINS[n]
    assert result.cu_cycles == ()


@pytest.mark.parametrize("n", sorted(SGESL_PINS))
def test_sgesl_pinned(sgesl_baseline, n):
    _, lu, ipvt, b = SgeslCase(n).system()
    expected = sgesl_reference(lu, ipvt, b)
    result = sgesl_baseline.run(lu.copy(), b, ipvt)
    assert np.allclose(b, expected, rtol=1e-3, atol=1e-3)
    assert _modelled(result) == SGESL_PINS[n]
    assert result.cu_cycles == ()
