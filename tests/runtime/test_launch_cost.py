"""A deterministic bound on the work of one SGESL kernel launch.

The paper's Table 2 solve launches a kernel per column: 127 launches at
n=64, 1,023 at n=512.  Each launch's wall-clock is almost all Python
calls — the host program's device-op closures, the DMA path, the
kernel runner and two whole-space vectorizer entries — so the number of
Python-level calls per launch measures its fixed cost exactly, where a
wall-clock ratio would be noise on a shared host.

Counted: every ``sys.setprofile`` call event whose code is not from
the standard library or an installed package — ``src/repro``, the
block-JIT's generated runners and dataclass-generated ``__init__``s.
Python 3.12 inlines list comprehensions (PEP 709), so its count is a
little lower than 3.11's for the same code.
"""

from __future__ import annotations

import sys
import sysconfig

#: calls per launch: ~241 on Python 3.11.7 (its parent read 311.5)
MAX_CALLS_PER_LAUNCH = 250


def _library_prefixes() -> tuple[str, ...]:
    paths = sysconfig.get_paths()
    return tuple(
        {paths[key] for key in ("stdlib", "platstdlib", "purelib", "platlib")}
    )


def test_sgesl_launch_stays_within_its_call_bound():
    from repro.workloads import get_workload

    workload = get_workload("sgesl")
    program = workload.compile()
    instance = workload.instance(64)

    def run():
        args = list(instance.args)
        args[1] = args[1].copy()
        return program.executor().run(workload.entry, *args)

    run()  # warm: compiled functions and loop plans
    library = _library_prefixes()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and not frame.f_code.co_filename.startswith(library):
            calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    assert result.launches == 127
    per_launch = calls / result.launches
    assert per_launch <= MAX_CALLS_PER_LAUNCH, (
        f"{per_launch:.1f} Python calls per launch (bound "
        f"{MAX_CALLS_PER_LAUNCH})"
    )
