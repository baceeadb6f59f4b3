"""A deterministic bound on the work of one SGESL kernel launch.

The paper's Table 2 solve launches a kernel per column: 127 launches at
n=64, 1,023 at n=512.  Each launch's wall-clock is almost all Python
calls — the host program's generated function and the device-op and
DMA methods it calls, the kernel runner and two whole-space vectorizer
entries — so the number of Python-level calls per launch measures its
fixed cost exactly, where a wall-clock ratio would be noise on a shared
host.

Counted: every ``sys.setprofile`` call event whose code is not from
the standard library or an installed package — ``src/repro``, the
block-JIT's generated functions and dataclass-generated ``__init__``s.
Python 3.12 inlines list comprehensions (PEP 709), so its count is a
little lower than 3.11's for the same code.  Over the bound, the
failure names the ten code objects with the most calls per launch, so
a regression names the layer that grew.
"""

from __future__ import annotations

import sys
import sysconfig
from collections import Counter

#: calls per launch: ~111.8 on Python 3.11.7 (241.4 with one closure per
#: op, 311.5 before that), plus a 3.6% margin
MAX_CALLS_PER_LAUNCH = 116


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
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and not frame.f_code.co_filename.startswith(library):
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    launches = result.launches
    assert launches == 127
    per_launch = calls.total() / launches
    top = "\n".join(
        f"  {count / launches:7.2f}  {code.co_filename}:"
        f"{code.co_firstlineno} {code.co_name}"
        for code, count in calls.most_common(10)
    )
    assert per_launch <= MAX_CALLS_PER_LAUNCH, (
        f"{per_launch:.1f} Python calls per launch (bound "
        f"{MAX_CALLS_PER_LAUNCH}); most calls per launch:\n{top}"
    )
