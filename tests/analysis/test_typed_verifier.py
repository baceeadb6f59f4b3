"""Typed IR verification (TYPE001–TYPE002).

The textual IR parser builds ops generically (it does not go through the
typed constructors), so ill-typed modules can be written down directly —
exactly the shape a buggy rewrite pass would produce in memory.  Each
fixture is checked both ways: ``verify()`` must raise with the rule code
in the message, and ``check_module`` must report the same condition as a
source-located diagnostic (the ``loc`` attributes below).
"""

import pytest

from repro.analysis import check_module
from repro.ir import parse_module, verify
from repro.ir.verifier import VerificationError, typed_check_op


def wrap(body: str, *, name: str, signature: str = "() -> ()", args: str = "") -> str:
    return (
        '"builtin.module"() ({\n'
        f'  "func.func"() <{{function_type = {signature}, sym_name = "{name}", '
        'sym_visibility = "public"}> ({\n'
        f"    ^bb({args}):\n"
        f"{body}"
        '      "func.return"() : () -> ()\n'
        "  }) : () -> ()\n"
        "}) : () -> ()\n"
    )


TYPE001_MIXED_ADDF = wrap(
    """\
      %0 = "arith.constant"() <{value = 1.0 : f32}> : () -> (f32)
      %1 = "arith.constant"() <{value = 2.0 : f64}> : () -> (f64)
      %2 = "arith.addf"(%0, %1) <{loc = 12 : i64}> : (f32, f64) -> (f32)
""",
    name="bad_addf",
)

TYPE001_SILENT = TYPE001_MIXED_ADDF.replace("f64", "f32")

TYPE002_RANK_MISMATCH = wrap(
    """\
      %0 = "arith.constant"() <{value = 0 : index}> : () -> (index)
      %1 = "memref.load"(%a, %0) <{loc = 7 : i64}> : (memref<4x4xf32, 1 : i32>, index) -> (f32)
""",
    name="bad_load",
    signature="(memref<4x4xf32, 1 : i32>) -> ()",
    args="%a: memref<4x4xf32, 1 : i32>",
)

TYPE002_SILENT = TYPE002_RANK_MISMATCH.replace(
    '"memref.load"(%a, %0) <{loc = 7 : i64}> : (memref<4x4xf32, 1 : i32>, index)',
    '"memref.load"(%a, %0, %0) <{loc = 7 : i64}> : (memref<4x4xf32, 1 : i32>, index, index)',
)

CASES = [
    ("TYPE001", TYPE001_MIXED_ADDF, TYPE001_SILENT, 12),
    ("TYPE002", TYPE002_RANK_MISMATCH, TYPE002_SILENT, 7),
]


@pytest.mark.parametrize("code,bad,good,line", CASES, ids=[c[0] for c in CASES])
def test_verify_raises_with_rule_code(code, bad, good, line):
    with pytest.raises(VerificationError, match=rf"\[{code}\]"):
        verify(parse_module(bad))
    verify(parse_module(good))  # the well-typed twin is clean


@pytest.mark.parametrize("code,bad,good,line", CASES, ids=[c[0] for c in CASES])
def test_check_module_reports_located_diagnostic(code, bad, good, line):
    diags = check_module(parse_module(bad)).sorted()
    assert [d.code for d in diags] == [code]
    assert diags[0].severity == "error"
    assert diags[0].line == line
    assert len(check_module(parse_module(good))) == 0


def test_select_value_legs_must_agree():
    bad = wrap(
        """\
      %0 = "arith.constant"() <{value = 1 : i1}> : () -> (i1)
      %1 = "arith.constant"() <{value = 1.0 : f32}> : () -> (f32)
      %2 = "arith.constant"() <{value = 2.0 : f64}> : () -> (f64)
      %3 = "arith.select"(%0, %1, %2) <{loc = 4 : i64}> : (i1, f32, f64) -> (f32)
""",
        name="bad_select",
    )
    with pytest.raises(VerificationError, match=r"\[TYPE001\]"):
        verify(parse_module(bad))


def test_typed_check_op_is_none_for_untyped_ops():
    module = parse_module(TYPE001_SILENT)
    for op in module.walk():
        assert typed_check_op(op) is None
