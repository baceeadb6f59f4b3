"""Diagnostics engine unit tests: catalogue, ordering, report logic."""

import pytest

from repro.analysis import RULES, SEVERITIES, Diagnostic, DiagnosticEngine, LintReport


def test_catalogue_covers_all_rule_families():
    codes = set(RULES)
    assert {"RACE001", "RACE002", "RACE003"} <= codes
    assert {"DEP001", "DEP002"} <= codes
    assert {"TYPE001", "TYPE002"} <= codes
    for severity, summary in RULES.values():
        assert severity in SEVERITIES
        assert summary


def test_emit_uses_catalogued_severity():
    engine = DiagnosticEngine()
    diag = engine.emit("RACE001", "boom", kernel="k", line=7)
    assert diag.severity == "error"
    assert engine.emit("DEP001", "slow").severity == "warning"
    assert engine.error_count == 1
    assert engine.warning_count == 1
    assert engine.has_errors


def test_emit_rejects_unknown_code_and_severity():
    engine = DiagnosticEngine()
    with pytest.raises(ValueError, match="unknown rule code"):
        engine.emit("NOPE42", "message")
    with pytest.raises(ValueError, match="unknown severity"):
        engine.emit("RACE001", "message", severity="fatal")
    assert len(engine) == 0


def test_format_includes_code_kernel_and_line():
    diag = Diagnostic("error", "RACE001", "race here", kernel="saxpy", line=12)
    text = diag.format()
    assert "RACE001" in text
    assert "'saxpy'" in text
    assert "line 12" in text
    assert diag.as_dict() == {
        "severity": "error",
        "code": "RACE001",
        "message": "race here",
        "kernel": "saxpy",
        "line": 12,
    }


def test_sorted_is_deterministic_by_kernel_line_code():
    engine = DiagnosticEngine()
    engine.emit("DEP001", "b", kernel="z", line=1)
    engine.emit("RACE001", "a", kernel="a", line=9)
    engine.emit("RACE001", "c", kernel="a", line=2)
    assert [(d.kernel, d.line) for d in engine.sorted()] == [
        ("a", 2),
        ("a", 9),
        ("z", 1),
    ]


def test_by_code_and_clear():
    engine = DiagnosticEngine()
    engine.emit("RACE001", "x")
    engine.emit("RACE001", "y")
    engine.emit("DEP002", "z")
    assert len(engine.by_code("RACE001")) == 2
    engine.clear()
    assert len(engine) == 0


def test_lint_report_failure_disposition():
    clean = LintReport("a.f90", [])
    assert not clean.failed() and not clean.failed(werror=True)
    warn = LintReport("b.f90", [Diagnostic("warning", "DEP001", "w")])
    assert not warn.failed()
    assert warn.failed(werror=True)
    err = LintReport("c.f90", [Diagnostic("error", "RACE001", "e")])
    assert err.failed()
