"""Fortran + OpenMP frontend (the Flang stand-in).

Public entry points:

* :func:`repro.frontend.driver.compile_to_fir` — source -> FIR+omp module
* :func:`repro.frontend.driver.compile_to_core` — source -> core dialects
"""

from repro.frontend.driver import FrontendArtifact, compile_to_core, compile_to_fir
from repro.frontend.lexer import FortranSyntaxError, tokenize
from repro.frontend.parser import parse_source
from repro.frontend.sema import ProgramInfo, SemanticError, analyze

__all__ = [
    "FrontendArtifact",
    "compile_to_core",
    "compile_to_fir",
    "FortranSyntaxError",
    "tokenize",
    "parse_source",
    "ProgramInfo",
    "SemanticError",
    "analyze",
]
