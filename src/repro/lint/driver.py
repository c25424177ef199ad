"""The lint driver: analysis + verifier + source rules in one call.

:func:`lint_program` is the library API: given a program (text, parsed,
or path contents) and entry calling patterns, it runs the fixpoint
analysis and hands the result to :func:`assemble_report`, which verifies
the compiled bytecode, runs every source rule, and aggregates everything
into one sorted :class:`~repro.lint.diagnostics.LintReport`.
``assemble_report`` is the only lint-report assembly: ``repro-analyze
--lint`` and the service's ``lint`` op call it with their own analysis
result, so a degraded run carries ``I001`` everywhere.

:func:`lint_file` adds file handling and turns syntax errors into ``E001``
diagnostics instead of exceptions, so the CLI always produces a report.

Undefined predicates default to the ``top`` policy (assume they can be
called with anything and succeed with anything): a linter should report
them (rule ``W009``), not crash on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..analysis.driver import Analyzer
from ..analysis.results import AnalysisResult
from ..errors import ReproError
from ..prolog.library import with_library
from ..prolog.program import Program
from ..robust import Budget
from ..wam.compile import CompilerOptions
from .diagnostics import Diagnostic, LintReport
from .source import lint_source
from .verifier import verify_compiled


@dataclass
class LintOptions:
    """Switches for one lint run."""

    depth: int = 4
    subsumption: bool = False
    on_undefined: str = "top"
    environment_trimming: bool = True
    #: run the bytecode verifier over the compiled program.
    verify: bool = True
    #: run the source rules.
    source: bool = True
    #: optional resource budget for the underlying analysis.
    budget: Optional[Budget] = None
    #: a linter should produce a report, not crash, when the budget
    #: trips — hence "degrade" here, unlike the analyzer's "raise".
    on_budget: str = "degrade"


def assemble_report(
    compiled,
    program: Program,
    result: Optional[AnalysisResult],
    file: str = "?",
    verify: bool = True,
    source: bool = True,
    error: Optional[ReproError] = None,
) -> LintReport:
    """The sorted lint report for one analysis run.

    ``compiled`` is the :class:`~repro.wam.compile.CompiledProgram` the
    analysis ran on and ``program`` the parse the diagnostics point
    into; ``result`` is None when the analysis raised ``error``.  The
    error and every failed entry spec become ``E000``, a result that is
    not exact adds one ``I001``, and ``verify``/``source`` switch the
    bytecode verifier and the source rules.
    """
    report = LintReport()
    failures = [] if error is None else [str(error)]
    if result is not None and result.status != "exact":
        # Entry specs whose analysis *errored* (not merely ran out of
        # budget) keep the historical E000 semantics even in degrade
        # mode — the result is sound but the error is still an error.
        failures += [
            entry_report.reason
            for entry_report in result.entry_reports
            if entry_report.status == "failed"
        ]
        non_exact = ", ".join(
            f"{entry_report.spec} ({entry_report.status})"
            for entry_report in result.entry_reports
            if entry_report.status != "exact"
        )
        report.extend([Diagnostic(
            code="I001",
            severity="info",
            message=(
                f"analysis widened to ⊤ for entry {non_exact}; "
                "precision-dependent rules (W003-W007, I008) are muted "
                "for this run"
            ),
            file=file,
        )])
    report.extend(
        Diagnostic(
            code="E000",
            severity="error",
            message=f"analysis failed: {reason}",
            file=file,
        )
        for reason in failures
    )
    if verify:
        report.extend(verify_compiled(compiled, file=file, program=program))
    if source:
        report.extend(lint_source(program, result, file=file))
    report.sort()
    return report


def lint_program(
    program: Union[Program, str],
    entries: Sequence[str],
    file: str = "?",
    options: Optional[LintOptions] = None,
) -> LintReport:
    """Lint a program against the given entry calling patterns."""
    if options is None:
        options = LintOptions()
    if isinstance(program, str):
        program = Program.from_text(program)
    analyzer = Analyzer(
        program,
        options=CompilerOptions(
            environment_trimming=options.environment_trimming
        ),
        depth=options.depth,
        subsumption=options.subsumption,
        on_undefined=options.on_undefined,
        budget=options.budget,
        on_budget=options.on_budget,
    )
    result: Optional[AnalysisResult] = None
    error: Optional[ReproError] = None
    try:
        result = analyzer.analyze(list(entries))
    except ReproError as caught:
        error = caught
    return assemble_report(
        analyzer.compiled, program, result, file=file,
        verify=options.verify, source=options.source, error=error,
    )


def lint_file(
    path: str,
    entries: Sequence[str],
    library: bool = False,
    options: Optional[LintOptions] = None,
) -> LintReport:
    """Lint a Prolog source file; syntax errors become ``E001``.

    The parser recovers at clause boundaries, so *every* malformed
    clause yields its own ``E001`` and the well-formed remainder is
    still analyzed and linted.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    program, errors = Program.from_text_with_recovery(text)
    if errors:
        report = LintReport()
        report.extend(
            [
                Diagnostic(
                    code="E001",
                    severity="error",
                    message=f"syntax error: {error}",
                    file=path,
                    position=(error.line, error.column) if error.line else None,
                )
                for error in errors
            ]
        )
        if not program.predicates:
            report.sort()
            return report
        if library:
            program = with_library(program)
        inner = lint_program(program, entries, file=path, options=options)
        report.extend(inner.diagnostics)
        report.sort()
        return report
    if library:
        program = with_library(program)
    return lint_program(program, entries, file=path, options=options)
