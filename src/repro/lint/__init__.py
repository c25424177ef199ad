"""Static diagnostics: a WAM bytecode verifier and an analysis-driven linter.

A client of the dataflow facts: correctness tooling.  It also owns the
facts that it and the optimizer (:mod:`repro.opt`) both read, so lint
never imports the optimizer.

* :mod:`.verifier` — a forward dataflow pass over compiled WAM code that
  checks register-file and environment discipline (codes ``E1xx``);
* :mod:`.dataflow` — the per-predicate CFG, X-register liveness and
  first-argument determinacy;
* :mod:`.deadcode` — unreachable predicates, dead clauses and
  proven-failing predicates;
* :mod:`.rules` / :mod:`.source` — source-level lint rules driven by the
  extension table (codes ``W0xx``/``E0xx``/``I0xx``);
* :mod:`.driver` — the one lint-report assembly (analysis status,
  verifier, source rules) into a :class:`LintReport`;
* :mod:`.diagnostics` — the shared structured-diagnostic core.

Run it as ``repro-lint file.pl "entry(g, var)"`` or
``python -m repro.lint ...``.
"""

from .deadcode import DeadCodeReport, clause_matches, find_dead_code
from .diagnostics import Diagnostic, LintReport
from .driver import LintOptions, assemble_report, lint_file, lint_program
from .rules import RULES, LintContext, Rule
from .source import lint_source
from .verifier import verify_code, verify_compiled

__all__ = [
    "DeadCodeReport",
    "Diagnostic",
    "LintContext",
    "LintOptions",
    "LintReport",
    "RULES",
    "Rule",
    "assemble_report",
    "clause_matches",
    "find_dead_code",
    "lint_file",
    "lint_program",
    "lint_source",
    "verify_code",
    "verify_compiled",
]
