"""Translation validation: prove each optimized program, don't trust it.

Two independent obligations, both mandatory before an optimized code
area is used (the CLI and the benchmark harness refuse otherwise):

1. **Verifier-clean** — :func:`repro.lint.verifier.verify_code` over the
   optimized code area must produce zero diagnostics.  The verifier
   treats specialized opcodes as their base instruction, so every
   register/environment obligation of the original instruction set still
   applies to the rewritten code.
2. **Differential execution** — every goal runs on a fresh machine
   against the original and the optimized program; the *ordered*
   solution sequences (variable bindings, canonically renamed) and the
   builtin output buffers must match exactly.

The goals must be covered by the analysis entries the optimizer used —
:func:`repro.opt.pipeline.goal_entry_specs` exists precisely to build
those — otherwise a mismatch is the *expected* outcome, not a bug: the
facts never claimed to hold for unanalyzed calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..lint.diagnostics import Diagnostic
from ..lint.verifier import verify_code
from ..prolog.parser import parse_term
from ..prolog.terms import Atom, Float, Int, Struct, Term, Var
from ..prolog.writer import term_to_text
from ..wam.compile.program import CompiledProgram
from ..wam.machine import Machine


def canonical_text(term: Term, names: Dict[int, str]) -> str:
    """Render a term with variables renamed ``_0, _1, ...`` in order of
    first occurrence, so two heaps with different layouts compare equal
    exactly when the solutions are alpha-equivalent (including sharing:
    aliased variables decode to one :class:`Var` and get one name)."""
    if isinstance(term, Var):
        label = names.get(id(term))
        if label is None:
            label = f"_{len(names)}"
            names[id(term)] = label
        return label
    if isinstance(term, Struct):
        inner = ",".join(canonical_text(a, names) for a in term.args)
        return f"{term.name}({inner})"
    if isinstance(term, (Atom, Int, Float)):
        return term_to_text(term)
    return str(term)  # pragma: no cover - no other term kinds exist


@dataclass
class GoalValidation:
    """Differential result for one goal."""

    goal: str
    solutions: int
    optimized_solutions: int
    matches: bool
    #: human-readable description of the first divergence, if any.
    detail: str = ""


@dataclass
class ValidationReport:
    """Verifier diagnostics plus per-goal differential results."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    goals: List[GoalValidation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics and all(g.matches for g in self.goals)

    def to_text(self) -> str:
        lines = []
        if self.diagnostics:
            lines.append(
                f"% verifier: {len(self.diagnostics)} diagnostic(s) "
                "on optimized code"
            )
            lines.extend(f"  {d.code}: {d.message}" for d in self.diagnostics)
        else:
            lines.append("% verifier: optimized code is clean")
        for goal in self.goals:
            status = "ok" if goal.matches else "MISMATCH"
            lines.append(
                f"% {goal.goal}: {status} "
                f"({goal.solutions} solution(s))"
                + (f" — {goal.detail}" if goal.detail else "")
            )
        return "\n".join(lines)


def canonical_solution(
    solution: Dict[str, Term]
) -> Tuple[Tuple[str, str], ...]:
    """A solution's bindings as sorted ``(name, canonical_text)`` pairs,
    variables numbered across the whole solution."""
    names: Dict[int, str] = {}
    return tuple(
        (name, canonical_text(solution[name], names))
        for name in sorted(solution)
    )


def _run_goal(
    compiled: CompiledProgram, goal: Term, max_solutions: Optional[int]
) -> Tuple[List[Tuple[Tuple[str, str], ...]], Tuple[str, ...], str]:
    """Ordered canonical solutions, builtin output, and any crash.

    A specialized instruction whose analysis fact is violated (a goal
    outside the analyzed entries) can crash the machine outright; the
    validator must report that as a divergence, not die with it.
    """
    machine = Machine(compiled)
    solutions: List[Tuple[Tuple[str, str], ...]] = []
    error = ""
    try:
        for count, solution in enumerate(machine.run(goal), start=1):
            solutions.append(canonical_solution(solution))
            if max_solutions is not None and count >= max_solutions:
                break
    except Exception as exc:  # noqa: BLE001 - anything the machine raises
        error = f"{type(exc).__name__}: {exc}"
    return solutions, tuple(machine.output), error


def validate(
    original: CompiledProgram,
    optimized: CompiledProgram,
    goals: Sequence[Union[str, Term]],
    max_solutions: Optional[int] = None,
) -> ValidationReport:
    """Verify the optimized code area and diff-execute every goal.

    Each goal gets a fresh :class:`~repro.wam.machine.Machine` per
    program; solution order matters (the optimizer must preserve the
    clause selection order, not just the solution set).
    """
    report = ValidationReport(diagnostics=verify_code(optimized.code))
    for goal in goals:
        term = parse_term(goal) if isinstance(goal, str) else goal
        goal_text = goal if isinstance(goal, str) else term_to_text(term)
        base_solutions, base_output, base_error = _run_goal(
            original, term, max_solutions
        )
        opt_solutions, opt_output, opt_error = _run_goal(
            optimized, term, max_solutions
        )
        detail = ""
        if base_error or opt_error:
            detail = (
                f"machine error (original: {base_error or 'none'}; "
                f"optimized: {opt_error or 'none'})"
            )
        elif base_solutions != opt_solutions:
            for index, (expected, actual) in enumerate(
                zip(base_solutions, opt_solutions)
            ):
                if expected != actual:
                    detail = (
                        f"solution {index + 1} differs: "
                        f"{expected} vs {actual}"
                    )
                    break
            else:
                detail = (
                    f"solution count differs: {len(base_solutions)} "
                    f"vs {len(opt_solutions)}"
                )
        elif base_output != opt_output:
            detail = "builtin output differs"
        report.goals.append(
            GoalValidation(
                goal=goal_text,
                solutions=len(base_solutions),
                optimized_solutions=len(opt_solutions),
                matches=not detail,
                detail=detail,
            )
        )
    return report
