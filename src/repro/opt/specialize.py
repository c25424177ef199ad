"""The optimizer's dry run: the get specializations the analysis buys.

Section 1 of the paper motivates the analysis by the "substantial
optimizations" it enables.  :func:`specialize` reports the ones
:func:`~repro.opt.pipeline.optimize_program` makes, so the report and
the rewrite are one decision: every ``get_*_nv``/``get_*_w`` in the
optimized code area, at its address there, plus the predicates
:func:`repro.lint.dataflow.determinacy` marks deterministic.

* ``nonvar`` — a ``get_*_nv`` on an instantiated argument skips the
  unbound-variable case (Taylor, "Removal of Dereferencing and
  Trailing in Prolog Compilation"); ``ground`` — on a ground argument
  it can never bind anything, so trailing goes too;
* ``write_only`` — a ``get_*_w`` on an always-unbound, unaliased
  argument only constructs: the read path and its tag dispatch go;
* deterministic — an instantiated first argument over distinct clause
  keys needs no choice point.

A get the optimizer leaves alone is not reported: a ``get_value``, a
get on an argument register the clause already overwrote, on a
must-aliased argument or in a dead clause, and every get of a predicate
whose facts are not exact.  The cost model counts saved tag tests,
dereference loops, trail pushes and choice points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..analysis.results import AnalysisResult
from ..lint.dataflow import determinacy
from ..prolog.terms import Indicator, format_indicator
from ..wam.compile import CompiledProgram
from ..wam.instructions import Instr, base_op
from ..wam.listing import format_instruction
from .pipeline import (
    _SPECIALIZABLE_GETS,
    _argument_classes,
    _examined_position,
    optimize_program,
)

#: Cost model: units saved per specialization kind.
DEREF_COST = 2
TRAIL_COST = 1
TAG_TEST_COST = 1
CHOICE_POINT_COST = 10

_SAVING = {
    "ground": DEREF_COST + TRAIL_COST + TAG_TEST_COST,
    "nonvar": DEREF_COST,
    "write_only": TAG_TEST_COST,
}


@dataclass
class Annotation:
    """One specialized instruction."""

    address: int
    instruction: Instr
    kind: str  # 'ground', 'nonvar', 'write_only'
    saving: int

    def to_text(self, arity: int = 0) -> str:
        base = format_instruction(self.instruction, arity)
        return f"{self.address:5d}  {base:40s} ; {self.kind} (saves {self.saving})"


@dataclass
class SpecializationReport:
    """All annotations for one compiled program."""

    annotations: List[Annotation] = field(default_factory=list)
    deterministic_predicates: List[Indicator] = field(default_factory=list)
    instructions_seen: int = 0

    @property
    def total_saving(self) -> int:
        return sum(a.saving for a in self.annotations) + CHOICE_POINT_COST * len(
            self.deterministic_predicates
        )

    def count(self, kind: str) -> int:
        return sum(1 for a in self.annotations if a.kind == kind)

    def to_text(self) -> str:
        lines = [
            f"% specialization: {len(self.annotations)} of "
            f"{self.instructions_seen} instructions (addresses in the "
            f"optimized code area), "
            f"{len(self.deterministic_predicates)} deterministic predicates, "
            f"{self.total_saving} cost units saved",
        ]
        for kind in ("ground", "nonvar", "write_only"):
            lines.append(f"%   {kind}: {self.count(kind)}")
        for indicator in self.deterministic_predicates:
            lines.append(f"%   deterministic: {format_indicator(indicator)}")
        for annotation in self.annotations:
            lines.append(annotation.to_text())
        return "\n".join(lines)


def specialize(
    compiled: CompiledProgram, result: AnalysisResult
) -> SpecializationReport:
    """Annotate the gets the optimizer specializes; see module docstring."""
    code = optimize_program(compiled, result).compiled.code
    report = SpecializationReport()
    for indicator in result.predicates():
        info = result.predicate(indicator)
        if info is None or indicator not in code.entry:
            continue
        classes = _argument_classes(info)
        start = code.entry[indicator]
        for address in range(start, start + code.size_of(indicator)):
            instruction = code.at(address)
            report.instructions_seen += 1
            op = instruction.op
            base = base_op(op)
            if op == base or base not in _SPECIALIZABLE_GETS:
                continue
            if op.endswith("_w"):
                kind = "write_only"
            else:
                kind = classes[_examined_position(instruction)]
            report.annotations.append(
                Annotation(address, instruction, kind, _SAVING[kind])
            )
    report.deterministic_predicates = [
        indicator
        for indicator, fact in determinacy(compiled, result).items()
        if fact.deterministic
    ]
    return report
