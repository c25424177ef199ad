"""The optimization pipeline: analysis facts in, rewritten code areas out.

:func:`optimize_program` takes a compiled program plus an
:class:`~repro.analysis.results.AnalysisResult` and rebuilds every
analyzed predicate's code with the facts applied:

1. **Dead-clause elimination** — clauses whose head matches no recorded
   calling pattern (:mod:`repro.lint.deadcode`) are dropped before
   recompilation; a predicate with no live clause becomes a ``fail``
   stub.
2. **Forced first-argument indexing** — when the first argument is
   instantiated at every call (class ``ground``/``nonvar``), a
   ``switch_on_term`` dispatcher is emitted even for predicates with
   variable-keyed clauses, which the baseline compiler refuses to index.
   Variable-keyed clauses merge into every bucket in source order and
   become the tables' miss target, so dispatch is semantics-preserving
   by construction (see :mod:`repro.wam.compile.predicate`).
3. **Get specialization** — a ``get_*`` on an argument register that
   still holds the original argument rewrites to ``*_nv`` (argument
   always instantiated: the unbound-REF branch and its trailing go away)
   or ``*_w`` (argument always an unbound, *unaliased* variable:
   matching degenerates to construction).  The aliasing side-condition
   comes from the result's must-share pairs; a variable whose sharing
   the pattern could not represent was widened to ``any`` upstream, so
   class ``var`` plus no share pair really does mean unaliased.
4. **Unify-mode resolution** — a ``unify_*`` run following a specialized
   ``get_list``/``get_structure`` has a statically known mode (``_r`` /
   ``_w``); a run following ``put_list``/``put_structure`` is always
   write mode (a compiler invariant, analysis-independent).
5. **Dead/no-op move elimination** — ``get_variable Xr, Ai`` where
   ``Xr`` is dead afterwards (per :func:`repro.lint.dataflow.x_liveness`
   on the rebuilt unit) or where ``Xr`` *is* ``Ai``.
6. **Environment-slot trimming** — ``allocate N`` shrinks to the highest
   Y slot actually referenced before the matching ``deallocate`` (call
   live-slot counts are clamped to match).

Soundness contract: the facts hold for the analyzed entry points only,
so callers must analyze with an entry spec covering every goal they
intend to run against the optimized code — :func:`goal_entry_specs`
derives such specs from concrete goals.  Every transformed program is
meant to go through :func:`repro.opt.validate.validate` (verifier-clean
plus differential execution), which is what ``repro-optimize`` and the
benchmark harness do.

Predicates whose analysis status is not ``"exact"`` (widened after a
budget interruption) are left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..analysis.results import AnalysisResult
from ..lint.dataflow import DeterminacyInfo, build_cfg, determinacy, x_liveness
from ..lint.deadcode import find_dead_code
from ..prolog.program import Predicate, Program, flatten_conjunction
from ..prolog.terms import (
    Atom,
    Indicator,
    Struct,
    Term,
    Var,
    format_indicator,
    term_vars,
)
from ..wam import instructions as ins
from ..wam.code import CodeArea, PredicateCode
from ..wam.compile.program import CompiledProgram
from ..wam.instructions import GET_OPS, UNIFY_OPS, Instr, Reg, base_op

#: get opcodes that examine one argument register and can specialize.
_SPECIALIZABLE_GETS = frozenset(
    ["get_constant", "get_nil", "get_list", "get_structure"]
)

#: opcodes allowed inside the head-matching region of a clause.
_HEAD_REGION_OPS = GET_OPS | UNIFY_OPS | frozenset(["allocate", "get_level"])


# ----------------------------------------------------------------------
# Reports.


@dataclass
class PredicateOptimization:
    """What the pipeline did to one predicate."""

    indicator: Indicator
    size_before: int
    size_after: int
    dead_clauses: int = 0
    forced_index: bool = False
    #: the determinacy fact (first-argument selection), when computed.
    deterministic: bool = False
    nonvar_gets: int = 0
    write_gets: int = 0
    read_unifies: int = 0
    write_unifies: int = 0
    moves_removed: int = 0
    slots_trimmed: int = 0

    @property
    def changed(self) -> bool:
        return bool(
            self.dead_clauses
            or self.forced_index
            or self.nonvar_gets
            or self.write_gets
            or self.read_unifies
            or self.write_unifies
            or self.moves_removed
            or self.slots_trimmed
        )

    def to_dict(self) -> dict:
        return {
            "predicate": format_indicator(self.indicator),
            "size_before": self.size_before,
            "size_after": self.size_after,
            "dead_clauses": self.dead_clauses,
            "forced_index": self.forced_index,
            "deterministic": self.deterministic,
            "nonvar_gets": self.nonvar_gets,
            "write_gets": self.write_gets,
            "read_unifies": self.read_unifies,
            "write_unifies": self.write_unifies,
            "moves_removed": self.moves_removed,
            "slots_trimmed": self.slots_trimmed,
        }


@dataclass
class OptimizationReport:
    """Per-predicate transform counts plus program totals."""

    predicates: List[PredicateOptimization] = field(default_factory=list)

    @property
    def changed_predicates(self) -> List[PredicateOptimization]:
        return [p for p in self.predicates if p.changed]

    def total(self, attribute: str) -> int:
        return sum(getattr(p, attribute) for p in self.predicates)

    def to_dict(self) -> dict:
        return {
            "predicates": [p.to_dict() for p in self.predicates],
            "totals": {
                "dead_clauses": self.total("dead_clauses"),
                "forced_index": sum(
                    1 for p in self.predicates if p.forced_index
                ),
                "nonvar_gets": self.total("nonvar_gets"),
                "write_gets": self.total("write_gets"),
                "read_unifies": self.total("read_unifies"),
                "write_unifies": self.total("write_unifies"),
                "moves_removed": self.total("moves_removed"),
                "slots_trimmed": self.total("slots_trimmed"),
                "size_before": self.total("size_before"),
                "size_after": self.total("size_after"),
            },
        }

    def to_text(self) -> str:
        changed = self.changed_predicates
        if not changed:
            return "% nothing to optimize"
        lines = ["% optimization report"]
        for p in changed:
            notes = []
            if p.dead_clauses:
                notes.append(f"{p.dead_clauses} dead clause(s) dropped")
            if p.forced_index:
                notes.append("first-arg switch forced")
            if p.nonvar_gets:
                notes.append(f"{p.nonvar_gets} get->nv")
            if p.write_gets:
                notes.append(f"{p.write_gets} get->w")
            if p.read_unifies:
                notes.append(f"{p.read_unifies} unify->r")
            if p.write_unifies:
                notes.append(f"{p.write_unifies} unify->w")
            if p.moves_removed:
                notes.append(f"{p.moves_removed} move(s) removed")
            if p.slots_trimmed:
                notes.append(f"{p.slots_trimmed} slot(s) trimmed")
            lines.append(
                f"{format_indicator(p.indicator)}: "
                f"{p.size_before} -> {p.size_after} instruction(s); "
                + ", ".join(notes)
            )
        return "\n".join(lines)


@dataclass
class OptimizedProgram:
    """The optimized code area plus the original and the report."""

    original: CompiledProgram
    compiled: CompiledProgram
    report: OptimizationReport


# ----------------------------------------------------------------------
# Goal -> entry-spec derivation.


def goal_entry_specs(program: Program, goal: Term) -> List[Term]:
    """Analysis entry specs covering a concrete goal's calls.

    One spec per conjunct that names a program predicate, abstracting
    each argument soundly: ground terms become ``g``, other non-vars
    become ``nv`` (instantiation only grows), and a bare variable stays
    itself — the spec language reads repeated ``Var`` objects as
    must-aliasing — *unless* an earlier conjunct may already have bound
    it, or it also occurs buried inside a non-var argument of the same
    call (aliasing a bare spec variable cannot express); those widen to
    ``any``.  Builtin conjuncts contribute no spec.
    """
    specs: List[Term] = []
    seen: Set[int] = set()
    for conjunct in flatten_conjunction(goal):
        if isinstance(conjunct, Atom):
            if (conjunct.name, 0) in program.predicates:
                specs.append(conjunct)
            continue
        if not isinstance(conjunct, Struct):
            continue
        if conjunct.indicator in program.predicates:
            buried: Set[int] = set()
            for argument in conjunct.args:
                if not isinstance(argument, Var):
                    buried.update(id(v) for v in term_vars(argument))
            arguments: List[Term] = []
            for argument in conjunct.args:
                if isinstance(argument, Var):
                    if id(argument) in seen or id(argument) in buried:
                        arguments.append(Atom("any"))
                    else:
                        arguments.append(argument)
                elif not term_vars(argument):
                    arguments.append(Atom("g"))
                else:
                    arguments.append(Atom("nv"))
            specs.append(Struct(conjunct.name, tuple(arguments)))
        seen.update(id(v) for v in term_vars(conjunct))
    return specs


# ----------------------------------------------------------------------
# Per-predicate transforms.  All of them work on *unlinked* instruction
# lists (Label operands, ``label`` pseudo-instructions still present).


def _argument_classes(info) -> Dict[int, Optional[str]]:
    """1-based argument position -> ``'ground'``/``'nonvar'``/``'var'``/None."""
    return {
        argument.position + 1: argument.call_class
        for argument in info.arguments
    }


def _examined_position(instruction: Instr) -> Optional[int]:
    """The argument position a specializable get examines (None for a
    ``get_list``/``get_structure`` on a Y register)."""
    target = instruction.args[-1]
    if isinstance(target, Reg):
        return target.index if target.kind == "x" else None
    return target


def _aliased_positions(info) -> Set[int]:
    """1-based positions participating in any must-share pair."""
    return {
        position + 1 for pair in info.call_aliasing for position in pair
    }


def _specialize_gets(
    instructions: List[Instr],
    arity: int,
    clause_label_names: Set[str],
    classes: Dict[int, Optional[str]],
    aliased: Set[int],
    record: PredicateOptimization,
) -> None:
    """Rewrite head ``get_*`` to ``_nv``/``_w`` where the facts allow it.

    Walks each clause's head-matching region tracking which argument
    registers are *intact* (still hold the original call argument — a
    ``get_variable``/``unify_variable`` into ``Xj`` retires ``j``).
    """
    index = 0
    while index < len(instructions):
        instruction = instructions[index]
        if (
            instruction.op == "label"
            and instruction.args[0].name in clause_label_names
        ):
            index = _specialize_head_region(
                instructions, index + 1, arity, classes, aliased, record
            )
        else:
            index += 1


def _specialize_head_region(
    instructions: List[Instr],
    start: int,
    arity: int,
    classes: Dict[int, Optional[str]],
    aliased: Set[int],
    record: PredicateOptimization,
) -> int:
    intact = set(range(1, arity + 1))
    index = start
    while index < len(instructions):
        instruction = instructions[index]
        op = instruction.op
        base = base_op(op)
        if op == "label" or base not in _HEAD_REGION_OPS:
            return index
        args = instruction.args
        if base in ("get_variable", "unify_variable"):
            register = args[0]
            if isinstance(register, Reg) and register.kind == "x":
                intact.discard(register.index)
        elif op in _SPECIALIZABLE_GETS:
            position = _examined_position(instruction)
            if position in intact:
                klass = classes.get(position)
                if klass in ("ground", "nonvar"):
                    instructions[index] = Instr(op + "_nv", args)
                    record.nonvar_gets += 1
                elif klass == "var" and position not in aliased:
                    instructions[index] = Instr(op + "_w", args)
                    record.write_gets += 1
        index += 1
    return index


def _resolve_unify_modes(
    instructions: List[Instr], record: PredicateOptimization
) -> None:
    """Rewrite ``unify_*`` runs with a statically known mode.

    After ``get_list_nv``/``get_structure_nv`` the machine is in read
    mode; after ``get_list_w``/``get_structure_w`` and after any
    ``put_list``/``put_structure`` (compiler invariant: argument
    construction always runs in write mode) it is in write mode.  Any
    other opcode makes the mode unknown again.
    """
    mode: Optional[str] = None
    for index, instruction in enumerate(instructions):
        op = instruction.op
        if op in ("get_list_nv", "get_structure_nv"):
            mode = "read"
            continue
        if op in ("get_list_w", "get_structure_w", "put_list", "put_structure"):
            mode = "write"
            continue
        if op in UNIFY_OPS:
            if mode == "read":
                instructions[index] = Instr(op + "_r", instruction.args)
                record.read_unifies += 1
            elif mode == "write":
                instructions[index] = Instr(op + "_w", instruction.args)
                record.write_unifies += 1
            continue
        if base_op(op) in UNIFY_OPS:
            continue  # already specialized; the run's mode is unchanged
        mode = None


def _eliminate_moves(
    unit: PredicateCode, record: PredicateOptimization
) -> PredicateCode:
    """Drop no-op and dead ``get_variable`` argument moves.

    ``get_variable Xi, Ai`` where the two registers coincide is the
    identity; ``get_variable Xr, Ai`` whose target is dead afterwards
    (per :func:`x_liveness` on a scratch-linked copy of the unit) only
    shuffles a value nobody reads.
    """
    scratch = CodeArea()
    scratch.link(
        [
            PredicateCode(
                unit.indicator,
                list(unit.instructions),
                unit.clause_count,
                unit.clause_labels,
            )
        ]
    )
    liveness = x_liveness(build_cfg(scratch, unit.indicator, 0, len(scratch)))
    kept: List[Instr] = []
    address = 0
    for instruction in unit.instructions:
        if instruction.op == "label":
            kept.append(instruction)
            continue
        if base_op(instruction.op) == "get_variable":
            register, position = instruction.args
            if isinstance(register, Reg) and register.kind == "x":
                dead = register.index not in liveness.live_out.get(
                    address, frozenset()
                )
                if register.index == position or dead:
                    record.moves_removed += 1
                    address += 1
                    continue
        kept.append(instruction)
        address += 1
    if record.moves_removed:
        return PredicateCode(
            unit.indicator, kept, unit.clause_count, unit.clause_labels
        )
    return unit


def _trim_environments(
    instructions: List[Instr], record: PredicateOptimization
) -> None:
    """Shrink each ``allocate`` to the highest Y slot actually used."""
    for index, instruction in enumerate(instructions):
        if instruction.op != "allocate":
            continue
        slot_count = instruction.args[0]
        max_used = 0
        calls: List[int] = []
        scan = index + 1
        closed = False
        while scan < len(instructions):
            inner = instructions[scan]
            if inner.op == "deallocate":
                closed = True
                break
            if inner.op == "label":
                break  # defensive: never trim across a clause boundary
            if inner.op == "call":
                calls.append(scan)
            for argument in inner.args:
                if isinstance(argument, Reg) and argument.kind == "y":
                    max_used = max(max_used, argument.index)
            scan += 1
        if closed and max_used < slot_count:
            instructions[index] = ins.allocate(max_used)
            for call_index in calls:
                predicate, live = instructions[call_index].args
                if live > max_used:
                    instructions[call_index] = ins.call(predicate, max_used)
            record.slots_trimmed += slot_count - max_used


def _code_size(instructions: Sequence[Instr]) -> int:
    return sum(1 for i in instructions if i.op != "label")


# ----------------------------------------------------------------------
# The pipeline.


def optimize_program(
    compiled: CompiledProgram, result: AnalysisResult
) -> OptimizedProgram:
    """Rebuild ``compiled``'s code area with the analysis facts applied.

    The input program is untouched; the result shares its source
    :class:`~repro.prolog.program.Program` and compiler options but owns
    a fresh, fully re-linked :class:`~repro.wam.code.CodeArea`.
    """
    from ..wam.compile.predicate import compile_predicate

    program = compiled.program
    dead = find_dead_code(program, result)
    dead_by_predicate: Dict[Indicator, Set[int]] = {}
    for indicator, clause_index, _ in dead.dead_clauses:
        dead_by_predicate.setdefault(indicator, set()).add(clause_index)
    facts = determinacy(compiled, result)

    report = OptimizationReport()
    units: List[PredicateCode] = []
    for indicator, predicate in program.predicates.items():
        original = compiled.units[indicator]
        info = result.predicate(indicator)
        record = PredicateOptimization(
            indicator=indicator,
            size_before=_code_size(original.instructions),
            size_after=_code_size(original.instructions),
            deterministic=facts.get(
                indicator,
                DeterminacyInfo(indicator, None, False),
            ).deterministic,
        )
        report.predicates.append(record)
        if info is None or info.status != "exact":
            # Unreachable (for the analyzed entries) or widened facts:
            # leave the code exactly as compiled.
            units.append(original)
            continue

        live_clauses = [
            clause
            for clause_index, clause in enumerate(predicate.clauses)
            if clause_index not in dead_by_predicate.get(indicator, set())
        ]
        record.dead_clauses = len(predicate.clauses) - len(live_clauses)
        if not live_clauses:
            units.append(
                PredicateCode(indicator, [ins.fail_instr()], 0, [])
            )
            record.size_after = 1
            continue

        classes = _argument_classes(info)
        force_index = (
            len(live_clauses) > 1
            and predicate.arity > 0
            and classes.get(1) in ("ground", "nonvar")
        )
        unit = compile_predicate(
            Predicate(indicator, live_clauses),
            compiled.options,
            force_index=force_index,
        )
        record.forced_index = force_index and any(
            base_op(i.op) == "switch_on_term" for i in unit.instructions
        ) and not any(
            base_op(i.op) == "switch_on_term"
            for i in original.instructions
        )

        instructions = list(unit.instructions)
        clause_label_names = {label.name for label in unit.clause_labels}
        _specialize_gets(
            instructions,
            predicate.arity,
            clause_label_names,
            classes,
            _aliased_positions(info),
            record,
        )
        _resolve_unify_modes(instructions, record)
        _trim_environments(instructions, record)
        unit = PredicateCode(
            indicator, instructions, unit.clause_count, unit.clause_labels
        )
        unit = _eliminate_moves(unit, record)
        record.size_after = _code_size(unit.instructions)
        units.append(unit)

    code = CodeArea()
    code.instructions.append(ins.halt_instr())
    code.instructions.append(ins.fail_instr())
    code.instructions.append(ins.proceed())
    optimized = CompiledProgram(
        program=program, code=code, options=compiled.options
    )
    code.link(units)
    for unit in units:
        optimized.units[unit.indicator] = unit
    return OptimizedProgram(
        original=compiled, compiled=optimized, report=report
    )
