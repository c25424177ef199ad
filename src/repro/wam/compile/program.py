"""Whole-program compilation and query compilation.

:func:`compile_program` compiles every predicate of a
:class:`~repro.prolog.program.Program` (after control-construct
normalization) and links the result into one
:class:`~repro.wam.code.CodeArea`.  The code area starts with two fixed
service instructions: address 0 holds ``halt`` (the initial continuation —
a ``proceed`` at the top level lands here and reports success), address
1 holds ``fail`` (the target of empty indexing buckets) and address 2 holds
a service ``proceed`` used by the abstract machine as the continuation of
``execute``.

Queries are compiled on demand as one-off predicates ``$query_<n>/K``
whose arguments are the query's distinct variables; the machine preloads
fresh heap variables into the argument registers and reads the answers
back from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...errors import CompileError
from ...prolog.program import Clause, Predicate, Program, flatten_conjunction, normalize_program
from ...prolog.terms import (
    Atom,
    Indicator,
    Struct,
    Term,
    Var,
    term_vars,
)
from .. import instructions as ins
from ..code import CodeArea, PredicateCode
from .clause import CompilerOptions
from .predicate import compile_predicate

#: Fixed service addresses in every code area.
HALT_ADDRESS = 0
FAIL_ADDRESS = 1
#: A lone ``proceed``: the abstract machine's continuation for ``execute``
#: (which the paper reverts to ``call`` + ``proceed``).
PROCEED_ADDRESS = 2


@dataclass
class CompiledProgram:
    """A linked program: code area, entry table, and source association."""

    program: Program
    code: CodeArea
    options: CompilerOptions
    units: Dict[Indicator, PredicateCode] = field(default_factory=dict)
    _query_counter: "itertools.count" = field(default_factory=lambda: itertools.count(1))

    def clause_entries(self, indicator: Indicator) -> List[int]:
        """Clause body entry addresses, for direct clause enumeration."""
        return self.code.clause_entries.get(indicator, [])

    def size_of(self, indicator: Indicator) -> int:
        return self.code.size_of(indicator)

    def total_size(self) -> int:
        """Static code size excluding the service instructions."""
        return len(self.code) - 3

    def compile_query(self, goal: Term) -> Tuple[Indicator, List[Var]]:
        """Compile ``goal`` as a fresh ``$query_<n>/K`` predicate.

        Returns the new predicate's indicator and the list of distinct
        named variables (in first-occurrence order) that became its
        arguments.
        """
        variables = [
            v for v in term_vars(goal) if v.name and v.name != "_"
        ]
        name = f"$query_{next(self._query_counter)}"
        if variables:
            head: Term = Struct(name, tuple(variables))
        else:
            head = Atom(name)
        clause = Clause(head, flatten_conjunction(goal))
        predicate = Predicate((name, len(variables)), [clause])
        unit = compile_predicate(predicate, self.options)
        self.code.link([unit])
        self.units[unit.indicator] = unit
        return unit.indicator, variables


def compile_program(
    program: Program,
    options: Optional[CompilerOptions] = None,
    reuse: Optional[Dict[Indicator, PredicateCode]] = None,
) -> CompiledProgram:
    """Compile and link every predicate of ``program``, after rewriting
    ``;``, ``->`` and ``\\+`` (:func:`normalize_program`).

    ``reuse`` holds unlinked code compiled earlier, with the same
    ``options``, for predicates whose normalized clauses are unchanged
    (up to variable renaming); those are linked without compiling them
    again.  Linking never changes a unit, so units may be shared."""
    if options is None:
        options = CompilerOptions()
    program = normalize_program(program)
    code = CodeArea()
    code.instructions.append(ins.halt_instr())
    code.instructions.append(ins.fail_instr())
    code.instructions.append(ins.proceed())
    from ..builtins import MACHINE_BUILTIN_INDICATORS

    compiled = CompiledProgram(program=program, code=code, options=options)
    units = []
    for predicate in program.predicates.values():
        if predicate.indicator in MACHINE_BUILTIN_INDICATORS:
            raise CompileError(
                f"cannot redefine builtin {predicate.indicator[0]}/"
                f"{predicate.indicator[1]}"
            )
        unit = reuse.get(predicate.indicator) if reuse else None
        units.append(
            unit if unit is not None else compile_predicate(predicate, options)
        )
    code.link(units)
    for unit in units:
        compiled.units[unit.indicator] = unit
    return compiled
