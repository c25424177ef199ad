"""The code area: linked WAM code with a predicate entry table.

The compiler emits per-predicate instruction sequences containing symbolic
:class:`~repro.wam.instructions.Label` operands and ``label`` pseudo
instructions.  :class:`CodeArea` concatenates them, assigns absolute
addresses, resolves labels (including the targets inside switch tables) and
records each predicate's entry address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CompileError
from ..prolog.terms import Indicator, format_indicator
from .instructions import INDEXING_OPS, Instr, Label


@dataclass
class PredicateCode:
    """Unlinked code for one predicate."""

    indicator: Indicator
    instructions: List[Instr]
    clause_count: int
    #: Entry addresses of each clause, as labels (for the abstract machine,
    #: which enumerates clauses directly instead of using indexing code).
    clause_labels: List[Label] = field(default_factory=list)


class CodeArea:
    """Linked code for a whole program."""

    def __init__(self) -> None:
        self.instructions: List[Instr] = []
        self.entry: Dict[Indicator, int] = {}
        #: Per-predicate clause entry addresses (same order as source).
        self.clause_entries: Dict[Indicator, List[int]] = {}
        #: Reverse map address -> predicate owning that code (for listings).
        self.owners: Dict[int, Indicator] = {}

    # ------------------------------------------------------------------

    def link(self, units: List[PredicateCode]) -> None:
        """Concatenate, resolve labels, and build the entry table.

        Only :data:`~repro.wam.instructions.INDEXING_OPS` carry
        :class:`Label` operands, so only those are rebuilt with
        addresses; every other instruction is placed as the compiler
        emitted it (instructions are immutable, so the code area and
        the units share them).
        """
        addresses: Dict[Tuple[Indicator, str], int] = {}
        placed: List[Instr] = []
        labelled: List[Tuple[int, Indicator]] = []
        position = len(self.instructions)
        for unit in units:
            if unit.indicator in self.entry:
                raise CompileError(
                    f"duplicate code for {format_indicator(unit.indicator)}"
                )
            self.entry[unit.indicator] = position
            self.owners[position] = unit.indicator
            for instruction in unit.instructions:
                if instruction.op == "label":
                    label = instruction.args[0]
                    assert isinstance(label, Label)
                    key = (unit.indicator, label.name)
                    if key in addresses:
                        raise CompileError(f"duplicate label {label.name}")
                    addresses[key] = position
                else:
                    if instruction.op in INDEXING_OPS:
                        labelled.append((len(placed), unit.indicator))
                    placed.append(instruction)
                    position += 1
        for index, indicator in labelled:
            placed[index] = self._resolve(indicator, placed[index], addresses)
        self.instructions.extend(placed)
        for unit in units:
            self.clause_entries[unit.indicator] = [
                addresses[(unit.indicator, label.name)]
                for label in unit.clause_labels
            ]

    def _resolve(
        self,
        indicator: Indicator,
        instruction: Instr,
        addresses: Dict[Tuple[Indicator, str], int],
    ) -> Instr:
        def fix(value: object) -> object:
            if isinstance(value, Label):
                key = (indicator, value.name)
                if key not in addresses:
                    raise CompileError(
                        f"undefined label {value.name} in "
                        f"{format_indicator(indicator)}"
                    )
                return addresses[key]
            if isinstance(value, tuple):
                return tuple(fix(item) for item in value)
            return value

        if not instruction.args:
            return instruction
        return Instr(instruction.op, tuple(fix(arg) for arg in instruction.args))

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def at(self, address: int) -> Instr:
        return self.instructions[address]

    def predicate_at(self, address: int) -> Optional[Indicator]:
        """The predicate whose code region contains ``address``."""
        best: Optional[Indicator] = None
        best_entry = -1
        for entry, indicator in self.owners.items():
            if best_entry < entry <= address:
                best_entry = entry
                best = indicator
        return best

    def size_of(self, indicator: Indicator) -> int:
        """Static code size (instruction count) of one predicate."""
        entries = sorted(self.owners.keys())
        start = self.entry[indicator]
        following = [e for e in entries if e > start]
        end = following[0] if following else len(self.instructions)
        return end - start
