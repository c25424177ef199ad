"""Instruction-level execution tracing for the WAMs.

Attach a :class:`Tracer` to a machine (``machine.tracer = Tracer()``) and
every dispatched instruction is recorded; the abstract machine
additionally reports extension-table events (calling-pattern computation,
memo hits, ``updateET``, the ``lookupET`` return), which yields annotated
traces in the style of the paper's Figure 3.

Tracing is off by default and costs one attribute check per instruction
when enabled elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .instructions import Instr
from .listing import format_instruction


@dataclass
class TraceLine:
    """One trace record: an instruction or an annotated event."""

    kind: str  # 'instr' or 'event'
    address: int
    text: str

    def render(self) -> str:
        if self.kind == "event":
            return f"        %% {self.text}"
        return f"{self.address:5d}  {self.text}"


@dataclass
class Tracer:
    """Collects execution records up to a limit."""

    limit: int = 10_000
    lines: List[TraceLine] = field(default_factory=list)
    truncated: bool = False

    def record(self, machine, instruction: Instr) -> None:
        if len(self.lines) >= self.limit:
            self.truncated = True
            return
        arity = machine.num_args
        self.lines.append(
            TraceLine(
                "instr",
                machine.pc,
                format_instruction(instruction, arity=arity),
            )
        )

    def event(self, text: str) -> None:
        if len(self.lines) >= self.limit:
            self.truncated = True
            return
        self.lines.append(TraceLine("event", -1, text))

    def to_text(self) -> str:
        rendered = [line.render() for line in self.lines]
        if self.truncated:
            rendered.append("        %% ... trace truncated ...")
        return "\n".join(rendered)

    def instruction_count(self) -> int:
        return sum(1 for line in self.lines if line.kind == "instr")
