"""The Prolog operator table.

Operators have a priority (1..1200) and a type: ``xfx``/``xfy``/``yfx`` for
infix, ``fy``/``fx`` for prefix and ``xf``/``yf`` for postfix.  An ``x``
argument must have strictly lower priority than the operator, a ``y``
argument at most the operator's priority.

:class:`OperatorTable` starts with the standard table and supports
``op/3``-style updates, so programs that declare their own operators parse
correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

MAX_PRIORITY = 1200


@dataclass(frozen=True)
class OpDef:
    """One operator definition: priority and type (e.g. 700, "xfx")."""

    priority: int
    kind: str

    @property
    def is_infix(self) -> bool:
        return self.kind in ("xfx", "xfy", "yfx")

    @property
    def is_prefix(self) -> bool:
        return self.kind in ("fy", "fx")

    @property
    def is_postfix(self) -> bool:
        return self.kind in ("xf", "yf")

    def argument_priorities(self) -> Tuple[int, ...]:
        """Maximum priorities allowed for the operator's arguments."""
        below = self.priority - 1
        at = self.priority
        if self.kind == "xfx":
            return (below, below)
        if self.kind == "xfy":
            return (below, at)
        if self.kind == "yfx":
            return (at, below)
        if self.kind == "fy":
            return (at,)
        if self.kind == "fx":
            return (below,)
        if self.kind == "xf":
            return (below,)
        if self.kind == "yf":
            return (at,)
        raise ValueError(f"bad operator kind {self.kind}")


#: The standard operator table (ISO core plus common DEC-10 extras).
STANDARD_OPERATORS = [
    (1200, "xfx", ":-"),
    (1200, "xfx", "-->"),
    (1200, "fx", ":-"),
    (1200, "fx", "?-"),
    (1100, "xfy", ";"),
    (1050, "xfy", "->"),
    (1000, "xfy", ","),
    (990, "xfx", ":="),
    (900, "fy", "\\+"),
    (700, "xfx", "="),
    (700, "xfx", "\\="),
    (700, "xfx", "=="),
    (700, "xfx", "\\=="),
    (700, "xfx", "@<"),
    (700, "xfx", "@>"),
    (700, "xfx", "@=<"),
    (700, "xfx", "@>="),
    (700, "xfx", "=.."),
    (700, "xfx", "is"),
    (700, "xfx", "=:="),
    (700, "xfx", "=\\="),
    (700, "xfx", "<"),
    (700, "xfx", ">"),
    (700, "xfx", "=<"),
    (700, "xfx", ">="),
    (500, "yfx", "+"),
    (500, "yfx", "-"),
    (500, "yfx", "/\\"),
    (500, "yfx", "\\/"),
    (500, "yfx", "xor"),
    (400, "yfx", "*"),
    (400, "yfx", "/"),
    (400, "yfx", "//"),
    (400, "yfx", "mod"),
    (400, "yfx", "rem"),
    (400, "yfx", "div"),
    (400, "yfx", "<<"),
    (400, "yfx", ">>"),
    (200, "xfx", "**"),
    (200, "xfy", "^"),
    (200, "fy", "-"),
    (200, "fy", "+"),
    (200, "fy", "\\"),
]


class OperatorTable:
    """Mutable operator table; one per reader/program."""

    def __init__(self) -> None:
        self._prefix: Dict[str, OpDef] = dict(_STANDARD._prefix)
        self._infix: Dict[str, OpDef] = dict(_STANDARD._infix)
        self._postfix: Dict[str, OpDef] = dict(_STANDARD._postfix)

    def add(self, priority: int, kind: str, name: str) -> None:
        """Define or redefine an operator, as ``op(Priority, Kind, Name)``."""
        if not 0 <= priority <= MAX_PRIORITY:
            raise ValueError(f"operator priority out of range: {priority}")
        definition = OpDef(priority, kind)
        if definition.is_prefix:
            table = self._prefix
        elif definition.is_infix:
            table = self._infix
        elif definition.is_postfix:
            table = self._postfix
        else:
            raise ValueError(f"bad operator kind {kind!r}")
        if priority == 0:
            table.pop(name, None)
        else:
            table[name] = definition

    def prefix(self, name: str) -> Optional[OpDef]:
        return self._prefix.get(name)

    def infix(self, name: str) -> Optional[OpDef]:
        return self._infix.get(name)

    def postfix(self, name: str) -> Optional[OpDef]:
        return self._postfix.get(name)

    def is_operator(self, name: str) -> bool:
        return (
            name in self._prefix or name in self._infix or name in self._postfix
        )


def _standard_table() -> OperatorTable:
    table = object.__new__(OperatorTable)
    table._prefix, table._infix, table._postfix = {}, {}, {}
    for priority, kind, name in STANDARD_OPERATORS:
        table.add(priority, kind, name)
    return table


#: The standard table; a new :class:`OperatorTable` starts as a copy of it.
_STANDARD = _standard_table()
