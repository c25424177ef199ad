"""Tagged heap cells for the concrete WAM.

A cell is a ``(tag, value)`` tuple:

* ``('ref', a)`` — a variable; unbound iff ``heap[a] == ('ref', a)``;
* ``('con', c)`` — a constant, ``c`` an AST :class:`Atom`/`Int`/`Float`;
* ``('lis', a)`` — a list cell: car at ``heap[a]``, cdr at ``heap[a+1]``;
* ``('str', a)`` — a structure: ``heap[a]`` is the functor cell and the
  arguments follow it;
* ``('fun', (name, arity))`` — a functor cell (only reachable via 'str').

:class:`Heap` bundles the cell store with the value trail shared by the
concrete and abstract machines: every destructive cell update is recorded
as ``(address, old_cell)`` so backtracking can restore any overwrite, not
just variable bindings (the abstract machine *instantiates* non-variable
cells, which an address-only trail could not undo).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import MachineError
from ..prolog.terms import (
    NIL,
    Atom,
    Float,
    Int,
    Struct,
    Term,
    Var,
    is_cons,
)

Cell = Tuple[str, object]

REF = "ref"
CON = "con"
LIS = "lis"
STR = "str"
FUN = "fun"


class Heap:
    """The global term store plus the value trail.

    Besides cells, the heap carries a *sharing component*: a union-find
    over cell addresses recording possible aliasing that the cell
    structure itself cannot express (it arises in the abstract machine
    when summarized information — list element types, success patterns —
    is re-materialized as fresh cells).  Unions are journaled on the same
    trail as cell updates, so backtracking rolls them back.
    """

    def __init__(self) -> None:
        self.cells: List[Cell] = []
        self.trail: List[tuple] = []
        #: Deepest the trail has been when an undo began (the trail
        #: only shrinks there, so this is its peak up to the last undo).
        self.trail_peak = 0
        self.share_parent: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Allocation.

    @property
    def top(self) -> int:
        return len(self.cells)

    def push(self, cell: Cell) -> int:
        """Append a cell; returns its address."""
        self.cells.append(cell)
        return len(self.cells) - 1

    def new_var(self) -> Cell:
        """Allocate an unbound variable; returns its (self-)ref cell."""
        address = len(self.cells)
        cell: Cell = (REF, address)
        self.cells.append(cell)
        return cell

    # ------------------------------------------------------------------
    # Binding and trailing.

    def set_cell(self, address: int, cell: Cell) -> None:
        """Destructively update a cell, recording the old value."""
        self.trail.append((address, self.cells[address]))
        self.cells[address] = cell

    def trail_mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int, heap_mark: Optional[int] = None) -> None:
        """Unwind the trail to ``mark``; optionally truncate the heap."""
        if len(self.trail) > self.trail_peak:
            self.trail_peak = len(self.trail)
        while len(self.trail) > mark:
            entry = self.trail.pop()
            if len(entry) == 3:
                # A sharing-component union: restore the old parent link.
                _, address, old_parent = entry
                if old_parent is None:
                    self.share_parent.pop(address, None)
                else:
                    self.share_parent[address] = old_parent
                continue
            address, old = entry
            if heap_mark is None or address < heap_mark:
                self.cells[address] = old
        if heap_mark is not None:
            del self.cells[heap_mark:]

    # ------------------------------------------------------------------
    # The sharing component (see the class docstring).

    def share_find(self, address: int) -> int:
        """Class representative of an address (no path compression, so
        undoing a union never invalidates other links)."""
        parent = self.share_parent.get(address)
        while parent is not None:
            address = parent
            parent = self.share_parent.get(address)
        return address

    def share_union(self, left: int, right: int) -> None:
        """Merge two sharing classes (journaled for backtracking)."""
        root_left = self.share_find(left)
        root_right = self.share_find(right)
        if root_left == root_right:
            return
        self.trail.append(
            ("share", root_left, self.share_parent.get(root_left))
        )
        self.share_parent[root_left] = root_right

    # ------------------------------------------------------------------
    # Dereferencing.

    def deref(self, cell: Cell) -> Cell:
        """Follow reference chains to the representative cell."""
        while cell[0] == REF:
            target = self.cells[cell[1]]
            if target == cell:
                return cell
            cell = target
        return cell

    def is_unbound(self, cell: Cell) -> bool:
        cell = self.deref(cell)
        return cell[0] == REF

    # ------------------------------------------------------------------
    # Conversion to and from AST terms.

    def decode(self, cell: Cell, names: Optional[Dict[int, Var]] = None) -> Term:
        """Convert a cell (and everything it references) to an AST term."""
        if names is None:
            names = {}
        cell = self.deref(cell)
        tag, value = cell
        if tag == REF:
            variable = names.get(value)  # type: ignore[arg-type]
            if variable is None:
                variable = Var()
                names[value] = variable  # type: ignore[index]
            return variable
        if tag == CON:
            return value  # type: ignore[return-value]
        if tag == LIS:
            address = value
            head = self.decode(self.cells[address], names)
            tail = self.decode(self.cells[address + 1], names)
            return Struct(".", (head, tail))
        if tag == STR:
            functor_cell = self.cells[value]  # type: ignore[index]
            if functor_cell[0] != FUN:
                raise MachineError(f"str cell points at {functor_cell}")
            name, arity = functor_cell[1]  # type: ignore[misc]
            args = [
                self.decode(self.cells[value + 1 + i], names)  # type: ignore[operator]
                for i in range(arity)
            ]
            return Struct(name, tuple(args))
        raise MachineError(f"cannot decode cell {cell}")

    def encode(self, term: Term, variables: Optional[Dict[int, Cell]] = None) -> Cell:
        """Build ``term`` on the heap; returns its cell.

        ``variables`` maps ``id(Var)`` to already-allocated cells so shared
        variables stay shared.
        """
        if variables is None:
            variables = {}
        if isinstance(term, Var):
            existing = variables.get(id(term))
            if existing is None:
                existing = self.new_var()
                variables[id(term)] = existing
            return existing
        if isinstance(term, (Atom, Int, Float)):
            return (CON, term)
        assert isinstance(term, Struct)
        if is_cons(term):
            arg_cells = [
                self.encode(term.args[0], variables),
                self.encode(term.args[1], variables),
            ]
            address = self.top
            self.cells.extend(arg_cells)
            return (LIS, address)
        arg_cells = [self.encode(argument, variables) for argument in term.args]
        functor_address = self.push((FUN, (term.name, term.arity)))
        self.cells.extend(arg_cells)
        return (STR, functor_address)


def cell_type(cell: Cell) -> str:
    """The switch_on_term class of a dereferenced cell:
    'var', 'const', 'list' or 'struct'."""
    tag = cell[0]
    if tag == REF:
        return "var"
    if tag == CON:
        return "const"
    if tag == LIS:
        return "list"
    if tag == STR:
        return "struct"
    raise MachineError(f"unexpected cell {cell}")
