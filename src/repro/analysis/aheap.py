"""Abstract heap cells (paper Section 4.1).

Abstract terms are represented *like variables*: each instance of ``any``,
``g``, ``nv``, ``α-list`` ... is a heap cell tagged ``abs`` that can later
be instantiated — overwritten with a more specific cell — through abstract
unification.  Instantiations go through the value trail of
:class:`repro.wam.cells.Heap`, so backtracking restores them, and aliasing
falls out of the representation: every holder of a reference to the cell
sees the instantiation.

Cell forms added on top of the concrete ones:

* ``('abs', (sort, None))`` — an instance of a simple sort;
* ``('abs', (AbsSort.LIST, elem_tree))`` — an instance of an α-list.

Registers and structure slots never hold a bare ``abs`` cell: they hold a
``('ref', addr)`` to it, so instantiation is visible everywhere.  The
helpers here enforce that invariant.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from ..domain.lattice import (
    EMPTY_T,
    NIL_T,
    Tree,
    tree_is_ground,
)
from ..domain.sorts import AbsSort, sort_is_ground
from ..errors import AnalysisError
from ..prolog.terms import NIL, Atom, Float, Indicator, Int
from ..wam.cells import CON, FUN, LIS, REF, STR, Cell, Heap

#: Tag of abstract cells.
ABS = "abs"

AbsVal = Tuple[AbsSort, Optional[Tree]]


def make_abs(heap: Heap, sort: AbsSort, elem: Optional[Tree] = None) -> Cell:
    """Allocate an abstract cell; returns a ``ref`` to it."""
    if sort == AbsSort.LIST and elem is None:
        raise AnalysisError("list abstract cell needs an element tree")
    address = heap.push((ABS, (sort, elem)))
    return (REF, address)


def deref(heap: Heap, cell: Cell) -> Tuple[Cell, Optional[int]]:
    """Follow reference chains; returns (cell, address-of-cell-or-None).

    For an unbound variable the address is the variable's own; for a bound
    chain it is the address holding the final non-ref cell, so abstract
    cells can be instantiated in place.  Constants and structure pointers
    reached without any ref hop have no address (they are immutable).
    """
    address: Optional[int] = None
    while cell[0] == REF:
        target_address = cell[1]
        target = heap.cells[target_address]  # type: ignore[index]
        if target == cell:
            return cell, target_address  # type: ignore[return-value]
        address = target_address  # type: ignore[assignment]
        cell = target
    return cell, address


def slot_cell(heap: Heap, address: int) -> Cell:
    """The cell stored at ``address``, by reference when it is an
    abstract cell, so instantiating it is seen by every holder."""
    cell = heap.cells[address]
    if cell[0] == ABS:
        return (REF, address)
    return cell


def functor_of(heap: Heap, cell: Cell) -> Indicator:
    """The principal functor of a list cell or structure."""
    if cell[0] == LIS:
        return (".", 2)
    assert cell[0] == STR
    return heap.cells[cell[1]][1]  # type: ignore[index]


def struct_args(heap: Heap, cell: Cell) -> List[Cell]:
    """The argument cells of a list cell or structure (see
    :func:`slot_cell`)."""
    address = cell[1]
    if cell[0] == LIS:
        return [slot_cell(heap, address), slot_cell(heap, address + 1)]  # type: ignore[operator]
    arity = heap.cells[address][1][1]  # type: ignore[index]
    return [slot_cell(heap, address + 1 + i) for i in range(arity)]  # type: ignore[operator]


def abs_tree(value: AbsVal) -> Tree:
    """The type tree of an abstract cell's value."""
    sort, elem = value
    if sort == AbsSort.LIST:
        assert elem is not None
        return ("l", elem)
    return ("s", sort)


def materialize(heap: Heap, tree: Tree) -> Cell:
    """Build a fresh term shaped like ``tree`` on the heap.

    Instantiable leaves become fresh cells; structure skeletons become
    real ``lis``/``str`` cells whose argument positions hold the
    materialized children.
    """
    kind = tree[0]
    if kind == "s":
        sort = tree[1]
        if sort == AbsSort.VAR:
            return heap.new_var()
        if sort == AbsSort.EMPTY:
            raise AnalysisError("cannot materialize the empty type")
        return make_abs(heap, sort)
    if kind == "l":
        if tree[1] == EMPTY_T:
            return (CON, NIL)
        return make_abs(heap, AbsSort.LIST, tree[1])
    name, arity, args = tree[1], tree[2], tree[3]
    child_cells = [materialize(heap, argument) for argument in args]
    if name == "." and arity == 2:
        address = heap.top
        heap.cells.extend(child_cells)
        return (LIS, address)
    functor_address = heap.push((FUN, (name, arity)))
    heap.cells.extend(child_cells)
    return (STR, functor_address)


def constant_tree(constant) -> Tree:
    """The type tree a constant belongs to (``[]`` is the nil list)."""
    if constant == NIL:
        return NIL_T
    if isinstance(constant, Atom):
        return ("s", AbsSort.ATOM)
    if isinstance(constant, Int):
        return ("s", AbsSort.INTEGER)
    if isinstance(constant, Float):
        return ("s", AbsSort.CONST)
    raise AnalysisError(f"not a constant: {constant!r}")


def cell_summary(
    heap: Heap, cell: Cell, _visiting: FrozenSet[int] = frozenset()
) -> AbsSort:
    """The most precise simple sort containing the term rooted at ``cell``.

    Used by the depth restriction to summarize deep subterms, and by the
    abstract builtins for type tests.  Cyclic heap terms (created by
    occurs-check-free unification) summarize to ``nv``: ``_visiting``
    holds the locations of the enclosing compounds, so the walk stops
    where a compound meets itself, also through a slot that holds it
    directly.
    """
    cell, _ = deref(heap, cell)
    tag = cell[0]
    if tag in (LIS, STR):
        if cell[1] in _visiting:
            return AbsSort.NV
        _visiting = _visiting | {cell[1]}  # type: ignore[operator]
    if tag == REF:
        return AbsSort.VAR
    if tag == ABS:
        sort, elem = cell[1]  # type: ignore[misc]
        if sort == AbsSort.LIST:
            assert elem is not None
            return AbsSort.GROUND if tree_is_ground(elem) else AbsSort.NV
        return sort
    if tag == CON:
        constant = cell[1]
        if constant == NIL:
            return AbsSort.ATOM
        if isinstance(constant, Atom):
            return AbsSort.ATOM
        if isinstance(constant, Int):
            return AbsSort.INTEGER
        return AbsSort.CONST
    if tag == LIS:
        address = cell[1]
        parts = [
            cell_summary(heap, heap.cells[address], _visiting),  # type: ignore[index]
            cell_summary(heap, heap.cells[address + 1], _visiting),  # type: ignore[index]
        ]
        return _compound_summary(parts)
    if tag == STR:
        functor_address = cell[1]
        arity = heap.cells[functor_address][1][1]  # type: ignore[index]
        parts = [
            cell_summary(heap, heap.cells[functor_address + 1 + i], _visiting)  # type: ignore[index]
            for i in range(arity)
        ]
        return _compound_summary(parts)
    raise AnalysisError(f"cannot summarize cell {cell}")


def _compound_summary(part_sorts) -> AbsSort:
    if all(sort_is_ground(sort) for sort in part_sorts):
        return AbsSort.GROUND
    return AbsSort.NV
