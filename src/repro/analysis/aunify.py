"""Abstract (set) unification over heap cells — ``s_unify`` of Section 4.

The operational rules, mirroring the paper's primitives:

* *primary approximation* (``AbsType``) is the cell tag plus, for abstract
  cells, the stored sort;
* *approximate unifiability* is checked by :func:`~repro.domain.lattice.tree_unify`
  on the shallow types;
* *complex-term instantiation* materializes the subterm cells an abstract
  instance must grow when it meets a list or structure skeleton, per the
  table in :func:`complex_term_inst`.

Instantiations are destructive cell updates through the value trail;
aliasing between instances is represented by rebinding both cells to a
shared fresh cell, so later refinements are seen by every holder.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..domain.lattice import (
    ANY_T,
    GROUND_T,
    Tree,
    tree_is_empty,
    tree_is_ground,
    tree_unify,
)
from ..domain.sorts import AbsSort
from ..errors import AnalysisError
from ..prolog.terms import NIL, Indicator
from ..wam.cells import CON, FUN, LIS, REF, STR, Cell, Heap
from .aheap import (
    ABS,
    abs_tree,
    constant_tree,
    functor_of,
    make_abs,
    materialize,
    struct_args,
)
from .patterns import collect_share_points


def complex_term_inst(
    heap: Heap, sort: AbsSort, elem: Optional[Tree], functor: Indicator
) -> Optional[Cell]:
    """Materialize the instance an abstract term grows when it meets a
    ``functor`` skeleton; returns the complete ``lis``/``str`` cell.

    The component types follow the set semantics: an instance of ``ground``
    only has ground arguments, ``any``/``nv`` instances have ``any``
    arguments, and a ``list(α)`` instance growing a cons cell has an ``α``
    car and a ``list(α)`` cdr.  Returns None when the sort cannot contain a
    ``functor`` term at all.
    """
    name, arity = functor
    if sort == AbsSort.LIST:
        if name != "." or arity != 2:
            return None
        assert elem is not None
        if tree_is_empty(elem):
            # list(empty) is exactly []; it cannot grow a cons cell.
            return None
        car = materialize(heap, elem)
        cdr = make_abs(heap, AbsSort.LIST, elem)
        address = heap.top
        heap.push(car)
        heap.push(cdr)
        return (LIS, address)
    if sort in (AbsSort.ANY, AbsSort.NV):
        component: Tree = ANY_T
    elif sort == AbsSort.GROUND:
        component = GROUND_T
    else:
        return None
    components = [materialize(heap, component) for _ in range(arity)]
    if name == "." and arity == 2:
        address = heap.top
        heap.cells.extend(components)
        return (LIS, address)
    functor_address = heap.push((FUN, functor))
    heap.cells.extend(components)
    return (STR, functor_address)


def s_unify(heap: Heap, left: Cell, right: Cell) -> bool:
    """Abstract unification; instantiates cells, False on sure failure.

    On failure, partially made bindings remain on the trail; the caller is
    expected to unwind to its own mark (exactly as the machine does on
    backtracking).
    """
    stack: List[Tuple[Cell, Cell]] = [(left, right)]
    cells = heap.cells
    while stack:
        a, b = stack.pop()
        # Inlined deref (this is the hottest loop of the analysis).
        addr_a = None
        while a[0] == REF:
            target_address = a[1]
            target = cells[target_address]
            if target == a:
                addr_a = target_address
                break
            addr_a = target_address
            a = target
        addr_b = None
        while b[0] == REF:
            target_address = b[1]
            target = cells[target_address]
            if target == b:
                addr_b = target_address
                break
            addr_b = target_address
            b = target
        if addr_a is not None and addr_a == addr_b:
            continue
        tag_a, tag_b = a[0], b[0]
        # Free (concrete) variables absorb the other side.
        if tag_a == REF and tag_b == REF:
            if addr_a < addr_b:  # type: ignore[operator]
                heap.set_cell(addr_b, (REF, addr_a))  # type: ignore[arg-type]
            else:
                heap.set_cell(addr_a, (REF, addr_b))  # type: ignore[arg-type]
            continue
        if tag_a == REF:
            heap.set_cell(addr_a, _reference_to(b, addr_b))  # type: ignore[arg-type]
            continue
        if tag_b == REF:
            heap.set_cell(addr_b, _reference_to(a, addr_a))  # type: ignore[arg-type]
            continue
        if tag_a == ABS and tag_b == ABS:
            if not _unify_abs_abs(heap, a, addr_a, b, addr_b):
                return False
            continue
        if tag_a == ABS or tag_b == ABS:
            abs_cell, abs_addr, other, other_addr = (
                (a, addr_a, b, addr_b) if tag_a == ABS else (b, addr_b, a, addr_a)
            )
            if not _unify_abs_concrete(heap, abs_cell, abs_addr, other, stack):
                return False
            continue
        # Both concrete-shaped.
        if tag_a == CON and tag_b == CON:
            if a[1] != b[1]:
                return False
            continue
        if tag_a in (LIS, STR) and tag_b in (LIS, STR):
            if functor_of(heap, a) != functor_of(heap, b):
                return False
            stack.extend(zip(struct_args(heap, a), struct_args(heap, b)))
            continue
        return False
    return True


def _reference_to(cell: Cell, address: Optional[int]) -> Cell:
    """The cell to store when binding a variable to ``cell``.

    Abstract cells must be referenced by address (so instantiation is
    shared); immutable cells can be copied.
    """
    if cell[0] == ABS:
        assert address is not None, "abs cell reached without an address"
        return (REF, address)
    return cell


def _unify_abs_abs(
    heap: Heap, a: Cell, addr_a: Optional[int], b: Cell, addr_b: Optional[int]
) -> bool:
    """Unify two abstract instances: glb-with-absorption plus aliasing."""
    assert addr_a is not None and addr_b is not None
    combined = tree_unify(abs_tree(a[1]), abs_tree(b[1]))  # type: ignore[arg-type]
    if combined is None:
        return False
    if combined[0] == "s":
        value = (combined[1], None)
    elif combined[0] == "l":
        if combined[1][0] == "s" and combined[1][1] == AbsSort.EMPTY:
            # list(empty) is exactly [].
            heap.set_cell(addr_a, (CON, NIL))
            heap.set_cell(addr_b, (REF, addr_a))
            return True
        value = (AbsSort.LIST, combined[1])
    else:  # pragma: no cover - sort/list unify never yields a struct
        raise AnalysisError(f"unexpected unify result {combined}")
    shared = heap.push((ABS, value))
    heap.set_cell(addr_a, (REF, shared))
    heap.set_cell(addr_b, (REF, shared))
    # Preserve sharing-class continuity across the rebinding.
    heap.share_union(addr_a, shared)
    heap.share_union(addr_b, shared)
    return True


def _unify_abs_concrete(
    heap: Heap,
    abs_cell: Cell,
    abs_addr: Optional[int],
    other: Cell,
    stack: List[Tuple[Cell, Cell]],
) -> bool:
    """Unify an abstract instance with a constant, list or structure."""
    assert abs_addr is not None
    sort, elem = abs_cell[1]  # type: ignore[misc]
    if other[0] == CON:
        if tree_unify(abs_tree((sort, elem)), constant_tree(other[1])) is None:
            return False
        # The result set is the singleton constant: instantiate precisely.
        heap.set_cell(abs_addr, other)
        return True
    functor = functor_of(heap, other)
    new_cell = complex_term_inst(heap, sort, elem, functor)
    if new_cell is None:
        return False
    heap.set_cell(abs_addr, new_cell)
    if _growth_can_share(sort, elem):
        register_growth_sharing(heap, abs_addr, new_cell)
    stack.extend(zip(struct_args(heap, new_cell), struct_args(heap, other)))
    return True


def _growth_can_share(sort: AbsSort, elem) -> bool:
    """Can components grown from this instance ever be non-ground?"""
    if sort in (AbsSort.ANY, AbsSort.NV):
        return True
    if sort == AbsSort.LIST:
        return not tree_is_ground(elem)
    return False  # ground growths have no bindable components


def register_growth_sharing(heap: Heap, source_address: int, instance: Cell) -> None:
    """Record that components grown from a summarized instance may alias.

    When an abstract instance at ``source_address`` grows a skeleton, the
    fresh component cells stand for subterms the summary had collapsed:
    different growths of the same instance (successive list elements, or
    the copies materialized at different call sites of one success
    pattern) may alias each other at run time.  Putting every non-ground
    component into the source's sharing class makes that possibility
    visible to :func:`repro.analysis.patterns.cell_share_pairs`.
    """
    points: set = set()
    for slot in struct_args(heap, instance):
        collect_share_points(heap, slot, points)
    for point in points:
        heap.share_union(point, source_address)
