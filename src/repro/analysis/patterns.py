"""Calling and success patterns (paper Sections 2.2, 5, 6).

A *pattern* is the canonical abstraction of an argument tuple: for each
argument, a node tree whose leaves carry *instance numbers* — two leaves
with the same number denote the same abstract instance (aliasing), exactly
like the subscripts in the paper (``p(atom, glist₁)``).  Patterns are
hashable and serve as extension-table keys.

Node forms (nested tuples):

* ``('i', sort, n)`` — an instance of a simple sort (``var`` included);
* ``('li', elem_tree, n)`` — an instance of an α-list;
* ``('f', name, arity, (nodes...))`` — a structure skeleton.

The abstraction function applies the term-depth restriction: subterms at
depth ≥ k are summarized to their most precise simple sort; proper list
spines cost a single level, with elements abstracted one level deeper
(that is how 30-element ground lists become ``glist``).

Must-aliasing is preserved when it is certain (two argument positions
dereference into the same heap cell); list-element sharing is summarized
away, which is the sound direction for an over-approximating analysis.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..domain.concrete import DEFAULT_DEPTH
from ..domain.lattice import (
    ANY_T,
    EMPTY_T,
    GROUND_SORTS,
    VAR_T,
    Tree,
    tree_is_ground,
    tree_leq,
    tree_lub,
    tree_summary_sort,
    tree_to_text,
)
from ..domain.sorts import AbsSort
from ..errors import AnalysisError
from ..prolog.terms import NIL, Atom, Int
from ..wam.cells import CON, FUN, LIS, REF, STR, Cell, Heap
from .aheap import (
    ABS,
    cell_summary,
    deref,
    functor_of,
    make_abs,
    slot_cell,
    struct_args,
)

Node = tuple


class Pattern:
    """A canonical abstract argument tuple (immutable; hash and share
    pairs cached)."""

    __slots__ = ("args", "_hash", "_share_pairs")

    def __init__(self, args: Tuple[Node, ...]):
        self.args = args
        self._hash = hash(args)
        self._share_pairs: Optional[FrozenSet[Tuple[int, int]]] = None

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Pattern)
            and other._hash == self._hash
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Pattern({self.args!r})"

    def __str__(self) -> str:
        return pattern_to_text(self)

    @property
    def arity(self) -> int:
        return len(self.args)


# ----------------------------------------------------------------------
# Tree abstraction of a heap term (no sharing info).

def tree_of_cell(heap: Heap, cell: Cell, depth: int = DEFAULT_DEPTH) -> Tree:
    """The type tree of the term rooted at ``cell``, depth-restricted."""
    return _Abstractor(heap, depth).tree(cell, depth)


def _constant_leaf_tree(constant) -> Tree:
    if constant == NIL:
        return ("l", EMPTY_T)
    if isinstance(constant, Atom):
        return ("s", AbsSort.ATOM)
    if isinstance(constant, Int):
        return ("s", AbsSort.INTEGER)
    return ("s", AbsSort.CONST)


def _walk_spine(heap: Heap, cell: Cell):
    """Walk a list spine: (is_proper, element_cells, tail_elem_tree)."""
    elements: List[Cell] = []
    seen: Set[int] = set()
    current = cell
    while True:
        if current[0] == LIS:
            address = current[1]
            if address in seen:
                return False, elements, None  # cyclic spine
            seen.add(address)  # type: ignore[arg-type]
            elements.append(slot_cell(heap, address))  # type: ignore[arg-type]
            current, _ = deref(heap, slot_cell(heap, address + 1))  # type: ignore[arg-type]
            continue
        if current == (CON, NIL):
            return True, elements, None
        if current[0] == ABS and current[1][0] == AbsSort.LIST:  # type: ignore[index]
            return True, elements, current[1][1]  # type: ignore[index]
        return False, elements, None


def clip_tree(tree: Tree, depth: int) -> Tree:
    """Depth-restrict an arbitrary type tree.

    ``('l', empty)`` (the nil list) is a constant leaf and costs no depth,
    keeping clipping consistent with :func:`tree_of_cell`, which never
    summarizes constants.
    """
    if tree[0] == "s":
        return tree
    if tree[0] == "l" and tree[1] == EMPTY_T:
        return tree
    if depth <= 0:
        return ("s", tree_summary_sort(tree))
    if tree[0] == "l":
        return ("l", clip_tree(tree[1], depth - 1))
    return (
        "f",
        tree[1],
        tree[2],
        tuple(clip_tree(arg, depth - 1) for arg in tree[3]),
    )


# ----------------------------------------------------------------------
# Pattern abstraction (with sharing).

def _survey_hidden_aliases(heap: Heap, cells) -> Set[int]:
    """Free variables whose aliasing a pattern cannot represent.

    List spines are summarized to an element *type* with no instance ids,
    so a variable cell that occurs inside a summarized spine AND is
    reachable a second time (inside or outside the spine) has a hidden
    alias: the pattern must widen it from ``var`` to ``any``, because a
    binding through the lost alias could instantiate it.  (Non-var
    abstract sorts are closed under instantiation and need no widening.)
    """
    counts: Dict[int, int] = {}
    in_spine: Set[int] = set()
    visited: Set[Tuple[int, bool]] = set()

    def walk(cell: Cell, inside: bool, path: FrozenSet[int]) -> None:
        cell, address = deref(heap, cell)
        if address is not None:
            counts[address] = counts.get(address, 0) + 1
            if cell[0] == REF and inside:
                in_spine.add(address)
            if (address, inside) in visited and counts[address] >= 2:
                return
            visited.add((address, inside))
        # ``path`` holds the locations of the enclosing compounds, so a
        # cyclic term stops where it meets itself, also through a slot
        # that holds the compound directly and so has no address.
        if cell[0] in (LIS, STR) and cell[1] not in path:
            _walk_compound(cell, inside, path | {cell[1]})

    def _walk_compound(cell: Cell, inside: bool, path: FrozenSet[int]) -> None:
        if cell[0] == LIS:
            proper, elements, _ = _walk_spine(heap, cell)
            if proper:
                for element in elements:
                    walk(element, True, path)
                return
        for child in struct_args(heap, cell):
            walk(child, inside, path)

    for cell in cells:
        walk(cell, False, frozenset())
    return {
        address
        for address in in_spine
        if counts.get(address, 0) >= 2
    }


class _Abstractor:
    """One abstraction walk over a tuple of heap terms.

    It numbers instance ids canonically as it builds the nodes, in the
    same depth-first order :func:`canonicalize` renumbers them: a ground
    leaf (and a cell with no address) takes a fresh id, and any other
    leaf the id of its heap address, first occurrence first.  Ground
    leaves never share an id, because a ground term cannot be further
    instantiated, so aliasing between ground positions constrains
    nothing.

    ``widen`` holds variable addresses with hidden aliases (see
    :func:`_survey_hidden_aliases`): they abstract to ``any``.
    ``met_var`` records whether the walk abstracted a free variable,
    the only kind of cell ``widen`` can change.
    """

    def __init__(
        self,
        heap: Heap,
        depth: int,
        widen: FrozenSet[int] = frozenset(),
        list_aware: bool = True,
    ):
        self.heap = heap
        self.depth = depth
        self.widen = widen
        self.list_aware = list_aware
        self.ids: Dict[int, int] = {}
        self.next_id = 0
        self.met_var = False
        #: Addresses of the compound cells enclosing the current one: a
        #: cell met again inside itself is a cyclic term.
        self.path: Set[int] = set()

    def pattern(self, cells) -> Pattern:
        depth = self.depth
        return Pattern(tuple(self.node(cell, depth) for cell in cells))

    def _leaf(self, kind: str, value, address: Optional[int]) -> Node:
        if address is None or leaf_is_ground(kind, value):
            ident = self.next_id
            self.next_id += 1
        else:
            ident = self.ids.get(address)
            if ident is None:
                ident = self.ids[address] = self.next_id
                self.next_id += 1
        return (kind, value, ident)

    def node(self, cell: Cell, depth: int) -> Node:
        heap = self.heap
        cell, address = deref(heap, cell)
        if address is not None and address in self.path:
            return self._leaf("i", AbsSort.ANY, None)  # cyclic term
        tag = cell[0]
        if tag == REF:
            self.met_var = True
            sort = AbsSort.ANY if address in self.widen else AbsSort.VAR
            return self._leaf("i", sort, address)
        if tag == ABS:
            sort, elem = cell[1]  # type: ignore[misc]
            if sort == AbsSort.LIST:
                assert elem is not None
                return self._leaf("li", clip_tree(elem, depth - 1), address)
            return self._leaf("i", sort, address)
        if tag == CON:
            if not self.list_aware and cell[1] == NIL:
                # Without list awareness [] is just an atom.
                return self._leaf("i", AbsSort.ATOM, address)
            leaf = _constant_leaf_tree(cell[1])
            return self._leaf(
                "li" if leaf[0] == "l" else "i", leaf[1], address
            )
        if depth <= 0:
            return self._leaf("i", cell_summary(heap, cell), address)
        if address is not None:
            self.path.add(address)
        elem = self._spine_tree(cell, depth) if self.list_aware else None
        if elem is not None:
            node = self._leaf("li", elem, address)
        else:
            name, arity = functor_of(heap, cell)
            children = struct_args(heap, cell)
            node = ("f", name, arity, tuple(
                self.node(child, depth - 1) for child in children
            ))
        self.path.discard(address)  # type: ignore[arg-type]
        return node

    def _spine_tree(self, cell: Cell, depth: int) -> Optional[Tree]:
        """The element tree of a proper list (None for any other term):
        the lub of its elements' trees and of a summarized tail's."""
        if cell[0] != LIS:
            return None
        proper, elements, tail_elem = _walk_spine(self.heap, cell)
        if not proper:
            return None
        elem = tail_elem if tail_elem is not None else EMPTY_T
        for element in elements:
            elem = tree_lub(elem, self.tree(element, depth - 1))
        return elem

    def tree(self, cell: Cell, depth: int) -> Tree:
        """The type tree of a term (no instance ids): how list elements
        are abstracted, and :func:`tree_of_cell`."""
        heap = self.heap
        cell, address = deref(heap, cell)
        if address is not None and address in self.path:
            return ANY_T  # cyclic term: give up precisely but soundly
        tag = cell[0]
        if tag == REF:
            self.met_var = True
            return ANY_T if address in self.widen else VAR_T
        if tag == ABS:
            sort, elem = cell[1]  # type: ignore[misc]
            if sort == AbsSort.LIST:
                assert elem is not None
                return ("l", clip_tree(elem, depth - 1))
            return ("s", sort)
        if tag == CON:
            return _constant_leaf_tree(cell[1])
        if depth <= 0:
            return ("s", cell_summary(heap, cell))
        if address is not None:
            self.path.add(address)
        elem = self._spine_tree(cell, depth)
        if elem is not None:
            tree = ("l", elem)
        else:
            name, arity = functor_of(heap, cell)
            children = struct_args(heap, cell)
            tree = ("f", name, arity, tuple(
                self.tree(child, depth - 1) for child in children
            ))
        self.path.discard(address)  # type: ignore[arg-type]
        return tree


def abstract_cells(
    heap: Heap,
    cells: List[Cell],
    depth: int = DEFAULT_DEPTH,
    list_aware: bool = True,
) -> Pattern:
    """Abstract an argument tuple into a canonical pattern.

    One walk builds the nodes and numbers them canonically.  Only when
    it abstracted a free variable does the hidden-alias survey run, and
    only when the survey widens something does the walk run again.

    With ``list_aware=False`` (the ablation of the paper's α-list type),
    proper lists are kept as depth-limited cons structures and ``[]`` is a
    plain atom — the precision the paper calls "usually very useful" goes
    away, measurably.
    """
    walk = _Abstractor(heap, depth, list_aware=list_aware)
    pattern = walk.pattern(cells)
    if walk.met_var and list_aware:
        widen = _survey_hidden_aliases(heap, cells)
        if widen:
            pattern = _Abstractor(heap, depth, widen, list_aware).pattern(cells)
    return pattern


# ----------------------------------------------------------------------
# Materialization: pattern -> fresh heap cells.

def materialize_pattern(heap: Heap, pattern: Pattern) -> List[Cell]:
    """Build fresh cells shaped like ``pattern``, honoring shared ids."""
    memo: Dict[int, Cell] = {}

    def build(node: Node) -> Cell:
        kind = node[0]
        if kind == "i":
            sort, ident = node[1], node[2]
            cached = memo.get(ident)
            if cached is None:
                if sort == AbsSort.VAR:
                    cached = heap.new_var()
                elif sort == AbsSort.EMPTY:
                    raise AnalysisError("cannot materialize empty instance")
                else:
                    cached = make_abs(heap, sort)
                memo[ident] = cached
            return cached
        if kind == "li":
            elem, ident = node[1], node[2]
            cached = memo.get(ident)
            if cached is None:
                if elem == EMPTY_T:
                    cached = (CON, NIL)
                else:
                    cached = make_abs(heap, AbsSort.LIST, elem)
                memo[ident] = cached
            return cached
        assert kind == "f"
        name, arity, arg_nodes = node[1], node[2], node[3]
        children = [build(child) for child in arg_nodes]
        if name == "." and arity == 2:
            address = heap.top
            heap.cells.extend(children)
            return (LIS, address)
        functor_address = heap.push((FUN, (name, arity)))
        heap.cells.extend(children)
        return (STR, functor_address)

    return [build(node) for node in pattern.args]


# ----------------------------------------------------------------------
# Lub, canonicalization and inspection.

def node_to_tree(node: Node) -> Tree:
    kind = node[0]
    if kind == "i":
        return ("s", node[1])
    if kind == "li":
        return ("l", node[1])
    return ("f", node[1], node[2], tuple(node_to_tree(n) for n in node[3]))


def tree_to_node(tree: Tree, counter) -> Node:
    kind = tree[0]
    if kind == "s":
        return ("i", tree[1], next(counter))
    if kind == "l":
        return ("li", tree[1], next(counter))
    return (
        "f",
        tree[1],
        tree[2],
        tuple(tree_to_node(arg, counter) for arg in tree[3]),
    )


def pattern_to_trees(pattern: Pattern) -> Tuple[Tree, ...]:
    return tuple(node_to_tree(node) for node in pattern.args)


def leaf_is_ground(kind: str, value) -> bool:
    """Is the leaf ``(kind, value, id)`` ground?  ``value`` is the sort
    of an ``'i'`` leaf and the element tree of an ``'li'`` leaf."""
    if kind == "i":
        return value in GROUND_SORTS
    return tree_is_ground(value)


def node_is_ground(node: Node) -> bool:
    """Does the node denote only ground terms?"""
    if node[0] == "f":
        return all(map(node_is_ground, node[3]))
    return leaf_is_ground(node[0], node[1])


def canonicalize(pattern: Pattern) -> Pattern:
    """Renumber instance ids in first-occurrence (DFS) order.

    Ground nodes always get a fresh id: a ground term cannot be
    further instantiated, so must-aliasing between ground positions
    constrains nothing — keeping it would let two semantically
    identical patterns (one annotating ground sharing, one not)
    canonicalize to different values.
    """
    mapping: Dict[int, int] = {}
    next_free = itertools.count()

    def renumber(node: Node) -> Node:
        kind = node[0]
        if kind in ("i", "li"):
            if leaf_is_ground(kind, node[1]):
                return (kind, node[1], next(next_free))
            ident = node[2]
            new = mapping.get(ident)
            if new is None:
                new = next(next_free)
                mapping[ident] = new
            return (kind, node[1], new)
        return ("f", node[1], node[2], tuple(renumber(n) for n in node[3]))

    return Pattern(tuple(renumber(node) for node in pattern.args))


def pattern_lub(a: Pattern, b: Pattern) -> Pattern:
    """Least upper bound of two patterns.

    Equal argument nodes keep their sharing; differing arguments take the
    tree lub with fresh (unshared) instances — must-aliasing survives only
    where both patterns agree, the sound direction.
    """
    if a == b:
        return a
    if len(a.args) != len(b.args):
        raise AnalysisError("pattern arity mismatch in lub")
    counter = itertools.count(10_000_000)  # fresh ids; canonicalized below
    nodes: List[Node] = []
    for node_a, node_b in zip(a.args, b.args):
        if node_a == node_b:
            nodes.append(node_a)
        else:
            merged = tree_lub(node_to_tree(node_a), node_to_tree(node_b))
            nodes.append(tree_to_node(merged, counter))
    return canonicalize(Pattern(tuple(nodes)))


def pattern_leq(a: Pattern, b: Pattern) -> bool:
    """Order on patterns ignoring sharing (tree inclusion pointwise)."""
    if len(a.args) != len(b.args):
        return False
    return all(
        tree_leq(x, y)
        for x, y in zip(pattern_to_trees(a), pattern_to_trees(b))
    )


def _collect_ids(node: Node, into: List[int]) -> None:
    kind = node[0]
    if kind in ("i", "li"):
        into.append(node[2])
    else:
        for child in node[3]:
            _collect_ids(child, into)


def pattern_subsumes(general: Pattern, specific: Pattern) -> bool:
    """Is every call covered by ``specific`` also covered by ``general``?

    Sound criterion for subsumption-based table reuse: the general
    pattern must make no aliasing demands (sharing in a calling pattern
    *shrinks* its concretization, so an aliased summary may be unsound
    for unaliased calls) and the specific pattern's type trees must be
    pointwise below the general one's.
    """
    if len(general.args) != len(specific.args):
        return False
    ids: List[int] = []
    for node in general.args:
        _collect_ids(node, ids)
    if len(ids) != len(set(ids)):
        return False  # the general pattern demands aliasing
    return pattern_leq(specific, general)


def share_pairs(pattern: Pattern) -> FrozenSet[Tuple[int, int]]:
    """Argument index pairs that share at least one abstract instance
    (computed once per pattern)."""
    if pattern._share_pairs is None:
        by_id: Dict[int, Set[int]] = {}
        for index, node in enumerate(pattern.args):
            ids: List[int] = []
            _collect_ids(node, ids)
            for ident in ids:
                by_id.setdefault(ident, set()).add(index)
        pattern._share_pairs = _index_pairs(by_id.values())
    return pattern._share_pairs


def _index_pairs(groups) -> FrozenSet[Tuple[int, int]]:
    """Every pair ``(i, j)``, ``i < j``, of indexes in one group."""
    pairs: Set[Tuple[int, int]] = set()
    for indexes in groups:
        ordered = sorted(indexes)
        for i, left in enumerate(ordered):
            for right in ordered[i + 1 :]:
                pairs.add((left, right))
    return frozenset(pairs)


def pattern_to_text(pattern: Pattern) -> str:
    """Paper-style rendering with subscripts for shared instances."""
    counts: Dict[int, int] = {}

    def count(node: Node) -> None:
        if node[0] in ("i", "li"):
            counts[node[2]] = counts.get(node[2], 0) + 1
        else:
            for child in node[3]:
                count(child)

    for node in pattern.args:
        count(node)

    def render(node: Node) -> str:
        kind = node[0]
        if kind == "i":
            base = tree_to_text(("s", node[1]))
        elif kind == "li":
            base = tree_to_text(("l", node[1]))
        else:
            name, arity, children = node[1], node[2], node[3]
            inner = ", ".join(render(child) for child in children)
            if name == "." and arity == 2:
                return f"[{render(children[0])}|{render(children[1])}]"
            return f"{name}({inner})"
        if counts.get(node[2], 0) > 1:
            return f"{base}_{node[2]}"
        return base

    return "(" + ", ".join(render(node) for node in pattern.args) + ")"


def collect_share_points(
    heap: Heap, cell: Cell, into: Set[int], seen: Optional[Set[int]] = None
) -> None:
    """Addresses of possibly-unbound cells reachable from ``cell``.

    Ground cells are excluded — sharing a ground subterm cannot transmit
    bindings.  Summarized lists with non-ground elements count as one
    share point (their elements are not individually addressable).
    ``seen`` holds the locations of the compounds already walked, so a
    shared or cyclic subterm is walked once.
    """
    cell, address = deref(heap, cell)
    tag = cell[0]
    if tag == REF:
        into.add(address)  # type: ignore[arg-type]
        return
    if tag == ABS:
        sort, elem = cell[1]  # type: ignore[misc]
        if sort == AbsSort.LIST:
            if not tree_is_ground(elem):
                into.add(address)  # type: ignore[arg-type]
            return
        if sort not in GROUND_SORTS:
            into.add(address)  # type: ignore[arg-type]
        return
    if tag == CON:
        return
    if seen is None:
        seen = set()
    elif cell[1] in seen:
        return
    seen.add(cell[1])  # type: ignore[arg-type]
    for child in struct_args(heap, cell):
        collect_share_points(heap, child, into, seen)


def cell_share_pairs(heap: Heap, cells) -> FrozenSet[Tuple[int, int]]:
    """Argument pairs that reach a common possibly-unbound cell.

    Richer than :func:`share_pairs` on the abstracted pattern: sharing
    *through summarized list elements* is invisible in the pattern (the
    hidden-alias widening keeps the types sound but drops the pair), yet
    clients like the And-Parallelism annotator need it.  Addresses are
    compared modulo the heap's sharing component, which records aliasing
    introduced by re-materialized summaries (list growth, success
    patterns).
    """
    reached: Dict[int, Set[int]] = {}
    for index, cell in enumerate(cells):
        points: Set[int] = set()
        collect_share_points(heap, cell, points)
        for point in points:
            reached.setdefault(heap.share_find(point), set()).add(index)
    return _index_pairs(reached.values())
