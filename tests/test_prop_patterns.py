"""Property-based tests for pattern abstraction, materialization and lub."""

import itertools

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.analysis.aheap import ABS, cell_summary, deref, make_abs, slot_cell
from repro.analysis.patterns import (
    Pattern,
    _constant_leaf_tree,
    _survey_hidden_aliases,
    _walk_spine,
    abstract_cells,
    canonicalize,
    clip_tree,
    materialize_pattern,
    node_to_tree,
    pattern_leq,
    pattern_lub,
    pattern_subsumes,
    pattern_to_trees,
    share_pairs,
    tree_to_node,
)
from repro.domain import AbsSort, tree_leq
from repro.domain.lattice import (
    ANY_T,
    EMPTY_T,
    tree_is_empty,
    tree_is_ground,
    tree_lub,
)
from repro.domain.sorts import sort_is_ground
from repro.prolog.terms import NIL, Atom, Int
from repro.wam.cells import CON, FUN, LIS, REF, STR, Heap

S = AbsSort

SORT_LEAVES = st.sampled_from(
    [S.VAR, S.ATOM, S.INTEGER, S.CONST, S.GROUND, S.NV, S.ANY]
)


def trees():
    return st.recursive(
        SORT_LEAVES.map(lambda sort: ("s", sort)),
        lambda children: st.one_of(
            st.tuples(st.just("l"), children),
            st.builds(
                lambda args: ("f", "f", len(args), tuple(args)),
                st.lists(children, min_size=1, max_size=2),
            ),
        ),
        max_leaves=5,
    )


def patterns():
    def build(tree_list, share_seed):
        counter = itertools.count()
        nodes = tuple(tree_to_node(tree, counter) for tree in tree_list)
        return canonicalize(Pattern(nodes))

    return st.builds(
        build, st.lists(trees(), min_size=0, max_size=3), st.integers()
    )


@settings(max_examples=300)
@given(patterns())
def test_materialize_abstract_roundtrip(pattern):
    heap = Heap()
    cells = materialize_pattern(heap, pattern)
    assert abstract_cells(heap, cells) == pattern


@settings(max_examples=300)
@given(patterns())
def test_canonicalization_idempotent(pattern):
    assert canonicalize(pattern) == pattern


@settings(max_examples=300)
@given(patterns(), patterns())
def test_pattern_lub_upper_bound(a, b):
    if len(a.args) != len(b.args):
        return
    merged = pattern_lub(a, b)
    assert pattern_leq(a, merged)
    assert pattern_leq(b, merged)


@settings(max_examples=300)
@given(patterns())
def test_pattern_lub_idempotent(pattern):
    assert pattern_lub(pattern, pattern) == pattern


@settings(max_examples=300)
@given(patterns(), patterns())
def test_lub_share_pairs_shrink_only(a, b):
    if len(a.args) != len(b.args):
        return
    merged = pattern_lub(a, b)
    # Must-sharing survives only where both agree.
    assert share_pairs(merged) <= share_pairs(a) | share_pairs(b)


@settings(max_examples=300)
@given(patterns(), patterns())
def test_subsumption_implies_tree_order(a, b):
    if pattern_subsumes(a, b):
        for specific, general in zip(pattern_to_trees(b), pattern_to_trees(a)):
            assert tree_leq(specific, general)


@settings(max_examples=200)
@given(patterns())
def test_subsumption_reflexive_without_sharing(pattern):
    if not share_pairs(pattern):
        ids = []
        from repro.analysis.patterns import _collect_ids

        for node in pattern.args:
            _collect_ids(node, ids)
        if len(ids) == len(set(ids)):
            assert pattern_subsumes(pattern, pattern)


# ----------------------------------------------------------------------
# The one-walk abstraction against the three-walk reference.
#
# ``patterns()`` above builds heaps only by materializing patterns, so it
# never shares a ground cell between two arguments, never puts a free
# variable inside a list spine and somewhere else too, and never builds a
# cyclic term.  The heaps below do all three, and nest deeper than k.

CONSTANTS = [Atom("a"), Atom("b"), Int(1), Int(2), NIL]

LEAF_PLANS = st.one_of(
    st.just(("var",)),
    st.sampled_from(
        [S.ATOM, S.INTEGER, S.CONST, S.GROUND, S.NV, S.ANY]
    ).map(lambda sort: ("abs", sort)),
    trees().map(lambda tree: ("abs_list", tree)),
    st.sampled_from(CONSTANTS).map(lambda constant: ("con", constant)),
    st.integers(0, 64).map(lambda index: ("shared", index)),
)


def plans():
    """Term plans: leaves, lists (proper or not), structures, reuse of an
    earlier cell (aliasing) and variables bound to a term that may
    contain them (cycles and reference chains)."""
    return st.recursive(
        LEAF_PLANS,
        lambda children: st.one_of(
            st.tuples(
                st.just("list"),
                st.lists(children, min_size=1, max_size=3),
                st.one_of(st.none(), children),
            ),
            st.tuples(
                st.just("str"),
                st.sampled_from(["f", "g"]),
                st.lists(children, min_size=1, max_size=3),
            ),
            st.tuples(st.just("bind"), children),
        ),
        max_leaves=14,
    )


class _HeapBuilder:
    def __init__(self, heap: Heap):
        self.heap = heap
        self.pool = []

    def build(self, plan):
        heap = self.heap
        kind = plan[0]
        if kind == "shared":
            if not self.pool:
                return heap.new_var()
            return self.pool[plan[1] % len(self.pool)]
        if kind == "bind":
            var = heap.new_var()
            self.pool.append(var)
            target = self.build(plan[1])
            _, address = deref(heap, target)
            if address != var[1]:
                heap.set_cell(var[1], target)
            return var
        if kind == "var":
            cell = heap.new_var()
        elif kind == "abs":
            cell = make_abs(heap, plan[1])
        elif kind == "abs_list":
            cell = make_abs(heap, S.LIST, plan[1])
        elif kind == "con":
            cell = (CON, plan[1])
        elif kind == "list":
            items = [self.build(item) for item in plan[1]]
            cell = (CON, NIL) if plan[2] is None else self.build(plan[2])
            for item in reversed(items):
                address = heap.top
                heap.cells.extend([item, cell])
                cell = (LIS, address)
        else:
            args = [self.build(arg) for arg in plan[2]]
            address = heap.push((FUN, (plan[1], len(args))))
            heap.cells.extend(args)
            cell = (STR, address)
        self.pool.append(cell)
        return cell


def _recursive_is_empty(tree) -> bool:
    if tree[0] == "s":
        return tree[1] == S.EMPTY
    if tree[0] == "l":
        return False
    return any(_recursive_is_empty(arg) for arg in tree[3])


def _recursive_is_ground(tree) -> bool:
    if _recursive_is_empty(tree):
        return True
    if tree[0] == "s":
        return sort_is_ground(tree[1])
    if tree[0] == "l":
        return _recursive_is_ground(tree[1])
    return all(_recursive_is_ground(arg) for arg in tree[3])


def _reference_tree(heap, cell, depth, path, widen) -> tuple:
    cell, address = deref(heap, cell)
    if address is not None:
        if address in path:
            return ANY_T
        path = path | {address}
    tag = cell[0]
    if tag == REF:
        return ("s", S.ANY) if address in widen else ("s", S.VAR)
    if tag == ABS:
        sort, elem = cell[1]
        if sort == S.LIST:
            return ("l", clip_tree(elem, depth - 1))
        return ("s", sort)
    if tag == CON:
        return _constant_leaf_tree(cell[1])
    if depth <= 0:
        return ("s", cell_summary(heap, cell))
    if tag == LIS:
        proper, elements, tail_elem = _walk_spine(heap, cell)
        if proper:
            elem = tail_elem if tail_elem is not None else EMPTY_T
            for element in elements:
                elem = tree_lub(
                    elem, _reference_tree(heap, element, depth - 1, path, widen)
                )
            return ("l", elem)
        return ("f", ".", 2, tuple(
            _reference_tree(heap, slot_cell(heap, cell[1] + i), depth - 1, path, widen)
            for i in range(2)
        ))
    name, arity = heap.cells[cell[1]][1]
    return ("f", name, arity, tuple(
        _reference_tree(heap, slot_cell(heap, cell[1] + 1 + i), depth - 1, path, widen)
        for i in range(arity)
    ))


class _ReferenceWalk:
    """The node walk as it was before it numbered ids canonically: raw
    ids per heap address, fresh ones for cells with no address."""

    def __init__(self, heap, widen, list_aware):
        self.heap = heap
        self.widen = widen
        self.list_aware = list_aware
        self.ids = {}
        self.counter = itertools.count()

    def ident(self, address):
        if address is None:
            return next(self.counter)
        if address not in self.ids:
            self.ids[address] = next(self.counter)
        return self.ids[address]

    def node(self, cell, depth, path):
        heap = self.heap
        cell, address = deref(heap, cell)
        if address is not None and address in path:
            return ("i", S.ANY, self.ident(None))
        if address is not None:
            path = path | {address}
        tag = cell[0]
        if tag == REF:
            sort = S.ANY if address in self.widen else S.VAR
            return ("i", sort, self.ident(address))
        if tag == ABS:
            sort, elem = cell[1]
            if sort == S.LIST:
                return ("li", clip_tree(elem, depth - 1), self.ident(address))
            return ("i", sort, self.ident(address))
        if tag == CON:
            if not self.list_aware and cell[1] == NIL:
                return ("i", S.ATOM, self.ident(address))
            leaf = _constant_leaf_tree(cell[1])
            kind = "li" if leaf[0] == "l" else "i"
            return (kind, leaf[1], self.ident(address))
        if depth <= 0:
            summary = cell_summary(heap, cell)
            if summary == S.VAR and address in self.widen:
                summary = S.ANY
            return ("i", summary, self.ident(address))
        if tag == LIS:
            proper, elements, tail_elem = (
                _walk_spine(heap, cell) if self.list_aware else (False, [], None)
            )
            if proper:
                elem = tail_elem if tail_elem is not None else EMPTY_T
                for element in elements:
                    elem = tree_lub(elem, _reference_tree(
                        heap, element, depth - 1, set(path), self.widen
                    ))
                return ("li", elem, self.ident(address))
            return ("f", ".", 2, tuple(
                self.node(slot_cell(heap, cell[1] + i), depth - 1, path)
                for i in range(2)
            ))
        name, arity = heap.cells[cell[1]][1]
        return ("f", name, arity, tuple(
            self.node(slot_cell(heap, cell[1] + 1 + i), depth - 1, path)
            for i in range(arity)
        ))


def _reference_canonicalize(pattern):
    mapping = {}
    fresh = itertools.count()

    def renumber(node):
        if node[0] == "f":
            return node[:3] + (tuple(renumber(child) for child in node[3]),)
        if _recursive_is_ground(node_to_tree(node)):
            return (node[0], node[1], next(fresh))
        if node[2] not in mapping:
            mapping[node[2]] = next(fresh)
        return (node[0], node[1], mapping[node[2]])

    return Pattern(tuple(renumber(node) for node in pattern.args))


def reference_abstract_cells(heap, cells, depth, list_aware):
    """Three walks: the hidden-alias survey, the node walk, canonicalize."""
    widen = _survey_hidden_aliases(heap, cells) if list_aware else set()
    walk = _ReferenceWalk(heap, widen, list_aware)
    nodes = tuple(walk.node(cell, depth, frozenset()) for cell in cells)
    return _reference_canonicalize(Pattern(nodes))


@settings(max_examples=400)
@given(
    st.lists(plans(), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
# B = [[V|B]]: the inner list is stored in the outer one's slot, with no
# address of its own, and its spine runs on through B back to itself.
@example(
    [("bind", ("list", [("list", [("var",)], ("shared", 0))], None))], 4, True
)
def test_one_walk_abstraction_matches_the_three_walk_reference(
    argument_plans, depth, list_aware
):
    heap = Heap()
    builder = _HeapBuilder(heap)
    cells = [builder.build(plan) for plan in argument_plans]
    expected = reference_abstract_cells(heap, cells, depth, list_aware)
    pattern = abstract_cells(heap, cells, depth, list_aware)
    assert pattern.args == expected.args
    assert canonicalize(pattern).args == pattern.args


def flag_trees():
    """Trees with ``empty`` leaves too, so emptiness propagates."""
    leaves = st.sampled_from(list(S)[:8]).map(lambda sort: ("s", sort))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(st.just("l"), children),
            st.builds(
                lambda args: ("f", "f", len(args), tuple(args)),
                st.lists(children, min_size=1, max_size=3),
            ),
        ),
        max_leaves=8,
    )


@settings(max_examples=400)
@given(flag_trees())
def test_cached_tree_flags_equal_the_recursive_definitions(tree):
    for _ in range(2):  # the second round reads the cache
        assert tree_is_ground(tree) == _recursive_is_ground(tree)
        assert tree_is_empty(tree) == _recursive_is_empty(tree)
