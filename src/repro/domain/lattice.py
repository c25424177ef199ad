"""Type trees: the full abstract domain with lists and structures.

A *type tree* describes a set of concrete terms without aliasing
information (sharing lives in :mod:`repro.analysis.patterns`).  Trees are
hashable nested tuples:

* ``('s', sort)`` — a simple sort leaf (:class:`~repro.domain.sorts.AbsSort`);
* ``('l', elem)`` — the paper's α-list: ``[]`` plus ``[elem | α-list]``;
  ``('l', empty)`` denotes exactly ``{[]}`` and is the canonical nil;
* ``('f', name, arity, (arg trees...))`` — structures with a fixed
  principal functor; list cells appear as ``('f', '.', 2, ...)`` when the
  term is not known to be a proper list.

Three binary combinations matter:

* :func:`tree_lub` — least upper bound (used to summarize success
  patterns);
* :func:`tree_glb` — lattice meet (exposed mainly for property tests);
* :func:`tree_unify` — *set unification*: like the meet except that a
  variable absorbs the other operand (``s_unify(var, T) = T``), which is
  the combination abstract unification actually performs.  Returns ``None``
  for guaranteed failure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from .sorts import (
    SIMPLE_SORTS,
    AbsSort,
    sort_glb,
    sort_is_ground,
    sort_leq,
    sort_lub,
)

Tree = tuple  # ('s', AbsSort) | ('l', Tree) | ('f', str, int, Tuple[Tree, ...])

# Canonical leaves.
EMPTY_T: Tree = ("s", AbsSort.EMPTY)
VAR_T: Tree = ("s", AbsSort.VAR)
ATOM_T: Tree = ("s", AbsSort.ATOM)
INTEGER_T: Tree = ("s", AbsSort.INTEGER)
CONST_T: Tree = ("s", AbsSort.CONST)
GROUND_T: Tree = ("s", AbsSort.GROUND)
NV_T: Tree = ("s", AbsSort.NV)
ANY_T: Tree = ("s", AbsSort.ANY)
#: The canonical tree for ``[]``.
NIL_T: Tree = ("l", EMPTY_T)


def make_list_tree(elem: Tree) -> Tree:
    return ("l", elem)


def make_struct_tree(name: str, args: Tuple[Tree, ...]) -> Tree:
    return ("f", name, len(args), tuple(args))


#: The simple sorts that denote only ground terms (``empty`` vacuously).
GROUND_SORTS = frozenset(sort for sort in SIMPLE_SORTS if sort_is_ground(sort))

#: Distinct composite trees whose flags :func:`tree_is_ground` and
#: :func:`tree_is_empty` remember; trees are immutable, so a flag is
#: computed once per tree while it stays among the most recent ones.
FLAG_CACHE_SIZE = 4096


def tree_is_ground(tree: Tree) -> bool:
    """Does the tree denote only ground terms?  (Empty is vacuously ground,
    including composite trees that denote the empty set.)"""
    if tree[0] == "s":
        return tree[1] in GROUND_SORTS
    return _composite_is_ground(tree)


@lru_cache(maxsize=FLAG_CACHE_SIZE)
def _composite_is_ground(tree: Tree) -> bool:
    if tree[0] == "l":
        return tree_is_ground(tree[1])
    args = tree[3]
    return any(map(tree_is_empty, args)) or all(map(tree_is_ground, args))


def tree_is_empty(tree: Tree) -> bool:
    """Does the tree denote the empty set of terms?

    ``('l', empty)`` is *not* empty (it is ``{[]}``), but a structure with
    an empty argument position is.
    """
    kind = tree[0]
    if kind == "s":
        return tree[1] == AbsSort.EMPTY
    if kind == "l":
        return False
    return _struct_is_empty(tree)


@lru_cache(maxsize=FLAG_CACHE_SIZE)
def _struct_is_empty(tree: Tree) -> bool:
    return any(map(tree_is_empty, tree[3]))


def _list_elem_view(tree: Tree) -> Optional[Tree]:
    """If every term in ``tree`` is a proper list, an element type; else None."""
    kind = tree[0]
    if kind == "l":
        return tree[1]
    if kind == "f" and tree[1] == "." and tree[2] == 2:
        head, tail = tree[3]
        tail_elem = _list_elem_view(tail)
        if tail_elem is None:
            return None
        return tree_lub(head, tail_elem)
    return None


# ----------------------------------------------------------------------
# Order.

def tree_leq(lower: Tree, upper: Tree) -> bool:
    """Set inclusion on type trees."""
    if tree_is_empty(lower):
        return True
    if upper == ANY_T:
        return True
    lower_kind, upper_kind = lower[0], upper[0]
    if lower_kind == "s":
        if upper_kind == "s":
            return sort_leq(lower[1], upper[1])
        return False
    if lower_kind == "l":
        if upper_kind == "s":
            sort = upper[1]
            if sort == AbsSort.NV:
                return True
            if sort == AbsSort.GROUND:
                return tree_is_ground(lower)
            if sort in (AbsSort.CONST, AbsSort.ATOM):
                # Only {[]} fits inside the constants.
                return tree_is_empty(lower[1])
            return False
        if upper_kind == "l":
            return tree_leq(lower[1], upper[1])
        return False
    assert lower_kind == "f"
    if upper_kind == "s":
        sort = upper[1]
        if sort == AbsSort.NV:
            return True
        if sort == AbsSort.GROUND:
            return tree_is_ground(lower)
        return False
    if upper_kind == "l":
        if lower[1] == "." and lower[2] == 2:
            head, tail = lower[3]
            return tree_leq(head, upper[1]) and tree_leq(tail, upper)
        return False
    return (
        lower[1] == upper[1]
        and lower[2] == upper[2]
        and all(tree_leq(a, b) for a, b in zip(lower[3], upper[3]))
    )


# ----------------------------------------------------------------------
# Least upper bound.

def _covering_sort(a: Tree, b: Tree) -> Tree:
    """Smallest simple sort covering two structured trees."""
    if tree_is_ground(a) and tree_is_ground(b):
        return GROUND_T
    return NV_T


def tree_lub(a: Tree, b: Tree) -> Tree:
    """Least upper bound of two type trees."""
    if tree_leq(a, b):
        return b
    if tree_leq(b, a):
        return a
    a_kind, b_kind = a[0], b[0]
    if a_kind == "s" and b_kind == "s":
        return ("s", sort_lub(a[1], b[1]))
    if a_kind == "s" or b_kind == "s":
        simple, other = (a, b) if a_kind == "s" else (b, a)
        sort = simple[1]
        if sort == AbsSort.VAR or sort == AbsSort.ANY:
            return ANY_T
        if tree_leq(other, ATOM_T):
            # The structured side denotes at most {[]}, an atom: the join
            # stays within the constants (e.g. lub(integer, []) = const).
            return ("s", sort_lub(sort, AbsSort.ATOM))
        if sort_is_ground(sort) and tree_is_ground(other):
            return GROUND_T
        return NV_T
    if a_kind == "l" and b_kind == "l":
        return ("l", tree_lub(a[1], b[1]))
    # A list type against a cons structure (or vice versa): if the cons
    # side is list-shaped, stay a list; otherwise fall back to nv/ground.
    if {a_kind, b_kind} == {"l", "f"}:
        list_tree, struct_tree = (a, b) if a_kind == "l" else (b, a)
        elem = _list_elem_view(struct_tree)
        if elem is not None:
            return ("l", tree_lub(list_tree[1], elem))
        return _covering_sort(a, b)
    assert a_kind == "f" and b_kind == "f"
    if a[1] == b[1] and a[2] == b[2]:
        return (
            "f",
            a[1],
            a[2],
            tuple(tree_lub(x, y) for x, y in zip(a[3], b[3])),
        )
    return _covering_sort(a, b)


# ----------------------------------------------------------------------
# Greatest lower bound (pure lattice meet).

def tree_glb(a: Tree, b: Tree) -> Tree:
    """Lattice meet; may return a tree denoting the empty set."""
    if tree_leq(a, b):
        return a
    if tree_leq(b, a):
        return b
    a_kind, b_kind = a[0], b[0]
    if a_kind == "s" and b_kind == "s":
        return ("s", sort_glb(a[1], b[1]))
    if a_kind == "s" or b_kind == "s":
        simple, other = (a, b) if a_kind == "s" else (b, a)
        return _meet_simple_with_structured(simple[1], other, tree_glb)
    if a_kind == "l" and b_kind == "l":
        return ("l", tree_glb(a[1], b[1]))
    if {a_kind, b_kind} == {"l", "f"}:
        list_tree, struct_tree = (a, b) if a_kind == "l" else (b, a)
        if struct_tree[1] == "." and struct_tree[2] == 2:
            head, tail = struct_tree[3]
            return (
                "f",
                ".",
                2,
                (tree_glb(head, list_tree[1]), tree_glb(tail, list_tree)),
            )
        return EMPTY_T
    assert a_kind == "f" and b_kind == "f"
    if a[1] == b[1] and a[2] == b[2]:
        return (
            "f",
            a[1],
            a[2],
            tuple(tree_glb(x, y) for x, y in zip(a[3], b[3])),
        )
    return EMPTY_T


def _meet_simple_with_structured(sort: AbsSort, other: Tree, combine) -> Tree:
    """Meet/unify a simple sort with a list or structure tree.

    ``combine`` is the recursive combination (glb or unify), so the
    var-absorption difference between the two flows into the components.
    """
    if sort in (AbsSort.ANY, AbsSort.NV):
        return other
    if sort == AbsSort.GROUND:
        if other[0] == "l":
            return ("l", combine(GROUND_T, other[1]))
        args = tuple(combine(GROUND_T, arg) for arg in other[3])
        result = ("f", other[1], other[2], args)
        return EMPTY_T if tree_is_empty(result) else result
    if sort in (AbsSort.CONST, AbsSort.ATOM):
        if other[0] == "l":
            return NIL_T
        return EMPTY_T
    # integer, var, empty: no overlap with lists or structures.
    return EMPTY_T


# ----------------------------------------------------------------------
# Set unification (the operational combination).

def tree_unify(a: Tree, b: Tree) -> Optional[Tree]:
    """Abstract (set) unification of type trees; None on sure failure.

    Differs from :func:`tree_glb` exactly where variables occur: a free
    variable unifies with anything and takes its value, so ``var`` and the
    variable part of ``any`` absorb the other operand.  The other way
    round, a term of ``any`` or ``nv`` may bind the variables of a list
    or structure it meets (``[a]`` unifies with ``[X]``), so that side's
    ``var`` leaves become ``any``.
    """
    result = _unify(a, b)
    if result is None or tree_is_empty(result):
        return None
    return result


def _unify_or_empty(a: Tree, b: Tree) -> Tree:
    """Component-level unify where an empty result is a value, not failure
    (list element positions)."""
    result = _unify(a, b)
    return EMPTY_T if result is None else result


def _vars_bindable(tree: Tree) -> Tree:
    """``tree`` with its ``var`` leaves widened to ``any``."""
    kind = tree[0]
    if kind == "s":
        return ANY_T if tree == VAR_T else tree
    if kind == "l":
        return ("l", _vars_bindable(tree[1]))
    return ("f", tree[1], tree[2], tuple(map(_vars_bindable, tree[3])))


def _unify(a: Tree, b: Tree) -> Optional[Tree]:
    if a == VAR_T:
        return b
    if b == VAR_T:
        return a
    if a == ANY_T:
        return _vars_bindable(b)
    if b == ANY_T:
        return _vars_bindable(a)
    a_kind, b_kind = a[0], b[0]
    if a_kind == "s" and b_kind == "s":
        result = sort_glb(a[1], b[1])
        return None if result == AbsSort.EMPTY else ("s", result)
    if a_kind == "s" or b_kind == "s":
        simple, other = (a, b) if a_kind == "s" else (b, a)
        if simple[1] == AbsSort.NV:
            return _vars_bindable(other)
        met = _meet_simple_with_structured(simple[1], other, _unify_or_empty)
        return None if tree_is_empty(met) and met[0] != "l" else met
    if a_kind == "l" and b_kind == "l":
        return ("l", _unify_or_empty(a[1], b[1]))
    if {a_kind, b_kind} == {"l", "f"}:
        list_tree, struct_tree = (a, b) if a_kind == "l" else (b, a)
        if struct_tree[1] == "." and struct_tree[2] == 2:
            head, tail = struct_tree[3]
            new_head = _unify(head, list_tree[1])
            new_tail = _unify(tail, list_tree)
            if new_head is None or new_tail is None:
                return None
            return ("f", ".", 2, (new_head, new_tail))
        return None
    assert a_kind == "f" and b_kind == "f"
    if a[1] != b[1] or a[2] != b[2]:
        return None
    args = []
    for x, y in zip(a[3], b[3]):
        combined = _unify(x, y)
        if combined is None:
            return None
        args.append(combined)
    return ("f", a[1], a[2], tuple(args))


# ----------------------------------------------------------------------
# Summaries and display.

def tree_summary_sort(tree: Tree) -> AbsSort:
    """The most precise *simple* sort covering the tree (depth cut-off)."""
    if tree[0] == "s":
        return tree[1]
    if tree_is_ground(tree):
        return AbsSort.GROUND
    return AbsSort.NV


_SHORT = {
    AbsSort.EMPTY: "empty",
    AbsSort.VAR: "var",
    AbsSort.ATOM: "atom",
    AbsSort.INTEGER: "int",
    AbsSort.CONST: "const",
    AbsSort.GROUND: "g",
    AbsSort.NV: "nv",
    AbsSort.ANY: "any",
}


def tree_to_text(tree: Tree) -> str:
    """Paper-style rendering: ``g``, ``g-list``, ``f(any, g)``."""
    kind = tree[0]
    if kind == "s":
        return _SHORT[tree[1]]
    if kind == "l":
        if tree[1] == EMPTY_T:
            return "[]"
        return f"{tree_to_text(tree[1])}-list"
    name, _, args = tree[1], tree[2], tree[3]
    if name == "." and len(args) == 2:
        return f"[{tree_to_text(args[0])}|{tree_to_text(args[1])}]"
    inner = ", ".join(tree_to_text(arg) for arg in args)
    return f"{name}({inner})"
