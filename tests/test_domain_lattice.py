"""Tests for the abstract domain: sorts and type trees."""

import pytest

from repro.domain import (
    ANY_T,
    ATOM_T,
    AbsSort,
    CONST_T,
    EMPTY_T,
    GROUND_T,
    INTEGER_T,
    NIL_T,
    NV_T,
    VAR_T,
    make_list_tree,
    make_struct_tree,
    sort_glb,
    sort_leq,
    sort_lub,
    sort_unify,
    tree_glb,
    tree_is_empty,
    tree_is_ground,
    tree_leq,
    tree_lub,
    tree_summary_sort,
    tree_to_text,
    tree_unify,
)

S = AbsSort
GLIST = make_list_tree(GROUND_T)
ILIST = make_list_tree(INTEGER_T)
VLIST = make_list_tree(VAR_T)
FG = make_struct_tree("f", (GROUND_T,))
FANY = make_struct_tree("f", (ANY_T,))
FVAR = make_struct_tree("f", (VAR_T,))
CONS_G = make_struct_tree(".", (GROUND_T, GLIST))


class TestSortOrder:
    def test_chain(self):
        assert sort_leq(S.ATOM, S.CONST)
        assert sort_leq(S.CONST, S.GROUND)
        assert sort_leq(S.GROUND, S.NV)
        assert sort_leq(S.NV, S.ANY)
        assert sort_leq(S.VAR, S.ANY)
        assert sort_leq(S.EMPTY, S.ATOM)

    def test_incomparable(self):
        assert not sort_leq(S.ATOM, S.INTEGER)
        assert not sort_leq(S.VAR, S.NV)
        assert not sort_leq(S.NV, S.GROUND)

    def test_lub(self):
        assert sort_lub(S.ATOM, S.INTEGER) == S.CONST
        assert sort_lub(S.VAR, S.GROUND) == S.ANY
        assert sort_lub(S.NV, S.CONST) == S.NV
        assert sort_lub(S.EMPTY, S.ATOM) == S.ATOM

    def test_glb(self):
        assert sort_glb(S.ATOM, S.INTEGER) == S.EMPTY
        assert sort_glb(S.VAR, S.NV) == S.EMPTY
        assert sort_glb(S.ANY, S.GROUND) == S.GROUND
        assert sort_glb(S.NV, S.CONST) == S.CONST

    def test_unify_var_absorbs(self):
        assert sort_unify(S.VAR, S.NV) == S.NV
        assert sort_unify(S.GROUND, S.VAR) == S.GROUND
        assert sort_unify(S.VAR, S.VAR) == S.VAR

    def test_unify_is_glb_without_var(self):
        assert sort_unify(S.ANY, S.GROUND) == S.GROUND
        assert sort_unify(S.ATOM, S.INTEGER) == S.EMPTY


class TestTreeOrder:
    def test_list_below_nv(self):
        assert tree_leq(GLIST, NV_T)

    def test_glist_below_ground(self):
        assert tree_leq(GLIST, GROUND_T)

    def test_varlist_not_ground(self):
        assert not tree_leq(VLIST, GROUND_T)
        assert tree_leq(VLIST, NV_T)

    def test_nil_below_atom_and_const(self):
        assert tree_leq(NIL_T, ATOM_T)
        assert tree_leq(NIL_T, CONST_T)
        assert tree_leq(NIL_T, GLIST)

    def test_intlist_below_glist(self):
        assert tree_leq(ILIST, GLIST)
        assert not tree_leq(GLIST, ILIST)

    def test_struct_below_nv_and_ground(self):
        assert tree_leq(FG, NV_T)
        assert tree_leq(FG, GROUND_T)
        assert not tree_leq(FVAR, GROUND_T)

    def test_struct_pointwise(self):
        assert tree_leq(FG, FANY)
        assert not tree_leq(FANY, FG)

    def test_cons_below_list(self):
        assert tree_leq(CONS_G, GLIST)

    def test_cons_not_below_narrower_list(self):
        assert not tree_leq(CONS_G, ILIST)

    def test_everything_below_any(self):
        for tree in [VAR_T, GLIST, FG, CONS_G, NIL_T, EMPTY_T]:
            assert tree_leq(tree, ANY_T)

    def test_empty_below_everything(self):
        for tree in [VAR_T, GLIST, FG, ATOM_T]:
            assert tree_leq(EMPTY_T, tree)


class TestTreeLub:
    def test_lists(self):
        assert tree_lub(ILIST, make_list_tree(ATOM_T)) == make_list_tree(CONST_T)

    def test_nil_with_list(self):
        assert tree_lub(NIL_T, ILIST) == ILIST

    def test_list_with_cons(self):
        assert tree_lub(GLIST, CONS_G) == GLIST

    def test_list_with_improper_cons_widens(self):
        improper = make_struct_tree(".", (GROUND_T, VAR_T))
        assert tree_lub(GLIST, improper) == NV_T

    def test_same_functor_pointwise(self):
        assert tree_lub(FG, FVAR) == make_struct_tree(
            "f", (tree_lub(GROUND_T, VAR_T),)
        )

    def test_different_functors_ground(self):
        g1 = make_struct_tree("g", (INTEGER_T,))
        assert tree_lub(FG, g1) == GROUND_T

    def test_different_functors_nonground(self):
        g1 = make_struct_tree("g", (ANY_T,))
        assert tree_lub(FG, g1) == NV_T

    def test_var_with_struct(self):
        assert tree_lub(VAR_T, FG) == ANY_T

    def test_atom_with_list(self):
        assert tree_lub(ATOM_T, GLIST) == GROUND_T
        assert tree_lub(ATOM_T, VLIST) == NV_T

    def test_idempotent(self):
        for tree in [GLIST, FG, CONS_G, ANY_T]:
            assert tree_lub(tree, tree) == tree

    def test_upper_bound_property(self):
        pairs = [(ILIST, ATOM_T), (FG, VLIST), (VAR_T, CONS_G)]
        for a, b in pairs:
            join = tree_lub(a, b)
            assert tree_leq(a, join)
            assert tree_leq(b, join)


class TestTreeGlb:
    def test_ground_with_varlist(self):
        # glb keeps the lattice meet: list(var ⊓ g) = list(empty) = {[]}.
        assert tree_glb(GROUND_T, VLIST) == NIL_T

    def test_atom_with_list(self):
        assert tree_glb(ATOM_T, GLIST) == NIL_T

    def test_integer_with_list_empty(self):
        assert tree_is_empty(tree_glb(INTEGER_T, GLIST))

    def test_struct_with_ground(self):
        assert tree_glb(GROUND_T, FANY) == FG

    def test_lower_bound_property(self):
        pairs = [(GLIST, ILIST), (NV_T, FANY), (GROUND_T, CONS_G)]
        for a, b in pairs:
            meet = tree_glb(a, b)
            assert tree_leq(meet, a)
            assert tree_leq(meet, b)


class TestTreeUnify:
    def test_var_absorbed_in_list_elements(self):
        # THE difference from glb: unify([X,Y], [g,g]) stays possible.
        assert tree_unify(VLIST, GLIST) == GLIST

    def test_ground_pushed_into_struct(self):
        assert tree_unify(GROUND_T, FVAR) == FG

    def test_failure_atom_vs_integer(self):
        assert tree_unify(ATOM_T, INTEGER_T) is None

    def test_failure_different_functors(self):
        assert tree_unify(FG, make_struct_tree("g", (ANY_T,))) is None

    def test_failure_integer_vs_list(self):
        assert tree_unify(INTEGER_T, GLIST) is None

    def test_list_with_cons(self):
        result = tree_unify(ILIST, make_struct_tree(".", (VAR_T, VAR_T)))
        assert result == make_struct_tree(".", (INTEGER_T, ILIST))

    def test_any_absorbs(self):
        assert tree_unify(ANY_T, FG) == FG
        assert tree_unify(GLIST, ANY_T) == GLIST
        # ...and may bind the other side's variables.
        assert tree_unify(ANY_T, make_list_tree(VLIST)) == make_list_tree(
            make_list_tree(ANY_T)
        )

    def test_nil_with_list(self):
        assert tree_unify(NIL_T, GLIST) == NIL_T

    def test_nv_with_list(self):
        # [a] unifies with [X]: the list's variables may be bound.
        assert tree_unify(NV_T, VLIST) == make_list_tree(ANY_T)
        assert tree_unify(FVAR, NV_T) == FANY
        assert tree_glb(NV_T, VLIST) == VLIST

    def test_const_with_list_is_nil(self):
        assert tree_unify(CONST_T, GLIST) == NIL_T

    def test_soundness_vs_glb(self):
        # unify result always contains the glb.
        pairs = [(GROUND_T, VLIST), (NV_T, FVAR), (ANY_T, CONS_G)]
        for a, b in pairs:
            unified = tree_unify(a, b)
            assert unified is not None
            assert tree_leq(tree_glb(a, b), unified)


class TestSummaries:
    def test_simple(self):
        assert tree_summary_sort(GROUND_T) == S.GROUND

    def test_glist_ground(self):
        assert tree_summary_sort(GLIST) == S.GROUND

    def test_varlist_nv(self):
        assert tree_summary_sort(VLIST) == S.NV

    def test_struct(self):
        assert tree_summary_sort(FG) == S.GROUND
        assert tree_summary_sort(FVAR) == S.NV

    def test_is_ground(self):
        assert tree_is_ground(NIL_T)
        assert tree_is_ground(GLIST)
        assert not tree_is_ground(VLIST)
        assert not tree_is_ground(ANY_T)


class TestDisplay:
    def test_texts(self):
        assert tree_to_text(GROUND_T) == "g"
        assert tree_to_text(GLIST) == "g-list"
        assert tree_to_text(NIL_T) == "[]"
        assert tree_to_text(FG) == "f(g)"
        assert tree_to_text(CONS_G) == "[g|g-list]"
