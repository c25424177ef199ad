"""Abstract semantics of the inline builtins.

Each entry mirrors a concrete machine builtin: ``fn(machine) -> bool``
over the argument registers, but computing over the abstract domain.  The
guiding rule of a may-analysis: a builtin *succeeds* abstractly unless its
failure is certain, and its output bindings are applied with ``s_unify``
so they over-approximate every concrete outcome.

Type tests use the shallow sort to fail only when provably impossible
(e.g. ``atom(X)`` with ``X`` known to be an integer); arithmetic requires
arguments that could still be numbers and produces ``integer`` instances.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..domain.lattice import ANY_T, INTEGER_T, Tree
from ..domain.sorts import AbsSort, sort_glb, sort_unify
from ..prolog.terms import Indicator
from ..wam.cells import CON, LIS, REF, STR, Cell
from .aheap import cell_summary, deref, make_abs, materialize
from .aunify import s_unify
from .patterns import tree_of_cell

AbstractBuiltinFn = Callable[[object], bool]


def _arg(machine, position: int) -> Cell:
    return machine.get_x(position)


def _bind_sort(machine, position: int, sort: AbsSort, elem: Tree = None) -> bool:
    cell = make_abs(machine.heap, sort, elem)
    return s_unify(machine.heap, _arg(machine, position), cell)


def _summary(machine, position: int) -> AbsSort:
    return cell_summary(machine.heap, _arg(machine, position))


# ----------------------------------------------------------------------
# Control and unification.

def _ab_true(machine) -> bool:
    return True


def _ab_fail(machine) -> bool:
    return False


def _ab_unify(machine) -> bool:
    return s_unify(machine.heap, _arg(machine, 1), _arg(machine, 2))


def _ab_succeed_no_bindings(machine) -> bool:
    """Tests that never bind: ``\\=``, ``==``, ordering, ``compare`` ..."""
    return True


# ----------------------------------------------------------------------
# Type tests: fail only on certain mismatch.

def _ab_type_test(target: AbsSort) -> AbstractBuiltinFn:
    def builtin(machine) -> bool:
        # A definite variable fails every type test; otherwise succeed
        # unless the sorts are provably disjoint.
        return sort_glb(_summary(machine, 1), target) != AbsSort.EMPTY

    return builtin


def _ab_var(machine) -> bool:
    # var(X) fails only when X is certainly instantiated.
    cell, _ = deref(machine.heap, _arg(machine, 1))
    if cell[0] == REF:
        return True
    if cell[0] in (CON, LIS, STR):
        return False
    sort = cell[1][0]  # type: ignore[index]
    return sort == AbsSort.ANY  # any may still be a variable


def _ab_nonvar(machine) -> bool:
    cell, _ = deref(machine.heap, _arg(machine, 1))
    # Fails only for a certain variable; an unbound ref may be aliased to
    # a run-time-instantiated term only if abstract, so REF means var.
    return cell[0] != REF


def _ab_compound(machine) -> bool:
    cell, _ = deref(machine.heap, _arg(machine, 1))
    if cell[0] in (LIS, STR):
        return True
    if cell[0] in (CON, REF):
        # A constant, or a definite variable: the test fails now.
        return False
    sort = cell[1][0]  # type: ignore[index]
    return sort in (AbsSort.ANY, AbsSort.NV, AbsSort.GROUND, AbsSort.LIST)


# ----------------------------------------------------------------------
# Arithmetic.

def _could_be_numeric(machine, position: int) -> bool:
    """A definitely-unbound argument raises an instantiation error in
    every concrete run (so: no success to account for); anything else may
    evaluate."""
    return _summary(machine, position) != AbsSort.VAR


def _ab_is(machine) -> bool:
    # The expression must still be evaluable; the result is an integer
    # instance (float results are folded into integer for the domain).
    if not _could_be_numeric(machine, 2):
        return False
    return _bind_sort(machine, 1, AbsSort.INTEGER)


def _ab_arith_compare(machine) -> bool:
    return _could_be_numeric(machine, 1) and _could_be_numeric(machine, 2)


# ----------------------------------------------------------------------
# Term construction and inspection.

def _ab_functor(machine) -> bool:
    return _bind_sort(machine, 2, AbsSort.CONST) and _bind_sort(
        machine, 3, AbsSort.INTEGER
    )


def _ab_arg(machine) -> bool:
    # arg(N, T, A): N must be numeric; A gains no information (any).
    return _could_be_numeric(machine, 1)


def _ab_univ(machine) -> bool:
    # T =.. L: L is always a proper list.
    return _bind_sort(machine, 2, AbsSort.LIST, ANY_T)


def _ab_copy_term(machine) -> bool:
    tree = tree_of_cell(machine.heap, _arg(machine, 1), machine.depth)
    copy_cell = materialize(machine.heap, tree)
    return s_unify(machine.heap, _arg(machine, 2), copy_cell)


def _ab_compare(machine) -> bool:
    return _bind_sort(machine, 1, AbsSort.ATOM)


# ----------------------------------------------------------------------
# Output and atom utilities.

def _ab_output(machine) -> bool:
    return True


def _ab_atom_length(machine) -> bool:
    summary = _summary(machine, 1)
    if sort_unify(summary, AbsSort.ATOM) == AbsSort.EMPTY:
        return False
    return _bind_sort(machine, 2, AbsSort.INTEGER)


def _ab_name(machine) -> bool:
    if not _bind_sort(machine, 1, AbsSort.CONST):
        return False
    return _bind_sort(machine, 2, AbsSort.LIST, INTEGER_T)


ABSTRACT_BUILTINS: Dict[Indicator, AbstractBuiltinFn] = {
    ("true", 0): _ab_true,
    ("fail", 0): _ab_fail,
    ("false", 0): _ab_fail,
    ("=", 2): _ab_unify,
    ("\\=", 2): _ab_succeed_no_bindings,
    ("==", 2): _ab_succeed_no_bindings,
    ("\\==", 2): _ab_succeed_no_bindings,
    ("@<", 2): _ab_succeed_no_bindings,
    ("@>", 2): _ab_succeed_no_bindings,
    ("@=<", 2): _ab_succeed_no_bindings,
    ("@>=", 2): _ab_succeed_no_bindings,
    ("compare", 3): _ab_compare,
    ("var", 1): _ab_var,
    ("nonvar", 1): _ab_nonvar,
    ("atom", 1): _ab_type_test(AbsSort.ATOM),
    ("number", 1): _ab_type_test(AbsSort.CONST),
    ("integer", 1): _ab_type_test(AbsSort.INTEGER),
    ("float", 1): _ab_type_test(AbsSort.CONST),
    ("atomic", 1): _ab_type_test(AbsSort.CONST),
    ("compound", 1): _ab_compound,
    ("callable", 1): _ab_type_test(AbsSort.NV),
    ("is", 2): _ab_is,
    ("=:=", 2): _ab_arith_compare,
    ("=\\=", 2): _ab_arith_compare,
    ("<", 2): _ab_arith_compare,
    (">", 2): _ab_arith_compare,
    ("=<", 2): _ab_arith_compare,
    (">=", 2): _ab_arith_compare,
    ("functor", 3): _ab_functor,
    ("arg", 3): _ab_arg,
    ("=..", 2): _ab_univ,
    ("copy_term", 2): _ab_copy_term,
    ("write", 1): _ab_output,
    ("writeq", 1): _ab_output,
    ("print", 1): _ab_output,
    ("nl", 0): _ab_output,
    ("tab", 1): _ab_output,
    ("atom_length", 2): _ab_atom_length,
    ("name", 2): _ab_name,
}
