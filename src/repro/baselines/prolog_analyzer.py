"""The Prolog-hosted baseline analyzer — the paper's actual comparison.

"To the best of our knowledge, all global dataflow analyzers for logic
programs have been implemented on top of Prolog" (Section 1).  The Table 1
baseline (the Aquarius analyzer under Quintus Prolog) is exactly that: an
abstract interpreter *written in Prolog*, paying resolution-engine prices
for every abstract unification step.

This module reproduces that implementation style faithfully: the analyzer
below is a real Prolog program (:data:`ANALYZER_SOURCE`) executed by
:class:`repro.prolog.Solver`; only the extension table lives behind a few
registered builtins (``$clause``, ``$explored``, ``$mark``, ``$update``,
``$lookup``) — the equivalent of the assert-database technique the paper
attributes to the Prolog-hosted analyzers.

The abstract domain matches Section 3 with one documented simplification:
abstract instances are ground data terms, so refinements discovered later
do not propagate to earlier occurrences (no instance aliasing).  The
result is therefore *coarser-or-equal* than the compiled analyzer's —
checked by the test suite via ``tree_leq`` — and never unsound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..analysis.driver import MAX_ITERATIONS, EntrySpec, parse_entry_spec
from ..analysis.patterns import Pattern, canonicalize, pattern_lub
from ..analysis.table import ExtensionTable
from ..domain.concrete import DEFAULT_DEPTH
from ..domain.lattice import EMPTY_T, Tree
from ..domain.sorts import AbsSort
from ..errors import AnalysisError
from ..robust import STATUS_DEGRADED, STATUS_EXACT, Budget
from ..prolog.program import Clause, Program, normalize_program
from ..prolog.solver import Solver
from ..prolog.terms import (
    NIL,
    TRUE,
    Atom,
    Float,
    Indicator,
    Int,
    Struct,
    Term,
    Var,
    is_cons,
    make_list,
)

#: The analyzer, as a Prolog program.  ``aterm/3`` is the depth-limited
#: abstraction, ``absu/3`` abstract (set) unification, ``alub/3`` the
#: least upper bound, ``ainterp/1`` the body interpreter and ``acall/1``
#: the extension-table control scheme of Section 5.
#: The control scheme and body interpreter of the Prolog-hosted
#: analyzer (Sections 2.2 and 5 expressed as a meta-interpreter).
CONTROL_SOURCE = r"""

% ---- entry ----------------------------------------------------------
analyze(Goal) :- acall(Goal), !.
analyze(_).

% ---- the control scheme (Section 5) ---------------------------------
acall(Goal) :-
    functor(Goal, F, N),
    Goal =.. [F | Args],
    abstract_args(Args, CP),
    ( '$explored'(F, N, CP) -> true
    ; '$mark'(F, N, CP),
      explore(F, N, CP)
    ),
    '$lookup'(F, N, CP, SP),
    apply_success(Args, SP).

explore(F, N, CP) :-
    materialize_args(CP, MArgs),
    '$clause'(F, N, Head, Body),
    Head =.. [F | HArgs],
    absu_args(MArgs, HArgs, RArgs),
    ainterp(Body),
    abstract_args(RArgs, SP),
    '$update'(F, N, CP, SP),
    fail.
explore(_, _, _).

% ---- the body interpreter -------------------------------------------
ainterp(true) :- !.
ainterp((A, B)) :- !, ainterp(A), ainterp(B).
ainterp(!) :- !.
ainterp(fail) :- !, fail.
ainterp(false) :- !, fail.
ainterp(X = Y) :- !, absu(X, Y, _).
ainterp(X is E) :- !, not_definite_var(E), absu(X, int, _).
ainterp(X < Y) :- !, not_definite_var(X), not_definite_var(Y).
ainterp(X > Y) :- !, not_definite_var(X), not_definite_var(Y).
ainterp(X =< Y) :- !, not_definite_var(X), not_definite_var(Y).
ainterp(X >= Y) :- !, not_definite_var(X), not_definite_var(Y).
ainterp(X =:= Y) :- !, not_definite_var(X), not_definite_var(Y).
ainterp(X =\= Y) :- !, not_definite_var(X), not_definite_var(Y).
ainterp(_ \= _) :- !.
ainterp(_ == _) :- !.
ainterp(_ \== _) :- !.
ainterp(_ @< _) :- !.
ainterp(_ @> _) :- !.
ainterp(_ @=< _) :- !.
ainterp(_ @>= _) :- !.
ainterp(compare(O, _, _)) :- !, absu(O, atom, _).
ainterp(var(X)) :- !, may_be_var(X).
ainterp(nonvar(X)) :- !, not_definite_var(X).
ainterp(atom(X)) :- !, type_possible(X, atom).
ainterp(integer(X)) :- !, type_possible(X, int).
ainterp(number(X)) :- !, type_possible(X, const).
ainterp(float(X)) :- !, type_possible(X, const).
ainterp(atomic(X)) :- !, type_possible(X, const).
ainterp(callable(X)) :- !, not_definite_var(X).
ainterp(compound(X)) :- !, may_be_compound(X).
ainterp(functor(_, F, N)) :- !, absu(F, const, _), absu(N, int, _).
ainterp(arg(N, _, _)) :- !, not_definite_var(N).
ainterp(_ =.. L) :- !, absu(L, list(any), _).
ainterp(copy_term(T, C)) :- !, aterm(T, 4, A), materialize_one(A, AI), absu(C, AI, _).
ainterp(atom_length(A, N)) :- !, type_possible(A, atom), absu(N, int, _).
ainterp(name(A, L)) :- !, absu(A, const, _), absu(L, list(int), _).
ainterp(write(_)) :- !.
ainterp(writeq(_)) :- !.
ainterp(print(_)) :- !.
ainterp(nl) :- !.
ainterp(tab(_)) :- !.
ainterp(G) :- acall(G).
"""

#: The abstract-domain support library in Prolog: ``absu/3`` (set
#: unification), ``aterm/3`` (depth-limited abstraction), ``alub/3``,
#: pattern materialization and success application.  Shared with the
#: transformation baseline.
SUPPORT_SOURCE = r"""
% ---- shared plumbing -------------------------------------------------
apply_success([], []).
apply_success([A | As], [S | Ss]) :-
    absu(A, S, _),
    apply_success(As, Ss).

absu_args([], [], []).
absu_args([A | As], [B | Bs], [R | Rs]) :-
    absu(A, B, R),
    absu_args(As, Bs, Rs).

% ---- sort tests over the data representation ------------------------
not_definite_var(X) :- var(X), !, fail.
not_definite_var(var) :- !, fail.
not_definite_var(_).

may_be_var(X) :- var(X), !.
may_be_var(var) :- !.
may_be_var(any).

may_be_compound(X) :- var(X), !, fail.
may_be_compound(any) :- !.
may_be_compound(nv) :- !.
may_be_compound(g) :- !.
may_be_compound(list(_)) :- !.
may_be_compound(X) :- simple_sort(X), !, fail.
may_be_compound(X) :- atomic(X), !, fail.
may_be_compound(_).

type_possible(X, _) :- var(X), !, fail.
type_possible(X, T) :- summary(X, S), sort_meet_ok(S, T).

sort_meet_ok(S, T) :- sort_below(S, T), !.
sort_meet_ok(S, T) :- sort_below(T, S), !.

sort_below(S, S) :- !.
sort_below(atom, const).
sort_below(int, const).
sort_below(atom, g).
sort_below(int, g).
sort_below(const, g).
sort_below(atom, nv).
sort_below(int, nv).
sort_below(const, nv).
sort_below(g, nv).
sort_below(S, any) :- S \== empty.
sort_below(empty, _).

simple_sort(any).
simple_sort(nv).
simple_sort(g).
simple_sort(const).
simple_sort(atom).
simple_sort(int).
simple_sort(var).

% ---- abstraction (term-depth restriction, Section 3/6) --------------
% A top-level free variable abstracts to 'var' only when it occurs once
% among the arguments; repeated or nested variables have aliasing this
% ground data representation cannot express, so they widen to 'any'
% (coarser than the compiled analyzer, which tracks instance sharing).
abstract_args(Args, Ps) :- aterm_top_list(Args, Args, Ps).

aterm_top_list([], _, []).
aterm_top_list([A | As], All, [P | Ps]) :-
    aterm_top(A, All, P),
    aterm_top_list(As, All, Ps).

aterm_top(T, All, R) :- var(T), !,
    ( var_occurs_twice(T, All) -> R = any ; R = var ).
aterm_top(T, _, R) :- aterm(T, 4, R).

var_occurs_twice(V, All) :- count_var(All, V, 0, N), N >= 2.

count_var(T, V, N0, N) :- var(T), !, ( T == V -> N is N0 + 1 ; N = N0 ).
count_var(T, _, N, N) :- atomic(T), !.
count_var(T, V, N0, N) :- T =.. [_ | As], count_var_list(As, V, N0, N).

count_var_list([], _, N, N).
count_var_list([T | Ts], V, N0, N) :-
    count_var(T, V, N0, N1),
    count_var_list(Ts, V, N1, N).

aterm(T, _, any) :- var(T), !.
aterm(T, _, T) :- simple_sort(T), !.
aterm(list(E), _, list(E)) :- !.
aterm([], _, []) :- !.
aterm(T, _, atom) :- atom(T), !.
aterm(T, _, int) :- number(T), !.
aterm([H | T], K, R) :- !, aspine([H | T], K, R).
aterm(T, K, R) :-
    K =< 0, !, summary(T, R).
aterm(T, K, R) :-
    T =.. [F | Args],
    K1 is K - 1,
    aterm_list(Args, K1, AArgs),
    R =.. [F | AArgs].

aterm_list([], _, []).
aterm_list([T | Ts], K, [A | As]) :- aterm(T, K, A), aterm_list(Ts, K, As).

% A cons chain: if the spine is proper, summarize to list(LubOfElems).
aspine(L, K, R) :- K1 is K - 1, aspine_walk(L, K1, empty, R).

aspine_walk(T, _, _, nv) :- var(T), !.
aspine_walk([], _, E, list(E)) :- !.
aspine_walk(list(E2), _, E, list(E3)) :- !, alub(E, E2, E3).
aspine_walk([H | T], K, E, R) :- !,
    aterm(H, K, AH),
    alub(E, AH, E2),
    aspine_walk(T, K, E2, R).
aspine_walk(_, _, _, nv).

summary(T, any) :- var(T), !.
summary(T, S) :- simple_sort(T), !, S = T.
summary(list(E), S) :- !, ( aground(E) -> S = g ; S = nv ).
summary([], atom) :- !.
summary(T, atom) :- atom(T), !.
summary(T, int) :- number(T), !.
summary(T, S) :- ( aground(T) -> S = g ; S = nv ).

aground(T) :- var(T), !, fail.
aground(g) :- !.
aground(const) :- !.
aground(atom) :- !.
aground(int) :- !.
aground(empty) :- !.
aground(list(E)) :- !, aground(E).
aground(any) :- !, fail.
aground(nv) :- !, fail.
aground([]) :- !.
aground(T) :- atomic(T), !.
aground(T) :- T =.. [_ | Args], aground_list(Args).

aground_list([]).
aground_list([T | Ts]) :- aground(T), aground_list(Ts).

% ---- least upper bound ----------------------------------------------
alub(A, B, B) :- var(A), !, lub_with_var(B).
alub(A, B, A) :- var(B), !, lub_with_var(A).
alub(empty, B, B) :- !.
alub(A, empty, A) :- !.
alub(A, B, A) :- A == B, !.
alub(A, B, R) :- simple_sort(A), simple_sort(B), !, sort_lub(A, B, R).
alub(A, B, R) :- simple_sort(A), !, structured_lub(A, B, R).
alub(A, B, R) :- simple_sort(B), !, structured_lub(B, A, R).
alub(list(E1), list(E2), list(E3)) :- !, alub(E1, E2, E3).
alub([], list(E), list(E)) :- !.
alub(list(E), [], list(E)) :- !.
alub([], [], []) :- !.
alub([], B, R) :- !, alub(atom, B, R).
alub(A, [], R) :- !, alub(A, atom, R).
alub(A, B, R) :- atom(A), atom(B), !, R = atom.
alub(A, B, R) :- number(A), number(B), !, R = int.
alub(A, B, R) :- atomic(A), atomic(B), !, R = const.
alub(A, B, R) :- atomic(A), !, alub_mixed(A, B, R).
alub(A, B, R) :- atomic(B), !, alub_mixed(B, A, R).
alub(A, B, R) :-
    functor(A, F, N), functor(B, F, N), !,
    A =.. [F | As], B =.. [F | Bs],
    alub_args(As, Bs, Rs),
    R =.. [F | Rs].
alub(A, B, R) :- cover(A, B, R).

alub_args([], [], []).
alub_args([A | As], [B | Bs], [R | Rs]) :- alub(A, B, R), alub_args(As, Bs, Rs).

alub_mixed(A, B, R) :- aterm(A, 4, AA), alub(AA, B, R).

lub_with_var(var) :- !.
lub_with_var(_).

sort_lub(A, B, B) :- sort_below(A, B), !.
sort_lub(A, B, A) :- sort_below(B, A), !.
sort_lub(var, _, any) :- !.
sort_lub(_, var, any) :- !.
sort_lub(atom, int, const) :- !.
sort_lub(int, atom, const) :- !.
sort_lub(_, _, any).

structured_lub(var, _, any) :- !.
structured_lub(any, _, any) :- !.
structured_lub(S, B, R) :-
    ( aground(B), sort_below(S, g) -> R = g
    ; sort_below(S, nv) -> R = nv
    ; R = any
    ).

cover(A, B, g) :- aground(A), aground(B), !.
cover(_, _, nv).

% ---- abstract (set) unification -------------------------------------
% A free Prolog variable stands for a refinable instance; the atom 'var'
% is the unrefinable rep of "a free variable here" and must never bind a
% real variable (it would freeze it).
absu(A, B, R) :- var(A), var(B), !, A = B, R = A.
absu(A, B, R) :- var(A), !,
    ( B == var -> R = A ; materialize_one(B, BI), A = BI, R = BI ).
absu(A, B, R) :- var(B), !,
    ( A == var -> R = B ; materialize_one(A, AI), B = AI, R = AI ).
absu(var, B, B) :- !.
absu(A, var, A) :- !.
% 'any' absorbs, but the free variables of the other side could be bound
% by the unknown term: push 'any' into them.
absu(any, B, B) :- !, free_to_any(B).
absu(A, any, A) :- !, free_to_any(A).
absu(A, B, R) :- simple_sort(A), simple_sort(B), !, sort_absu(A, B, R).
absu(A, B, R) :- simple_sort(A), !, push_sort(A, B, R).
absu(A, B, R) :- simple_sort(B), !, push_sort(B, A, R).
absu(list(E1), list(E2), R) :- !, list_absu(E1, E2, R).
absu(list(_), [], []) :- !.
absu([], list(_), []) :- !.
absu(list(E), [H | T], [H2 | T2]) :- !,
    materialize_one(E, EI), absu(EI, H, H2), absu(list(E), T, T2).
absu([H | T], list(E), [H2 | T2]) :- !,
    materialize_one(E, EI), absu(H, EI, H2), absu(T, list(E), T2).
absu(A, B, A) :- atomic(A), atomic(B), !, A == B.
absu(A, B, R) :- atomic(A), !, aterm(A, 4, AA), AA \== A, absu(AA, B, R).
absu(A, B, R) :- atomic(B), !, aterm(B, 4, BB), BB \== B, absu(A, BB, R).
absu(A, B, R) :-
    functor(A, F, N), functor(B, F, N),
    A =.. [F | As], B =.. [F | Bs],
    absu_args(As, Bs, Rs),
    R =.. [F | Rs].

list_absu(E1, E2, R) :-
    ( absu_elem(E1, E2, E3) -> R = list(E3) ; R = [] ).

absu_elem(E1, E2, E3) :- absu(E1, E2, E3).

sort_absu(A, B, R) :- sort_below(A, B), !, R = A.
sort_absu(A, B, R) :- sort_below(B, A), !, R = B.
sort_absu(_, _, _) :- fail.

% Push a simple sort into a structured term (meet with components).
push_sort(nv, B, B) :- !, free_to_any(B).
push_sort(g, list(E), list(E2)) :- !, absu_or_empty(g, E, E2).
push_sort(g, [], []) :- !.
push_sort(g, B, R) :- !,
    ( atomic(B) -> R = B
    ; B =.. [F | Bs],
      push_g_args(Bs, Rs),
      R =.. [F | Rs]
    ).
push_sort(const, list(_), []) :- !.
push_sort(const, [], []) :- !.
push_sort(const, B, B) :- !, atomic(B).
push_sort(atom, list(_), []) :- !.
push_sort(atom, [], []) :- !.
push_sort(atom, B, B) :- !, atom(B).
push_sort(int, B, B) :- !, number(B).
push_sort(var, _, _) :- !, fail.
push_sort(empty, _, _) :- fail.

push_g_args([], []).
push_g_args([B | Bs], [R | Rs]) :- absu(g, B, R), push_g_args(Bs, Rs).

absu_or_empty(A, B, R) :- ( absu(A, B, R0) -> R = R0 ; R = empty ).

% Bind every free variable in a term to 'any' (it met an unknown term).
free_to_any(T) :- var(T), !, T = any.
free_to_any(T) :- atomic(T), !.
free_to_any(T) :- T =.. [_ | As], free_to_any_list(As).

free_to_any_list([]).
free_to_any_list([T | Ts]) :- free_to_any(T), free_to_any_list(Ts).

% ---- materialization of a calling pattern ---------------------------
% 'var' leaves become fresh Prolog variables so clause bindings propagate
% into the success abstraction; everything else is ground data.
materialize_args([], []).
materialize_args([P | Ps], [M | Ms]) :-
    materialize_one(P, M),
    materialize_args(Ps, Ms).

materialize_one(P, M) :- var(P), !, M = P.
materialize_one(var, _) :- !.
materialize_one(list(E), list(E)) :- !.
materialize_one(P, P) :- atomic(P), !.
materialize_one(P, M) :-
    P =.. [F | As],
    materialize_args(As, Ms),
    M =.. [F | Ms].
"""

#: The complete meta-interpreting analyzer.
ANALYZER_SOURCE = CONTROL_SOURCE + SUPPORT_SOURCE



@dataclass
class PrologBaselineResult:
    """Outcome of the Prolog-hosted analysis."""

    table: ExtensionTable
    iterations: int
    seconds: float
    resolution_steps: int
    #: "exact" at a true fixpoint; "degraded" when the run was cut short
    #: and the table soundly widened to ⊤ (see repro.robust).
    status: str = "exact"


class _EtState:
    """Python side of the extension table (the assert-database stand-in)."""

    def __init__(self, depth: int, budget=None):
        self.depth = depth
        self.table = ExtensionTable(budget=budget)
        self.iteration = 0
        self.marks: Dict[Tuple[Indicator, Pattern], int] = {}


def _rep_to_tree(term: Term, bindings, depth: int) -> Tree:
    """Convert the Prolog analyzer's data representation to a type tree."""
    term = bindings.walk(term)
    if isinstance(term, Var):
        return ("s", AbsSort.VAR)
    if isinstance(term, Atom):
        name = term.name
        simple = {
            "any": AbsSort.ANY,
            "nv": AbsSort.NV,
            "g": AbsSort.GROUND,
            "const": AbsSort.CONST,
            "atom": AbsSort.ATOM,
            "int": AbsSort.INTEGER,
            "var": AbsSort.VAR,
            "empty": AbsSort.EMPTY,
        }.get(name)
        if simple is not None:
            return ("s", simple)
        if name == "[]":
            return ("l", EMPTY_T)
        return ("s", AbsSort.ATOM)
    if isinstance(term, (Int, Float)):
        return ("s", AbsSort.INTEGER if isinstance(term, Int) else AbsSort.CONST)
    assert isinstance(term, Struct)
    if term.name == "list" and term.arity == 1:
        return ("l", _rep_to_tree(term.args[0], bindings, depth - 1))
    args = tuple(_rep_to_tree(a, bindings, depth - 1) for a in term.args)
    return ("f", term.name, term.arity, args)


def _tree_to_rep(tree: Tree) -> Term:
    """Back from a type tree to the analyzer's data representation.

    ``var`` leaves become fresh Prolog variables (not the atom ``var``) so
    positions that are free in a success pattern stay refinable in the
    caller.
    """
    if tree[0] == "s" and tree[1] == AbsSort.VAR:
        return Var()
    if tree[0] == "s":
        name = {
            AbsSort.ANY: "any",
            AbsSort.NV: "nv",
            AbsSort.GROUND: "g",
            AbsSort.CONST: "const",
            AbsSort.ATOM: "atom",
            AbsSort.INTEGER: "int",
            AbsSort.VAR: "var",
            AbsSort.EMPTY: "empty",
        }[tree[1]]
        return Atom(name)
    if tree[0] == "l":
        if tree[1] == EMPTY_T:
            return NIL
        return Struct("list", (_tree_to_rep(tree[1]),))
    args = tuple(_tree_to_rep(arg) for arg in tree[3])
    return Struct(tree[1], args)


def _pattern_of_trees(trees: Sequence[Tree]) -> Pattern:
    """A Pattern with fresh (unshared) instances — this baseline does not
    track aliasing."""
    import itertools

    from ..analysis.patterns import tree_to_node

    counter = itertools.count()
    return canonicalize(
        Pattern(tuple(tree_to_node(tree, counter) for tree in trees))
    )


class PrologAnalyzer:
    """Runs the Prolog-hosted analyzer over a program."""

    def __init__(
        self,
        program: Union[Program, str],
        depth: int = DEFAULT_DEPTH,
        budget: Optional[Budget] = None,
        on_budget: str = "raise",
    ):
        if on_budget not in ("raise", "degrade"):
            raise ValueError(
                f"on_budget must be 'raise' or 'degrade', not {on_budget!r}"
            )
        if isinstance(program, str):
            program = Program.from_text(program)
        self.analyzed = normalize_program(program)
        self.depth = depth
        self.budget = budget
        self.on_budget = on_budget
        self.analyzer_program = normalize_program(
            Program.from_text(ANALYZER_SOURCE)
        )
        self._check_reserved_atoms()

    def _check_reserved_atoms(self) -> None:
        """The data representation reserves a few atoms; refuse programs
        that use them as constants (a documented baseline limitation)."""
        from ..prolog.terms import iter_subterms

        reserved = {"any", "nv", "g", "const", "atom", "int", "var", "empty"}
        for predicate in self.analyzed.predicates.values():
            for clause in predicate.clauses:
                for goal in [clause.head] + clause.body:
                    for sub in iter_subterms(goal):
                        if isinstance(sub, Atom) and sub.name in reserved:
                            raise AnalysisError(
                                f"program uses reserved atom {sub.name!r}; "
                                "the Prolog-hosted baseline cannot analyze it"
                            )
                        if (
                            isinstance(sub, Struct)
                            and sub.indicator == ("list", 1)
                        ):
                            raise AnalysisError(
                                "program uses reserved functor list/1; "
                                "the Prolog-hosted baseline cannot analyze it"
                            )

    # ------------------------------------------------------------------

    def _install_builtins(self, solver: Solver, state: _EtState) -> None:
        analyzed = self.analyzed
        depth = self.depth

        def pattern_from(args_term: Term, bindings) -> Pattern:
            from ..prolog.terms import list_elements

            resolved = bindings.resolve(args_term)
            elements, _ = list_elements(resolved)
            trees = [_rep_to_tree(e, bindings, depth) for e in elements]
            return _pattern_of_trees(trees)

        def indicator_from(args, bindings) -> Indicator:
            name = bindings.walk(args[0])
            arity = bindings.walk(args[1])
            assert isinstance(name, Atom) and isinstance(arity, Int)
            return (name.name, arity.value)

        def bi_clause(slv, args, d) -> Iterator[None]:
            from ..prolog.solver import unify

            head_term = args[2]
            body_term = args[3]
            name = slv.bindings.walk(args[0])
            arity = slv.bindings.walk(args[1])
            indicator = (name.name, arity.value)
            clauses = analyzed.clauses(indicator)
            if not clauses:
                raise AnalysisError(
                    f"analyzed program has no predicate {indicator}"
                )
            for clause in clauses:
                renamed = clause.rename()
                body = renamed.body
                conjunction: Term = TRUE
                for goal in reversed(body):
                    if conjunction == TRUE:
                        conjunction = goal
                    else:
                        conjunction = Struct(",", (goal, conjunction))
                mark = slv.bindings.mark()
                if unify(head_term, renamed.head, slv.bindings) and unify(
                    body_term, conjunction, slv.bindings
                ):
                    yield
                slv.bindings.undo_to(mark)

        def bi_explored(slv, args, d) -> Iterator[None]:
            indicator = indicator_from(args, slv.bindings)
            pattern = pattern_from(args[2], slv.bindings)
            key = (indicator, pattern)
            state.table.entry(indicator, pattern)
            if state.marks.get(key) == state.iteration:
                yield

        def bi_mark(slv, args, d) -> Iterator[None]:
            indicator = indicator_from(args, slv.bindings)
            pattern = pattern_from(args[2], slv.bindings)
            state.marks[(indicator, pattern)] = state.iteration
            yield

        def bi_update(slv, args, d) -> Iterator[None]:
            indicator = indicator_from(args, slv.bindings)
            calling = pattern_from(args[2], slv.bindings)
            success = pattern_from(args[3], slv.bindings)
            state.table.update(indicator, calling, success)
            yield

        def bi_lookup(slv, args, d) -> Iterator[None]:
            from ..prolog.solver import unify
            from ..analysis.patterns import pattern_to_trees

            indicator = indicator_from(args, slv.bindings)
            calling = pattern_from(args[2], slv.bindings)
            entry = state.table.find(indicator, calling)
            if entry is None or entry.success is None:
                return
            reps = [
                _tree_to_rep(tree) for tree in pattern_to_trees(entry.success)
            ]
            if unify(args[3], make_list(reps), slv.bindings):
                yield

        solver.register_builtin(("$clause", 4), bi_clause)
        solver.register_builtin(("$explored", 3), bi_explored)
        solver.register_builtin(("$mark", 3), bi_mark)
        solver.register_builtin(("$update", 4), bi_update)
        solver.register_builtin(("$lookup", 4), bi_lookup)

    def _entry_query(self, spec: EntrySpec) -> Term:
        """The solver query that runs one analysis pass for ``spec``."""
        from ..analysis.patterns import pattern_to_trees

        reps = [_tree_to_rep(tree) for tree in pattern_to_trees(spec.pattern)]
        name, arity = spec.indicator
        goal: Term = Struct(name, tuple(reps)) if arity else Atom(name)
        return Struct("analyze", (goal,))

    # ------------------------------------------------------------------

    def analyze(
        self, entries: Sequence[Union[str, Term, EntrySpec]]
    ) -> PrologBaselineResult:
        from ..analysis.patterns import pattern_to_trees

        specs = [parse_entry_spec(entry) for entry in entries]
        if not specs:
            raise AnalysisError("at least one entry spec is required")
        budget = self.budget
        if budget is None:
            budget = Budget(max_iterations=MAX_ITERATIONS)
        budget.start()
        state = _EtState(self.depth, budget=self.budget)
        total_steps = 0
        started = time.perf_counter()
        iterations = 0
        status = STATUS_EXACT
        try:
            while True:
                budget.charge_iteration()
                iterations += 1
                before = state.table.changes
                for spec in specs:
                    state.iteration += 1
                    solver = Solver(
                        self.analyzer_program,
                        max_steps=100_000_000,
                        budget=self.budget,
                    )
                    self._install_builtins(solver, state)
                    query = self._entry_query(spec)
                    if solver.solve_once(query) is None:
                        raise AnalysisError("the Prolog analyzer pass failed")
                    total_steps += solver.steps
                if state.table.changes == before:
                    break
        except AnalysisError as exc:
            # Interrupted mid-fixpoint: the partial table may still
            # under-approximate, so widen it to ⊤ before handing it out.
            status = STATUS_DEGRADED
            state.table.widen_to_top(status)
            result = PrologBaselineResult(
                table=state.table,
                iterations=iterations,
                seconds=time.perf_counter() - started,
                resolution_steps=total_steps,
                status=status,
            )
            if self.on_budget == "raise":
                exc.partial_result = result
                raise
            return result
        elapsed = time.perf_counter() - started
        return PrologBaselineResult(
            table=state.table,
            iterations=iterations,
            seconds=elapsed,
            resolution_steps=total_steps,
            status=status,
        )
