"""Property-based soundness tests connecting concrete and abstract layers.

The central safety arguments of the analysis:

* γ∘α ⊇ id — every term belongs to its own abstraction;
* abstract unification over-approximates concrete unification: whenever
  ``unify(t1, t2)`` succeeds with result ``r``, ``tree_unify(α t1, α t2)``
  succeeds and its result contains ``r``;
* the cell-level ``s_unify`` agrees: materializing ``α t`` and abstractly
  unifying it with ``t`` itself always succeeds;
* the WAM and the SLD solver agree on concrete queries.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.analysis.aheap import make_abs
from repro.analysis.aunify import s_unify
from repro.analysis.patterns import abstract_cells, materialize_pattern
from repro.domain import abstract_term, tree_contains, tree_unify
from repro.prolog import Bindings, Program, parse_term, term_to_text, unify
from repro.prolog.terms import Atom, Int, Struct, Term, Var, make_list
from repro.wam.cells import Heap

# ----------------------------------------------------------------------
# Concrete term strategies.

ATOMS = st.sampled_from([Atom("a"), Atom("b"), Atom("foo"), Atom("[]")])
INTS = st.builds(Int, st.integers(min_value=-5, max_value=5))


def terms(var_names=("X", "Y", "Z")):
    # Variables are sampled as ('varname', n) markers; _realize replaces
    # them with per-example Var objects so repeated names share identity.
    variables = st.sampled_from(var_names).map(lambda n: ("varname", n))

    def build(children):
        return st.one_of(
            st.builds(
                lambda name, args: Struct(name, tuple(args)),
                st.sampled_from(["f", "g"]),
                st.lists(children, min_size=1, max_size=3),
            ),
            st.builds(
                lambda items: make_list(items),
                st.lists(children, min_size=0, max_size=3),
            ),
        )

    return st.recursive(st.one_of(ATOMS, INTS, variables), build, max_leaves=10)


def _realize(term: Term, pool):
    """Replace ('varname', n) markers with shared Var objects."""
    if isinstance(term, tuple) and len(term) == 2 and term[0] == "varname":
        if term[1] not in pool:
            pool[term[1]] = Var(term[1])
        return pool[term[1]]
    if isinstance(term, Struct):
        return Struct(term.name, tuple(_realize(a, pool) for a in term.args))
    return term


def _realize_linear(term: Term):
    """Every variable occurrence becomes a distinct fresh variable.

    Type trees carry no sharing information, so the *tree-level* unify
    property only holds for linear terms; aliasing is handled at the cell
    level (see the pattern-based tests and test_aunify.py).
    """
    if isinstance(term, tuple) and len(term) == 2 and term[0] == "varname":
        return Var(term[1])
    if isinstance(term, Struct):
        return Struct(term.name, tuple(_realize_linear(a) for a in term.args))
    return term


# ----------------------------------------------------------------------


@settings(max_examples=400)
@given(terms())
def test_alpha_gamma_soundness(raw):
    term = _realize(raw, {})
    for depth in (0, 1, 2, 4):
        assert tree_contains(abstract_term(term, depth), term)


@settings(max_examples=400)
@given(terms(var_names=("X", "Y")), terms(var_names=("U", "V")))
def test_abstract_unify_over_approximates_linear(raw_left, raw_right):
    # Linear terms (every variable occurs once): the mgu is finite and
    # the aliasing-free tree-level unify must over-approximate it.
    left = _realize_linear(raw_left)
    right = _realize_linear(raw_right)
    bindings = Bindings()
    if not unify(left, right, bindings):
        return  # concrete failure: the abstract result is unconstrained
    result = bindings.resolve(left)
    abstract = tree_unify(abstract_term(left), abstract_term(right))
    assert abstract is not None, (
        f"abstract failure on concretely unifiable "
        f"{term_to_text(left)} / {term_to_text(right)}"
    )
    assert tree_contains(abstract, result), (
        f"{term_to_text(result)} escaped "
        f"{abstract} for {term_to_text(left)} / {term_to_text(right)}"
    )


@settings(max_examples=300)
@given(terms(var_names=("X", "Y")), terms(var_names=("U", "V")))
@example(
    raw_left=make_list([Struct(".", (Atom("a"), Atom("[]"))), ("varname", "X")]),
    raw_right=make_list([Struct(".", (("varname", "U"), Atom("[]"))), Atom("[]")]),
)
def test_cell_unify_over_approximates_with_sharing(raw_left, raw_right):
    # Repeated variables WITHIN each term are allowed here: the pattern /
    # cell layer preserves sharing, so abstract unification of the
    # materialized abstractions must succeed whenever the concrete terms
    # unify.  (Universes stay disjoint to keep the mgu finite... except
    # repeated vars can still produce cyclic mgus; skip those.)
    left = _realize(raw_left, {})
    right = _realize(raw_right, {})
    bindings = Bindings()
    if not unify(left, right, bindings):
        return
    try:
        result = bindings.resolve(left)
    except RecursionError:
        return  # cyclic (rational-tree) mgu: outside the tested property
    heap = Heap()
    shared = {}
    left_cell = heap.encode(left, shared)
    right_cell = heap.encode(right, shared)
    pattern = abstract_cells(heap, [left_cell, right_cell])
    materialized = materialize_pattern(heap, pattern)
    assert s_unify(heap, materialized[0], materialized[1]), (
        f"abstract failure for {term_to_text(left)} / {term_to_text(right)}"
    )
    from repro.analysis.patterns import tree_of_cell

    unified_tree = tree_of_cell(heap, materialized[0])
    assert tree_contains(unified_tree, result), (
        f"{term_to_text(result)} escaped {unified_tree}"
    )


@settings(max_examples=300)
@given(terms())
def test_cell_s_unify_accepts_own_abstraction(raw):
    term = _realize(raw, {})
    heap = Heap()
    concrete_cell = heap.encode(term)
    pattern = abstract_cells(heap, [concrete_cell])
    materialized = materialize_pattern(heap, pattern)
    assert s_unify(heap, materialized[0], concrete_cell)


@settings(max_examples=300)
@given(terms())
def test_cell_abstraction_stable(raw):
    # Abstracting a materialized pattern gives the pattern back.
    term = _realize(raw, {})
    heap = Heap()
    pattern = abstract_cells(heap, [heap.encode(term)])
    cells = materialize_pattern(heap, pattern)
    assert abstract_cells(heap, cells) == pattern


@settings(max_examples=200)
@given(terms(var_names=("X",)))
def test_any_cell_absorbs_everything(raw):
    term = _realize(raw, {})
    heap = Heap()
    from repro.domain import AbsSort

    any_cell = make_abs(heap, AbsSort.ANY)
    assert s_unify(heap, any_cell, heap.encode(term))


# ----------------------------------------------------------------------
# Engine agreement on generated queries.

LIST_PROGRAM = Program.from_text(
    """
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
    rev([], []).
    rev([H|T], R) :- rev(T, RT), app(RT, [H], R).
    len([], 0).
    len([_|T], N) :- len(T, M), N is M + 1.
    """
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), max_size=6))
def test_wam_matches_solver_on_reverse(items):
    from repro.prolog import Solver
    from repro.wam import Machine, compile_program

    goal = parse_term(
        "rev([" + ", ".join(str(i) for i in items) + "], R)"
    )
    machine = Machine(compile_program(LIST_PROGRAM))
    solver = Solver(LIST_PROGRAM)
    wam_result = machine.run_once(goal)
    solver_result = solver.solve_once(goal)
    assert term_to_text(wam_result["R"]) == term_to_text(solver_result["R"])
    assert term_to_text(wam_result["R"]) == (
        "[" + ", ".join(str(i) for i in reversed(items)) + "]"
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=9), max_size=4),
    st.lists(st.integers(min_value=0, max_value=9), max_size=4),
)
def test_wam_matches_solver_on_append(left, right):
    from repro.prolog import Solver
    from repro.wam import Machine, compile_program

    left_text = "[" + ", ".join(str(i) for i in left) + "]"
    right_text = "[" + ", ".join(str(i) for i in right) + "]"
    goal = parse_term(f"app({left_text}, {right_text}, R)")
    machine = Machine(compile_program(LIST_PROGRAM))
    solver = Solver(LIST_PROGRAM)
    assert term_to_text(machine.run_once(goal)["R"]) == term_to_text(
        solver.solve_once(goal)["R"]
    )
