"""Independent And-Parallelism detection — the paper's motivating client.

Section 1: the dataflow information "paves the way for efficient
implementation of different classes of logic programs which support
Independent And-Parallelism".  This module implements that client: given a
finished analysis, it annotates each clause body with the independence of
its goal pairs, in the style of &-Prolog's Conditional Graph Expressions.

Two body goals can run in parallel when they cannot bind a common
variable.  For each calling pattern of each predicate, the clause is
re-executed abstractly (against the extension table, read-only) to obtain
the variable bindings at every program point; a goal pair is then

* ``independent`` — the goals share no variable, and no variable of one
  can reach (through the abstract store) a possibly-unbound cell reachable
  from the other;
* ``conditional`` — independence holds *if* the shared variables are
  ground / unaliased at run time; the needed ``ground(X)`` / ``indep(X,Y)``
  checks are reported (the CGE condition);
* ``dependent`` — the goals share a possibly-unbound variable outright;
* ``unknown`` — a table miss made the program point unanalyzable (rare:
  only when annotating patterns that were never explored).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..analysis.patterns import Pattern
from ..analysis.results import AnalysisResult
from ..baselines.absterms import AbsStore
from ..baselines.meta import META_BUILTINS, CUT
from ..domain.sorts import AbsSort, sort_is_ground
from ..prolog.program import Clause, Program, normalize_program
from ..prolog.terms import (
    Indicator,
    Struct,
    Term,
    Var,
    format_indicator,
    indicator_of,
    term_vars,
)
from ..prolog.writer import term_to_text
from ..wam.builtins import MACHINE_BUILTIN_INDICATORS


@dataclass
class GoalPairInfo:
    """Independence verdict for one pair of body goals."""

    left_index: int
    right_index: int
    left_goal: Term
    right_goal: Term
    status: str  # 'independent' | 'conditional' | 'dependent' | 'unknown'
    conditions: List[str] = field(default_factory=list)

    def to_text(self) -> str:
        left = term_to_text(self.left_goal)
        right = term_to_text(self.right_goal)
        head = f"{left}  &  {right}: {self.status}"
        if self.conditions:
            head += " if " + ", ".join(self.conditions)
        return head


@dataclass
class ClauseParallelism:
    """All goal-pair verdicts for one clause under one calling pattern."""

    indicator: Indicator
    clause_index: int
    clause: Clause
    calling: Pattern
    pairs: List[GoalPairInfo]

    def to_text(self) -> str:
        header = (
            f"{format_indicator(self.indicator)} clause {self.clause_index + 1}"
            f" under {self.calling}:"
        )
        if not self.pairs:
            return header + " (fewer than two parallelizable goals)"
        lines = [header]
        for pair in self.pairs:
            lines.append("    " + pair.to_text())
        return "\n".join(lines)


@dataclass
class ParallelReport:
    """The whole program's And-Parallelism annotation."""

    clauses: List[ClauseParallelism]

    def count(self, status: str) -> int:
        return sum(
            1
            for annotated in self.clauses
            for pair in annotated.pairs
            if pair.status == status
        )

    def to_text(self) -> str:
        lines = [
            "% independent and-parallelism: "
            f"{self.count('independent')} independent, "
            f"{self.count('conditional')} conditional, "
            f"{self.count('dependent')} dependent goal pair(s)",
        ]
        for annotated in self.clauses:
            if annotated.pairs:
                lines.append(annotated.to_text())
        return "\n".join(lines)


class _ClauseAnnotator:
    """Replays one clause abstractly against a finished table."""

    def __init__(self, program: Program, result: AnalysisResult):
        self.program = program
        self.result = result
        self.depth = result.depth
        # May-share classes over store node ids: success patterns report
        # possible aliasing between argument positions whose internal
        # sharing the patterns cannot represent (summarized lists); the
        # union-find conservatively merges the affected frontiers.
        self._share_parent: Dict[object, object] = {}

    def _find(self, node: object) -> object:
        parent = self._share_parent.get(node, node)
        if parent == node:
            return node
        root = self._find(parent)
        self._share_parent[node] = root
        return root

    def _union(self, a: object, b: object) -> None:
        root_a, root_b = self._find(a), self._find(b)
        if root_a != root_b:
            self._share_parent[root_a] = root_b

    # ------------------------------------------------------------------

    def annotate_clause(
        self, indicator: Indicator, calling: Pattern, clause_index: int
    ) -> Optional[ClauseParallelism]:
        clause = self.program.clauses(indicator)[clause_index]
        self._share_parent = {}
        store = AbsStore()
        pattern_args = store.materialize(calling)
        env: Dict[int, int] = {}
        head_args = (
            list(clause.head.args) if isinstance(clause.head, Struct) else []
        )
        for head_term, pattern_arg in zip(head_args, pattern_args):
            head_id = store.from_term(head_term, env)
            if not store.s_unify(head_id, pattern_arg):
                return None  # this clause cannot match the pattern

        # Record, before each goal, the store state relevant to its vars.
        call_positions = [
            index
            for index, goal in enumerate(clause.body)
            if goal != CUT and indicator_of(goal) not in MACHINE_BUILTIN_INDICATORS
        ]
        states: Dict[int, AbsStore] = {}
        alive = True
        for index, goal in enumerate(clause.body):
            if index in call_positions:
                states[index] = store.copy()
            if not alive:
                break
            alive = self._step(store, goal, env)

        pairs: List[GoalPairInfo] = []
        for position, left_index in enumerate(call_positions):
            for right_index in call_positions[position + 1 :]:
                if left_index not in states:
                    continue
                pairs.append(
                    self._judge_pair(
                        clause, states[left_index], env, left_index, right_index
                    )
                )
        return ClauseParallelism(
            indicator=indicator,
            clause_index=clause_index,
            clause=clause,
            calling=calling,
            pairs=pairs,
        )

    def _step(self, store: AbsStore, goal: Term, env: Dict[int, int]) -> bool:
        """Execute one body goal against the finished table; False = the
        rest of the clause is unreachable."""
        if goal == CUT:
            return True
        indicator = indicator_of(goal)
        arg_terms = goal.args if isinstance(goal, Struct) else ()
        arg_ids = [store.from_term(term, env) for term in arg_terms]
        builtin = META_BUILTINS.get(indicator)
        if builtin is not None:
            holder = _AnalyzerShim(self.depth)
            return bool(builtin(holder, store, arg_ids))
        calling = store.abstract(arg_ids, self.depth)
        entry = self.result.table.find(indicator, calling)
        if entry is None or entry.success is None:
            return False
        success_ids = store.materialize(entry.success)
        for caller_id, success_id in zip(arg_ids, success_ids):
            if not store.s_unify(caller_id, success_id):
                return False
        # Account for aliasing the success pattern could not express.
        for left_pos, right_pos in entry.may_share:
            if left_pos >= len(arg_ids) or right_pos >= len(arg_ids):
                continue
            merged: Set[object] = set()
            for position in (left_pos, right_pos):
                frontier: Set[int] = set()
                self._collect_frontier(store, arg_ids[position], frontier, set())
                merged |= frontier
            merged_list = list(merged)
            for node in merged_list[1:]:
                self._union(merged_list[0], node)
        return True

    # ------------------------------------------------------------------

    def _judge_pair(
        self,
        clause: Clause,
        store: AbsStore,
        env: Dict[int, int],
        left_index: int,
        right_index: int,
    ) -> GoalPairInfo:
        left_goal = clause.body[left_index]
        right_goal = clause.body[right_index]
        left_vars = term_vars(left_goal)
        right_vars = term_vars(right_goal)
        left_ids = {id(v) for v in left_vars}
        conditions: List[str] = []
        status = "independent"

        shared = [v for v in right_vars if id(v) in left_ids]
        for variable in shared:
            if self._definitely_ground(store, env, variable):
                continue
            conditions.append(f"ground({variable.name})")
            status = "conditional"

        # Aliasing through the store between the two goals' frontiers,
        # modulo the accumulated may-share classes.  Sharing through the
        # variables the goals share textually is already covered by the
        # ground(...) conditions above.
        points = {
            id(v): self._var_points(store, env, v)
            for v in left_vars + right_vars
        }
        left_frontier: Set[object] = set()
        for variable in left_vars:
            left_frontier |= points[id(variable)]
        right_frontier: Set[object] = set()
        for variable in right_vars:
            right_frontier |= points[id(variable)]
        shared_points: Set[object] = set()
        for variable in shared:
            shared_points |= points[id(variable)]
        hidden = (left_frontier & right_frontier) - shared_points
        if hidden:
            names = sorted(
                {
                    variable.name
                    for variable in left_vars + right_vars
                    if variable.name
                    and variable.name != "_"
                    and points[id(variable)] & hidden
                }
            )
            if names:
                conditions.append(f"indep({', '.join(names)})")
                status = "conditional"
            else:
                status = "dependent"
        return GoalPairInfo(
            left_index=left_index,
            right_index=right_index,
            left_goal=left_goal,
            right_goal=right_goal,
            status=status,
            conditions=conditions,
        )

    def _var_points(
        self, store: AbsStore, env: Dict[int, int], variable: Var
    ) -> Set[object]:
        """Class roots of the possibly-unbound cells ``variable`` reaches.

        A variable whose node was created after this program point was
        still unbound and unaliased here; it is represented by a private
        fresh marker.
        """
        ident = env.get(id(variable))
        if ident is None:
            return {("fresh", id(variable))}
        if ident not in store.nodes:
            return {self._find(("fresh", ident))}
        frontier: Set[int] = set()
        self._collect_frontier(store, ident, frontier, set())
        return {self._find(node) for node in frontier}

    def _definitely_ground(
        self, store: AbsStore, env: Dict[int, int], variable: Var
    ) -> bool:
        ident = env.get(id(variable))
        if ident is None or ident not in store.nodes:
            return False  # not yet created at this point: a fresh var
        return store._summary(ident, set()) in (
            AbsSort.GROUND,
            AbsSort.CONST,
            AbsSort.ATOM,
            AbsSort.INTEGER,
        )

    def _collect_frontier(
        self, store: AbsStore, ident: int, into: Set[int], seen: Set[int]
    ) -> None:
        ident, value = store.walk(ident)
        if ident in seen:
            return
        seen.add(ident)
        kind = value[0]
        if kind == "var":
            into.add(ident)
            return
        if kind == "sort":
            if not sort_is_ground(value[1]):
                into.add(ident)
            return
        if kind == "list":
            from ..domain.lattice import tree_is_ground

            if not tree_is_ground(value[1]):
                into.add(ident)
            return
        if kind == "const":
            return
        for child in value[2]:
            self._collect_frontier(store, child, into, seen)


class _AnalyzerShim:
    """Just enough of MetaAnalyzer for the abstract builtins."""

    def __init__(self, depth: int):
        self.depth = depth


def annotate_parallelism(
    program: Program, result: AnalysisResult
) -> ParallelReport:
    """Annotate every analyzed clause with goal-pair independence."""
    normalized = normalize_program(program)
    annotator = _ClauseAnnotator(normalized, result)
    annotated: List[ClauseParallelism] = []
    for indicator in result.predicates():
        clauses = normalized.clauses(indicator)
        if not clauses:
            continue
        for entry in result.table.entries_for(indicator):
            for clause_index in range(len(clauses)):
                one = annotator.annotate_clause(
                    indicator, entry.calling, clause_index
                )
                if one is not None and one.pairs:
                    annotated.append(one)
    return ParallelReport(annotated)
