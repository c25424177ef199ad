"""Intra-predicate dataflow over linked WAM code.

The verifier (:mod:`repro.lint.verifier`) and the optimizer
(:mod:`repro.opt`) both need the same substrate: a control-flow graph
over one predicate's code region and worklist fixpoint solvers on top of
it.  This module provides that substrate plus two reusable analyses:

* :func:`x_liveness` — backward liveness of X registers, the fact behind
  dead-move elimination and environment-slot trimming;
* :func:`determinacy` — which predicates are selected deterministically
  by their first argument (instantiated selector, pairwise-distinct
  clause keys); lint, the optimizer and its specialization report all
  read this one fact.

Control-flow edges come in two flavors.  A *flow* edge carries the
predecessor's out-state (fall-through, ``switch_*`` dispatch).  A
*fresh* edge models a backtracking restart: ``try_me_else`` /
``retry_me_else`` alternatives, ``try``/``retry``/``trust`` targets, and
the fall-through of ``try``/``retry`` are entered with the argument
registers freshly restored from the choice point, so solvers re-enter
them with the region's entry state instead of propagating the
predecessor's state across.

Branch targets outside the predicate's region are not edges: they are
collected in :attr:`ControlFlowGraph.escapes` (the verifier's ``E105``),
and addresses whose fall-through would leave the region end up in
:attr:`ControlFlowGraph.falls_off` (``E106``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from ..prolog.program import Predicate
from ..prolog.terms import Indicator
from ..wam.code import CodeArea
from ..wam.compile.predicate import first_argument_key
from ..wam.instructions import Instr, base_op, switch_default

#: Branch target meaning "backtrack" rather than an address.
FAIL_TARGET = -1

#: Opcodes that never fall through to the next address.
TERMINAL_OPS = frozenset(["execute", "proceed", "fail", "halt"])

#: Opcodes that transfer control without falling through.
JUMP_OPS = frozenset(
    ["trust", "switch_on_term", "switch_on_constant", "switch_on_structure"]
)

State = TypeVar("State")


@dataclass(frozen=True)
class Edge:
    """One control-flow edge; ``fresh`` marks a backtracking restart."""

    source: int
    target: int
    fresh: bool = False


class ControlFlowGraph:
    """The control-flow graph of one predicate's code region."""

    def __init__(self, code: CodeArea, indicator: Indicator, start: int, end: int):
        self.code = code
        self.indicator = indicator
        self.start = start
        self.end = end
        #: address -> outgoing edges (within the region).
        self.succ: Dict[int, List[Edge]] = {}
        #: address -> branch targets escaping the region (E105 material).
        self.escapes: Dict[int, List[object]] = {}
        #: addresses whose fall-through leaves the region (E106 material).
        self.falls_off: Set[int] = set()
        self._build()

    @property
    def arity(self) -> int:
        return self.indicator[1]

    def addresses(self) -> Iterable[int]:
        return range(self.start, self.end)

    def successors(self, address: int) -> List[Edge]:
        return self.succ.get(address, [])

    # ------------------------------------------------------------------

    def _add_edge(self, address: int, target: object, fresh: bool) -> None:
        if target == FAIL_TARGET:
            return
        if not isinstance(target, int) or not (self.start <= target < self.end):
            self.escapes.setdefault(address, []).append(target)
            return
        self.succ[address].append(Edge(address, target, fresh))

    def _add_fall(self, address: int, fresh: bool = False) -> None:
        if address + 1 >= self.end:
            self.falls_off.add(address)
            return
        self.succ[address].append(Edge(address, address + 1, fresh))

    def _build(self) -> None:
        for address in self.addresses():
            instruction = self.code.at(address)
            op = instruction.op
            base = base_op(op)
            self.succ[address] = []
            if base in TERMINAL_OPS:
                continue
            if op in ("try_me_else", "retry_me_else"):
                self._add_edge(address, instruction.args[0], fresh=True)
                self._add_fall(address)
                continue
            if op in ("try", "retry"):
                self._add_edge(address, instruction.args[0], fresh=True)
                # The next alternative runs after backtracking, with the
                # argument registers restored from the choice point.
                self._add_fall(address, fresh=True)
                continue
            if op == "trust":
                self._add_edge(address, instruction.args[0], fresh=True)
                continue
            if op == "switch_on_term":
                for target in instruction.args:
                    self._add_edge(address, target, fresh=False)
                continue
            if op in ("switch_on_constant", "switch_on_structure"):
                for _, target in instruction.args[0]:
                    self._add_edge(address, target, fresh=False)
                self._add_edge(address, switch_default(instruction), fresh=False)
                continue
            # Everything else — including unknown opcodes, which the
            # verifier flags as E108 — falls through.
            self._add_fall(address)

    # ------------------------------------------------------------------
    # Derived views (used by tests, docs and the optimizer).

    def predecessors(self) -> Dict[int, List[Edge]]:
        preds: Dict[int, List[Edge]] = {a: [] for a in self.addresses()}
        for edges in self.succ.values():
            for edge in edges:
                preds[edge.target].append(edge)
        return preds

    def reachable(self) -> Set[int]:
        """Addresses reachable from the region entry."""
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            address = queue.popleft()
            for edge in self.successors(address):
                if edge.target not in seen:
                    seen.add(edge.target)
                    queue.append(edge.target)
        return seen

    def basic_blocks(self) -> List[Tuple[int, int]]:
        """``(start, end)`` half-open ranges of maximal straight-line code."""
        leaders = {self.start}
        for address in self.addresses():
            edges = self.successors(address)
            is_straight = len(edges) == 1 and edges[0].target == address + 1
            if is_straight:
                continue  # plain fall-through does not start a block
            for edge in edges:
                leaders.add(edge.target)
            if address + 1 < self.end:
                leaders.add(address + 1)
        ordered = sorted(leaders)
        return [
            (leader, ordered[i + 1] if i + 1 < len(ordered) else self.end)
            for i, leader in enumerate(ordered)
        ]

    def back_edges(self) -> List[Edge]:
        """Edges whose target is an ancestor in a DFS from the entry."""
        result: List[Edge] = []
        color: Dict[int, int] = {}  # 0 absent, 1 on stack, 2 done
        stack: List[Tuple[int, int]] = [(self.start, 0)]
        color[self.start] = 1
        while stack:
            address, index = stack.pop()
            edges = self.successors(address)
            if index < len(edges):
                stack.append((address, index + 1))
                edge = edges[index]
                mark = color.get(edge.target, 0)
                if mark == 1:
                    result.append(edge)
                elif mark == 0:
                    color[edge.target] = 1
                    stack.append((edge.target, 0))
            else:
                color[address] = 2
        return result


def predicate_regions(code: CodeArea) -> List[Tuple[Indicator, int, int]]:
    """``(indicator, start, end)`` for every predicate, in address order."""
    entries = sorted(code.owners.items())
    regions = []
    for position, (start, indicator) in enumerate(entries):
        end = entries[position + 1][0] if position + 1 < len(entries) else len(code)
        regions.append((indicator, start, end))
    return regions


def build_cfg(
    code: CodeArea,
    indicator: Indicator,
    start: Optional[int] = None,
    end: Optional[int] = None,
) -> ControlFlowGraph:
    """The CFG of one predicate's region (bounds default to its extent)."""
    if start is None:
        start = code.entry[indicator]
    if end is None:
        end = start + code.size_of(indicator)
    return ControlFlowGraph(code, indicator, start, end)


# ----------------------------------------------------------------------
# Generic worklist solvers.


def solve_forward(
    cfg: ControlFlowGraph,
    entry_state: State,
    transfer: Callable[[int, Instr, State], Optional[State]],
    merge: Callable[[State, State], Tuple[State, object]],
    on_merge_conflict: Optional[Callable[[int, object], None]] = None,
) -> Dict[int, State]:
    """Forward fixpoint: returns the in-state of every reached address.

    ``transfer(address, instruction, state)`` returns the out-state, or
    ``None`` to stop propagation (the verifier does this on unknown
    opcodes).  ``merge(old, new)`` returns ``(merged, conflict)``; a
    truthy ``conflict`` is handed to ``on_merge_conflict`` (the
    verifier's E107 at merge points).  Fresh edges are re-entered with
    ``entry_state`` — the machine restores the argument registers from
    the choice point there, so the predecessor's state does not flow.
    """
    states: Dict[int, State] = {cfg.start: entry_state}
    worklist: List[int] = [cfg.start]
    while worklist:
        address = worklist.pop()
        out = transfer(address, cfg.code.at(address), states[address])
        if out is None:
            continue
        for edge in cfg.successors(address):
            incoming = entry_state if edge.fresh else out
            existing = states.get(edge.target)
            if existing is None:
                states[edge.target] = incoming
                worklist.append(edge.target)
                continue
            merged, conflict = merge(existing, incoming)
            if conflict and on_merge_conflict is not None:
                on_merge_conflict(edge.target, conflict)
            if merged != existing:
                states[edge.target] = merged
                worklist.append(edge.target)
    return states


def solve_backward(
    cfg: ControlFlowGraph,
    exit_state: State,
    transfer: Callable[[int, Instr, State], State],
    merge: Callable[[State, State], State],
) -> Tuple[Dict[int, State], Dict[int, State]]:
    """Backward fixpoint over the whole region: ``(in, out)`` per address.

    The out-state of an address merges the in-states of its *flow*
    successors, starting from ``exit_state``.  Fresh successors
    contribute nothing: a backtracking restart rebuilds the machine
    state from the choice point, so nothing the restarted code reads
    flows backward across the edge.  Terminal instructions and
    fall-off-the-end addresses take ``exit_state`` as their out-state.
    """
    ins: Dict[int, State] = {}
    outs: Dict[int, State] = {}
    preds = cfg.predecessors()
    worklist = deque(reversed(list(cfg.addresses())))
    queued = set(worklist)
    while worklist:
        address = worklist.popleft()
        queued.discard(address)
        out = exit_state
        for edge in cfg.successors(address):
            if edge.fresh:
                continue
            out = merge(out, ins.get(edge.target, exit_state))
        outs[address] = out
        new_in = transfer(address, cfg.code.at(address), out)
        if ins.get(address) != new_in:
            ins[address] = new_in
            for edge in preds[address]:
                if not edge.fresh and edge.source not in queued:
                    queued.add(edge.source)
                    worklist.append(edge.source)
    return ins, outs


# ----------------------------------------------------------------------
# Liveness of X registers (backward may-analysis).


@dataclass
class LivenessResult:
    """Live X registers before/after each address of one region."""

    cfg: ControlFlowGraph
    live_in: Dict[int, FrozenSet[int]]
    live_out: Dict[int, FrozenSet[int]]


#: Sentinel def-set: the instruction clobbers every X register.
KILL_ALL = "all"


def x_uses_defs(
    instruction: Instr, arity: int
) -> Tuple[Set[int], object]:
    """``(uses, defs)`` of X registers; ``defs`` may be :data:`KILL_ALL`.

    Indexing instructions *use* ``X1..Xarity``: ``try``-family ops
    snapshot the argument registers into the choice point, and the
    switches dispatch on (at least) ``X1`` while guaranteeing the
    arguments stay intact for the selected clause.
    """
    op = base_op(instruction.op)
    args = instruction.args
    uses: Set[int] = set()
    defs: Set[int] = set()

    def reg_use(register) -> None:
        if getattr(register, "kind", None) == "x":
            uses.add(register.index)

    def reg_def(register) -> None:
        if getattr(register, "kind", None) == "x":
            defs.add(register.index)

    if op == "put_variable":
        reg_def(args[0])
        defs.add(args[1])
    elif op == "put_value":
        reg_use(args[0])
        defs.add(args[1])
    elif op in ("put_constant",):
        defs.add(args[1])
    elif op == "put_nil":
        defs.add(args[0])
    elif op in ("put_list", "put_structure"):
        reg_def(args[-1])
    elif op == "get_variable":
        uses.add(args[1])
        reg_def(args[0])
    elif op == "get_value":
        reg_use(args[0])
        uses.add(args[1])
    elif op == "get_constant":
        uses.add(args[1])
    elif op == "get_nil":
        uses.add(args[0])
    elif op in ("get_list", "get_structure"):
        reg_use(args[-1])
    elif op == "unify_variable":
        reg_def(args[0])
    elif op == "unify_value":
        reg_use(args[0])
    elif op in ("call", "execute", "builtin"):
        predicate = args[0]
        uses.update(range(1, predicate[1] + 1))
        if op == "call":
            return uses, KILL_ALL
    elif op in ("try_me_else", "retry_me_else", "trust_me", "try", "retry", "trust"):
        uses.update(range(1, arity + 1))
    elif op in ("switch_on_term", "switch_on_constant", "switch_on_structure"):
        uses.update(range(1, arity + 1))
    # unify_constant/unify_nil/unify_void, allocate/deallocate, proceed,
    # neck_cut, get_level/cut (Y only), fail, halt: no X effect.
    return uses, defs


def x_liveness(cfg: ControlFlowGraph) -> LivenessResult:
    """Backward liveness of X registers over one predicate region."""
    arity = cfg.arity
    empty: FrozenSet[int] = frozenset()

    def transfer(address: int, instruction: Instr, out: FrozenSet[int]):
        uses, defs = x_uses_defs(instruction, arity)
        if defs == KILL_ALL:
            return frozenset(uses)
        return (out - defs) | uses

    ins, outs = solve_backward(
        cfg, empty, transfer, lambda a, b: a | b
    )
    return LivenessResult(cfg, ins, outs)


# ----------------------------------------------------------------------
# Determinacy (first-argument selection).


@dataclass(frozen=True)
class DeterminacyInfo:
    """First-argument selection facts for one predicate.

    ``selector_class`` is the analysis class of the first argument at
    call time (``'ground'``/``'nonvar'``/``'var'``/``None``);
    ``keys_distinct`` says the clauses' first-argument keys are pairwise
    distinct and none is a variable; ``deterministic`` is the paper's
    claim — an instantiated selector over distinct keys never needs a
    choice point.
    """

    indicator: Indicator
    selector_class: Optional[str]
    keys_distinct: bool

    @property
    def deterministic(self) -> bool:
        return self.selector_class in ("ground", "nonvar") and self.keys_distinct


def first_argument_keys_distinct(predicate: Optional[Predicate]) -> bool:
    """True when the clauses' first-argument keys are pairwise distinct
    and none is a variable (a single clause trivially qualifies)."""
    if predicate is None or len(predicate.clauses) < 2:
        return predicate is not None
    keys = [first_argument_key(clause.head) for clause in predicate.clauses]
    return "var" not in keys and len(set(keys)) == len(keys)


def determinacy(compiled, result) -> Dict[Indicator, DeterminacyInfo]:
    """Determinacy facts for every analyzed predicate with code.

    ``compiled`` is a :class:`~repro.wam.compile.CompiledProgram`,
    ``result`` an :class:`~repro.analysis.results.AnalysisResult`.
    """
    facts: Dict[Indicator, DeterminacyInfo] = {}
    for indicator in result.predicates():
        info = result.predicate(indicator)
        if info is None or indicator not in compiled.code.entry:
            continue
        selector = None
        for argument in info.arguments:
            if argument.position == 0:
                selector = argument.call_class
                break
        facts[indicator] = DeterminacyInfo(
            indicator=indicator,
            selector_class=selector,
            keys_distinct=first_argument_keys_distinct(
                compiled.program.predicate(indicator)
            ),
        )
    return facts


__all__ = [
    "ControlFlowGraph",
    "DeterminacyInfo",
    "Edge",
    "FAIL_TARGET",
    "JUMP_OPS",
    "KILL_ALL",
    "LivenessResult",
    "TERMINAL_OPS",
    "build_cfg",
    "determinacy",
    "first_argument_keys_distinct",
    "predicate_regions",
    "solve_backward",
    "solve_forward",
    "x_liveness",
    "x_uses_defs",
]
