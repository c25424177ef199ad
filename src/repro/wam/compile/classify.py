"""Clause analysis: chunks, permanent variables, register allocation.

Warren's classification: a clause body is split into *chunks* at user
predicate calls (inline builtins and cut do not end a chunk; the head
belongs to the first chunk).  A variable occurring in more than one chunk
must survive a call, so it becomes *permanent* and lives in a Y slot of the
clause's environment; all other variables are *temporary* and live in X
registers.

Permanent slots are numbered so that variables dying later get smaller
indexes, which is what makes environment trimming possible: after each call
the environment can be truncated to the slots still live.

Temporary variables get dedicated X registers above the maximum argument
arity used anywhere in the clause, so argument-register loading can never
clobber a live temporary.  This forgoes the classic register-coalescing
optimizations but keeps the generated code obviously correct; instruction
counts stay within a small constant factor of an optimizing compiler's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..builtins import MACHINE_BUILTIN_INDICATORS
from ...prolog.program import Clause
from ...prolog.terms import (
    Atom,
    Struct,
    Term,
    Var,
    indicator_of,
)
from ..instructions import Reg, xreg, yreg

CUT = Atom("!")


def goal_kind(goal: Term) -> str:
    """Classify a body goal: ``cut``, ``builtin`` or ``call``."""
    if goal == CUT:
        return "cut"
    if goal.is_callable() and indicator_of(goal) in MACHINE_BUILTIN_INDICATORS:
        return "builtin"
    return "call"


@dataclass
class VarUse:
    """Where one variable occurs within a clause."""

    var: Var
    chunks: Set[int] = field(default_factory=set)
    occurrences: int = 0
    register: Optional[Reg] = None

    @property
    def is_permanent(self) -> bool:
        return len(self.chunks) > 1

    @property
    def last_chunk(self) -> int:
        return max(self.chunks)


@dataclass
class ClauseAnalysis:
    """Everything the emitter needs to know about one clause."""

    clause: Clause
    #: goal kinds, parallel to ``clause.body``.
    kinds: List[str]
    #: chunk index of each body goal (head is chunk 0).
    goal_chunks: List[int]
    chunk_count: int
    variables: Dict[int, VarUse]
    needs_environment: bool
    #: Y slots used, including the cut-level slot if any.
    slot_count: int
    #: Y slot holding the saved cut barrier, or None.
    level_slot: Optional[int]
    #: True when the clause contains a cut after the first user call.
    has_deep_cut: bool
    #: True when the clause contains a cut in the first chunk.
    has_neck_cut: bool
    #: first X index available for temporaries.
    temp_start: int
    #: count of permanents still live after the k-th call (for trimming).
    live_after_call: List[int]

    def use(self, variable: Var) -> VarUse:
        return self.variables[id(variable)]


def _collect_vars(term: Term, chunk: int, variables: Dict[int, VarUse]) -> None:
    stack = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Var):
            if current.name == "_":
                continue
            use = variables.get(id(current))
            if use is None:
                use = VarUse(current)
                variables[id(current)] = use
            use.chunks.add(chunk)
            use.occurrences += 1
        elif isinstance(current, Struct):
            stack.extend(reversed(current.args))


def _max_arity(clause: Clause) -> int:
    arities = [0]
    for term in [clause.head] + clause.body:
        if isinstance(term, Struct):
            arities.append(term.arity)
    return max(arities)


def analyze_clause(clause: Clause) -> ClauseAnalysis:
    """Run the full clause analysis; see the module docstring."""
    kinds = [goal_kind(goal) for goal in clause.body]

    # Chunk assignment: head is chunk 0; each user call ends its chunk.
    goal_chunks: List[int] = []
    chunk = 0
    for kind in kinds:
        goal_chunks.append(chunk)
        if kind == "call":
            chunk += 1
    chunk_count = chunk + 1

    variables: Dict[int, VarUse] = {}
    _collect_vars(clause.head, 0, variables)
    for goal, goal_chunk in zip(clause.body, goal_chunks):
        _collect_vars(goal, goal_chunk, variables)

    call_positions = [i for i, kind in enumerate(kinds) if kind == "call"]
    call_count = len(call_positions)

    # Cut classification.
    has_neck_cut = False
    has_deep_cut = False
    for position, kind in enumerate(kinds):
        if kind != "cut":
            continue
        if goal_chunks[position] == 0:
            has_neck_cut = True
        else:
            has_deep_cut = True

    permanents = [use for use in variables.values() if use.is_permanent]
    # A call that is not the final goal forces an environment (the
    # continuation must be preserved); so do permanents and deep cuts.
    non_tail_call = any(
        position < len(kinds) - 1 for position in call_positions
    )
    needs_environment = bool(permanents) or non_tail_call or has_deep_cut

    # Slot assignment: later-dying variables first (smaller Y indexes).
    permanents.sort(key=lambda use: use.last_chunk, reverse=True)
    slot = 0
    level_slot: Optional[int] = None
    if has_deep_cut:
        # The level slot must survive until the last cut; give it Y1 so it
        # is never trimmed away before the final deep cut runs.
        slot += 1
        level_slot = slot
    for use in permanents:
        slot += 1
        use.register = yreg(slot)
    slot_count = slot

    temp_start = _max_arity(clause) + 1

    # Trimming: permanents live after the k-th user call are those whose
    # last chunk is beyond chunk k (chunks after call k have index > k).
    last_cut_chunk = max(
        (goal_chunks[i] for i, kind in enumerate(kinds) if kind == "cut"),
        default=-1,
    )
    live_after_call: List[int] = []
    for call_index in range(call_count):
        live_permanents = sum(1 for use in permanents if use.last_chunk > call_index)
        if level_slot is None:
            trim_to = live_permanents
        elif live_permanents > 0:
            # Permanent slots start at Y2 when a level slot exists, so the
            # highest live slot is live_permanents + 1.
            trim_to = live_permanents + 1
        else:
            # Keep the level slot while a later cut may still need it.
            trim_to = 1 if last_cut_chunk > call_index else 0
        live_after_call.append(trim_to)

    return ClauseAnalysis(
        clause=clause,
        kinds=kinds,
        goal_chunks=goal_chunks,
        chunk_count=chunk_count,
        variables=variables,
        needs_environment=needs_environment,
        slot_count=slot_count,
        level_slot=level_slot,
        has_deep_cut=has_deep_cut,
        has_neck_cut=has_neck_cut,
        temp_start=temp_start,
        live_after_call=live_after_call,
    )
