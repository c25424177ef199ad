"""The abstract WAM (paper Sections 4.2 and 5).

The same linked code the concrete machine runs is *reinterpreted* over the
abstract domain:

* the unification instructions (``get``/``unify``) perform abstract set
  unification — their reinterpretation follows Figure 4: concrete operands
  take the concrete path, abstract instances take approximate-unifiability
  plus complex-term instantiation;
* ``call`` computes the calling pattern of the argument registers,
  consults the extension table, and either returns the memoized success
  pattern or opens an *exploration frame* over the predicate's clauses;
* ``proceed`` becomes ``updateET`` followed by a forced failure so the
  next clause is explored (Figure 5); when the clauses are exhausted the
  summarized success pattern is returned to the caller (``lookupET``);
* ``execute`` reverts to ``call`` + ``proceed`` via the service proceed
  instruction at :data:`~repro.wam.compile.PROCEED_ADDRESS`;
* indexing instructions never run — exploration frames enumerate clause
  entry addresses directly ("creation and reclamation of backtracking
  points would better be incorporated into call and proceed");
* cut is a sound no-op: all clauses are explored.

The machine mutates one shared :class:`~repro.analysis.table.ExtensionTable`
and records, at every ``lookupET``, which entry read which summary.  The
fixpoint driver sweeps until no explored entry is dirty: the first sweep
runs the entry goal, each later one re-runs only the entries whose
inputs changed (:meth:`AbstractMachine.sweep`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..domain.concrete import DEFAULT_DEPTH
from ..errors import AnalysisError, PrologError
from ..prolog.terms import NIL, Indicator, format_indicator
from ..robust import all_share_pairs, top_success_pattern
from ..wam.cells import CON, FUN, LIS, REF, STR, Cell
from ..wam.compile import CompiledProgram, HALT_ADDRESS, PROCEED_ADDRESS
from ..wam.instructions import Instr
from ..wam.machine import Machine
from .aheap import ABS, deref
from .aunify import (
    _growth_can_share,
    complex_term_inst,
    register_growth_sharing,
    s_unify,
)
from .builtins import ABSTRACT_BUILTINS
from .patterns import (
    Pattern,
    abstract_cells,
    cell_share_pairs,
    collect_share_points,
    materialize_pattern,
    node_is_ground,
    pattern_subsumes,
)
from .table import ExtensionTable, TableEntry


class ExplorationFrame:
    """One open predicate activation: a clause enumerator plus ET state."""

    __slots__ = (
        "indicator",
        "calling",
        "entry",
        "original_args",
        "materialized",
        "clause_addresses",
        "clause_index",
        "ret",
        "e",
        "trail_mark",
        "heap_mark_pre",
        "heap_mark_post",
    )

    def __init__(
        self,
        indicator: Indicator,
        calling: Pattern,
        entry: TableEntry,
        original_args: Tuple[Cell, ...],
        ret: int,
        e,
        trail_mark: int,
        heap_mark_pre: int,
    ):
        self.indicator = indicator
        self.calling = calling
        self.entry = entry
        self.original_args = original_args
        self.materialized: Tuple[Cell, ...] = ()
        self.clause_addresses: List[int] = []
        self.clause_index = 0
        self.ret = ret
        self.e = e
        self.trail_mark = trail_mark
        self.heap_mark_pre = heap_mark_pre
        self.heap_mark_post = heap_mark_pre


class AbstractMachine(Machine):
    """Reinterprets WAM code over the abstract domain."""

    def __init__(
        self,
        compiled: CompiledProgram,
        table: Optional[ExtensionTable] = None,
        depth: int = DEFAULT_DEPTH,
        list_aware: bool = True,
        subsumption: bool = False,
        on_undefined: str = "error",
        budget=None,
        fault_plan=None,
    ):
        super().__init__(compiled)
        self.table = table if table is not None else ExtensionTable()
        #: Plain counters the driver reports as metrics once the spec is
        #: done (record_metrics): abstract unifications, the exploration
        #: stack's peak depth, and per predicate how often its frame ran
        #: the shared service proceed (which no predicate's code owns).
        self.unify_calls = 0
        self.frames_peak = 0
        self.service_proceeds: Dict[Indicator, int] = {}
        #: Per predicate, how often a sweep ran one of its entries at
        #: the top level (calls no call instruction counts).
        self.top_runs: Dict[Indicator, int] = {}
        #: Resource governance (repro.robust): the budget charges one
        #: "step" per dispatched instruction (plus deadline probes), the
        #: fault plan fires "step"/"unify" sites.  The per-instruction
        #: monitor is installed only when something actually watches it.
        self.budget = budget
        self.fault_plan = fault_plan
        self._unify_fire = (
            fault_plan.fire
            if fault_plan is not None and fault_plan.watches("unify")
            else None
        )
        monitors = []
        if budget is not None and budget.governs_steps:
            monitors.append(budget.charge_step)
        if fault_plan is not None and fault_plan.watches("step"):
            monitors.append(lambda: fault_plan.fire("step"))
        if len(monitors) == 1:
            self.step_monitor = monitors[0]
        elif monitors:
            def _monitor(hooks=tuple(monitors)):
                for hook in hooks:
                    hook()
            self.step_monitor = _monitor
        self.depth = depth
        self.list_aware = list_aware
        #: Reuse the summary of a more general explored pattern instead of
        #: exploring a new one (classic OLDT subsumption; coarser results,
        #: smaller tables).
        self.subsumption = subsumption
        self.subsumption_hits = 0
        #: Policy for calls to predicates with no clauses: "error" (closed
        #: programs, the default), "fail" (assume the call fails — sound
        #: only if the missing code indeed cannot succeed), or "top"
        #: (assume it may succeed binding anything — always sound).
        if on_undefined not in ("error", "fail", "top"):
            raise AnalysisError(
                f"on_undefined must be error/fail/top, not {on_undefined!r}"
            )
        self.on_undefined = on_undefined
        self.iteration = 0
        self.frames: List[ExplorationFrame] = []
        #: Every entry whose frame has closed, in the order of its last
        #: close (callees before their callers), with its predicate.
        self.closed: Dict[TableEntry, Indicator] = {}
        self.abstract_builtins = ABSTRACT_BUILTINS

    # ------------------------------------------------------------------
    # Abstract unification chokepoint (the "unify" fault site).

    def _s_unify(self, left: Cell, right: Cell) -> bool:
        if self._unify_fire is not None:
            self._unify_fire("unify")
        self.unify_calls += 1
        return s_unify(self.heap, left, right)

    # ------------------------------------------------------------------
    # Fixpoint sweeps.

    def sweep(self, indicator: Indicator, calling: Pattern) -> None:
        """Run one fixpoint sweep for an entry calling pattern.

        The first sweep runs the entry itself and explores everything it
        reaches.  Each later sweep re-runs, each from its own calling
        pattern, only the explored entries still dirty, in the order
        their frames last closed (callees first); a call to a clean
        entry explored in an earlier sweep is answered from the table.
        An entry this sweep has already re-run as someone's callee waits
        for the next sweep.
        """
        if not self.iteration:
            self.run_pattern(indicator, calling)
            return
        self.iteration += 1
        for entry, owner in list(self.closed.items()):
            if entry.dirty and entry.explored_iteration < self.iteration:
                self._run(owner, entry.calling)

    def pending(self) -> int:
        """How many explored entries are dirty: what the next sweep
        re-runs.  The fixpoint is reached when none is."""
        return sum(entry.dirty for entry in self.closed)

    def run_pattern(self, indicator: Indicator, calling: Pattern) -> None:
        """Run a new sweep from one entry calling pattern."""
        self.iteration += 1
        self._run(indicator, calling)

    def _run(self, indicator: Indicator, calling: Pattern) -> None:
        self.top_runs[indicator] = self.top_runs.get(indicator, 0) + 1
        self.frames.clear()
        self.e = None
        self.pc = HALT_ADDRESS
        trail_mark = self.heap.trail_mark()
        heap_mark = self.heap.top
        try:
            arity = indicator[1]
            cells = materialize_pattern(self.heap, calling)
            for position, cell in enumerate(cells, start=1):
                self.set_x(position, cell)
            self.num_args = arity
            if self._do_call(indicator, HALT_ADDRESS) == "fail":
                if not self.backtrack():
                    return
            self._run_to_event()
        finally:
            # Runs share the table, not the heap: reclaim everything.
            self.heap.undo_to(trail_mark, heap_mark)

    # ------------------------------------------------------------------
    # The control scheme (call / execute / proceed / backtrack).

    def _call(self, instruction: Instr):
        predicate, live = instruction.args
        self._trim_environment(live)
        return self._do_call(predicate, self.pc + 1)

    def _execute(self, instruction: Instr):
        # call followed by proceed: the continuation is the service
        # proceed, which will run updateET for the *current* frame.
        return self._do_call(instruction.args[0], PROCEED_ADDRESS)

    def _do_call(self, indicator: Indicator, ret: int):
        arity = indicator[1]
        args = tuple(self.x[1 : arity + 1])
        calling = abstract_cells(self.heap, args, self.depth, self.list_aware)
        if self.tracer is not None:
            self.tracer.event(
                f"call {format_indicator(indicator)}{calling}"
            )
        existing = self.table.find(indicator, calling)
        if existing is not None and self._settled(existing):
            # Return the recorded summary, or fail if none is known yet.
            if self.tracer is not None:
                summary = existing.success if existing.success else "no success yet"
                self.tracer.event(f"  table hit -> {summary}")
            return self._apply_success(existing, args, ret)
        if self.subsumption and existing is None:
            subsumer = self._find_subsumer(indicator, calling)
            if subsumer is not None:
                self.subsumption_hits += 1
                if self.tracer is not None:
                    self.tracer.event(
                        f"  subsumed by {subsumer.calling}"
                    )
                return self._apply_success(subsumer, args, ret)
        entry = self.table.entry(indicator, calling)
        entry.explored_iteration = self.iteration
        entry.dirty = False
        clause_addresses = self.compiled.clause_entries(indicator)
        if not clause_addresses:
            if self.compiled.code.entry.get(indicator) is None:
                if self.on_undefined == "error":
                    raise PrologError(
                        "existence_error",
                        f"unknown predicate {format_indicator(indicator)}",
                    )
                if self.on_undefined == "fail":
                    return "fail"
                # "top": the unknown predicate may succeed with anything
                # and alias any pair of its arguments; record a top
                # success pattern so callers see `any`.
                self.table.update(
                    indicator, calling,
                    top_success_pattern(arity), all_share_pairs(arity),
                )
                return self._apply_success(entry, args, ret)
            return self._apply_success(entry, args, ret)
        frame = ExplorationFrame(
            indicator=indicator,
            calling=calling,
            entry=entry,
            original_args=args,
            ret=ret,
            e=self.e,
            trail_mark=self.heap.trail_mark(),
            heap_mark_pre=self.heap.top,
        )
        frame.materialized = tuple(materialize_pattern(self.heap, calling))
        frame.heap_mark_post = self.heap.top
        frame.clause_addresses = clause_addresses
        self.frames.append(frame)
        if len(self.frames) > self.frames_peak:
            self.frames_peak = len(self.frames)
        self._enter_clause(frame)

    def _settled(self, entry: TableEntry) -> bool:
        """Whether a call may take ``entry``'s summary from the table:
        it was explored in this sweep (or is in progress), or explored
        in an earlier one and is clean."""
        explored = entry.explored_iteration
        return explored == self.iteration or (explored > 0 and not entry.dirty)

    def _find_subsumer(self, indicator: Indicator, calling: Pattern):
        """A settled entry whose calling pattern covers ``calling``."""
        best = None
        for entry in self.table.entries_for(indicator):
            if not self._settled(entry):
                continue
            if entry.calling == calling:
                continue
            if not pattern_subsumes(entry.calling, calling):
                continue
            if best is None or pattern_subsumes(best.calling, entry.calling):
                best = entry  # prefer the most specific subsumer
        return best

    def _enter_clause(self, frame: ExplorationFrame) -> None:
        for position, cell in enumerate(frame.materialized, start=1):
            self.set_x(position, cell)
        self.num_args = len(frame.materialized)
        self.e = frame.e
        self.pc = frame.clause_addresses[frame.clause_index]

    def _apply_success(
        self, entry: TableEntry, args: Tuple[Cell, ...], ret: int
    ):
        """``lookupET``: unify the summarized success pattern back into the
        caller's arguments; fail when no success is recorded.  The
        innermost open frame's entry (none at the top level) becomes a
        reader of ``entry``."""
        if self.frames:
            entry.readers.add(self.frames[-1].entry)
        if entry.success is None:
            return "fail"
        success_cells = materialize_pattern(self.heap, entry.success)
        for caller_cell, success_cell in zip(args, success_cells):
            if not self._s_unify(caller_cell, success_cell):
                return "fail"
        # Aliasing the success pattern could not express: merge the
        # affected arguments' share points in the heap's sharing component.
        if entry.may_share:
            points_by_position: dict = {}
            for left_pos, right_pos in entry.may_share:
                if left_pos >= len(args) or right_pos >= len(args):
                    continue
                for position in (left_pos, right_pos):
                    if position not in points_by_position:
                        points: set = set()
                        collect_share_points(self.heap, args[position], points)
                        points_by_position[position] = points
                merged = points_by_position[left_pos] | points_by_position[right_pos]
                merged_list = list(merged)
                for point in merged_list[1:]:
                    self.heap.share_union(merged_list[0], point)
        self.pc = ret
        return None

    def _proceed(self, instruction: Instr):
        if not self.frames:
            # A proceed with no open exploration: only the initial state;
            # treat as overall success of the pass.
            return "halt"
        frame = self.frames[-1]
        if self.pc == PROCEED_ADDRESS:
            self.service_proceeds[frame.indicator] = (
                self.service_proceeds.get(frame.indicator, 0) + 1
            )
        success = abstract_cells(
            self.heap, frame.materialized, self.depth, self.list_aware
        )
        # A ground argument reaches no share point, so unless two
        # arguments are non-ground no pair can share beyond the pattern.
        if sum(not node_is_ground(node) for node in success.args) > 1:
            extra_share = cell_share_pairs(self.heap, frame.materialized)
        else:
            extra_share = frozenset()
        changed = self.table.update(
            frame.indicator, frame.calling, success, extra_share
        )
        if self.tracer is not None:
            marker = "" if changed else " (no change)"
            self.tracer.event(
                f"updateET {format_indicator(frame.indicator)}"
                f"{frame.calling} <- {success}{marker}; fail to next clause"
            )
        return "fail"  # drive the next clause (Figure 5)

    def backtrack(self) -> bool:
        """Fail into the innermost exploration frame."""
        while self.frames:
            frame = self.frames[-1]
            self.heap.undo_to(frame.trail_mark, frame.heap_mark_post)
            self.e = frame.e
            frame.clause_index += 1
            if frame.clause_index < len(frame.clause_addresses):
                self._enter_clause(frame)
                return True
            # Clauses exhausted: lookupET and return deterministically.
            self.frames.pop()
            self.closed.pop(frame.entry, None)
            self.closed[frame.entry] = frame.indicator
            self.heap.undo_to(frame.trail_mark, frame.heap_mark_pre)
            if self.tracer is not None:
                summary = (
                    frame.entry.success
                    if frame.entry.success
                    else "FAIL"
                )
                self.tracer.event(
                    f"lookupET {format_indicator(frame.indicator)}"
                    f"{frame.calling} -> {summary}"
                )
            outcome = self._apply_success(
                frame.entry, frame.original_args, frame.ret
            )
            if outcome is None:
                return True
            # No success (or incompatible): keep failing outwards.
        return False

    # ------------------------------------------------------------------
    # Unification instructions over the abstract domain.

    def _subterm_cell(self) -> Cell:
        """The cell at S, as something holding its address when mutable."""
        cell = self.heap.cells[self.s]
        if cell[0] == ABS:
            return (REF, self.s)
        return cell

    def _get_constant_cell(self, constant, cell: Cell):
        if self._s_unify((CON, constant), cell):
            return None
        return "fail"

    def _get_value(self, instruction: Instr):
        register, position = instruction.args
        if not self._s_unify(self.get_reg(register), self.get_x(position)):
            return "fail"
        self.pc += 1

    def _get_list(self, instruction: Instr):
        register = instruction.args[0]
        cell, address = deref(self.heap, self.get_reg(register))
        tag = cell[0]
        if tag == REF:
            self.heap.set_cell(address, (LIS, self.heap.top))  # type: ignore[arg-type]
            self.mode = "write"
        elif tag == LIS:
            self.s = cell[1]  # type: ignore[assignment]
            self.mode = "read"
        elif tag == STR and self.heap.cells[cell[1]][1] == (".", 2):  # type: ignore[index]
            self.s = cell[1] + 1  # type: ignore[assignment]
            self.mode = "read"
        elif tag == ABS:
            sort, elem = cell[1]  # type: ignore[misc]
            instance = complex_term_inst(self.heap, sort, elem, (".", 2))
            if instance is None:
                return "fail"
            self.heap.set_cell(address, instance)  # type: ignore[arg-type]
            if _growth_can_share(sort, elem):
                register_growth_sharing(self.heap, address, instance)  # type: ignore[arg-type]
            self.s = instance[1]  # type: ignore[assignment]
            self.mode = "read"
        else:
            return "fail"
        self.pc += 1

    def _get_structure(self, instruction: Instr):
        functor, register = instruction.args
        cell, address = deref(self.heap, self.get_reg(register))
        tag = cell[0]
        if tag == REF:
            functor_address = self.heap.push((FUN, functor))
            self.heap.set_cell(address, (STR, functor_address))  # type: ignore[arg-type]
            self.mode = "write"
        elif tag == STR:
            if self.heap.cells[cell[1]][1] != functor:  # type: ignore[index]
                return "fail"
            self.s = cell[1] + 1  # type: ignore[assignment]
            self.mode = "read"
        elif tag == LIS:
            if functor != (".", 2):
                return "fail"
            self.s = cell[1]  # type: ignore[assignment]
            self.mode = "read"
        elif tag == ABS:
            sort, elem = cell[1]  # type: ignore[misc]
            instance = complex_term_inst(self.heap, sort, elem, functor)
            if instance is None:
                return "fail"
            self.heap.set_cell(address, instance)  # type: ignore[arg-type]
            if _growth_can_share(sort, elem):
                register_growth_sharing(self.heap, address, instance)  # type: ignore[arg-type]
            if instance[0] == LIS:
                self.s = instance[1]  # type: ignore[assignment]
            else:
                self.s = instance[1] + 1  # type: ignore[assignment]
            self.mode = "read"
        else:
            return "fail"
        self.pc += 1

    def _unify_variable(self, instruction: Instr):
        register = instruction.args[0]
        if self.mode == "read":
            self.set_reg(register, self._subterm_cell())
            self.s += 1
        else:
            self.set_reg(register, self.heap.new_var())
        self.pc += 1

    def _unify_value(self, instruction: Instr):
        register = instruction.args[0]
        if self.mode == "read":
            if not self._s_unify(self.get_reg(register), self._subterm_cell()):
                return "fail"
            self.s += 1
        else:
            self.heap.push(self.get_reg(register))
        self.pc += 1

    def _unify_constant(self, instruction: Instr):
        constant = instruction.args[0]
        if self.mode == "read":
            if not self._s_unify((CON, constant), self._subterm_cell()):
                return "fail"
            self.s += 1
        else:
            self.heap.push((CON, constant))
        self.pc += 1

    def _unify_nil(self, instruction: Instr):
        if self.mode == "read":
            if not self._s_unify((CON, NIL), self._subterm_cell()):
                return "fail"
            self.s += 1
        else:
            self.heap.push((CON, NIL))
        self.pc += 1

    # ------------------------------------------------------------------
    # Builtins and cut.

    def _builtin(self, instruction: Instr):
        predicate = instruction.args[0]
        handler = self.abstract_builtins.get(predicate)
        if handler is None:
            raise AnalysisError(
                f"no abstract builtin for {format_indicator(predicate)}"
            )
        if not handler(self):
            return "fail"
        self.pc += 1

    def _neck_cut(self, instruction: Instr):
        # Sound no-op: the analysis explores all clauses regardless.
        self.pc += 1

    def _get_level(self, instruction: Instr):
        register = instruction.args[0]
        assert self.e is not None
        self.e.slots[register.index - 1] = ("lvl", None)
        self.pc += 1

    def _cut(self, instruction: Instr):
        self.pc += 1

    # ------------------------------------------------------------------
    # Indexing instructions must never run in the abstract machine.

    def _unexpected(self, instruction: Instr):
        raise AnalysisError(
            f"indexing instruction reached the abstract machine: "
            f"{instruction.op} at {self.pc}"
        )

    _try_me_else = _unexpected
    _retry_me_else = _unexpected
    _trust_me = _unexpected
    _try = _unexpected
    _retry = _unexpected
    _trust = _unexpected
    _switch_on_term = _unexpected
    _switch_on_constant = _unexpected
    _switch_on_structure = _unexpected


AbstractMachine.DISPATCH = {
    **Machine.DISPATCH,
    "get_value": AbstractMachine._get_value,
    "get_constant": Machine._get_constant,  # via the overridden cell helper
    "get_nil": Machine._get_nil,
    "get_list": AbstractMachine._get_list,
    "get_structure": AbstractMachine._get_structure,
    "unify_variable": AbstractMachine._unify_variable,
    "unify_value": AbstractMachine._unify_value,
    "unify_constant": AbstractMachine._unify_constant,
    "unify_nil": AbstractMachine._unify_nil,
    "call": AbstractMachine._call,
    "execute": AbstractMachine._execute,
    "proceed": AbstractMachine._proceed,
    "builtin": AbstractMachine._builtin,
    "neck_cut": AbstractMachine._neck_cut,
    "get_level": AbstractMachine._get_level,
    "cut": AbstractMachine._cut,
    "try_me_else": AbstractMachine._unexpected,
    "retry_me_else": AbstractMachine._unexpected,
    "trust_me": AbstractMachine._unexpected,
    "try": AbstractMachine._unexpected,
    "retry": AbstractMachine._unexpected,
    "trust": AbstractMachine._unexpected,
    "switch_on_term": AbstractMachine._unexpected,
    "switch_on_constant": AbstractMachine._unexpected,
    "switch_on_structure": AbstractMachine._unexpected,
}
