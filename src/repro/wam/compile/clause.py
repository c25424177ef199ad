"""Compilation of a single clause to WAM instructions.

Head arguments compile to ``get``/``unify`` sequences processed breadth
first (exactly the order shown in Figure 2 of the paper: all subterms of
one level are unified before descending), body goal arguments compile to
``put``/``unify`` sequences built bottom-up, and the procedural skeleton
implements environments, last-call optimization and cut.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Set, Tuple

from ...errors import CompileError
from ...prolog.program import Clause
from ...prolog.terms import (
    NIL,
    Atom,
    Float,
    Int,
    Struct,
    Term,
    Var,
    indicator_of,
    is_cons,
)
from .. import instructions as ins
from ..instructions import Instr, Reg, xreg, yreg
from .classify import ClauseAnalysis, VarUse, analyze_clause


class CompilerOptions:
    """Switches for the code generator.

    ``indexing`` enables first-argument ``switch_on_term`` dispatch;
    ``environment_trimming`` makes ``call`` carry the live-slot count so
    environments shrink as permanents die (the paper notes trimming is
    overkill for the *abstract* machine — the ablation benchmark measures
    that claim).
    """

    def __init__(self, indexing: bool = True, environment_trimming: bool = True):
        self.indexing = indexing
        self.environment_trimming = environment_trimming


class ClauseEmitter:
    """Generates the instruction list for one analyzed clause."""

    def __init__(self, analysis: ClauseAnalysis, options: CompilerOptions):
        self.analysis = analysis
        self.options = options
        self.code: List[Instr] = []
        self.next_temp = analysis.temp_start
        self._seen: Set[int] = set()

    # ------------------------------------------------------------------
    # Register helpers.

    def _fresh_temp(self) -> Reg:
        register = xreg(self.next_temp)
        self.next_temp += 1
        return register

    def _register_of(self, variable: Var) -> Reg:
        use = self.analysis.use(variable)
        if use.register is None:
            use.register = self._fresh_temp()
        return use.register

    def _first_occurrence(self, variable: Var) -> bool:
        if id(variable) in self._seen:
            return False
        self._seen.add(id(variable))
        return True

    # ------------------------------------------------------------------
    # Head compilation (get/unify, read side).

    def emit_head(self, head: Term) -> None:
        if isinstance(head, Atom):
            return
        assert isinstance(head, Struct)
        queue: Deque[Tuple[Reg, Struct]] = deque()
        for position, argument in enumerate(head.args, start=1):
            self._emit_head_argument(argument, position, queue)
        while queue:
            register, term = queue.popleft()
            self._emit_get_compound(term, register, queue)

    def _emit_head_argument(
        self, argument: Term, position: int, queue: Deque[Tuple[Reg, Struct]]
    ) -> None:
        if isinstance(argument, Var):
            if argument.name == "_":
                return
            register = self._register_of(argument)
            if self._first_occurrence(argument):
                self.code.append(ins.get_variable(register, position))
            else:
                self.code.append(ins.get_value(register, position))
            return
        if argument == NIL:
            self.code.append(ins.get_nil(position))
            return
        if isinstance(argument, (Atom, Int, Float)):
            self.code.append(ins.get_constant(argument, position))
            return
        assert isinstance(argument, Struct)
        self._emit_get_compound(argument, xreg(position), queue, top=True)

    def _emit_get_compound(
        self,
        term: Struct,
        register: Reg,
        queue: Deque[Tuple[Reg, Struct]],
        top: bool = False,
    ) -> None:
        if is_cons(term):
            self.code.append(ins.get_list(register))
        else:
            self.code.append(ins.get_structure(term.indicator, register))
        self._emit_unify_arguments(term.args, queue)

    def _emit_unify_arguments(
        self, arguments: Tuple[Term, ...], queue: Deque[Tuple[Reg, Struct]]
    ) -> None:
        void_run = 0

        def flush_void() -> None:
            nonlocal void_run
            if void_run:
                self.code.append(ins.unify_void(void_run))
                void_run = 0

        for argument in arguments:
            if isinstance(argument, Var):
                if argument.name == "_":
                    void_run += 1
                    continue
                flush_void()
                register = self._register_of(argument)
                if self._first_occurrence(argument):
                    self.code.append(ins.unify_variable(register))
                else:
                    self.code.append(ins.unify_value(register))
                continue
            flush_void()
            if argument == NIL:
                self.code.append(ins.unify_nil())
            elif isinstance(argument, (Atom, Int, Float)):
                self.code.append(ins.unify_constant(argument))
            else:
                assert isinstance(argument, Struct)
                temp = self._fresh_temp()
                self.code.append(ins.unify_variable(temp))
                queue.append((temp, argument))
        flush_void()

    # ------------------------------------------------------------------
    # Body goal argument loading (put/unify, write side).

    def emit_goal_arguments(self, goal: Term) -> None:
        if isinstance(goal, Atom):
            return
        assert isinstance(goal, Struct)
        for position, argument in enumerate(goal.args, start=1):
            self._emit_put_argument(argument, position)

    def _emit_put_argument(self, argument: Term, position: int) -> None:
        if isinstance(argument, Var):
            if argument.name == "_":
                self.code.append(ins.put_variable(self._fresh_temp(), position))
                return
            register = self._register_of(argument)
            if self._first_occurrence(argument):
                self.code.append(ins.put_variable(register, position))
            else:
                self.code.append(ins.put_value(register, position))
            return
        if argument == NIL:
            self.code.append(ins.put_nil(position))
            return
        if isinstance(argument, (Atom, Int, Float)):
            self.code.append(ins.put_constant(argument, position))
            return
        assert isinstance(argument, Struct)
        child_registers = self._build_children(argument)
        if is_cons(argument):
            self.code.append(ins.put_list(xreg(position)))
        else:
            self.code.append(ins.put_structure(argument.indicator, xreg(position)))
        self._emit_write_unify_arguments(argument, child_registers)

    def _build_children(self, term: Struct) -> List[Optional[Reg]]:
        """Build compound subterms into temps, bottom-up; return their regs."""
        registers: List[Optional[Reg]] = []
        for argument in term.args:
            if isinstance(argument, Struct):
                registers.append(self._build_compound(argument))
            else:
                registers.append(None)
        return registers

    def _build_compound(self, term: Struct) -> Reg:
        child_registers = self._build_children(term)
        register = self._fresh_temp()
        if is_cons(term):
            self.code.append(ins.put_list(register))
        else:
            self.code.append(ins.put_structure(term.indicator, register))
        self._emit_write_unify_arguments(term, child_registers)
        return register

    def _emit_write_unify_arguments(
        self, term: Struct, child_registers: List[Optional[Reg]]
    ) -> None:
        for argument, child in zip(term.args, child_registers):
            if child is not None:
                self.code.append(ins.unify_value(child))
                continue
            if isinstance(argument, Var):
                if argument.name == "_":
                    self.code.append(ins.unify_void(1))
                    continue
                register = self._register_of(argument)
                if self._first_occurrence(argument):
                    self.code.append(ins.unify_variable(register))
                else:
                    self.code.append(ins.unify_value(register))
                continue
            if argument == NIL:
                self.code.append(ins.unify_nil())
            else:
                assert isinstance(argument, (Atom, Int, Float))
                self.code.append(ins.unify_constant(argument))

    # ------------------------------------------------------------------
    # The procedural skeleton.

    def emit_clause(self) -> List[Instr]:
        analysis = self.analysis
        clause = analysis.clause
        if analysis.needs_environment:
            self.code.append(ins.allocate(analysis.slot_count))
            if analysis.level_slot is not None:
                self.code.append(ins.get_level(yreg(analysis.level_slot)))
        self.emit_head(clause.head)

        body = clause.body
        kinds = analysis.kinds
        call_index = 0
        tail_call_emitted = False
        for position, (goal, kind) in enumerate(zip(body, kinds)):
            is_last = position == len(body) - 1
            if kind == "cut":
                if analysis.goal_chunks[position] == 0:
                    self.code.append(ins.neck_cut())
                else:
                    assert analysis.level_slot is not None
                    self.code.append(ins.cut(yreg(analysis.level_slot)))
                continue
            if kind == "builtin":
                self.emit_goal_arguments(goal)
                self.code.append(ins.builtin(indicator_of(goal)))
                continue
            # A user predicate call.
            self.emit_goal_arguments(goal)
            if is_last:
                if analysis.needs_environment:
                    self.code.append(ins.deallocate())
                self.code.append(ins.execute(indicator_of(goal)))
                tail_call_emitted = True
            else:
                live = 0
                if self.options.environment_trimming:
                    live = analysis.live_after_call[call_index]
                elif analysis.needs_environment:
                    live = analysis.slot_count
                self.code.append(ins.call(indicator_of(goal), live))
                call_index += 1
        if not tail_call_emitted:
            if analysis.needs_environment:
                self.code.append(ins.deallocate())
            self.code.append(ins.proceed())
        return self.code


def compile_clause(
    clause: Clause, options: Optional[CompilerOptions] = None
) -> List[Instr]:
    """Compile one clause to an instruction list (no chain instructions)."""
    if options is None:
        options = CompilerOptions()
    return ClauseEmitter(analyze_clause(clause), options).emit_clause()
