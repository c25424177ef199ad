"""WAM bytecode verifier: a forward dataflow pass over compiled code.

For each predicate in a linked :class:`~repro.wam.code.CodeArea` the
verifier solves a forward dataflow problem on the predicate's control
flow graph (built by :mod:`repro.lint.dataflow`, the same framework the
optimizer's liveness/determinacy passes run on), tracking an abstract
register file per address:

* which X registers hold a value (argument registers ``X1..Xn`` are live on
  entry; a ``call`` kills every temporary);
* whether an environment is allocated, how many Y slots it has, which
  slots have been initialized, and which were trimmed away by a ``call``'s
  live-slot count;
* whether ``deallocate`` already ran (any Y access after that is the
  classic ``put_unsafe_value`` omission: the slot may be overwritten
  before ``execute`` reads it).

States from different paths are merged by intersection, so every
diagnostic holds on *some* path the machine can actually take.  Fresh
edges (backtracking restarts — see the dataflow module) re-enter with
the entry state, exactly like the machine restoring argument registers
from a choice point.  The verifier is a regression net over the compiler
*and* the optimizer: on compiler-emitted code it must stay silent (see
``tests/test_lint_verifier.py``), every optimized code area must stay
verifier-clean (``repro.opt.validate``), while hand-assembled bad
sequences trigger the ``E1xx`` codes below.

Every message names the owning predicate and the absolute listing
address, so diagnostics are directly cross-referenceable against
:func:`repro.wam.listing.disassemble` output.

Codes:

* ``E101`` — X register read before it was written;
* ``E102`` — Y register access with no allocated environment (or beyond
  the environment's slot count);
* ``E103`` — Y register read before initialization, including slots
  trimmed away by an earlier ``call``;
* ``E104`` — Y register access after ``deallocate`` (``put_unsafe_value``
  omission);
* ``E105`` — branch target escapes the predicate's code region;
* ``E106`` — control can fall through the end of the predicate (missing
  ``execute``/``proceed``);
* ``E107`` — environment bookkeeping error (double ``allocate``,
  ``deallocate`` without an environment, ``execute``/``proceed`` with the
  environment still allocated, inconsistent states at a merge point);
* ``E108`` — unknown opcode (not part of the machine's instruction set).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..prolog.terms import Indicator, format_indicator
from ..wam.code import CodeArea
from ..wam.instructions import ALL_OPS, Instr, Reg, base_op
from ..wam.listing import format_instruction
from .dataflow import build_cfg, predicate_regions, solve_forward
from .diagnostics import Diagnostic


@dataclass(frozen=True)
class _State:
    """Abstract register file at one program point."""

    x: FrozenSet[int]
    #: slot count of the live environment, or None.
    env: Optional[int]
    y: FrozenSet[int]
    #: True after ``deallocate`` (environment gone for good on this path).
    freed: bool


def _merge(a: _State, b: _State) -> Tuple[_State, bool]:
    """Intersection merge; the flag reports an environment mismatch."""
    mismatch = a.env != b.env or a.freed != b.freed
    env = a.env if a.env == b.env else None
    freed = a.freed and b.freed
    return _State(a.x & b.x, env, a.y & b.y, freed), mismatch


class _PredicateVerifier:
    """Verifies one predicate's code region as a forward dataflow client."""

    def __init__(
        self,
        code: CodeArea,
        indicator: Indicator,
        start: int,
        end: int,
        file: str,
        position: Optional[Tuple[int, int]],
    ):
        self.code = code
        self.indicator = indicator
        self.start = start
        self.end = end
        self.file = file
        self.position = position
        self.arity = indicator[1]
        self.entry_state = _State(
            x=frozenset(range(1, self.arity + 1)),
            env=None,
            y=frozenset(),
            freed=False,
        )
        self.cfg = build_cfg(code, indicator, start, end)
        self.findings: Set[Tuple[str, int, str]] = set()

    # ------------------------------------------------------------------
    # Reporting.

    def _report(self, code: str, address: int, message: str) -> None:
        instruction = self.code.at(address)
        self.findings.add(
            (
                code,
                address,
                f"{message} (in {format_indicator(self.indicator)} "
                f"at {address}: {format_instruction(instruction)})",
            )
        )

    def diagnostics(self) -> List[Diagnostic]:
        return [
            Diagnostic(
                code=code,
                severity="error",
                message=message,
                file=self.file,
                position=self.position,
                predicate=self.indicator,
            )
            for code, _, message in sorted(self.findings, key=lambda f: (f[1], f[0]))
        ]

    # ------------------------------------------------------------------
    # The solve.

    def run(self) -> List[Diagnostic]:
        solve_forward(
            self.cfg,
            self.entry_state,
            self._transfer,
            _merge,
            on_merge_conflict=lambda address, _: self._report(
                "E107", address, "inconsistent environment state at merge point"
            ),
        )
        return self.diagnostics()

    # ------------------------------------------------------------------
    # Register accesses.

    def _read_x(self, address: int, index: int, x: Set[int]) -> None:
        if index not in x:
            self._report(
                "E101", address, f"X{index} read before it was written"
            )
            x.add(index)  # suppress cascading reports downstream

    def _access_y(
        self, address: int, index: int, state: _State, y: Set[int], write: bool
    ) -> None:
        if state.freed:
            self._report(
                "E104",
                address,
                f"Y{index} accessed after deallocate "
                "(put_unsafe_value omission)",
            )
            return
        if state.env is None or index > state.env:
            where = (
                "with no allocated environment"
                if state.env is None
                else f"beyond the environment's {state.env} slot(s)"
            )
            self._report("E102", address, f"Y{index} accessed {where}")
            return
        if write:
            y.add(index)
        elif index not in y:
            self._report(
                "E103",
                address,
                f"Y{index} read before initialization "
                "(or after being trimmed away)",
            )
            y.add(index)

    def _touch_reg(
        self,
        address: int,
        register: Reg,
        state: _State,
        x: Set[int],
        y: Set[int],
        write: bool,
    ) -> None:
        if register.kind == "x":
            if write:
                x.add(register.index)
            else:
                self._read_x(address, register.index, x)
        else:
            self._access_y(address, register.index, state, y, write)

    # ------------------------------------------------------------------
    # Transfer function.

    def _transfer(
        self, address: int, instruction: Instr, state: _State
    ) -> Optional[_State]:
        raw_op = instruction.op
        args = instruction.args
        if raw_op not in ALL_OPS or raw_op == "label":
            self._report("E108", address, f"unknown opcode {raw_op!r}")
            return None
        # Specialized opcodes have their base's dataflow behavior.
        op = base_op(raw_op)

        for target in self.cfg.escapes.get(address, []):
            self._report(
                "E105",
                address,
                f"branch target {target} escapes the code region "
                f"{self.start}..{self.end - 1}",
            )
        if address in self.cfg.falls_off:
            self._report(
                "E106",
                address,
                "control falls through the end of the predicate "
                "(missing execute/proceed)",
            )

        x = set(state.x)
        y = set(state.y)

        if op in ("put_variable", "get_variable", "get_value", "put_value"):
            register, position = args
            if op == "get_variable":
                self._read_x(address, position, x)
                self._touch_reg(address, register, state, x, y, write=True)
            elif op == "get_value":
                self._touch_reg(address, register, state, x, y, write=False)
                self._read_x(address, position, x)
            elif op == "put_value":
                self._touch_reg(address, register, state, x, y, write=False)
                x.add(position)
            else:  # put_variable writes both
                self._touch_reg(address, register, state, x, y, write=True)
                x.add(position)
            return replace(state, x=frozenset(x), y=frozenset(y))

        if op in ("put_constant", "put_nil"):
            x.add(args[-1])
            return replace(state, x=frozenset(x))
        if op in ("get_constant", "get_nil"):
            self._read_x(address, args[-1], x)
            return replace(state, x=frozenset(x))
        if op in ("put_list", "put_structure"):
            self._touch_reg(address, args[-1], state, x, y, write=True)
            return replace(state, x=frozenset(x), y=frozenset(y))
        if op in ("get_list", "get_structure"):
            self._touch_reg(address, args[-1], state, x, y, write=False)
            return replace(state, x=frozenset(x), y=frozenset(y))
        if op == "unify_variable":
            self._touch_reg(address, args[0], state, x, y, write=True)
            return replace(state, x=frozenset(x), y=frozenset(y))
        if op == "unify_value":
            self._touch_reg(address, args[0], state, x, y, write=False)
            return replace(state, x=frozenset(x), y=frozenset(y))
        if op in ("unify_constant", "unify_nil", "unify_void"):
            return state

        if op == "allocate":
            if state.env is not None:
                self._report(
                    "E107", address, "allocate with an environment already allocated"
                )
            return _State(x=frozenset(x), env=args[0], y=frozenset(), freed=False)
        if op == "deallocate":
            if state.env is None:
                self._report(
                    "E107", address, "deallocate without an allocated environment"
                )
            return _State(x=frozenset(x), env=None, y=frozenset(), freed=True)
        if op == "call":
            predicate, live = args
            for index in range(1, predicate[1] + 1):
                self._read_x(address, index, x)
            survivors = frozenset(s for s in y if s <= live) if state.env else frozenset()
            return replace(state, x=frozenset(), y=survivors)
        if op == "execute":
            predicate = args[0]
            for index in range(1, predicate[1] + 1):
                self._read_x(address, index, x)
            if state.env is not None:
                self._report(
                    "E107", address, "execute with the environment still allocated"
                )
            return None
        if op == "proceed":
            if state.env is not None:
                self._report(
                    "E107", address, "proceed with the environment still allocated"
                )
            return None
        if op == "builtin":
            predicate = args[0]
            for index in range(1, predicate[1] + 1):
                self._read_x(address, index, x)
            return replace(state, x=frozenset(x))
        if op == "neck_cut":
            return state
        if op == "get_level":
            self._access_y(address, args[0].index, state, y, write=True)
            return replace(state, y=frozenset(y))
        if op == "cut":
            self._access_y(address, args[0].index, state, y, write=False)
            return replace(state, y=frozenset(y))
        if op in ("fail", "halt"):
            return None

        if op in (
            "try_me_else",
            "retry_me_else",
            "trust_me",
            "try",
            "retry",
            "trust",
            "switch_on_term",
            "switch_on_constant",
            "switch_on_structure",
        ):
            # Control effects (fresh restarts, dispatch) live entirely in
            # the CFG's edges; the register file is untouched.
            return state

        raise AssertionError(f"unhandled opcode {op}")  # pragma: no cover


#: Backward-compatible alias; the implementation moved to repro.lint.dataflow.
_predicate_ranges = predicate_regions


def verify_code(
    code: CodeArea,
    file: str = "?",
    positions: Optional[Dict[Indicator, Tuple[int, int]]] = None,
) -> List[Diagnostic]:
    """Verify every predicate of a linked code area.

    ``positions`` maps indicators to source positions (first clause of the
    predicate) so diagnostics carry a ``file:line`` location.
    """
    positions = positions or {}
    diagnostics: List[Diagnostic] = []
    for indicator, start, end in predicate_regions(code):
        verifier = _PredicateVerifier(
            code, indicator, start, end, file, positions.get(indicator)
        )
        diagnostics.extend(verifier.run())
    return diagnostics


def verify_compiled(
    compiled, file: str = "?", program=None
) -> List[Diagnostic]:
    """Verify a :class:`~repro.wam.compile.CompiledProgram`'s code area.

    Diagnostics are located by ``program``'s clauses (default
    ``compiled.program``): a caller whose text shares ``compiled`` with
    an earlier text of the same program passes its own parse.
    """
    if program is None:
        program = compiled.program
    positions: Dict[Indicator, Tuple[int, int]] = {}
    for indicator, predicate in program.predicates.items():
        for clause in predicate.clauses:
            if clause.position is not None:
                positions[indicator] = clause.position
                break
    return verify_code(compiled.code, file=file, positions=positions)
