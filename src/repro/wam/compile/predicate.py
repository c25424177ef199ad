"""Predicate-level code assembly: clause chains and first-argument indexing.

A multi-clause predicate compiles to a ``try_me_else`` / ``retry_me_else``
/ ``trust_me`` chain.  When every clause has a non-variable first argument
(and indexing is enabled), a ``switch_on_term`` dispatcher is placed in
front: constants go through ``switch_on_constant``, list cells to the list
bucket, structures through ``switch_on_structure``.  Buckets with a single
clause jump straight to the clause body (no choice point); larger buckets
use ``try``/``retry``/``trust`` sub-chains over clause-body labels.

The clause-body labels are also recorded in
:class:`~repro.wam.code.PredicateCode.clause_labels` — the abstract machine
enumerates clauses directly through them, as the paper prescribes
("creation and reclamation of backtracking points would better be
incorporated into instructions call and proceed").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ...prolog.program import Predicate
from ...prolog.terms import (
    Atom,
    Float,
    Int,
    Struct,
    Term,
    Var,
    is_cons,
)
from .. import instructions as ins
from ..code import PredicateCode
from ..instructions import Instr, Label
from .clause import CompilerOptions, compile_clause

#: Switch target meaning "no matching clause": the machine backtracks.
FAIL_TARGET = -1


def first_argument_key(head: Term):
    """Dispatch key of a clause head: ``'var'``, ``('const', c)``,
    ``'list'`` or ``('struct', indicator)``."""
    if not isinstance(head, Struct):
        return "var"
    argument = head.args[0]
    if isinstance(argument, Var):
        return "var"
    if is_cons(argument):
        return "list"
    if isinstance(argument, (Atom, Int, Float)):
        return ("const", argument)
    assert isinstance(argument, Struct)
    return ("struct", argument.indicator)


class _PredicateAssembler:
    def __init__(
        self,
        predicate: Predicate,
        options: CompilerOptions,
        force_index: bool = False,
    ):
        self.predicate = predicate
        self.options = options
        #: Optimizer mode: emit a switch even when some clauses have
        #: variable first-argument keys, merging those clauses into every
        #: bucket (in source order) and routing table misses and the
        #: on-variable case to chains that still try them.
        self.force_index = force_index
        self.code: List[Instr] = []
        self.clause_labels = [
            Label(f"c{i}") for i in range(len(predicate.clauses))
        ]
        self._label_counter = 0
        self._subchains: List[Tuple[Label, List[int]]] = []

    def _fresh_label(self, hint: str) -> Label:
        self._label_counter += 1
        return Label(f"{hint}{self._label_counter}")

    # ------------------------------------------------------------------

    def assemble(self) -> PredicateCode:
        clauses = self.predicate.clauses
        compiled = [
            compile_clause(clause, self.options)
            for clause in clauses
        ]
        if len(clauses) == 1:
            self.code.append(ins.label_marker(self.clause_labels[0]))
            self.code.extend(compiled[0])
            return self._finish()

        keys = [first_argument_key(clause.head) for clause in clauses]
        use_switch = self.predicate.arity > 0 and (
            (self.options.indexing and all(key != "var" for key in keys))
            or (self.force_index and any(key != "var" for key in keys))
        )
        main_label = self._fresh_label("chain")
        if use_switch:
            self._emit_switch(keys, main_label)
        self.code.append(ins.label_marker(main_label))
        self._emit_main_chain(compiled)
        self._emit_subchains()
        return self._finish()

    def _finish(self) -> PredicateCode:
        return PredicateCode(
            indicator=self.predicate.indicator,
            instructions=self.code,
            clause_count=len(self.predicate.clauses),
            clause_labels=self.clause_labels,
        )

    # ------------------------------------------------------------------

    def _emit_main_chain(self, compiled: List[List[Instr]]) -> None:
        count = len(compiled)
        chain_labels = [self._fresh_label("t") for _ in range(count)]
        for index, clause_code in enumerate(compiled):
            if index == 0:
                self.code.append(ins.try_me_else(chain_labels[1]))
            elif index < count - 1:
                self.code.append(ins.label_marker(chain_labels[index]))
                self.code.append(ins.retry_me_else(chain_labels[index + 1]))
            else:
                self.code.append(ins.label_marker(chain_labels[index]))
                self.code.append(ins.trust_me())
            self.code.append(ins.label_marker(self.clause_labels[index]))
            self.code.extend(clause_code)

    # ------------------------------------------------------------------

    def _emit_switch(self, keys: List[object], main_label: Label) -> None:
        """First-argument dispatch.

        Variable-keyed clauses (possible only under ``force_index``) can
        match *any* runtime first argument, so they are merged into every
        bucket in source order, table misses fall back to the chain of
        just the variable-keyed clauses (``default`` operand), and the
        on-variable case runs the full main chain.  That makes the
        dispatch unconditionally semantics-preserving: each bucket holds
        exactly the clauses whose head could unify with the dispatched
        argument, in source order.
        """
        var_bucket = [i for i, key in enumerate(keys) if key == "var"]
        constant_buckets: Dict[object, List[int]] = {}
        structure_buckets: Dict[Tuple[str, int], List[int]] = {}
        for index, key in enumerate(keys):
            if isinstance(key, tuple) and key[0] == "const":
                constant_buckets.setdefault(key[1], [])
            elif isinstance(key, tuple) and key[0] == "struct":
                structure_buckets.setdefault(key[1], [])
        for index, key in enumerate(keys):
            for value, bucket in constant_buckets.items():
                if key == ("const", value) or key == "var":
                    bucket.append(index)
            for functor, bucket in structure_buckets.items():
                if key == ("struct", functor) or key == "var":
                    bucket.append(index)
        list_bucket = [
            i for i, key in enumerate(keys) if key in ("list", "var")
        ]

        var_target = self._bucket_target(var_bucket)
        tables: List[Tuple[Label, Instr]] = []

        def table_target(buckets: Dict, op: str) -> Union[Label, int]:
            if not buckets:
                return var_target
            table = {
                key: self._bucket_target(bucket)
                for key, bucket in buckets.items()
            }
            label = self._fresh_label("tbl")
            if op == "switch_on_constant":
                tables.append((label, ins.switch_on_constant(table, var_target)))
            else:
                tables.append((label, ins.switch_on_structure(table, var_target)))
            return label

        constant_target = table_target(constant_buckets, "switch_on_constant")
        if list_bucket == var_bucket:
            list_target = var_target
        else:
            list_target = self._bucket_target(list_bucket)
        structure_target = table_target(structure_buckets, "switch_on_structure")
        self.code.append(
            ins.switch_on_term(
                main_label, constant_target, list_target, structure_target
            )
        )
        for label, instruction in tables:
            self.code.append(ins.label_marker(label))
            self.code.append(instruction)

    def _bucket_target(self, bucket: List[int]) -> Union[Label, int]:
        if not bucket:
            return FAIL_TARGET
        if len(bucket) == 1:
            return self.clause_labels[bucket[0]]
        label = self._fresh_label("sub")
        self._subchains.append((label, bucket))
        return label

    def _emit_subchains(self) -> None:
        for label, bucket in self._subchains:
            self.code.append(ins.label_marker(label))
            self.code.append(ins.try_clause(self.clause_labels[bucket[0]]))
            for index in bucket[1:-1]:
                self.code.append(ins.retry_clause(self.clause_labels[index]))
            self.code.append(ins.trust_clause(self.clause_labels[bucket[-1]]))


def compile_predicate(
    predicate: Predicate,
    options: Optional[CompilerOptions] = None,
    force_index: bool = False,
) -> PredicateCode:
    """Compile all clauses of one predicate, chains and indexing included.

    ``force_index`` is the optimizer's entry point: emit first-argument
    dispatch even when some clauses carry variable keys (they merge into
    every bucket; see :meth:`_PredicateAssembler._emit_switch`).
    """
    if options is None:
        options = CompilerOptions()
    assembler = _PredicateAssembler(predicate, options, force_index=force_index)
    return assembler.assemble()
