"""The fixpoint driver: compile once, iterate the abstract WAM to a fixpoint.

The extension-table scheme needs iterative deepening (paper Section 2.2):
one pass explores every calling pattern once, recording lubbed success
patterns; recursive calls see the previous iteration's summaries.  The
paper re-runs the entry goal until a whole pass leaves the table
unchanged.  This driver iterates by dependency instead: the first sweep
is the paper's first pass, and each later sweep re-runs only the entries
that read a summary which has changed since (dirty entries), callees
first, until no explored entry is dirty — the same least fixpoint
without the closing pass that changes nothing.

Entry calling patterns are written in a small Prolog-ish spec language::

    analyze(text, "nrev(glist, var)")
    analyze(text, "main")                    # arity 0
    analyze(text, "p(any, f(g, X), X)")      # shared variable = aliasing

Argument spec atoms: ``any``, ``nv``, ``g``/``ground``, ``const``,
``atom``, ``int``/``integer``, ``var``, ``[]``; ``<sort>list`` shorthands
(``glist``, ``intlist``, ``anylist``, ...) and ``list(Spec)`` build α-list
types; compound specs build structure skeletons; repeated variables express
must-aliasing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..domain.concrete import DEFAULT_DEPTH
from ..domain.lattice import Tree
from ..domain.sorts import AbsSort
from ..errors import AnalysisError, BudgetExceeded, InjectedFault, ReproError
from ..prolog.parser import parse_term
from ..robust import (
    STATUS_DEGRADED,
    STATUS_EXACT,
    STATUS_FAILED,
    Budget,
)
from ..prolog.program import Program
from ..prolog.terms import (
    NIL,
    Atom,
    Indicator,
    Int,
    Struct,
    Term,
    Var,
    format_indicator,
    indicator_of,
)
from ..wam.compile import CompiledProgram, CompilerOptions, compile_program
from .machine import AbstractMachine
from .patterns import Node, Pattern, canonicalize
from .results import AnalysisResult
from .table import ExtensionTable


@dataclass(frozen=True)
class EntrySpec:
    """A top-level calling pattern to start the analysis from."""

    indicator: Indicator
    pattern: Pattern

    def __str__(self) -> str:
        return f"{self.indicator[0]}{self.pattern}"


_SORT_ATOMS: Dict[str, AbsSort] = {
    "any": AbsSort.ANY,
    "nv": AbsSort.NV,
    "g": AbsSort.GROUND,
    "ground": AbsSort.GROUND,
    "const": AbsSort.CONST,
    "atom": AbsSort.ATOM,
    "int": AbsSort.INTEGER,
    "integer": AbsSort.INTEGER,
    "var": AbsSort.VAR,
}

_LIST_SHORTHANDS: Dict[str, AbsSort] = {
    f"{name}list": sort for name, sort in _SORT_ATOMS.items()
}


def _spec_tree(term: Term) -> Tree:
    """Convert a spec term to a type tree (for inner positions)."""
    node = _spec_node(term, itertools.count(), {})
    from .patterns import node_to_tree

    return node_to_tree(node)


def _spec_node(term: Term, counter, var_ids: Dict[int, int]) -> Node:
    if isinstance(term, Var):
        ident = var_ids.get(id(term))
        if ident is None:
            ident = next(counter)
            var_ids[id(term)] = ident
        return ("i", AbsSort.VAR, ident)
    if term == NIL:
        from ..domain.lattice import EMPTY_T

        return ("li", EMPTY_T, next(counter))
    if isinstance(term, Atom):
        sort = _SORT_ATOMS.get(term.name)
        if sort is not None:
            return ("i", sort, next(counter))
        list_sort = _LIST_SHORTHANDS.get(term.name)
        if list_sort is not None:
            return ("li", ("s", list_sort), next(counter))
        raise AnalysisError(
            f"unknown abstract spec atom {term.name!r} "
            f"(use any/nv/g/const/atom/int/var or <sort>list)"
        )
    if isinstance(term, Int):
        return ("i", AbsSort.INTEGER, next(counter))
    assert isinstance(term, Struct)
    if term.name == "list" and term.arity == 1:
        return ("li", _spec_tree(term.args[0]), next(counter))
    children = tuple(_spec_node(a, counter, var_ids) for a in term.args)
    return ("f", term.name, term.arity, children)


def parse_entry_spec(spec: Union[str, Term, EntrySpec]) -> EntrySpec:
    """Parse an entry spec like ``"nrev(glist, var)"``; anything but
    text, a term or an :class:`EntrySpec` is an :class:`AnalysisError`."""
    if isinstance(spec, EntrySpec):
        return spec
    if isinstance(spec, str):
        term = parse_term(spec)
    elif isinstance(spec, Term):
        term = spec
    else:
        raise AnalysisError(f"entry spec must be text or a term, not {spec!r}")
    if not term.is_callable():
        raise AnalysisError(f"entry spec is not callable: {term}")
    indicator = indicator_of(term)
    counter = itertools.count()
    var_ids: Dict[int, int] = {}
    if isinstance(term, Struct):
        nodes = tuple(_spec_node(a, counter, var_ids) for a in term.args)
    else:
        nodes = ()
    return EntrySpec(indicator, canonicalize(Pattern(nodes)))


#: Fixpoint passes a run without a budget may take before it trips, for
#: the compiled analyzer and the three baselines alike.
MAX_ITERATIONS = 100


#: A known summary to plant before the first pass:
#: (indicator, calling, success, may_share).
Seed = Tuple[Indicator, Pattern, Optional[Pattern], FrozenSet[Tuple[int, int]]]


#: Cap on table entries embedded per ``table_state`` event — a runaway
#: table must not turn the trace file into the bottleneck.
STATE_DUMP_MAX_ENTRIES = 200


class _StateDumper:
    """Emits capped ``table_state`` events for the time-travel viewer.

    One event per fixpoint sweep (``--trace-states N`` bounds the total),
    each carrying a :meth:`ExtensionTable.state_dump` snapshot with the
    *frontier* marked — the entries whose ``updates`` count moved since
    the previous dump, i.e. what this sweep actually touched.  Only ever
    constructed when a tracer is present and ``trace_states > 0``.
    """

    __slots__ = ("remaining", "_last")

    def __init__(self, budget: int):
        self.remaining = budget
        self._last: Dict[str, int] = {}

    def dump(self, tracer, table: ExtensionTable, **attrs) -> None:
        if self.remaining <= 0:
            return
        self.remaining -= 1
        state = table.state_dump(max_entries=STATE_DUMP_MAX_ENTRIES)
        seen: Dict[str, int] = {}
        for entry in state["entries"]:
            key = entry["key"]
            seen[key] = entry["updates"]
            entry["frontier"] = entry["updates"] != self._last.get(key, -1)
        self._last = seen
        tracer.event("table_state", state=state, **attrs)


@dataclass
class EntryReport:
    """How the analysis of one entry spec went.

    ``status`` is ``"exact"`` when the spec reached its fixpoint,
    ``"degraded"`` when a budget trip or injected fault interrupted it
    (its table entries were soundly widened to ⊤), and ``"failed"`` when
    an analysis error did (likewise widened).  ``reason`` carries the
    triggering exception's message for degraded/failed specs.
    """

    spec: EntrySpec
    status: str = STATUS_EXACT
    iterations: int = 0
    reason: Optional[str] = None
    #: Entries planted before the first sweep, from a resumed checkpoint
    #: and from seeds, and the planted entries no sweep reached, which
    #: the result drops (see :meth:`Analyzer.analyze`).  Not part of
    #: ``to_dict``.
    resumed: int = 0
    seeded: int = 0
    dropped: int = 0
    #: Whether the final sweep changed no entry, only confirming the
    #: fixpoint the sweeps before it reached.  Not part of ``to_dict``.
    confirmed: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "entry": str(self.spec),
            "status": self.status,
            "iterations": self.iterations,
            "reason": self.reason,
        }


def record_metrics(
    metrics,
    table: ExtensionTable,
    machine: AbstractMachine,
    report: EntryReport,
    seconds: float,
) -> None:
    """Report the analysis core's plain counters as catalogued metrics.

    The machine and the table only count; this is the one place that
    turns their counters into the names of docs/observability.md.  The
    driver calls it once per entry spec with the spec's table,
    ``machine``, ``report`` and wall time.
    """
    from ..obs.metrics import opcode_class

    metrics.counter("table.lookups").inc(table.lookups)
    metrics.counter("table.hits").inc(table.hits)
    metrics.counter("table.misses").inc(table.lookups - table.hits)
    metrics.counter("table.updates").inc(table.updates)
    metrics.counter("table.widenings").inc(table.widenings)
    metrics.counter("table.entries.created").inc(table.created)
    # Splits from the per-address counts: an address belongs to the
    # predicate whose code region holds it.  The shared service proceed
    # belongs to none, so its runs are charged to the frames that ran
    # it; a sweep's top-level runs are calls too.
    code = machine.code
    by_op: Dict[str, int] = {}
    by_pred: Dict[Indicator, int] = dict(machine.service_proceeds)
    calls: Dict[Indicator, int] = dict(machine.top_runs)
    owner = None
    for address, count in enumerate(machine.address_counts):
        owner = code.owners.get(address, owner)
        if not count:
            continue
        instruction = code.instructions[address]
        by_op[instruction.op] = by_op.get(instruction.op, 0) + count
        if owner is not None:
            by_pred[owner] = by_pred.get(owner, 0) + count
        if instruction.op in ("call", "execute"):
            target = instruction.args[0]
            calls[target] = calls.get(target, 0) + count
    if machine.instruction_count:
        metrics.counter("wam.instructions").inc(machine.instruction_count)
    for op, count in by_op.items():
        metrics.counter("wam.instructions.op", op=op).inc(count)
        metrics.counter(
            "wam.instructions.class", **{"class": opcode_class(op)}
        ).inc(count)
    for name, values in (
        ("analysis.predicate.instructions", by_pred),
        ("analysis.predicate.calls", calls),
    ):
        for indicator, count in values.items():
            if count:
                metrics.counter(
                    name, pred=format_indicator(indicator)
                ).inc(count)
    metrics.counter("analysis.unify.calls").inc(machine.unify_calls)
    metrics.gauge("analysis.frames.peak").set_max(machine.frames_peak)
    metrics.gauge("wam.trail.peak").set_max(machine.heap.trail_peak)
    metrics.counter("analysis.iterations").inc(report.iterations)
    metrics.counter("analysis.specs", status=report.status).inc()
    metrics.histogram("analysis.entry.seconds").observe(seconds)


class Analyzer:
    """Compile a program once, then run analyses against it.

    Resource governance (see :mod:`repro.robust`): pass a ``budget``
    and/or ``fault_plan`` to bound the run.  ``on_budget`` selects what
    happens when a budget trips (or a fault fires) while analyzing one
    entry spec:

    * ``"raise"`` (default) — propagate the exception, as the ungoverned
      analyzer always did;
    * ``"degrade"`` — widen that spec's table entries to ⊤ (sound but
      imprecise), record the spec as ``degraded``/``failed`` in the
      result's ``entry_reports``, and keep analyzing the remaining
      entry specs.

    Entry specs are analyzed in *isolation* — each gets its own
    extension table and abstract machine, and the per-spec tables are
    merged by lub at the end.  This is what makes degradation local:
    a fault while exploring one entry cannot corrupt another entry's
    summaries.  For exact runs the merged table equals the old shared
    -table fixpoint, because each calling pattern's summaries depend
    only on the program and the pattern itself.
    """

    def __init__(
        self,
        program: Union[Program, str, CompiledProgram],
        options: Optional[CompilerOptions] = None,
        depth: int = DEFAULT_DEPTH,
        list_aware: bool = True,
        subsumption: bool = False,
        on_undefined: str = "error",
        budget: Optional[Budget] = None,
        fault_plan=None,
        on_budget: str = "raise",
        metrics=None,
        tracer=None,
        trace_states: int = 0,
    ):
        if on_budget not in ("raise", "degrade"):
            raise ValueError(
                f"on_budget must be 'raise' or 'degrade', not {on_budget!r}"
            )
        if isinstance(program, str):
            program = Program.from_text(program)
        if isinstance(program, CompiledProgram):
            self.compiled = program
        else:
            self.compiled = compile_program(program, options)
        self.depth = depth
        self.list_aware = list_aware
        self.subsumption = subsumption
        self.on_undefined = on_undefined
        self.budget = budget
        self.fault_plan = fault_plan
        self.on_budget = on_budget
        #: repro.obs: an optional MetricsRegistry that each entry spec's
        #: counters are recorded into once the spec is done (see
        #: record_metrics), and an optional span tracer for the
        #: structural layers (entry spec → pass).  Both default to None.
        self.metrics = metrics
        self.tracer = tracer
        #: With a tracer set and ``trace_states > 0``, emit up to that
        #: many per-pass ``table_state`` events (the time-travel data of
        #: docs/tracing.md).  0 — the default — adds nothing to the hot
        #: path beyond the existing tracer None checks.
        self.trace_states = trace_states

    def analyze(
        self,
        entries: Sequence[Union[str, Term, EntrySpec]],
        checkpoint=None,
        resume: Optional[dict] = None,
        seeds: Sequence[Seed] = (),
    ) -> AnalysisResult:
        """Run the fixpoint analysis from the given entry patterns.

        Each entry spec is swept until no entry its sweeps explored is
        dirty (:meth:`AbstractMachine.sweep`); the sweep count is the
        spec's ``iterations``.  ``checkpoint`` is an optional
        :class:`~repro.robust.checkpoint.CheckpointPolicy`: it is
        notified after every sweep (snapshotting on its cadence) and
        flushed with the pre-widening table when a spec degrades, so
        the partial work survives the ⊤-widening that follows.

        ``resume`` is an optional checkpoint snapshot dict (already
        validated with :func:`repro.robust.checkpoint.load` — the
        *caller* owns matching it against this program/config/entries),
        and ``seeds`` are known summaries (the service's cached results
        for unchanged call-graph components).  Both are planted into
        every spec's table as initial contents — resume first, so cache
        data wins ties — and start dirty, so each planted entry runs
        once when a sweep first reaches it.  A planted summary below the
        fixpoint is raised to it and its readers re-run, so resuming an
        intermediate iterate converges to exactly the from-scratch
        result in fewer sweeps.  A planted summary *above* the fixpoint
        survives, sound but coarser: exact answers rest on the validity
        of what is planted, not on this loop.  The result keeps every
        entry some sweep explored and drops the planted entries no
        sweep reached, so summaries the program no longer reaches never
        appear in it.
        """
        specs = [parse_entry_spec(entry) for entry in entries]
        if not specs:
            raise AnalysisError("at least one entry spec is required")
        budget = self.budget
        if budget is None:
            budget = Budget(max_iterations=MAX_ITERATIONS)
        budget.start()
        plan = self.fault_plan
        table = ExtensionTable()  # the merged, ungoverned result table
        reports: List[EntryReport] = []
        iterations = 0
        instructions = 0
        started = time.perf_counter()
        metrics = self.metrics
        tracer = self.tracer
        dumper = (
            _StateDumper(self.trace_states)
            if tracer is not None and self.trace_states > 0
            else None
        )
        for spec in specs:
            spec_table = ExtensionTable(budget=budget, fault_plan=plan)
            report = EntryReport(spec)
            if resume is not None:
                from ..robust.checkpoint import plant

                report.resumed = plant(resume, spec_table, metrics=metrics)
            for indicator, calling, success, may_share in seeds:
                spec_table.seed(indicator, calling, success, may_share)
            report.seeded = len(seeds)
            planted = report.resumed + report.seeded
            machine = AbstractMachine(
                self.compiled, spec_table, depth=self.depth,
                list_aware=self.list_aware, subsumption=self.subsumption,
                on_undefined=self.on_undefined,
                budget=budget, fault_plan=plan,
            )
            spec_started = time.perf_counter()
            if tracer is not None:
                span_attrs = {"seeds": report.seeded} if seeds else {}
                tracer.begin("entry_spec", spec=str(spec), **span_attrs)
            try:
                try:
                    pending = 1  # the first sweep runs the entry itself
                    while pending:
                        if plan is not None and plan.watches("iteration"):
                            plan.fire("iteration")
                        budget.charge_iteration()
                        report.iterations += 1
                        if tracer is not None:
                            tracer.event(
                                "fixpoint_iteration",
                                pass_number=report.iterations,
                                rerun=pending,
                            )
                        before = spec_table.changes
                        machine.sweep(spec.indicator, spec.pattern)
                        report.confirmed = spec_table.changes == before
                        if dumper is not None:
                            dumper.dump(
                                tracer, spec_table,
                                pattern=str(spec),
                                pass_number=report.iterations,
                            )
                        if checkpoint is not None:
                            checkpoint.note_pass((table, spec_table))
                        pending = machine.pending()
                except (BudgetExceeded, InjectedFault) as exc:
                    report.status = STATUS_DEGRADED
                    report.reason = str(exc)
                    if self.on_budget == "raise":
                        if tracer is not None:
                            tracer.end(error=repr(exc))
                        raise
                    # Persist the pre-widening iterate first: after the
                    # widening below, this spec's partial work would be
                    # unrecoverable (⊤ entries are never checkpointed).
                    if checkpoint is not None:
                        checkpoint.flush((table, spec_table))
                except ReproError as exc:
                    report.status = STATUS_FAILED
                    report.reason = str(exc)
                    if self.on_budget == "raise":
                        if tracer is not None:
                            tracer.end(error=repr(exc))
                        raise
                if tracer is not None:
                    tracer.end(status=report.status)
                if planted:
                    report.dropped = spec_table.drop_unexplored()
                if report.status != STATUS_EXACT:
                    # Sound degradation: whatever partial summaries the
                    # interrupted exploration left may under-approximate,
                    # so widen everything this spec touched to ⊤ —
                    # including the entry's own pattern, materialized if
                    # need be.  (Planted entries the run never reached
                    # are gone: widening them would claim facts nothing
                    # asked.)
                    spec_table.disarm()
                    spec_table.entry(spec.indicator, spec.pattern)
                    spec_table.widen_to_top(report.status)
            finally:
                if metrics is not None:
                    record_metrics(
                        metrics, spec_table, machine, report,
                        time.perf_counter() - spec_started,
                    )
            table.merge(spec_table)
            iterations += report.iterations
            instructions += machine.instruction_count
            reports.append(report)
        elapsed = time.perf_counter() - started
        return AnalysisResult(
            table=table,
            compiled=self.compiled,
            entries=specs,
            iterations=iterations,
            instructions_executed=instructions,
            seconds=elapsed,
            depth=self.depth,
            entry_reports=reports,
        )


def analyze(
    program: Union[Program, str, CompiledProgram],
    *entries: Union[str, Term, EntrySpec],
    options: Optional[CompilerOptions] = None,
    depth: int = DEFAULT_DEPTH,
    list_aware: bool = True,
    subsumption: bool = False,
    on_undefined: str = "error",
    budget: Optional[Budget] = None,
    fault_plan=None,
    on_budget: str = "raise",
) -> AnalysisResult:
    """One-call API: compile ``program`` and analyze from ``entries``."""
    analyzer = Analyzer(
        program, options=options, depth=depth, list_aware=list_aware,
        subsumption=subsumption, on_undefined=on_undefined,
        budget=budget, fault_plan=fault_plan, on_budget=on_budget,
    )
    return analyzer.analyze(list(entries))
