"""Differential oracles: the correctness contracts the fuzzer checks.

Every oracle takes one :class:`Subject` (a program plus its goals and
abstract entries) and returns a :class:`Verdict` — ``ok``,
``violation``, or ``skip`` (the subject exhausted a resource budget or
sits outside the oracle's precondition; skips are counted, never
silently dropped).  The catalog:

``execution``
    The concrete WAM and the SLD solver must produce the *same ordered
    solution sequence* (canonically renamed) and the same builtin
    output on every goal.  Agreeing runtime errors count as agreement;
    a one-sided error or any solution/output difference is a violation.

``soundness``
    The global safety statement of abstract interpretation: every
    concrete answer the WAM produces for a goal must be contained in
    the success pattern the analysis computes for the *abstraction* of
    that goal (and an answer for a goal whose entry the analysis claims
    cannot succeed is an immediate violation).  The same containment is
    required of the PrologAnalyzer baseline — it is a theorem for any
    sound analysis, which makes it the right cross-check for an engine
    whose precision is incomparable with the compiled analyzer's.

``lattice``
    Implementation agreement on the analysis itself: the compiled
    abstract WAM and the meta-interpreter baseline must compute
    *identical* fixpoint tables (after canonicalization) — two
    codebases, one fixpoint, the paper's core claim.

``opt``
    Translation validation of :mod:`repro.opt` on the generated
    program: optimized code must be verifier-clean and
    solution-identical on every goal.  The transform is injectable so
    tests can plant a deliberately unsound one and watch it get caught.

``serve``
    Incremental re-analysis equivalence: analyzing an edited program
    through a warm :class:`~repro.serve.service.AnalysisService` must
    produce the same stable lattice facts as a from-scratch analysis of
    the edited text.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.driver import Analyzer, EntrySpec, analyze
from ..analysis.patterns import (
    Pattern,
    canonicalize,
    pattern_to_trees,
    tree_to_node,
)
from ..baselines import MetaAnalyzer, PrologAnalyzer
from ..domain import AbsSort, abstract_term, tree_contains
from ..errors import BudgetExceeded, PrologError, ReproError
from ..opt import goal_entry_specs, optimize_program, validate
from ..opt.validate import canonical_solution
from ..prolog.parser import parse_term
from ..prolog.program import Program
from ..prolog.solver import Solver
from ..prolog.terms import Struct, Term, Var, indicator_of
from ..prolog.writer import term_to_text
from ..robust import Budget
from ..wam.compile import compile_program
from ..wam.machine import Machine

OK = "ok"
VIOLATION = "violation"
SKIP = "skip"


@dataclass
class Verdict:
    """One oracle's judgement on one subject."""

    oracle: str
    status: str
    detail: str = ""

    @property
    def is_violation(self) -> bool:
        return self.status == VIOLATION

    def to_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "status": self.status,
                "detail": self.detail}


@dataclass
class Subject:
    """A program under test, with its goals and covering entries."""

    source: str
    goals: List[str] = field(default_factory=list)
    entries: List[str] = field(default_factory=list)
    #: seed for oracle-internal randomness (the serve oracle's edit).
    edit_seed: int = 0
    max_steps: int = 200_000
    max_solutions: int = 30
    #: SLD solver call-depth cap.  The solver is generator-recursive,
    #: so a runaway-recursion mutant overflows the C stack (a hard
    #: crash, not RecursionError) long before a 200k step budget
    #: trips; past this depth the run is classified as budget.
    max_depth: int = 2_000


def entry_from_goal(goal: Term) -> EntrySpec:
    """Abstract a concrete goal into an entry spec (shared variables
    alias).  The analysis of this spec covers the concrete call."""
    counter = itertools.count()
    var_ids: Dict[int, int] = {}
    nodes = []
    arguments = goal.args if isinstance(goal, Struct) else ()
    for argument in arguments:
        if isinstance(argument, Var):
            ident = var_ids.get(id(argument))
            if ident is None:
                ident = next(counter)
                var_ids[id(argument)] = ident
            nodes.append(("i", AbsSort.VAR, ident))
        else:
            nodes.append(tree_to_node(abstract_term(argument), counter))
    return EntrySpec(indicator_of(goal), canonicalize(Pattern(tuple(nodes))))


# ----------------------------------------------------------------------
# Concrete runs with classification.


def _classify_run(runner: Callable) -> Tuple[str, object]:
    """Run an engine; classify as ('ok', payload) / ('budget', msg) /
    ('error', message)."""
    try:
        return "ok", runner()
    except BudgetExceeded as exc:
        return "budget", str(exc)
    except RecursionError:
        return "budget", "python recursion limit"
    except PrologError as exc:
        if getattr(exc, "kind", "") == "resource_error":
            return "budget", str(exc)
        return "error", f"{exc.kind}: {exc}"
    except ReproError as exc:
        return "error", f"{type(exc).__name__}: {exc}"


def _wam_solutions(
    text: str, goal: Term, max_steps: int, max_solutions: int,
    raw: bool = False,
):
    def run():
        machine = Machine(compile_program(Program.from_text(text)))
        budget = Budget(max_steps=max_steps).start()
        machine.step_monitor = budget.charge_step
        solutions = []
        for count, solution in enumerate(machine.run(goal), start=1):
            solutions.append(
                dict(solution) if raw else canonical_solution(solution)
            )
            if count >= max_solutions:
                break
        return solutions, tuple(machine.output)

    return _classify_run(run)


def _solver_solutions(
    text: str, goal: Term, max_steps: int, max_solutions: int,
    max_depth: Optional[int] = None,
):
    def run():
        solver = Solver(
            Program.from_text(text), max_steps=max_steps,
            max_depth=max_depth,
        )
        solutions = []
        for count, solution in enumerate(solver.solve(goal), start=1):
            solutions.append(canonical_solution(solution))
            if count >= max_solutions:
                break
        return solutions, tuple(solver.output)

    return _classify_run(run)


# ----------------------------------------------------------------------
# The oracles.


class Oracle:
    name = "?"

    def check(self, subject: Subject) -> Verdict:  # pragma: no cover
        raise NotImplementedError

    def _ok(self, detail: str = "") -> Verdict:
        return Verdict(self.name, OK, detail)

    def _skip(self, detail: str) -> Verdict:
        return Verdict(self.name, SKIP, detail)

    def _violation(self, detail: str) -> Verdict:
        return Verdict(self.name, VIOLATION, detail)


class ExecutionAgreementOracle(Oracle):
    """Concrete WAM ≡ SLD solver on every goal (ordered solutions)."""

    name = "execution"

    def check(self, subject: Subject) -> Verdict:
        skipped = 0
        for goal_text in subject.goals:
            goal = parse_term(goal_text)
            wam_status, wam = _wam_solutions(
                subject.source, goal, subject.max_steps,
                subject.max_solutions,
            )
            solver_status, solver = _solver_solutions(
                subject.source, goal, subject.max_steps,
                subject.max_solutions, subject.max_depth,
            )
            if "budget" in (wam_status, solver_status):
                skipped += 1
                continue
            if wam_status == "error" and solver_status == "error":
                continue  # agreeing failure is agreement
            if wam_status != solver_status:
                return self._violation(
                    f"{goal_text}: wam={wam_status} ({wam if wam_status == 'error' else '...'}) "
                    f"solver={solver_status} "
                    f"({solver if solver_status == 'error' else '...'})"
                )
            wam_solutions, wam_output = wam
            solver_solutions, solver_output = solver
            if wam_solutions != solver_solutions:
                return self._violation(
                    f"{goal_text}: solutions diverge "
                    f"({len(wam_solutions)} vs {len(solver_solutions)}; "
                    f"first wam={wam_solutions[:1]} "
                    f"solver={solver_solutions[:1]})"
                )
            if wam_output != solver_output:
                return self._violation(f"{goal_text}: builtin output diverges")
        if skipped == len(subject.goals):
            return self._skip("every goal exhausted its step budget")
        return self._ok()


class SoundnessOracle(Oracle):
    """Observed concrete answers ∈ abstract success patterns.

    Checked against the compiled analyzer *and* the PrologAnalyzer
    baseline: containment of every observed answer is a theorem for
    any sound analysis, so it cross-checks engines whose precision is
    otherwise incomparable (the baseline abstracts calls more coarsely
    but can compute tighter successes in corners).
    """

    name = "soundness"

    def check(self, subject: Subject) -> Verdict:
        program = Program.from_text(subject.source)
        checked = 0
        for goal_text in subject.goals:
            goal = parse_term(goal_text)
            status, payload = _wam_solutions(
                subject.source, goal, subject.max_steps,
                subject.max_solutions, raw=True,
            )
            if status != "ok":
                continue  # errors/budget: nothing observed to check
            answers, _ = payload
            spec = entry_from_goal(goal)
            try:
                result = Analyzer(program).analyze([spec])
            except BudgetExceeded as exc:
                return self._skip(f"{goal_text}: analysis budget: {exc}")
            except ReproError as exc:
                return self._skip(f"{goal_text}: analysis failed: {exc}")
            entry = result.table.find(spec.indicator, spec.pattern)
            if entry is None:
                return self._violation(
                    f"{goal_text}: entry vanished from the extension table"
                )
            if not answers:
                continue  # concrete failure needs nothing from the analysis
            checked += 1
            if entry.success is None:
                return self._violation(
                    f"{goal_text}: analysis claims the goal cannot "
                    f"succeed, but it produced {len(answers)} answer(s)"
                )
            success_trees = pattern_to_trees(entry.success)
            goal_args = goal.args if isinstance(goal, Struct) else ()
            violation = self._check_answers(
                goal_text, goal_args, answers, success_trees, "analysis"
            )
            if violation is not None:
                return violation
            violation = self._check_baseline(
                subject, goal_text, goal_args, answers, spec
            )
            if violation is not None:
                return violation
        if not checked:
            return self._skip("no goal produced observable answers")
        return self._ok(f"{checked} goal(s) with answers checked")

    def _check_answers(
        self, goal_text, goal_args, answers, success_trees, engine
    ) -> Optional[Verdict]:
        for answer in answers:
            for position, argument in enumerate(goal_args):
                concrete = _substitute(argument, answer)
                if not tree_contains(success_trees[position], concrete):
                    return self._violation(
                        f"{goal_text}: answer arg {position + 1} = "
                        f"{term_to_text(concrete)} escapes {engine} "
                        f"success type {success_trees[position]}"
                    )
        return None

    def _check_baseline(
        self, subject, goal_text, goal_args, answers, spec
    ) -> Optional[Verdict]:
        try:
            baseline = PrologAnalyzer(subject.source).analyze([spec])
        except (BudgetExceeded, ReproError):
            return None  # the baseline giving up observes nothing
        success = _per_pred_success(baseline.table).get(spec.indicator)
        if success is None:
            return self._violation(
                f"{goal_text}: prolog baseline claims the goal cannot "
                f"succeed, but it produced {len(answers)} answer(s)"
            )
        return self._check_answers(
            goal_text, goal_args, answers, success, "prolog-baseline"
        )


def _substitute(term: Term, answer: Dict[str, Term]) -> Term:
    if isinstance(term, Var):
        return answer.get(term.name, term)
    if isinstance(term, Struct):
        return Struct(term.name, tuple(_substitute(a, answer) for a in term.args))
    return term


class LatticeAgreementOracle(Oracle):
    """Abstract WAM ≡ meta-interpreter baseline, table for table.

    This is the paper's core claim: the compiled abstract machine
    computes exactly the fixpoint the meta-level analyzer does, so the
    tables must be *equal* (after canonicalization).  The PrologAnalyzer
    baseline is NOT compared here — it abstracts calls differently, so
    neither direction of precision is a theorem; its sound obligation
    (observed answers ∈ success patterns) lives in the soundness
    oracle instead.
    """

    name = "lattice"

    def check(self, subject: Subject) -> Verdict:
        if not subject.entries:
            return self._skip("no entries")
        try:
            fast = Analyzer(subject.source).analyze(subject.entries)
            meta = MetaAnalyzer(subject.source).analyze(subject.entries)
        except BudgetExceeded as exc:
            return self._skip(f"analysis budget: {exc}")
        except ReproError as exc:
            return self._skip(f"analysis failed: {exc}")
        fast_map = _table_map(fast.table)
        meta_map = _table_map(meta.table)
        if fast_map != meta_map:
            return self._violation(_first_table_difference(fast_map, meta_map))
        return self._ok()


def _table_map(table):
    # Compare canonical forms: engines may differ in vacuous detail
    # (e.g. must-aliasing annotations on ground arguments) that
    # canonicalization erases.
    return {
        (indicator, canonicalize(entry.calling)): (
            None if entry.success is None
            else canonicalize(entry.success)
        )
        for indicator, entry in table.all_entries()
    }


def _per_pred_success(table):
    from ..domain import tree_lub

    out: Dict[Tuple[str, int], Tuple] = {}
    for indicator, entry in table.all_entries():
        if entry.success is None:
            continue
        trees = pattern_to_trees(entry.success)
        if indicator in out:
            out[indicator] = tuple(
                tree_lub(a, b) for a, b in zip(out[indicator], trees)
            )
        else:
            out[indicator] = trees
    return out


def _first_table_difference(left: Dict, right: Dict) -> str:
    for key in sorted(set(left) | set(right), key=repr):
        if left.get(key, "<absent>") != right.get(key, "<absent>"):
            return (
                f"table entry {key}: abstract-WAM {left.get(key, '<absent>')} "
                f"vs meta baseline {right.get(key, '<absent>')}"
            )
    return "tables differ"


class OptValidationOracle(Oracle):
    """repro.opt translation validation on the subject program.

    ``transform`` is injectable (default: the real
    :func:`repro.opt.optimize_program`) so the test suite can plant an
    unsound transform and verify the oracle catches and shrinks it.
    """

    name = "opt"

    def __init__(self, transform: Optional[Callable] = None) -> None:
        self.transform = transform or optimize_program

    def check(self, subject: Subject) -> Verdict:
        # Only goals that run cleanly on the original program can be
        # diff-executed: repro.opt's validate() deliberately reports
        # *any* machine error as divergence (even an agreeing one),
        # which is right for the CLI but a false alarm on mutants that
        # error identically on both sides.  Error agreement between
        # engines is the execution oracle's job, not this one's.
        goal_terms = []
        for text in subject.goals:
            goal = parse_term(text)
            status, _ = _wam_solutions(
                subject.source, goal, subject.max_steps,
                subject.max_solutions,
            )
            if status == "ok":
                goal_terms.append(goal)
        if not goal_terms and subject.goals:
            return self._skip("no goal runs cleanly on the original")
        try:
            compiled = compile_program(Program.from_text(subject.source))
            specs: List = list(subject.entries)
            for goal in goal_terms:
                specs.extend(goal_entry_specs(compiled.program, goal))
            result = analyze(compiled, *specs)
            optimized = self.transform(compiled, result)
            optimized_compiled = getattr(optimized, "compiled", optimized)
        except BudgetExceeded as exc:
            return self._skip(f"analysis budget: {exc}")
        except ReproError as exc:
            return self._skip(f"optimize pipeline failed: {exc}")
        report = validate(
            compiled, optimized_compiled, goal_terms,
            max_solutions=subject.max_solutions,
        )
        if report.ok:
            return self._ok()
        return self._violation(report.to_text())


class IncrementalServeOracle(Oracle):
    """Warm incremental re-analysis ≡ from-scratch on an edited text."""

    name = "serve"

    #: structural edits keep generated programs well-defined, so the
    #: serve comparison is always exact-vs-exact.
    EDIT_OPS = ("duplicate_clause", "swap_clauses", "append_variant_clause",
                "add_fact_predicate")

    def check(self, subject: Subject) -> Verdict:
        from ..serve import AnalysisService, ServiceConfig
        from .mutate import Mutator

        if not subject.entries:
            return self._skip("no entries")
        rng = random.Random(f"repro.fuzz.serve-edit:{subject.edit_seed}")
        mutator = Mutator(rng, ops=self.EDIT_OPS)
        edited, applied = mutator.mutate_text(
            subject.source, count=rng.randint(1, 2)
        )
        service = AnalysisService(ServiceConfig())
        try:
            warm = service.handle({
                "op": "analyze", "text": subject.source,
                "entries": list(subject.entries),
            })
            if not warm.get("ok"):
                return self._skip(
                    f"base analysis failed: {warm.get('error')}"
                )
            response = service.handle({
                "op": "analyze", "text": edited,
                "entries": list(subject.entries),
            })
        except ReproError as exc:
            return self._skip(f"service failed: {exc}")
        # response["ok"] is transport-level ("request handled");
        # response["status"] carries the analysis outcome — 'failed'
        # means the service hit the same analysis error a from-scratch
        # run raises, so the comparison is status-vs-status.
        status = response.get("status") if response.get("ok") else None
        try:
            scratch = Analyzer(Program.from_text(edited)).analyze(
                subject.entries
            ).stable_dict()
        except ReproError as exc:
            if status == "failed":
                return self._ok(
                    f"both failed on edited program (edits: {applied})"
                )
            if response.get("ok"):
                return self._violation(
                    f"service served status={status} but from-scratch "
                    f"analysis raised {type(exc).__name__}: {exc} "
                    f"(edits: {applied})"
                )
            return self._skip(f"edited program unanalyzable: {exc}")
        if not response.get("ok"):
            return self._violation(
                f"service failed on analyzable edit: "
                f"{response.get('error')} (edits: {applied})"
            )
        if status == "failed":
            return self._violation(
                f"service reported analysis failure on an edit "
                f"from-scratch analysis handles (edits: {applied})"
            )
        if status != "exact":
            return self._skip(f"service degraded: {status}")
        if response["result"] != scratch:
            return self._violation(
                f"incremental facts differ from from-scratch after "
                f"edits {applied}"
            )
        probe = self._resume_probe(subject)
        if probe is not None:
            return probe
        return self._ok(f"edits: {','.join(applied) or 'none'}")

    def _resume_probe(self, subject: Subject):
        """Crash-mid-fixpoint-then-resume: trip a one-iteration budget
        with checkpointing at every pass, then re-issue the request with
        no budget — the service must resume from the persisted snapshot
        and serve exactly the from-scratch result.  Returns a violation
        Verdict or None (the probe folds into the oracle's verdict)."""
        from ..serve import AnalysisService, ServiceConfig

        service = AnalysisService(ServiceConfig(checkpoint_every=1))
        request = {
            "op": "analyze", "text": subject.source,
            "entries": list(subject.entries),
        }
        try:
            degraded = service.handle(dict(
                request, budget={"max_iterations": 1}
            ))
            if not degraded.get("ok") or degraded.get("status") != "degraded":
                return None  # too small to trip — nothing to resume
            resumed = service.handle(dict(request))
        except ReproError:
            return None
        try:
            scratch = Analyzer(Program.from_text(subject.source)).analyze(
                subject.entries
            ).stable_dict()
        except ReproError:
            return None
        if not resumed.get("ok") or resumed.get("status") != "exact":
            return self._violation(
                "resume after a mid-fixpoint budget trip did not "
                f"complete exactly (status={resumed.get('status')})"
            )
        if resumed["result"] != scratch:
            return self._violation(
                "resumed-from-checkpoint facts differ from from-scratch "
                "analysis after a mid-fixpoint budget trip"
            )
        return None


def default_oracles() -> List[Oracle]:
    """The standing oracle battery, in campaign order."""
    return [
        ExecutionAgreementOracle(),
        SoundnessOracle(),
        LatticeAgreementOracle(),
        OptValidationOracle(),
        IncrementalServeOracle(),
    ]


ORACLE_NAMES: Tuple[str, ...] = (
    "execution", "soundness", "lattice", "opt", "serve",
)


def oracles_by_name(names: Optional[Sequence[str]] = None) -> List[Oracle]:
    battery = {oracle.name: oracle for oracle in default_oracles()}
    if names is None:
        return list(battery.values())
    unknown = [name for name in names if name not in battery]
    if unknown:
        raise ValueError(
            f"unknown oracles {unknown}; available: {sorted(battery)}"
        )
    return [battery[name] for name in names]
