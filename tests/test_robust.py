"""Resource governance and fault tolerance (repro.robust).

Covers the Budget dimensions, FaultPlan determinism, the
degrade-to-⊤ contract of the fixpoint driver (soundness: a degraded
result is always ⊒ the unbudgeted one), per-entry isolation, the
baseline analyzers' partial results, and the Solver's recursion-limit
guard.
"""

import sys

import pytest

from repro import Budget, BudgetExceeded, FaultPlan, InjectedFault, analyze
from repro.analysis.driver import Analyzer
from repro.analysis.patterns import pattern_to_trees
from repro.bench.programs import BENCHMARKS
from repro.domain.lattice import tree_leq
from repro.errors import AnalysisError
from repro.robust import (
    STATUS_DEGRADED,
    STATUS_EXACT,
    STATUS_FAILED,
    all_share_pairs,
    top_success_pattern,
    worse_status,
)

NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
"""


class TestBudget:
    def test_unlimited_by_default(self):
        budget = Budget()
        assert budget.unlimited
        assert not budget.governs_steps
        budget.start()
        for _ in range(10_000):
            budget.charge_step()
        budget.charge_iteration()
        budget.charge_table(10**9)

    def test_step_budget_trips(self):
        budget = Budget(max_steps=3).start()
        budget.charge_step()
        budget.charge_step()
        budget.charge_step()
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_step()
        assert info.value.dimension == "steps"

    def test_iteration_budget_trips_with_legacy_message(self):
        budget = Budget(max_iterations=2).start()
        budget.charge_iteration()
        budget.charge_iteration()
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_iteration()
        assert info.value.dimension == "iterations"
        # Pre-budget callers grepped for this wording.
        assert "no fixpoint after 2 iterations" in str(info.value)

    def test_table_budget_trips(self):
        budget = Budget(max_table_entries=5).start()
        budget.charge_table(5)
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_table(6)
        assert info.value.dimension == "table"

    def test_deadline_trips(self):
        budget = Budget(deadline=0.0).start()
        with pytest.raises(BudgetExceeded) as info:
            budget.check_deadline()
        assert info.value.dimension == "deadline"
        assert budget.expired()

    def test_start_resets_counters(self):
        budget = Budget(max_steps=2).start()
        budget.charge_step()
        budget.charge_step()
        budget.start()
        budget.charge_step()  # would trip without the reset
        assert budget.steps_used == 1

    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ValueError):
            Budget(max_steps=0)
        with pytest.raises(ValueError):
            Budget(max_iterations=-1)
        with pytest.raises(ValueError):
            Budget(deadline=-0.5)
        # NaN compares false with every bound; it is refused too.
        for name in ("max_steps", "max_iterations", "max_table_entries",
                     "deadline"):
            with pytest.raises(ValueError):
                Budget(**{name: float("nan")})

    def test_budget_exceeded_is_analysis_error(self):
        # Back-compat: callers catching AnalysisError keep working.
        assert issubclass(BudgetExceeded, AnalysisError)
        assert issubclass(InjectedFault, AnalysisError)


class TestFaultPlan:
    def test_fires_exactly_at_ordinal(self):
        plan = FaultPlan(at_step=3)
        plan.fire("step")
        plan.fire("step")
        with pytest.raises(InjectedFault) as info:
            plan.fire("step")
        assert info.value.site == "step"
        assert info.value.count == 3
        # The counter advanced past the ordinal: it never re-fires.
        plan.fire("step")
        assert plan.counts["step"] == 4
        assert plan.fired == [("step", 3)]

    def test_watches(self):
        plan = FaultPlan(at_unification=1)
        assert plan.watches("unify")
        assert not plan.watches("step")

    def test_rejects_nonpositive_ordinals(self):
        with pytest.raises(ValueError):
            FaultPlan(at_step=0)

    def test_deterministic_across_runs(self):
        """The same plan parameters trip at the same analysis point."""
        counts = []
        for _ in range(2):
            plan = FaultPlan(at_table_update=2)
            with pytest.raises(InjectedFault):
                analyze(NREV, "nrev(glist, var)", fault_plan=plan)
            counts.append(plan.counts["table"])
        assert counts[0] == counts[1] == 2


class TestServeChaosSites:
    """The non-raising serve sites: probe() fires, fire() still raises."""

    def test_probe_fires_at_each_ordinal(self):
        plan = FaultPlan(kill_worker_at_request=[2, 4])
        assert [plan.probe("request") for _ in range(5)] == \
            [False, True, False, True, False]
        assert plan.fired == [("request", 2), ("request", 4)]

    def test_single_int_ordinal_accepted(self):
        plan = FaultPlan(delay_response_at_request=3)
        assert [plan.probe("response") for _ in range(3)] == \
            [False, False, True]

    def test_watches_serve_sites(self):
        plan = FaultPlan(corrupt_store_at_put=1)
        assert plan.watches("store")
        assert not plan.watches("request")
        assert not plan.watches("step")

    def test_probe_never_raises(self):
        plan = FaultPlan(kill_worker_at_request=1)
        assert plan.probe("request") is True  # no InjectedFault

    def test_fire_still_raises_on_analysis_sites(self):
        plan = FaultPlan(at_step=1)
        with pytest.raises(InjectedFault):
            plan.fire("step")

    def test_rejects_nonpositive_serve_ordinals(self):
        with pytest.raises(ValueError):
            FaultPlan(kill_worker_at_request=[1, 0])
        with pytest.raises(ValueError):
            FaultPlan(delay_seconds=-1.0)


class TestWidening:
    def test_top_pattern_is_any(self):
        top = top_success_pattern(3)
        for tree in pattern_to_trees(top):
            # every position is plain 'any'
            from repro.domain.lattice import ANY_T

            assert tree == ANY_T

    def test_all_share_pairs(self):
        assert all_share_pairs(3) == frozenset({(0, 1), (0, 2), (1, 2)})
        assert all_share_pairs(1) == frozenset()

    def test_worse_status_ordering(self):
        assert worse_status(STATUS_EXACT, STATUS_DEGRADED) == STATUS_DEGRADED
        assert worse_status(STATUS_FAILED, STATUS_DEGRADED) == STATUS_FAILED
        assert worse_status(STATUS_EXACT, STATUS_EXACT) == STATUS_EXACT


class TestDegradation:
    def test_raise_is_the_default(self):
        with pytest.raises(BudgetExceeded):
            analyze(NREV, "nrev(glist, var)", budget=Budget(max_steps=5))

    def test_degrade_returns_result(self):
        result = analyze(
            NREV,
            "nrev(glist, var)",
            budget=Budget(max_steps=5),
            on_budget="degrade",
        )
        assert result.status == "degraded"
        (report,) = result.entry_reports
        assert report.status == "degraded"
        assert "step budget" in report.reason
        entry = result.table.find(*_spec_key(result, 0))
        assert entry is not None
        assert entry.status == "degraded"
        assert entry.success == top_success_pattern(2)

    @pytest.mark.parametrize(
        "budget_kwargs",
        [
            {"max_steps": 5},
            {"max_iterations": 1},
            {"max_table_entries": 1},
            {"deadline": 0.0},
        ],
        ids=["steps", "iterations", "table", "deadline"],
    )
    def test_every_dimension_degrades_cleanly(self, budget_kwargs):
        result = analyze(
            NREV,
            "nrev(glist, var)",
            budget=Budget(**budget_kwargs),
            on_budget="degrade",
        )
        assert result.status == "degraded"

    @pytest.mark.parametrize(
        "plan_kwargs",
        [
            {"at_step": 3},
            {"at_unification": 2},
            {"at_table_update": 1},
            {"at_iteration": 2},
        ],
        ids=["step", "unify", "table", "iteration"],
    )
    def test_every_fault_site_degrades_cleanly(self, plan_kwargs):
        plan = FaultPlan(**plan_kwargs)
        result = analyze(
            NREV, "nrev(glist, var)", fault_plan=plan, on_budget="degrade"
        )
        assert result.status == "degraded"
        assert len(plan.fired) == 1
        (report,) = result.entry_reports
        assert "injected fault" in report.reason

    def test_exact_run_reports_exact(self):
        result = analyze(NREV, "nrev(glist, var)")
        assert result.status == "exact"
        assert all(r.status == "exact" for r in result.entry_reports)
        assert result.predicate_status(("nrev", 2)) == "exact"
        assert result.degraded_predicates() == []

    def test_status_surfaces_in_reports(self):
        result = analyze(
            NREV,
            "nrev(glist, var)",
            budget=Budget(max_steps=5),
            on_budget="degrade",
        )
        assert "degraded" in result.to_text()
        data = result.to_dict()
        assert data["status"] == "degraded"
        assert data["entry_reports"][0]["status"] == "degraded"
        assert data["predicates"]["nrev/2"]["status"] == "degraded"

    def test_invalid_on_budget_rejected(self):
        with pytest.raises(ValueError):
            Analyzer(NREV, on_budget="explode")


def _spec_key(result, index):
    spec = result.entries[index]
    return spec.indicator, spec.pattern


class TestSoundness:
    """A degraded result must over-approximate the exact one (⊒)."""

    @pytest.mark.parametrize(
        "bench", BENCHMARKS, ids=[b.name for b in BENCHMARKS]
    )
    def test_degraded_is_superset_of_exact(self, bench):
        exact = Analyzer(bench.source).analyze([bench.entry])
        loose = Analyzer(
            bench.source,
            budget=Budget(max_steps=40),
            on_budget="degrade",
        ).analyze([bench.entry])
        checked = 0
        for indicator, exact_entry in exact.table.all_entries():
            loose_entry = loose.table.find(indicator, exact_entry.calling)
            if loose_entry is None:
                continue  # never reached under budget: nothing claimed
            if loose_entry.status == "exact":
                # untouched by widening: must match the exact run
                assert loose_entry.success == exact_entry.success
                checked += 1
                continue
            checked += 1
            if exact_entry.success is None:
                continue
            for exact_tree, loose_tree in zip(
                pattern_to_trees(exact_entry.success),
                pattern_to_trees(loose_entry.success),
            ):
                assert tree_leq(exact_tree, loose_tree)
            # widened entries also over-approximate sharing
            assert exact_entry.may_share <= loose_entry.may_share
        assert checked > 0


class TestIsolation:
    """A fault in one entry spec must not poison sibling entries."""

    def test_sibling_entry_stays_exact(self):
        plan = FaultPlan(at_table_update=1)  # trips inside the first spec
        result = analyze(
            NREV,
            "nrev(glist, var)",
            "app(glist, glist, var)",
            fault_plan=plan,
            on_budget="degrade",
        )
        nrev_report, app_report = result.entry_reports
        assert nrev_report.status == "degraded"
        assert app_report.status == "exact"
        # The sibling's table entries equal a solo, unbudgeted run.
        solo = analyze(NREV, "app(glist, glist, var)")
        spec = result.entries[1]
        entry = result.table.find(spec.indicator, spec.pattern)
        solo_entry = solo.table.find(spec.indicator, spec.pattern)
        assert entry.success == solo_entry.success
        assert entry.status == "exact"
        assert result.predicate_status(("app", 3)) == "exact"

    def test_failed_entry_does_not_poison_siblings(self):
        program = """
        good(X, Y) :- app([X], [], Y).
        app([], L, L).
        app([H|T], L, [H|R]) :- app(T, L, R).
        bad :- undefined_thing.
        """
        result = analyze(
            program,
            "bad",
            "good(g, var)",
            on_undefined="error",
            on_budget="degrade",
        )
        bad_report, good_report = result.entry_reports
        assert bad_report.status == "failed"
        assert good_report.status == "exact"
        assert result.status == "failed"

    def test_per_spec_isolation_matches_joint_fixpoint(self):
        """Exact multi-entry analysis is unchanged by the isolation
        restructure: the merged table equals the joint fixpoint."""
        joint = analyze(NREV, "nrev(glist, var)", "app(anylist, glist, var)")
        assert joint.status == "exact"
        for entry_text in ("nrev(glist, var)", "app(anylist, glist, var)"):
            solo = analyze(NREV, entry_text)
            for indicator, solo_entry in solo.table.all_entries():
                merged = joint.table.find(indicator, solo_entry.calling)
                assert merged is not None
                assert merged.success == solo_entry.success


class TestBaselines:
    def test_meta_degrades(self):
        from repro.baselines.meta import MetaAnalyzer

        analyzer = MetaAnalyzer(
            NREV, budget=Budget(max_steps=2), on_budget="degrade"
        )
        result = analyzer.analyze(["nrev(glist, var)"])
        assert result.status == "degraded"

    def test_meta_attaches_partial_on_raise(self):
        from repro.baselines.meta import MetaAnalyzer

        analyzer = MetaAnalyzer(NREV, budget=Budget(max_steps=2))
        with pytest.raises(AnalysisError) as info:
            analyzer.analyze(["nrev(glist, var)"])
        partial = info.value.partial_result
        assert partial is not None
        assert partial.status == "degraded"
        # the partial table is widened, hence sound
        for _, entry in partial.table.all_entries():
            assert entry.status == "degraded"

    def test_prolog_baseline_degrades(self):
        from repro.baselines.prolog_analyzer import PrologAnalyzer

        analyzer = PrologAnalyzer(
            NREV, budget=Budget(max_iterations=1), on_budget="degrade"
        )
        result = analyzer.analyze(["nrev(glist, var)"])
        assert result.status == "degraded"

    def test_transform_degrades(self):
        from repro.baselines.transform import TransformAnalyzer

        analyzer = TransformAnalyzer(
            NREV, budget=Budget(max_iterations=1), on_budget="degrade"
        )
        result = analyzer.analyze(["nrev(glist, var)"])
        assert result.status == "degraded"

    def test_transform_attaches_partial_on_raise(self):
        from repro.baselines.transform import TransformAnalyzer

        analyzer = TransformAnalyzer(NREV, budget=Budget(max_iterations=1))
        with pytest.raises(AnalysisError) as info:
            analyzer.analyze(["nrev(glist, var)"])
        assert info.value.partial_result is not None
        assert info.value.partial_result.status == "degraded"

    def test_meta_exact_still_matches_compiled(self):
        from repro.baselines.meta import MetaAnalyzer

        compiled = analyze(NREV, "nrev(glist, var)")
        meta = MetaAnalyzer(NREV).analyze(["nrev(glist, var)"])
        assert meta.status == "exact"
        for indicator, entry in compiled.table.all_entries():
            if indicator[0].startswith("$"):
                continue
            meta_entry = meta.table.find(indicator, entry.calling)
            assert meta_entry is not None
            assert meta_entry.success == entry.success


class TestSolverGuard:
    def test_recursion_limit_never_lowered(self):
        from repro.prolog.program import Program
        from repro.prolog.solver import Solver, _MIN_RECURSION_LIMIT

        original = sys.getrecursionlimit()
        higher = max(original, _MIN_RECURSION_LIMIT) + 10_000
        try:
            sys.setrecursionlimit(higher)
            Solver(Program.from_text("p.\n"))
            assert sys.getrecursionlimit() == higher
        finally:
            sys.setrecursionlimit(original)

    def test_recursion_limit_raised_when_low(self):
        from repro.prolog.program import Program
        from repro.prolog.solver import Solver, _MIN_RECURSION_LIMIT

        original = sys.getrecursionlimit()
        try:
            if original > _MIN_RECURSION_LIMIT:
                sys.setrecursionlimit(1000)
            Solver(Program.from_text("p.\n"))
            assert sys.getrecursionlimit() >= _MIN_RECURSION_LIMIT
        finally:
            sys.setrecursionlimit(max(original, sys.getrecursionlimit()))

    def test_solver_respects_budget_deadline(self):
        from repro.errors import BudgetExceeded
        from repro.prolog.parser import parse_term
        from repro.prolog.program import Program
        from repro.prolog.solver import Solver

        # An already-expired deadline: the stride probe must trip.
        budget = Budget(deadline=0.0).start()
        solver = Solver(
            Program.from_text(
                "count(0).\ncount(N) :- N > 0, M is N - 1, count(M).\n"
            ),
            budget=budget,
        )
        with pytest.raises(BudgetExceeded):
            solver.solve_once(parse_term("count(10000)"))
