"""repro.obs: metrics, tracing, and the two guarantees they come with.

The contracts pinned here, in the order docs/observability.md states
them:

* metrics are *observational* — an analysis run with a registry
  attached produces a ``stable_dict`` identical to one without;
* metric values are exact, not sampled — the tiny-program tests below
  assert hand-counted values;
* traces nest strictly (``validate_nesting`` accepts every trace the
  instrumented stack writes, and rejects hand-made violations);
* a supervisor's registry is the sum of its workers' shipped deltas.
"""

import json

import pytest

from repro.analysis.driver import Analyzer
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    format_profile,
    instruction_mix,
    metric_key,
    opcode_class,
    read_trace,
    split_key,
    table_hit_rate,
    validate_nesting,
)
from repro.prolog.program import Program
from repro.serve import AnalysisService, ServiceConfig

NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""

ENTRY = "nrev(glist, var)"


def _value(snapshot, key):
    return snapshot[key]["value"]


# ----------------------------------------------------------------------
# The registry itself.


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set_max(7)
        registry.gauge("g").set_max(3)  # peaks never go down
        registry.histogram("h").observe(0.002)
        registry.histogram("h").observe(40.0)  # overflow bucket
        snapshot = registry.snapshot()
        assert _value(snapshot, "c") == 5
        assert _value(snapshot, "g") == 7
        assert snapshot["h"]["count"] == 2
        assert snapshot["h"]["counts"][-1] == 1  # the +inf bucket
        assert snapshot["h"]["sum"] == pytest.approx(40.002)

    def test_labels_render_sorted_and_address_distinct_metrics(self):
        registry = MetricsRegistry()
        registry.counter("hits", op="analyze", kind="full").inc()
        registry.counter("hits", op="stats").inc(2)
        snapshot = registry.snapshot()
        assert _value(snapshot, "hits{kind=full,op=analyze}") == 1
        assert _value(snapshot, "hits{op=stats}") == 2
        assert metric_key("hits", {"op": "analyze", "kind": "full"}) == \
            "hits{kind=full,op=analyze}"
        assert split_key("hits{kind=full,op=analyze}") == \
            ("hits", {"kind": "full", "op": "analyze"})
        assert split_key("hits") == ("hits", {})

    def test_same_object_returned_so_hot_sites_can_bind_once(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")

    def test_snapshot_is_json_able_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        json.dumps(snapshot)  # must not raise

    def test_delta_ships_only_changes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(0.01)
        first = registry.delta()
        assert first["c"]["value"] == 3
        assert first["h"]["count"] == 1
        assert registry.delta() == {}  # idle: nothing changed
        registry.counter("c").inc(2)
        second = registry.delta()
        assert list(second) == ["c"]
        assert second["c"]["value"] == 2  # the increment, not the total

    def test_merge_adds_counters_maxes_gauges_adds_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set_max(5)
        a.histogram("h").observe(0.01)
        b.counter("c").inc(3)
        b.gauge("g").set_max(9)
        b.histogram("h").observe(0.01)
        b.merge(a.snapshot())
        snapshot = b.snapshot()
        assert _value(snapshot, "c") == 5
        assert _value(snapshot, "g") == 9
        assert snapshot["h"]["count"] == 2

    def test_merge_rejects_kind_and_bounds_mismatches(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(ValueError):
            registry.merge({"x": {"type": "gauge", "value": 1}})
        registry.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            registry.merge({"h": {
                "type": "histogram", "bounds": [1.0],
                "counts": [0, 0], "sum": 0.0, "count": 0,
            }})
        with pytest.raises(ValueError):
            registry.merge({"y": {"type": "mystery", "value": 1}})

    def test_worker_style_delta_merge_equals_direct_counting(self):
        # The supervisor pipeline in miniature: deltas shipped after
        # every request must sum to the worker's own totals.
        worker, supervisor = MetricsRegistry(), MetricsRegistry()
        for n in (1, 4, 2):
            worker.counter("req").inc(n)
            worker.gauge("peak").set_max(n)
            supervisor.merge(worker.delta())
        merged = supervisor.snapshot()
        assert _value(merged, "req") == 7
        assert _value(merged, "peak") == 4

    def test_histogram_quantile_is_a_bucket_upper_bound(self):
        histogram = Histogram(bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(0.99) == 10.0
        assert Histogram().quantile(0.5) == 0.0

    def test_opcode_classes(self):
        assert opcode_class("get_structure") == "get"
        assert opcode_class("put_value") == "put"
        assert opcode_class("unify_void") == "unify"
        assert opcode_class("proceed") == "control"
        assert opcode_class("switch_on_term") == "index"
        assert opcode_class("no_such_op") == "other"


# ----------------------------------------------------------------------
# Instrumented analysis: hand-counted values on a tiny program.


class TestAnalysisMetrics:
    def analyze(self, text, entry):
        registry = MetricsRegistry()
        result = Analyzer(
            Program.from_text(text), metrics=registry
        ).analyze([entry])
        return result, registry.snapshot()

    def test_single_fact_hand_counted(self):
        # p(a). with entry p(var): pass 1 explores (lookup misses, the
        # entry is created, the success pattern lands), pass 2 re-runs
        # and finds the table unchanged (lookup hits).  Each pass costs
        # get_constant + proceed + the query stub's halt = 3.
        result, snapshot = self.analyze("p(a).", "p(var)")
        assert _value(snapshot, "analysis.iterations") == 2
        assert result.iterations == 2
        assert _value(snapshot, "wam.instructions") == 6
        assert _value(snapshot, "wam.instructions") == \
            result.instructions_executed
        assert _value(snapshot, "wam.instructions.op{op=get_constant}") == 2
        assert _value(snapshot, "wam.instructions.op{op=proceed}") == 2
        assert _value(snapshot, "wam.instructions.op{op=halt}") == 2
        assert _value(snapshot, "wam.instructions.class{class=get}") == 2
        assert _value(snapshot, "wam.instructions.class{class=control}") == 4
        assert _value(snapshot, "analysis.predicate.calls{pred=p/1}") == 2
        # halt runs after p/1's frame closes, so only 4 of 6 attribute.
        assert _value(
            snapshot, "analysis.predicate.instructions{pred=p/1}"
        ) == 4
        assert _value(snapshot, "table.lookups") == 2
        assert _value(snapshot, "table.misses") == 1
        assert _value(snapshot, "table.hits") == 1
        assert _value(snapshot, "table.entries.created") == 1
        assert _value(snapshot, "analysis.specs{status=exact}") == 1
        assert snapshot["analysis.entry.seconds"]["count"] == 1

    def test_class_and_op_breakdowns_sum_to_the_total(self):
        _, snapshot = self.analyze(NREV, ENTRY)
        total = _value(snapshot, "wam.instructions")
        assert total > 0
        by_class = sum(
            data["value"] for key, data in snapshot.items()
            if key.startswith("wam.instructions.class{")
        )
        by_op = sum(
            data["value"] for key, data in snapshot.items()
            if key.startswith("wam.instructions.op{")
        )
        assert by_class == total
        assert by_op == total

    def test_table_accounting_is_consistent(self):
        _, snapshot = self.analyze(NREV, ENTRY)
        assert _value(snapshot, "table.lookups") == \
            _value(snapshot, "table.hits") + _value(snapshot, "table.misses")
        assert _value(snapshot, "table.entries.created") <= \
            _value(snapshot, "table.misses")
        assert _value(snapshot, "analysis.unify.calls") > 0
        assert _value(snapshot, "analysis.frames.peak") >= 1

    def test_metrics_never_change_the_result(self):
        plain = Analyzer(Program.from_text(NREV)).analyze([ENTRY])
        registry = MetricsRegistry()
        instrumented = Analyzer(
            Program.from_text(NREV), metrics=registry
        ).analyze([ENTRY])
        assert instrumented.stable_dict() == plain.stable_dict()
        assert len(registry) > 0  # the registry did observe the run


# ----------------------------------------------------------------------
# The tracer.


class TestTracer:
    def test_round_trip_and_nesting(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with Tracer(path) as tracer:
            with tracer.span("request", op="analyze"):
                with tracer.span("entry_spec", spec="p(var)"):
                    tracer.event("fixpoint_iteration", pass_number=1)
                tracer.event("outer_event")
        records = read_trace(path)
        begun = validate_nesting(records)
        assert [r["kind"] for r in records] == \
            ["begin", "begin", "event", "end", "event", "end"]
        assert begun[2]["parent"] == 1
        assert records[2]["span"] == 2  # event binds the innermost span
        assert records[4]["span"] == 1
        end = records[3]
        assert end["elapsed"] >= 0

    def test_close_ends_unclosed_spans_as_aborted(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        tracer.begin("request")
        tracer.begin("entry_spec")
        tracer.close()
        records = read_trace(path)
        validate_nesting(records)  # well formed despite the crash shape
        ends = [r for r in records if r["kind"] == "end"]
        assert len(ends) == 2
        assert all(r["attrs"]["aborted"] for r in ends)

    def test_span_records_the_exception(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        with pytest.raises(RuntimeError):
            with tracer.span("request"):
                raise RuntimeError("boom")
        tracer.close()
        end = read_trace(path)[-1]
        assert "boom" in end["attrs"]["error"]

    def test_validate_nesting_rejects_violations(self):
        begin = {"ts": 0.0, "kind": "begin", "span": 1, "parent": None,
                 "name": "a"}
        end = {"ts": 1.0, "kind": "end", "span": 1, "name": "a"}
        with pytest.raises(ValueError, match="unclosed"):
            validate_nesting([begin])
        with pytest.raises(ValueError, match="open stack"):
            validate_nesting([end])
        with pytest.raises(ValueError, match="backwards"):
            validate_nesting([begin, dict(end, ts=-1.0)])
        with pytest.raises(ValueError, match="reused"):
            validate_nesting([begin, end, dict(begin, ts=2.0)])
        stray_event = {"ts": 0.5, "kind": "event", "span": 99, "name": "e"}
        with pytest.raises(ValueError, match="innermost"):
            validate_nesting([begin, stray_event, end])

    def test_end_without_open_span_raises(self):
        tracer = Tracer("-")
        with pytest.raises(ValueError):
            tracer.end()


# ----------------------------------------------------------------------
# The serve stack: the metrics op, stats, and traced requests.


class TestServiceObservability:
    def test_metrics_op_and_stats_expose_the_registry(self):
        service = AnalysisService(ServiceConfig())
        ok = service.handle(
            {"op": "analyze", "text": NREV, "entries": [ENTRY]}
        )
        assert ok["ok"]
        answer = service.handle({"op": "metrics", "id": 7})
        assert answer["ok"] and answer["id"] == 7
        snapshot = answer["metrics"]
        assert _value(snapshot, "serve.requests{op=analyze}") == 1
        assert _value(snapshot, "serve.cache{outcome=miss}") == 1
        assert _value(snapshot, "wam.instructions") > 0
        assert snapshot["serve.request.seconds"]["count"] >= 1
        stats = service.handle({"op": "stats"})
        assert "serve.requests{op=metrics}" in stats["stats"]["metrics"]

    def test_cache_outcomes_are_counted(self):
        service = AnalysisService(ServiceConfig())
        request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
        service.handle(request)
        service.handle(request)  # full-result fingerprint hit
        snapshot = service.metrics.snapshot()
        assert _value(snapshot, "serve.cache{outcome=miss}") == 1
        assert _value(snapshot, "serve.cache{outcome=hit}") == 1

    def test_errors_are_counted(self):
        service = AnalysisService(ServiceConfig())
        bad = service.handle({"op": "analyze", "text": ":- :-", "entries": []})
        assert not bad["ok"]
        assert _value(service.metrics.snapshot(), "serve.errors") == 1

    def test_traced_request_nests_spans(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        service = AnalysisService(ServiceConfig(), tracer=tracer)
        service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
        tracer.close()
        records = read_trace(path)
        begun = validate_nesting(records)
        names = {record["name"] for record in begun.values()}
        assert {"request", "entry_spec"} <= names
        request_span = next(
            r for r in begun.values() if r["name"] == "request"
        )
        assert request_span["parent"] is None
        assert request_span["attrs"]["op"] == "analyze"
        spec_spans = [r for r in begun.values() if r["name"] == "entry_spec"]
        assert all(r["parent"] == request_span["span"] for r in spec_spans)
        events = {r["name"] for r in records if r["kind"] == "event"}
        assert "fixpoint_iteration" in events


# ----------------------------------------------------------------------
# Supervisor aggregation: the fleet view is the sum of worker deltas.


class TestSupervisorAggregation:
    def test_two_workers_sum_into_the_supervisor_registry(self):
        from repro.serve import Supervisor, SupervisorConfig

        supervisor = Supervisor(
            ServiceConfig(), SupervisorConfig(workers=2, max_retries=0)
        )
        try:
            request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
            for _ in range(3):
                assert supervisor.handle(dict(request))["ok"]
            answer = supervisor.handle({"op": "metrics"})
            assert answer["ok"]
            snapshot = answer["metrics"]
            # Shipped by the workers and merged here: each analyze was
            # served (and counted) by exactly one worker.
            assert _value(snapshot, "serve.requests{op=analyze}") == 3
            assert _value(snapshot, "wam.instructions") > 0
            # Counted by the supervisor itself.
            assert _value(snapshot, "serve.worker.requests{op=analyze}") == 3
            stats = supervisor.stats()
            assert stats["metrics"] == snapshot
        finally:
            supervisor.close()

    def test_worker_response_does_not_leak_the_wire_field(self):
        from repro.serve import Supervisor, SupervisorConfig

        supervisor = Supervisor(
            ServiceConfig(), SupervisorConfig(workers=1, max_retries=0)
        )
        try:
            response = supervisor.handle(
                {"op": "analyze", "text": NREV, "entries": [ENTRY]}
            )
            assert response["ok"]
            assert "_metrics" not in response
            invalidated = supervisor.handle({"op": "invalidate"})
            assert "_metrics" not in invalidated
        finally:
            supervisor.close()


# ----------------------------------------------------------------------
# Surfacing: the profile report and the CLI flags.


class TestProfileReport:
    def snapshot(self):
        registry = MetricsRegistry()
        Analyzer(Program.from_text(NREV), metrics=registry).analyze([ENTRY])
        return registry.snapshot()

    def test_report_helpers(self):
        snapshot = self.snapshot()
        mix = instruction_mix(snapshot)
        assert sum(mix.values()) == _value(snapshot, "wam.instructions")
        table = table_hit_rate(snapshot)
        assert table["lookups"] == table["hits"] + table["misses"]
        assert 0.0 <= table["hit_rate"] <= 1.0

    def test_format_profile_sections(self):
        text = format_profile(self.snapshot())
        assert "instruction mix" in text
        assert "hottest opcodes" in text
        assert "predicate cost" in text
        assert "extension table" in text
        assert "nrev/2" in text

    def test_cli_profile_flag(self, tmp_path, capsys):
        from repro.cli import main_analyze

        path = tmp_path / "prog.pl"
        path.write_text(NREV)
        assert main_analyze([str(path), ENTRY, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "instruction mix" in out
        assert "predicate cost" in out

    def test_cli_profile_json_embeds_the_snapshot(self, tmp_path, capsys):
        from repro.cli import main_analyze

        path = tmp_path / "prog.pl"
        path.write_text(NREV)
        assert main_analyze([str(path), ENTRY, "--profile", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["metrics"]["wam.instructions"]["value"] > 0

    def test_cli_trace_out(self, tmp_path, capsys):
        from repro.cli import main_analyze

        path = tmp_path / "prog.pl"
        path.write_text(NREV)
        trace = tmp_path / "trace.jsonl"
        assert main_analyze([str(path), ENTRY, "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        records = read_trace(str(trace))
        begun = validate_nesting(records)
        assert any(r["name"] == "entry_spec" for r in begun.values())
