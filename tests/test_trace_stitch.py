"""Cross-process trace stitching (repro.obs.trace + the serve layers).

The contract under test (docs/tracing.md): a tracer family sharing one
trace id produces records that :func:`stitch` merges into a single tree
with globally-qualified span ids; :func:`validate_stitched` enforces
per-process LIFO discipline plus resolvable, acyclic cross-process
parent edges; the serve layers thread the ``_trace`` context down to
the workers and ship completed worker spans back up as ``_spans``, so
one gateway request yields one stitched tree covering gateway, shard,
supervisor, and worker; a worker killed mid-request leaves an
explicitly aborted attempt span instead of a hole; and the viewer
renders any of it into one self-contained HTML file.
"""

import asyncio
import io
import json

import pytest

from repro.obs import render_html
from repro.obs.trace import (
    SPANS_WIRE_KEY,
    TRACE_CONTEXT_KEY,
    Tracer,
    new_trace_id,
    read_trace,
    stitch,
    trace_summary,
    validate_stitched,
)
from repro.serve.gateway import Gateway, GatewayConfig
from repro.serve.service import ServiceConfig
from repro.serve.supervisor import Supervisor, SupervisorConfig

APP = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
"""

APP_ENTRY = "app(glist, glist, var)"


def _records(buffer: io.StringIO):
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestContext:
    """The wire context and the record decorations it produces."""

    def test_current_context_names_the_innermost_span(self):
        tracer = Tracer(io.StringIO(), process="supervisor-0")
        tracer.begin("supervisor.execute")
        tracer.begin("worker.attempt")
        context = tracer.current_context()
        assert context["parent"] == "supervisor-0:2"
        assert context["trace"] == tracer.trace_id

    def test_process_none_tracer_has_no_context(self):
        tracer = Tracer(io.StringIO())
        tracer.begin("request")
        assert tracer.current_context() is None

    def test_child_tracer_roots_carry_the_parent_ref(self):
        parent = Tracer(io.StringIO(), process="supervisor-0")
        parent.begin("supervisor.execute")
        buffer = io.StringIO()
        child = Tracer(
            buffer, process="worker-1.1", context=parent.current_context()
        )
        child.begin("request")
        child.end()
        [begin, _] = _records(buffer)
        assert begin["parent_ref"] == "supervisor-0:1"
        assert begin["trace"] == parent.trace_id
        assert begin["process"] == "worker-1.1"
        assert "epoch" in begin

    def test_trace_id_is_shared_across_a_tracer_family(self):
        trace_id = new_trace_id()
        a = Tracer(io.StringIO(), process="gateway", trace_id=trace_id)
        b = Tracer(io.StringIO(), process="shard-0", trace_id=trace_id)
        assert a.trace_id == b.trace_id == trace_id

    def test_single_process_records_stay_undecorated(self):
        buffer = io.StringIO()
        tracer = Tracer(buffer)
        tracer.begin("a")
        tracer.end()
        [begin, end] = _records(buffer)
        assert "process" not in begin and "process" not in end
        assert "trace" not in begin and "epoch" not in begin


class TestStitch:
    """stitch() + validate_stitched() on hand-built record sets."""

    def _family(self):
        sink = io.StringIO()
        sup = Tracer(sink, process="supervisor-0")
        sup.begin("supervisor.execute")
        sup.begin("worker.attempt")
        worker_sink = io.StringIO()
        worker = Tracer(
            worker_sink, process="worker-9.1",
            context=sup.current_context(),
        )
        worker.begin("request")
        worker.event("fixpoint_iteration", pass_number=1)
        worker.end()
        sup.emit_foreign(_records(worker_sink))
        sup.end()
        sup.end()
        return _records(sink)

    def test_stitch_qualifies_ids_and_resolves_parent_refs(self):
        stitched = stitch(self._family())
        begun = validate_stitched(stitched)
        assert set(begun) == {
            "supervisor-0:1", "supervisor-0:2", "worker-9.1:1",
        }
        assert begun["worker-9.1:1"]["parent"] == "supervisor-0:2"
        assert begun["supervisor-0:1"]["parent"] is None

    def test_one_tree_summary(self):
        summary = trace_summary(self._family())
        assert summary["roots"] == ["supervisor-0:1"]
        assert summary["spans"] == 3
        assert summary["processes"] == ["supervisor-0", "worker-9.1"]
        assert len(summary["traces"]) == 1

    def test_validate_accepts_raw_records(self):
        # Auto-stitches int-span input before checking.
        assert validate_stitched(self._family())

    def test_dangling_parent_ref_is_rejected(self):
        records = self._family()
        for record in records:
            if record.get("parent_ref"):
                record["parent_ref"] = "supervisor-0:99"
        with pytest.raises(ValueError, match="does not exist"):
            validate_stitched(records)

    def test_per_process_lifo_violation_is_rejected(self):
        records = self._family()
        # End supervisor span 1 while span 2 is still open.
        ends = [
            record for record in records
            if record["kind"] == "end" and record["process"] == "supervisor-0"
        ]
        ends[0]["span"], ends[1]["span"] = ends[1]["span"], ends[0]["span"]
        with pytest.raises(ValueError, match="open stack"):
            validate_stitched(records)

    def test_span_id_reuse_is_rejected(self):
        records = self._family()
        duplicate = dict(next(
            record for record in records if record["kind"] == "begin"
        ))
        records.append(duplicate)
        with pytest.raises(ValueError, match="reused"):
            validate_stitched(records)

    def test_timestamps_rebase_onto_a_shared_origin(self):
        stitched = stitch(self._family())
        assert stitched == sorted(stitched, key=lambda r: r["ts"])
        assert all(record["ts"] >= 0 for record in stitched)

    def test_single_process_trace_stitches_as_main(self):
        buffer = io.StringIO()
        tracer = Tracer(buffer)
        tracer.begin("entry_spec")
        tracer.event("fixpoint_iteration", pass_number=1)
        tracer.end()
        stitched = stitch(_records(buffer))
        begun = validate_stitched(stitched)
        assert set(begun) == {"main:1"}


class TestSupervisorRoundTrip:
    """Real worker subprocesses shipping spans up the wire."""

    def test_worker_round_trip_stitches_into_trees(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        supervisor = Supervisor(
            ServiceConfig(),
            SupervisorConfig(),
            tracer=Tracer(path, process="supervisor-0"),
        )
        try:
            for salt in ("", "% v2\n"):
                response = supervisor.handle({
                    "op": "analyze", "text": APP + salt,
                    "entries": [APP_ENTRY],
                })
                assert response["ok"], response
                # The wire block never leaks to clients.
                assert SPANS_WIRE_KEY not in response
                assert TRACE_CONTEXT_KEY not in response
        finally:
            supervisor.close()
        records = read_trace(path)
        summary = trace_summary(records)  # implies validate_stitched
        assert "supervisor-0" in summary["processes"]
        workers = [
            process for process in summary["processes"]
            if process.startswith("worker-")
        ]
        assert workers, summary
        # One root per request, each a supervisor.execute span.
        begun = validate_stitched(stitch(records))
        for root in summary["roots"]:
            assert begun[root]["name"] == "supervisor.execute"
        # Every worker root span hangs under a supervisor worker.attempt
        # span; spans internal to the worker parent within the worker.
        for span, record in begun.items():
            if span.startswith("worker-") and record.get("parent"):
                parent = begun[record["parent"]]
                if parent_process := record["parent"].rsplit(":", 1)[0]:
                    if not parent_process.startswith("worker-"):
                        assert parent["name"] == "worker.attempt"
        assert summary["aborted"] == []

    def test_killed_worker_leaves_an_aborted_attempt_span(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        supervisor = Supervisor(
            ServiceConfig(),
            SupervisorConfig(max_retries=2),
            tracer=Tracer(path, process="supervisor-0"),
        )
        try:
            response = supervisor.handle({
                "op": "analyze", "text": APP, "entries": [APP_ENTRY],
                "_chaos": {"kill": True},
            })
            assert response["ok"], response
        finally:
            supervisor.close()
        summary = trace_summary(read_trace(path))
        begun = validate_stitched(stitch(read_trace(path)))
        assert summary["aborted"], "killed attempt must leave a tombstone"
        for span in summary["aborted"]:
            assert begun[span]["name"] == "worker.attempt"

    def test_tracing_does_not_change_the_request_key(self):
        request = {"op": "analyze", "text": APP, "entries": [APP_ENTRY]}
        traced = dict(request)
        traced[TRACE_CONTEXT_KEY] = {"trace": "ab" * 8, "parent": "x:1"}
        assert (
            Supervisor._request_key(request)
            == Supervisor._request_key(traced)
        )


class TestGatewayEndToEnd:
    """One TCP request, one stitched tree across all four layers."""

    def test_request_yields_one_stitched_tree(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")

        async def scenario():
            gateway = Gateway(
                GatewayConfig(shards=2, workers=1),
                ServiceConfig(),
                trace_path=path,
            )
            await gateway.start()
            host, port = gateway.address
            reader, writer = await asyncio.open_connection(host, port)
            request = {
                "op": "analyze", "text": APP,
                "entries": [APP_ENTRY], "id": 1,
            }
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await gateway.stop()
            return response

        response = asyncio.run(scenario())
        assert response["ok"], response
        assert SPANS_WIRE_KEY not in response
        assert TRACE_CONTEXT_KEY not in response
        records = read_trace(path)
        summary = trace_summary(records)
        # One request covers every layer under a single gateway root.
        assert len(summary["roots"]) == 1
        assert summary["roots"][0].startswith("gateway:")
        kinds = {process.split("-")[0] for process in summary["processes"]}
        assert kinds == {"gateway", "shard", "supervisor", "worker"}
        assert len(summary["traces"]) == 1

    def test_trace_off_gateway_ships_no_context(self):
        async def scenario():
            gateway = Gateway(
                GatewayConfig(shards=1, workers=0), ServiceConfig()
            )
            await gateway.start()
            response = await gateway.handle_request({
                "op": "analyze", "text": APP, "entries": [APP_ENTRY],
            })
            await gateway.stop()
            return response

        response = asyncio.run(scenario())
        assert response["ok"]
        assert TRACE_CONTEXT_KEY not in response


class TestStateDumps:
    """--trace-states: per-pass table_state events, capped."""

    def _trace(self, tmp_path, budget):
        from repro.analysis.driver import Analyzer

        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        analyzer = Analyzer(APP, tracer=tracer, trace_states=budget)
        analyzer.analyze([APP_ENTRY])
        tracer.close()
        return read_trace(path)

    def test_state_dumps_ride_the_iteration_events(self, tmp_path):
        records = self._trace(tmp_path, budget=10)
        states = [r for r in records if r["name"] == "table_state"]
        iterations = [
            r for r in records if r["name"] == "fixpoint_iteration"
        ]
        assert states and len(states) == len(iterations)
        state = states[0]["attrs"]["state"]
        assert state["entries"] and "widenings" in state
        entry = state["entries"][0]
        assert {"key", "success", "status", "updates",
                "frontier"} <= set(entry)
        # First dump: everything is frontier; the converged last pass
        # changed nothing, so its frontier is empty.
        assert all(e["frontier"] for e in state["entries"])
        final = states[-1]["attrs"]["state"]
        assert not any(e["frontier"] for e in final["entries"])

    def test_budget_caps_the_dumps(self, tmp_path):
        records = self._trace(tmp_path, budget=1)
        states = [r for r in records if r["name"] == "table_state"]
        assert len(states) == 1

    def test_zero_budget_emits_none(self, tmp_path):
        records = self._trace(tmp_path, budget=0)
        assert not any(r["name"] == "table_state" for r in records)


class TestViewer:
    """render_html: self-contained page, embedded or picker mode."""

    def test_embedded_page_is_self_contained(self, tmp_path):
        from repro.analysis.driver import Analyzer

        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        analyzer = Analyzer(APP, tracer=tracer, trace_states=4)
        analyzer.analyze([APP_ENTRY])
        tracer.close()
        html = render_html(read_trace(path), title="app <trace>")
        assert html.startswith("<!DOCTYPE html>")
        assert "app &lt;trace&gt;" in html
        assert "table_state" in html  # the embedded data
        assert "src=" not in html  # no external resources
        # The embedded JSON must not close the carrier script tag.
        payload = html.split(
            '<script id="trace-data" type="application/json">', 1
        )[1].split("</script>", 1)[0]
        assert "</" not in payload
        assert json.loads(payload.replace("<\\/", "</"))

    def test_picker_page_has_no_embedded_data(self):
        html = render_html(None)
        payload = html.split(
            '<script id="trace-data" type="application/json">', 1
        )[1].split("</script>", 1)[0]
        assert payload.strip() == ""
        assert 'id="picker"' in html

    def test_metrics_account_the_render(self):
        from repro.obs import MetricsRegistry

        buffer = io.StringIO()
        tracer = Tracer(buffer, process="main")
        tracer.begin("request")
        tracer.end()
        metrics = MetricsRegistry()
        render_html(_records(buffer), metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["viewer.renders"]["value"] == 1
        assert snapshot["viewer.embedded_records"]["value"] == 2
        assert snapshot["viewer.html_bytes"]["value"] > 0


class TestTraceCli:
    """repro-trace stitch/check/html."""

    def _write_trace(self, tmp_path):
        from repro.cli import main_analyze

        trace = str(tmp_path / "trace.jsonl")
        assert main_analyze([
            "examples/nrev.pl", "nrev(glist, var)",
            "--trace-out", trace, "--trace-states", "4",
        ]) == 0
        return trace

    def test_check_valid_trace(self, tmp_path, capsys):
        from repro.cli import main_trace

        trace = self._write_trace(tmp_path)
        capsys.readouterr()  # drain the analyze run's own report
        assert main_trace(["check", trace]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"] >= 1

    def test_check_rejects_a_torn_trace(self, tmp_path, capsys):
        from repro.cli import main_trace

        trace = self._write_trace(tmp_path)
        records = read_trace(trace)
        # Drop the end records: unclosed spans must fail the check.
        with open(trace, "w", encoding="utf-8") as handle:
            for record in records:
                if record["kind"] != "end":
                    handle.write(json.dumps(record) + "\n")
        assert main_trace(["check", trace]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_check_rejects_an_unreadable_trace(self, tmp_path, capsys):
        import pytest

        from repro.cli import main_trace

        trace = str(tmp_path / "torn.jsonl")
        # A crashed writer can leave a torn final line: structured
        # one-line failure, not a JSONDecodeError traceback.
        with open(trace, "w", encoding="utf-8") as handle:
            handle.write('{"kind": "begin", "span": 1, "na')
        with pytest.raises(SystemExit) as excinfo:
            main_trace(["check", trace])
        assert excinfo.value.code == 1
        assert "unreadable trace" in capsys.readouterr().err

    def test_stitch_writes_qualified_records(self, tmp_path):
        from repro.cli import main_trace

        trace = self._write_trace(tmp_path)
        out = str(tmp_path / "stitched.jsonl")
        assert main_trace(["stitch", trace, "--out", out]) == 0
        stitched = read_trace(out)
        assert all(
            isinstance(record["span"], (str, type(None)))
            for record in stitched
        )
        validate_stitched(stitched)

    def test_html_writes_the_viewer(self, tmp_path, capsys):
        from repro.cli import main_trace

        trace = self._write_trace(tmp_path)
        out = str(tmp_path / "trace.html")
        assert main_trace(["html", trace, "--out", out]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            assert handle.read(15) == "<!DOCTYPE html>"

    def test_html_picker_without_a_trace(self, tmp_path):
        from repro.cli import main_trace

        out = str(tmp_path / "picker.html")
        assert main_trace(["html", "--out", out]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            assert 'id="picker"' in handle.read()
